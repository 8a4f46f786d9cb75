//! Shared plumbing for the reproduction binaries.
//!
//! Every table and figure of the paper has a regenerating target:
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run -p orthotrees-bench --bin table1` | Table I (sorting, log-delay) |
//! | `… --bin table2` | Table II (Boolean matmul) |
//! | `… --bin table3` | Table III (connected components + MST) |
//! | `… --bin table4` | Table IV (sorting, constant-delay) |
//! | `… --bin figures` | Figs. 1–3 (layouts, ASCII + SVG + area sweeps) |
//! | `… --bin extras` | §IV bitonic/DFT, §VIII pipelining, ablations |
//! | `… --bin repro` | everything above in one report |
//!
//! Pass `--full` for the larger sweep grids (slower, tighter fits).
//!
//! These targets print simulated bit-times (τ). Host wall-clock time has
//! one harness, `wallbench`, in its own workspace under `benchmark/`.

use orthotrees_analysis::report::ReportConfig;

pub mod diff;
pub mod export;
pub mod profile;
pub mod summary;

/// Sweep-size presets for the binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Seconds-scale grids (default).
    Quick,
    /// Minutes-scale grids (`--full`): one more doubling everywhere.
    Full,
}

impl Preset {
    /// Parses process arguments: `--full` selects [`Preset::Full`].
    pub fn from_args(args: impl Iterator<Item = String>) -> Preset {
        for a in args {
            if a == "--full" {
                return Preset::Full;
            }
        }
        Preset::Quick
    }

    /// The preset a document's `preset` field names, if any.
    pub fn from_name(name: &str) -> Option<Preset> {
        [Preset::Quick, Preset::Full].into_iter().find(|p| p.name() == name)
    }

    /// The preset's name as written into `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Quick => "quick",
            Preset::Full => "full",
        }
    }

    /// The sweep grids for this preset.
    pub fn config(self) -> ReportConfig {
        match self {
            Preset::Quick => ReportConfig::default(),
            Preset::Full => ReportConfig {
                sort_ns: vec![16, 32, 64, 128, 256, 512, 1024],
                matmul_ns: vec![2, 4, 8, 16, 32, 64],
                graph_ns: vec![8, 16, 32, 64, 128, 256, 512],
                ..ReportConfig::default()
            },
        }
    }
}

/// Reads the preset from `std::env::args`.
pub fn preset_from_env() -> Preset {
    Preset::from_args(std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_flag() {
        assert_eq!(Preset::from_args(["--full".to_string()].into_iter()), Preset::Full);
        assert_eq!(Preset::from_args(["--fast".to_string()].into_iter()), Preset::Quick);
        assert_eq!(Preset::from_args(std::iter::empty()), Preset::Quick);
    }

    #[test]
    fn full_grids_extend_quick_grids() {
        let quick = Preset::Quick.config();
        let full = Preset::Full.config();
        assert!(full.sort_ns.len() > quick.sort_ns.len());
        assert!(full.sort_ns.starts_with(&quick.sort_ns));
        assert_eq!(quick.seed, full.seed, "same workloads at shared sizes");
    }
}
