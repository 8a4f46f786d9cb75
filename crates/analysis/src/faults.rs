//! Fault-injection sweeps: sorted-output accuracy and slowdown as the
//! word-fault rate rises — the robustness companion to the performance
//! sweeps in [`crate::sweep`].
//!
//! [`sort_faults`] runs on either network, picked by its [`Topology`]
//! (`SORT-OTN` on `Tree`, `SORT-OTC` on `Cycles`). Each point installs a
//! deterministic [`FaultPlan`] on a fresh network, reruns `SORT`, and
//! scores the run three ways:
//!
//! * **accuracy** — fraction of output positions holding the correct word
//!   (erased and silently corrupted words both lose their position);
//! * **slowdown** — simulated time relative to the fault-free run, i.e. the
//!   retransmission and reroute overheads the recovery machinery charges;
//! * the detection/recovery counters from [`FaultStats`] (injected,
//!   detected, corrected, erased, silent).
//!
//! Every number is a pure function of `(n, seed, rate)`: the fault draws
//! are stateless hashes, so a sweep reproduces bit-for-bit across runs.

use crate::workloads::{self, Word};
use orthotrees::wordnet::Topology;
use orthotrees::{BitTime, FaultPlan, FaultStats};
use std::fmt::Write as _;

/// One measured point of a fault sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPoint {
    /// Per-word fault probability at each transmission site.
    pub rate: f64,
    /// Fraction of output positions holding the correct word.
    pub accuracy: f64,
    /// Time relative to the fault-free run (`1.0` = no overhead).
    pub slowdown: f64,
    /// Output positions that received no word at all.
    pub missing: usize,
    /// What the fault plan did to the run.
    pub stats: FaultStats,
}

/// A degradation series for one network sorting `n` words.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSweep {
    /// Network name as the paper's tables write it.
    pub network: String,
    /// Problem size.
    pub n: usize,
    /// Seed behind both the workload and every fault draw.
    pub seed: u64,
    /// Fault-free sort time, the slowdown baseline.
    pub baseline: BitTime,
    /// The measured points, in the order the rates were given.
    pub points: Vec<FaultPoint>,
}

impl FaultSweep {
    /// Renders the degradation table as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} sorting degradation (n = {}, seed = {}, fault-free time = {} tau)",
            self.network,
            self.n,
            self.seed,
            self.baseline.get()
        );
        let header = format!(
            "{:>8} | {:>8} | {:>8} | {:>7} | {:>8} | {:>8} | {:>9} | {:>8} | {:>6}",
            "rate",
            "accuracy",
            "slowdown",
            "missing",
            "injected",
            "detected",
            "corrected",
            "erasures",
            "silent"
        );
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>8.3} | {:>8.3} | {:>8.3} | {:>7} | {:>8} | {:>8} | {:>9} | {:>8} | {:>6}",
                p.rate,
                p.accuracy,
                p.slowdown,
                p.missing,
                p.stats.injected,
                p.stats.detected,
                p.stats.corrected,
                p.stats.erasures,
                p.stats.silent,
            );
        }
        out
    }
}

/// Fraction of positions where `got` matches the true sorted order.
fn accuracy(got: &[Word], reference: &[Word]) -> f64 {
    debug_assert_eq!(got.len(), reference.len());
    if got.is_empty() {
        return 1.0;
    }
    let hits = got.iter().zip(reference).filter(|(g, r)| g == r).count();
    hits as f64 / got.len() as f64
}

/// Sweeps the network's SORT over `rates` word-fault probabilities.
///
/// # Panics
///
/// Panics if `n` is not a supported sorting size (power of two ≥ 4).
pub fn sort_faults<T: Topology>(n: usize, seed: u64, rates: &[f64]) -> FaultSweep {
    let xs = workloads::distinct_words(n, seed);
    let mut reference = xs.clone();
    reference.sort_unstable();

    let mut net = T::for_sorting(n).expect("power-of-two n");
    let baseline = T::sort(&mut net, &xs).expect("matched size").time;

    let points = rates
        .iter()
        .map(|&rate| {
            let mut net = T::for_sorting(n).expect("power-of-two n");
            net.install_fault_plan(FaultPlan::new(seed).with_word_fault_rate(rate));
            let out = T::sort(&mut net, &xs).expect("matched size");
            FaultPoint {
                rate,
                accuracy: accuracy(&out.sorted, &reference),
                slowdown: out.time.as_f64() / baseline.as_f64(),
                missing: out.missing.len(),
                stats: net.fault_stats(),
            }
        })
        .collect();

    FaultSweep { network: T::NAME.into(), n, seed, baseline, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees::wordnet::{Cycles, Tree};

    #[test]
    fn zero_rate_point_is_exactly_the_fault_free_run() {
        let sweep = sort_faults::<Tree>(16, 7, &[0.0]);
        let p = &sweep.points[0];
        assert_eq!(p.accuracy, 1.0);
        assert_eq!(p.slowdown, 1.0, "empty plan must add zero overhead");
        assert_eq!(p.missing, 0);
        assert_eq!(p.stats, FaultStats::default());
    }

    #[test]
    fn heavy_faults_degrade_accuracy_and_cost_time() {
        let sweep = sort_faults::<Tree>(16, 7, &[0.0, 0.3]);
        let (clean, noisy) = (&sweep.points[0], &sweep.points[1]);
        assert!(noisy.accuracy < clean.accuracy, "30% word faults must cost accuracy");
        assert!(noisy.slowdown > 1.0, "retries must cost time");
        assert!(noisy.stats.injected > 0);
        assert!(noisy.stats.corrected > 0, "most detected faults should repair");
    }

    fn reproduces_bit_for_bit<T: Topology>() {
        let rates = [0.0, 0.05, 0.2];
        assert_eq!(sort_faults::<T>(16, 3, &rates), sort_faults::<T>(16, 3, &rates));
    }

    #[test]
    fn sweeps_reproduce_bit_for_bit() {
        reproduces_bit_for_bit::<Tree>();
        reproduces_bit_for_bit::<Cycles>();
    }

    #[test]
    fn otc_sweep_covers_every_rate_and_renders() {
        let sweep = sort_faults::<Cycles>(16, 9, &[0.0, 0.05, 0.15]);
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.points[0].accuracy, 1.0);
        let table = sweep.render();
        assert!(table.contains("OTC sorting degradation"));
        assert!(table.contains("accuracy"));
        assert_eq!(table.lines().count(), 3 + 3, "header block + one line per rate");
    }

    #[test]
    fn accuracy_counts_matching_positions() {
        assert_eq!(accuracy(&[1, 2, 3, 4], &[1, 2, 3, 4]), 1.0);
        assert_eq!(accuracy(&[1, 0, 3, 0], &[1, 2, 3, 4]), 0.5);
        assert_eq!(accuracy(&[], &[]), 1.0);
    }
}
