//! The full experiment battery: builds every reproduced table and the
//! derived checks (AT² rankings, crossovers, the §V OTC-equals-OTN-time
//! validation), and renders the text that EXPERIMENTS.md records and the
//! `repro` binary prints.

use crate::obsreport::{self, Observation};
use crate::recovery::{self, RecoveryRun};
use crate::tables::{paper, ReproTable};
use crate::telreport::{self, PipelineBatch};
use crate::{critpath, profreport, sweep};
use orthotrees_vlsi::Complexity;
use std::fmt::Write as _;

/// Sweep grids and seed for one report run.
#[derive(Clone, Debug)]
pub struct ReportConfig {
    /// Problem sizes for the sorting tables (I and IV).
    pub sort_ns: Vec<usize>,
    /// Matrix sides for Table II.
    pub matmul_ns: Vec<usize>,
    /// Vertex counts for Table III.
    pub graph_ns: Vec<usize>,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ReportConfig {
    /// A laptop-scale grid: large enough for stable exponent fits, small
    /// enough to run in seconds.
    fn default() -> Self {
        ReportConfig {
            sort_ns: vec![16, 32, 64, 128, 256, 512],
            matmul_ns: vec![2, 4, 8, 16, 32],
            graph_ns: vec![8, 16, 32, 64, 128, 256],
            seed: 0x07EE5,
        }
    }
}

impl ReportConfig {
    /// The size of the observed sorts behind the phase, critical-path and
    /// windowed-profile sections: the largest sorting size up to 128, or
    /// 16 if there is none. The breakdown's shape does not depend on the
    /// size, and 128 keeps the report fast.
    pub fn obs_n(&self) -> usize {
        self.sort_ns.iter().copied().filter(|&n| n <= 128).max().unwrap_or(16)
    }
}

/// Table I: sorting under the logarithmic-delay model, all five networks
/// measured.
pub fn table1(cfg: &ReportConfig) -> ReproTable {
    let ns = &cfg.sort_ns;
    let sweeps = vec![
        sweep::sort_mesh(ns, cfg.seed, false),
        sweep::sort_psn(ns, cfg.seed, false),
        sweep::sort_ccc(ns, cfg.seed, false),
        sweep::sort_otn(ns, cfg.seed, false),
        sweep::sort_otc(ns, cfg.seed),
    ];
    ReproTable::build("Table I", "sorting, logarithmic-delay model", paper::table1(), sweeps)
}

/// Table II: Boolean matrix multiplication. Mesh/OTN/OTC measured (OTC
/// emulated per §V: the OTN row's samples re-priced at the OTC's area);
/// PSN/CCC evaluated from the paper's closed forms (their `N³`-processor
/// constructions are cited, not built — see DESIGN.md).
pub fn table2(cfg: &ReportConfig) -> ReproTable {
    let ns = &cfg.matmul_ns;
    let otn = sweep::boolmm_otn(ns, cfg.seed);
    let otc = sweep::boolmm_otc_of(&otn);
    let sweeps = vec![
        sweep::boolmm_mesh(ns, cfg.seed),
        sweep::analytic(
            "PSN",
            "boolean matmul",
            Complexity::new(6.0, -1),
            Complexity::polylog(2),
            ns,
        ),
        sweep::analytic(
            "CCC",
            "boolean matmul",
            Complexity::new(6.0, -2),
            Complexity::polylog(2),
            ns,
        ),
        otn,
        otc,
        sweep::matmul_mot3d(ns, cfg.seed),
    ];
    ReproTable::build("Table II", "Boolean matrix multiplication", paper::table2(), sweeps)
}

/// Table III: connected components. Mesh (GKT timing), OTN and the direct
/// OTC implementation all measured; PSN/CCC analytic.
pub fn table3(cfg: &ReportConfig) -> ReproTable {
    let ns = &cfg.graph_ns;
    let sweeps = vec![
        sweep::cc_mesh(ns, cfg.seed),
        sweep::analytic(
            "PSN",
            "connected components",
            Complexity::new(4.0, -4),
            Complexity::polylog(4),
            ns,
        ),
        sweep::analytic(
            "CCC",
            "connected components",
            Complexity::new(4.0, -4),
            Complexity::polylog(4),
            ns,
        ),
        sweep::cc_otn(ns, cfg.seed),
        sweep::cc_otc(ns, cfg.seed),
    ];
    ReproTable::build("Table III", "connected components", paper::table3(), sweeps)
}

/// The MST companion of Table III (§III.B/§VI.B prose).
pub fn table3_mst(cfg: &ReportConfig) -> ReproTable {
    let ns = &cfg.graph_ns;
    let sweeps = vec![sweep::mst_otn(ns, cfg.seed), sweep::mst_otc(ns, cfg.seed)];
    ReproTable::build(
        "Table III′",
        "minimum spanning tree (paper §III.B / §VI.B prose)",
        paper::table3_mst(),
        sweeps,
    )
}

/// Table IV: sorting under the unit-cost constant-delay model.
pub fn table4(cfg: &ReportConfig) -> ReproTable {
    let ns = &cfg.sort_ns;
    let sweeps = vec![
        sweep::sort_mesh(ns, cfg.seed, true),
        sweep::sort_psn(ns, cfg.seed, true),
        sweep::sort_ccc(ns, cfg.seed, true),
        sweep::sort_otn(ns, cfg.seed, true),
    ];
    ReproTable::build(
        "Table IV",
        "sorting, constant-delay (unit-cost) model",
        paper::table4(),
        sweeps,
    )
}

/// Checks whether the measured AT² ranking matches the paper's asymptotic
/// ranking, restricted to the networks present in both, and reports the
/// comparison as text.
pub fn ranking_check(table: &ReproTable) -> String {
    let paper_rank = table.paper_ranking();
    let measured = table.measured_ranking();
    let measured_names: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    let paper_filtered: Vec<&str> =
        paper_rank.iter().copied().filter(|n| measured_names.contains(n)).collect();
    let verdict = if paper_filtered == measured_names {
        "MATCH"
    } else {
        "DIFFERS (finite-size constants; see crossover analysis)"
    };
    format!(
        "{}: paper AT² order {:?}; measured at largest n {:?} → {}\n",
        table.id, paper_filtered, measured_names, verdict
    )
}

/// The paper's headline crossover claims, evaluated from the Θ forms:
/// where the OTC starts beating each rival, per problem.
pub fn crossover_report() -> String {
    let mut out = String::new();
    let limit = 1u64 << 62;
    let cases: [(&str, Complexity, &str, Complexity); 3] = [
        (
            "OTC vs Mesh, connected components",
            Complexity::new(2.0, 8),
            "Mesh",
            Complexity::poly(4.0),
        ),
        (
            "OTC vs PSN/CCC, connected components",
            Complexity::new(2.0, 8),
            "PSN/CCC",
            Complexity::new(4.0, 4),
        ),
        ("OTC vs CCC, Boolean matmul", Complexity::new(4.0, 2), "CCC", Complexity::new(6.0, 2)),
    ];
    for (name, otc, rival, other) in cases {
        match otc.crossover_below(&other, limit) {
            Some(n) => {
                let _ = writeln!(
                    out,
                    "{name}: OTC ({otc}) overtakes {rival} ({other}) at N = {n} \
                     (OTC {:.3e} vs {:.3e})",
                    otc.eval(n),
                    other.eval(n)
                );
            }
            None => {
                let _ = writeln!(out, "{name}: no crossover below 2^62");
            }
        }
    }
    out
}

/// Everything one report run measures, each experiment run once: the
/// five tables, the [`Observation`] at [`ReportConfig::obs_n`], the two
/// supervised recovery workloads and the two pipeline-SLO batches. The
/// report text ([`render_report`]), the bench summary and `repro`'s
/// Perfetto trace all read it.
#[derive(Debug)]
pub struct Battery {
    /// The grids and seed it was run with.
    pub cfg: ReportConfig,
    /// Every reproduced table in report order (Tables I, II, III, III′
    /// and IV), each with the file stem `repro` writes it under as
    /// `<stem>.csv`.
    pub tables: [(&'static str, ReproTable); 5],
    /// The observed sorts and broadcast.
    pub obs: Observation,
    /// The supervised recovery workloads.
    pub recovery: [RecoveryRun; 2],
    /// The pipeline-SLO batches.
    pub pipelines: [PipelineBatch; 2],
}

impl Battery {
    /// Runs every experiment of the report once, in report order.
    pub fn run(cfg: &ReportConfig) -> Battery {
        Battery {
            cfg: cfg.clone(),
            tables: [
                ("table1", table1(cfg)),
                ("table2", table2(cfg)),
                ("table3", table3(cfg)),
                ("table3_mst", table3_mst(cfg)),
                ("table4", table4(cfg)),
            ],
            obs: Observation::run(cfg.obs_n(), cfg.seed),
            recovery: recovery::recovery_runs(cfg.seed),
            pipelines: telreport::pipeline_batches(cfg.seed),
        }
    }
}

/// Runs the whole battery and renders the report.
pub fn full_report(cfg: &ReportConfig) -> String {
    render_report(&Battery::run(cfg))
}

/// The report of [`full_report`], rendered from `battery`.
pub fn render_report(battery: &Battery) -> String {
    let cfg = &battery.cfg;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "orthotrees reproduction report (seed {}, sort N {:?}, matmul N {:?}, graph N {:?})\n",
        cfg.seed, cfg.sort_ns, cfg.matmul_ns, cfg.graph_ns
    );
    for (_, table) in &battery.tables {
        out.push_str(&table.render());
        out.push_str(&ranking_check(table));
        out.push('\n');
    }
    out.push_str("Crossovers (from the paper's Θ forms):\n");
    out.push_str(&crossover_report());
    out.push('\n');
    for section in [
        obsreport::observability_section(&battery.obs),
        critpath::critpath_section(&battery.obs),
        profreport::profile_section(&battery.obs),
        recovery::recovery_section(&battery.recovery),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out.push_str(&telreport::telemetry_section(&battery.pipelines));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReportConfig {
        ReportConfig {
            sort_ns: vec![16, 64, 256],
            matmul_ns: vec![2, 4, 8],
            graph_ns: vec![8, 16, 32],
            seed: 42,
        }
    }

    #[test]
    fn table1_measured_ranking_matches_paper_at_moderate_n() {
        // The Table I ordering is Mesh < {PSN, CCC, OTC} < OTN; at the
        // measured sizes the headline comparison OTC-beats-OTN must hold.
        let t = table1(&tiny());
        let measured = t.measured_ranking();
        let pos = |name: &str| measured.iter().position(|(n, _)| n == name).unwrap();
        assert!(pos("OTC") < pos("OTN"), "ranking: {measured:?}");
    }

    #[test]
    fn table3_otc_beats_the_quadratic_rivals() {
        let t = table3(&tiny());
        let measured = t.measured_ranking();
        let pos = |name: &str| measured.iter().position(|(n, _)| n == name).unwrap();
        assert!(pos("OTC") < pos("OTN"), "{measured:?}");
    }

    #[test]
    fn table4_otn_is_fastest_in_time() {
        // §VII.D: OTN sorts in Θ(log N) under the unit-cost model — the
        // fastest of the four.
        let t = table4(&tiny());
        let times: Vec<(String, u64)> = t
            .rows
            .iter()
            .filter_map(|r| {
                let s = r.sweep.as_ref()?.last()?;
                Some((r.paper.network.to_string(), s.time.get()))
            })
            .collect();
        let otn = times.iter().find(|(n, _)| n == "OTN").unwrap().1;
        for (name, time) in &times {
            if name != "OTN" && name != "Mesh" {
                assert!(otn <= *time, "OTN {otn} vs {name} {time}");
            }
        }
    }

    #[test]
    fn ranking_check_mentions_verdict() {
        let t = table1(&tiny());
        let text = ranking_check(&t);
        assert!(text.contains("Table I"));
        assert!(text.contains("MATCH") || text.contains("DIFFERS"));
    }

    #[test]
    fn crossover_report_finds_the_cc_crossover() {
        let text = crossover_report();
        assert!(text.contains("overtakes Mesh"), "{text}");
        assert!(text.contains("overtakes PSN/CCC"), "{text}");
    }

    #[test]
    fn full_report_contains_all_tables() {
        let text = full_report(&tiny());
        for id in ["Table I", "Table II", "Table III", "Table III′", "Table IV"] {
            assert!(text.contains(id), "missing {id}");
        }
        assert!(text.contains("Crossovers"));
        assert!(text.contains("Crash recovery"), "recovery section missing");
    }

    #[test]
    fn full_report_contains_every_section_wrapper_verbatim() {
        // The wrappers run their own experiments; the report renders the
        // same sections from one shared battery.
        let cfg = tiny();
        let text = full_report(&cfg);
        let (n, seed) = (cfg.obs_n(), cfg.seed);
        for section in [
            obsreport::observability_report(n, seed),
            critpath::critpath_report(n, seed),
            profreport::profile_report(n, seed),
            recovery::recovery_report_section(seed),
            telreport::telemetry_report_section(seed),
        ] {
            assert!(text.contains(&section), "not in the full report:\n{section}");
        }
    }
}
