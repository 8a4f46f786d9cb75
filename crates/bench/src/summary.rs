//! Machine-readable benchmark summary — the `BENCH_2.json` emitter.
//!
//! One JSON document per `repro` run, schema `orthotrees-bench/v1`
//! (documented in EXPERIMENTS.md):
//!
//! * `tables` — every reproduced table's measured `(n, time, area, AT²)`
//!   series, one entry per network × problem;
//! * `phases` — the per-phase time attribution of an instrumented
//!   `SORT-OTN` and `SORT-OTC` run (self times sum to `completion_bits`;
//!   the schema test checks this);
//! * `links` — the bit-level `ROOTTOLEAF` link profile (bits carried,
//!   utilization, calendar depth);
//! * `recovery` — supervised crash-recovery cost, one entry per
//!   workload (engine outage, word-level soak): attempts, rollbacks,
//!   replayed events/bit-time and the checkpoint overhead percentage;
//! * `telemetry` — pipeline-SLO figures, one entry per pipelined
//!   sorting batch: sustained problems/Mτ and the sketch-reported
//!   p50/p90/p99 per-problem completion quantiles.
//!
//! Built on the dependency-free JSON support in `orthotrees-obs`, so the
//! emitted file is parseable (and schema-checkable) by the same code that
//! wrote it. [`FAMILY`] registers the schema with [`crate::diff`], which
//! gates a baseline such as `BENCH_2.json` through [`RULES`].

use crate::diff::{Family, Gate};
use orthotrees::obs::json::Json;
use orthotrees::obs::schema::{self, rows_at, u64_at, SchemaError};
use orthotrees::obs::Recorder;
use orthotrees::otn::sort::SortOutcome;
use orthotrees::BitTime;
use orthotrees_analysis::experiments::PipelineSlo;
use orthotrees_analysis::report::{Battery, ReportConfig};
use orthotrees_analysis::tables::ReproTable;
use orthotrees_sim::RecoveryReport;

/// The summary schema identifier.
pub const SCHEMA: &str = "orthotrees-bench/v1";

/// The summary's gated metrics. Bit-times gate at 5%. `at2` gates
/// at 10% because area enters squared, so layout retunes move it more;
/// so does the recovery `overhead_pct`, which a one-event shift in where
/// a checkpoint lands moves more. The problems/Mτ throughput divides two
/// retunable quantities and is a rate: bigger is better.
pub const RULES: [(&str, Gate); 9] = [
    ("time_bits", Gate::Cost(0.05)),
    ("completion_bits", Gate::Cost(0.05)),
    ("makespan_bits", Gate::Cost(0.05)),
    ("p50_bits", Gate::Cost(0.05)),
    ("p90_bits", Gate::Cost(0.05)),
    ("p99_bits", Gate::Cost(0.05)),
    ("at2", Gate::Cost(0.10)),
    ("overhead_pct", Gate::Cost(0.10)),
    ("problems_per_mtau", Gate::Rate(0.10)),
];

/// The summary family: one keyed element per table sample
/// (`Table I · OTN sorting n=16`) and per phase, recovery and telemetry
/// entry (`recovery · SUM-OUTAGE n=16`); fresh documents use the
/// preset's grids with the baseline's seed.
pub const FAMILY: Family = Family {
    schema: SCHEMA,
    rules: &RULES,
    elements: keyed,
    validate,
    generate: |preset, seed| {
        bench_summary(preset.name(), &ReportConfig { seed, ..preset.config() })
    },
};

fn keyed(doc: &Json) -> Vec<(String, &Json)> {
    let text = |j: &Json, k| j.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    let n = |j: &Json| j.get("n").and_then(Json::as_u64).unwrap_or_default();
    let mut out = Vec::new();
    for table in rows_at(doc, "tables") {
        let id = text(table, "id");
        for row in rows_at(table, "rows") {
            let (network, problem) = (text(row, "network"), text(row, "problem"));
            for s in rows_at(row, "samples") {
                out.push((format!("{id} · {network} {problem} n={}", n(s)), s));
            }
        }
    }
    for section in ["phases", "recovery", "telemetry"] {
        for e in rows_at(doc, section) {
            out.push((format!("{section} · {} n={}", text(e, "workload"), n(e)), e));
        }
    }
    out
}

fn table_json(t: &ReproTable) -> Json {
    let rows = t.rows.iter().filter_map(|row| {
        let sweep = row.sweep.as_ref()?;
        let samples = sweep.samples.iter().map(|s| {
            Json::obj([
                ("n", Json::u64(s.n as u64)),
                ("time_bits", Json::u64(s.time.get())),
                ("area_lambda2", Json::u64(s.area.get())),
                ("at2", Json::f64(s.at2())),
            ])
        });
        Some(Json::obj([
            ("network", Json::str(sweep.network.clone())),
            ("problem", Json::str(sweep.problem.clone())),
            ("provenance", Json::str(sweep.provenance.tag())),
            ("samples", Json::arr(samples)),
        ]))
    });
    Json::obj([("id", Json::str(t.id)), ("rows", Json::arr(rows))])
}

/// The phase attribution and counters of `network`'s observed SORT at
/// size `n`.
fn phase_json(network: &str, n: usize, (out, rec): &(SortOutcome, Recorder)) -> Json {
    let attribution = rec.phase_totals().into_iter().map(|p| {
        (
            p.name,
            Json::obj([
                ("count", Json::u64(p.count)),
                ("total_bits", Json::u64(p.total.get())),
                ("self_bits", Json::u64(p.self_time.get())),
            ]),
        )
    });
    let counters = rec.counters().map(|(k, v)| (k.to_string(), Json::u64(v)));
    Json::obj([
        ("workload", Json::str(format!("SORT-{network}"))),
        ("n", Json::u64(n as u64)),
        ("completion_bits", Json::u64(out.time.get())),
        ("attribution", Json::obj(attribution)),
        ("counters", Json::obj(counters)),
    ])
}

fn links_json(leaves: usize, completion: BitTime, rec: &Recorder) -> Json {
    let active: Vec<_> = rec.links().iter().filter(|l| l.bits > 0).collect();
    let total_bits: u64 = active.iter().map(|l| l.bits).sum();
    let mean_util = if active.is_empty() {
        0.0
    } else {
        active.iter().map(|l| l.utilization()).sum::<f64>() / active.len() as f64
    };
    Json::obj([
        ("experiment", Json::str("ROOTTOLEAF")),
        ("leaves", Json::u64(leaves as u64)),
        ("completion_bits", Json::u64(completion.get())),
        ("active_links", Json::u64(active.len() as u64)),
        ("total_bits", Json::u64(total_bits)),
        ("mean_utilization", Json::f64(mean_util)),
        ("calendar_depth_max", Json::u64(rec.calendar_depth().max())),
        ("calendar_depth_mean", Json::f64(rec.calendar_depth().mean())),
    ])
}

/// One `recovery` entry: the workload label and size prepended to the
/// [`RecoveryReport`]'s own JSON shape (attempts, rollbacks, checkpoints,
/// replayed_events, replayed_bits, completion_bits, overhead_pct,
/// final_checkpoint_events).
fn recovery_json(workload: &str, n: usize, report: &RecoveryReport) -> Json {
    let doc = report.to_json();
    let fields: Vec<(String, Json)> = doc.as_obj().map(<[_]>::to_vec).unwrap_or_default();
    Json::obj(
        [("workload".to_string(), Json::str(workload)), ("n".to_string(), Json::u64(n as u64))]
            .into_iter()
            .chain(fields),
    )
}

/// One `telemetry` entry: a pipelined batch's throughput and
/// completion-time quantiles as reported by the streaming sketch.
fn telemetry_json(slo: &PipelineSlo) -> Json {
    Json::obj([
        ("workload", Json::str("PIPELINE-OTN")),
        ("n", Json::u64(slo.n as u64)),
        ("problems", Json::u64(slo.problems as u64)),
        ("single_latency_bits", Json::u64(slo.single_latency.get())),
        ("issue_interval_bits", Json::u64(slo.issue_interval.get())),
        ("makespan_bits", Json::u64(slo.makespan.get())),
        ("problems_per_mtau", Json::f64(slo.problems_per_mtau())),
        ("p50_bits", Json::u64(slo.quantiles[0])),
        ("p90_bits", Json::u64(slo.quantiles[1])),
        ("p99_bits", Json::u64(slo.quantiles[2])),
    ])
}

/// Builds the whole benchmark summary document for one report run.
pub fn bench_summary(preset_name: &str, cfg: &ReportConfig) -> Json {
    bench_summary_of(preset_name, &Battery::run(cfg))
}

/// The summary of [`bench_summary`], read from `battery`.
///
/// Every entry is deterministic in the seed, so it diffs exactly against
/// a committed baseline. A failed recovery workload or pipeline batch
/// omits its entry, which benchdiff then reports as Missing; a failed
/// broadcast writes `links` as `null`.
pub fn bench_summary_of(preset: &str, battery: &Battery) -> Json {
    let obs = &battery.obs;
    let phases = obs.sorts().map(|(network, run)| phase_json(network, obs.n, run));
    let links = match &obs.broadcast {
        Ok(b) => links_json(obs.n, b.time, &b.recorder),
        Err(_) => Json::Null,
    };
    let recovery = battery.recovery.iter().filter_map(|(workload, n, run)| {
        run.as_ref().ok().map(|report| recovery_json(workload, *n, report))
    });
    let telemetry = battery.pipelines.iter().filter_map(|(_, batch)| batch.as_ref().ok());
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("preset", Json::str(preset)),
        ("seed", Json::u64(battery.cfg.seed)),
        ("tables", Json::arr(battery.tables.iter().map(|(_, t)| table_json(t)))),
        ("phases", Json::arr(phases)),
        ("links", links),
        ("recovery", Json::arr(recovery)),
        ("telemetry", Json::arr(telemetry.map(telemetry_json))),
    ])
}

/// Checks a parsed summary document against the [`schema::BENCH`] table
/// and then its three rules; returns the first violation.
pub fn validate(doc: &Json) -> Result<(), SchemaError> {
    schema::check(doc, schema::BENCH)?;
    rows_at(doc, "phases").iter().enumerate().try_for_each(phase_self_times_tile_completion)?;
    rows_at(doc, "recovery").iter().enumerate().try_for_each(every_rollback_starts_an_attempt)?;
    rows_at(doc, "telemetry").iter().enumerate().try_for_each(telemetry_quantiles_are_ordered)
}

/// Rule: a phase's attributed self times sum to its completion time.
fn phase_self_times_tile_completion((i, p): (usize, &Json)) -> Result<(), SchemaError> {
    let entries = p.get("attribution").and_then(Json::as_obj).unwrap_or_default().iter();
    let attributed = entries.map(|(_, v)| u64_at(v, "self_bits")).fold(0, u64::saturating_add);
    let completion = u64_at(p, "completion_bits");
    (attributed == completion).then_some(()).ok_or_else(|| {
        let expected = format!("Σ attribution self_bits = {attributed}");
        SchemaError::new(format!("phases[{i}].completion_bits"), expected, completion)
    })
}

/// Rule: `attempts = rollbacks + 1` — every rollback starts one retry.
fn every_rollback_starts_an_attempt((i, e): (usize, &Json)) -> Result<(), SchemaError> {
    let (attempts, rollbacks) = (u64_at(e, "attempts"), u64_at(e, "rollbacks"));
    (attempts == rollbacks + 1).then_some(()).ok_or_else(|| {
        let expected = format!("rollbacks + 1 = {}", rollbacks + 1);
        SchemaError::new(format!("recovery[{i}].attempts"), expected, attempts)
    })
}

/// Rule: a pipeline's quantiles are monotone and inside
/// `[single_latency, makespan]`.
fn telemetry_quantiles_are_ordered((i, e): (usize, &Json)) -> Result<(), SchemaError> {
    let keys = ["single_latency_bits", "p50_bits", "p90_bits", "p99_bits", "makespan_bits"];
    let q = keys.map(|k| u64_at(e, k));
    q.is_sorted().then_some(()).ok_or_else(|| {
        let expected = "single_latency ≤ p50 ≤ p90 ≤ p99 ≤ makespan (monotone quantiles)";
        SchemaError::new(format!("telemetry[{i}]"), expected, format!("{q:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReportConfig {
        ReportConfig {
            sort_ns: vec![16, 64],
            matmul_ns: vec![2, 4],
            graph_ns: vec![8, 16],
            seed: 42,
        }
    }

    #[test]
    fn committed_quick_summary_is_byte_identical_to_a_fresh_one() {
        // `repro` writes the rendered document plus a newline; every run in
        // it is deterministic, so a refactor that runs the same experiments
        // must reproduce the committed baseline byte for byte.
        let fresh = bench_summary("quick", &crate::Preset::Quick.config()).render() + "\n";
        assert!(
            fresh == include_str!("../../../BENCH_2.json"),
            "BENCH_2.json differs from a fresh quick summary; regenerate it with `repro`"
        );
    }

    #[test]
    fn summary_round_trips_and_passes_the_schema_check() {
        let doc = bench_summary("quick", &tiny());
        let text = doc.render();
        let parsed = Json::parse(&text).expect("emitted summary must be valid JSON");
        assert_eq!(validate(&parsed), Ok(()));
    }

    #[test]
    fn summary_contains_every_table_and_both_phase_workloads() {
        let doc = bench_summary("quick", &tiny());
        let ids: Vec<&str> = doc
            .get("tables")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|t| t.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, ["Table I", "Table II", "Table III", "Table III′", "Table IV"]);
        let workloads: Vec<&str> = doc
            .get("phases")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|p| p.get("workload").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, ["SORT-OTN", "SORT-OTC"]);
    }

    #[test]
    fn summary_recovery_section_covers_both_supervised_workloads() {
        let doc = bench_summary("quick", &tiny());
        let entries = doc.get("recovery").and_then(Json::as_arr).unwrap();
        let workloads: Vec<&str> =
            entries.iter().filter_map(|e| e.get("workload").and_then(Json::as_str)).collect();
        assert_eq!(workloads, ["SUM-OUTAGE", "SOAK-OTN"]);
        for e in entries {
            assert!(
                e.get("rollbacks").and_then(Json::as_u64).unwrap() >= 1,
                "recovery workload never tripped the supervisor: {}",
                e.render()
            );
            assert!(e.get("overhead_pct").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn schema_check_flags_a_broken_document() {
        let whole = Json::parse(
            r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,"tables":[],
                "phases":[],"links":{"active_links":1},"recovery":[],"telemetry":[]}"#,
        )
        .unwrap();
        assert_eq!(validate(&whole), Ok(()));
        for field in ["seed", "tables", "recovery", "telemetry"] {
            let mut doc = whole.clone();
            if let Json::Obj(pairs) = &mut doc {
                pairs.retain(|(k, _)| k != field);
            }
            let e = validate(&doc).unwrap_err();
            assert_eq!((e.path.as_str(), e.found.as_str()), (field, "nothing"), "{e}");
        }
    }

    #[test]
    fn schema_check_flags_inconsistent_recovery_accounting() {
        let doc = Json::parse(
            r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,
                "tables":[],"phases":[],"links":{"active_links":1},
                "recovery":[{"workload":"SUM-OUTAGE","n":16,"attempts":5,"rollbacks":1,
                "checkpoints":3,"replayed_events":10,"replayed_bits":9,
                "completion_bits":90,"overhead_pct":10.0,"final_checkpoint_events":16}],
                "telemetry":[]}"#,
        )
        .unwrap();
        let e = validate(&doc).unwrap_err();
        assert!(e.path == "recovery[0].attempts" && e.expected.contains("rollbacks"), "{e}");
    }

    #[test]
    fn summary_telemetry_section_covers_both_pipeline_sizes() {
        let doc = bench_summary("quick", &tiny());
        let entries = doc.get("telemetry").and_then(Json::as_arr).unwrap();
        let ns: Vec<u64> =
            entries.iter().filter_map(|e| e.get("n").and_then(Json::as_u64)).collect();
        assert_eq!(ns, [16, 64]);
        for e in entries {
            let q = ["p50_bits", "p90_bits", "p99_bits"]
                .map(|k| e.get(k).and_then(Json::as_u64).unwrap());
            assert!(q[0] <= q[1] && q[1] <= q[2], "unordered quantiles: {}", e.render());
            assert!(e.get("problems_per_mtau").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn schema_check_flags_unordered_telemetry_quantiles() {
        let doc = Json::parse(
            r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,
                "tables":[],"phases":[],"links":{"active_links":1},
                "recovery":[],
                "telemetry":[{"workload":"PIPELINE-OTN","n":16,"problems":8,
                "single_latency_bits":100,"issue_interval_bits":10,
                "makespan_bits":170,"problems_per_mtau":1.0,
                "p50_bits":160,"p90_bits":140,"p99_bits":170}]}"#,
        )
        .unwrap();
        let e = validate(&doc).unwrap_err();
        assert!(e.path == "telemetry[0]" && e.expected.contains("monotone"), "{e}");
    }
}
