//! The streaming telemetry bus live: a ≥1000-problem pipelined sorting
//! batch metered into counters and an in-house quantile sketch, the SLO
//! table (problems/Mτ, completion p50/p90/p99) printed from the sketch,
//! the registry exported as OpenMetrics text and as an
//! `orthotrees-telemetry/v1` document, and a crash flight recorder
//! dumping a parseable post-mortem when a supervised run rolls back.
//!
//! Run with: `cargo run --release -p orthotrees-bench --example telemetry_pipeline`

use orthotrees::obs::json::Json;
use orthotrees::obs::telemetry::REPORTED_QUANTILES;
use orthotrees_analysis::experiments::pipeline_telemetry;
use orthotrees_analysis::telreport;
use orthotrees_sim::{experiments, Engine, FlightRecorder, RecoveryPolicy, Telemetry};
use orthotrees_vlsi::CostModel;
use std::fs;

fn main() {
    let seed = 2026;

    // -----------------------------------------------------------------
    // 1) Meter a 1024-problem pipelined batch: the engine feeds the bus
    //    one observation per completion, and the SLO figures are read
    //    back from the streaming sketch, not a buffered sample list.
    // -----------------------------------------------------------------
    println!("pipelining 1024 sorting problems through one 64-wide OTN…\n");
    let slo = match pipeline_telemetry(64, 1024, seed) {
        Ok(slo) => slo,
        Err(e) => {
            println!("  pipeline failed: {e}");
            return;
        }
    };
    print!("{}", telreport::telemetry_table(std::slice::from_ref(&slo)));
    let [p50, p90, p99] = slo.quantiles;
    println!(
        "\n  {:.2} problems/Mτ sustained; completion p50={p50} p90={p90} p99={p99} τ\n\
         \x20 (single-problem latency {} τ, issue interval {} τ — the sketch holds\n\
         \x20 O(1/ε) tuples, never the {} raw samples)",
        slo.problems_per_mtau(),
        slo.single_latency.get(),
        slo.issue_interval.get(),
        slo.problems,
    );

    // -----------------------------------------------------------------
    // 2) The same registry, exported two ways: OpenMetrics text for a
    //    scraper, the orthotrees-telemetry/v1 document for tooling.
    // -----------------------------------------------------------------
    println!("\nOpenMetrics exposition of the run:\n");
    for line in slo.telemetry.open_metrics().lines() {
        println!("  {line}");
    }
    let doc = slo.telemetry.to_json().render();
    let path = "target/telemetry_pipeline.json";
    match fs::write(path, doc + "\n") {
        Ok(()) => println!("\n  orthotrees-telemetry/v1 document written to {path}"),
        Err(e) => println!("\n  could not write {path}: {e}"),
    }

    // -----------------------------------------------------------------
    // 3) The sketch against the exact quantiles it summarizes: ε-band
    //    agreement is the TEL-001 verify rule, checked here live.
    // -----------------------------------------------------------------
    let mut exact = slo.completions.clone();
    exact.sort_unstable();
    println!("\nsketch vs exact completion quantiles (ε = {}):\n", slo.telemetry.epsilon());
    for (&(name, q), &v) in REPORTED_QUANTILES.iter().zip(&slo.quantiles) {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        println!("  {name}: sketch {v} τ, exact {} τ", exact[rank - 1]);
    }

    // -----------------------------------------------------------------
    // 4) Crash a supervised run and read the flight recorder: the
    //    rollback dumps a bounded tail of the last deliveries as an
    //    orthotrees-flight/v1 post-mortem.
    // -----------------------------------------------------------------
    println!("\nunplugging a supervised SUM-LEAFTOROOT's sink mid-run…\n");
    let values: Vec<u64> = (0..16).collect();
    let m = CostModel::thompson(16);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    let black_box = |e: Engine| {
        e.with_telemetry(Telemetry::new(16)).with_flight_recorder(FlightRecorder::default())
    };
    match experiments::supervised_sum_recovery(&values, &m, &policy, black_box) {
        Ok((report, mut e, sum)) => {
            let tel = e.take_telemetry().expect("telemetry was installed for this run");
            let fl = e.take_flight_recorder().expect("flight recorder was installed for this run");
            println!(
                "  recovered: sum = {sum}, {} rollback(s), {} post-mortem(s) on the ring",
                report.rollbacks,
                fl.post_mortems().len()
            );
            println!("  bus counted recovery.rollbacks = {}", tel.counter("recovery.rollbacks"));
            if let Some(pm) = fl.post_mortems().first() {
                let doc = Json::parse(&pm.render()).expect("post-mortem round-trips");
                println!(
                    "  post-mortem: reason={:?} at t={} with {} tail event(s), schema {:?}",
                    doc.get("reason").and_then(Json::as_str).unwrap_or("?"),
                    doc.get("at").and_then(Json::as_u64).unwrap_or(0),
                    doc.get("tail").and_then(Json::as_arr).map_or(0, <[Json]>::len),
                    doc.get("schema").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
        Err(e) => println!("  supervision failed: {e}"),
    }
}
