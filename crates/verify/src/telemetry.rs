//! Telemetry invariant checkers: does the streaming bus tell the truth?
//!
//! The `obs::telemetry` quantile sketch and the `obs::flight` crash
//! recorder are both *lossy by design* — the sketch keeps `O(1/ε)`
//! tuples instead of every sample, the flight ring keeps a bounded tail
//! instead of the whole log. Two rules hold each to its contract:
//!
//! - **TEL-001** — every reported sketch quantile lies inside the
//!   sketch's ε rank band of the *exact* quantiles, recomputed from the
//!   full recorded sample list (for the stock runs: the pipeline's
//!   per-problem completion times).
//! - **TEL-002** — a flight-recorder dump is a *contiguous suffix* of
//!   the run's event log: same events, same order, no holes, with
//!   1-based `seq`s ending exactly at the dump's `recorded_events`.
//!
//! [`stock_findings`] sweeps TEL-001 over pipelined OTN sorting batches
//! and TEL-002 over black-box bit-level broadcasts; `netlint --all` runs
//! it in CI. The mutation tests below prove each rule fires on a
//! deliberately corrupted sketch / tampered dump.

use crate::diag::Finding;
use orthotrees::obs::json::Json;
use orthotrees::obs::telemetry::{within_rank_band, QuantileSketch, Telemetry, REPORTED_QUANTILES};
use orthotrees::otn::pipeline::pipelined_sorts;
use orthotrees::otn::Otn;
use orthotrees_sim::{experiments, Engine, EventLog, FlightRecorder};
use orthotrees_vlsi::CostModel;

/// Checks TEL-001: each reported quantile of `sketch` must fall inside
/// the ε rank band of `samples` (the exact recorded values, any order).
pub fn check_sketch(network: &str, sketch: &QuantileSketch, samples: &[u64]) -> Vec<Finding> {
    let mut out = Vec::new();
    if sketch.count() != samples.len() as u64 {
        out.push(Finding::new(
            "TEL-001",
            network,
            "sample count",
            format!(
                "sketch holds {} observations but {} were recorded",
                sketch.count(),
                samples.len()
            ),
            "feed the sketch exactly once per recorded sample",
        ));
        return out;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for (name, q) in REPORTED_QUANTILES {
        let Some(v) = sketch.quantile(q) else {
            if !sorted.is_empty() {
                out.push(Finding::new(
                    "TEL-001",
                    network,
                    name,
                    "sketch reports no value for a non-empty stream",
                    "a populated sketch must answer every quantile query",
                ));
            }
            continue;
        };
        if !within_rank_band(&sorted, q, sketch.epsilon(), v) {
            out.push(Finding::new(
                "TEL-001",
                network,
                name,
                format!(
                    "sketch reports {v} for q={q} but the exact ε={} rank band excludes it",
                    sketch.epsilon()
                ),
                "feed the sketch every recorded sample and keep ε consistent between write and read",
            ));
        }
    }
    out
}

/// Checks TEL-002: `dump` (an `orthotrees-flight/v1` document) must be a
/// contiguous suffix of `log`, the delivered-bit event log of the same
/// run — same events in the same order, 1-based `seq`s with no holes,
/// ending exactly at the dump's lifetime `recorded_events` count.
pub fn check_flight_dump(network: &str, dump: &Json, log: &[EventLog]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut fail = |subject: String, detail: String| {
        out.push(Finding::new(
            "TEL-002",
            network,
            subject,
            detail,
            "record every delivered event in order and never mutate the retained tail",
        ));
    };
    if dump.get("schema").and_then(Json::as_str) != Some(orthotrees::obs::flight::SCHEMA) {
        fail(
            "schema".to_string(),
            "document does not carry the orthotrees-flight/v1 schema tag".to_string(),
        );
        return out;
    }
    let Some(tail) = dump.get("tail").and_then(Json::as_arr) else {
        fail("tail".to_string(), "document has no tail array".to_string());
        return out;
    };
    let recorded = dump.get("recorded_events").and_then(Json::as_u64).unwrap_or(0);
    if recorded != log.len() as u64 {
        fail(
            "recorded_events".to_string(),
            format!("dump recorded {recorded} events but the log delivered {}", log.len()),
        );
        return out;
    }
    if tail.len() > log.len() {
        fail(
            "tail".to_string(),
            format!("tail holds {} events but the log only {}", tail.len(), log.len()),
        );
        return out;
    }
    let skip = log.len() - tail.len();
    for (i, (entry, le)) in tail.iter().zip(&log[skip..]).enumerate() {
        let seq = entry.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let want_seq = (skip + i + 1) as u64;
        if seq != want_seq {
            fail(
                format!("tail position {i}"),
                format!("seq {seq} where a contiguous suffix requires {want_seq}"),
            );
            break;
        }
        let matches = entry.get("at").and_then(Json::as_u64) == Some(le.at.get())
            && entry.get("node").and_then(Json::as_u64) == Some(le.node.0 as u64)
            && entry.get("port").and_then(Json::as_u64) == Some(le.port.0 as u64)
            && entry.get("value").and_then(Json::as_bool) == Some(le.bit.value)
            && entry.get("index").and_then(Json::as_u64) == Some(u64::from(le.bit.index));
        if !matches {
            fail(
                format!("tail position {i}"),
                format!("recorded event disagrees with log entry {} ", skip + i),
            );
            break;
        }
    }
    out
}

/// Deterministic distinct sorting inputs (the same bijective scramble
/// the profiler stock runs use).
fn scrambled_words(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64).map(|i| ((i + salt * n as i64) * 37) ^ 0x15).collect()
}

/// Runs one pipelined OTN sorting batch and checks TEL-001 on its
/// completion-time sketch against the exact schedule completions.
fn pipeline_stock(n: usize, problems: usize, out: &mut Vec<Finding>) {
    let name = format!("PIPELINE-OTN[{n}x{problems}]");
    let net = match Otn::for_sorting(n) {
        Ok(net) => net,
        Err(_) => return,
    };
    let inputs: Vec<Vec<i64>> = (0..problems).map(|k| scrambled_words(n, k as i64)).collect();
    match pipelined_sorts(&net, &inputs) {
        Ok(batch) => {
            let mut tel = Telemetry::new(batch.issue_interval.get().max(1));
            batch.record_telemetry(&mut tel);
            let sketch = tel.sketch("pipeline.completion_tau").expect("sketch fed");
            let exact: Vec<u64> = batch.completion_times().iter().map(|t| t.get()).collect();
            out.extend(check_sketch(&name, sketch, &exact));
        }
        Err(e) => out.push(Finding::new(
            "TEL-001",
            &name,
            "run",
            format!("pipelined batch failed: {e}"),
            "fix the word-level model before checking the sketch",
        )),
    }
}

/// Fits a bit-level run with the black-box instruments TEL-002 compares:
/// the delivered-bit log and the crash flight recorder.
pub(crate) fn black_box(e: Engine) -> Engine {
    e.with_event_log().with_flight_recorder(FlightRecorder::default())
}

/// The stock telemetry checks `netlint` runs: TEL-001 on pipelined
/// OTN sorting batches (sketch vs exact completion quantiles), TEL-002
/// on black-box bit-level broadcasts (flight dump vs event log).
pub fn stock_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for (n, problems) in [(16usize, 48usize), (64, 24)] {
        pipeline_stock(n, problems, &mut out);
    }
    for leaves in [4usize, 16, 64] {
        let m = CostModel::thompson(leaves);
        let name = format!("ROOTTOLEAF[{leaves}]");
        match experiments::broadcast(leaves, &m, black_box) {
            Ok((t, mut e)) => {
                let mut fl = e.take_flight_recorder().expect("flight recorder was installed");
                let dump = fl.dump("export", t, &[]);
                out.extend(check_flight_dump(&name, &dump, e.log()));
            }
            Err(e) => out.push(Finding::new(
                "TEL-002",
                &name,
                "run",
                format!("black-box broadcast failed: {e}"),
                "fix the bit-level model before checking the flight recorder",
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_telemetry_is_clean() {
        let f = stock_findings();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_shifted_sketch_is_tel001() {
        // Sketch fed values 100 larger than the recorded list: every
        // quantile lands outside the exact rank band.
        let mut sk = QuantileSketch::new(0.01);
        let samples: Vec<u64> = (1..=200).collect();
        for &s in &samples {
            sk.observe(s + 100);
        }
        let f = check_sketch("fixture", &sk, &samples);
        assert!(f.iter().any(|f| f.rule == "TEL-001"), "{f:?}");
    }

    #[test]
    fn a_count_mismatch_is_tel001() {
        let mut sk = QuantileSketch::new(0.01);
        sk.observe(5);
        let f = check_sketch("fixture", &sk, &[5, 6]);
        assert!(f.iter().any(|f| f.rule == "TEL-001" && f.subject == "sample count"), "{f:?}");
    }

    #[test]
    fn a_tampered_tail_is_tel002() {
        let m = CostModel::thompson(16);
        let (t, mut e) = experiments::broadcast(16, &m, black_box).unwrap();
        let dump = e.take_flight_recorder().unwrap().dump("export", t, &[]);
        let log = e.log();
        assert!(check_flight_dump("clean", &dump, log).is_empty());

        // Remove a middle tail entry: the remaining seqs are no longer
        // contiguous — exactly the hole TEL-002 exists to catch.
        let mut tampered = dump.clone();
        let mut tail = dump.get("tail").and_then(Json::as_arr).unwrap().to_vec();
        assert!(tail.len() >= 3, "stock tail long enough to tamper");
        tail.remove(tail.len() / 2);
        tampered.set("tail", Json::arr(tail));
        let f = check_flight_dump("tampered", &tampered, log);
        assert!(f.iter().any(|f| f.rule == "TEL-002"), "{f:?}");
    }

    #[test]
    fn a_wrong_event_count_is_tel002() {
        let m = CostModel::thompson(4);
        let (t, mut e) = experiments::broadcast(4, &m, black_box).unwrap();
        let mut dump = e.take_flight_recorder().unwrap().dump("export", t, &[]);
        dump.set("recorded_events", Json::u64(e.log().len() as u64 + 1));
        let f = check_flight_dump("tampered", &dump, e.log());
        assert!(f.iter().any(|f| f.rule == "TEL-002" && f.subject == "recorded_events"), "{f:?}");
    }
}
