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
//! - **TEL-002** — a flight-recorder dump is a valid
//!   `orthotrees-flight/v1` document and a *contiguous suffix* of the
//!   run's event log: same events, same order, no holes, with 1-based
//!   `seq`s ending exactly at the dump's `recorded_events`.
//!
//! [`stock_findings`] sweeps TEL-001 over pipelined OTN sorting batches
//! and TEL-002 over black-box bit-level broadcasts; `netlint --all` runs
//! it in CI. The mutation tests below prove each rule fires on a
//! deliberately corrupted sketch / tampered dump.

use crate::diag::Finding;
use orthotrees::obs::json::Json;
use orthotrees::obs::schema::{self, rows_at, u64_at, SchemaError};
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

/// Checks TEL-002: `dump` must pass the [`schema::FLIGHT`] table and
/// `drops_account_for_the_tail` (a violation's path is the subject), and
/// be a contiguous suffix of `log`, the same run's delivered-bit event log:
/// 1-based `seq`s with no holes, ending at the dump's `recorded_events`.
pub fn check_flight_dump(network: &str, dump: &Json, log: &[EventLog]) -> Vec<Finding> {
    let hint = "record every delivered event in order and never mutate the retained tail";
    let fail = |subject, detail| vec![Finding::new("TEL-002", network, subject, detail, hint)];
    let valid = schema::check(dump, schema::FLIGHT).and_then(|()| drops_account_for_the_tail(dump));
    if let Err(e) = valid {
        return fail(e.path.clone(), e.to_string());
    }
    let (tail, recorded) = (rows_at(dump, "tail"), u64_at(dump, "recorded_events"));
    if recorded != log.len() as u64 {
        return fail(
            "recorded_events".to_string(),
            format!("dump recorded {recorded} events but the log delivered {}", log.len()),
        );
    }
    // Validated: |tail| ≤ recorded_events = |log|.
    let skip = log.len() - tail.len();
    for (i, (entry, le)) in tail.iter().zip(&log[skip..]).enumerate() {
        let (seq, want) = (u64_at(entry, "seq"), (skip + i + 1) as u64);
        if seq != want {
            let detail = format!("seq {seq} where a contiguous suffix requires {want}");
            return fail(format!("tail position {i}"), detail);
        }
        let fields = [("at", le.at.get()), ("node", le.node.0 as u64), ("port", le.port.0 as u64)];
        if fields
            .into_iter()
            .chain([("index", u64::from(le.bit.index))])
            .any(|(k, v)| u64_at(entry, k) != v)
            || entry.get("value") != Some(&Json::Bool(le.bit.value))
        {
            let detail = format!("recorded event disagrees with log entry {} ", skip + i);
            return fail(format!("tail position {i}"), detail);
        }
    }
    Vec::new()
}

/// Rule: `recorded_events = dropped_events + |tail|` — the ring holds
/// every recorded event it did not evict.
fn drops_account_for_the_tail(dump: &Json) -> Result<(), SchemaError> {
    let held = u64_at(dump, "dropped_events").saturating_add(rows_at(dump, "tail").len() as u64);
    let recorded = u64_at(dump, "recorded_events");
    let expected = || format!("{held} = dropped_events + |tail|");
    let error = || SchemaError::new("recorded_events", expected(), recorded);
    (held == recorded).then_some(()).ok_or_else(error)
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

    #[test]
    fn a_miscounted_or_mistyped_dump_is_tel002() {
        let m = CostModel::thompson(16);
        let (t, mut e) = experiments::broadcast(16, &m, black_box).unwrap();
        let dump = e.take_flight_recorder().unwrap().dump("export", t, &[]);
        let log = e.log();
        let dropped = dump.get("dropped_events").and_then(Json::as_u64).unwrap();
        let mut miscounted = dump.clone();
        miscounted.set("dropped_events", Json::u64(dropped + 1));
        let f = check_flight_dump("miscounted", &miscounted, log);
        assert!(f.iter().any(|f| f.rule == "TEL-002" && f.subject == "recorded_events"), "{f:?}");

        let mut tail = dump.get("tail").and_then(Json::as_arr).unwrap().to_vec();
        tail[0].set("depth", Json::str("3"));
        let mut mistyped = dump;
        mistyped.set("tail", Json::arr(tail));
        let f = check_flight_dump("mistyped", &mistyped, log);
        assert!(f.iter().any(|f| f.rule == "TEL-002" && f.subject == "tail[0].depth"), "{f:?}");
    }
}
