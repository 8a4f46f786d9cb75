//! Time-resolved profile documents — the `simprof` binary's engine.
//!
//! One JSON document per profiling run, schema `orthotrees-profile/v1`
//! (documented in EXPERIMENTS.md). Each row is one workload of the fixed
//! `simprof` matrix with its windowed profile attached:
//!
//! * **word level** — `SORT-OTN` / `SORT-OTC` at the preset's sizes,
//!   clean and under a dense word-fault plan ([`DENSE_FAULT_RATE`] with
//!   [`DENSE_FAULT_RETRIES`] retries), profiles rebuilt from the
//!   recorded causal segments ([`Profiler::from_recorder`]);
//! * **engine level** — the bit-level `ROOTTOLEAF` broadcast at the same
//!   sizes with the engine profiler installed, plus one outage-dense
//!   supervised-recovery run (`SUM-RECOVERY`), both carrying
//!   calendar-depth percentiles and the peak-footprint report.
//!
//! [`validate`] checks a document against its [`schema::PROFILE`] table
//! and re-verifies the two profiler invariants on the *document* (the
//! `netlint` rules PROF-001/002 police the live profiler): window indices
//! must be gapless from 0, and the row's `totals` must equal the
//! per-window sums — for word rows the wire + queue + compute total must
//! additionally tile the completion time exactly, faults included.
//!
//! [`FAMILY`] registers the schema with [`crate::diff`], which gates a
//! baseline such as `PROF_7.json` through [`RULES`].

use crate::diff::{Family, Gate};
use orthotrees::obs::json::Json;
use orthotrees::obs::profile::{Footprint, HotSpot, ProfileTotals, Profiler, Window};
use orthotrees::obs::schema::{self, rows_at, u64_at, SchemaError};
use orthotrees::obs::Recorder;
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::FaultPlan;
use orthotrees_analysis::workloads;
use orthotrees_sim::experiments::{self, ProbeKind};
use orthotrees_sim::{CalendarKind, Engine, RecoveryPolicy, RunRecord};
use orthotrees_vlsi::CostModel;
use std::time::Instant;

// The matrix's faulty rows run the plan the `netlint` profiler checks
// (PROF-001/002) run, defined once in `orthotrees-verify`.
pub use orthotrees_verify::profile::{dense_plan, DENSE_FAULT_RATE, DENSE_FAULT_RETRIES};

/// The profile document's schema identifier.
pub const SCHEMA: &str = "orthotrees-profile/v1";

/// The profile's gated metrics. Completion and total events gate at 5%,
/// the peak calendar depth at 10% (it moves in whole entries). A shifted
/// top-1 hot spot is always a regression: hot-spot migration is exactly
/// what an event-core change must not cause silently. The microbench's
/// delivered events and end time must match exactly (any drift means the
/// calendars changed behaviour, not just speed); its ns/event figures are
/// machine-dependent, so only the heap-over-ladder speedup is gated, at an
/// absolute floor (measured ≈1.9× in release on the reference machine).
pub const RULES: [(&str, Gate); 7] = [
    ("completion_bits", Gate::Cost(0.05)),
    ("totals.events", Gate::Cost(0.05)),
    ("peak_calendar_depth", Gate::Cost(0.10)),
    ("hot[0].name", Gate::Exact),
    ("eventcore.events", Gate::Exact),
    ("eventcore.end_bits", Gate::Exact),
    ("eventcore.speedup", Gate::Floor(1.2)),
];

/// The profile family: one keyed element per row
/// (`SORT-OTN n=64 word faulty`) plus the whole document under the key
/// `eventcore` for the microbench section.
pub const FAMILY: Family = Family {
    schema: SCHEMA,
    rules: &RULES,
    elements: keyed,
    validate,
    generate: |preset, seed| profile_document(preset.name(), seed),
};

fn keyed(doc: &Json) -> Vec<(String, &Json)> {
    let mut out: Vec<_> = rows_at(doc, "rows")
        .iter()
        .map(|row| {
            let (workload, n, level, faulty) = row_identity(row);
            (format!("{workload} n={n} {level}{}", if faulty { " faulty" } else { "" }), row)
        })
        .collect();
    out.push(("eventcore".to_string(), doc));
    out
}

/// Leaf count of the supervised-recovery row (fixed small size; the
/// outage workload's cost is size-stable and the row exists to pin the
/// profile shape under rollback replay, not to sweep).
pub const RECOVERY_LEAVES: usize = 16;

/// The sorting sizes of the workload matrix for a preset: the quick
/// preset runs the smallest column only (the CI smoke row), the full
/// preset the whole `n ∈ {64, 256, 512}` grid.
pub fn matrix_ns(preset_name: &str) -> Vec<usize> {
    if preset_name == "full" {
        vec![64, 256, 512]
    } else {
        vec![64]
    }
}

fn window_json(w: &Window) -> Json {
    Json::obj([
        ("index", Json::u64(w.index)),
        ("events", Json::u64(w.events)),
        ("cal_min", Json::u64(w.cal_min)),
        ("cal_max", Json::u64(w.cal_max)),
        ("cal_mean", Json::f64(w.cal_mean())),
        ("link_bits", Json::u64(w.link_bits)),
        ("queue_wait", Json::u64(w.queue_wait)),
        ("wire", Json::u64(w.wire)),
        ("compute", Json::u64(w.compute)),
        ("faults", Json::u64(w.faults)),
        ("fault_overhead", Json::u64(w.fault_overhead)),
    ])
}

fn totals_json(t: &ProfileTotals) -> Json {
    Json::obj([
        ("events", Json::u64(t.events)),
        ("link_bits", Json::u64(t.link_bits)),
        ("queue_wait", Json::u64(t.queue_wait)),
        ("wire", Json::u64(t.wire)),
        ("compute", Json::u64(t.compute)),
        ("faults", Json::u64(t.faults)),
        ("fault_overhead", Json::u64(t.fault_overhead)),
    ])
}

fn hot_json(hot: &[HotSpot]) -> Json {
    Json::arr(
        hot.iter().map(|h| {
            Json::obj([("name", Json::str(h.name.clone())), ("value", Json::u64(h.value))])
        }),
    )
}

fn footprint_json(f: Option<&Footprint>) -> Json {
    match f {
        None => Json::Null,
        Some(f) => Json::obj([
            ("at", Json::u64(f.at.get())),
            ("calendar_entries", Json::u64(f.calendar_entries)),
            ("busy_links", Json::u64(f.busy_links)),
            ("delivered_events", Json::u64(f.delivered_events)),
        ]),
    }
}

/// Leaf count of the event-core microbench probe: the §IV converging
/// streams at this size push ~30 k events through the calendar per run,
/// the densest traffic the repertoire produces.
pub const EVENTCORE_LEAVES: usize = 512;

/// Timing repetitions per calendar in the event-core microbench
/// (best-of; the quick preset keeps the smoke run cheap).
pub fn eventcore_reps(preset_name: &str) -> u32 {
    if preset_name == "full" {
        5
    } else {
        2
    }
}

/// The event-core microbench section of the profile document: the
/// converging-streams probe at [`EVENTCORE_LEAVES`] under a dense
/// link-fault plan, run on the binary-heap oracle and the ladder
/// calendar. Delivered-event count and end time are deterministic and
/// diffed against the baseline exactly; the ns/event figures are
/// machine-dependent and carried for humans (and for the absolute
/// speedup floor in [`RULES`]), not diffed numerically.
///
/// Timing covers [`Engine::try_run`](orthotrees_sim::Engine::try_run)
/// only — network construction is excluded, and the delivered-bit log is
/// left off so the measurement sees no allocation churn from
/// instrumentation.
pub fn eventcore_section(preset_name: &str, seed: u64) -> Json {
    let m = CostModel::thompson(EVENTCORE_LEAVES);
    let reps = eventcore_reps(preset_name);
    let mut per_cal = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut best_ns = u128::MAX;
        let mut record = None;
        for _ in 0..reps {
            let plan = FaultPlan::new(seed).with_link_fault_rate(DENSE_FAULT_RATE);
            let mut e = experiments::probe_engine(
                ProbeKind::Stream,
                EVENTCORE_LEAVES,
                &m,
                cal,
                Some(plan),
                false,
            );
            let t0 = Instant::now();
            e.try_run().expect("stream probe runs within budget");
            best_ns = best_ns.min(t0.elapsed().as_nanos());
            record = Some(RunRecord::of(&e));
        }
        per_cal.push((record.expect("at least one rep"), best_ns));
    }
    let ((heap_run, h_ns), (ladder_run, l_ns)) = (&per_cal[0], &per_cal[1]);
    assert_eq!(heap_run, ladder_run, "heap and ladder calendars diverged inside the microbench");
    let ns_per = |ns: u128| ns as f64 / heap_run.delivered.max(1) as f64;
    let heap = ns_per(*h_ns);
    let ladder = ns_per(*l_ns);
    Json::obj([
        ("workload", Json::str("STREAM")),
        ("n", Json::u64(EVENTCORE_LEAVES as u64)),
        ("faulty", Json::bool(true)),
        ("reps", Json::u64(u64::from(reps))),
        ("events", Json::u64(heap_run.delivered)),
        ("end_bits", Json::u64(heap_run.end.get())),
        ("heap_ns_per_event", Json::f64(heap)),
        ("ladder_ns_per_event", Json::f64(ladder)),
        ("speedup", Json::f64(heap / ladder.max(f64::MIN_POSITIVE))),
    ])
}

/// One document row: workload identity, the windowed profile, the
/// summed totals, calendar percentiles (engine rows; 0 at word level,
/// which has no calendar) and the peak footprint (engine rows only).
pub fn profile_row(
    workload: &str,
    n: usize,
    level: &str,
    faulty: bool,
    completion_bits: u64,
    cal: Option<(u64, u64)>,
    prof: &Profiler,
) -> Json {
    let (p50, p99) = cal.unwrap_or((0, 0));
    Json::obj([
        ("workload", Json::str(workload)),
        ("n", Json::u64(n as u64)),
        ("level", Json::str(level)),
        ("faulty", Json::bool(faulty)),
        ("completion_bits", Json::u64(completion_bits)),
        ("window_bits", Json::u64(prof.width())),
        ("windows", Json::arr(prof.windows().iter().map(window_json))),
        ("totals", totals_json(&prof.totals())),
        ("peak_calendar_depth", Json::u64(prof.peak_calendar_depth())),
        ("cal_p50", Json::u64(p50)),
        ("cal_p99", Json::u64(p99)),
        ("hot", hot_json(&prof.hot_spots(5))),
        ("footprint", footprint_json(prof.footprint())),
    ])
}

/// Runs the network's SORT with a recorder (and optionally the dense
/// fault plan) installed, re-buckets it into a windowed profile and
/// returns its `SORT-OTN` / `SORT-OTC` row.
fn word_sort_row<T: Topology>(n: usize, seed: u64, faulty: bool) -> Json {
    let xs = workloads::distinct_words(n, seed);
    let mut net = T::for_sorting(n).expect("power-of-two sort size");
    net.install_recorder(Recorder::new());
    if faulty {
        net.install_fault_plan(dense_plan(seed));
    }
    let time = T::sort(&mut net, &xs).expect("matched input length").time.get();
    let rec = net.take_recorder().expect("recorder was installed");
    let prof = Profiler::from_recorder(&rec, Profiler::auto_width(time));
    profile_row(&format!("SORT-{}", T::NAME), n, "word", faulty, time, None, &prof)
}

/// Builds the whole profile document for one preset: the word-level
/// sorting matrix (clean + dense faults), the engine-level broadcast
/// companions, and the supervised-recovery row.
pub fn profile_document(preset_name: &str, seed: u64) -> Json {
    // Every engine row rides a recorder (calendar percentiles) and a
    // profiler with an initial 16τ window.
    let profiled = |e: Engine| e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16));
    let mut rows = Vec::new();
    for n in matrix_ns(preset_name) {
        for faulty in [false, true] {
            rows.push(word_sort_row::<Tree>(n, seed, faulty));
            rows.push(word_sort_row::<Cycles>(n, seed, faulty));
        }
        let m = CostModel::thompson(n);
        if let Ok((t, mut e)) = experiments::broadcast(n, &m, profiled) {
            let rec = e.take_recorder().expect("recorder was installed for this run");
            let prof = e.take_profiler().expect("profiler was installed for this run");
            let cal = rec.calendar_depth();
            rows.push(profile_row(
                "ROOTTOLEAF",
                n,
                "engine",
                false,
                t.get(),
                Some((cal.percentile(50.0), cal.percentile(99.0))),
                &prof,
            ));
        }
    }

    // The outage-dense supervised-recovery row: the first attempt always
    // fails, so the profile includes rollback-replayed events — the
    // worst-case calendar shape the event-core overhaul must preserve.
    let values: Vec<u64> = workloads::distinct_words(RECOVERY_LEAVES, seed)
        .into_iter()
        .map(|v| v.unsigned_abs())
        .collect();
    let m = CostModel::thompson(RECOVERY_LEAVES);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    if let Ok((report, mut e, _)) =
        experiments::supervised_sum_recovery(&values, &m, &policy, profiled)
    {
        let rec = e.take_recorder().expect("recorder was installed for this run");
        let prof = e.take_profiler().expect("profiler was installed for this run");
        let cal = rec.calendar_depth();
        rows.push(profile_row(
            "SUM-RECOVERY",
            RECOVERY_LEAVES,
            "engine",
            true,
            report.completion.get(),
            Some((cal.percentile(50.0), cal.percentile(99.0))),
            &prof,
        ));
    }

    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("preset", Json::str(preset_name)),
        ("seed", Json::u64(seed)),
        ("rows", Json::arr(rows)),
        ("eventcore", eventcore_section(preset_name, seed)),
    ])
}

fn row_identity(row: &Json) -> (String, u64, String, bool) {
    (
        row.get("workload").and_then(Json::as_str).unwrap_or("?").to_string(),
        u64_at(row, "n"),
        row.get("level").and_then(Json::as_str).unwrap_or("?").to_string(),
        row.get("faulty").and_then(Json::as_bool).unwrap_or(false),
    )
}

/// Checks a parsed profile document against the [`schema::PROFILE`]
/// table and then its rules; returns the first violation.
pub fn validate(doc: &Json) -> Result<(), SchemaError> {
    schema::check(doc, schema::PROFILE)?;
    let rows = || rows_at(doc, "rows").iter().enumerate();
    rows().try_for_each(prof_002_gapless_windows)?;
    rows().try_for_each(prof_001_totals_sum_the_windows)?;
    rows().try_for_each(engine_calendar_depths_are_ordered)
}

/// The per-window sum of `key`, saturating (so past every total).
fn window_sum(row: &Json, key: &str) -> u64 {
    rows_at(row, "windows").iter().map(|w| u64_at(w, key)).fold(0, u64::saturating_add)
}

/// Rule PROF-002: window indices run 0, 1, 2, … without a gap.
fn prof_002_gapless_windows((r, row): (usize, &Json)) -> Result<(), SchemaError> {
    let mut indices = rows_at(row, "windows").iter().map(|w| u64_at(w, "index")).enumerate();
    indices.find(|&(i, index)| index != i as u64).map_or(Ok(()), |(i, found)| {
        let path = format!("rows[{r}].windows[{i}].index");
        Err(SchemaError::new(path, format!("{i} (PROF-002: gapless windows)"), found))
    })
}

/// Rule PROF-001: every total equals the sum of its windows, and a word
/// row's wire + queue + compute windows tile its completion time.
fn prof_001_totals_sum_the_windows((r, row): (usize, &Json)) -> Result<(), SchemaError> {
    for (key, total) in row.get("totals").and_then(Json::as_obj).unwrap_or_default() {
        let (summed, found) = (window_sum(row, key), total.as_u64().unwrap_or(0));
        if found != summed {
            let expected = format!("Σ windows = {summed} (PROF-001)");
            return Err(SchemaError::new(format!("rows[{r}].totals.{key}"), expected, found));
        }
    }
    let tau = ["wire", "queue_wait", "compute"].map(|k| window_sum(row, k));
    let tau = tau.into_iter().fold(0, u64::saturating_add);
    let completion = u64_at(row, "completion_bits");
    let word = row.get("level").and_then(Json::as_str) == Some("word");
    (!word || tau == completion).then_some(()).ok_or_else(|| {
        let expected = format!("word windows tile {tau} τ (PROF-001)");
        SchemaError::new(format!("rows[{r}].completion_bits"), expected, completion)
    })
}

/// Rule: an engine row with events carries its footprint and orders its
/// calendar depths `cal_p50 ≤ cal_p99 ≤ peak_calendar_depth`.
fn engine_calendar_depths_are_ordered((r, row): (usize, &Json)) -> Result<(), SchemaError> {
    if row.get("level").and_then(Json::as_str) != Some("engine") || window_sum(row, "events") == 0 {
        return Ok(());
    }
    if row.get("footprint") == Some(&Json::Null) {
        let expected = "a footprint on an engine row with events";
        return Err(SchemaError::new(format!("rows[{r}].footprint"), expected, "null"));
    }
    let depths = ["cal_p50", "cal_p99", "peak_calendar_depth"].map(|k| u64_at(row, k));
    depths.is_sorted().then_some(()).ok_or_else(|| {
        let expected = "cal_p50 ≤ cal_p99 ≤ peak_calendar_depth";
        SchemaError::new(format!("rows[{r}]"), expected, format!("{depths:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff, Status, Value};

    #[test]
    fn quick_document_round_trips_and_passes_the_schema_check() {
        let doc = profile_document("quick", 42);
        let parsed = Json::parse(&doc.render()).expect("emitted profile must be valid JSON");
        assert_eq!(validate(&parsed), Ok(()));
    }

    #[test]
    fn quick_matrix_covers_every_workload_cell() {
        let doc = profile_document("quick", 42);
        let ids: Vec<_> =
            doc.get("rows").and_then(Json::as_arr).unwrap().iter().map(row_identity).collect();
        for expect in [
            ("SORT-OTN", 64, "word", false),
            ("SORT-OTN", 64, "word", true),
            ("SORT-OTC", 64, "word", false),
            ("SORT-OTC", 64, "word", true),
            ("ROOTTOLEAF", 64, "engine", false),
            ("SUM-RECOVERY", RECOVERY_LEAVES as u64, "engine", true),
        ] {
            let want = (expect.0.to_string(), expect.1, expect.2.to_string(), expect.3);
            assert!(ids.contains(&want), "missing row {expect:?} in {ids:?}");
        }
        assert!(matrix_ns("full").len() > matrix_ns("quick").len());
    }

    #[test]
    fn faulty_rows_actually_carry_fault_overhead() {
        let doc = profile_document("quick", 42);
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        let faulty_otn = rows
            .iter()
            .find(|r| row_identity(r) == ("SORT-OTN".to_string(), 64, "word".to_string(), true))
            .unwrap();
        let overhead = faulty_otn.get("totals").map(|t| u64_at(t, "fault_overhead")).unwrap();
        assert!(overhead > 0, "dense plan must surface retry overhead");
    }

    #[test]
    fn validator_flags_a_window_gap_and_a_totals_mismatch() {
        let window = |index: u64| {
            format!(
                r#"{{"index":{index},"events":0,"cal_min":0,"cal_max":0,"cal_mean":0.0,
                "link_bits":0,"queue_wait":0,"wire":5,"compute":0,"faults":0,
                "fault_overhead":0}}"#
            )
        };
        let doc = |second: u64, wire: u64| {
            let text = format!(
                r#"{{"schema":"orthotrees-profile/v1","preset":"quick","seed":1,
                "rows":[{{"workload":"SORT-OTN","n":16,"level":"word","faulty":false,
                "completion_bits":10,"window_bits":5,"windows":[{},{}],
                "totals":{{"events":0,"link_bits":0,"queue_wait":0,"wire":{wire},"compute":0,
                "faults":0,"fault_overhead":0}},
                "peak_calendar_depth":0,"cal_p50":0,"cal_p99":0,"hot":[],"footprint":null}}],
                "eventcore":{{"workload":"STREAM","n":512,"faulty":true,"reps":2,"events":9,
                "end_bits":9,"heap_ns_per_event":2.0,"ladder_ns_per_event":1.0,"speedup":2.0}}}}"#,
                window(0),
                window(second)
            );
            Json::parse(&text).unwrap()
        };
        assert_eq!(validate(&doc(1, 10)), Ok(()));
        let gap = validate(&doc(2, 10)).unwrap_err();
        assert!(
            gap.path == "rows[0].windows[1].index" && gap.expected.contains("PROF-002"),
            "{gap}"
        );
        let wire = validate(&doc(1, 7)).unwrap_err();
        assert!(wire.path == "rows[0].totals.wire" && wire.expected.contains("PROF-001"), "{wire}");
    }

    /// A fresh quick document with the machine-dependent microbench
    /// speedup pinned above the floor, so no diff test depends on timing.
    fn quick_doc() -> Json {
        tweak_eventcore(&profile_document("quick", 42), |ec| {
            ec.retain(|(k, _)| k != "speedup");
            ec.push(("speedup".to_string(), Json::f64(2.0)));
        })
    }

    #[test]
    fn identical_documents_diff_clean_with_zero_change() {
        let doc = quick_doc();
        let report = diff(&FAMILY, &doc, &doc);
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.entries.iter().all(|e| e.status == Status::Ok && e.rel == 0.0));
        assert!(!report.entries.is_empty());
    }

    fn rows_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Obj(pairs) = doc else { panic!("document is an object") };
        let (_, v) = pairs.iter_mut().find(|(k, _)| k == "rows").expect("rows present");
        let Json::Arr(rows) = v else { panic!("rows is an array") };
        rows
    }

    fn tweak_row<F: FnMut(&mut Vec<(String, Json)>)>(doc: &Json, workload: &str, mut f: F) -> Json {
        let mut doc = doc.clone();
        for row in rows_mut(&mut doc) {
            let is_match = row.get("workload").and_then(Json::as_str) == Some(workload);
            if is_match {
                if let Json::Obj(pairs) = row {
                    f(pairs);
                }
            }
        }
        doc
    }

    #[test]
    fn a_peak_depth_regression_fails_and_a_hot_shift_fails() {
        let base = quick_doc();
        let bumped = tweak_row(&base, "ROOTTOLEAF", |pairs| {
            for (k, v) in pairs.iter_mut() {
                if k == "peak_calendar_depth" {
                    let old = v.as_u64().unwrap();
                    *v = Json::u64(old * 2);
                }
            }
        });
        let report = diff(&FAMILY, &base, &bumped);
        assert!(!report.is_clean());
        assert!(report.with_status(Status::Regressed).any(|e| e.metric == "peak_calendar_depth"));

        let shifted = tweak_row(&base, "ROOTTOLEAF", |pairs| {
            for (k, v) in pairs.iter_mut() {
                if k == "hot" {
                    *v = Json::arr([Json::obj([
                        ("name", Json::str("node 999")),
                        ("value", Json::u64(1)),
                    ])]);
                }
            }
        });
        let report = diff(&FAMILY, &base, &shifted);
        assert!(!report.is_clean());
        let hot: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(hot
            .iter()
            .any(|e| e.metric == "hot[0].name"
                && e.current == Some(Value::Name("node 999".to_string()))));
        assert!(report.render_text().contains("→ node 999"), "{}", report.render_text());
    }

    fn tweak_eventcore<F: FnMut(&mut Vec<(String, Json)>)>(doc: &Json, mut f: F) -> Json {
        let mut doc = doc.clone();
        let Json::Obj(pairs) = &mut doc else { panic!("document is an object") };
        let (_, ec) = pairs.iter_mut().find(|(k, _)| k == "eventcore").expect("eventcore present");
        let Json::Obj(ec) = ec else { panic!("eventcore is an object") };
        f(ec);
        doc
    }

    #[test]
    fn eventcore_deterministic_drift_is_a_regression() {
        let base = quick_doc();
        let drifted = tweak_eventcore(&base, |ec| {
            for (k, v) in ec.iter_mut() {
                if k == "events" {
                    *v = Json::u64(v.as_u64().unwrap() + 1);
                }
            }
        });
        let report = diff(&FAMILY, &base, &drifted);
        assert!(!report.is_clean());
        assert!(report
            .with_status(Status::Regressed)
            .any(|e| e.metric == "eventcore.events" && e.gate == Gate::Exact));
    }

    #[test]
    fn eventcore_speedup_below_the_floor_fails() {
        let base = quick_doc();
        let slow = tweak_eventcore(&base, |ec| {
            for (k, v) in ec.iter_mut() {
                if k == "speedup" {
                    *v = Json::f64(0.5);
                }
            }
        });
        let report = diff(&FAMILY, &base, &slow);
        assert!(report.with_status(Status::Regressed).any(|e| e.metric == "eventcore.speedup"));
        assert!(report.render_text().contains("(floor 1.2)"), "{}", report.render_text());
    }

    #[test]
    fn a_vanished_row_is_missing_and_fails() {
        let base = quick_doc();
        let mut cur = base.clone();
        rows_mut(&mut cur)
            .retain(|r| r.get("workload").and_then(Json::as_str) != Some("SUM-RECOVERY"));
        let report = diff(&FAMILY, &base, &cur);
        assert!(!report.is_clean());
        assert!(report.with_status(Status::Missing).all(|e| e.key.starts_with("SUM-RECOVERY")));
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(false));
        assert!(doc.get("missing").and_then(Json::as_u64).unwrap() > 0);
    }
}
