//! One baseline diff for every committed document family — the
//! `benchdiff` binary's engine.
//!
//! A [`Family`] is one `/v1` document schema with a committed baseline:
//! `orthotrees-bench/v1` (`BENCH_2.json`, [`summary::FAMILY`]) and
//! `orthotrees-profile/v1` (`PROF_7.json`, [`profile::FAMILY`]). Each
//! family declares two things: its *keyed elements* (a table sample, a
//! phase, a profile row, …, each under a key that identifies it across
//! runs) and a `const` rule table naming every gated metric, as a path
//! relative to its element, with the [`Gate`] that judges it. [`diff`]
//! flattens both documents into keyed metrics through that table,
//! matches them by `(key, metric)` and classifies each pair; the verdicts
//! render as text or as one `orthotrees-diff/v1` document.
//!
//! The rules live in code, not in the documents, so the committed
//! baselines stay byte-identical when a band is retuned. The simulators
//! are deterministic, so an honest reproduction diffs with zero change
//! everywhere; the bands absorb intentional cost-model retunes while
//! still failing CI on anything larger — see `ci.sh`.

use crate::{profile, summary, Preset};
use orthotrees::obs::json::{Json, ParseError};
use orthotrees::obs::schema::{self, SchemaError};
use std::fmt::{self, Write as _};

/// The diff document's schema identifier.
pub const SCHEMA: &str = "orthotrees-diff/v1";

/// Every family a baseline may belong to, looked up by schema tag.
const FAMILIES: [&Family; 2] = [&summary::FAMILY, &profile::FAMILY];

/// How one metric is judged against the baseline; the polarity is part
/// of the gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// A relative band around the baseline where bigger is worse (a
    /// bit-time, an AT² figure): beyond `+band` regressed, beyond `−band`
    /// improved.
    Cost(f64),
    /// A relative band around the baseline where bigger is better (a
    /// throughput): beyond `−band` regressed, beyond `+band` improved.
    Rate(f64),
    /// Must equal the baseline exactly, number or name.
    Exact,
    /// The current value must reach this absolute floor; the baseline's
    /// value is machine-dependent and only reported.
    Floor(f64),
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Cost(band) => write!(f, "cost {}%", 100.0 * band),
            Gate::Rate(band) => write!(f, "rate {}%", 100.0 * band),
            Gate::Exact => f.write_str("exact"),
            Gate::Floor(floor) => write!(f, "floor {floor}"),
        }
    }
}

/// Verdict for one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within the gate.
    Ok,
    /// Better than the baseline by more than the band.
    Improved,
    /// Worse than the baseline by more than the band, a changed exact
    /// value, or below the floor.
    Regressed,
    /// Present in the baseline but absent from the current run (a
    /// vanished element or metric — always a failure).
    Missing,
}

impl Status {
    /// Lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "regressed",
            Status::Missing => "missing",
        }
    }
}

/// A metric's value: a number or a name (a hot-spot subject).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A numeric metric.
    Num(f64),
    /// A named metric, compared by equality.
    Name(String),
}

impl Value {
    fn of(j: &Json) -> Option<Value> {
        match j {
            Json::Str(s) => Some(Value::Name(s.clone())),
            j => j.as_f64().map(Value::Num),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Value::Num(v) => Json::f64(*v),
            Value::Name(s) => Json::str(s.clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v}"),
            Value::Name(s) => f.write_str(s),
        }
    }
}

/// Why a document cannot be diffed. `benchdiff` exits 2 on every variant.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffError {
    /// The bytes are not UTF-8.
    Utf8,
    /// The text is not JSON.
    Json(ParseError),
    /// The schema tag names no family (`None` when the tag is absent).
    Schema(Option<String>),
    /// The document breaks its family's table or one of its rules.
    Invalid(SchemaError),
    /// The baseline names a preset other than `quick` or `full`.
    Preset(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Utf8 => f.write_str("not UTF-8 text"),
            DiffError::Json(e) => write!(f, "not valid JSON: {e}"),
            DiffError::Schema(None) => f.write_str("no schema tag"),
            DiffError::Schema(Some(tag)) => write!(f, "unknown schema {tag:?}"),
            DiffError::Invalid(e) => write!(f, "schema violation: {e}"),
            DiffError::Preset(name) => write!(f, "unknown preset {name:?} (quick or full)"),
        }
    }
}

impl std::error::Error for DiffError {}

/// One document family: its schema, its gated metrics and how to read,
/// check and regenerate its documents.
#[derive(Debug)]
pub struct Family {
    /// The schema tag that selects this family.
    pub schema: &'static str,
    /// Every gated metric: a path relative to a keyed element (`a.b`,
    /// `a[0].b`) and its gate. A metric the baseline element lacks is not
    /// compared.
    pub rules: &'static [(&'static str, Gate)],
    /// The keyed elements of a document, in document order.
    pub(crate) elements: for<'a> fn(&'a Json) -> Vec<(String, &'a Json)>,
    /// The family's validator: its schema table, then its rules.
    pub(crate) validate: fn(&Json) -> Result<(), SchemaError>,
    /// Builds a fresh document for a preset and seed.
    pub(crate) generate: fn(Preset, u64) -> Json,
}

impl Family {
    /// Regenerates the current document in-process with the baseline's
    /// own preset and seed, and validates it: [`DiffError::Invalid`] when
    /// the baseline or the fresh document fails the validator,
    /// [`DiffError::Preset`] when the baseline's preset is not `quick` or
    /// `full`.
    pub fn regenerate(&self, baseline: &Json) -> Result<Json, DiffError> {
        (self.validate)(baseline).map_err(DiffError::Invalid)?;
        let name = baseline.get("preset").and_then(Json::as_str).unwrap_or_default();
        let preset = Preset::from_name(name).ok_or_else(|| DiffError::Preset(name.to_string()))?;
        self.check((self.generate)(preset, schema::u64_at(baseline, "seed")))
    }

    fn check(&self, doc: Json) -> Result<Json, DiffError> {
        (self.validate)(&doc).map(|()| doc).map_err(DiffError::Invalid)
    }

    /// Every gated metric of `doc` as `(key, metric, gate, value)`, in
    /// document order and rule order within an element.
    fn flatten(&self, doc: &Json) -> Vec<(String, &'static str, Gate, Value)> {
        let mut out = Vec::new();
        for (key, element) in (self.elements)(doc) {
            for &(metric, gate) in self.rules {
                if let Some(v) = lookup(element, metric).and_then(Value::of) {
                    out.push((key.clone(), metric, gate, v));
                }
            }
        }
        out
    }
}

/// Resolves a rule path (`a.b`, `a[0].b`) below `node`.
fn lookup<'a>(node: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(node, |node, seg| match seg.split_once('[') {
        None => node.get(seg),
        Some((field, index)) => {
            let i: usize = index.strip_suffix(']')?.parse().ok()?;
            node.get(field)?.as_arr()?.get(i)
        }
    })
}

/// Reads one document: UTF-8, JSON, a known schema tag, and that
/// family's validator. Never panics, whatever the bytes.
///
/// # Errors
///
/// The first check the bytes fail, as a [`DiffError`].
pub fn read(bytes: &[u8]) -> Result<(&'static Family, Json), DiffError> {
    let text = std::str::from_utf8(bytes).map_err(|_| DiffError::Utf8)?;
    let doc = Json::parse(text).map_err(DiffError::Json)?;
    let tag = doc.get("schema").and_then(Json::as_str);
    let family = FAMILIES
        .into_iter()
        .find(|f| Some(f.schema) == tag)
        .ok_or_else(|| DiffError::Schema(tag.map(str::to_string)))?;
    Ok((family, family.check(doc)?))
}

/// One compared metric: where it lives, its gate, both values, the
/// verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// The keyed element (`Table I · OTN sorting n=16`, `SORT-OTN n=64
    /// word faulty`, `eventcore`, …).
    pub key: String,
    /// The metric's rule path within the element.
    pub metric: &'static str,
    /// The gate that judged it.
    pub gate: Gate,
    /// Baseline value.
    pub baseline: Value,
    /// Current value (`None` when [`Status::Missing`]).
    pub current: Option<Value>,
    /// Relative change `(current − baseline) / baseline` (0 for names
    /// and missing values).
    pub rel: f64,
    /// The verdict.
    pub status: Status,
}

/// The full diff of two documents of one family.
#[derive(Clone, Debug)]
pub struct Report {
    /// The compared family's schema tag.
    pub family: &'static str,
    /// Every compared metric, in baseline document order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// True when something was compared and nothing regressed or went
    /// missing (improvements are reported, not failed). A baseline that
    /// gates nothing is not clean: it would pass any run.
    pub fn is_clean(&self) -> bool {
        !self.entries.is_empty()
            && !self.entries.iter().any(|e| matches!(e.status, Status::Regressed | Status::Missing))
    }

    /// Entries with a given status.
    pub fn with_status(&self, status: Status) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(move |e| e.status == status)
    }

    /// Renders the report as text: one line per non-`ok` entry plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.iter().filter(|e| e.status != Status::Ok) {
            let current = e.current.as_ref().map_or("(missing)".to_string(), Value::to_string);
            let detail = match (e.gate, &e.current) {
                (Gate::Floor(floor), Some(_)) => format!(" (floor {floor})"),
                (_, Some(Value::Num(_))) => format!(" ({:+.1}%)", 100.0 * e.rel),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{:<9} {} {}: {} → {current}{detail}",
                e.status.name(),
                e.key,
                e.metric,
                e.baseline
            );
        }
        let count = |s| self.with_status(s).count();
        let _ = writeln!(
            out,
            "{} compared: {} ok, {} improved, {} regressed, {} missing",
            self.entries.len(),
            count(Status::Ok),
            count(Status::Improved),
            count(Status::Regressed),
            count(Status::Missing)
        );
        if self.entries.is_empty() {
            let _ = writeln!(out, "nothing compared: the baseline holds no gated metric");
        }
        out
    }

    /// The report as an `orthotrees-diff/v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("family", Json::str(self.family)),
            (
                "entries",
                Json::arr(self.entries.iter().map(|e| {
                    Json::obj([
                        ("key", Json::str(e.key.clone())),
                        ("metric", Json::str(e.metric)),
                        ("gate", Json::str(e.gate.to_string())),
                        ("baseline", e.baseline.to_json()),
                        ("current", e.current.as_ref().map_or(Json::Null, Value::to_json)),
                        ("rel", Json::f64(e.rel)),
                        ("status", Json::str(e.status.name())),
                    ])
                })),
            ),
            ("regressed", Json::u64(self.with_status(Status::Regressed).count() as u64)),
            ("missing", Json::u64(self.with_status(Status::Missing).count() as u64)),
            ("clean", Json::bool(self.is_clean())),
        ])
    }
}

/// Classifies one current value against its baseline under `gate`.
fn judge(gate: Gate, baseline: &Value, current: Option<&Value>) -> (f64, Status) {
    let Some(current) = current else { return (0.0, Status::Missing) };
    let (Value::Num(b), Value::Num(c)) = (baseline, current) else {
        return (0.0, if baseline == current { Status::Ok } else { Status::Regressed });
    };
    let (b, c) = (*b, *c);
    let rel = match (b == 0.0, c == 0.0) {
        (true, true) => 0.0,
        (true, false) => f64::INFINITY,
        _ => (c - b) / b,
    };
    let banded = |width: f64, bigger_is_worse: bool| {
        if rel.abs() <= width || rel.is_nan() {
            Status::Ok
        } else if (rel > 0.0) == bigger_is_worse {
            Status::Regressed
        } else {
            Status::Improved
        }
    };
    let status = match gate {
        Gate::Cost(width) => banded(width, true),
        Gate::Rate(width) => banded(width, false),
        Gate::Exact if c == b => Status::Ok,
        Gate::Floor(floor) if c >= floor => Status::Ok,
        Gate::Exact | Gate::Floor(_) => Status::Regressed,
    };
    (rel, status)
}

/// Diffs `current` against `baseline`, both documents of `family`. Every
/// gated metric of the baseline is looked up in the current run by
/// `(key, metric)`; metrics only the current run has are not failures
/// (new tables and rows are growth).
pub fn diff(family: &Family, baseline: &Json, current: &Json) -> Report {
    let current = family.flatten(current);
    let entries = family
        .flatten(baseline)
        .into_iter()
        .map(|(key, metric, gate, base)| {
            let cur = current.iter().find(|c| c.0 == key && c.1 == metric).map(|c| c.3.clone());
            let (rel, status) = judge(gate, &base, cur.as_ref());
            Entry { key, metric, gate, baseline: base, current: cur, rel, status }
        })
        .collect();
    Report { family: family.schema, entries }
}

#[cfg(test)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::hostile::{self, Edit};
    use super::*;
    use orthotrees::obs::schema::Field;
    use proptest::prelude::*;
    use std::ptr;

    const BENCH_2: &str = include_str!("../../../BENCH_2.json");
    const PROF_7: &str = include_str!("../../../PROF_7.json");

    fn fixture_with_overhead(time: u64, overhead: f64) -> Json {
        let text = format!(
            r#"{{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,
                "tables":[{{"id":"Table I","rows":[{{"network":"OTN","problem":"sorting",
                "samples":[{{"n":16,"time_bits":{time},"area_lambda2":100,"at2":{at2}}}]}}]}}],
                "phases":[{{"workload":"SORT-OTN","n":16,"completion_bits":{time}}}],
                "links":{{"active_links":1}},
                "recovery":[{{"workload":"SUM-OUTAGE","n":16,"attempts":2,"rollbacks":1,
                "checkpoints":4,"replayed_events":50,"replayed_bits":25,
                "completion_bits":{time},"overhead_pct":{overhead},
                "final_checkpoint_events":16}}],
                "telemetry":[{{"workload":"PIPELINE-OTN","n":16,"problems":64,
                "single_latency_bits":{time},"issue_interval_bits":10,
                "makespan_bits":{makespan},"problems_per_mtau":{rate},
                "p50_bits":{p50},"p90_bits":{p90},"p99_bits":{makespan}}}]}}"#,
            time = time,
            at2 = time * time * 100,
            overhead = overhead,
            makespan = time + 630,
            p50 = time + 320,
            p90 = time + 570,
            rate = 64.0 * 1e6 / (time + 630) as f64,
        );
        Json::parse(&text).unwrap()
    }

    fn fixture(time: u64) -> Json {
        fixture_with_overhead(time, 12.5)
    }

    fn bench_diff(baseline: &Json, current: &Json) -> Report {
        diff(&summary::FAMILY, baseline, current)
    }

    fn set_telemetry(doc: &mut Json, key: &str, value: Json) {
        let Json::Obj(pairs) = doc else { panic!("document is an object") };
        let tel = pairs.iter_mut().find(|(k, _)| k == "telemetry").unwrap();
        let Json::Arr(entries) = &mut tel.1 else { panic!("telemetry is an array") };
        entries[0].set(key, value);
    }

    #[test]
    fn identical_documents_are_clean_with_zero_change() {
        let doc = fixture(1000);
        let report = bench_diff(&doc, &doc);
        assert!(report.is_clean());
        assert!(report.entries.iter().all(|e| e.status == Status::Ok && e.rel == 0.0));
        // time + at2 for the one sample, the phase completion, the
        // recovery entry's completion + overhead, and the telemetry
        // entry's makespan + three quantiles + rate.
        assert_eq!(report.entries.len(), 10);
    }

    #[test]
    fn a_recovery_overhead_regression_fails() {
        let base = fixture_with_overhead(1000, 12.5);
        let cur = fixture_with_overhead(1000, 14.0); // +12% > the 10% band
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        let regressed: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(
            regressed.iter().any(|e| e.key.starts_with("recovery") && e.metric == "overhead_pct"),
            "{regressed:?}"
        );
    }

    #[test]
    fn a_vanished_recovery_workload_is_missing() {
        let base = fixture(1000);
        let mut cur = fixture(1000);
        if let Json::Obj(pairs) = &mut cur {
            pairs.retain(|(k, _)| k != "recovery");
        }
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        assert!(
            report.with_status(Status::Missing).all(|e| e.key.starts_with("recovery")),
            "{:?}",
            report.entries
        );
        assert_eq!(report.with_status(Status::Missing).count(), 2);
    }

    #[test]
    fn a_telemetry_quantile_regression_fails() {
        let base = fixture(1000);
        let mut cur = fixture(1000);
        set_telemetry(&mut cur, "p99_bits", Json::u64(1750)); // +7.4% over 1630
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        let regressed: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(
            regressed.iter().any(|e| e.key.starts_with("telemetry") && e.metric == "p99_bits"),
            "{regressed:?}"
        );
    }

    #[test]
    fn a_throughput_drop_is_regressed_not_improved() {
        let base = fixture(1000);
        let mut cur = fixture(1000);
        // −15% throughput: past the 10% rate band, and in the direction
        // that must read as a regression.
        set_telemetry(&mut cur, "problems_per_mtau", Json::f64(0.85 * 64.0 * 1e6 / 1630.0));
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        let regressed: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(
            regressed.iter().any(|e| e.key.starts_with("telemetry")
                && e.metric == "problems_per_mtau"
                && e.gate == Gate::Rate(0.10)),
            "{regressed:?}"
        );
        assert_eq!(report.with_status(Status::Improved).count(), 0);
    }

    #[test]
    fn a_five_percent_time_regression_fails() {
        let base = fixture(1000);
        let cur = fixture(1051); // +5.1% > the 5% time band
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        let regressed: Vec<_> = report.with_status(Status::Regressed).collect();
        assert!(regressed.iter().any(|e| e.metric == "time_bits"), "{regressed:?}");
        assert!(report.render_text().contains("regressed"), "{}", report.render_text());
    }

    #[test]
    fn a_large_improvement_is_clean_but_reported() {
        let base = fixture(1000);
        let cur = fixture(800);
        let report = bench_diff(&base, &cur);
        assert!(report.is_clean(), "improvements must not fail the gate");
        assert!(report.with_status(Status::Improved).count() > 0);
    }

    #[test]
    fn a_vanished_sample_is_missing_and_fails() {
        let base = fixture(1000);
        let cur = Json::parse(
            r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,
                "tables":[],"phases":[],"links":{"active_links":1}}"#,
        )
        .unwrap();
        let report = bench_diff(&base, &cur);
        assert!(!report.is_clean());
        assert_eq!(report.with_status(Status::Missing).count(), report.entries.len());
    }

    #[test]
    fn small_drift_within_threshold_is_ok() {
        for time in [960, 1040] {
            let report = bench_diff(&fixture(1000), &fixture(time)); // ±4% < 5%
            assert!(report.is_clean());
            assert!(report.entries.iter().all(|e| e.status == Status::Ok));
        }
    }

    #[test]
    fn diff_json_round_trips_with_schema() {
        let base = fixture(1000);
        let cur = fixture(1100);
        let report = bench_diff(&base, &cur);
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("family").and_then(Json::as_str), Some(summary::SCHEMA));
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(false));
        assert!(doc.get("regressed").and_then(Json::as_u64).unwrap() > 0);
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), report.entries.len());
        for (e, j) in report.entries.iter().zip(entries) {
            assert_eq!(j.get("key").and_then(Json::as_str), Some(e.key.as_str()));
            assert_eq!(j.get("metric").and_then(Json::as_str), Some(e.metric));
            assert_eq!(j.get("gate").and_then(Json::as_str), Some(e.gate.to_string().as_str()));
            assert_eq!(j.get("baseline").and_then(Value::of), Some(e.baseline.clone()));
            assert_eq!(j.get("current").and_then(Value::of), e.current.clone());
            assert_eq!(j.get("status").and_then(Json::as_str), Some(e.status.name()));
        }
    }

    #[test]
    fn committed_baselines_read_and_diff_clean_against_themselves() {
        for (text, family, compared) in
            [(BENCH_2, &summary::FAMILY, 256), (PROF_7, &profile::FAMILY, 27)]
        {
            let (read_family, doc) = read(text.as_bytes()).expect("committed baseline reads");
            assert_eq!(read_family.schema, family.schema);
            let report = diff(family, &doc, &doc);
            assert!(report.is_clean(), "{}", report.render_text());
            assert_eq!(report.entries.len(), compared);
            // Keys identify elements: no two share one, so the matcher
            // never has to choose.
            let keys: Vec<_> = (family.elements)(&doc).into_iter().map(|(k, _)| k).collect();
            let unique: std::collections::BTreeSet<_> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "duplicate keys in {}", family.schema);
        }
    }

    #[test]
    fn a_document_its_validator_rejects_is_a_typed_error() {
        for (text, field) in [
            (r#"{"schema":"orthotrees-bench/v1"}"#, "preset"),
            (r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1}"#, "tables"),
        ] {
            match read(text.as_bytes()) {
                Err(DiffError::Invalid(e)) => assert_eq!(e.path, field, "{e}"),
                other => panic!("expected a validator error, got {other:?}"),
            }
        }
    }

    /// The element paths of each family's table, so a rule path
    /// (`hot[0].name`) names the row `rows[].hot[].name`.
    const ELEMENTS: [(&Family, &[Field], &[&str]); 2] = [
        (
            &summary::FAMILY,
            schema::BENCH,
            &["tables[].rows[].samples[].", "phases[].", "recovery[].", "telemetry[]."],
        ),
        (&profile::FAMILY, schema::PROFILE, &["rows[].", ""]),
    ];

    #[test]
    fn every_gated_metric_is_a_required_row_of_its_table() {
        for (family, table, elements) in ELEMENTS {
            let required = |path: &str| {
                let (parent, name) = path.rsplit_once('.').unwrap_or(("", path));
                table.iter().any(|f| {
                    let (p, names) = f.path.rsplit_once('.').unwrap_or(("", f.path));
                    f.required && p == parent && names.split('|').any(|n| n == name)
                })
            };
            for (metric, _) in family.rules {
                let resolves = elements.iter().any(|element| {
                    let path = format!("{element}{}", metric.replace("[0]", "[]"));
                    let parents = path.match_indices('.').map(|(i, _)| &path[..i]);
                    parents.map(|p| p.trim_end_matches("[]")).all(required) && required(&path)
                });
                assert!(resolves, "{}: {metric} is not a required row", family.schema);
            }
        }
    }

    #[test]
    fn deleting_a_gated_field_of_a_baseline_fails_the_read() {
        for (pick, compared) in [(0, 256), (1, 27)] {
            let (family, base) = committed(pick);
            let mut deleted = 0;
            for (e, &(metric, _)) in (0..(family.elements)(&base).len())
                .flat_map(|e| family.rules.iter().map(move |rule| (e, rule)))
            {
                let mut doc = base.clone();
                let element = (family.elements)(&doc)[e].1;
                let (parent, leaf) = match metric.rsplit_once('.') {
                    Some((parent, leaf)) => (lookup(element, parent), leaf),
                    None => (Some(element), metric),
                };
                let Some(parent) = parent.filter(|p| p.get(leaf).is_some()) else { continue };
                let parent = parent as *const Json;
                assert!(edit(&mut doc, parent, &mut drop_key(leaf)));
                let read_back = read(doc.render().as_bytes());
                assert!(matches!(read_back, Err(DiffError::Invalid(_))), "{metric} of element {e}");
                deleted += 1;
            }
            assert_eq!(deleted, compared, "{}", family.schema);
        }
        // A table whose rows array is gone.
        let (_, mut doc) = committed(0);
        let table = lookup(&doc, "tables[0]").unwrap() as *const Json;
        assert!(edit(&mut doc, table, &mut drop_key("rows")));
        let read_back = read(doc.render().as_bytes());
        assert!(matches!(read_back, Err(DiffError::Invalid(e)) if e.path == "tables[0].rows"));
    }

    /// Removes member `key` from an object.
    fn drop_key(key: &str) -> impl FnMut(&mut Json) + '_ {
        move |node| {
            if let Json::Obj(pairs) = node {
                pairs.retain(|(k, _)| k != key);
            }
        }
    }

    #[test]
    fn a_baseline_that_gates_nothing_is_not_clean() {
        let text = r#"{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,"tables":[],
            "phases":[],"links":{"active_links":1},"recovery":[],"telemetry":[]}"#;
        let (family, empty) = read(text.as_bytes()).expect("an empty summary is schema-valid");
        let report = diff(family, &empty, &fixture(1000));
        assert!(report.entries.is_empty());
        assert!(!report.is_clean());
        assert!(report.render_text().contains("nothing compared"), "{}", report.render_text());
        assert_eq!(report.to_json().get("clean").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn regeneration_uses_the_baselines_preset_and_seed() {
        for text in [BENCH_2, PROF_7] {
            let (family, mut baseline) = read(text.as_bytes()).unwrap();
            baseline.set("seed", Json::u64(12345));
            let fresh = family.regenerate(&baseline).expect("quick preset regenerates");
            assert_eq!(fresh.get("preset").and_then(Json::as_str), Some("quick"));
            assert_eq!(fresh.get("seed").and_then(Json::as_u64), Some(12345));

            baseline.set("preset", Json::str("medium"));
            assert_eq!(family.regenerate(&baseline), Err(DiffError::Preset("medium".into())));
        }
    }

    /// Applies `f` to the node of `doc` at `target`.
    fn edit(doc: &mut Json, target: *const Json, f: &mut dyn FnMut(&mut Json)) -> bool {
        if ptr::eq(doc, target) {
            f(doc);
            return true;
        }
        match doc {
            Json::Arr(items) => items.iter_mut().any(|v| edit(v, target, f)),
            Json::Obj(pairs) => pairs.iter_mut().any(|(_, v)| edit(v, target, f)),
            _ => false,
        }
    }

    /// Removes the node at `target` from its parent array or object.
    fn remove(doc: &mut Json, target: *const Json) -> bool {
        match doc {
            Json::Arr(items) => match items.iter().position(|v| ptr::eq(v, target)) {
                Some(i) => {
                    items.remove(i);
                    true
                }
                None => items.iter_mut().any(|v| remove(v, target)),
            },
            Json::Obj(pairs) => match pairs.iter().position(|(_, v)| ptr::eq(v, target)) {
                Some(i) => {
                    pairs.remove(i);
                    true
                }
                None => pairs.iter_mut().any(|(_, v)| remove(v, target)),
            },
            _ => false,
        }
    }

    /// The bytes JSON structure is made of, so fuzzed input gets past the
    /// first byte.
    const JSONISH: &[u8] = b"{}[]\":,-0123456789.eEtrue \\";

    fn committed(pick: usize) -> (&'static Family, Json) {
        read([BENCH_2, PROF_7][pick % 2].as_bytes()).expect("committed baseline reads")
    }

    /// Makes hostile edit `edit` to target `target` (element `pick` of
    /// every array on the way) of a committed baseline and reads the
    /// rendered document back: an edit the family's table does not admit
    /// is a typed error at that field or below it, and a document that
    /// reads diffs against the baseline both ways.
    fn read_with_hostile_field(pick: usize, target: usize, element: usize, edit: usize) {
        let (_, base) = committed(pick);
        let targets = hostile::targets(&base, ELEMENTS[pick % 2].1, element);
        let target = &targets[target % targets.len()];
        let edits = Edit::all();
        let edit = &edits[edit % edits.len()];
        let verdict = read(target.apply(&base, edit).render().as_bytes());
        let rejected_at = match &verdict {
            Ok(_) => None,
            Err(DiffError::Invalid(e)) => Some(e.path.as_str()),
            Err(DiffError::Schema(_)) => Some("schema"),
            Err(e) => panic!("{e}"),
        };
        if let Err(e) = target.judge(&edit.rendered(), rejected_at) {
            panic!("{e}");
        }
        if let Ok((family, doc)) = verdict {
            diff(family, &base, &doc);
            diff(family, &doc, &base);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn scaling_one_metric_flags_exactly_it_with_its_polarity(
            pick in 0usize..2,
            which in 0usize..10_000,
            outside in any::<bool>(),
            up in any::<bool>(),
            t in 0.0f64..1.0,
        ) {
            let (family, base) = committed(pick);
            let mut cur = base.clone();
            let targets: Vec<_> = (family.elements)(&cur)
                .into_iter()
                .flat_map(|(key, el)| family.rules.iter().filter_map(move |&(metric, gate)| {
                    let node = lookup(el, metric)?;
                    Some((key.clone(), metric, gate, node.as_f64()?, node as *const Json))
                }))
                .collect();
            let (key, metric, gate, v, node) = targets[which % targets.len()].clone();
            prop_assume!(v != 0.0);
            let sign = if up { 1.0 } else { -1.0 };
            let (worse, better) = if up {
                (Status::Regressed, Status::Improved)
            } else {
                (Status::Improved, Status::Regressed)
            };
            let (factor, expect) = match (gate, outside) {
                (Gate::Cost(b) | Gate::Rate(b), false) => (1.0 + sign * 0.99 * b * t, Status::Ok),
                (Gate::Cost(b), true) => (1.0 + sign * b * (1.01 + t), worse),
                (Gate::Rate(b), true) => (1.0 + sign * b * (1.01 + t), better),
                (Gate::Exact, false) => (1.0, Status::Ok),
                (Gate::Exact, true) => (1.0 + sign * (0.01 + t), Status::Regressed),
                (Gate::Floor(_), false) if up => (1.0 + t, Status::Ok),
                (Gate::Floor(f), false) => (f / v + (1.0 - f / v) * t, Status::Ok),
                (Gate::Floor(f), true) => (f / v * (0.99 - 0.5 * t), Status::Regressed),
            };
            prop_assert!(edit(&mut cur, node, &mut |n| *n = Json::f64(v * factor)));
            let report = diff(family, &base, &cur);
            for e in &report.entries {
                let want = if e.key == key && e.metric == metric { expect } else { Status::Ok };
                prop_assert_eq!((&e.key, e.metric, e.status), (&e.key, e.metric, want));
            }
        }

        #[test]
        fn removing_one_element_makes_only_its_metrics_missing(
            pick in 0usize..2,
            which in 0usize..10_000,
        ) {
            let (family, base) = committed(pick);
            let mut cur = base.clone();
            let elements = (family.elements)(&cur);
            let (key, el) = &elements[which % elements.len()];
            let key = key.clone();
            // An element that is the document itself (the profile's
            // `eventcore` key) is removed by dropping the sections its
            // metrics live in.
            let targets: Vec<*const Json> = if ptr::eq(*el, &cur) {
                family
                    .rules
                    .iter()
                    .filter_map(|(m, _)| lookup(el, m.split('.').next()?))
                    .map(|n| n as *const Json)
                    .collect()
            } else {
                vec![*el as *const Json]
            };
            drop(elements);
            for t in targets {
                remove(&mut cur, t);
            }
            let report = diff(family, &base, &cur);
            prop_assert!(report.entries.iter().any(|e| e.key == key), "{} gates nothing", key);
            for e in &report.entries {
                let want = if e.key == key { Status::Missing } else { Status::Ok };
                prop_assert_eq!((&e.key, e.metric, e.status), (&e.key, e.metric, want));
            }
        }

        #[test]
        fn any_field_replaced_by_a_hostile_value_reads_or_is_a_typed_error(
            pick in 0usize..2,
            field in 0usize..100_000,
            element in 0usize..1_000,
            value in 0usize..100,
        ) {
            read_with_hostile_field(pick, field, element, value);
        }

        #[test]
        fn arbitrary_bytes_are_a_typed_error(
            raw in proptest::collection::vec(0u8..=255, 0..256),
            tokens in proptest::collection::vec(0..JSONISH.len(), 0..256),
        ) {
            prop_assert!(read(&raw).is_err());
            let jsonish: Vec<u8> = tokens.iter().map(|&i| JSONISH[i]).collect();
            prop_assert!(read(&jsonish).is_err());
        }

        #[test]
        fn truncated_baselines_are_a_typed_error(pick in 0usize..2, cut in 0usize..usize::MAX) {
            let text = [BENCH_2, PROF_7][pick].trim_end();
            prop_assert!(read(&text.as_bytes()[..cut % text.len()]).is_err());
        }
    }

    #[test]
    fn a_wrong_or_missing_schema_tag_is_a_typed_error() {
        for pick in 0..2 {
            let (family, doc) = committed(pick);
            let mut wrong = doc.clone();
            wrong.set("schema", Json::str("orthotrees-bench/v2"));
            let mut missing = doc.clone();
            if let Json::Obj(pairs) = &mut missing {
                pairs.retain(|(k, _)| k != "schema");
            }
            let mut other = doc.clone();
            let other_tag = FAMILIES.iter().find(|f| f.schema != family.schema).unwrap().schema;
            other.set("schema", Json::str(other_tag));
            let read_back = |d: &Json| read(d.render().as_bytes());
            let tag = Some("orthotrees-bench/v2".to_string());
            assert_eq!(read_back(&wrong).err(), Some(DiffError::Schema(tag)));
            assert_eq!(read_back(&missing).err(), Some(DiffError::Schema(None)));
            assert!(matches!(read_back(&other), Err(DiffError::Invalid(_))));
        }
    }

    #[test]
    fn pinned_hostile_documents_are_typed_errors() {
        // Unbounded nesting used to overflow the parser's stack.
        assert!(matches!(read("[".repeat(200_000).as_bytes()), Err(DiffError::Json(_))));
        // Per-window counts near 2⁵³ used to overflow the validator's sums.
        let big = 1u64 << 53;
        let window = |i: usize| {
            format!(
                r#"{{"index":{i},"events":{big},"cal_min":0,"cal_max":0,"cal_mean":0,
                "link_bits":{big},"queue_wait":{big},"wire":{big},"compute":{big},
                "faults":{big},"fault_overhead":{big}}}"#
            )
        };
        let windows: Vec<_> = (0..4096).map(window).collect();
        let text = format!(
            r#"{{"schema":"orthotrees-profile/v1","preset":"quick","seed":1,"rows":[
                {{"workload":"SORT-OTN","n":16,"level":"word","faulty":false,
                "completion_bits":1,"window_bits":1,"windows":[{}],
                "totals":{{"events":0,"link_bits":0,"queue_wait":0,"wire":0,"compute":0,
                "faults":0,"fault_overhead":0}},"peak_calendar_depth":0,"cal_p50":0,
                "cal_p99":0,"hot":[],"footprint":null}}],"eventcore":{{"workload":"STREAM",
                "n":512,"faulty":true,"reps":2,"events":1,"end_bits":1,"heap_ns_per_event":1,
                "ladder_ns_per_event":1,"speedup":1}}}}"#,
            windows.join(",")
        );
        let prof_001 = |e: &SchemaError| e.path == "rows[0].totals.events";
        assert!(matches!(read(text.as_bytes()), Err(DiffError::Invalid(e)) if prof_001(&e)));
        let phases: Vec<_> = (0..4096)
            .map(|i| format!(r#""p{i}":{{"count":1,"total_bits":1,"self_bits":{big}}}"#))
            .collect();
        let text = format!(
            r#"{{"schema":"orthotrees-bench/v1","preset":"quick","seed":1,"tables":[],
                "phases":[{{"workload":"SORT-OTN","n":16,"completion_bits":1,
                "attribution":{{{}}},"counters":{{}}}}],"links":{{"active_links":1}},"recovery":[],
                "telemetry":[]}}"#,
            phases.join(",")
        );
        let tiling = |e: &SchemaError| e.path == "phases[0].completion_bits";
        assert!(matches!(read(text.as_bytes()), Err(DiffError::Invalid(e)) if tiling(&e)));
    }
}
