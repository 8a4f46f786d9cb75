//! One table per `/v1` document, read by one checker.
//!
//! A document is described as a table, the way the paper describes a
//! machine. A row ([`Field`]) gives a path, a [`Kind`], whether the field
//! is required and simple bounds; [`check`] returns a document's first
//! violation in table order as a [`SchemaError`]. A path joins keys with
//! `.`; `name[]` steps into every element of an array of rows, `name{}`
//! into every value of a map, and a last step `a|b` names sibling fields
//! of one kind. Parents come first, so below an array of rows every
//! element is an object, and below a `null` nothing is required. A
//! document's cross-field rules (tallies, gapless windows, monotone
//! quantiles) are small functions beside its writer, reporting through
//! [`SchemaError`] with the rule named in `expected`.

use crate::json::Json;
use std::fmt;
use Kind::{Bool, Enum, Map, Nullable, Obj, Rows, Str, Tag, F64, U64};

/// What a field holds; a [`SchemaError`] names it in its `Debug` form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// An exact integer in `[0, 2⁵³]`.
    U64,
    /// A finite number.
    F64,
    /// A string.
    Str,
    /// `true` or `false`.
    Bool,
    /// One of these strings.
    Enum(&'static [&'static str]),
    /// Exactly this string: the document's schema tag.
    Tag(&'static str),
    /// An object whose fields are the rows `path.field`.
    Obj,
    /// An array of objects whose fields are the rows `path[].field`.
    Rows,
    /// A map from any key to this kind (object values: rows `path{}.field`).
    Map(&'static Kind),
    /// `null` or a value of this kind.
    Nullable(&'static Kind),
}

/// One row of a schema table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Field {
    /// Where the field lives (see the [module docs](self)).
    pub path: &'static str,
    /// What it holds.
    pub kind: Kind,
    /// Whether a document without it is invalid.
    pub required: bool,
    /// Inclusive bounds on a number or on the length of an array of rows.
    pub bounds: (f64, f64),
}

/// A required row.
pub const fn req(path: &'static str, kind: Kind) -> Field {
    Field { path, kind, required: true, bounds: (f64::NEG_INFINITY, f64::INFINITY) }
}

/// An optional row: absent is fine, present must match.
pub const fn opt(path: &'static str, kind: Kind) -> Field {
    Field { required: false, ..req(path, kind) }
}

/// The lower bound of a positive number: the smallest normal `f64`.
const POSITIVE: f64 = f64::MIN_POSITIVE;

impl Field {
    /// The row with the inclusive bounds `[min, max]`.
    pub const fn within(self, min: f64, max: f64) -> Field {
        Field { bounds: (min, max), ..self }
    }

    /// Checks one value of this row, found at `path`.
    pub fn admit(&self, v: &Json, path: &str) -> Result<(), SchemaError> {
        let within = |x: f64| self.bounds.0 <= x && x <= self.bounds.1;
        let ok = match (self.kind, v) {
            (Nullable(_), Json::Null) | (Str, Json::Str(_)) | (Bool, Json::Bool(_)) => true,
            (Obj, Json::Obj(_)) => true,
            (Nullable(kind), _) => return Field { kind: *kind, ..*self }.admit(v, path),
            (Rows, Json::Arr(items)) => {
                if let Some(i) = items.iter().position(|e| e.as_obj().is_none()) {
                    let found = describe(Some(&items[i]));
                    return Err(SchemaError::new(format!("{path}[{i}]"), "Obj", found));
                }
                within(items.len() as f64)
            }
            (Map(kind), Json::Obj(pairs)) => {
                let entry = req("", *kind);
                return pairs.iter().try_for_each(|(k, v)| entry.admit(v, &format!("{path}.{k}")));
            }
            (U64, Json::Num(_)) => v.as_u64().is_some_and(|x| within(x as f64)),
            (F64, Json::Num(x)) => x.is_finite() && within(*x),
            (Enum(names), Json::Str(s)) => names.contains(&s.as_str()),
            (Tag(tag), Json::Str(s)) => s == tag,
            _ => false,
        };
        ok.then_some(()).ok_or_else(|| self.error(path, Some(v)))
    }

    fn error(&self, path: &str, found: Option<&Json>) -> SchemaError {
        let (min, max) = self.bounds;
        let unbounded = (min, max) == req("", U64).bounds;
        let bounds = if unbounded { String::new() } else { format!(" in [{min:?}, {max:?}]") };
        SchemaError::new(path, format!("{:?}{bounds}", self.kind), describe(found))
    }
}

/// The first place a document breaks its table or one of its rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// Keys joined by `.`, array positions as `[i]`: `rows[2].totals.wire`.
    pub path: String,
    /// What the table, or the named rule, asks for there.
    pub expected: String,
    /// What the document holds there (`nothing` when it is absent).
    pub found: String,
}

impl SchemaError {
    /// An error at `path`.
    pub fn new(path: impl Into<String>, expected: impl Into<String>, found: impl ToString) -> Self {
        SchemaError { path: path.into(), expected: expected.into(), found: found.to_string() }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: expected {}, found {}", self.path, self.expected, self.found)
    }
}

impl std::error::Error for SchemaError {}

/// A short description of a found value (`nothing` when absent).
pub fn describe(found: Option<&Json>) -> String {
    match found {
        None => "nothing".to_string(),
        Some(Json::Num(x)) => x.to_string(),
        Some(Json::Arr(items)) => format!("an array of {}", items.len()),
        Some(Json::Obj(pairs)) => format!("an object of {}", pairs.len()),
        Some(v) => v.render(),
    }
}

/// Checks `doc` against `table`, row by row, and returns the first
/// violation in table order: a missing required field, a value of the
/// wrong kind or out of bounds, or an element of an array of rows that is
/// not an object.
pub fn check(doc: &Json, table: &[Field]) -> Result<(), SchemaError> {
    table.iter().try_for_each(|row| {
        let (parent, names) = row.path.rsplit_once('.').unwrap_or(("", row.path));
        let mut nodes = vec![(String::new(), doc)];
        for seg in parent.split('.').filter(|seg| !seg.is_empty()) {
            nodes = nodes.into_iter().flat_map(|(path, node)| children(&path, node, seg)).collect();
        }
        nodes.iter().try_for_each(|(path, node)| {
            names.split('|').try_for_each(|name| match node.get(name) {
                None if row.required => Err(row.error(&join(path, name), None)),
                None => Ok(()),
                Some(v) => row.admit(v, &join(path, name)),
            })
        })
    })
}

/// `key` below `path`.
fn join(path: &str, key: &str) -> String {
    format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
}

/// The nodes path step `seg` names below `node` (at `path`): every element
/// of an array of rows (`name[]`), every value of a map (`name{}`), or
/// one field, unless it is absent or `null`.
fn children<'a>(path: &str, node: &'a Json, seg: &str) -> Vec<(String, &'a Json)> {
    if let Some(name) = seg.strip_suffix("[]") {
        let items = rows_at(node, name).iter().enumerate();
        items.map(|(i, item)| (format!("{}[{i}]", join(path, name)), item)).collect()
    } else if let Some(name) = seg.strip_suffix("{}") {
        let entries = node.get(name).and_then(Json::as_obj).unwrap_or_default();
        entries.iter().map(|(key, value)| (join(&join(path, name), key), value)).collect()
    } else {
        match node.get(seg) {
            Some(v) if *v != Json::Null => vec![(join(path, seg), v)],
            _ => Vec::new(),
        }
    }
}

/// The integer at `key` of `node`, 0 when absent: for cross-field rules,
/// which run once [`check`] has typed every field.
pub fn u64_at(node: &Json, key: &str) -> u64 {
    node.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The array at `key` of `node`, empty when absent (as [`u64_at`]).
pub fn rows_at<'a>(node: &'a Json, key: &str) -> &'a [Json] {
    node.get(key).and_then(Json::as_arr).unwrap_or_default()
}

/// `orthotrees-telemetry/v1`: [`Telemetry::to_json`](crate::telemetry::Telemetry::to_json).
pub const TELEMETRY: &[Field] = &[
    req("schema", Tag(crate::telemetry::SCHEMA)),
    req("epsilon", F64).within(POSITIVE, 0.5),
    req("interval", U64).within(1.0, f64::INFINITY),
    req("counters|gauges", Map(&U64)),
    req("sketches", Rows),
    req("sketches[].name", Str),
    req("sketches[].count", U64).within(1.0, f64::INFINITY),
    req("sketches[].min|max|p50|p90|p99", U64),
    req("sketches[].mean", F64),
    req("snapshots", Rows),
    req("snapshots[].at", U64),
    req("snapshots[].counters", Map(&U64)),
];

/// `orthotrees-flight/v1`: [`FlightRecorder::dump`](crate::flight::FlightRecorder::dump).
pub const FLIGHT: &[Field] = &[
    req("schema", Tag(crate::flight::SCHEMA)),
    req("reason", Str),
    req("at|recorded_events|dropped_events", U64),
    req("last_checkpoint", Nullable(&U64)),
    req("calendar", Obj),
    req("calendar.min|max|last", U64),
    req("fault", Map(&U64)),
    req("tail", Rows),
    req("tail[].seq|at|node|port|depth", U64),
    req("tail[].value", Bool),
    req("tail[].index", U64).within(0.0, u32::MAX as f64),
];

/// `orthotrees-profile/v1`: the `simprof` document (`PROF_7.json`).
pub const PROFILE: &[Field] = &[
    req("schema", Tag("orthotrees-profile/v1")),
    req("preset", Str),
    req("seed", U64),
    req("rows", Rows).within(1.0, f64::INFINITY),
    req("rows[].workload", Str),
    req("rows[].level", Enum(&["word", "engine"])),
    req("rows[].faulty", Bool),
    req("rows[].n|completion_bits|peak_calendar_depth|cal_p50|cal_p99", U64),
    req("rows[].window_bits", U64).within(1.0, f64::INFINITY),
    req("rows[].windows", Rows),
    req("rows[].windows[].index|events|cal_min|cal_max|link_bits|queue_wait", U64),
    req("rows[].windows[].wire|compute|faults|fault_overhead", U64),
    req("rows[].windows[].cal_mean", F64),
    req("rows[].totals", Obj),
    req("rows[].totals.events|link_bits|queue_wait|wire|compute|faults|fault_overhead", U64),
    req("rows[].hot", Rows),
    req("rows[].hot[].name", Str),
    req("rows[].hot[].value", U64),
    req("rows[].footprint", Nullable(&Obj)),
    req("rows[].footprint.at|calendar_entries|busy_links|delivered_events", U64),
    req("eventcore", Obj),
    req("eventcore.workload", Str),
    req("eventcore.faulty", Bool),
    req("eventcore.n|reps|end_bits", U64),
    req("eventcore.events", U64).within(1.0, f64::INFINITY),
    req("eventcore.heap_ns_per_event|ladder_ns_per_event|speedup", F64)
        .within(POSITIVE, f64::INFINITY),
];

/// `orthotrees-bench/v1`: the `repro` summary (`BENCH_2.json`).
pub const BENCH: &[Field] = &[
    req("schema", Tag("orthotrees-bench/v1")),
    req("preset", Str),
    req("seed", U64),
    req("tables", Rows),
    req("tables[].id", Str),
    req("tables[].rows", Rows),
    req("tables[].rows[].network|problem|provenance", Str),
    req("tables[].rows[].samples", Rows),
    req("tables[].rows[].samples[].n|time_bits|area_lambda2", U64),
    req("tables[].rows[].samples[].at2", F64),
    req("phases", Rows),
    req("phases[].workload", Str),
    req("phases[].n|completion_bits", U64),
    req("phases[].attribution", Map(&Obj)),
    req("phases[].attribution{}.count|total_bits|self_bits", U64),
    req("phases[].counters", Map(&U64)),
    req("links", Obj),
    req("links.active_links", U64),
    opt("links.experiment", Str),
    opt("links.leaves|completion_bits|total_bits|calendar_depth_max", U64),
    opt("links.mean_utilization|calendar_depth_mean", F64),
    req("recovery", Rows),
    req("recovery[].workload", Str),
    req("recovery[].n|attempts|rollbacks|checkpoints|replayed_events|replayed_bits", U64),
    req("recovery[].completion_bits|final_checkpoint_events", U64),
    req("recovery[].overhead_pct", F64),
    req("telemetry", Rows),
    req("telemetry[].workload", Str),
    req("telemetry[].n|problems|single_latency_bits|issue_interval_bits|makespan_bits", U64),
    req("telemetry[].p50_bits|p90_bits|p99_bits", U64),
    req("telemetry[].problems_per_mtau", F64),
];

/// `orthotrees-verify/v1`: the `netlint --json` report.
pub const VERIFY: &[Field] = &[
    req("schema", Tag("orthotrees-verify/v1")),
    req("findings", Rows),
    req("findings[].rule|network|subject|detail|hint", Str),
    req("findings[].severity", Enum(&["warning", "error"])),
    req("errors|warnings", U64),
];

#[cfg(test)]
mod tests {
    use super::*;

    const TABLES: [&[Field]; 5] = [TELEMETRY, FLIGHT, PROFILE, BENCH, VERIFY];

    #[test]
    fn every_row_follows_its_parent_row() {
        for table in TABLES {
            assert!(matches!(table[0], Field { path: "schema", kind: Tag(_), required: true, .. }));
            let names = |row: &Field| {
                let (parent, names) = row.path.rsplit_once('.').unwrap_or(("", row.path));
                names.split('|').map(move |name| (parent, name)).collect::<Vec<_>>()
            };
            for (i, row) in table.iter().enumerate() {
                for (parent, name) in names(row) {
                    let twice = table[..i].iter().flat_map(names).any(|n| n == (parent, name));
                    assert!(!twice, "{parent}.{name} twice");
                }
                let Some((parent, _)) = row.path.rsplit_once('.') else { continue };
                let (grand, last) = parent.rsplit_once('.').unwrap_or(("", parent));
                let (name, kinds): (_, &[Kind]) = match last.strip_suffix("[]") {
                    Some(name) => (name, &[Rows]),
                    None => match last.strip_suffix("{}") {
                        Some(name) => (name, &[Map(&Obj)]),
                        None => (last, &[Obj, Nullable(&Obj)]),
                    },
                };
                let earlier = table[..i].iter().find(|r| names(r).contains(&(grand, name)));
                assert!(earlier.is_some_and(|r| kinds.contains(&r.kind)), "{}", row.path);
            }
        }
    }

    #[test]
    fn each_kind_admits_exactly_its_values() {
        let json = |text: &str| Json::parse(text).unwrap();
        let cases = [
            (req("x", U64), json("7"), true),
            (req("x", U64), json("-1"), false),
            (req("x", U64), json("0.5"), false),
            (req("x", U64), Json::Num(2f64.powi(53) + 2.0), false),
            (req("x", U64).within(1.0, 9.0), json("0"), false),
            (req("x", F64), json("-1e308"), true),
            (req("x", F64), Json::Num(f64::NAN), false),
            (req("x", F64), Json::Num(f64::INFINITY), false),
            (req("x", F64).within(POSITIVE, 0.5), json("0"), false),
            (req("x", F64).within(POSITIVE, 0.5), json("0.5"), true),
            (req("x", F64).within(POSITIVE, 0.5), json("0.51"), false),
            (req("x", Str), json("\"s\""), true),
            (req("x", Str), json("1"), false),
            (req("x", Bool), json("false"), true),
            (req("x", Bool), json("null"), false),
            (req("x", Enum(&["a", "b"])), json("\"b\""), true),
            (req("x", Enum(&["a", "b"])), json("\"c\""), false),
            (req("x", Tag("t/v1")), json("\"t/v1\""), true),
            (req("x", Tag("t/v1")), json("\"t/v2\""), false),
            (req("x", Obj), json("{}"), true),
            (req("x", Obj), json("[]"), false),
            (req("x", Rows), json("[{}]"), true),
            (req("x", Rows), json("[{}, 1]"), false),
            (req("x", Rows).within(1.0, f64::INFINITY), json("[]"), false),
            (req("x", Map(&U64)), json(r#"{"a": 1}"#), true),
            (req("x", Map(&U64)), json(r#"{"a": 1, "b": -1}"#), false),
            (req("x", Nullable(&U64)), json("null"), true),
            (req("x", Nullable(&U64)), json("\"1\""), false),
        ];
        for (field, value, admitted) in cases {
            let doc = Json::obj([("x", value.clone())]);
            assert_eq!(
                check(&doc, &[field]).is_ok(),
                admitted,
                "{:?} admits {value:?}",
                field.kind
            );
        }
    }

    #[test]
    fn check_names_the_first_violation_in_table_order() {
        let table = [
            req("a", Rows),
            req("a[].b", U64),
            opt("a[].c", Nullable(&Obj)),
            req("a[].c.d|e", Str),
            req("m", Map(&Obj)),
            req("m{}.n", Bool),
        ];
        let doc = |text: &str| Json::parse(text).unwrap();
        let err = |text: &str| check(&doc(text), &table).unwrap_err().to_string();
        assert_eq!(check(&doc(r#"{"a":[{"b":1,"c":null}],"m":{}}"#), &table), Ok(()));
        assert_eq!(err(r#"{"a":[{"b":1},{"b":-1}]}"#), "a[1].b: expected U64, found -1");
        assert_eq!(err(r#"{"a":[{"b":1},7]}"#), "a[1]: expected Obj, found 7");
        assert_eq!(err(r#"{"a":[{"b":1,"c":{"d":""}}]}"#), "a[0].c.e: expected Str, found nothing");
        assert_eq!(err(r#"{"a":[],"m":{"k":{"n":1}}}"#), "m.k.n: expected Bool, found 1");
        assert_eq!(err("[]"), "a: expected Rows, found nothing");
        let bounded = [req("x", F64).within(POSITIVE, 0.5)];
        let e = check(&doc(r#"{"x":0.75}"#), &bounded).unwrap_err();
        assert_eq!(e.to_string(), "x: expected F64 in [2.2250738585072014e-308, 0.5], found 0.75");
    }
}
