//! The one hostile-input generator every schema table's property test
//! shares: the fields come from the table's rows ([`targets`]), the
//! values from [`Edit::all`], and [`Target::judge`] holds a validator's
//! answer to the row: an edit the row does not admit must be rejected at
//! that field or below it.
//!
//! Test code, included by path: `tests/telemetry_suite.rs`,
//! `tests/schema_suite.rs` and the `orthotrees-bench` diff tests.

use orthotrees::obs::json::Json;
use orthotrees::obs::schema::{describe, opt, Field, Kind};
use std::fmt;

/// One hostile edit of a document field.
#[derive(Clone, Debug)]
pub enum Edit {
    /// Remove the field from its object.
    Drop,
    /// Replace its value.
    Set(Json),
}

impl Edit {
    /// Every edit made to every field: a drop; a value of every JSON
    /// type; the numbers no `u64` field takes (negative, fractional,
    /// 2⁵³ + 2, 2⁶⁴, 1e308, `f64::MAX`, NaN, ∞); and a 100 000-element
    /// array of −1.
    pub fn all() -> Vec<Edit> {
        let values = [
            Json::Null,
            Json::Bool(true),
            Json::str("hostile"),
            Json::Arr(Vec::new()),
            Json::Obj(Vec::new()),
            Json::Arr(vec![Json::Num(-1.0); 100_000]),
        ];
        let numbers = [-1.0, -0.5, 0.5, 1.5, 7.0, 9_007_199_254_740_994.0, 2f64.powi(64), 1e308];
        let numbers = numbers.into_iter().chain([f64::MAX, f64::NAN, f64::INFINITY]);
        let sets = values.into_iter().chain(numbers.map(Json::Num)).map(Edit::Set);
        std::iter::once(Edit::Drop).chain(sets).collect()
    }

    /// The edit as it reads back from rendered text, where a non-finite
    /// number is `null`.
    pub fn rendered(&self) -> Edit {
        match self {
            Edit::Drop => Edit::Drop,
            Edit::Set(v) => Edit::Set(Json::parse(&v.render()).unwrap_or(Json::Null)),
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::Drop => f.write_str("drop"),
            Edit::Set(v) => write!(f, "set {}", describe(Some(v))),
        }
    }
}

/// One field of a document, as a table row describes it.
#[derive(Clone, Debug)]
pub struct Target {
    /// The row (for a map entry: an optional row of the map's kind).
    pub row: Field,
    /// The field's path, as a `SchemaError` names it.
    pub path: String,
    /// Keys from the root, each with the array position taken below it.
    steps: Vec<(String, Option<usize>)>,
}

/// Every field of `doc` a row of `table` describes, taking element
/// `pick % len` of every array and every map on the way, plus entry
/// `pick % len` of every map. A field `doc` lacks has no target.
pub fn targets(doc: &Json, table: &[Field], pick: usize) -> Vec<Target> {
    let mut out = Vec::new();
    for row in table {
        let (parent, names) = row.path.rsplit_once('.').unwrap_or(("", row.path));
        let mut at = Target { row: *row, path: String::new(), steps: Vec::new() };
        let mut node = Some(doc);
        for seg in parent.split('.').filter(|seg| !seg.is_empty()) {
            let name = seg.trim_end_matches(['[', ']', '{', '}']);
            node = node.and_then(|n| n.get(name));
            at.step(name);
            if seg.ends_with("[]") {
                let items = node.and_then(Json::as_arr).unwrap_or_default();
                let i = pick.checked_rem(items.len());
                node = i.map(|i| &items[i]);
                at.steps.last_mut().expect("a step was just taken").1 = i;
                at.path.push_str(&format!("[{}]", i.unwrap_or(0)));
            } else if seg.ends_with("{}") {
                node = node.and_then(|n| at.entry(n, pick));
            }
        }
        for name in names.split('|') {
            let Some(value) = node.and_then(|n| n.get(name)) else { continue };
            let mut t = at.clone();
            t.step(name);
            let entry = match row.kind {
                Kind::Map(kind) => {
                    let mut entry = Target { row: opt("", *kind), ..t.clone() };
                    entry.entry(value, pick).map(|_| entry)
                }
                _ => None,
            };
            out.push(t);
            out.extend(entry);
        }
    }
    out
}

impl Target {
    fn step(&mut self, key: &str) {
        if !self.path.is_empty() {
            self.path.push('.');
        }
        self.path.push_str(key);
        self.steps.push((key.to_string(), None));
    }

    /// Steps into entry `pick % len` of the map `node`.
    fn entry<'a>(&mut self, node: &'a Json, pick: usize) -> Option<&'a Json> {
        let pairs = node.as_obj()?;
        let (key, value) = &pairs[pick.checked_rem(pairs.len())?];
        self.step(key);
        Some(value)
    }

    /// `doc` with `edit` made to this field (`doc` is the document the
    /// target was taken from).
    pub fn apply(&self, doc: &Json, edit: &Edit) -> Json {
        let mut out = doc.clone();
        let mut node = &mut out;
        let ((key, _), parents) = self.steps.split_last().expect("a target has a step");
        for (step, at) in parents {
            let Json::Obj(pairs) = node else { unreachable!("a target's parents are objects") };
            let next = pairs.iter_mut().find(|(k, _)| k == step).expect("a target's step exists");
            node = match (at, &mut next.1) {
                (Some(i), Json::Arr(items)) => &mut items[*i],
                (_, next) => next,
            };
        }
        match (edit, node) {
            (Edit::Drop, Json::Obj(pairs)) => pairs.retain(|(k, _)| k != key),
            (Edit::Set(v), node) => node.set(key, v.clone()),
            _ => unreachable!("a target's parent is an object"),
        }
        out
    }

    /// Judges a validator's answer to `edit` at this field, given as the
    /// path it rejected the edited document at (`None` if it accepted):
    /// an edit the row does not admit must be rejected at this field or
    /// below it.
    pub fn judge(&self, edit: &Edit, rejected_at: Option<&str>) -> Result<(), String> {
        let must = match edit {
            Edit::Drop => self.row.required,
            Edit::Set(v) => self.row.admit(v, "").is_err(),
        };
        let below = |p: &str| {
            let rest = p.strip_prefix(self.path.as_str());
            rest.is_some_and(|r| r.is_empty() || r.starts_with(['.', '[']))
        };
        match rejected_at {
            None if must => Err(format!("{edit} at {} was accepted", self.path)),
            Some(p) if must && !below(p) => Err(format!("{edit} at {} rejected at {p}", self.path)),
            _ => Ok(()),
        }
    }
}
