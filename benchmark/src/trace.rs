//! In-memory spans around the benchmark's calls into each layer, and their
//! export as Chrome trace-event JSON.
//!
//! Spans are recorded only from this crate, around public calls of the
//! simulator crates; nothing inside the simulator is instrumented. A
//! span's *self time* is its duration minus the part of it that its
//! children cover (their union, so overlapping children count once).

use orthotrees::obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (closed-loop request) the span belongs to.
    pub op: u64,
    /// Layer-qualified call name, e.g. `sim.engine.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer { workload, epoch: Instant::now(), op: 0, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.last(), Some(&id), "spans must close innermost first");
        self.close_through(id);
    }

    /// Closes span `id` and every span opened inside it that is still
    /// open (a panic unwinds past their `close`).
    pub fn close_through(&mut self, id: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (`ph: "X"`, times in
    /// µs), with `meta` attached as `otherData`.
    pub fn chrome_json(&self, meta: Json) -> Json {
        let us = |ns: u64| Json::f64(ns as f64 / 1e3);
        let events = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer))),
                ("ph", Json::str("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::u64(s.id as u64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
                        ("op", Json::u64(s.op)),
                        ("workload", Json::str(self.workload)),
                    ]),
                ),
            ])
        });
        Json::obj([("traceEvents", Json::arr(events)), ("otherData", meta)])
    }
}

/// Runs `f` inside a span named `name` when tracing, or just runs it.
pub fn span<R>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.open(name);
            let r = f();
            t.close(id);
            r
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), ordered by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            at(0, None, 0, 100),
            // Two children overlapping on [30, 40): covered = [10, 60).
            at(1, Some(0), 10, 40),
            at(2, Some(0), 30, 60),
            // A child nested in child 2 does not count against the root.
            at(3, Some(2), 35, 50),
            // A child running past its parent's end is clipped.
            at(4, Some(0), 90, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 30 - 15);
        assert_eq!(own[3], 15);
        assert_eq!(own[4], 30);
    }

    #[test]
    fn tracer_nests_spans_and_exports_chrome_events() {
        let mut tr = Some(Tracer::new("w"));
        tr.as_mut().unwrap().set_op(7);
        let root = tr.as_mut().unwrap().open("op");
        let v = span(&mut tr, "sim.engine.run", || 41 + 1);
        tr.as_mut().unwrap().close(root);
        assert_eq!(v, 42);
        let t = tr.unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = t.chrome_json(Json::Null);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("sim.engine"));
        let sum = summary(spans);
        assert_eq!(sum["op"].0, 1);
        assert_eq!(sum["op"].2 + sum["sim.engine.run"].2, sum["op"].1);
    }
}
