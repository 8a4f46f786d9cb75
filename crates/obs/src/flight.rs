//! Crash flight recorder: a bounded ring buffer of recent engine events
//! that dumps a post-mortem document on failure.
//!
//! A long supervised run that trips its watchdog or rolls back under
//! `sim::recovery` leaves no trace of *what it was doing* at the moment of
//! failure — the full event log is a test-only instrument that grows
//! without bound, and the aggregate instruments fold time away. The
//! [`FlightRecorder`] keeps only the last [`capacity`](FlightRecorder::capacity)
//! delivered events (constant memory, aircraft-FDR style) plus the id of
//! the last checkpoint, and renders a
//! [`orthotrees-flight/v1`](SCHEMA) post-mortem on demand: the tail
//! events, their calendar-depth envelope, the engine's fault counters and
//! the failure reason.
//!
//! The engine dumps automatically on every `SimError` it returns, and the
//! recovery supervisor dumps on every rollback — each document is kept in
//! [`post_mortems`](FlightRecorder::post_mortems) for the caller to
//! export. Attachment follows the [`probe`](crate::probe) zero-overhead
//! contract (proptest-pinned).
//!
//! The `TEL-002` verify rule holds every dump to its defining invariant:
//! the tail is a *contiguous suffix* of the run's event log — same events,
//! same order, no holes.

use crate::json::Json;
use crate::probe::{Delivery, EngineEvent};
use orthotrees_vlsi::BitTime;
use std::collections::VecDeque;

/// The JSON schema identifier emitted by [`FlightRecorder::dump`].
pub const SCHEMA: &str = "orthotrees-flight/v1";

/// Default ring capacity: enough tail to see the failing phase, small
/// enough to stay resident.
pub const DEFAULT_CAPACITY: usize = 64;

/// The bounded flight recorder. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    tail: VecDeque<Delivery>,
    recorded: u64,
    last_checkpoint: Option<u64>,
    post_mortems: Vec<Json>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// An empty recorder keeping the last `capacity` events (clamped ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            tail: VecDeque::new(),
            recorded: 0,
            last_checkpoint: None,
            post_mortems: Vec::new(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events recorded over the recorder's lifetime (≥ the tail length;
    /// the difference is what the ring evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = &Delivery> {
        self.tail.iter()
    }

    /// Folds one engine event: a delivery enters the ring, evicting the
    /// oldest retained event when the ring is full.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        if let EngineEvent::Deliver { delivery, .. } = *ev {
            if self.tail.len() == self.capacity {
                self.tail.pop_front();
            }
            self.tail.push_back(delivery);
            self.recorded += 1;
        }
    }

    /// Notes that a checkpoint was taken at delivered-event count `id`
    /// (the snapshot's identity — the recovery supervisor calls this at
    /// every snapshot it keeps).
    pub fn note_checkpoint(&mut self, id: u64) {
        self.last_checkpoint = Some(id);
    }

    /// The last noted checkpoint id, if any checkpoint was ever taken.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.last_checkpoint
    }

    /// Renders a post-mortem document and retains a copy in
    /// [`post_mortems`](FlightRecorder::post_mortems). `reason` names the
    /// failure (`"budget-exhausted"`, `"rollback"`, …), `at` is the
    /// simulated time of the failure, and `fault` carries the engine's
    /// fault counters as `(name, value)` pairs.
    ///
    /// Document shape (`orthotrees-flight/v1`): `schema`, `reason`, `at`,
    /// `recorded_events` (lifetime count), `dropped_events` (evicted by
    /// the ring), `last_checkpoint` (id or `null`), a `calendar`
    /// min/max/last envelope over the tail, a `fault` counter object, and
    /// the `tail` array itself (oldest first, contiguous `seq`s — the
    /// TEL-002 invariant).
    pub fn dump(&mut self, reason: &str, at: BitTime, fault: &[(&str, u64)]) -> Json {
        let depths = || self.tail.iter().map(|e| e.depth);
        let calendar = Json::obj([
            ("min", Json::u64(depths().min().unwrap_or(0))),
            ("max", Json::u64(depths().max().unwrap_or(0))),
            ("last", Json::u64(self.tail.back().map_or(0, |e| e.depth))),
        ]);
        let tail = Json::arr(self.tail.iter().map(|e| {
            Json::obj([
                ("seq", Json::u64(e.seq)),
                ("at", Json::u64(e.at.get())),
                ("node", Json::u64(e.node as u64)),
                ("port", Json::u64(e.port as u64)),
                ("value", Json::bool(e.value)),
                ("index", Json::u64(u64::from(e.index))),
                ("depth", Json::u64(e.depth)),
            ])
        }));
        let doc = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("reason", Json::str(reason)),
            ("at", Json::u64(at.get())),
            ("recorded_events", Json::u64(self.recorded)),
            ("dropped_events", Json::u64(self.recorded - self.tail.len() as u64)),
            ("last_checkpoint", self.last_checkpoint.map_or(Json::Null, Json::u64)),
            ("calendar", calendar),
            ("fault", Json::obj(fault.iter().map(|&(k, v)| (k, Json::u64(v))))),
            ("tail", tail),
        ]);
        self.post_mortems.push(doc.clone());
        doc
    }

    /// Every post-mortem dumped so far, in dump order.
    pub fn post_mortems(&self) -> &[Json] {
        &self.post_mortems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{check, FLIGHT};

    fn ev(seq: u64) -> EngineEvent {
        let delivery = Delivery {
            seq,
            at: BitTime::new(seq * 3),
            node: (seq % 5) as usize,
            port: (seq % 2) as usize,
            value: seq.is_multiple_of(2),
            index: (seq % 8) as u32,
            depth: 1 + seq % 4,
        };
        EngineEvent::Deliver { delivery, busy_links: 0 }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let mut f = FlightRecorder::new(4);
        for s in 1..=10 {
            f.on_engine(&ev(s));
        }
        assert_eq!(f.recorded(), 10);
        let seqs: Vec<u64> = f.tail().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest evicted, order preserved");
        assert_eq!(f.capacity(), 4);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut f = FlightRecorder::new(0);
        f.on_engine(&ev(1));
        f.on_engine(&ev(2));
        assert_eq!(f.tail().count(), 1);
        assert_eq!(f.tail().next().unwrap().seq, 2);
    }

    #[test]
    fn dump_document_has_the_schema_and_the_tail() {
        let mut f = FlightRecorder::new(3);
        for s in 1..=5 {
            f.on_engine(&ev(s));
        }
        f.note_checkpoint(4);
        let doc = f.dump("budget-exhausted", BitTime::new(99), &[("injected", 2)]);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("budget-exhausted"));
        assert_eq!(doc.get("at").and_then(Json::as_u64), Some(99));
        assert_eq!(doc.get("recorded_events").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("dropped_events").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("last_checkpoint").and_then(Json::as_u64), Some(4));
        assert_eq!(
            doc.get("fault").and_then(|f| f.get("injected")).and_then(Json::as_u64),
            Some(2)
        );
        let tail = doc.get("tail").and_then(Json::as_arr).unwrap();
        assert_eq!(tail.len(), 3);
        let seqs: Vec<u64> =
            tail.iter().map(|e| e.get("seq").and_then(Json::as_u64).unwrap()).collect();
        assert_eq!(seqs, vec![3, 4, 5], "contiguous suffix");
        let cal = doc.get("calendar").unwrap();
        assert_eq!(cal.get("max").and_then(Json::as_u64), Some(4));
        // The dump is retained and the rendered text parses back.
        assert_eq!(f.post_mortems().len(), 1);
        let back = Json::parse(&doc.render()).expect("post-mortem parses");
        assert_eq!(back, doc);
        assert_eq!(check(&back, FLIGHT), Ok(()));
    }

    #[test]
    fn empty_recorder_dumps_a_valid_document() {
        let mut f = FlightRecorder::new(8);
        let doc = f.dump("no-completion", BitTime::ZERO, &[]);
        assert_eq!(doc.get("recorded_events").and_then(Json::as_u64), Some(0));
        assert!(doc.get("tail").and_then(Json::as_arr).unwrap().is_empty());
        assert_eq!(doc.get("last_checkpoint"), Some(&Json::Null));
        assert_eq!(doc.get("calendar").and_then(|c| c.get("max")).and_then(Json::as_u64), Some(0));
        assert_eq!(check(&doc, FLIGHT), Ok(()));
    }

    #[test]
    fn multiple_dumps_accumulate() {
        let mut f = FlightRecorder::new(2);
        f.on_engine(&ev(1));
        f.dump("rollback", BitTime::new(3), &[]);
        f.on_engine(&ev(2));
        f.dump("rollback", BitTime::new(6), &[]);
        assert_eq!(f.post_mortems().len(), 2);
        let tails: Vec<usize> = f
            .post_mortems()
            .iter()
            .map(|d| d.get("tail").and_then(Json::as_arr).unwrap().len())
            .collect();
        assert_eq!(tails, vec![1, 2]);
    }
}
