//! Causal tracing: per-hop message provenance and the critical path.
//!
//! The [`Recorder`](crate::Recorder) answers *how long* each phase took;
//! this module answers *why*. Two instruments share one vocabulary of
//! [`SegmentKind`]s (wire delay, queue wait, node compute):
//!
//! * **bit level** — the discrete-event engine of `orthotrees-sim`
//!   assigns every scheduled bit a [`MsgId`] and records one [`Hop`] per
//!   wire admission into a [`CausalTrace`]: which link, when the bit was
//!   presented, when it entered the wire, when it arrived, and which
//!   delivered message *triggered* the emission. A backward walk from the
//!   completion event ([`CausalTrace::critical_path`]) then tiles the
//!   whole completion time `[0, T]` with segments — wire delay, entrance
//!   queueing, and node compute (emission hold) — with no gaps and no
//!   overlaps, so Σ segments = completion exactly. Everything *not* on
//!   the path gets per-link slack ([`CausalTrace::link_slacks`]).
//! * **word level** — the closed-form OTN/OTC machines decompose every
//!   clock charge into [`CausalSegment`]s (stored on the `Recorder`): one
//!   wire-delay segment per tree level, queue-wait for the pipelined word
//!   tail, node-compute for the bit-serial adders/comparators. The serial
//!   clock makes everything critical, so here too Σ segments = elapsed
//!   time, and the per-level wire segments must match the `CostModel`
//!   closed form bit for bit (the `CRIT-*` rules of `orthotrees-verify`).
//!
//! Both instruments follow the crate's zero-overhead contract: the engine
//! feeds a [`CausalTrace`] through its one [`Probes`](crate::probe::Probes)
//! slot, and the hot path touches no tracing code when none is installed.

use crate::probe::EngineEvent;
use orthotrees_vlsi::BitTime;
use std::collections::BTreeMap;

/// Identity of one scheduled bit: the engine's scheduling sequence
/// number, stable under tie-break permutations. Ids increase with every
/// admission, but `Engine::restore` rewinds the counter, so after a
/// rollback the replayed bits reuse the ids of the bits they replace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// What a slice of completion time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKind {
    /// Propagation along a wire (the delay model applied to its length).
    WireDelay,
    /// Waiting for a busy wire entrance (pipelining / serialisation: one
    /// bit per τ, so a word's tail bits always queue behind its head).
    QueueWait,
    /// Node-side processing before emission (gate delays, emission holds).
    NodeCompute,
}

impl SegmentKind {
    /// Short lower-case label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::WireDelay => "wire-delay",
            SegmentKind::QueueWait => "queue-wait",
            SegmentKind::NodeCompute => "node-compute",
        }
    }
}

/// One word-level causal segment recorded by
/// [`Recorder::segment`](crate::Recorder::segment): a half-open slice
/// `[start, end)` of the simulated clock attributed to one cost category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalSegment {
    /// Index of the innermost open span when the segment was recorded
    /// (resolve to a phase name with
    /// [`Recorder::segment_phase`](crate::Recorder::segment_phase)).
    pub span: Option<usize>,
    /// Tree level the segment belongs to (1 = leaf level), if any.
    pub level: Option<u32>,
    /// Cost category.
    pub kind: SegmentKind,
    /// Segment start on the simulated clock.
    pub start: BitTime,
    /// Segment end (`> start`; zero-length segments are not recorded).
    pub end: BitTime,
}

impl CausalSegment {
    /// The segment's duration.
    pub fn duration(&self) -> BitTime {
        self.end - self.start
    }
}

/// Aggregated word-level attribution for one `(phase, kind)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentTotal {
    /// Phase name of the enclosing span (`"(unattributed)"` if none).
    pub phase: String,
    /// Cost category.
    pub kind: SegmentKind,
    /// Number of segments aggregated.
    pub count: u64,
    /// Total duration.
    pub total: BitTime,
}

/// One endpoint of a dynamic reach edge: an abstract register-file cell of
/// the word-level machines, named the way the symbolic dataflow pass
/// (`verify::dflow`) names cells — a `(register plane, leaf)` pair or the
/// tree's root register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReachCell {
    /// Register plane `reg` at leaf `leaf` of the event's tree. On the OTC
    /// the leaf is a whole cycle (stream primitives) or a cycle position
    /// (`VECTORCIRCULATE`), matching the abstraction level of the static
    /// dataflow programs.
    Reg {
        /// Register plane index (`Reg::index` of the executing network).
        reg: u64,
        /// Leaf index within the tree.
        leaf: u64,
    },
    /// The tree's root register (OTN) or root stream buffer (OTC).
    Root,
}

/// One observed word movement recorded by
/// [`Recorder::reach`](crate::Recorder::reach): during reach round
/// `round`, tree `tree` delivered a word from cell `from` into cell `to`.
///
/// Rounds partition events by executed primitive leg
/// ([`Recorder::reach_round_begin`](crate::Recorder::reach_round_begin)):
/// a resolver must read `from` against the register state *at round
/// start*, because a leg's writes never feed its own reads (the executors
/// gather before they write).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReachEvent {
    /// The reach round (one per executed primitive leg, monotone).
    pub round: u64,
    /// Tree index within the executing axis family (cycle index
    /// `i·m + j` for `VECTORCIRCULATE`).
    pub tree: u64,
    /// The cell the word was read from.
    pub from: ReachCell,
    /// The cell the word was written to.
    pub to: ReachCell,
}

/// One bit-hop recorded by the engine: message `msg` was emitted (because
/// delivered message `pred` triggered its node, or on node start) and
/// admitted onto `link`.
///
/// Time tiles exactly: `trigger_at ≤ ready ≤ enter ≤ arrive`, with
/// `ready − trigger_at` the emission hold (node compute), `enter − ready`
/// the wire-entrance queueing and `arrive − enter` the wire delay — and
/// `trigger_at` equals the predecessor's `arrive` (or 0 at node start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The scheduled bit's id.
    pub msg: MsgId,
    /// The delivered message whose arrival triggered this emission
    /// (`None` for bits emitted at node start).
    pub pred: Option<MsgId>,
    /// Link the bit was admitted onto.
    pub link: usize,
    /// That link's physical length in λ.
    pub link_len: u64,
    /// Arrival time of `pred` at the emitting node (0 at node start).
    pub trigger_at: BitTime,
    /// Time the node presented the bit at the wire (`trigger_at + hold`).
    pub ready: BitTime,
    /// Time the bit actually entered the wire (queueing resolved).
    pub enter: BitTime,
    /// Time the bit arrived at the far end.
    pub arrive: BitTime,
    /// Whether the bit was actually delivered (false for bits lost to a
    /// dropping link fault or a dead receiving node).
    pub delivered: bool,
}

/// Per-link slack relative to the completion event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSlack {
    /// Link id.
    pub link: usize,
    /// Link length in λ.
    pub link_len: u64,
    /// Latest delivered arrival through this link.
    pub last_arrive: BitTime,
    /// `completion − last_arrive`: how much later this link's last bit
    /// could have arrived without delaying completion. The final link of
    /// the critical path has slack 0.
    pub slack: BitTime,
}

/// One segment of the critical path (bit level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// The message whose hop this slice belongs to.
    pub msg: MsgId,
    /// Cost category.
    pub kind: SegmentKind,
    /// The link involved (`None` for node-compute slices).
    pub link: Option<usize>,
    /// That link's length in λ.
    pub link_len: Option<u64>,
    /// Slice start.
    pub start: BitTime,
    /// Slice end (`> start`).
    pub end: BitTime,
}

impl PathSegment {
    /// The slice's duration.
    pub fn duration(&self) -> BitTime {
        self.end - self.start
    }
}

/// The critical path extracted by a backward walk from one delivered
/// message: a gap-free tiling of `[0, completion]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The path's slices in time order (earliest first), zero-length
    /// slices elided.
    pub segments: Vec<PathSegment>,
    /// Arrival time of the walk's end message — the time the path
    /// explains.
    pub completion: BitTime,
}

impl CriticalPath {
    /// Total duration attributed to one cost category.
    pub fn kind_total(&self, kind: SegmentKind) -> BitTime {
        self.segments.iter().filter(|s| s.kind == kind).map(PathSegment::duration).sum()
    }

    /// Whether the slices tile `[0, completion]` exactly: contiguous,
    /// starting at 0 and ending at `completion`. The engine's recording
    /// discipline guarantees this; the `CRIT-002` verify rule asserts it.
    pub fn covers_completion(&self) -> bool {
        let contiguous = self.segments.windows(2).all(|w| w[0].end == w[1].start);
        let start_ok = self
            .segments
            .first()
            .map_or(self.completion == BitTime::ZERO, |s| s.start == BitTime::ZERO);
        let end_ok = self
            .segments
            .last()
            .map_or(self.completion == BitTime::ZERO, |s| s.end == self.completion);
        contiguous && start_ok && end_ok
    }

    /// The wire-delay slices in time order (the per-level decomposition a
    /// clean `ROOTTOLEAF` is checked against).
    pub fn wire_segments(&self) -> impl Iterator<Item = &PathSegment> {
        self.segments.iter().filter(|s| s.kind == SegmentKind::WireDelay)
    }
}

/// The bit-level causal trace: every hop of a run, in admission order.
///
/// Message ids rise by one per admission, so `hops` is sorted by id
/// except where a restore rewound the engine's counter. `runs` holds the
/// start of each strictly increasing stretch, and a lookup binary-searches
/// them newest first: the answer is the most recent admission of the id,
/// and recording a hop costs one comparison rather than an index insert.
#[derive(Clone, Debug, Default)]
pub struct CausalTrace {
    hops: Vec<Hop>,
    runs: Vec<usize>,
}

impl CausalTrace {
    /// An empty trace.
    pub fn new() -> Self {
        CausalTrace::default()
    }

    /// Folds one engine event: an admission records its [`Hop`], and a
    /// dropping fault or a suppressed delivery marks the most recent hop
    /// of that message undelivered.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        match *ev {
            EngineEvent::Admit {
                msg,
                trigger,
                link,
                link_len,
                trigger_at,
                ready,
                enter,
                arrive,
                ..
            } => {
                if self.hops.last().is_none_or(|h| msg <= h.msg) {
                    self.runs.push(self.hops.len());
                }
                self.hops.push(Hop {
                    msg,
                    pred: trigger,
                    link,
                    link_len,
                    trigger_at,
                    ready,
                    enter,
                    arrive,
                    delivered: true,
                });
            }
            EngineEvent::Fault { msg, dropped: true, .. } | EngineEvent::Suppress { msg } => {
                if let Some(i) = self.find(msg) {
                    self.hops[i].delivered = false;
                }
            }
            _ => {}
        }
    }

    /// All hops in scheduling order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The hop of one message, if recorded: its most recent admission
    /// when a restore made the id repeat.
    pub fn hop(&self, msg: MsgId) -> Option<&Hop> {
        self.find(msg).map(|i| &self.hops[i])
    }

    /// Index of the most recent hop of `msg`: a binary search in each run
    /// of increasing ids, newest run first.
    fn find(&self, msg: MsgId) -> Option<usize> {
        let mut end = self.hops.len();
        for &start in self.runs.iter().rev() {
            if let Ok(i) = self.hops[start..end].binary_search_by_key(&msg, |h| h.msg) {
                return Some(start + i);
            }
            end = start;
        }
        None
    }

    /// The completion event: the delivered hop with the latest arrival
    /// (ties broken towards the later-scheduled message).
    pub fn completion(&self) -> Option<&Hop> {
        self.hops.iter().filter(|h| h.delivered).max_by_key(|h| (h.arrive, h.msg))
    }

    /// Extracts the critical path by walking predecessor edges backwards
    /// from the completion event. `None` if nothing was delivered.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        self.completion().and_then(|h| self.critical_path_to(h.msg))
    }

    /// Extracts the critical path ending at `msg`'s arrival. `None` if
    /// the message (or any predecessor) was never recorded.
    pub fn critical_path_to(&self, msg: MsgId) -> Option<CriticalPath> {
        let completion = self.hop(msg)?.arrive;
        let mut segments = Vec::new();
        let mut cur = Some(msg);
        while let Some(m) = cur {
            let h = self.hop(m)?;
            let mut push = |kind, link: Option<usize>, len, start: BitTime, end: BitTime| {
                if end > start {
                    segments.push(PathSegment {
                        msg: h.msg,
                        kind,
                        link,
                        link_len: len,
                        start,
                        end,
                    });
                }
            };
            push(SegmentKind::WireDelay, Some(h.link), Some(h.link_len), h.enter, h.arrive);
            push(SegmentKind::QueueWait, Some(h.link), Some(h.link_len), h.ready, h.enter);
            push(SegmentKind::NodeCompute, None, None, h.trigger_at, h.ready);
            if h.pred.is_none() {
                debug_assert_eq!(
                    h.trigger_at,
                    BitTime::ZERO,
                    "start-of-run emissions must be anchored at t = 0"
                );
            }
            cur = h.pred;
        }
        segments.reverse();
        Some(CriticalPath { segments, completion })
    }

    /// Per-link slack relative to the completion event, in link-id order.
    /// Links that delivered nothing are omitted. Empty if nothing
    /// completed.
    pub fn link_slacks(&self) -> Vec<LinkSlack> {
        let Some(completion) = self.completion().map(|h| h.arrive) else {
            return Vec::new();
        };
        let mut last: BTreeMap<usize, (u64, BitTime)> = BTreeMap::new();
        for h in self.hops.iter().filter(|h| h.delivered) {
            let e = last.entry(h.link).or_insert((h.link_len, h.arrive));
            e.1 = e.1.max(h.arrive);
        }
        last.into_iter()
            .map(|(link, (link_len, last_arrive))| LinkSlack {
                link,
                link_len,
                last_arrive,
                slack: completion - last_arrive,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds the admission of `msg` over `link`, with
    /// `t = [trigger_at, ready, enter, arrive]`.
    fn admit(
        tr: &mut CausalTrace,
        msg: u64,
        pred: Option<u64>,
        link: usize,
        link_len: u64,
        t: [u64; 4],
    ) {
        tr.on_engine(&EngineEvent::Admit {
            msg: MsgId(msg),
            trigger: pred.map(MsgId),
            link,
            link_len,
            trigger_at: BitTime::new(t[0]),
            ready: BitTime::new(t[1]),
            enter: BitTime::new(t[2]),
            arrive: BitTime::new(t[3]),
            waited: t[2] - t[1],
        });
    }

    /// A two-hop chain: start-emitted bit crosses link 0 (delay 3), the
    /// relay holds it 2τ, it queues 1τ at link 1's entrance, then crosses
    /// link 1 (delay 4). Completion at t = 10.
    fn chain() -> CausalTrace {
        let mut tr = CausalTrace::new();
        admit(&mut tr, 1, None, 0, 8, [0, 0, 0, 3]);
        admit(&mut tr, 2, Some(1), 1, 16, [3, 5, 6, 10]);
        tr
    }

    #[test]
    fn critical_path_tiles_completion_exactly() {
        let tr = chain();
        let path = tr.critical_path().unwrap();
        assert_eq!(path.completion, BitTime::new(10));
        assert!(path.covers_completion(), "{path:?}");
        let total: BitTime = path.segments.iter().map(PathSegment::duration).sum();
        assert_eq!(total, path.completion);
        assert_eq!(path.kind_total(SegmentKind::WireDelay), BitTime::new(7));
        assert_eq!(path.kind_total(SegmentKind::NodeCompute), BitTime::new(2));
        assert_eq!(path.kind_total(SegmentKind::QueueWait), BitTime::new(1));
    }

    #[test]
    fn path_segments_are_in_time_order_with_links_attached() {
        let path = chain().critical_path().unwrap();
        assert!(path.segments.windows(2).all(|w| w[0].end <= w[1].start));
        let wires: Vec<_> = path.wire_segments().map(|s| (s.link, s.link_len)).collect();
        assert_eq!(wires, vec![(Some(0), Some(8)), (Some(1), Some(16))]);
    }

    #[test]
    fn undelivered_messages_never_complete() {
        let mut tr = chain();
        tr.on_engine(&EngineEvent::Suppress { msg: MsgId(2) });
        assert_eq!(tr.completion().unwrap().msg, MsgId(1));
        let path = tr.critical_path().unwrap();
        assert_eq!(path.completion, BitTime::new(3));
    }

    #[test]
    fn link_slack_is_zero_on_the_final_link() {
        let slacks = chain().link_slacks();
        assert_eq!(slacks.len(), 2);
        assert_eq!(slacks[0].link, 0);
        assert_eq!(slacks[0].slack, BitTime::new(7));
        assert_eq!(slacks[1].link, 1);
        assert_eq!(slacks[1].slack, BitTime::ZERO);
    }

    #[test]
    fn empty_trace_has_no_path_and_no_slack() {
        let tr = CausalTrace::new();
        assert!(tr.is_empty());
        assert!(tr.critical_path().is_none());
        assert!(tr.link_slacks().is_empty());
    }

    #[test]
    fn gap_in_the_chain_is_detected_by_covers_completion() {
        // Predecessor arrives at 3, but the successor claims trigger 4:
        // the tiling has a hole and covers_completion must say so.
        let mut tr = CausalTrace::new();
        admit(&mut tr, 1, None, 0, 1, [0, 0, 0, 3]);
        admit(&mut tr, 2, Some(1), 1, 1, [4, 4, 4, 5]);
        let path = tr.critical_path().unwrap();
        assert!(!path.covers_completion(), "{path:?}");
    }

    /// The map-backed trace the run search replaced, kept as the oracle:
    /// one index insert per admission, so a repeated id maps to its most
    /// recent hop.
    #[derive(Default)]
    struct MapTrace {
        hops: Vec<Hop>,
        by_msg: BTreeMap<u64, usize>,
    }

    impl MapTrace {
        fn on_engine(&mut self, ev: &EngineEvent) {
            match *ev {
                EngineEvent::Admit {
                    msg,
                    trigger,
                    link,
                    link_len,
                    trigger_at,
                    ready,
                    enter,
                    arrive,
                    ..
                } => {
                    self.by_msg.insert(msg.0, self.hops.len());
                    self.hops.push(Hop {
                        msg,
                        pred: trigger,
                        link,
                        link_len,
                        trigger_at,
                        ready,
                        enter,
                        arrive,
                        delivered: true,
                    });
                }
                EngineEvent::Fault { msg, dropped: true, .. } | EngineEvent::Suppress { msg } => {
                    if let Some(&i) = self.by_msg.get(&msg.0) {
                        self.hops[i].delivered = false;
                    }
                }
                _ => {}
            }
        }

        fn hop(&self, msg: u64) -> Option<&Hop> {
            self.by_msg.get(&msg).map(|&i| &self.hops[i])
        }

        /// The backward walk from `msg`, as `(msg, start, end)` of every
        /// non-empty slice, latest first.
        fn walk(&self, msg: u64) -> Option<Vec<(MsgId, BitTime, BitTime)>> {
            let mut out = Vec::new();
            let mut cur = Some(msg);
            while let Some(m) = cur {
                let h = self.hop(m)?;
                for (start, end) in
                    [(h.enter, h.arrive), (h.ready, h.enter), (h.trigger_at, h.ready)]
                {
                    if end > start {
                        out.push((h.msg, start, end));
                    }
                }
                cur = h.pred.map(|p| p.0);
            }
            Some(out)
        }
    }

    /// Replays an engine-like event stream: admissions with rising ids,
    /// drops of the bit just admitted, suppressions of any earlier id,
    /// and restores that rewind the id counter, so ids repeat. A
    /// predecessor is always an id admitted since the last rewind and
    /// below the new one, as the engine's triggers are.
    fn replay(ops: &[(u8, u64, u64)]) -> (CausalTrace, MapTrace, u64) {
        let (mut tr, mut oracle) = (CausalTrace::new(), MapTrace::default());
        let (mut seq, mut since, mut top) = (0u64, 0u64, 0u64);
        for &(kind, a, b) in ops {
            let ev = match kind {
                0..=5 => {
                    seq += 1;
                    top = top.max(seq);
                    let pred =
                        (a % 3 != 0 && seq - 1 > since).then(|| since + 1 + a % (seq - 1 - since));
                    let trigger_at = if pred.is_some() { a % 7 } else { 0 };
                    let ready = trigger_at + b % 3;
                    let enter = ready + (a >> 8) % 3;
                    EngineEvent::Admit {
                        msg: MsgId(seq),
                        trigger: pred.map(MsgId),
                        link: (b % 5) as usize,
                        link_len: 1 + b % 4,
                        trigger_at: BitTime::new(trigger_at),
                        ready: BitTime::new(ready),
                        enter: BitTime::new(enter),
                        arrive: BitTime::new(enter + 1 + (b >> 8) % 4),
                        waited: enter - ready,
                    }
                }
                6 => EngineEvent::Fault { msg: MsgId(seq), arrive: BitTime::ZERO, dropped: true },
                7 => EngineEvent::Suppress { msg: MsgId(a % (top + 2)) },
                _ => {
                    seq = a % (seq + 1);
                    since = seq;
                    continue;
                }
            };
            tr.on_engine(&ev);
            oracle.on_engine(&ev);
        }
        (tr, oracle, top)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn run_search_matches_the_map_backed_trace_across_restores(
            ops in collection::vec((0u8..9, 0u64..1 << 16, 0u64..1 << 16), 0..160),
        ) {
            let (tr, oracle, top) = replay(&ops);
            prop_assert_eq!(tr.hops(), &oracle.hops[..]);
            for m in 0..=top + 1 {
                prop_assert_eq!(tr.hop(MsgId(m)), oracle.hop(m));
                let got = tr.critical_path_to(MsgId(m)).map(|p| {
                    p.segments.iter().rev().map(|s| (s.msg, s.start, s.end)).collect::<Vec<_>>()
                });
                prop_assert_eq!(got, oracle.walk(m));
            }
        }
    }

    #[test]
    fn repeated_ids_resolve_to_the_most_recent_admission() {
        let mut tr = chain();
        // A restore rewinds the counter: id 2 is admitted again, over a
        // different link, and the lookup must see the replay.
        admit(&mut tr, 2, Some(1), 0, 8, [3, 3, 3, 9]);
        assert_eq!(tr.hop(MsgId(2)).map(|h| h.arrive), Some(BitTime::new(9)));
        tr.on_engine(&EngineEvent::Suppress { msg: MsgId(2) });
        assert!(tr.hops()[1].delivered, "the superseded hop is untouched");
        assert!(!tr.hops()[2].delivered);
        assert_eq!(tr.completion().map(|h| h.arrive), Some(BitTime::new(10)));
    }
}
