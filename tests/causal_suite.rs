//! Property-based tests for the causal layer: for every registry entry
//! bound on each network (`tests/support/repertoire.rs`), over the whole
//! size grid, with and without an installed fault plan, the recorded causal segments must tile the
//! elapsed time exactly — Σ segment durations == completion bits, with
//! no gap and no overlap. Retried rounds never vanish from the causal
//! view: they surface as queue-wait segments inside `FAULT-OVERHEAD`.
//!
//! A second block checks the bit-level engine: the critical path
//! extracted from a traced `ROOTTOLEAF` run tiles `[0, completion]` and
//! its per-level wire slices match the `CostModel` closed forms.

use orthotrees::obs::causal::{CausalTrace, Hop, LinkSlack, MsgId, PathSegment, SegmentKind};
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Axis, Otn, PhaseCost};
use orthotrees::wordnet::{Cycles, Topology, Tree, WordNet};
use orthotrees::{FaultPlan, Word};
use orthotrees_sim::experiments::{self, probe_engine, ProbeKind};
use orthotrees_sim::{supervise_engine, CalendarKind, Engine, NodeId, RecoveryPolicy};
use orthotrees_verify::dflow::retry_plan;
use orthotrees_vlsi::{BitTime, CostModel};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "support/repertoire.rs"]
mod repertoire;

/// The invariant every word-level run must satisfy: segments tile
/// `[0, total]` exactly, and any fault overhead is queue-wait covering
/// its whole phase.
fn assert_segments_tile(rec: &Recorder, total: BitTime) {
    assert_eq!(rec.segments_total(), total, "Σ segments must equal the elapsed time");
    assert!(
        rec.segments().windows(2).all(|w| w[0].end == w[1].start),
        "segments must tile the clock with no gaps or overlaps"
    );
    assert!(
        rec.segments().first().is_none_or(|s| s.start == BitTime::ZERO),
        "the first segment must start at t = 0"
    );
    let overhead: Vec<_> =
        rec.segments().iter().filter(|s| rec.segment_phase(s) == "FAULT-OVERHEAD").collect();
    assert!(overhead.iter().all(|s| s.kind == SegmentKind::QueueWait));
    if rec.counter("fault.retry_rounds") > 0 {
        assert!(!overhead.is_empty(), "retry rounds must never vanish from the causal view");
    }
}

/// A non-vacuous witness for the proptest's fault clause: this plan and
/// size retry often enough that the counter is guaranteed non-zero, and
/// the `FAULT-OVERHEAD` queue-wait segments must then exist and cover
/// that phase's self time exactly on both networks.
#[test]
fn fault_overhead_is_visible_and_fully_queue_wait() {
    let xs: Vec<Word> = (0..32).map(|v| (v * 37 + 11) % 32).collect();

    let mut otn = net::<Tree>(32, true, 7);
    otn::sort::sort(&mut otn, &xs).unwrap();
    let mut otc = net::<Cycles>(32, true, 7);
    otc::sort::sort(&mut otc, &xs).unwrap();

    for rec in [otn.take_recorder().unwrap(), otc.take_recorder().unwrap()] {
        assert!(rec.counter("fault.retry_rounds") > 0, "the plan must actually retry");
        let overhead: BitTime = rec
            .segments()
            .iter()
            .filter(|s| rec.segment_phase(s) == "FAULT-OVERHEAD")
            .map(|s| s.duration())
            .sum();
        assert!(overhead > BitTime::ZERO, "retry rounds must cost visible time");
        let phase: u64 = rec
            .phase_totals()
            .iter()
            .filter(|p| p.name == "FAULT-OVERHEAD")
            .map(|p| p.self_time.get())
            .sum();
        assert_eq!(overhead.get(), phase, "segments must cover the overhead phase");
    }
}

/// Installs a recorder and, when `faulty`, `retry_plan(seed)`.
fn setup<T: Topology>(net: &mut WordNet<T>, faulty: bool, seed: u64) {
    net.install_recorder(Recorder::new());
    if faulty {
        net.install_fault_plan(retry_plan(seed));
    }
}

/// A fresh `T::for_sorting(n)` fitted by [`setup`].
fn net<T: Topology>(n: usize, faulty: bool, seed: u64) -> WordNet<T> {
    let mut net = T::for_sorting(n).expect("power-of-two size");
    setup(&mut net, faulty, seed);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The OTN repertoire (every bound registry entry on both axes and a
    /// BP phase) plus PAIRWISE and SCAN, sizes 2²..2⁷, clean and faulty.
    #[test]
    fn otn_primitives_tile_the_clock(k in 2u32..=7, faulty in any::<bool>(), seed in 0u64..1_000_000_000) {
        let mut net = repertoire::run::<Tree>(1 << k, |net: &mut Otn| setup(net, faulty, seed));
        let [src, dst] = repertoire::load(&mut net);
        net.pairwise(Axis::Rows, 1, src, PhaseCost::Compare, |_, _, a, b| (b, a));
        net.prefix_sum_rows(src, dst);

        let total = net.clock().now();
        let rec = net.take_recorder().unwrap();
        assert_segments_tile(&rec, total);
    }

    /// The full SORT-OTN procedure, clean and faulty.
    #[test]
    fn otn_sort_tiles_the_clock(k in 2u32..=6, faulty in any::<bool>(), seed in 0u64..1_000_000_000) {
        let n = 1usize << k;
        let xs: Vec<Word> = (0..n as Word).map(|v| (v * 37 + 11) % n as Word).collect();
        let mut net = net::<Tree>(n, faulty, seed);
        let out = otn::sort::sort(&mut net, &xs).unwrap();
        let rec = net.take_recorder().unwrap();
        assert_segments_tile(&rec, out.time);
    }

    /// The OTC repertoire (every bound registry entry on both axes, a BP
    /// phase and a cycle phase), sizes 2²..2⁷, clean and faulty.
    #[test]
    fn otc_primitives_tile_the_clock(k in 2u32..=7, faulty in any::<bool>(), seed in 0u64..1_000_000_000) {
        let mut net = repertoire::run::<Cycles>(1 << k, |net: &mut Otc| setup(net, faulty, seed));

        let total = net.clock().now();
        let rec = net.take_recorder().unwrap();
        assert_segments_tile(&rec, total);
    }

    /// The full SORT-OTC procedure, clean and faulty.
    #[test]
    fn otc_sort_tiles_the_clock(k in 2u32..=6, faulty in any::<bool>(), seed in 0u64..1_000_000_000) {
        let n = 1usize << k;
        let xs: Vec<Word> = (0..n as Word).map(|v| (v * 37 + 11) % n as Word).collect();
        let mut net = net::<Cycles>(n, faulty, seed);
        let out = otc::sort::sort(&mut net, &xs).unwrap();
        let rec = net.take_recorder().unwrap();
        assert_segments_tile(&rec, out.time);
    }

    /// The bit-level engine: a traced ROOTTOLEAF's critical path tiles
    /// `[0, completion]` and matches the per-level closed forms.
    #[test]
    fn traced_broadcast_critical_path_is_exact(k in 1u32..=7, which in 0usize..3) {
        let n = 1usize << k;
        let m = [
            CostModel::thompson(n),
            CostModel::constant_delay(n),
            CostModel::linear_delay(n),
        ][which];
        let (_, mut e) = experiments::broadcast(n, &m, Engine::with_causal_trace).unwrap();
        let trace = e.take_causal_trace().unwrap();
        let path = trace.critical_path().unwrap();
        prop_assert!(path.covers_completion(), "{path:?}");
        let total: BitTime =
            [SegmentKind::WireDelay, SegmentKind::QueueWait, SegmentKind::NodeCompute]
                .into_iter()
                .map(|kind| path.kind_total(kind))
                .sum();
        prop_assert_eq!(total, path.completion);
        // Per-level wire slices match the closed form, root level first.
        let pitch = m.leaf_pitch();
        let wires: Vec<BitTime> = path
            .wire_segments()
            .filter(|s| s.link_len.unwrap_or(0) > 0)
            .map(|s| s.duration())
            .collect();
        let mut expect = m.level_bit_delays(n, pitch);
        expect.reverse();
        prop_assert_eq!(wires, expect);
        // And the slack table anchors at the completion link.
        let slacks = trace.link_slacks();
        prop_assert_eq!(slacks.iter().map(|s| s.slack).min(), Some(BitTime::ZERO));
    }
}

// ---------------------------------------------------------------------
// Message ids across a supervised rollback.
// ---------------------------------------------------------------------

/// The lookups a map from message id to its latest hop gives: what the
/// trace answered when it kept such a map, recomputed from its hops.
struct MapOracle {
    latest: BTreeMap<MsgId, Hop>,
    hops: Vec<Hop>,
}

impl MapOracle {
    fn new(tr: &CausalTrace) -> MapOracle {
        let hops = tr.hops().to_vec();
        MapOracle { latest: hops.iter().map(|h| (h.msg, *h)).collect(), hops }
    }

    fn completion(&self) -> Option<Hop> {
        self.hops.iter().filter(|h| h.delivered).max_by_key(|h| (h.arrive, h.msg)).copied()
    }

    fn critical_path(&self) -> Option<Vec<PathSegment>> {
        let mut segments = Vec::new();
        let mut cur = Some(self.completion()?.msg);
        while let Some(m) = cur {
            let h = self.latest.get(&m)?;
            let (wire, queue) = (SegmentKind::WireDelay, SegmentKind::QueueWait);
            for (kind, link, start, end) in [
                (wire, Some((h.link, h.link_len)), h.enter, h.arrive),
                (queue, Some((h.link, h.link_len)), h.ready, h.enter),
                (SegmentKind::NodeCompute, None, h.trigger_at, h.ready),
            ] {
                if end > start {
                    let (link, link_len) = (link.map(|l| l.0), link.map(|l| l.1));
                    segments.push(PathSegment { msg: h.msg, kind, link, link_len, start, end });
                }
            }
            cur = h.pred;
        }
        segments.reverse();
        Some(segments)
    }

    fn link_slacks(&self) -> Vec<LinkSlack> {
        let Some(done) = self.completion().map(|h| h.arrive) else {
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
                slack: done - last_arrive,
            })
            .collect()
    }
}

/// A causal trace rides through a `supervise_engine` rollback: the
/// restore rewinds the engine's scheduling counter, so the replay
/// re-admits bits under ids already in the trace. Every lookup must
/// resolve to the most recent admission, as the map-backed trace did.
#[test]
fn causal_lookups_survive_a_supervised_rollback() {
    let m = CostModel::thompson(8);
    let mut e = probe_engine(ProbeKind::Sum, 8, &m, CalendarKind::Ladder, None, false);
    let sink = NodeId(e.node_count() - 1);
    e = e.with_causal_trace().with_fault_plan(FaultPlan::new(9).with_outage(
        sink,
        BitTime::new(6),
        BitTime::new(30),
    ));
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 6, min_checkpoint_events: 2 };
    let report = supervise_engine(&mut e, &policy, |e, _| e.set_fault_plan(None)).unwrap();
    assert!(report.rollbacks >= 1, "the outage must trip the supervisor");
    let tr = e.take_causal_trace().unwrap();
    let oracle = MapOracle::new(&tr);
    assert!(oracle.latest.len() < tr.len(), "the replay must re-admit ids already traced");

    let top = tr.hops().iter().map(|h| h.msg.0).max().unwrap();
    for id in 0..=top + 1 {
        assert_eq!(tr.hop(MsgId(id)), oracle.latest.get(&MsgId(id)), "hop of id {id}");
    }
    assert_eq!(tr.completion().copied(), oracle.completion());
    let path = tr.critical_path().expect("the recovered run completes");
    assert_eq!(Some(path.segments.clone()), oracle.critical_path());
    assert!(path.covers_completion(), "{path:?}");
    assert_eq!(path.completion, report.completion);
    assert_eq!(tr.link_slacks(), oracle.link_slacks());
}
