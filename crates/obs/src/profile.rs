//! Windowed time-series profiler: *when* the simulation is busy, not just
//! how much it did in aggregate.
//!
//! The [`Recorder`] folds a run into totals — counters, power-of-two
//! histograms, per-link sums — which answer "how much" but never "when".
//! The [`Profiler`] buckets the same activity into fixed-width windows of
//! the simulated clock, so a calendar-depth spike at the gather phase of a
//! sort, or a queue-wait burst under a dense fault plan, shows up at its
//! time coordinate. It is the measured baseline the event-core overhaul
//! (arena + ladder queue) must be diffed against.
//!
//! Two ways to fill one:
//!
//! * **Engine level** — [`Profiler::on_engine`] folds `sim::Engine`'s
//!   event stream under the [`probe`](crate::probe) zero-overhead contract
//!   (bit-identity enforced by proptests in the consuming crates).
//! * **Word level** — [`Profiler::from_recorder`] re-buckets a recorded
//!   run's causal segments (wire-delay / queue-wait / node-compute, plus
//!   the `FAULT-OVERHEAD` phase) into windows after the fact, so the
//!   `Otn`/`Otc` clock machines get time-resolved profiles with no new
//!   hooks.
//!
//! Two invariants hold by construction and are policed as `netlint` rules:
//! the window sequence is gapless and strictly monotone in index starting
//! at 0 (**PROF-002**), and the per-window sums tile the aggregate totals
//! a `Recorder` collects for the same run (**PROF-001**) — the windowed
//! analogue of the Σself = completion invariant.
//!
//! Window count is bounded: past [`MAX_WINDOWS`] the profiler doubles the
//! window width and merges adjacent pairs (min/max/sum merges are exact),
//! so memory stays O(1) in run length while every recorded quantity is
//! preserved. The effective width after a run is [`Profiler::width`].

use crate::causal::SegmentKind;
use crate::probe::{Delivery, EngineEvent};
use crate::Recorder;
use orthotrees_vlsi::BitTime;
use std::collections::BTreeMap;

/// Window-count bound: one more window than this triggers a coalescing
/// pass (width doubles, adjacent windows merge pairwise).
pub const MAX_WINDOWS: usize = 128;

/// One fixed-width window of simulated time, `[index·width, (index+1)·width)`.
///
/// All quantities are sums (or min/max) over activity whose time
/// coordinate fell inside the window. `cal_min` is 0 when
/// `cal_samples == 0` (no event fired in this window), mirroring the
/// `Histogram::mean` empty contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Window index; consecutive from 0 with no gaps (PROF-002).
    pub index: u64,
    /// Events the engine delivered in this window.
    pub events: u64,
    /// Smallest calendar depth sampled at a delivery (0 if none).
    pub cal_min: u64,
    /// Largest calendar depth sampled at a delivery.
    pub cal_max: u64,
    /// Sum of sampled calendar depths (for the window mean).
    pub cal_sum: u128,
    /// Number of calendar-depth samples (= events, at engine level).
    pub cal_samples: u64,
    /// Bits that entered a wire in this window.
    pub link_bits: u64,
    /// Queue-wait τ: engine-level entrance waits, or word-level
    /// queue-wait segment time, that elapsed inside the window.
    pub queue_wait: u64,
    /// Wire-delay τ inside the window (word level only; the engine
    /// attributes whole bits to their entrance window instead).
    pub wire: u64,
    /// Compute τ inside the window (emission holds at engine level,
    /// node-compute segments at word level).
    pub compute: u64,
    /// Faults injected in this window (engine level).
    pub faults: u64,
    /// Fault-retry overhead τ inside the window (word level): time under
    /// the `FAULT-OVERHEAD` phase. A sub-attribution of the other
    /// segment buckets, not an addition to them.
    pub fault_overhead: u64,
}

impl Window {
    fn empty(index: u64) -> Window {
        Window { index, ..Window::default() }
    }

    /// Mean sampled calendar depth (0.0 when no samples — same contract
    /// as `Histogram::mean`).
    pub fn cal_mean(&self) -> f64 {
        if self.cal_samples == 0 {
            0.0
        } else {
            self.cal_sum as f64 / self.cal_samples as f64
        }
    }

    /// Folds `other` into `self` (coalescing merge; keeps `self.index`).
    fn absorb(&mut self, other: &Window) {
        self.events += other.events;
        if other.cal_samples > 0 {
            self.cal_min =
                if self.cal_samples == 0 { other.cal_min } else { self.cal_min.min(other.cal_min) };
            self.cal_max = self.cal_max.max(other.cal_max);
            self.cal_sum += other.cal_sum;
            self.cal_samples += other.cal_samples;
        }
        self.link_bits += other.link_bits;
        self.queue_wait += other.queue_wait;
        self.wire += other.wire;
        self.compute += other.compute;
        self.faults += other.faults;
        self.fault_overhead += other.fault_overhead;
    }
}

/// Engine-structure sizes captured at the calendar-depth peak: how big
/// the event core's data structures get at the worst moment — the
/// numbers an arena/ladder-queue replacement must be sized for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Simulated time of the peak-depth delivery.
    pub at: BitTime,
    /// Calendar entries at the peak (the popped event included).
    pub calendar_entries: u64,
    /// Links whose entrance slot was still occupied past the peak time.
    pub busy_links: u64,
    /// Events delivered up to and including the peak — the event log's
    /// length at that moment when the log is kept.
    pub delivered_events: u64,
}

/// Aggregate totals over all windows (what PROF-001 compares against the
/// `Recorder`'s independent bookkeeping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileTotals {
    /// Σ window events.
    pub events: u64,
    /// Σ window link bits.
    pub link_bits: u64,
    /// Σ window queue-wait τ.
    pub queue_wait: u64,
    /// Σ window wire-delay τ.
    pub wire: u64,
    /// Σ window compute τ.
    pub compute: u64,
    /// Σ window injected faults.
    pub faults: u64,
    /// Σ window fault-retry overhead τ.
    pub fault_overhead: u64,
}

/// One hot-spot attribution row: a subject (`node 5`, `link 12`, or a
/// phase name at word level) and its load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSpot {
    /// What is hot.
    pub name: String,
    /// How hot: delivered events for nodes, bits carried for links,
    /// total segment τ for phases.
    pub value: u64,
}

/// The windowed profiler. See the [module docs](self) for the two fill
/// paths and the PROF-001/002 invariants.
#[derive(Clone, Debug)]
pub struct Profiler {
    width: u64,
    windows: Vec<Window>,
    node_events: Vec<u64>,
    link_bits: Vec<u64>,
    phase_time: BTreeMap<String, u64>,
    peak_depth: u64,
    footprint: Option<Footprint>,
}

impl Profiler {
    /// An empty profiler with the given initial window width in τ
    /// (clamped to ≥ 1). The width doubles whenever a run outgrows
    /// [`MAX_WINDOWS`]; read the effective value back with
    /// [`width`](Profiler::width).
    pub fn new(width: u64) -> Profiler {
        Profiler {
            width: width.max(1),
            windows: Vec::new(),
            node_events: Vec::new(),
            link_bits: Vec::new(),
            phase_time: BTreeMap::new(),
            peak_depth: 0,
            footprint: None,
        }
    }

    /// Rebuilds a profiler from an already-windowed sequence (a parsed
    /// `orthotrees-profile/v1` row, or a hand-built fixture). The windows
    /// are taken verbatim — *no* gap filling or re-indexing — so tooling
    /// can round-trip documents and the verify rules can be demonstrated
    /// against deliberately malformed sequences. Hot-spot tables and the
    /// footprint are empty.
    pub fn from_windows(width: u64, windows: Vec<Window>) -> Profiler {
        let peak_depth = windows.iter().map(|w| w.cal_max).max().unwrap_or(0);
        Profiler { windows, peak_depth, ..Profiler::new(width) }
    }

    /// Re-buckets a recorded run's causal segments into windows: the
    /// word-level fill path. Wire-delay / queue-wait / node-compute
    /// segment time is split exactly across window boundaries, so
    /// Σ(wire + queue_wait + compute) over windows equals
    /// [`Recorder::segments_total`] (PROF-001 at word level). Segment
    /// time recorded under the `FAULT-OVERHEAD` phase additionally lands
    /// in [`Window::fault_overhead`], and per-phase totals feed
    /// [`hot_phases`](Profiler::hot_phases).
    pub fn from_recorder(rec: &Recorder, width: u64) -> Profiler {
        let mut p = Profiler::new(width);
        for seg in rec.segments() {
            let phase = rec.segment_phase(seg).to_string();
            p.add_segment(&phase, seg.kind, seg.start, seg.end);
        }
        p
    }

    /// A window width that buckets a run of `total_tau` τ into at most
    /// ~[`MAX_WINDOWS`]/2 windows (minimum 1τ) — the default for
    /// [`from_recorder`](Profiler::from_recorder) callers that know the
    /// completion time up front.
    pub fn auto_width(total_tau: u64) -> u64 {
        (total_tau / (MAX_WINDOWS as u64 / 2)).max(1)
    }

    /// Effective window width in τ (≥ the constructor argument; doubles
    /// under coalescing).
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The windows, indexed consecutively from 0 (PROF-002 holds by
    /// construction for engine- and recorder-filled profilers).
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Largest calendar depth seen at any delivery.
    pub fn peak_calendar_depth(&self) -> u64 {
        self.peak_depth
    }

    /// Engine-structure sizes at the calendar-depth peak (engine-filled
    /// profilers only).
    pub fn footprint(&self) -> Option<&Footprint> {
        self.footprint.as_ref()
    }

    /// Per-node delivered-event counts, indexed by node id.
    pub fn node_events(&self) -> &[u64] {
        &self.node_events
    }

    /// Per-link bits-entered counts, indexed by link id.
    pub fn link_traffic(&self) -> &[u64] {
        &self.link_bits
    }

    /// Sums every window into one [`ProfileTotals`] — the left-hand side
    /// of the PROF-001 tiling check.
    pub fn totals(&self) -> ProfileTotals {
        let mut t = ProfileTotals::default();
        for w in &self.windows {
            t.events += w.events;
            t.link_bits += w.link_bits;
            t.queue_wait += w.queue_wait;
            t.wire += w.wire;
            t.compute += w.compute;
            t.faults += w.faults;
            t.fault_overhead += w.fault_overhead;
        }
        t
    }

    // --------------------------------------------------------------
    // Engine level.
    // --------------------------------------------------------------

    /// Folds one engine event into its window. A delivery that sets a new
    /// calendar-depth peak also captures the [`Footprint`], with the
    /// busy-link count the engine keeps current.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        match *ev {
            EngineEvent::Deliver {
                delivery: Delivery { seq, at, node, depth, .. },
                busy_links,
            } => {
                if self.node_events.len() <= node {
                    self.node_events.resize(node + 1, 0);
                }
                self.node_events[node] += 1;
                let w = self.slot(at);
                w.events += 1;
                w.cal_min = if w.cal_samples == 0 { depth } else { w.cal_min.min(depth) };
                w.cal_max = w.cal_max.max(depth);
                w.cal_sum += u128::from(depth);
                w.cal_samples += 1;
                if depth > self.peak_depth {
                    self.peak_depth = depth;
                    self.footprint = Some(Footprint {
                        at,
                        calendar_entries: depth,
                        busy_links,
                        delivered_events: seq,
                    });
                }
            }
            EngineEvent::Admit { link, enter, waited, .. } => {
                if self.link_bits.len() <= link {
                    self.link_bits.resize(link + 1, 0);
                }
                self.link_bits[link] += 1;
                let w = self.slot(enter);
                w.link_bits += 1;
                w.queue_wait += waited;
            }
            EngineEvent::Compute { at, hold } => self.slot(at).compute += hold,
            EngineEvent::Fault { arrive, .. } => self.slot(arrive).faults += 1,
            EngineEvent::Suppress { .. } => {}
        }
    }

    // --------------------------------------------------------------
    // Hot-spot attribution.
    // --------------------------------------------------------------

    /// The `k` nodes that received the most events, as
    /// `node <id>` rows, descending (id as tie-break).
    pub fn hot_nodes(&self, k: usize) -> Vec<HotSpot> {
        top_k(self.node_events.iter().enumerate().map(|(i, &v)| (format!("node {i}"), v)), k)
    }

    /// The `k` phases with the most causal-segment time (word-level
    /// profiles built with [`from_recorder`](Profiler::from_recorder)),
    /// descending (name as tie-break).
    pub fn hot_phases(&self, k: usize) -> Vec<HotSpot> {
        top_k(self.phase_time.iter().map(|(n, &v)| (n.clone(), v)), k)
    }

    /// The `k` hottest subjects across all attribution tables — nodes
    /// and links for engine-filled profilers, phases for word-level
    /// ones — descending by load (name as tie-break).
    pub fn hot_spots(&self, k: usize) -> Vec<HotSpot> {
        top_k(
            self.node_events
                .iter()
                .enumerate()
                .map(|(i, &v)| (format!("node {i}"), v))
                .chain(self.link_bits.iter().enumerate().map(|(i, &v)| (format!("link {i}"), v)))
                .chain(self.phase_time.iter().map(|(n, &v)| (n.clone(), v))),
            k,
        )
    }

    // --------------------------------------------------------------
    // Internals.
    // --------------------------------------------------------------

    /// The window containing `at`, coalescing first if `at` would land
    /// past [`MAX_WINDOWS`] and filling any gap with empty windows —
    /// which is how PROF-002 (gapless, monotone) holds by construction.
    fn slot(&mut self, at: BitTime) -> &mut Window {
        while at.get() / self.width >= MAX_WINDOWS as u64 {
            self.coalesce();
        }
        let idx = (at.get() / self.width) as usize;
        while self.windows.len() <= idx {
            let next = self.windows.len() as u64;
            self.windows.push(Window::empty(next));
        }
        &mut self.windows[idx]
    }

    /// Doubles the window width and merges adjacent window pairs.
    fn coalesce(&mut self) {
        self.width *= 2;
        let old = std::mem::take(&mut self.windows);
        for w in &old {
            let idx = (w.index / 2) as usize;
            while self.windows.len() <= idx {
                let next = self.windows.len() as u64;
                self.windows.push(Window::empty(next));
            }
            self.windows[idx].absorb(w);
        }
    }

    /// Splits one causal segment's `[start, end)` τ across the windows
    /// it overlaps.
    fn add_segment(&mut self, phase: &str, kind: SegmentKind, start: BitTime, end: BitTime) {
        let end = end.get();
        let mut t = start.get();
        if end > t {
            *self.phase_time.entry(phase.to_string()).or_insert(0) += end - t;
        }
        while t < end {
            // `slot` may coalesce and change `self.width`, so the window
            // boundary is recomputed each iteration.
            let _ = self.slot(BitTime::new(t));
            let boundary = (t / self.width + 1) * self.width;
            let take = boundary.min(end) - t;
            let w = &mut self.windows[(t / self.width) as usize];
            match kind {
                SegmentKind::WireDelay => w.wire += take,
                SegmentKind::QueueWait => w.queue_wait += take,
                SegmentKind::NodeCompute => w.compute += take,
            }
            if phase == "FAULT-OVERHEAD" {
                w.fault_overhead += take;
            }
            t += take;
        }
    }
}

/// Top-`k` rows by descending value, name as tie-break; zero-valued rows
/// are dropped.
fn top_k(rows: impl Iterator<Item = (String, u64)>, k: usize) -> Vec<HotSpot> {
    let mut all: Vec<HotSpot> =
        rows.filter(|&(_, v)| v > 0).map(|(name, value)| HotSpot { name, value }).collect();
    all.sort_by(|a, b| b.value.cmp(&a.value).then_with(|| a.name.cmp(&b.name)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{MsgId, SegmentKind};
    use crate::probe::tests::{admit, deliver};

    #[test]
    fn windows_are_gapless_even_with_sparse_activity() {
        let mut p = Profiler::new(10);
        p.on_engine(&deliver(BitTime::new(5), 0, 3));
        p.on_engine(&deliver(BitTime::new(95), 1, 2));
        assert_eq!(p.footprint().map(|f| f.at), Some(BitTime::new(5)), "only the first peaks");
        let w = p.windows();
        assert_eq!(w.len(), 10);
        for (i, win) in w.iter().enumerate() {
            assert_eq!(win.index, i as u64, "consecutive indices");
        }
        assert_eq!(w[0].events, 1);
        assert_eq!(w[9].events, 1);
        assert!(w[1..9].iter().all(|w| w.events == 0));
    }

    #[test]
    fn calendar_stats_track_min_max_mean_per_window() {
        let mut p = Profiler::new(100);
        p.on_engine(&deliver(BitTime::new(1), 0, 4));
        p.on_engine(&deliver(BitTime::new(2), 0, 8));
        p.on_engine(&deliver(BitTime::new(3), 0, 6));
        let w = p.windows()[0];
        assert_eq!((w.cal_min, w.cal_max, w.cal_samples), (4, 8, 3));
        assert!((w.cal_mean() - 6.0).abs() < 1e-9);
        assert_eq!(p.peak_calendar_depth(), 8);
    }

    #[test]
    fn empty_window_reports_zero_min_and_mean() {
        let w = Window::empty(3);
        assert_eq!(w.cal_min, 0);
        assert_eq!(w.cal_mean(), 0.0);
    }

    #[test]
    fn peak_detection_fires_once_per_new_peak() {
        let mut p = Profiler::new(10);
        let mut fire = |seq: u64, depth: u64| {
            let at = BitTime::new(seq);
            let delivery = Delivery { seq, at, node: 0, port: 0, value: false, index: 0, depth };
            p.on_engine(&EngineEvent::Deliver { delivery, busy_links: 10 + seq });
            p.footprint().map(|f| f.delivered_events)
        };
        assert_eq!(fire(1, 5), Some(1), "first event is a peak");
        assert_eq!(fire(2, 5), Some(1), "ties are not peaks");
        assert_eq!(fire(3, 3), Some(1));
        assert_eq!(fire(4, 9), Some(4));
        let f = p.footprint().unwrap();
        assert_eq!((f.calendar_entries, f.busy_links, f.delivered_events), (9, 14, 4));
    }

    #[test]
    fn coalescing_doubles_width_and_preserves_sums() {
        let mut p = Profiler::new(1);
        for t in 0..1000u64 {
            p.on_engine(&deliver(BitTime::new(t), (t % 7) as usize, 1 + t % 5));
            p.on_engine(&admit((t % 3) as usize, BitTime::new(t), t % 2));
        }
        assert!(p.windows().len() <= MAX_WINDOWS);
        assert!(p.width() >= 1000 / MAX_WINDOWS as u64, "width grew: {}", p.width());
        let t = p.totals();
        assert_eq!(t.events, 1000);
        assert_eq!(t.link_bits, 1000);
        assert_eq!(t.queue_wait, 500);
        let cal: u64 = p.windows().iter().map(|w| w.cal_samples).sum();
        assert_eq!(cal, 1000, "calendar samples survive merging");
        for (i, w) in p.windows().iter().enumerate() {
            assert_eq!(w.index, i as u64, "re-indexed consecutively");
        }
    }

    #[test]
    fn segments_split_exactly_across_window_boundaries() {
        let mut rec = Recorder::new();
        rec.open("ROOTTOLEAF", BitTime::ZERO);
        rec.segment(SegmentKind::WireDelay, None, BitTime::ZERO, BitTime::new(15));
        rec.segment(SegmentKind::QueueWait, None, BitTime::new(15), BitTime::new(21));
        rec.close(BitTime::new(21));
        rec.open("FAULT-OVERHEAD", BitTime::new(21));
        rec.segment(SegmentKind::QueueWait, None, BitTime::new(21), BitTime::new(25));
        rec.close(BitTime::new(25));
        let p = Profiler::from_recorder(&rec, 10);
        let t = p.totals();
        assert_eq!(t.wire + t.queue_wait + t.compute, rec.segments_total().get(), "tiling");
        assert_eq!(t.fault_overhead, 4, "FAULT-OVERHEAD sub-attribution");
        // The 15τ wire segment splits 10 + 5 across windows 0 and 1.
        assert_eq!(p.windows()[0].wire, 10);
        assert_eq!(p.windows()[1].wire, 5);
        // Window 2 gets the [20,21) tail of the first queue segment plus
        // the whole 4τ fault-overhead one.
        assert_eq!(p.windows()[2].queue_wait, 5);
        let phases = p.hot_phases(2);
        assert_eq!(phases[0].name, "ROOTTOLEAF");
        assert_eq!(phases[0].value, 21);
    }

    #[test]
    fn hot_spots_rank_nodes_links_and_phases() {
        let mut p = Profiler::new(10);
        for _ in 0..5 {
            p.on_engine(&deliver(BitTime::ZERO, 2, 1));
        }
        p.on_engine(&deliver(BitTime::ZERO, 0, 1));
        p.on_engine(&admit(1, BitTime::ZERO, 0));
        p.on_engine(&admit(1, BitTime::ZERO, 0));
        let hot = p.hot_spots(2);
        assert_eq!(hot[0].name, "node 2");
        assert_eq!(hot[0].value, 5);
        assert_eq!(hot[1].name, "link 1");
        assert_eq!(p.hot_nodes(10).len(), 2, "zero-valued rows dropped");
    }

    #[test]
    fn from_windows_is_verbatim() {
        let w = vec![Window::empty(0), Window::empty(3)]; // deliberate gap
        let p = Profiler::from_windows(5, w);
        assert_eq!(p.windows().len(), 2);
        assert_eq!(p.windows()[1].index, 3, "no re-indexing: violations stay visible");
    }

    #[test]
    fn compute_and_fault_charges_land_in_their_windows() {
        let mut p = Profiler::new(10);
        p.on_engine(&EngineEvent::Compute { at: BitTime::new(12), hold: 3 });
        p.on_engine(&EngineEvent::Fault {
            msg: MsgId(0),
            arrive: BitTime::new(25),
            dropped: false,
        });
        assert_eq!(p.windows()[1].compute, 3);
        assert_eq!(p.windows()[2].faults, 1);
        let t = p.totals();
        assert_eq!((t.compute, t.faults), (3, 1));
    }
}
