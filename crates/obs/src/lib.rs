//! Observability for the orthotrees simulators: structured spans, counters,
//! histograms and exporters.
//!
//! The paper's claims are all quantitative — `Θ(log² N)` primitives,
//! `Θ(N² log² N)` vs `Θ(N²)` area, AT² optimality — so seeing *where*
//! simulated bit-times go matters as much as the end-to-end number. This
//! crate provides the [`Recorder`], a passive instrument the simulation
//! structures accept as an optional hook:
//!
//! * **Spans** — nested, named phases on the simulated clock (the phase
//!   names match the paper's primitive names: `ROOTTOLEAF`, `LEAFTOROOT`,
//!   `VECTORCIRCULATE`, …). [`Recorder::phase_totals`] aggregates them into
//!   a time-attribution table whose *self times* sum exactly to the
//!   recorded completion time.
//! * **Counters** — monotone named `u64`s (fault retries, delivered bits).
//! * **Histograms** — power-of-two-bucketed distributions (event-calendar
//!   depth, per-link queueing delay).
//! * **Engine tables** — per-node activation counts and per-link
//!   bits-carried / queueing / utilization, folded from the discrete-event
//!   engine's [`probe::EngineEvent`] stream.
//!
//! The zero-overhead contract: holders store their instruments in an
//! `Option` and the hot path touches no observability code when it is
//! `None`; with instruments installed, recording never changes a simulated
//! bit, time, or output (bit-identity — enforced by tests in the consuming
//! crates).
//!
//! Exporters: [`chrome::chrome_trace`] renders a `trace_event` JSON file
//! viewable in Perfetto (<https://ui.perfetto.dev>); [`json`] is the
//! dependency-free JSON value used by every machine-readable dump
//! (`BENCH_*.json`).
//!
//! Streaming instruments: [`telemetry`] is the live metrics bus —
//! counters, gauges and ε-bounded quantile sketches with an OpenMetrics
//! exporter — and [`flight`] is the bounded crash flight recorder that
//! dumps a post-mortem document on failure. Both attach to the engine
//! through the same [`probe::Probes`] slot as the `Recorder`.
//!
//! [`schema`] holds one table per `/v1` document (field paths, kinds,
//! bounds) and the one checker that reads any of them.
//!
//! # Example
//!
//! ```
//! use orthotrees_obs::Recorder;
//! use orthotrees_vlsi::BitTime;
//!
//! let mut rec = Recorder::new();
//! rec.open("SORT", BitTime::ZERO);
//! rec.open("ROOTTOLEAF", BitTime::ZERO);
//! rec.close(BitTime::new(40));
//! rec.open("LEAFTOROOT", BitTime::new(40));
//! rec.close(BitTime::new(90));
//! rec.close(BitTime::new(90));
//! assert_eq!(rec.total_recorded(), BitTime::new(90));
//! let totals = rec.phase_totals();
//! assert_eq!(totals.iter().map(|p| p.self_time.get()).sum::<u64>(), 90);
//! ```

pub mod causal;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod probe;
pub mod profile;
pub mod schema;
pub mod telemetry;

use orthotrees_vlsi::BitTime;
use probe::{Delivery, EngineEvent};
use std::collections::BTreeMap;

/// Applies `f` to the entry `name` of `map`, creating it with `new` first:
/// the key is allocated on that first insert only, never on a hit.
pub(crate) fn update<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_insert_with(new)),
    }
}

/// One named, closed phase on the simulated clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name (the paper's primitive names where applicable).
    pub name: String,
    /// Simulated time the phase opened.
    pub start: BitTime,
    /// Simulated time the phase closed (`>= start`).
    pub end: BitTime,
    /// Index of the enclosing span in [`Recorder::spans`], if nested.
    pub parent: Option<usize>,
    /// Nesting depth (root spans are depth 0).
    pub depth: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> BitTime {
        self.end - self.start
    }
}

/// Aggregated time attribution for one phase name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Phase name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total duration (children included).
    pub total: BitTime,
    /// Exclusive duration (children subtracted). Self times over all
    /// phases sum to [`Recorder::total_recorded`].
    pub self_time: BitTime,
}

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `b` holds samples in `[2^(b−1), 2^b)` (bucket 0 holds exactly 0),
/// which resolves the orders of magnitude the simulator cares about without
/// per-histogram configuration. Exact powers of two open their own bucket:
/// sample `2^k` lands in bucket `k+1` (the half-open lower boundary of
/// `[2^k, 2^(k+1))`), so bucket 65 is never needed — `u64::MAX < 2^64`
/// lands in bucket 64.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let b = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample. **Contract:** an empty histogram reports mean `0.0`,
    /// not `NaN` — report tables and JSON exports render means directly,
    /// and a `NaN` would poison text diffs and violate the JSON grammar,
    /// while 0.0 is unambiguous alongside `count() == 0`.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`, clamped) as an
    /// *upper-bound estimate*: the largest value the rank-`⌈p·count/100⌉`
    /// sample could have had given its power-of-two bucket, capped at
    /// [`max`](Histogram::max) — so `percentile(100.0) == max()` exactly,
    /// and a bucket-0 hit reports 0. **Contract:** an empty histogram
    /// reports 0, mirroring the [`mean`](Histogram::mean) contract (report
    /// tables render percentiles directly; 0 is unambiguous alongside
    /// `count() == 0`).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket b spans [2^(b−1), 2^b): its largest value is
                // 2^b − 1 (0 for bucket 0; u64::MAX for bucket 64).
                let upper = if b == 0 { 0 } else { (((1u128) << b) - 1).min(u128::from(u64::MAX)) };
                return (upper as u64).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs, in
    /// ascending order. Bucket 0 reports upper bound 1 (samples equal 0).
    pub fn nonzero_buckets(&self) -> Vec<(u128, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (1u128 << b, c))
            .collect()
    }
}

/// Per-link traffic metrics, filled by the discrete-event engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Bits admitted onto the wire.
    pub bits: u64,
    /// Bits that found the wire entrance still occupied and had to wait.
    pub queued_bits: u64,
    /// Total waiting time across all queued bits, in bit-times.
    pub wait_total: u64,
    /// Entrance time of the first bit (meaningful when `bits > 0`).
    pub first_enter: BitTime,
    /// Entrance time of the last bit.
    pub last_enter: BitTime,
}

impl LinkStats {
    /// Fraction of the link's active window `[first_enter, last_enter]`
    /// in which a bit entered the wire (1.0 = fully pipelined, the
    /// Thompson bound of one bit per τ). 0.0 for an unused link.
    pub fn utilization(&self) -> f64 {
        if self.bits == 0 {
            return 0.0;
        }
        let window = self.last_enter.get() - self.first_enter.get() + 1;
        self.bits as f64 / window as f64
    }
}

/// The observability hook: collects spans, counters, histograms and the
/// engine's per-node / per-link tables. See the [crate docs](self).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    node_activations: Vec<u64>,
    links: Vec<LinkStats>,
    calendar_depth: Histogram,
    segments: Vec<causal::CausalSegment>,
    diagnostics: Vec<String>,
    reach_enabled: bool,
    reach_round: u64,
    reach: Vec<causal::ReachEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    // --------------------------------------------------------------
    // Spans.
    // --------------------------------------------------------------

    /// Opens a phase span at simulated time `at`. Spans nest: a span
    /// opened while another is open becomes its child.
    pub fn open(&mut self, name: impl Into<String>, at: BitTime) {
        let parent = self.open.last().copied();
        let depth = parent.map_or(0, |p| self.spans[p].depth + 1);
        self.spans.push(Span { name: name.into(), start: at, end: at, parent, depth });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the most recently opened span at simulated time `at`.
    ///
    /// Closing with no span open is an instrumentation bug (an unbalanced
    /// `open`/`close` pair silently truncates self-time attribution): it
    /// records a [diagnostic](Recorder::diagnostics) naming the last span
    /// closed, panics under `debug_assertions`, and is otherwise a no-op
    /// so a release-mode run cannot be poisoned.
    pub fn close(&mut self, at: BitTime) {
        match self.open.pop() {
            Some(i) => self.spans[i].end = at,
            None => {
                let last = self
                    .spans
                    .last()
                    .map_or_else(|| "(no spans recorded)".to_string(), |s| s.name.clone());
                self.diagnostics.push(format!(
                    "unbalanced close at t={} with no span open (last closed: {last})",
                    at.get()
                ));
                debug_assert!(
                    false,
                    "Recorder::close at t={} with no span open (last closed: {last})",
                    at.get()
                );
            }
        }
    }

    /// Closes every span still open (end-of-run cleanup).
    ///
    /// A span still open here means some caller forgot its matching
    /// `close` — the span's self-time silently absorbs everything up to
    /// `at`. Each such span is force-closed, but also recorded as a
    /// [diagnostic](Recorder::diagnostics) by name, and the call panics
    /// under `debug_assertions`.
    pub fn close_all(&mut self, at: BitTime) {
        if !self.open.is_empty() {
            let names: Vec<String> =
                self.open.iter().map(|&i| self.spans[i].name.clone()).collect();
            self.diagnostics.push(format!(
                "{} span(s) still open at close_all(t={}): {}",
                names.len(),
                at.get(),
                names.join(", ")
            ));
            while let Some(i) = self.open.pop() {
                self.spans[i].end = at;
            }
            debug_assert!(
                false,
                "Recorder::close_all(t={}) found unclosed span(s): {}",
                at.get(),
                names.join(", ")
            );
        }
    }

    /// Span-balance diagnostics collected by [`close`](Recorder::close) /
    /// [`close_all`](Recorder::close_all). Empty on a well-instrumented
    /// run.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// All closed and still-open spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregated per-phase time attribution. Self times across all
    /// entries sum to [`Recorder::total_recorded`]; entries are sorted by
    /// descending self time.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration().get();
            }
        }
        let mut by_name: BTreeMap<&str, PhaseTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.duration().get();
            let own = dur.saturating_sub(child_time[i]);
            let e = by_name.entry(&s.name).or_insert_with(|| PhaseTotal {
                name: s.name.clone(),
                count: 0,
                total: BitTime::ZERO,
                self_time: BitTime::ZERO,
            });
            e.count += 1;
            e.total += BitTime::new(dur);
            e.self_time += BitTime::new(own);
        }
        let mut out: Vec<PhaseTotal> = by_name.into_values().collect();
        out.sort_by(|a, b| b.self_time.cmp(&a.self_time).then_with(|| a.name.cmp(&b.name)));
        out
    }

    /// Total simulated time covered by root spans (the recorded portion of
    /// the run). Equals the clock's elapsed time when every clock advance
    /// happens inside a span — the invariant the instrumented networks
    /// maintain and the bit-identity tests check.
    pub fn total_recorded(&self) -> BitTime {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration).sum()
    }

    // --------------------------------------------------------------
    // Counters and histograms.
    // --------------------------------------------------------------

    /// Adds `delta` to the named counter (created at 0 on first use).
    pub fn count(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        update(&mut self.counters, name, || 0, |v| *v += delta);
    }

    /// The named counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// One counter's value (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        update(&mut self.histograms, name, Histogram::new, |h| h.observe(value));
    }

    /// The named histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    // --------------------------------------------------------------
    // Engine tables (folded from the engine's event stream).
    // --------------------------------------------------------------

    /// Folds one engine event: a delivery samples the calendar depth and
    /// the node's activations, an admission its link's traffic.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        match *ev {
            EngineEvent::Deliver { delivery: Delivery { node, depth, .. }, .. } => {
                self.calendar_depth.observe(depth);
                if self.node_activations.len() <= node {
                    self.node_activations.resize(node + 1, 0);
                }
                self.node_activations[node] += 1;
            }
            EngineEvent::Admit { link, enter, waited, .. } => {
                if self.links.len() <= link {
                    self.links.resize(link + 1, LinkStats::default());
                }
                let l = &mut self.links[link];
                if l.bits == 0 {
                    l.first_enter = enter;
                }
                l.bits += 1;
                l.last_enter = enter;
                if waited > 0 {
                    l.queued_bits += 1;
                    l.wait_total += waited;
                }
            }
            _ => {}
        }
    }

    /// Per-node activation counts, indexed by node id.
    pub fn node_activations(&self) -> &[u64] {
        &self.node_activations
    }

    /// Per-link traffic metrics, indexed by link id.
    pub fn links(&self) -> &[LinkStats] {
        &self.links
    }

    /// The event-calendar depth distribution.
    pub fn calendar_depth(&self) -> &Histogram {
        &self.calendar_depth
    }

    // --------------------------------------------------------------
    // Causal segments (word-level critical-path decomposition).
    // --------------------------------------------------------------

    /// Records one causal segment `[start, end)` attributed to `kind` (and
    /// optionally a tree `level`, 1 = leaf level), tagged with the
    /// innermost open span. Zero-length segments are dropped.
    ///
    /// The word-level machines call this for every piece of a clock
    /// charge, so Σ segment durations equals the elapsed clock exactly —
    /// the invariant `analysis::critpath` and the `CRIT-*` verify rules
    /// build on.
    pub fn segment(
        &mut self,
        kind: causal::SegmentKind,
        level: Option<u32>,
        start: BitTime,
        end: BitTime,
    ) {
        if end > start {
            let span = self.open.last().copied();
            self.segments.push(causal::CausalSegment { span, level, kind, start, end });
        }
    }

    /// All recorded causal segments, in recording (time) order.
    pub fn segments(&self) -> &[causal::CausalSegment] {
        &self.segments
    }

    /// Total time covered by causal segments. Equals
    /// [`total_recorded`](Recorder::total_recorded) when every in-span
    /// clock advance was decomposed into segments.
    pub fn segments_total(&self) -> BitTime {
        self.segments.iter().map(causal::CausalSegment::duration).sum()
    }

    /// The phase name a segment was recorded under (`"(unattributed)"`
    /// when no span was open).
    pub fn segment_phase(&self, seg: &causal::CausalSegment) -> &str {
        seg.span.map_or("(unattributed)", |i| self.spans[i].name.as_str())
    }

    /// Aggregates segments into `(phase, kind)` totals, sorted by
    /// descending total time (name/kind as tie-breaks).
    pub fn segment_attribution(&self) -> Vec<causal::SegmentTotal> {
        let mut by_key: BTreeMap<(String, causal::SegmentKind), (u64, BitTime)> = BTreeMap::new();
        for s in &self.segments {
            let e = by_key
                .entry((self.segment_phase(s).to_string(), s.kind))
                .or_insert((0, BitTime::ZERO));
            e.0 += 1;
            e.1 += s.duration();
        }
        let mut out: Vec<causal::SegmentTotal> = by_key
            .into_iter()
            .map(|((phase, kind), (count, total))| causal::SegmentTotal {
                phase,
                kind,
                count,
                total,
            })
            .collect();
        out.sort_by(|a, b| {
            b.total
                .cmp(&a.total)
                .then_with(|| a.phase.cmp(&b.phase))
                .then_with(|| a.kind.cmp(&b.kind))
        });
        out
    }

    // --------------------------------------------------------------
    // Reach tracing.
    // --------------------------------------------------------------

    /// Turns on dynamic reach tracing. Off by default — installing a
    /// recorder alone never makes the executors emit reach events, so
    /// span/counter profiling keeps its exact zero-reach cost; the
    /// dataflow verifier opts in explicitly.
    pub fn enable_reach(&mut self) {
        self.reach_enabled = true;
    }

    /// Whether reach tracing is on. The word-level executors consult this
    /// before doing any reach-related bookkeeping.
    pub fn reach_enabled(&self) -> bool {
        self.reach_enabled
    }

    /// Opens a new reach round. The executors call this once per executed
    /// primitive leg, so events from distinct legs never blur together: a
    /// resolver replays rounds in order, reading sources against the state
    /// at round start.
    pub fn reach_round_begin(&mut self) {
        self.reach_round += 1;
    }

    /// Records one word movement in the current reach round. A no-op
    /// unless [`enable_reach`](Recorder::enable_reach) was called.
    pub fn reach(&mut self, tree: u64, from: causal::ReachCell, to: causal::ReachCell) {
        if self.reach_enabled {
            self.reach.push(causal::ReachEvent { round: self.reach_round, tree, from, to });
        }
    }

    /// All recorded reach events, in emission order (rounds monotone).
    pub fn reach_events(&self) -> &[causal::ReachEvent] {
        &self.reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::tests::{admit, deliver};

    #[test]
    fn nested_spans_attribute_self_time() {
        let mut r = Recorder::new();
        r.open("SORT", BitTime::ZERO);
        r.open("ROOTTOLEAF", BitTime::ZERO);
        r.close(BitTime::new(30));
        r.open("LEAFTOROOT", BitTime::new(30));
        r.close(BitTime::new(70));
        r.close(BitTime::new(100)); // SORT's own tail: 30τ
        let totals = r.phase_totals();
        let get = |n: &str| totals.iter().find(|p| p.name == n).unwrap();
        assert_eq!(get("SORT").total, BitTime::new(100));
        assert_eq!(get("SORT").self_time, BitTime::new(30));
        assert_eq!(get("ROOTTOLEAF").self_time, BitTime::new(30));
        assert_eq!(get("LEAFTOROOT").self_time, BitTime::new(40));
        let sum: u64 = totals.iter().map(|p| p.self_time.get()).sum();
        assert_eq!(sum, r.total_recorded().get());
    }

    #[test]
    fn sibling_roots_sum() {
        let mut r = Recorder::new();
        r.open("A", BitTime::ZERO);
        r.close(BitTime::new(10));
        r.open("B", BitTime::new(10));
        r.close(BitTime::new(25));
        assert_eq!(r.total_recorded(), BitTime::new(25));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].depth, 0);
    }

    #[test]
    fn unbalanced_close_is_diagnosed_and_panics_in_debug() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut r = Recorder::new();
        r.open("SORT", BitTime::ZERO);
        r.close(BitTime::new(5));
        let unwound = catch_unwind(AssertUnwindSafe(|| r.close(BitTime::new(7)))).is_err();
        assert_eq!(unwound, cfg!(debug_assertions));
        assert_eq!(r.diagnostics().len(), 1);
        assert!(r.diagnostics()[0].contains("no span open"), "{:?}", r.diagnostics());
        assert!(r.diagnostics()[0].contains("SORT"), "names the last closed span");
        // The recorder itself stays usable (release-mode no-op contract).
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.total_recorded(), BitTime::new(5));
    }

    #[test]
    fn spans_left_open_at_close_all_are_named() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut r = Recorder::new();
        r.open("SORT", BitTime::ZERO);
        r.open("ROOTTOLEAF", BitTime::ZERO);
        let unwound = catch_unwind(AssertUnwindSafe(|| r.close_all(BitTime::new(3)))).is_err();
        assert_eq!(unwound, cfg!(debug_assertions));
        // Both spans were still force-closed at t=3 before the assert.
        assert_eq!(r.spans()[0].end, BitTime::new(3));
        assert_eq!(r.spans()[1].end, BitTime::new(3));
        assert_eq!(r.diagnostics().len(), 1);
        assert!(r.diagnostics()[0].contains("ROOTTOLEAF"), "{:?}", r.diagnostics());
        assert!(r.diagnostics()[0].contains("SORT"), "{:?}", r.diagnostics());
    }

    #[test]
    fn balanced_runs_have_no_diagnostics() {
        let mut r = Recorder::new();
        r.open("A", BitTime::ZERO);
        r.close(BitTime::new(2));
        r.close_all(BitTime::new(2)); // nothing open: clean no-op
        assert!(r.diagnostics().is_empty());
    }

    #[test]
    fn phase_totals_merge_repeated_names() {
        let mut r = Recorder::new();
        for k in 0..3u64 {
            r.open("ROOTTOLEAF", BitTime::new(10 * k));
            r.close(BitTime::new(10 * k + 7));
        }
        let totals = r.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].count, 3);
        assert_eq!(totals[0].total, BitTime::new(21));
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1010);
        let buckets = h.nonzero_buckets();
        // 0 → bucket 1; 1 → 2; 2,3 → 4; 4 → 8; 1000 → 1024.
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (8, 1), (1024, 1)]);
        assert!((h.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_extreme_value_lands_in_top_bucket() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
        // 64 - leading_zeros(u64::MAX) = 64: the last bucket, upper bound
        // 2^64 (exclusive) — no overflow, no out-of-bounds index.
        assert_eq!(h.nonzero_buckets(), vec![(1u128 << 64, 2)]);
        assert!((h.mean() - u64::MAX as f64).abs() < 1e4, "mean of two MAX samples");
    }

    #[test]
    fn histogram_empty_mean_is_zero_not_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(!h.mean().is_nan(), "documented contract: 0.0, never NaN");
        assert_eq!(h.max(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn percentile_is_an_upper_bound_capped_at_max() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        // Rank ⌈50/100·6⌉ = 3 is the sample 2, bucket [2,4) → upper bound 3.
        assert_eq!(h.percentile(50.0), 3);
        // Rank 6 is 1000, bucket [512,1024) → bucket bound 1023, tightened
        // by the max cap to 1000.
        assert_eq!(h.percentile(99.0), 1000);
        assert_eq!(h.percentile(100.0), 1000, "p100 is exactly max");
        assert_eq!(h.percentile(0.0), 0, "rank clamps to the first sample");
        assert_eq!(h.percentile(-5.0), h.percentile(0.0), "p clamps low");
        assert_eq!(h.percentile(250.0), h.percentile(100.0), "p clamps high");
    }

    #[test]
    fn percentile_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0, "documented contract: 0, like mean()");
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn percentile_extreme_bucket_does_not_overflow() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.percentile(50.0), u64::MAX);
    }

    #[test]
    fn percentile_single_saturated_bucket_is_flat() {
        // Every sample in one bucket: all percentiles (0, 50, 100) must
        // agree, whether that bucket is the zero bucket, an interior one,
        // or the extreme top bucket.
        for v in [0u64, 700, u64::MAX] {
            let mut h = Histogram::new();
            for _ in 0..1000 {
                h.observe(v);
            }
            assert_eq!(h.count(), 1000);
            assert_eq!(h.percentile(0.0), h.percentile(100.0), "flat distribution, v={v}");
            assert_eq!(h.percentile(100.0), v, "p100 is exactly max, v={v}");
            assert!(h.percentile(50.0) <= v, "upper-bound estimate capped at max, v={v}");
            assert_eq!(h.nonzero_buckets().len(), 1, "single saturated bucket, v={v}");
        }
    }

    #[test]
    fn percentile_p0_and_p100_bracket_every_estimate() {
        // p0 ≤ p ≤ p100 for any p: the estimate is monotone in p even
        // across bucket boundaries and NaN-free at the clamp edges.
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 31, 32, 900, 4096] {
            h.observe(v);
        }
        let p0 = h.percentile(0.0);
        let p100 = h.percentile(100.0);
        assert_eq!(p100, h.max());
        let mut prev = p0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let cur = h.percentile(p);
            assert!(cur >= prev, "percentile must be monotone: p{p} = {cur} < {prev}");
            prev = cur;
        }
        assert!(p0 <= p100);
    }

    #[test]
    fn histogram_power_of_two_boundaries_are_half_open() {
        let mut h = Histogram::new();
        // Each exact power of two 2^k opens bucket k+1: [2^k, 2^(k+1)).
        for k in [0u32, 1, 5, 63] {
            h.observe(1u64 << k);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(
            buckets,
            vec![(2, 1), (4, 1), (64, 1), (1u128 << 64, 1)],
            "2^k sits at the lower boundary of its bucket, never the upper"
        );
        // And the value just below a boundary stays in the lower bucket.
        let mut h2 = Histogram::new();
        h2.observe(63);
        h2.observe(64);
        assert_eq!(h2.nonzero_buckets(), vec![(64, 1), (128, 1)]);
    }

    #[test]
    fn segments_attribute_to_open_phase() {
        use causal::SegmentKind;
        let mut r = Recorder::new();
        r.open("ROOTTOLEAF", BitTime::ZERO);
        r.segment(SegmentKind::WireDelay, Some(1), BitTime::ZERO, BitTime::new(4));
        r.segment(SegmentKind::QueueWait, None, BitTime::new(4), BitTime::new(9));
        r.segment(SegmentKind::NodeCompute, None, BitTime::new(9), BitTime::new(9)); // dropped
        r.close(BitTime::new(9));
        r.segment(SegmentKind::NodeCompute, None, BitTime::new(9), BitTime::new(10));
        assert_eq!(r.segments().len(), 3, "zero-length segment elided");
        assert_eq!(r.segments_total(), BitTime::new(10));
        assert_eq!(r.segment_phase(&r.segments()[0]), "ROOTTOLEAF");
        assert_eq!(r.segment_phase(&r.segments()[2]), "(unattributed)");
        let attr = r.segment_attribution();
        assert_eq!(attr[0].phase, "ROOTTOLEAF");
        assert_eq!(attr[0].kind, SegmentKind::QueueWait);
        assert_eq!(attr[0].total, BitTime::new(5));
        let total: u64 = attr.iter().map(|t| t.total.get()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Recorder::new();
        assert_eq!(r.counter("fault.retries"), 0);
        r.count("fault.retries", 2);
        r.count("fault.retries", 3);
        r.count("noop", 0); // not created
        assert_eq!(r.counter("fault.retries"), 5);
        assert_eq!(r.counters().count(), 1);
    }

    #[test]
    fn link_stats_track_pipelining() {
        let mut r = Recorder::new();
        // Three bits back to back (full pipeline), one that waited 2τ.
        r.on_engine(&admit(1, BitTime::new(5), 0));
        r.on_engine(&admit(1, BitTime::new(6), 0));
        r.on_engine(&admit(1, BitTime::new(7), 2));
        let l = r.links()[1];
        assert_eq!(l.bits, 3);
        assert_eq!(l.queued_bits, 1);
        assert_eq!(l.wait_total, 2);
        assert!((l.utilization() - 1.0).abs() < 1e-9, "3 bits over [5,7]");
        assert_eq!(r.links()[0], LinkStats::default(), "untouched link zeroed");
    }

    #[test]
    fn node_activations_grow_on_demand() {
        let mut r = Recorder::new();
        r.on_engine(&deliver(BitTime::ZERO, 4, 1));
        r.on_engine(&deliver(BitTime::ZERO, 4, 1));
        r.on_engine(&deliver(BitTime::ZERO, 0, 1));
        assert_eq!(r.node_activations(), &[1, 0, 0, 0, 2]);
    }

    #[test]
    fn unused_link_has_zero_utilization() {
        let l = LinkStats::default();
        assert_eq!(l.utilization(), 0.0);
    }

    #[test]
    fn calendar_histogram_counts_samples() {
        let mut r = Recorder::new();
        for d in [1u64, 2, 2, 8] {
            r.on_engine(&deliver(BitTime::ZERO, 0, d));
        }
        assert_eq!(r.calendar_depth().count(), 4);
        assert_eq!(r.calendar_depth().max(), 8);
    }
}
