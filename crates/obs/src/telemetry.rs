//! Streaming telemetry bus: typed metrics with ε-bounded quantile
//! sketches, periodic time-series snapshots, and exporters.
//!
//! The [`Recorder`](crate::Recorder) and [`Profiler`](crate::profile::Profiler)
//! answer "how much" and "when" for a *finished* run; neither can report
//! live service-level quantities — sustained problems/sec, p50/p99
//! completion latency — over a stream of pipelined problems. The
//! [`Telemetry`] registry closes that gap with three metric types:
//!
//! * **Counters** — monotone named `u64`s (`engine.delivered`,
//!   `pipeline.problems`);
//! * **Gauges** — last-written named `u64`s (`pipeline.issue_interval_tau`);
//! * **Quantile sketches** — [`QuantileSketch`], a deterministic
//!   Greenwald–Khanna-style streaming summary with a provable rank-error
//!   bound: `quantile(q)` returns a recorded value whose rank is within
//!   `ε·n` of `⌈q·n⌉`. In-house because all dependencies are vendored.
//!
//! Metrics are kept by id behind one name table: a named call finds or
//! registers the id, and a hot caller fixes its ids once
//! ([`Telemetry::counter_id`] and friends) and updates by id with no
//! lookup.
//!
//! The registry also emits **periodic snapshots** of all counters on the
//! *simulated* clock (cadence [`Telemetry::interval`]; the row count is
//! bounded — past [`MAX_SNAPSHOTS`] the cadence doubles and the series
//! thins deterministically), so a long pipelined run leaves a time series,
//! not just totals.
//!
//! Two export formats: [`Telemetry::open_metrics`] renders the OpenMetrics
//! text exposition (counters as `_total`, sketches as `summary` families),
//! and [`Telemetry::to_json`] renders the
//! [`orthotrees-telemetry/v1`](SCHEMA) document that [`validate`] checks
//! against its [`schema::TELEMETRY`] table.
//!
//! Attachment points: `sim::Engine` feeds its event stream through
//! [`Telemetry::on_engine`] under the [`probe`](crate::probe) zero-overhead
//! contract (proptest-pinned like the Recorder), and
//! the word-level `Otn`/`Otc` machines feed one through their central
//! clock-charge path. The `TEL-001` verify rule holds every sketch to its
//! ε bound against exactly recomputed quantiles.

use crate::json::Json;
use crate::probe::{Delivery, EngineEvent};
use crate::schema::{self, SchemaError};
use orthotrees_vlsi::BitTime;
use std::collections::BTreeMap;

/// The JSON schema identifier emitted by [`Telemetry::to_json`].
pub const SCHEMA: &str = "orthotrees-telemetry/v1";

/// Default sketch rank-error bound ε: quantile answers are within 1% of
/// the exact rank.
pub const DEFAULT_EPSILON: f64 = 0.01;

/// Snapshot-row bound: one more row than this doubles the snapshot
/// cadence and thins the series (every other row kept), so memory stays
/// O(1) in run length.
pub const MAX_SNAPSHOTS: usize = 128;

/// The quantiles every exporter and verifier reports, as `(label, q)`.
pub const REPORTED_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

/// One Greenwald–Khanna tuple: a stored value `v` covering `g` ranks,
/// with `delta` slack in where those ranks may sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    v: u64,
    g: u64,
    delta: u64,
}

/// A deterministic streaming quantile sketch with rank error ≤ `ε·n`.
///
/// The simplified Greenwald–Khanna construction: stored tuples maintain
/// `g + Δ ≤ ⌊2εn⌋`, new values insert with `Δ = ⌊2εn⌋ − 1` (0 at the
/// extremes), and a periodic compress pass merges adjacent tuples whose
/// combined span still fits the invariant. [`quantile`](Self::quantile)
/// then answers with a *recorded* value whose rank differs from the
/// requested `⌈q·n⌉` by at most `⌈ε·n⌉` — the bound the `TEL-001` verify
/// rule and the sketch-accuracy proptests hold to account.
///
/// Inserts are batched: a new tuple's `Δ` depends only on whether the
/// value is a new extreme (the first tuple always holds the minimum and
/// the last the maximum, since compress removes neither), so `observe`
/// computes it from the running min and max and appends to a pending
/// batch. Every `1/(2ε)` values — the compress cadence — one
/// right-to-left pass merges the sorted batch in and compresses. Each
/// value thus costs O(1) amortized plus its share of one pass, not a
/// memmove of every stored tuple, and the tuples after every compress
/// equal those of one-at-a-time insertion exactly.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    epsilon: f64,
    /// The compress cadence: values per batch, `⌈1/(2ε)⌉`.
    batch: usize,
    entries: Vec<Entry>,
    /// Tuples observed since the last compress, in arrival order.
    pending: Vec<Entry>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// An empty sketch with rank-error bound `epsilon` (clamped to
    /// `[0.0001, 0.5]`).
    pub fn new(epsilon: f64) -> QuantileSketch {
        let epsilon = epsilon.clamp(0.0001, 0.5);
        QuantileSketch {
            epsilon,
            batch: (1.0 / (2.0 * epsilon)).ceil() as usize,
            entries: Vec::new(),
            pending: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The rank-error bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observed value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Stored tuples, pending ones included — the sketch's memory
    /// footprint, O(1/ε · log(εn)) rather than O(n).
    pub fn entries_len(&self) -> usize {
        self.entries.len() + self.pending.len()
    }

    /// The invariant ceiling `⌊2εn⌋` every stored tuple's `g + Δ` must
    /// respect.
    fn cap(&self) -> u64 {
        // The cast truncates, which is the floor of a non-negative product.
        (2.0 * self.epsilon * self.count as f64) as u64
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let extreme = self.count == 0 || value <= self.min || value > self.max;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let delta = if extreme { 0 } else { self.cap().saturating_sub(1) };
        self.pending.push(Entry { v: value, g: 1, delta });
        if self.pending.len() >= self.batch {
            self.merge_pending(self.cap());
        }
    }

    /// Merges the pending batch into the stored tuples and compresses, in
    /// one right-to-left pass. The pass walks the merged sequence from
    /// the largest value down; each tuple either folds into the surviving
    /// tuple on its right, when their combined rank span `g + g' + Δ'`
    /// fits `cap`, or becomes the new survivor. The first tuple never
    /// folds, so the minimum stays exactly representable; `cap` 0 folds
    /// nothing and only merges.
    ///
    /// Merge order is insertion order: a batch tuple goes in front of
    /// stored equal values, and later arrivals in front of earlier ones,
    /// since each arrival would have been inserted at the first stored
    /// tuple not below it. So the batch is reversed and then sorted
    /// stably by value. (Equal values arrive with non-decreasing `Δ`, an
    /// extreme first, then `⌊2εn⌋ − 1` for a growing `n`, so this is also
    /// "larger `Δ` first".) The stable sort keeps the runs a slowly
    /// moving stream, such as a calendar depth, arrives in.
    fn merge_pending(&mut self, cap: u64) {
        let batch = &mut self.pending;
        batch.reverse();
        batch.sort_by_key(|e| e.v);
        let entries = &mut self.entries;
        let (mut i, mut j) = (entries.len(), batch.len());
        let len = i + j;
        if len == 0 {
            return;
        }
        entries.resize(len, Entry { v: 0, g: 0, delta: 0 });
        // The next merged tuple from the top. Writes never overtake reads:
        // the survivor slot `w` stays at or above the merged position,
        // which is at or above every stored tuple not yet read.
        let mut next = |entries: &[Entry]| {
            if i > 0 && (j == 0 || entries[i - 1].v >= batch[j - 1].v) {
                i -= 1;
                entries[i]
            } else {
                j -= 1;
                batch[j]
            }
        };
        let mut w = len - 1;
        entries[w] = next(entries);
        for _ in 1..len.saturating_sub(1) {
            let left = next(entries);
            let right = &mut entries[w];
            if left.g + right.g + right.delta <= cap {
                right.g += left.g;
            } else {
                w -= 1;
                entries[w] = left;
            }
        }
        if len >= 2 {
            entries[0] = next(entries);
        }
        if w > 1 {
            entries.drain(1..w);
        }
        batch.clear();
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): a recorded value whose
    /// rank is within `⌈ε·n⌉` of `⌈q·n⌉`. `None` when nothing was
    /// observed, mirroring the `Histogram::mean` empty contract (callers
    /// render `None` explicitly rather than a poisoned 0).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.count as f64;
        let rank = (q * n).ceil().max(1.0);
        let margin = self.epsilon * n;
        // The standard GK answer: the first tuple whose rank envelope
        // [rmin, rmax] sits within ±εn of the target. One always exists
        // under the g + Δ ≤ 2εn invariant.
        let merged;
        let entries = if self.pending.is_empty() {
            &self.entries
        } else {
            merged = self.tuples();
            &merged
        };
        let mut rmin = 0u64;
        for e in entries {
            rmin += e.g;
            let rmax = (rmin + e.delta) as f64;
            if rank - rmin as f64 <= margin && rmax - rank <= margin {
                return Some(e.v);
            }
        }
        entries.last().map(|e| e.v)
    }

    /// The stored tuples with the pending batch merged in, as
    /// one-at-a-time insertion would hold them.
    fn tuples(&self) -> Vec<Entry> {
        let mut merged = self.clone();
        merged.merge_pending(0);
        merged.entries
    }

    /// Mean observed value (0.0 when empty — same contract as
    /// `Histogram::mean`).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Whether `value` sits inside the rank-ε band of the exact quantile `q`
/// over `sorted` (ascending) data: some rank in
/// `[⌈q·n⌉ − ⌈εn⌉, ⌈q·n⌉ + ⌈εn⌉]` (clamped to `[1, n]`) holds `value`'s
/// position. This is the acceptance predicate of the `TEL-001` verify
/// rule and the sketch-accuracy proptests. An empty `sorted` accepts
/// nothing.
pub fn within_rank_band(sorted: &[u64], q: f64, epsilon: f64, value: u64) -> bool {
    if sorted.is_empty() {
        return false;
    }
    let n = sorted.len() as f64;
    let rank = (q.clamp(0.0, 1.0) * n).ceil().max(1.0);
    let margin = (epsilon * n).ceil();
    let lo = ((rank - margin).max(1.0) as usize).saturating_sub(1);
    let hi = (((rank + margin).min(n)) as usize).saturating_sub(1);
    sorted[lo] <= value && value <= sorted[hi]
}

/// One periodic snapshot row: every counter's value at a simulated-time
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Simulated time the row was taken.
    pub at: BitTime,
    /// Counter values at `at` (monotone across rows, by construction),
    /// indexed by [`CounterId`]; a counter registered after the row was
    /// taken is past its end. [`Telemetry::row_counters`] names them.
    values: Vec<u64>,
}

impl TelemetrySnapshot {
    /// One counter's value in this row (0 if it was not yet registered or
    /// not yet counted).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.values.get(id.0).copied().unwrap_or(0)
    }
}

/// A counter's handle in one [`Telemetry`] registry, from
/// [`Telemetry::counter_id`]. An id means nothing to another registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// A gauge's handle in one [`Telemetry`] registry, from
/// [`Telemetry::gauge_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A sketch's handle in one [`Telemetry`] registry, from
/// [`Telemetry::sketch_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchId(usize);

/// The three metric types, as indices into a name's id slots.
#[derive(Clone, Copy)]
enum Kind {
    Counter = 0,
    Gauge = 1,
    Sketch = 2,
}

/// The ids of the `engine.*` meters [`Telemetry::on_engine`] folds into.
#[derive(Clone, Copy, Debug)]
struct EngineMeters {
    delivered: CounterId,
    depth: SketchId,
    link_bits: CounterId,
    queue_wait: CounterId,
    faults: CounterId,
}

/// The streaming metrics bus: a typed registry of counters, gauges and
/// quantile sketches with periodic snapshots and two exporters. See the
/// [module docs](self).
///
/// One name table maps each name to its id per metric type, and the
/// values live in one vector per type, indexed by id. The named calls
/// ([`count`](Self::count), [`gauge`](Self::gauge),
/// [`observe`](Self::observe)) find or register the id and update by it;
/// hot callers fix their ids once and update by id
/// ([`add`](Self::add), [`set`](Self::set), [`record`](Self::record)).
/// A metric exists, for every reader and exporter, once it is touched: a
/// counter once it is above 0, a gauge once it is set (0 included), a
/// sketch once it holds a value. A registered but untouched one is
/// invisible.
#[derive(Clone, Debug)]
pub struct Telemetry {
    interval: u64,
    /// The name table: each name's counter, gauge and sketch id.
    names: BTreeMap<String, [Option<usize>; 3]>,
    counters: Vec<u64>,
    gauges: Vec<Option<u64>>,
    sketches: Vec<QuantileSketch>,
    /// Registered on the first engine attachment or event.
    engine: Option<EngineMeters>,
    snapshots: Vec<TelemetrySnapshot>,
    next_at: u64,
}

impl Telemetry {
    /// An empty registry snapshotting every `interval` τ (clamped ≥ 1).
    /// Its sketches use the [default ε](DEFAULT_EPSILON).
    pub fn new(interval: u64) -> Telemetry {
        Telemetry {
            interval: interval.max(1),
            names: BTreeMap::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            sketches: Vec::new(),
            engine: None,
            snapshots: Vec::new(),
            next_at: interval.max(1),
        }
    }

    /// The sketch rank-error bound ε ([`DEFAULT_EPSILON`]).
    pub fn epsilon(&self) -> f64 {
        DEFAULT_EPSILON
    }

    /// The effective snapshot cadence in τ (≥ the constructor argument;
    /// doubles when the series outgrows [`MAX_SNAPSHOTS`]).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    // --------------------------------------------------------------
    // The name table.
    // --------------------------------------------------------------

    /// The `kind` id of `name`, if registered.
    fn find(&self, name: &str, kind: Kind) -> Option<usize> {
        self.names.get(name).and_then(|ids| ids[kind as usize])
    }

    /// The `kind` id of `name`, registered (untouched) on first use.
    fn id(&mut self, name: &str, kind: Kind) -> usize {
        if let Some(id) = self.find(name, kind) {
            return id;
        }
        let id = match kind {
            Kind::Counter => push(&mut self.counters, 0),
            Kind::Gauge => push(&mut self.gauges, None),
            Kind::Sketch => push(&mut self.sketches, QuantileSketch::new(DEFAULT_EPSILON)),
        };
        self.names.entry(name.to_string()).or_default()[kind as usize] = Some(id);
        id
    }

    /// Whether `name` is registered as any metric type, touched or not.
    pub fn is_registered(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// The named counter's id, registering it on first use.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(self.id(name, Kind::Counter))
    }

    /// The named gauge's id, registering it on first use.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId(self.id(name, Kind::Gauge))
    }

    /// The named sketch's id, registering it (with [`DEFAULT_EPSILON`]) on
    /// first use.
    pub fn sketch_id(&mut self, name: &str) -> SketchId {
        SketchId(self.id(name, Kind::Sketch))
    }

    /// The `kind` metrics in name order, as `(name, id)`.
    fn ids(&self, kind: Kind) -> impl Iterator<Item = (&str, usize)> {
        self.names.iter().filter_map(move |(name, ids)| Some((name.as_str(), ids[kind as usize]?)))
    }

    // --------------------------------------------------------------
    // Counters, gauges and sketches.
    // --------------------------------------------------------------

    /// Adds `delta` to the counter `id`.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        if let Some(v) = self.counters.get_mut(id.0) {
            *v += delta;
        }
    }

    /// Adds `delta` to the named counter (a zero delta registers nothing).
    pub fn count(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let id = self.counter_id(name);
        self.add(id, delta);
    }

    /// One counter's value (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.find(name, Kind::Counter).map_or(0, |id| self.counters[id])
    }

    /// The counters above 0, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids(Kind::Counter).map(|(name, id)| (name, self.counters[id])).filter(|&(_, v)| v > 0)
    }

    /// Sets the gauge `id` to `value` (last write wins).
    pub fn set(&mut self, id: GaugeId, value: u64) {
        if let Some(g) = self.gauges.get_mut(id.0) {
            *g = Some(value);
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: u64) {
        let id = self.gauge_id(name);
        self.set(id, value);
    }

    /// One gauge's value, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges[self.find(name, Kind::Gauge)?]
    }

    /// The gauges ever set, sorted by name.
    fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids(Kind::Gauge).filter_map(|(name, id)| Some((name, self.gauges[id]?)))
    }

    /// Records `value` into the sketch `id`.
    pub fn record(&mut self, id: SketchId, value: u64) {
        if let Some(sk) = self.sketches.get_mut(id.0) {
            sk.observe(value);
        }
    }

    /// Records `value` into the named quantile sketch (registered with
    /// [`DEFAULT_EPSILON`] on first use).
    pub fn observe(&mut self, name: &str, value: u64) {
        let id = self.sketch_id(name);
        self.record(id, value);
    }

    /// The named sketch, if any value was ever observed into it.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        Some(&self.sketches[self.find(name, Kind::Sketch)?]).filter(|sk| sk.count() > 0)
    }

    /// The sketches holding a value, sorted by name.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.ids(Kind::Sketch)
            .map(|(name, id)| (name, &self.sketches[id]))
            .filter(|(_, sk)| sk.count() > 0)
    }

    // --------------------------------------------------------------
    // Snapshots and the engine fold.
    // --------------------------------------------------------------

    /// Advances the simulated clock to `at`, emitting one snapshot row if
    /// a cadence boundary was crossed since the last tick. Hot-path
    /// callers (the engine's delivery loop) call this once per event; the
    /// common case is a single comparison.
    pub fn tick(&mut self, at: BitTime) {
        if at.get() < self.next_at {
            return;
        }
        self.snapshots.push(TelemetrySnapshot { at, values: self.counters.clone() });
        self.next_at = (at.get() / self.interval + 1) * self.interval;
        if self.snapshots.len() > MAX_SNAPSHOTS {
            // Double the cadence and thin deterministically: keep every
            // other row counted back from the newest, which survives.
            self.interval *= 2;
            let mut age = self.snapshots.len();
            self.snapshots.retain(|_| {
                age -= 1;
                age.is_multiple_of(2)
            });
        }
    }

    /// Registers the `engine.*` meters [`on_engine`](Self::on_engine)
    /// folds into (the engine calls this when the bus is attached). They
    /// stay invisible until an event touches them.
    pub fn attach_engine(&mut self) {
        self.engine_meters();
    }

    fn engine_meters(&mut self) -> EngineMeters {
        if let Some(m) = self.engine {
            return m;
        }
        let m = EngineMeters {
            delivered: self.counter_id("engine.delivered"),
            depth: self.sketch_id("engine.calendar_depth"),
            link_bits: self.counter_id("engine.link_bits"),
            queue_wait: self.counter_id("engine.queue_wait_tau"),
            faults: self.counter_id("engine.faults_injected"),
        };
        self.engine = Some(m);
        m
    }

    /// Folds one engine event into the `engine.*` meters; a delivery also
    /// ticks the snapshot cadence.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        let m = self.engine_meters();
        match *ev {
            EngineEvent::Deliver { delivery: Delivery { at, depth, .. }, .. } => {
                self.add(m.delivered, 1);
                self.record(m.depth, depth);
                self.tick(at);
            }
            EngineEvent::Admit { waited, .. } => {
                self.add(m.link_bits, 1);
                self.add(m.queue_wait, waited);
            }
            EngineEvent::Fault { .. } => self.add(m.faults, 1),
            _ => {}
        }
    }

    /// The periodic snapshot rows, in simulated-time order.
    pub fn snapshots(&self) -> &[TelemetrySnapshot] {
        &self.snapshots
    }

    /// The counters of one snapshot row that were above 0 when it was
    /// taken, sorted by name.
    pub fn row_counters<'a>(
        &'a self,
        row: &'a TelemetrySnapshot,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.ids(Kind::Counter)
            .map(|(name, id)| (name, row.counter(CounterId(id))))
            .filter(|&(_, v)| v > 0)
    }

    // --------------------------------------------------------------
    // Exporters.
    // --------------------------------------------------------------

    /// The registry in OpenMetrics text exposition format: counters as
    /// `<name>_total`, gauges plain, sketches as `summary` families with
    /// the [reported quantiles](REPORTED_QUANTILES) plus `_count`/`_sum`,
    /// terminated by `# EOF`. Metric names are sanitized to the
    /// OpenMetrics charset (`[a-zA-Z0-9_]`, dots become underscores).
    pub fn open_metrics(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let n = metric_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n}_total {v}\n"));
        }
        for (name, v) in self.gauges() {
            let n = metric_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, sk) in self.sketches() {
            let n = metric_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (_, q) in REPORTED_QUANTILES {
                if let Some(v) = sk.quantile(q) {
                    out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
                }
            }
            out.push_str(&format!("{n}_count {}\n{n}_sum {}\n", sk.count(), sk.sum()));
        }
        out.push_str("# EOF\n");
        out
    }

    /// The registry as an [`orthotrees-telemetry/v1`](SCHEMA) JSON
    /// document: counters, gauges, per-sketch quantile summaries and the
    /// snapshot series. [`validate`] checks the result.
    pub fn to_json(&self) -> Json {
        let counters = Json::obj(self.counters().map(|(k, v)| (k, Json::u64(v))));
        let gauges = Json::obj(self.gauges().map(|(k, v)| (k, Json::u64(v))));
        let sketches = Json::arr(self.sketches().map(|(name, sk)| {
            let mut fields = vec![
                ("name", Json::str(name)),
                ("count", Json::u64(sk.count())),
                ("min", Json::u64(sk.min())),
                ("max", Json::u64(sk.max())),
                ("mean", Json::f64(sk.mean())),
            ];
            for (label, q) in REPORTED_QUANTILES {
                fields.push((label, Json::u64(sk.quantile(q).unwrap_or(0))));
            }
            Json::obj(fields)
        }));
        let snapshots = Json::arr(self.snapshots.iter().map(|s| {
            Json::obj([
                ("at", Json::u64(s.at.get())),
                ("counters", Json::obj(self.row_counters(s).map(|(k, v)| (k, Json::u64(v))))),
            ])
        }));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("epsilon", Json::f64(DEFAULT_EPSILON)),
            ("interval", Json::u64(self.interval)),
            ("counters", counters),
            ("gauges", gauges),
            ("sketches", sketches),
            ("snapshots", snapshots),
        ])
    }
}

/// Appends `value` to `values` and returns its index.
fn push<V>(values: &mut Vec<V>, value: V) -> usize {
    values.push(value);
    values.len() - 1
}

/// Sanitizes a registry name into the OpenMetrics charset: every
/// character outside `[a-zA-Z0-9_]` becomes `_`, and a leading digit is
/// prefixed with `_`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Checks an [`orthotrees-telemetry/v1`](SCHEMA) document against the
/// [`schema::TELEMETRY`] table and then its two rules; returns the first
/// violation.
pub fn validate(doc: &Json) -> Result<(), SchemaError> {
    schema::check(doc, schema::TELEMETRY)?;
    let mut sketches = schema::rows_at(doc, "sketches").iter().enumerate();
    sketches.try_for_each(sketch_quantiles_are_monotone)?;
    snapshots_are_monotone(doc)
}

/// Rule: a sketch reports `min ≤ p50 ≤ p90 ≤ p99 ≤ max`.
fn sketch_quantiles_are_monotone((i, row): (usize, &Json)) -> Result<(), SchemaError> {
    let q = ["min", "p50", "p90", "p99", "max"].map(|k| schema::u64_at(row, k));
    q.is_sorted().then_some(()).ok_or_else(|| {
        let expected = "monotone quantiles min ≤ p50 ≤ p90 ≤ p99 ≤ max";
        SchemaError::new(format!("sketches[{i}]"), expected, format!("{q:?}"))
    })
}

/// Rule: the snapshot series is monotone in time and in every counter
/// (counters only grow, so a decrease means torn rows).
fn snapshots_are_monotone(doc: &Json) -> Result<(), SchemaError> {
    // Keyed by counter name; `None` is the row time.
    let mut last = BTreeMap::new();
    for (i, row) in schema::rows_at(doc, "snapshots").iter().enumerate() {
        let counters = row.get("counters").and_then(Json::as_obj).unwrap_or_default();
        let counters = counters.iter().map(|(name, v)| (Some(name.as_str()), v));
        for (name, v) in [(None, row.get("at").unwrap_or(&Json::Null))].into_iter().chain(counters)
        {
            let value = v.as_u64().unwrap_or(0);
            if let Some(prev) = last.insert(name, value).filter(|&prev| value < prev) {
                let path = match name {
                    None => format!("snapshots[{i}].at"),
                    Some(name) => format!("snapshots[{i}].counters.{name}"),
                };
                let expected = format!("≥ {prev} (monotone snapshots)");
                return Err(SchemaError::new(path, expected, value));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-at-a-time sketch the batched one replaced, kept as the
    /// oracle the batched sketch must equal tuple for tuple: every value
    /// is inserted at its sorted position on arrival (`Vec::insert`), and
    /// every `1/(2ε)` values a compress pass removes merged tuples one by
    /// one (`Vec::remove`).
    struct OracleSketch {
        epsilon: f64,
        entries: Vec<Entry>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        since_compress: u64,
    }

    impl OracleSketch {
        fn new(epsilon: f64) -> OracleSketch {
            OracleSketch {
                epsilon: epsilon.clamp(0.0001, 0.5),
                entries: Vec::new(),
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                since_compress: 0,
            }
        }

        fn cap(&self) -> u64 {
            (2.0 * self.epsilon * self.count as f64).floor() as u64
        }

        fn observe(&mut self, value: u64) {
            self.count += 1;
            self.sum += u128::from(value);
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            let pos = self.entries.partition_point(|e| e.v < value);
            let delta = if pos == 0 || pos == self.entries.len() {
                0
            } else {
                self.cap().saturating_sub(1)
            };
            self.entries.insert(pos, Entry { v: value, g: 1, delta });
            self.since_compress += 1;
            if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
                self.compress();
                self.since_compress = 0;
            }
        }

        fn compress(&mut self) {
            let cap = self.cap();
            let mut i = self.entries.len().saturating_sub(1);
            while i >= 2 {
                let left = self.entries[i - 1];
                let right = self.entries[i];
                if left.g + right.g + right.delta <= cap {
                    self.entries[i].g += left.g;
                    self.entries.remove(i - 1);
                }
                i -= 1;
            }
        }

        fn quantile(&self, q: f64) -> Option<u64> {
            if self.count == 0 {
                return None;
            }
            let n = self.count as f64;
            let rank = (q.clamp(0.0, 1.0) * n).ceil().max(1.0);
            let margin = self.epsilon * n;
            let mut rmin = 0u64;
            for e in &self.entries {
                rmin += e.g;
                let rmax = (rmin + e.delta) as f64;
                if rank - rmin as f64 <= margin && rmax - rank <= margin {
                    return Some(e.v);
                }
            }
            self.entries.last().map(|e| e.v)
        }
    }

    /// Feeds `stream` to the batched sketch and the oracle side by side
    /// and compares them after every prefix: tuples, count, sum, min,
    /// max and every reported quantile (plus the extremes), so queries
    /// between compress points, with a batch pending, are covered too.
    fn check_against_oracle(stream: &[u64], epsilon: f64) -> TestCaseResult {
        let mut sk = QuantileSketch::new(epsilon);
        let mut oracle = OracleSketch::new(epsilon);
        for (i, &v) in stream.iter().enumerate() {
            sk.observe(v);
            oracle.observe(v);
            prop_assert!(
                sk.tuples() == oracle.entries,
                "ε={epsilon}: tuples differ after {} values",
                i + 1
            );
            prop_assert_eq!(sk.entries_len(), oracle.entries.len());
            prop_assert_eq!(
                (sk.count(), sk.sum(), sk.min(), sk.max()),
                (oracle.count, oracle.sum, oracle.min, oracle.max)
            );
            for q in REPORTED_QUANTILES.map(|(_, q)| q).into_iter().chain([0.0, 1.0]) {
                let (got, want) = (sk.quantile(q), oracle.quantile(q));
                prop_assert!(got == want, "q={q} after {}: {got:?} != {want:?}", i + 1);
            }
        }
        Ok(())
    }

    /// An arbitrary stream of up to `max_len` values: `shape` picks the
    /// order (as drawn, sorted, reversed) and `domain` the values (a
    /// handful of duplicates, a narrow band, or the whole `u64` range
    /// with 0 and `u64::MAX` both likely).
    fn stream(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        (0u8..3, 0u8..3, collection::vec(0u64..1 << 20, 0..max_len)).prop_map(
            |(shape, domain, raw)| {
                let mut xs: Vec<u64> = raw
                    .into_iter()
                    .map(|x| match domain {
                        0 => x % 5,
                        1 => 1_000 + x % 300,
                        _ => match x % 8 {
                            0 => 0,
                            1 => u64::MAX,
                            _ => x.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        },
                    })
                    .collect();
                match shape {
                    1 => xs.sort_unstable(),
                    2 => xs.sort_unstable_by(|a, b| b.cmp(a)),
                    _ => {}
                }
                xs
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn batched_sketch_matches_the_one_at_a_time_oracle(xs in stream(400)) {
            for epsilon in [0.0001, 0.01, 0.5] {
                check_against_oracle(&xs, epsilon)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Release-only sweep (CI): streams long enough to cross two
        /// compress points even at ε = 0.0001.
        #[test]
        #[ignore = "release-only sweep; run by ci.sh"]
        fn batched_sketch_matches_the_oracle_on_long_streams(xs in stream(10_500)) {
            for epsilon in [0.0001, 0.01, 0.5] {
                check_against_oracle(&xs, epsilon)?;
            }
        }
    }

    /// Exact rank check: the sketch's answer for `q` must sit within the
    /// ±⌈εn⌉ rank band of the sorted data.
    fn assert_accurate(data: &mut [u64], sk: &QuantileSketch) {
        data.sort_unstable();
        for (_, q) in REPORTED_QUANTILES {
            let got = sk.quantile(q).expect("non-empty sketch");
            assert!(
                within_rank_band(data, q, sk.epsilon(), got),
                "q={q}: {got} outside the rank band of {} samples",
                data.len()
            );
        }
    }

    #[test]
    fn sketch_is_exact_on_small_streams() {
        let mut sk = QuantileSketch::new(0.01);
        for v in [5u64, 1, 9, 3, 7] {
            sk.observe(v);
        }
        assert_eq!(sk.count(), 5);
        assert_eq!(sk.min(), 1);
        assert_eq!(sk.max(), 9);
        assert_eq!(sk.sum(), 25);
        assert_eq!(sk.quantile(0.5), Some(5));
        assert_eq!(sk.quantile(0.0), Some(1));
        assert_eq!(sk.quantile(1.0), Some(9));
    }

    #[test]
    fn sketch_empty_contract() {
        let sk = QuantileSketch::new(0.01);
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.mean(), 0.0);
        assert_eq!(sk.min(), 0);
        assert_eq!(sk.max(), 0);
    }

    #[test]
    fn sketch_stays_accurate_and_small_on_long_streams() {
        let mut sk = QuantileSketch::new(0.02);
        let mut data = Vec::new();
        // A deterministic scrambled stream with duplicates and jumps.
        for i in 0..10_000u64 {
            let v = (i * 37) ^ (i >> 3) ^ 0x15;
            sk.observe(v);
            data.push(v);
        }
        assert_accurate(&mut data, &sk);
        assert!(
            sk.entries_len() < 2_000,
            "sketch must stay sublinear: {} tuples for 10k samples",
            sk.entries_len()
        );
    }

    #[test]
    fn sketch_handles_sorted_and_reversed_streams() {
        for reversed in [false, true] {
            let mut sk = QuantileSketch::new(0.01);
            let mut data = Vec::new();
            for i in 0..5_000u64 {
                let v = if reversed { 5_000 - i } else { i };
                sk.observe(v);
                data.push(v);
            }
            assert_accurate(&mut data, &sk);
        }
    }

    #[test]
    fn sketch_handles_constant_streams() {
        let mut sk = QuantileSketch::new(0.01);
        for _ in 0..1_000 {
            sk.observe(42);
        }
        assert_eq!(sk.quantile(0.5), Some(42));
        assert_eq!(sk.quantile(0.99), Some(42));
        assert!(sk.entries_len() < 200);
    }

    #[test]
    fn rank_band_predicate_matches_hand_computation() {
        let sorted: Vec<u64> = (1..=100).collect();
        // q=0.5 over 100 samples: rank 50, ε=0.01 → band ranks [49, 51].
        assert!(within_rank_band(&sorted, 0.5, 0.01, 49));
        assert!(within_rank_band(&sorted, 0.5, 0.01, 51));
        assert!(!within_rank_band(&sorted, 0.5, 0.01, 48));
        assert!(!within_rank_band(&sorted, 0.5, 0.01, 52));
        assert!(!within_rank_band(&[], 0.5, 0.01, 1), "empty data accepts nothing");
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut t = Telemetry::new(100);
        t.count("pipeline.problems", 2);
        t.count("pipeline.problems", 3);
        t.count("noop", 0);
        t.gauge("pipeline.issue_interval_tau", 96);
        t.gauge("pipeline.issue_interval_tau", 97);
        assert_eq!(t.counter("pipeline.problems"), 5);
        assert_eq!(t.counter("absent"), 0);
        assert_eq!(t.counters().count(), 1, "zero deltas create nothing");
        assert_eq!(t.gauge_value("pipeline.issue_interval_tau"), Some(97));
    }

    #[test]
    fn untouched_metrics_stay_invisible() {
        let mut t = Telemetry::new(10);
        t.count("noop", 0);
        assert!(!t.is_registered("noop"), "a zero delta registers nothing");
        t.gauge("idle", 0);
        assert_eq!(t.gauge_value("idle"), Some(0), "a gauge set to 0 exists");
        let quiet = t.counter_id("quiet");
        let unfed = t.sketch_id("unfed");
        t.gauge_id("unset");
        t.add(quiet, 0);
        t.count("ev", 1);
        t.tick(BitTime::new(10));
        assert!(["quiet", "unfed", "unset"].iter().all(|n| t.is_registered(n)));
        assert_eq!(t.counters().collect::<Vec<_>>(), [("ev", 1)]);
        assert!(t.sketch("unfed").is_none() && t.sketches().next().is_none());
        assert_eq!(t.gauge_value("unset"), None);
        assert_eq!(t.row_counters(&t.snapshots()[0]).collect::<Vec<_>>(), [("ev", 1)]);
        let mut named = Telemetry::new(10);
        named.count("ev", 1);
        named.gauge("idle", 0);
        named.tick(BitTime::new(10));
        assert_eq!(t.to_json().render(), named.to_json().render());
        assert_eq!(t.open_metrics(), named.open_metrics());
        t.record(unfed, 4);
        assert_eq!(t.sketches().map(|(n, sk)| (n, sk.count())).collect::<Vec<_>>(), [("unfed", 1)]);
    }

    #[test]
    fn ids_and_names_reach_the_same_metric() {
        let mut t = Telemetry::new(10);
        let (c, g, k) = (t.counter_id("m"), t.gauge_id("m"), t.sketch_id("m"));
        assert_eq!((t.counter_id("m"), t.gauge_id("m"), t.sketch_id("m")), (c, g, k));
        t.add(c, 2);
        t.count("m", 3);
        t.set(g, 7);
        t.record(k, 9);
        t.observe("m", 1);
        assert_eq!((t.counter("m"), t.gauge_value("m")), (5, Some(7)));
        assert_eq!(t.sketch("m").map(|sk| (sk.count(), sk.min(), sk.max())), Some((2, 1, 9)));
        t.tick(BitTime::new(10));
        assert_eq!(t.snapshots()[0].counter(c), 5);
        let late = t.counter_id("late");
        t.add(late, 1);
        assert_eq!(t.snapshots()[0].counter(late), 0, "a row predates a later counter");
    }

    #[test]
    fn snapshots_fire_on_cadence_boundaries_only() {
        let mut t = Telemetry::new(100);
        let x = t.counter_id("x");
        t.count("x", 1);
        t.tick(BitTime::new(50)); // before the first boundary
        assert!(t.snapshots().is_empty());
        t.tick(BitTime::new(120));
        assert_eq!(t.snapshots().len(), 1);
        assert_eq!(t.snapshots()[0].counter(x), 1);
        t.count("x", 4);
        t.tick(BitTime::new(130)); // same cadence window: no new row
        assert_eq!(t.snapshots().len(), 1);
        t.tick(BitTime::new(250));
        assert_eq!(t.snapshots().len(), 2);
        assert_eq!(t.snapshots()[1].counter(x), 5);
    }

    #[test]
    fn snapshot_series_is_bounded_by_thinning() {
        let mut t = Telemetry::new(1);
        for at in 1..=10_000u64 {
            t.count("ev", 1);
            t.tick(BitTime::new(at));
        }
        assert!(t.snapshots().len() <= MAX_SNAPSHOTS);
        assert!(t.interval() > 1, "cadence doubled under pressure");
        let ats: Vec<u64> = t.snapshots().iter().map(|s| s.at.get()).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "still time-ordered");
        let ev = t.counter_id("ev");
        let evs: Vec<u64> = t.snapshots().iter().map(|s| s.counter(ev)).collect();
        assert!(evs.windows(2).all(|w| w[0] <= w[1]), "still monotone");
    }

    #[test]
    fn thinning_keeps_the_newest_row() {
        let mut t = Telemetry::new(1);
        let ev = t.counter_id("ev");
        for at in 1..=5_000u64 {
            t.count("ev", 1);
            let before = (t.snapshots().len(), t.snapshots().last().map(|r| r.at));
            t.tick(BitTime::new(at));
            let rows = t.snapshots();
            assert!(rows.len() <= MAX_SNAPSHOTS, "{} rows after tick {at}", rows.len());
            if (rows.len(), rows.last().map(|r| r.at)) != before {
                let last = rows.last().expect("a row was just taken");
                assert_eq!(last.at.get(), at, "the row taken at {at} must be the last one");
                assert_eq!(last.counter(ev), at);
            }
        }
        assert!(t.interval() >= 32, "the series thinned repeatedly: {}", t.interval());
        let mut t = Telemetry::new(1);
        for at in 1..=(MAX_SNAPSHOTS as u64 + 1) {
            t.tick(BitTime::new(at));
        }
        assert_eq!(t.snapshots().last().map(|r| r.at.get()), Some(MAX_SNAPSHOTS as u64 + 1));
    }

    #[test]
    fn open_metrics_renders_all_three_types() {
        let mut t = Telemetry::new(100);
        t.count("engine.delivered", 12);
        t.gauge("engine.links", 4);
        for v in 1..=100u64 {
            t.observe("pipeline.completion_tau", v);
        }
        let om = t.open_metrics();
        assert!(om.contains("# TYPE engine_delivered counter"));
        assert!(om.contains("engine_delivered_total 12"));
        assert!(om.contains("# TYPE engine_links gauge\nengine_links 4"));
        assert!(om.contains("# TYPE pipeline_completion_tau summary"));
        assert!(om.contains("pipeline_completion_tau{quantile=\"0.5\"}"));
        assert!(om.contains("pipeline_completion_tau_count 100"));
        assert!(om.contains("pipeline_completion_tau_sum 5050"));
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("pipeline.completion_tau"), "pipeline_completion_tau");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn json_document_round_trips_and_validates() {
        let mut t = Telemetry::new(50);
        for v in 0..200u64 {
            t.count("ev", 1);
            t.observe("lat", v * 3);
            t.tick(BitTime::new(v * 5));
        }
        t.gauge("links", 7);
        let doc = t.to_json();
        assert_eq!(validate(&doc), Ok(()));
        let back = Json::parse(&doc.render()).expect("rendered document parses");
        assert_eq!(validate(&back), Ok(()));
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SCHEMA));
    }

    #[test]
    fn schema_violations_flag_corruptions() {
        let mut t = Telemetry::new(50);
        t.count("ev", 3);
        for v in 1..=50u64 {
            t.observe("lat", v);
        }
        t.tick(BitTime::new(60));
        let clean = t.to_json();
        assert_eq!(validate(&clean), Ok(()));

        // Wrong schema tag.
        let mut doc = clean.clone();
        doc.set("schema", Json::str("orthotrees-telemetry/v0"));
        assert_eq!(validate(&doc).unwrap_err().path, "schema");

        // Non-monotone sketch quantiles.
        let bad_sketch = Json::obj([
            ("name", Json::str("lat")),
            ("count", Json::u64(50)),
            ("min", Json::u64(1)),
            ("max", Json::u64(50)),
            ("mean", Json::f64(25.0)),
            ("p50", Json::u64(40)),
            ("p90", Json::u64(10)),
            ("p99", Json::u64(50)),
        ]);
        let mut doc = clean.clone();
        doc.set("sketches", Json::arr([bad_sketch]));
        let e = validate(&doc).unwrap_err();
        assert!(e.path == "sketches[0]" && e.expected.contains("monotone"), "{e}");

        // A sketch row whose name was dropped.
        let mut unnamed = Telemetry::new(50);
        unnamed.observe("lat", 3);
        let mut doc = clean.clone();
        let mut rows = unnamed.to_json().get("sketches").cloned().unwrap();
        if let Json::Arr(items) = &mut rows {
            if let Json::Obj(fields) = &mut items[0] {
                fields.retain(|(k, _)| k != "name");
            }
        }
        doc.set("sketches", rows);
        let e = validate(&doc).unwrap_err();
        assert_eq!((e.path.as_str(), e.found.as_str()), ("sketches[0].name", "nothing"), "{e}");

        // A decreasing counter across snapshot rows.
        let rows = Json::arr([
            Json::obj([("at", Json::u64(10)), ("counters", Json::obj([("ev", Json::u64(5))]))]),
            Json::obj([("at", Json::u64(20)), ("counters", Json::obj([("ev", Json::u64(3))]))]),
        ]);
        let mut doc = clean;
        doc.set("snapshots", rows);
        let e = validate(&doc).unwrap_err();
        assert!(e.path == "snapshots[1].counters.ev" && e.expected.contains("monotone"), "{e}");
    }
}
