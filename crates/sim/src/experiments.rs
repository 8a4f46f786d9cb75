//! Bit-level models of the OTN tree primitives, used to cross-validate the
//! closed-form costs in [`orthotrees_vlsi::CostModel`].
//!
//! Each experiment builds one complete binary tree whose level-`h` wires are
//! `pitch · 2^(h−1)` λ long — exactly the strip embedding the layout crate
//! constructs — populates it with bit-level node behaviours (streaming
//! repeaters, bit-serial full adders LSB-first, bit-serial comparators
//! MSB-first), runs the event engine, and reports the completion time:
//!
//! * [`broadcast_completion_time`] — `ROOTTOLEAF` (§II.B primitive 1);
//! * [`send_completion_time`] — `LEAFTOROOT` (primitive 2);
//! * [`sum_completion_time`] — `SUM-LEAFTOROOT` (primitive 4), also
//!   returning the computed sum for functional verification;
//! * [`min_completion_time`] — `MIN-LEAFTOROOT`, MSB-first per §VII.D
//!   ("in the MIN-LEAFTOROOT operation, the most significant bits should
//!   arrive first").

use crate::calendar::CalendarKind;
use crate::engine::{Engine, EventLog};
use crate::fault::FaultPlan;
use crate::node::{Bit, NodeBehavior, NodeId, Outbox, PortId};
use crate::recovery::{supervise_engine, RecoveryPolicy, RecoveryReport};
use orthotrees_obs::causal::CausalTrace;
use orthotrees_obs::flight::FlightRecorder;
use orthotrees_obs::json::Json;
use orthotrees_obs::profile::Profiler;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::Recorder;
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel, SimError};

// ----------------------------------------------------------------------
// Checkpoint helpers shared by the stateful node behaviours below. The
// save_state/load_state encodings are deliberately compact: a per-slot
// option-of-bit vector becomes a `'0'/'1'/'.'` string, and words that may
// exceed JSON's exact-integer range travel as hex strings.
// ----------------------------------------------------------------------

fn snap_err(detail: String) -> SimError {
    SimError::SnapshotFormat { detail }
}

fn tri_encode(bits: &[Option<bool>]) -> Json {
    Json::str(
        bits.iter()
            .map(|b| match b {
                None => '.',
                Some(false) => '0',
                Some(true) => '1',
            })
            .collect::<String>(),
    )
}

fn tri_decode(state: &Json, key: &str, into: &mut [Option<bool>]) -> Result<(), SimError> {
    let text = state
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| snap_err(format!("node state missing bit-vector `{key}`")))?;
    if text.len() != into.len() {
        return Err(snap_err(format!(
            "node bit-vector `{key}` has {} slots, this node expects {}",
            text.len(),
            into.len()
        )));
    }
    for (slot, c) in into.iter_mut().zip(text.chars()) {
        *slot = match c {
            '.' => None,
            '0' => Some(false),
            '1' => Some(true),
            other => return Err(snap_err(format!("bit-vector `{key}` holds `{other}`"))),
        };
    }
    Ok(())
}

fn state_u64(state: &Json, key: &str) -> Result<u64, SimError> {
    state
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| snap_err(format!("node state missing counter `{key}`")))
}

fn state_bool(state: &Json, key: &str) -> Result<bool, SimError> {
    state
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| snap_err(format!("node state missing flag `{key}`")))
}

fn word_to_json(word: u64) -> Json {
    Json::str(format!("{word:x}"))
}

fn word_from_json(state: &Json, key: &str) -> Result<u64, SimError> {
    let text = state
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| snap_err(format!("node state missing word `{key}`")))?;
    u64::from_str_radix(text, 16).map_err(|_| snap_err(format!("word `{key}` is not hex: {text}")))
}

fn time_to_json(t: Option<BitTime>) -> Json {
    match t {
        None => Json::Null,
        Some(t) => Json::u64(t.get()),
    }
}

fn time_from_json(state: &Json, key: &str) -> Result<Option<BitTime>, SimError> {
    match state.get(key) {
        None => Err(snap_err(format!("node state missing time `{key}`"))),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|t| Some(BitTime::new(t)))
            .ok_or_else(|| snap_err(format!("time `{key}` is not an integer"))),
    }
}

/// Which registry primitive each bit-level experiment models, as
/// `(experiment function, registry name)` pairs. The names refer to
/// entries of `orthotrees::primitive::REGISTRY` (this crate deliberately
/// does not depend on the word-level crate, so the pairing is by name);
/// the cross-crate registry-coverage test asserts every name here is a
/// registry entry. `stream_completion_time` models the §III.A pipelined
/// variant of `ROOTTOLEAF` traffic rather than a separate primitive.
pub const PAPER_PRIMITIVES: &[(&str, &str)] = &[
    ("broadcast_completion_time", "ROOTTOLEAF"),
    ("send_completion_time", "LEAFTOROOT"),
    ("sum_completion_time", "SUM-LEAFTOROOT"),
    ("min_completion_time", "MIN-LEAFTOROOT"),
    ("leaf_to_leaf_completion_time", "LEAFTOLEAF"),
    ("stream_completion_time", "ROOTTOLEAF"),
];

/// Port conventions inside the tree experiments.
const TO_PARENT: PortId = PortId(0);
const TO_LEFT: PortId = PortId(1);
const TO_RIGHT: PortId = PortId(2);
const FROM_PARENT: PortId = PortId(0);
const FROM_LEFT: PortId = PortId(1);
const FROM_RIGHT: PortId = PortId(2);

/// Emits an entire word on start (the tree root as a broadcast source).
struct WordSource {
    word: u64,
    width: u32,
    lsb_first: bool,
    port: PortId,
}

impl WordSource {
    fn bit_at(&self, i: u32) -> bool {
        let pos = if self.lsb_first { i } else { self.width - 1 - i };
        (self.word >> pos) & 1 == 1
    }
}

impl NodeBehavior for WordSource {
    fn on_start(&mut self, out: &mut Outbox) {
        for i in 0..self.width {
            out.send(self.port, Bit { value: self.bit_at(i), index: i });
        }
    }
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
}

/// Streams every bit from the parent down to both children (broadcast IP).
struct DownRepeater;
impl NodeBehavior for DownRepeater {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(TO_LEFT, bit);
        out.send(TO_RIGHT, bit);
    }
}

/// Streams every bit from whichever child sent it up to the parent
/// (LEAFTOROOT IP: only one leaf is selected, so no collision occurs).
struct UpRepeater;
impl NodeBehavior for UpRepeater {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(TO_PARENT, bit);
    }
}

/// Assembles a word from arriving bits and records when it is complete.
struct WordSink {
    width: u32,
    lsb_first: bool,
    got: u32,
    word: u64,
    done: Option<BitTime>,
}

impl WordSink {
    fn new(width: u32, lsb_first: bool) -> Self {
        WordSink { width, lsb_first, got: 0, word: 0, done: None }
    }
}

impl NodeBehavior for WordSink {
    fn on_bit(&mut self, now: BitTime, _: PortId, bit: Bit, _: &mut Outbox) {
        if bit.value {
            let pos = if self.lsb_first { bit.index } else { self.width - 1 - bit.index };
            if pos < 63 {
                // Multi-word stream sinks only count arrivals; positions
                // beyond the host word are not assembled.
                self.word |= 1 << pos;
            }
        }
        self.got += 1;
        if self.got == self.width {
            self.done = Some(now);
        }
    }
    fn completed_at(&self) -> Option<BitTime> {
        self.done
    }
    fn result(&self) -> Option<u64> {
        Some(self.word)
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("got", Json::u64(u64::from(self.got))),
            ("word", word_to_json(self.word)),
            ("done", time_to_json(self.done)),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.got = u32::try_from(state_u64(state, "got")?)
            .map_err(|_| snap_err("sink bit count exceeds u32".into()))?;
        self.word = word_from_json(state, "word")?;
        self.done = time_from_json(state, "done")?;
        Ok(())
    }
}

/// Bit-serial full adder (SUM IP): when bit `i` has arrived from both
/// children, emits `(l + r + carry) mod 2` to the parent after one gate
/// delay. Operands arrive LSB-first, zero-padded to the widened width.
struct SerialAdder {
    left: Vec<Option<bool>>,
    right: Vec<Option<bool>>,
    carry: bool,
    next: u32,
}

impl SerialAdder {
    fn new(width: u32) -> Self {
        SerialAdder {
            left: vec![None; width as usize],
            right: vec![None; width as usize],
            carry: false,
            next: 0,
        }
    }
}

impl NodeBehavior for SerialAdder {
    fn on_bit(&mut self, _: BitTime, port: PortId, bit: Bit, out: &mut Outbox) {
        let slot = bit.index as usize;
        match port {
            FROM_LEFT => self.left[slot] = Some(bit.value),
            FROM_RIGHT => self.right[slot] = Some(bit.value),
            // Invariant: build_tree wires aggregate nodes with exactly two
            // child inputs; another port is a harness wiring bug, not a
            // recoverable simulation state.
            other => panic!("adder received bit on unexpected port {other:?}"),
        }
        // Bits arrive in index order on each side; emit in order as pairs
        // complete.
        while (self.next as usize) < self.left.len() {
            let (Some(l), Some(r)) =
                (self.left[self.next as usize], self.right[self.next as usize])
            else {
                break;
            };
            let total = u8::from(l) + u8::from(r) + u8::from(self.carry);
            self.carry = total >= 2;
            out.send_after(
                TO_PARENT,
                Bit { value: total & 1 == 1, index: self.next },
                BitTime::new(1),
            );
            self.next += 1;
        }
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("left", tri_encode(&self.left)),
            ("right", tri_encode(&self.right)),
            ("carry", Json::bool(self.carry)),
            ("next", Json::u64(u64::from(self.next))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        tri_decode(state, "left", &mut self.left)?;
        tri_decode(state, "right", &mut self.right)?;
        self.carry = state_bool(state, "carry")?;
        self.next = u32::try_from(state_u64(state, "next")?)
            .map_err(|_| snap_err("adder position exceeds u32".into()))?;
        Ok(())
    }
}

/// Bit-serial minimum (MIN IP): operands arrive MSB-first; while the two
/// streams agree the common bit is forwarded; at the first disagreement the
/// side that sent `0` wins and is forwarded exclusively from then on.
struct SerialMin {
    left: Vec<Option<bool>>,
    right: Vec<Option<bool>>,
    winner: Option<PortId>,
    next: u32,
}

impl SerialMin {
    fn new(width: u32) -> Self {
        SerialMin {
            left: vec![None; width as usize],
            right: vec![None; width as usize],
            winner: None,
            next: 0,
        }
    }
}

impl NodeBehavior for SerialMin {
    fn on_bit(&mut self, _: BitTime, port: PortId, bit: Bit, out: &mut Outbox) {
        let slot = bit.index as usize;
        match port {
            FROM_LEFT => self.left[slot] = Some(bit.value),
            FROM_RIGHT => self.right[slot] = Some(bit.value),
            // Invariant: same two-child wiring contract as the adder.
            other => panic!("min received bit on unexpected port {other:?}"),
        }
        while (self.next as usize) < self.left.len() {
            let (Some(l), Some(r)) =
                (self.left[self.next as usize], self.right[self.next as usize])
            else {
                break;
            };
            let value = match self.winner {
                Some(FROM_LEFT) => l,
                Some(FROM_RIGHT) => r,
                _ => {
                    if l != r {
                        self.winner = Some(if !l { FROM_LEFT } else { FROM_RIGHT });
                    }
                    l & r // equal bits: either; diverging: the 0 (= min)
                }
            };
            out.send_after(TO_PARENT, Bit { value, index: self.next }, BitTime::new(1));
            self.next += 1;
        }
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("left", tri_encode(&self.left)),
            ("right", tri_encode(&self.right)),
            (
                "winner",
                match self.winner {
                    None => Json::Null,
                    Some(p) => Json::u64(p.0 as u64),
                },
            ),
            ("next", Json::u64(u64::from(self.next))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        tri_decode(state, "left", &mut self.left)?;
        tri_decode(state, "right", &mut self.right)?;
        self.winner = match state.get("winner") {
            Some(Json::Null) => None,
            Some(v) => Some(PortId(
                v.as_u64().ok_or_else(|| snap_err("min winner port is not an integer".into()))?
                    as usize,
            )),
            None => return Err(snap_err("node state missing `winner`".into())),
        };
        self.next = u32::try_from(state_u64(state, "next")?)
            .map_err(|_| snap_err("min position exceeds u32".into()))?;
        Ok(())
    }
}

/// Description of a built tree: node ids per level, `levels\[0\]` = leaves.
struct TreeIds {
    levels: Vec<Vec<NodeId>>,
}

/// Builds a complete binary tree over `leaves` leaf nodes with wires of
/// length `pitch · 2^(h−1)` at level `h`, wired in `direction`.
///
/// `make_leaf(i)` and `make_inner(level)` supply behaviours; the root is an
/// inner node of the top level (or the single leaf if `leaves == 1`).
fn build_tree(
    engine: &mut Engine,
    leaves: usize,
    pitch: u64,
    downward: bool,
    make_leaf: &mut dyn FnMut(usize) -> Box<dyn NodeBehavior>,
    make_inner: &mut dyn FnMut(u32) -> Box<dyn NodeBehavior>,
) -> TreeIds {
    assert!(leaves.is_power_of_two(), "leaf count must be a power of two");
    let depth = log2_ceil(leaves as u64);
    let mut levels = Vec::with_capacity(depth as usize + 1);
    levels.push((0..leaves).map(|i| engine.add_node(make_leaf(i))).collect::<Vec<_>>());
    for h in 1..=depth {
        let below: Vec<NodeId> = levels[(h - 1) as usize].clone();
        let count = below.len() / 2;
        let mut this = Vec::with_capacity(count);
        let wire = pitch << (h - 1);
        for j in 0..count {
            let node = engine.add_node(make_inner(h));
            let (l, r) = (below[2 * j], below[2 * j + 1]);
            if downward {
                engine.connect(node, TO_LEFT, l, FROM_PARENT, wire);
                engine.connect(node, TO_RIGHT, r, FROM_PARENT, wire);
            } else {
                engine.connect(l, TO_PARENT, node, FROM_LEFT, wire);
                engine.connect(r, TO_PARENT, node, FROM_RIGHT, wire);
            }
            this.push(node);
        }
        levels.push(this);
    }
    TreeIds { levels }
}

impl TreeIds {
    /// The single node of the top level.
    fn root(&self) -> NodeId {
        // Invariant: build_tree pushes one level per depth and halves the
        // node count each level, so the top level holds exactly one node.
        *self
            .levels
            .last()
            .and_then(|l| l.first())
            .expect("tree root invariant violated: build_tree left an empty top level")
    }
}

/// Simulates `ROOTTOLEAF` of one `m.word_bits`-bit word over a tree of
/// `leaves` leaves at the model's pitch; returns the time the last leaf
/// holds the complete word.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two.
pub fn broadcast_completion_time(leaves: usize, m: &CostModel) -> Result<BitTime, SimError> {
    broadcast_run(leaves, m, |e| e).map(|(t, _)| t)
}

/// [`broadcast_completion_time`] with a [`Recorder`] installed: returns
/// the completion time plus the recorder holding the run's per-link
/// traffic, per-node activation and calendar-depth tables.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two.
pub fn broadcast_observed(leaves: usize, m: &CostModel) -> Result<(BitTime, Recorder), SimError> {
    let (t, mut e) = broadcast_run(leaves, m, |e| e.with_recorder(Recorder::new()))?;
    Ok((t, e.take_recorder().expect("recorder was installed for this run")))
}

/// [`broadcast_completion_time`] with both a [`Recorder`] and a windowed
/// [`Profiler`] installed (initial window width 16τ, coalescing as the
/// run grows): returns the completion time, the recorder's aggregate
/// tables, and the profiler's time-resolved windows — the pair the
/// PROF-001 tiling rule compares.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two.
pub fn broadcast_profiled(
    leaves: usize,
    m: &CostModel,
) -> Result<(BitTime, Recorder, Profiler), SimError> {
    let (t, mut e) = broadcast_run(leaves, m, |e| {
        e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16))
    })?;
    let rec = e.take_recorder().expect("recorder was installed for this run");
    Ok((t, rec, e.take_profiler().expect("profiler was installed for this run")))
}

/// [`broadcast_completion_time`] with a [`CausalTrace`] installed: returns
/// the completion time plus the trace whose
/// [`critical_path`](CausalTrace::critical_path) explains it hop by hop.
/// The path's wire-delay slices of positive length reproduce the per-level
/// closed-form decomposition
/// [`CostModel::level_bit_delays`](orthotrees_vlsi::CostModel::level_bit_delays)
/// exactly — the `CRIT-001` rule of `orthotrees-verify` checks this.
///
/// For a 1-leaf tree the trace is empty (the broadcast is free).
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two.
pub fn broadcast_traced(leaves: usize, m: &CostModel) -> Result<(BitTime, CausalTrace), SimError> {
    let (t, mut e) = broadcast_run(leaves, m, Engine::with_causal_trace)?;
    Ok((t, e.take_causal_trace().expect("causal trace was installed for this run")))
}

/// Runs the broadcast on an engine `install` has fitted with its
/// instruments; returns the completion time and the engine, for them.
fn broadcast_run(
    leaves: usize,
    m: &CostModel,
    install: impl FnOnce(Engine) -> Engine,
) -> Result<(BitTime, Engine), SimError> {
    let w = m.word_bits.max(1);
    let mut e = install(Engine::new(m.delay));
    let ids = build_tree(
        &mut e,
        leaves,
        m.leaf_pitch(),
        true,
        &mut |_| Box::new(WordSink::new(w, true)),
        &mut |_| Box::new(DownRepeater),
    );
    // Replace the root's behaviour by a source: easiest is to add a source
    // node feeding the root's children directly when depth >= 1; for a
    // 1-leaf tree the "broadcast" is free.
    if leaves == 1 {
        return Ok((BitTime::ZERO, e));
    }
    // The generic builder made the root a DownRepeater with no parent; feed
    // it through a zero-length wire from a dedicated source node.
    let root = ids.root();
    let src = e.add_node(Box::new(WordSource {
        word: 0b1011,
        width: w,
        lsb_first: true,
        port: TO_PARENT,
    }));
    e.connect(src, TO_PARENT, root, FROM_PARENT, 0);
    // A zero-length wire still costs one τ (receiving latch); subtract it so
    // the measurement covers exactly the root-to-leaf path.
    let injected = m.delay.wire_bit_delay(0);
    e.try_run()?;
    let done = e.completion_time().ok_or(SimError::NoCompletion { what: "broadcast leaves" })?;
    Ok((done - injected, e))
}

/// Simulates `LEAFTOROOT` from leaf `source_leaf`; returns the time the root
/// holds the complete word, and the word (for functional verification).
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the root sink never
/// assembles the full word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two or `source_leaf` out of range.
pub fn send_completion_time(
    leaves: usize,
    source_leaf: usize,
    m: &CostModel,
) -> Result<(BitTime, u64), SimError> {
    assert!(source_leaf < leaves, "source leaf out of range");
    let w = m.word_bits.max(1);
    let word = 0b1101u64 & ((1 << w) - 1).max(1);
    if leaves == 1 {
        return Ok((BitTime::ZERO, word));
    }
    let mut e = Engine::new(m.delay);
    let ids = build_tree(
        &mut e,
        leaves,
        m.leaf_pitch(),
        false,
        &mut |i| {
            if i == source_leaf {
                Box::new(WordSource { word, width: w, lsb_first: true, port: TO_PARENT })
            } else {
                Box::new(IdleLeaf)
            }
        },
        &mut |_| Box::new(UpRepeater),
    );
    // Attach a sink above the root through a zero-length wire.
    let root = ids.root();
    let sink = e.add_node(Box::new(WordSink::new(w, true)));
    e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
    let injected = m.delay.wire_bit_delay(0);
    e.try_run()?;
    let t = e.completion_time().ok_or(SimError::NoCompletion { what: "root sink" })? - injected;
    let v = e.node(sink).result().ok_or(SimError::NoCompletion { what: "root sink word" })?;
    Ok((t, v))
}

struct IdleLeaf;
impl NodeBehavior for IdleLeaf {
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
}

/// Simulates `SUM-LEAFTOROOT` of `values` (one per leaf, LSB-first,
/// zero-padded to the widened width `w + log₂ leaves`); returns the
/// completion time at the root and the computed sum.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the root sink never
/// assembles the aggregate.
///
/// # Panics
///
/// Panics if `values.len()` is not a power of two ≥ 2, or any value needs
/// more than `m.word_bits` bits.
pub fn sum_completion_time(values: &[u64], m: &CostModel) -> Result<(BitTime, u64), SimError> {
    run_aggregate(values, m, true)
}

/// Simulates `MIN-LEAFTOROOT` (MSB-first); returns completion time and the
/// computed minimum. The transmitted width is the plain word width `w` (no
/// widening — minima do not grow).
///
/// # Errors
///
/// Same conditions as [`sum_completion_time`].
///
/// # Panics
///
/// Same conditions as [`sum_completion_time`].
pub fn min_completion_time(values: &[u64], m: &CostModel) -> Result<(BitTime, u64), SimError> {
    run_aggregate(values, m, false)
}

/// Builds the aggregate tree (sum or min) and its root sink into an
/// existing (possibly pre-configured) engine.
fn build_aggregate_into(e: &mut Engine, values: &[u64], m: &CostModel, sum: bool) -> NodeId {
    let leaves = values.len();
    assert!(leaves >= 2 && leaves.is_power_of_two(), "need a power-of-two leaf count >= 2");
    let w = m.word_bits.max(1);
    for &v in values {
        assert!(v < (1u64 << w), "value {v} exceeds word width {w}");
    }
    let width = if sum { w + log2_ceil(leaves as u64) } else { w };
    let ids = build_tree(
        e,
        leaves,
        m.leaf_pitch(),
        false,
        &mut |i| {
            Box::new(WordSource { word: values[i], width, lsb_first: sum, port: TO_PARENT })
                as Box<dyn NodeBehavior>
        },
        &mut |_| {
            if sum {
                Box::new(SerialAdder::new(width)) as Box<dyn NodeBehavior>
            } else {
                Box::new(SerialMin::new(width))
            }
        },
    );
    let root = ids.root();
    let sink = e.add_node(Box::new(WordSink::new(width, sum)));
    e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
    sink
}

/// Builds the aggregate tree (sum or min) and its root sink.
fn build_aggregate(values: &[u64], m: &CostModel, sum: bool) -> (Engine, NodeId) {
    let mut e = Engine::new(m.delay);
    let sink = build_aggregate_into(&mut e, values, m, sum);
    (e, sink)
}

fn run_aggregate(values: &[u64], m: &CostModel, sum: bool) -> Result<(BitTime, u64), SimError> {
    let (mut e, sink) = build_aggregate(values, m, sum);
    let injected = m.delay.wire_bit_delay(0);
    e.try_run()?;
    let t =
        e.completion_time().ok_or(SimError::NoCompletion { what: "aggregate root" })? - injected;
    let v = e.node(sink).result().ok_or(SimError::NoCompletion { what: "aggregate word" })?;
    Ok((t, v))
}

/// Runs `SUM-LEAFTOROOT` under the crash-recovery supervisor with a
/// deterministic mid-run outage injected at the root sink.
///
/// A clean run first establishes the completion time `T`; the supervised
/// run then faces an outage over `[1, T)` that silently swallows every
/// delivery to the sink, so the first attempt always goes quiescent
/// without completing. The supervisor detects that as a failure, rolls
/// back (escalating past checkpoints poisoned by mid-outage state, all
/// the way to the pristine pre-start snapshot if needed), lets the heal
/// hook clear the fault plan, and replays to completion. Returns the
/// [`RecoveryReport`], the [`Recorder`] holding the run's `RECOVERY`
/// spans, and the computed sum; the recovered completion time equals the
/// clean run's (replay costs wall clock, not simulated time).
///
/// # Errors
///
/// Returns [`SimError`] if the clean run fails, or the supervised run
/// exhausts [`RecoveryPolicy::max_attempts`].
///
/// # Panics
///
/// Same conditions as [`sum_completion_time`].
pub fn supervised_sum_recovery(
    values: &[u64],
    m: &CostModel,
    policy: &RecoveryPolicy,
) -> Result<(RecoveryReport, Recorder, u64), SimError> {
    let (report, mut e, v) =
        supervised_sum(values, m, policy, |e| e.with_recorder(Recorder::new()))?;
    let rec = e.take_recorder().ok_or(SimError::NoCompletion { what: "recovery recorder" })?;
    Ok((report, rec, v))
}

/// The supervised outage run behind [`supervised_sum_recovery`] and its
/// variants, on an engine `install` has fitted with its instruments;
/// returns the report, the engine (for them) and the computed sum.
fn supervised_sum(
    values: &[u64],
    m: &CostModel,
    policy: &RecoveryPolicy,
    install: impl FnOnce(Engine) -> Engine,
) -> Result<(RecoveryReport, Engine, u64), SimError> {
    let (mut clean, _) = build_aggregate(values, m, true);
    clean.try_run()?;
    let t = clean.completion_time().ok_or(SimError::NoCompletion { what: "aggregate root" })?;

    let (chaotic, sink) = build_aggregate(values, m, true);
    let until = BitTime::new(t.get().max(2));
    let plan = FaultPlan::new(1).with_outage(sink, BitTime::new(1), until);
    let mut chaotic = install(chaotic).with_fault_plan(plan);
    let report = supervise_engine(&mut chaotic, policy, |e, _failures| e.set_fault_plan(None))?;
    let v = chaotic.node(sink).result().ok_or(SimError::NoCompletion { what: "aggregate word" })?;
    Ok((report, chaotic, v))
}

/// [`supervised_sum_recovery`] with a windowed [`Profiler`] riding along
/// (initial window width 16τ): the outage-dense supervised run's profile
/// row in `simprof`. Rollback replays land in the profiler exactly as
/// they land in the recorder — both instruments see every delivered
/// event, including replayed ones — so the PROF-001 tiling between the
/// two holds through recovery.
///
/// # Errors
///
/// Returns [`SimError`] if the clean run fails, or the supervised run
/// exhausts [`RecoveryPolicy::max_attempts`].
///
/// # Panics
///
/// Same conditions as [`sum_completion_time`].
pub fn supervised_sum_recovery_profiled(
    values: &[u64],
    m: &CostModel,
    policy: &RecoveryPolicy,
) -> Result<(RecoveryReport, Recorder, Profiler, u64), SimError> {
    let (report, mut e, v) = supervised_sum(values, m, policy, |e| {
        e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16))
    })?;
    let rec = e.take_recorder().ok_or(SimError::NoCompletion { what: "recovery recorder" })?;
    let prof = e.take_profiler().ok_or(SimError::NoCompletion { what: "recovery profiler" })?;
    Ok((report, rec, prof, v))
}

/// [`broadcast_completion_time`] as a *black-box* run: the event log, the
/// streaming [`Telemetry`] bus (snapshot interval 16τ) and the crash
/// [`FlightRecorder`] are all attached. Returns the completion time, the
/// delivered-bit log, and both instruments — the run the `TEL-002` verify
/// rule checks, by dumping the flight tail and holding it to its
/// contiguous-suffix-of-the-log invariant.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two.
pub fn broadcast_black_box(
    leaves: usize,
    m: &CostModel,
) -> Result<(BitTime, Vec<EventLog>, Telemetry, FlightRecorder), SimError> {
    let (t, mut e) = broadcast_run(leaves, m, |e| {
        e.with_event_log()
            .with_telemetry(Telemetry::new(16))
            .with_flight_recorder(FlightRecorder::default())
    })?;
    let tel = e.take_telemetry().expect("telemetry was installed for this run");
    let fl = e.take_flight_recorder().expect("flight recorder was installed for this run");
    Ok((t, e.log().to_vec(), tel, fl))
}

/// [`supervised_sum_recovery`] with the black-box instruments riding
/// along instead of the recorder: every supervisor rollback dumps an
/// `orthotrees-flight/v1` post-mortem into the returned
/// [`FlightRecorder`], and the [`Telemetry`] bus carries the
/// `recovery.rollbacks` counter next to the engine's own meters. The
/// outage guarantees at least one rollback, so the returned recorder
/// always holds at least one post-mortem document.
///
/// # Errors
///
/// Returns [`SimError`] if the clean run fails, or the supervised run
/// exhausts [`RecoveryPolicy::max_attempts`].
///
/// # Panics
///
/// Same conditions as [`sum_completion_time`].
pub fn supervised_sum_recovery_black_box(
    values: &[u64],
    m: &CostModel,
    policy: &RecoveryPolicy,
) -> Result<(RecoveryReport, Telemetry, FlightRecorder, u64), SimError> {
    let (report, mut e, v) = supervised_sum(values, m, policy, |e| {
        e.with_telemetry(Telemetry::new(16)).with_flight_recorder(FlightRecorder::default())
    })?;
    let tel = e.take_telemetry().ok_or(SimError::NoCompletion { what: "recovery telemetry" })?;
    let fl = e
        .take_flight_recorder()
        .ok_or(SimError::NoCompletion { what: "recovery flight recorder" })?;
    Ok((report, tel, fl, v))
}

/// Simulates a full `LEAFTOLEAF` composite at bit level: one word travels
/// from `source_leaf` up to the root, which buffers it and sends it back
/// down to every leaf (the paper's primary store-and-forward description;
/// §II.B). Returns the time the last leaf holds the complete word, which
/// must equal [`CostModel::tree_leaf_to_leaf`].
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
///
/// # Panics
///
/// Panics if `leaves` is not a power of two ≥ 2 or `source_leaf` is out of
/// range.
pub fn leaf_to_leaf_completion_time(
    leaves: usize,
    source_leaf: usize,
    m: &CostModel,
) -> Result<BitTime, SimError> {
    assert!(leaves.is_power_of_two() && leaves >= 2, "need a power-of-two tree >= 2");
    assert!(source_leaf < leaves, "source leaf out of range");
    let w = m.word_bits.max(1);
    let word = 0b1010_0110u64 & ((1 << w) - 1);
    let mut e = Engine::new(m.delay);
    // Upward tree: leaves send to the root.
    let up = build_tree(
        &mut e,
        leaves,
        m.leaf_pitch(),
        false,
        &mut |i| {
            if i == source_leaf {
                Box::new(WordSource { word, width: w, lsb_first: true, port: TO_PARENT })
                    as Box<dyn NodeBehavior>
            } else {
                Box::new(IdleLeaf)
            }
        },
        &mut |_| Box::new(UpRepeater),
    );
    // Downward tree: the root streams back to sink leaves.
    let down = build_tree(
        &mut e,
        leaves,
        m.leaf_pitch(),
        true,
        &mut |_| Box::new(WordSink::new(w, true)) as Box<dyn NodeBehavior>,
        &mut |_| Box::new(DownRepeater),
    );
    // Glue: the up-root forwards straight into the down-root (zero-length
    // wire; its 1τ latch is subtracted like the injection latch elsewhere).
    let up_root = up.root();
    let turn = e.add_node(Box::new(TurnAround { expected: w, buffered: Vec::new() }));
    let down_root = down.root();
    e.connect(up_root, TO_PARENT, turn, FROM_LEFT, 0);
    e.connect(turn, TO_PARENT, down_root, FROM_PARENT, 0);
    let injected = m.delay.wire_bit_delay(0) + m.delay.wire_bit_delay(0);
    e.try_run()?;
    let done = e.completion_time().ok_or(SimError::NoCompletion { what: "destination leaves" })?;
    Ok(done - injected)
}

/// The root of a `LEAFTOLEAF`: buffers the entire word, then re-emits it
/// into the down-tree — the paper's primary implementation ("when the
/// entire word is available in the root it is transferred to the
/// destination leaves"; the streaming O(1)-storage variant would overlap
/// the two traversals' word tails, and §II.B notes both are Θ(log² N)).
struct TurnAround {
    expected: u32,
    buffered: Vec<Bit>,
}
impl NodeBehavior for TurnAround {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        self.buffered.push(bit);
        if self.buffered.len() == self.expected as usize {
            for b in self.buffered.drain(..) {
                out.send(TO_PARENT, b);
            }
        }
    }
    fn save_state(&self) -> Json {
        Json::arr(
            self.buffered
                .iter()
                .map(|b| Json::arr([Json::bool(b.value), Json::u64(u64::from(b.index))])),
        )
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        let rows =
            state.as_arr().ok_or_else(|| snap_err("turnaround state is not an array".into()))?;
        self.buffered.clear();
        for row in rows {
            let pair = row
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| snap_err("turnaround entry is not a [value, index] pair".into()))?;
            self.buffered.push(Bit {
                value: pair[0]
                    .as_bool()
                    .ok_or_else(|| snap_err("turnaround bit value is not a boolean".into()))?,
                index: u32::try_from(
                    pair[1]
                        .as_u64()
                        .ok_or_else(|| snap_err("turnaround bit index is not an integer".into()))?,
                )
                .map_err(|_| snap_err("turnaround bit index exceeds u32".into()))?,
            });
        }
        Ok(())
    }
}

/// Simulates `stream_count` whole words converging from distinct leaves to
/// the root of a `leaves`-leaf tree (the §IV `COMPEX` traffic pattern: the
/// `d` words of one subtree all cross the subtree root). Bits from
/// different words contend for the shared upper links, where the link
/// occupancy rule serialises them one bit per τ. Returns the time the root
/// has received all `stream_count · w` bits.
///
/// The closed-form charge for this pattern
/// ([`CostModel::tree_root_to_leaf`] plus `(d−1)` pipeline intervals — see
/// `Otn::pairwise_cost`) is validated against this measurement in the
/// cross-crate tests with a documented tolerance: the event simulator
/// interleaves the contending words bit by bit, which overlaps their
/// serialisation slightly differently from the word-granular model.
///
/// # Errors
///
/// Returns [`SimError`] if the run budget trips or the root never receives
/// all `stream_count · w` bits.
///
/// # Panics
///
/// Panics unless `leaves` is a power of two and
/// `1 ≤ stream_count ≤ leaves`.
pub fn stream_completion_time(
    leaves: usize,
    stream_count: usize,
    m: &CostModel,
) -> Result<BitTime, SimError> {
    assert!(leaves.is_power_of_two() && leaves >= 2, "need a power-of-two tree");
    assert!(
        (1..=leaves).contains(&stream_count),
        "stream count {stream_count} out of 1..={leaves}"
    );
    let w = m.word_bits.max(1);
    let mut e = Engine::new(m.delay);
    let ids = build_tree(
        &mut e,
        leaves,
        m.leaf_pitch(),
        false,
        &mut |i| {
            if i < stream_count {
                Box::new(WordSource {
                    word: (i as u64) & ((1 << w) - 1),
                    width: w,
                    lsb_first: true,
                    port: TO_PARENT,
                }) as Box<dyn NodeBehavior>
            } else {
                Box::new(IdleLeaf)
            }
        },
        &mut |_| Box::new(UpRepeater),
    );
    let root = ids.root();
    let sink = e.add_node(Box::new(WordSink::new(w * stream_count as u32, true)));
    e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
    let injected = m.delay.wire_bit_delay(0);
    e.try_run()?;
    let done = e.completion_time().ok_or(SimError::NoCompletion { what: "converging streams" })?;
    Ok(done - injected)
}

// ----------------------------------------------------------------------
// The engine-level probe repertoire: every paper primitive as a
// *buildable* (not pre-run) engine, parameterized over the pending-event
// calendar. The ENG-001 verify rule and the `calendar_suite` proptests
// run each probe on the heap and the ladder and compare the runs exactly;
// the event-core microbench in `orthotrees-bench` times the Stream probe
// at n = 512 under a dense fault plan on both calendars.
// ----------------------------------------------------------------------

/// Which paper primitive a probe engine models (engine-level repertoire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// `ROOTTOLEAF`: one word broadcast down the tree.
    Broadcast,
    /// `LEAFTOROOT`: leaf 0 relays one word up to a root sink.
    Send,
    /// `SUM-LEAFTOROOT`: bit-serial adders, LSB-first, widened word.
    Sum,
    /// `MIN-LEAFTOROOT`: bit-serial comparators, MSB-first.
    Min,
    /// `LEAFTOLEAF`: up-tree into a buffering turnaround into a down-tree.
    LeafToLeaf,
    /// §IV converging streams: every leaf's word contends for the upper
    /// links (the densest event traffic of the repertoire).
    Stream,
}

/// Every probe, in a stable sweep order.
pub const PROBE_KINDS: [ProbeKind; 6] = [
    ProbeKind::Broadcast,
    ProbeKind::Send,
    ProbeKind::Sum,
    ProbeKind::Min,
    ProbeKind::LeafToLeaf,
    ProbeKind::Stream,
];

impl ProbeKind {
    /// Stable lowercase tag (test labels, bench documents).
    pub fn tag(self) -> &'static str {
        match self {
            ProbeKind::Broadcast => "broadcast",
            ProbeKind::Send => "send",
            ProbeKind::Sum => "sum",
            ProbeKind::Min => "min",
            ProbeKind::LeafToLeaf => "leaf-to-leaf",
            ProbeKind::Stream => "stream",
        }
    }
}

/// Builds (without running) the engine-level probe for one paper
/// primitive on the given [`CalendarKind`], optionally under a
/// [`FaultPlan`] and with the delivered-bit log retained.
///
/// The topology, sources and per-leaf words are deterministic functions
/// of `(kind, leaves, m)` alone, so two probes built with different
/// calendars (or instrumentation) are the *same* simulation — the
/// identity checks rely on exactly this. For the aggregate probes
/// (`Sum`/`Min`) the root sink is the last node added, which is how the
/// recovery soaks target it with outages.
///
/// # Panics
///
/// Panics unless `leaves` is a power of two ≥ 2.
pub fn probe_engine(
    kind: ProbeKind,
    leaves: usize,
    m: &CostModel,
    calendar: CalendarKind,
    plan: Option<FaultPlan>,
    log: bool,
) -> Engine {
    assert!(leaves.is_power_of_two() && leaves >= 2, "need a power-of-two tree >= 2");
    let w = m.word_bits.max(1);
    let mut e = Engine::new(m.delay).with_calendar(calendar);
    if log {
        e = e.with_event_log();
    }
    if let Some(p) = plan {
        e = e.with_fault_plan(p);
    }
    match kind {
        ProbeKind::Broadcast => {
            let ids = build_tree(
                &mut e,
                leaves,
                m.leaf_pitch(),
                true,
                &mut |_| Box::new(WordSink::new(w, true)),
                &mut |_| Box::new(DownRepeater),
            );
            let root = ids.root();
            let src = e.add_node(Box::new(WordSource {
                word: 0b1011,
                width: w,
                lsb_first: true,
                port: TO_PARENT,
            }));
            e.connect(src, TO_PARENT, root, FROM_PARENT, 0);
        }
        ProbeKind::Send => {
            let word = 0b1101u64 & ((1 << w) - 1).max(1);
            let ids = build_tree(
                &mut e,
                leaves,
                m.leaf_pitch(),
                false,
                &mut |i| {
                    if i == 0 {
                        Box::new(WordSource { word, width: w, lsb_first: true, port: TO_PARENT })
                            as Box<dyn NodeBehavior>
                    } else {
                        Box::new(IdleLeaf)
                    }
                },
                &mut |_| Box::new(UpRepeater),
            );
            let root = ids.root();
            let sink = e.add_node(Box::new(WordSink::new(w, true)));
            e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
        }
        ProbeKind::Sum | ProbeKind::Min => {
            let mask = (1u64 << w) - 1;
            let values: Vec<u64> = (0..leaves).map(|i| (i as u64 * 7 + 3) & mask).collect();
            build_aggregate_into(&mut e, &values, m, kind == ProbeKind::Sum);
        }
        ProbeKind::LeafToLeaf => {
            let word = 0b1010_0110u64 & ((1 << w) - 1);
            let up = build_tree(
                &mut e,
                leaves,
                m.leaf_pitch(),
                false,
                &mut |i| {
                    if i == 0 {
                        Box::new(WordSource { word, width: w, lsb_first: true, port: TO_PARENT })
                            as Box<dyn NodeBehavior>
                    } else {
                        Box::new(IdleLeaf)
                    }
                },
                &mut |_| Box::new(UpRepeater),
            );
            let down = build_tree(
                &mut e,
                leaves,
                m.leaf_pitch(),
                true,
                &mut |_| Box::new(WordSink::new(w, true)) as Box<dyn NodeBehavior>,
                &mut |_| Box::new(DownRepeater),
            );
            let up_root = up.root();
            let turn = e.add_node(Box::new(TurnAround { expected: w, buffered: Vec::new() }));
            let down_root = down.root();
            e.connect(up_root, TO_PARENT, turn, FROM_LEFT, 0);
            e.connect(turn, TO_PARENT, down_root, FROM_PARENT, 0);
        }
        ProbeKind::Stream => {
            let ids = build_tree(
                &mut e,
                leaves,
                m.leaf_pitch(),
                false,
                &mut |i| {
                    Box::new(WordSource {
                        word: (i as u64) & ((1 << w) - 1),
                        width: w,
                        lsb_first: true,
                        port: TO_PARENT,
                    }) as Box<dyn NodeBehavior>
                },
                &mut |_| Box::new(UpRepeater),
            );
            let root = ids.root();
            let sink = e.add_node(Box::new(WordSink::new(w * leaves as u32, true)));
            e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
        }
    }
    e
}

/// The closed-form completion time the MIN experiment should match:
/// one-bit path latency + one gate delay per level + `w − 1` pipelined bits.
///
/// (The [`CostModel::tree_aggregate`] charge uses the *widened* word for all
/// aggregates as a documented upper bound; MIN's exact time is this tighter
/// form.)
pub fn expected_min_time(leaves: usize, m: &CostModel) -> BitTime {
    let depth = u64::from(log2_ceil(leaves as u64));
    m.tree_bit_latency(leaves, m.leaf_pitch())
        + BitTime::new(depth)
        + BitTime::new(u64::from(m.word_bits.max(1)) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(n: usize) -> Vec<CostModel> {
        vec![CostModel::thompson(n), CostModel::constant_delay(n), CostModel::linear_delay(n)]
    }

    #[test]
    fn probe_repertoire_is_bit_identical_across_calendars() {
        let m = CostModel::thompson(8);
        for kind in PROBE_KINDS {
            let mut runs = Vec::new();
            for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
                let mut e = probe_engine(kind, 8, &m, cal, None, true);
                assert_eq!(e.calendar_kind(), cal);
                e.try_run().unwrap();
                runs.push((e.completion_time(), e.now(), e.delivered_events(), e.log().to_vec()));
            }
            assert!(runs[0].0.is_some(), "{} probe never completed", kind.tag());
            assert_eq!(runs[0], runs[1], "{} probe diverged across calendars", kind.tag());
        }
    }

    #[test]
    fn faulted_probes_stay_identical_across_calendars() {
        let m = CostModel::thompson(8);
        for kind in PROBE_KINDS {
            let mut runs = Vec::new();
            for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
                let plan = FaultPlan::new(17).with_link_fault_rate(0.3);
                let mut e = probe_engine(kind, 8, &m, cal, Some(plan), true);
                e.try_run().unwrap();
                let stats = *e.fault_stats();
                runs.push((e.now(), e.delivered_events(), e.log().to_vec(), stats));
            }
            assert_eq!(runs[0], runs[1], "faulted {} probe diverged", kind.tag());
        }
    }

    #[test]
    fn broadcast_matches_analytic_cost_for_every_model() {
        for k in 1..=6u32 {
            let n = 1usize << k;
            for m in models(n.max(4)) {
                let simulated = broadcast_completion_time(n, &m).unwrap();
                let analytic = m.tree_root_to_leaf(n, m.leaf_pitch());
                assert_eq!(simulated, analytic, "n={n} model={}", m.delay);
            }
        }
    }

    #[test]
    fn send_matches_analytic_cost_and_delivers_word() {
        for n in [2usize, 4, 16, 64] {
            for m in models(n.max(4)) {
                for leaf in [0, n - 1, n / 2] {
                    let (t, v) = send_completion_time(n, leaf, &m).unwrap();
                    assert_eq!(t, m.tree_root_to_leaf(n, m.leaf_pitch()), "n={n}");
                    assert_eq!(v, 0b1101 & ((1 << m.word_bits) - 1));
                }
            }
        }
    }

    #[test]
    fn sum_matches_analytic_cost_and_computes_sum() {
        for k in 1..=5u32 {
            let n = 1usize << k;
            let m = CostModel::thompson(n.max(4));
            let values: Vec<u64> = (0..n as u64).map(|i| i % (1 << m.word_bits)).collect();
            let (t, v) = sum_completion_time(&values, &m).unwrap();
            assert_eq!(v, values.iter().sum::<u64>(), "n={n}");
            assert_eq!(t, m.tree_aggregate(n, m.leaf_pitch()), "n={n}");
        }
    }

    #[test]
    fn sum_works_under_constant_and_linear_models() {
        let values = [3u64, 1, 7, 7];
        for m in models(16) {
            let (t, v) = sum_completion_time(&values, &m).unwrap();
            assert_eq!(v, 18);
            assert_eq!(t, m.tree_aggregate(4, m.leaf_pitch()), "model={}", m.delay);
        }
    }

    #[test]
    fn min_matches_tight_closed_form_and_computes_min() {
        for k in 1..=5u32 {
            let n = 1usize << k;
            let m = CostModel::thompson(n.max(4));
            let values: Vec<u64> =
                (0..n as u64).map(|i| (i * 7 + 3) % (1 << m.word_bits)).collect();
            let (t, v) = min_completion_time(&values, &m).unwrap();
            assert_eq!(v, *values.iter().min().unwrap(), "n={n}");
            assert_eq!(t, expected_min_time(n, &m), "n={n}");
            assert!(t <= m.tree_aggregate(n, m.leaf_pitch()), "charged cost is an upper bound");
        }
    }

    #[test]
    fn min_handles_equal_values() {
        let m = CostModel::thompson(16);
        let (_, v) = min_completion_time(&[5, 5, 5, 5], &m).unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn min_distinguishes_adjacent_values() {
        let m = CostModel::thompson(16);
        let (_, v) = min_completion_time(&[8, 9, 10, 9], &m).unwrap();
        assert_eq!(v, 8);
    }

    #[test]
    fn broadcast_constant_model_is_theta_log() {
        let n = 64;
        let m = CostModel::constant_delay(n);
        let t = broadcast_completion_time(n, &m).unwrap().get();
        assert_eq!(t, 6 + u64::from(m.word_bits) - 1);
    }

    #[test]
    fn one_and_two_leaf_edge_cases() {
        let m = CostModel::thompson(4);
        assert_eq!(broadcast_completion_time(1, &m).unwrap(), BitTime::ZERO);
        let (t, _) = send_completion_time(1, 0, &m).unwrap();
        assert_eq!(t, BitTime::ZERO);
        let (t2, v2) = sum_completion_time(&[1, 2], &m).unwrap();
        assert_eq!(v2, 3);
        assert!(t2.get() > 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn aggregate_rejects_non_power_of_two() {
        let m = CostModel::thompson(8);
        let _ = sum_completion_time(&[1, 2, 3], &m);
    }

    #[test]
    fn leaf_to_leaf_matches_the_composite_cost() {
        for n in [2usize, 8, 32] {
            for m in models(n.max(4)) {
                for leaf in [0, n - 1] {
                    let t = leaf_to_leaf_completion_time(n, leaf, &m).unwrap();
                    assert_eq!(
                        t,
                        m.tree_leaf_to_leaf(n, m.leaf_pitch()),
                        "n={n} leaf={leaf} model={}",
                        m.delay
                    );
                }
            }
        }
    }

    #[test]
    fn single_word_stream_equals_the_send_primitive() {
        for n in [4usize, 16, 64] {
            let m = CostModel::thompson(n);
            assert_eq!(
                stream_completion_time(n, 1, &m).unwrap(),
                m.tree_root_to_leaf(n, m.leaf_pitch()),
                "n={n}"
            );
        }
    }

    #[test]
    fn streams_serialise_one_word_interval_per_extra_word() {
        // d contending words: the root link admits one bit per τ, so each
        // extra word adds exactly w bit-times behind the first.
        for n in [8usize, 32] {
            let m = CostModel::thompson(n);
            let one = stream_completion_time(n, 1, &m).unwrap();
            for d in [2usize, 4, n / 2] {
                let t = stream_completion_time(n, d, &m).unwrap();
                let extra = (t - one).get();
                let expect = (d as u64 - 1) * u64::from(m.word_bits);
                // Bit-level interleaving may finish a little earlier than
                // word-granular accounting, never later than +w.
                assert!(
                    extra <= expect + u64::from(m.word_bits) && extra + expect / 2 >= expect / 2,
                    "n={n} d={d}: extra {extra} vs modeled {expect}"
                );
                assert!(extra >= expect / 2, "n={n} d={d}: extra {extra} vs modeled {expect}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn stream_rejects_too_many_sources() {
        let m = CostModel::thompson(8);
        let _ = stream_completion_time(8, 9, &m);
    }

    #[test]
    fn traced_broadcast_critical_path_matches_the_closed_form_per_level() {
        use orthotrees_obs::causal::SegmentKind;
        for n in [2usize, 8, 32] {
            for m in
                [CostModel::thompson(n), CostModel::constant_delay(n), CostModel::linear_delay(n)]
            {
                let pitch = m.leaf_pitch();
                let (t, trace) = broadcast_traced(n, &m).unwrap();
                assert_eq!(t, m.tree_root_to_leaf(n, pitch), "completion still exact");
                let path = trace.critical_path().unwrap();
                assert!(path.covers_completion(), "n={n} {:?}: {path:?}", m.delay);
                // Wire slices over positive-length links, root level first
                // (the injection feed is the one zero-length wire).
                let wires: Vec<BitTime> = path
                    .wire_segments()
                    .filter(|s| s.link_len.unwrap() > 0)
                    .map(|s| s.duration())
                    .collect();
                let mut expect = m.level_bit_delays(n, pitch);
                expect.reverse(); // closed form is leaf level first
                assert_eq!(wires, expect, "n={n} {:?}", m.delay);
                // Everything else on the path is the injection wire plus the
                // word tail queueing at the first wire entrance.
                let injected = m.delay.wire_bit_delay(0);
                let other = path.kind_total(SegmentKind::QueueWait)
                    + path.kind_total(SegmentKind::NodeCompute)
                    + injected;
                let wire_total: BitTime = wires.iter().copied().sum();
                assert_eq!(wire_total + other, path.completion);
            }
        }
    }

    #[test]
    fn traced_broadcast_of_single_leaf_is_empty() {
        let m = CostModel::thompson(2);
        let (t, trace) = broadcast_traced(1, &m).unwrap();
        assert_eq!(t, BitTime::ZERO);
        assert!(trace.is_empty());
    }

    #[test]
    fn supervised_sum_recovers_the_outage_and_matches_the_clean_run() {
        let values: Vec<u64> = (0..16).collect();
        let m = CostModel::thompson(16);
        let (t_clean, sum_clean) = sum_completion_time(&values, &m).unwrap();
        let policy =
            RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
        let (report, rec, sum) = supervised_sum_recovery(&values, &m, &policy).unwrap();
        assert_eq!(sum, sum_clean);
        assert_eq!(sum, values.iter().sum::<u64>());
        // The total-outage first attempt must trip the supervisor at least
        // once, and the recovered completion time (which includes the
        // injection wire the closed-form comparison subtracts) matches the
        // clean run's.
        assert!(report.rollbacks >= 1, "report: {report:?}");
        assert_eq!(report.attempts, report.rollbacks + 1);
        assert_eq!(report.completion, t_clean + m.delay.wire_bit_delay(0));
        assert!(report.overhead_pct() > 0.0);
        assert!(
            rec.phase_totals().iter().any(|p| p.name == "RECOVERY"),
            "replayed windows must be visible as RECOVERY spans"
        );
    }

    #[test]
    fn scaled_model_broadcast_is_strictly_faster_at_scale() {
        // Scaling is an analytic switch (the event sim models unscaled
        // drivers); verify the analytic claim it encodes instead: Θ(log n)
        // vs the simulated Θ(log² n).
        let n = 1 << 10;
        let m = CostModel::thompson(n);
        let unscaled = broadcast_completion_time(n, &m).unwrap();
        let scaled = m.with_scaling().tree_root_to_leaf(n, m.leaf_pitch());
        assert!(scaled < unscaled);
    }
}
