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
//!   arrive first");
//! * [`leaf_to_leaf_completion_time`] — the `LEAFTOLEAF` composite, up
//!   through a buffering root and back down;
//! * [`stream_completion_time`] — §IV converging streams contending for
//!   the upper links.
//!
//! Two instrumented forms take a setup closure that fits the engine with
//! instruments (`|e| e.with_recorder(Recorder::new())`, …) and return the
//! engine, from which the caller takes them with `Engine::take_*`:
//!
//! * [`broadcast`] — the `ROOTTOLEAF` run;
//! * [`supervised_sum_recovery`] — `SUM-LEAFTOROOT` recovering from a
//!   root-sink outage under the crash-recovery supervisor.
//!
//! Every runner and [`probe_engine`] build their tree in one place, so a
//! probe is node for node the run its runner measures.

use crate::calendar::CalendarKind;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::node::{Bit, NodeBehavior, NodeId, Outbox, PortId};
use crate::recovery::{supervise_engine, RecoveryPolicy, RecoveryReport};
use crate::snapshot::{
    bad, opt_u64_to_json, req_bool, req_opt_u64, req_u32, req_word, word_to_json,
};
use orthotrees_obs::json::Json;
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel, ModelError, SimError};

// ----------------------------------------------------------------------
// Checkpoint helpers for the stateful node behaviours below, beside the
// shared field codec of `crate::snapshot`: a per-slot option-of-bit vector
// travels as a compact `'0'/'1'/'.'` string.
// ----------------------------------------------------------------------

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
        .ok_or_else(|| bad(format!("node state missing bit-vector `{key}`")))?;
    if text.len() != into.len() {
        return Err(bad(format!(
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
            other => return Err(bad(format!("bit-vector `{key}` holds `{other}`"))),
        };
    }
    Ok(())
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

/// Streams every bit of a `width`-bit word from the parent down to both
/// children (broadcast IP).
struct DownRepeater {
    width: u32,
}
impl NodeBehavior for DownRepeater {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(TO_LEFT, bit);
        out.send(TO_RIGHT, bit);
    }
    fn accepts_bit(&self, _: PortId, index: u32) -> bool {
        index < self.width
    }
}

/// Streams every bit of a `width`-bit word from whichever child sent it
/// up to the parent (LEAFTOROOT IP: only one leaf is selected, so no
/// collision occurs).
struct UpRepeater {
    width: u32,
}
impl NodeBehavior for UpRepeater {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(TO_PARENT, bit);
    }
    fn accepts_bit(&self, _: PortId, index: u32) -> bool {
        index < self.width
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
            // Below 64: the builder caps words at 64 bits, a multi-word
            // stream sink sees each word's own indices `0..w`, and a
            // restored bit must pass `accepts_bit`.
            let pos = if self.lsb_first { bit.index } else { self.width - 1 - bit.index };
            self.word |= 1 << pos;
        }
        self.got += 1;
        if self.got == self.width {
            self.done = Some(now);
        }
    }
    fn accepts_bit(&self, _: PortId, index: u32) -> bool {
        index < self.width.min(u64::BITS)
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
            ("done", opt_u64_to_json(self.done.map(BitTime::get))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.got = req_u32(state, "got")?;
        self.word = req_word(state, "word")?;
        self.done = req_opt_u64(state, "done")?.map(BitTime::new);
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
    fn accepts_bit(&self, port: PortId, index: u32) -> bool {
        two_operand_bit(port, index, self.left.len())
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
        self.carry = req_bool(state, "carry")?;
        self.next = req_u32(state, "next")?;
        Ok(())
    }
}

/// Whether a two-operand IP (adder, minimum) of `width`-bit operands can
/// take bit `index` on `port`: a child input, within the operand.
fn two_operand_bit(port: PortId, index: u32, width: usize) -> bool {
    matches!(port, FROM_LEFT | FROM_RIGHT) && (index as usize) < width
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
    fn accepts_bit(&self, port: PortId, index: u32) -> bool {
        two_operand_bit(port, index, self.left.len())
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("left", tri_encode(&self.left)),
            ("right", tri_encode(&self.right)),
            ("winner", opt_u64_to_json(self.winner.map(|p| p.0 as u64))),
            ("next", Json::u64(u64::from(self.next))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        tri_decode(state, "left", &mut self.left)?;
        tri_decode(state, "right", &mut self.right)?;
        self.winner = req_opt_u64(state, "winner")?.map(|p| PortId(p as usize));
        self.next = req_u32(state, "next")?;
        Ok(())
    }
}

/// Builds a complete binary tree over `leaves` (a power of two) leaf nodes
/// with wires of length `pitch · 2^(h−1)` at level `h`, wired downward
/// (parent to children) or upward; returns the root.
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
) -> NodeId {
    let mut level: Vec<NodeId> = (0..leaves).map(|i| engine.add_node(make_leaf(i))).collect();
    for h in 1..=log2_ceil(leaves as u64) {
        let wire = pitch << (h - 1);
        level = level
            .chunks(2)
            .map(|pair| {
                let node = engine.add_node(make_inner(h));
                let (l, r) = (pair[0], pair[1]);
                if downward {
                    engine.connect(node, TO_LEFT, l, FROM_PARENT, wire);
                    engine.connect(node, TO_RIGHT, r, FROM_PARENT, wire);
                } else {
                    engine.connect(l, TO_PARENT, node, FROM_LEFT, wire);
                    engine.connect(r, TO_PARENT, node, FROM_RIGHT, wire);
                }
                node
            })
            .collect();
    }
    level[0]
}

/// A relay tree carrying words up to its root: leaf `i` sends `word(i)`
/// LSB-first, or stays idle on `None`.
fn up_tree(
    e: &mut Engine,
    leaves: usize,
    m: &CostModel,
    w: u32,
    word: impl Fn(usize) -> Option<u64>,
) -> NodeId {
    build_tree(
        e,
        leaves,
        m.leaf_pitch(),
        false,
        &mut |i| match word(i) {
            Some(word) => Box::new(WordSource { word, width: w, lsb_first: true, port: TO_PARENT }),
            None => Box::new(IdleLeaf),
        },
        &mut |_| Box::new(UpRepeater { width: w }),
    )
}

/// A broadcast tree streaming whatever its root receives down to `w`-bit
/// sink leaves.
fn down_tree(e: &mut Engine, leaves: usize, m: &CostModel, w: u32) -> NodeId {
    build_tree(
        e,
        leaves,
        m.leaf_pitch(),
        true,
        &mut |_| Box::new(WordSink::new(w, true)),
        &mut |_| Box::new(DownRepeater { width: w }),
    )
}

/// A root sink assembling a `width`-bit word above `root`, fed through a
/// zero-length wire whose one receiving latch the measurement subtracts.
fn sink_above(e: &mut Engine, root: NodeId, width: u32, lsb_first: bool) -> Built {
    let sink = e.add_node(Box::new(WordSink::new(width, lsb_first)));
    e.connect(root, TO_PARENT, sink, FROM_LEFT, 0);
    Built::Run { sink: Some(sink), latches: 1 }
}

/// The model's word width `w` and its mask, for words of at most 64 bits.
fn word_width(m: &CostModel) -> Result<(u32, u64), ModelError> {
    let w = m.word_bits.max(1);
    ModelError::require_at_least("host word bits (word width)", 64, w as usize)?;
    Ok((w, u64::MAX >> (64 - w)))
}

/// One primitive's topology, as [`build`] adds it to an engine.
#[derive(Clone, Copy)]
enum Shape<'a> {
    /// `ROOTTOLEAF`: a source above the root of a tree of sink leaves.
    Broadcast,
    /// `LEAFTOROOT`: leaf `source` relays one word up to a root sink.
    Send { source: usize },
    /// `SUM-` (LSB-first, widened) or `MIN-LEAFTOROOT` (MSB-first) of one
    /// value per leaf into a root sink.
    Aggregate { values: &'a [u64], sum: bool },
    /// `LEAFTOLEAF`: leaf `source` up the tree into a buffering turnaround,
    /// back down to every leaf.
    LeafToLeaf { source: usize },
    /// The first `count` leaves each send one word up to a shared root sink.
    Streams { count: usize },
}

/// What [`build`] added to the engine.
enum Built {
    /// A one-leaf `ROOTTOLEAF`/`LEAFTOROOT`: the word is already where it is
    /// going, so nothing runs.
    Free(u64),
    /// A tree to run: the root sink holding the primitive's word (none when
    /// the leaves are measured), and the zero-length latches on the measured
    /// path, which the completion time must not count.
    Run { sink: Option<NodeId>, latches: u64 },
}

/// Adds `shape` over `leaves` leaves to `e`, after validating it: a
/// power-of-two tree (at least two leaves unless a broadcast or send), a
/// source leaf in range, `1 ≤ count ≤ leaves` streams, and every word —
/// values and the widened sum included — within both the model's word and
/// 64 bits.
///
/// Node and link order is part of the contract: snapshots, event logs and
/// node-targeted fault plans address nodes by insertion index.
fn build(e: &mut Engine, shape: Shape, leaves: usize, m: &CostModel) -> Result<Built, SimError> {
    ModelError::require_power_of_two("tree leaf count", leaves)?;
    if !matches!(shape, Shape::Broadcast | Shape::Send { .. }) {
        ModelError::require_at_least("tree leaf count", leaves, 2)?;
    }
    let (w, mask) = word_width(m)?;
    match shape {
        Shape::Broadcast => {}
        Shape::Send { source } | Shape::LeafToLeaf { source } => {
            let min = source.saturating_add(1);
            ModelError::require_at_least("leaf count (source leaf + 1)", leaves, min)?;
        }
        Shape::Aggregate { values, .. } => {
            for &v in values {
                let bits = 64 - v.leading_zeros() as usize;
                ModelError::require_at_least("word bits (value width)", w as usize, bits)?;
            }
        }
        Shape::Streams { count } => {
            ModelError::require_at_least("stream count", count, 1)?;
            ModelError::require_at_least("leaf count (stream count)", leaves, count)?;
        }
    }
    Ok(match shape {
        Shape::Broadcast => {
            let root = down_tree(e, leaves, m, w);
            if leaves == 1 {
                return Ok(Built::Free(0b1011));
            }
            let src = e.add_node(Box::new(WordSource {
                word: 0b1011,
                width: w,
                lsb_first: true,
                port: TO_PARENT,
            }));
            e.connect(src, TO_PARENT, root, FROM_PARENT, 0);
            Built::Run { sink: None, latches: 1 }
        }
        Shape::Send { source } => {
            let word = 0b1101 & mask;
            if leaves == 1 {
                return Ok(Built::Free(word));
            }
            let root = up_tree(e, leaves, m, w, |i| (i == source).then_some(word));
            sink_above(e, root, w, true)
        }
        Shape::Aggregate { values, sum } => {
            let width = if sum { w + log2_ceil(leaves as u64) } else { w };
            ModelError::require_at_least("host word bits (widened word)", 64, width as usize)?;
            let root = build_tree(
                e,
                leaves,
                m.leaf_pitch(),
                false,
                &mut |i| {
                    Box::new(WordSource { word: values[i], width, lsb_first: sum, port: TO_PARENT })
                },
                &mut |_| {
                    if sum {
                        Box::new(SerialAdder::new(width))
                    } else {
                        Box::new(SerialMin::new(width))
                    }
                },
            );
            sink_above(e, root, width, sum)
        }
        Shape::LeafToLeaf { source } => {
            let word = 0b1010_0110 & mask;
            let up_root = up_tree(e, leaves, m, w, |i| (i == source).then_some(word));
            let down_root = down_tree(e, leaves, m, w);
            // Glue: the up-root forwards into the down-root through two
            // zero-length wires, both latches subtracted.
            let turn = e.add_node(Box::new(TurnAround { expected: w, buffered: Vec::new() }));
            e.connect(up_root, TO_PARENT, turn, FROM_LEFT, 0);
            e.connect(turn, TO_PARENT, down_root, FROM_PARENT, 0);
            Built::Run { sink: None, latches: 2 }
        }
        Shape::Streams { count } => {
            let root = up_tree(e, leaves, m, w, |i| (i < count).then_some(i as u64 & mask));
            sink_above(e, root, w * count as u32, true)
        }
    })
}

/// Builds `shape` on a fresh engine `setup` has fitted with its
/// instruments, runs it, and returns the completion time less the
/// injection latches, the root sink's word (`0` without a sink) and the
/// engine. `what` names the awaited completion in the error.
fn run(
    shape: Shape,
    leaves: usize,
    m: &CostModel,
    what: &'static str,
    setup: impl FnOnce(Engine) -> Engine,
) -> Result<(BitTime, u64, Engine), SimError> {
    let mut e = setup(Engine::new(m.delay));
    let (sink, latches) = match build(&mut e, shape, leaves, m)? {
        Built::Free(word) => return Ok((BitTime::ZERO, word, e)),
        Built::Run { sink, latches } => (sink, latches),
    };
    e.try_run()?;
    let done = e.completion_time().ok_or(SimError::NoCompletion { what })?;
    let word = match sink {
        Some(sink) => e.node(sink).result().ok_or(SimError::NoCompletion { what })?,
        None => 0,
    };
    Ok((done - m.delay.wire_bit_delay(0).times(latches), word, e))
}

/// Simulates `ROOTTOLEAF` of one `m.word_bits`-bit word over a tree of
/// `leaves` leaves at the model's pitch; returns the time the last leaf
/// holds the complete word.
///
/// # Errors
///
/// Returns [`SimError::Model`] if `leaves` is not a power of two or the
/// word is wider than 64 bits, and another [`SimError`] if the run budget
/// trips or the network goes quiescent before every leaf holds the word.
pub fn broadcast_completion_time(leaves: usize, m: &CostModel) -> Result<BitTime, SimError> {
    broadcast(leaves, m, |e| e).map(|(t, _)| t)
}

/// [`broadcast_completion_time`] on an engine `setup` has fitted with its
/// instruments (for example `|e| e.with_recorder(Recorder::new())`);
/// returns the completion time and the engine, from which the caller takes
/// the instruments with the `Engine::take_*` methods. For a 1-leaf tree the
/// broadcast is free and the engine never runs.
///
/// # Errors
///
/// Same conditions as [`broadcast_completion_time`].
pub fn broadcast(
    leaves: usize,
    m: &CostModel,
    setup: impl FnOnce(Engine) -> Engine,
) -> Result<(BitTime, Engine), SimError> {
    run(Shape::Broadcast, leaves, m, "broadcast leaves", setup).map(|(t, _, e)| (t, e))
}

/// Simulates `LEAFTOROOT` from leaf `source_leaf`; returns the time the root
/// holds the complete word, and the word (for functional verification).
///
/// # Errors
///
/// Returns [`SimError::Model`] if `leaves` is not a power of two,
/// `source_leaf` is out of range or the word is wider than 64 bits, and
/// another [`SimError`] if the run budget trips or the root sink never
/// assembles the full word.
pub fn send_completion_time(
    leaves: usize,
    source_leaf: usize,
    m: &CostModel,
) -> Result<(BitTime, u64), SimError> {
    run(Shape::Send { source: source_leaf }, leaves, m, "root sink", |e| e).map(|(t, v, _)| (t, v))
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
/// Returns [`SimError::Model`] if `values.len()` is not a power of two
/// ≥ 2, a value needs more than `m.word_bits` bits, or the widened width
/// exceeds 64 bits; another [`SimError`] if the run budget trips or the
/// root sink never assembles the aggregate.
pub fn sum_completion_time(values: &[u64], m: &CostModel) -> Result<(BitTime, u64), SimError> {
    let shape = Shape::Aggregate { values, sum: true };
    run(shape, values.len(), m, "aggregate root", |e| e).map(|(t, v, _)| (t, v))
}

/// Simulates `MIN-LEAFTOROOT` (MSB-first); returns completion time and the
/// computed minimum. The transmitted width is the plain word width `w` (no
/// widening — minima do not grow).
///
/// # Errors
///
/// Same conditions as [`sum_completion_time`], with the plain width in
/// place of the widened one.
pub fn min_completion_time(values: &[u64], m: &CostModel) -> Result<(BitTime, u64), SimError> {
    let shape = Shape::Aggregate { values, sum: false };
    run(shape, values.len(), m, "aggregate root", |e| e).map(|(t, v, _)| (t, v))
}

/// Runs `SUM-LEAFTOROOT` under the crash-recovery supervisor with a
/// deterministic mid-run outage injected at the root sink, on an engine
/// `setup` has fitted with its instruments.
///
/// A clean run first establishes the completion time `T`; the supervised
/// run then faces an outage over `[1, T)` that silently swallows every
/// delivery to the sink, so the first attempt always goes quiescent
/// without completing. The supervisor detects that as a failure, rolls
/// back (escalating past checkpoints poisoned by mid-outage state, all
/// the way to the pristine pre-start snapshot if needed), lets the heal
/// hook clear the fault plan, and replays to completion. Returns the
/// [`RecoveryReport`], the engine (a [`Recorder`] on it holds the run's
/// `RECOVERY` spans; a flight recorder, one post-mortem per rollback) and
/// the computed sum; the recovered completion time equals the clean run's
/// (replay costs wall clock, not simulated time).
///
/// # Errors
///
/// Returns [`SimError`] under the conditions of [`sum_completion_time`],
/// or if the supervised run exhausts [`RecoveryPolicy::max_attempts`].
///
/// [`Recorder`]: orthotrees_obs::Recorder
pub fn supervised_sum_recovery(
    values: &[u64],
    m: &CostModel,
    policy: &RecoveryPolicy,
    setup: impl FnOnce(Engine) -> Engine,
) -> Result<(RecoveryReport, Engine, u64), SimError> {
    let (clean, _) = sum_completion_time(values, m)?;
    let mut e = Engine::new(m.delay);
    let shape = Shape::Aggregate { values, sum: true };
    let Built::Run { sink: Some(sink), .. } = build(&mut e, shape, values.len(), m)? else {
        unreachable!("an aggregate tree ends in a root sink")
    };
    // The outage spans the clean run, injection latch included.
    let until = BitTime::new((clean + m.delay.wire_bit_delay(0)).get().max(2));
    let plan = FaultPlan::new(1).with_outage(sink, BitTime::new(1), until);
    let mut e = setup(e).with_fault_plan(plan);
    let report = supervise_engine(&mut e, policy, |e, _failures| e.set_fault_plan(None))?;
    let v = e.node(sink).result().ok_or(SimError::NoCompletion { what: "aggregate word" })?;
    Ok((report, e, v))
}

/// Simulates a full `LEAFTOLEAF` composite at bit level: one word travels
/// from `source_leaf` up to the root, which buffers it and sends it back
/// down to every leaf (the paper's primary store-and-forward description;
/// §II.B). Returns the time the last leaf holds the complete word, which
/// must equal [`CostModel::tree_leaf_to_leaf`].
///
/// # Errors
///
/// Returns [`SimError::Model`] if `leaves` is not a power of two ≥ 2,
/// `source_leaf` is out of range or the word is wider than 64 bits, and
/// another [`SimError`] if the run budget trips or the network goes
/// quiescent before every leaf holds the word.
pub fn leaf_to_leaf_completion_time(
    leaves: usize,
    source_leaf: usize,
    m: &CostModel,
) -> Result<BitTime, SimError> {
    let shape = Shape::LeafToLeaf { source: source_leaf };
    run(shape, leaves, m, "destination leaves", |e| e).map(|(t, _, _)| t)
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
    fn accepts_bit(&self, _: PortId, index: u32) -> bool {
        index < self.expected
    }
    fn save_state(&self) -> Json {
        Json::arr(
            self.buffered
                .iter()
                .map(|b| Json::arr([Json::bool(b.value), Json::u64(u64::from(b.index))])),
        )
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        let rows = state.as_arr().ok_or_else(|| bad("turnaround state is not an array"))?;
        self.buffered.clear();
        for row in rows {
            let pair = row
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("turnaround entry is not a [value, index] pair"))?;
            self.buffered.push(Bit {
                value: pair[0]
                    .as_bool()
                    .ok_or_else(|| bad("turnaround bit value is not a boolean"))?,
                index: u32::try_from(
                    pair[1]
                        .as_u64()
                        .ok_or_else(|| bad("turnaround bit index is not an integer"))?,
                )
                .map_err(|_| bad("turnaround bit index exceeds u32"))?,
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
/// Returns [`SimError::Model`] unless `leaves` is a power of two ≥ 2,
/// `1 ≤ stream_count ≤ leaves` and the word fits in 64 bits, and another
/// [`SimError`] if the run budget trips or the root never receives all
/// `stream_count · w` bits.
pub fn stream_completion_time(
    leaves: usize,
    stream_count: usize,
    m: &CostModel,
) -> Result<BitTime, SimError> {
    let shape = Shape::Streams { count: stream_count };
    run(shape, leaves, m, "converging streams", |e| e).map(|(t, _, _)| t)
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
/// identity checks rely on exactly this. Each probe is the tree its
/// runner measures (sources at leaf 0; every leaf streams), and for the
/// aggregate probes (`Sum`/`Min`) the root sink is the last node added,
/// which is how the recovery soaks target it with outages.
///
/// # Panics
///
/// Panics unless `leaves` is a power of two ≥ 2 and the model's word (for
/// `Sum`, widened by `log₂ leaves`) fits in 64 bits.
pub fn probe_engine(
    kind: ProbeKind,
    leaves: usize,
    m: &CostModel,
    calendar: CalendarKind,
    plan: Option<FaultPlan>,
    log: bool,
) -> Engine {
    assert!(leaves.is_power_of_two() && leaves >= 2, "need a power-of-two tree >= 2");
    let mut e = Engine::new(m.delay).with_calendar(calendar);
    if log {
        e = e.with_event_log();
    }
    if let Some(p) = plan {
        e = e.with_fault_plan(p);
    }
    let (_, mask) = word_width(m).expect("probe word exceeds 64 bits");
    let values: Vec<u64> = (0..leaves as u64).map(|i| (i * 7 + 3) & mask).collect();
    let shape = match kind {
        ProbeKind::Broadcast => Shape::Broadcast,
        ProbeKind::Send => Shape::Send { source: 0 },
        ProbeKind::Sum => Shape::Aggregate { values: &values, sum: true },
        ProbeKind::Min => Shape::Aggregate { values: &values, sum: false },
        ProbeKind::LeafToLeaf => Shape::LeafToLeaf { source: 0 },
        ProbeKind::Stream => Shape::Streams { count: leaves },
    };
    build(&mut e, shape, leaves, m).expect("probe shape is valid");
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
    use crate::RunRecord;
    use orthotrees_obs::Recorder;

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
                runs.push(RunRecord::of(&e));
            }
            assert!(runs[0].completion.is_some(), "{} probe never completed", kind.tag());
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
                runs.push(RunRecord::of(&e));
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
    fn aggregate_rejects_non_power_of_two() {
        let m = CostModel::thompson(8);
        assert_eq!(
            sum_completion_time(&[1, 2, 3], &m),
            Err(SimError::Model(ModelError::NotPowerOfTwo { what: "tree leaf count", value: 3 }))
        );
    }

    #[test]
    fn words_use_all_sixty_four_bits() {
        // The widened sum of two 63-bit words fills bit 63.
        let m = CostModel::thompson(2).with_word_bits(63);
        let (_, v) = sum_completion_time(&[1 << 62, 1 << 62], &m).unwrap();
        assert_eq!(v, 1 << 63);
        // A 64-bit word carries values up to the top bit, and its mask keeps
        // every bit of the sent word.
        let m = CostModel::thompson(4).with_word_bits(64);
        assert_eq!(min_completion_time(&[5, 1 << 63, 7, 9], &m).unwrap().1, 5);
        assert_eq!(send_completion_time(4, 1, &m).unwrap().1, 0b1101);
        // Past 64 bits the widened sum is a typed error, not a truncation.
        assert_eq!(
            sum_completion_time(&[1, 2], &m),
            Err(SimError::Model(ModelError::TooSmall {
                what: "host word bits (widened word)",
                value: 64,
                min: 65
            }))
        );
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
    fn stream_rejects_too_many_sources() {
        let m = CostModel::thompson(8);
        assert_eq!(
            stream_completion_time(8, 9, &m),
            Err(SimError::Model(ModelError::TooSmall {
                what: "leaf count (stream count)",
                value: 8,
                min: 9
            }))
        );
    }

    #[test]
    fn traced_broadcast_critical_path_matches_the_closed_form_per_level() {
        use orthotrees_obs::causal::SegmentKind;
        for n in [2usize, 8, 32] {
            for m in
                [CostModel::thompson(n), CostModel::constant_delay(n), CostModel::linear_delay(n)]
            {
                let pitch = m.leaf_pitch();
                let (t, mut e) = broadcast(n, &m, Engine::with_causal_trace).unwrap();
                let trace = e.take_causal_trace().unwrap();
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
        let (t, mut e) = broadcast(1, &m, Engine::with_causal_trace).unwrap();
        let trace = e.take_causal_trace().unwrap();
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
        let (report, mut e, sum) =
            supervised_sum_recovery(&values, &m, &policy, |e| e.with_recorder(Recorder::new()))
                .unwrap();
        let rec = e.take_recorder().unwrap();
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
