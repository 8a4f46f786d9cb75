//! Nodes: the active elements of the bit-level simulation.
//!
//! A node is a processor (BP or IP) or any other clocked element. It reacts
//! to arriving bits by emitting bits on its output ports; the engine routes
//! emissions over [`Link`](crate::Link)s with model-priced delays.

use orthotrees_obs::json::Json;
use orthotrees_vlsi::{BitTime, SimError};

/// Identifies a node within an [`Engine`](crate::Engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies one of a node's output ports.
///
/// Ports are small dense integers assigned by the experiment builder (e.g.
/// for a tree IP: port 0 = parent, ports 1–2 = children).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// One bit on a wire, tagged with its index within the word it belongs to.
///
/// The index lets bit-serial arithmetic nodes (adders, comparators) know
/// which position of the operand has arrived without any out-of-band
/// signalling — exactly the convention of LSB-first (SUM) and MSB-first
/// (MIN) transmission the paper describes in §VII.D.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Bit {
    /// The bit value.
    pub value: bool,
    /// Position of this bit within its word (0 = first transmitted).
    pub index: u32,
}

/// Bits a node wants to emit, collected during one activation.
///
/// Each entry is `(port, bit, hold)` where `hold` is an extra local delay
/// before the bit enters the port's wire (e.g. one gate delay of a serial
/// adder stage).
#[derive(Debug, Default)]
pub struct Outbox {
    pub(crate) emissions: Vec<(PortId, Bit, BitTime)>,
}

impl Outbox {
    /// Emits `bit` on `port` immediately.
    pub fn send(&mut self, port: PortId, bit: Bit) {
        self.emissions.push((port, bit, BitTime::ZERO));
    }

    /// Emits `bit` on `port` after an extra local delay `hold` (gate delays
    /// inside the node, e.g. the full-adder latch of a SUM IP).
    pub fn send_after(&mut self, port: PortId, bit: Bit, hold: BitTime) {
        self.emissions.push((port, bit, hold));
    }

    /// Number of queued emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }
}

/// Behaviour of a node: how it reacts to the start of simulation and to
/// arriving bits.
pub trait NodeBehavior {
    /// Called once at time zero; sources emit their words here.
    fn on_start(&mut self, _out: &mut Outbox) {}

    /// Called when a bit arrives on input port `port` at time `now`.
    fn on_bit(&mut self, now: BitTime, port: PortId, bit: Bit, out: &mut Outbox);

    /// Whether this node can take a bit of index `index` on input `port`
    /// — the vetting [`Engine::restore`](crate::Engine::restore) applies
    /// to every pending event of a snapshot before it touches any state.
    /// The default accepts every bit. Nodes that index a buffer by bit
    /// index, or accept only some ports, override it so a hostile
    /// snapshot is refused instead of panicking in
    /// [`on_bit`](NodeBehavior::on_bit).
    fn accepts_bit(&self, _port: PortId, _index: u32) -> bool {
        true
    }

    /// Completion probe: a sink reports when it has received a full word.
    /// The engine records the latest completion time over all nodes.
    fn completed_at(&self) -> Option<BitTime> {
        None
    }

    /// Result probe: a sink that assembles a word reports its value, so
    /// experiments can verify functional correctness (e.g. a bit-serial SUM
    /// tree really computed the sum).
    fn result(&self) -> Option<u64> {
        None
    }

    /// Serializes the node's *mutable* run state for a checkpoint.
    ///
    /// The default returns [`Json::Null`], which is correct for stateless
    /// nodes (repeaters, sources that emit everything in
    /// [`on_start`](NodeBehavior::on_start)). Stateful nodes — anything
    /// with accumulators, buffers or completion latches — must override
    /// both this and [`load_state`](NodeBehavior::load_state), or a
    /// restored run diverges from the uninterrupted one (the CKPT-001
    /// verify rule catches exactly that).
    fn save_state(&self) -> Json {
        Json::Null
    }

    /// Restores the node's mutable run state from a checkpoint previously
    /// produced by [`save_state`](NodeBehavior::save_state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] if `state` is not something
    /// this node type could have saved. The default accepts only
    /// [`Json::Null`] (the stateless encoding).
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        match state {
            Json::Null => Ok(()),
            other => Err(SimError::SnapshotFormat {
                detail: format!("stateless node handed saved state {}", other.render()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_emissions_in_order() {
        let mut out = Outbox::default();
        assert!(out.is_empty());
        out.send(PortId(0), Bit { value: true, index: 0 });
        out.send_after(PortId(1), Bit { value: false, index: 1 }, BitTime::new(2));
        assert_eq!(out.len(), 2);
        assert_eq!(out.emissions[0].0, PortId(0));
        assert_eq!(out.emissions[1].2, BitTime::new(2));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeId(1));
        s.insert(NodeId(1));
        s.insert(NodeId(2));
        assert_eq!(s.len(), 2);
        assert!(NodeId(1) < NodeId(2));
        assert!(PortId(0) < PortId(3));
    }
}
