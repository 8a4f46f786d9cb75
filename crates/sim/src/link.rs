//! Links: wires with length, delay and single-bit-per-τ pipelining.
//!
//! A link models one unidirectional wire of the layout. Its per-bit latency
//! comes from the active [`DelayModel`](orthotrees_vlsi::DelayModel) applied
//! to its physical `length`; its *occupancy* models Thompson's pipelining
//! rule: the wire accepts at most one bit per bit-time, so a `w`-bit word
//! enters over `w` consecutive τ and the last bit arrives `w − 1` after the
//! first.

use crate::node::{NodeId, PortId};
use orthotrees_vlsi::{BitTime, DelayModel};

/// Identifies a link within an [`Engine`](crate::Engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// A unidirectional wire from a node's output port to another node's input
/// port.
#[derive(Clone, Debug)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Source port (on `from`).
    pub from_port: PortId,
    /// Destination node.
    pub to: NodeId,
    /// Destination port (on `to`).
    pub to_port: PortId,
    /// Physical wire length in λ.
    pub length: u64,
    /// Earliest time the wire entrance is free again (pipelining state).
    pub(crate) free_at: BitTime,
}

impl Link {
    /// Creates an idle link.
    pub fn new(from: NodeId, from_port: PortId, to: NodeId, to_port: PortId, length: u64) -> Self {
        Link { from, from_port, to, to_port, length, free_at: BitTime::ZERO }
    }

    /// Earliest time the wire entrance is free again: a bit presented
    /// before this waits for it.
    pub fn free_at(&self) -> BitTime {
        self.free_at
    }

    /// Per-bit traversal latency under `model`.
    pub fn bit_delay(&self, model: DelayModel) -> BitTime {
        model.wire_bit_delay(self.length)
    }

    /// Admits one bit presented at `ready`: returns its arrival time at the
    /// far end and updates the pipelining state. If the entrance is still
    /// occupied by the previous bit, the new bit waits.
    pub(crate) fn admit(&mut self, ready: BitTime, model: DelayModel) -> BitTime {
        let enter = ready.max(self.free_at);
        self.free_at = enter + BitTime::new(1);
        enter + self.bit_delay(model)
    }
}

/// The number of links whose entrance is occupied past a moving clock,
/// kept in O(1) amortized per admission and per delivery instead of an
/// O(links) scan of `free_at`.
///
/// A ring holds, for each τ `t` in `(at, at + ring.len())`, how many
/// links become free at exactly `t`. An admission moves its link from
/// the old release slot (or from idle) to the new one; advancing the
/// clock releases the slots it passes. Every admission frees its link
/// strictly after the clock, because bits are presented no earlier than
/// the delivery that triggered them.
#[derive(Debug, Default)]
pub(crate) struct BusyLinks {
    at: u64,
    busy: u64,
    /// Release counts, indexed by `t & (len − 1)`; the length is a power
    /// of two (or 0 before the first rebuild).
    ring: Vec<u32>,
}

impl BusyLinks {
    /// Recounts from the link table with the clock at `at`.
    pub(crate) fn rebuild(&mut self, links: &[Link], at: BitTime) {
        let at = at.get();
        let horizon = links.iter().map(|l| l.free_at.get().saturating_sub(at)).max().unwrap_or(0);
        self.at = at;
        self.busy = 0;
        self.ring.clear();
        self.ring.resize((horizon + 1).next_power_of_two().max(64) as usize, 0);
        let mask = self.ring.len() as u64 - 1;
        for l in links.iter().filter(|l| l.free_at.get() > at) {
            self.busy += 1;
            self.ring[(l.free_at.get() & mask) as usize] += 1;
        }
    }

    /// Moves one link's release from `was` to `now_free` (`> at`).
    pub(crate) fn admit(&mut self, was: BitTime, now_free: BitTime) {
        let (was, now_free) = (was.get(), now_free.get());
        debug_assert!(now_free > self.at, "an admission frees its link after the clock");
        let mask = self.ring.len() as u64 - 1;
        if was > self.at {
            self.ring[(was & mask) as usize] -= 1;
        } else {
            self.busy += 1;
        }
        if now_free - self.at > mask {
            self.grow(now_free - self.at);
        }
        let mask = self.ring.len() as u64 - 1;
        self.ring[(now_free & mask) as usize] += 1;
    }

    /// Advances the clock to `to` (never backwards) and returns the links
    /// still busy past it.
    pub(crate) fn advance(&mut self, to: BitTime) -> u64 {
        let to = to.get();
        debug_assert!(to >= self.at, "the tally clock never runs backwards");
        let mask = self.ring.len() as u64 - 1;
        if to.saturating_sub(self.at) > mask {
            self.ring.fill(0);
            self.busy = 0;
        } else {
            for t in self.at + 1..=to {
                let slot = &mut self.ring[(t & mask) as usize];
                self.busy -= u64::from(*slot);
                *slot = 0;
            }
        }
        self.at = self.at.max(to);
        self.busy
    }

    /// Re-buckets into a ring long enough for a release `ahead` τ out.
    fn grow(&mut self, ahead: u64) {
        let old = std::mem::take(&mut self.ring);
        let old_mask = old.len() as u64 - 1;
        self.ring.resize(((ahead + 1).next_power_of_two() as usize).max(2 * old.len()), 0);
        let mask = self.ring.len() as u64 - 1;
        for t in self.at + 1..=self.at + old_mask {
            self.ring[(t & mask) as usize] = old[(t & old_mask) as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(length: u64) -> Link {
        Link::new(NodeId(0), PortId(0), NodeId(1), PortId(0), length)
    }

    #[test]
    fn bits_pipeline_one_per_tau() {
        let mut l = link(1024); // log delay = 11
        let m = DelayModel::Logarithmic;
        let a0 = l.admit(BitTime::ZERO, m);
        let a1 = l.admit(BitTime::ZERO, m); // presented simultaneously: queues
        let a2 = l.admit(BitTime::ZERO, m);
        assert_eq!(a0.get(), 11);
        assert_eq!(a1.get(), 12);
        assert_eq!(a2.get(), 13);
    }

    #[test]
    fn idle_wire_admits_immediately() {
        let mut l = link(4);
        let m = DelayModel::Logarithmic;
        let a = l.admit(BitTime::new(100), m);
        assert_eq!(a.get(), 100 + 3);
        // Much later bit sees a free wire again.
        let b = l.admit(BitTime::new(200), m);
        assert_eq!(b.get(), 203);
    }

    #[test]
    fn constant_model_hides_length() {
        let mut l = link(1 << 20);
        assert_eq!(l.admit(BitTime::ZERO, DelayModel::Constant).get(), 1);
    }

    #[test]
    fn linear_model_charges_length() {
        let mut l = link(64);
        assert_eq!(l.admit(BitTime::ZERO, DelayModel::Linear).get(), 64);
    }
}
