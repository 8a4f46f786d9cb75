//! The engine observation stream: one event vocabulary for every
//! bit-level instrument.
//!
//! The discrete-event engine of `orthotrees-sim` reports five moments — a
//! wire admission, a link fault, a delivery, a suppressed delivery and an
//! emission hold — as one [`EngineEvent`] each, with plain `usize` ids.
//! Each instrument folds the stream with its own `on_engine`, and
//! [`Probes`] is the one slot the engine holds them in: one branch per
//! emission point, nothing at all on the bare path.

use crate::causal::{CausalTrace, MsgId};
use crate::flight::FlightRecorder;
use crate::profile::Profiler;
use crate::telemetry::Telemetry;
use crate::Recorder;
use orthotrees_vlsi::BitTime;

/// One moment of a bit-level run, as the engine saw it.
pub enum EngineEvent {
    /// Message `msg` was admitted onto `link`. Time tiles as
    /// `trigger_at ≤ ready ≤ enter ≤ arrive`: the emission hold, the
    /// `waited = enter − ready` τ of entrance queueing, the wire delay.
    Admit {
        /// The scheduled bit's id.
        msg: MsgId,
        /// The delivered message whose arrival triggered the emission
        /// (`None` at node start).
        trigger: Option<MsgId>,
        /// Link id.
        link: usize,
        /// The link's physical length in λ.
        link_len: u64,
        /// Arrival time of `trigger` at the emitting node (0 at start).
        trigger_at: BitTime,
        /// Time the node presented the bit at the wire.
        ready: BitTime,
        /// Time the bit entered the wire.
        enter: BitTime,
        /// Time the bit arrives at the far end.
        arrive: BitTime,
        /// τ the bit waited for the wire entrance.
        waited: u64,
    },
    /// The fault plan hit message `msg`, just admitted, due at `arrive`;
    /// `dropped` bits never arrive.
    Fault {
        /// The faulted bit's id.
        msg: MsgId,
        /// Its arrival time.
        arrive: BitTime,
        /// Whether the fault dropped the bit outright.
        dropped: bool,
    },
    /// A bit was delivered.
    Deliver {
        /// What landed where, and when.
        delivery: Delivery,
        /// Links whose entrance is still occupied past the delivery time
        /// (the engine keeps this count in O(1) per event).
        busy_links: u64,
    },
    /// Message `msg` reached a dead node and was discarded.
    Suppress {
        /// The discarded bit's id.
        msg: MsgId,
    },
    /// A node held an emission `hold` τ after its trigger arrived at `at`.
    Compute {
        /// Arrival time of the triggering delivery.
        at: BitTime,
        /// The emission hold in τ.
        hold: u64,
    },
}

/// One delivered bit: what the engine knew when it landed. The flight
/// recorder keeps the last few verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Delivery ordinal over the engine's lifetime (1-based; the
    /// engine's delivered-event counter at this delivery).
    pub seq: u64,
    /// Simulated delivery time.
    pub at: BitTime,
    /// Receiving node id.
    pub node: usize,
    /// Receiving port id.
    pub port: usize,
    /// The delivered bit's value.
    pub value: bool,
    /// The delivered bit's index within its word.
    pub index: u32,
    /// Calendar depth at the delivery (the popped event included).
    pub depth: u64,
}

/// The instruments installed on one engine, fed by a single fan-out.
#[derive(Debug, Default)]
pub struct Probes {
    /// Spans, counters and the engine's per-node / per-link tables.
    pub recorder: Option<Recorder>,
    /// Per-hop provenance for the critical path.
    pub causal: Option<CausalTrace>,
    /// Windowed time series.
    pub profiler: Option<Profiler>,
    /// Streaming counters and quantile sketches.
    pub telemetry: Option<Telemetry>,
    /// Bounded tail of recent deliveries.
    pub flight: Option<FlightRecorder>,
}

impl Probes {
    /// Hands `ev` to every installed instrument.
    pub fn on_engine(&mut self, ev: &EngineEvent) {
        if let Some(r) = &mut self.recorder {
            r.on_engine(ev);
        }
        if let Some(c) = &mut self.causal {
            c.on_engine(ev);
        }
        if let Some(p) = &mut self.profiler {
            p.on_engine(ev);
        }
        if let Some(t) = &mut self.telemetry {
            t.on_engine(ev);
        }
        if let Some(f) = &mut self.flight {
            f.on_engine(ev);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A delivery to port 0 of `node` at `at`, `depth` entries deep.
    pub(crate) fn deliver(at: BitTime, node: usize, depth: u64) -> EngineEvent {
        let delivery = Delivery { seq: 0, at, node, port: 0, value: false, index: 0, depth };
        EngineEvent::Deliver { delivery, busy_links: 0 }
    }

    /// A start-emitted bit entering `link` at `enter` after `waited` τ.
    pub(crate) fn admit(link: usize, enter: BitTime, waited: u64) -> EngineEvent {
        EngineEvent::Admit {
            msg: MsgId(0),
            trigger: None,
            link,
            link_len: 1,
            trigger_at: BitTime::ZERO,
            ready: enter - BitTime::new(waited),
            enter,
            arrive: enter + BitTime::new(1),
            waited,
        }
    }

    #[test]
    fn fan_out_reaches_every_installed_instrument_only() {
        let mut p = Probes { recorder: Some(Recorder::new()), ..Probes::default() };
        p.on_engine(&deliver(BitTime::new(3), 2, 4));
        p.on_engine(&admit(1, BitTime::new(3), 0));
        let rec = p.recorder.as_ref().unwrap();
        assert_eq!(rec.node_activations(), &[0, 0, 1]);
        assert_eq!(rec.links()[1].bits, 1);
        assert!(p.causal.is_none() && p.profiler.is_none(), "nothing else was installed");
    }
}
