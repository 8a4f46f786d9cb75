//! Engine determinism checker: do same-timestamp events commute?
//!
//! The event engine breaks timestamp ties FIFO (by scheduling sequence).
//! A *correct* network never depends on that order: two bits delivered at
//! the same τ to the same node must produce the same end state whichever
//! is processed first, or the "simulation" is really measuring an artifact
//! of the queue implementation.
//!
//! [`check_commutes`] runs the same network twice — once with the default
//! FIFO tie-break and once with the engine's LIFO verification knob
//! ([`Engine::with_lifo_ties`]) — and compares the two [`RunRecord`]s,
//! taking the delivered events as a *multiset*. Any divergence is a DET-001
//! finding: somewhere a pair of simultaneous events does not commute.

use crate::diag::Finding;
use orthotrees_obs::json::Json;
use orthotrees_sim::snapshot::{opt_u64_to_json, req_opt_u64, req_word, word_to_json};
use orthotrees_sim::{Bit, Engine, LogOrder, NodeBehavior, Outbox, PortId, RunRecord};
use orthotrees_vlsi::{BitTime, DelayModel, SimError};

/// Runs `build(false)` (FIFO ties) and `build(true)` (LIFO ties) to
/// quiescence and reports every observable divergence as DET-001.
///
/// `build` must construct the *same* network both times, differing only in
/// the engine's tie-break mode — typically
/// `Engine::new(model)` vs `Engine::new(model).with_lifo_ties()`.
pub fn check_commutes(network: &str, build: impl Fn(bool) -> Engine) -> Vec<Finding> {
    let mut fifo = build(false);
    let mut lifo = build(true);
    fifo.run();
    lifo.run();
    // Order within a τ is exactly what is allowed to differ, so the logs
    // compare as multisets.
    let divergences = RunRecord::of(&fifo).divergences(
        &RunRecord::of(&lifo),
        ["FIFO ties", "LIFO ties"],
        LogOrder::Multiset,
    );
    divergences
        .into_iter()
        .map(|d| {
            Finding::new(
                "DET-001",
                network,
                d.subject,
                d.detail,
                "make simultaneous deliveries commute (no first-wins state)",
            )
        })
        .collect()
}

/// A source that emits one word LSB-first starting at time zero.
struct Source {
    value: u64,
    width: u32,
}
impl NodeBehavior for Source {
    fn on_start(&mut self, out: &mut Outbox) {
        for i in 0..self.width {
            out.send_after(
                PortId(0),
                Bit { value: (self.value >> i) & 1 == 1, index: i },
                BitTime::new(u64::from(i)),
            );
        }
    }
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
}

/// A sink that ORs every arriving word into an accumulator — an
/// order-insensitive combine, so ties must commute.
struct OrSink {
    acc: u64,
    done: Option<BitTime>,
}
impl NodeBehavior for OrSink {
    fn on_bit(&mut self, now: BitTime, _: PortId, bit: Bit, _: &mut Outbox) {
        if bit.value {
            self.acc |= 1 << bit.index;
        }
        self.done = Some(self.done.map_or(now, |d| d.max(now)));
    }
    fn completed_at(&self) -> Option<BitTime> {
        self.done
    }
    fn result(&self) -> Option<u64> {
        Some(self.acc)
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("acc", word_to_json(self.acc)),
            ("done", opt_u64_to_json(self.done.map(BitTime::get))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.acc = req_word(state, "acc")?;
        self.done = req_opt_u64(state, "done")?.map(BitTime::new);
        Ok(())
    }
}

/// A fresh order-insensitive OR sink. Public so the checkpoint pass can
/// reuse it as its canonical stateful-but-checkpoint-aware node.
pub fn or_sink() -> impl NodeBehavior {
    OrSink { acc: 0, done: None }
}

/// A deliberately order-*sensitive* sink: only the first bit to arrive at
/// each index is kept. Under simultaneous arrivals from two sources, the
/// tie-break order decides the result — the canonical DET-001 violation,
/// kept public so tests can prove the checker actually fires.
#[derive(Default)]
pub struct FirstWins {
    word: u64,
    claimed: u64,
}
impl FirstWins {
    /// An empty latch.
    pub fn new() -> Self {
        FirstWins::default()
    }
}
impl NodeBehavior for FirstWins {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, _: &mut Outbox) {
        if self.claimed & (1 << bit.index) == 0 {
            self.claimed |= 1 << bit.index;
            if bit.value {
                self.word |= 1 << bit.index;
            }
        }
    }
    fn result(&self) -> Option<u64> {
        Some(self.word)
    }
    fn save_state(&self) -> Json {
        Json::obj([("word", word_to_json(self.word)), ("claimed", word_to_json(self.claimed))])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.word = req_word(state, "word")?;
        self.claimed = req_word(state, "claimed")?;
        Ok(())
    }
}

/// Builds a fan-in network: `sources` word sources, all wired to one sink
/// over equal-length wires so every delivery ties with its peers.
pub fn fan_in(
    model: DelayModel,
    sources: u32,
    width: u32,
    sink: Box<dyn NodeBehavior>,
    lifo: bool,
) -> Engine {
    let mut e = Engine::new(model).with_event_log();
    if lifo {
        e = e.with_lifo_ties();
    }
    let s = e.add_node(sink);
    for i in 0..sources {
        // Distinct bit patterns so an order dependence changes the result.
        let src = e.add_node(Box::new(Source { value: 0b1010_0101 ^ u64::from(i), width }));
        e.connect(src, PortId(0), s, PortId(i as usize), 8);
    }
    e
}

/// The stock determinism checks `netlint` runs: order-insensitive fan-in
/// combines under every delay model must commute.
pub fn stock_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for model in [DelayModel::Constant, DelayModel::Logarithmic, DelayModel::Linear] {
        for sources in [2u32, 4, 8] {
            let name = format!("fan-in[{sources}] under {model:?}");
            out.extend(check_commutes(&name, |lifo| {
                fan_in(model, sources, 8, Box::new(OrSink { acc: 0, done: None }), lifo)
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commuting_networks_are_clean() {
        assert!(stock_findings().is_empty());
    }

    #[test]
    fn or_sink_state_without_done_is_a_typed_error() {
        let mut sink = or_sink();
        let saved = sink.save_state();
        assert!(sink.load_state(&saved).is_ok());
        let Json::Obj(mut fields) = saved else { panic!("sink state is an object") };
        fields.retain(|(key, _)| key != "done");
        assert!(matches!(
            sink.load_state(&Json::Obj(fields)),
            Err(SimError::SnapshotFormat { .. })
        ));
    }

    #[test]
    fn first_wins_latch_is_det001() {
        let f = check_commutes("first-wins", |lifo| {
            fan_in(DelayModel::Logarithmic, 3, 8, Box::new(FirstWins::new()), lifo)
        });
        assert!(f.iter().any(|f| f.rule == "DET-001"), "{f:?}");
    }
}
