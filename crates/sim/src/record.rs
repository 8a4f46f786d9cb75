//! What is observable about a finished engine run, as one comparable value.
//!
//! The engine's contract is stated as identities between two runs of the
//! same network: heap versus ladder calendar (ENG-001), FIFO versus LIFO
//! ties (DET-001), uninterrupted versus checkpoint-resumed (CKPT-001), bare
//! versus instrumented. A [`RunRecord`] is the one definition of "the same
//! run" all of them compare: read from an engine after it ran with
//! [`RunRecord::of`], compared with `==` in tests, or field by field with
//! [`RunRecord::divergences`] where a checker must say *what* differs.

use crate::engine::{Engine, EventLog};
use crate::fault::FaultStats;
use crate::node::NodeId;
use orthotrees_vlsi::BitTime;
use std::collections::BTreeMap;

/// Everything observable about a finished engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Simulated time of the last delivery ([`Engine::now`]).
    pub end: BitTime,
    /// Latest completion any node reported ([`Engine::completion_time`]).
    pub completion: Option<BitTime>,
    /// Events delivered over the engine's lifetime.
    pub delivered: u64,
    /// Fault draws and their outcomes.
    pub faults: FaultStats,
    /// Every node's result, by node id.
    pub results: Vec<Option<u64>>,
    /// The delivered-bit log (empty unless the engine kept one).
    pub log: Vec<EventLog>,
}

/// How [`RunRecord::divergences`] compares two event logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogOrder {
    /// The exact delivery sequence: a length difference or the first
    /// differing delivery (one early transposition cascades through
    /// everything after it, so only the first is named).
    Sequence,
    /// The multiset of deliveries: order within a τ may differ, the set
    /// may not. Each delivery whose count differs is named, in
    /// `(at, node, port, value, index)` order.
    Multiset,
}

/// One field in which two [`RunRecord`]s differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// What differs: `end time`, `node 3`, `delivery #12`, …
    pub subject: String,
    /// Both sides' values, each named by its side.
    pub detail: String,
}

impl RunRecord {
    /// Reads the record of `e`'s run so far (normally after it ran to
    /// quiescence).
    pub fn of(e: &Engine) -> Self {
        RunRecord {
            end: e.now(),
            completion: e.completion_time(),
            delivered: e.delivered_events(),
            faults: *e.fault_stats(),
            results: (0..e.node_count()).map(|i| e.node(NodeId(i)).result()).collect(),
            log: e.log().to_vec(),
        }
    }

    /// Every field in which `self` (side `a`) and `other` (side `b`)
    /// differ, comparing the logs in `order`. Empty exactly when the
    /// records are equal (under [`LogOrder::Multiset`], up to the order of
    /// the logs).
    pub fn divergences(&self, other: &Self, [a, b]: [&str; 2], order: LogOrder) -> Vec<Divergence> {
        let mut out = Vec::new();
        let mut differ = |subject: String, detail: String| out.push(Divergence { subject, detail });
        if self.end != other.end {
            differ("end time".into(), format!("{a} ends at {}, {b} at {}", self.end, other.end));
        }
        if self.completion != other.completion {
            let (x, y) = (self.completion, other.completion);
            differ("completion time".into(), format!("{a} completes at {x:?}, {b} at {y:?}"));
        }
        if self.delivered != other.delivered {
            let (x, y) = (self.delivered, other.delivered);
            differ("delivered count".into(), format!("{a} delivered {x} events, {b} {y}"));
        }
        if self.faults != other.faults {
            let (x, y) = (self.faults, other.faults);
            differ("fault statistics".into(), format!("{a} drew {x:?}, {b} {y:?}"));
        }
        if self.results.len() == other.results.len() {
            for (i, (x, y)) in self.results.iter().zip(&other.results).enumerate() {
                if x != y {
                    differ(
                        format!("node {i}"),
                        format!("result {x:?} under {a} but {y:?} under {b}"),
                    );
                }
            }
        } else {
            let (x, y) = (self.results.len(), other.results.len());
            differ("node count".into(), format!("{a} has {x} nodes, {b} {y}"));
        }
        match order {
            LogOrder::Sequence if self.log.len() != other.log.len() => {
                let (x, y) = (self.log.len(), other.log.len());
                differ("event log length".into(), format!("{a} logged {x} deliveries, {b} {y}"));
            }
            LogOrder::Sequence => {
                if let Some(i) = self.log.iter().zip(&other.log).position(|(x, y)| x != y) {
                    let (x, y) = (self.log[i], other.log[i]);
                    differ(format!("delivery #{i}"), format!("{a} delivered {x:?} but {b} {y:?}"));
                }
            }
            LogOrder::Multiset => {
                let key = |e: &EventLog| (e.at, e.node.0, e.port.0, e.bit.value, e.bit.index);
                let mut counts = BTreeMap::new();
                for (log, step) in [(&self.log, 1i64), (&other.log, -1)] {
                    for e in log {
                        *counts.entry(key(e)).or_insert(0) += step;
                    }
                }
                for ((at, node, port, value, index), n) in
                    counts.into_iter().filter(|&(_, n)| n != 0)
                {
                    differ(
                        format!("node {node} port {port} at {at}"),
                        format!(
                            "delivery of bit {value} (index {index}) occurs {} more time(s) under {}",
                            n.abs(),
                            if n > 0 { a } else { b }
                        ),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{probe_engine, ProbeKind};
    use crate::{CalendarKind, FaultPlan};
    use orthotrees_vlsi::CostModel;

    const SIDES: [&str; 2] = ["left", "right"];
    const ORDERS: [LogOrder; 2] = [LogOrder::Sequence, LogOrder::Multiset];

    /// The §IV converging streams at n = 8 under dense link faults: faults
    /// fire, the log is long, and many deliveries tie.
    fn record() -> RunRecord {
        let m = CostModel::thompson(8);
        let plan = FaultPlan::new(7).with_link_fault_rate(0.3);
        let mut e = probe_engine(ProbeKind::Stream, 8, &m, CalendarKind::Ladder, Some(plan), true);
        e.try_run().expect("probe runs within budget");
        RunRecord::of(&e)
    }

    fn subjects(a: &RunRecord, b: &RunRecord, order: LogOrder) -> Vec<String> {
        a.divergences(b, SIDES, order).into_iter().map(|d| d.subject).collect()
    }

    #[test]
    fn equal_builds_give_equal_records() {
        let (a, b) = (record(), record());
        assert!(a.faults.faulty_bits > 0 && !a.log.is_empty());
        assert_eq!(a, b);
        for order in ORDERS {
            assert!(a.divergences(&b, SIDES, order).is_empty(), "{order:?}");
        }
    }

    #[test]
    fn a_same_tau_transposition_diverges_under_sequence_only() {
        let a = record();
        let i = (1..a.log.len())
            .find(|&i| a.log[i - 1].at == a.log[i].at && a.log[i - 1] != a.log[i])
            .expect("the streams tie");
        let mut b = a.clone();
        b.log.swap(i - 1, i);
        assert_eq!(subjects(&a, &b, LogOrder::Sequence), [format!("delivery #{}", i - 1)]);
        assert!(subjects(&a, &b, LogOrder::Multiset).is_empty());
    }

    #[test]
    fn a_dropped_delivery_diverges_under_both_orders() {
        let a = record();
        let mut b = a.clone();
        let gone = b.log.remove(a.log.len() / 2);
        assert_eq!(subjects(&a, &b, LogOrder::Sequence), ["event log length"]);
        let d = a.divergences(&b, SIDES, LogOrder::Multiset);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(
            d[0].subject,
            format!("node {} port {} at {}", gone.node.0, gone.port.0, gone.at)
        );
        assert!(d[0].detail.ends_with("1 more time(s) under left"), "{}", d[0].detail);
    }

    #[test]
    fn each_field_is_named_when_it_alone_differs() {
        type Edit = fn(&mut RunRecord);
        let a = record();
        let edits: [(&str, Edit); 6] = [
            ("end time", |r| r.end += BitTime::new(1)),
            ("completion time", |r| r.completion = r.completion.xor(Some(r.end))),
            ("delivered count", |r| r.delivered += 1),
            ("fault statistics", |r| r.faults.silent += 1),
            ("node 2", |r| r.results[2] = Some(r.results[2].unwrap_or(0) ^ 1)),
            ("node count", |r| {
                r.results.pop();
            }),
        ];
        for (field, edit) in edits {
            let mut b = a.clone();
            edit(&mut b);
            assert_ne!(a, b, "{field}");
            for order in ORDERS {
                assert_eq!(subjects(&a, &b, order), [field], "{order:?}");
            }
        }
        let mut b = a.clone();
        let last = b.log.len() - 1;
        b.log[last].bit.value ^= true;
        assert_eq!(subjects(&a, &b, LogOrder::Sequence), [format!("delivery #{last}")]);
        assert_eq!(subjects(&a, &b, LogOrder::Multiset).len(), 2, "one missing, one extra");
    }
}
