//! Calendar identity checker: the heap oracle versus the ladder queue.
//!
//! The engine's pending-event calendar is pluggable
//! ([`CalendarKind::Heap`] is the original binary heap, kept as the
//! oracle; [`CalendarKind::Ladder`] is the flat-arena ladder queue the
//! engine now defaults to). Because every scheduled event carries a
//! unique `(at, seq)` ordering key, delivery order is a total order that
//! no correct calendar may perturb — the two implementations must deliver
//! the *exact same sequence* of events, not merely the same multiset.
//!
//! [`check_identity`] runs the same network once per calendar and flags
//! every divergence of the two [`RunRecord`]s — end and completion time,
//! delivered count, fault statistics, any node result, or the first
//! position at which the two delivery sequences disagree — as an ENG-001
//! finding.

use crate::diag::Finding;
use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{CalendarKind, Engine, FaultPlan, LogOrder, RunRecord};
use orthotrees_vlsi::CostModel;

/// Runs `build(Heap)` and `build(Ladder)` to quiescence and reports every
/// observable divergence as ENG-001.
///
/// `build` must construct the *same* network both times, differing only
/// in the engine's calendar — typically
/// `Engine::new(model).with_calendar(kind)`. The checker forces the
/// delivered-bit log on so the comparison covers the full delivery
/// sequence; if the builder ignores the requested calendar the check
/// would be vacuous, so that too is an ENG-001 finding.
pub fn check_identity(network: &str, build: impl Fn(CalendarKind) -> Engine) -> Vec<Finding> {
    let mut heap = build(CalendarKind::Heap).with_event_log();
    let mut ladder = build(CalendarKind::Ladder).with_event_log();
    let finding = |subject: String, detail: String, hint: &str| {
        Finding::new("ENG-001", network, subject, detail, hint)
    };
    let mut out = Vec::new();
    for (e, want) in [(&heap, CalendarKind::Heap), (&ladder, CalendarKind::Ladder)] {
        if e.calendar_kind() != want {
            out.push(finding(
                "builder".to_string(),
                format!(
                    "builder was asked for the {} calendar but installed {}",
                    want.tag(),
                    e.calendar_kind().tag()
                ),
                "thread the requested CalendarKind through Engine::with_calendar",
            ));
        }
    }
    if !out.is_empty() {
        return out;
    }
    let (t_heap, t_ladder) = (heap.try_run(), ladder.try_run());
    if t_heap != t_ladder {
        out.push(finding(
            "run status".to_string(),
            format!("heap run ended {t_heap:?}, ladder run ended {t_ladder:?}"),
            "a budget trip must reproduce identically on both calendars",
        ));
    }
    let divergences = RunRecord::of(&heap).divergences(
        &RunRecord::of(&ladder),
        ["heap", "ladder"],
        LogOrder::Sequence,
    );
    out.extend(divergences.into_iter().map(|d| {
        finding(d.subject, d.detail, "a calendar must deliver exactly the unique (at, seq) order")
    }));
    out
}

/// The stock identity checks `netlint` runs: the full engine-level probe
/// repertoire (every paper primitive plus the §IV converging streams) at
/// n = 8 under the Thompson model, clean and under a dense link-fault
/// plan, in both tie-break modes.
pub fn stock_findings() -> Vec<Finding> {
    let m = CostModel::thompson(8);
    let mut out = Vec::new();
    for kind in PROBE_KINDS {
        for lifo in [false, true] {
            for faulted in [false, true] {
                let name = format!(
                    "{} probe [n=8{}{}]",
                    kind.tag(),
                    if lifo { ", lifo ties" } else { "" },
                    if faulted { ", dense faults" } else { "" }
                );
                out.extend(check_identity(&name, |cal| build_probe(kind, &m, cal, lifo, faulted)));
            }
        }
    }
    out
}

fn build_probe(
    kind: ProbeKind,
    m: &CostModel,
    cal: CalendarKind,
    lifo: bool,
    faulted: bool,
) -> Engine {
    let plan = faulted.then(|| FaultPlan::new(7).with_link_fault_rate(0.3));
    let e = probe_engine(kind, 8, m, cal, plan, false);
    if lifo {
        e.with_lifo_ties()
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees_sim::RunBudget;
    use std::cell::Cell;

    #[test]
    fn probe_repertoire_is_clean() {
        assert!(stock_findings().is_empty());
    }

    #[test]
    fn divergent_builds_are_eng001() {
        // An impure builder — FIFO ties on the heap, LIFO on the ladder —
        // makes the delivery sequences differ, which the checker must
        // catch (it is exactly the divergence a broken calendar causes).
        let m = CostModel::thompson(8);
        let flip = Cell::new(false);
        let f = check_identity("impure build", |cal| {
            let lifo = flip.replace(true);
            build_probe(ProbeKind::Stream, &m, cal, lifo, false)
        });
        assert!(f.iter().any(|f| f.rule == "ENG-001"), "{f:?}");
    }

    #[test]
    fn builder_ignoring_the_calendar_is_eng001() {
        let m = CostModel::thompson(8);
        let f = check_identity("ignores kind", |_| {
            build_probe(ProbeKind::Send, &m, CalendarKind::Heap, false, false)
        });
        assert!(f.iter().any(|f| f.subject == "builder"), "{f:?}");
    }

    /// Both calendars tripping the same budget at the same event is
    /// identity, not a finding.
    #[test]
    fn the_same_budget_trip_on_both_calendars_is_clean() {
        let m = CostModel::thompson(8);
        let f = check_identity("budgeted", |cal| {
            build_probe(ProbeKind::Sum, &m, cal, false, false).with_budget(RunBudget::events(5))
        });
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_budget_on_one_calendar_only_is_eng001() {
        let m = CostModel::thompson(8);
        let f = check_identity("one budget", |cal| {
            let e = build_probe(ProbeKind::Sum, &m, cal, false, false);
            if cal == CalendarKind::Ladder {
                e.with_budget(RunBudget::events(5))
            } else {
                e
            }
        });
        assert!(f.iter().any(|f| f.subject == "run status"), "{f:?}");
    }
}
