//! Integration tests for the fault-injection subsystem: the zero-overhead
//! guarantee of an empty plan, determinism of every fault draw, the run
//! watchdog, stuck-at links, and graceful degradation around dead IPs.

use orthotrees::otn::{self, Otn};
use orthotrees::{BitTime, FaultPlan, FaultStats, SimError, TreeAxis};
use orthotrees_sim::{
    Bit, Engine, LinkFaultKind, NodeBehavior, Outbox, PortId, RunBudget, RunRecord,
};
use orthotrees_vlsi::DelayModel;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Zero overhead: an installed-but-empty plan changes nothing, ever.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn empty_plan_sort_is_bit_for_bit_identical(
        xs in proptest::collection::vec(-1000i64..1000, 16),
        seed in 0u64..1_000_000_000,
    ) {
        let mut clean = Otn::for_sorting(16).unwrap();
        let clean_out = otn::sort::sort(&mut clean, &xs).unwrap();

        let mut faulty = Otn::for_sorting(16).unwrap();
        faulty.install_fault_plan(FaultPlan::new(seed));
        let faulty_out = otn::sort::sort(&mut faulty, &xs).unwrap();

        prop_assert_eq!(&clean_out.sorted, &faulty_out.sorted);
        prop_assert_eq!(clean_out.time, faulty_out.time);
        prop_assert!(faulty_out.missing.is_empty());
        prop_assert_eq!(faulty.fault_stats(), FaultStats::default());
        prop_assert_eq!(clean.clock().now(), faulty.clock().now());
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed + same plan → identical runs (acceptance
// criterion), different seed → eventually different damage.
// ---------------------------------------------------------------------

#[test]
fn same_seed_and_plan_reproduce_identical_runs() {
    let xs: Vec<i64> = (0..64).map(|v| (v * 37) % 64).collect();
    let run = |seed: u64| {
        let mut net = Otn::for_sorting(64).unwrap();
        net.install_fault_plan(FaultPlan::new(seed).with_word_fault_rate(0.1));
        let out = otn::sort::sort(&mut net, &xs).unwrap();
        (out.sorted, out.missing, out.time, net.fault_stats())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed, same plan: identical outputs, erasures, time and stats");
    let c = run(43);
    assert_ne!(a.3, c.3, "a different seed must draw a different fault pattern");
}

#[test]
fn engine_event_sequences_reproduce_under_faults() {
    let run = || {
        let mut e = Engine::new(DelayModel::Logarithmic).with_event_log();
        let src = e.add_node(Box::new(Pulse { width: 24 }));
        let dst = e.add_node(Box::new(Counter { got: 0 }));
        e.connect(src, PortId(0), dst, PortId(0), 64);
        let mut e = e.with_fault_plan(FaultPlan::new(5).with_link_fault_rate(0.25));
        e.run();
        RunRecord::of(&e)
    };
    assert_eq!(run(), run(), "identical event sequences across two runs");
}

// ---------------------------------------------------------------------
// Watchdog: budgets turn hangs into structured errors.
// ---------------------------------------------------------------------

#[test]
fn watchdog_stops_runaway_feedback_loops() {
    let mut e = Engine::new(DelayModel::Constant);
    let src = e.add_node(Box::new(Pulse { width: 1 }));
    let a = e.add_node(Box::new(Forward));
    let b = e.add_node(Box::new(Forward));
    e.connect(src, PortId(0), a, PortId(0), 1);
    e.connect(a, PortId(0), b, PortId(0), 1);
    e.connect(b, PortId(0), a, PortId(0), 1);
    let mut e = e.with_budget(RunBudget::events(500));
    match e.try_run() {
        Err(SimError::BudgetExhausted { what: "events", limit: 500 }) => {}
        other => panic!("expected the event budget to trip, got {other:?}"),
    }
}

#[test]
fn time_budget_trips_before_a_slow_run_finishes() {
    let mut e = Engine::new(DelayModel::Logarithmic);
    let src = e.add_node(Box::new(Pulse { width: 8 }));
    let dst = e.add_node(Box::new(Counter { got: 0 }));
    e.connect(src, PortId(0), dst, PortId(0), 4096);
    let mut e = e.with_budget(RunBudget::default().with_max_time(BitTime::new(5)));
    assert!(matches!(e.try_run(), Err(SimError::BudgetExhausted { what: "bit-time units", .. })));
}

// ---------------------------------------------------------------------
// Stuck-at links.
// ---------------------------------------------------------------------

#[test]
fn stuck_at_links_force_the_wire_to_a_constant() {
    for (kind, expect_ones) in [(LinkFaultKind::StuckAtOne, 16), (LinkFaultKind::StuckAtZero, 0)] {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(Pulse { width: 16 }));
        let dst = e.add_node(Box::new(Counter { got: 0 }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_link_fault(lid, kind));
        e.run();
        let ones = e.log().iter().filter(|ev| ev.bit.value).count();
        assert_eq!(ones, expect_ones, "{kind:?} must pin every bit");
        assert_eq!(e.fault_stats().faulty_bits, 16, "alternating source: every bit mangled");
    }
}

// ---------------------------------------------------------------------
// Graceful degradation around dead IPs.
// ---------------------------------------------------------------------

#[test]
fn dead_ip_with_live_sibling_reroutes_and_still_sorts() {
    let xs: Vec<i64> = (0..16).rev().collect();
    let mut net = Otn::for_sorting(16).unwrap();
    let report = net.install_fault_plan(FaultPlan::new(1).with_dead_ip(TreeAxis::Rows, 2, 1, 0));
    assert_eq!(report.rerouted.len(), 1, "the live sibling covers the dead subtree");
    assert!(report.dark.is_empty());
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    assert_eq!(out.sorted, (0..16).collect::<Vec<i64>>(), "reroute loses no data");
    assert!(out.missing.is_empty());

    // The lateral crossing is charged: the rerouted run is strictly slower.
    let mut clean = Otn::for_sorting(16).unwrap();
    let clean_out = otn::sort::sort(&mut clean, &xs).unwrap();
    assert!(out.time > clean_out.time, "rerouting through the sibling costs time");
}

#[test]
fn dead_sibling_pair_darkens_leaves_but_the_sort_survives() {
    let xs: Vec<i64> = (0..16).rev().collect();
    let mut net = Otn::for_sorting(16).unwrap();
    let report = net.install_fault_plan(
        FaultPlan::new(1).with_dead_ip(TreeAxis::Rows, 2, 1, 0).with_dead_ip(
            TreeAxis::Rows,
            2,
            1,
            1,
        ),
    );
    assert_eq!(report.dark.len(), 4, "both level-1 subtrees of a 16-leaf tree go dark");
    assert!(report.rerouted.is_empty(), "a dead sibling cannot absorb the reroute");
    assert!(report.dark.iter().all(|d| d.tree == 2));

    // The sort completes and reports the casualties instead of aborting.
    // The dark leaves skew a few ranks, but most of the output survives.
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    assert!(!out.missing.is_empty(), "losing leaves must cost output ranks");
    assert_eq!(out.sorted.len(), 16);
    let correct: Vec<i64> = (0..16).collect();
    let hits = out.sorted.iter().zip(&correct).filter(|(g, r)| g == r).count();
    assert!(hits >= 8, "a four-leaf outage must not destroy the whole output (hits {hits}/16)");
}

// ---------------------------------------------------------------------
// Helper node behaviours.
// ---------------------------------------------------------------------

/// Emits `width` alternating bits at start (bit i = i odd).
struct Pulse {
    width: u32,
}
impl NodeBehavior for Pulse {
    fn on_start(&mut self, out: &mut Outbox) {
        for i in 0..self.width {
            out.send(PortId(0), Bit { value: i % 2 == 1, index: i });
        }
    }
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
}

/// Counts arrivals.
struct Counter {
    got: u32,
}
impl NodeBehavior for Counter {
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {
        self.got += 1;
    }
}

/// Forwards every arriving bit.
struct Forward;
impl NodeBehavior for Forward {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(PortId(0), bit);
    }
}
