//! Observability contract tests for the instrumented networks.
//!
//! Two invariants:
//!
//! 1. **Bit identity** — installing a [`Recorder`] changes *nothing* about
//!    a run: outputs, simulated times and operation counts are identical
//!    with and without one (the zero-overhead-when-absent contract, and
//!    its dual: recording is purely passive).
//! 2. **Complete attribution** — every clock advance inside a procedure
//!    happens inside some phase span, so per-phase self times sum exactly
//!    to the run's completion time. The time-attribution table has no
//!    "unaccounted" row.
//! 3. **Complete causal decomposition** — every clock advance is further
//!    split into wire-delay / queue-wait / node-compute segments, so
//!    Σ segment durations equals the completion time exactly, phase by
//!    phase (the single word-serial clock makes every segment critical).

use orthotrees::obs::causal::SegmentKind;
use orthotrees::obs::Recorder;
use orthotrees::otn::sort::SortOutcome;
use orthotrees::otn::{sort, Otn};
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::{FaultPlan, Word};

fn otn_sort_input(n: usize) -> Vec<Word> {
    (0..n as Word).map(|v| (v * 37 + 11) % n as Word).collect()
}

/// Runs `T`'s SORT on the 16-word input with a recorder installed.
fn recorded_sort<T: Topology>() -> (SortOutcome, Recorder) {
    let mut net = T::for_sorting(16).unwrap();
    net.install_recorder(Recorder::new());
    let out = T::sort(&mut net, &otn_sort_input(16)).unwrap();
    (out, net.take_recorder().unwrap())
}

fn sort_is_bit_identical_with_recorder_installed<T: Topology>() {
    let mut plain = T::for_sorting(16).unwrap();
    let baseline = T::sort(&mut plain, &otn_sort_input(16)).unwrap();

    let (observed, rec) = recorded_sort::<T>();
    assert_eq!(observed, baseline, "a recorder must not perturb the run");
    assert!(!rec.spans().is_empty(), "the run must have been recorded");
}

#[test]
fn otn_sort_is_bit_identical_with_recorder_installed() {
    sort_is_bit_identical_with_recorder_installed::<Tree>();
}

#[test]
fn otc_sort_is_bit_identical_with_recorder_installed() {
    sort_is_bit_identical_with_recorder_installed::<Cycles>();
}

/// Asserts that `T`'s SORT records every step in `phases` under its paper
/// name, inside one procedure-level span that covers the whole sort.
fn phase_self_times_sum_to_completion_time<T: Topology>(phases: &[&str]) {
    let (out, rec) = recorded_sort::<T>();

    assert_eq!(rec.total_recorded(), out.time, "root spans must cover the whole run");
    let attributed: u64 = rec.phase_totals().iter().map(|p| p.self_time.get()).sum();
    assert_eq!(attributed, out.time.get(), "self times must sum to completion time");

    let top = rec.phase_totals();
    let names: Vec<&str> = top.iter().map(|p| p.name.as_str()).collect();
    for expect in phases {
        assert!(names.contains(expect), "missing phase {expect}: {names:?}");
    }
    let procedure = format!("SORT-{}", T::NAME);
    let sort_span = top.iter().find(|p| p.name == procedure).unwrap();
    assert_eq!(sort_span.count, 1);
    assert_eq!(sort_span.total, out.time, "the procedure span covers the whole sort");
}

#[test]
fn otn_phase_self_times_sum_to_completion_time() {
    phase_self_times_sum_to_completion_time::<Tree>(&[
        "SORT-OTN",
        "ROOTTOLEAF",
        "LEAFTOLEAF",
        "BP-PHASE",
        "COUNT-LEAFTOLEAF",
        "LEAFTOROOT",
    ]);
}

#[test]
fn otc_phase_self_times_sum_to_completion_time() {
    phase_self_times_sum_to_completion_time::<Cycles>(&[
        "SORT-OTC",
        "ROOTTOCYCLE",
        "CYCLETOCYCLE",
        "VECTORCIRCULATE",
        "BP-PHASE",
        "CYCLE-PHASE",
    ]);
}

/// Asserts that `T`'s SORT splits into causal segments that tile its
/// clock, with wire segments on exactly the tree `levels`.
fn segments_tile_the_completion_time<T: Topology>(levels: &[u32]) {
    let (out, rec) = recorded_sort::<T>();

    assert_eq!(rec.segments_total(), out.time, "Σ segments == completion, exactly");
    assert!(
        rec.segments().windows(2).all(|w| w[0].end == w[1].start),
        "segments tile the clock with no gaps or overlaps"
    );
    // Every segment lands inside a named phase, and all three causal
    // categories occur in a sort (wires, word tails, BP compute).
    assert!(rec.segments().iter().all(|s| s.span.is_some()), "no unattributed segment");
    let attr = rec.segment_attribution();
    for kind in [SegmentKind::WireDelay, SegmentKind::QueueWait, SegmentKind::NodeCompute] {
        assert!(attr.iter().any(|t| t.kind == kind && t.total.get() > 0), "missing {kind:?}");
    }
    let total: u64 = attr.iter().map(|t| t.total.get()).sum();
    assert_eq!(total, out.time.get());
    let seen: std::collections::BTreeSet<u32> =
        rec.segments().iter().filter_map(|s| s.level).collect();
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), levels);
}

#[test]
fn otn_segments_tile_the_completion_time() {
    // A 16×16 OTN's trees have 4 levels.
    segments_tile_the_completion_time::<Tree>(&[1, 2, 3, 4]);
}

#[test]
fn otc_segments_tile_the_completion_time() {
    // A 16-word OTC is 4×4 cycles of 4, so its trees have 2 levels.
    segments_tile_the_completion_time::<Cycles>(&[1, 2]);
}

#[test]
fn fault_overhead_appears_as_queue_wait_segments() {
    let xs = otn_sort_input(16);
    let plan = FaultPlan::new(42)
        .with_word_fault_rate(0.3)
        .with_drop_fraction(0.0)
        .with_undetectable_fraction(0.0)
        .with_max_retries(8);
    let mut net = Otn::for_sorting(16).unwrap();
    net.install_recorder(Recorder::new());
    net.install_fault_plan(plan);
    let out = sort::sort(&mut net, &xs).unwrap();
    let rec = net.take_recorder().unwrap();

    // Retried rounds never vanish from the causal view: they tile the
    // clock like everything else, as queue-wait inside FAULT-OVERHEAD.
    assert_eq!(rec.segments_total(), out.time, "faulty runs still tile exactly");
    let overhead: Vec<_> =
        rec.segments().iter().filter(|s| rec.segment_phase(s) == "FAULT-OVERHEAD").collect();
    assert!(!overhead.is_empty(), "retry rounds must surface as segments");
    assert!(overhead.iter().all(|s| s.kind == SegmentKind::QueueWait));
    let overhead_total: u64 = overhead.iter().map(|s| s.duration().get()).sum();
    let phase = rec.phase_totals().into_iter().find(|p| p.name == "FAULT-OVERHEAD").unwrap();
    assert_eq!(overhead_total, phase.self_time.get(), "segments cover the whole overhead phase");
}

#[test]
fn fault_overhead_is_attributed_and_counted() {
    let xs = otn_sort_input(16);
    // Every faulted word is detectable (no drops, no parity evasion), so
    // faults surface purely as counted retry rounds.
    let plan = FaultPlan::new(42)
        .with_word_fault_rate(0.3)
        .with_drop_fraction(0.0)
        .with_undetectable_fraction(0.0)
        .with_max_retries(8);

    let mut net = Otn::for_sorting(16).unwrap();
    net.install_recorder(Recorder::new());
    net.install_fault_plan(plan.clone());
    let out = sort::sort(&mut net, &xs).unwrap();
    let rec = net.take_recorder().unwrap();

    // Retries both show up as a counter and as their own phase, and the
    // attribution invariant still holds under faults.
    assert!(rec.counter("fault.retry_rounds") > 0, "retries must be counted");
    let totals = rec.phase_totals();
    let overhead = totals.iter().find(|p| p.name == "FAULT-OVERHEAD");
    assert!(overhead.is_some_and(|p| p.self_time.get() > 0), "overhead must be attributed");
    let attributed: u64 = totals.iter().map(|p| p.self_time.get()).sum();
    assert_eq!(attributed, out.time.get());

    // And the recorder still does not perturb the degraded run.
    let mut plain = Otn::for_sorting(16).unwrap();
    plain.install_fault_plan(plan);
    let baseline = sort::sort(&mut plain, &xs).unwrap();
    assert_eq!(out, baseline);
}
