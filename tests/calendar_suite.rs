//! Calendar identity suite: the ladder queue versus the binary-heap
//! oracle, end to end.
//!
//! The event engine's pending calendar is pluggable ([`CalendarKind`]):
//! the original binary heap is kept as the oracle and the flat-arena
//! ladder queue is the default. Every scheduled event carries a unique
//! `(at, seq)` ordering key, so delivery order is a total order no
//! correct calendar may perturb. This suite pins that claim at the
//! integration level:
//!
//! 1. **Probe identity** — every engine-level paper primitive
//!    ([`PROBE_KINDS`]), property-swept over sizes, tie-break modes and
//!    dense fault plans, must deliver bit-identical logs, clocks, node
//!    results and fault draws on both calendars.
//! 2. **Snapshot portability** — an `orthotrees-snapshot/v1` document
//!    written by a heap engine restores into a ladder engine (and vice
//!    versa) and resumes bit-identically; the committed fixture in
//!    `tests/fixtures/calendar_snapshot_v1.json` pins the on-disk bytes.
//! 3. **Supervised recovery** — an outage-tripped soak rolls back and
//!    replays through checkpoints identically on either calendar.

use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{
    supervise_engine, CalendarKind, Engine, FaultPlan, NodeId, RecoveryPolicy, RunRecord, Snapshot,
};
use orthotrees_vlsi::{BitTime, CostModel};
use proptest::prelude::*;

fn run_probe(
    kind: ProbeKind,
    leaves: usize,
    cal: CalendarKind,
    lifo: bool,
    fault_seed: Option<u64>,
) -> RunRecord {
    let m = CostModel::thompson(leaves);
    let plan = fault_seed.map(|s| FaultPlan::new(s).with_link_fault_rate(0.3));
    let e = probe_engine(kind, leaves, &m, cal, plan, true);
    finished(if lifo { e.with_lifo_ties() } else { e })
}

// ---------------------------------------------------------------------
// 1. Probe identity, property-swept.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_probe_is_bit_identical_across_calendars(
        kind_ix in 0usize..PROBE_KINDS.len(),
        exp in 1u32..=4,
        lifo in any::<bool>(),
        with_faults in any::<bool>(),
        fault_seed in 0u64..1000,
    ) {
        let kind = PROBE_KINDS[kind_ix];
        let leaves = 1usize << exp;
        let seed = with_faults.then_some(fault_seed);
        let heap = run_probe(kind, leaves, CalendarKind::Heap, lifo, seed);
        let ladder = run_probe(kind, leaves, CalendarKind::Ladder, lifo, seed);
        prop_assert_eq!(heap, ladder);
    }
}

/// The exhaustive release-mode sweep CI runs: the full probe grid up to
/// n = 128, both tie-break modes, clean and densely faulted.
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn full_probe_sweep_across_calendars() {
    for kind in PROBE_KINDS {
        for exp in 2..=7u32 {
            for lifo in [false, true] {
                for seed in [None, Some(7), Some(1234)] {
                    let leaves = 1usize << exp;
                    let heap = run_probe(kind, leaves, CalendarKind::Heap, lifo, seed);
                    let ladder = run_probe(kind, leaves, CalendarKind::Ladder, lifo, seed);
                    assert_eq!(
                        heap,
                        ladder,
                        "{} n={leaves} lifo={lifo} seed={seed:?} diverged",
                        kind.tag()
                    );
                }
            }
        }
    }
}

/// The overhaul flips the default: a plain `Engine::new` runs on the
/// ladder, and the heap stays reachable as the verification oracle.
#[test]
fn ladder_is_the_default_and_the_heap_stays_selectable() {
    let e = Engine::new(orthotrees_vlsi::DelayModel::Logarithmic);
    assert_eq!(e.calendar_kind(), CalendarKind::Ladder);
    assert_eq!(e.with_calendar(CalendarKind::Heap).calendar_kind(), CalendarKind::Heap);
}

// ---------------------------------------------------------------------
// 2. Snapshot portability across calendars.
// ---------------------------------------------------------------------

/// The probe the snapshot tests interrupt: SUM at n = 8 keeps adder
/// carry chains and multi-bit node state in flight at the cut point.
fn snapshot_probe(cal: CalendarKind) -> Engine {
    let m = CostModel::thompson(8);
    probe_engine(ProbeKind::Sum, 8, &m, cal, None, true)
}

/// Event boundary the fixture is cut at (mid-run: adders hold carries,
/// the calendar holds in-flight bits on several tree levels).
const FIXTURE_CUT: u64 = 40;

fn finished(mut e: Engine) -> RunRecord {
    e.try_run().expect("probe runs within budget");
    RunRecord::of(&e)
}

#[test]
fn snapshots_restore_across_calendars_bit_identically() {
    for (writer, reader) in
        [(CalendarKind::Heap, CalendarKind::Ladder), (CalendarKind::Ladder, CalendarKind::Heap)]
    {
        let baseline = finished(snapshot_probe(reader));
        for cut in [0u64, 1, 17, FIXTURE_CUT, 200] {
            let mut part = snapshot_probe(writer);
            part.try_run_for(cut).expect("partial run stays within budget");
            let text = part.snapshot().render();
            let snap = Snapshot::parse(&text).expect("snapshot text parses");

            let mut resumed = snapshot_probe(reader);
            resumed.restore(&snap).expect("snapshot restores across calendars");
            assert_eq!(resumed.calendar_kind(), reader, "restore must not swap the calendar");
            // The snapshot carries the log prefix, so the resumed run must
            // match the uninterrupted run on the reader's calendar exactly.
            assert_eq!(finished(resumed), baseline, "{writer:?}→{reader:?} cut {cut}");
        }
    }
}

/// The snapshot document is calendar-agnostic *by construction*: the
/// writer sorts pending events by their `(at, seq)` key, so the heap and
/// the ladder render byte-identical `/v1` text at the same boundary.
#[test]
fn both_calendars_render_identical_snapshot_bytes() {
    let mut texts = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut e = snapshot_probe(cal);
        e.try_run_for(FIXTURE_CUT).expect("partial run stays within budget");
        texts.push(e.snapshot().render());
    }
    assert_eq!(texts[0], texts[1]);
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/calendar_snapshot_v1.json")
}

fn fixture_text() -> String {
    let mut e = snapshot_probe(CalendarKind::Heap);
    e.try_run_for(FIXTURE_CUT).expect("partial run stays within budget");
    e.snapshot().render() + "\n"
}

/// The committed fixture is exactly what today's heap engine writes at
/// the cut — any drift in the `/v1` bytes fails here first. Regenerate
/// with `cargo test -p orthotrees-bench --test calendar_suite -- --ignored
/// regenerate_calendar_snapshot_fixture`.
#[test]
fn committed_snapshot_fixture_is_byte_identical_to_a_fresh_write() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/calendar_snapshot_v1.json is committed");
    assert_eq!(committed, fixture_text(), "fixture drifted: regenerate it");
}

#[test]
#[ignore = "writes tests/fixtures/calendar_snapshot_v1.json"]
fn regenerate_calendar_snapshot_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, fixture_text()).unwrap();
}

/// A snapshot written by the *previous* engine generation (binary heap,
/// before the calendar abstraction existed) restores into today's
/// default-ladder engine and resumes bit-identically — the on-disk
/// format carries no calendar state at all.
#[test]
fn committed_fixture_restores_into_both_calendars() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/calendar_snapshot_v1.json is committed");
    let snap = Snapshot::parse(&committed).expect("committed fixture parses");
    let mut prints = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let mut e = snapshot_probe(cal);
        e.restore(&snap).expect("fixture restores");
        prints.push(finished(e));
    }
    assert_eq!(prints[0], prints[1], "fixture resumes must agree across calendars");
    assert!(prints[0].completion.is_some(), "resumed run must still complete");
}

// ---------------------------------------------------------------------
// 3. Supervised recovery on both calendars.
// ---------------------------------------------------------------------

/// An outage on the SUM probe's root sink (always the last node added)
/// swallows deliveries until the supervisor rolls back, heals the plan
/// and replays from a checkpoint — and the whole ordeal must unfold
/// identically, rollback for rollback, on either calendar.
#[test]
fn supervised_recovery_is_identical_across_calendars() {
    let mut reports = Vec::new();
    for cal in [CalendarKind::Heap, CalendarKind::Ladder] {
        let clean = finished(snapshot_probe(cal));

        let mut chaotic = snapshot_probe(cal);
        let sink = NodeId(chaotic.node_count() - 1);
        chaotic = chaotic.with_fault_plan(FaultPlan::new(9).with_outage(
            sink,
            BitTime::new(6),
            BitTime::new(30),
        ));
        let policy =
            RecoveryPolicy { max_attempts: 12, checkpoint_events: 6, min_checkpoint_events: 2 };
        let report = supervise_engine(&mut chaotic, &policy, |e, _failures| {
            e.set_fault_plan(None);
        })
        .expect("soak recovers within the attempt budget");

        assert!(report.rollbacks >= 1, "{cal:?}: the outage must trip the supervisor");
        assert_eq!(report.completion, clean.end, "{cal:?}: recovery is clock-identical to clean");
        assert_eq!(
            RunRecord::of(&chaotic).results,
            clean.results,
            "{cal:?}: recovery is value-identical"
        );
        reports.push((
            report.attempts,
            report.rollbacks,
            report.replayed_events,
            report.completion,
        ));
    }
    assert_eq!(reports[0], reports[1], "the two calendars recovered differently");
}
