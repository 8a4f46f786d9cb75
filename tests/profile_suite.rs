//! Profiler identity and tiling: the windowed [`Profiler`] must be a
//! pure observer. At engine level an installed profiler changes no
//! simulated bit, clock or stat (the Option-gated zero-overhead
//! contract); at word level the profile is rebuilt from the recorded
//! causal segments, so the only question is whether the windows tell
//! the truth — Σ(per-window τ) must tile the recorder's segment total
//! and the completion clock exactly (PROF-001), over a gapless window
//! sequence (PROF-002), for every registry entry bound on each network
//! (`tests/support/repertoire.rs`), every size, every window width, with
//! and without an installed fault plan. That recording changes no
//! word-level run is `tests/word_identity_suite.rs`'s gate.

use orthotrees::obs::profile::Profiler;
use orthotrees::obs::Recorder;
use orthotrees::otn::{self, Otn};
use orthotrees::wordnet::{Cycles, Tree, WordNet};
use orthotrees::{BitTime, FaultPlan, Word};
use orthotrees_bench::profile::dense_plan;
use orthotrees_sim::experiments::{self, probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{CalendarKind, Engine, Link, NodeId, RecoveryPolicy, RunStatus};
use orthotrees_vlsi::CostModel;
use proptest::prelude::*;

#[path = "support/repertoire.rs"]
mod repertoire;
use repertoire::Load;

/// Fits an engine with a recorder and a profiler (initial window 16τ).
fn profiled(e: Engine) -> Engine {
    e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16))
}

/// Asserts the word-level PROF-001/002 pair on a recorded run: windows
/// gapless from 0, and Σ(wire + queue + compute) equal to both the
/// segment total and the completion clock — at an arbitrary width.
fn assert_word_profile(rec: &Recorder, completion: BitTime, width: u64) {
    let prof = Profiler::from_recorder(rec, width);
    for (i, w) in prof.windows().iter().enumerate() {
        assert_eq!(w.index, i as u64, "gapless windows (PROF-002)");
    }
    let t = prof.totals();
    assert_eq!(
        t.wire + t.queue_wait + t.compute,
        rec.segments_total().get(),
        "window τ tiles the segments (PROF-001)"
    );
    assert_eq!(rec.segments_total(), completion, "segments tile the clock");
}

/// Records the repertoire on `T` at `n`, under `dense_plan(seed)` when
/// given, and asserts PROF-001/002 on it at `width`.
fn assert_repertoire_profile<T: Load>(n: usize, seed: Option<u64>, width: u64) {
    let mut net = repertoire::run::<T>(n, |net: &mut WordNet<T>| {
        net.install_recorder(Recorder::new());
        if let Some(seed) = seed {
            net.install_fault_plan(dense_plan(seed));
        }
    });
    assert_word_profile(&net.take_recorder().unwrap(), net.clock().now(), width);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// OTN: the windowed profile of the recorded repertoire tiles the
    /// clock at any width — 2² to 2⁷ leaves, with and without faults.
    #[test]
    fn otn_profile_tiles_the_clock(
        k in 2u32..=7,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
        width in 1u64..=64,
    ) {
        assert_repertoire_profile::<Tree>(1 << k, faulty.then_some(seed), width);
    }

    /// OTC: the same tiling over the stream repertoire.
    #[test]
    fn otc_profile_tiles_the_clock(
        size_idx in 0usize..3,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
        width in 1u64..=64,
    ) {
        assert_repertoire_profile::<Cycles>([16, 64, 256][size_idx], faulty.then_some(seed), width);
    }

    /// Engine level: a profiled bit-level broadcast completes at exactly
    /// the uninstrumented time, and its window sums tile the recorder's
    /// aggregates — events, link bits and queue waits.
    #[test]
    fn engine_profile_is_clock_identical_and_tiles(k in 1u32..=7) {
        let leaves = 1usize << k;
        let m = CostModel::thompson(leaves);
        let bare = experiments::broadcast_completion_time(leaves, &m).unwrap();
        let (t, mut e) = experiments::broadcast(leaves, &m, profiled).unwrap();
        let (rec, prof) = (e.take_recorder().unwrap(), e.take_profiler().unwrap());
        prop_assert_eq!(bare, t);
        let totals = prof.totals();
        prop_assert_eq!(totals.events, rec.calendar_depth().count());
        prop_assert_eq!(
            totals.link_bits,
            rec.links().iter().map(|l| l.bits).sum::<u64>()
        );
        prop_assert_eq!(
            totals.queue_wait,
            rec.links().iter().map(|l| l.wait_total).sum::<u64>()
        );
        for (i, w) in prof.windows().iter().enumerate() {
            prop_assert_eq!(w.index, i as u64);
        }
    }
}

/// Supervised crash recovery with the profiler riding along: same
/// recovery report and same computed sum as the unprofiled supervised
/// run, and the profile still tiles the recorder — rollback replays land
/// identically in both instruments.
#[test]
fn profiled_recovery_matches_unprofiled_and_tiles() {
    let values: Vec<u64> = (0..16).collect();
    let m = CostModel::thompson(16);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    let (report_a, _, sum_a) = experiments::supervised_sum_recovery(&values, &m, &policy, |e| {
        e.with_recorder(Recorder::new())
    })
    .unwrap();
    let (report_b, mut e, sum_b) =
        experiments::supervised_sum_recovery(&values, &m, &policy, profiled).unwrap();
    let (rec, prof) = (e.take_recorder().unwrap(), e.take_profiler().unwrap());
    assert_eq!(report_a, report_b, "profiler must not change recovery behaviour");
    assert_eq!(sum_a, sum_b);
    assert!(report_b.rollbacks >= 1, "the outage must actually trip the supervisor");
    let totals = prof.totals();
    assert_eq!(totals.events, rec.calendar_depth().count(), "tiling survives rollback replay");
    assert!(prof.peak_calendar_depth() > 0);
}

/// The sorting pipeline end to end: the profile of a recorded sort is
/// identical whether it is built at width 1 or rebuilt after coalescing
/// has doubled the width — totals are exact under merging.
#[test]
fn sort_profile_totals_are_width_invariant() {
    let xs: Vec<Word> = (0..64).map(|v| (v * 37) % 64).collect();
    let mut net = Otn::for_sorting(64).unwrap();
    net.install_recorder(Recorder::new());
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    let rec = net.take_recorder().unwrap();
    let fine = Profiler::from_recorder(&rec, 1);
    let coarse = Profiler::from_recorder(&rec, Profiler::auto_width(out.time.get()));
    assert_eq!(fine.totals(), coarse.totals(), "coalescing preserves every sum");
    assert_word_profile(&rec, out.time, 1);
}

// ---------------------------------------------------------------------
// Footprint identity: the engine's O(1) busy-link tally.
// ---------------------------------------------------------------------

/// The fault scenarios of the footprint identity sweep.
const CONDITIONS: [&str; 3] = ["clean", "link-faults", "outage"];

/// A probe engine under one of [`CONDITIONS`]: a dense link-fault plan
/// (drops included), or every odd node down over `[2, 12)`.
fn footprint_probe(kind: ProbeKind, leaves: usize, cond: &str) -> Engine {
    let m = CostModel::thompson(leaves);
    let e = probe_engine(kind, leaves, &m, CalendarKind::Ladder, None, false);
    let plan = match cond {
        "link-faults" => FaultPlan::new(leaves as u64).with_link_fault_rate(0.3),
        "outage" => (1..e.node_count()).step_by(2).fold(FaultPlan::new(0), |p, i| {
            p.with_outage(NodeId(i), BitTime::new(2), BitTime::new(12))
        }),
        _ => return e,
    };
    e.with_fault_plan(plan)
}

/// Steps `e` one event at a time to quiescence with a fresh profiler
/// before each step, so every delivery is a new calendar-depth peak and
/// its footprint carries the engine's busy-link count. Each count must
/// equal the O(links) scan of the link table as it stood before the
/// step. A zero-event slice first starts the sources, whose emissions
/// precede the first delivery. Returns the number of deliveries checked.
fn assert_busy_links_match_scan(e: Engine, label: &str) -> u64 {
    let mut e = e.with_profiler(Profiler::new(1));
    e.try_run_for(0).expect("starting admits within budget");
    let mut checked = 0;
    loop {
        let free_at: Vec<BitTime> = e.links().iter().map(Link::free_at).collect();
        e = e.with_profiler(Profiler::new(1));
        let status = e.try_run_for(1).expect("probe runs within budget");
        if let Some(f) = e.take_profiler().and_then(|p| p.footprint().copied()) {
            let scan = free_at.iter().filter(|&&t| t > f.at).count() as u64;
            assert_eq!(
                f.busy_links, scan,
                "{label}: delivery {} at {:?}",
                f.delivered_events, f.at
            );
            checked += 1;
        }
        if matches!(status, RunStatus::Quiescent(_)) {
            return checked;
        }
    }
}

/// Runs the busy-link identity over every probe kind and condition at
/// `leaves`, plus a restored engine that had no instrument before the
/// restore and one whose installed instruments ride through a rewind.
fn footprint_identity(leaves: usize) {
    for kind in PROBE_KINDS {
        for cond in CONDITIONS {
            let label = format!("{} n={leaves} {cond}", kind.tag());
            let checked = assert_busy_links_match_scan(footprint_probe(kind, leaves, cond), &label);
            assert!(checked > 0, "{label}: nothing was delivered");

            // Attached after a restore: the tally starts from the
            // restored link table, mid-run.
            let mut bare = footprint_probe(kind, leaves, cond);
            bare.try_run_for(9).unwrap();
            let snap = bare.snapshot();
            let mut restored = footprint_probe(kind, leaves, cond);
            restored.restore(&snap).unwrap();
            assert_busy_links_match_scan(restored, &format!("{label} attached after restore"));

            // Installed across a rewind: the restore rebuilds the tally.
            let mut e = footprint_probe(kind, leaves, cond).with_profiler(Profiler::new(1));
            e.try_run_for(5).unwrap();
            let early = e.snapshot();
            e.try_run_for(12).unwrap();
            e.restore(&early).unwrap();
            assert_busy_links_match_scan(e, &format!("{label} across a rewind"));
        }
    }
}

#[test]
fn footprint_busy_links_equal_the_link_scan() {
    for leaves in [2, 4, 8] {
        footprint_identity(leaves);
    }
}

/// Release-only sweep (CI): the same identity at 2⁵..2⁷ leaves.
#[test]
#[ignore = "release-only sweep; run by ci.sh"]
fn footprint_identity_sweep() {
    for leaves in [32, 64, 128] {
        footprint_identity(leaves);
    }
}

/// The supervised outage run: the footprint equals what the O(links)
/// scan reported (pinned below), and in debug builds the engine audits
/// its tally against the scan at every delivery, replays after each
/// rollback included.
#[test]
fn supervised_recovery_footprint_matches_the_scan() {
    let values: Vec<u64> = (0..16).collect();
    let m = CostModel::thompson(16);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 6, min_checkpoint_events: 2 };
    let (report, mut e, _) =
        experiments::supervised_sum_recovery(&values, &m, &policy, profiled).unwrap();
    let prof = e.take_profiler().unwrap();
    assert!(report.rollbacks >= 1, "the outage must trip the supervisor");
    let f = prof.footprint().expect("an engine-filled profile has a footprint");
    assert_eq!(
        (f.at, f.calendar_entries, f.busy_links, f.delivered_events),
        (BitTime::new(3), 128, 16, 1)
    );
}
