//! Probe independence suite: the five engine instruments fed from one
//! event stream.
//!
//! `sim::Engine` hands every instrument the same `EngineEvent` stream
//! through one probe slot. Two properties make that slot trustworthy, and
//! this suite pins both for every engine-level paper primitive
//! ([`PROBE_KINDS`]) at 2¹..2⁴ leaves, clean, under a dense link-fault
//! plan (flips, stuck bits and drops all fire) and under a node-outage
//! plan (suppressed deliveries fire):
//!
//! 1. **Independence** — each instrument's result with all five attached
//!    equals its result attached alone, so no fold reads or perturbs
//!    another's state.
//! 2. **Transparency** — the event log, completion time, node results and
//!    fault stats with all five attached equal the bare run's.
//!
//! The ignored sweep widens the grid to 2⁷ leaves (release-only in CI).

use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{
    CalendarKind, FaultPlan, FaultStats, FlightRecorder, NodeId, Profiler, Recorder, RunRecord,
    Telemetry,
};
use orthotrees_vlsi::{BitTime, CostModel};

/// The fault scenario a case runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Condition {
    Clean,
    /// Every link bit faults with probability 0.3, drawn over all four
    /// fault kinds.
    LinkFaults,
    /// Every odd-numbered node is down over `[2, 12)`.
    Outage,
}

const CONDITIONS: [Condition; 3] = [Condition::Clean, Condition::LinkFaults, Condition::Outage];

/// Which instruments a run carries, in the order recorder, causal trace,
/// profiler, telemetry, flight recorder.
type Attach = [bool; 5];

const BARE: Attach = [false; 5];
const ALL: Attach = [true; 5];

/// Each instrument's result, rendered with `Debug` (`None` when it was not
/// attached), in `Attach` order.
type Results = [Option<String>; 5];

fn run(kind: ProbeKind, leaves: usize, cond: Condition, attach: Attach) -> (RunRecord, Results) {
    let m = CostModel::thompson(leaves);
    let mut e = probe_engine(kind, leaves, &m, CalendarKind::Ladder, None, true);
    let plan = match cond {
        Condition::Clean => None,
        Condition::LinkFaults => Some(FaultPlan::new(leaves as u64).with_link_fault_rate(0.3)),
        Condition::Outage => {
            Some((1..e.node_count()).step_by(2).fold(FaultPlan::new(0), |p, i| {
                p.with_outage(NodeId(i), BitTime::new(2), BitTime::new(12))
            }))
        }
    };
    if let Some(p) = plan {
        e = e.with_fault_plan(p);
    }
    let [recorder, causal, profiler, telemetry, flight] = attach;
    if recorder {
        e = e.with_recorder(Recorder::new());
    }
    if causal {
        e = e.with_causal_trace();
    }
    if profiler {
        e = e.with_profiler(Profiler::new(4));
    }
    if telemetry {
        e = e.with_telemetry(Telemetry::new(8));
    }
    if flight {
        e = e.with_flight_recorder(FlightRecorder::new(16));
    }
    e.try_run().expect("probe runs within budget");
    let dbg = |x: &dyn std::fmt::Debug| format!("{x:?}");
    let results = [
        e.take_recorder().map(|x| dbg(&x)),
        e.take_causal_trace().map(|x| dbg(&x)),
        e.take_profiler().map(|x| dbg(&x)),
        e.take_telemetry().map(|x| dbg(&x)),
        e.take_flight_recorder().map(|x| dbg(&x)),
    ];
    (RunRecord::of(&e), results)
}

/// Runs one case bare, with all five instruments, and with each alone;
/// returns the bare run's fault stats.
fn check_case(kind: ProbeKind, leaves: usize, cond: Condition) -> FaultStats {
    let label = format!("{} n={leaves} {cond:?}", kind.tag());
    let (bare, none) = run(kind, leaves, cond, BARE);
    assert!(none.iter().all(Option::is_none), "{label}: the bare run carries nothing");
    let (all, together) = run(kind, leaves, cond, ALL);
    assert_eq!(all, bare, "{label}: attaching every instrument changed the run");
    for i in 0..5 {
        let mut attach = BARE;
        attach[i] = true;
        let (alone, solo) = run(kind, leaves, cond, attach);
        assert_eq!(alone, bare, "{label}: instrument {i} alone changed the run");
        assert!(solo[i].is_some(), "{label}: instrument {i} was attached");
        assert_eq!(together[i], solo[i], "{label}: instrument {i} depends on its neighbours");
    }
    bare.faults
}

/// Every case of the grid up to `2^max_exp` leaves, with a check that each
/// fault condition actually fired what it is there to exercise.
fn sweep(max_exp: u32) {
    for cond in CONDITIONS {
        let mut total = FaultStats::default();
        for kind in PROBE_KINDS {
            for exp in 1..=max_exp {
                total.absorb(&check_case(kind, 1 << exp, cond));
            }
        }
        match cond {
            Condition::Clean => assert_eq!(total, FaultStats::default()),
            Condition::LinkFaults => assert!(total.faulty_bits > 0, "link faults fired"),
            Condition::Outage => assert!(total.suppressed > 0, "suppressions fired"),
        }
    }
}

#[test]
fn instruments_are_independent_and_transparent() {
    sweep(4);
}

/// Drops and flips both reach the folds under the dense plan: the causal
/// trace loses exactly the dropped hops, and the profiler counts every
/// injected fault, dropped or not.
#[test]
fn dense_link_faults_fire_drops_and_flips() {
    let (fp, _) = run(ProbeKind::Stream, 16, Condition::LinkFaults, BARE);
    let m = CostModel::thompson(16);
    let mut e = probe_engine(ProbeKind::Stream, 16, &m, CalendarKind::Ladder, None, true)
        .with_fault_plan(FaultPlan::new(16).with_link_fault_rate(0.3))
        .with_causal_trace()
        .with_profiler(Profiler::new(4));
    e.try_run().expect("probe runs within budget");
    let trace = e.take_causal_trace().unwrap();
    let prof = e.take_profiler().unwrap();
    let dropped = trace.hops().iter().filter(|h| !h.delivered).count() as u64;
    assert!(dropped > 0, "some bits were dropped");
    assert!(prof.totals().faults > dropped, "some faulted bits still arrived");
    assert_eq!(prof.totals().faults, fp.faults.injected);
    assert_eq!(trace.len() as u64 - dropped, fp.delivered, "every kept hop was delivered");
}

/// The release-mode sweep CI runs: the same grid up to 2⁷ leaves.
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn full_probe_sweep_of_instrument_independence() {
    sweep(7);
}

/// FNV-1a over a stream of words: a stable digest for pinning long
/// sequences in a test table.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Every probe at 16 leaves (Thompson model, clean) against pinned values:
/// delivered events, completion time, a digest of every node's result and
/// a digest of the full event log. Any change to a probe's topology, node
/// or link order, words or widths moves at least one of them.
#[test]
fn every_probe_matches_its_pinned_run_at_sixteen_leaves() {
    // (kind, delivered events, completion τ, results digest, log digest)
    const PINNED: [(ProbeKind, u64, u64, u64, u64); 6] = [
        (ProbeKind::Broadcast, 124, 22, 0x6d78_cc92_c075_bd25, 0x98e1_4499_8521_0260),
        (ProbeKind::Send, 20, 22, 0xc989_121e_a09c_a589, 0xf1fa_3a93_5d0e_9b48),
        (ProbeKind::Sum, 248, 30, 0x781b_3466_56a3_599c, 0x1bf6_f562_c531_cccd),
        (ProbeKind::Min, 124, 26, 0x2ea3_2ef1_69f0_32e4, 0x8602_5a0b_9c68_11e8),
        (ProbeKind::LeafToLeaf, 144, 44, 0x1172_8174_5c8b_bbe5, 0x80a7_c598_8073_7445),
        (ProbeKind::Stream, 320, 82, 0x077e_a030_b67b_39cb, 0xd38d_cd2e_d66c_1e05),
    ];
    let m = CostModel::thompson(16);
    for (kind, delivered, completion, results, log) in PINNED {
        let mut e = probe_engine(kind, 16, &m, CalendarKind::Ladder, None, true);
        e.try_run().expect("probe runs within budget");
        let fp = RunRecord::of(&e);
        let got = (
            fp.delivered,
            fp.completion.map(BitTime::get),
            fnv1a(fp.results.iter().flat_map(|r| [u64::from(r.is_some()), r.unwrap_or(0)])),
            fnv1a(fp.log.iter().flat_map(|l| {
                [
                    l.at.get(),
                    l.node.0 as u64,
                    l.port.0 as u64,
                    u64::from(l.bit.value),
                    u64::from(l.bit.index),
                ]
            })),
        );
        assert_eq!(got, (delivered, Some(completion), results, log), "{} probe", kind.tag());
    }
}
