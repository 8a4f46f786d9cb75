//! Chaos soak harness for checkpoint/restore and supervised recovery.
//!
//! Three layers of guarantees:
//!
//! 1. **Engine snapshots** — a checkpoint taken at *any* event boundary,
//!    round-tripped through its on-disk JSON text and restored into a
//!    freshly built engine, resumes into a run that is bit-, clock- and
//!    stats-identical to the uninterrupted one — with and without fault
//!    plans, under FIFO and LIFO tie-breaking.
//! 2. **Word-level snapshots** — OTN/OTC networks checkpointed between
//!    problems restore to bit-identical registers, clock and fault
//!    cursor across 2²..2⁷ leaves.
//! 3. **Supervised recovery** — a long multi-problem run laced with
//!    outages and word faults completes under the recovery supervisor,
//!    matching the recoverable baseline, within a bounded attempt budget.

use orthotrees::checkpoint;
use orthotrees::obs::json::Json;
use orthotrees::otn::{self, Otn};
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::{BitTime, FaultPlan, SimError};
use orthotrees_sim::snapshot::{opt_u64_to_json, req_opt_u64, req_u64, req_word, word_to_json};
use orthotrees_sim::{
    supervise_engine, supervise_steps, Bit, Engine, NodeBehavior, NodeId, Outbox, PortId,
    RecoveryPolicy, RunRecord, Snapshot,
};
use orthotrees_verify::determinism::{self, check_commutes, fan_in, or_sink};
use orthotrees_vlsi::DelayModel;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Harness nodes.
// ---------------------------------------------------------------------

/// Emits one word LSB-first starting at time zero (mirrors the verify
/// crate's source; stateless, so the default snapshot hooks suffice).
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

/// ORs arriving bits and reports completion only once `need` bits have
/// arrived — so an outage that swallows deliveries leaves the run
/// quiescent-but-incomplete, which is exactly what the supervisor treats
/// as a failure.
struct CountedSink {
    need: u64,
    got: u64,
    acc: u64,
    done: Option<BitTime>,
}
impl NodeBehavior for CountedSink {
    fn on_bit(&mut self, now: BitTime, _: PortId, bit: Bit, _: &mut Outbox) {
        self.got += 1;
        if bit.value {
            self.acc |= 1 << bit.index;
        }
        if self.got >= self.need {
            self.done = Some(self.done.map_or(now, |d| d.max(now)));
        }
    }
    fn completed_at(&self) -> Option<BitTime> {
        self.done
    }
    fn result(&self) -> Option<u64> {
        Some(self.acc)
    }
    fn save_state(&self) -> Json {
        Json::obj([
            ("got", Json::u64(self.got)),
            ("acc", word_to_json(self.acc)),
            ("done", opt_u64_to_json(self.done.map(BitTime::get))),
        ])
    }
    fn load_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.got = req_u64(state, "got")?;
        self.acc = req_word(state, "acc")?;
        self.done = req_opt_u64(state, "done")?.map(BitTime::new);
        Ok(())
    }
}

/// `sources` word-emitters fanned into one counted sink (node 0).
fn counted_fan_in(model: DelayModel, sources: u32, width: u32) -> Engine {
    let mut e = Engine::new(model).with_event_log();
    let sink = e.add_node(Box::new(CountedSink {
        need: u64::from(sources) * u64::from(width),
        got: 0,
        acc: 0,
        done: None,
    }));
    for i in 0..sources {
        let src = e.add_node(Box::new(Source { value: 0x5a ^ u64::from(i), width }));
        e.connect(src, PortId(0), sink, PortId(i as usize), 8);
    }
    e
}

// ---------------------------------------------------------------------
// 1. Engine snapshots: restore at any boundary, through JSON text.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_snapshot_round_trips_at_any_boundary(
        cut in 0u64..48,
        sources in 2u32..6,
        model_ix in 0usize..3,
        with_plan in any::<bool>(),
        fault_seed in 0u64..1000,
    ) {
        let model = [DelayModel::Constant, DelayModel::Logarithmic, DelayModel::Linear][model_ix];
        let fault_seed = with_plan.then_some(fault_seed);
        let build = || {
            let e = counted_fan_in(model, sources, 8);
            match fault_seed {
                Some(seed) => e.with_fault_plan(FaultPlan::new(seed).with_link_fault_rate(0.1)),
                None => e,
            }
        };
        let mut baseline = build();
        let t_base = baseline.try_run().unwrap();

        let mut part = build();
        part.try_run_for(cut).unwrap();
        let text = part.snapshot().render();
        let snap = Snapshot::parse(&text).unwrap();
        prop_assert_eq!(snap.render(), text);

        let mut resumed = build();
        resumed.restore(&snap).unwrap();
        let t_res = resumed.try_run().unwrap();

        prop_assert_eq!(t_res, t_base);
        prop_assert_eq!(RunRecord::of(&resumed), RunRecord::of(&baseline));
    }
}

#[test]
fn run_checkpointed_snapshots_all_resume_identically() {
    let mut baseline = counted_fan_in(DelayModel::Logarithmic, 3, 8);
    let t_base = baseline.try_run().unwrap();
    let mut chk = counted_fan_in(DelayModel::Logarithmic, 3, 8);
    let (_, snaps) = chk.run_checkpointed(5, u64::MAX).unwrap();
    assert!(!snaps.is_empty(), "cadence 5 must produce checkpoints");
    for snap in &snaps {
        let mut resumed = counted_fan_in(DelayModel::Logarithmic, 3, 8);
        resumed.restore(snap).unwrap();
        assert_eq!(resumed.try_run().unwrap(), t_base);
        assert_eq!(RunRecord::of(&resumed), RunRecord::of(&baseline));
    }
}

/// The engine's LIFO tie-break verification knob composes with snapshots:
/// a checkpoint/restore cycle mid-run must not introduce any DET-001
/// divergence between FIFO and LIFO runs.
#[test]
fn lifo_ties_compose_with_snapshot_restore() {
    for model in [DelayModel::Constant, DelayModel::Logarithmic, DelayModel::Linear] {
        let findings = check_commutes("fan-in with mid-run checkpoint", |lifo| {
            let mut e = fan_in(model, 3, 8, Box::new(or_sink()), lifo);
            e.try_run_for(7).unwrap();
            let snap = Snapshot::parse(&e.snapshot().render()).unwrap();
            let mut resumed = fan_in(model, 3, 8, Box::new(or_sink()), lifo);
            resumed.restore(&snap).unwrap();
            resumed
        });
        assert!(findings.is_empty(), "{findings:?}");
    }
}

#[test]
fn restore_across_delay_models_is_a_typed_error() {
    let mut e = counted_fan_in(DelayModel::Constant, 2, 8);
    e.try_run_for(4).unwrap();
    let snap = e.snapshot();
    let mut wrong = counted_fan_in(DelayModel::Linear, 2, 8);
    match wrong.restore(&snap) {
        Err(SimError::SnapshotMismatch { what: "delay model", .. }) => {}
        other => panic!("expected delay-model mismatch, got {other:?}"),
    }
    let mut smaller = counted_fan_in(DelayModel::Constant, 3, 8);
    match smaller.restore(&snap) {
        Err(SimError::SnapshotMismatch { what, .. }) => {
            assert!(what.contains("node") || what.contains("link"), "got {what}");
        }
        other => panic!("expected shape mismatch, got {other:?}"),
    }
}

#[test]
fn lifo_engines_snapshot_their_tie_break_mode() {
    let mut e = fan_in(DelayModel::Logarithmic, 3, 8, Box::new(or_sink()), true);
    e.try_run_for(5).unwrap();
    let snap = e.snapshot();
    let mut fifo = fan_in(DelayModel::Logarithmic, 3, 8, Box::new(or_sink()), false);
    match fifo.restore(&snap) {
        Err(SimError::SnapshotMismatch { what: "tie-break mode", .. }) => {}
        other => panic!("expected tie-break mismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// 2. Word-level snapshots: OTN and OTC between problems.
// ---------------------------------------------------------------------

/// Sizes swept: 2²..2⁷ leaves.
const WORD_NS: [usize; 6] = [4, 8, 16, 32, 64, 128];

fn problem(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64).map(|v| (v * 37 + salt) % n as i64).collect()
}

/// Checkpoints `T`'s net between two sorts, restores the checkpoint into a
/// replica that sorted a different first problem, and requires the second
/// sort to replay bit-identically, with and without a fault plan.
fn snapshot_between_problems<T: Topology>(salt: i64, fault_seed: Option<u64>) -> TestCaseResult {
    for &n in &WORD_NS {
        let plan = fault_seed.map(|s| FaultPlan::new(s).with_word_fault_rate(0.02));

        // Reference: two problems back to back, checkpoint in between.
        let mut a = T::for_sorting(n).unwrap();
        if let Some(p) = plan.clone() {
            a.install_fault_plan(p);
        }
        let _ = T::sort(&mut a, &problem(n, salt)).unwrap();
        let text = a.checkpoint_text();
        let out_a = T::sort(&mut a, &problem(n, salt + 1)).unwrap();

        // Replica: diverge (different first problem), then restore the
        // checkpoint from its JSON text and replay the second problem.
        let mut b = T::for_sorting(n).unwrap();
        if let Some(p) = plan.clone() {
            b.install_fault_plan(p);
        }
        let _ = T::sort(&mut b, &problem(n, salt + 7)).unwrap();
        let snap = checkpoint::Snapshot::parse(&text).unwrap();
        b.restore(&snap).unwrap();
        let out_b = T::sort(&mut b, &problem(n, salt + 1)).unwrap();

        prop_assert_eq!(&out_a.sorted, &out_b.sorted);
        prop_assert_eq!(&out_a.missing, &out_b.missing);
        prop_assert_eq!(out_a.time, out_b.time);
        prop_assert_eq!(a.clock(), b.clock());
        prop_assert_eq!(a.fault_stats(), b.fault_stats());
        prop_assert_eq!(a.checkpoint_text(), b.checkpoint_text());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn otn_snapshot_between_problems_is_bit_identical(
        salt in 0i64..1000,
        with_plan in any::<bool>(),
        fault_seed in 0u64..1000,
    ) {
        snapshot_between_problems::<Tree>(salt, with_plan.then_some(fault_seed))?;
    }

    #[test]
    fn otc_snapshot_between_problems_is_bit_identical(
        salt in 0i64..1000,
        with_plan in any::<bool>(),
        fault_seed in 0u64..1000,
    ) {
        snapshot_between_problems::<Cycles>(salt, with_plan.then_some(fault_seed))?;
    }
}

// ---------------------------------------------------------------------
// 3. Supervised recovery: chaos soak.
// ---------------------------------------------------------------------

/// An outage swallows mid-run deliveries; the supervisor must roll back
/// (escalating past any checkpoint poisoned by mid-outage state), let the
/// heal hook clear the fault, and finish with exactly the clean run's
/// completion time and results.
#[test]
fn supervisor_recovers_engine_outage_to_clean_baseline() {
    let mut clean = counted_fan_in(DelayModel::Logarithmic, 4, 8);
    let t_clean = clean.try_run().unwrap();

    let mut chaotic = counted_fan_in(DelayModel::Logarithmic, 4, 8).with_fault_plan(
        FaultPlan::new(9).with_outage(NodeId(0), BitTime::new(6), BitTime::new(30)),
    );
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 6, min_checkpoint_events: 2 };
    let report = supervise_engine(&mut chaotic, &policy, |e, _failures| {
        e.set_fault_plan(None);
    })
    .expect("recovers within the attempt budget");

    assert!(report.rollbacks >= 1, "the outage must actually trip the supervisor");
    assert_eq!(report.attempts, report.rollbacks + 1);
    assert_eq!(report.completion, t_clean, "recovered run is clock-identical to clean");
    assert_eq!(RunRecord::of(&chaotic).results, RunRecord::of(&clean).results);
    assert!(report.replayed_events > 0);
    assert!(report.overhead_pct() > 0.0);
}

#[test]
fn supervisor_gives_up_when_nothing_heals() {
    let mut chaotic = counted_fan_in(DelayModel::Constant, 2, 8).with_fault_plan(
        FaultPlan::new(1).with_outage(NodeId(0), BitTime::ZERO, BitTime::new(1_000_000)),
    );
    let policy = RecoveryPolicy::attempts(3);
    let err = supervise_engine(&mut chaotic, &policy, |_, _| {}).unwrap_err();
    assert!(matches!(err, SimError::NoCompletion { .. }), "got {err:?}");
}

/// Long pipelined multi-problem soak at the word level: every problem of
/// the batch must come out sorted despite erasure-laden fault draws, by
/// retrying failed problems from the inter-problem checkpoint with a
/// bumped fault epoch.
#[test]
fn supervised_multi_problem_soak_matches_recoverable_baseline() {
    let n = 16;
    let problems: Vec<Vec<i64>> = (0..12).map(|k| problem(n, 13 * k)).collect();
    let expected: Vec<Vec<i64>> = problems
        .iter()
        .map(|xs| {
            let mut s = xs.clone();
            s.sort_unstable();
            s
        })
        .collect();

    let mut net = Otn::for_sorting(n).unwrap();
    net.install_fault_plan(FaultPlan::new(77).with_word_fault_rate(0.004));
    // Warm-up problem so the register layout exists before checkpointing.
    let _ = otn::sort::sort(&mut net, &problem(n, 1)).unwrap();

    let mut outputs: Vec<Vec<i64>> = Vec::new();
    let policy = RecoveryPolicy::attempts(8);
    let report = supervise_steps(
        &mut net,
        problems.len(),
        &policy,
        Otn::snapshot,
        |net, snap: &checkpoint::Snapshot| net.restore(snap),
        |net| net.clock().now(),
        |net, index, attempt| {
            if attempt > 0 {
                // Fresh deterministic draws: restore rolled the epoch
                // cursor back to the checkpoint's, so the bump must be
                // re-applied once per attempt or every retry replays the
                // same faults forever.
                for _ in 0..attempt {
                    net.bump_fault_epoch();
                }
                outputs.truncate(index);
            }
            let out = otn::sort::sort(net, &problems[index]).map_err(SimError::Model)?;
            if !out.missing.is_empty() {
                return Err(SimError::NoCompletion { what: "all sorted outputs" });
            }
            outputs.push(out.sorted);
            Ok(())
        },
    )
    .expect("soak recovers within the attempt budget");

    assert_eq!(outputs, expected, "every problem sorted despite injected faults");
    assert_eq!(report.completion, net.clock().now());
    assert!(
        report.rollbacks >= 1,
        "soak plan too gentle: no failure was injected (stats: {:?})",
        net.fault_stats()
    );
}

/// The CI-pinned bounded soak: n = 128 word sources fanned into one
/// counted sink under an *outage-dense* plan — the sink goes dark over
/// four staggered windows covering most of the run, and the heal hook
/// clears only one window per failure, so the supervisor has to roll
/// back repeatedly before the replay comes out clean. Everything is
/// fixed (seed, windows, budget): the step either recovers within the
/// attempt budget with the clean run's exact completion time and
/// results, or CI fails.
///
/// `#[ignore]`d so `cargo test` stays fast; ci.sh runs it explicitly in
/// release mode as its own gate step.
#[test]
#[ignore = "bounded CI soak; ci.sh runs it explicitly"]
fn ci_bounded_soak_n128_outage_dense_recovers() {
    const N: u32 = 128;
    let mut clean = counted_fan_in(DelayModel::Logarithmic, N, 8);
    let t_clean = clean.try_run().unwrap();

    // Four outage windows striped across the clean run's horizon.
    let horizon = t_clean.get();
    let windows: Vec<(BitTime, BitTime)> = (0..4)
        .map(|k| {
            let from = 1 + k * horizon / 5;
            (BitTime::new(from), BitTime::new(from + horizon / 4))
        })
        .collect();
    let plan_with = |windows: &[(BitTime, BitTime)]| {
        let mut plan = FaultPlan::new(0x50AC);
        for &(from, until) in windows {
            plan = plan.with_outage(NodeId(0), from, until);
        }
        plan
    };

    let mut chaotic =
        counted_fan_in(DelayModel::Logarithmic, N, 8).with_fault_plan(plan_with(&windows));
    // The first window opens at t = 1, so every mid-run checkpoint is
    // poisoned and the escalating rollback must drain all the way to the
    // pristine pre-start checkpoint (≤ KEPT_CHECKPOINTS stuck attempts)
    // on top of the one heal step per window — hence the roomier budget.
    let policy =
        RecoveryPolicy { max_attempts: 16, checkpoint_events: 64, min_checkpoint_events: 8 };
    let report = supervise_engine(&mut chaotic, &policy, |e, failures| {
        // Heal one window per failure: the supervisor must survive the
        // remaining outages until the plan is actually empty.
        let remaining = &windows[(failures as usize).min(windows.len())..];
        e.set_fault_plan(if remaining.is_empty() { None } else { Some(plan_with(remaining)) });
    })
    .expect("outage-dense soak recovers within the attempt budget");

    assert!(report.rollbacks >= windows.len() as u32, "every window must trip a rollback");
    assert_eq!(report.attempts, report.rollbacks + 1);
    assert!(report.attempts <= policy.max_attempts, "stays inside the CI budget");
    assert_eq!(report.completion, t_clean, "recovered run is clock-identical to clean");
    assert_eq!(RunRecord::of(&chaotic).results, RunRecord::of(&clean).results);
    assert!(report.replayed_events > 0);
}

/// The determinism pass's stock networks stay clean when every run is
/// interrupted and resumed — belt and braces over the CKPT-001 netlint
/// rule, from inside the test suite.
#[test]
fn stock_ckpt_findings_are_clean() {
    let findings = determinism::stock_findings();
    assert!(findings.is_empty(), "{findings:?}");
    let findings = orthotrees_verify::ckpt::stock_findings();
    assert!(findings.is_empty(), "{findings:?}");
}
