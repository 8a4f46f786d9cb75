//! Firing fixtures: one minimal corruption per catalogue rule id.
//!
//! A rule that never fires is indistinguishable from a rule that is wired
//! to nothing — [`crate::mutate`] proves that for the netlist rules, the
//! [`crate::dflow::DflowMutation`] matrix for the dataflow rules, and this
//! module closes the gap for everything else: [`firing_fixture`] maps
//! *every* id in [`crate::diag::RULES`] to a deterministic corruption
//! whose lint must contain that id. The meta-test at the bottom iterates
//! the whole catalogue, so adding a rule without a firing fixture fails
//! the suite — no rule can be registered vacuously.

use crate::dflow::DflowMutation;
use crate::diag::Report;
use crate::mutate::{lint_mutated, Mutation};
use crate::{ckpt, critpath, determinism, eng, schedule, words};
use orthotrees::obs::causal::{CausalTrace, MsgId};
use orthotrees::obs::json::Json;
use orthotrees::obs::probe::EngineEvent;
use orthotrees::obs::profile::{Profiler, Window};
use orthotrees::obs::telemetry::QuantileSketch;
use orthotrees::obs::Recorder;
use orthotrees::otc::Otc;
use orthotrees_layout::{Chip, ComponentKind, Rect};
use orthotrees_sim::{experiments, Engine};
use orthotrees_vlsi::tree::level_wire_lengths;
use orthotrees_vlsi::{BitTime, CostKind, CostModel, DelayModel};

fn netlist_fixture(m: Mutation) -> Report {
    lint_mutated(m, 16, 5)
}

fn dflow_fixture(m: DflowMutation) -> Report {
    m.fired()
}

/// One synthetic hop: `(msg, pred, [trigger_at, ready, enter, arrive],
/// link, delivered)`.
pub(crate) type SyntheticHop = (u64, Option<u64>, [u64; 4], usize, bool);

/// A causal trace fed from synthetic engine admissions, one per hop; an
/// undelivered hop is dropped by a link fault.
pub(crate) fn synthetic_trace(hops: &[SyntheticHop]) -> CausalTrace {
    let mut tr = CausalTrace::new();
    for &(msg, pred, t, link, delivered) in hops {
        let arrive = BitTime::new(t[3]);
        tr.on_engine(&EngineEvent::Admit {
            msg: MsgId(msg),
            trigger: pred.map(MsgId),
            link,
            link_len: 4,
            trigger_at: BitTime::new(t[0]),
            ready: BitTime::new(t[1]),
            enter: BitTime::new(t[2]),
            arrive,
            waited: t[2] - t[1],
        });
        if !delivered {
            tr.on_engine(&EngineEvent::Fault { msg: MsgId(msg), arrive, dropped: true });
        }
    }
    tr
}

/// A report in which catalogue rule `id` fires — the canonical minimal
/// corruption for that rule.
///
/// # Panics
///
/// Panics on an id that is not in the catalogue: the caller is expected
/// to iterate [`crate::diag::RULES`], so an unknown id is a bug in the
/// caller, not a reportable condition.
pub fn firing_fixture(id: &str) -> Report {
    let mut report = Report::new();
    match id {
        // Netlist corruption classes (the mutation harness).
        "NET-001" => return netlist_fixture(Mutation::SwapPorts),
        "NET-002" => return netlist_fixture(Mutation::DangleLink),
        "NET-003" => return netlist_fixture(Mutation::FanoutOverload),
        "NET-004" => return netlist_fixture(Mutation::SelfLoop),
        "NET-005" => return netlist_fixture(Mutation::DuplicateLink),
        "TREE-001" => return netlist_fixture(Mutation::KillSubtree),
        "TREE-002" => return netlist_fixture(Mutation::DropLink),
        "TREE-003" => return netlist_fixture(Mutation::StretchWire),
        // Dataflow corruption classes.
        "DFLOW-001" => return dflow_fixture(DflowMutation::DropInit),
        "DFLOW-002" => return dflow_fixture(DflowMutation::SpuriousWrite),
        "DFLOW-003" => return dflow_fixture(DflowMutation::DuplicateWrite),
        "DFLOW-004" => return dflow_fixture(DflowMutation::WidthTamper),
        "DFLOW-005" => return dflow_fixture(DflowMutation::PhantomReach),
        // Schedule rules.
        "SCHED-001" => {
            // Issue a stream faster than one word-length apart: entrances
            // collide on the root link.
            let m = CostModel::thompson(64);
            let levels = level_wire_lengths(64, m.leaf_pitch());
            let s = schedule::stream_schedule(&levels, m.word_bits, m.delay, 4, 1);
            report.extend(schedule::lint_conflicts("fixture", &s));
        }
        "SCHED-002" => {
            // A 4096-word stream completes linearly in the word count,
            // far past any single tree primitive's O(log² N) budget.
            let m = CostModel::thompson(16);
            let levels = level_wire_lengths(16, m.leaf_pitch());
            let s = schedule::stream_schedule(
                &levels,
                m.word_bits,
                m.delay,
                4096,
                m.pipeline_interval().get(),
            );
            report.extend(schedule::lint_budget("fixture", &s, 16, m.word_bits, m.delay));
        }
        "SCHED-003" => {
            let m = CostModel::thompson(16);
            let mut levels = level_wire_lengths(16, m.leaf_pitch());
            levels[2] *= 5;
            let s = schedule::broadcast_schedule(&levels, m.word_bits, m.delay);
            let charged = m.tree_root_to_leaf(16, m.leaf_pitch());
            report.extend(schedule::lint_against_model("fixture", &s, charged));
        }
        // Convention and layout rules.
        "OTN-001" => report.extend(words::lint_otn_shape("fixture", 3, 4, 4, 7)),
        "OTN-002" => report.extend(words::lint_otn_shape("fixture", 4, 4, 4, 1)),
        "OTC-001" => {
            // 64 = 8·8 is a legal Otc but not dims_for(64) = (16, 4).
            let net = Otc::new(8, 8, CostModel::thompson(64)).expect("legal OTC");
            report.extend(words::lint_otc(&net));
        }
        "OTC-002" => report.extend(words::lint_otc_shape("fixture", 16, 4, 6, 1)),
        "AREA-001" => report.extend(words::lint_layout(3, 4)),
        "GEO-001" => {
            let mut chip = Chip::new("fixture");
            chip.place(ComponentKind::Base, Rect::new(0, 0, 4, 4));
            chip.place(ComponentKind::Internal, Rect::new(2, 2, 4, 4));
            report.extend(words::lint_chip_overlap("fixture", &chip));
        }
        // Determinism and checkpoint rules.
        "ENG-001" => {
            // An impure builder — FIFO ties for the heap run, LIFO for the
            // ladder run — permutes same-τ deliveries between the two
            // engines, exactly the sequence divergence a broken calendar
            // would produce.
            let m = CostModel::thompson(8);
            let flip = std::cell::Cell::new(false);
            report.extend(eng::check_identity("fixture", |cal| {
                let e = experiments::probe_engine(
                    experiments::ProbeKind::Stream,
                    8,
                    &m,
                    cal,
                    None,
                    false,
                );
                if flip.replace(true) {
                    e.with_lifo_ties()
                } else {
                    e
                }
            }));
        }
        "DET-001" => report.extend(determinism::check_commutes("fixture", |lifo| {
            determinism::fan_in(
                DelayModel::Logarithmic,
                3,
                8,
                Box::new(determinism::FirstWins::new()),
                lifo,
            )
        })),
        "CKPT-001" => report.extend(ckpt::check_roundtrip("fixture", || {
            determinism::fan_in(
                DelayModel::Logarithmic,
                3,
                8,
                Box::new(ckpt::ForgetfulSink::new()),
                false,
            )
        })),
        "CKPT-002" => {
            // `other` builds the *same* shape, so the mismatch probe must
            // notice the snapshot restoring where it should not.
            let build = || {
                determinism::fan_in(
                    DelayModel::Logarithmic,
                    2,
                    8,
                    Box::new(determinism::or_sink()),
                    false,
                )
            };
            report.extend(ckpt::check_format("fixture", build, build));
        }
        // Causal-trace rules.
        "CRIT-001" => {
            let m = CostModel::thompson(16);
            let (_, mut e) = experiments::broadcast(16, &m, Engine::with_causal_trace)
                .expect("traced broadcast");
            let trace = e.take_causal_trace().expect("causal trace was installed");
            // Lint the logarithmic-delay trace against the constant-delay
            // closed forms: the per-level slices cannot match.
            let wrong = CostModel::constant_delay(16);
            report.extend(critpath::lint_roottoleaf("fixture", &trace, &wrong, 16));
        }
        "CRIT-002" => {
            // Hop 1 arrives at t=4 but hop 2 claims its trigger arrived
            // at t=6: a 2τ hole nothing accounts for.
            let tr = synthetic_trace(&[
                (1, None, [0, 0, 0, 4], 0, true),
                (2, Some(1), [6, 6, 6, 9], 1, true),
            ]);
            report.extend(critpath::lint_trace("fixture", &tr));
        }
        "CRIT-003" => {
            let tr = synthetic_trace(&[(1, None, [0, 0, 0, 4], 0, false)]);
            report.extend(critpath::lint_trace("fixture", &tr));
        }
        // Registry and profiler rules.
        "PRIM-001" => {
            let m = CostModel::thompson(16);
            // Corrupt the pricer: Send drawn from the aggregate form
            // instead of the leaf-to-root form.
            report.extend(crate::primitive::lint_costs_with(
                "fixture",
                &m,
                |kind, leaves, pitch, cycle| match kind {
                    CostKind::Send => m.tree_aggregate(leaves, pitch),
                    _ => m.primitive_cost(kind, leaves, pitch, cycle),
                },
            ));
        }
        "PROF-001" => {
            let m = CostModel::thompson(16);
            let (_, mut e) = experiments::broadcast(16, &m, |e| {
                e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16))
            })
            .expect("profiled broadcast");
            let rec = e.take_recorder().expect("recorder was installed");
            let prof = e.take_profiler().expect("profiler was installed");
            let mut windows = prof.windows().to_vec();
            let busy = windows
                .iter()
                .position(|w| w.events > 0 && w.link_bits > 0)
                .expect("active window");
            windows[busy].events -= 1;
            windows[busy].link_bits -= 1;
            let tampered = Profiler::from_windows(prof.width(), windows);
            report.extend(crate::profile::check_engine_tiling("fixture", &tampered, &rec));
        }
        "PROF-002" => {
            let w0 = Window { index: 0, events: 1, ..Window::default() };
            let w2 = Window { index: 2, events: 1, ..Window::default() };
            let prof = Profiler::from_windows(8, vec![w0, w2]);
            report.extend(crate::profile::check_windows("fixture", &prof));
        }
        // Telemetry rules.
        "TEL-001" => {
            // A sketch fed values 100 larger than the recorded samples:
            // every reported quantile escapes the exact ε rank band.
            let mut sk = QuantileSketch::new(0.01);
            let samples: Vec<u64> = (1..=200).collect();
            for &s in &samples {
                sk.observe(s + 100);
            }
            report.extend(crate::telemetry::check_sketch("fixture", &sk, &samples));
        }
        "TEL-002" => {
            // A clean black-box broadcast dump with a middle tail entry
            // removed: the remaining seqs are no longer contiguous.
            let m = CostModel::thompson(16);
            let (t, mut e) = experiments::broadcast(16, &m, crate::telemetry::black_box)
                .expect("black-box broadcast");
            let mut fl = e.take_flight_recorder().expect("flight recorder was installed");
            let mut dump = fl.dump("export", t, &[]);
            let mut tail = dump.get("tail").and_then(Json::as_arr).expect("tail array").to_vec();
            tail.remove(tail.len() / 2);
            dump.set("tail", Json::arr(tail));
            report.extend(crate::telemetry::check_flight_dump("fixture", &dump, e.log()));
        }
        other => panic!("no firing fixture for catalogue rule {other:?}"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::RULES;

    #[test]
    fn every_catalogue_rule_fires_on_its_fixture() {
        for rule in RULES {
            let report = firing_fixture(rule.id);
            assert!(
                report.has(rule.id),
                "{} has a fixture that does not fire it: {}",
                rule.id,
                report.render_text()
            );
        }
    }

    #[test]
    fn fixtures_reject_unknown_ids() {
        let err = std::panic::catch_unwind(|| firing_fixture("NOPE-999"));
        assert!(err.is_err(), "unknown ids must panic, not return an empty report");
    }
}
