//! Checkpoint/restore checker: is a resumed run indistinguishable?
//!
//! The engine's [`snapshot`](orthotrees_sim::Engine::snapshot) contract is
//! total: a checkpoint taken at *any* event boundary, serialized to JSON
//! text and restored into a freshly built engine must resume into a run
//! that is bit-, clock- and stats-identical to the uninterrupted one. Two
//! rules police that contract:
//!
//! - **CKPT-001** — round-trip determinism. For a sweep of cut points
//!   (first event, mid-run, last event) the resumed run's [`RunRecord`]
//!   is compared against the baseline's: end and completion time,
//!   delivered-event count, fault statistics, every node's result and the
//!   full event log. Any divergence means
//!   some state escaped the snapshot — a node with mutable state that
//!   skipped its [`save_state`](orthotrees_sim::NodeBehavior::save_state)
//!   hook, for instance (see [`ForgetfulSink`]).
//! - **CKPT-002** — format integrity. The on-disk document must be a
//!   render/parse fixed point, tampered or truncated documents must be
//!   rejected with a typed error, and restoring into an engine with a
//!   different shape (delay model, node count) must fail loudly instead
//!   of silently corrupting state.
//!
//! [`stock_findings`] sweeps both rules over the same fan-in networks the
//! determinism pass uses; `netlint --all` runs it in CI.

use crate::determinism::fan_in;
use crate::diag::Finding;
use orthotrees_sim::{Bit, Engine, LogOrder, NodeBehavior, Outbox, PortId, RunRecord, Snapshot};
use orthotrees_vlsi::{BitTime, DelayModel};

/// Runs `build()` uninterrupted, then replays it with a checkpoint/restore
/// cycle at each of a sweep of event boundaries, reporting every
/// observable divergence as CKPT-001.
///
/// `build` must construct the same network every call (it is invoked once
/// for the baseline and twice per cut point: the run that is interrupted
/// and the fresh engine the checkpoint is restored into).
pub fn check_roundtrip(network: &str, build: impl Fn() -> Engine) -> Vec<Finding> {
    let mut baseline = build();
    if let Err(e) = baseline.try_run() {
        return vec![Finding::new(
            "CKPT-001",
            network,
            "baseline",
            format!("uninterrupted run failed: {e}"),
            "fix the network before checking checkpointing",
        )];
    }
    let expected = RunRecord::of(&baseline);
    let total = expected.delivered;
    let mut cuts = vec![0, 1, total / 2, total.saturating_sub(1), total];
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    for k in cuts {
        let cut = format!("cut after {k}/{total} events");
        match resume_at(&build, k) {
            Err(detail) => out.push(Finding::new(
                "CKPT-001",
                network,
                cut,
                detail,
                "the snapshot text must restore into an identically built engine",
            )),
            Ok(resumed) => {
                let divergences = expected.divergences(
                    &RunRecord::of(&resumed),
                    ["uninterrupted", "restored"],
                    LogOrder::Sequence,
                );
                out.extend(divergences.into_iter().map(|d| {
                    Finding::new(
                        "CKPT-001",
                        network,
                        format!("{cut}, {}", d.subject),
                        d.detail,
                        "snapshot every piece of run state (save_state/load_state for every \
                         stateful node)",
                    )
                }));
            }
        }
    }
    out
}

/// Interrupts a fresh `build()` after `k` delivered events, round-trips
/// the snapshot through its JSON text, restores into another fresh build
/// and runs to quiescence. Returns the resumed engine, or a description of
/// the step that failed.
fn resume_at(build: &impl Fn() -> Engine, k: u64) -> Result<Engine, String> {
    let mut part = build();
    part.try_run_for(k).map_err(|e| format!("interrupted run failed: {e}"))?;
    let text = part.snapshot().render();
    let snap =
        Snapshot::parse(&text).map_err(|e| format!("rendered snapshot failed to parse: {e}"))?;
    let mut resumed = build();
    resumed.restore(&snap).map_err(|e| format!("restore into fresh engine failed: {e}"))?;
    resumed.try_run().map_err(|e| format!("resumed run failed: {e}"))?;
    Ok(resumed)
}

/// Checks the on-disk snapshot format (CKPT-002): render/parse fixed
/// point, rejection of tampered documents, and typed refusal to restore
/// into a mismatched engine (built by `other`, which must differ from
/// `build` in shape or delay model).
pub fn check_format(
    network: &str,
    build: impl Fn() -> Engine,
    other: impl Fn() -> Engine,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut e = build();
    let _ = e.try_run_for(3);
    let text = e.snapshot().render();

    match Snapshot::parse(&text) {
        Err(err) => out.push(Finding::new(
            "CKPT-002",
            network,
            "render/parse".to_string(),
            format!("engine's own snapshot text fails to parse: {err}"),
            "render() and parse() must be inverses",
        )),
        Ok(snap) => {
            if snap.render() != text {
                out.push(Finding::new(
                    "CKPT-002",
                    network,
                    "render/parse".to_string(),
                    "snapshot text is not a render/parse fixed point".to_string(),
                    "canonicalize the document (stable key order, no float drift)",
                ));
            }
            let mut wrong = other();
            if wrong.restore(&snap).is_ok() {
                out.push(Finding::new(
                    "CKPT-002",
                    network,
                    "shape mismatch".to_string(),
                    "snapshot restored into a differently shaped engine".to_string(),
                    "restore must validate delay model, node and link counts",
                ));
            }
        }
    }

    let tampered = [
        ("schema tag", text.replacen("orthotrees-snapshot/v1", "orthotrees-snapshot/v9", 1)),
        ("renamed field", text.replacen("\"engine\"", "\"enigne\"", 1)),
        ("truncated text", text[..text.len() - 2].to_string()),
    ];
    for (what, doc) in tampered {
        if doc == text {
            // The substitution found nothing to replace — a format change
            // broke the tamper probe itself, which is worth hearing about.
            out.push(Finding::new(
                "CKPT-002",
                network,
                what.to_string(),
                "tamper probe no longer matches the document".to_string(),
                "update the CKPT-002 probes to the current schema",
            ));
            continue;
        }
        if Snapshot::parse(&doc).is_ok() {
            out.push(Finding::new(
                "CKPT-002",
                network,
                what.to_string(),
                "tampered snapshot document was accepted".to_string(),
                "validate the schema tag and every required field on parse",
            ));
        }
    }
    out
}

/// A deliberately *forgetful* sink: it accumulates state like the
/// determinism pass's OR-sink but keeps the default (stateless)
/// [`save_state`](NodeBehavior::save_state) hook, so a checkpoint taken
/// mid-run loses its accumulator. The canonical CKPT-001 violation, kept
/// public so tests can prove the checker fires.
#[derive(Default)]
pub struct ForgetfulSink {
    acc: u64,
    done: Option<BitTime>,
}

impl ForgetfulSink {
    /// An empty accumulator.
    pub fn new() -> Self {
        ForgetfulSink::default()
    }
}

impl NodeBehavior for ForgetfulSink {
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
    // No save_state/load_state: that omission is the point.
}

/// The stock checkpoint checks `netlint` runs: fan-in networks under
/// every delay model must round-trip at every cut point, and the on-disk
/// format must reject tampering and shape mismatches.
pub fn stock_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for model in [DelayModel::Constant, DelayModel::Logarithmic, DelayModel::Linear] {
        for sources in [2u32, 4, 8] {
            let name = format!("fan-in[{sources}] under {model:?}");
            let build = || or_fan_in(model, sources);
            out.extend(check_roundtrip(&name, build));
            // Mismatch partner: same shape, different delay model.
            let wrong =
                if model == DelayModel::Linear { DelayModel::Constant } else { DelayModel::Linear };
            out.extend(check_format(&name, build, || or_fan_in(wrong, sources)));
        }
    }
    out
}

/// The determinism pass's OR fan-in with FIFO ties — an engine whose every
/// node implements the state hooks, so checkpoints are lossless.
fn or_fan_in(model: DelayModel, sources: u32) -> Engine {
    fan_in(model, sources, 8, Box::new(crate::determinism::or_sink()), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees_obs::json::Json;
    use orthotrees_vlsi::SimError;

    #[test]
    fn stock_networks_round_trip_cleanly() {
        assert!(stock_findings().is_empty());
    }

    #[test]
    fn forgetful_sink_is_ckpt001() {
        let f = check_roundtrip("forgetful", || {
            fan_in(DelayModel::Logarithmic, 3, 8, Box::new(ForgetfulSink::new()), false)
        });
        assert!(f.iter().any(|f| f.rule == "CKPT-001"), "{f:?}");
    }

    #[test]
    fn format_probes_reject_tampering() {
        let f = check_format(
            "fan-in",
            || or_fan_in(DelayModel::Logarithmic, 2),
            || or_fan_in(DelayModel::Constant, 2),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn node_state_survives_the_json_text() {
        // Direct spot check that the saved node state is real data, not
        // Null: cut mid-word so the sink accumulator is half-populated.
        let mut e = or_fan_in(DelayModel::Constant, 2);
        let _ = e.try_run_for(5).unwrap();
        let doc = Json::parse(&e.snapshot().render()).unwrap();
        let states = doc.get("node_states").and_then(Json::as_arr).unwrap();
        assert!(
            states.iter().any(|s| !matches!(s, Json::Null)),
            "expected at least one non-null node state, got {}",
            doc.render()
        );
    }

    #[test]
    fn restore_into_wrong_engine_is_typed() {
        let mut e = or_fan_in(DelayModel::Constant, 2);
        let _ = e.try_run_for(3).unwrap();
        let snap = e.snapshot();
        let mut wrong = or_fan_in(DelayModel::Linear, 2);
        match wrong.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "delay model", .. }) => {}
            other => panic!("expected delay-model mismatch, got {other:?}"),
        }
    }
}
