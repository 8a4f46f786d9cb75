//! Causal-trace checker: is the extracted critical path *exact*?
//!
//! The causal layer ([`CausalTrace`]) claims two strong properties that a
//! subtle engine bug could silently break:
//!
//! 1. the backward walk from the completion event tiles `[0, completion]`
//!    with no gap or overlap — every bit-time is attributed to exactly one
//!    {wire-delay, queue-wait, node-compute} slice (`CRIT-002`), and the
//!    slack table has a zero-slack completion link (`CRIT-003`);
//! 2. on a *clean* `ROOTTOLEAF` broadcast the wire slices of that path
//!    equal the [`CostModel::level_bit_delays`] closed form bit for bit,
//!    root level first, and the completion time equals
//!    [`CostModel::tree_root_to_leaf`] plus the harness's one-τ injection
//!    feed (`CRIT-001`).
//!
//! [`lint_trace`] checks property 1 on any trace; [`lint_roottoleaf`]
//! checks property 2 against a model; [`lint_broadcast`] runs the
//! bit-level broadcast and applies both; [`stock_findings`] is the
//! `netlint` pass sweeping the standard tree sizes × delay models.

use crate::diag::Finding;
use orthotrees::obs::causal::{CausalTrace, SegmentKind};
use orthotrees_sim::{experiments, Engine};
use orthotrees_vlsi::{BitTime, CostModel};

/// Checks the tiling invariants of a trace's critical path (`CRIT-002`)
/// and the slack accounting (`CRIT-003`). A trace that recorded hops but
/// delivered nothing has no completion event to attribute — that is a
/// `CRIT-003` finding too (the run's "completion" is unexplained).
pub fn lint_trace(network: &str, trace: &CausalTrace) -> Vec<Finding> {
    let mut out = Vec::new();
    if trace.is_empty() {
        return out;
    }
    let Some(path) = trace.critical_path() else {
        out.push(Finding::new(
            "CRIT-003",
            network,
            "completion event",
            format!("trace records {} hop(s) but none was delivered", trace.len()),
            "a run that completes must deliver the bit that completes it",
        ));
        return out;
    };
    if !path.covers_completion() {
        let spans: Vec<(u64, u64)> =
            path.segments.iter().map(|s| (s.start.get(), s.end.get())).collect();
        out.push(Finding::new(
            "CRIT-002",
            network,
            "critical path",
            format!("slices {spans:?} do not tile [0, {}]", path.completion.get()),
            "every hop must record trigger_at ≤ ready ≤ enter ≤ arrive with \
             pred.arrive == trigger_at",
        ));
    }
    let total: BitTime = [SegmentKind::WireDelay, SegmentKind::QueueWait, SegmentKind::NodeCompute]
        .into_iter()
        .map(|k| path.kind_total(k))
        .sum();
    if total != path.completion {
        out.push(Finding::new(
            "CRIT-002",
            network,
            "critical path",
            format!("Σ segment durations {} ≠ completion {}", total.get(), path.completion.get()),
            "the three segment kinds must partition the path exactly",
        ));
    }
    let slacks = trace.link_slacks();
    let min = slacks.iter().map(|s| s.slack).min();
    if min != Some(BitTime::ZERO) {
        out.push(Finding::new(
            "CRIT-003",
            network,
            "link slack table",
            format!("minimum slack is {min:?}, not 0"),
            "the link carrying the completion bit must have zero slack",
        ));
    }
    out
}

/// Checks a clean `ROOTTOLEAF` trace against the closed forms
/// (`CRIT-001`): completion must equal
/// `tree_root_to_leaf(leaves) + wire_bit_delay(0)` (the harness feeds the
/// root through one zero-length wire), and the positive-length wire
/// slices of the critical path must equal
/// [`CostModel::level_bit_delays`] reversed (root level crossed first).
pub fn lint_roottoleaf(
    network: &str,
    trace: &CausalTrace,
    m: &CostModel,
    leaves: usize,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(path) = trace.critical_path() else {
        return out; // lint_trace reports the missing completion
    };
    let pitch = m.leaf_pitch();
    // The expected completion derives from the registry: ROOTTOLEAF's
    // declared cost kind priced by the same `primitive_cost` the word-level
    // executor charges, so this rule pins the bit-level engine, the closed
    // form and the registry to one value.
    let kind = orthotrees::primitive::spec_for("ROOTTOLEAF")
        .cost
        .expect("ROOTTOLEAF declares a cost kind");
    let expect_t = m.primitive_cost(kind, leaves, pitch, 1) + m.delay.wire_bit_delay(0);
    if path.completion != expect_t {
        out.push(Finding::new(
            "CRIT-001",
            network,
            "completion time",
            format!(
                "traced completion {} ≠ closed form tree_root_to_leaf + feed = {}",
                path.completion.get(),
                expect_t.get()
            ),
            "the event engine and the CostModel must agree on every level's wire delay",
        ));
    }
    let wires: Vec<u64> = path
        .wire_segments()
        .filter(|s| s.link_len.unwrap_or(0) > 0)
        .map(|s| s.duration().get())
        .collect();
    let mut expect: Vec<u64> =
        m.level_bit_delays(leaves, pitch).into_iter().map(BitTime::get).collect();
    expect.reverse(); // closed form lists the leaf level first
    if wires != expect {
        out.push(Finding::new(
            "CRIT-001",
            network,
            "per-level wire delays",
            format!("critical-path wire slices {wires:?} ≠ closed-form levels {expect:?}"),
            "each level's wire slice must equal wire_bit_delay(level length) exactly",
        ));
    }
    out
}

/// Runs the bit-level `ROOTTOLEAF` broadcast over `leaves` leaves with a
/// causal trace installed and applies [`lint_trace`] and
/// [`lint_roottoleaf`]. A failed run is itself a `CRIT-002` finding.
pub fn lint_broadcast(leaves: usize, m: &CostModel) -> Vec<Finding> {
    let network = format!("ROOTTOLEAF[{leaves}] under {:?}", m.delay);
    match experiments::broadcast(leaves, m, Engine::with_causal_trace) {
        Ok((_, mut e)) => {
            let trace = e.take_causal_trace().expect("causal trace was installed for this run");
            let mut out = lint_trace(&network, &trace);
            out.extend(lint_roottoleaf(&network, &trace, m, leaves));
            out
        }
        Err(e) => vec![Finding::new(
            "CRIT-002",
            network,
            "bit-level run",
            format!("traced broadcast failed: {e}"),
            "the traced run must complete exactly like the untraced one",
        )],
    }
}

/// The stock critical-path checks `netlint` runs: traced broadcasts over
/// the standard tree sizes under every delay model must match the closed
/// forms bit for bit.
pub fn stock_findings(tree_leaves: &[usize]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &leaves in tree_leaves {
        for m in [
            CostModel::thompson(leaves),
            CostModel::constant_delay(leaves),
            CostModel::linear_delay(leaves),
        ] {
            out.extend(lint_broadcast(leaves, &m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::synthetic_trace;

    #[test]
    fn stock_broadcasts_are_clean() {
        assert!(stock_findings(&[2, 16, 64]).is_empty());
    }

    #[test]
    fn a_gapped_trace_is_crit002() {
        // Hop 1 arrives at t=4 but hop 2 claims its trigger arrived at
        // t=6: the causal chain has a 2τ hole nothing accounts for.
        let tr = synthetic_trace(&[
            (1, None, [0, 0, 0, 4], 0, true),
            (2, Some(1), [6, 6, 6, 9], 1, true),
        ]);
        let f = lint_trace("synthetic", &tr);
        assert!(f.iter().any(|f| f.rule == "CRIT-002"), "{f:?}");
    }

    #[test]
    fn an_undelivered_completion_is_crit003() {
        let tr = synthetic_trace(&[(1, None, [0, 0, 0, 4], 0, false)]);
        let f = lint_trace("synthetic", &tr);
        assert!(f.iter().any(|f| f.rule == "CRIT-003"), "{f:?}");
    }

    #[test]
    fn a_wrong_model_is_crit001() {
        let m = CostModel::thompson(16);
        let (_, mut e) = experiments::broadcast(16, &m, Engine::with_causal_trace).unwrap();
        let trace = e.take_causal_trace().unwrap();
        // Lint the logarithmic-delay trace against the constant-delay
        // closed forms: the per-level slices cannot match.
        let wrong = CostModel::constant_delay(16);
        let f = lint_roottoleaf("mismatched", &trace, &wrong, 16);
        assert!(f.iter().any(|f| f.rule == "CRIT-001"), "{f:?}");
    }

    #[test]
    fn an_empty_trace_is_clean() {
        assert!(lint_trace("empty", &CausalTrace::new()).is_empty());
    }
}
