//! Crash-recovery experiments: supervised runs whose [`RecoveryReport`]s
//! feed the report's recovery table and the bench summary's `recovery`
//! section.
//!
//! Two supervised workloads, one per simulator level:
//!
//! * [`engine_outage_recovery`] — bit level: `SUM-LEAFTOROOT` with a
//!   total outage injected at the root sink. The first attempt always
//!   goes quiescent without completing; the supervisor rolls back,
//!   heals (clears the fault plan) and replays to the clean run's exact
//!   completion time. The returned recorder holds the `RECOVERY` spans
//!   (visible in Perfetto traces);
//! * [`otn_soak_recovery`] — word level: a pipelined multi-problem OTN
//!   sorting soak under an erasure-laden fault plan, retried from
//!   inter-problem checkpoints with a bumped fault epoch until every
//!   problem comes out sorted.
//!
//! Both are deterministic: the same seeds produce the same failures,
//! rollbacks and replay cost on every run — which is what lets the bench
//! `recovery` section be diffed against a committed baseline.

use crate::workloads;
use orthotrees::checkpoint::Snapshot;
use orthotrees::obs::Recorder;
use orthotrees::otn::{self, Otn};
use orthotrees::FaultPlan;
use orthotrees_sim::{experiments, supervise_steps, RecoveryPolicy, RecoveryReport};
use orthotrees_vlsi::{CostModel, SimError};
use std::fmt::Write as _;

/// Fault-plan seed for the word-level soak, calibrated so the erasure
/// rate actually trips retries at the default soak size (a silent plan
/// would make the recovery table vacuous).
pub const SOAK_FAULT_SEED: u64 = 77;

/// Word-fault probability for the soak — dense enough that a 12-problem
/// batch at `n = 16` sees at least one unrecoverable sort, sparse enough
/// that a handful of retries always succeeds.
pub const SOAK_FAULT_RATE: f64 = 0.004;

/// Runs the bit-level supervised outage workload over `leaves` seeded
/// words; returns the recovery report and the recorder holding the
/// `RECOVERY` spans.
///
/// # Errors
///
/// Returns [`SimError`] if `leaves` is not a power of two ≥ 2, the
/// supervised run exhausts its attempt budget, or the recovered sum
/// disagrees with the arithmetic one.
pub fn engine_outage_recovery(
    leaves: usize,
    seed: u64,
) -> Result<(RecoveryReport, Recorder), SimError> {
    let values: Vec<u64> =
        workloads::distinct_words(leaves, seed).into_iter().map(|v| v.unsigned_abs()).collect();
    let m = CostModel::thompson(leaves);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    let (report, mut e, sum) = experiments::supervised_sum_recovery(&values, &m, &policy, |e| {
        e.with_recorder(Recorder::new())
    })?;
    let rec = e.take_recorder().ok_or(SimError::NoCompletion { what: "recovery recorder" })?;
    if sum != values.iter().sum::<u64>() {
        return Err(SimError::NoCompletion { what: "recovered aggregate sum" });
    }
    Ok((report, rec))
}

/// Runs the word-level soak: `problems` seeded sorting problems of size
/// `n` through one OTN under a [`SOAK_FAULT_RATE`] erasure plan, each
/// failed problem retried from the inter-problem checkpoint with a
/// bumped fault epoch. Every output is verified sorted.
///
/// # Errors
///
/// Returns [`SimError`] if any problem still fails after the attempt
/// budget, or an output comes back unsorted.
///
/// # Panics
///
/// Panics if `n` is not a power of two (the sorting network's
/// constructor requirement).
pub fn otn_soak_recovery(n: usize, problems: usize, seed: u64) -> Result<RecoveryReport, SimError> {
    let inputs: Vec<Vec<i64>> =
        (0..problems).map(|k| workloads::distinct_words(n, seed.wrapping_add(k as u64))).collect();

    let mut net = Otn::for_sorting(n).expect("power-of-two sort size");
    net.install_fault_plan(FaultPlan::new(SOAK_FAULT_SEED).with_word_fault_rate(SOAK_FAULT_RATE));
    // Warm-up problem so the register layout exists before checkpointing.
    let _ = otn::sort::sort(&mut net, &workloads::distinct_words(n, seed ^ 0x5eed))
        .map_err(SimError::Model)?;

    let mut outputs: Vec<Vec<i64>> = Vec::new();
    let policy = RecoveryPolicy::attempts(8);
    let report = supervise_steps(
        &mut net,
        inputs.len(),
        &policy,
        Otn::snapshot,
        |net, snap: &Snapshot| net.restore(snap),
        |net| net.clock().now(),
        |net, index, attempt| {
            if attempt > 0 {
                // Restore rolled the fault-epoch cursor back to the
                // checkpoint's, so the bump must be re-applied once per
                // attempt or every retry replays the same faults.
                for _ in 0..attempt {
                    net.bump_fault_epoch();
                }
                outputs.truncate(index);
            }
            let out = otn::sort::sort(net, &inputs[index]).map_err(SimError::Model)?;
            if !out.missing.is_empty() {
                return Err(SimError::NoCompletion { what: "all sorted outputs" });
            }
            outputs.push(out.sorted);
            Ok(())
        },
    )?;

    for (out, input) in outputs.iter().zip(&inputs) {
        let mut expect = input.clone();
        expect.sort_unstable();
        if out != &expect {
            return Err(SimError::NoCompletion { what: "sorted soak output" });
        }
    }
    Ok(report)
}

/// Renders the recovery table: one row per supervised workload.
pub fn recovery_table(runs: &[(&str, usize, RecoveryReport)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>8} {:>9} {:>6} {:>11} {:>13} {:>15} {:>9}",
        "workload",
        "n",
        "attempts",
        "rollbacks",
        "ckpts",
        "replayed_ev",
        "replayed_bits",
        "completion_bits",
        "overhead"
    );
    for (workload, n, r) in runs {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8} {:>9} {:>6} {:>11} {:>13} {:>15} {:>8.1}%",
            workload,
            n,
            r.attempts,
            r.rollbacks,
            r.checkpoints,
            r.replayed_events,
            r.replayed_time.get(),
            r.completion.get(),
            r.overhead_pct()
        );
    }
    out
}

/// The crash-recovery section of the full report: both supervised
/// workloads, rendered as a table (failures render as a message instead
/// of aborting the report).
pub fn recovery_report_section(seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Crash recovery — supervised runs (checkpoint, detect, roll back, heal, replay):"
    );
    let mut runs = Vec::new();
    match engine_outage_recovery(16, seed) {
        Ok((report, _rec)) => runs.push(("SUM-OUTAGE", 16, report)),
        Err(e) => {
            let _ = writeln!(out, "SUM-OUTAGE failed: {e}");
        }
    }
    match otn_soak_recovery(16, 12, seed) {
        Ok(report) => runs.push(("SOAK-OTN", 16, report)),
        Err(e) => {
            let _ = writeln!(out, "SOAK-OTN failed: {e}");
        }
    }
    out.push_str(&recovery_table(&runs));
    out.push_str(
        "replayed bits are wall-clock waste, not simulated time: the recovered completion\n\
         equals the crash-free run's, and replayed windows appear as RECOVERY trace spans.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_outage_recovery_reports_at_least_one_rollback() {
        let (report, rec) = engine_outage_recovery(16, 42).unwrap();
        assert!(report.rollbacks >= 1, "{report:?}");
        assert_eq!(report.attempts, report.rollbacks + 1);
        assert!(report.overhead_pct() > 0.0);
        assert!(rec.phase_totals().iter().any(|p| p.name == "RECOVERY"));
    }

    #[test]
    fn otn_soak_recovery_retries_and_sorts_everything() {
        // Same parameters the bench summary uses: the calibrated fault
        // plan must actually trip a retry, or the bench recovery entry
        // degenerates to a fault-free run.
        let report = otn_soak_recovery(16, 12, 42).unwrap();
        assert!(report.rollbacks >= 1, "soak plan too gentle: {report:?}");
        assert!(report.replayed_time.get() > 0);
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let (a, _) = engine_outage_recovery(16, 7).unwrap();
        let (b, _) = engine_outage_recovery(16, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_section_renders_both_workloads() {
        let text = recovery_report_section(42);
        assert!(text.contains("SUM-OUTAGE"), "{text}");
        assert!(text.contains("SOAK-OTN"), "{text}");
        assert!(text.contains("RECOVERY"), "{text}");
        assert!(!text.contains("failed:"), "{text}");
    }
}
