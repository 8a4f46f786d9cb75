//! Telemetry section of the full report: pipeline-SLO tables built from
//! [`crate::experiments::pipeline_telemetry`] runs.
//!
//! One row per `(n, problems)` point: sustained throughput in
//! problems/Mτ next to the sketch-reported p50/p90/p99 of per-problem
//! completion time. The quantiles come from the streaming
//! [`QuantileSketch`](orthotrees::obs::telemetry::QuantileSketch) — the
//! same figures the OpenMetrics export publishes — so the table doubles
//! as a human-readable view of the `orthotrees-telemetry/v1` document.

use crate::experiments::{pipeline_telemetry, PipelineSlo};
use orthotrees_vlsi::ModelError;
use std::fmt::Write as _;

/// Renders the pipeline-SLO table: one row per batch.
pub fn telemetry_table(rows: &[PipelineSlo]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>13} {:>14} {:>10} {:>10} {:>10}",
        "n", "problems", "makespan_bits", "problems/Mtau", "p50_bits", "p90_bits", "p99_bits"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>13} {:>14.1} {:>10} {:>10} {:>10}",
            r.n,
            r.problems,
            r.makespan.get(),
            r.problems_per_mtau(),
            r.quantiles[0],
            r.quantiles[1],
            r.quantiles[2],
        );
    }
    out
}

/// One pipelined batch of the report: its size `n` and its SLO figures,
/// or why it failed.
pub type PipelineBatch = (usize, Result<PipelineSlo, ModelError>);

/// Runs the report's two pipeline-SLO batches, 64 problems each at
/// `n` = 16 and 64.
pub(crate) fn pipeline_batches(seed: u64) -> [PipelineBatch; 2] {
    [16, 64].map(|n| (n, pipeline_telemetry(n, 64, seed)))
}

/// The telemetry section of the full report: moderate-size pipeline-SLO
/// batches (failures render as a message instead of aborting the report).
pub fn telemetry_report_section(seed: u64) -> String {
    telemetry_section(&pipeline_batches(seed))
}

/// [`telemetry_report_section`] rendered from `batches`.
pub(crate) fn telemetry_section(batches: &[PipelineBatch]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Streaming telemetry — pipelined sorting SLOs (quantiles from the ε-rank sketch):"
    );
    let mut rows = Vec::new();
    for (n, batch) in batches {
        match batch {
            Ok(slo) => rows.push(slo.clone()),
            Err(e) => {
                let _ = writeln!(out, "pipeline n={n} failed: {e}");
            }
        }
    }
    out.push_str(&telemetry_table(&rows));
    out.push_str(
        "p50 tracks the single-problem latency; deep batches push p99 toward the makespan\n\
         while throughput approaches one problem per issue interval (3 word-slices).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_section_renders_every_row() {
        let text = telemetry_report_section(42);
        assert!(text.contains("problems/Mtau"), "{text}");
        assert!(!text.contains("failed:"), "{text}");
        // Both sizes made it into the table.
        assert!(text.lines().any(|l| l.trim_start().starts_with("16")), "{text}");
        assert!(text.lines().any(|l| l.trim_start().starts_with("64")), "{text}");
    }

    #[test]
    fn table_is_empty_only_of_rows_without_input() {
        assert_eq!(telemetry_table(&[]).lines().count(), 1, "header only");
    }
}
