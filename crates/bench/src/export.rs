//! Telemetry artifact export — the `telemetry` binary's engine.
//!
//! Renders one pipeline-SLO run's telemetry bus as the two artifacts CI
//! archives under `target/report/`:
//!
//! * `telemetry.json` — the `orthotrees-telemetry/v1` document
//!   (counters, sketch quantile summaries, snapshot series);
//! * `telemetry.om` — the same registry in OpenMetrics text exposition
//!   format (counters as `_total`, sketches as `summary` families).
//!
//! Both are **schema-checked in-process before they are written**: the
//! JSON must round-trip through the parser and pass
//! [`orthotrees::obs::telemetry::validate`]; the OpenMetrics text must
//! carry every reported quantile of the completion sketch and end with
//! the `# EOF` terminator. A violation is a hard [`ExportError`] — CI
//! never archives an artifact its own reader would reject.

use orthotrees::obs::json::{Json, ParseError};
use orthotrees::obs::schema::SchemaError;
use orthotrees::obs::telemetry::{self, REPORTED_QUANTILES};
use orthotrees::ModelError;
use orthotrees_analysis::experiments::{pipeline_telemetry, PipelineSlo};
use std::fmt;

/// The two rendered artifacts plus the run they were read from.
#[derive(Clone, Debug)]
pub struct TelemetryArtifacts {
    /// The SLO run the bus metered.
    pub slo: PipelineSlo,
    /// `orthotrees-telemetry/v1` JSON text (newline-terminated).
    pub json: String,
    /// OpenMetrics text exposition (ends with `# EOF`).
    pub open_metrics: String,
}

impl TelemetryArtifacts {
    /// One human line summarizing the run: throughput and the sketch
    /// completion quantiles.
    pub fn summary_line(&self) -> String {
        let [p50, p90, p99] = self.slo.quantiles;
        format!(
            "PIPELINE-OTN n={} problems={}: {:.2} problems/Mτ, \
             completion p50={p50} p90={p90} p99={p99} τ (makespan {} τ)",
            self.slo.n,
            self.slo.problems,
            self.slo.problems_per_mtau(),
            self.slo.makespan.get(),
        )
    }
}

/// Why [`telemetry_artifacts`] wrote nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum ExportError {
    /// The pipelined batch failed to run.
    Run(ModelError),
    /// The rendered JSON does not parse.
    Parse(ParseError),
    /// The JSON breaks its table or one of its rules.
    Schema(SchemaError),
    /// The OpenMetrics text lacks this line.
    OpenMetrics(String),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Run(e) => write!(f, "run failed: {e}"),
            ExportError::Parse(e) => write!(f, "emitted JSON does not parse: {e}"),
            ExportError::Schema(e) => write!(f, "emitted JSON: {e}"),
            ExportError::OpenMetrics(line) => write!(f, "OpenMetrics text lacks {line:?}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// Checks the rendered OpenMetrics text: the pipeline completion sketch
/// exported as a summary family with every reported quantile plus
/// `_count`/`_sum`, and the `# EOF` terminator last.
fn check_open_metrics(text: &str) -> Result<(), ExportError> {
    let family = "pipeline_completion_tau";
    let quantiles = REPORTED_QUANTILES.map(|(_, q)| format!("{family}{{quantile=\"{q}\"}}"));
    let lines = [format!("# TYPE {family} summary")].into_iter().chain(quantiles);
    let mut lines = lines.chain(["_count", "_sum"].map(|s| format!("{family}{s}")));
    match lines.find(|line| !text.contains(line.as_str())) {
        Some(line) => Err(ExportError::OpenMetrics(line)),
        None if !text.ends_with("# EOF\n") => Err(ExportError::OpenMetrics("# EOF".to_string())),
        None => Ok(()),
    }
}

/// Runs one pipelined sorting batch and renders its telemetry bus as the
/// two export artifacts, schema-checking both in-process: an error is the
/// run's failure or the first check an artifact fails.
pub fn telemetry_artifacts(
    n: usize,
    problems: usize,
    seed: u64,
) -> Result<TelemetryArtifacts, ExportError> {
    let slo = pipeline_telemetry(n, problems, seed).map_err(ExportError::Run)?;
    let json = slo.telemetry.to_json().render() + "\n";
    let doc = Json::parse(&json).map_err(ExportError::Parse)?;
    telemetry::validate(&doc).map_err(ExportError::Schema)?;
    let open_metrics = slo.telemetry.open_metrics();
    check_open_metrics(&open_metrics)?;
    Ok(TelemetryArtifacts { slo, json, open_metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_pass_their_own_schema_checks() {
        let art = telemetry_artifacts(16, 32, 42).expect("clean artifacts");
        assert!(art.json.contains("orthotrees-telemetry/v1"));
        assert!(art.open_metrics.ends_with("# EOF\n"));
        assert!(art.summary_line().contains("p99="));
    }

    #[test]
    fn artifacts_are_deterministic() {
        let a = telemetry_artifacts(16, 32, 7).unwrap();
        let b = telemetry_artifacts(16, 32, 7).unwrap();
        assert_eq!(a.json, b.json);
        assert_eq!(a.open_metrics, b.open_metrics);
    }

    #[test]
    fn a_gutted_exposition_is_rejected() {
        let err = check_open_metrics("# TYPE engine_delivered counter\n# EOF\n").unwrap_err();
        let summary = "# TYPE pipeline_completion_tau summary".to_string();
        assert_eq!(err, ExportError::OpenMetrics(summary));
        let whole = telemetry_artifacts(16, 32, 42).unwrap().open_metrics;
        assert_eq!(check_open_metrics(&whole), Ok(()));
        let unterminated = whole.trim_end_matches("# EOF\n");
        let eof = ExportError::OpenMetrics("# EOF".to_string());
        assert_eq!(check_open_metrics(unterminated), Err(eof));
    }

    #[test]
    fn an_empty_batch_reports_the_run_failure() {
        let err = telemetry_artifacts(16, 0, 1).unwrap_err();
        assert!(matches!(err, ExportError::Run(_)), "{err:?}");
        assert!(err.to_string().contains("run failed"), "{err}");
    }
}
