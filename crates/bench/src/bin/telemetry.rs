//! `telemetry` — regenerate and schema-check the telemetry artifacts.
//!
//! ```text
//! telemetry [--full]
//! ```
//!
//! Runs the stock pipeline-SLO batch (1024 problems under `--full`, 256
//! otherwise), prints the throughput / completion-quantile summary line,
//! and writes the schema-checked exports to `target/report/`:
//! `telemetry.json` (`orthotrees-telemetry/v1`) and `telemetry.om`
//! (OpenMetrics text). Exits nonzero if the run fails, either artifact
//! fails its in-process schema check, or a write fails — CI runs this
//! after the test suite, so a drifted exporter fails the build.

use orthotrees_bench::{export, preset_from_env, Preset};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let preset = preset_from_env();
    let cfg = preset.config();
    let problems = match preset {
        Preset::Quick => 256,
        Preset::Full => 1024,
    };

    let art = match export::telemetry_artifacts(64, problems, cfg.seed) {
        Ok(art) => art,
        Err(e) => {
            eprintln!("telemetry: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", art.summary_line());

    let dir = Path::new("target/report");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("telemetry: could not create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, text) in [("telemetry.json", &art.json), ("telemetry.om", &art.open_metrics)] {
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, text) {
            eprintln!("telemetry: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
