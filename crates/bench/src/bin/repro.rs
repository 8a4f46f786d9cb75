//! Runs the whole reproduction battery: Tables I–IV (+ MST), rankings,
//! crossovers and the observability profile. This is the report
//! EXPERIMENTS.md records. Also writes each table as CSV under
//! `target/report/`, the machine-readable benchmark summary as
//! `BENCH_2.json`, a Chrome-trace of the instrumented `SORT-OTN` run
//! as `target/report/sort_otn.trace.json` (open in Perfetto), and the
//! schema-checked telemetry exports (`telemetry.json` / `telemetry.om`).

use orthotrees::obs::chrome::chrome_trace_with_flows;
use orthotrees_analysis::{csv, report};
use orthotrees_bench::{export, preset_from_env, summary};
use std::fs;
use std::path::Path;

fn main() {
    let preset = preset_from_env();
    let cfg = preset.config();
    let battery = report::Battery::run(&cfg);
    print!("{}", report::render_report(&battery));

    let dir = Path::new("target/report");
    if fs::create_dir_all(dir).is_ok() {
        for (stem, table) in &battery.tables {
            let path = dir.join(format!("{stem}.csv"));
            if let Err(e) = fs::write(&path, csv::table_to_csv(table)) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }

        // Chrome-trace of the observed SORT-OTN (1 τ = 1 µs in the trace).
        let trace = dir.join("sort_otn.trace.json");
        if let Err(e) = fs::write(&trace, chrome_trace_with_flows(&battery.obs.otn.1).render()) {
            eprintln!("warning: could not write {}: {e}", trace.display());
        }
        // Telemetry exports of the stock pipeline-SLO batch, schema-checked
        // in-process (see the `telemetry` binary for the standalone gate).
        match export::telemetry_artifacts(64, 256, cfg.seed) {
            Ok(art) => {
                for (name, text) in
                    [("telemetry.json", &art.json), ("telemetry.om", &art.open_metrics)]
                {
                    let path = dir.join(name);
                    if let Err(e) = fs::write(&path, text) {
                        eprintln!("warning: could not write {}: {e}", path.display());
                    }
                }
            }
            Err(e) => eprintln!("warning: telemetry export failed: {e}"),
        }

        println!("\nCSV series, Perfetto trace and telemetry exports written to {}", dir.display());
    }

    let bench = summary::bench_summary_of(preset.name(), &battery);
    match fs::write("BENCH_2.json", bench.render() + "\n") {
        Ok(()) => println!("Benchmark summary written to BENCH_2.json"),
        Err(e) => eprintln!("warning: could not write BENCH_2.json: {e}"),
    }
}
