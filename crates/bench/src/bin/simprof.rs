//! `simprof` — emit an `orthotrees-profile/v1` profile document.
//!
//! ```text
//! simprof --emit PROF_7.json [--full]
//! ```
//!
//! - `--emit <file>`: run the fixed workload matrix (word-level
//!   `SORT-OTN`/`SORT-OTC` clean and under the dense fault plan, the
//!   engine `ROOTTOLEAF` companions, the outage-dense
//!   supervised-recovery row and the event-core microbench), validate
//!   the document against the schema, and write it;
//! - `--full`: the whole `n ∈ {64, 256, 512}` grid (default: the quick
//!   smoke column, `n = 64`).
//!
//! Diff a profile against a baseline with `benchdiff --baseline
//! PROF_7.json`. Exits 0 on success, 2 on bad arguments, an unwritable
//! file, or a schema-invalid document.

use orthotrees_analysis::report::ReportConfig;
use orthotrees_bench::profile;
use std::fs;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("simprof: {msg}");
    eprintln!("usage: simprof --emit <file> [--full]");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut emit_path = None;
    let mut full = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => {
                emit_path =
                    Some(it.next().cloned().unwrap_or_else(|| fail("--emit needs a value")));
            }
            "--full" => full = true,
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let Some(out) = emit_path else { fail("--emit is required") };

    let preset = if full { "full" } else { "quick" };
    eprintln!("simprof: running the {preset} profile matrix …");
    let doc = profile::profile_document(preset, ReportConfig::default().seed);
    if let Err(e) = profile::validate(&doc) {
        fail(&format!("emitted document violates the {} schema: {e}", profile::SCHEMA));
    }
    if let Err(e) = fs::write(&out, doc.render() + "\n") {
        fail(&format!("cannot write {out}: {e}"));
    }
    println!("profile document written to {out}");
}
