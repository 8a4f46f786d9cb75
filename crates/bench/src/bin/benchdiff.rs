//! `benchdiff` — diff a committed baseline against a current run.
//!
//! ```text
//! benchdiff --baseline <BENCH_2.json|PROF_7.json> [--current <file>] [--json <out>]
//! ```
//!
//! - `--baseline <file>` (required): the committed reference document.
//!   Its `schema` tag picks the family — `orthotrees-bench/v1` or
//!   `orthotrees-profile/v1` — whose validator checks it and whose rule
//!   table gates it (see `orthotrees_bench::diff`);
//! - `--current <file>`: the document to compare, of the same family.
//!   Omitted, `benchdiff` regenerates one in-process with the baseline's
//!   own preset and seed — the honest reproduction CI runs (the
//!   simulators are deterministic, so a clean tree diffs with zero
//!   relative change everywhere);
//! - `--json <out>`: also write the `orthotrees-diff/v1` document.
//!
//! Exits 0 when clean (something compared, no regression, nothing
//! missing), 1 on a regression, a vanished metric or an empty
//! comparison, 2 on bad arguments, unreadable input, an unknown schema or
//! preset, or a document its family's validator rejects.

use orthotrees_bench::diff::{self, DiffError};
use std::fs;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("benchdiff: {msg}");
    eprintln!("usage: benchdiff --baseline <file> [--current <file>] [--json <out>]");
    exit(2);
}

fn checked<T>(what: &str, r: Result<T, DiffError>) -> T {
    r.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--baseline" => &mut baseline_path,
            "--current" => &mut current_path,
            "--json" => &mut json_out,
            other => fail(&format!("unknown argument {other}")),
        };
        *slot = Some(it.next().cloned().unwrap_or_else(|| fail(&format!("{a} needs a value"))));
    }
    let Some(baseline_path) = baseline_path else { fail("--baseline is required") };
    let read = |path: &str| {
        let bytes = fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        checked(path, diff::read(&bytes))
    };
    let (family, baseline) = read(&baseline_path);

    let current = match &current_path {
        Some(p) => {
            let (cur_family, doc) = read(p);
            if cur_family.schema != family.schema {
                fail(&format!("{p} is {}, the baseline is {}", cur_family.schema, family.schema));
            }
            doc
        }
        None => {
            eprintln!(
                "benchdiff: no --current given; regenerating the {} document in-process …",
                family.schema
            );
            checked("regenerating", family.regenerate(&baseline))
        }
    };

    let report = diff::diff(family, &baseline, &current);
    print!("{}", report.render_text());
    if let Some(out) = json_out {
        if let Err(e) = fs::write(&out, report.to_json().render() + "\n") {
            fail(&format!("cannot write {out}: {e}"));
        }
        println!("diff document written to {out}");
    }
    if !report.is_clean() {
        exit(1);
    }
}
