//! `wallbench` command line.
//!
//! One workload, the form an external benchmark harness runs:
//!
//! ```text
//! wallbench --workload NAME [--seed N] [--seconds S | --ops K] [--trace 0|1] [--out DIR]
//! ```
//!
//! The suite, which runs every workload in child processes:
//!
//! ```text
//! wallbench [--seed N] [--trace] [--out DIR] [--smoke]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use wallbench::child::{self, ChildArgs};
use wallbench::suite::{self, SuiteArgs};
use wallbench::workload::{Budget, Workload};

/// The `ReportConfig` default seed, so the default run reproduces
/// `repro --quick`.
const DEFAULT_SEED: u64 = 0x07EE5;
/// Where span files and suite documents go, relative to the repository.
const DEFAULT_OUT: &str = "benchmark/out";

const USAGE: &str = "usage:
  wallbench --workload NAME [--seed N] [--seconds S | --ops K] [--trace 0|1] [--out DIR]
  wallbench [--seed N] [--trace] [--out DIR] [--smoke]
workloads: engine-bare engine-observed word-sort word-faulty repro-quick";

enum Cmd {
    Child(ChildArgs),
    Suite(SuiteArgs),
}

fn number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn parse(args: Vec<String>) -> Result<Cmd, String> {
    let mut it = args.into_iter().peekable();
    let (mut workload, mut seed, mut budget) = (None, DEFAULT_SEED, None);
    let (mut trace, mut smoke, mut out) = (false, false, PathBuf::from(DEFAULT_OUT));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = number(&flag, it.next())?,
            "--seconds" => {
                let s: f64 = number(&flag, it.next())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                budget = Some(Budget::Seconds(s));
            }
            "--ops" => budget = Some(Budget::Ops(number::<u64>(&flag, it.next())?.max(1))),
            // `--trace 0|1` for one workload; a bare `--trace` for the suite.
            "--trace" => {
                trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--out" => out = it.next().ok_or("--out needs a value")?.into(),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match workload {
        Some(workload) => {
            let budget = budget.unwrap_or(Budget::Ops(workload.ops_per_round()));
            Cmd::Child(ChildArgs { workload, seed, budget, trace, out })
        }
        None => Cmd::Suite(SuiteArgs { seed, trace, out, smoke }),
    })
}

fn main() -> ExitCode {
    wallbench::alloc::pin_heap_policy();
    let cmd = match parse(std::env::args().skip(1).collect()) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd {
        Cmd::Child(a) => child::run(&a).map(|_| true),
        Cmd::Suite(a) => suite::run(&a),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
