//! The multi-round suite: one child process per (round, workload), rounds
//! interleaved round-robin so host drift lands on every workload alike;
//! medians over rounds, an optional traced pass and a JSON document.

use crate::provenance::provenance;
use crate::stats::{median, regressed, spec_of, spread, tail, Tail, E2E, INFO};
use crate::workload::Workload;
use orthotrees::obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Settings of a suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteArgs {
    /// Input seed of every child.
    pub seed: u64,
    /// Also run one traced child per workload.
    pub trace: bool,
    /// Directory for the document and span files.
    pub out: PathBuf,
    /// One round of two ops, traced too, then check the output against
    /// `BENCHMARK.json`.
    pub smoke: bool,
}

/// Untraced rounds of the suite.
pub const ROUNDS: u64 = 5;
/// Ops per smoke run.
pub const SMOKE_OPS: u64 = 2;

/// What one child printed: its result object, the printed figures named
/// in [`E2E`] or [`INFO`] with its raw latencies, and, traced, the names
/// of its own layers' metrics.
struct Child {
    result: Json,
    figures: BTreeMap<String, f64>,
    samples_ms: Vec<f64>,
    own_layers: Vec<String>,
}

fn spawn(args: &SuiteArgs, w: Workload, ops: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--ops", &ops.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} child exited with {}", w.name(), out.status));
    }
    let last = text.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{} result line: {e:?}", w.name()))?;
    let mut figures = BTreeMap::new();
    let mut samples_ms = Vec::new();
    let mut own_layers = Vec::new();
    for line in text.lines() {
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok[..] {
            [name, "op_ms_samples", list, "ms"] if name == w.name() => {
                samples_ms = list.split(',').filter_map(|v| v.parse().ok()).collect();
            }
            [name, "own_layers", list] if name == w.name() => {
                own_layers = list.split(',').map(str::to_string).collect();
            }
            [name, metric, value, ..] if name == w.name() && spec_of(metric).is_some() => {
                if let Ok(v) = value.parse() {
                    figures.insert(metric.to_string(), v);
                }
            }
            _ => {}
        }
    }
    Ok(Child { result, figures, samples_ms, own_layers })
}

fn metrics_of(result: &Json) -> &[(String, Json)] {
    result.get("metrics").and_then(Json::as_obj).unwrap_or_default()
}

impl Child {
    /// The traced child's metrics of its own workload's layers, and its
    /// `trace.overhead`. The other layers it printed belong to other
    /// workloads, whose traced children report them.
    fn own_layer_metrics(&self) -> Vec<(String, Json)> {
        metrics_of(&self.result)
            .iter()
            .filter(|(name, _)| name == "trace.overhead" || self.own_layers.contains(name))
            .cloned()
            .collect()
    }
}

fn value_of(m: &Json) -> Option<f64> {
    m.get("value").and_then(Json::as_f64)
}

/// One workload's rounds and traced run.
struct WorkloadRuns {
    workload: Workload,
    ops: u64,
    rounds: Vec<Child>,
    traced: Option<Child>,
}

impl WorkloadRuns {
    fn medians(&self) -> Vec<(&'static str, &'static str, f64, Option<f64>)> {
        E2E.iter()
            .chain(INFO.iter())
            .filter_map(|spec| {
                let vals: Vec<f64> =
                    self.rounds.iter().filter_map(|c| c.figures.get(spec.name).copied()).collect();
                (!vals.is_empty()).then(|| (spec.name, spec.unit, median(&vals), spread(&vals)))
            })
            .collect()
    }

    /// The latency tail pooled over rounds.
    fn tail(&self) -> (Option<Tail>, usize) {
        let samples: Vec<f64> =
            self.rounds.iter().flat_map(|c| c.samples_ms.iter().copied()).collect();
        (tail(&samples), samples.len())
    }

    fn to_json(&self) -> Json {
        let medians = self.medians().into_iter().map(|(name, unit, v, s)| {
            let spread = s.map_or(Json::Null, Json::f64);
            (
                name,
                Json::obj([("value", Json::f64(v)), ("unit", Json::str(unit)), ("spread", spread)]),
            )
        });
        let rounds = self
            .rounds
            .iter()
            .map(|c| Json::obj(c.figures.iter().map(|(k, v)| (k.clone(), Json::f64(*v)))));
        let tail = self.tail().0.map_or(Json::Null, |t| {
            Json::obj([
                ("percentile", Json::f64(t.percentile)),
                ("value", Json::f64(t.value)),
                ("samples", Json::u64(t.samples as u64)),
            ])
        });
        let per_layer =
            self.traced.as_ref().map_or(Json::Null, |c| Json::Obj(c.own_layer_metrics()));
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("ops_per_round", Json::u64(self.ops)),
            ("rounds", Json::arr(rounds)),
            ("median", Json::obj(medians)),
            ("op_tail_ms", tail),
            ("per_layer", per_layer),
        ])
    }
}

/// Checks a smoke run against `BENCHMARK.json`: every metric it names is
/// printed with its unit and is finite, every per-layer metric belongs to
/// exactly one workload's layers, no op failed, and the exact figures
/// agree between the untraced and the traced pass.
fn smoke_errors(runs: &[WorkloadRuns], bench: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let names = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((m.get("name")?.as_str()?.to_string(), m.get("unit")?.as_str()?.to_string()))
            })
            .collect()
    };
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    if e2e.is_empty() || layers.is_empty() {
        errs.push("BENCHMARK.json lists no end_to_end or per_layer metrics".into());
    }
    for r in runs {
        let w = r.workload.name();
        let passes =
            r.rounds.iter().map(|c| (&e2e, c)).chain(r.traced.iter().map(|c| (&layers, c)));
        for (wanted, c) in passes {
            let got = metrics_of(&c.result);
            for (name, unit) in wanted {
                match got.iter().find(|(k, _)| k == name) {
                    None => errs.push(format!("{w}: metric {name} not printed")),
                    Some((_, m)) => {
                        if m.get("unit").and_then(Json::as_str) != Some(unit) {
                            errs.push(format!("{w}: metric {name} not in {unit}"));
                        }
                        if !value_of(m).is_some_and(f64::is_finite) {
                            errs.push(format!("{w}: metric {name} is not a finite number"));
                        }
                    }
                }
            }
            let failed = c.result.get("failed").and_then(Json::as_u64);
            if failed != Some(0) || c.result.get("correct").and_then(Json::as_bool) != Some(true) {
                errs.push(format!("{w}: {failed:?} failed ops, or a wrong output"));
            }
        }
        if let (Some(plain), Some(traced)) = (r.rounds.first(), &r.traced) {
            for spec in INFO.iter().filter(|s| s.exact) {
                let (a, b) = (plain.figures.get(spec.name), traced.figures.get(spec.name));
                let differ = match (a, b) {
                    (Some(&a), Some(&b)) => regressed(spec, a, b),
                    _ => a != b,
                };
                if differ {
                    errs.push(format!(
                        "{w}: exact {} differs: {a:?} untraced, {b:?} traced",
                        spec.name
                    ));
                }
            }
        }
    }
    let owned: Vec<&String> =
        runs.iter().flat_map(|r| &r.traced).flat_map(|c| &c.own_layers).collect();
    for (name, _) in layers.iter().filter(|(name, _)| name != "trace.overhead") {
        let owners = owned.iter().filter(|&&o| o == name).count();
        if owners != 1 {
            errs.push(format!("per-layer metric {name} belongs to {owners} workloads, not 1"));
        }
    }
    errs
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Runs the suite; `Ok(false)` when a smoke check failed.
///
/// # Errors
///
/// Fails when a child fails or a file cannot be read or written.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let ops = |w: Workload| if args.smoke { SMOKE_OPS } else { w.ops_per_round() };
    let mut runs: Vec<WorkloadRuns> = Workload::ALL
        .into_iter()
        .map(|w| WorkloadRuns { workload: w, ops: ops(w), rounds: Vec::new(), traced: None })
        .collect();
    for round in 0..rounds as usize {
        for i in 0..runs.len() {
            let r = &mut runs[(i + round) % Workload::ALL.len()];
            eprintln!("round {}/{rounds}: {}", round + 1, r.workload.name());
            r.rounds.push(spawn(args, r.workload, r.ops, false)?);
        }
    }
    if args.trace || args.smoke {
        for r in &mut runs {
            eprintln!("traced: {}", r.workload.name());
            r.traced = Some(spawn(args, r.workload, r.ops, true)?);
        }
    }

    for r in &runs {
        for (name, unit, v, s) in r.medians() {
            // A spread wider than the bound leaves the metric unresolved.
            let verdict = match (s, spec_of(name)) {
                (Some(s), Some(spec)) if !spec.exact && s > spec.bound => ", unresolved",
                _ => "",
            };
            let s = s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{} {name} {v} {unit} (median of {rounds}, spread {s}{verdict})",
                r.workload.name()
            );
        }
        match r.tail() {
            (Some(t), n) => {
                println!(
                    "{} op_tail_ms {} ms (p{} of {n} samples)",
                    r.workload.name(),
                    t.value,
                    t.percentile
                );
            }
            (None, n) => println!("{} op_tail_ms n/a ({n} samples)", r.workload.name()),
        }
        if let Some(c) = &r.traced {
            for (name, m) in c.own_layer_metrics() {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                println!(
                    "{} {name} {} {unit} (traced)",
                    r.workload.name(),
                    value_of(&m).unwrap_or(f64::NAN)
                );
            }
        }
    }

    let ops_label = if args.smoke { SMOKE_OPS.to_string() } else { "per workload".to_string() };
    let doc = Json::obj([
        ("schema", Json::str("wallbench/v1")),
        ("provenance", provenance(args.seed, rounds, &ops_label)),
        ("workloads", Json::arr(runs.iter().map(WorkloadRuns::to_json))),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("wallbench.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("document written to {}", path.display());

    if !args.smoke {
        return Ok(true);
    }
    let errs = smoke_errors(&runs, &read_json(Path::new("BENCHMARK.json"))?);
    for e in &errs {
        println!("smoke check failed: {e}");
    }
    Ok(errs.is_empty())
}
