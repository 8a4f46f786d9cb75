//! One run of one workload: the unit the suite repeats, and the command an
//! external benchmark harness runs directly.
//!
//! Untraced, the run sets the workload up, times a closed loop, reads the
//! peak memory, then sets up [`SETUP_REPS`] − 1 more times for the median
//! set-up time. Traced, it times half the loop untraced and half
//! traced (their ratio is `trace.overhead`), writes the spans, then runs
//! the probes of the workload's own layers and those of every other
//! workload's. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

use crate::probes;
use crate::provenance::provenance;
use crate::stats::{median, tail, E2E};
use crate::trace::{self, Tracer};
use crate::workload::{run_loop, set_up, Budget, LoopStats, Workload};
use orthotrees::obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPS: usize = 3;

/// Settings of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub budget: Budget,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Directory for the span file.
    pub out: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The result line of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every output checked was right.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as the single-line JSON object a harness reads.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::f64(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn budget_label(b: Budget) -> String {
    match b {
        Budget::Seconds(s) => format!("{s}s"),
        Budget::Ops(k) => k.to_string(),
    }
}

/// The loop's figures that are not end-to-end metrics, as printed lines:
/// failures, engine events per second, simulated time per op, silent
/// errors, the latency tail and the raw latencies.
fn info_lines(w: Workload, s: &LoopStats) -> Vec<String> {
    let name = w.name();
    let mut out = vec![format!(
        "{name} fail_ratio {} failed/attempted",
        s.failed as f64 / s.attempted as f64
    )];
    if matches!(w, Workload::EngineBare | Workload::EngineObserved) {
        out.push(format!("{name} sim_events_per_s {} events/s", s.events as f64 / s.elapsed_s));
    }
    if w != Workload::ReproQuick {
        out.push(format!("{name} sim_tau_per_op {} tau", s.tau as f64 / s.attempted as f64));
    }
    if w == Workload::WordFaulty {
        out.push(format!(
            "{name} silent_error_ratio {} share",
            s.silent as f64 / s.positions as f64
        ));
    }
    match tail(&s.latencies_ms) {
        Some(t) => out.push(format!(
            "{name} op_tail_ms {} ms p{} of {} samples",
            t.value, t.percentile, t.samples
        )),
        None => out.push(format!(
            "{name} op_tail_ms n/a ms (fewer than 10 samples beyond p50 of {})",
            s.latencies_ms.len()
        )),
    }
    let samples: Vec<String> = s.latencies_ms.iter().map(f64::to_string).collect();
    out.push(format!("{name} op_ms_samples {} ms", samples.join(",")));
    out
}

fn untraced(a: &ChildArgs) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let mut p = set_up(a.workload, a.seed)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let s = run_loop(&mut p, a.budget, &mut None);
    // The peak over set-up and every timed op.
    let rss = peak_rss_mb()?;
    drop(p);
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        drop(set_up(a.workload, a.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let values = [median(&setup_s), s.ops_per_s(), s.op_p50_ms(), rss];
    for line in info_lines(a.workload, &s) {
        println!("{line}");
    }
    Ok(RunResult {
        correct: s.failed == 0,
        attempted: s.attempted,
        failed: s.failed,
        metrics: E2E
            .iter()
            .zip(values)
            .map(|(spec, v)| Metric::new(spec.name, v, spec.unit))
            .collect(),
    })
}

fn traced(a: &ChildArgs) -> Result<RunResult, String> {
    let mut p = set_up(a.workload, a.seed)?;
    let half = match a.budget {
        Budget::Seconds(s) => Budget::Seconds(s / 2.0),
        ops => ops,
    };
    let plain = run_loop(&mut p, half, &mut None);
    let mut tracer = Some(Tracer::new(a.workload.name()));
    let traced = run_loop(&mut p, half, &mut tracer);
    let tracer = tracer.expect("still installed");

    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a.out.join(format!("{}.trace.json", a.workload.name()));
    let meta = provenance(a.seed, 1, &budget_label(a.budget));
    std::fs::write(&path, tracer.chrome_json(meta).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans {} written to {}", tracer.spans().len(), path.display());
    for (name, (count, total, own)) in trace::summary(tracer.spans()) {
        println!(
            "span {name} count {count} total_ms {} self_ms {}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    for line in info_lines(a.workload, &traced) {
        println!("{line}");
    }

    // The workload's own layers, then the others': the result line of a
    // traced run holds every per-layer metric, whichever the workload.
    let (mut probe_ok, mut metrics) = probes::layers_of(a.workload, a.seed)?;
    let own: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    println!("{} own_layers {}", a.workload.name(), own.join(","));
    for w in Workload::ALL.into_iter().filter(|&w| w != a.workload) {
        let (ok, m) = probes::layers_of(w, a.seed)?;
        probe_ok &= ok;
        metrics.extend(m);
    }
    metrics.push(Metric::new("trace.overhead", traced.ops_per_s() / plain.ops_per_s(), "ratio"));
    let (attempted, failed) = (plain.attempted + traced.attempted, plain.failed + traced.failed);
    Ok(RunResult { correct: failed == 0 && probe_ok, attempted, failed, metrics })
}

/// Runs one workload, prints its lines and the result line.
///
/// # Errors
///
/// Fails, without printing a result line, when set-up fails or a file
/// cannot be written.
pub fn run(a: &ChildArgs) -> Result<RunResult, String> {
    let r = if a.trace { traced(a) } else { untraced(a) }?;
    // After the run: the `git` and `rustc` subprocesses would otherwise
    // shape the heap before set-up, and with it the peak memory.
    println!("provenance {}", provenance(a.seed, 1, &budget_label(a.budget)).render());
    for m in &r.metrics {
        println!("{} {} {} {}", a.workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", r.to_json().render());
    Ok(r)
}
