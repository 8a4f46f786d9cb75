//! The five closed-loop workloads: their inputs, their op, and the check
//! of every op's output.
//!
//! One caller on one thread sends the next op only after the previous one
//! returns. Op `i` uses input slot `i mod pool`. Slot `k` of a workload is
//! derived from `(seed, workload, k)` with splitmix64, so the same seed
//! gives the same op list; the first [`REFERENCE_SLOTS`] use a fixed seed
//! (see [`set_up`]).

use crate::trace::{span, Tracer};
use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::sort::SortOutcome;
use orthotrees::otn::{self, Otn};
use orthotrees::{CostModel, FaultPlan, ParallelPolicy, Word};
use orthotrees_analysis::report::{self, ReportConfig};
use orthotrees_analysis::workloads;
use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{CalendarKind, Engine, FlightRecorder, Profiler, Telemetry};
use orthotrees_verify::{ckpt, critpath, determinism, dflow, eng, primitive, profile, telemetry};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Leaves of every engine probe, and the side of the clean sorts.
pub const N: usize = 512;
/// Problem size of the faulty sorts.
pub const FAULTY_N: usize = 256;
/// Link-fault rate of the engine workloads' faulty half.
pub const LINK_FAULT_RATE: f64 = 0.3;
/// Word-fault rate of the dense word-fault plan.
pub const WORD_FAULT_RATE: f64 = 0.3;
/// Retry budget of the dense word-fault plan.
pub const WORD_FAULT_RETRIES: u32 = 2;
/// Input slots that are the same for every seed; set-up warms up on them.
pub const REFERENCE_SLOTS: u64 = 8;
/// The seed of the reference slots, whatever the run seed.
pub const REFERENCE_SEED: u64 = 0x07EE5;
/// Telemetry snapshot interval (τ) for engine runs.
pub const ENGINE_TELEMETRY_INTERVAL: u64 = 16;
/// Telemetry snapshot interval (τ) for word-level runs.
pub const WORD_TELEMETRY_INTERVAL: u64 = 64;
/// Tree sizes of the critical-path verify pass (the same as `netlint`).
pub const CRITPATH_LEAVES: [usize; 5] = [2, 4, 16, 64, 256];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Engine dispatch, calendar and fault draws; no observers.
    EngineBare,
    /// The same engine ops with all five observers attached.
    EngineObserved,
    /// Both word-level sorts at n = 512, clean.
    WordSort,
    /// Both word-level sorts at n = 256 under dense word faults.
    WordFaulty,
    /// The reproduction report plus every verify pass.
    ReproQuick,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::EngineBare,
        Workload::EngineObserved,
        Workload::WordSort,
        Workload::WordFaulty,
        Workload::ReproQuick,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineBare => "engine-bare",
            Workload::EngineObserved => "engine-observed",
            Workload::WordSort => "word-sort",
            Workload::WordFaulty => "word-faulty",
            Workload::ReproQuick => "repro-quick",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per round in the multi-round suite: sized so that each round
    /// takes 1–3 s on a 2-vCPU host.
    pub fn ops_per_round(self) -> u64 {
        match self {
            Workload::EngineBare | Workload::WordFaulty => 100,
            Workload::EngineObserved => 24,
            Workload::WordSort => 50,
            Workload::ReproQuick => 4,
        }
    }

    /// Distinct input slots the op list cycles through: enough that the
    /// seed-to-seed differences in work average out. The report's input
    /// is its seed alone, so it has one.
    fn pool(self) -> u64 {
        match self {
            Workload::ReproQuick => 1,
            _ => 32,
        }
    }
}

/// splitmix64's output function.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input seed of slot `slot` of workload `w` under run seed `seed`.
pub fn slot_seed(seed: u64, w: Workload, slot: u64) -> u64 {
    if w == Workload::ReproQuick {
        // The report takes the run seed as it is, so that with the default
        // seed an op is exactly what `repro --quick` runs.
        return seed;
    }
    // See `set_up` for why the first slots ignore the run seed.
    let seed = if slot < REFERENCE_SLOTS { REFERENCE_SEED } else { seed };
    let tag = Workload::ALL.iter().position(|&x| x == w).expect("listed") as u64;
    splitmix64(splitmix64(splitmix64(seed) ^ tag) ^ slot)
}

/// The dense word-fault plan.
pub fn word_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_word_fault_rate(WORD_FAULT_RATE).with_max_retries(WORD_FAULT_RETRIES)
}

/// The engine op list: every probe kind, clean then under dense link
/// faults drawn from `plan_seed`.
pub fn engine_cases(plan_seed: u64) -> Vec<(ProbeKind, Option<FaultPlan>)> {
    [false, true]
        .into_iter()
        .flat_map(|faulty| {
            PROBE_KINDS.into_iter().map(move |k| {
                (k, faulty.then(|| FaultPlan::new(plan_seed).with_link_fault_rate(LINK_FAULT_RATE)))
            })
        })
        .collect()
}

/// Which engine observers to attach.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observers {
    /// [`Recorder`].
    pub recorder: bool,
    /// [`CausalTrace`].
    pub causal: bool,
    /// [`Profiler`].
    pub profiler: bool,
    /// [`Telemetry`].
    pub telemetry: bool,
    /// [`FlightRecorder`].
    pub flight: bool,
}

impl Observers {
    /// All five.
    pub const ALL: Observers =
        Observers { recorder: true, causal: true, profiler: true, telemetry: true, flight: true };

    /// Attaches the selected observers to `e`.
    pub fn attach(self, mut e: Engine) -> Engine {
        if self.recorder {
            e = e.with_recorder(Recorder::new());
        }
        if self.causal {
            e = e.with_causal_trace();
        }
        if self.profiler {
            e = e.with_profiler(Profiler::new(16));
        }
        if self.telemetry {
            e = e.with_telemetry(Telemetry::new(ENGINE_TELEMETRY_INTERVAL));
        }
        if self.flight {
            e = e.with_flight_recorder(FlightRecorder::default());
        }
        e
    }

    /// Takes every attached observer off `e`, as a caller reading them
    /// would.
    pub fn take(self, e: &mut Engine) {
        black_box((
            e.take_recorder(),
            e.take_causal_trace(),
            e.take_profiler(),
            e.take_telemetry(),
            e.take_flight_recorder(),
        ));
    }
}

/// Builds one engine case, attaches `obs` and runs it; returns the
/// delivered events and the end time.
pub fn run_engine_case(
    m: &CostModel,
    kind: ProbeKind,
    plan: Option<FaultPlan>,
    cal: CalendarKind,
    obs: Observers,
    tracer: &mut Option<Tracer>,
) -> Result<(u64, u64), String> {
    let e = span(tracer, "sim.engine.build", || probe_engine(kind, N, m, cal, plan, false));
    let mut e = span(tracer, "obs.attach", || obs.attach(e));
    let end = span(tracer, "sim.engine.run", || e.try_run()).map_err(|err| err.to_string())?;
    span(tracer, "obs.take", || obs.take(&mut e));
    Ok((e.delivered_events(), end.get()))
}

/// What one op produced, beyond pass/fail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpResult {
    /// The output was correct (or, for `word-faulty`, the op returned).
    pub ok: bool,
    /// Engine events delivered.
    pub events: u64,
    /// Simulated time, summed over the op's runs.
    pub tau: u64,
    /// Output positions that are wrong and not reported missing.
    pub silent: u64,
    /// Output positions checked.
    pub positions: u64,
}

/// Per-slot inputs with the answers every op is checked against.
#[derive(Debug)]
enum Slot {
    Engine { plan_seed: u64, oracle: Vec<(u64, u64)> },
    Words { xs: Vec<Word>, sorted: Vec<Word>, plan_seed: u64 },
    Report { cfg: ReportConfig, text: Option<String> },
}

/// A workload with its inputs generated and its oracle answers computed.
#[derive(Debug)]
pub struct Prepared {
    workload: Workload,
    model: CostModel,
    slots: Vec<Slot>,
}

/// Generates slots `range` of `w`'s inputs for `seed`. Engine slots carry
/// the heap-calendar oracle's answers, run here.
fn make_slots(
    w: Workload,
    seed: u64,
    model: &CostModel,
    range: std::ops::Range<u64>,
) -> Result<Vec<Slot>, String> {
    let heap_runs = |faulty: bool, plan_seed: u64| -> Result<Vec<(u64, u64)>, String> {
        engine_cases(plan_seed)
            .into_iter()
            .filter(|(_, plan)| plan.is_some() == faulty)
            .map(|(kind, plan)| {
                let (cal, obs) = (CalendarKind::Heap, Observers::default());
                run_engine_case(model, kind, plan, cal, obs, &mut None)
            })
            .collect()
    };
    // The clean half of the engine op list is the same in every slot.
    let clean = match w {
        Workload::EngineBare | Workload::EngineObserved => heap_runs(false, 0)?,
        _ => Vec::new(),
    };
    range
        .map(|slot| slot_seed(seed, w, slot))
        .map(|s| match w {
            Workload::EngineBare | Workload::EngineObserved => {
                let oracle = [clean.clone(), heap_runs(true, s)?].concat();
                Ok(Slot::Engine { plan_seed: s, oracle })
            }
            Workload::WordSort | Workload::WordFaulty => {
                let xs = if w == Workload::WordSort {
                    workloads::distinct_words(N, s)
                } else {
                    workloads::duplicated_words(FAULTY_N, s)
                };
                let mut sorted = xs.clone();
                sorted.sort_unstable();
                Ok(Slot::Words { xs, sorted, plan_seed: s })
            }
            Workload::ReproQuick => Ok(Slot::Report {
                cfg: ReportConfig { seed: s, ..ReportConfig::default() },
                text: None,
            }),
        })
        .collect()
}

/// Adds one sort's simulated time and positions to `r`. A faulty sort
/// counts its silently wrong positions; a clean one must be exact.
pub fn check_sort(out: &SortOutcome, sorted: &[Word], faulty: bool, r: &mut OpResult) {
    r.tau += out.time.get();
    r.positions += sorted.len() as u64;
    let wrong = out.sorted.iter().zip(sorted).enumerate().filter(|(_, (a, b))| a != b);
    if faulty {
        r.silent += wrong.filter(|(p, _)| out.missing.binary_search(p).is_err()).count() as u64;
    } else {
        r.ok &= out.sorted == sorted && out.missing.is_empty();
    }
}

/// Which instruments and policy a pair of word-level sorts runs with.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordRun {
    /// Installs [`word_fault_plan`] with this seed.
    pub plan_seed: Option<u64>,
    /// Installs a [`Recorder`].
    pub recorder: bool,
    /// Installs a [`Telemetry`] bus.
    pub telemetry: bool,
    /// The nets' parallel policy.
    pub policy: ParallelPolicy,
}

/// Sorts `xs` on a fresh OTN and a fresh OTC set up by `run`; returns
/// both outcomes and the seconds each sort call took.
///
/// # Errors
///
/// Fails if a net cannot be built or a sort returns an error.
pub fn sort_pair(
    xs: &[Word],
    run: WordRun,
    tr: &mut Option<Tracer>,
) -> Result<([SortOutcome; 2], [f64; 2]), String> {
    let n = xs.len();
    let mut otn_net =
        span(tr, "core.otn.build", || Otn::for_sorting(n)).map_err(|e| e.to_string())?;
    let mut otc_net =
        span(tr, "core.otc.build", || Otc::for_sorting(n)).map_err(|e| e.to_string())?;
    otn_net.set_parallel_policy(run.policy);
    otc_net.set_parallel_policy(run.policy);
    if let Some(s) = run.plan_seed {
        otn_net.install_fault_plan(word_fault_plan(s));
        otc_net.install_fault_plan(word_fault_plan(s));
    }
    if run.recorder {
        otn_net.install_recorder(Recorder::new());
        otc_net.install_recorder(Recorder::new());
    }
    if run.telemetry {
        otn_net.install_telemetry(Telemetry::new(WORD_TELEMETRY_INTERVAL));
        otc_net.install_telemetry(Telemetry::new(WORD_TELEMETRY_INTERVAL));
    }
    let t0 = Instant::now();
    let a = span(tr, "core.otn.sort", || otn::sort::sort(&mut otn_net, xs));
    let t1 = Instant::now();
    let b = span(tr, "core.otc.sort", || otc::sort::sort(&mut otc_net, xs));
    let secs = [t1 - t0, t1.elapsed()].map(|d| d.as_secs_f64());
    black_box((otn_net.take_recorder(), otn_net.take_telemetry()));
    black_box((otc_net.take_recorder(), otc_net.take_telemetry()));
    Ok(([a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?], secs))
}

/// A verify pass's span name and the pass, which returns its number of
/// findings.
pub type VerifyPass = (&'static str, fn() -> usize);

/// Every public verify pass.
pub fn verify_passes() -> [VerifyPass; 8] {
    [
        ("verify.dflow", || dflow::stock_findings().len()),
        ("verify.eng", || eng::stock_findings().len()),
        ("verify.determinism", || determinism::stock_findings().len()),
        ("verify.ckpt", || ckpt::stock_findings().len()),
        ("verify.profile", || profile::stock_findings().len()),
        ("verify.primitive", || primitive::stock_findings().len()),
        ("verify.critpath", || critpath::stock_findings(&CRITPATH_LEAVES).len()),
        ("verify.telemetry", || telemetry::stock_findings().len()),
    ]
}

impl Prepared {
    fn op_inner(&mut self, at: usize, tr: &mut Option<Tracer>) -> Result<OpResult, String> {
        let observed = self.workload == Workload::EngineObserved;
        let faulty = self.workload == Workload::WordFaulty;
        match &mut self.slots[at] {
            Slot::Engine { plan_seed, oracle } => {
                let obs = if observed { Observers::ALL } else { Observers::default() };
                let mut r = OpResult { ok: true, ..OpResult::default() };
                for ((kind, plan), want) in engine_cases(*plan_seed).into_iter().zip(oracle.iter())
                {
                    let got =
                        run_engine_case(&self.model, kind, plan, CalendarKind::Ladder, obs, tr)?;
                    r.ok &= got == *want;
                    r.events += got.0;
                    r.tau += got.1;
                }
                Ok(r)
            }
            Slot::Words { xs, sorted, plan_seed } => {
                let plan_seed = faulty.then_some(*plan_seed);
                let run = WordRun {
                    plan_seed,
                    recorder: faulty,
                    telemetry: faulty,
                    ..WordRun::default()
                };
                let (outcomes, _) = sort_pair(xs, run, tr)?;
                let mut r = OpResult { ok: true, ..OpResult::default() };
                for out in &outcomes {
                    check_sort(out, sorted, faulty, &mut r);
                }
                Ok(r)
            }
            Slot::Report { cfg, text } => {
                let got = span(tr, "analysis.full_report", || report::full_report(cfg));
                let findings: usize =
                    verify_passes().into_iter().map(|(name, pass)| span(tr, name, pass)).sum();
                // The first op's text is the reference for every later op.
                let same = *text.get_or_insert_with(|| got.clone()) == got;
                Ok(OpResult { ok: same && findings == 0, ..OpResult::default() })
            }
        }
    }

    /// Runs op number `op` on input slot `op mod pool`, checking its
    /// output. An `Err` or a panic counts as a failed op, never as a crash
    /// of the benchmark.
    pub fn run_op(&mut self, op: u64, tr: &mut Option<Tracer>) -> OpResult {
        let at = (op % self.slots.len() as u64) as usize;
        self.run_at(op, at, tr)
    }

    fn run_at(&mut self, op: u64, at: usize, tr: &mut Option<Tracer>) -> OpResult {
        if let Some(t) = tr.as_mut() {
            t.set_op(op);
        }
        let root = tr.as_mut().map(|t| t.open("op"));
        let r = catch_unwind(AssertUnwindSafe(|| self.op_inner(at, tr)));
        if let (Some(t), Some(id)) = (tr.as_mut(), root) {
            t.close_through(id);
        }
        match r {
            Ok(Ok(r)) => r,
            Ok(Err(_)) | Err(_) => OpResult::default(),
        }
    }
}

/// How long a closed loop runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Until this many seconds have passed (at least one op).
    Seconds(f64),
    /// Exactly this many ops.
    Ops(u64),
}

/// What a closed loop measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their check, returned `Err` or panicked.
    pub failed: u64,
    /// Wall-clock seconds of the whole loop.
    pub elapsed_s: f64,
    /// Per-op latency, in ms, in op order.
    pub latencies_ms: Vec<f64>,
    /// Input slots the ops cycled through: op `i` used slot `i mod pool`.
    pub pool: usize,
    /// Engine events delivered.
    pub events: u64,
    /// Simulated time, summed.
    pub tau: u64,
    /// Silently wrong output positions.
    pub silent: u64,
    /// Output positions checked.
    pub positions: u64,
}

impl LoopStats {
    /// Each visited input slot's fastest op latency, in ms.
    ///
    /// Other tenants of a shared host only ever add time, in bursts that
    /// slow every op for seconds, so an op's fastest visit is the steadiest
    /// estimate of its own cost. The tail reports the ops as they came.
    pub fn fastest_ms(&self) -> Vec<f64> {
        let pool = self.pool.max(1);
        let mut best = vec![f64::INFINITY; pool];
        for (i, &ms) in self.latencies_ms.iter().enumerate() {
            best[i % pool] = best[i % pool].min(ms);
        }
        best.retain(|ms| ms.is_finite());
        best
    }

    /// Ops per wall-clock second over the op list: the slots visited over
    /// the sum of their [fastest](Self::fastest_ms) latencies, so every
    /// input counts.
    pub fn ops_per_s(&self) -> f64 {
        let best = self.fastest_ms();
        best.len() as f64 * 1e3 / best.iter().sum::<f64>()
    }

    /// The median over the visited slots of their
    /// [fastest](Self::fastest_ms) latencies, in ms.
    pub fn op_p50_ms(&self) -> f64 {
        crate::stats::median(&self.fastest_ms())
    }
}

/// Latencies reserved before a timed loop, more than a run of minutes
/// records. A buffer that grew during the loop would reallocate between
/// ops and reshape the heap they allocate from, and with it the peak
/// memory.
pub const SAMPLE_CAPACITY: usize = 1 << 17;

/// Runs ops `0, 1, …` back to back on one thread until `budget` is spent.
pub fn run_loop(p: &mut Prepared, budget: Budget, tr: &mut Option<Tracer>) -> LoopStats {
    let samples = match budget {
        Budget::Seconds(_) => SAMPLE_CAPACITY,
        Budget::Ops(k) => k as usize,
    };
    let latencies_ms = Vec::with_capacity(samples);
    let mut s = LoopStats { pool: p.slots.len(), latencies_ms, ..LoopStats::default() };
    let t0 = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(limit) => s.attempted > 0 && t0.elapsed().as_secs_f64() >= limit,
            Budget::Ops(k) => s.attempted >= k,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let r = p.run_op(s.attempted, tr);
        s.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.attempted += 1;
        s.failed += u64::from(!r.ok);
        s.events += r.events;
        s.tau += r.tau;
        s.silent += r.silent;
        s.positions += r.positions;
    }
    s.elapsed_s = t0.elapsed().as_secs_f64();
    s
}

/// Set-up: input generation, oracle runs, and one warm-up op on each of
/// the [`REFERENCE_SLOTS`] (on the one slot of `repro-quick`).
///
/// The warm-up runs before any seeded input exists, so under every seed it
/// is the same work and leaves the allocator's heap in the same state when
/// the timed loop starts.
///
/// # Errors
///
/// Fails if an oracle run fails or a warm-up op fails its check.
pub fn set_up(w: Workload, seed: u64) -> Result<Prepared, String> {
    let model = CostModel::thompson(N);
    let warm = REFERENCE_SLOTS.min(w.pool());
    let slots = make_slots(w, seed, &model, 0..warm)?;
    let mut p = Prepared { workload: w, model, slots };
    let failed = (0..warm).filter(|&op| !p.run_at(op, op as usize, &mut None).ok).count();
    if failed > 0 {
        return Err(format!("{failed} of {warm} warm-up ops failed"));
    }
    p.slots.extend(make_slots(w, seed, &p.model, warm..w.pool())?);
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every slot of `w` for `seed`, without the warm-up.
    fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
        let model = CostModel::thompson(N);
        let slots = make_slots(w, seed, &model, 0..w.pool())?;
        Ok(Prepared { workload: w, model, slots })
    }

    #[test]
    fn op_lists_repeat_for_a_seed_and_differ_across_seeds() {
        let op_list = |seed, w: Workload| -> Vec<u64> {
            (0..64).map(|op| slot_seed(seed, w, op % w.pool())).collect()
        };
        for w in Workload::ALL {
            assert_eq!(op_list(7, w), op_list(7, w), "{}", w.name());
            assert_ne!(op_list(7, w), op_list(8, w), "{}", w.name());
        }
        assert_ne!(op_list(7, Workload::WordSort), op_list(7, Workload::WordFaulty));
        // The reference slots are shared by every seed; the rest are not.
        let (w, r) = (Workload::EngineBare, REFERENCE_SLOTS);
        assert_eq!(slot_seed(7, w, r - 1), slot_seed(8, w, r - 1));
        assert_ne!(slot_seed(7, w, r), slot_seed(8, w, r));
        let a = prepare(Workload::WordFaulty, 7).unwrap();
        let b = prepare(Workload::WordFaulty, 7).unwrap();
        let c = prepare(Workload::WordFaulty, 8).unwrap();
        let inputs = |p: &Prepared| -> Vec<Vec<Word>> {
            p.slots
                .iter()
                .map(|s| match s {
                    Slot::Words { xs, .. } => xs.clone(),
                    _ => unreachable!("word workload"),
                })
                .collect()
        };
        assert_eq!(inputs(&a), inputs(&b));
        assert_ne!(inputs(&a), inputs(&c));
    }

    #[test]
    fn timings_count_each_slot_at_its_fastest_visit() {
        // Three slots, three laps; slot 1's second visit is disturbed and
        // slot 0's last visit is its fastest.
        let lat = vec![30.0, 10.0, 50.0, 40.0, 90.0, 60.0, 20.0, 10.0, 70.0];
        let s = LoopStats { latencies_ms: lat, pool: 3, ..LoopStats::default() };
        assert_eq!(s.fastest_ms(), vec![20.0, 10.0, 50.0]);
        assert!((s.ops_per_s() - 3.0 / 0.080).abs() < 1e-9, "{}", s.ops_per_s());
        assert_eq!(s.op_p50_ms(), 20.0);
        // Fewer ops than slots: only the visited slots count.
        let s = LoopStats { latencies_ms: vec![250.0, 750.0], pool: 32, ..LoopStats::default() };
        assert!((s.ops_per_s() - 2.0).abs() < 1e-9);
        assert_eq!(s.op_p50_ms(), 500.0);
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failed_op() {
        let mut p = prepare(Workload::WordSort, 3).unwrap();
        let clean = run_loop(&mut p, Budget::Ops(1), &mut None);
        assert_eq!((clean.attempted, clean.failed), (1, 0));
        // Corrupt the answer op 0 is checked against: its output no longer
        // matches, exactly as a wrong output would not.
        if let Slot::Words { sorted, .. } = &mut p.slots[0] {
            sorted.swap(0, 1);
        }
        let bad = run_loop(&mut p, Budget::Ops(2), &mut None);
        assert_eq!((bad.attempted, bad.failed), (2, 1), "op 0 fails, op 1 (slot 1) passes");
    }
}
