//! The traced run's layer probes: each layer timed around its public
//! calls, on the inputs of the workload that exercises it, and compared
//! with an in-tree oracle where one exists (heap calendar, bare engine,
//! clean run, sequential policy), so the ratios hold on any machine.
//!
//! Every layer belongs to one workload ([`layers_of`]): the engine and
//! calendar to `engine-bare`, the engine observers to `engine-observed`,
//! the word-level executors to `word-sort`, resilience and the word-level
//! observers to `word-faulty`, and analysis, baselines and verify to
//! `repro-quick`.
//!
//! Timings are medians of [`REPS`] repetitions, interleaved across the
//! configurations compared so host drift hits each alike. Allocation
//! counts come from [`crate::alloc::count`] and repeat exactly.

use crate::alloc;
use crate::child::Metric;
use crate::stats::median;
use crate::workload::{
    check_sort, engine_cases, slot_seed, sort_pair, verify_passes, Observers, OpResult, WordRun,
    Workload, FAULTY_N, N,
};
use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, all, Axis, Otn, PhaseCost};
use orthotrees::{CostModel, ParallelPolicy, Word};
use orthotrees_analysis::report::{self, ReportConfig};
use orthotrees_analysis::{critpath, obsreport, profreport, recovery, sweep, telreport, workloads};
use orthotrees_sim::experiments::probe_engine;
use orthotrees_sim::CalendarKind;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed probe.
pub const REPS: usize = 3;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

/// Collects metrics and whether every probe output was right.
struct Out {
    ok: bool,
    metrics: Vec<Metric>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, cond: bool, what: &str) {
        if !cond {
            eprintln!("probe check failed: {what}");
            self.ok = false;
        }
    }
}

/// One pass over the engine op list: build and run seconds per half, and
/// every run's (events, end).
#[derive(Default)]
struct EnginePass {
    build_s: f64,
    clean_s: f64,
    faulty_s: f64,
    clean_events: u64,
    faulty_events: u64,
    runs: Vec<(u64, u64)>,
}

fn engine_pass(
    m: &CostModel,
    plan_seed: u64,
    cal: CalendarKind,
    obs: Observers,
) -> Result<EnginePass, String> {
    let mut p = EnginePass::default();
    for (kind, plan) in engine_cases(plan_seed) {
        let faulty = plan.is_some();
        let (e, build) = timed(|| probe_engine(kind, N, m, cal, plan, false));
        let mut e = obs.attach(e);
        let (end, run) = timed(|| e.try_run());
        let end = end.map_err(|err| err.to_string())?.get();
        obs.take(&mut e);
        let events = e.delivered_events();
        p.build_s += build;
        if faulty {
            p.faulty_s += run;
            p.faulty_events += events;
        } else {
            p.clean_s += run;
            p.clean_events += events;
        }
        p.runs.push((events, end));
    }
    Ok(p)
}

/// Allocations per delivered event over the engine op list's runs.
fn engine_allocs_per_event(plan_seed: u64, obs: Observers) -> Result<f64, String> {
    let m = CostModel::thompson(N);
    let (mut allocs, mut events) = (0, 0);
    for (kind, plan) in engine_cases(plan_seed) {
        let mut e = obs.attach(probe_engine(kind, N, &m, CalendarKind::Ladder, plan, false));
        let (r, n) = alloc::count(|| e.try_run());
        r.map_err(|err| err.to_string())?;
        allocs += n;
        events += e.delivered_events();
    }
    Ok(allocs as f64 / events as f64)
}

/// The allocation counts among `w`'s layer metrics, which repeat exactly:
/// per engine event of the bare (`engine-bare`) or fully observed
/// (`engine-observed`) op list, runs only, and per clean sort call at
/// n = 512 (`word-sort`). Empty for the other workloads.
///
/// # Errors
///
/// Fails if a simulator call returns an error.
pub fn allocation_counts(w: Workload, seed: u64) -> Result<Vec<Metric>, String> {
    let per_event = |name: &str, obs: Observers| -> Result<Vec<Metric>, String> {
        let n = engine_allocs_per_event(slot_seed(seed, w, 0), obs)?;
        Ok(vec![Metric::new(name, n, "allocs/event")])
    };
    match w {
        Workload::EngineBare => per_event("sim.engine.allocs_per_event", Observers::default()),
        Workload::EngineObserved => per_event("obs.all.allocs_per_event", Observers::ALL),
        Workload::WordSort => {
            let xs = workloads::distinct_words(N, slot_seed(seed, w, 0));
            let mut otn_net = Otn::for_sorting(N).map_err(|e| e.to_string())?;
            let (otn_out, otn_allocs) = alloc::count(|| otn::sort::sort(&mut otn_net, &xs));
            otn_out.map_err(|e| e.to_string())?;
            let mut otc_net = Otc::for_sorting(N).map_err(|e| e.to_string())?;
            let (otc_out, otc_allocs) = alloc::count(|| otc::sort::sort(&mut otc_net, &xs));
            otc_out.map_err(|e| e.to_string())?;
            Ok(vec![
                Metric::new("core.otn.allocs_per_sort", otn_allocs as f64, "allocs"),
                Metric::new("core.otc.allocs_per_sort", otc_allocs as f64, "allocs"),
            ])
        }
        Workload::WordFaulty | Workload::ReproQuick => Ok(Vec::new()),
    }
}

/// The engine layers on `w`'s first op list: the bare engine against the
/// heap calendar for `engine-bare`, against each observer alone and all
/// five for `engine-observed`.
fn engine(w: Workload, seed: u64, out: &mut Out) -> Result<(), String> {
    let m = CostModel::thompson(N);
    let plan_seed = slot_seed(seed, w, 0);
    let none = Observers::default();
    let bare = ("bare", CalendarKind::Ladder, none);
    let configs: Vec<(&str, CalendarKind, Observers)> = if w == Workload::EngineBare {
        vec![bare, ("heap", CalendarKind::Heap, none)]
    } else {
        vec![
            bare,
            ("recorder", CalendarKind::Ladder, Observers { recorder: true, ..none }),
            ("causal", CalendarKind::Ladder, Observers { causal: true, ..none }),
            ("profiler", CalendarKind::Ladder, Observers { profiler: true, ..none }),
            ("telemetry", CalendarKind::Ladder, Observers { telemetry: true, ..none }),
            ("flight", CalendarKind::Ladder, Observers { flight: true, ..none }),
            ("all", CalendarKind::Ladder, Observers::ALL),
        ]
    };
    let mut passes: Vec<Vec<EnginePass>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..REPS {
        for ((_, cal, obs), reps) in configs.iter().zip(passes.iter_mut()) {
            reps.push(engine_pass(&m, plan_seed, *cal, *obs)?);
        }
    }
    fn med(reps: &[EnginePass], f: impl Fn(&EnginePass) -> f64) -> f64 {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    }
    fn run_s(p: &EnginePass) -> f64 {
        p.clean_s + p.faulty_s
    }
    let bare = &passes[0];
    let first = &bare[0];
    for ((name, ..), reps) in configs.iter().zip(&passes) {
        let same = reps.iter().all(|p| p.runs == first.runs);
        out.check(same, &format!("engine runs under `{name}` differ from the bare ladder runs"));
    }
    if w == Workload::EngineObserved {
        for ((name, ..), reps) in configs.iter().zip(&passes).skip(1) {
            out.put(&format!("obs.{name}.overhead"), med(reps, run_s) / med(bare, run_s), "ratio");
        }
        return Ok(());
    }
    let events = (first.clean_events + first.faulty_events) as f64;
    let cases = first.runs.len() as f64;
    out.put("sim.engine.build_us", med(bare, |p| p.build_s) / cases * 1e6, "us");
    out.put("sim.engine.run_ns_per_event", med(bare, run_s) / events * 1e9, "ns/event");
    out.put("sim.events_per_s", events / med(bare, |p| p.build_s + run_s(p)), "events/s");
    out.put("sim.events_per_op", events, "events");
    out.put("sim.tau_per_op", first.runs.iter().map(|r| r.1 as f64).sum(), "tau");
    out.put("sim.calendar.heap_over_ladder", med(&passes[1], run_s) / med(bare, run_s), "ratio");
    let per_event = |s: f64, n: u64| s / n as f64;
    out.put(
        "sim.fault.faulty_over_clean",
        per_event(med(bare, |p| p.faulty_s), first.faulty_events)
            / per_event(med(bare, |p| p.clean_s), first.clean_events),
        "ratio",
    );
    Ok(())
}

/// Seconds per named primitive call, in call order.
type Steps = Vec<(&'static str, f64)>;

/// SORT-OTN's five steps as one call each on a fresh net; returns each
/// call's seconds and whether the output ports hold the sorted input.
fn otn_steps(xs: &[Word], sorted: &[Word]) -> Result<(Steps, bool), String> {
    let mut net = Otn::for_sorting(xs.len()).map_err(|e| e.to_string())?;
    let (a, b) = (net.alloc_reg("A"), net.alloc_reg("B"));
    let (flag, r) = (net.alloc_reg("flag"), net.alloc_reg("R"));
    net.load_row_roots(xs);
    let steps = vec![
        ("root_to_leaf", timed(|| net.root_to_leaf(Axis::Rows, a, all)).1),
        ("leaf_to_leaf", timed(|| net.leaf_to_leaf(Axis::Cols, a, |i, j, _| i == j, b, all)).1),
        (
            "bp_phase",
            timed(|| {
                net.bp_phase(PhaseCost::Compare, |i, j, bp| {
                    let f = match (bp.get(a), bp.get(b)) {
                        (Some(x), Some(y)) => x > y || (x == y && i > j),
                        _ => false,
                    };
                    bp.set(flag, Some(Word::from(f)));
                });
            })
            .1,
        ),
        ("count_to_leaf", timed(|| net.count_to_leaf(Axis::Rows, flag, r, all)).1),
        (
            "leaf_to_root",
            timed(|| net.leaf_to_root(Axis::Cols, a, |i, j, v| v.get(r, i, j) == Some(j as Word)))
                .1,
        ),
    ];
    let ok = net.read_col_roots().into_iter().eq(sorted.iter().map(|&w| Some(w)));
    Ok((steps, ok))
}

/// SORT-OTC's steps as one call each on a fresh net (the compare phase and
/// `VECTORCIRCULATE` timed on their first of `L` rounds); returns each
/// call's seconds and whether the output ports hold the sorted input.
fn otc_steps(xs: &[Word], sorted: &[Word]) -> Result<(Steps, bool), String> {
    let mut net = Otc::for_sorting(xs.len()).map_err(|e| e.to_string())?;
    let (m, l) = (net.side(), net.cycle_len());
    let (a, b, c) = (net.alloc_reg("A"), net.alloc_reg("B"), net.alloc_reg("C"));
    let (r, d) = (net.alloc_reg("R"), net.alloc_reg("D"));
    let groups: Vec<Vec<Word>> = xs.chunks(l).map(<[Word]>::to_vec).collect();
    net.load_row_root_buffers(&groups);
    let mut steps = vec![
        ("root_to_cycle", timed(|| net.root_to_cycle(Axis::Rows, a, |_, _, _| true)).1),
        (
            "cycle_to_cycle",
            timed(|| net.cycle_to_cycle(Axis::Cols, a, |i, j, _, _| i == j, b, |_, _, _| true)).1,
        ),
    ];
    net.clear_reg(c);
    for p in 0..l {
        let compare = timed(|| {
            net.bp_phase(PhaseCost::Compare, |i, j, q, v| {
                let (Some(av), Some(bv)) = (v.get(a, i, j, q), v.get(b, i, j, q)) else {
                    return None;
                };
                let (ia, ib) = ((i * l + q) as Word, (j * l + (q + p) % l) as Word);
                (av > bv || (av == bv && ia > ib))
                    .then(|| (c, Some(v.get(c, i, j, q).unwrap_or(0) + 1)))
            });
        })
        .1;
        let circulate = timed(|| net.circulate(&[b])).1;
        if p == 0 {
            steps.push(("bp_phase", compare));
            steps.push(("circulate", circulate));
        }
    }
    steps.push((
        "sum_cycle_to_cycle",
        timed(|| {
            net.sum_cycle_to_cycle(Axis::Rows, c, |_, _, _, _| true, r, |_, _, _| true);
        })
        .1,
    ));
    steps.push((
        "cycle_phase",
        timed(|| {
            net.cycle_phase(PhaseCost::Words(l as u64), |_, j, cyc| {
                for q in 0..l {
                    if let (Some(rank), Some(val)) = (cyc.get(r, q), cyc.get(a, q)) {
                        let rank = rank as usize;
                        if rank % m == j {
                            cyc.set(d, rank / m, Some(val));
                        }
                    }
                }
            });
        })
        .1,
    ));
    steps.push((
        "cycle_to_root",
        timed(|| net.cycle_to_root(Axis::Cols, d, |i, j, q, v| v.get(d, i, j, q).is_some())).1,
    ));
    let buffers = net.read_col_root_buffers();
    let ok = (0..xs.len()).all(|k| buffers[k % m][k / m] == Some(sorted[k]));
    Ok((steps, ok))
}

/// Median seconds of each sort call of [`sort_pair`] per configuration,
/// the configurations interleaved rep by rep. Clean outputs are checked.
fn sort_medians(xs: &[Word], runs: &[WordRun], out: &mut Out) -> Result<Vec<[f64; 2]>, String> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let mut secs = vec![[Vec::new(), Vec::new()]; runs.len()];
    for _ in 0..REPS {
        for (run, s) in runs.iter().zip(secs.iter_mut()) {
            let (outcomes, t) = sort_pair(xs, *run, &mut None)?;
            if run.plan_seed.is_none() {
                out.check(outcomes.iter().all(|o| o.sorted == sorted), "clean sort is wrong");
            }
            s[0].push(t[0]);
            s[1].push(t[1]);
        }
    }
    Ok(secs.iter().map(|[a, b]| [median(a), median(b)]).collect())
}

/// The word-level executors on `word-sort`'s first input: each SORT step,
/// both sorts, and the Threads policy against Sequential.
fn word_sort(seed: u64, out: &mut Out) -> Result<(), String> {
    let xs = workloads::distinct_words(N, slot_seed(seed, Workload::WordSort, 0));
    let mut sorted = xs.clone();
    sorted.sort_unstable();

    for (net, steps) in [("otn", otn_steps as fn(&[Word], &[Word]) -> _), ("otc", otc_steps)] {
        let mut reps = Vec::new();
        for _ in 0..REPS {
            let (s, ok) = steps(&xs, &sorted)?;
            out.check(ok, &format!("{net} step-by-step sort is wrong"));
            reps.push(s);
        }
        for (k, (name, _)) in reps[0].iter().enumerate() {
            let v: Vec<f64> = reps.iter().map(|s| s[k].1).collect();
            out.put(&format!("core.{net}.{name}_us"), median(&v) * 1e6, "us");
        }
    }

    let seq = WordRun::default();
    let threads = WordRun { policy: ParallelPolicy::Threads, ..seq };
    let [seq_s, threads_s] = sort_medians(&xs, &[seq, threads], out)?[..] else {
        unreachable!("two configurations")
    };
    for (i, net) in ["otn", "otc"].into_iter().enumerate() {
        out.put(&format!("core.{net}.sort_ms"), seq_s[i] * 1e3, "ms");
        out.put(&format!("core.parallel.{net}_threads_speedup"), seq_s[i] / threads_s[i], "ratio");
    }
    let ([a, b], _) = sort_pair(&xs, seq, &mut None)?;
    out.put("core.tau_per_op", (a.time + b.time).get() as f64, "tau");
    Ok(())
}

/// Resilience and the word-level observers on `word-faulty`'s first input,
/// against the same sorts run clean.
fn word_faulty(seed: u64, out: &mut Out) -> Result<(), String> {
    let s = slot_seed(seed, Workload::WordFaulty, 0);
    let dup = workloads::duplicated_words(FAULTY_N, s);
    let mut dup_sorted = dup.clone();
    dup_sorted.sort_unstable();
    let seq = WordRun::default();
    let faulty = WordRun { plan_seed: Some(s), ..seq };
    let runs =
        [seq, faulty, WordRun { recorder: true, ..faulty }, WordRun { telemetry: true, ..faulty }];
    let totals: Vec<f64> = sort_medians(&dup, &runs, out)?.iter().map(|[a, b]| a + b).collect();
    let [clean_s, faulty_s, rec_s, tel_s] = totals[..] else { unreachable!("four configurations") };
    out.put("core.resilience.faulty_over_clean", faulty_s / clean_s, "ratio");
    let (outcomes, _) = sort_pair(&dup, faulty, &mut None)?;
    let mut r = OpResult::default();
    for o in &outcomes {
        check_sort(o, &dup_sorted, true, &mut r);
    }
    let missing: usize = outcomes.iter().map(|o| o.missing.len()).sum();
    out.put("core.resilience.erasure_ratio", missing as f64 / r.positions as f64, "share");
    out.put("core.resilience.silent_error_ratio", r.silent as f64 / r.positions as f64, "share");
    out.put("obs.word.recorder_overhead", rec_s / faulty_s, "ratio");
    out.put("obs.word.telemetry_overhead", tel_s / faulty_s, "ratio");
    Ok(())
}

fn ms<R>(f: impl FnOnce() -> R) -> f64 {
    timed(f).1 * 1e3
}

/// Calls `rep` [`REPS`] times and puts the median of each value it names,
/// in ms.
fn put_medians(out: &mut Out, mut rep: impl FnMut() -> Vec<(String, f64)>) {
    let reps: Vec<Vec<(String, f64)>> = (0..REPS).map(|_| rep()).collect();
    for (k, (name, _)) in reps[0].iter().enumerate() {
        let v: Vec<f64> = reps.iter().map(|r| r[k].1).collect();
        out.put(name, median(&v), "ms");
    }
}

fn analysis(seed: u64, out: &mut Out) {
    let cfg = ReportConfig { seed, ..ReportConfig::default() };
    let table =
        |t: orthotrees_analysis::tables::ReproTable| t.render() + &report::ranking_check(&t);
    let obs_n = cfg.sort_ns.iter().copied().filter(|&n| n <= 128).max().unwrap_or(16);
    // Self time is the full report minus its sections, both from the same
    // repetition, so a burst of host noise rarely lands on one side only.
    put_medians(out, || {
        let sections = [
            ("table1", ms(|| table(report::table1(&cfg)))),
            ("table2", ms(|| table(report::table2(&cfg)))),
            ("table3", ms(|| table(report::table3(&cfg)))),
            ("table3_mst", ms(|| table(report::table3_mst(&cfg)))),
            ("table4", ms(|| table(report::table4(&cfg)))),
            (
                "obs_sections",
                ms(|| {
                    obsreport::observability_report(obs_n, seed)
                        + &critpath::critpath_report(obs_n, seed)
                        + &profreport::profile_report(obs_n, seed)
                }),
            ),
            ("recovery", ms(|| recovery::recovery_report_section(seed))),
            ("telemetry", ms(|| telreport::telemetry_report_section(seed))),
        ];
        let own = ms(|| report::full_report(&cfg)) - sections.iter().map(|s| s.1).sum::<f64>();
        sections
            .into_iter()
            .chain([("self", own)])
            .map(|(name, v)| (format!("analysis.{name}_ms"), v))
            .collect()
    });

    let (sn, mn, gn) = (&cfg.sort_ns, &cfg.matmul_ns, &cfg.graph_ns);
    put_medians(out, || {
        [
            (
                "baselines.mesh_ms",
                ms(|| (sweep::sort_mesh(sn, seed, false), sweep::sort_mesh(sn, seed, true)))
                    + ms(|| sweep::boolmm_mesh(mn, seed))
                    + ms(|| sweep::cc_mesh(gn, seed)),
            ),
            (
                "baselines.psn_ms",
                ms(|| sweep::sort_psn(sn, seed, false)) + ms(|| sweep::sort_psn(sn, seed, true)),
            ),
            (
                "baselines.ccc_ms",
                ms(|| sweep::sort_ccc(sn, seed, false)) + ms(|| sweep::sort_ccc(sn, seed, true)),
            ),
            (
                "core.otn.sweeps_ms",
                ms(|| sweep::sort_otn(sn, seed, false))
                    + ms(|| sweep::sort_otn(sn, seed, true))
                    + ms(|| sweep::boolmm_otn(mn, seed))
                    + ms(|| sweep::matmul_mot3d(mn, seed))
                    + ms(|| sweep::cc_otn(gn, seed))
                    + ms(|| sweep::mst_otn(gn, seed)),
            ),
            (
                "core.otc.sweeps_ms",
                ms(|| sweep::sort_otc(sn, seed))
                    + ms(|| sweep::boolmm_otc(mn, seed))
                    + ms(|| sweep::cc_otc(gn, seed))
                    + ms(|| sweep::mst_otc(gn, seed)),
            ),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
    });
}

fn verify(out: &mut Out) {
    let mut findings = Vec::new();
    put_medians(out, || {
        verify_passes()
            .into_iter()
            .map(|(name, pass)| {
                let (n, s) = timed(pass);
                if n > 0 {
                    findings.push(format!("{name} reported {n} findings"));
                }
                (format!("{name}_ms"), s * 1e3)
            })
            .collect()
    });
    for f in &findings {
        out.check(false, f);
    }
}

/// Runs the probes of the layers `w` exercises, on `w`'s inputs for
/// `seed`; returns whether every probe output was right, and the layer
/// metrics.
///
/// # Errors
///
/// Fails if a simulator call returns an error.
pub fn layers_of(w: Workload, seed: u64) -> Result<(bool, Vec<Metric>), String> {
    let mut out = Out { ok: true, metrics: Vec::new() };
    match w {
        Workload::EngineBare | Workload::EngineObserved => engine(w, seed, &mut out)?,
        Workload::WordSort => word_sort(seed, &mut out)?,
        Workload::WordFaulty => word_faulty(seed, &mut out)?,
        Workload::ReproQuick => {
            analysis(seed, &mut out);
            verify(&mut out);
        }
    }
    out.metrics.extend(allocation_counts(w, seed)?);
    Ok((out.ok, out.metrics))
}
