//! Profiler invariant checker: do the windows tell the truth?
//!
//! The windowed [`Profiler`] is only trustworthy as an event-core
//! baseline if its time-resolved view loses nothing relative to the
//! [`Recorder`]'s aggregate bookkeeping. Two rules police that:
//!
//! - **PROF-001** — the windowed sums tile the aggregate totals. At
//!   engine level, Σ per-window events must equal the recorder's
//!   calendar-depth sample count, Σ link bits the recorder's per-link
//!   bits, and Σ queue-wait the recorder's entrance waits. At word
//!   level, Σ(wire + queue + compute) over windows must equal
//!   [`Recorder::segments_total`] — and the completion time, since the
//!   causal segments themselves tile the clock.
//! - **PROF-002** — the window sequence is gapless and monotone:
//!   consecutive indices from 0, positive width. A profiler filled
//!   through the engine hooks holds this by construction; a rebuilt one
//!   ([`Profiler::from_windows`], e.g. from a parsed profile document)
//!   may not — which is exactly what the rule exists to catch.
//!
//! [`stock_findings`] sweeps both rules over profiled bit-level
//! broadcasts and word-level OTN/OTC sorts (clean and under a dense
//! fault plan); `netlint --all` runs it in CI. The mutation tests below
//! prove each rule fires on a deliberately corrupted window sequence.

use crate::diag::Finding;
use orthotrees::obs::profile::Profiler;
use orthotrees::obs::Recorder;
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::FaultPlan;
use orthotrees_sim::{experiments, Engine};
use orthotrees_vlsi::{BitTime, CostModel};

/// Checks PROF-002 on a profiler: window indices must be consecutive
/// from 0 and the effective width positive.
pub fn check_windows(network: &str, prof: &Profiler) -> Vec<Finding> {
    let mut out = Vec::new();
    if prof.width() == 0 {
        out.push(Finding::new(
            "PROF-002",
            network,
            "width".to_string(),
            "window width is 0".to_string(),
            "construct profilers with a positive window width",
        ));
    }
    for (i, w) in prof.windows().iter().enumerate() {
        if w.index != i as u64 {
            out.push(Finding::new(
                "PROF-002",
                network,
                format!("window position {i}"),
                format!("index {} at position {i} (sequence must be gapless from 0)", w.index),
                "fill windows through the profiler's hooks, which gap-fill by construction",
            ));
            break;
        }
    }
    out
}

/// Checks PROF-001 for an engine-filled profiler against the recorder
/// that instrumented the same run: per-window sums must tile the
/// recorder's aggregate event, link-traffic and queue-wait totals.
pub fn check_engine_tiling(network: &str, prof: &Profiler, rec: &Recorder) -> Vec<Finding> {
    let mut out = Vec::new();
    let t = prof.totals();
    let pairs = [
        ("events", t.events, rec.calendar_depth().count()),
        ("link bits", t.link_bits, rec.links().iter().map(|l| l.bits).sum::<u64>()),
        ("queue-wait τ", t.queue_wait, rec.links().iter().map(|l| l.wait_total).sum::<u64>()),
    ];
    for (what, windowed, aggregate) in pairs {
        if windowed != aggregate {
            out.push(Finding::new(
                "PROF-001",
                network,
                what.to_string(),
                format!("Σ windows = {windowed} but the recorder aggregates {aggregate}"),
                "every engine hook must land in exactly one window",
            ));
        }
    }
    out
}

/// Checks PROF-001 for a word-level profiler rebuilt from a recorded
/// run's causal segments: Σ(wire + queue + compute) over windows must
/// equal the recorder's segment total, which itself tiles the
/// completion time.
pub fn check_word_tiling(
    network: &str,
    prof: &Profiler,
    rec: &Recorder,
    completion: BitTime,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let t = prof.totals();
    let windowed = t.wire + t.queue_wait + t.compute;
    let segments = rec.segments_total().get();
    if windowed != segments {
        out.push(Finding::new(
            "PROF-001",
            network,
            "segment τ".to_string(),
            format!("Σ windows = {windowed} τ but the segments total {segments} τ"),
            "split every segment exactly across window boundaries",
        ));
    }
    if segments != completion.get() {
        out.push(Finding::new(
            "PROF-001",
            network,
            "completion".to_string(),
            format!("segments total {segments} τ but the run completed at {completion} τ"),
            "the causal segments must tile the clock before windowing can",
        ));
    }
    out
}

/// Deterministic distinct sorting inputs for the stock word-level runs:
/// a bijective scramble of `salt·n .. (salt + 1)·n`, so no workload-crate
/// dependency.
pub(crate) fn scrambled_words(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64).map(|i| ((i + salt * n as i64) * 37) ^ 0x15).collect()
}

/// Word-fault probability of the dense fault plan — the same "heavy
/// degradation" operating point the fault sweeps use as their worst case.
pub const DENSE_FAULT_RATE: f64 = 0.3;

/// Retry budget of the dense fault plan.
pub const DENSE_FAULT_RETRIES: u32 = 2;

/// The dense word-fault plan of the faulty stock rows, here and in the
/// `simprof` matrix — heavy enough that retry overhead is guaranteed to
/// appear in the windows.
pub fn dense_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_word_fault_rate(DENSE_FAULT_RATE)
        .with_max_retries(DENSE_FAULT_RETRIES)
}

fn word_stock<T: Topology>(n: usize, faulty: bool, out: &mut Vec<Finding>) {
    let xs = scrambled_words(n, 0);
    let Ok(mut net) = T::for_sorting(n) else { return };
    net.install_recorder(Recorder::new());
    if faulty {
        net.install_fault_plan(dense_plan(7));
    }
    let Ok(sorted) = T::sort(&mut net, &xs) else { return };
    let (time, rec) = (sorted.time, net.take_recorder().expect("recorder installed"));
    let prof = Profiler::from_recorder(&rec, Profiler::auto_width(time.get()));
    let fault = if faulty { ", dense faults" } else { "" };
    let name = format!("SORT-{}[{n}]{fault}", T::NAME);
    out.extend(check_windows(&name, &prof));
    out.extend(check_word_tiling(&name, &prof, &rec, time));
}

/// The stock profiler checks `netlint` runs: profiled bit-level
/// broadcasts at a sweep of sizes, and word-level OTN/OTC sorts (clean
/// and under the dense fault plan) — every one must window gaplessly
/// (PROF-002) and tile its recorder's aggregates (PROF-001).
pub fn stock_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for leaves in [4usize, 16, 64] {
        let m = CostModel::thompson(leaves);
        let name = format!("ROOTTOLEAF[{leaves}]");
        let setup = |e: Engine| e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16));
        match experiments::broadcast(leaves, &m, setup) {
            Ok((_, mut e)) => {
                let rec = e.take_recorder().expect("recorder was installed for this run");
                let prof = e.take_profiler().expect("profiler was installed for this run");
                out.extend(check_windows(&name, &prof));
                out.extend(check_engine_tiling(&name, &prof, &rec));
            }
            Err(e) => out.push(Finding::new(
                "PROF-001",
                &name,
                "run".to_string(),
                format!("profiled broadcast failed: {e}"),
                "fix the bit-level model before checking the profiler",
            )),
        }
    }
    for n in [16usize, 64] {
        for faulty in [false, true] {
            word_stock::<Tree>(n, faulty, &mut out);
            word_stock::<Cycles>(n, faulty, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees::obs::profile::Window;

    #[test]
    fn stock_profiles_are_clean() {
        let f = stock_findings();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_window_gap_is_prof002() {
        // A rebuilt sequence that skips index 1: the verbatim constructor
        // keeps the gap, and the rule must see it.
        let w0 = Window { index: 0, events: 1, ..Window::default() };
        let w2 = Window { index: 2, events: 1, ..Window::default() };
        let prof = Profiler::from_windows(8, vec![w0, w2]);
        let f = check_windows("fixture", &prof);
        assert!(f.iter().any(|f| f.rule == "PROF-002"), "{f:?}");
    }

    #[test]
    fn dropped_engine_counts_are_prof001() {
        let m = CostModel::thompson(16);
        let (_, mut e) = experiments::broadcast(16, &m, |e| {
            e.with_recorder(Recorder::new()).with_profiler(Profiler::new(16))
        })
        .unwrap();
        let (rec, prof) = (e.take_recorder().unwrap(), e.take_profiler().unwrap());
        assert!(check_engine_tiling("clean", &prof, &rec).is_empty());

        // Tamper: drop one window's events and bits, keeping the shape
        // valid — only the tiling rule can notice.
        let mut windows = prof.windows().to_vec();
        let busy =
            windows.iter().position(|w| w.events > 0 && w.link_bits > 0).expect("active window");
        windows[busy].events -= 1;
        windows[busy].link_bits -= 1;
        let tampered = Profiler::from_windows(prof.width(), windows);
        assert!(check_windows("tampered", &tampered).is_empty(), "shape still valid");
        let f = check_engine_tiling("tampered", &tampered, &rec);
        assert!(f.iter().any(|f| f.rule == "PROF-001"), "{f:?}");
        assert!(f.iter().any(|f| f.subject == "events"), "{f:?}");
    }

    #[test]
    fn dropped_word_tau_is_prof001() {
        let xs = scrambled_words(16, 0);
        let mut net = Tree::for_sorting(16).unwrap();
        net.install_recorder(Recorder::new());
        let out = Tree::sort(&mut net, &xs).unwrap();
        let rec = net.take_recorder().unwrap();
        let prof = Profiler::from_recorder(&rec, Profiler::auto_width(out.time.get()));
        assert!(check_word_tiling("clean", &prof, &rec, out.time).is_empty());

        let mut windows = prof.windows().to_vec();
        let busy = windows.iter().position(|w| w.wire > 0).expect("active window");
        windows[busy].wire -= 1;
        let tampered = Profiler::from_windows(prof.width(), windows);
        let f = check_word_tiling("tampered", &tampered, &rec, out.time);
        assert!(f.iter().any(|f| f.rule == "PROF-001" && f.subject == "segment τ"), "{f:?}");
    }

    #[test]
    fn zero_width_is_rejected_shapewise() {
        // `Profiler::new`/`from_windows` clamp to ≥ 1, so a live zero
        // width is unreachable — the check still guards parsed documents.
        let prof = Profiler::from_windows(0, Vec::new());
        assert!(check_windows("fixture", &prof).is_empty(), "clamped to 1");
        assert_eq!(prof.width(), 1);
    }
}
