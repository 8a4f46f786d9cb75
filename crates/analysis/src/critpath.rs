//! Critical-path reports: where every bit-time of a run's completion
//! went, rendered from the causal layers added in `orthotrees-obs`.
//!
//! Two views, matching the two levels of the stack:
//!
//! * **word level** — [`segment_table`] renders
//!   [`Recorder::segment_attribution`]: every clock charge of an
//!   instrumented `SORT-OTN` / `SORT-OTC` run decomposed into
//!   wire-delay / queue-wait / node-compute slices per phase. The single
//!   word-serial clock makes every slice critical, so the table's total
//!   equals the completion time exactly (the `Σ segments == completion`
//!   invariant enforced by `crates/core/tests/observability.rs` and the
//!   causal proptest suite);
//! * **bit level** — [`experiments::broadcast`] runs the discrete-event
//!   `ROOTTOLEAF` model with a [`CausalTrace`] fitted, which walks
//!   backward from the completion event. [`critical_path_table`] renders
//!   the per-level attribution, [`closed_form_check`] cross-checks the
//!   wire slices against [`CostModel::level_bit_delays`] bit-for-bit
//!   (the `CRIT-001` rule in `orthotrees-verify` asserts the same), and
//!   [`slack_table`] shows how much later each off-path link's last bit
//!   could have arrived without delaying completion.

use orthotrees::obs::causal::{CausalTrace, CriticalPath, SegmentKind};
use orthotrees::obs::Recorder;
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::BitTime;
use orthotrees_sim::{experiments, Engine};
use orthotrees_vlsi::CostModel;
use std::fmt::Write as _;

/// Renders the word-level causal attribution table: one row per
/// `(phase, kind)` pair, sorted by total descending, with a footer that
/// states whether the slices tile the completion time exactly.
pub fn segment_table(rec: &Recorder, completion: BitTime) -> String {
    let attr = rec.segment_attribution();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>6} {:>12} {:>7}",
        "phase", "kind", "count", "total", "share"
    );
    let mut attributed = 0u64;
    for t in &attr {
        attributed += t.total.get();
        let pct = if completion.get() == 0 {
            0.0
        } else {
            100.0 * t.total.get() as f64 / completion.get() as f64
        };
        let _ = writeln!(
            out,
            "{:<20} {:<14} {:>6} {:>12} {:>6.1}%",
            t.phase,
            t.kind.name(),
            t.count,
            t.total.get(),
            pct
        );
    }
    let check = if attributed == completion.get() { "complete" } else { "INCOMPLETE" };
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>6} {:>12} ({check}: Σ segments = completion {})",
        "TOTAL",
        "",
        "",
        attributed,
        completion.get()
    );
    out
}

/// Renders the bit-level critical path: the kind totals, then every
/// wire-delay slice with its link and length (tree levels read root-first
/// in time order on a broadcast).
pub fn critical_path_table(path: &CriticalPath) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path: {} slices over [0, {}], tiling {}",
        path.segments.len(),
        path.completion.get(),
        if path.covers_completion() { "exact" } else { "BROKEN" }
    );
    for kind in [SegmentKind::WireDelay, SegmentKind::QueueWait, SegmentKind::NodeCompute] {
        let total = path.kind_total(kind);
        let pct = if path.completion.get() == 0 {
            0.0
        } else {
            100.0 * total.get() as f64 / path.completion.get() as f64
        };
        let _ = writeln!(out, "  {:<14} {:>10} ({pct:>5.1}%)", kind.name(), total.get());
    }
    let _ = writeln!(out, "  wire slices (time order; root level is crossed first):");
    for s in path.wire_segments() {
        let _ = writeln!(
            out,
            "    link {:<4} len {:>6}λ  [{:>6}, {:>6})  {:>5} τ",
            s.link.unwrap_or(usize::MAX),
            s.link_len.unwrap_or(0),
            s.start.get(),
            s.end.get(),
            s.duration().get()
        );
    }
    out
}

/// Cross-checks a clean broadcast's critical path against the closed
/// forms: completion must equal [`CostModel::tree_root_to_leaf`] plus the
/// one-τ zero-length injection feed the harness adds above the root, and
/// the positive-length wire slices must equal
/// [`CostModel::level_bit_delays`] root-first, bit for bit. Returns a
/// one-line verdict (`EXACT` / `MISMATCH …`).
pub fn closed_form_check(m: &CostModel, leaves: usize, path: &CriticalPath) -> String {
    let pitch = m.leaf_pitch();
    let expect_t = m.tree_root_to_leaf(leaves, pitch) + m.delay.wire_bit_delay(0);
    if path.completion != expect_t {
        return format!(
            "closed-form check: MISMATCH (completion {} ≠ tree_root_to_leaf + feed {})\n",
            path.completion.get(),
            expect_t.get()
        );
    }
    let wires: Vec<BitTime> = path
        .wire_segments()
        .filter(|s| s.link_len.unwrap_or(0) > 0)
        .map(|s| s.duration())
        .collect();
    let mut expect = m.level_bit_delays(leaves, pitch);
    expect.reverse(); // closed form lists the leaf level first
    if wires == expect {
        format!(
            "closed-form check: EXACT (completion {} = Σ per-level wire delays + tail)\n",
            expect_t.get()
        )
    } else {
        format!("closed-form check: MISMATCH (wire slices {wires:?} ≠ levels {expect:?})\n")
    }
}

/// Renders the per-link slack table: the `k` links whose last delivered
/// bit arrived closest to completion. The critical path's final link has
/// slack 0; everything else shows how much later it could have run.
pub fn slack_table(trace: &CausalTrace, k: usize) -> String {
    let mut slacks = trace.link_slacks();
    slacks.sort_by_key(|s| (s.slack, s.link));
    let mut out = String::new();
    let _ = writeln!(out, "{:<6} {:>8} {:>12} {:>10}", "link", "len(λ)", "last arrive", "slack");
    for s in slacks.iter().take(k) {
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>12} {:>10}",
            s.link,
            s.link_len,
            s.last_arrive.get(),
            s.slack.get()
        );
    }
    if slacks.len() > k {
        let _ = writeln!(out, "… {} more links elided", slacks.len() - k);
    }
    out
}

/// The causal attribution of the network's SORT at size `sort_n`.
fn segment_section<T: Topology>(sort_n: usize, seed: u64) -> String {
    let (out, rec) = crate::obsreport::sort_observed::<T>(sort_n, seed);
    format!(
        "Causal attribution — SORT-{}, N = {sort_n}:\n{}\n",
        T::NAME,
        segment_table(&rec, out.time)
    )
}

/// The full critical-path section of the report: word-level causal
/// attribution for `SORT-OTN` and `SORT-OTC` at size `sort_n`, then the
/// bit-level `ROOTTOLEAF` critical path over `sort_n` leaves with the
/// closed-form cross-check and the slack table.
pub fn critpath_report(sort_n: usize, seed: u64) -> String {
    let mut out = segment_section::<Tree>(sort_n, seed) + &segment_section::<Cycles>(sort_n, seed);
    let m = CostModel::thompson(sort_n);
    match experiments::broadcast(sort_n, &m, Engine::with_causal_trace) {
        Ok((t, mut e)) => {
            let trace = e.take_causal_trace().expect("causal trace was installed for this run");
            let _ = writeln!(
                out,
                "Critical path — bit-level ROOTTOLEAF over {sort_n} leaves \
                 (completion {} bit-times):",
                t.get()
            );
            match trace.critical_path() {
                Some(path) => {
                    out.push_str(&critical_path_table(&path));
                    out.push_str(&closed_form_check(&m, sort_n, &path));
                    out.push_str(&slack_table(&trace, 8));
                }
                None => {
                    let _ = writeln!(out, "(no delivered bits — nothing to attribute)");
                }
            }
        }
        Err(e) => {
            let _ = writeln!(out, "Critical path: bit-level run failed: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(leaves: usize, m: &CostModel) -> (BitTime, CausalTrace) {
        let (t, mut e) = experiments::broadcast(leaves, m, Engine::with_causal_trace).unwrap();
        (t, e.take_causal_trace().unwrap())
    }

    fn segment_table_is_complete<T: Topology>() {
        let (out, rec) = crate::obsreport::sort_observed::<T>(16, 7);
        let text = segment_table(&rec, out.time);
        assert!(text.contains("complete"), "{text}");
        assert!(!text.contains("INCOMPLETE"), "{text}");
        assert!(text.contains("wire-delay") && text.contains("queue-wait"), "{text}");
    }

    #[test]
    fn segment_table_is_complete_for_both_sorts() {
        segment_table_is_complete::<Tree>();
        segment_table_is_complete::<Cycles>();
    }

    #[test]
    fn broadcast_path_is_exact_against_the_closed_form() {
        let m = CostModel::thompson(16);
        let (t, trace) = traced(16, &m);
        let path = trace.critical_path().unwrap();
        // The raw trace includes the harness's 1τ injection feed that the
        // returned completion time excludes.
        assert_eq!(path.completion, t + m.delay.wire_bit_delay(0));
        let text = closed_form_check(&m, 16, &path);
        assert!(text.contains("EXACT"), "{text}");
    }

    #[test]
    fn critical_path_table_reports_exact_tiling() {
        let m = CostModel::thompson(8);
        let (_, trace) = traced(8, &m);
        let path = trace.critical_path().unwrap();
        let text = critical_path_table(&path);
        assert!(text.contains("tiling exact"), "{text}");
        assert!(text.contains("wire-delay"), "{text}");
    }

    #[test]
    fn slack_table_has_a_zero_slack_row() {
        let m = CostModel::thompson(8);
        let (_, trace) = traced(8, &m);
        let text = slack_table(&trace, 4);
        // The completion link itself has slack 0 and sorts first.
        let first_row = text.lines().nth(1).unwrap();
        assert!(first_row.trim_end().ends_with('0'), "{text}");
    }

    #[test]
    fn mismatch_is_reported_not_hidden() {
        // Check a path against the wrong model: the verdict must say so.
        let m = CostModel::thompson(16);
        let (_, trace) = traced(16, &m);
        let path = trace.critical_path().unwrap();
        let wrong = CostModel::constant_delay(16);
        let text = closed_form_check(&wrong, 16, &path);
        assert!(text.contains("MISMATCH"), "{text}");
    }

    #[test]
    fn critpath_report_has_all_sections() {
        let text = critpath_report(16, 42);
        assert!(text.contains("Causal attribution — SORT-OTN"));
        assert!(text.contains("Causal attribution — SORT-OTC"));
        assert!(text.contains("closed-form check: EXACT"), "{text}");
        assert!(!text.contains("INCOMPLETE"), "{text}");
        assert!(!text.contains("BROKEN"), "{text}");
    }
}
