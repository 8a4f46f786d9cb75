//! Observability reports: phase time-attribution and link-utilization
//! tables rendered from a [`Recorder`], plus the instrumented runs that
//! feed them.
//!
//! Two levels of the stack are profiled:
//!
//! * **word level** — [`sort_observed`] runs either network's sorting
//!   procedure with a recorder installed, so every primitive's clock
//!   charge lands in a named phase span (`ROOTTOLEAF`, `LEAFTOROOT`,
//!   `VECTORCIRCULATE`, …). The [`phase_table`] rendered from it is
//!   *complete*: self times sum exactly to the completion time (checked
//!   by a test here and enforced crate-side by
//!   `crates/core/tests/observability.rs`);
//! * **bit level** — [`experiments::broadcast`] runs the discrete-event
//!   `ROOTTOLEAF` model; with the engine recorder fitted it yields the
//!   per-link bits-carried/utilization/queueing and the calendar-depth
//!   histogram that [`link_table`] renders.

use crate::workloads;
use orthotrees::obs::Recorder;
use orthotrees::otn::sort::SortOutcome;
use orthotrees::wordnet::{Cycles, Topology, Tree};
use orthotrees::BitTime;
use orthotrees_sim::experiments;
use orthotrees_vlsi::CostModel;
use std::fmt::Write as _;

/// Runs the network's SORT (`SORT-OTN` for [`Tree`], `SORT-OTC` for
/// [`Cycles`]) on `n` seeded words with a recorder installed; returns the
/// outcome and the recorder.
///
/// # Panics
///
/// Panics if `n` is not a supported sorting size (a power of two, and at
/// least 4 on the OTC).
pub fn sort_observed<T: Topology>(n: usize, seed: u64) -> (SortOutcome, Recorder) {
    let xs = workloads::distinct_words(n, seed);
    let mut net = T::for_sorting(n).expect("power-of-two sort size");
    net.install_recorder(Recorder::new());
    let out = T::sort(&mut net, &xs).expect("matched input length");
    let rec = net.take_recorder().expect("recorder was installed");
    (out, rec)
}

/// The registry classification of a span name for the phase table:
/// `class` plus the direction for communication entries (`comm/stream`),
/// or `-` for spans that are not registry primitives.
fn registry_kind(name: &str) -> &'static str {
    use orthotrees::primitive::{Class, Direction};
    match orthotrees::primitive::lookup(name) {
        None => "-",
        Some(s) => match (s.class, s.direction) {
            (Class::Communication, Some(Direction::Broadcast)) => "comm/broadcast",
            (Class::Communication, Some(Direction::Send)) => "comm/send",
            (Class::Communication, Some(Direction::Aggregate)) => "comm/aggregate",
            (Class::Communication, Some(Direction::Stream)) => "comm/stream",
            (Class::Communication, Some(Direction::Circulate)) => "comm/circulate",
            (Class::Communication, None) => "comm",
            (Class::Composite, _) => "composite",
            (Class::Compute, _) => "compute",
            (Class::Procedure, _) => "procedure",
            (Class::Overhead, _) => "overhead",
        },
    }
}

/// Renders the per-phase time-attribution table, each row annotated with
/// the span's registry classification. The `self` column sums exactly to
/// `completion` (every clock advance happens inside a span), and the
/// footer states the check.
pub fn phase_table(rec: &Recorder, completion: BitTime) -> String {
    let totals = rec.phase_totals();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>6} {:>12} {:>12} {:>7}",
        "phase", "kind", "count", "total", "self", "self%"
    );
    let mut attributed = 0u64;
    for p in &totals {
        attributed += p.self_time.get();
        let pct = if completion.get() == 0 {
            0.0
        } else {
            100.0 * p.self_time.get() as f64 / completion.get() as f64
        };
        let _ = writeln!(
            out,
            "{:<20} {:<14} {:>6} {:>12} {:>12} {:>6.1}%",
            p.name,
            registry_kind(&p.name),
            p.count,
            p.total.get(),
            p.self_time.get(),
            pct
        );
    }
    let check = if attributed == completion.get() { "complete" } else { "INCOMPLETE" };
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>6} {:>12} {:>12} ({check}: Σself = completion {})",
        "TOTAL",
        "",
        "",
        "",
        attributed,
        completion.get()
    );
    out
}

/// Renders the per-link utilization table — the 10 busiest links (by
/// queueing, then bits) plus a fleet summary line with the calendar-depth
/// histogram stats from a bit-level run's recorder.
pub fn link_table(rec: &Recorder) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>8} {:>10} {:>6}",
        "link", "bits", "queued", "wait(tau)", "util"
    );
    let mut active: Vec<(usize, &orthotrees::obs::LinkStats)> =
        rec.links().iter().enumerate().filter(|(_, l)| l.bits > 0).collect();
    let total_bits: u64 = active.iter().map(|(_, l)| l.bits).sum();
    let count = active.len();
    active.sort_by(|(ai, a), (bi, b)| {
        (b.wait_total, b.bits).cmp(&(a.wait_total, a.bits)).then(ai.cmp(bi))
    });
    for (i, l) in active.iter().take(10) {
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>8} {:>10} {:>6.2}",
            i,
            l.bits,
            l.queued_bits,
            l.wait_total,
            l.utilization()
        );
    }
    if count > 10 {
        let _ = writeln!(out, "… {} more active links elided", count - 10);
    }
    let cal = rec.calendar_depth();
    let _ = writeln!(
        out,
        "{count} active links, {total_bits} bits carried; calendar depth mean {:.1}, \
         p50 {}, p99 {}, max {}",
        cal.mean(),
        cal.percentile(50.0),
        cal.percentile(99.0),
        cal.max()
    );
    out
}

/// The phase breakdown of the network's SORT at size `sort_n`.
fn phase_section<T: Topology>(sort_n: usize, seed: u64) -> String {
    let (out, rec) = sort_observed::<T>(sort_n, seed);
    format!(
        "Phase attribution — SORT-{}, N = {sort_n} (completion {} bit-times):\n{}\n",
        T::NAME,
        out.time.get(),
        phase_table(&rec, out.time)
    )
}

/// The full observability section of the report: OTN and OTC sorting
/// phase breakdowns at size `sort_n`, and the bit-level link profile of a
/// `ROOTTOLEAF` broadcast over `sort_n` leaves.
pub fn observability_report(sort_n: usize, seed: u64) -> String {
    let mut out = phase_section::<Tree>(sort_n, seed) + &phase_section::<Cycles>(sort_n, seed);
    let m = CostModel::thompson(sort_n);
    match experiments::broadcast(sort_n, &m, |e| e.with_recorder(Recorder::new())) {
        Ok((t, mut e)) => {
            let rec = e.take_recorder().expect("recorder was installed for this run");
            let _ = writeln!(
                out,
                "Link utilization — bit-level ROOTTOLEAF over {sort_n} leaves \
                 (completion {} bit-times):",
                t.get()
            );
            out.push_str(&link_table(&rec));
        }
        Err(e) => {
            let _ = writeln!(out, "Link utilization: bit-level run failed: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The phase table of `T`'s observed sort at n = 16, seed 7.
    fn observed_table<T: Topology>() -> String {
        let (out, rec) = sort_observed::<T>(16, 7);
        phase_table(&rec, out.time)
    }

    fn assert_contains_all(text: &str, needles: &[&str]) {
        for needle in needles {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    fn phase_table_is_complete<T: Topology>(phases: &[&str]) {
        let text = observed_table::<T>();
        assert!(text.contains("complete"), "{text}");
        assert!(!text.contains("INCOMPLETE"), "{text}");
        assert_contains_all(&text, phases);
    }

    #[test]
    fn phase_table_totals_sum_to_completion() {
        phase_table_is_complete::<Tree>(&["SORT-OTN", "ROOTTOLEAF"]);
    }

    #[test]
    fn otc_phase_table_totals_sum_to_completion() {
        phase_table_is_complete::<Cycles>(&["VECTORCIRCULATE"]);
    }

    #[test]
    fn phase_table_annotates_rows_with_registry_kinds() {
        assert_contains_all(&observed_table::<Tree>(), &["comm/broadcast", "procedure"]);
        assert_contains_all(&observed_table::<Cycles>(), &["comm/stream", "comm/circulate"]);
    }

    #[test]
    fn link_table_reports_full_pipelining() {
        let m = CostModel::thompson(16);
        let (_, mut e) =
            experiments::broadcast(16, &m, |e| e.with_recorder(Recorder::new())).unwrap();
        let rec = e.take_recorder().unwrap();
        let text = link_table(&rec);
        assert!(text.contains("active links"), "{text}");
        // The broadcast pipelines one bit per tau on every active wire.
        assert!(text.contains("1.00"), "{text}");
    }

    #[test]
    fn link_table_reports_calendar_percentiles() {
        let m = CostModel::thompson(16);
        let (_, mut e) =
            experiments::broadcast(16, &m, |e| e.with_recorder(Recorder::new())).unwrap();
        let rec = e.take_recorder().unwrap();
        let text = link_table(&rec);
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
        let cal = rec.calendar_depth();
        assert!(cal.percentile(50.0) <= cal.percentile(99.0));
        assert!(cal.percentile(99.0) <= cal.max() || cal.count() == 0);
    }

    #[test]
    fn observability_report_has_all_three_sections() {
        let text = observability_report(16, 42);
        assert!(text.contains("SORT-OTN"));
        assert!(text.contains("SORT-OTC"));
        assert!(text.contains("Link utilization"));
        assert!(!text.contains("INCOMPLETE"), "{text}");
    }
}
