//! Time-resolved profile reports: per-window tables, hot-spot
//! attribution and the engine-structure footprint, rendered from a
//! windowed [`Profiler`].
//!
//! Mirrors `obsreport`'s two levels, both read from one [`Observation`]:
//!
//! * **word level** — either network's recorded sort's causal segments
//!   re-bucketed into windows ([`Profiler::from_recorder`]), so the
//!   wire/queue/compute mix is visible *over time* rather than only in
//!   aggregate;
//! * **bit level** — the `ROOTTOLEAF` broadcast with the engine recorder
//!   and profiler fitted: events, calendar depth and link traffic per
//!   window, plus the calendar-depth peak footprint the event-core
//!   overhaul must be sized for.
//!
//! `profile_section` renders all of it; `report::full_report` appends
//! it after the critical-path section.

use crate::obsreport::Observation;
use orthotrees::obs::profile::Profiler;
use std::fmt::Write as _;

/// Renders the per-window summary table: time range, events, calendar
/// depth (max / mean), link bits, and the queue/wire/compute/fault-
/// overhead τ mix. Empty windows are skipped and at most `max_rows`
/// active windows are shown (the rest elided with a count), so report
/// length stays bounded.
pub fn window_table(prof: &Profiler, max_rows: usize) -> String {
    let mut out = String::new();
    let w = prof.width();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6} {:>7}",
        "window(tau)",
        "events",
        "calmax",
        "calmean",
        "bits",
        "queue",
        "wire",
        "compute",
        "fault",
        "f.ovh"
    );
    let active: Vec<_> = prof
        .windows()
        .iter()
        .filter(|win| {
            win.events + win.link_bits + win.queue_wait + win.wire + win.compute + win.faults > 0
        })
        .collect();
    for win in active.iter().take(max_rows) {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>7} {:>8.1} {:>7} {:>7} {:>7} {:>7} {:>6} {:>7}",
            format!("[{}, {})", win.index * w, (win.index + 1) * w),
            win.events,
            win.cal_max,
            win.cal_mean(),
            win.link_bits,
            win.queue_wait,
            win.wire,
            win.compute,
            win.faults,
            win.fault_overhead
        );
    }
    if active.len() > max_rows {
        let _ = writeln!(out, "… {} more active windows elided", active.len() - max_rows);
    }
    let t = prof.totals();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6} {:>7}  (Σ windows)",
        format!("TOTAL ({} win)", prof.windows().len()),
        t.events,
        "",
        "",
        t.link_bits,
        t.queue_wait,
        t.wire,
        t.compute,
        t.faults,
        t.fault_overhead
    );
    out
}

/// Renders the top-`k` hot-spot attribution — nodes/links by traffic at
/// engine level, phases by segment τ at word level — one `name: value`
/// row per line.
pub fn hot_table(prof: &Profiler, k: usize) -> String {
    let mut out = String::new();
    let hot = prof.hot_spots(k);
    if hot.is_empty() {
        let _ = writeln!(out, "hot spots: none recorded");
        return out;
    }
    let _ = writeln!(out, "hot spots (top {}):", hot.len());
    for h in hot {
        let _ = writeln!(out, "  {:<24} {}", h.name, h.value);
    }
    out
}

/// Renders the engine-structure footprint captured at the calendar-depth
/// peak, or a placeholder for word-level profiles (which have no
/// calendar).
pub fn footprint_line(prof: &Profiler) -> String {
    match prof.footprint() {
        Some(f) => format!(
            "footprint at peak (t = {} tau): {} calendar entries, {} busy links, \
             {} events delivered\n",
            f.at.get(),
            f.calendar_entries,
            f.busy_links,
            f.delivered_events
        ),
        None => "footprint: n/a (word-level profile)\n".to_string(),
    }
}

/// The full windowed-profile section of the report: word-level SORT-OTN
/// and SORT-OTC window tables with hot phases, and the bit-level
/// `ROOTTOLEAF` engine profile with calendar-depth percentiles and the
/// peak footprint.
pub fn profile_report(sort_n: usize, seed: u64) -> String {
    profile_section(&Observation::run(sort_n, seed))
}

/// [`profile_report`] rendered from the runs of `obs`; each sort's
/// windows are auto-sized to its completion time.
pub(crate) fn profile_section(obs: &Observation) -> String {
    let n = obs.n;
    let mut out = String::new();
    for (name, (sorted, rec)) in obs.sorts() {
        let prof = Profiler::from_recorder(rec, Profiler::auto_width(sorted.time.get()));
        let _ = writeln!(
            out,
            "Windowed profile — SORT-{name}, N = {n} (completion {} bit-times, window {} tau):\n{}{}",
            sorted.time.get(),
            prof.width(),
            window_table(&prof, 16),
            hot_table(&prof, 5)
        );
    }
    match &obs.broadcast {
        Ok(b) => {
            let prof = &b.profiler;
            let _ = writeln!(
                out,
                "Engine window profile — bit-level ROOTTOLEAF over {n} leaves \
                 (completion {} bit-times, window {} tau):",
                b.time.get(),
                prof.width()
            );
            out.push_str(&window_table(prof, 16));
            out.push_str(&hot_table(prof, 5));
            let cal = b.recorder.calendar_depth();
            let _ = writeln!(
                out,
                "calendar depth p50 {}, p99 {}, peak {}",
                cal.percentile(50.0),
                cal.percentile(99.0),
                prof.peak_calendar_depth()
            );
            out.push_str(&footprint_line(prof));
        }
        Err(e) => {
            let _ = writeln!(out, "Engine window profile: bit-level run failed: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsreport::sort_observed;
    use orthotrees::obs::Recorder;
    use orthotrees::otn::sort::SortOutcome;
    use orthotrees::wordnet::{Cycles, Topology, Tree};

    /// `T`'s observed sort at n = 16, seed 7, with its windowed profile.
    fn profiled<T: Topology>() -> (SortOutcome, Recorder, Profiler) {
        let (out, rec) = sort_observed::<T>(16, 7);
        let prof = Profiler::from_recorder(&rec, Profiler::auto_width(out.time.get()));
        (out, rec, prof)
    }

    fn word_profile_tiles<T: Topology>() {
        let (out, rec, prof) = profiled::<T>();
        let t = prof.totals();
        assert_eq!(t.wire + t.queue_wait + t.compute, rec.segments_total().get());
        assert_eq!(rec.segments_total(), out.time, "Σ segments == completion (PR 4 invariant)");
        for (i, w) in prof.windows().iter().enumerate() {
            assert_eq!(w.index, i as u64, "gapless windows");
        }
    }

    #[test]
    fn word_profile_tiles_the_completion_time() {
        word_profile_tiles::<Tree>();
    }

    #[test]
    fn otc_word_profile_tiles_too() {
        word_profile_tiles::<Cycles>();
    }

    #[test]
    fn window_table_sums_and_elides() {
        let (_, _, prof) = profiled::<Tree>();
        let text = window_table(&prof, 4);
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("Σ windows"), "{text}");
        let active = prof
            .windows()
            .iter()
            .filter(|w| w.events + w.link_bits + w.queue_wait + w.wire + w.compute + w.faults > 0)
            .count();
        assert_eq!(text.contains("elided"), active > 4, "{text}");
    }

    #[test]
    fn hot_table_names_word_phases() {
        let (_, _, prof) = profiled::<Tree>();
        let text = hot_table(&prof, 5);
        assert!(text.contains("hot spots"), "{text}");
        assert!(text.contains("SORT-OTN") || text.contains("ROOTTOLEAF"), "{text}");
    }

    #[test]
    fn profile_report_has_all_three_sections_and_a_footprint() {
        let text = profile_report(16, 42);
        assert!(text.contains("SORT-OTN"), "{text}");
        assert!(text.contains("SORT-OTC"), "{text}");
        assert!(text.contains("Engine window profile"), "{text}");
        assert!(text.contains("footprint at peak"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }
}
