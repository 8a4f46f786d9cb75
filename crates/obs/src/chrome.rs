//! Chrome `trace_event` exporter (Perfetto-compatible).
//!
//! Renders a [`Recorder`]'s spans as *complete* (`"ph": "X"`) events in the
//! Chrome Trace Event JSON Object Format, which <https://ui.perfetto.dev>
//! and `chrome://tracing` load directly. One simulated bit-time (τ) maps
//! to one microsecond of trace time — bit-times are the only clock the
//! simulator has, and the viewer's zoom makes the unit label irrelevant.
//!
//! Counters render as real `"ph": "C"` counter-track events (a 0 → final
//! ramp over the recorded interval, which Perfetto draws as a graph above
//! the span tracks), and also ride along under `"otherData"` with the
//! histogram summaries so tooling can read the totals back with
//! [`crate::json`] without walking the event list.
//! [`chrome_trace_with_counters`] adds the windowed profiler series
//! (calendar depth, events, link bits, queue wait per window) as further
//! counter tracks.

use crate::json::Json;
use crate::profile::Profiler;
use crate::Recorder;

/// One `"ph": "C"` counter sample. Counter tracks are keyed by `(pid,
/// name)`; the viewer draws the series as a step graph.
fn counter_event(name: &str, ts: u64, value: u64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str("counter")),
        ("ph", Json::str("C")),
        ("ts", Json::u64(ts)),
        ("pid", Json::u64(0)),
        ("tid", Json::u64(0)),
        ("args", Json::obj([("value", Json::u64(value))])),
    ])
}

/// Every recorder counter as a two-sample ramp: 0 at the start of the
/// recorded interval, the final value at its end (one sample when the
/// interval is empty). Samples are emitted in ascending `ts` per track.
fn counter_events(rec: &Recorder) -> Vec<Json> {
    let end = rec.total_recorded().get();
    let mut events = Vec::new();
    for (name, value) in rec.counters() {
        if end == 0 {
            events.push(counter_event(name, 0, value));
        } else {
            events.push(counter_event(name, 0, 0));
            events.push(counter_event(name, end, value));
        }
    }
    events
}

fn span_events(rec: &Recorder) -> Vec<Json> {
    let mut events = vec![Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(0)),
        ("tid", Json::u64(0)),
        ("args", Json::obj([("name", Json::str("orthotrees simulated clock (1τ = 1µs)"))])),
    ])];
    for span in rec.spans() {
        events.push(Json::obj([
            ("name", Json::str(span.name.clone())),
            ("cat", Json::str("phase")),
            ("ph", Json::str("X")),
            ("ts", Json::u64(span.start.get())),
            ("dur", Json::u64(span.duration().get())),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(0)),
        ]));
    }
    events
}

fn assemble(rec: &Recorder, mut events: Vec<Json>) -> Json {
    events.extend(counter_events(rec));
    let other = Json::obj(
        rec.counters()
            .map(|(name, v)| (name.to_string(), Json::u64(v)))
            .chain(rec.histograms().map(|(name, h)| (format!("{name}.mean"), Json::f64(h.mean()))))
            .collect::<Vec<_>>(),
    );
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", other),
    ])
}

/// Renders the recorder as a Chrome-trace JSON document.
///
/// Spans become `"ph": "X"` complete events on one track (`pid` 0, `tid`
/// 0); nesting is reconstructed by the viewer from containment. Every
/// counter additionally becomes a `"ph": "C"` counter track (a 0 → final
/// ramp); counters and histogram means are also attached under
/// `"otherData"`.
pub fn chrome_trace(rec: &Recorder) -> Json {
    assemble(rec, span_events(rec))
}

/// Renders the recorder plus a [`Profiler`]'s windowed series as counter
/// tracks — calendar depth (window max), events, link bits and queue-wait
/// τ per window, sampled at each window's start — so the time-resolved
/// profile renders as graphs above the phase spans in Perfetto. Samples
/// are in ascending `ts` (the window sequence is gapless and monotone,
/// PROF-002).
pub fn chrome_trace_with_counters(rec: &Recorder, prof: &Profiler) -> Json {
    let mut events = span_events(rec);
    let width = prof.width();
    for w in prof.windows() {
        let ts = w.index * width;
        events.push(counter_event("profile.calendar_depth", ts, w.cal_max));
        events.push(counter_event("profile.events", ts, w.events));
        events.push(counter_event("profile.link_bits", ts, w.link_bits));
        events.push(counter_event("profile.queue_wait", ts, w.queue_wait));
    }
    assemble(rec, events)
}

/// Renders the recorder with its causal segments as a second track plus
/// flow arrows — the Perfetto view of *where the time went*.
///
/// On top of [`chrome_trace`]'s phase track (`tid` 0), every causal
/// segment ([`Recorder::segments`]) becomes a `"ph": "X"` event on
/// `tid` 1 named after its [`SegmentKind`](crate::causal::SegmentKind)
/// (with the tree level and phase in `args`), and consecutive segments
/// are linked with `"s"`/`"f"` flow-event pairs sharing an id, so
/// Perfetto draws the causal chain as arrows across the track.
pub fn chrome_trace_with_flows(rec: &Recorder) -> Json {
    let mut events = span_events(rec);
    events.push(Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(0)),
        ("tid", Json::u64(1)),
        ("args", Json::obj([("name", Json::str("causal segments"))])),
    ]));
    let segments = rec.segments();
    for (i, seg) in segments.iter().enumerate() {
        let name = match seg.level {
            Some(level) => format!("{} L{level}", seg.kind.name()),
            None => seg.kind.name().to_string(),
        };
        events.push(Json::obj([
            ("name", Json::str(name)),
            ("cat", Json::str("causal")),
            ("ph", Json::str("X")),
            ("ts", Json::u64(seg.start.get())),
            ("dur", Json::u64(seg.duration().get())),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(1)),
            (
                "args",
                Json::obj([
                    ("phase", Json::str(rec.segment_phase(seg))),
                    ("level", seg.level.map_or(Json::Null, |l| Json::u64(u64::from(l)))),
                ]),
            ),
        ]));
        // A flow arrow from this segment to its successor: the "s" end
        // binds inside this slice, the "f" end inside the next.
        if i + 1 < segments.len() {
            let flow = |ph: &str, ts: u64| {
                Json::obj([
                    ("name", Json::str("causal-chain")),
                    ("cat", Json::str("causal")),
                    ("ph", Json::str(ph)),
                    ("id", Json::u64(i as u64)),
                    ("ts", Json::u64(ts)),
                    ("pid", Json::u64(0)),
                    ("tid", Json::u64(1)),
                    ("bp", Json::str("e")),
                ])
            };
            events.push(flow("s", seg.start.get()));
            events.push(flow("f", segments[i + 1].start.get()));
        }
    }
    assemble(rec, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees_vlsi::BitTime;

    fn sample() -> Recorder {
        let mut r = Recorder::new();
        r.open("SORT", BitTime::ZERO);
        r.open("ROOTTOLEAF", BitTime::ZERO);
        r.close(BitTime::new(40));
        r.close(BitTime::new(100));
        r.count("fault.retries", 3);
        r.observe("calendar", 7);
        r
    }

    #[test]
    fn trace_is_valid_json_with_complete_events() {
        let doc = chrome_trace(&sample());
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Metadata + two spans + the fault.retries counter ramp (2 samples).
        assert_eq!(events.len(), 5);
        let span = &events[1];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("name").and_then(Json::as_str), Some("SORT"));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(100));
        for ev in events {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing {key}");
            }
        }
    }

    #[test]
    fn counters_ride_in_other_data() {
        let doc = chrome_trace(&sample());
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("fault.retries").and_then(Json::as_u64), Some(3));
        assert_eq!(other.get("calendar.mean").and_then(Json::as_f64), Some(7.0));
    }

    /// Collects `(name, ts, value)` for every `"ph": "C"` event and
    /// asserts each named track's samples arrive in ascending `ts`.
    fn counter_samples(doc: &Json) -> Vec<(String, u64, u64)> {
        let back = Json::parse(&doc.render()).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut out = Vec::new();
        let mut last_ts: std::collections::BTreeMap<String, u64> = Default::default();
        for ev in events {
            if ev.get("ph").and_then(Json::as_str) != Some("C") {
                continue;
            }
            let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
            let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
            let value = ev.get("args").and_then(|a| a.get("value")).and_then(Json::as_u64).unwrap();
            if let Some(&prev) = last_ts.get(&name) {
                assert!(ts >= prev, "counter {name} not monotone in ts: {prev} then {ts}");
            }
            last_ts.insert(name.clone(), ts);
            out.push((name, ts, value));
        }
        out
    }

    #[test]
    fn recorder_counters_become_counter_track_ramps() {
        let samples = counter_samples(&chrome_trace(&sample()));
        assert_eq!(
            samples,
            vec![("fault.retries".to_string(), 0, 0), ("fault.retries".to_string(), 100, 3),],
            "0 → final ramp over the recorded interval"
        );
    }

    #[test]
    fn counter_ramp_with_empty_interval_is_a_single_sample() {
        let mut r = Recorder::new();
        r.count("bits", 9); // no spans: total_recorded() == 0
        let samples = counter_samples(&chrome_trace(&r));
        assert_eq!(samples, vec![("bits".to_string(), 0, 9)]);
    }

    #[test]
    fn profiler_windows_become_monotone_counter_tracks() {
        use crate::probe::tests::{admit, deliver};
        use crate::profile::Profiler;
        use orthotrees_vlsi::BitTime as T;
        let mut p = Profiler::new(50);
        p.on_engine(&deliver(T::ZERO, 0, 2));
        p.on_engine(&deliver(T::new(60), 1, 5));
        p.on_engine(&admit(0, T::new(60), 3));
        p.on_engine(&deliver(T::new(120), 0, 1));
        let doc = chrome_trace_with_counters(&sample(), &p);
        let samples = counter_samples(&doc); // asserts per-track monotone ts
        let depth: Vec<_> =
            samples.iter().filter(|(n, _, _)| n == "profile.calendar_depth").collect();
        assert_eq!(depth.len(), 3, "one sample per window");
        assert_eq!((depth[0].1, depth[0].2), (0, 2));
        assert_eq!((depth[1].1, depth[1].2), (50, 5));
        assert_eq!((depth[2].1, depth[2].2), (100, 1));
        let waits: Vec<_> = samples.iter().filter(|(n, _, _)| n == "profile.queue_wait").collect();
        assert_eq!(waits[1].2, 3);
        // The recorder's own counters still ride along.
        assert!(samples.iter().any(|(n, _, _)| n == "fault.retries"));
    }

    #[test]
    fn flow_trace_links_consecutive_segments() {
        use crate::causal::SegmentKind;
        let mut r = Recorder::new();
        r.open("ROOTTOLEAF", BitTime::ZERO);
        r.segment(SegmentKind::WireDelay, Some(2), BitTime::ZERO, BitTime::new(8));
        r.segment(SegmentKind::WireDelay, Some(1), BitTime::new(8), BitTime::new(12));
        r.segment(SegmentKind::QueueWait, None, BitTime::new(12), BitTime::new(17));
        r.close(BitTime::new(17));
        let doc = chrome_trace_with_flows(&r);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        let segs: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("causal"))
            .collect();
        // 3 segment slices + 2 flow pairs.
        let slices = segs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"));
        assert_eq!(slices.count(), 3);
        let starts = segs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"));
        let ends = segs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"));
        assert_eq!(starts.count(), 2);
        assert_eq!(ends.count(), 2);
        // Segment slices carry the phase and level attribution.
        let wire = segs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("wire-delay L2"))
            .unwrap();
        let args = wire.get("args").unwrap();
        assert_eq!(args.get("phase").and_then(Json::as_str), Some("ROOTTOLEAF"));
        assert_eq!(args.get("level").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn flow_trace_without_segments_matches_the_plain_trace_events() {
        let plain = chrome_trace(&sample());
        let flows = chrome_trace_with_flows(&sample());
        let n = |d: &Json| d.get("traceEvents").and_then(Json::as_arr).unwrap().len();
        // Only the tid-1 thread-name metadata event is added.
        assert_eq!(n(&flows), n(&plain) + 1);
    }

    #[test]
    fn empty_recorder_still_renders_a_loadable_file() {
        let doc = chrome_trace(&Recorder::new());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1, "metadata only");
        assert!(Json::parse(&doc.render()).is_ok());
    }
}
