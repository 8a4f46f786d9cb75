//! Engine checkpoint/restore.
//!
//! A [`Snapshot`] captures everything the discrete-event engine needs to
//! resume a run at an event boundary: the clock, the pending-event
//! calendar, every link's pipeline occupancy, every node's mutable state
//! (via [`NodeBehavior::save_state`](crate::NodeBehavior::save_state)), the delivered-event counter the
//! [`RunBudget`](crate::RunBudget) watchdog counts against, and the
//! running [`FaultStats`]. Restoring a snapshot into a freshly built
//! engine of the same shape and then running to quiescence is observably
//! identical — bits, times, results, log, stats — to the uninterrupted
//! run (the `recovery_suite` proptests and the CKPT-001 verify rule hold
//! this to account).
//!
//! Snapshots serialize to the workspace's dependency-free
//! [`Json`] value (schema
//! `orthotrees-snapshot/v1`), so a checkpoint written with
//! [`Snapshot::render`] survives process death and loads back with
//! [`Snapshot::parse`].
//!
//! What a snapshot deliberately does **not** contain: the network shape
//! (nodes, links, routes — configuration, rebuilt by the caller), the
//! installed [`FaultPlan`](crate::FaultPlan) (configuration: its draws are
//! pure functions of the scheduling counter, which *is* saved), and the
//! installed instruments of the probe slot (observers, not simulation state).
//! [`Engine::restore`] verifies the target engine matches the checkpoint's
//! shape and rejects mismatches with a typed
//! [`SimError::SnapshotMismatch`].

use crate::engine::{Engine, EventLog, Pending, RunStatus};
use crate::fault::FaultStats;
use crate::node::{Bit, NodeId, PortId};
use orthotrees_obs::json::Json;
use orthotrees_vlsi::{BitTime, DelayModel, SimError};

/// The on-disk schema identifier.
pub const SCHEMA: &str = "orthotrees-snapshot/v1";

/// One calendar entry, in delivery order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SnapEvent {
    at: BitTime,
    /// Raw scheduling counter (the causal `MsgId`). The heap ordering key
    /// is *recomputed* on restore from the engine's tie-break mode, so it
    /// never appears on disk (under LIFO ties it would be `u64::MAX − msg`,
    /// which the JSON integer range cannot carry).
    msg: u64,
    node: usize,
    port: usize,
    value: bool,
    index: u32,
}

/// A checkpoint of a running [`Engine`]. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Snapshot {
    delay: DelayModel,
    node_count: usize,
    link_count: usize,
    lifo_ties: bool,
    keep_log: bool,
    now: BitTime,
    seq: u64,
    started: bool,
    delivered: u64,
    events: Vec<SnapEvent>,
    free_at: Vec<BitTime>,
    node_states: Vec<Json>,
    fault_stats: FaultStats,
    log: Vec<EventLog>,
}

// The field codec below is shared with the word-level checkpoint
// (`orthotrees::checkpoint`) and with every node's `save_state`/`load_state`,
// so all `/v1` documents spell the delay model, the fault counters, words,
// optional times and their errors the same way.

/// The on-disk name of a delay model: `"Constant"`, `"Logarithmic"` or
/// `"Linear"`.
pub fn delay_tag(d: DelayModel) -> &'static str {
    match d {
        DelayModel::Constant => "Constant",
        DelayModel::Logarithmic => "Logarithmic",
        DelayModel::Linear => "Linear",
    }
}

/// Reads the `delay` field of `doc`, the inverse of [`delay_tag`]; a
/// missing field or unknown tag is a [`SimError::SnapshotFormat`].
pub fn req_delay(doc: &Json) -> Result<DelayModel, SimError> {
    match req(doc, "delay")?.as_str() {
        Some("Constant") => Ok(DelayModel::Constant),
        Some("Logarithmic") => Ok(DelayModel::Logarithmic),
        Some("Linear") => Ok(DelayModel::Linear),
        Some(other) => Err(bad(format!("unknown delay model `{other}`"))),
        None => Err(bad("field `delay` is not a string")),
    }
}

/// A [`SimError::SnapshotFormat`] carrying `detail`.
pub fn bad(detail: impl Into<String>) -> SimError {
    SimError::SnapshotFormat { detail: detail.into() }
}

/// A [`SimError::SnapshotMismatch`]: the restore target has `expected`,
/// the checkpoint was written with `actual`.
pub fn mismatch(what: &'static str, expected: impl ToString, actual: impl ToString) -> SimError {
    SimError::SnapshotMismatch { what, expected: expected.to_string(), actual: actual.to_string() }
}

/// The field `key` of `doc`, or a [`SimError::SnapshotFormat`] naming it.
pub fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, SimError> {
    doc.get(key).ok_or_else(|| bad(format!("missing field `{key}`")))
}

/// The field `key` of `doc` as a non-negative integer, or a
/// [`SimError::SnapshotFormat`] naming it.
pub fn req_u64(doc: &Json, key: &str) -> Result<u64, SimError> {
    req(doc, key)?.as_u64().ok_or_else(|| bad(format!("field `{key}` is not an integer")))
}

/// The field `key` of `doc` as a `u32`, or a [`SimError::SnapshotFormat`]
/// naming it.
pub fn req_u32(doc: &Json, key: &str) -> Result<u32, SimError> {
    u32::try_from(req_u64(doc, key)?).map_err(|_| bad(format!("field `{key}` exceeds u32")))
}

/// The field `key` of `doc` as a boolean, or a [`SimError::SnapshotFormat`]
/// naming it.
pub fn req_bool(doc: &Json, key: &str) -> Result<bool, SimError> {
    req(doc, key)?.as_bool().ok_or_else(|| bad(format!("field `{key}` is not a boolean")))
}

/// A full-width word as hex text: a `u64` can exceed JSON's exact 2⁵³
/// integer range.
pub fn word_to_json(word: u64) -> Json {
    Json::str(format!("{word:x}"))
}

/// The hex word `key` of `doc`, the inverse of [`word_to_json`]; a missing
/// field or non-hex text is a [`SimError::SnapshotFormat`].
pub fn req_word(doc: &Json, key: &str) -> Result<u64, SimError> {
    let text = req(doc, key)?.as_str().unwrap_or_default();
    u64::from_str_radix(text, 16).map_err(|_| bad(format!("field `{key}` is not a hex word")))
}

/// An optional integer (a completion time, a port): `null` when absent.
pub fn opt_u64_to_json(value: Option<u64>) -> Json {
    value.map_or(Json::Null, Json::u64)
}

/// The field `key` of `doc` as `null` or an integer, the inverse of
/// [`opt_u64_to_json`]; a missing field or any other value is a
/// [`SimError::SnapshotFormat`].
pub fn req_opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, SimError> {
    match req(doc, key)? {
        Json::Null => Ok(None),
        v => v.as_u64().map(Some).ok_or_else(|| bad(format!("field `{key}` is not an integer"))),
    }
}

/// The eight [`FaultStats`] counters as one JSON object.
pub fn fault_stats_to_json(s: &FaultStats) -> Json {
    Json::obj([
        ("injected", Json::u64(s.injected)),
        ("detected", Json::u64(s.detected)),
        ("corrected", Json::u64(s.corrected)),
        ("retries", Json::u64(s.retries)),
        ("erasures", Json::u64(s.erasures)),
        ("silent", Json::u64(s.silent)),
        ("faulty_bits", Json::u64(s.faulty_bits)),
        ("suppressed", Json::u64(s.suppressed)),
    ])
}

/// The inverse of [`fault_stats_to_json`]; a missing or non-integer
/// counter is a [`SimError::SnapshotFormat`].
pub fn fault_stats_from_json(doc: &Json) -> Result<FaultStats, SimError> {
    Ok(FaultStats {
        injected: req_u64(doc, "injected")?,
        detected: req_u64(doc, "detected")?,
        corrected: req_u64(doc, "corrected")?,
        retries: req_u64(doc, "retries")?,
        erasures: req_u64(doc, "erasures")?,
        silent: req_u64(doc, "silent")?,
        faulty_bits: req_u64(doc, "faulty_bits")?,
        suppressed: req_u64(doc, "suppressed")?,
    })
}

impl Snapshot {
    /// Simulated time at the checkpoint.
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// Events delivered up to the checkpoint (the watchdog's counter).
    pub fn delivered_events(&self) -> u64 {
        self.delivered
    }

    /// Number of events pending in the captured calendar.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The checkpoint as an `orthotrees-snapshot/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let events = self.events.iter().map(|e| {
            Json::Arr(vec![
                Json::u64(e.at.get()),
                Json::u64(e.msg),
                Json::u64(e.node as u64),
                Json::u64(e.port as u64),
                Json::bool(e.value),
                Json::u64(u64::from(e.index)),
            ])
        });
        let log = self.log.iter().map(|e| {
            Json::Arr(vec![
                Json::u64(e.at.get()),
                Json::u64(e.node.0 as u64),
                Json::u64(e.port.0 as u64),
                Json::bool(e.bit.value),
                Json::u64(u64::from(e.bit.index)),
            ])
        });
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "engine",
                Json::obj([
                    ("delay", Json::str(delay_tag(self.delay))),
                    ("nodes", Json::u64(self.node_count as u64)),
                    ("links", Json::u64(self.link_count as u64)),
                    ("lifo_ties", Json::bool(self.lifo_ties)),
                    ("keep_log", Json::bool(self.keep_log)),
                    ("now", Json::u64(self.now.get())),
                    ("seq", Json::u64(self.seq)),
                    ("started", Json::bool(self.started)),
                    ("delivered", Json::u64(self.delivered)),
                ]),
            ),
            ("calendar", Json::arr(events)),
            ("free_at", Json::arr(self.free_at.iter().map(|t| Json::u64(t.get())))),
            ("node_states", Json::Arr(self.node_states.clone())),
            ("fault_stats", fault_stats_to_json(&self.fault_stats)),
            ("log", Json::arr(log)),
        ])
    }

    /// Renders the checkpoint as JSON text (the on-disk format).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Loads a checkpoint from a parsed `orthotrees-snapshot/v1` document.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] on a wrong schema tag, a
    /// missing field, or an out-of-range value.
    pub fn from_json(doc: &Json) -> Result<Self, SimError> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(bad(format!("schema tag `{other}`, expected `{SCHEMA}`"))),
            None => return Err(bad("schema tag missing")),
        }
        let engine = req(doc, "engine")?;
        let delay = req_delay(engine)?;
        let node_count = req_u64(engine, "nodes")? as usize;
        let link_count = req_u64(engine, "links")? as usize;

        let ev_row = |row: &Json, what: &str, len: usize| -> Result<Vec<Json>, SimError> {
            let arr = row.as_arr().ok_or_else(|| bad(format!("{what} entry is not an array")))?;
            if arr.len() != len {
                return Err(bad(format!("{what} entry has {} fields, expected {len}", arr.len())));
            }
            Ok(arr.to_vec())
        };
        let num = |j: &Json, what: &str| -> Result<u64, SimError> {
            j.as_u64().ok_or_else(|| bad(format!("{what} is not an integer")))
        };
        let flag = |j: &Json, what: &str| -> Result<bool, SimError> {
            j.as_bool().ok_or_else(|| bad(format!("{what} is not a boolean")))
        };

        let mut events = Vec::new();
        for row in
            req(doc, "calendar")?.as_arr().ok_or_else(|| bad("`calendar` is not an array"))?
        {
            let f = ev_row(row, "calendar", 6)?;
            let node = num(&f[2], "calendar node")? as usize;
            let port = num(&f[3], "calendar port")? as usize;
            if node >= node_count {
                return Err(bad(format!("calendar event targets node {node} of {node_count}")));
            }
            events.push(SnapEvent {
                at: BitTime::new(num(&f[0], "calendar time")?),
                msg: num(&f[1], "calendar msg")?,
                node,
                port,
                value: flag(&f[4], "calendar bit value")?,
                index: u32::try_from(num(&f[5], "calendar bit index")?)
                    .map_err(|_| bad("calendar bit index exceeds u32"))?,
            });
        }

        let free_at = req(doc, "free_at")?
            .as_arr()
            .ok_or_else(|| bad("`free_at` is not an array"))?
            .iter()
            .map(|t| Ok(BitTime::new(num(t, "free_at entry")?)))
            .collect::<Result<Vec<_>, SimError>>()?;
        if free_at.len() != link_count {
            return Err(bad(format!(
                "free_at has {} entries for {link_count} links",
                free_at.len()
            )));
        }

        let node_states = req(doc, "node_states")?
            .as_arr()
            .ok_or_else(|| bad("`node_states` is not an array"))?;
        if node_states.len() != node_count {
            return Err(bad(format!(
                "node_states has {} entries for {node_count} nodes",
                node_states.len()
            )));
        }

        let fault_stats = fault_stats_from_json(req(doc, "fault_stats")?)?;

        let mut log = Vec::new();
        for row in req(doc, "log")?.as_arr().ok_or_else(|| bad("`log` is not an array"))? {
            let f = ev_row(row, "log", 5)?;
            log.push(EventLog {
                at: BitTime::new(num(&f[0], "log time")?),
                node: NodeId(num(&f[1], "log node")? as usize),
                port: PortId(num(&f[2], "log port")? as usize),
                bit: Bit {
                    value: flag(&f[3], "log bit value")?,
                    index: u32::try_from(num(&f[4], "log bit index")?)
                        .map_err(|_| bad("log bit index exceeds u32"))?,
                },
            });
        }

        Ok(Snapshot {
            delay,
            node_count,
            link_count,
            lifo_ties: req_bool(engine, "lifo_ties")?,
            keep_log: req_bool(engine, "keep_log")?,
            now: BitTime::new(req_u64(engine, "now")?),
            seq: req_u64(engine, "seq")?,
            started: req_bool(engine, "started")?,
            delivered: req_u64(engine, "delivered")?,
            events,
            free_at,
            node_states: node_states.to_vec(),
            fault_stats,
            log,
        })
    }

    /// Parses a checkpoint from JSON text (the inverse of
    /// [`Snapshot::render`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] if `text` is not valid JSON or
    /// not a valid `orthotrees-snapshot/v1` document.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let doc = Json::parse(text).map_err(|e| bad(format!("not valid JSON: {e:?}")))?;
        Snapshot::from_json(&doc)
    }
}

impl Engine {
    /// Captures the engine's complete run state at the current event
    /// boundary. Call between [`Engine::try_run_for`] slices (the engine
    /// is always at an event boundary when that method returns).
    pub fn snapshot(&self) -> Snapshot {
        // `events()` hands the pending set back in whatever order the
        // installed calendar keeps it; sorting by the delivery order key
        // makes the serialized document identical regardless of calendar
        // (the `/v1` byte-compatibility the calendar_suite fixture pins).
        let mut pending: Vec<Pending> = self.queue.events();
        pending.sort_by_key(|p| (p.at, p.seq));
        let events = pending
            .iter()
            .map(|p| SnapEvent {
                at: p.at,
                msg: p.msg,
                node: p.node.0,
                port: p.port.0,
                value: p.bit.value,
                index: p.bit.index,
            })
            .collect();
        Snapshot {
            delay: self.delay_model(),
            node_count: self.nodes.len(),
            link_count: self.links.len(),
            lifo_ties: self.lifo_ties,
            keep_log: self.keep_log,
            now: self.now,
            seq: self.seq,
            started: self.started,
            delivered: self.delivered,
            events,
            free_at: self.links.iter().map(|l| l.free_at).collect(),
            node_states: self.nodes.iter().map(|n| n.save_state()).collect(),
            fault_stats: self.fault_stats,
            log: self.log.clone(),
        }
    }

    /// Restores a checkpoint into this engine.
    ///
    /// The engine must have the *same shape* the checkpoint was written
    /// from: same delay model, node and link counts, tie-break mode and
    /// event-log setting — restoring into anything else would silently
    /// produce garbage, so each mismatch is rejected with a typed error.
    /// Every pending event must sit at some link's destination `(node,
    /// port)`, the only places the engine schedules deliveries, and carry
    /// a bit its node accepts there. The
    /// installed fault plan (configuration) and instruments (observers)
    /// are not state: they are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] on a shape mismatch, an
    /// event no link delivers to or one whose node refuses its bit
    /// ([`NodeBehavior::accepts_bit`](crate::NodeBehavior::accepts_bit)),
    /// with the engine unchanged, or
    /// [`SimError::SnapshotFormat`] if a node rejects its saved state. In
    /// that last case the engine may be partially restored and must be
    /// discarded.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        if self.delay_model() != snap.delay {
            return Err(mismatch(
                "delay model",
                delay_tag(self.delay_model()),
                delay_tag(snap.delay),
            ));
        }
        if self.nodes.len() != snap.node_count {
            return Err(mismatch("node count", self.nodes.len(), snap.node_count));
        }
        if self.links.len() != snap.link_count {
            return Err(mismatch("link count", self.links.len(), snap.link_count));
        }
        if self.lifo_ties != snap.lifo_ties {
            return Err(mismatch("tie-break mode", self.lifo_ties, snap.lifo_ties));
        }
        if self.keep_log != snap.keep_log {
            return Err(mismatch("event-log setting", self.keep_log, snap.keep_log));
        }
        let mut inputs: Vec<(usize, usize)> =
            self.links.iter().map(|l| (l.to.0, l.to_port.0)).collect();
        inputs.sort_unstable();
        if let Some(e) =
            snap.events.iter().find(|e| inputs.binary_search(&(e.node, e.port)).is_err())
        {
            return Err(mismatch(
                "calendar event input",
                format!("no link into node {} port {}", e.node, e.port),
                format!("an event pending there at t = {}", e.at.get()),
            ));
        }
        if let Some(e) =
            snap.events.iter().find(|e| !self.nodes[e.node].accepts_bit(PortId(e.port), e.index))
        {
            return Err(mismatch(
                "calendar event bit",
                format!("a bit node {} accepts on port {}", e.node, e.port),
                format!("bit index {} pending there at t = {}", e.index, e.at.get()),
            ));
        }
        for (node, state) in self.nodes.iter_mut().zip(&snap.node_states) {
            node.load_state(state)?;
        }
        self.queue.clear();
        for e in &snap.events {
            // The ordering key is recomputed from the tie-break mode; the
            // raw scheduling counter is what the snapshot carries. Either
            // calendar accepts this rebuild — the snapshot's ascending
            // `(at, seq)` order is also the ladder's append fast path.
            let order = if self.lifo_ties { u64::MAX - e.msg } else { e.msg };
            self.queue.push(Pending {
                at: e.at,
                seq: order,
                msg: e.msg,
                node: NodeId(e.node),
                port: PortId(e.port),
                bit: Bit { value: e.value, index: e.index },
            });
        }
        self.depth = snap.events.len();
        for (link, &free_at) in self.links.iter_mut().zip(&snap.free_at) {
            link.free_at = free_at;
        }
        self.now = snap.now;
        self.seq = snap.seq;
        self.started = snap.started;
        self.delivered = snap.delivered;
        self.fault_stats = snap.fault_stats;
        self.log = snap.log.clone();
        if self.probes.is_some() {
            self.busy.rebuild(&self.links, self.now);
        }
        Ok(())
    }

    /// [`try_run_for`](Engine::try_run_for), checkpointing every
    /// `interval` delivered events. Returns the final status and the
    /// checkpoints taken, in order (one per completed interval).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the run; checkpoints taken before
    /// the failure are still returned alongside the error by the recovery
    /// supervisor, which wraps this.
    pub fn run_checkpointed(
        &mut self,
        interval: u64,
        limit: u64,
    ) -> Result<(RunStatus, Vec<Snapshot>), SimError> {
        let mut checkpoints = Vec::new();
        let mut left = limit;
        loop {
            let slice = interval.min(left);
            match self.try_run_for(slice)? {
                RunStatus::Quiescent(t) => return Ok((RunStatus::Quiescent(t), checkpoints)),
                RunStatus::Paused(t) => {
                    checkpoints.push(self.snapshot());
                    left = left.saturating_sub(slice);
                    if left == 0 {
                        return Ok((RunStatus::Paused(t), checkpoints));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarKind;
    use crate::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
    use orthotrees_vlsi::CostModel;
    use proptest::prelude::*;

    /// `kind` at `n` leaves, stopped after `cut` deliveries.
    fn mid_run(kind: ProbeKind, n: usize, cut: u64, log: bool) -> Engine {
        let mut e = probe_engine(kind, n, &CostModel::thompson(n), CalendarKind::Ladder, None, log);
        e.try_run_for(cut).expect("probe runs within budget");
        e
    }

    /// Rewrites field `field` of the first calendar event in `text`.
    fn rewrite_first_event(text: &str, field: usize, value: &str) -> String {
        let start = text.find("\"calendar\":[[").expect("a pending event") + 13;
        let end = start + text[start..].find(']').expect("event row closes");
        let mut row: Vec<&str> = text[start..end].split(',').collect();
        row[field] = value;
        format!("{}{}{}", &text[..start], row.join(","), &text[end..])
    }

    #[test]
    fn restore_rejects_an_event_no_link_delivers() {
        let text = mid_run(ProbeKind::Sum, 8, 40, false).snapshot().render();
        assert!(text.contains("\"calendar\":[[") && rewrite_first_event(&text, 3, "1") == text);
        let snap = Snapshot::parse(&rewrite_first_event(&text, 3, "7")).unwrap();
        let mut fresh = mid_run(ProbeKind::Sum, 8, 0, false);
        let before = fresh.snapshot().render();
        match fresh.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "calendar event input", .. }) => {}
            other => panic!("expected a calendar-event mismatch, got {other:?}"),
        }
        assert_eq!(fresh.snapshot().render(), before, "a refused restore changes nothing");
    }

    #[test]
    fn restore_rejects_a_bit_index_past_the_word() {
        let text = mid_run(ProbeKind::Sum, 8, 40, false).snapshot().render();
        assert!(rewrite_first_event(&text, 5, "5") == text, "the first event is bit 5");
        let snap = Snapshot::parse(&rewrite_first_event(&text, 5, "99")).unwrap();
        let mut fresh = mid_run(ProbeKind::Sum, 8, 0, false);
        let before = fresh.snapshot().render();
        match fresh.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "calendar event bit", .. }) => {}
            other => panic!("expected a calendar-bit mismatch, got {other:?}"),
        }
        assert_eq!(fresh.snapshot().render(), before, "a refused restore changes nothing");
    }

    #[test]
    fn restore_rejects_a_bit_index_past_the_word_at_a_repeater() {
        let text = mid_run(ProbeKind::Broadcast, 8, 1, false).snapshot().render();
        assert!(rewrite_first_event(&text, 2, "14") == text, "the first event is at node 14");
        let snap = Snapshot::parse(&rewrite_first_event(&text, 5, "99")).unwrap();
        let mut fresh = mid_run(ProbeKind::Broadcast, 8, 0, false);
        let before = fresh.snapshot().render();
        match fresh.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "calendar event bit", .. }) => {}
            other => panic!("expected a calendar-bit mismatch, got {other:?}"),
        }
        assert_eq!(fresh.snapshot().render(), before, "a refused restore changes nothing");
    }

    #[test]
    fn restore_rejects_a_stream_sink_bit_past_the_host_word() {
        // The stream sink's width is 32 words of 5 bits, so only its
        // 64-bit host word bounds the index.
        let total = mid_run(ProbeKind::Stream, 32, u64::MAX, false).delivered_events();
        let mut snap = mid_run(ProbeKind::Stream, 32, total * 2 / 3, false).snapshot();
        let sink = snap.node_count - 1;
        let event =
            snap.events.iter_mut().find(|e| e.node == sink).expect("a bit bound for the sink");
        event.index = 99;
        let mut fresh = mid_run(ProbeKind::Stream, 32, 0, false);
        match fresh.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "calendar event bit", .. }) => {}
            other => panic!("expected a calendar-bit mismatch, got {other:?}"),
        }
    }

    /// `parse` on every prefix of `text` at the `positions`, and on `text`
    /// with the byte at each of them replaced by each of `bytes`, returns
    /// `Ok` or a format error and never panics.
    fn hostile_parses(text: &str, positions: impl Iterator<Item = usize>, bytes: &[u8]) {
        let check = |doc: &str| match Snapshot::parse(doc) {
            Ok(_) | Err(SimError::SnapshotFormat { .. }) => {}
            Err(other) => panic!("parse returned a non-format error: {other:?}"),
        };
        let mut buf = text.as_bytes().to_vec();
        for k in positions.filter(|&k| text.is_char_boundary(k) && k < text.len()) {
            check(&text[..k]);
            for &b in bytes {
                let old = std::mem::replace(&mut buf[k], b);
                if let Ok(doc) = std::str::from_utf8(&buf) {
                    check(doc);
                }
                buf[k] = old;
            }
        }
    }

    /// Replacement bytes: every JSON structural character, a digit, a
    /// sign, a letter and whitespace.
    const HOSTILE: &[u8] = b"{}[]\":,0-9ex \\";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Mid-run snapshots of every probe are render/parse fixed points,
        /// and truncated or byte-edited documents parse or fail typed.
        #[test]
        fn mid_run_snapshots_round_trip_and_hostile_text_never_panics(
            kind in 0usize..PROBE_KINDS.len(),
            n_log in 3u32..=5,
            cut_pct in 1u64..100,
            log in any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let (kind, n) = (PROBE_KINDS[kind], 1usize << n_log);
            let total = mid_run(kind, n, u64::MAX, false).delivered_events();
            let text = mid_run(kind, n, total * cut_pct / 100, log).snapshot().render();
            prop_assert_eq!(Snapshot::parse(&text).unwrap().render(), text.clone());
            let mut s = seed;
            let positions = (0..64).map(|_| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (s >> 33) as usize % text.len()
            });
            hostile_parses(&text, positions, &HOSTILE[(seed % 4) as usize..][..4]);
        }
    }

    /// The resume sweep CI runs beside the reader sweep: every probe at
    /// n = 8, 16 and 32, cut a third and two thirds of the way in, with
    /// each pending event's bit index rewritten to the word width and to
    /// 99, rendered, parsed, restored into a fresh engine and run to
    /// quiescence. Each case ends `Ok` or in a typed error, never in a
    /// panic. CI runs it in a debug build, where an overflowing shift or
    /// index subtraction panics instead of wrapping.
    #[test]
    #[ignore = "snapshot resume sweep, run explicitly in CI"]
    fn every_out_of_range_bit_index_of_every_probe_snapshot_resumes_or_fails_typed() {
        for kind in PROBE_KINDS {
            for n in [8, 16, 32] {
                let width = CostModel::thompson(n).word_bits;
                let total = mid_run(kind, n, u64::MAX, false).delivered_events();
                for cut in [total / 3, total * 2 / 3] {
                    let snap = mid_run(kind, n, cut, false).snapshot();
                    assert!(!snap.events.is_empty(), "{} n = {n}: nothing pending", kind.tag());
                    for k in 0..snap.events.len() {
                        for index in [width, 99] {
                            let mut edited = snap.clone();
                            edited.events[k].index = index;
                            let edited = Snapshot::parse(&edited.render()).unwrap();
                            let mut fresh = mid_run(kind, n, 0, false);
                            if fresh.restore(&edited).is_ok() {
                                let _ = fresh.try_run();
                            }
                        }
                    }
                }
            }
        }
    }

    /// The release-mode sweep CI runs: every probe at n = 8, 16 and 32,
    /// cut a third of the way in, truncated at every byte and with every
    /// byte replaced by each hostile byte.
    #[test]
    #[ignore = "release-mode sweep, run explicitly in CI"]
    fn every_truncation_and_byte_edit_of_every_probe_snapshot() {
        for kind in PROBE_KINDS {
            for n in [8, 16, 32] {
                let total = mid_run(kind, n, u64::MAX, false).delivered_events();
                let text = mid_run(kind, n, total / 3, true).snapshot().render();
                assert_eq!(Snapshot::parse(&text).unwrap().render(), text);
                hostile_parses(&text, 0..text.len(), HOSTILE);
            }
        }
    }
}
