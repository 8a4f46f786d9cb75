//! The discrete-event engine.
//!
//! A calendar of bit-arrival events ordered by time (with a deterministic
//! FIFO tie-break) drives node activations until quiescence. The engine is
//! deliberately minimal: all semantics live in the node behaviours and the
//! link pipelining rule.
//!
//! The calendar itself is pluggable (see [`crate::calendar`]): the default
//! is the allocation-free ladder queue, with the original binary heap kept
//! as the verification oracle — [`Engine::with_calendar`] selects. Both
//! deliver the same total `(time, scheduling-order)` sequence, so which one
//! is installed is observably irrelevant (the ENG-001 verify rule and the
//! `calendar_suite` proptests hold this to account).

use crate::calendar::{new_calendar, Calendar, CalendarKind};
use crate::fault::{FaultPlan, FaultStats, LinkFaultKind, RunBudget};
use crate::link::{BusyLinks, Link, LinkId};
use crate::node::{Bit, NodeBehavior, NodeId, Outbox, PortId};
use orthotrees_obs::causal::{CausalTrace, MsgId};
use orthotrees_obs::flight::FlightRecorder;
use orthotrees_obs::probe::{Delivery, EngineEvent, Probes};
use orthotrees_obs::profile::Profiler;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::Recorder;
use orthotrees_vlsi::{BitTime, DelayModel, SimError};

/// One delivered bit, for post-hoc inspection in tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventLog {
    /// Delivery time.
    pub at: BitTime,
    /// Receiving node.
    pub node: NodeId,
    /// Receiving port.
    pub port: PortId,
    /// The bit delivered.
    pub bit: Bit,
}

/// One undelivered bit on the calendar.
///
/// `seq` is the *ordering key*: the raw scheduling counter under FIFO
/// ties, its complement `u64::MAX − counter` under LIFO ties. `msg` is
/// always the raw counter — it names the bit causally (the [`MsgId`]
/// fault draws and hop records key off), so the LIFO-ties knob permutes
/// **only** `seq`, never `msg`, on every calendar implementation (the
/// `lifo_ties_permute_order_but_never_msg_ids` regression test pins this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pending {
    pub(crate) at: BitTime,
    pub(crate) seq: u64,
    /// Raw scheduling counter value = this bit's causal [`MsgId`]. Kept
    /// separate from `seq` because the LIFO-ties knob permutes `seq`; not
    /// part of the manual `Ord` below, so ordering is unchanged.
    pub(crate) msg: u64,
    pub(crate) node: NodeId,
    pub(crate) port: PortId,
    pub(crate) bit: Bit,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Did a bounded run slice drain the calendar or stop at the event limit?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The calendar drained: no event is pending. The time is that of the
    /// last delivered bit.
    Quiescent(BitTime),
    /// The event limit was reached with work still pending — a clean
    /// event boundary, safe to [`snapshot`](Engine::snapshot).
    Paused(BitTime),
}

/// The simulation engine: nodes, links, a pending-event calendar.
pub struct Engine {
    pub(crate) nodes: Vec<Box<dyn NodeBehavior>>,
    pub(crate) links: Vec<Link>,
    /// Outgoing links per (node, port), resolved at build time.
    routes: Vec<Vec<Vec<LinkId>>>,
    delay: DelayModel,
    pub(crate) queue: Box<dyn Calendar>,
    /// Pending-event count, maintained O(1) alongside every push/pop so
    /// the depth each delivery reports to the probes never depends on the
    /// installed calendar's `len()` cost.
    /// Audited against `queue.len()` in debug builds.
    pub(crate) depth: usize,
    pub(crate) seq: u64,
    pub(crate) now: BitTime,
    pub(crate) log: Vec<EventLog>,
    pub(crate) keep_log: bool,
    /// Installed fault scenario, if any. `None` is the fast path: the run
    /// loop touches no fault code at all.
    fault_plan: Option<FaultPlan>,
    budget: RunBudget,
    pub(crate) fault_stats: FaultStats,
    /// Installed instruments, if any, fed one [`EngineEvent`] at each of
    /// five moments. `None` is the fast path: the run loop touches no
    /// observation code at all (same contract as `fault_plan`), and
    /// observing never changes a simulated bit or time.
    pub(crate) probes: Option<Probes>,
    /// Links busy past the last delivery, for [`EngineEvent::Deliver`].
    /// Kept only while `probes` is installed, and rebuilt from the link
    /// table whenever it starts (or restarts, after a restore) mid-run.
    pub(crate) busy: BusyLinks,
    /// The one emission buffer every activation fills and
    /// [`flush_outbox`](Engine::flush_outbox) drains, so steady-state
    /// deliveries allocate nothing.
    outbox: Outbox,
    /// Reverse the tie-break among same-timestamp events (verification
    /// only). Correct networks must produce identical results either way.
    pub(crate) lifo_ties: bool,
    /// Whether [`on_start`](NodeBehavior::on_start) has been fired. Runs
    /// resumed from a checkpoint must not start the sources again.
    pub(crate) started: bool,
    /// Events delivered over the engine's lifetime. The [`RunBudget`]
    /// watchdog counts against this *persistent* counter, so an
    /// interrupted-and-resumed run trips a budget at exactly the same
    /// event as the uninterrupted one.
    pub(crate) delivered: u64,
}

impl Engine {
    /// Creates an empty engine under the given wire-delay model.
    pub fn new(delay: DelayModel) -> Self {
        Engine {
            nodes: Vec::new(),
            links: Vec::new(),
            routes: Vec::new(),
            delay,
            queue: new_calendar(CalendarKind::Ladder),
            depth: 0,
            seq: 0,
            now: BitTime::ZERO,
            log: Vec::new(),
            keep_log: false,
            fault_plan: None,
            budget: RunBudget::default(),
            fault_stats: FaultStats::default(),
            probes: None,
            busy: BusyLinks::default(),
            outbox: Outbox::default(),
            lifo_ties: false,
            started: false,
            delivered: 0,
        }
    }

    /// Records every delivered bit in an inspectable log (tests only; the
    /// log grows with one entry per delivered bit).
    pub fn with_event_log(mut self) -> Self {
        self.keep_log = true;
        self
    }

    /// Delivers same-timestamp events in *reverse* scheduling order (LIFO)
    /// instead of the default FIFO tie-break.
    ///
    /// This is a verification knob, not a simulation feature: a correctly
    /// wired network must compute the same results and completion time
    /// under either policy, because events that share a timestamp land on
    /// distinct (node, port) pairs and therefore commute. The determinism
    /// checker in `orthotrees-verify` runs each network under both
    /// policies and flags any observable difference.
    pub fn with_lifo_ties(mut self) -> Self {
        self.lifo_ties = true;
        self
    }

    /// Installs the given pending-event [`CalendarKind`]. The default is
    /// [`CalendarKind::Ladder`]; [`CalendarKind::Heap`] is the original
    /// binary heap, kept as the verification oracle. Either produces the
    /// identical run — bits, clocks, logs, stats (ENG-001 pins this) — so
    /// this knob only trades queue cost. Any events already pending are
    /// migrated.
    pub fn with_calendar(mut self, kind: CalendarKind) -> Self {
        if self.queue.kind() != kind {
            let mut events = self.queue.events();
            // Ascending order keeps the ladder's restore fast path.
            events.sort_unstable();
            let mut queue = new_calendar(kind);
            for ev in events {
                queue.push(ev);
            }
            self.queue = queue;
        }
        self
    }

    /// Which pending-event calendar is installed.
    pub fn calendar_kind(&self) -> CalendarKind {
        self.queue.kind()
    }

    /// Number of events pending on the calendar (O(1): the maintained
    /// depth counter, not the queue's own length).
    pub fn pending_events(&self) -> usize {
        self.depth
    }

    /// Installs a fault scenario. An empty plan leaves the run bit-for-bit
    /// identical to an uninstrumented one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the default run watchdog budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Counters for the faults the installed plan actually injected.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, behavior: Box<dyn NodeBehavior>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(behavior);
        self.routes.push(Vec::new());
        id
    }

    /// Adds a unidirectional wire of physical length `length` λ from
    /// `(from, from_port)` to `(to, to_port)`.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: PortId,
        to: NodeId,
        to_port: PortId,
        length: u64,
    ) -> LinkId {
        assert!(from.0 < self.nodes.len(), "unknown source node {from:?}");
        assert!(to.0 < self.nodes.len(), "unknown destination node {to:?}");
        let id = LinkId(self.links.len());
        self.links.push(Link::new(from, from_port, to, to_port, length));
        let ports = &mut self.routes[from.0];
        if ports.len() <= from_port.0 {
            ports.resize(from_port.0 + 1, Vec::new());
        }
        ports[from_port.0].push(id);
        id
    }

    /// Current simulated time (time of the most recent delivery).
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// The delivered-bit log (empty unless [`Engine::with_event_log`]).
    pub fn log(&self) -> &[EventLog] {
        &self.log
    }

    /// Read access to a node's behaviour (for extracting results).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &dyn NodeBehavior {
        self.nodes[id.0].as_ref()
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The full link table, in creation order (`LinkId(i)` is `links()[i]`).
    ///
    /// This is the netlist view that static analyzers (the
    /// `orthotrees-verify` crate) consume without running the engine.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The wire-delay model this engine prices links under.
    pub fn delay_model(&self) -> DelayModel {
        self.delay
    }

    /// Schedules every emission `node` queued in the engine's outbox,
    /// draining it. `trigger` names the delivery that activated the node
    /// (`None` at start).
    fn flush_outbox(&mut self, from: NodeId, ready: BitTime, trigger: Option<MsgId>) {
        // `ready` at entry is the triggering delivery's arrival time (or 0
        // at node start): the causal anchor every emission hold counts from.
        let trigger_at = ready;
        for (port, bit, hold) in self.outbox.emissions.drain(..) {
            let ready = ready + hold;
            let Some(links) = self.routes[from.0].get(port.0) else {
                continue; // emission on an unconnected port is dropped
            };
            if let Some(p) = &mut self.probes {
                if hold > BitTime::ZERO && !links.is_empty() {
                    // A nonzero emission hold is the node's compute time,
                    // anchored at the triggering delivery.
                    p.on_engine(&EngineEvent::Compute { at: trigger_at, hold: hold.get() });
                }
            }
            for &lid in links {
                let link = &mut self.links[lid.0];
                let was_free_at = link.free_at;
                let arrive = link.admit(ready, self.delay);
                self.seq += 1;
                if let Some(p) = &mut self.probes {
                    self.busy.admit(was_free_at, link.free_at);
                    // The entrance slot the bit actually took.
                    let enter = arrive - link.bit_delay(self.delay);
                    p.on_engine(&EngineEvent::Admit {
                        msg: MsgId(self.seq),
                        trigger,
                        link: lid.0,
                        link_len: link.length,
                        trigger_at,
                        ready,
                        enter,
                        arrive,
                        waited: (enter - ready).get(),
                    });
                }
                let mut bit = bit;
                let plan = self.fault_plan.as_ref().filter(|p| p.affects_links());
                if let Some(kind) = plan.and_then(|p| p.link_fault(lid, self.seq)) {
                    self.fault_stats.injected += 1;
                    self.fault_stats.faulty_bits += 1;
                    if let Some(p) = &mut self.probes {
                        let dropped = kind == LinkFaultKind::Drop;
                        p.on_engine(&EngineEvent::Fault { msg: MsgId(self.seq), arrive, dropped });
                    }
                    match kind {
                        LinkFaultKind::StuckAtZero => bit.value = false,
                        LinkFaultKind::StuckAtOne => bit.value = true,
                        LinkFaultKind::Flip => bit.value = !bit.value,
                        // The wire slot is consumed (admit above) but the
                        // bit never arrives.
                        LinkFaultKind::Drop => continue,
                    }
                }
                // The fault plan above keys off the raw scheduling counter;
                // only the *ordering* value is permuted under LIFO ties.
                let order = if self.lifo_ties { u64::MAX - self.seq } else { self.seq };
                self.queue.push(Pending {
                    at: arrive,
                    seq: order,
                    msg: self.seq,
                    node: link.to,
                    port: link.to_port,
                    bit,
                });
                self.depth += 1;
                debug_assert_eq!(self.depth, self.queue.len(), "depth counter drifted on push");
            }
        }
    }

    /// Runs to quiescence: starts every node, then drains the calendar.
    /// Returns the time of the last delivered bit (zero if nothing moved).
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds its [`RunBudget`] — under the default
    /// budget of `10^9` events that indicates a runaway feedback loop.
    /// Callers that installed a tighter budget on purpose should use
    /// [`Engine::try_run`] and handle the error.
    pub fn run(&mut self) -> BitTime {
        self.try_run().expect("run budget exhausted: runaway feedback loop, or use try_run")
    }

    /// Runs to quiescence like [`Engine::run`], but reports a watchdog trip
    /// as [`SimError::BudgetExhausted`] instead of hanging or panicking.
    pub fn try_run(&mut self) -> Result<BitTime, SimError> {
        match self.try_run_for(u64::MAX)? {
            RunStatus::Quiescent(t) | RunStatus::Paused(t) => Ok(t),
        }
    }

    /// Runs at most `max_events` deliveries, stopping at a clean event
    /// boundary — the stepping primitive checkpointing and the recovery
    /// supervisor are built on.
    ///
    /// The first call fires every node's
    /// [`on_start`](NodeBehavior::on_start); subsequent calls (and calls
    /// after [`Engine::restore`]) resume where the calendar left off.
    /// Interleaving `try_run_for` slices is observably identical to one
    /// uninterrupted [`Engine::try_run`]: the [`RunBudget`] counts
    /// delivered events over the engine's lifetime, not per call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] when the watchdog trips.
    pub fn try_run_for(&mut self, max_events: u64) -> Result<RunStatus, SimError> {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.nodes[i].on_start(&mut self.outbox);
                self.flush_outbox(NodeId(i), BitTime::ZERO, None);
            }
        }
        let mut fired = 0u64;
        while fired < max_events {
            let Some(ev) = self.queue.pop() else {
                return Ok(RunStatus::Quiescent(self.now));
            };
            self.depth -= 1;
            debug_assert_eq!(self.depth, self.queue.len(), "depth counter drifted on pop");
            fired += 1;
            self.delivered += 1;
            if self.delivered > self.budget.max_events {
                self.flight_post_mortem("budget-exhausted: events", self.now.max(ev.at));
                return Err(SimError::BudgetExhausted {
                    what: "events",
                    limit: self.budget.max_events,
                });
            }
            if let Some(max_time) = self.budget.max_time {
                if ev.at > max_time {
                    self.flight_post_mortem(
                        "budget-exhausted: bit-time units",
                        self.now.max(ev.at),
                    );
                    return Err(SimError::BudgetExhausted {
                        what: "bit-time units",
                        limit: max_time.get(),
                    });
                }
            }
            if let Some(plan) = &self.fault_plan {
                if plan.affects_nodes() && !plan.node_alive(ev.node, ev.at) {
                    self.fault_stats.suppressed += 1;
                    if let Some(p) = &mut self.probes {
                        p.on_engine(&EngineEvent::Suppress { msg: MsgId(ev.msg) });
                    }
                    continue;
                }
            }
            if let Some(p) = &mut self.probes {
                let busy_links = self.busy.advance(ev.at);
                debug_assert_eq!(
                    busy_links,
                    self.links.iter().filter(|l| l.free_at > ev.at).count() as u64,
                    "busy-link tally drifted from the link table"
                );
                p.on_engine(&EngineEvent::Deliver {
                    delivery: Delivery {
                        seq: self.delivered,
                        at: ev.at,
                        node: ev.node.0,
                        port: ev.port.0,
                        value: ev.bit.value,
                        index: ev.bit.index,
                        depth: (self.depth + 1) as u64,
                    },
                    busy_links,
                });
            }
            self.now = self.now.max(ev.at);
            if self.keep_log {
                self.log.push(EventLog { at: ev.at, node: ev.node, port: ev.port, bit: ev.bit });
            }
            self.nodes[ev.node.0].on_bit(ev.at, ev.port, ev.bit, &mut self.outbox);
            self.flush_outbox(ev.node, ev.at, Some(MsgId(ev.msg)));
        }
        if self.queue.is_empty() {
            Ok(RunStatus::Quiescent(self.now))
        } else {
            Ok(RunStatus::Paused(self.now))
        }
    }

    /// Events delivered over the engine's lifetime (survives
    /// [`Engine::snapshot`] / [`Engine::restore`], so the [`RunBudget`]
    /// watchdog sees one consistent count).
    pub fn delivered_events(&self) -> u64 {
        self.delivered
    }

    /// Replaces the installed fault scenario mid-run. This is the recovery
    /// supervisor's *repair* knob: after rolling back to a checkpoint it
    /// can clear an outage or swap in a weakened plan before retrying.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Latest completion time reported by any node's
    /// [`completed_at`](NodeBehavior::completed_at) probe, if any reported.
    pub fn completion_time(&self) -> Option<BitTime> {
        self.nodes.iter().filter_map(|n| n.completed_at()).max()
    }
}

/// Instruments. Each one folds the engine's [`EngineEvent`] stream from
/// the one probe slot, and none changes a simulated bit, time or output
/// (bit-identity, enforced by the engine tests and the identity suites).
impl Engine {
    /// The probe slot, created on first install (which starts the
    /// busy-link tally from the link table as it stands).
    fn probes(&mut self) -> &mut Probes {
        if self.probes.is_none() {
            self.busy.rebuild(&self.links, self.now);
        }
        self.probes.get_or_insert_with(Probes::default)
    }

    /// Installs a [`Recorder`]: per-node activations, per-link traffic and
    /// queueing, and the event-calendar depth histogram.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.probes().recorder = Some(recorder);
        self
    }

    /// Removes and returns the installed recorder (export after a run).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.probes.as_mut()?.recorder.take()
    }

    /// Mutable access to the installed recorder (the recovery supervisor
    /// marks replayed windows as `RECOVERY` spans through this).
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.probes.as_mut()?.recorder.as_mut()
    }

    /// Installs a causal trace: one hop per scheduled bit, so
    /// [`CausalTrace::critical_path`] can explain the completion time hop
    /// by hop.
    pub fn with_causal_trace(mut self) -> Self {
        self.probes().causal = Some(CausalTrace::new());
        self
    }

    /// Removes and returns the installed causal trace (analysis after a
    /// run).
    pub fn take_causal_trace(&mut self) -> Option<CausalTrace> {
        self.probes.as_mut()?.causal.take()
    }

    /// Installs a windowed [`Profiler`]: deliveries with their calendar
    /// depth, link-entrance bits, emission holds and injected faults per
    /// time window, and the engine-structure sizes at the depth peak.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.probes().profiler = Some(profiler);
        self
    }

    /// Removes and returns the installed profiler (export after a run).
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.probes.as_mut()?.profiler.take()
    }

    /// Installs a streaming [`Telemetry`] bus: delivery, link-bit, queue-wait
    /// and fault counters, the calendar-depth sketch and periodic snapshots.
    /// Their ids are fixed here, so the per-event fold does no name lookup.
    pub fn with_telemetry(mut self, mut telemetry: Telemetry) -> Self {
        telemetry.attach_engine();
        self.probes().telemetry = Some(telemetry);
        self
    }

    /// Mutable access to the installed telemetry bus (callers fold their
    /// own domain counters into the engine's export through this).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.probes.as_mut()?.telemetry.as_mut()
    }

    /// Removes and returns the installed telemetry bus (export after a run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.probes.as_mut()?.telemetry.take()
    }

    /// Installs a crash [`FlightRecorder`]: a bounded ring of recent
    /// deliveries, dumped as an `orthotrees-flight/v1` post-mortem before
    /// the engine returns any [`SimError`].
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.probes().flight = Some(flight);
        self
    }

    /// Mutable access to the installed flight recorder (the recovery
    /// supervisor notes checkpoints and dumps rollback post-mortems
    /// through this).
    pub fn flight_recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.probes.as_mut()?.flight.as_mut()
    }

    /// Removes and returns the installed flight recorder (export after a
    /// run).
    pub fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.probes.as_mut()?.flight.take()
    }

    /// Dumps a flight-recorder post-mortem for a failure the engine (or a
    /// supervisor driving it) is about to report. A no-op without an
    /// installed flight recorder; the document is retained in the
    /// recorder's [`post_mortems`](FlightRecorder::post_mortems) list.
    pub fn flight_post_mortem(&mut self, reason: &str, at: BitTime) {
        let stats = self.fault_stats;
        if let Some(fl) = self.flight_recorder_mut() {
            fl.dump(
                reason,
                at,
                &[
                    ("injected", stats.injected),
                    ("detected", stats.detected),
                    ("corrected", stats.corrected),
                    ("retries", stats.retries),
                    ("erasures", stats.erasures),
                    ("silent", stats.silent),
                    ("faulty_bits", stats.faulty_bits),
                    ("suppressed", stats.suppressed),
                ],
            );
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("delay", &self.delay)
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunRecord;
    use orthotrees_obs::json::Json;

    /// Emits a `width`-bit word at start; counts received bits; records the
    /// arrival time of the last one.
    struct WordSource {
        width: u32,
    }
    impl NodeBehavior for WordSource {
        fn on_start(&mut self, out: &mut Outbox) {
            for i in 0..self.width {
                out.send(PortId(0), Bit { value: i % 2 == 0, index: i });
            }
        }
        fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
    }

    struct Sink {
        expected: u32,
        got: u32,
        done: Option<BitTime>,
    }
    impl NodeBehavior for Sink {
        fn on_bit(&mut self, now: BitTime, _: PortId, _: Bit, _: &mut Outbox) {
            self.got += 1;
            if self.got == self.expected {
                self.done = Some(now);
            }
        }
        fn completed_at(&self) -> Option<BitTime> {
            self.done
        }
    }

    /// Forwards every received bit to port 0 immediately (streaming IP).
    struct Repeater;
    impl NodeBehavior for Repeater {
        fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
            out.send(PortId(0), bit);
        }
    }

    #[test]
    fn word_over_single_wire_pipelines() {
        // w bits over a wire with per-bit delay d: last arrival = d + w - 1.
        let mut e = Engine::new(DelayModel::Logarithmic);
        let src = e.add_node(Box::new(WordSource { width: 8 }));
        let dst = e.add_node(Box::new(Sink { expected: 8, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1024); // d = 11
        let end = e.run();
        assert_eq!(end.get(), 11 + 7);
        assert_eq!(e.completion_time().unwrap().get(), 18);
    }

    #[test]
    fn streaming_chain_adds_latencies_once() {
        // Two wires d1, d2 with a streaming repeater between:
        // last arrival = d1 + d2 + (w-1).
        let mut e = Engine::new(DelayModel::Logarithmic);
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 16); // d = 5
        e.connect(mid, PortId(0), dst, PortId(0), 4); // d = 3
        let end = e.run();
        assert_eq!(end.get(), 5 + 3 + 3);
    }

    #[test]
    fn fanout_duplicates_bits() {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 2 }));
        let a = e.add_node(Box::new(Sink { expected: 2, got: 0, done: None }));
        let b = e.add_node(Box::new(Sink { expected: 2, got: 0, done: None }));
        e.connect(src, PortId(0), a, PortId(0), 1);
        e.connect(src, PortId(0), b, PortId(0), 1);
        e.run();
        assert_eq!(e.log().len(), 4, "each sink receives both bits");
    }

    #[test]
    fn unconnected_port_drops_emission() {
        let mut e = Engine::new(DelayModel::Constant);
        let _src = e.add_node(Box::new(WordSource { width: 3 }));
        let end = e.run();
        assert_eq!(end, BitTime::ZERO);
    }

    #[test]
    fn deterministic_tie_break_by_insertion_order() {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let s1 = e.add_node(Box::new(WordSource { width: 1 }));
        let s2 = e.add_node(Box::new(WordSource { width: 1 }));
        let dst = e.add_node(Box::new(Sink { expected: 2, got: 0, done: None }));
        e.connect(s1, PortId(0), dst, PortId(0), 1);
        e.connect(s2, PortId(0), dst, PortId(1), 1);
        e.run();
        // Both arrive at t=1; source 1's bit was scheduled first.
        assert_eq!(e.log()[0].port, PortId(0));
        assert_eq!(e.log()[1].port, PortId(1));
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn connect_validates_node_ids() {
        let mut e = Engine::new(DelayModel::Constant);
        let a = e.add_node(Box::new(Repeater));
        e.connect(a, PortId(0), NodeId(7), PortId(0), 1);
    }

    /// Builds the fanout topology under an optional fault plan and returns
    /// the delivered-bit log.
    fn logged_run(plan: Option<FaultPlan>) -> Vec<EventLog> {
        let e = Engine::new(DelayModel::Logarithmic).with_event_log();
        let mut e = match plan {
            Some(p) => e.with_fault_plan(p),
            None => e,
        };
        let src = e.add_node(Box::new(WordSource { width: 6 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 64);
        e.connect(mid, PortId(0), dst, PortId(0), 16);
        e.run();
        e.log().to_vec()
    }

    #[test]
    fn empty_fault_plan_is_bit_for_bit_identical() {
        assert_eq!(logged_run(None), logged_run(Some(FaultPlan::new(12345))));
    }

    #[test]
    fn stuck_at_one_link_forces_every_bit_high() {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let plan = FaultPlan::new(0).with_link_fault(lid, LinkFaultKind::StuckAtOne);
        let mut e = e.with_fault_plan(plan);
        e.run();
        assert_eq!(e.log().len(), 4);
        assert!(e.log().iter().all(|ev| ev.bit.value), "all bits stuck at 1");
        assert_eq!(e.fault_stats().faulty_bits, 4);
    }

    #[test]
    fn dropping_link_loses_every_bit() {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 5 }));
        let dst = e.add_node(Box::new(Sink { expected: 5, got: 0, done: None }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_link_fault(lid, LinkFaultKind::Drop));
        e.run();
        assert!(e.log().is_empty(), "no bit survives a dropping link");
        assert_eq!(e.completion_time(), None);
        assert_eq!(e.fault_stats().faulty_bits, 5);
    }

    #[test]
    fn dead_node_discards_deliveries() {
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 3 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 3, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 1);
        e.connect(mid, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_dead_node(mid));
        e.run();
        assert!(e.log().is_empty(), "dead repeater forwards nothing");
        assert_eq!(e.fault_stats().suppressed, 3);
    }

    #[test]
    fn outage_window_suppresses_only_in_window() {
        // Constant delay 1: bits of an 8-bit word arrive at t = 1..=8.
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 8 }));
        let dst = e.add_node(Box::new(Sink { expected: 8, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e =
            e.with_fault_plan(FaultPlan::new(0).with_outage(dst, BitTime::new(3), BitTime::new(6)));
        e.run();
        // t = 3, 4, 5 suppressed; 1, 2, 6, 7, 8 delivered.
        assert_eq!(e.log().len(), 5);
        assert_eq!(e.fault_stats().suppressed, 3);
    }

    #[test]
    fn watchdog_reports_budget_exhaustion_instead_of_hanging() {
        // Two repeaters in a loop bounce a bit forever.
        let mut e = Engine::new(DelayModel::Constant);
        let a = e.add_node(Box::new(WordSource { width: 1 }));
        let b = e.add_node(Box::new(Repeater));
        let c = e.add_node(Box::new(Repeater));
        e.connect(a, PortId(0), b, PortId(0), 1);
        e.connect(b, PortId(0), c, PortId(0), 1);
        e.connect(c, PortId(0), b, PortId(0), 1);
        let mut e = e.with_budget(RunBudget::events(1000));
        match e.try_run() {
            Err(SimError::BudgetExhausted { what: "events", limit: 1000 }) => {}
            other => panic!("expected event-budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn time_budget_trips_on_slow_runs() {
        let mut e = Engine::new(DelayModel::Logarithmic);
        let src = e.add_node(Box::new(WordSource { width: 8 }));
        let dst = e.add_node(Box::new(Sink { expected: 8, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1024); // last arrival t = 18
        let mut e = e.with_budget(RunBudget::default().with_max_time(BitTime::new(10)));
        match e.try_run() {
            Err(SimError::BudgetExhausted { what: "bit-time units", .. }) => {}
            other => panic!("expected time-budget exhaustion, got {other:?}"),
        }
    }

    /// The fanout-through-repeater topology used by the recorder tests.
    fn instrumented_run(recorder: bool) -> (Vec<EventLog>, BitTime, Option<Recorder>) {
        let e = Engine::new(DelayModel::Logarithmic).with_event_log();
        let mut e = if recorder { e.with_recorder(Recorder::new()) } else { e };
        let src = e.add_node(Box::new(WordSource { width: 6 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 64);
        e.connect(mid, PortId(0), dst, PortId(0), 16);
        let end = e.run();
        (e.log().to_vec(), end, e.take_recorder())
    }

    #[test]
    fn recorder_is_bit_identical_to_uninstrumented_run() {
        let (log_off, end_off, none) = instrumented_run(false);
        let (log_on, end_on, rec) = instrumented_run(true);
        assert!(none.is_none());
        assert_eq!(log_off, log_on, "recorder must not change any delivered bit");
        assert_eq!(end_off, end_on, "recorder must not change the completion time");
        assert!(rec.is_some());
    }

    #[test]
    fn recorder_counts_node_activations_and_link_bits() {
        let (_, _, rec) = instrumented_run(true);
        let rec = rec.unwrap();
        // Node 0 (source) receives nothing; the repeater and sink see all
        // six bits each.
        assert_eq!(rec.node_activations(), &[0, 6, 6]);
        assert_eq!(rec.links()[0].bits, 6);
        assert_eq!(rec.links()[1].bits, 6);
        // The source presents all 6 bits at t=0: five of them queue behind
        // the first on link 0; the repeater forwards at 1-bit intervals so
        // link 1 never blocks.
        assert_eq!(rec.links()[0].queued_bits, 5);
        assert_eq!(rec.links()[0].wait_total, 1 + 2 + 3 + 4 + 5);
        assert_eq!(rec.links()[1].queued_bits, 0);
        assert!((rec.links()[0].utilization() - 1.0).abs() < 1e-9, "saturated wire");
        assert_eq!(rec.calendar_depth().count(), 12, "one sample per delivery");
    }

    #[test]
    fn recorder_composes_with_fault_plans() {
        let mut e =
            Engine::new(DelayModel::Constant).with_event_log().with_recorder(Recorder::new());
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_link_fault(lid, LinkFaultKind::Drop));
        e.run();
        let rec = e.take_recorder().unwrap();
        // Dropped bits consumed their wire slot: carried but never delivered.
        assert_eq!(rec.links()[0].bits, 4);
        assert_eq!(rec.node_activations(), &[] as &[u64], "no delivery ever fired");
    }

    // --------------------------------------------------------------
    // Windowed profiling.
    // --------------------------------------------------------------

    /// The recorder-test topology with both a recorder and a profiler
    /// attached, so window sums can be checked against the recorder's
    /// independent aggregates.
    fn profiled_run() -> (Vec<EventLog>, BitTime, Recorder, Profiler) {
        let mut e = Engine::new(DelayModel::Logarithmic)
            .with_event_log()
            .with_recorder(Recorder::new())
            .with_profiler(Profiler::new(4));
        let src = e.add_node(Box::new(WordSource { width: 6 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 64);
        e.connect(mid, PortId(0), dst, PortId(0), 16);
        let end = e.run();
        let rec = e.take_recorder().unwrap();
        let prof = e.take_profiler().unwrap();
        (e.log().to_vec(), end, rec, prof)
    }

    #[test]
    fn profiler_is_bit_identical_to_uninstrumented_run() {
        let (log_off, end_off, _) = instrumented_run(false);
        let (log_on, end_on, _, prof) = profiled_run();
        assert_eq!(log_off, log_on, "profiler must not change any delivered bit");
        assert_eq!(end_off, end_on, "profiler must not change the completion time");
        assert!(prof.windows().len() > 1, "the run spans several windows");
    }

    #[test]
    fn profiler_window_sums_tile_the_recorder_totals() {
        let (_, _, rec, prof) = profiled_run();
        let t = prof.totals();
        assert_eq!(t.events, rec.calendar_depth().count(), "Σ window events");
        assert_eq!(t.events, rec.node_activations().iter().sum::<u64>());
        let rec_bits: u64 = rec.links().iter().map(|l| l.bits).sum();
        let rec_wait: u64 = rec.links().iter().map(|l| l.wait_total).sum();
        assert_eq!(t.link_bits, rec_bits, "Σ window link bits");
        assert_eq!(t.queue_wait, rec_wait, "Σ window queue wait");
        assert_eq!(prof.peak_calendar_depth(), rec.calendar_depth().max());
        // Per-subject attribution agrees with the recorder's tables.
        assert_eq!(prof.node_events(), rec.node_activations());
        let bits: Vec<u64> = rec.links().iter().map(|l| l.bits).collect();
        assert_eq!(prof.link_traffic(), &bits[..]);
    }

    #[test]
    fn profiler_windows_are_gapless_and_footprint_is_at_the_peak() {
        let (_, end, _, prof) = profiled_run();
        for (i, w) in prof.windows().iter().enumerate() {
            assert_eq!(w.index, i as u64, "gapless, monotone window sequence");
        }
        let covered = prof.windows().len() as u64 * prof.width();
        assert!(covered > end.get(), "windows cover the whole run");
        let f = prof.footprint().expect("a delivery happened");
        assert_eq!(f.calendar_entries, prof.peak_calendar_depth());
        assert!(f.at <= end);
        assert!(f.delivered_events >= 1);
    }

    #[test]
    fn profiler_counts_injected_faults_per_window() {
        let mut e = Engine::new(DelayModel::Constant).with_profiler(Profiler::new(2));
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_link_fault(lid, LinkFaultKind::Flip));
        e.run();
        let prof = e.take_profiler().unwrap();
        assert_eq!(prof.totals().faults, e.fault_stats().injected);
        assert!(prof.totals().faults > 0, "the always-on flip plan fired");
    }

    // --------------------------------------------------------------
    // Streaming telemetry and the flight recorder.
    // --------------------------------------------------------------

    /// The recorder-test topology with a telemetry bus and a flight
    /// recorder attached.
    fn telemetered_run() -> (Vec<EventLog>, BitTime, Telemetry, FlightRecorder) {
        let mut e = Engine::new(DelayModel::Logarithmic)
            .with_event_log()
            .with_telemetry(Telemetry::new(4))
            .with_flight_recorder(FlightRecorder::new(8));
        let src = e.add_node(Box::new(WordSource { width: 6 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 64);
        e.connect(mid, PortId(0), dst, PortId(0), 16);
        let end = e.run();
        let tel = e.take_telemetry().unwrap();
        let fl = e.take_flight_recorder().unwrap();
        (e.log().to_vec(), end, tel, fl)
    }

    #[test]
    fn telemetry_and_flight_are_bit_identical_to_uninstrumented_run() {
        let (log_off, end_off, _) = instrumented_run(false);
        let (log_on, end_on, tel, fl) = telemetered_run();
        assert_eq!(log_off, log_on, "telemetry must not change any delivered bit");
        assert_eq!(end_off, end_on, "telemetry must not change the completion time");
        assert_eq!(fl.recorded(), log_on.len() as u64);
        assert!(!tel.snapshots().is_empty(), "the run crossed a snapshot boundary");
    }

    #[test]
    fn telemetry_counters_agree_with_the_recorder() {
        let (_, _, rec, _) = profiled_run();
        let (log, _, tel, _) = telemetered_run();
        assert_eq!(tel.counter("engine.delivered"), log.len() as u64);
        let rec_bits: u64 = rec.links().iter().map(|l| l.bits).sum();
        let rec_wait: u64 = rec.links().iter().map(|l| l.wait_total).sum();
        assert_eq!(tel.counter("engine.link_bits"), rec_bits);
        assert_eq!(tel.counter("engine.queue_wait_tau"), rec_wait);
        let depth = tel.sketch("engine.calendar_depth").expect("depth sketch fed");
        assert_eq!(depth.count(), log.len() as u64, "one observation per delivery");
        assert_eq!(depth.max(), rec.calendar_depth().max());
    }

    #[test]
    fn flight_tail_is_a_contiguous_suffix_of_the_event_log() {
        let (log, end, _, mut fl) = telemetered_run();
        let tail: Vec<Delivery> = fl.tail().copied().collect();
        assert_eq!(tail.len(), 8.min(log.len()), "ring filled to capacity");
        let skip = log.len() - tail.len();
        for (fe, (i, le)) in tail.iter().zip(log.iter().enumerate().skip(skip)) {
            assert_eq!(fe.seq, i as u64 + 1, "contiguous 1-based seq");
            assert_eq!((fe.at, fe.node, fe.port), (le.at, le.node.0, le.port.0));
            assert_eq!((fe.value, fe.index), (le.bit.value, le.bit.index));
        }
        let doc = fl.dump("test", end, &[]);
        assert_eq!(doc.get("recorded_events").and_then(Json::as_u64), Some(log.len() as u64));
    }

    #[test]
    fn budget_trip_dumps_a_flight_post_mortem() {
        let mut e = Engine::new(DelayModel::Constant)
            .with_flight_recorder(FlightRecorder::new(4))
            .with_budget(RunBudget::events(5));
        let src = e.add_node(Box::new(WordSource { width: 8 }));
        let dst = e.add_node(Box::new(Sink { expected: 8, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1);
        assert!(matches!(e.try_run(), Err(SimError::BudgetExhausted { what: "events", .. })));
        let fl = e.take_flight_recorder().unwrap();
        let doc = &fl.post_mortems()[0];
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("budget-exhausted: events"),
            "the engine dumped before reporting the error"
        );
        assert!(Json::parse(&doc.render()).is_ok(), "post-mortem is parseable");
    }

    // --------------------------------------------------------------
    // Causal tracing.
    // --------------------------------------------------------------

    /// The recorder-test topology with a causal trace attached: 6-bit
    /// word, src → repeater → sink over 64λ (d=7) and 16λ (d=5) wires.
    fn traced_run() -> (Vec<EventLog>, BitTime, CausalTrace) {
        let mut e = Engine::new(DelayModel::Logarithmic).with_event_log().with_causal_trace();
        let src = e.add_node(Box::new(WordSource { width: 6 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 64);
        e.connect(mid, PortId(0), dst, PortId(0), 16);
        let end = e.run();
        let trace = e.take_causal_trace().unwrap();
        (e.log().to_vec(), end, trace)
    }

    #[test]
    fn causal_trace_is_bit_identical_to_untraced_run() {
        let (log_off, end_off, _) = instrumented_run(false);
        let (log_on, end_on, trace) = traced_run();
        assert_eq!(log_off, log_on, "causal trace must not change any delivered bit");
        assert_eq!(end_off, end_on, "causal trace must not change the completion time");
        assert_eq!(trace.len(), 12, "one hop per scheduled bit");
    }

    #[test]
    fn critical_path_tiles_the_completion_time() {
        use orthotrees_obs::causal::SegmentKind;
        let (_, end, trace) = traced_run();
        let path = trace.critical_path().expect("run delivered bits");
        assert_eq!(path.completion, end);
        assert!(path.covers_completion(), "{path:?}");
        let total: BitTime = path.segments.iter().map(|s| s.duration()).sum();
        assert_eq!(total, end, "Σ path segments == completion, exactly");
        // The last word bit queues w−1 = 5τ behind its siblings at the
        // first wire's entrance, then streams through both wires: 7 + 5.
        assert_eq!(path.kind_total(SegmentKind::QueueWait), BitTime::new(5));
        assert_eq!(path.kind_total(SegmentKind::WireDelay), BitTime::new(12));
        assert_eq!(path.kind_total(SegmentKind::NodeCompute), BitTime::ZERO);
        let wire_links: Vec<_> = path.wire_segments().map(|s| s.link.unwrap()).collect();
        assert_eq!(wire_links, vec![0, 1], "path crosses the links in order");
    }

    #[test]
    fn off_path_link_gets_positive_slack() {
        let (_, end, trace) = traced_run();
        let slacks = trace.link_slacks();
        assert_eq!(slacks.len(), 2);
        // Link 0's last bit arrives at the repeater d2 = 5τ before the end.
        assert_eq!(slacks[0].link, 0);
        assert_eq!(slacks[0].slack, BitTime::new(5));
        assert_eq!(slacks[1].link, 1);
        assert_eq!(slacks[1].slack, BitTime::ZERO, "final link is critical");
        assert_eq!(slacks[1].last_arrive, end);
    }

    #[test]
    fn dropped_and_suppressed_bits_never_complete_a_trace() {
        // Dropping link: every hop recorded, none delivered, no path.
        let mut e = Engine::new(DelayModel::Constant).with_causal_trace();
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        let lid = e.connect(src, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_link_fault(lid, LinkFaultKind::Drop));
        e.run();
        let trace = e.take_causal_trace().unwrap();
        assert_eq!(trace.len(), 4, "dropped bits still consumed wire slots");
        assert!(trace.hops().iter().all(|h| !h.delivered));
        assert!(trace.critical_path().is_none());

        // Dead node: deliveries to it are marked undelivered, so the path
        // ends at the last live delivery.
        let mut e = Engine::new(DelayModel::Constant).with_causal_trace();
        let src = e.add_node(Box::new(WordSource { width: 3 }));
        let mid = e.add_node(Box::new(Repeater));
        let dst = e.add_node(Box::new(Sink { expected: 3, got: 0, done: None }));
        e.connect(src, PortId(0), mid, PortId(0), 1);
        e.connect(mid, PortId(0), dst, PortId(0), 1);
        let mut e = e.with_fault_plan(FaultPlan::new(0).with_dead_node(mid));
        let end = e.run();
        assert_eq!(end, BitTime::ZERO, "nothing was ever delivered");
        let trace = e.take_causal_trace().unwrap();
        assert!(trace.hops().iter().all(|h| !h.delivered));
        assert!(trace.critical_path().is_none());
    }

    #[test]
    fn causal_trace_composes_with_recorder_and_lifo_ties() {
        let run = |lifo: bool| {
            let e = Engine::new(DelayModel::Logarithmic)
                .with_event_log()
                .with_recorder(Recorder::new())
                .with_causal_trace();
            let mut e = if lifo { e.with_lifo_ties() } else { e };
            let src = e.add_node(Box::new(WordSource { width: 6 }));
            let mid = e.add_node(Box::new(Repeater));
            let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
            e.connect(src, PortId(0), mid, PortId(0), 64);
            e.connect(mid, PortId(0), dst, PortId(0), 16);
            let end = e.run();
            let trace = e.take_causal_trace().unwrap();
            (end, trace.critical_path().unwrap().completion)
        };
        let (end_fifo, path_fifo) = run(false);
        let (end_lifo, path_lifo) = run(true);
        assert_eq!(end_fifo, path_fifo);
        assert_eq!(end_lifo, path_lifo, "msg ids survive the LIFO seq permutation");
        assert_eq!(end_fifo, end_lifo);
    }

    // --------------------------------------------------------------
    // EventLog ordering guarantees (the contract `Recorder` and the
    // fault-injection bit-identity tests build on).
    // --------------------------------------------------------------

    #[test]
    fn event_log_is_sorted_by_delivery_time() {
        let (log, end, _) = instrumented_run(false);
        assert!(!log.is_empty());
        assert!(log.windows(2).all(|w| w[0].at <= w[1].at), "log must be time-sorted");
        assert_eq!(log.last().unwrap().at, end, "last entry is the completion time");
    }

    #[test]
    fn event_log_tie_break_is_scheduling_order_fifo() {
        // Three sources, same wire length: all first bits arrive at t=1.
        // The tie-break is the order the bits were scheduled (node start
        // order), not heap-internal order.
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let sources: Vec<NodeId> =
            (0..3).map(|_| e.add_node(Box::new(WordSource { width: 2 }))).collect();
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        for (p, &s) in sources.iter().enumerate() {
            e.connect(s, PortId(0), dst, PortId(p), 1);
        }
        e.run();
        let ports: Vec<usize> = e.log().iter().map(|ev| ev.port.0).collect();
        // t=1: first bit of each source in insertion order; t=2: second bits.
        assert_eq!(ports, vec![0, 1, 2, 0, 1, 2]);
        assert!(e.log().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn lifo_ties_reverse_same_time_deliveries_only() {
        // Same topology as the FIFO tie-break test: all first bits arrive
        // at t=1, all second bits at t=2. LIFO reverses order *within* each
        // timestamp but never across timestamps, and the completion time is
        // unchanged.
        let mut e = Engine::new(DelayModel::Constant).with_event_log().with_lifo_ties();
        let sources: Vec<NodeId> =
            (0..3).map(|_| e.add_node(Box::new(WordSource { width: 2 }))).collect();
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        for (p, &s) in sources.iter().enumerate() {
            e.connect(s, PortId(0), dst, PortId(p), 1);
        }
        let end = e.run();
        let ports: Vec<usize> = e.log().iter().map(|ev| ev.port.0).collect();
        assert_eq!(ports, vec![2, 1, 0, 2, 1, 0]);
        assert!(e.log().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(end.get(), 2);
    }

    /// Starts (but does not run) the 3×2-bit fan-in and returns the
    /// scheduled calendar, sorted into delivery order.
    fn schedule_only(lifo: bool, kind: CalendarKind) -> Vec<Pending> {
        let mut e = Engine::new(DelayModel::Constant).with_calendar(kind);
        if lifo {
            e = e.with_lifo_ties();
        }
        let sources: Vec<NodeId> =
            (0..3).map(|_| e.add_node(Box::new(WordSource { width: 2 }))).collect();
        let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
        for (p, &s) in sources.iter().enumerate() {
            e.connect(s, PortId(0), dst, PortId(p), 1);
        }
        // Zero-event slice: fires on_start (scheduling all six bits) and
        // stops at the first event boundary.
        assert_eq!(e.try_run_for(0).unwrap(), RunStatus::Paused(BitTime::ZERO));
        let mut pending = e.queue.events();
        pending.sort_unstable();
        pending
    }

    #[test]
    fn lifo_ties_permute_order_but_never_msg_ids() {
        // The msg/seq coupling contract, on both calendars: the LIFO-ties
        // knob permutes only the ordering key `seq`; the causal `msg`
        // (which fault draws and hop records key off) is untouched.
        for kind in [CalendarKind::Heap, CalendarKind::Ladder] {
            let fifo = schedule_only(false, kind);
            let lifo = schedule_only(true, kind);
            // FIFO: ordering key IS the raw counter. LIFO: its complement.
            assert!(fifo.iter().all(|p| p.seq == p.msg), "{kind:?}");
            assert!(lifo.iter().all(|p| p.seq == u64::MAX - p.msg), "{kind:?}");
            // Same msg multiset either way…
            let mut fifo_msgs: Vec<u64> = fifo.iter().map(|p| p.msg).collect();
            let mut lifo_msgs: Vec<u64> = lifo.iter().map(|p| p.msg).collect();
            fifo_msgs.sort_unstable();
            lifo_msgs.sort_unstable();
            assert_eq!(fifo_msgs, lifo_msgs, "{kind:?}: msg ids must not be permuted");
            // …and within each timestamp the delivery order of msgs is
            // exactly reversed, never mixed across timestamps.
            for t in [1u64, 2] {
                let f: Vec<u64> = fifo.iter().filter(|p| p.at.get() == t).map(|p| p.msg).collect();
                let mut l: Vec<u64> =
                    lifo.iter().filter(|p| p.at.get() == t).map(|p| p.msg).collect();
                l.reverse();
                assert_eq!(f, l, "{kind:?} t={t}");
            }
        }
    }

    #[test]
    fn lifo_ties_leave_fault_draws_untouched_on_both_calendars() {
        // Fault draws key off the raw scheduling counter, so the faulted
        // bit *population* is identical under FIFO and LIFO — only the
        // same-timestamp delivery order moves.
        let run = |lifo: bool, kind: CalendarKind| -> (Vec<EventLog>, FaultStats) {
            let mut e = Engine::new(DelayModel::Constant).with_event_log().with_calendar(kind);
            if lifo {
                e = e.with_lifo_ties();
            }
            let sources: Vec<NodeId> =
                (0..3).map(|_| e.add_node(Box::new(WordSource { width: 8 }))).collect();
            let dst = e.add_node(Box::new(Sink { expected: 24, got: 0, done: None }));
            for (p, &s) in sources.iter().enumerate() {
                e.connect(s, PortId(0), dst, PortId(p), 1);
            }
            let mut e = e.with_fault_plan(FaultPlan::new(99).with_link_fault_rate(0.4));
            e.run();
            (e.log().to_vec(), *e.fault_stats())
        };
        for kind in [CalendarKind::Heap, CalendarKind::Ladder] {
            let (log_fifo, stats_fifo) = run(false, kind);
            let (log_lifo, stats_lifo) = run(true, kind);
            assert_eq!(stats_fifo, stats_lifo, "{kind:?}: same draws, same stats");
            let key = |ev: &EventLog| (ev.at, ev.port, ev.bit.value, ev.bit.index);
            let mut f: Vec<_> = log_fifo.iter().map(key).collect();
            let mut l: Vec<_> = log_lifo.iter().map(key).collect();
            f.sort_unstable();
            l.sort_unstable();
            assert_eq!(f, l, "{kind:?}: delivered multiset is tie-break invariant");
        }
    }

    #[test]
    fn heap_and_ladder_engines_deliver_identical_logs() {
        // The engine-level identity the ENG-001 rule generalizes: same
        // network, same knobs, different calendar — same event log.
        let run = |kind: CalendarKind, lifo: bool| {
            let mut e = Engine::new(DelayModel::Logarithmic).with_event_log().with_calendar(kind);
            if lifo {
                e = e.with_lifo_ties();
            }
            let src = e.add_node(Box::new(WordSource { width: 6 }));
            let mid = e.add_node(Box::new(Repeater));
            let dst = e.add_node(Box::new(Sink { expected: 6, got: 0, done: None }));
            e.connect(src, PortId(0), mid, PortId(0), 64);
            e.connect(mid, PortId(0), dst, PortId(0), 16);
            e.run();
            RunRecord::of(&e)
        };
        for lifo in [false, true] {
            assert_eq!(
                run(CalendarKind::Heap, lifo),
                run(CalendarKind::Ladder, lifo),
                "lifo={lifo}"
            );
        }
    }

    #[test]
    fn with_calendar_migrates_pending_events() {
        // Switching calendars mid-flight (after scheduling, before the
        // drain) must carry every pending event across.
        let mut e = Engine::new(DelayModel::Constant).with_event_log();
        let src = e.add_node(Box::new(WordSource { width: 4 }));
        let dst = e.add_node(Box::new(Sink { expected: 4, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1);
        assert_eq!(e.try_run_for(1).unwrap(), RunStatus::Paused(BitTime::new(1)));
        assert_eq!(e.pending_events(), 3);
        let mut e = e.with_calendar(CalendarKind::Heap);
        assert_eq!(e.calendar_kind(), CalendarKind::Heap);
        assert_eq!(e.pending_events(), 3);
        e.run();
        assert_eq!(e.log().len(), 4);
        assert_eq!(e.completion_time().unwrap().get(), 4);
    }

    #[test]
    fn event_log_off_by_default_and_stable_across_reruns() {
        let mut e = Engine::new(DelayModel::Constant);
        let src = e.add_node(Box::new(WordSource { width: 3 }));
        let dst = e.add_node(Box::new(Sink { expected: 3, got: 0, done: None }));
        e.connect(src, PortId(0), dst, PortId(0), 1);
        e.run();
        assert!(e.log().is_empty(), "no log unless with_event_log() was called");
        // Two fresh engines with the same topology produce identical logs.
        let (a, _, _) = instrumented_run(false);
        let (b, _, _) = instrumented_run(false);
        assert_eq!(a, b, "deterministic replay");
    }

    #[test]
    fn random_link_faults_are_reproducible_across_runs() {
        let run = || -> (Vec<EventLog>, FaultStats) {
            let mut e = Engine::new(DelayModel::Constant).with_event_log();
            let src = e.add_node(Box::new(WordSource { width: 32 }));
            let dst = e.add_node(Box::new(Sink { expected: 32, got: 0, done: None }));
            e.connect(src, PortId(0), dst, PortId(0), 1);
            let mut e = e.with_fault_plan(FaultPlan::new(77).with_link_fault_rate(0.3));
            e.run();
            (e.log().to_vec(), *e.fault_stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        assert_eq!(log_a, log_b, "same seed, same plan: identical event sequence");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.injected > 0, "rate 0.3 over 32 bits should fault something");
    }
}
