//! The orthogonal tree cycles (paper §V).
//!
//! An `(m × m)`-OTC is an `(m × m)`-OTN in which every BP is replaced by a
//! *cycle* of `L = Θ(log N)` BPs; `BP(0)` of each cycle connects to the row
//! and column trees. A tree root now streams `L` words per operation, one
//! per pipelined round of `{tree primitive; VECTORCIRCULATE}` (§V.B), so
//! every communication operation still takes `Θ(log² N)` — but the layout
//! area drops from `Θ(N² log² N)` to `Θ(N²)`.
//!
//! BPs are addressed by triples `(i, j, q)`: cycle row, cycle column,
//! position within the cycle. Roots hold *buffers* of `L` words (the
//! streamed sequence), not single words.
//!
//! Submodules: [`sort`] (SORT-OTC, §VI.A), [`matmul`], [`cc`] and [`mst`]
//! (the §VI.B direct conversions of the §III matrix and graph algorithms)
//! and [`emulate`] (the §V simulation argument priced from op counts).

pub mod cc;
pub mod checkpoint;
pub mod emulate;
pub mod matmul;
pub mod mst;
pub mod sort;

use crate::primitive::{self, Acc, ParallelPolicy, PrimitiveSpec};
use crate::resilience::{self, FaultPlan, FaultReport, FaultState, FaultStats};
use crate::word::Word;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::{causal::ReachCell, Recorder};
use orthotrees_vlsi::{log2_ceil, log2_floor, BitTime, Clock, CostKind, CostModel, ModelError};

pub use super::otn::Axis;

/// Handle to a register plane allocated with [`Otc::alloc_reg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(usize);

impl Reg {
    /// The plane's index in allocation order — the `reg` coordinate of
    /// reach events and the key into [`Otc::reg_names`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Read-only view of all register planes for selectors.
pub struct OtcRegsView<'a> {
    regs: &'a [Vec<Option<Word>>],
    m: usize,
    cycle: usize,
}

impl OtcRegsView<'_> {
    /// The value of register `r` at BP `(i, j, q)`.
    pub fn get(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.regs[r.0][(i * self.m + j) * self.cycle + q]
    }
}

/// Per-cycle register access during a cycle-local compute phase.
pub struct CycleRegs<'a> {
    regs: &'a mut [Vec<Option<Word>>],
    base: usize,
    cycle: usize,
}

impl CycleRegs<'_> {
    /// This cycle's register `r` at position `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn get(&self, r: Reg, q: usize) -> Option<Word> {
        assert!(q < self.cycle, "cycle position {q} out of range");
        self.regs[r.0][self.base + q]
    }

    /// Sets this cycle's register `r` at position `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set(&mut self, r: Reg, q: usize, v: Option<Word>) {
        assert!(q < self.cycle, "cycle position {q} out of range");
        self.regs[r.0][self.base + q] = v;
    }

    /// Cycle length.
    pub fn len(&self) -> usize {
        self.cycle
    }

    /// Always false — cycles have at least two BPs.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Cost class of a local compute phase (re-exported shape of the OTN's).
pub use super::otn::PhaseCost;

/// The orthogonal tree cycles network.
#[derive(Clone, Debug)]
pub struct Otc {
    m: usize,
    cycle: usize,
    model: CostModel,
    pitch: u64,
    clock: Clock,
    regs: Vec<Vec<Option<Word>>>,
    reg_names: Vec<&'static str>,
    row_roots: Vec<Vec<Option<Word>>>,
    col_roots: Vec<Vec<Option<Word>>>,
    /// Installed fault scenario; `None` keeps every primitive on the exact
    /// fault-free path.
    fault: Option<FaultState>,
    /// Installed observability recorder; `None` keeps every primitive on
    /// the exact unrecorded path (same contract as `fault`).
    recorder: Option<Recorder>,
    /// Installed streaming telemetry bus; same contract as `recorder`.
    telemetry: Option<Telemetry>,
    /// How the selection mask of each primitive is filled.
    parallel: ParallelPolicy,
    /// Scratch selection mask of the running primitive, row-major over the
    /// cycles (or, upward, over every cycle position); cleared and reused
    /// by every call.
    mask: Vec<bool>,
    /// Scratch per-(tree, stream position) folds of the running upward
    /// primitive; reused.
    accs: Vec<Acc>,
    /// Scratch `(register, cell, value)` writes a [`Otc::bp_phase`] stages
    /// until every BP has read; reused.
    staged: Vec<(Reg, usize, Option<Word>)>,
}

impl Otc {
    /// The paper's decomposition of a problem of size `n` (a power of two)
    /// into `(m, cycle_len)` with `m · cycle_len = n`, both powers of two
    /// and `cycle_len = Θ(log n)` — the same convention as
    /// `orthotrees_layout::otc::otc_dims` (kept in sync by an integration
    /// test).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n` is not a power of two or `n < 4`.
    pub fn dims_for(n: usize) -> Result<(usize, usize), ModelError> {
        ModelError::require_power_of_two("OTC problem size", n)?;
        ModelError::require_at_least("OTC problem size", n, 4)?;
        let logn = log2_ceil(n as u64).max(2);
        let cycle = (1usize << log2_floor(u64::from(logn))).min(n / 2);
        Ok((n / cycle, cycle))
    }

    /// Creates an `(m × m)`-OTC of cycles of length `cycle` under `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `m` and `cycle` are powers of two with
    /// `cycle ≥ 2`.
    pub fn new(m: usize, cycle: usize, model: CostModel) -> Result<Self, ModelError> {
        ModelError::require_power_of_two("OTC side length", m)?;
        ModelError::require_power_of_two("cycle length", cycle)?;
        ModelError::require_at_least("cycle length", cycle, 2)?;
        // Layout pitch: cycle blocks are Θ(log N) on a side (Fig. 2), and
        // the tree channels add the grid depth (same convention as the
        // layout crate).
        let depth = log2_ceil(m as u64);
        let block = (2 * cycle as u64 - 1).max(u64::from(model.word_bits) + 1);
        let pitch = block + u64::from(depth) + 1;
        Ok(Otc {
            m,
            cycle,
            model,
            pitch,
            clock: Clock::new(),
            regs: Vec::new(),
            reg_names: Vec::new(),
            row_roots: vec![vec![None; cycle]; m],
            col_roots: vec![vec![None; cycle]; m],
            fault: None,
            recorder: None,
            telemetry: None,
            parallel: ParallelPolicy::default(),
            mask: Vec::new(),
            accs: Vec::new(),
            staged: Vec::new(),
        })
    }

    /// Sets how each primitive fills its selection mask (see
    /// [`ParallelPolicy`]). Both policies are bit- and clock-identical —
    /// asserted by property tests. `Threads` parallelises only the mask
    /// fill and has not been measured faster: SORT at n = 512 ran at
    /// 0.78–0.98× the sequential speed on a 2-vCPU host.
    pub fn set_parallel_policy(&mut self, policy: ParallelPolicy) {
        self.parallel = policy;
    }

    /// The active parallel execution policy.
    pub fn parallel_policy(&self) -> ParallelPolicy {
        self.parallel
    }

    /// The OTC that sorts `n` numbers: [`Otc::dims_for`]`(n)` with
    /// Thompson's model at word width `⌈log₂ n⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n` is not a power of two or `n < 4`.
    ///
    /// # Example
    ///
    /// ```
    /// use orthotrees::otc::{self, Otc};
    /// let mut net = Otc::for_sorting(16)?;
    /// assert_eq!((net.side(), net.cycle_len()), (4, 4));
    /// let out = otc::sort::sort(&mut net, &(0..16).rev().collect::<Vec<_>>())?;
    /// assert_eq!(out.sorted, (0..16).collect::<Vec<_>>());
    /// # Ok::<(), orthotrees::ModelError>(())
    /// ```
    pub fn for_sorting(n: usize) -> Result<Self, ModelError> {
        let (m, cycle) = Self::dims_for(n)?;
        Otc::new(m, cycle, CostModel::thompson(n))
    }

    /// Cycles per side.
    pub fn side(&self) -> usize {
        self.m
    }

    /// BPs per cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle
    }

    /// Total base processors (`m² · cycle`).
    pub fn base_processors(&self) -> usize {
        self.m * self.m * self.cycle
    }

    /// The active cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The inter-cycle pitch used for wire pricing.
    pub fn pitch(&self) -> u64 {
        self.pitch
    }

    /// The simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Resets clock and statistics.
    pub fn reset_clock(&mut self) {
        self.clock.reset();
    }

    /// Runs `f`, returning its result and the elapsed simulated time.
    pub fn elapsed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, BitTime) {
        let before = self.clock.now();
        let r = f(self);
        (r, self.clock.now() - before)
    }

    /// Allocates a register plane (one word per BP, initially `NULL`).
    pub fn alloc_reg(&mut self, name: &'static str) -> Reg {
        self.regs.push(vec![None; self.m * self.m * self.cycle]);
        self.reg_names.push(name);
        Reg(self.regs.len() - 1)
    }

    /// The allocated register-plane names, in [`Reg::index`] order — the
    /// register-file shape static analyses resolve reach events against.
    pub fn reg_names(&self) -> &[&'static str] {
        &self.reg_names
    }

    /// Number of allocated register planes.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    fn idx(&self, i: usize, j: usize, q: usize) -> usize {
        (i * self.m + j) * self.cycle + q
    }

    /// Reads one BP register (host-side, free).
    pub fn peek(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.regs[r.0][self.idx(i, j, q)]
    }

    /// Loads a register plane from `f(i, j, q)`.
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize, usize) -> Option<Word>) {
        for i in 0..self.m {
            for j in 0..self.m {
                for q in 0..self.cycle {
                    let at = self.idx(i, j, q);
                    self.regs[r.0][at] = f(i, j, q);
                }
            }
        }
        self.clock.stats_mut().inputs += (self.m * self.m * self.cycle) as u64;
    }

    /// Places `L` words at each row root's stream buffer (input ports;
    /// §VI.A: "log N numbers will have to be entered through each port").
    ///
    /// # Panics
    ///
    /// Panics unless `values` is `m` buffers of `cycle` words.
    pub fn load_row_root_buffers(&mut self, values: &[Vec<Word>]) {
        assert_eq!(values.len(), self.m, "one buffer per row root");
        for (t, buf) in values.iter().enumerate() {
            assert_eq!(buf.len(), self.cycle, "buffer length must equal the cycle length");
            self.row_roots[t] = buf.iter().map(|&v| Some(v)).collect();
        }
        self.clock.stats_mut().inputs += (self.m * self.cycle) as u64;
    }

    /// Reads the column roots' stream buffers (output ports).
    pub fn read_col_root_buffers(&self) -> Vec<Vec<Option<Word>>> {
        self.col_roots.clone()
    }

    /// The root stream buffers of `axis`.
    pub fn roots(&self, axis: Axis) -> &[Vec<Option<Word>>] {
        match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        }
    }

    /// Cycle coordinates of leaf `leaf` of tree `tree` along `axis`. The
    /// map is its own inverse: `coords(axis, i, j)` is `(tree, leaf)`.
    fn coords(axis: Axis, tree: usize, leaf: usize) -> (usize, usize) {
        match axis {
            Axis::Rows => (tree, leaf),
            Axis::Cols => (leaf, tree),
        }
    }

    /// The cost of one streamed tree operation: `L` pipelined words behind
    /// one tree traversal (§V.B: "a pipeline of length O(log² N) in which
    /// log N elements are transmitted at O(log N) intervals of time").
    pub fn stream_cost(&self, aggregate: bool) -> BitTime {
        let kind = if aggregate { CostKind::StreamAggregate } else { CostKind::StreamBroadcast };
        self.model.primitive_cost(kind, self.m, self.pitch, self.cycle)
    }

    /// Advances the clock by `expected` while recording its causal
    /// decomposition `parts` (see [`crate::attribution`]).
    fn seg_charge(&mut self, expected: BitTime, parts: &[crate::attribution::Part]) {
        crate::attribution::seg_charge(&mut self.clock, &mut self.recorder, expected, parts);
        if let Some(tel) = &mut self.telemetry {
            tel.count("otc.charges", 1);
            tel.observe("otc.charge_tau", expected.get());
            tel.tick(self.clock.now());
        }
    }

    fn phase_cost(&self, cost: PhaseCost) -> BitTime {
        match cost {
            PhaseCost::Bit => self.model.bit_op(),
            PhaseCost::Compare => self.model.compare(),
            PhaseCost::Add => self.model.add(),
            PhaseCost::Multiply => self.model.multiply(),
            PhaseCost::Words(k) => self.model.compare() * k,
        }
    }

    // ------------------------------------------------------------------
    // Observability (see [`orthotrees_obs`]). An absent recorder keeps
    // every primitive on the exact unrecorded path.
    // ------------------------------------------------------------------

    /// Installs a recorder that collects phase spans for all subsequent
    /// primitives.
    pub fn install_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Removes and returns the installed recorder (export after a run).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Installs a streaming [`Telemetry`] bus: every subsequent clock
    /// charge is counted (`otc.charges`), its magnitude fed to the
    /// `otc.charge_tau` quantile sketch, and periodic counter snapshots
    /// are cut on the simulated clock. Metering changes no simulated bit,
    /// time, or output (bit-identity, enforced by the telemetry suite).
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The installed telemetry bus, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the installed telemetry bus (algorithms fold
    /// their own domain counters into the export through this).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Removes and returns the installed telemetry bus (export after a
    /// run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Opens a named phase span at the current simulated time (no-op
    /// without a recorder). Spans nest; close with [`Otc::end_phase`].
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        if let Some(rec) = &mut self.recorder {
            let now = self.clock.now();
            rec.open(name, now);
        }
    }

    /// Closes the most recently opened phase span (no-op without a
    /// recorder).
    pub fn end_phase(&mut self) {
        if let Some(rec) = &mut self.recorder {
            let now = self.clock.now();
            rec.close(now);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection, detection and graceful degradation (see
    // [`crate::resilience`]). The OTC's trees have one leaf per *cycle*,
    // so a dark leaf is a whole cycle cut from one of its trees.
    // ------------------------------------------------------------------

    /// Installs a deterministic fault scenario for all subsequent
    /// primitives; returns the degradation verdicts for its dead IPs.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> &FaultReport {
        self.fault = Some(FaultState::new(plan, self.m, self.m, self.m, self.m));
        &self.fault.as_ref().expect("just installed").report
    }

    /// Whether a fault plan is installed.
    pub fn has_fault_plan(&self) -> bool {
        self.fault.is_some()
    }

    /// The degradation report of the installed plan, if any.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.fault.as_ref().map(|f| &f.report)
    }

    /// Counters for the faults injected so far (all zero with no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Whether the installed recorder asked for reach events. `false`
    /// whenever no recorder is installed or tracing was not enabled, so
    /// the plain profiling path stays free of reach bookkeeping.
    fn reach_tracing(&self) -> bool {
        self.recorder.as_ref().is_some_and(Recorder::reach_enabled)
    }

    fn begin_fault_round(&mut self) {
        if let Some(f) = &mut self.fault {
            f.next_round();
        }
    }

    /// Charges the fault overhead of one streamed primitive on `axis`:
    /// `attempts` retransmitted streams of `base` plus the sibling-reroute
    /// penalty. `base` is the same registry-priced cost the primitive just
    /// charged, so charge and overhead can never disagree.
    fn charge_fault_overhead(&mut self, axis: Axis, attempts: u32, base: BitTime) {
        let Some(f) = &self.fault else { return };
        let span = f.reroute_span[match axis {
            Axis::Rows => 0,
            Axis::Cols => 1,
        }];
        let mut extra = base * u64::from(attempts);
        if span > 0 {
            extra += self.model.tree_leaf_to_leaf(2 * span, self.pitch);
        }
        if extra > BitTime::ZERO {
            // Attributed as its own (nested) phase so a faulty run's
            // slowdown is visible in the time-attribution table; causally
            // it is pure waiting (retransmitted streams / detour latency).
            self.begin_phase(primitive::spec_for("FAULT-OVERHEAD").name);
            let parts = crate::attribution::wait_parts(extra);
            self.seg_charge(extra, &parts);
            self.end_phase();
        }
        if let Some(rec) = &mut self.recorder {
            rec.count("fault.retry_rounds", u64::from(attempts));
        }
    }

    // ------------------------------------------------------------------
    // The shared descriptor-driven executors (see [`crate::primitive`]).
    // Every §V.B stream primitive below is a thin call into these:
    // selection mask (filled over row bands under ParallelPolicy::Threads)
    // → fault round → memory-order transits, writes or folds → one
    // registry-derived charge.
    // ------------------------------------------------------------------

    /// Charges `spec`'s registry cost kind once for the whole tree family
    /// of `axis`: the clock charge, its causal segment decomposition, the
    /// matching operation statistics (including the `L − 1` pipelined
    /// circulate hops of a stream) and the fault-overhead base all derive
    /// from the same [`CostKind`], so they can never disagree.
    fn charge_primitive(&mut self, spec: &PrimitiveSpec, axis: Axis, attempts: u32) {
        // Invariant: executors only charge registry primitives that declare
        // a cost kind (the registry coverage tests pin this statically), so
        // a `None` is a registry-definition bug, not a runtime state.
        let kind = spec.cost.unwrap_or_else(|| panic!("{} declares no cost kind", spec.name));
        let t = self.model.primitive_cost(kind, self.m, self.pitch, self.cycle);
        let parts =
            crate::attribution::primitive_parts(&self.model, kind, self.m, self.pitch, self.cycle);
        self.seg_charge(t, &parts);
        let stats = self.clock.stats_mut();
        match kind {
            CostKind::Broadcast | CostKind::StreamBroadcast => stats.broadcasts += 1,
            CostKind::Send | CostKind::StreamSend => stats.sends += 1,
            CostKind::Aggregate | CostKind::StreamAggregate => stats.aggregates += 1,
            CostKind::CycleStep => stats.circulates += 1,
        }
        if kind.is_stream() {
            stats.circulates += self.cycle as u64 - 1;
        }
        self.charge_fault_overhead(axis, attempts, t);
    }

    /// Opens a reach round and records one event per cycle `(i, j)` for
    /// which `selected(i, j)`, in `(tree, leaf)` order — one per cycle, not
    /// per stream position, as the dataflow program abstracts the whole
    /// cycle as one leaf cell. `edge(leaf)` names the `(from, to)` cells.
    /// Does nothing unless reach tracing is on.
    fn emit_reach(
        &mut self,
        axis: Axis,
        selected: impl Fn(usize, usize) -> bool,
        edge: impl Fn(u64) -> (ReachCell, ReachCell),
    ) {
        let m = self.m;
        let Some(rec) = self.recorder.as_mut().filter(|r| r.reach_enabled()) else { return };
        rec.reach_round_begin();
        for t in 0..m {
            for l in 0..m {
                let (i, j) = Self::coords(axis, t, l);
                if selected(i, j) {
                    let (from, to) = edge(l as u64);
                    rec.reach(t as u64, from, to);
                }
            }
        }
    }

    /// The downward stream executor (`ROOTTOCYCLE`): evaluates `sel && !dark`
    /// per cycle into the scratch mask (every selector sees the state from
    /// before the primitive), then transits and writes each selected
    /// cycle's stream words in memory order, then charges the registry
    /// cost. Fault draws are keyed by site and round, so the write order
    /// changes no word.
    fn stream_downward(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::StreamDown),
            "{} is not a StreamDown-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (m, cycle, width) = (self.m, self.cycle, self.model.word_bits);
        let mut mask = std::mem::take(&mut self.mask);
        {
            let view = OtcRegsView { regs: &self.regs, m, cycle };
            let fault = self.fault.as_ref();
            primitive::fill_mask(self.parallel, &mut mask, m, m, |i, out| {
                for (j, on) in out.iter_mut().enumerate() {
                    let (t, l) = Self::coords(axis, i, j);
                    *on = sel(i, j, &view) && !fault.is_some_and(|f| f.is_dark(axis, t, l));
                }
            });
        }
        self.begin_fault_round();
        let roots = match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        };
        let mut fault = self.fault.as_mut();
        let plane = self.regs[dest.0].as_mut_slice();
        let mut attempts = 0;
        for (i, (on_row, row)) in mask.chunks(m).zip(plane.chunks_mut(m * cycle)).enumerate() {
            for (j, (_, block)) in
                on_row.iter().zip(row.chunks_mut(cycle)).enumerate().filter(|(_, (&on, _))| on)
            {
                let (t, l) = Self::coords(axis, i, j);
                match &mut fault {
                    Some(f) => {
                        for (q, cell) in block.iter_mut().enumerate() {
                            let site = resilience::site(axis, t, l * cycle + q);
                            let (v, att) = f.transit(site, roots[t][q], width);
                            attempts = attempts.max(att);
                            *cell = v;
                        }
                    }
                    None => block.copy_from_slice(&roots[t]),
                }
            }
        }
        self.emit_reach(
            axis,
            |i, j| mask[i * m + j],
            |leaf| (ReachCell::Root, ReachCell::Reg { reg: dest.0 as u64, leaf }),
        );
        self.mask = mask;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// The upward stream executor (`CYCLETOROOT` and the stream
    /// aggregates): evaluates `sel && !dark` per cycle position into the
    /// scratch mask, folds the selected words in memory order through
    /// `spec`'s combine [`Monoid`](crate::primitive::Monoid) into one
    /// accumulator per tree and stream position (each still sees its
    /// cycles in increasing leaf order), then transits each root-bound word
    /// into the root buffers in place and charges the registry cost.
    fn stream_upward(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        // Invariant: aggregate executors are only called with registry
        // primitives that declare a combine monoid (pinned by the registry
        // coverage tests) — a `None` is a registry-definition bug.
        let monoid =
            spec.combine.unwrap_or_else(|| panic!("{} declares no combine monoid", spec.name));
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::StreamUp),
            "{} is not a StreamUp-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let (m, cycle, width) = (self.m, self.cycle, self.model.word_bits);
        let degraded = self.fault.is_some();
        let mut mask = std::mem::take(&mut self.mask);
        {
            let view = OtcRegsView { regs: &self.regs, m, cycle };
            let fault = self.fault.as_ref();
            primitive::fill_mask(self.parallel, &mut mask, m, m * cycle, |i, out| {
                for (j, positions) in out.chunks_mut(cycle).enumerate() {
                    let (t, l) = Self::coords(axis, i, j);
                    let dark = fault.is_some_and(|f| f.is_dark(axis, t, l));
                    for (q, on) in positions.iter_mut().enumerate() {
                        *on = sel(i, j, q, &view) && !dark;
                    }
                }
            });
        }
        let mut accs = std::mem::take(&mut self.accs);
        accs.clear();
        accs.resize(m * cycle, Acc::new(monoid));
        let plane = self.regs[src.0].as_slice();
        for (i, (on_row, row)) in mask.chunks(m * cycle).zip(plane.chunks(m * cycle)).enumerate() {
            for (j, (on_cycle, words)) in on_row.chunks(cycle).zip(row.chunks(cycle)).enumerate() {
                let (t, _) = Self::coords(axis, i, j);
                let tree_accs = &mut accs[t * cycle..(t + 1) * cycle];
                for (q, ((_, &word), acc)) in on_cycle
                    .iter()
                    .zip(words)
                    .zip(tree_accs)
                    .enumerate()
                    .filter(|(_, ((&on, _), _))| on)
                {
                    // On First contention under faults, the fold keeps the
                    // first word (corrupted selectors legitimately
                    // collide); in a healthy net it is an invariant
                    // violation.
                    acc.fold(word, || {
                        assert!(
                            degraded,
                            "{} contention: tree {t} position {q} selected twice \
                             (invariant: one cycle per tree and position)",
                            spec.name
                        );
                    });
                }
            }
        }
        self.emit_reach(
            axis,
            |i, j| mask[(i * m + j) * cycle..][..cycle].contains(&true),
            |leaf| (ReachCell::Reg { reg: src.0 as u64, leaf }, ReachCell::Root),
        );
        self.mask = mask;
        self.begin_fault_round();
        // Root-bound slots sit above the per-cycle broadcast slot range
        // (`m * cycle`), keeping sites injective.
        let site_base = m * cycle;
        let roots = match axis {
            Axis::Rows => &mut self.row_roots,
            Axis::Cols => &mut self.col_roots,
        };
        let mut attempts = 0;
        for (t, (buffer, tree_accs)) in roots.iter_mut().zip(accs.chunks(cycle)).enumerate() {
            for (q, (slot, acc)) in buffer.iter_mut().zip(tree_accs).enumerate() {
                *slot = match &mut self.fault {
                    Some(f) => {
                        let site = resilience::site(axis, t, site_base + q);
                        let (v, att) = f.transit(site, acc.finish(), width);
                        attempts = attempts.max(att);
                        v
                    }
                    None => acc.finish(),
                };
            }
        }
        self.accs = accs;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// The composite executor: opens `name`'s enclosing registry span and
    /// runs its two legs (each charges itself).
    fn composite(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let spec = primitive::spec_for(name);
        debug_assert!(spec.composite_of.is_some(), "{} is not a composite", spec.name);
        self.begin_phase(spec.name);
        f(self);
        self.end_phase();
    }

    /// Charges a local compute phase of duration `t` under its registry
    /// span name.
    fn charge_compute(&mut self, name: &str, t: BitTime) {
        let spec = primitive::spec_for(name);
        self.begin_phase(spec.name);
        self.seg_charge(t, &crate::attribution::compute_parts(t));
        self.end_phase();
        self.clock.stats_mut().leaf_ops += 1;
    }

    // ------------------------------------------------------------------
    // Primitives (§V.B).
    // ------------------------------------------------------------------

    /// `VECTORCIRCULATE` over every cycle: each listed register rotates one
    /// position (`R(q) := R((q+1) mod L)`).
    pub fn circulate(&mut self, regs: &[Reg]) {
        let tracing = self.reach_tracing();
        if let Some(rec) = self.recorder.as_mut().filter(|_| tracing) {
            rec.reach_round_begin();
        }
        for r in regs {
            for i in 0..self.m {
                for j in 0..self.m {
                    let base = self.idx(i, j, 0);
                    self.regs[r.0][base..base + self.cycle].rotate_left(1);
                }
            }
            // The rotate program names cycle positions as leaves and each
            // cycle `(i, j)` as its own tree.
            if tracing {
                let (m, cycle) = (self.m, self.cycle);
                if let Some(rec) = self.recorder.as_mut() {
                    for i in 0..m {
                        for j in 0..m {
                            for q in 0..cycle {
                                rec.reach(
                                    (i * m + j) as u64,
                                    ReachCell::Reg {
                                        reg: r.0 as u64,
                                        leaf: ((q + 1) % cycle) as u64,
                                    },
                                    ReachCell::Reg { reg: r.0 as u64, leaf: q as u64 },
                                );
                            }
                        }
                    }
                }
            }
        }
        // One O(1)-long hop inside the cycle block, then the word tail.
        // Never a faultable tree traversal, so no fault-overhead charge.
        let spec = primitive::spec_for("VECTORCIRCULATE");
        self.begin_phase(spec.name);
        let t = self.model.primitive_cost(CostKind::CycleStep, self.m, self.pitch, self.cycle);
        let parts = crate::attribution::primitive_parts(
            &self.model,
            CostKind::CycleStep,
            self.m,
            self.pitch,
            self.cycle,
        );
        self.seg_charge(t, &parts);
        self.end_phase();
        self.clock.stats_mut().circulates += 1;
    }

    /// `ROOTTOCYCLE(Vector, Dest)`: each tree of `axis` streams its root
    /// buffer to the selected cycles; `dest[q] := buffer[q]`.
    ///
    /// Under an installed [`FaultPlan`], every delivered stream word is an
    /// independent transit and dark cycles receive nothing.
    pub fn root_to_cycle(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_downward("ROOTTOCYCLE", axis, dest, &sel);
    }

    /// `CYCLETOROOT(Vector, Source)`: each tree's root receives, for every
    /// stream position `q`, register `src[q]` of the cycle selected for
    /// that position (the paper's per-position selector: "Number (q) is
    /// taken from register B(q) of cycle (i,j) such that register A(q) in
    /// this cycle contains a 1").
    ///
    /// Under an installed [`FaultPlan`], dark cycles cannot reach the
    /// root, each ascending stream word is one parity-checked transit, and
    /// per-position contention keeps the first selected cycle instead of
    /// panicking (corrupted selectors legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if two cycles of the same tree are
    /// selected for the same stream position — invariant: the per-position
    /// selector specifies at most one cycle per tree.
    pub fn cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("CYCLETOROOT", axis, src, &sel);
    }

    /// `SUM-CYCLETOROOT`: root buffer position `q` receives the sum over
    /// the selected cycles of `src[q]` (`NULL` contributes nothing).
    pub fn sum_cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("SUM-CYCLETOROOT", axis, src, &sel);
    }

    /// `MIN-CYCLETOROOT`: per-position minimum over the selected cycles.
    pub fn min_cycle_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.stream_upward("MIN-CYCLETOROOT", axis, src, &sel);
    }

    /// `CYCLETOCYCLE(Vector, Source, Dest)` (§V.B composite 3).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otc::cycle_to_root`].
    pub fn cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.composite("CYCLETOCYCLE", |n| {
            n.cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `SUM-CYCLETOCYCLE`.
    pub fn sum_cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.composite("SUM-CYCLETOCYCLE", |n| {
            n.sum_cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `MIN-CYCLETOCYCLE`.
    pub fn min_cycle_to_cycle(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> bool + Sync,
    ) {
        self.composite("MIN-CYCLETOCYCLE", |n| {
            n.min_cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// One parallel per-BP compute phase (`f(i, j, q, value) → value` over
    /// one register), charged once.
    pub fn bp_phase(
        &mut self,
        cost: PhaseCost,
        mut f: impl FnMut(usize, usize, usize, &OtcRegsView<'_>) -> Option<(Reg, Option<Word>)>,
    ) {
        // Writes are staged until every BP has read, so `f` sees the state
        // from before the phase even for a register it also writes.
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        {
            let view = OtcRegsView { regs: &self.regs, m: self.m, cycle: self.cycle };
            let mut at = 0;
            for i in 0..self.m {
                for j in 0..self.m {
                    for q in 0..self.cycle {
                        if let Some((r, v)) = f(i, j, q, &view) {
                            staged.push((r, at, v));
                        }
                        at += 1;
                    }
                }
            }
        }
        for &(r, at, v) in &staged {
            self.regs[r.0][at] = v;
        }
        self.staged = staged;
        let t = self.phase_cost(cost);
        self.charge_compute("BP-PHASE", t);
    }

    /// Zeroes a register plane as one parallel bit phase (flag reset).
    pub fn clear_reg(&mut self, r: Reg) {
        self.bp_phase(PhaseCost::Bit, move |_, _, _, _| Some((r, Some(0))));
    }

    /// One cycle-local compute phase: `f(i, j, cycle_view)` may read and
    /// write all positions of its cycle; `cost` is charged once for the
    /// parallel phase (use `PhaseCost::Words(L)` for a full cycle scan).
    pub fn cycle_phase(
        &mut self,
        cost: PhaseCost,
        mut f: impl FnMut(usize, usize, &mut CycleRegs<'_>),
    ) {
        for i in 0..self.m {
            for j in 0..self.m {
                let base = (i * self.m + j) * self.cycle;
                let mut view = CycleRegs { regs: &mut self.regs, base, cycle: self.cycle };
                f(i, j, &mut view);
            }
        }
        let t = self.phase_cost(cost);
        self.charge_compute("CYCLE-PHASE", t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Otc {
        // m = 4 cycles per side, cycles of length 4 (problem size 16).
        Otc::for_sorting(16).unwrap()
    }

    #[test]
    fn dims_match_the_convention() {
        assert_eq!(Otc::dims_for(16).unwrap(), (4, 4));
        assert_eq!(Otc::dims_for(64).unwrap(), (16, 4));
        assert_eq!(Otc::dims_for(256).unwrap(), (32, 8));
        assert!(Otc::dims_for(6).is_err());
        assert!(Otc::dims_for(2).is_err());
    }

    #[test]
    fn construction_and_counts() {
        let n = net();
        assert_eq!(n.side(), 4);
        assert_eq!(n.cycle_len(), 4);
        assert_eq!(n.base_processors(), 64);
    }

    #[test]
    fn circulate_rotates_registers() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, q| Some(q as Word));
        n.circulate(&[a]);
        for q in 0..4 {
            assert_eq!(n.peek(a, 2, 3, q), Some(((q + 1) % 4) as Word));
        }
        assert_eq!(n.clock().stats().circulates, 1);
    }

    #[test]
    fn root_to_cycle_delivers_the_stream() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_row_root_buffers(&[
            vec![0, 1, 2, 3],
            vec![10, 11, 12, 13],
            vec![20, 21, 22, 23],
            vec![30, 31, 32, 33],
        ]);
        n.root_to_cycle(Axis::Rows, a, |_, j, _| j != 0);
        assert_eq!(n.peek(a, 1, 2, 3), Some(13));
        assert_eq!(n.peek(a, 1, 0, 3), None, "unselected cycle untouched");
    }

    #[test]
    fn cycle_to_root_with_per_position_selection() {
        let mut n = net();
        let a = n.alloc_reg("A");
        // Position q is supplied by cycle (q, j) of each column j.
        n.load_reg(a, |i, j, q| Some((100 * i + 10 * j + q) as Word));
        n.cycle_to_root(Axis::Cols, a, |i, _, q, _| i == q);
        let roots = n.roots(Axis::Cols);
        assert_eq!(roots[2][3], Some(300 + 20 + 3));
        assert_eq!(roots[0][0], Some(0));
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn cycle_to_root_detects_contention() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, _| Some(1));
        n.cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
    }

    #[test]
    fn sum_and_min_aggregate_per_position() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j, q| Some((i + j + q) as Word));
        n.sum_cycle_to_root(Axis::Rows, a, |_, _, _, _| true);
        // Row i, position q: Σ_j (i+j+q) = 4(i+q) + 6.
        assert_eq!(n.roots(Axis::Rows)[1][2], Some(4 * 3 + 6));
        n.min_cycle_to_root(Axis::Cols, a, |_, _, _, _| true);
        // Column j, position q: min_i (i+j+q) = j+q.
        assert_eq!(n.roots(Axis::Cols)[3][1], Some(4));
    }

    #[test]
    fn cycle_to_cycle_moves_streams_between_cycles() {
        let mut n = net();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, _, q| Some((10 * i + q) as Word));
        // Column trees: diagonal cycle (j,j) feeds all cycles of column j.
        n.cycle_to_cycle(Axis::Cols, a, |i, j, _, _| i == j, b, |_, _, _| true);
        for i in 0..4 {
            assert_eq!(n.peek(b, i, 2, 1), Some(21));
        }
    }

    #[test]
    fn cycle_phase_permits_cycle_local_shuffles() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, q| Some(q as Word));
        n.cycle_phase(PhaseCost::Words(4), |_, _, c| {
            let l = c.len();
            for q in 0..l {
                c.set(a, q, Some(((l - 1 - q) as Word) * 2));
            }
        });
        assert_eq!(n.peek(a, 0, 0, 0), Some(6));
        assert_eq!(n.peek(a, 0, 0, 3), Some(0));
    }

    #[test]
    fn stream_cost_is_theta_log_squared() {
        // One streamed op on the OTC ≈ one tree op on the same-size OTN:
        // both Θ(log² N).
        let mut ratios = Vec::new();
        for k in [4u32, 6, 8, 10] {
            let n = 1usize << k;
            let net = Otc::for_sorting(n).unwrap();
            ratios.push(net.stream_cost(false).as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 4.0, "{ratios:?}");
    }

    #[test]
    fn root_to_cycle_selectors_see_the_state_from_before_the_primitive() {
        for axis in [Axis::Rows, Axis::Cols] {
            let mut n = net();
            let a = n.alloc_reg("A");
            n.load_row_root_buffers(&vec![vec![1, 2, 3, 4]; 4]);
            let cols: Vec<Vec<Option<Word>>> = vec![vec![Some(5); 4]; 4];
            n.col_roots.clone_from(&cols);
            // Cycle (0, 0) is written first in any order; a selector that
            // saw that write would deselect every later cycle.
            n.root_to_cycle(axis, a, |_, _, v| v.get(a, 0, 0, 0).is_none());
            for i in 0..4 {
                for j in 0..4 {
                    assert!(n.peek(a, i, j, 3).is_some(), "{axis:?}: cycle ({i}, {j}) skipped");
                }
            }
        }
    }

    #[test]
    fn bp_phase_reads_the_old_value_of_a_register_it_writes() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, q| Some(q as Word));
        // Rotate A by one position in place: every read must see the
        // pre-phase value, including position 3 reading position 0.
        n.bp_phase(PhaseCost::Bit, |i, j, q, v| Some((a, v.get(a, i, j, (q + 1) % 4))));
        for q in 0..4 {
            assert_eq!(n.peek(a, 1, 2, q), Some(((q + 1) % 4) as Word));
        }
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn cycle_to_root_detects_contention_on_columns() {
        let mut n = net();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _, _| Some(1));
        n.cycle_to_root(Axis::Cols, a, |i, _, q, _| q == 2 && i >= 1);
    }

    #[test]
    fn degraded_first_keeps_the_lowest_selected_cycle_on_both_axes() {
        let mut n = net();
        n.install_fault_plan(FaultPlan::new(3));
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j, q| Some((100 * i + 10 * j + q) as Word));
        n.cycle_to_root(Axis::Rows, a, |_, j, _, _| j == 1 || j == 3);
        assert_eq!(n.roots(Axis::Rows)[2], vec![Some(210), Some(211), Some(212), Some(213)]);
        n.cycle_to_root(Axis::Cols, a, |i, _, _, _| i == 1 || i == 3);
        assert_eq!(n.roots(Axis::Cols)[2], vec![Some(120), Some(121), Some(122), Some(123)]);
    }

    #[test]
    fn column_reach_events_come_in_tree_then_leaf_order() {
        use orthotrees_obs::causal::ReachEvent;
        let mut n = net();
        let a = n.alloc_reg("A");
        let mut rec = Recorder::new();
        rec.enable_reach();
        n.install_recorder(rec);
        n.root_to_cycle(Axis::Cols, a, |i, j, _| i != j);
        // Position q < 3 of tree t comes from leaf (t + q + 1) mod 4, so a
        // first-appearance order would differ from leaf order.
        n.sum_cycle_to_root(Axis::Cols, a, |i, j, q, _| q < 3 && i == (j + q + 1) % 4);
        let cell = |leaf: usize| ReachCell::Reg { reg: a.index() as u64, leaf: leaf as u64 };
        let mut want = Vec::new();
        for (round, down) in [(1, true), (2, false)] {
            for t in 0..4 {
                for l in (0..4).filter(|&l| l != t) {
                    let (from, to) =
                        if down { (ReachCell::Root, cell(l)) } else { (cell(l), ReachCell::Root) };
                    want.push(ReachEvent { round, tree: t as u64, from, to });
                }
            }
        }
        let rec = n.take_recorder().unwrap();
        assert_eq!(rec.reach_events(), want.as_slice());
    }

    #[test]
    fn bp_phase_writes_through_the_view() {
        let mut n = net();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, j, q| Some((i + j + q) as Word));
        n.bp_phase(PhaseCost::Add, |i, j, q, v| v.get(a, i, j, q).map(|x| (b, Some(x * 2))));
        assert_eq!(n.peek(b, 1, 2, 3), Some(12));
    }
}
