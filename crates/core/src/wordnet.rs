//! The word-level network core shared by the OTN and the OTC.
//!
//! The paper defines the orthogonal tree cycles as an orthogonal trees
//! network whose base processors are `log N`-cycles (§V). [`WordNet`] is
//! that one network: a `rows × cols` grid of *cells* of `cycle` base
//! processors each, one complete binary tree per row and per column of
//! cells, and a root port of `cycle` words per tree. The OTN
//! ([`Otn`](crate::otn::Otn) = `WordNet<Tree>`) is the `cycle = 1` case;
//! the OTC ([`Otc`](crate::otc::Otc) = `WordNet<Cycles>`) streams a whole
//! cycle's worth of words through each tree operation.
//!
//! The core owns the state — clock, cost model, register planes, root
//! ports, fault state, observers, scratch buffers — and everything both
//! networks do the same way: one downward and one upward executor, the
//! registry-derived charges, the fault overhead, the observer hooks and
//! checkpointing ([`crate::checkpoint`]). What differs is supplied by the
//! zero-sized [`Topology`] markers; each network's own primitives (the
//! paper's names and selector shapes, and the topology-specific phases)
//! are thin `impl` blocks in [`otn`](crate::otn) and [`otc`](crate::otc).

use crate::dflow::FlowShape;
use crate::primitive::{self, Acc, ParallelPolicy, PrimitiveSpec};
use crate::resilience::{self, FaultPlan, FaultReport, FaultState, FaultStats};
use crate::word::Word;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::{causal::ReachCell, Recorder};
use orthotrees_vlsi::{BitTime, Clock, CostKind, CostModel};
use std::marker::PhantomData;

/// What distinguishes the two networks inside the shared core. Implemented
/// by the zero-sized [`Tree`] and [`Cycles`], so every executor is compiled
/// once per network and the OTN's run with the cycle length folded to 1.
pub trait Topology: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// Telemetry counter of clock charges (`otn.charges` / `otc.charges`).
    const CHARGES: &'static str;
    /// Telemetry sketch of the charged magnitudes (`….charge_tau`).
    const CHARGE_TAU: &'static str;
    /// The dataflow shape the downward executor implements.
    const DOWN: FlowShape;
    /// The dataflow shape the upward executor implements.
    const UP: FlowShape;

    /// The base processors per cell, given the stored cycle length.
    fn cycle(stored: usize) -> usize;

    /// The leaf slot of the fault site of the root-bound word at stream
    /// position `q` of a tree with `leaves` leaves.
    fn root_site(leaves: usize, cycle: usize, q: usize) -> usize;
}

/// The orthogonal trees network's topology: one base processor per cell.
#[derive(Clone, Copy, Debug)]
pub struct Tree;

/// The orthogonal tree cycles' topology: one cycle of base processors per
/// cell.
#[derive(Clone, Copy, Debug)]
pub struct Cycles;

impl Topology for Tree {
    const CHARGES: &'static str = "otn.charges";
    const CHARGE_TAU: &'static str = "otn.charge_tau";
    const DOWN: FlowShape = FlowShape::Down;
    const UP: FlowShape = FlowShape::Up;

    #[inline]
    fn cycle(_: usize) -> usize {
        1
    }

    #[inline]
    fn root_site(_: usize, _: usize, _: usize) -> usize {
        resilience::TREE_SITE
    }
}

impl Topology for Cycles {
    const CHARGES: &'static str = "otc.charges";
    const CHARGE_TAU: &'static str = "otc.charge_tau";
    const DOWN: FlowShape = FlowShape::StreamDown;
    const UP: FlowShape = FlowShape::StreamUp;

    #[inline]
    fn cycle(stored: usize) -> usize {
        stored
    }

    // Root-bound slots sit above the per-cycle broadcast slot range
    // (`leaves · cycle`), keeping sites injective.
    #[inline]
    fn root_site(leaves: usize, cycle: usize, q: usize) -> usize {
        leaves * cycle + q
    }
}

/// Handle to a named register plane allocated with [`WordNet::alloc_reg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub(crate) usize);

impl Reg {
    /// The plane's index in allocation order — the `reg` coordinate of
    /// reach events and the key into [`WordNet::reg_names`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which family of trees an operation runs on.
///
/// The paper writes `ROOTTOLEAF(row(i), …)` / `…(column(i), …)`; because a
/// tree operation costs the same whether one tree or all parallel trees of a
/// family take part (the hardware is there either way), the primitives here
/// always run a whole family in parallel — operating on a single row is the
/// special case of a selector that ignores the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The row trees: one tree per row, leaves indexed by column.
    Rows,
    /// The column trees: one tree per column, leaves indexed by row.
    Cols,
}

impl Axis {
    /// The opposite family.
    #[must_use]
    pub fn flip(self) -> Axis {
        match self {
            Axis::Rows => Axis::Cols,
            Axis::Cols => Axis::Rows,
        }
    }

    /// The family's slot in per-axis arrays (rows 0, columns 1).
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Axis::Rows => 0,
            Axis::Cols => 1,
        }
    }

    /// Grid coordinates of leaf `leaf` of tree `tree`. The map is its own
    /// inverse: `coords(row, col)` is `(tree, leaf)`.
    #[inline]
    pub(crate) fn coords(self, tree: usize, leaf: usize) -> (usize, usize) {
        match self {
            Axis::Rows => (tree, leaf),
            Axis::Cols => (leaf, tree),
        }
    }
}

/// Cost class of a parallel base-processor compute phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseCost {
    /// Single-bit logic (flag set/test).
    Bit,
    /// One bit-serial comparison of two words.
    Compare,
    /// One bit-serial addition.
    Add,
    /// One serial-pipeline multiplication (refs \[6\], \[13\]).
    Multiply,
    /// `k` word-times (compound local step).
    Words(u64),
}

/// Read-only view of all register planes, handed to selectors so they can
/// express the paper's register predicates (e.g. SORT-OTN step 5's
/// `j : R(j, i) = i`). Its `get` takes `(row, col)` on the OTN
/// ([`RegsView`](crate::otn::RegsView)) and `(i, j, q)` on the OTC
/// ([`OtcRegsView`](crate::otc::OtcRegsView)).
pub struct View<'a, T> {
    pub(crate) regs: &'a [Vec<Option<Word>>],
    pub(crate) cols: usize,
    pub(crate) cycle: usize,
    topology: PhantomData<T>,
}

/// The word-level network: see the [module documentation](self).
#[derive(Clone, Debug)]
pub struct WordNet<T: Topology> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) cycle: usize,
    pub(crate) model: CostModel,
    pub(crate) pitch: u64,
    pub(crate) clock: Clock,
    /// One flat plane per register, `(i · cols + j) · cycle + q` order.
    pub(crate) regs: Vec<Vec<Option<Word>>>,
    pub(crate) reg_names: Vec<&'static str>,
    /// Root ports per [`Axis::index`], flat `tree · cycle + q` order.
    pub(crate) roots: [Vec<Option<Word>>; 2],
    /// Installed fault scenario; `None` keeps every primitive on the exact
    /// fault-free path.
    pub(crate) fault: Option<FaultState>,
    /// Installed observability recorder; `None` (the default) keeps every
    /// primitive free of recording code. Recording never changes a
    /// simulated bit, time, or output.
    pub(crate) recorder: Option<Recorder>,
    /// Installed streaming telemetry bus; same contract as `recorder`.
    telemetry: Option<Telemetry>,
    /// How the selection mask of each primitive is filled.
    parallel: ParallelPolicy,
    /// Scratch selection mask of the running primitive, row-major over the
    /// cells (upward: over every cell position); cleared and reused.
    mask: Vec<bool>,
    /// Scratch per-(tree, stream position) folds of the running upward
    /// primitive; reused.
    accs: Vec<Acc>,
    /// Scratch `(register, cell, value)` writes a staged compute phase
    /// holds until every base processor has read; reused.
    pub(crate) staged: Vec<(Reg, usize, Option<Word>)>,
    topology: PhantomData<T>,
}

impl<T: Topology> WordNet<T> {
    /// A network of `rows × cols` cells of `cycle` base processors with
    /// empty registers and ports (dimensions validated by the caller).
    pub(crate) fn build(
        rows: usize,
        cols: usize,
        cycle: usize,
        model: CostModel,
        pitch: u64,
    ) -> Self {
        WordNet {
            rows,
            cols,
            cycle,
            model,
            pitch,
            clock: Clock::new(),
            regs: Vec::new(),
            reg_names: Vec::new(),
            roots: [vec![None; rows * cycle], vec![None; cols * cycle]],
            fault: None,
            recorder: None,
            telemetry: None,
            parallel: ParallelPolicy::default(),
            mask: Vec::new(),
            accs: Vec::new(),
            staged: Vec::new(),
            topology: PhantomData,
        }
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

    /// Rows of cells (base processors on the OTN, cycles on the OTC).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of cells.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Base processors per cell: 1 on the OTN, the cycle length on the OTC.
    #[inline]
    pub(crate) fn cycle(&self) -> usize {
        T::cycle(self.cycle)
    }

    /// The active cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The leaf (cell) pitch used for wire pricing.
    pub fn pitch(&self) -> u64 {
        self.pitch
    }

    /// The simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Resets the clock and statistics (registers keep their contents).
    pub fn reset_clock(&mut self) {
        self.clock.reset();
    }

    /// Mutable clock access for primitive implementations in sibling
    /// modules.
    pub(crate) fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Runs `f` and returns its result together with the elapsed simulated
    /// time.
    pub fn elapsed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, BitTime) {
        let before = self.clock.now();
        let r = f(self);
        (r, self.clock.now() - before)
    }

    /// Allocates a fresh register plane (one word per base processor,
    /// initially all `NULL`).
    pub fn alloc_reg(&mut self, name: &'static str) -> Reg {
        self.regs.push(vec![None; self.rows * self.cols * self.cycle]);
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

    /// Number of leaves of one tree of `axis`.
    pub fn leaves(&self, axis: Axis) -> usize {
        match axis {
            Axis::Rows => self.cols,
            Axis::Cols => self.rows,
        }
    }

    /// Number of trees of `axis`.
    pub fn trees(&self, axis: Axis) -> usize {
        match axis {
            Axis::Rows => self.rows,
            Axis::Cols => self.cols,
        }
    }

    /// The root words of `axis`, flat `tree · cycle + q`.
    pub(crate) fn root_words(&self, axis: Axis) -> &[Option<Word>] {
        &self.roots[axis.index()]
    }

    /// The read-only register view selectors and staged phases see.
    pub(crate) fn view(&self) -> View<'_, T> {
        View { regs: &self.regs, cols: self.cols, cycle: self.cycle, topology: PhantomData }
    }

    /// Advances the clock by `expected` while recording its causal
    /// decomposition `parts` (see [`crate::attribution`]).
    pub(crate) fn seg_charge(&mut self, expected: BitTime, parts: &[crate::attribution::Part]) {
        crate::attribution::seg_charge(&mut self.clock, &mut self.recorder, expected, parts);
        if let Some(tel) = &mut self.telemetry {
            tel.count(T::CHARGES, 1);
            tel.observe(T::CHARGE_TAU, expected.get());
            tel.tick(self.clock.now());
        }
    }

    // ------------------------------------------------------------------
    // Observability (see [`orthotrees_obs`]). Every primitive wraps its
    // clock advances in a span named after the paper's primitive, so the
    // recorder's per-phase self times sum exactly to the elapsed time.
    // ------------------------------------------------------------------

    /// Installs an observability [`Recorder`]: subsequent primitives open
    /// spans named after the paper's operations (`ROOTTOLEAF`,
    /// `CYCLETOROOT`, …) on the simulated clock. Recording changes no
    /// simulated bit, time, or output (bit-identity, enforced by tests).
    pub fn install_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder (export after a run).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Installs a streaming [`Telemetry`] bus: every subsequent clock
    /// charge is counted (`otn.charges` / `otc.charges`), its magnitude fed
    /// to the `….charge_tau` quantile sketch, and periodic counter
    /// snapshots are cut on the simulated clock. Metering changes no
    /// simulated bit, time, or output (bit-identity, enforced by the
    /// telemetry suite).
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
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
    /// without a recorder). Spans nest; close with [`WordNet::end_phase`].
    /// Algorithms use this to group primitive spans under procedure-level
    /// phases (e.g. `SORT-OTN`).
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
    // [`crate::resilience`]). An installed *empty* plan changes nothing.
    // The trees have one leaf per cell, so on the OTC a dark leaf is a
    // whole cycle cut from one of its trees.
    // ------------------------------------------------------------------

    /// Installs a deterministic fault scenario for all subsequent
    /// primitives and returns the degradation verdicts for its dead IPs:
    /// which subtrees were rerouted through their sibling, and which leaves
    /// went dark.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> &FaultReport {
        let state = FaultState::new(plan, self.rows, self.cols, self.cols, self.rows);
        &self.fault.insert(state).report
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

    /// Opens a new transit round for the next faultable primitive.
    fn begin_fault_round(&mut self) {
        if let Some(f) = &mut self.fault {
            f.next_round();
        }
    }

    /// Charges the time overhead a faultable primitive on `axis` incurred:
    /// `attempts` retransmission rounds of `base` (the registry-priced
    /// cost the primitive just charged, so charge and overhead can never
    /// disagree), plus the lateral crossing penalty when the axis has
    /// rerouted subtrees.
    fn charge_fault_overhead(&mut self, axis: Axis, attempts: u32, base: BitTime) {
        let Some(f) = &self.fault else { return };
        let span = f.reroute_span[axis.index()];
        let mut extra = base * u64::from(attempts);
        if span > 0 {
            // Detour through the sibling subtree: down from the common
            // parent and across, like a leaf-to-leaf hop within the
            // doubled subtree.
            extra += self.model.tree_leaf_to_leaf(2 * span, self.pitch);
        }
        if extra > BitTime::ZERO {
            // Attributed as its own (nested) phase so a faulty run's
            // slowdown is visible in the time-attribution table; causally
            // it is pure waiting (retransmission rounds / detour latency).
            self.begin_phase(primitive::spec_for("FAULT-OVERHEAD").name);
            self.seg_charge(extra, &crate::attribution::wait_parts(extra));
            self.end_phase();
        }
        if let Some(rec) = &mut self.recorder {
            rec.count("fault.retry_rounds", u64::from(attempts));
        }
    }

    // ------------------------------------------------------------------
    // The shared descriptor-driven executors. Every §II.B and §V.B
    // primitive is a thin call into these: selection mask (filled over
    // row bands under ParallelPolicy::Threads) → fault round → memory-order
    // transits, writes or folds → one registry-derived charge.
    // ------------------------------------------------------------------

    /// Charges one `kind` operation over trees of `leaves` leaves: the
    /// clock charge, its causal segment decomposition and the matching
    /// operation statistics (including the `L − 1` pipelined circulate
    /// hops of a stream) all derive from the same [`CostKind`], so they can
    /// never disagree. Returns the charged time.
    pub(crate) fn charge_kind(&mut self, kind: CostKind, leaves: usize) -> BitTime {
        let cycle = self.cycle();
        let t = self.model.primitive_cost(kind, leaves, self.pitch, cycle);
        let parts =
            crate::attribution::primitive_parts(&self.model, kind, leaves, self.pitch, cycle);
        self.seg_charge(t, &parts);
        let stats = self.clock.stats_mut();
        match kind {
            CostKind::Broadcast | CostKind::StreamBroadcast => stats.broadcasts += 1,
            CostKind::Send | CostKind::StreamSend => stats.sends += 1,
            CostKind::Aggregate | CostKind::StreamAggregate => stats.aggregates += 1,
            CostKind::CycleStep => stats.circulates += 1,
        }
        if kind.is_stream() {
            stats.circulates += cycle as u64 - 1;
        }
        t
    }

    /// Charges `spec`'s registry cost kind once for the whole tree family
    /// of `axis`, then the fault overhead of `attempts` retries.
    fn charge_primitive(&mut self, spec: &PrimitiveSpec, axis: Axis, attempts: u32) {
        // Invariant: executors only charge registry primitives that declare
        // a cost kind (the registry coverage tests pin this statically), so
        // a `None` is a registry-definition bug, not a runtime state.
        let kind = spec.cost.unwrap_or_else(|| panic!("{} declares no cost kind", spec.name));
        let t = self.charge_kind(kind, self.leaves(axis));
        self.charge_fault_overhead(axis, attempts, t);
    }

    /// Evaluates `sel(i, j, q) && !dark` into the scratch mask, row-major
    /// over the cells and — when `PER_POSITION` — over each cell's stream
    /// positions (otherwise once per cell, `q = 0`), and hands the mask
    /// out; the caller puts it back when done. Every selector sees the
    /// register state from before the primitive (gather before scatter).
    fn select<const PER_POSITION: bool>(
        &mut self,
        axis: Axis,
        sel: &(impl Fn(usize, usize, usize, &View<'_, T>) -> bool + Sync),
    ) -> Vec<bool> {
        let mut mask = std::mem::take(&mut self.mask);
        let stride = if PER_POSITION { self.cycle() } else { 1 };
        let view = self.view();
        let fault = self.fault.as_ref();
        primitive::fill_mask(self.parallel, &mut mask, self.rows, self.cols * stride, |i, out| {
            // A power of two, and a constant 1 on the OTN.
            let stride = if PER_POSITION { T::cycle(view.cycle) } else { 1 };
            let shift = stride.trailing_zeros();
            for (k, on) in out.iter_mut().enumerate() {
                let j = k >> shift;
                let (t, l) = axis.coords(i, j);
                *on = sel(i, j, k & (stride - 1), &view)
                    && !fault.is_some_and(|f| f.is_dark(axis, t, l));
            }
        });
        mask
    }

    /// Opens a reach round and records one event per cell with a selected
    /// position in `mask` (`stride` positions per cell), in `(tree, leaf)`
    /// order — one per cell, not per stream position, as the dataflow
    /// program abstracts a whole cycle as one leaf cell. `edge(leaf)` names
    /// its `(from, to)` cells. Does nothing unless reach tracing is on.
    fn emit_reach(
        &mut self,
        axis: Axis,
        mask: &[bool],
        stride: usize,
        edge: impl Fn(u64) -> (ReachCell, ReachCell),
    ) {
        let (trees, leaves, cols) = (self.trees(axis), self.leaves(axis), self.cols);
        let Some(rec) = self.recorder.as_mut().filter(|r| r.reach_enabled()) else { return };
        rec.reach_round_begin();
        for t in 0..trees {
            for l in 0..leaves {
                let (i, j) = axis.coords(t, l);
                if mask[(i * cols + j) * stride..][..stride].contains(&true) {
                    let (from, to) = edge(l as u64);
                    rec.reach(t as u64, from, to);
                }
            }
        }
    }

    /// The downward executor (`ROOTTOLEAF`, `ROOTTOCYCLE`): fills the
    /// selection mask per cell, then transits and writes the root words of
    /// each selected cell's tree — stream position `q` to base processor
    /// `q` — in memory order, then charges the registry cost. Fault draws
    /// are keyed by site and round, so the write order changes no word.
    pub(crate) fn downward(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &View<'_, T>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(T::DOWN),
            "{} is not a {:?}-shaped primitive",
            spec.name,
            T::DOWN
        );
        self.begin_phase(spec.name);
        let mask = self.select::<false>(axis, &|i, j, _, view| sel(i, j, view));
        self.begin_fault_round();
        let (cols, cycle, width) = (self.cols, self.cycle(), self.model.word_bits);
        let roots = &self.roots[axis.index()];
        let mut fault = self.fault.as_mut();
        let plane = self.regs[dest.0].as_mut_slice();
        let mut attempts = 0;
        for (i, (on_row, row)) in mask.chunks(cols).zip(plane.chunks_mut(cols * cycle)).enumerate()
        {
            for (j, (_, block)) in on_row
                .iter()
                .zip(row.chunks_exact_mut(cycle))
                .enumerate()
                .filter(|(_, (&on, _))| on)
            {
                let (t, l) = axis.coords(i, j);
                for (q, cell) in block.iter_mut().enumerate() {
                    let word = roots[t * cycle + q];
                    *cell = match &mut fault {
                        Some(f) => {
                            let site = resilience::site(axis, t, l * cycle + q);
                            let (v, att) = f.transit(site, word, width);
                            attempts = attempts.max(att);
                            v
                        }
                        None => word,
                    };
                }
            }
        }
        self.emit_reach(axis, &mask, 1, |leaf| {
            (ReachCell::Root, ReachCell::Reg { reg: dest.0 as u64, leaf })
        });
        self.mask = mask;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// The upward executor (`LEAFTOROOT`, `CYCLETOROOT` and the
    /// aggregates): fills the selection mask per cell position, folds the
    /// selected words in memory order through `spec`'s combine
    /// [`Monoid`](crate::primitive::Monoid) into one accumulator per tree
    /// and stream position (each still sees its leaves in increasing
    /// order, so a degraded `First` keeps the lowest leaf), then transits
    /// each root-bound word into the root port in place and charges the
    /// registry cost.
    pub(crate) fn upward(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, usize, &View<'_, T>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        // Invariant: aggregate executors are only called with registry
        // primitives that declare a combine monoid (pinned by the registry
        // coverage tests) — a `None` is a registry-definition bug.
        let monoid =
            spec.combine.unwrap_or_else(|| panic!("{} declares no combine monoid", spec.name));
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(T::UP),
            "{} is not a {:?}-shaped primitive",
            spec.name,
            T::UP
        );
        self.begin_phase(spec.name);
        let mask = self.select::<true>(axis, sel);
        let (leaves, cols, cycle, width) =
            (self.leaves(axis), self.cols, self.cycle(), self.model.word_bits);
        // Cycle lengths are powers of two (1 on the OTN, where the shifts
        // fold away), so position `k` of a row is cell `k >> shift`.
        let shift = cycle.trailing_zeros();
        let degraded = self.fault.is_some();
        let mut accs = std::mem::take(&mut self.accs);
        accs.clear();
        accs.resize(self.trees(axis) * cycle, Acc::new(monoid));
        let plane = self.regs[src.0].as_slice();
        for (i, (on_row, row)) in
            mask.chunks(cols * cycle).zip(plane.chunks(cols * cycle)).enumerate()
        {
            for (k, (_, &word)) in on_row.iter().zip(row).enumerate().filter(|(_, (&on, _))| on) {
                let (t, _) = axis.coords(i, k >> shift);
                let q = k & (cycle - 1);
                // On First contention under faults, the fold keeps the
                // first word (corrupted ranks legitimately collide); in a
                // healthy net it is an invariant violation.
                accs[t << shift | q].fold(word, || {
                    assert!(
                        degraded,
                        "{} contention: tree {t} of {axis:?}, position {q}, selected twice \
                         (invariant: the Selector specifies one leaf per tree and position)",
                        spec.name
                    );
                });
            }
        }
        self.emit_reach(axis, &mask, cycle, |leaf| {
            (ReachCell::Reg { reg: src.0 as u64, leaf }, ReachCell::Root)
        });
        self.mask = mask;
        self.begin_fault_round();
        let mut attempts = 0;
        for (k, (slot, acc)) in self.roots[axis.index()].iter_mut().zip(&accs).enumerate() {
            *slot = match &mut self.fault {
                Some(f) => {
                    let (t, q) = (k >> shift, k & (cycle - 1));
                    let site = resilience::site(axis, t, T::root_site(leaves, cycle, q));
                    let (v, att) = f.transit(site, acc.finish(), width);
                    attempts = attempts.max(att);
                    v
                }
                None => acc.finish(),
            };
        }
        self.accs = accs;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// The composite executor: opens `name`'s enclosing registry span and
    /// runs its two legs (each charges itself).
    pub(crate) fn composite(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let spec = primitive::spec_for(name);
        debug_assert!(spec.composite_of.is_some(), "{} is not a composite", spec.name);
        self.begin_phase(spec.name);
        f(self);
        self.end_phase();
    }

    /// The model price of a [`PhaseCost`] class.
    pub(crate) fn phase_cost(&self, cost: PhaseCost) -> BitTime {
        match cost {
            PhaseCost::Bit => self.model.bit_op(),
            PhaseCost::Compare => self.model.compare(),
            PhaseCost::Add => self.model.add(),
            PhaseCost::Multiply => self.model.multiply(),
            PhaseCost::Words(k) => self.model.compare() * k,
        }
    }

    /// Charges a local compute phase of class `cost` under `name`'s
    /// registry span.
    pub(crate) fn charge_compute(&mut self, name: &str, cost: PhaseCost) {
        let t = self.phase_cost(cost);
        let spec = primitive::spec_for(name);
        self.begin_phase(spec.name);
        self.seg_charge(t, &crate::attribution::compute_parts(t));
        self.end_phase();
        self.clock.stats_mut().leaf_ops += 1;
    }
}
