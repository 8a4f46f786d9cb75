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

use crate::bitset::{self, Plane};
use crate::dflow::FlowShape;
use crate::primitive::{self, Acc, Monoid, ParallelPolicy, PrimitiveSpec};
use crate::resilience::{self, FaultPlan, FaultReport, FaultState, FaultStats};
use crate::select::{self, Pick};
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
    pub(crate) regs: &'a [Plane],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) cycle: usize,
    /// `log₂` of `rows` and `cols` (both powers of two).
    shifts: [u32; 2],
    topology: PhantomData<T>,
}

impl<T: Topology> View<'_, T> {
    /// Register `r` at base processor `q` of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or any coordinate is out of range.
    #[inline]
    pub(crate) fn word(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        // All three extents are powers of two: one test covers them. The
        // cycle is a constant 1 on the OTN.
        let [ishift, jshift] = self.shifts;
        let cshift = T::cycle(self.cycle).trailing_zeros();
        if (i >> ishift | j >> jshift | q >> cshift) != 0 {
            out_of_range([i, j, q], [self.rows, self.cols, self.cycle]);
        }
        self.regs[r.0].get(((i << jshift | j) << cshift) | q)
    }
}

/// The panic of a register read at `at` outside a grid of `extent`, kept
/// out of line so the reads inline.
#[cold]
#[inline(never)]
fn out_of_range(at: [usize; 3], extent: [usize; 3]) -> ! {
    let ([i, j, q], [rows, cols, cycle]) = (at, extent);
    panic!(
        "register read at ({i}, {j}, {q}) out of range for a {rows} × {cols} grid of \
         {cycle}-position cells"
    )
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
    /// One plane per register — values plus a validity bitset, flat
    /// `(i · cols + j) · cycle + q` order.
    pub(crate) regs: Vec<Plane>,
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
    /// How a `bool` selector's mask is filled.
    parallel: ParallelPolicy,
    /// Per [`Axis::index`], the cell positions still wired to their tree
    /// of that axis under the installed fault plan, as a bitset; empty
    /// when no leaf of the axis is dark.
    live: [Vec<u64>; 2],
    /// Scratch selection mask of the running primitive, one bit per cell
    /// position; cleared and reused.
    mask: Vec<u64>,
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
            live: [Vec::new(), Vec::new()],
            mask: Vec::new(),
            accs: Vec::new(),
            staged: Vec::new(),
            topology: PhantomData,
        }
    }

    /// Sets how each primitive fills a `bool` selector's mask (see
    /// [`ParallelPolicy`]; [`Sel`](crate::Sel) shapes are filled a word at
    /// a time either way). Both policies are bit- and clock-identical —
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
        self.regs.push(Plane::new(self.cells()));
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

    /// Base processors in the grid: one bit of every mask per cell
    /// position.
    #[inline]
    pub(crate) fn cells(&self) -> usize {
        self.rows * self.cols * self.cycle
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
        let (rows, cols, cycle) = (self.rows, self.cols, self.cycle);
        View {
            regs: &self.regs,
            rows,
            cols,
            cycle,
            shifts: [rows, cols].map(usize::trailing_zeros),
            topology: PhantomData,
        }
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
        let (cells, cols, cycle) = (self.cells(), self.cols, self.cycle);
        for (live, axis) in self.live.iter_mut().zip([Axis::Rows, Axis::Cols]) {
            live.clear();
            let mut dark = state.report.dark.iter().filter(|d| d.axis == axis).peekable();
            if dark.peek().is_some() {
                live.resize(bitset::words(cells), 0);
                bitset::fill(live, cells);
                for d in dark {
                    let (i, j) = axis.coords(d.tree, d.leaf);
                    bitset::assign_range(live, (i * cols + j) * cycle, cycle, false);
                }
            }
        }
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

    /// Fills the scratch mask from `sel` — a [`Sel`](crate::Sel) shape a
    /// word at a time, a `bool` selector at every cell position when
    /// `PER_POSITION` (otherwise once per cell, `q = 0`) — ANDs out the
    /// dark leaves of `axis`, and hands the mask out; the caller puts it
    /// back when done. Every selector sees the register state from before
    /// the primitive (gather before scatter).
    fn select<P: Pick, const PER_POSITION: bool>(
        &mut self,
        axis: Axis,
        sel: &(impl Fn(usize, usize, usize, &View<'_, T>) -> P + Sync),
    ) -> Vec<u64> {
        let mut mask = std::mem::take(&mut self.mask);
        mask.clear();
        mask.resize(bitset::words(self.cells()), 0);
        select::fill(sel, &self.view(), self.parallel, PER_POSITION, &mut mask);
        let live = &self.live[axis.index()];
        if !live.is_empty() {
            for (m, l) in mask.iter_mut().zip(live) {
                *m &= l;
            }
        }
        mask
    }

    /// Opens a reach round and records one event per cell with a selected
    /// position (`selected(cell)`, cells in row-major order), in
    /// `(tree, leaf)` order — one per cell, not per stream position, as the
    /// dataflow program abstracts a whole cycle as one leaf cell.
    /// `edge(leaf)` names its `(from, to)` cells. Does nothing unless reach
    /// tracing is on.
    fn emit_reach(
        &mut self,
        axis: Axis,
        selected: impl Fn(usize) -> bool,
        edge: impl Fn(u64) -> (ReachCell, ReachCell),
    ) {
        let (trees, leaves, cols) = (self.trees(axis), self.leaves(axis), self.cols);
        let Some(rec) = self.recorder.as_mut().filter(|r| r.reach_enabled()) else { return };
        rec.reach_round_begin();
        for t in 0..trees {
            for l in 0..leaves {
                let (i, j) = axis.coords(t, l);
                if selected(i * cols + j) {
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
    /// are keyed by site and round, so the write order changes no word. A
    /// fault-free broadcast to every cell writes whole rows.
    pub(crate) fn downward<P: Pick>(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &View<'_, T>) -> P + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(T::DOWN),
            "{} is not a {:?}-shaped primitive",
            spec.name,
            T::DOWN
        );
        self.begin_phase(spec.name);
        let mask = self.select::<P, false>(axis, &per_cell(sel));
        let (cycle, width) = (self.cycle(), self.model.word_bits);
        let mut attempts = 0;
        if self.fault.is_none() && bitset::all_set(&mask, self.cells()) {
            self.broadcast_all(axis, dest);
        } else {
            self.begin_fault_round();
            // Column counts and cycle lengths are powers of two.
            let (cols, shift, jshift) =
                (self.cols, cycle.trailing_zeros(), self.cols.trailing_zeros());
            let roots = &self.roots[axis.index()];
            let mut fault = self.fault.as_mut();
            self.regs[dest.0].scatter(&mask, |k| {
                let cell = k >> shift;
                let q = k & (cycle - 1);
                let (t, l) = axis.coords(cell >> jshift, cell & (cols - 1));
                let word = roots[t * cycle + q];
                match &mut fault {
                    Some(f) => {
                        let site = resilience::site(axis, t, l * cycle + q);
                        let (v, att) = f.transit(site, word, width);
                        attempts = attempts.max(att);
                        v
                    }
                    None => word,
                }
            });
        }
        self.emit_reach(
            axis,
            |c| bitset::test(&mask, c * cycle),
            |leaf| (ReachCell::Root, ReachCell::Reg { reg: dest.0 as u64, leaf }),
        );
        self.mask = mask;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// Writes every cell of `dest` from its tree's root words, fault-free,
    /// in one pass: row `i`'s first cell takes row tree `i`'s stream, or
    /// the first row takes the column trees' streams side by side, and
    /// doubling copies repeat it across the row or down the rows.
    fn broadcast_all(&mut self, axis: Axis, dest: Reg) {
        let (rows, cols, cycle) = (self.rows, self.cols, self.cycle());
        let roots = &self.roots[axis.index()];
        let stream = |w: &Option<Word>| w.unwrap_or(0) as u64;
        // Appends `buf[start..]` to itself until it is `len` long (`len`
        // is a power-of-two multiple of what is there).
        let repeat = |buf: &mut Vec<u64>, start: usize, len: usize| {
            while buf.len() - start < len {
                buf.extend_from_within(start..);
            }
        };
        let cells = rows * cols * cycle;
        self.regs[dest.0].rewrite(
            |buf| match axis {
                Axis::Rows => {
                    for row in roots.chunks(cycle) {
                        let start = buf.len();
                        buf.extend(row.iter().map(stream));
                        repeat(buf, start, cols * cycle);
                    }
                }
                Axis::Cols => {
                    let start = buf.len();
                    buf.extend(roots.iter().map(stream));
                    repeat(buf, start, cells);
                }
            },
            |valid| {
                if roots.iter().all(Option::is_some) {
                    bitset::fill(valid, cells);
                } else {
                    for k in 0..cells {
                        let (cell, q) = (k / cycle, k % cycle);
                        let t = axis.coords(cell / cols, cell % cols).0;
                        bitset::assign(valid, k, roots[t * cycle + q].is_some());
                    }
                }
            },
        );
    }

    /// The upward executor (`LEAFTOROOT`, `CYCLETOROOT` and the
    /// aggregates): fills the selection mask per cell position, folds the
    /// selected words in memory order through `spec`'s combine
    /// [`Monoid`] into one accumulator per tree and stream position (each
    /// still sees its leaves in increasing order, so a degraded `First`
    /// keeps the lowest leaf), then transits each root-bound word into the
    /// root port in place and charges the registry cost. A `Count` of the
    /// OTN's row trees is a popcount per row.
    pub(crate) fn upward<P: Pick>(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, usize, &View<'_, T>) -> P + Sync),
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
        let mask = self.select::<P, true>(axis, sel);
        let (leaves, cols, cycle, width) =
            (self.leaves(axis), self.cols, self.cycle(), self.model.word_bits);
        // Cycle lengths are powers of two (1 on the OTN, where the shifts
        // fold away), so position `k` is cell `k >> shift`.
        let (shift, jshift) = (cycle.trailing_zeros(), cols.trailing_zeros());
        let degraded = self.fault.is_some();
        let mut accs = std::mem::take(&mut self.accs);
        accs.clear();
        accs.resize(self.trees(axis) * cycle, Acc::new(monoid));
        if monoid == Monoid::Count && axis == Axis::Rows && cycle == 1 {
            for (i, acc) in accs.iter_mut().enumerate() {
                *acc = Acc::Count(bitset::count_range(&mask, i * cols, cols) as Word);
            }
        } else {
            self.regs[src.0].gather(&mask, |k, word| {
                let cell = k >> shift;
                let (t, _) = axis.coords(cell >> jshift, cell & (cols - 1));
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
            });
        }
        self.emit_reach(
            axis,
            |c| bitset::count_range(&mask, c * cycle, cycle) > 0,
            |leaf| (ReachCell::Reg { reg: src.0 as u64, leaf }, ReachCell::Root),
        );
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

/// A per-cell selector as a per-position one that ignores the position.
pub(crate) fn per_cell<T: Topology, P: Pick>(
    sel: &(impl Fn(usize, usize, &View<'_, T>) -> P + Sync),
) -> impl Fn(usize, usize, usize, &View<'_, T>) -> P + Sync + '_ {
    move |i, j, _, view| sel(i, j, view)
}
