//! The orthogonal trees network (paper §II).
//!
//! An `(R × C)`-OTN is a matrix of *base processors* (BPs) in which every
//! row and every column of BPs forms the leaves of a complete binary tree of
//! *internal processors* (IPs). BPs hold a small set of `O(log N)`-bit
//! registers; IPs only relay (and, for the aggregating primitives, combine)
//! words moving between the BPs and the tree roots. The roots of the row
//! trees are the network's input ports and the roots of the column trees its
//! output ports (§II.A).
//!
//! [`Otn`] implements the structure *functionally* while charging every
//! primitive's cost — derived from the layout's wire lengths under the
//! active delay model — to a simulated clock. Algorithms (submodules
//! [`sort`], [`matmul`], [`graph`], [`bitonic`], [`dft`], [`pipeline`]) are
//! written purely in terms of these primitives, exactly as the paper's
//! procedures are.

pub mod bitonic;
pub mod checkpoint;
pub mod dft;
pub mod graph;
pub mod matmul;
pub mod pipeline;
pub mod prefix;
pub mod sort;

use crate::grid::Grid;
use crate::primitive::{self, Acc, ParallelPolicy, PrimitiveSpec};
use crate::resilience::{self, FaultPlan, FaultReport, FaultState, FaultStats};
use crate::word::Word;
use orthotrees_obs::telemetry::Telemetry;
use orthotrees_obs::{causal::ReachCell, Recorder};
use orthotrees_vlsi::{log2_ceil, BitTime, Clock, CostKind, CostModel, ModelError};

/// Handle to a named register plane allocated with [`Otn::alloc_reg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(usize);

impl Reg {
    /// The plane's index in allocation order — the `reg` coordinate of
    /// reach events and the key into [`Otn::reg_names`].
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
/// `j : R(j, i) = i`).
pub struct RegsView<'a> {
    regs: &'a [Grid<Option<Word>>],
}

impl RegsView<'_> {
    /// The value of register `r` at BP `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub fn get(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        *self.regs[r.0].get(row, col)
    }
}

/// Per-BP register access during a compute phase.
pub struct BpRegs<'a> {
    regs: &'a mut [Grid<Option<Word>>],
    /// This BP's flat row-major cell index in every plane.
    at: usize,
}

impl BpRegs<'_> {
    /// This BP's value of register `r`.
    pub fn get(&self, r: Reg) -> Option<Word> {
        self.regs[r.0].as_slice()[self.at]
    }

    /// Sets this BP's register `r`.
    pub fn set(&mut self, r: Reg, v: Option<Word>) {
        self.regs[r.0].as_mut_slice()[self.at] = v;
    }
}

/// The orthogonal trees network.
///
/// See the [module documentation](self) for the structure; see
/// [`Otn::for_sorting`] / [`Otn::for_graphs`] / [`Otn::wide`] for the
/// constructors the algorithms use.
#[derive(Clone, Debug)]
pub struct Otn {
    rows: usize,
    cols: usize,
    model: CostModel,
    pitch: u64,
    clock: Clock,
    regs: Vec<Grid<Option<Word>>>,
    reg_names: Vec<&'static str>,
    row_roots: Vec<Option<Word>>,
    col_roots: Vec<Option<Word>>,
    /// Installed fault scenario; `None` keeps every primitive on the exact
    /// fault-free path.
    fault: Option<FaultState>,
    /// Installed observability recorder; `None` (the default) keeps every
    /// primitive free of recording code. Recording never changes a
    /// simulated bit, time, or output.
    recorder: Option<Recorder>,
    /// Installed streaming telemetry bus; same contract as `recorder`.
    telemetry: Option<Telemetry>,
    /// How the selection mask of each primitive is filled.
    parallel: ParallelPolicy,
    /// Scratch selection mask of the running primitive, row-major over the
    /// BPs; cleared and reused by every call.
    mask: Vec<bool>,
    /// Scratch per-tree folds of the running upward primitive; reused.
    accs: Vec<Acc>,
}

impl Otn {
    /// Creates an `(rows × cols)`-OTN under `model`.
    ///
    /// The leaf pitch is taken from the layout convention of
    /// `orthotrees-layout`: `word_bits + max(log₂ rows, log₂ cols) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless both dimensions are powers of two.
    pub fn new(rows: usize, cols: usize, model: CostModel) -> Result<Self, ModelError> {
        ModelError::require_power_of_two("OTN row count", rows)?;
        ModelError::require_power_of_two("OTN column count", cols)?;
        let depth = log2_ceil(rows.max(cols) as u64);
        let pitch = u64::from(model.word_bits) + u64::from(depth) + 1;
        Ok(Otn {
            rows,
            cols,
            model,
            pitch,
            clock: Clock::new(),
            regs: Vec::new(),
            reg_names: Vec::new(),
            row_roots: vec![None; rows],
            col_roots: vec![None; cols],
            fault: None,
            recorder: None,
            telemetry: None,
            parallel: ParallelPolicy::default(),
            mask: Vec::new(),
            accs: Vec::new(),
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

    /// A square `(n × n)`-OTN under Thompson's model with word width
    /// `⌈log₂ n⌉` — the configuration SORT-OTN assumes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `n` is a power of two.
    pub fn for_sorting(n: usize) -> Result<Self, ModelError> {
        Otn::new(n, n, CostModel::thompson(n))
    }

    /// A square `(n × n)`-OTN whose words are wide enough for the packed
    /// `(key, index)` pairs the graph algorithms transmit
    /// (`2⌈log₂ n⌉ + 2` bits; see [`crate::pack`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless `n` is a power of two.
    pub fn for_graphs(n: usize) -> Result<Self, ModelError> {
        let w = 2 * log2_ceil(n as u64).max(1) + 2;
        Otn::new(n, n, CostModel::thompson(n).with_word_bits(w))
    }

    /// A rectangular OTN (used by the wide matrix-multiplication networks
    /// of §III/§VI, whose row count is the *square* of the matrix side).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] unless both dimensions are powers of two.
    pub fn wide(rows: usize, cols: usize) -> Result<Self, ModelError> {
        Otn::new(rows, cols, CostModel::thompson(rows.max(cols)))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The active cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The leaf pitch used for wire pricing.
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

    /// Runs `f` and returns its result together with the elapsed simulated
    /// time.
    pub fn elapsed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, BitTime) {
        let before = self.clock.now();
        let r = f(self);
        (r, self.clock.now() - before)
    }

    /// Allocates a fresh register plane (initially all `NULL`).
    pub fn alloc_reg(&mut self, name: &'static str) -> Reg {
        self.regs.push(Grid::filled(self.rows, self.cols, None));
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

    fn roots_mut(&mut self, axis: Axis) -> &mut Vec<Option<Word>> {
        match axis {
            Axis::Rows => &mut self.row_roots,
            Axis::Cols => &mut self.col_roots,
        }
    }

    /// The root registers of `axis` (row roots = input ports, column roots
    /// = output ports).
    pub fn roots(&self, axis: Axis) -> &[Option<Word>] {
        match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        }
    }

    /// Grid coordinates of leaf `leaf` of tree `tree` along `axis`. The map
    /// is its own inverse: `coords(axis, row, col)` is `(tree, leaf)`.
    fn coords(axis: Axis, tree: usize, leaf: usize) -> (usize, usize) {
        match axis {
            Axis::Rows => (tree, leaf),
            Axis::Cols => (leaf, tree),
        }
    }

    // ------------------------------------------------------------------
    // I/O (free: the paper assumes operands "initially available at the
    // input ports" / "initially stored in the base"; the pipelined input
    // costs are charged by the algorithms that model streaming input).
    // ------------------------------------------------------------------

    /// Places one word at each row root (input ports).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows`.
    pub fn load_row_roots(&mut self, values: &[Word]) {
        assert_eq!(values.len(), self.rows, "one value per row root");
        self.row_roots = values.iter().map(|&v| Some(v)).collect();
        self.clock.stats_mut().inputs += values.len() as u64;
    }

    /// Reads the column roots (output ports).
    pub fn read_col_roots(&self) -> Vec<Option<Word>> {
        self.col_roots.clone()
    }

    /// Loads a full register plane from `f(row, col)` (initial operand
    /// placement).
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize) -> Option<Word>) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.regs[r.0].set(i, j, f(i, j));
            }
        }
        self.clock.stats_mut().inputs += (self.rows * self.cols) as u64;
    }

    /// Reads one register value (host-side inspection, free).
    pub fn peek(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        *self.regs[r.0].get(row, col)
    }

    /// Writes one register value without charging time — for use *inside*
    /// primitive implementations whose cost is charged explicitly (e.g.
    /// the scan primitives in [`prefix`]); algorithms should use
    /// [`Otn::bp_phase`] or the communication primitives instead.
    pub(crate) fn poke(&mut self, r: Reg, row: usize, col: usize, v: Option<Word>) {
        self.regs[r.0].set(row, col, v);
    }

    /// Mutable clock access for primitive implementations in sibling
    /// modules.
    pub(crate) fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Advances the clock by `expected` while recording its causal
    /// decomposition `parts` (see [`crate::attribution`]).
    pub(crate) fn seg_charge(&mut self, expected: BitTime, parts: &[crate::attribution::Part]) {
        crate::attribution::seg_charge(&mut self.clock, &mut self.recorder, expected, parts);
        if let Some(tel) = &mut self.telemetry {
            tel.count("otn.charges", 1);
            tel.observe("otn.charge_tau", expected.get());
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
    /// `LEAFTOROOT`, …) on the simulated clock. Recording changes no
    /// simulated bit, time, or output (bit-identity, enforced by tests).
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
    /// charge is counted (`otn.charges`), its magnitude fed to the
    /// `otn.charge_tau` quantile sketch, and periodic counter snapshots
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
    /// without a recorder). Spans nest; close with [`Otn::end_phase`].
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
    // ------------------------------------------------------------------

    /// Installs a deterministic fault scenario for all subsequent
    /// primitives and returns the degradation verdicts for its dead IPs:
    /// which subtrees were rerouted through their sibling, and which leaves
    /// went dark.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> &FaultReport {
        self.fault = Some(FaultState::new(plan, self.rows, self.cols, self.cols, self.rows));
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

    /// Opens a new transit round for the next faultable primitive.
    fn begin_fault_round(&mut self) {
        if let Some(f) = &mut self.fault {
            f.next_round();
        }
    }

    /// Charges the time overhead a faultable primitive on `axis` incurred:
    /// `attempts` retransmission rounds of `base`, plus the lateral
    /// crossing penalty when the axis has rerouted subtrees.
    fn charge_fault_overhead(&mut self, axis: Axis, attempts: u32, base: BitTime) {
        let Some(f) = &self.fault else { return };
        let span = f.reroute_span[match axis {
            Axis::Rows => 0,
            Axis::Cols => 1,
        }];
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
    // The shared descriptor-driven executors. Every §II.B primitive below
    // is a thin call into these: selection mask (filled over row bands
    // under ParallelPolicy::Threads) → fault round → row-major transits,
    // writes or folds → one registry-derived charge.
    // ------------------------------------------------------------------

    /// Charges `spec`'s registry cost kind once for the whole tree family
    /// of `axis`: the clock charge, its causal segment decomposition, the
    /// matching operation statistic and the fault-overhead base all derive
    /// from the same [`CostKind`], so they can never disagree.
    fn charge_primitive(&mut self, spec: &PrimitiveSpec, axis: Axis, attempts: u32) {
        let leaves = self.leaves(axis);
        // Invariant: executors only charge registry primitives that declare
        // a cost kind (the registry coverage tests pin this statically), so
        // a `None` is a registry-definition bug, not a runtime state.
        let kind = spec.cost.unwrap_or_else(|| panic!("{} declares no cost kind", spec.name));
        let t = self.model.primitive_cost(kind, leaves, self.pitch, 1);
        let parts = crate::attribution::primitive_parts(&self.model, kind, leaves, self.pitch, 1);
        self.seg_charge(t, &parts);
        let stats = self.clock.stats_mut();
        match kind {
            CostKind::Broadcast | CostKind::StreamBroadcast => stats.broadcasts += 1,
            CostKind::Send | CostKind::StreamSend => stats.sends += 1,
            CostKind::Aggregate | CostKind::StreamAggregate => stats.aggregates += 1,
            CostKind::CycleStep => stats.circulates += 1,
        }
        self.charge_fault_overhead(axis, attempts, t);
    }

    /// Evaluates `sel(row, col) && !dark` at every BP into the scratch mask,
    /// row-major, and hands the mask out; the caller puts it back when
    /// done. Every selector sees the register state from before the
    /// primitive (gather before scatter).
    fn select(
        &mut self,
        axis: Axis,
        sel: &(impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync),
    ) -> Vec<bool> {
        let mut mask = std::mem::take(&mut self.mask);
        let view = RegsView { regs: &self.regs };
        let fault = self.fault.as_ref();
        primitive::fill_mask(self.parallel, &mut mask, self.rows, self.cols, |i, out| {
            for (j, on) in out.iter_mut().enumerate() {
                let (t, l) = Self::coords(axis, i, j);
                *on = sel(i, j, &view) && !fault.is_some_and(|f| f.is_dark(axis, t, l));
            }
        });
        mask
    }

    /// Opens a reach round and records one event per selected leaf of
    /// `mask`, in `(tree, leaf)` order; `edge(leaf)` names its `(from, to)`
    /// cells. Does nothing unless reach tracing is on.
    fn emit_reach(
        &mut self,
        axis: Axis,
        mask: &[bool],
        edge: impl Fn(u64) -> (ReachCell, ReachCell),
    ) {
        let (trees, leaves, cols) = (self.trees(axis), self.leaves(axis), self.cols);
        let Some(rec) = self.recorder.as_mut().filter(|r| r.reach_enabled()) else { return };
        rec.reach_round_begin();
        for t in 0..trees {
            for l in 0..leaves {
                let (i, j) = Self::coords(axis, t, l);
                if mask[i * cols + j] {
                    let (from, to) = edge(l as u64);
                    rec.reach(t as u64, from, to);
                }
            }
        }
    }

    /// The downward executor (`ROOTTOLEAF`): fills the selection mask, then
    /// transits and writes the root word of each selected leaf's tree in
    /// row-major order, then charges the registry cost. Fault draws are
    /// keyed by site and round, so the write order changes no word.
    fn tree_downward(
        &mut self,
        name: &str,
        axis: Axis,
        dest: Reg,
        sel: &(impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::Down),
            "{} is not a Down-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let mask = self.select(axis, sel);
        self.begin_fault_round();
        let (cols, width) = (self.cols, self.model.word_bits);
        let roots = match axis {
            Axis::Rows => &self.row_roots,
            Axis::Cols => &self.col_roots,
        };
        let mut fault = self.fault.as_mut();
        let plane = self.regs[dest.0].as_mut_slice();
        let mut attempts = 0;
        for (i, (on_row, row)) in mask.chunks(cols).zip(plane.chunks_mut(cols)).enumerate() {
            for (j, (_, cell)) in on_row.iter().zip(row).enumerate().filter(|(_, (&on, _))| on) {
                let (t, l) = Self::coords(axis, i, j);
                *cell = match &mut fault {
                    Some(f) => {
                        let (v, att) = f.transit(resilience::site(axis, t, l), roots[t], width);
                        attempts = attempts.max(att);
                        v
                    }
                    None => roots[t],
                };
            }
        }
        self.emit_reach(axis, &mask, |leaf| {
            (ReachCell::Root, ReachCell::Reg { reg: dest.0 as u64, leaf })
        });
        self.mask = mask;
        self.charge_primitive(spec, axis, attempts);
        self.end_phase();
    }

    /// The upward executor (`LEAFTOROOT` and the aggregates): fills the
    /// selection mask, folds the selected leaves' words in row-major order
    /// through `spec`'s combine [`Monoid`](crate::primitive::Monoid) into
    /// one accumulator per tree (each tree still sees its leaves in
    /// increasing order), then transits each root word in tree order and
    /// charges the registry cost.
    fn tree_upward(
        &mut self,
        name: &str,
        axis: Axis,
        src: Reg,
        sel: &(impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync),
    ) {
        let spec = primitive::spec_for(name);
        // Invariant: aggregate executors are only called with registry
        // primitives that declare a combine monoid (pinned by the registry
        // coverage tests) — a `None` is a registry-definition bug.
        let monoid =
            spec.combine.unwrap_or_else(|| panic!("{} declares no combine monoid", spec.name));
        debug_assert!(
            crate::dflow::shape_of(spec) == Some(crate::dflow::FlowShape::Up),
            "{} is not an Up-shaped primitive",
            spec.name
        );
        self.begin_phase(spec.name);
        let mask = self.select(axis, sel);
        let (trees, cols) = (self.trees(axis), self.cols);
        let degraded = self.fault.is_some();
        let mut accs = std::mem::take(&mut self.accs);
        accs.clear();
        accs.resize(trees, Acc::new(monoid));
        let plane = self.regs[src.0].as_slice();
        for (i, (on_row, row)) in mask.chunks(cols).zip(plane.chunks(cols)).enumerate() {
            for (j, (_, &word)) in on_row.iter().zip(row).enumerate().filter(|(_, (&on, _))| on) {
                let (t, _) = Self::coords(axis, i, j);
                // On First contention under faults, the fold keeps the
                // first word (corrupted ranks legitimately collide); in a
                // healthy net it is an invariant violation.
                accs[t].fold(word, || {
                    assert!(
                        degraded,
                        "{} contention: tree {t} of {axis:?} selected twice \
                         (invariant: the Selector specifies one BP per tree)",
                        spec.name
                    );
                });
            }
        }
        self.emit_reach(axis, &mask, |leaf| {
            (ReachCell::Reg { reg: src.0 as u64, leaf }, ReachCell::Root)
        });
        self.mask = mask;
        self.begin_fault_round();
        let width = self.model.word_bits;
        let roots = match axis {
            Axis::Rows => &mut self.row_roots,
            Axis::Cols => &mut self.col_roots,
        };
        let mut attempts = 0;
        for (t, (root, acc)) in roots.iter_mut().zip(&accs).enumerate() {
            *root = match &mut self.fault {
                Some(f) => {
                    let site = resilience::site(axis, t, resilience::TREE_SITE);
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
    fn composite(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let spec = primitive::spec_for(name);
        debug_assert!(spec.composite_of.is_some(), "{} is not a composite", spec.name);
        self.begin_phase(spec.name);
        f(self);
        self.end_phase();
    }

    /// The model price of a [`PhaseCost`] class.
    fn phase_cost(&self, cost: PhaseCost) -> BitTime {
        match cost {
            PhaseCost::Bit => self.model.bit_op(),
            PhaseCost::Compare => self.model.compare(),
            PhaseCost::Add => self.model.add(),
            PhaseCost::Multiply => self.model.multiply(),
            PhaseCost::Words(k) => self.model.compare() * k,
        }
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
    // Primitive operations (§II.B). Each charges its model cost once for
    // the whole parallel tree family.
    // ------------------------------------------------------------------

    /// `ROOTTOLEAF(Vector, Dest)`: each tree of `axis` broadcasts its root
    /// register to its selected leaves, which store it in `dest`.
    ///
    /// The selector receives `(row, col, view)` grid coordinates.
    ///
    /// Under an installed [`FaultPlan`], each leaf's delivered copy is an
    /// independent transit (parity-checked, retried, possibly erased or
    /// silently corrupted), and dark leaves receive nothing.
    pub fn root_to_leaf(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_downward("ROOTTOLEAF", axis, dest, &sel);
    }

    /// `LEAFTOROOT(Vector, Source)`: in each tree of `axis`, the selected
    /// BP's `src` register travels to the root. Selecting no BP leaves the
    /// root `NULL`.
    ///
    /// Under an installed [`FaultPlan`], dark leaves cannot reach their
    /// root, the ascending word is one parity-checked transit per tree,
    /// and selector contention keeps the first selected BP instead of
    /// panicking (corrupted ranks legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if a tree has more than one selected
    /// BP — invariant: the paper's Selector "specifies one BP in Vector",
    /// the tree being a single channel.
    pub fn leaf_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("LEAFTOROOT", axis, src, &sel);
    }

    /// `COUNT-LEAFTOROOT(Vector)`: each root receives the number of leaves
    /// whose `flag` register is a non-zero word (§II.B primitive 3).
    /// Dark leaves contribute nothing under an installed [`FaultPlan`].
    pub fn count_to_root(&mut self, axis: Axis, flag: Reg) {
        let sel = move |i: usize, j: usize, view: &RegsView<'_>| matches!(view.get(flag, i, j), Some(v) if v != 0);
        self.tree_upward("COUNT-LEAFTOROOT", axis, flag, &sel);
    }

    /// `SUM-LEAFTOROOT(Vector, Source)`: each root receives the sum of the
    /// selected leaves' `src` registers (`NULL` values contribute nothing;
    /// an empty selection sums to 0).
    pub fn sum_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("SUM-LEAFTOROOT", axis, src, &sel);
    }

    /// `MIN-LEAFTOROOT(Vector, Source)`: each root receives the minimum of
    /// the selected leaves' non-`NULL` `src` registers (`NULL` if none).
    pub fn min_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("MIN-LEAFTOROOT", axis, src, &sel);
    }

    /// `MAX-LEAFTOROOT`: each root receives the maximum of the selected
    /// leaves' non-`NULL` `src` registers (`NULL` if none) — the mirror of
    /// [`Otn::min_to_root`], same MSB-first bit-serial cost.
    pub fn max_to_root(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.tree_upward("MAX-LEAFTOROOT", axis, src, &sel);
    }

    // ------------------------------------------------------------------
    // Composite operations (§II.B): source primitive + ROOTTOLEAF.
    // ------------------------------------------------------------------

    /// `LEAFTOLEAF(Vector, Source, Dest)` (§II.B composite 1).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otn::leaf_to_root`].
    pub fn leaf_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.composite("LEAFTOLEAF", |net| {
            net.leaf_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `COUNT-LEAFTOLEAF(Vector, Dest)` (composite 2).
    pub fn count_to_leaf(
        &mut self,
        axis: Axis,
        flag: Reg,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.composite("COUNT-LEAFTOLEAF", |net| {
            net.count_to_root(axis, flag);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `SUM-LEAFTOLEAF(Vector, Source, Dest)` (composite 3).
    pub fn sum_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.composite("SUM-LEAFTOLEAF", |net| {
            net.sum_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MIN-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn min_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.composite("MIN-LEAFTOLEAF", |net| {
            net.min_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MAX-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn max_to_leaf(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> bool + Sync,
    ) {
        self.composite("MAX-LEAFTOLEAF", |net| {
            net.max_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    // ------------------------------------------------------------------
    // Local compute phases.
    // ------------------------------------------------------------------

    /// One parallel compute phase: `f(row, col, regs)` runs at every BP;
    /// `cost` is charged once for the whole phase (all BPs in parallel).
    pub fn bp_phase(&mut self, cost: PhaseCost, mut f: impl FnMut(usize, usize, &mut BpRegs<'_>)) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                let mut bp = BpRegs { regs: &mut self.regs, at: i * self.cols + j };
                f(i, j, &mut bp);
            }
        }
        let t = self.phase_cost(cost);
        self.charge_compute("BP-PHASE", t);
    }

    /// One parallel compute phase at the roots of `axis`:
    /// `f(tree_index, root_register)`.
    pub fn root_phase(
        &mut self,
        axis: Axis,
        cost: PhaseCost,
        mut f: impl FnMut(usize, &mut Option<Word>),
    ) {
        let t = self.phase_cost(cost);
        for (t_idx, root) in self.roots_mut(axis).iter_mut().enumerate() {
            f(t_idx, root);
        }
        self.charge_compute("ROOT-PHASE", t);
    }

    /// Sets the root registers of `axis` directly (host-side; free).
    pub fn set_roots(&mut self, axis: Axis, values: Vec<Option<Word>>) {
        assert_eq!(values.len(), self.trees(axis), "one value per tree");
        *self.roots_mut(axis) = values;
    }

    /// The cost of one pipelined pairwise exchange at leaf distance `dist`
    /// (see [`Otn::pairwise`]).
    pub fn pairwise_cost(&self, axis: Axis, dist: usize) -> BitTime {
        let _ = self.leaves(axis);
        // Pairs (l, l+dist) all route through the root of their common
        // 2·dist-leaf subtree; the dist words of each subtree pipeline
        // through that root one word-interval apart.
        self.model.tree_leaf_to_leaf(2 * dist, self.pitch)
            + self.model.pipeline_interval() * (dist as u64 - 1)
    }

    /// `COMPEX`-style pairwise combination (paper §IV): within every tree
    /// of `axis`, leaves `l` and `l + dist` (for `l mod 2·dist < dist`)
    /// exchange their `reg` words through their common subtree and replace
    /// them by `f(tree, l, a, b) → (a', b')`.
    ///
    /// Cost: the `dist` words crossing each `2·dist`-leaf subtree's root
    /// pipeline one word-interval apart behind a `LEAFTOLEAF` latency
    /// ([`Otn::pairwise_cost`]), plus one `extra` local phase — this is the
    /// accounting that makes the full bitonic sort `Θ(√N·polylog)` instead
    /// of `Θ(√N · log² N · log N)` (the geometric distance sum of §IV).
    ///
    /// # Panics
    ///
    /// Panics unless `dist` is a power of two, at least 1, and less than
    /// the tree's leaf count.
    pub fn pairwise(
        &mut self,
        axis: Axis,
        dist: usize,
        reg: Reg,
        extra: PhaseCost,
        mut f: impl FnMut(usize, usize, Option<Word>, Option<Word>) -> (Option<Word>, Option<Word>),
    ) {
        let leaves = self.leaves(axis);
        assert!(dist.is_power_of_two() && dist >= 1, "dist must be a positive power of two");
        assert!(dist < leaves, "dist {dist} must be below the leaf count {leaves}");
        for t in 0..self.trees(axis) {
            for l in 0..leaves {
                if l % (2 * dist) >= dist {
                    continue;
                }
                let (ai, aj) = Self::coords(axis, t, l);
                let (bi, bj) = Self::coords(axis, t, l + dist);
                let a = *self.regs[reg.0].get(ai, aj);
                let b = *self.regs[reg.0].get(bi, bj);
                let (na, nb) = f(t, l, a, b);
                self.regs[reg.0].set(ai, aj, na);
                self.regs[reg.0].set(bi, bj, nb);
            }
        }
        let extra_t = self.phase_cost(extra);
        let cost = self.pairwise_cost(axis, dist) + extra_t;
        // Causally: up and down the 2·dist-leaf subtree, the pipelined
        // spacing of the dist contending words, then the local combine.
        let mut parts = crate::attribution::upward_parts(&self.model, 2 * dist, self.pitch);
        parts.extend(crate::attribution::downward_parts(&self.model, 2 * dist, self.pitch));
        parts.extend(crate::attribution::wait_parts(
            self.model.pipeline_interval() * (dist as u64 - 1),
        ));
        parts.extend(crate::attribution::compute_parts(extra_t));
        self.begin_phase(primitive::spec_for("PAIRWISE").name);
        self.seg_charge(cost, &parts);
        self.end_phase();
        let stats = self.clock.stats_mut();
        stats.sends += 1;
        stats.broadcasts += 1;
        stats.leaf_ops += 1;
    }
}

/// Selector that accepts every BP — the paper's `all`.
pub fn all(_row: usize, _col: usize, _view: &RegsView<'_>) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net4() -> Otn {
        Otn::for_sorting(4).unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(Otn::for_sorting(6).is_err());
        assert!(Otn::new(4, 8, CostModel::thompson(8)).is_ok());
        let n = net4();
        assert_eq!(n.rows(), 4);
        assert_eq!(n.leaves(Axis::Rows), 4);
        assert_eq!(n.trees(Axis::Cols), 4);
    }

    #[test]
    fn broadcast_reaches_selected_leaves_only() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_row_roots(&[10, 20, 30, 40]);
        n.root_to_leaf(Axis::Rows, a, |_, j, _| j % 2 == 0);
        assert_eq!(n.peek(a, 1, 0), Some(20));
        assert_eq!(n.peek(a, 1, 2), Some(20));
        assert_eq!(n.peek(a, 1, 1), None, "unselected leaf untouched");
        assert_eq!(n.clock().stats().broadcasts, 1);
        assert!(n.clock().now().get() > 0);
    }

    #[test]
    fn leaf_to_root_moves_one_word_per_tree() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some((10 * i + j) as Word));
        n.leaf_to_root(Axis::Cols, a, |i, j, _| i == j); // diagonal
        assert_eq!(n.roots(Axis::Cols), &[Some(0), Some(11), Some(22), Some(33)]);
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn leaf_to_root_rejects_multiple_sources() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _| Some(1));
        n.leaf_to_root(Axis::Rows, a, |_, _, _| true);
    }

    #[test]
    fn leaf_to_root_with_empty_selection_yields_null() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.leaf_to_root(Axis::Rows, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Rows), &[None; 4]);
    }

    #[test]
    fn count_counts_nonzero_flags() {
        let mut n = net4();
        let f = n.alloc_reg("flag");
        n.load_reg(f, |i, j| Some(Word::from(i <= j)));
        n.count_to_root(Axis::Rows, f);
        assert_eq!(
            n.roots(Axis::Rows),
            &[Some(4), Some(3), Some(2), Some(1)],
            "row i has 4−i flags set"
        );
        assert_eq!(n.clock().stats().aggregates, 1);
    }

    #[test]
    fn sum_respects_selector_and_nulls() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| if j == 3 { None } else { Some((i * 4 + j) as Word) });
        n.sum_to_root(Axis::Rows, a, |_, j, _| j != 0);
        // Row i: (4i+1) + (4i+2) + NULL = 8i+3.
        assert_eq!(n.roots(Axis::Rows), &[Some(3), Some(11), Some(19), Some(27)]);
    }

    #[test]
    fn min_finds_minimum_and_handles_empty() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some(((i + 1) * 10 - j) as Word));
        n.min_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(7), Some(17), Some(27), Some(37)]);
        n.min_to_root(Axis::Cols, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Cols), &[None; 4]);
    }

    #[test]
    fn leaf_to_leaf_composes() {
        // Move the diagonal of A into every BP of its column (SORT-OTN
        // step 2 shape).
        let mut n = net4();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, _| Some(i as Word * 100));
        n.leaf_to_leaf(Axis::Cols, a, |i, j, _| i == j, b, all);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(n.peek(b, i, j), Some(j as Word * 100));
            }
        }
        assert_eq!(n.clock().stats().sends, 1);
        assert_eq!(n.clock().stats().broadcasts, 1);
    }

    #[test]
    fn selector_sees_registers() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let b = n.alloc_reg("B");
        n.load_reg(a, |i, j| Some((i * 4 + j) as Word));
        n.load_reg(b, |i, j| Some(Word::from(i == 2 && j == 1)));
        n.leaf_to_root(Axis::Rows, a, |i, j, v| v.get(b, i, j) == Some(1));
        assert_eq!(n.roots(Axis::Rows)[2], Some(9));
        assert_eq!(n.roots(Axis::Rows)[0], None);
    }

    #[test]
    fn bp_phase_charges_once_for_all_bps() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let before = n.clock().now();
        n.bp_phase(PhaseCost::Compare, |i, j, bp| {
            bp.set(a, Some((i + j) as Word));
        });
        let dt = n.clock().now() - before;
        assert_eq!(dt, n.model().compare(), "one compare for the whole phase");
        assert_eq!(n.peek(a, 3, 3), Some(6));
    }

    #[test]
    fn costs_follow_the_model() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        let (leaves, pitch) = (4, n.pitch());
        let model = *n.model();
        let t0 = n.clock().now();
        n.root_to_leaf(Axis::Rows, a, all);
        assert_eq!(n.clock().now() - t0, model.tree_root_to_leaf(leaves, pitch));
        let t1 = n.clock().now();
        n.count_to_root(Axis::Cols, a);
        assert_eq!(n.clock().now() - t1, model.tree_aggregate(leaves, pitch));
    }

    #[test]
    fn rectangular_network_charges_per_axis() {
        let mut n = Otn::new(16, 4, CostModel::thompson(16)).unwrap();
        let a = n.alloc_reg("A");
        let model = *n.model();
        let pitch = n.pitch();
        let (_, t_rows) = n.elapsed(|n| n.root_to_leaf(Axis::Rows, a, all));
        let (_, t_cols) = n.elapsed(|n| n.root_to_leaf(Axis::Cols, a, all));
        assert_eq!(t_rows, model.tree_root_to_leaf(4, pitch), "row trees have 4 leaves");
        assert_eq!(t_cols, model.tree_root_to_leaf(16, pitch), "col trees have 16 leaves");
        assert!(t_cols > t_rows);
    }

    #[test]
    fn max_mirrors_min() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some(((i + 1) * 10 - j) as Word));
        n.max_to_root(Axis::Rows, a, all);
        assert_eq!(n.roots(Axis::Rows), &[Some(10), Some(20), Some(30), Some(40)]);
        n.max_to_root(Axis::Cols, a, |_, _, _| false);
        assert_eq!(n.roots(Axis::Cols), &[None; 4]);
        // Composite variant broadcasts the maximum back down.
        let b = n.alloc_reg("B");
        n.max_to_leaf(Axis::Cols, a, all, b, all);
        assert_eq!(n.peek(b, 0, 2), Some(38), "column 2 max = 40-2");
    }

    #[test]
    fn axis_flip() {
        assert_eq!(Axis::Rows.flip(), Axis::Cols);
        assert_eq!(Axis::Cols.flip(), Axis::Rows);
    }

    #[test]
    fn broadcast_selectors_see_the_state_from_before_the_primitive() {
        for axis in [Axis::Rows, Axis::Cols] {
            let mut n = net4();
            let a = n.alloc_reg("A");
            n.load_row_roots(&[1, 2, 3, 4]);
            n.set_roots(Axis::Cols, vec![Some(5), Some(6), Some(7), Some(8)]);
            // BP (0, 0) is written first in any order; a selector that saw
            // that write would deselect every later BP.
            n.root_to_leaf(axis, a, |_, _, v| v.get(a, 0, 0).is_none());
            for i in 0..4 {
                for j in 0..4 {
                    assert!(n.peek(a, i, j).is_some(), "{axis:?}: BP ({i}, {j}) was skipped");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn leaf_to_root_rejects_multiple_sources_on_columns() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |_, _| Some(1));
        n.leaf_to_root(Axis::Cols, a, |i, _, _| i >= 2);
    }

    #[test]
    fn degraded_first_keeps_the_lowest_selected_leaf_on_both_axes() {
        let mut n = net4();
        n.install_fault_plan(FaultPlan::new(3));
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some((10 * i + j) as Word));
        n.leaf_to_root(Axis::Rows, a, |_, j, _| j == 1 || j == 3);
        assert_eq!(n.roots(Axis::Rows), &[Some(1), Some(11), Some(21), Some(31)]);
        n.leaf_to_root(Axis::Cols, a, |i, _, _| i == 1 || i == 3);
        assert_eq!(n.roots(Axis::Cols), &[Some(10), Some(11), Some(12), Some(13)]);
    }

    #[test]
    fn column_reach_events_come_in_tree_then_leaf_order() {
        use orthotrees_obs::causal::ReachEvent;
        let mut n = net4();
        let a = n.alloc_reg("A");
        let mut rec = Recorder::new();
        rec.enable_reach();
        n.install_recorder(rec);
        let off_diagonal = |i: usize, j: usize, _: &RegsView<'_>| i != j;
        n.root_to_leaf(Axis::Cols, a, off_diagonal);
        n.sum_to_root(Axis::Cols, a, off_diagonal);
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
    fn root_phase_updates_roots_with_charge() {
        let mut n = net4();
        n.set_roots(Axis::Rows, vec![Some(1), Some(2), None, Some(4)]);
        n.root_phase(Axis::Rows, PhaseCost::Add, |t, r| {
            *r = r.map(|v| v + t as Word);
        });
        assert_eq!(n.roots(Axis::Rows), &[Some(1), Some(3), None, Some(7)]);
        assert!(n.clock().now().get() > 0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn one_by_n_network_behaves_like_a_single_tree() {
        let mut net = Otn::new(1, 8, CostModel::thompson(8)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |_, j| Some(j as Word));
        net.sum_to_root(Axis::Rows, a, all);
        assert_eq!(net.roots(Axis::Rows), &[Some(28)]);
        // Column trees have a single leaf each: a send is a no-op-ish move.
        net.leaf_to_root(Axis::Cols, a, all);
        let cols: Vec<Option<Word>> = (0..8).map(|j| Some(j as Word)).collect();
        assert_eq!(net.roots(Axis::Cols), cols.as_slice());
    }

    #[test]
    fn n_by_one_network_mirrors_one_by_n() {
        let mut net = Otn::new(8, 1, CostModel::thompson(8)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |i, _| Some(i as Word));
        net.min_to_root(Axis::Cols, a, all);
        assert_eq!(net.roots(Axis::Cols), &[Some(0)]);
        net.max_to_root(Axis::Cols, a, all);
        assert_eq!(net.roots(Axis::Cols), &[Some(7)]);
    }

    #[test]
    fn single_cell_network_supports_all_primitives() {
        let mut net = Otn::new(1, 1, CostModel::thompson(2)).unwrap();
        let a = net.alloc_reg("A");
        net.load_reg(a, |_, _| Some(5));
        net.sum_to_root(Axis::Rows, a, all);
        assert_eq!(net.roots(Axis::Rows), &[Some(5)]);
        net.count_to_root(Axis::Cols, a);
        assert_eq!(net.roots(Axis::Cols), &[Some(1)]);
        net.bp_phase(PhaseCost::Bit, |_, _, bp| bp.set(a, Some(9)));
        assert_eq!(net.peek(a, 0, 0), Some(9));
    }

    #[test]
    fn unit_and_scaled_models_compose() {
        // Word-parallel + scaled: every primitive is Θ(log N) with tiny
        // constants; sanity that nothing underflows or zeroes out.
        let model = CostModel::unit_delay(64).with_scaling();
        let mut net = Otn::new(64, 64, model).unwrap();
        let a = net.alloc_reg("A");
        let (_, dt) = net.elapsed(|net| net.root_to_leaf(Axis::Rows, a, all));
        assert!(dt.get() >= 6, "at least one unit per level: {dt}");
        assert!(dt.get() <= 20, "scaled unit broadcast stays small: {dt}");
    }

    #[test]
    fn linear_delay_model_sorts_correctly_but_slowly() {
        let xs: Vec<Word> = (0..16).rev().collect();
        let mut lin = Otn::new(16, 16, CostModel::linear_delay(16)).unwrap();
        let slow = super::sort::sort(&mut lin, &xs).unwrap();
        assert_eq!(slow.sorted, (0..16).collect::<Vec<Word>>());
        let mut log = Otn::for_sorting(16).unwrap();
        let fast = super::sort::sort(&mut log, &xs).unwrap();
        assert!(slow.time > fast.time * 2, "{} !>> {}", slow.time, fast.time);
    }

    #[test]
    fn pairwise_cost_grows_with_distance() {
        let net = Otn::for_sorting(64).unwrap();
        let c1 = net.pairwise_cost(Axis::Rows, 1);
        let c8 = net.pairwise_cost(Axis::Rows, 8);
        let c32 = net.pairwise_cost(Axis::Rows, 32);
        assert!(c1 < c8 && c8 < c32);
    }
}
