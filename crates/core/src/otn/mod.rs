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
//! [`Otn`] is the shared word-level core [`WordNet`] with one BP per cell
//! ([`Tree`]): it implements the structure *functionally* while charging
//! every primitive's cost — derived from the layout's wire lengths under
//! the active delay model — to a simulated clock. This module adds the
//! paper's §II.B primitive names over the core's executors and the
//! OTN-only operations. Algorithms (submodules [`sort`], [`matmul`],
//! [`graph`], [`bitonic`], [`dft`], [`pipeline`]) are written purely in
//! terms of these primitives, exactly as the paper's procedures are.

pub mod bitonic;
pub mod dft;
pub mod graph;
pub mod matmul;
pub mod pipeline;
pub mod prefix;
pub mod sort;

use crate::bitset::Plane;
use crate::primitive::PrimitiveSpec;
use crate::word::Word;
use crate::wordnet::{per_cell, Call, Tree, View, WordNet};
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel, ModelError};

use crate::select::Pick;
pub use crate::select::Sel;
pub use crate::wordnet::{Axis, PhaseCost, Reg};

/// The orthogonal trees network: the word-level core with one BP per cell.
///
/// See the [module documentation](self) for the structure; see
/// [`Otn::for_sorting`] / [`Otn::for_graphs`] / [`Otn::wide`] for the
/// constructors the algorithms use.
pub type Otn = WordNet<Tree>;

/// Read-only view of all register planes, handed to OTN selectors.
pub type RegsView<'a> = View<'a, Tree>;

impl RegsView<'_> {
    /// The value of register `r` at BP `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    #[inline]
    pub fn get(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        self.word(r, row, col, 0)
    }
}

/// Per-BP register access during a compute phase.
pub struct BpRegs<'a> {
    regs: &'a mut [Plane],
    /// This BP's flat row-major cell index in every plane.
    at: usize,
}

impl BpRegs<'_> {
    /// This BP's value of register `r`.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<Word> {
        self.regs[r.0].get(self.at)
    }

    /// Sets this BP's register `r`.
    #[inline]
    pub fn set(&mut self, r: Reg, v: Option<Word>) {
        self.regs[r.0].set(self.at, v);
    }
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
        Ok(WordNet::build(rows, cols, 1, model, pitch))
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
        Otn::new(n, n, CostModel::thompson(n).with_word_bits(graph::cc::label_bits(n)))
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

    /// The root registers of `axis` (row roots = input ports, column roots
    /// = output ports).
    pub fn roots(&self, axis: Axis) -> &[Option<Word>] {
        self.root_words(axis)
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
        for (port, &v) in self.roots[0].iter_mut().zip(values) {
            *port = Some(v);
        }
        self.clock.stats_mut().inputs += values.len() as u64;
    }

    /// Reads the column roots (output ports).
    pub fn read_col_roots(&self) -> Vec<Option<Word>> {
        self.roots[1].clone()
    }

    /// Sets the root registers of `axis` directly (host-side; free).
    pub fn set_roots(&mut self, axis: Axis, values: Vec<Option<Word>>) {
        assert_eq!(values.len(), self.trees(axis), "one value per tree");
        self.roots[axis.index()] = values;
    }

    /// Loads a full register plane from `f(row, col)` (initial operand
    /// placement).
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize) -> Option<Word>) {
        let (rows, cols) = (self.rows, self.cols);
        let plane = &mut self.regs[r.0];
        for k in 0..rows * cols {
            plane.set(k, f(k / cols, k % cols));
        }
        self.clock.stats_mut().inputs += (rows * cols) as u64;
    }

    /// Reads one register value (host-side inspection, free).
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub fn peek(&self, r: Reg, row: usize, col: usize) -> Option<Word> {
        self.view().get(r, row, col)
    }

    /// Writes one register value without charging time — for use *inside*
    /// primitive implementations whose cost is charged explicitly (e.g.
    /// the scan primitives in [`prefix`]); algorithms should use
    /// [`Otn::bp_phase`] or the communication primitives instead.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub(crate) fn poke(&mut self, r: Reg, row: usize, col: usize, v: Option<Word>) {
        let (rows, cols) = (self.rows, self.cols);
        assert!(
            row < rows && col < cols,
            "register write at ({row}, {col}) out of range for a {rows} × {cols} grid"
        );
        self.regs[r.0].set(row * cols + col, v);
    }

    // ------------------------------------------------------------------
    // Primitive operations (§II.B): thin calls into the core's executors,
    // each charging its model cost once for the whole parallel tree
    // family.
    // ------------------------------------------------------------------

    /// `ROOTTOLEAF(Vector, Dest)`: each tree of `axis` broadcasts its root
    /// register to its selected leaves, which store it in `dest`.
    ///
    /// The selector receives `(row, col, view)` grid coordinates.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), each leaf's
    /// delivered copy is an independent transit (parity-checked, retried,
    /// possibly erased or silently corrupted), and dark leaves receive
    /// nothing.
    pub fn root_to_leaf<P: Pick>(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
    ) {
        self.downward("ROOTTOLEAF", axis, dest, &sel);
    }

    /// `LEAFTOROOT(Vector, Source)`: in each tree of `axis`, the selected
    /// BP's `src` register travels to the root. Selecting no BP leaves the
    /// root `NULL`.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), dark leaves
    /// cannot reach their root, the ascending word is one parity-checked
    /// transit per tree, and selector contention keeps the first selected
    /// BP instead of panicking (corrupted ranks legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if a tree has more than one selected
    /// BP — invariant: the paper's Selector "specifies one BP in Vector",
    /// the tree being a single channel.
    pub fn leaf_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
    ) {
        self.upward("LEAFTOROOT", axis, src, &per_cell(&sel));
    }

    /// `COUNT-LEAFTOROOT(Vector)`: each root receives the number of leaves
    /// whose `flag` register is a non-zero word (§II.B primitive 3,
    /// [`Sel::NonZero`]). Dark leaves contribute nothing under an
    /// installed fault plan.
    pub fn count_to_root(&mut self, axis: Axis, flag: Reg) {
        self.upward("COUNT-LEAFTOROOT", axis, flag, &|_, _, _, _: &RegsView<'_>| {
            Sel::NonZero(flag)
        });
    }

    /// `SUM-LEAFTOROOT(Vector, Source)`: each root receives the sum of the
    /// selected leaves' `src` registers (`NULL` values contribute nothing;
    /// an empty selection sums to 0).
    pub fn sum_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
    ) {
        self.upward("SUM-LEAFTOROOT", axis, src, &per_cell(&sel));
    }

    /// `MIN-LEAFTOROOT(Vector, Source)`: each root receives the minimum of
    /// the selected leaves' non-`NULL` `src` registers (`NULL` if none).
    pub fn min_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
    ) {
        self.upward("MIN-LEAFTOROOT", axis, src, &per_cell(&sel));
    }

    /// `MAX-LEAFTOROOT`: each root receives the maximum of the selected
    /// leaves' non-`NULL` `src` registers (`NULL` if none) — the mirror of
    /// [`Otn::min_to_root`], same MSB-first bit-serial cost.
    pub fn max_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
    ) {
        self.upward("MAX-LEAFTOROOT", axis, src, &per_cell(&sel));
    }
    // ------------------------------------------------------------------
    // Composite operations (§II.B): source primitive + ROOTTOLEAF.
    // ------------------------------------------------------------------

    /// `LEAFTOLEAF(Vector, Source, Dest)` (§II.B composite 1).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otn::leaf_to_root`].
    pub fn leaf_to_leaf<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> Q + Sync,
    ) {
        self.composite("LEAFTOLEAF", |net| {
            net.leaf_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `COUNT-LEAFTOLEAF(Vector, Dest)` (composite 2).
    pub fn count_to_leaf<Q: Pick>(
        &mut self,
        axis: Axis,
        flag: Reg,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> Q + Sync,
    ) {
        self.composite("COUNT-LEAFTOLEAF", |net| {
            net.count_to_root(axis, flag);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `SUM-LEAFTOLEAF(Vector, Source, Dest)` (composite 3).
    pub fn sum_to_leaf<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> Q + Sync,
    ) {
        self.composite("SUM-LEAFTOLEAF", |net| {
            net.sum_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MIN-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn min_to_leaf<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> Q + Sync,
    ) {
        self.composite("MIN-LEAFTOLEAF", |net| {
            net.min_to_root(axis, src, src_sel);
            net.root_to_leaf(axis, dest, dest_sel);
        });
    }

    /// `MAX-LEAFTOLEAF(Vector, Source, Dest)`.
    pub fn max_to_leaf<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &RegsView<'_>) -> Q + Sync,
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
    /// Broadcast planes are expanded first, as `f` reads cell by cell.
    pub fn bp_phase(&mut self, cost: PhaseCost, mut f: impl FnMut(usize, usize, &mut BpRegs<'_>)) {
        self.expand_regs();
        for i in 0..self.rows {
            for j in 0..self.cols {
                f(i, j, &mut BpRegs { regs: &mut self.regs, at: i * self.cols + j });
            }
        }
        self.charge_compute("BP-PHASE", cost);
    }

    /// One parallel compute phase at the roots of `axis`:
    /// `f(tree_index, root_register)`.
    pub fn root_phase(
        &mut self,
        axis: Axis,
        cost: PhaseCost,
        mut f: impl FnMut(usize, &mut Option<Word>),
    ) {
        for (t, root) in self.roots[axis.index()].iter_mut().enumerate() {
            f(t, root);
        }
        self.charge_compute("ROOT-PHASE", cost);
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
        let (trees, cols) = (self.trees(axis), self.cols);
        let plane = &mut self.regs[reg.0];
        plane.expand();
        for t in 0..trees {
            for l in (0..leaves).filter(|l| l % (2 * dist) < dist) {
                let (ai, aj) = axis.coords(t, l);
                let (bi, bj) = axis.coords(t, l + dist);
                let (a, b) = (ai * cols + aj, bi * cols + bj);
                let (x, y) = f(t, l, plane.get(a), plane.get(b));
                plane.set(a, x);
                plane.set(b, y);
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
        self.begin_phase(crate::primitive::spec_for("PAIRWISE").name);
        self.seg_charge(cost, &parts);
        self.end_phase();
        let stats = self.clock.stats_mut();
        stats.sends += 1;
        stats.broadcasts += 1;
        stats.leaf_ops += 1;
    }
}

/// The OTN's registry bindings, behind
/// [`Topology::invoke`](crate::wordnet::Topology::invoke): runs `spec`
/// through the [`Otn`] method of that name, or returns `false` when the
/// OTN binds no method to it.
pub(crate) fn invoke(net: &mut Otn, spec: &PrimitiveSpec, call: Call<'_>) -> bool {
    let Call { axis, src, dest, .. } = call;
    let pick = |i: usize, j: usize, _: &RegsView<'_>| (call.src_sel)(i, j, 0);
    let keep = |i: usize, j: usize, _: &RegsView<'_>| (call.dest_sel)(i, j, 0);
    match spec.name {
        "ROOTTOLEAF" => net.root_to_leaf(axis, dest, keep),
        "LEAFTOROOT" => net.leaf_to_root(axis, src, pick),
        "COUNT-LEAFTOROOT" => net.count_to_root(axis, src),
        "SUM-LEAFTOROOT" => net.sum_to_root(axis, src, pick),
        "MIN-LEAFTOROOT" => net.min_to_root(axis, src, pick),
        "MAX-LEAFTOROOT" => net.max_to_root(axis, src, pick),
        "LEAFTOLEAF" => net.leaf_to_leaf(axis, src, pick, dest, keep),
        "COUNT-LEAFTOLEAF" => net.count_to_leaf(axis, src, dest, keep),
        "SUM-LEAFTOLEAF" => net.sum_to_leaf(axis, src, pick, dest, keep),
        "MIN-LEAFTOLEAF" => net.min_to_leaf(axis, src, pick, dest, keep),
        "MAX-LEAFTOLEAF" => net.max_to_leaf(axis, src, pick, dest, keep),
        _ => return false,
    }
    true
}

/// Selector that accepts every BP — the paper's `all`, the built-in
/// [`Sel::All`] shape.
pub fn all(_row: usize, _col: usize, _view: &RegsView<'_>) -> Sel {
    Sel::All
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use orthotrees_obs::{causal::ReachCell, Recorder};

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
    #[should_panic(expected = "out of range")]
    fn reads_past_the_last_column_panic_instead_of_returning_a_neighbour() {
        // Flat index 0 · 4 + 5 is cell (1, 1): an unchecked read returns
        // its word, 11.
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.load_reg(a, |i, j| Some((10 * i + j) as Word));
        let _ = n.peek(a, 0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn selectors_reading_past_the_last_row_panic() {
        let mut n = net4();
        let a = n.alloc_reg("A");
        n.root_to_leaf(Axis::Rows, a, |_, j, v| v.get(a, 4, j).is_none());
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
