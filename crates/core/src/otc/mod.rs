//! The orthogonal tree cycles (paper §V).
//!
//! An `(m × m)`-OTC is an `(m × m)`-OTN in which every BP is replaced by a
//! *cycle* of `L = Θ(log N)` BPs; `BP(0)` of each cycle connects to the row
//! and column trees. A tree root now streams `L` words per operation, one
//! per pipelined round of `{tree primitive; VECTORCIRCULATE}` (§V.B), so
//! every communication operation still takes `Θ(log² N)` — but the layout
//! area drops from `Θ(N² log² N)` to `Θ(N²)`.
//!
//! [`Otc`] is the shared word-level core [`WordNet`] with one cycle per
//! cell ([`Cycles`]). BPs are addressed by triples `(i, j, q)`: cycle row,
//! cycle column, position within the cycle. Roots hold *buffers* of `L`
//! words (the streamed sequence), not single words.
//!
//! Submodules: [`sort`] (SORT-OTC, §VI.A), [`matmul`], [`cc`] and [`mst`]
//! (the §VI.B direct conversions of the §III matrix and graph algorithms;
//! CC and MST share the crate-internal label toolkit `labels`) and
//! [`emulate`] (the §V simulation argument priced from op counts).

pub mod cc;
pub mod emulate;
pub(crate) mod labels;
pub mod matmul;
pub mod mst;
pub mod sort;

use crate::bitset::Plane;
use crate::primitive::PrimitiveSpec;
use crate::word::Word;
use crate::wordnet::{Call, Cycles, View, WordNet};
use orthotrees_obs::causal::ReachCell;
use orthotrees_vlsi::{log2_ceil, log2_floor, BitTime, CostKind, CostModel, ModelError};

use crate::select::Pick;
pub use crate::select::Sel;
pub use crate::wordnet::{Axis, PhaseCost, Reg};

/// The orthogonal tree cycles network: the word-level core with one cycle
/// of BPs per cell.
pub type Otc = WordNet<Cycles>;

/// Read-only view of all register planes, handed to OTC selectors.
pub type OtcRegsView<'a> = View<'a, Cycles>;

impl OtcRegsView<'_> {
    /// The value of register `r` at BP `(i, j, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    #[inline]
    pub fn get(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.word(r, i, j, q)
    }
}

/// Per-cycle register access during a cycle-local compute phase.
pub struct CycleRegs<'a> {
    regs: &'a mut [Plane],
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
        self.regs[r.0].get(self.base + q)
    }

    /// Sets this cycle's register `r` at position `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set(&mut self, r: Reg, q: usize, v: Option<Word>) {
        assert!(q < self.cycle, "cycle position {q} out of range");
        self.regs[r.0].set(self.base + q, v);
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
        Ok(WordNet::build(m, m, cycle, model, pitch))
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
        self.rows
    }

    /// BPs per cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle
    }

    /// Total base processors (`m² · cycle`).
    pub fn base_processors(&self) -> usize {
        self.rows * self.cols * self.cycle
    }

    /// Reads one BP register (host-side, free).
    ///
    /// # Panics
    ///
    /// Panics if the register or coordinates are out of range.
    pub fn peek(&self, r: Reg, i: usize, j: usize, q: usize) -> Option<Word> {
        self.view().get(r, i, j, q)
    }

    /// Loads a register plane from `f(i, j, q)`.
    pub fn load_reg(&mut self, r: Reg, mut f: impl FnMut(usize, usize, usize) -> Option<Word>) {
        let (m, cycle) = (self.cols, self.cycle);
        let plane = &mut self.regs[r.0];
        for k in 0..plane.cells() {
            let c = k / cycle;
            plane.set(k, f(c / m, c % m, k % cycle));
        }
        self.clock.stats_mut().inputs += self.base_processors() as u64;
    }

    /// Places `L` words at each row root's stream buffer (input ports;
    /// §VI.A: "log N numbers will have to be entered through each port").
    ///
    /// # Panics
    ///
    /// Panics unless `values` is `m` buffers of `cycle` words.
    pub fn load_row_root_buffers(&mut self, values: &[Vec<Word>]) {
        assert_eq!(values.len(), self.rows, "one buffer per row root");
        for (port, buf) in self.roots[0].chunks_mut(self.cycle).zip(values) {
            assert_eq!(buf.len(), port.len(), "buffer length must equal the cycle length");
            for (slot, &v) in port.iter_mut().zip(buf) {
                *slot = Some(v);
            }
        }
        self.clock.stats_mut().inputs += (self.rows * self.cycle) as u64;
    }

    /// Reads the column roots' stream buffers (output ports).
    pub fn read_col_root_buffers(&self) -> Vec<Vec<Option<Word>>> {
        self.roots(Axis::Cols)
    }

    /// A copy of the root stream buffers of `axis`, one per tree.
    pub fn roots(&self, axis: Axis) -> Vec<Vec<Option<Word>>> {
        self.root_words(axis).chunks(self.cycle).map(<[_]>::to_vec).collect()
    }

    /// The cost of one streamed tree operation: `L` pipelined words behind
    /// one tree traversal (§V.B: "a pipeline of length O(log² N) in which
    /// log N elements are transmitted at O(log N) intervals of time").
    pub fn stream_cost(&self, aggregate: bool) -> BitTime {
        let kind = if aggregate { CostKind::StreamAggregate } else { CostKind::StreamBroadcast };
        self.model.primitive_cost(kind, self.cols, self.pitch, self.cycle)
    }

    // ------------------------------------------------------------------
    // Primitives (§V.B): thin calls into the core's executors.
    // ------------------------------------------------------------------

    /// `VECTORCIRCULATE` over every cycle: each listed register rotates one
    /// position (`R(q) := R((q+1) mod L)`).
    pub fn circulate(&mut self, regs: &[Reg]) {
        let cycle = self.cycle;
        let mut tracing = self.recorder.as_mut().filter(|r| r.reach_enabled());
        if let Some(rec) = tracing.as_mut() {
            rec.reach_round_begin();
        }
        for r in regs {
            self.regs[r.0].rotate_blocks(cycle);
            // The rotate program names cycle positions as leaves and each
            // cycle `(i, j)` as its own tree.
            if let Some(rec) = tracing.as_mut() {
                for c in 0..self.rows * self.cols {
                    for q in 0..cycle {
                        let leaf = |q: usize| ReachCell::Reg { reg: r.0 as u64, leaf: q as u64 };
                        rec.reach(c as u64, leaf((q + 1) % cycle), leaf(q));
                    }
                }
            }
        }
        // One O(1)-long hop inside the cycle block, then the word tail.
        // Never a faultable tree traversal, so no fault-overhead charge.
        self.begin_phase(crate::primitive::spec_for("VECTORCIRCULATE").name);
        self.charge_kind(CostKind::CycleStep, self.cols);
        self.end_phase();
    }

    /// `ROOTTOCYCLE(Vector, Dest)`: each tree of `axis` streams its root
    /// buffer to the selected cycles; `dest[q] := buffer[q]`.
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), every delivered
    /// stream word is an independent transit and dark cycles receive
    /// nothing.
    pub fn root_to_cycle<P: Pick>(
        &mut self,
        axis: Axis,
        dest: Reg,
        sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> P + Sync,
    ) {
        self.downward("ROOTTOCYCLE", axis, dest, &sel);
    }

    /// `CYCLETOROOT(Vector, Source)`: each tree's root receives, for every
    /// stream position `q`, register `src[q]` of the cycle selected for
    /// that position (the paper's per-position selector: "Number (q) is
    /// taken from register B(q) of cycle (i,j) such that register A(q) in
    /// this cycle contains a 1").
    ///
    /// Under an installed [`FaultPlan`](crate::FaultPlan), dark cycles
    /// cannot reach the root, each ascending stream word is one
    /// parity-checked transit, and per-position contention keeps the first
    /// selected cycle instead of panicking (corrupted selectors
    /// legitimately collide).
    ///
    /// # Panics
    ///
    /// Without a fault plan, panics if two cycles of the same tree are
    /// selected for the same stream position — invariant: the per-position
    /// selector specifies at most one cycle per tree.
    pub fn cycle_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
    ) {
        self.upward("CYCLETOROOT", axis, src, &sel);
    }

    /// `SUM-CYCLETOROOT`: root buffer position `q` receives the sum over
    /// the selected cycles of `src[q]` (`NULL` contributes nothing).
    pub fn sum_cycle_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
    ) {
        self.upward("SUM-CYCLETOROOT", axis, src, &sel);
    }

    /// `MIN-CYCLETOROOT`: per-position minimum over the selected cycles.
    pub fn min_cycle_to_root<P: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
    ) {
        self.upward("MIN-CYCLETOROOT", axis, src, &sel);
    }
    /// `CYCLETOCYCLE(Vector, Source, Dest)` (§V.B composite 3).
    ///
    /// # Panics
    ///
    /// Panics on source contention, like [`Otc::cycle_to_root`].
    pub fn cycle_to_cycle<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> Q + Sync,
    ) {
        self.composite("CYCLETOCYCLE", |n| {
            n.cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `SUM-CYCLETOCYCLE`.
    pub fn sum_cycle_to_cycle<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> Q + Sync,
    ) {
        self.composite("SUM-CYCLETOCYCLE", |n| {
            n.sum_cycle_to_root(axis, src, src_sel);
            n.root_to_cycle(axis, dest, dest_sel);
        });
    }

    /// `MIN-CYCLETOCYCLE`.
    pub fn min_cycle_to_cycle<P: Pick, Q: Pick>(
        &mut self,
        axis: Axis,
        src: Reg,
        src_sel: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync,
        dest: Reg,
        dest_sel: impl Fn(usize, usize, &OtcRegsView<'_>) -> Q + Sync,
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
        // from before the phase even for a register it also writes. `f`
        // reads cell by cell, so broadcast planes are expanded first.
        self.expand_regs();
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        let view = self.view();
        let mut at = 0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                for q in 0..self.cycle {
                    if let Some((r, v)) = f(i, j, q, &view) {
                        staged.push((r, at, v));
                    }
                    at += 1;
                }
            }
        }
        for &(r, at, v) in &staged {
            self.regs[r.0].set(at, v);
        }
        self.staged = staged;
        self.charge_compute("BP-PHASE", cost);
    }

    /// Zeroes a register plane as one parallel bit phase (flag reset).
    pub fn clear_reg(&mut self, r: Reg) {
        self.regs[r.0].fill(Some(0));
        self.charge_compute("BP-PHASE", PhaseCost::Bit);
    }

    /// One cycle-local compute phase: `f(i, j, cycle_view)` may read and
    /// write all positions of its cycle; `cost` is charged once for the
    /// parallel phase (use `PhaseCost::Words(L)` for a full cycle scan).
    pub fn cycle_phase(
        &mut self,
        cost: PhaseCost,
        mut f: impl FnMut(usize, usize, &mut CycleRegs<'_>),
    ) {
        self.expand_regs();
        for i in 0..self.rows {
            for j in 0..self.cols {
                let base = (i * self.cols + j) * self.cycle;
                f(i, j, &mut CycleRegs { regs: &mut self.regs, base, cycle: self.cycle });
            }
        }
        self.charge_compute("CYCLE-PHASE", cost);
    }
}

/// The OTC's registry bindings, behind
/// [`Topology::invoke`](crate::wordnet::Topology::invoke): runs `spec`
/// through the [`Otc`] method of that name, or returns `false` when the
/// OTC binds no method to it.
pub(crate) fn invoke(net: &mut Otc, spec: &PrimitiveSpec, call: Call<'_>) -> bool {
    let Call { axis, src, dest, .. } = call;
    let pick = |i: usize, j: usize, q: usize, _: &OtcRegsView<'_>| (call.src_sel)(i, j, q);
    let keep = |i: usize, j: usize, _: &OtcRegsView<'_>| (call.dest_sel)(i, j, 0);
    match spec.name {
        "VECTORCIRCULATE" => net.circulate(&[src]),
        "ROOTTOCYCLE" => net.root_to_cycle(axis, dest, keep),
        "CYCLETOROOT" => net.cycle_to_root(axis, src, pick),
        "SUM-CYCLETOROOT" => net.sum_cycle_to_root(axis, src, pick),
        "MIN-CYCLETOROOT" => net.min_cycle_to_root(axis, src, pick),
        "CYCLETOCYCLE" => net.cycle_to_cycle(axis, src, pick, dest, keep),
        "SUM-CYCLETOCYCLE" => net.sum_cycle_to_cycle(axis, src, pick, dest, keep),
        "MIN-CYCLETOCYCLE" => net.min_cycle_to_cycle(axis, src, pick, dest, keep),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use orthotrees_obs::Recorder;

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
            n.roots[1].fill(Some(5));
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
    #[should_panic(expected = "out of range")]
    fn reads_past_the_last_cycle_position_panic_instead_of_returning_a_neighbour() {
        // Position 4 of cycle (0, 0) is flat index 4, position 0 of cycle
        // (0, 1): an unchecked read returns its word.
        let mut n = net();
        let b = n.alloc_reg("B");
        n.load_reg(b, |i, j, q| Some((100 * i + 10 * j + q) as Word));
        let _ = n.peek(b, 0, 0, 4);
    }

    #[test]
    fn clear_reg_zeroes_the_plane_as_one_bit_phase() {
        let mut n = net();
        let c = n.alloc_reg("C");
        n.load_reg(c, |i, _, q| (q != 1).then_some(i as Word + 5));
        let (_, dt) = n.elapsed(|n| n.clear_reg(c));
        assert_eq!(dt, n.model().bit_op(), "one bit op for the whole phase");
        assert_eq!(n.clock().stats().leaf_ops, 1);
        for (i, j, q) in [(0, 0, 0), (1, 2, 1), (3, 3, 3)] {
            assert_eq!(n.peek(c, i, j, q), Some(0));
        }
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
