//! Selectors as data: the built-in selection shapes and how a selector
//! fills the selection mask.
//!
//! The paper's §II.B primitives take a *Selector* naming which base
//! processors of a Vector take part. Nearly every procedure uses one of a
//! few fixed shapes — `all`, the diagonal, one row or column, "flag ≠ 0"
//! for COUNT, "register equals coordinate" for SORT's extraction — and
//! [`Sel`] names them, so the executors fill the mask a whole 64-bit word
//! at a time instead of asking a closure once per cell.
//!
//! A selector is still any `Fn(row, col, …, &view)`; what it *returns*
//! picks the path ([`Pick`]):
//!
//! * a selector returning `bool` is the escape hatch — it is called once
//!   per cell (downward) or per cell position (upward) and selects where
//!   it returns `true`;
//! * a selector returning a [`Sel`] names a shape — it is called once per
//!   primitive, at the origin, and must return the same shape everywhere.
//!
//! So every closure call site keeps compiling, and [`otn::all`] is a plain
//! function returning [`Sel::All`].
//!
//! [`otn::all`]: crate::otn::all

use crate::bitset::{self, Plane};
use crate::primitive::{self, ParallelPolicy};
use crate::word::Word;
use crate::wordnet::{Reg, Topology, View};

/// A built-in selection shape. Coordinates are grid cells `(i, j)`; a
/// selected cell takes part with all its base processors. The register
/// shapes read the register at every selected position of an upward
/// primitive and at `BP(0)` of each cell — the base processor wired to
/// the trees — for a downward one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sel {
    /// Every cell — the paper's `all`.
    All,
    /// The cells with `i == j`.
    Diagonal,
    /// The cells with `i != j`.
    OffDiagonal,
    /// The cells of row `i`.
    Row(usize),
    /// The cells of column `j`.
    Col(usize),
    /// Where the register holds a non-`NULL`, non-zero word — COUNT's
    /// selector (§II.B primitive 3).
    NonZero(Reg),
    /// Where the register holds the cell's column index `j` — SORT-OTN's
    /// step 5, `j : R(j, i) = i`, seen from column tree `i`.
    EqCol(Reg),
    /// Where the register holds a word (is not `NULL`) — SORT-OTC's step
    /// 5.
    Valid(Reg),
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for bool {}
    impl Sealed for super::Sel {}
}

/// What a selector returns: `bool` to be asked cell by cell, or a [`Sel`]
/// to name a built-in shape (see the [module documentation](self)).
/// Sealed: implemented for exactly those two.
pub trait Pick: Copy + sealed::Sealed {
    /// Whether selectors returning this type name a shape, asked once per
    /// primitive, rather than judge each cell.
    #[doc(hidden)]
    const SHAPE: bool;

    /// The shape, for a [`Sel`].
    #[doc(hidden)]
    fn shape(self) -> Option<Sel>;

    /// The verdict on one cell, for a `bool`. A shape is never asked cell
    /// by cell.
    #[doc(hidden)]
    fn on(self) -> bool;
}

impl Pick for bool {
    const SHAPE: bool = false;

    #[inline]
    fn shape(self) -> Option<Sel> {
        None
    }

    #[inline]
    fn on(self) -> bool {
        self
    }
}

impl Pick for Sel {
    const SHAPE: bool = true;

    #[inline]
    fn shape(self) -> Option<Sel> {
        Some(self)
    }

    #[inline]
    fn on(self) -> bool {
        false
    }
}

/// Fills the zeroed `mask` (one bit per cell position of `view`'s grid)
/// from `sel`: a shape, asked once at the origin, a word at a time; a
/// `bool` selector cell by cell — at every position when `per_position`,
/// else once per cell at `q = 0` with the verdict copied to all the
/// cell's positions. Every call sees the register state from before the
/// primitive.
pub(crate) fn fill<T: Topology, P: Pick>(
    sel: &(impl Fn(usize, usize, usize, &View<'_, T>) -> P + Sync),
    view: &View<'_, T>,
    policy: ParallelPolicy,
    per_position: bool,
    mask: &mut [u64],
) {
    // A constant 1 on the OTN, where the position arithmetic folds away.
    let (rows, cols, cycle) = (view.rows, view.cols, T::cycle(view.cycle));
    let stride = if per_position { 1 } else { cycle };
    let units = cols * cycle / stride;
    // Cycle lengths are powers of two: unit `u` of a row is position
    // `u · stride` of it, in cell `u · stride >> cshift`.
    let cshift = cycle.trailing_zeros();
    let bits = rows * cols * cycle;
    let shape = if P::SHAPE { sel(0, 0, 0, view).shape() } else { None };
    let Some(shape) = shape else {
        primitive::fill_mask(policy, mask, rows, units, stride, |i, u| {
            let k = u * stride;
            sel(i, k >> cshift, k & (cycle - 1), view).on()
        });
        return;
    };
    let cell = |i: usize, j: usize| (i * cols + j) * cycle;
    let reg = |r: Reg| -> &Plane { &view.regs[r.0] };
    match shape {
        Sel::All => bitset::fill(mask, bits),
        Sel::Diagonal | Sel::OffDiagonal => {
            let on = shape == Sel::Diagonal;
            if !on {
                bitset::fill(mask, bits);
            }
            for i in 0..rows.min(cols) {
                bitset::assign_range(mask, cell(i, i), cycle, on);
            }
        }
        Sel::Row(i) if i < rows => bitset::assign_range(mask, cell(i, 0), cols * cycle, true),
        Sel::Col(j) if j < cols => {
            for i in 0..rows {
                bitset::assign_range(mask, cell(i, j), cycle, true);
            }
        }
        Sel::Row(_) | Sel::Col(_) => {}
        Sel::Valid(r) if per_position => mask.copy_from_slice(reg(r).valid()),
        Sel::NonZero(r) if per_position => {
            // A NULL cell's value is 0, so the value alone decides. A plane
            // no value was written to has no values and stays unselected.
            let plane = reg(r);
            for (word, chunk) in mask.iter_mut().zip(plane.values().chunks(64)) {
                *word = chunk.iter().enumerate().fold(0, |m, (b, &v)| m | u64::from(v != 0) << b);
            }
        }
        Sel::EqCol(r) if per_position => {
            let plane = reg(r);
            let words = mask.iter_mut().zip(plane.values().chunks(64)).zip(plane.valid());
            for (w, ((word, chunk), &valid)) in words.enumerate() {
                let eq = chunk.iter().enumerate().fold(0, |m, (b, &v)| {
                    let j = ((w << 6 | b) >> cshift) & (cols - 1);
                    m | u64::from(v == j as u64) << b
                });
                *word = eq & valid;
            }
        }
        Sel::NonZero(r) | Sel::EqCol(r) | Sel::Valid(r) => {
            let plane = reg(r);
            primitive::fill_mask(ParallelPolicy::Sequential, mask, rows, units, stride, |i, u| {
                let k = i * cols * cycle + u * stride;
                match (shape, plane.get(k)) {
                    (Sel::NonZero(_), Some(w)) => w != 0,
                    (Sel::EqCol(_), Some(w)) => w == ((u * stride) >> cshift) as Word,
                    (Sel::Valid(_), word) => word.is_some(),
                    _ => false,
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otc::{Otc, OtcRegsView};
    use crate::otn::{Axis, Otn, RegsView};
    use crate::wordnet::WordNet;
    use crate::{CostModel, FaultPlan, FaultStats, TreeAxis};
    use orthotrees_obs::causal::ReachEvent;
    use orthotrees_obs::Recorder;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*s ^ (*s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A register word of every kind: `NULL`, zero, column indices (so
    /// [`Sel::EqCol`] hits), `u64::MAX`-magnitude words and the rest.
    fn word(seed: &mut u64, cols: usize) -> Option<Word> {
        let r = splitmix(seed);
        match r % 8 {
            0 => None,
            1 => Some(0),
            2 | 3 => Some((r >> 3) as Word % cols as Word),
            4 => Some(Word::MAX),
            5 => Some(Word::MIN),
            6 => Some(-1),
            _ => Some((r >> 3) as Word),
        }
    }

    /// Every built-in shape on a `rows × cols` grid, the register forms
    /// reading `s`; `Row(rows)` and `Col(cols)` select nothing.
    fn shapes(rows: usize, cols: usize, s: Reg) -> [Sel; 11] {
        [
            Sel::All,
            Sel::Diagonal,
            Sel::OffDiagonal,
            Sel::Row(0),
            Sel::Row(rows - 1),
            Sel::Row(rows),
            Sel::Col(cols / 2),
            Sel::Col(cols),
            Sel::NonZero(s),
            Sel::EqCol(s),
            Sel::Valid(s),
        ]
    }

    /// The closure `shape` stands for at cell `(i, j)`, given the word of
    /// its register there.
    fn holds(shape: Sel, i: usize, j: usize, word: Option<Word>) -> bool {
        match shape {
            Sel::All => true,
            Sel::Diagonal => i == j,
            Sel::OffDiagonal => i != j,
            Sel::Row(r) => i == r,
            Sel::Col(c) => j == c,
            Sel::NonZero(_) => matches!(word, Some(w) if w != 0),
            Sel::EqCol(_) => word == Some(j as Word),
            Sel::Valid(_) => word.is_some(),
        }
    }

    /// A dense plan: word faults, a dark pair of subtrees on each axis
    /// and a rerouted one (inert where the trees are too small).
    fn plan(seed: u64, cols: usize, rate: f64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_word_fault_rate(rate)
            .with_max_retries(2)
            .with_dead_ip(TreeAxis::Rows, 0, 1, 0)
            .with_dead_ip(TreeAxis::Rows, 0, 1, 1)
            .with_dead_ip(TreeAxis::Cols, cols - 1, 1, 0)
            .with_dead_ip(TreeAxis::Cols, cols - 1, 1, 1)
            .with_dead_ip(TreeAxis::Cols, 0, 2, 1)
    }

    /// Everything a primitive can change: registers, roots, clock and
    /// counts (the checkpoint text), fault counters and reach events.
    type State = (String, FaultStats, Vec<ReachEvent>);

    /// Runs `op` on a reach-tracing copy of `base`; `None` if it panicked.
    fn run<T: Topology>(base: &WordNet<T>, op: impl FnOnce(&mut WordNet<T>)) -> Option<State> {
        let mut net = base.clone();
        let mut rec = Recorder::new();
        rec.enable_reach();
        net.install_recorder(rec);
        catch_unwind(AssertUnwindSafe(|| op(&mut net))).ok()?;
        let reach = net.take_recorder()?.reach_events().to_vec();
        Some((net.checkpoint_text(), net.fault_stats(), reach))
    }

    /// OTN primitive `op` on `axis` with source `x`, destination `y` and
    /// selector `sel` for both legs.
    fn otn_op<P: Pick>(
        net: &mut Otn,
        op: usize,
        axis: Axis,
        [x, y]: [Reg; 2],
        sel: impl Fn(usize, usize, &RegsView<'_>) -> P + Sync + Copy,
    ) {
        match op {
            0 => net.root_to_leaf(axis, y, sel),
            1 => net.leaf_to_root(axis, x, sel),
            2 => net.sum_to_root(axis, x, sel),
            3 => net.min_to_root(axis, x, sel),
            4 => net.max_to_root(axis, x, sel),
            5 => net.upward("COUNT-LEAFTOROOT", axis, x, &crate::wordnet::per_cell(&sel)),
            6 => net.leaf_to_leaf(axis, x, sel, y, sel),
            7 => net.count_to_leaf(axis, x, y, sel),
            8 => net.sum_to_leaf(axis, x, sel, y, sel),
            9 => net.min_to_leaf(axis, x, sel, y, sel),
            _ => net.max_to_leaf(axis, x, sel, y, sel),
        }
    }

    /// OTC primitive `op` on `axis`, as [`otn_op`] with a per-position
    /// selector `up` for the ascending leg.
    fn otc_op<P: Pick, Q: Pick>(
        net: &mut Otc,
        op: usize,
        axis: Axis,
        [x, y]: [Reg; 2],
        up: impl Fn(usize, usize, usize, &OtcRegsView<'_>) -> P + Sync + Copy,
        down: impl Fn(usize, usize, &OtcRegsView<'_>) -> Q + Sync + Copy,
    ) {
        match op {
            0 => net.root_to_cycle(axis, y, down),
            1 => net.cycle_to_root(axis, x, up),
            2 => net.sum_cycle_to_root(axis, x, up),
            3 => net.min_cycle_to_root(axis, x, up),
            4 => net.cycle_to_cycle(axis, x, up, y, down),
            5 => net.sum_cycle_to_cycle(axis, x, up, y, down),
            _ => net.min_cycle_to_cycle(axis, x, up, y, down),
        }
    }

    /// Fills registers `regs` and both root ports of `net` with `word`s.
    fn scramble<T: Topology>(net: &mut WordNet<T>, regs: &[Reg], seed: &mut u64) {
        let cols = net.cols;
        for r in regs {
            for k in 0..net.cells() {
                net.regs[r.0].set(k, word(seed, cols));
            }
        }
        for cell in net.roots.iter_mut().flatten() {
            *cell = word(seed, cols);
        }
    }

    /// Whether every shape matches its closure on every primitive, both
    /// axes, of an OTN of `rows × cols` and an OTC of `m × m` cycles of
    /// `cycle`; under a plan of word-fault `rate` when given.
    fn identity(
        [rows, cols, m, cycle]: [usize; 4],
        rate: Option<f64>,
        policy: ParallelPolicy,
        mut seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut otn = Otn::new(rows, cols, CostModel::thompson(rows.max(cols).max(2))).unwrap();
        let mut otc = Otc::new(m, cycle, CostModel::thompson(m * cycle)).unwrap();
        if let Some(rate) = rate {
            otn.install_fault_plan(plan(seed, cols, rate));
            otc.install_fault_plan(plan(seed, m, rate));
        }
        otn.set_parallel_policy(policy);
        otc.set_parallel_policy(policy);
        let (n_regs, c_regs) =
            ([0, 1, 2].map(|_| otn.alloc_reg("R")), [0, 1, 2].map(|_| otc.alloc_reg("R")));
        scramble(&mut otn, &n_regs, &mut seed);
        scramble(&mut otc, &c_regs, &mut seed);
        let ([x, y, s], [cx, cy, cs]) = (n_regs, c_regs);
        // Runs that did not panic (contention, a debug-build overflow):
        // most must finish for the comparison to mean something.
        let (mut finished, mut runs) = (0, 0);
        for axis in [Axis::Rows, Axis::Cols] {
            for shape in shapes(rows, cols, s) {
                for op in 0..11 {
                    let shaped = run(&otn, |n| otn_op(n, op, axis, [x, y], move |_, _, _| shape));
                    let closure = run(&otn, |n| {
                        otn_op(n, op, axis, [x, y], move |i, j, v: &RegsView<'_>| {
                            holds(shape, i, j, v.get(s, i, j))
                        });
                    });
                    prop_assert!(shaped == closure, "OTN {rows}×{cols} op {op} {axis:?} {shape:?}");
                    (finished, runs) = (finished + usize::from(shaped.is_some()), runs + 1);
                }
            }
            for shape in shapes(m, m, cs) {
                for op in 0..7 {
                    let shaped = run(&otc, |n| {
                        otc_op(
                            n,
                            op,
                            axis,
                            [cx, cy],
                            move |_, _, _, _| shape,
                            move |_, _, _| shape,
                        );
                    });
                    let closure = run(&otc, |n| {
                        otc_op(
                            n,
                            op,
                            axis,
                            [cx, cy],
                            move |i, j, q, v: &OtcRegsView<'_>| {
                                holds(shape, i, j, v.get(cs, i, j, q))
                            },
                            move |i, j, v: &OtcRegsView<'_>| holds(shape, i, j, v.get(cs, i, j, 0)),
                        );
                    });
                    prop_assert!(
                        shaped == closure,
                        "OTC {m}² × {cycle} op {op} {axis:?} {shape:?}"
                    );
                    (finished, runs) = (finished + usize::from(shaped.is_some()), runs + 1);
                }
            }
        }
        prop_assert!(2 * finished > runs, "only {finished} of {runs} runs finished");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Each built-in shape is bit-, clock-, stat-, fault- and
        /// reach-identical to the closure it stands for, on every executor,
        /// 1 × n, n × 1 and rectangular OTNs and OTCs, under both fill
        /// policies, with and without a plan that darkens leaves.
        #[test]
        fn shapes_match_their_closures(
            row_log in 0u32..=4,
            col_log in 0u32..=4,
            m_log in 0u32..=3,
            cycle_log in 1u32..=3,
            faulty in any::<bool>(),
            threads in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let dims = [1 << row_log, 1 << col_log, 1 << m_log, 1 << cycle_log];
            let policy = if threads { ParallelPolicy::Threads } else { ParallelPolicy::Sequential };
            identity(dims, faulty.then_some(0.1), policy, seed)?;
        }
    }

    /// The release-mode sweep CI runs: square and rectangular nets up to
    /// n = 256 under dense fault plans.
    #[test]
    #[ignore = "release-mode sweep, run explicitly in CI"]
    fn shape_identity_sweep_under_dense_faults() {
        for (k, dims) in [[256, 256, 32, 8], [64, 256, 16, 4], [256, 1, 1, 2], [1, 128, 64, 4]]
            .into_iter()
            .enumerate()
        {
            for (rate, seed) in [(0.3, 7), (0.05, 1234)] {
                identity(dims, Some(rate), ParallelPolicy::Sequential, seed + k as u64)
                    .unwrap_or_else(|e| panic!("{dims:?} at rate {rate}: {e:?}"));
            }
        }
    }
}
