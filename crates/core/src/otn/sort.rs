//! `SORT-OTN` — rank sorting in `Θ(log² N)` (paper §II.B).
//!
//! The procedure, verbatim from the paper:
//!
//! ```text
//! Procedure SORT-OTN
//!   for each i (0 ≤ i < N) pardo begin
//!     1) ROOTTOLEAF (row(i), dest = (all, A));
//!     2) LEAFTOLEAF (column(i), source = (i, A), dest = (all, B));
//!     3) for each j (0 ≤ j < N) pardo
//!          flag(i,j) := if A(i,j) > B(i,j) then 1 else 0;
//!     4) COUNT-LEAFTOLEAF (row(i), dest = (all, R));
//!     5) LEAFTOROOT (column(i), source = (j : R(j,i) = i, A))
//!   end
//! ```
//!
//! After steps 1–2 each BP `(i,j)` holds `x(i)` in `A` and `x(j)` in `B`;
//! step 3 compares all pairs; step 4 counts each element's rank; step 5
//! routes the rank-`i` element to output port `i`. With duplicates, step 3
//! uses the index tie-break the paper gives:
//! `A > B or (A = B and i > j)`.

use super::{all, Axis, Otn, PhaseCost, Reg, Sel};
use crate::word::Word;
use orthotrees_vlsi::{BitTime, ModelError, OpStats};

/// The result of a sorting run: the sorted data plus the simulated cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortOutcome {
    /// The `N` inputs in ascending order, as read from the output ports.
    ///
    /// Under an installed fault plan, an output port that received no word
    /// (erased transmission, dark leaf, or a rank collision from corrupted
    /// comparisons) contributes `0` here and its position is listed in
    /// [`SortOutcome::missing`].
    pub sorted: Vec<Word>,
    /// Output positions that received no word. Always empty fault-free.
    pub missing: Vec<usize>,
    /// Simulated time of the sort proper (input loading excluded, as in the
    /// paper: "the numbers are initially available at the input ports").
    pub time: BitTime,
    /// Primitive-operation counts for the run.
    pub stats: OpStats,
}

/// Sorts `xs` on the `(N×N)`-OTN `net` (`N = xs.len()` must equal the
/// network side). Duplicates are allowed.
///
/// # Errors
///
/// Returns [`ModelError`] if `xs.len()` differs from the network side or the
/// network is not square.
///
/// # Example
///
/// ```
/// use orthotrees::otn::{sort, Otn};
/// let mut net = Otn::for_sorting(4)?;
/// let out = sort::sort(&mut net, &[3, 1, 2, 3])?;
/// assert_eq!(out.sorted, vec![1, 2, 3, 3]);
/// # Ok::<(), orthotrees::ModelError>(())
/// ```
pub fn sort(net: &mut Otn, xs: &[Word]) -> Result<SortOutcome, ModelError> {
    ModelError::require_equal("sort input length vs network side", net.rows(), xs.len())?;
    ModelError::require_equal("square network", net.rows(), net.cols())?;

    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    let flag = net.alloc_reg("flag");
    let r = net.alloc_reg("R");

    net.load_row_roots(xs);
    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| {
        net.begin_phase(crate::primitive::spec_for("SORT-OTN").name);
        // 1) every BP of row i learns x(i).
        net.root_to_leaf(Axis::Rows, a, all);
        // 2) via column tree i, the diagonal BP's A (= x(i)) reaches every
        //    BP of column i: B(i,j) = x(j).
        net.leaf_to_leaf(Axis::Cols, a, |_, _, _| Sel::Diagonal, b, all);
        // 3) all N² comparisons in one parallel word-compare.
        compare(net, [a, b], flag);
        // 4) rank of x(i) at every BP of row i.
        net.count_to_leaf(Axis::Rows, flag, r, all);
        // 5) column tree i extracts the element of rank i.
        net.leaf_to_root(Axis::Cols, a, move |_, _, _| Sel::EqCol(r));
        net.end_phase();
    });

    let degraded = net.has_fault_plan();
    let mut missing = Vec::new();
    let sorted = net
        .read_col_roots()
        .into_iter()
        .enumerate()
        .map(|(p, v)| match v {
            Some(w) => w,
            None if degraded => {
                missing.push(p);
                0
            }
            // Invariant (fault-free): the COUNT ranks are a permutation of
            // 0..N, so every output port receives exactly one word.
            None => panic!("rank invariant violated: output port {p} received no word"),
        })
        .collect();
    let stats = net.clock().stats().since(&stats_before);
    Ok(SortOutcome { sorted, missing, time, stats })
}

/// Step 3, all `N²` comparisons in one parallel word-compare:
/// `flag(i,j) := A(i,j) > B(i,j) or (A(i,j) = B(i,j) and i > j)`, and 0
/// where either word is `NULL`.
pub(crate) fn compare(net: &mut Otn, [a, b]: [Reg; 2], flag: Reg) {
    net.bp_kernel(PhaseCost::Compare, Sel::All, [a, b], flag, |bp, words, _| {
        let f = match words {
            [Some(x), Some(y)] => x > y || (x == y && bp.i > bp.j),
            _ => false,
        };
        Some(Word::from(f))
    });
}

/// Result of a selection run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectOutcome {
    /// The element of rank `k` (0-based, ascending).
    ///
    /// Under an installed fault plan, if no word reached the output port
    /// (erased transmission, dark leaf, or a rank collision from corrupted
    /// comparisons), this is `0` and [`SelectOutcome::missing`] is set.
    pub value: Word,
    /// Whether the output port received no word. Always `false` fault-free.
    pub missing: bool,
    /// Simulated time — one tree phase *less* than a full sort (the final
    /// extraction selects a single rank instead of all of them, but the
    /// rank computation is identical, so selection is the same Θ(log² N)).
    pub time: BitTime,
}

/// Selects the `k`-th smallest of `xs` (0-based) with the rank-computation
/// phases of SORT-OTN: steps 1–4 compute every element's rank; step 5
/// extracts just rank `k` through one column tree.
///
/// # Errors
///
/// Returns [`ModelError`] if `xs.len()` differs from the network side, the
/// network is not square, or `k ≥ xs.len()`.
pub fn select_kth(net: &mut Otn, xs: &[Word], k: usize) -> Result<SelectOutcome, ModelError> {
    ModelError::require_equal("select input length vs network side", net.rows(), xs.len())?;
    ModelError::require_equal("square network", net.rows(), net.cols())?;
    ModelError::require_at_least("rank bound (k < N)", xs.len(), k + 1)?;

    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    let flag = net.alloc_reg("flag");
    let r = net.alloc_reg("R");
    net.load_row_roots(xs);
    let (_, time) = net.elapsed(|net| {
        net.root_to_leaf(Axis::Rows, a, all);
        net.leaf_to_leaf(Axis::Cols, a, |_, _, _| Sel::Diagonal, b, all);
        compare(net, [a, b], flag);
        net.count_to_leaf(Axis::Rows, flag, r, all);
        // Column tree 0 extracts the rank-k element (the copy in column 0).
        net.leaf_to_root(Axis::Cols, a, move |i, j, v| j == 0 && v.get(r, i, 0) == Some(k as Word));
    });
    let (value, missing) = match net.roots(Axis::Cols)[0] {
        Some(w) => (w, false),
        None if net.has_fault_plan() => (0, true),
        // Invariant (fault-free): ranks are a permutation of 0..N and
        // k < N, so exactly one BP of column 0 holds rank k.
        None => panic!("rank invariant violated: no BP of column 0 holds rank k"),
    };
    Ok(SelectOutcome { value, missing, time })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(xs: &[Word]) -> SortOutcome {
        let mut net = Otn::for_sorting(xs.len()).unwrap();
        sort(&mut net, xs).unwrap()
    }

    #[test]
    fn sorts_distinct_values() {
        let out = run(&[5, 3, 8, 1]);
        assert_eq!(out.sorted, vec![1, 3, 5, 8]);
    }

    #[test]
    fn sorts_with_duplicates() {
        let out = run(&[7, 7, 1, 7, 2, 2, 7, 7]);
        assert_eq!(out.sorted, vec![1, 2, 2, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn sorts_all_equal_and_reverse_inputs() {
        assert_eq!(run(&[4, 4, 4, 4]).sorted, vec![4, 4, 4, 4]);
        let rev: Vec<Word> = (0..16).rev().collect();
        assert_eq!(run(&rev).sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_negative_values() {
        let out = run(&[0, -5, 3, -1]);
        assert_eq!(out.sorted, vec![-5, -1, 0, 3]);
    }

    #[test]
    fn uses_exactly_the_papers_operation_mix() {
        // Steps: 1 broadcast + (send+broadcast) + compare + (count+broadcast)
        // + send = 3 broadcasts, 2 sends, 1 aggregate, 1 leaf phase.
        let out = run(&[2, 1, 4, 3]);
        assert_eq!(out.stats.broadcasts, 3);
        assert_eq!(out.stats.sends, 2);
        assert_eq!(out.stats.aggregates, 1);
        assert_eq!(out.stats.leaf_ops, 1);
    }

    #[test]
    fn time_is_theta_log_squared() {
        // T(N)/log²N bounded in a constant band over the sweep.
        let mut ratios = Vec::new();
        for k in [3u32, 5, 7, 9] {
            let n = 1usize << k;
            let xs: Vec<Word> = (0..n as Word).map(|v| (v * 37) % n as Word).collect();
            let out = run(&xs);
            ratios.push(out.time.as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 3.0, "sort time not Θ(log²N): {ratios:?}");
    }

    #[test]
    fn rejects_mismatched_input_length() {
        let mut net = Otn::for_sorting(4).unwrap();
        assert!(sort(&mut net, &[1, 2, 3]).is_err());
    }

    #[test]
    fn rejects_rectangular_network() {
        let mut net = Otn::new(4, 8, crate::CostModel::thompson(8)).unwrap();
        assert!(sort(&mut net, &[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn select_kth_matches_sorted_order() {
        let xs: Vec<Word> = vec![9, 1, 7, 3, 5, 5, 2, 8];
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for (k, &expected) in sorted.iter().enumerate() {
            let mut net = Otn::for_sorting(xs.len()).unwrap();
            let out = select_kth(&mut net, &xs, k).unwrap();
            assert_eq!(out.value, expected, "k={k}");
            assert!(!out.missing, "fault-free selection always lands");
        }
    }

    #[test]
    fn select_median_of_random_inputs() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for n in [16usize, 64] {
            let xs: Vec<Word> = (0..n).map(|_| rng.random_range(-100..100)).collect();
            let mut net = Otn::for_sorting(n).unwrap();
            let out = select_kth(&mut net, &xs, n / 2).unwrap();
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            assert_eq!(out.value, sorted[n / 2], "n={n}");
        }
    }

    #[test]
    fn select_is_no_slower_than_sort() {
        let xs: Vec<Word> = (0..64).rev().collect();
        let mut net1 = Otn::for_sorting(64).unwrap();
        let sel = select_kth(&mut net1, &xs, 10).unwrap();
        let mut net2 = Otn::for_sorting(64).unwrap();
        let full = sort(&mut net2, &xs).unwrap();
        assert!(sel.time <= full.time);
    }

    #[test]
    fn select_under_faults_flags_a_missing_rank_instead_of_panicking() {
        // Dense word faults erase the rank-k word or collide ranks on some
        // of these seeds; each must come back flagged, never as a panic.
        let xs: Vec<Word> = (0..64).rev().collect();
        let mut flagged = 0;
        for seed in 0..40 {
            let mut net = Otn::for_sorting(64).unwrap();
            net.install_fault_plan(
                crate::FaultPlan::new(seed).with_word_fault_rate(0.3).with_max_retries(2),
            );
            let out = select_kth(&mut net, &xs, 10).unwrap();
            if out.missing {
                assert_eq!(out.value, 0, "seed {seed}: a missing rank reads as 0");
                flagged += 1;
            }
        }
        assert!(flagged > 0, "the plan is dense enough to lose the rank-k word");
    }

    #[test]
    fn select_rejects_out_of_range_rank() {
        let mut net = Otn::for_sorting(4).unwrap();
        assert!(select_kth(&mut net, &[1, 2, 3, 4], 4).is_err());
    }

    #[test]
    fn constant_delay_model_is_faster() {
        let xs: Vec<Word> = (0..64).rev().collect();
        let mut log_net = Otn::for_sorting(64).unwrap();
        let t_log = sort(&mut log_net, &xs).unwrap().time;
        let mut const_net = Otn::new(64, 64, crate::CostModel::constant_delay(64)).unwrap();
        let t_const = sort(&mut const_net, &xs).unwrap().time;
        assert!(t_const < t_log, "§VII.D: constant-delay model is faster");
    }
}
