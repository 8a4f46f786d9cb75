//! Matrix algorithms on the OTN (paper §III.A).
//!
//! * [`vector_matrix`] — `VECTORMATRIXMULT-OTN`: broadcast the vector down
//!   the row trees, multiply at the base, sum up the column trees:
//!   `Θ(log² N)`.
//! * [`matmul`] — `MATRIXMULT-OTN`: `N` vector–matrix products *pipelined*
//!   through the network, successive rows of `A` entering `Θ(log N)` apart
//!   ("pipedo"); makespan `Θ(N log N)` after a `Θ(log² N)` fill.
//! * [`matmul_wide`] / [`bool_matmul_wide`] — the wide construction behind
//!   Table II's OTN/OTC rows: an `(N² × N)` orthogonal-trees network in
//!   which row `(i·N + j)` holds the pairs `(A(i,k), B(k,j))` and one
//!   aggregation computes all `N²` inner products in `Θ(log² N)`.

use super::{all, Axis, Otn, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::word::Word;
use orthotrees_vlsi::{BitTime, ModelError, OpStats};

/// Result of a vector–matrix product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorMatrixOutcome {
    /// `y = x·B`, read from the column roots.
    pub y: Vec<Word>,
    /// Simulated time.
    pub time: BitTime,
}

/// Result of a matrix–matrix product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatMulOutcome {
    /// The product matrix.
    pub c: Grid<Word>,
    /// Pipelined makespan: first-pass latency plus `(N−1)` issue intervals
    /// (§III.A: "pipedo … the separation in time between successive i's in
    /// the pipeline is O(log N)").
    pub time: BitTime,
    /// The unpipelined total (every pass serialised) for comparison — the
    /// pipelining ablation of DESIGN.md §7.
    pub time_unpipelined: BitTime,
    /// Primitive-operation counts.
    pub stats: OpStats,
}

/// Computes `y = x·B` on the `(N×N)`-OTN `net`, where `b` is the register
/// plane holding `B` (load it with [`Otn::load_reg`]).
///
/// # Errors
///
/// Returns [`ModelError`] if `x.len()` differs from the network's row count.
pub fn vector_matrix(net: &mut Otn, x: &[Word], b: Reg) -> Result<VectorMatrixOutcome, ModelError> {
    ModelError::require_equal("vector length vs rows", net.rows(), x.len())?;
    let regs = pass_regs(net);
    Ok(pass(net, x, b, regs))
}

/// The `[x, prod]` registers of a vector–matrix pass: allocated once per
/// product and reused by every pass, so a pipelined product leaves two
/// planes behind whatever its size.
fn pass_regs(net: &mut Otn) -> [Reg; 2] {
    [net.alloc_reg("x"), net.alloc_reg("prod")]
}

/// One vector–matrix pass through the registers `[x, prod]`; `x` must
/// have one word per row.
fn pass(net: &mut Otn, x: &[Word], b: Reg, [xa, p]: [Reg; 2]) -> VectorMatrixOutcome {
    net.load_row_roots(x);
    let (_, time) = net.elapsed(|net| {
        net.root_to_leaf(Axis::Rows, xa, all);
        multiply(net, [xa, b], p);
        net.sum_to_root(Axis::Cols, p, all);
    });
    let y = net.roots(Axis::Cols).iter().map(|v| v.expect("SUM roots are never NULL")).collect();
    VectorMatrixOutcome { y, time }
}

/// Computes `C = A·B` by pipelining the `N` rows of `A` through
/// [`vector_matrix`] (paper §III.A, `pipedo`).
///
/// # Errors
///
/// Returns [`ModelError`] if the matrices are not `N×N` for the network's
/// side `N`, or the network is not square.
pub fn matmul(net: &mut Otn, a: &Grid<Word>, b: &Grid<Word>) -> Result<MatMulOutcome, ModelError> {
    let n = net.rows();
    ModelError::require_equal("square network", net.rows(), net.cols())?;
    for (what, g) in
        [("A rows", a.rows()), ("A cols", a.cols()), ("B rows", b.rows()), ("B cols", b.cols())]
    {
        ModelError::require_equal(what, n, g)?;
    }
    let breg = net.alloc_reg("B");
    net.load_reg(breg, |i, j| Some(*b.get(i, j)));
    let regs = pass_regs(net);
    let stats_before = *net.clock().stats();

    let mut c = Grid::filled(n, n, 0);
    let mut first_pass = BitTime::ZERO;
    let mut total = BitTime::ZERO;
    for i in 0..n {
        let out = pass(net, a.row(i), breg, regs);
        for (j, v) in out.y.iter().enumerate() {
            c.set(i, j, *v);
        }
        if i == 0 {
            first_pass = out.time;
        }
        total += out.time;
    }
    // Pipelined makespan: the network is a three-stage pipeline (row trees,
    // base, column trees); successive vectors enter one word apart.
    let time = first_pass + net.model().pipeline_interval() * (n as u64 - 1);
    let stats = net.clock().stats().since(&stats_before);
    Ok(MatMulOutcome { c, time, time_unpipelined: total, stats })
}

/// `prod := x · y` at every BP, 0 where either word is `NULL` — the
/// product phase of [`vector_matrix`] and [`matmul_wide`].
pub(crate) fn multiply(net: &mut Otn, [x, y]: [Reg; 2], prod: Reg) {
    net.bp_kernel(PhaseCost::Multiply, Sel::All, [x, y], prod, |_, words, _| match words {
        [Some(x), Some(y)] => Some(x * y),
        _ => Some(0),
    });
}

/// `prod := 1` at every BP where both words are non-zero, 0 elsewhere
/// (`NULL` included) — the product phase of [`bool_matmul_wide`].
pub(crate) fn and(net: &mut Otn, [x, y]: [Reg; 2], prod: Reg) {
    net.bp_kernel(PhaseCost::Bit, Sel::All, [x, y], prod, |_, words, _| match words {
        [Some(x), Some(y)] => Some(Word::from(x != 0 && y != 0)),
        _ => Some(0),
    });
}

/// Result of a wide (`Θ(log² N)`-time) matrix product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WideMatMulOutcome {
    /// The product matrix (for the Boolean variant, entries are 0/1).
    pub c: Grid<Word>,
    /// Simulated time (`Θ(log² N)`).
    pub time: BitTime,
    /// Rows of the wide network used (`N²`).
    pub network_rows: usize,
    /// Columns of the wide network used (`N`).
    pub network_cols: usize,
}

fn wide_product(
    a: &Grid<Word>,
    b: &Grid<Word>,
    boolean: bool,
) -> Result<WideMatMulOutcome, ModelError> {
    let n = a.rows();
    for (what, g) in [("A cols", a.cols()), ("B rows", b.rows()), ("B cols", b.cols())] {
        ModelError::require_equal(what, n, g)?;
    }
    ModelError::require_power_of_two("matrix side", n)?;
    let mut net = Otn::wide(n * n, n)?;
    let pa = net.alloc_reg("A-elem");
    let pb = net.alloc_reg("B-elem");
    let prod = net.alloc_reg("prod");
    // Row r = i·N + j of the wide network holds, at leaf k, the operand pair
    // (A(i,k), B(k,j)) — the paper's §III placement with the row index
    // linearised over (i, j).
    net.load_reg(pa, |r, k| Some(*a.get(r / n, k)));
    net.load_reg(pb, |r, k| Some(*b.get(k, r % n)));
    let (_, time) = net.elapsed(|net| {
        if boolean {
            and(net, [pa, pb], prod);
        } else {
            multiply(net, [pa, pb], prod);
        }
        net.sum_to_root(Axis::Rows, prod, all);
    });
    let roots = net.roots(Axis::Rows);
    let c = Grid::from_fn(n, n, |i, j| {
        let s = roots[i * n + j].expect("SUM roots are never NULL");
        if boolean {
            Word::from(s != 0)
        } else {
            s
        }
    });
    Ok(WideMatMulOutcome { c, time, network_rows: n * n, network_cols: n })
}

/// Integer `C = A·B` in `Θ(log² N)` on an `(N²×N)` orthogonal-trees network
/// (builds the network internally; its area is what Table II charges).
///
/// # Errors
///
/// Returns [`ModelError`] unless both matrices are square `N×N` with `N` a
/// power of two.
pub fn matmul_wide(a: &Grid<Word>, b: &Grid<Word>) -> Result<WideMatMulOutcome, ModelError> {
    wide_product(a, b, false)
}

/// Boolean `C = A·B` (entries 0/1, AND/OR semiring) in `Θ(log² N)` — the
/// Table II experiment.
///
/// # Errors
///
/// Returns [`ModelError`] unless both matrices are square `N×N` with `N` a
/// power of two.
pub fn bool_matmul_wide(a: &Grid<Word>, b: &Grid<Word>) -> Result<WideMatMulOutcome, ModelError> {
    wide_product(a, b, true)
}

/// Sequential reference product (for verification).
pub fn reference_matmul(a: &Grid<Word>, b: &Grid<Word>) -> Grid<Word> {
    let n = a.rows();
    Grid::from_fn(n, n, |i, j| (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(vals: &[&[Word]]) -> Grid<Word> {
        Grid::from_fn(vals.len(), vals[0].len(), |i, j| vals[i][j])
    }

    #[test]
    fn vector_matrix_small_example() {
        let mut net = Otn::for_sorting(2).unwrap();
        let b = net.alloc_reg("B");
        let bm = grid(&[&[1, 2], &[3, 4]]);
        net.load_reg(b, |i, j| Some(*bm.get(i, j)));
        let out = vector_matrix(&mut net, &[5, 6], b).unwrap();
        assert_eq!(out.y, vec![5 + 6 * 3, 5 * 2 + 6 * 4]);
    }

    #[test]
    fn vector_matrix_time_is_theta_log_squared() {
        let mut ratios = Vec::new();
        for k in [3u32, 5, 7] {
            let n = 1usize << k;
            let mut net = Otn::for_sorting(n).unwrap();
            let b = net.alloc_reg("B");
            net.load_reg(b, |i, j| Some(((i + j) % 5) as Word));
            let x: Vec<Word> = (0..n as Word).collect();
            let out = vector_matrix(&mut net, &x, b).unwrap();
            ratios.push(out.time.as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 3.0, "{ratios:?}");
    }

    #[test]
    fn matmul_matches_reference() {
        let a = grid(&[&[1, 2, 0, 1], &[0, 1, 1, 0], &[3, 0, 0, 2], &[1, 1, 1, 1]]);
        let b = grid(&[&[2, 0, 1, 0], &[1, 1, 0, 0], &[0, 3, 0, 1], &[1, 0, 0, 2]]);
        let mut net = Otn::for_sorting(4).unwrap();
        let out = matmul(&mut net, &a, &b).unwrap();
        assert_eq!(out.c, reference_matmul(&a, &b));
    }

    #[test]
    fn pipelined_product_reuses_its_pass_registers() {
        // `B` plus one `[x, prod]` pair whatever the size, at the times
        // recorded when every pass allocated a pair of its own.
        for (n, time, unpipelined) in [(4, 34, 112), (8, 67, 368), (16, 134, 1184), (32, 253, 3136)]
        {
            let a = Grid::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as Word - 1);
            let b = Grid::from_fn(n, n, |i, j| ((3 * i + j) % 4) as Word);
            let mut net = Otn::for_sorting(n).unwrap();
            let out = matmul(&mut net, &a, &b).unwrap();
            assert_eq!(out.c, reference_matmul(&a, &b), "n={n}");
            assert_eq!((out.time.get(), out.time_unpipelined.get()), (time, unpipelined), "n={n}");
            assert_eq!(net.reg_names(), ["B", "x", "prod"], "n={n}");
        }
    }

    #[test]
    fn pipelining_beats_serialisation() {
        let n = 16;
        let a = Grid::from_fn(n, n, |i, j| ((i * 3 + j) % 7) as Word);
        let b = Grid::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as Word);
        let mut net = Otn::for_sorting(n).unwrap();
        let out = matmul(&mut net, &a, &b).unwrap();
        assert!(
            out.time < out.time_unpipelined,
            "pipelined {} vs serial {}",
            out.time,
            out.time_unpipelined
        );
        // Makespan = fill + N·interval: Θ(N log N), i.e. well below N·log².
        assert!(out.time.as_f64() < out.time_unpipelined.as_f64() / 2.0);
    }

    #[test]
    fn wide_matmul_matches_reference() {
        let a = grid(&[&[1, 2], &[3, 4]]);
        let b = grid(&[&[5, 6], &[7, 8]]);
        let out = matmul_wide(&a, &b).unwrap();
        assert_eq!(out.c, reference_matmul(&a, &b));
        assert_eq!(out.network_rows, 4);
        assert_eq!(out.network_cols, 2);
    }

    #[test]
    fn bool_matmul_is_boolean() {
        let a = grid(&[&[1, 0, 0, 1], &[0, 1, 0, 0], &[0, 0, 0, 0], &[1, 1, 0, 0]]);
        let b = grid(&[&[0, 1, 0, 0], &[0, 0, 1, 0], &[0, 0, 0, 1], &[1, 0, 0, 0]]);
        let out = bool_matmul_wide(&a, &b).unwrap();
        let reference = reference_matmul(&a, &b);
        for (i, j, v) in out.c.iter() {
            assert_eq!(*v, Word::from(*reference.get(i, j) != 0), "({i},{j})");
            assert!(*v == 0 || *v == 1);
        }
    }

    #[test]
    fn wide_time_is_theta_log_squared_of_n() {
        // The wide network's dominant cost is one aggregation over N² rows'
        // trees of N leaves: Θ(log² N) in the matrix side N.
        let mut times = Vec::new();
        for n in [2usize, 4, 8] {
            let a = Grid::from_fn(n, n, |i, j| Word::from(i == j));
            let out = matmul_wide(&a, &a).unwrap();
            times.push(out.time.as_f64());
        }
        // Doubling N should grow time by far less than 4× (it is polylog).
        assert!(times[2] / times[0] < 4.0, "{times:?}");
    }

    #[test]
    fn identity_is_neutral() {
        let n = 4;
        let a = Grid::from_fn(n, n, |i, j| ((i * j + 1) % 6) as Word);
        let id = Grid::from_fn(n, n, |i, j| Word::from(i == j));
        let out = matmul_wide(&a, &id).unwrap();
        assert_eq!(out.c, a);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let a = grid(&[&[1, 2], &[3, 4]]);
        let b3 = Grid::filled(3, 3, 1);
        assert!(matmul_wide(&a, &b3).is_err());
        let b_crooked = Grid::filled(3, 3, 1);
        assert!(bool_matmul_wide(&b_crooked, &b_crooked).is_err(), "3 is not a power of two");
    }
}
