//! Vector–matrix multiplication directly on the OTC (paper §VI.B).
//!
//! "In the same manner as procedure SORT-OTN was converted to SORT-OTC, we
//! can convert the matrix and graph algorithms of Section III to run on
//! the OTC." This module performs that conversion for the vector–matrix
//! product, which is the §III.A building block (the full matrix product
//! pipelines `N` of these):
//!
//! * the input vector enters through the row roots as `L`-word streams,
//!   exactly like SORT-OTC's input groups;
//! * cycle `(i, j)` stores the `L×L` submatrix `B[iL.., jL..]` — the
//!   §VI.B storage point ("each cycle must store a log N × log N
//!   submatrix"), realised as `L` register planes;
//! * each cycle forms its partial products in `L` multiply-accumulate
//!   rounds (`Θ(L·w) = Θ(log² N)` — the §V processing slowdown), and one
//!   `SUM-CYCLETOROOT` down the column trees emits `y = x·B`.
//!
//! Besides being useful, this validates the §V emulation pricing for a
//! second algorithm class: the test below checks the direct OTC product
//! lands within a small factor of the OTN's §III.A time.

use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::word::Word;
use orthotrees_vlsi::{BitTime, ModelError, OpStats};

/// Result of an OTC vector–matrix product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtcVectorMatrixOutcome {
    /// `y = x·B`, assembled from the column-root streams.
    pub y: Vec<Word>,
    /// Simulated time (`Θ(log² N)`).
    pub time: BitTime,
    /// Primitive-operation counts.
    pub stats: OpStats,
}

/// A matrix `B` loaded onto the OTC: cycle `(i, j)` holds the submatrix
/// `B[iL..(i+1)L, jL..(j+1)L]` across `L` register planes
/// (`planes[r]` at position `q` = `B[iL+r, jL+q]`).
#[derive(Clone, Debug)]
pub struct LoadedMatrix {
    planes: Vec<Reg>,
    n: usize,
}

impl LoadedMatrix {
    /// Loads the `n×n` matrix `b` (where `n = side · cycle_len`) onto
    /// `net`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `b` is not `n×n`.
    pub fn load(net: &mut Otc, b: &Grid<Word>) -> Result<Self, ModelError> {
        let n = net.side() * net.cycle_len();
        ModelError::require_equal("matrix rows", n, b.rows())?;
        ModelError::require_equal("matrix cols", n, b.cols())?;
        let l = net.cycle_len();
        let planes: Vec<Reg> = (0..l).map(|_| net.alloc_reg("B-plane")).collect();
        for (r, &reg) in planes.iter().enumerate() {
            net.load_reg(reg, |i, j, q| Some(*b.get(i * l + r, j * l + q)));
        }
        Ok(LoadedMatrix { planes, n })
    }
}

/// Computes `y = x·B` on `net`, with `B` pre-loaded via
/// [`LoadedMatrix::load`].
///
/// # Errors
///
/// Returns [`ModelError`] if `x.len()` differs from the loaded matrix's
/// side.
pub fn vector_matrix(
    net: &mut Otc,
    x: &[Word],
    b: &LoadedMatrix,
) -> Result<OtcVectorMatrixOutcome, ModelError> {
    ModelError::require_equal("vector length vs matrix side", b.n, x.len())?;
    let regs = pass_regs(net);
    Ok(pass(net, x, b, regs))
}

/// The `[x, partial]` registers of a vector–matrix pass: allocated once
/// per product and reused by every pass, so a pipelined product leaves
/// two planes behind whatever its size.
fn pass_regs(net: &mut Otc) -> [Reg; 2] {
    [net.alloc_reg("x"), net.alloc_reg("partial")]
}

/// One vector–matrix pass through the registers `[x, partial]`; `x` must
/// have one word per row of `b`.
fn pass(
    net: &mut Otc,
    x: &[Word],
    b: &LoadedMatrix,
    [xa, partial]: [Reg; 2],
) -> OtcVectorMatrixOutcome {
    let m = net.side();
    let l = net.cycle_len();
    let groups: Vec<Vec<Word>> = (0..m).map(|i| x[i * l..(i + 1) * l].to_vec()).collect();
    net.load_row_root_buffers(&groups);

    let stats_before = *net.clock().stats();
    let planes = &b.planes;
    let (_, time) = net.elapsed(|net| {
        // 1) group i of x to every cycle of row i.
        net.root_to_cycle(Axis::Rows, xa, |_, _, _| Sel::All);
        // 2) partial(i,j,q) = Σ_r x[iL+r] · B[iL+r, jL+q]: L local
        //    multiply-accumulate rounds (the §V slowdown).
        net.cycle_phase(PhaseCost::Words(2 * l as u64), |_, _, cyc| {
            for q in 0..l {
                let mut acc: Word = 0;
                for (r, &plane) in planes.iter().enumerate() {
                    let xv = cyc.get(xa, r).unwrap_or(0);
                    let bv = cyc.get(plane, q).unwrap_or(0);
                    acc += xv * bv;
                }
                cyc.set(partial, q, Some(acc));
            }
        });
        // 3) column sums: root buffer j, slot q = y[jL+q].
        net.sum_cycle_to_root(Axis::Cols, partial, |_, _, _, _| Sel::All);
    });

    let buffers = net.read_col_root_buffers();
    let mut y = vec![0; b.n];
    for (j, buf) in buffers.iter().enumerate() {
        for (q, v) in buf.iter().enumerate() {
            y[j * l + q] = v.expect("SUM roots are never NULL");
        }
    }
    let stats = net.clock().stats().since(&stats_before);
    OtcVectorMatrixOutcome { y, time, stats }
}

/// Result of a full OTC matrix product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtcMatMulOutcome {
    /// The product matrix.
    pub c: Grid<Word>,
    /// Pipelined makespan (first pass latency + `(N−1)` issue intervals,
    /// §III.A's `pipedo` carried over to the OTC).
    pub time: BitTime,
    /// The unpipelined total for comparison.
    pub time_unpipelined: BitTime,
}

/// Computes `C = A·B` by pipelining the `N` rows of `A` through
/// [`vector_matrix`] — the §VI.B conversion of §III.A's `MATRIXMULT`.
///
/// # Errors
///
/// Returns [`ModelError`] unless both matrices are `n×n` for the network's
/// capacity `n = side · cycle_len`.
pub fn matmul(
    net: &mut Otc,
    a: &Grid<Word>,
    b: &LoadedMatrix,
) -> Result<OtcMatMulOutcome, ModelError> {
    let n = b.n;
    ModelError::require_equal("A rows", n, a.rows())?;
    ModelError::require_equal("A cols", n, a.cols())?;
    let regs = pass_regs(net);
    let mut c = Grid::filled(n, n, 0);
    let mut first_pass = BitTime::ZERO;
    let mut total = BitTime::ZERO;
    for i in 0..n {
        let out = pass(net, a.row(i), b, regs);
        for (j, v) in out.y.iter().enumerate() {
            c.set(i, j, *v);
        }
        if i == 0 {
            first_pass = out.time;
        }
        total += out.time;
    }
    let time = first_pass + net.model().pipeline_interval() * (n as u64 - 1);
    Ok(OtcMatMulOutcome { c, time, time_unpipelined: total })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(x: &[Word], b: &Grid<Word>) -> Vec<Word> {
        let n = x.len();
        (0..n).map(|j| (0..n).map(|i| x[i] * b.get(i, j)).sum()).collect()
    }

    fn run(n: usize, seed: Word) -> (OtcVectorMatrixOutcome, Vec<Word>) {
        let mut net = Otc::for_sorting(n).unwrap();
        let b = Grid::from_fn(n, n, |i, j| ((i as Word * 7 + j as Word * 3 + seed) % 5) - 1);
        let loaded = LoadedMatrix::load(&mut net, &b).unwrap();
        let x: Vec<Word> = (0..n as Word).map(|v| (v * 11 + seed) % 9 - 4).collect();
        let out = vector_matrix(&mut net, &x, &loaded).unwrap();
        let expect = reference(&x, &b);
        (out, expect)
    }

    #[test]
    fn matches_reference_product() {
        for n in [16usize, 64] {
            let (out, expect) = run(n, 1);
            assert_eq!(out.y, expect, "n={n}");
        }
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let n = 16;
        let mut net = Otc::for_sorting(n).unwrap();
        let id = Grid::from_fn(n, n, |i, j| Word::from(i == j));
        let loaded = LoadedMatrix::load(&mut net, &id).unwrap();
        let x: Vec<Word> = (0..n as Word).collect();
        let out = vector_matrix(&mut net, &x, &loaded).unwrap();
        assert_eq!(out.y, x);
    }

    #[test]
    fn time_is_theta_log_squared() {
        let mut ratios = Vec::new();
        for k in [4u32, 6, 8, 10] {
            let n = 1usize << k;
            let (out, _) = run(n, 2);
            ratios.push(out.time.as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 4.0, "OTC vecmat not Θ(log²N): {ratios:?}");
    }

    #[test]
    fn direct_otc_time_is_comparable_to_otn_time() {
        // §V / §VI.B: same Θ as the OTN's §III.A product.
        let n = 256;
        let (otc_out, _) = run(n, 3);
        let mut otn = crate::otn::Otn::for_sorting(n).unwrap();
        let breg = otn.alloc_reg("B");
        otn.load_reg(breg, |i, j| Some(((i + j) % 5) as Word));
        let x: Vec<Word> = (0..n as Word).collect();
        let otn_out = crate::otn::matmul::vector_matrix(&mut otn, &x, breg).unwrap();
        let ratio = otc_out.time.as_f64() / otn_out.time.as_f64();
        assert!((0.3..6.0).contains(&ratio), "OTC/OTN vecmat ratio {ratio:.2}");
    }

    #[test]
    fn full_product_matches_reference_and_pipelines() {
        let n = 16;
        let mut net = Otc::for_sorting(n).unwrap();
        let a = Grid::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as Word - 1);
        let b = Grid::from_fn(n, n, |i, j| ((3 * i + j) % 4) as Word);
        let loaded = LoadedMatrix::load(&mut net, &b).unwrap();
        let out = matmul(&mut net, &a, &loaded).unwrap();
        assert_eq!(out.c, crate::otn::matmul::reference_matmul(&a, &b));
        assert!(out.time < out.time_unpipelined);
    }

    #[test]
    fn full_product_reuses_its_pass_registers() {
        // The `L` planes of `B` plus one `[x, partial]` pair whatever the
        // size, at the times recorded when every pass allocated its own.
        for (n, time, unpipelined) in [(16, 148, 1408), (64, 532, 9856)] {
            let mut net = Otc::for_sorting(n).unwrap();
            let a = Grid::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as Word - 1);
            let b = Grid::from_fn(n, n, |i, j| ((3 * i + j) % 4) as Word);
            let loaded = LoadedMatrix::load(&mut net, &b).unwrap();
            let out = matmul(&mut net, &a, &loaded).unwrap();
            assert_eq!(out.c, crate::otn::matmul::reference_matmul(&a, &b), "n={n}");
            assert_eq!((out.time.get(), out.time_unpipelined.get()), (time, unpipelined), "n={n}");
            assert_eq!(net.reg_names().len(), net.cycle_len() + 2, "n={n}");
        }
    }

    #[test]
    fn full_product_rejects_crooked_a() {
        let n = 16;
        let mut net = Otc::for_sorting(n).unwrap();
        let b = Grid::filled(n, n, 1);
        let loaded = LoadedMatrix::load(&mut net, &b).unwrap();
        let a8 = Grid::filled(8, 8, 1);
        assert!(matmul(&mut net, &a8, &loaded).is_err());
    }

    #[test]
    fn rejects_mismatched_sizes() {
        let mut net = Otc::for_sorting(16).unwrap();
        let b = Grid::filled(8, 8, 1);
        assert!(LoadedMatrix::load(&mut net, &b).is_err());
        let good = Grid::filled(16, 16, 1);
        let loaded = LoadedMatrix::load(&mut net, &good).unwrap();
        assert!(vector_matrix(&mut net, &[1, 2, 3], &loaded).is_err());
    }
}
