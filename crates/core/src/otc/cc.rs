//! Connected components *directly* on the OTC (paper §VI.B: "In the same
//! manner as procedure SORT-OTN was converted to SORT-OTC, we can convert
//! the matrix and graph algorithms of Section III to run on the OTC").
//!
//! This is the §V simulation carried out operation by operation rather
//! than priced from op counts: the `n×n` OTN base is tiled into `L×L`
//! squares, one per cycle of the `(n/L × n/L)`-OTC ("each cycle must store
//! a log N × log N submatrix of the adjacency matrix"), so every OTN
//! register becomes `L` register *planes* here, every OTN tree operation
//! becomes one streamed cycle operation, and every OTN base phase becomes
//! `L` cycle-local rounds.
//!
//! Data layout (vertex `v = I·L + r`, `L` = cycle length):
//!
//! * adjacency plane `r`: `aplanes[r](I, J, q) = A(I·L+r, J·L+q)`;
//! * labels: `d(I, I, q) = D(I·L+q)` at the diagonal cycles;
//! * row streams: `drow(I, J, q) = D(I·L+q)` (labels of the cycle's row
//!   group), column streams: `dcol(I, J, q) = D(J·L+q)` — note columns map
//!   to stream positions directly, which is what makes the per-position
//!   `CYCLETOROOT` selectors line up.
//!
//! The hook-and-shortcut structure is identical to
//! [`crate::otn::graph::cc`]; the tests check the measured time lands
//! within a small constant of the OTN's — the paper's "same time, less
//! area" — and the result against union–find.

use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::otn::graph::cc::{reference_components, CcOutcome};
use crate::word::Word;
use orthotrees_vlsi::{log2_ceil, CostModel, ModelError};

struct CcRegs {
    aplanes: Vec<Reg>,
    d: Reg,
    prev: Reg,
    drow: Reg,
    dcol: Reg,
    candplanes: Vec<Reg>,
    pmin: Reg,
    minn: Reg,
    creg: Reg,
    crow: Reg,
    lcand: Reg,
    ldist: Reg,
    fetch: Reg,
    newd: Reg,
    chflag: Reg,
}

/// Computes connected components of the undirected graph with adjacency
/// matrix `adj` on a fresh `(n/L × n/L)`-OTC (graph-width words, like
/// [`crate::otn::Otn::for_graphs`]).
///
/// # Errors
///
/// Returns [`ModelError`] if `adj` is not square with a power-of-two side
/// ≥ 4.
///
/// # Panics
///
/// Panics if the adjacency matrix is asymmetric or convergence exceeds
/// `4·log₂ n + 8` iterations.
///
/// # Example
///
/// ```
/// use orthotrees::{otc, Grid};
/// let mut adj = Grid::filled(8, 8, 0i64);
/// adj.set(1, 6, 1);
/// adj.set(6, 1, 1);
/// let out = otc::cc::connected_components(&adj)?;
/// assert_eq!(out.labels, vec![0, 1, 2, 3, 4, 5, 1, 7]);
/// # Ok::<(), orthotrees::ModelError>(())
/// ```
pub fn connected_components(adj: &Grid<Word>) -> Result<CcOutcome, ModelError> {
    let n = adj.rows();
    ModelError::require_equal("adjacency matrix sides", n, adj.cols())?;
    let (m, l) = Otc::dims_for(n)?;
    for (i, j, v) in adj.iter() {
        assert_eq!(
            Word::from(*v != 0),
            Word::from(*adj.get(j, i) != 0),
            "adjacency must be symmetric at ({i},{j})"
        );
    }

    let wbits = 2 * log2_ceil(n as u64).max(1) + 2;
    let mut net = Otc::new(m, l, CostModel::thompson(n).with_word_bits(wbits))?;
    let regs = CcRegs {
        aplanes: (0..l).map(|_| net.alloc_reg("A-plane")).collect(),
        d: net.alloc_reg("D"),
        prev: net.alloc_reg("prevD"),
        drow: net.alloc_reg("Drow"),
        dcol: net.alloc_reg("Dcol"),
        candplanes: (0..l).map(|_| net.alloc_reg("cand-plane")).collect(),
        pmin: net.alloc_reg("pmin"),
        minn: net.alloc_reg("minN"),
        creg: net.alloc_reg("C"),
        crow: net.alloc_reg("Crow"),
        lcand: net.alloc_reg("Lcand"),
        ldist: net.alloc_reg("Ldist"),
        fetch: net.alloc_reg("fetch"),
        newd: net.alloc_reg("newD"),
        chflag: net.alloc_reg("changed"),
    };
    for (r, &plane) in regs.aplanes.iter().enumerate() {
        net.load_reg(plane, |i, j, q| Some(Word::from(*adj.get(i * l + r, j * l + q) != 0)));
    }
    // D(v) = v at the diagonal cycles.
    net.load_reg(regs.d, |i, j, q| (i == j).then_some((i * l + q) as Word));

    let stats_before = *net.clock().stats();
    let max_iters = 4 * log2_ceil(n as u64).max(1) + 8;
    let mut iterations = 0u32;
    let (_, time) = net.elapsed(|net| loop {
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "OTC connected components failed to converge within {max_iters} iterations"
        );
        // Snapshot for the convergence test.
        let (d, prev) = (regs.d, regs.prev);
        net.bp_phase(PhaseCost::Bit, move |i, j, q, v| (i == j).then(|| (prev, v.get(d, i, j, q))));

        distribute_labels(net, &regs);

        // Candidates: cand[r](q) = D(J·L+q) where A(I·L+r, J·L+q) = 1.
        let (dcol, aplanes, candplanes) =
            (regs.dcol, regs.aplanes.clone(), regs.candplanes.clone());
        net.cycle_phase(PhaseCost::Words(l as u64), move |_, _, cyc| {
            for r in 0..aplanes.len() {
                for q in 0..cyc.len() {
                    let c = match (cyc.get(aplanes[r], q), cyc.get(dcol, q)) {
                        (Some(a), lbl @ Some(_)) if a != 0 => lbl,
                        _ => None,
                    };
                    cyc.set(candplanes[r], q, c);
                }
            }
        });
        // Cycle-local partial minima, re-indexed so position r carries
        // row-offset r's minimum.
        let (candplanes, pmin) = (regs.candplanes.clone(), regs.pmin);
        net.cycle_phase(PhaseCost::Words(l as u64), move |_, _, cyc| {
            for (r, &plane) in candplanes.iter().enumerate() {
                let mut best: Option<Word> = None;
                for q in 0..cyc.len() {
                    if let Some(v) = cyc.get(plane, q) {
                        best = Some(best.map_or(v, |b: Word| b.min(v)));
                    }
                }
                cyc.set(pmin, r, best);
            }
        });
        // Row-group minima: minn(I, ·, r) = min over J of pmin.
        net.min_cycle_to_cycle(
            Axis::Rows,
            regs.pmin,
            |_, _, _, _| Sel::All,
            regs.minn,
            |_, _, _| Sel::All,
        );
        // C(v) = min(D(v), minN(v)) at the diagonal.
        let (minn, creg) = (regs.minn, regs.creg);
        net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
            if i != j {
                return None;
            }
            let c = match (v.get(d, i, j, q), v.get(minn, i, j, q)) {
                (Some(dv), Some(mv)) => Some(dv.min(mv)),
                (Some(dv), None) => Some(dv),
                _ => None,
            };
            Some((creg, c))
        });
        // C streams along the rows like the labels do.
        net.cycle_to_cycle(
            Axis::Rows,
            regs.creg,
            |_, _, _, _| Sel::Diagonal,
            regs.crow,
            |_, _, _| Sel::All,
        );
        // Group minima by label: lcand(I, J, q'') = min{ C(v) : v in row
        // group I, D(v) = J·L + q'' } — a cycle-local regroup…
        let (drow, crow, lcand) = (regs.drow, regs.crow, regs.lcand);
        let ll = l;
        net.cycle_phase(PhaseCost::Words(2 * l as u64), move |_, j, cyc| {
            for qq in 0..cyc.len() {
                let w = (j * ll + qq) as Word;
                let mut best: Option<Word> = None;
                for q in 0..cyc.len() {
                    if cyc.get(drow, q) == Some(w) {
                        if let Some(c) = cyc.get(crow, q) {
                            best = Some(best.map_or(c, |b: Word| b.min(c)));
                        }
                    }
                }
                cyc.set(lcand, qq, best);
            }
        });
        // …then down the column trees: ldist(·, J, q'') = L(J·L+q'').
        net.min_cycle_to_cycle(
            Axis::Cols,
            regs.lcand,
            |_, _, _, _| Sel::All,
            regs.ldist,
            |_, _, _| Sel::All,
        );
        // Members adopt their group's new label via the indirection fetch.
        indirect_fetch(net, &regs, regs.ldist, l);
        let newd = regs.newd;
        net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
            if i != j {
                return None;
            }
            v.get(newd, i, j, q).map(|nd| (d, Some(nd)))
        });

        // Shortcut: ⌈log₂ n⌉ pointer jumps D(v) := D(D(v)).
        for _ in 0..log2_ceil(n as u64).max(1) {
            distribute_labels(net, &regs);
            indirect_fetch(net, &regs, regs.dcol, l);
            let newd = regs.newd;
            net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
                if i != j {
                    return None;
                }
                v.get(newd, i, j, q).map(|nd| (d, Some(nd)))
            });
        }

        // Converged? Count changed labels through the column trees.
        let chflag = regs.chflag;
        net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
            let f = i == j && v.get(d, i, j, q) != v.get(prev, i, j, q);
            Some((chflag, Some(Word::from(f))))
        });
        net.sum_cycle_to_root(Axis::Cols, regs.chflag, |_, _, _, _| Sel::All);
        let changed: Word = net.root_words(Axis::Cols).iter().map(|v| v.unwrap_or(0)).sum();
        if changed == 0 {
            break;
        }
    });

    // Emit labels through the column trees (diagonal positions line up).
    net.cycle_to_root(Axis::Cols, regs.d, |_, _, _, _| Sel::Diagonal);
    let labels: Vec<Word> =
        net.root_words(Axis::Cols).iter().map(|v| v.expect("every vertex has a label")).collect();
    let stats = net.clock().stats().since(&stats_before);
    debug_assert_eq!(labels, reference_components(adj));
    Ok(CcOutcome { labels, time, iterations, stats })
}

/// Streams the diagonal labels along both tree families; both streams are
/// position-indexed (`drow(I,J,q) = D(I·L+q)`, `dcol(I,J,q) = D(J·L+q)`).
fn distribute_labels(net: &mut Otc, regs: &CcRegs) {
    net.cycle_to_cycle(
        Axis::Rows,
        regs.d,
        |_, _, _, _| Sel::Diagonal,
        regs.drow,
        |_, _, _| Sel::All,
    );
    net.cycle_to_cycle(
        Axis::Cols,
        regs.d,
        |_, _, _, _| Sel::Diagonal,
        regs.dcol,
        |_, _, _| Sel::All,
    );
}

/// The two-hop indirection `newd(v) = table(D(v))`, where `table` is a
/// register whose column-distributed stream holds the table entry for
/// vertex `J·L+q` at `(·, J, q)` (true for both `ldist` and `dcol`):
/// each cycle checks whether its column hosts its row-group members'
/// targets, the row trees gather the unique hits, and the diagonal
/// receives the result in `newd`.
fn indirect_fetch(net: &mut Otc, regs: &CcRegs, table: Reg, l: usize) {
    let (drow, fetch) = (regs.drow, regs.fetch);
    net.cycle_phase(PhaseCost::Words(l as u64), move |_, j, cyc| {
        for q in 0..cyc.len() {
            let val = match cyc.get(drow, q) {
                Some(dv) => {
                    let (tj, tq) = ((dv as usize) / l, (dv as usize) % l);
                    if tj == j {
                        cyc.get(table, tq)
                    } else {
                        None
                    }
                }
                None => None,
            };
            cyc.set(fetch, q, val);
        }
    });
    net.cycle_to_cycle(
        Axis::Rows,
        regs.fetch,
        move |_, _, _, _| Sel::Valid(fetch),
        regs.newd,
        |_, _, _| Sel::Diagonal,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> Grid<Word> {
        let mut g = Grid::filled(n, n, 0);
        for &(u, v) in edges {
            g.set(u, v, 1);
            g.set(v, u, 1);
        }
        g
    }

    fn check(n: usize, edges: &[(usize, usize)]) -> CcOutcome {
        let adj = from_edges(n, edges);
        let out = connected_components(&adj).unwrap();
        assert_eq!(out.labels, reference_components(&adj), "edges: {edges:?}");
        out
    }

    #[test]
    fn empty_graph_is_all_singletons() {
        let out = check(8, &[]);
        assert_eq!(out.labels, (0..8).collect::<Vec<Word>>());
    }

    #[test]
    fn single_edges_within_and_across_cycles() {
        // n = 16 → m = 4, L = 4: (1,3) stays inside a diagonal cycle's
        // group, (2,9) crosses groups.
        check(16, &[(1, 3)]);
        check(16, &[(2, 9)]);
        check(16, &[(1, 3), (2, 9), (9, 15)]);
    }

    #[test]
    fn path_star_cycle_families() {
        let n = 32;
        check(n, &(0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>());
        check(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>());
        check(n, &(0..n).map(|v| (v, (v + 1) % n)).collect::<Vec<_>>());
    }

    #[test]
    fn random_graphs_match_union_find() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for &n in &[16usize, 32, 64] {
            for density in [0.03, 0.1, 0.4] {
                let mut edges = Vec::new();
                for u in 0..n {
                    for v in (u + 1)..n {
                        if rng.random::<f64>() < density {
                            edges.push((u, v));
                        }
                    }
                }
                check(n, &edges);
            }
        }
    }

    #[test]
    fn otc_time_is_comparable_to_otn_time() {
        // The §V claim for a graph algorithm, measured directly.
        let n = 64;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let adj = from_edges(n, &edges);
        let otc_out = connected_components(&adj).unwrap();
        let otn_out = crate::otn::graph::cc::connected_components(&adj).unwrap();
        let ratio = otc_out.time.as_f64() / otn_out.time.as_f64();
        assert!((0.2..5.0).contains(&ratio), "OTC/OTN CC time ratio {ratio:.2}");
    }

    #[test]
    fn iterations_stay_logarithmic() {
        let n = 64;
        let out = check(n, &(0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>());
        assert!(out.iterations <= 2 * 6 + 2, "path took {} iterations", out.iterations);
    }

    #[test]
    fn rejects_tiny_and_crooked_inputs() {
        assert!(connected_components(&Grid::filled(2, 2, 0)).is_err(), "n < 4");
        assert!(connected_components(&Grid::filled(6, 6, 0)).is_err());
    }
}
