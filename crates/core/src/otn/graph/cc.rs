//! Connected components in `Θ(log⁴ N)` (paper §III.B / Table III).
//!
//! HCS-style hook-and-shortcut over the adjacency matrix:
//!
//! 1. every vertex computes the minimum label among its neighbours
//!    (`MIN-LEAFTOLEAF` on the row trees);
//! 2. every *label group* gathers the minimum candidate of its members
//!    (`MIN-LEAFTOLEAF` on the column trees, selected by `D(v) = column`);
//! 3. members adopt their group's new label (two indirections through the
//!    trees);
//! 4. `⌈log₂ N⌉` pointer-jumping rounds flatten the label forest;
//! 5. repeat until no label changes (a counted reduction), which takes
//!    `O(log N)` outer iterations.
//!
//! Each numbered step is `O(1)` or `O(log N)` tree primitives of
//! `Θ(log² N)` each — `Θ(log⁴ N)` overall, the Table III entry. The final
//! labels are canonical: every vertex ends up labelled with the smallest
//! vertex id in its component, which the tests check against a union–find
//! reference.

use super::super::{all, Axis, Otn, PhaseCost, Sel};
use super::{count_label_changes, ChangeCounter, Labels};
use crate::grid::Grid;
use crate::word::Word;
use orthotrees_vlsi::{BitTime, ModelError, OpStats};

/// Result of a connected-components run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcOutcome {
    /// `labels[v]` = smallest vertex id in `v`'s component.
    pub labels: Vec<Word>,
    /// Simulated time.
    pub time: BitTime,
    /// Outer hook-and-shortcut iterations used (expected `O(log N)`).
    pub iterations: u32,
    /// Primitive-operation counts.
    pub stats: OpStats,
}

/// Computes connected components of the undirected graph whose adjacency
/// matrix is `adj` (`adj[v][u] != 0` ⇔ edge) on a fresh
/// [`Otn::for_graphs`] network of side `N = adj.rows()`.
///
/// # Errors
///
/// Returns [`ModelError`] if `adj` is not square with a power-of-two side.
///
/// # Panics
///
/// Panics if the adjacency matrix is not symmetric, or if convergence takes
/// more than `4·log₂ N + 8` iterations (which would falsify the paper's
/// bound — the test suite runs adversarial families to confirm it never
/// happens).
pub fn connected_components(adj: &Grid<Word>) -> Result<CcOutcome, ModelError> {
    let n = adj.rows();
    ModelError::require_equal("adjacency matrix sides", n, adj.cols())?;
    ModelError::require_power_of_two("vertex count", n)?;
    for (i, j, v) in adj.iter() {
        assert_eq!(
            Word::from(*v != 0),
            Word::from(*adj.get(j, i) != 0),
            "adjacency must be symmetric at ({i},{j})"
        );
    }

    let mut net = Otn::for_graphs(n)?;
    let a = net.alloc_reg("adj");
    net.load_reg(a, |i, j| Some(Word::from(*adj.get(i, j) != 0)));

    let labels = Labels::init(&mut net);
    let cand = net.alloc_reg("cand");
    let minn = net.alloc_reg("minN");
    let cfull = net.alloc_reg("C");
    let lreg = net.alloc_reg("L");
    let prev = net.alloc_reg("prevD");
    let counter = ChangeCounter::init(&mut net);

    let stats_before = *net.clock().stats();
    let max_iters = 4 * orthotrees_vlsi::log2_ceil(n as u64).max(1) + 8;
    let mut iterations = 0u32;

    let (_, time) = net.elapsed(|net| loop {
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "connected components failed to converge within {max_iters} iterations"
        );
        // Snapshot D for the convergence test.
        net.bp_phase(PhaseCost::Bit, |i, j, bp| {
            if i == j {
                bp.set(prev, bp.get(labels.d));
            }
        });

        labels.refresh(net);
        // 1) cand(v,u) = D(u) if (v,u) ∈ E — the neighbour's label.
        net.bp_phase(PhaseCost::Compare, |_, _, bp| {
            let c = match (bp.get(a), bp.get(labels.dcol)) {
                (Some(e), lbl @ Some(_)) if e != 0 => lbl,
                _ => None,
            };
            bp.set(cand, c);
        });
        // minN(v) = min over neighbours, broadcast to all of row v.
        net.min_to_leaf(Axis::Rows, cand, all, minn, all);
        // C(v) = min(D(v), minN(v)) — computable locally everywhere since
        // drow(v,·) = D(v).
        net.bp_phase(PhaseCost::Compare, |_, _, bp| {
            let c = match (bp.get(labels.drow), bp.get(minn)) {
                (Some(d), Some(m)) => Some(d.min(m)),
                (Some(d), None) => Some(d),
                _ => None,
            };
            bp.set(cfull, c);
        });
        // 2) L(w) = min{ C(v) : D(v) = w }, landing at diagonal (w,w).
        let drow = labels.drow;
        net.min_to_leaf(
            Axis::Cols,
            cfull,
            move |_, _, _| Sel::EqCol(drow),
            lreg,
            |_, _, _| Sel::Diagonal,
        );
        // 3) members adopt their group's new label.
        labels.adopt(net, lreg);
        // 4) shortcut.
        labels.shortcut(net);
        // 5) converged?
        if count_label_changes(net, &labels, prev, &counter) == 0 {
            break;
        }
    });

    let label_vec = labels.read(&mut net);
    let stats = net.clock().stats().since(&stats_before);
    Ok(CcOutcome { labels: label_vec, time, iterations, stats })
}

/// Union–find reference (host-side), returning the same canonical labels
/// (smallest vertex id per component).
pub fn reference_components(adj: &Grid<Word>) -> Vec<Word> {
    let n = adj.rows();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for (i, j, v) in adj.iter() {
        if *v != 0 {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            let (lo, hi) = (ri.min(rj), ri.max(rj));
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as Word).collect()
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
    fn single_edge() {
        let out = check(4, &[(1, 3)]);
        assert_eq!(out.labels, vec![0, 1, 2, 1]);
    }

    #[test]
    fn path_graph_converges_within_log_bound() {
        let n = 32;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let out = check(n, &edges);
        assert_eq!(out.labels, vec![0; n]);
        assert!(out.iterations <= 2 * 5 + 2, "path took {} iterations", out.iterations);
    }

    #[test]
    fn star_and_cycle() {
        check(16, &(1..16).map(|v| (0, v)).collect::<Vec<_>>());
        let cyc: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        check(16, &cyc);
    }

    #[test]
    fn two_cliques_bridged() {
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        let out = check(8, &edges);
        assert_eq!(out.labels, vec![0, 0, 0, 0, 4, 4, 4, 4]);
        edges.push((3, 4));
        let joined = check(8, &edges);
        assert_eq!(joined.labels, vec![0; 8]);
    }

    #[test]
    fn random_graphs_match_union_find() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for &n in &[8usize, 16, 32] {
            for density in [0.02, 0.1, 0.5] {
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
    fn time_is_polylog() {
        // Time should grow ~log⁴: doubling N multiplies time by far less
        // than 2 asymptotically; just check the growth is subpolynomial.
        let t32 = check(32, &(0..31).map(|v| (v, v + 1)).collect::<Vec<_>>()).time.as_f64();
        let t64 = check(64, &(0..63).map(|v| (v, v + 1)).collect::<Vec<_>>()).time.as_f64();
        assert!(t64 / t32 < 1.9, "t32={t32} t64={t64}: growth looks polynomial");
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn rejects_asymmetric_adjacency() {
        let mut g = Grid::filled(4, 4, 0);
        g.set(0, 1, 1);
        let _ = connected_components(&g);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let g = Grid::filled(6, 6, 0);
        assert!(connected_components(&g).is_err());
    }
}
