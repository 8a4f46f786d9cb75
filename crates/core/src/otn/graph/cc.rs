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

use super::super::{Otn, PhaseCost, Reg, Sel};
use super::{
    find, flag_changed, graph_net, own_or_min, snapshot, Candidates, LabelToolkit, Labels, Net,
};
use crate::grid::Grid;
use crate::word::Word;
use orthotrees_vlsi::{log2_ceil, BitTime, ModelError, OpStats};

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
    let mut net = graph_net::<Labels, _>(adj, "adjacency matrix sides", label_bits(adj.rows()))?;
    Ok(components::<Labels>(&mut net, adj))
}

/// The word width of a graph net of `n` vertices: packed `(label, index)`
/// pairs, `2⌈log₂ n⌉ + 2` bits.
pub(crate) fn label_bits(n: usize) -> u32 {
    2 * log2_ceil(n as u64).max(1) + 2
}

/// The CC driver both networks run, on a graph net `net` of
/// `adj.rows()` vertices built by [`LabelToolkit::net`]: loads `adj` and
/// hooks and shortcuts until no label changes.
///
/// # Panics
///
/// As [`connected_components`].
pub(crate) fn components<L: LabelToolkit>(net: &mut Net<L>, adj: &Grid<Word>) -> CcOutcome {
    for (i, j, v) in adj.iter() {
        assert_eq!(
            Word::from(*v != 0),
            Word::from(*adj.get(j, i) != 0),
            "adjacency must be symmetric at ({i},{j})"
        );
    }
    let a = L::load(net, |v, u| Some(Word::from(*adj.get(v, u) != 0)));
    let labels = L::init(net);
    let [prev, minn, c, lreg, changed] =
        ["prevD", "minN", "C", "L", "changed"].map(|r| net.alloc_reg(r));

    let stats_before = *net.clock().stats();
    let max_iters = 4 * log2_ceil(adj.rows() as u64).max(1) + 8;
    let mut iterations = 0u32;
    let (_, time) = net.elapsed(|net| loop {
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "connected components failed to converge within {max_iters} iterations"
        );
        // Snapshot D for the convergence test.
        snapshot(net, labels.d(), prev);
        labels.refresh(net);
        // 1) minN(v) = the least label among v's neighbours.
        labels.vertex_min(net, &a, Candidates::Neighbours, minn);
        // C(v) = min(D(v), minN(v)).
        let (site, own) = labels.own();
        own_or_min(net, site, [own, minn], c);
        // 2) L(w) = min{ C(v) : D(v) = w }.
        let crow = labels.along_rows(net, c);
        labels.group_min(net, crow, lreg);
        // 3) members adopt their group's new label; 4) shortcut.
        labels.adopt(net, lreg);
        labels.shortcut(net);
        // 5) converged?
        flag_changed(net, [labels.d(), prev], changed);
        if labels.count(net, changed) == 0 {
            break;
        }
    });

    let labels = labels.read(net);
    let stats = net.clock().stats().since(&stats_before);
    debug_assert_eq!(labels, reference_components(adj));
    CcOutcome { labels, time, iterations, stats }
}

/// `cand(v, u) := D(u)` where `(v, u)` is an edge, `NULL` elsewhere — each
/// vertex's neighbours' labels, from the adjacency `a` and the column
/// broadcast `dcol(v, u) = D(u)`.
pub(crate) fn neighbour_labels(net: &mut Otn, [a, dcol]: [Reg; 2], cand: Reg) {
    net.bp_kernel(PhaseCost::Compare, Sel::All, [a, dcol], cand, |_, words, _| match words {
        [Some(e), lbl @ Some(_)] if e != 0 => lbl,
        _ => None,
    });
}

/// Union–find reference (host-side), returning the same canonical labels
/// (smallest vertex id per component).
pub fn reference_components(adj: &Grid<Word>) -> Vec<Word> {
    let n = adj.rows();
    let mut parent: Vec<usize> = (0..n).collect();
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
