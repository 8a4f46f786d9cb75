//! Minimum spanning tree in `Θ(log⁴ N)` (paper §III.B).
//!
//! Borůvka/Sollin phases over the weight matrix: each phase, every
//! component finds its minimum-weight outgoing edge (a `MIN-LEAFTOLEAF`
//! per tree family, with the weight *packed* with the edge id so the
//! minimum carries its argmin — see [`crate::pack`]), the chosen edges are
//! emitted, components hook along them (2-cycles broken towards the smaller
//! label — with packed-distinct weights no longer cycles can form), and
//! `⌈log₂ N⌉` pointer jumps flatten the merged components. The number of
//! components at least halves per phase, so `O(log N)` phases suffice; each
//! phase is `O(log N)` tree primitives of `Θ(log² N)` — `Θ(log⁴ N)` total,
//! with the extra `log N` of on-chip weight storage showing up in the area
//! (paper §VI.B: "the area goes down to O(N² log N) … because the entire
//! N × N weight matrix must be stored on the chip").

use super::super::{Otn, PhaseCost, Reg, Sel};
use super::{find, flag_open, graph_net, Candidates, LabelToolkit, Labels, Net};
use crate::grid::Grid;
use crate::word::{pack, unpack, Word};
use orthotrees_vlsi::{log2_ceil, BitTime, ModelError, OpStats};
use std::collections::HashSet;

/// Result of a minimum-spanning-tree run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstOutcome {
    /// Chosen edges `(u, v, weight)` with `u < v` — a minimum spanning
    /// forest if the graph is disconnected.
    pub edges: Vec<(usize, usize, Word)>,
    /// Sum of the chosen edges' weights.
    pub total_weight: Word,
    /// Simulated time.
    pub time: BitTime,
    /// Borůvka phases used (expected `O(log N)`).
    pub phases: u32,
    /// Primitive-operation counts.
    pub stats: OpStats,
}

/// Computes a minimum spanning forest of the undirected weighted graph
/// whose weight matrix is `weights` (`None` = no edge; weights must be
/// non-negative and the matrix symmetric).
///
/// # Errors
///
/// Returns [`ModelError`] if the matrix is not square with a power-of-two
/// side.
///
/// # Panics
///
/// Panics if the matrix is asymmetric, a weight is negative, or the phase
/// count exceeds `2·log₂ N + 4`.
pub fn minimum_spanning_tree(weights: &Grid<Option<Word>>) -> Result<MstOutcome, ModelError> {
    let mut net = graph_net::<Labels, _>(weights, "weight matrix sides", weight_bits(weights))?;
    Ok(spanning_forest::<Labels>(&mut net, weights))
}

/// The word width of an MST net: packed `(weight, edge id)` pairs, with
/// edge ids in `0..n²`.
pub(crate) fn weight_bits(weights: &Grid<Option<Word>>) -> u32 {
    let max_w = weights.iter().filter_map(|(_, _, w)| *w).fold(0, Word::max);
    log2_ceil(max_w as u64 + 1).max(1) + 2 * log2_ceil(weights.rows() as u64).max(1) + 2
}

/// The MST driver both networks run, on a graph net `net` of
/// `weights.rows()` vertices built by [`LabelToolkit::net`] at
/// [`weight_bits`]: loads `weights` and runs Borůvka phases until no
/// component has an outgoing edge.
///
/// # Panics
///
/// As [`minimum_spanning_tree`].
pub(crate) fn spanning_forest<L: LabelToolkit>(
    net: &mut Net<L>,
    weights: &Grid<Option<Word>>,
) -> MstOutcome {
    let n = weights.rows();
    for (i, j, v) in weights.iter() {
        assert_eq!(*v, *weights.get(j, i), "weight matrix must be symmetric at ({i},{j})");
        if let Some(w) = v {
            assert!(*w >= 0, "weights must be non-negative, got {w} at ({i},{j})");
        }
    }
    let wm = L::load(net, |v, u| *weights.get(v, u));
    let labels = L::init(net);
    let hook_regs = L::hook_regs(net);
    let [best, compmin, have] = ["best", "compmin", "have"].map(|r| net.alloc_reg(r));

    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut edges: Vec<(usize, usize, Word)> = Vec::new();
    let mut total_weight: Word = 0;
    let mut phases = 0u32;
    let max_phases = 2 * log2_ceil(n as u64).max(1) + 4;

    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| loop {
        phases += 1;
        assert!(phases <= max_phases, "MST failed to converge within {max_phases} phases");
        labels.refresh(net);
        // 1) per-vertex best outgoing edge, packed (weight, normalised edge
        //    id min(i,j)·n + max(i,j)). The NORMALISED id is load-bearing:
        //    with duplicate weights, two components joined by two
        //    equal-weight edges would otherwise each pick a *different*
        //    edge (each minimising over its own orientation's id) and the
        //    pair of picks would close a cycle. With one canonical id per
        //    edge, both sides of a tie pick the same edge and the 2-cycle
        //    hook resolution below merges them with exactly one edge.
        labels.vertex_min(net, &wm, Candidates::Edges, best);
        // 2) per-component best, at the component root's diagonal.
        labels.group_min(net, best, compmin);
        // 3) termination: any component with an outgoing edge left?
        flag_open(net, compmin, have);
        if labels.count(net, have) == 0 {
            break;
        }
        // 4) emit the chosen edges through the column roots.
        for packed in labels.read_diagonal(net, compmin).into_iter().flatten() {
            let (w, eid) = unpack(packed, n * n);
            let (u, v) = (eid / n, eid % n);
            if seen.insert((u, v)) {
                edges.push((u, v, w));
                total_weight += w;
            }
        }
        // 5) hook each component onto the label of its chosen edge's far
        //    endpoint, 2-cycles broken towards the smaller label, and
        //    flatten.
        labels.hook(net, &hook_regs, compmin);
        labels.shortcut(net);
    });

    edges.sort_unstable();
    let stats = net.clock().stats().since(&stats_before);
    MstOutcome { edges, total_weight, time, phases, stats }
}

/// Kruskal reference (host-side): returns the minimum spanning forest's
/// total weight and edge count.
pub fn reference_mst_weight(weights: &Grid<Option<Word>>) -> (Word, usize) {
    let n = weights.rows();
    let mut edges: Vec<(Word, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(w) = weights.get(i, j) {
                edges.push((*w, i, j));
            }
        }
    }
    edges.sort_unstable();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut total = 0;
    let mut count = 0;
    for (w, i, j) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri.max(rj)] = ri.min(rj);
            total += w;
            count += 1;
        }
    }
    (total, count)
}

/// The candidate outgoing edges: `cand(i, j)` is the weight
/// `W(i, j)` packed with the normalised edge id `min(i,j)·n + max(i,j)`
/// where the edge leaves `i`'s component (`D(i) ≠ D(j)`), `NULL`
/// elsewhere.
pub(crate) fn candidates(net: &mut Otn, [w, drow, dcol]: [Reg; 3], cand: Reg) {
    let n = net.rows();
    net.bp_kernel(
        PhaseCost::Words(2),
        Sel::All,
        [w, drow, dcol],
        cand,
        |bp, words, _| match words {
            [Some(w), Some(dv), Some(du)] if dv != du => {
                Some(pack(w, bp.i.min(bp.j) * n + bp.i.max(bp.j), n * n))
            }
            _ => None,
        },
    );
}

/// The hook targets: in row `w`, the cell of the chosen edge's
/// endpoint outside the component (its column label differs from the
/// row's) holds that label `D(u)`; every other cell holds `NULL`.
pub(crate) fn hooks(net: &mut Otn, [cmrow, drow, dcol]: [Reg; 3], hook: Reg) {
    let n = net.rows();
    net.bp_kernel(PhaseCost::Words(2), Sel::All, [cmrow, drow, dcol], hook, |bp, words, _| {
        let [Some(p), Some(dv), Some(du)] = words else { return None };
        let (_, eid) = unpack(p, n * n);
        let is_endpoint = eid % n == bp.j || eid / n == bp.j;
        // D(outside endpoint).
        (is_endpoint && du != dv).then_some(du)
    });
}

/// Hooking with 2-cycles broken: at the diagonal, `D(w) := L(w)`,
/// or `min(L(w), w)` where `L(L(w)) = w`; `D` is kept where `L` is
/// `NULL`.
pub(crate) fn break_two_cycles(net: &mut Otn, [l, ll]: [Reg; 2], d: Reg) {
    net.bp_kernel(PhaseCost::Compare, Sel::Diagonal, [l, ll], d, |bp, words, dv| match words {
        [Some(l), Some(ll)] if ll == bp.i as Word => Some(l.min(bp.i as Word)),
        [Some(l), _] => Some(l),
        [None, _] => dv,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_edges(n: usize, edges: &[(usize, usize, Word)]) -> Grid<Option<Word>> {
        let mut g = Grid::filled(n, n, None);
        for &(u, v, w) in edges {
            g.set(u, v, Some(w));
            g.set(v, u, Some(w));
        }
        g
    }

    fn check(n: usize, edges: &[(usize, usize, Word)]) -> MstOutcome {
        let weights = from_edges(n, edges);
        let out = minimum_spanning_tree(&weights).unwrap();
        let (ref_weight, ref_count) = reference_mst_weight(&weights);
        assert_eq!(out.total_weight, ref_weight, "edges: {edges:?}");
        assert_eq!(out.edges.len(), ref_count, "edges: {edges:?}");
        // The reported edges must form a forest of the right weight over
        // existing edges.
        for &(u, v, w) in &out.edges {
            assert_eq!(*weights.get(u, v), Some(w), "({u},{v}) not a graph edge");
        }
        out
    }

    #[test]
    fn triangle_drops_heaviest_edge() {
        let out = check(4, &[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        assert_eq!(out.edges, vec![(0, 1, 1), (1, 2, 2)]);
    }

    #[test]
    fn empty_graph_has_empty_forest() {
        let out = check(8, &[]);
        assert!(out.edges.is_empty());
        assert_eq!(out.total_weight, 0);
        assert_eq!(out.phases, 1, "one probe phase discovers no edges");
    }

    #[test]
    fn path_and_star() {
        check(8, &(0..7).map(|v| (v, v + 1, (v as Word * 3 + 1) % 7 + 1)).collect::<Vec<_>>());
        check(8, &(1..8).map(|v| (0, v, v as Word)).collect::<Vec<_>>());
    }

    #[test]
    fn disconnected_components_yield_forest() {
        let out = check(8, &[(0, 1, 5), (2, 3, 1), (2, 4, 2), (3, 4, 9)]);
        assert_eq!(out.total_weight, 5 + 1 + 2);
        assert_eq!(out.edges.len(), 3);
    }

    #[test]
    fn duplicate_weights_are_resolved_deterministically() {
        // All weights equal: any spanning tree has weight n−1; the packed
        // tie-break must still terminate and produce a tree.
        let n = 8;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, 1));
            }
        }
        let out = check(n, &edges);
        assert_eq!(out.total_weight, (n - 1) as Word);
    }

    #[test]
    fn random_weighted_graphs_match_kruskal() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for &n in &[8usize, 16, 32] {
            for density in [0.1, 0.4, 0.9] {
                let mut edges = Vec::new();
                for u in 0..n {
                    for v in (u + 1)..n {
                        if rng.random::<f64>() < density {
                            edges.push((u, v, rng.random_range(0..1000)));
                        }
                    }
                }
                let out = check(n, &edges);
                assert!(out.phases <= log2_ceil(n as u64) + 2, "n={n} took {} phases", out.phases);
            }
        }
    }

    #[test]
    fn phases_are_logarithmic_on_a_long_path() {
        let n = 64;
        let edges: Vec<(usize, usize, Word)> =
            (0..n - 1).map(|v| (v, v + 1, ((v * 7) % 13) as Word)).collect();
        let out = check(n, &edges);
        assert!(out.phases <= 8, "path MST took {} phases", out.phases);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn rejects_asymmetric_weights() {
        let mut g = Grid::filled(4, 4, None);
        g.set(0, 1, Some(3));
        let _ = minimum_spanning_tree(&g);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        let mut g = Grid::filled(4, 4, None);
        g.set(0, 1, Some(-3));
        g.set(1, 0, Some(-3));
        let _ = minimum_spanning_tree(&g);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let g: Grid<Option<Word>> = Grid::filled(5, 5, None);
        assert!(minimum_spanning_tree(&g).is_err());
    }
}
