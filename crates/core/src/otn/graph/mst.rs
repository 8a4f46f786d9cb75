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

use super::super::{all, Axis, Otn, PhaseCost, Sel};
use super::Labels;
use crate::grid::Grid;
use crate::word::{pack, unpack, Word};
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel, ModelError, OpStats};
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
    let n = weights.rows();
    ModelError::require_equal("weight matrix sides", n, weights.cols())?;
    ModelError::require_power_of_two("vertex count", n)?;
    let mut max_w: Word = 0;
    for (i, j, v) in weights.iter() {
        assert_eq!(*v, *weights.get(j, i), "weight matrix must be symmetric at ({i},{j})");
        if let Some(w) = v {
            assert!(*w >= 0, "weights must be non-negative, got {w} at ({i},{j})");
            max_w = max_w.max(*w);
        }
    }

    // Word width: packed (weight, edge-id) pairs. edge-id ∈ 0..n².
    let weight_bits = log2_ceil(max_w as u64 + 1).max(1);
    let wbits = weight_bits + 2 * log2_ceil(n as u64).max(1) + 2;
    let mut net = Otn::new(n, n, CostModel::thompson(n).with_word_bits(wbits))?;

    let wreg = net.alloc_reg("W");
    net.load_reg(wreg, |i, j| *weights.get(i, j));
    let labels = Labels::init(&mut net);
    let cand = net.alloc_reg("cand");
    let cmin = net.alloc_reg("cmin");
    let compmin = net.alloc_reg("compmin");
    let cmrow = net.alloc_reg("cmrow");
    let hookval = net.alloc_reg("hook");
    let lreg = net.alloc_reg("L");
    let lrow = net.alloc_reg("Lrow");
    let lcol = net.alloc_reg("Lcol2");
    let llreg = net.alloc_reg("LL");
    let have = net.alloc_reg("have");
    let havecnt = net.alloc_reg("havecnt");

    let mut edges: HashSet<(usize, usize)> = HashSet::new();
    let mut edge_list: Vec<(usize, usize, Word)> = Vec::new();
    let mut total_weight: Word = 0;
    let mut phases = 0u32;
    let max_phases = 2 * log2_ceil(n as u64).max(1) + 4;
    let nn = n;

    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| loop {
        phases += 1;
        assert!(phases <= max_phases, "MST failed to converge within {max_phases} phases");
        labels.refresh(net);
        // 1) candidate outgoing edges, packed (weight, normalised edge id
        //    min(i,j)·n + max(i,j)). The NORMALISED id is load-bearing: with
        //    duplicate weights, two components joined by two equal-weight
        //    edges would otherwise each pick a *different* edge (each
        //    minimising over its own orientation's id) and the pair of
        //    picks would close a cycle. With one canonical id per edge,
        //    both sides of a tie pick the same edge and the 2-cycle hook
        //    resolution below merges them with exactly one edge.
        let (drow, dcol) = (labels.drow, labels.dcol);
        net.bp_phase(PhaseCost::Words(2), move |i, j, bp| {
            let c = match (bp.get(wreg), bp.get(drow), bp.get(dcol)) {
                (Some(w), Some(dv), Some(du)) if dv != du => {
                    Some(pack(w, i.min(j) * nn + i.max(j), nn * nn))
                }
                _ => None,
            };
            bp.set(cand, c);
        });
        // 2) per-vertex best, known everywhere in the row.
        net.min_to_leaf(Axis::Rows, cand, all, cmin, all);
        // 3) per-component best, landing at the component root's diagonal.
        net.min_to_leaf(
            Axis::Cols,
            cmin,
            move |_, _, _| Sel::EqCol(drow),
            compmin,
            |_, _, _| Sel::Diagonal,
        );
        // 4) termination: any component with an outgoing edge left?
        net.bp_phase(PhaseCost::Bit, |i, j, bp| {
            let f = i == j && bp.get(compmin).is_some();
            bp.set(have, Some(Word::from(f)));
        });
        net.count_to_leaf(Axis::Cols, have, havecnt, |_, _, _| Sel::Row(0));
        net.count_to_root(Axis::Rows, havecnt);
        if net.roots(Axis::Rows)[0] == Some(0) {
            break;
        }
        // 5) emit the chosen edges through the column roots.
        net.leaf_to_root(Axis::Cols, compmin, |_, _, _| Sel::Diagonal);
        let chosen: Vec<Option<Word>> = net.roots(Axis::Cols).to_vec();
        for packed in chosen.into_iter().flatten() {
            let (w, eid) = unpack(packed, nn * nn);
            let (v, u) = (eid / nn, eid % nn);
            let key = (v.min(u), v.max(u));
            if edges.insert(key) {
                edge_list.push((key.0, key.1, w));
                total_weight += w;
            }
        }
        // 6) hooking: component w's new parent is the *other side's* label
        //    D(u). The normalised edge id no longer says which endpoint is
        //    outside, but the outside endpoint is recognisable on-network:
        //    it is the one whose column label differs from this row's
        //    component label.
        net.leaf_to_leaf(Axis::Rows, compmin, |_, _, _| Sel::Diagonal, cmrow, all);
        net.bp_phase(PhaseCost::Words(2), move |_, j, bp| {
            let h = match (bp.get(cmrow), bp.get(drow), bp.get(dcol)) {
                (Some(p), Some(dv), Some(du)) => {
                    let (_, eid) = unpack(p, nn * nn);
                    let is_endpoint = eid % nn == j || eid / nn == j;
                    if is_endpoint && du != dv {
                        Some(du) // D(outside endpoint)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            bp.set(hookval, h);
        });
        net.min_to_leaf(Axis::Rows, hookval, all, lreg, |_, _, _| Sel::Diagonal);
        // 7) break 2-cycles: fetch LL(w) = L(L(w)); if LL(w) = w, the
        //    smaller label becomes the root.
        net.leaf_to_leaf(Axis::Rows, lreg, |_, _, _| Sel::Diagonal, lrow, all);
        net.leaf_to_leaf(Axis::Cols, lreg, |_, _, _| Sel::Diagonal, lcol, all);
        net.leaf_to_leaf(
            Axis::Rows,
            lcol,
            move |_, _, _| Sel::EqCol(lrow),
            llreg,
            |_, _, _| Sel::Diagonal,
        );
        let d = labels.d;
        net.bp_phase(PhaseCost::Compare, move |i, j, bp| {
            if i != j {
                return;
            }
            match (bp.get(lreg), bp.get(llreg)) {
                (Some(l), Some(ll)) if ll == i as Word => {
                    bp.set(d, Some(l.min(i as Word)));
                }
                (Some(l), _) => bp.set(d, Some(l)),
                (None, _) => {}
            }
        });
        // 8) flatten.
        labels.shortcut(net);
    });

    edge_list.sort_unstable();
    let stats = net.clock().stats().since(&stats_before);
    Ok(MstOutcome { edges: edge_list, total_weight, time, phases, stats })
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
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
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
