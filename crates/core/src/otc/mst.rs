//! Minimum spanning tree *directly* on the OTC (paper §VI.B: "In the MST
//! algorithm, the area goes down to O(N² log N) … because the entire N × N
//! weight matrix must be stored on the chip, and each element requires
//! O(log N) bits").
//!
//! Same Borůvka structure as [`crate::otn::graph::mst`], same plane layout
//! and label toolkit (`otc::labels`) as [`super::cc`]: the weight matrix
//! lives in `L` register planes per cycle (the §VI.B storage cost),
//! per-vertex and per-component minima are the toolkit's row-offset and
//! regroup-by-label reductions, and the hook targets are resolved with its
//! two-hop pointer fetch. Ties are broken by the *normalised* edge id
//! inside the packed key (see the OTN MST's comment — this is load-bearing
//! under duplicate weights).

use super::labels::{spread, Labels};
use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::otn::graph::{self, mst::MstOutcome};
use crate::word::{pack, unpack, Word};
use orthotrees_vlsi::{log2_ceil, CostModel, ModelError};
use std::collections::HashSet;

/// Computes a minimum spanning forest of the graph with symmetric weight
/// matrix `weights` (`None` = no edge) on a fresh `(n/L × n/L)`-OTC.
///
/// # Errors
///
/// Returns [`ModelError`] if the matrix is not square with a power-of-two
/// side ≥ 4.
///
/// # Panics
///
/// Panics on an asymmetric matrix, negative weights, or more than
/// `2·log₂ n + 4` phases.
pub fn minimum_spanning_tree(weights: &Grid<Option<Word>>) -> Result<MstOutcome, ModelError> {
    let n = weights.rows();
    ModelError::require_equal("weight matrix sides", n, weights.cols())?;
    let (m, l) = Otc::dims_for(n)?;
    let mut max_w: Word = 0;
    for (i, j, v) in weights.iter() {
        assert_eq!(*v, *weights.get(j, i), "weight matrix must be symmetric at ({i},{j})");
        if let Some(w) = v {
            assert!(*w >= 0, "weights must be non-negative, got {w} at ({i},{j})");
            max_w = max_w.max(*w);
        }
    }
    let weight_bits = log2_ceil(max_w as u64 + 1).max(1);
    let wbits = weight_bits + 2 * log2_ceil(n as u64).max(1) + 2;
    let mut net = Otc::new(m, l, CostModel::thompson(n).with_word_bits(wbits))?;

    let wplanes: Vec<Reg> = (0..l).map(|_| net.alloc_reg("W-plane")).collect();
    for (r, &plane) in wplanes.iter().enumerate() {
        net.load_reg(plane, |i, j, q| *weights.get(i * l + r, j * l + q));
    }
    let labels = Labels::init(&mut net);
    let candplanes: Vec<Reg> = (0..l).map(|_| net.alloc_reg("cand-plane")).collect();
    let [vbest, compmin, ptr, prow, t1, t2, nl, nlcol, llr, have] =
        ["vbest", "compmin", "ptr", "Prow", "t1", "t2", "newlabel", "NLcol", "LL", "have"]
            .map(|name| net.alloc_reg(name));
    let (d, drow, dcol) = (labels.d, labels.drow, labels.dcol);

    let mut edges_seen: HashSet<(usize, usize)> = HashSet::new();
    let mut edge_list: Vec<(usize, usize, Word)> = Vec::new();
    let mut total_weight: Word = 0;
    let mut phases = 0u32;
    let max_phases = 2 * log2_ceil(n as u64).max(1) + 4;

    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| loop {
        phases += 1;
        assert!(phases <= max_phases, "OTC MST failed to converge within {max_phases} phases");
        labels.refresh(net);

        // Candidate outgoing edges, packed (weight, normalised edge id).
        net.cycle_phase(PhaseCost::Words(2 * l as u64), |i, j, cyc| {
            for (r, (&wreg, &creg)) in wplanes.iter().zip(&candplanes).enumerate() {
                let dv = cyc.get(drow, r);
                for q in 0..cyc.len() {
                    let c = match (cyc.get(wreg, q), dv, cyc.get(dcol, q)) {
                        (Some(w), Some(a), Some(b)) if a != b => {
                            let (v, u) = (i * l + r, j * l + q);
                            Some(pack(w, v.min(u) * n + v.max(u), n * n))
                        }
                        _ => None,
                    };
                    cyc.set(creg, q, c);
                }
            }
        });
        // Per-vertex best over the row trees, per-component best over the
        // column trees.
        labels.row_min(net, &candplanes, vbest);
        labels.group_min(net, vbest, compmin);

        // Termination: does any component still have an outgoing edge?
        graph::flag_open(net, compmin, have);
        net.sum_cycle_to_root(Axis::Cols, have, |_, _, _, _| Sel::All);
        let alive: Word = net.root_words(Axis::Cols).iter().map(|v| v.unwrap_or(0)).sum();
        if alive == 0 {
            break;
        }

        // Emit chosen edges through the column roots.
        net.cycle_to_root(Axis::Cols, compmin, |_, _, _, _| Sel::Diagonal);
        for packed in net.root_words(Axis::Cols).iter().flatten() {
            let (w, eid) = unpack(*packed, n * n);
            let key = (eid / n, eid % n);
            if edges_seen.insert(key) {
                edge_list.push((key.0, key.1, w));
                total_weight += w;
            }
        }

        // Hook targets: t1 = D(umin), t2 = D(umax) via pointer fetches.
        for (upper, treg) in [(false, t1), (true, t2)] {
            endpoints(net, compmin, ptr, upper);
            spread(net, Axis::Rows, ptr, prow);
            labels.fetch(net, prow, dcol, treg);
        }
        // newlabel(w) = whichever endpoint label differs from w.
        new_labels(net, [t1, t2], nl);
        // Break 2-cycles: LL(w) = newlabel(newlabel(w)).
        spread(net, Axis::Cols, nl, nlcol);
        spread(net, Axis::Rows, nl, prow);
        labels.fetch(net, prow, nlcol, llr);
        break_two_cycles(net, [nl, llr], d);

        // Shortcut: flatten the merged components.
        labels.shortcut(net);
    });

    edge_list.sort_unstable();
    let stats = net.clock().stats().since(&stats_before);
    Ok(MstOutcome { edges: edge_list, total_weight, time, phases, stats })
}

/// `ptr(w)` at the diagonal: the lower (`upper = false`) or upper
/// endpoint of the edge packed in `best(w)`, `NULL` where `best` is.
pub(crate) fn endpoints(net: &mut Otc, best: Reg, ptr: Reg, upper: bool) {
    // The graph has side · L vertices.
    let n = net.side() * net.cycle_len();
    net.bp_kernel(PhaseCost::Words(2), Sel::Diagonal, [best], ptr, |_, [packed], _| {
        packed.map(|packed| {
            let (_, eid) = unpack(packed, n * n);
            (if upper { eid % n } else { eid / n }) as Word
        })
    });
}

/// `newlabel(w)` at the diagonal: whichever of the endpoint labels `t1`,
/// `t2` differs from `w`, first `t1`; `NULL` if neither does.
pub(crate) fn new_labels(net: &mut Otc, [t1, t2]: [Reg; 2], nl: Reg) {
    let l = net.cycle_len();
    net.bp_kernel(PhaseCost::Compare, Sel::Diagonal, [t1, t2], nl, |bp, words, _| {
        let w = (bp.i * l + bp.q) as Word;
        match words {
            [Some(a), _] if a != w => Some(a),
            [_, Some(b)] if b != w => Some(b),
            _ => None,
        }
    });
}

/// Hooking with 2-cycles broken: at the diagonal, `D(w) := newlabel(w)`,
/// or `min(newlabel(w), w)` where `LL(w) = w`; `D` is kept where
/// `newlabel` is `NULL`.
pub(crate) fn break_two_cycles(net: &mut Otc, [nl, ll]: [Reg; 2], d: Reg) {
    let l = net.cycle_len();
    net.bp_kernel(PhaseCost::Compare, Sel::Diagonal, [nl, ll], d, |bp, words, dv| {
        let w = (bp.i * l + bp.q) as Word;
        match words {
            [Some(target), Some(back)] if back == w => Some(target.min(w)),
            [Some(target), _] => Some(target),
            [None, _] => dv,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otn::graph::mst::reference_mst_weight;

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
        for &(u, v, w) in &out.edges {
            assert_eq!(*weights.get(u, v), Some(w), "({u},{v}) not a graph edge");
        }
        out
    }

    #[test]
    fn triangle_and_empty() {
        check(8, &[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let out = check(8, &[]);
        assert_eq!(out.phases, 1);
    }

    #[test]
    fn cross_cycle_edges_and_duplicate_weights() {
        // n = 16 → cycles of 4: edges crossing the L×L tiling.
        check(16, &[(0, 9, 5), (9, 14, 5), (3, 4, 5), (4, 12, 5)]);
        let n = 16;
        let mut all_ones = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                all_ones.push((u, v, 1));
            }
        }
        let out = check(n, &all_ones);
        assert_eq!(out.total_weight, (n - 1) as Word);
    }

    #[test]
    fn random_weighted_graphs_match_kruskal() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFEED);
        for &n in &[16usize, 32, 64] {
            for density in [0.1, 0.5] {
                let mut edges = Vec::new();
                for u in 0..n {
                    for v in (u + 1)..n {
                        if rng.random::<f64>() < density {
                            edges.push((u, v, rng.random_range(0..500)));
                        }
                    }
                }
                let out = check(n, &edges);
                assert!(out.phases <= log2_ceil(n as u64) + 2, "n={n}: {} phases", out.phases);
            }
        }
    }

    #[test]
    fn otc_mst_time_is_comparable_to_otn_time() {
        let n = 64;
        let edges: Vec<(usize, usize, Word)> =
            (0..n - 1).map(|v| (v, v + 1, ((v * 13) % 37) as Word + 1)).collect();
        let weights = from_edges(n, &edges);
        let otc_out = minimum_spanning_tree(&weights).unwrap();
        let otn_out = crate::otn::graph::mst::minimum_spanning_tree(&weights).unwrap();
        assert_eq!(otc_out.total_weight, otn_out.total_weight);
        let ratio = otc_out.time.as_f64() / otn_out.time.as_f64();
        assert!((0.2..6.0).contains(&ratio), "OTC/OTN MST time ratio {ratio:.2}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(minimum_spanning_tree(&Grid::filled(6, 6, None)).is_err());
        assert!(minimum_spanning_tree(&Grid::filled(2, 2, None)).is_err(), "n < 4");
    }
}
