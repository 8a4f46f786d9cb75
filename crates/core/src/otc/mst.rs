//! Minimum spanning tree *directly* on the OTC (paper §VI.B: "In the MST
//! algorithm, the area goes down to O(N² log N) … because the entire N × N
//! weight matrix must be stored on the chip, and each element requires
//! O(log N) bits").
//!
//! The Borůvka loop is the driver of [`crate::otn::graph::mst`], run over
//! the OTC's label toolkit (`otc::labels`): the weight matrix lives in `L`
//! register planes per cycle (the §VI.B storage cost), and the hook
//! targets are resolved with the toolkit's two-hop pointer fetch.

use super::labels::Labels;
use super::{Otc, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::otn::graph::graph_net;
use crate::otn::graph::mst::{spanning_forest, weight_bits, MstOutcome};
use crate::word::{pack, unpack, Word};
use orthotrees_vlsi::ModelError;

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
    let mut net = graph_net::<Labels, _>(weights, "weight matrix sides", weight_bits(weights))?;
    Ok(spanning_forest::<Labels>(&mut net, weights))
}

/// The candidate outgoing edges: `cand[r](I, J, q)` is `W(v, u)` packed
/// with the normalised edge id `min(v,u)·n + max(v,u)`, for `v = I·L+r`
/// and `u = J·L+q`, where the edge leaves `v`'s component; `NULL`
/// elsewhere.
pub(crate) fn candidates(net: &mut Otc, w: &[Reg], [drow, dcol]: [Reg; 2], cand: &[Reg]) {
    let (l, n) = (net.cycle_len(), net.side() * net.cycle_len());
    net.cycle_phase(PhaseCost::Words(2 * l as u64), |i, j, cyc| {
        for (r, (&wreg, &creg)) in w.iter().zip(cand).enumerate() {
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
    use orthotrees_vlsi::log2_ceil;

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
