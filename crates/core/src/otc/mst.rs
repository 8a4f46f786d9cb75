//! Minimum spanning tree *directly* on the OTC (paper §VI.B: "In the MST
//! algorithm, the area goes down to O(N² log N) … because the entire N × N
//! weight matrix must be stored on the chip, and each element requires
//! O(log N) bits").
//!
//! Same Borůvka structure as [`crate::otn::graph::mst`], same plane layout
//! as [`super::cc`]: the weight matrix lives in `L` register planes per
//! cycle (the §VI.B storage cost), per-vertex and per-component minima are
//! computed with one cycle-local regroup per tree reduction, and the hook
//! targets are resolved with the same two-hop pointer fetch the label
//! algorithms use. Ties are broken by the *normalised* edge id inside the
//! packed key (see the OTN MST's comment — this is load-bearing under
//! duplicate weights).

use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::grid::Grid;
use crate::otn::graph::mst::MstOutcome;
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
#[allow(clippy::too_many_lines)]
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
    let d = net.alloc_reg("D");
    net.load_reg(d, |i, j, q| (i == j).then_some((i * l + q) as Word));
    let drow = net.alloc_reg("Drow");
    let dcol = net.alloc_reg("Dcol");
    let candplanes: Vec<Reg> = (0..l).map(|_| net.alloc_reg("cand-plane")).collect();
    let pmin = net.alloc_reg("pmin");
    let vbest = net.alloc_reg("vbest");
    let lcand = net.alloc_reg("Lcand");
    let compmin = net.alloc_reg("compmin");
    let ptr = net.alloc_reg("ptr");
    let prow = net.alloc_reg("Prow");
    let fetch = net.alloc_reg("fetch");
    let t1 = net.alloc_reg("t1");
    let t2 = net.alloc_reg("t2");
    let nl = net.alloc_reg("newlabel");
    let nlcol = net.alloc_reg("NLcol");
    let llr = net.alloc_reg("LL");
    let have = net.alloc_reg("have");

    let mut edges_seen: HashSet<(usize, usize)> = HashSet::new();
    let mut edge_list: Vec<(usize, usize, Word)> = Vec::new();
    let mut total_weight: Word = 0;
    let mut phases = 0u32;
    let max_phases = 2 * log2_ceil(n as u64).max(1) + 4;
    let nn = n;

    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| loop {
        phases += 1;
        assert!(phases <= max_phases, "OTC MST failed to converge within {max_phases} phases");

        // Labels along both families (position-indexed streams).
        net.cycle_to_cycle(Axis::Rows, d, |_, _, _, _| Sel::Diagonal, drow, |_, _, _| Sel::All);
        net.cycle_to_cycle(Axis::Cols, d, |_, _, _, _| Sel::Diagonal, dcol, |_, _, _| Sel::All);

        // Candidate outgoing edges, packed (weight, normalised edge id).
        let (wp, cp) = (wplanes.clone(), candplanes.clone());
        net.cycle_phase(PhaseCost::Words(2 * l as u64), move |i, j, cyc| {
            for (r, (&wreg, &creg)) in wp.iter().zip(cp.iter()).enumerate() {
                let dv = cyc.get(drow, r);
                for q in 0..cyc.len() {
                    let c = match (cyc.get(wreg, q), dv, cyc.get(dcol, q)) {
                        (Some(w), Some(a), Some(b)) if a != b => {
                            let (v, u) = (i * l + r, j * l + q);
                            Some(pack(w, v.min(u) * nn + v.max(u), nn * nn))
                        }
                        _ => None,
                    };
                    cyc.set(creg, q, c);
                }
            }
        });
        // Per-vertex best: cycle-local min per row offset, then row trees.
        let cp = candplanes.clone();
        net.cycle_phase(PhaseCost::Words(l as u64), move |_, _, cyc| {
            for (r, &creg) in cp.iter().enumerate() {
                let mut best: Option<Word> = None;
                for q in 0..cyc.len() {
                    if let Some(v) = cyc.get(creg, q) {
                        best = Some(best.map_or(v, |b: Word| b.min(v)));
                    }
                }
                cyc.set(pmin, r, best);
            }
        });
        net.min_cycle_to_cycle(Axis::Rows, pmin, |_, _, _, _| Sel::All, vbest, |_, _, _| Sel::All);
        // Per-component best: regroup by label, then column trees.
        let ll = l;
        net.cycle_phase(PhaseCost::Words(2 * l as u64), move |_, j, cyc| {
            for qq in 0..cyc.len() {
                let w = (j * ll + qq) as Word;
                let mut best: Option<Word> = None;
                for r in 0..cyc.len() {
                    if cyc.get(drow, r) == Some(w) {
                        if let Some(v) = cyc.get(vbest, r) {
                            best = Some(best.map_or(v, |b: Word| b.min(v)));
                        }
                    }
                }
                cyc.set(lcand, qq, best);
            }
        });
        net.min_cycle_to_cycle(
            Axis::Cols,
            lcand,
            |_, _, _, _| Sel::All,
            compmin,
            |_, _, _| Sel::All,
        );

        // Termination: does any component still have an outgoing edge?
        net.bp_phase(PhaseCost::Bit, move |i, j, q, v| {
            let f = i == j && v.get(compmin, i, j, q).is_some();
            Some((have, Some(Word::from(f))))
        });
        net.sum_cycle_to_root(Axis::Cols, have, |_, _, _, _| Sel::All);
        let alive: Word = net.root_words(Axis::Cols).iter().map(|v| v.unwrap_or(0)).sum();
        if alive == 0 {
            break;
        }

        // Emit chosen edges through the column roots.
        net.cycle_to_root(Axis::Cols, compmin, |_, _, _, _| Sel::Diagonal);
        for packed in net.root_words(Axis::Cols).iter().flatten() {
            let (w, eid) = unpack(*packed, nn * nn);
            let key = (eid / nn, eid % nn);
            if edges_seen.insert(key) {
                edge_list.push((key.0, key.1, w));
                total_weight += w;
            }
        }

        // Hook targets: t1 = D(umin), t2 = D(umax) via pointer fetches.
        for (endpoint_sel, treg) in [(0usize, t1), (1usize, t2)] {
            // ptr(w) = that endpoint of w's chosen edge, at the diagonal.
            net.bp_phase(PhaseCost::Words(2), move |i, j, q, v| {
                if i != j {
                    return None;
                }
                let p = v.get(compmin, i, j, q).map(|packed| {
                    let (_, eid) = unpack(packed, nn * nn);
                    if endpoint_sel == 0 {
                        (eid / nn) as Word
                    } else {
                        (eid % nn) as Word
                    }
                });
                Some((ptr, p))
            });
            net.cycle_to_cycle(
                Axis::Rows,
                ptr,
                |_, _, _, _| Sel::Diagonal,
                prow,
                |_, _, _| Sel::All,
            );
            net.cycle_phase(PhaseCost::Words(l as u64), move |_, j, cyc| {
                for q in 0..cyc.len() {
                    let val = match cyc.get(prow, q) {
                        Some(p) => {
                            let (tj, tq) = ((p as usize) / ll, (p as usize) % ll);
                            if tj == j {
                                cyc.get(dcol, tq)
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
                fetch,
                move |_, _, _, _| Sel::Valid(fetch),
                treg,
                |_, _, _| Sel::Diagonal,
            );
        }
        // newlabel(w) = whichever endpoint label differs from w.
        net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
            if i != j {
                return None;
            }
            let w = (i * l + q) as Word;
            let target = match (v.get(t1, i, j, q), v.get(t2, i, j, q)) {
                (Some(a), _) if a != w => Some(a),
                (_, Some(b)) if b != w => Some(b),
                _ => None,
            };
            Some((nl, target))
        });
        // Break 2-cycles: LL(w) = newlabel(newlabel(w)).
        net.cycle_to_cycle(Axis::Cols, nl, |_, _, _, _| Sel::Diagonal, nlcol, |_, _, _| Sel::All);
        net.cycle_to_cycle(Axis::Rows, nl, |_, _, _, _| Sel::Diagonal, prow, |_, _, _| Sel::All);
        net.cycle_phase(PhaseCost::Words(l as u64), move |_, j, cyc| {
            for q in 0..cyc.len() {
                let val = match cyc.get(prow, q) {
                    Some(p) => {
                        let (tj, tq) = ((p as usize) / ll, (p as usize) % ll);
                        if tj == j {
                            cyc.get(nlcol, tq)
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
            fetch,
            move |_, _, _, _| Sel::Valid(fetch),
            llr,
            |_, _, _| Sel::Diagonal,
        );
        net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
            if i != j {
                return None;
            }
            let w = (i * l + q) as Word;
            match (v.get(nl, i, j, q), v.get(llr, i, j, q)) {
                (Some(target), Some(back)) if back == w => Some((d, Some(target.min(w)))),
                (Some(target), _) => Some((d, Some(target))),
                (None, _) => None,
            }
        });

        // Shortcut: flatten the merged components.
        for _ in 0..log2_ceil(n as u64).max(1) {
            net.cycle_to_cycle(Axis::Rows, d, |_, _, _, _| Sel::Diagonal, drow, |_, _, _| Sel::All);
            net.cycle_to_cycle(Axis::Cols, d, |_, _, _, _| Sel::Diagonal, dcol, |_, _, _| Sel::All);
            net.cycle_phase(PhaseCost::Words(l as u64), move |_, j, cyc| {
                for q in 0..cyc.len() {
                    let val = match cyc.get(drow, q) {
                        Some(p) => {
                            let (tj, tq) = ((p as usize) / ll, (p as usize) % ll);
                            if tj == j {
                                cyc.get(dcol, tq)
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
                fetch,
                move |_, _, _, _| Sel::Valid(fetch),
                llr,
                |_, _, _| Sel::Diagonal,
            );
            net.bp_phase(PhaseCost::Compare, move |i, j, q, v| {
                if i != j {
                    return None;
                }
                v.get(llr, i, j, q).map(|x| (d, Some(x)))
            });
        }
    });

    edge_list.sort_unstable();
    let stats = net.clock().stats().since(&stats_before);
    Ok(MstOutcome { edges: edge_list, total_weight, time, phases, stats })
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
