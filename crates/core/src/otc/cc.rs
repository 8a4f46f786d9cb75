//! Connected components *directly* on the OTC (paper §VI.B: "In the same
//! manner as procedure SORT-OTN was converted to SORT-OTC, we can convert
//! the matrix and graph algorithms of Section III to run on the OTC").
//!
//! This is the §V simulation carried out operation by operation rather
//! than priced from op counts: the hook-and-shortcut loop is the driver of
//! [`crate::otn::graph::cc`], run over the OTC's label toolkit
//! (crate-internal `otc::labels`), where every OTN register becomes `L`
//! register *planes*, every tree operation one streamed cycle operation,
//! and every base phase `L` cycle-local rounds. The tests check the time
//! lands within a small constant of the OTN's — the paper's "same time,
//! less area" — and the result against union–find.

use super::labels::Labels;
use super::{Otc, PhaseCost, Reg};
use crate::grid::Grid;
use crate::otn::graph::cc::{components, label_bits, CcOutcome};
use crate::otn::graph::graph_net;
use crate::word::Word;
use orthotrees_vlsi::ModelError;

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
    let mut net = graph_net::<Labels, _>(adj, "adjacency matrix sides", label_bits(adj.rows()))?;
    Ok(components::<Labels>(&mut net, adj))
}

/// `cand[r](I, J, q) := D(J·L+q)` where `A(I·L+r, J·L+q) = 1`, `NULL`
/// elsewhere — the neighbours' labels, from the adjacency planes `a` and
/// the column stream `dcol`.
pub(crate) fn neighbour_labels(net: &mut Otc, a: &[Reg], dcol: Reg, cand: &[Reg]) {
    net.cycle_phase(PhaseCost::Words(a.len() as u64), |_, _, cyc| {
        for (&plane, &creg) in a.iter().zip(cand) {
            for q in 0..cyc.len() {
                let c = match (cyc.get(plane, q), cyc.get(dcol, q)) {
                    (Some(e), lbl @ Some(_)) if e != 0 => lbl,
                    _ => None,
                };
                cyc.set(creg, q, c);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otn::graph::cc::reference_components;

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
