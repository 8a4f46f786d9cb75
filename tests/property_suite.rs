//! Property-based tests (proptest) over the core data structures and
//! algorithms: for arbitrary inputs, every parallel implementation must
//! agree with its sequential reference, and the structural invariants of
//! the cost model must hold.

use orthotrees::otc::Otc;
use orthotrees::otn::{self, Otn};
use orthotrees::{pack, unpack, Grid};
use orthotrees_baselines::{ccc::Ccc, psn::Psn, seq};
use proptest::prelude::*;

/// A power-of-two length in a small range, plus that many words.
fn words(max_log: u32) -> impl Strategy<Value = Vec<i64>> {
    (2u32..=max_log).prop_flat_map(|k| proptest::collection::vec(-1000i64..1000, 1usize << k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sort_otn_matches_std_sort(xs in words(6)) {
        let mut net = Otn::for_sorting(xs.len()).unwrap();
        let out = otn::sort::sort(&mut net, &xs).unwrap();
        prop_assert_eq!(out.sorted, seq::sorted(&xs));
    }

    #[test]
    fn sort_otc_matches_std_sort(xs in words(6)) {
        prop_assume!(xs.len() >= 4);
        let mut net = Otc::for_sorting(xs.len()).unwrap();
        let out = orthotrees::otc::sort::sort(&mut net, &xs).unwrap();
        prop_assert_eq!(out.sorted, seq::sorted(&xs));
    }

    #[test]
    fn sort_psn_and_ccc_match_std_sort(xs in words(6)) {
        prop_assume!(xs.len() >= 4);
        let mut p = Psn::new(xs.len()).unwrap();
        prop_assert_eq!(p.sort(&xs).unwrap().sorted, seq::sorted(&xs));
        let mut c = Ccc::new(xs.len()).unwrap();
        prop_assert_eq!(c.sort(&xs).unwrap().sorted, seq::sorted(&xs));
    }

    #[test]
    fn bitonic_matches_std_sort(xs in proptest::collection::vec(-500i64..500, 16)) {
        let mut net = Otn::for_sorting(4).unwrap();
        let out = otn::bitonic::bitonic_sort(&mut net, &xs).unwrap();
        prop_assert_eq!(out.sorted, seq::sorted(&xs));
    }

    #[test]
    fn cc_matches_union_find(
        edges in proptest::collection::vec((0usize..16, 0usize..16), 0..40)
    ) {
        let n = 16;
        let mut adj = Grid::filled(n, n, 0i64);
        for &(u, v) in &edges {
            if u != v {
                adj.set(u, v, 1);
                adj.set(v, u, 1);
            }
        }
        let simple: Vec<(usize, usize)> =
            edges.iter().copied().filter(|&(u, v)| u != v).collect();
        let want = seq::components(n, &simple);
        let otn_out = otn::graph::cc::connected_components(&adj).unwrap();
        let otc_out = orthotrees::otc::cc::connected_components(&adj).unwrap();
        prop_assert_eq!(&otn_out.labels, &want);
        prop_assert_eq!(otc_out.labels, want);
    }

    #[test]
    fn mst_weight_matches_kruskal(
        edges in proptest::collection::vec((0usize..16, 0usize..16, 1i64..100), 0..40)
    ) {
        let n = 16;
        let mut weights: Grid<Option<i64>> = Grid::filled(n, n, None);
        let mut dedup = std::collections::HashMap::new();
        for &(u, v, w) in &edges {
            if u != v {
                // First write wins, applied symmetrically.
                dedup.entry((u.min(v), u.max(v))).or_insert(w);
            }
        }
        let edge_list: Vec<(usize, usize, i64)> =
            dedup.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        for &(u, v, w) in &edge_list {
            weights.set(u, v, Some(w));
            weights.set(v, u, Some(w));
        }
        let (ref_w, ref_count) = seq::kruskal(n, &edge_list);
        let otn_out = otn::graph::mst::minimum_spanning_tree(&weights).unwrap();
        let otc_out = orthotrees::otc::mst::minimum_spanning_tree(&weights).unwrap();
        for out in [&otn_out, &otc_out] {
            prop_assert_eq!(out.total_weight, ref_w);
            prop_assert_eq!(out.edges.len(), ref_count);
        }
        // Packed (weight, normalised id) keys order the edges totally, so
        // the forest is unique even under duplicate weights.
        prop_assert_eq!(otn_out.edges, otc_out.edges);
    }

    #[test]
    fn dft_inverse_round_trips(xs in proptest::collection::vec(0i64..1_000_000, 16)) {
        let mut net = Otn::for_sorting(4).unwrap();
        let spec = otn::dft::dft(&mut net, &xs).unwrap();
        let mut net2 = Otn::for_sorting(4).unwrap();
        let back = otn::dft::idft(&mut net2, &spec.output).unwrap();
        prop_assert_eq!(back.output, xs);
    }

    #[test]
    fn wide_matmul_matches_reference(
        a_vals in proptest::collection::vec(-9i64..9, 16),
        b_vals in proptest::collection::vec(-9i64..9, 16),
    ) {
        let a = Grid::from_fn(4, 4, |i, j| a_vals[i * 4 + j]);
        let b = Grid::from_fn(4, 4, |i, j| b_vals[i * 4 + j]);
        let wide = otn::matmul::matmul_wide(&a, &b).unwrap();
        prop_assert_eq!(wide.c, otn::matmul::reference_matmul(&a, &b));
    }

    #[test]
    fn pack_unpack_round_trips(key in 0i64..1_000_000, idx in 0usize..4096) {
        let n = 4096;
        prop_assert_eq!(unpack(pack(key, idx, n), n), (key, idx));
    }

    #[test]
    fn pack_is_monotone(
        k1 in 0i64..1000, i1 in 0usize..64,
        k2 in 0i64..1000, i2 in 0usize..64,
    ) {
        let n = 64;
        let ordered = (k1, i1) <= (k2, i2);
        prop_assert_eq!(pack(k1, i1, n) <= pack(k2, i2, n), ordered);
    }

    #[test]
    fn sort_time_is_input_independent(xs in words(5)) {
        // An oblivious network's time depends only on N, never on values —
        // a strong invariant of the primitive-charged implementation.
        let n = xs.len();
        let mut net1 = Otn::for_sorting(n).unwrap();
        let t1 = otn::sort::sort(&mut net1, &xs).unwrap().time;
        let sorted = seq::sorted(&xs);
        let mut net2 = Otn::for_sorting(n).unwrap();
        let t2 = otn::sort::sort(&mut net2, &sorted).unwrap().time;
        prop_assert_eq!(t1, t2);
    }

    #[test]
    fn prefix_sums_match_sequential_scan(xs in proptest::collection::vec(-100i64..100, 16)) {
        let out = otn::prefix::prefix_sums(&xs).unwrap();
        let mut acc = 0;
        let expect: Vec<i64> = xs.iter().map(|&v| { let p = acc; acc += v; p }).collect();
        prop_assert_eq!(out.output, expect);
    }

    #[test]
    fn compact_preserves_kept_subsequence(
        xs in proptest::collection::vec(-100i64..100, 16),
        mask in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let out = otn::prefix::compact(&xs, &mask).unwrap();
        let expect: Vec<i64> =
            xs.iter().zip(&mask).filter(|(_, &m)| m).map(|(&v, _)| v).collect();
        prop_assert_eq!(out.output, expect);
    }

    #[test]
    fn select_kth_matches_sorted(xs in words(5), k_frac in 0.0f64..1.0) {
        let n = xs.len();
        let k = ((k_frac * n as f64) as usize).min(n - 1);
        let mut net = Otn::for_sorting(n).unwrap();
        let out = otn::sort::select_kth(&mut net, &xs, k).unwrap();
        prop_assert_eq!(out.value, seq::sorted(&xs)[k]);
    }

    #[test]
    fn mot3d_matmul_matches_reference(
        a_vals in proptest::collection::vec(-9i64..9, 16),
        b_vals in proptest::collection::vec(-9i64..9, 16),
    ) {
        let a = Grid::from_fn(4, 4, |i, j| a_vals[i * 4 + j]);
        let b = Grid::from_fn(4, 4, |i, j| b_vals[i * 4 + j]);
        let out = orthotrees::mot3d::matmul(&a, &b).unwrap();
        prop_assert_eq!(out.c, otn::matmul::reference_matmul(&a, &b));
    }

    #[test]
    fn otc_vector_matrix_matches_reference(
        x in proptest::collection::vec(-9i64..9, 16),
        b_vals in proptest::collection::vec(-9i64..9, 256),
    ) {
        let n = 16;
        let b = Grid::from_fn(n, n, |i, j| b_vals[i * n + j]);
        let mut net = Otc::for_sorting(n).unwrap();
        let loaded = orthotrees::otc::matmul::LoadedMatrix::load(&mut net, &b).unwrap();
        let out = orthotrees::otc::matmul::vector_matrix(&mut net, &x, &loaded).unwrap();
        let expect: Vec<i64> =
            (0..n).map(|j| (0..n).map(|i| x[i] * b.get(i, j)).sum()).collect();
        prop_assert_eq!(out.y, expect);
    }

    #[test]
    fn triangle_counts_match_naive(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)
    ) {
        let n = 8;
        let mut adj = Grid::filled(n, n, 0i64);
        for &(u, v) in &edges {
            if u != v {
                adj.set(u, v, 1);
                adj.set(v, u, 1);
            }
        }
        let out = otn::graph::triangles::count_triangles(&adj).unwrap();
        prop_assert_eq!(out.count, otn::graph::triangles::reference_triangles(&adj));
    }

    #[test]
    fn clock_costs_are_monotone_in_n(k in 2u32..10) {
        use orthotrees::CostModel;
        let n = 1usize << k;
        let small = CostModel::thompson(n);
        let big = CostModel::thompson(n * 2);
        prop_assert!(
            small.tree_root_to_leaf(n, small.leaf_pitch())
                <= big.tree_root_to_leaf(2 * n, big.leaf_pitch())
        );
        prop_assert!(small.tree_aggregate(n, small.leaf_pitch())
            >= small.tree_root_to_leaf(n, small.leaf_pitch()));
    }
}
