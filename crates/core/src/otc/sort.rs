//! `SORT-OTC` — sorting `N` numbers on the `(N/L × N/L)`-OTC in
//! `Θ(log² N)` (paper §VI.A).
//!
//! Input port `i` streams group `i`'s `L` numbers (`x[iL..(i+1)L]`); the
//! procedure mirrors SORT-OTN with streams in place of single words:
//!
//! 1. `ROOTTOCYCLE(row(i), dest = (all, A))` — every cycle of row `i`
//!    holds group `i`;
//! 2. `CYCLETOCYCLE(column(i), source = (i, A), dest = (all, B))` — every
//!    cycle `(i,j)` also holds group `j`;
//! 3. `L` rounds of compare-and-`CIRCULATE` count, per element of group
//!    `i`, how many elements of group `j` precede it;
//! 4. `SUM-CYCLETOCYCLE(row(i))` turns the per-group counts into global
//!    ranks;
//! 5. each cycle moves its rank-`p·m + j` holdings to stream slot `p` of
//!    register `D`, and one `CYCLETOROOT(column(j))` emits column `j`'s
//!    output interleave (ranks `≡ j mod m`).

use super::{Axis, Otc, PhaseCost, Sel};
use crate::otn::sort::SortOutcome;
use crate::word::Word;
use orthotrees_vlsi::ModelError;

/// Sorts `xs` on the OTC `net` (`xs.len()` must equal `side · cycle_len`).
/// Duplicates are allowed. Returns the same outcome shape as
/// [`crate::otn::sort::sort`].
///
/// # Errors
///
/// Returns [`ModelError`] if the input length does not match the network.
pub fn sort(net: &mut Otc, xs: &[Word]) -> Result<SortOutcome, ModelError> {
    let m = net.side();
    let l = net.cycle_len();
    let n = m * l;
    ModelError::require_equal("sort input length vs network capacity", n, xs.len())?;

    let a = net.alloc_reg("A");
    let b = net.alloc_reg("B");
    let c = net.alloc_reg("C");
    let r = net.alloc_reg("R");
    let d = net.alloc_reg("D");

    let groups: Vec<Vec<Word>> = (0..m).map(|i| xs[i * l..(i + 1) * l].to_vec()).collect();
    net.load_row_root_buffers(&groups);

    let stats_before = *net.clock().stats();
    let (_, time) = net.elapsed(|net| {
        net.begin_phase(crate::primitive::spec_for("SORT-OTC").name);
        // 1) group i to every cycle of row i.
        net.root_to_cycle(Axis::Rows, a, |_, _, _| Sel::All);
        // 2) group j (from diagonal cycle (j,j)) to every cycle of column j.
        net.cycle_to_cycle(Axis::Cols, a, |_, _, _, _| Sel::Diagonal, b, |_, _, _| Sel::All);
        // 3) rank counting: L compare rounds with B circulating.
        net.clear_reg(c);
        // Side and cycle length are powers of two, so `mod` is a mask and
        // `/` a shift.
        let (m_shift, l_mask) = (m.trailing_zeros(), l - 1);
        for p in 0..l {
            net.bp_phase(PhaseCost::Compare, |i, j, q, v| {
                let (av, bv) = (v.get(a, i, j, q), v.get(b, i, j, q));
                let (Some(av), Some(bv)) = (av, bv) else { return None };
                let ia = (i * l + q) as Word;
                let ib = (j * l + ((q + p) & l_mask)) as Word;
                let beats = av > bv || (av == bv && ia > ib);
                if beats {
                    let cur = v.get(c, i, j, q).unwrap_or(0);
                    Some((c, Some(cur + 1)))
                } else {
                    None
                }
            });
            net.circulate(&[b]);
        }
        // 4) global ranks: sum the counts across each row.
        net.sum_cycle_to_cycle(Axis::Rows, c, |_, _, _, _| Sel::All, r, |_, _, _| Sel::All);
        // 5) stage outputs: rank p·m + j goes to stream slot p in column j.
        net.cycle_phase(PhaseCost::Words(l as u64), |_, j, cyc| {
            for q in 0..l {
                cyc.set(d, q, None);
            }
            for q in 0..l {
                if let (Some(rank), Some(val)) = (cyc.get(r, q), cyc.get(a, q)) {
                    // Out-of-range ranks only arise from corrupted words
                    // under a fault plan; staging skips them so the run
                    // degrades instead of indexing out of the cycle.
                    if rank < 0 || rank as usize >= n {
                        continue;
                    }
                    let rank = rank as usize;
                    if rank & (m - 1) == j {
                        cyc.set(d, rank >> m_shift, Some(val));
                    }
                }
            }
        });
        net.cycle_to_root(Axis::Cols, d, |_, _, _, _| Sel::Valid(d));
        net.end_phase();
    });

    let degraded = net.has_fault_plan();
    let buffers = net.read_col_root_buffers();
    let mut sorted = vec![0; n];
    let mut missing = Vec::new();
    for (j, buf) in buffers.iter().enumerate() {
        for (p, v) in buf.iter().enumerate() {
            match v {
                Some(w) => sorted[p * m + j] = *w,
                None if degraded => missing.push(p * m + j),
                // Invariant (fault-free): ranks are a permutation of 0..N,
                // so every output stream slot is filled exactly once.
                None => {
                    panic!("rank invariant violated: output slot {} received no word", p * m + j)
                }
            }
        }
    }
    missing.sort_unstable();
    let stats = net.clock().stats().since(&stats_before);
    Ok(SortOutcome { sorted, missing, time, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(xs: &[Word]) -> SortOutcome {
        let mut net = Otc::for_sorting(xs.len()).unwrap();
        sort(&mut net, xs).unwrap()
    }

    fn assert_sorts(xs: &[Word]) -> SortOutcome {
        let out = run(xs);
        let mut expect = xs.to_vec();
        expect.sort_unstable();
        assert_eq!(out.sorted, expect, "input: {xs:?}");
        out
    }

    #[test]
    fn sorts_sixteen_distinct() {
        let xs: Vec<Word> = (0..16).rev().collect();
        assert_sorts(&xs);
    }

    #[test]
    fn sorts_duplicates() {
        assert_sorts(&[9, 9, 9, 1, 2, 2, 3, 9, 9, 9, 0, 0, 5, 5, 5, 5]);
    }

    #[test]
    fn sorts_negatives_and_mixed() {
        let xs: Vec<Word> = (0..64).map(|v| ((v * 29) % 23) - 11).collect();
        assert_sorts(&xs);
    }

    #[test]
    fn random_inputs_sort_correctly() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for &n in &[16usize, 64, 256] {
            let xs: Vec<Word> = (0..n).map(|_| rng.random_range(-1000..1000)).collect();
            assert_sorts(&xs);
        }
    }

    #[test]
    fn time_is_theta_log_squared() {
        let mut ratios = Vec::new();
        for k in [4u32, 6, 8, 10] {
            let n = 1usize << k;
            let xs: Vec<Word> = (0..n as Word).map(|v| (v * 37) % n as Word).collect();
            let out = run(&xs);
            ratios.push(out.time.as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 4.0, "SORT-OTC not Θ(log²N): {ratios:?}");
    }

    #[test]
    fn otc_sort_time_is_comparable_to_otn_sort_time() {
        // §V's whole point: same time as the OTN, less area.
        let n = 256;
        let xs: Vec<Word> = (0..n as Word).map(|v| (v * 101) % 97).collect();
        let otc_t = run(&xs).time.as_f64();
        let mut otn = crate::otn::Otn::for_sorting(n).unwrap();
        let otn_t = crate::otn::sort::sort(&mut otn, &xs).unwrap().time.as_f64();
        let ratio = otc_t / otn_t;
        assert!((0.3..5.0).contains(&ratio), "OTC/OTN sort time ratio {ratio:.2}");
    }

    #[test]
    fn rejects_wrong_length() {
        let mut net = Otc::for_sorting(16).unwrap();
        assert!(sort(&mut net, &[1, 2, 3]).is_err());
    }

    #[test]
    fn outputs_interleave_by_rank_mod_m() {
        // Directly inspect the output buffers: column j must hold ranks
        // ≡ j (mod m) in slot order.
        let n = 16;
        let xs: Vec<Word> = (0..n as Word).map(|v| (v * 7) % 16).collect();
        let mut net = Otc::for_sorting(n).unwrap();
        let _ = sort(&mut net, &xs).unwrap();
        let m = net.side();
        let bufs = net.read_col_root_buffers();
        let mut expect = xs.clone();
        expect.sort_unstable();
        for (j, buf) in bufs.iter().enumerate() {
            for (p, v) in buf.iter().enumerate() {
                assert_eq!(v.unwrap(), expect[p * m + j]);
            }
        }
    }
}
