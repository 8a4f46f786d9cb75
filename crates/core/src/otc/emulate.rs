//! The §V simulation argument: every OTN algorithm runs on the OTC in the
//! same (Θ) time.
//!
//! "If the base of the OTN is considered to be composed of squares of
//! log N × log N BPs each, then the processing in square (i,j) of the OTN
//! can be simulated by cycle (i,j) of the OTC … the broadcast of all N
//! elements from the roots to the leaves takes O(log² N) time on the OTC
//! which is the same as the time taken on the OTN. … Processing at the base
//! of the OTC is now slower than on the OTN. However for most problems it
//! is the communication time which dominates and therefore the time
//! required on the OTC is the same as on the OTN but the area required is
//! less."
//!
//! This module prices that simulation: given the *operation counts* of an
//! OTN run (its [`OpStats`]) it computes the time the same run costs on the
//! `(N/L × N/L)`-OTC — streamed tree operations at the OTC's own wire
//! lengths, local phases slowed by the cycle length `L`. No table row is
//! priced this way: OTC CC and MST run directly ([`super::cc`],
//! [`super::mst`]). The `extras` binary's §V check and
//! `tests/otc_direct.rs` compare it with the *directly implemented*
//! SORT-OTC, as does the test below.

use super::Otc;
use crate::otn::Otn;
use orthotrees_vlsi::{BitTime, ModelError, OpStats};

/// The priced OTC emulation of an OTN run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emulation {
    /// Emulated OTC time for the run.
    pub time: BitTime,
    /// The OTC decomposition used (`cycles per side`, `cycle length`).
    pub dims: (usize, usize),
    /// The op counts the price was computed from.
    pub stats: OpStats,
}

/// Prices an OTN run (described by the op counts `stats` of a network of
/// side `n`) on the equivalent `(n/L × n/L)`-OTC.
///
/// Communication ops become streamed tree ops at the OTC's pitch and tree
/// height (`Θ(log² N)` each, like the OTN's); local phases slow down by the
/// cycle length `L` (each cycle serialises the `L` BPs of the OTN square it
/// simulates, §V.A); circulations and I/O carry over unchanged.
///
/// # Errors
///
/// Returns [`ModelError`] if `n` is not a power of two or `n < 4`.
pub fn price_on_otc(n: usize, stats: &OpStats) -> Result<Emulation, ModelError> {
    let otc = Otc::for_sorting(n)?;
    let l = otc.cycle_len() as u64;
    let m = otc.model();
    let comm = otc.stream_cost(false);
    let agg = otc.stream_cost(true);
    let time = comm * (stats.broadcasts + stats.sends)
        + agg * stats.aggregates
        + m.compare() * (stats.leaf_ops * l)
        + m.cycle_step() * stats.circulates
        + m.wire_word(1) * stats.hops;
    Ok(Emulation { time, dims: (otc.side(), otc.cycle_len()), stats: *stats })
}

/// Convenience: runs `f` on a fresh OTN of side `n` and returns
/// `(f's result, OTN time, priced OTC emulation)`.
///
/// # Errors
///
/// Returns [`ModelError`] from network construction or from `f`.
pub fn run_and_price<R>(
    n: usize,
    f: impl FnOnce(&mut Otn) -> Result<R, ModelError>,
) -> Result<(R, BitTime, Emulation), ModelError> {
    let mut net = Otn::for_sorting(n)?;
    let before = *net.clock().stats();
    let t0 = net.clock().now();
    let r = f(&mut net)?;
    let otn_time = net.clock().now() - t0;
    let stats = net.clock().stats().since(&before);
    let emu = price_on_otc(n, &stats)?;
    Ok((r, otn_time, emu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Word;

    #[test]
    fn emulated_sort_time_matches_direct_sort_otc() {
        // The §V claim, validated: pricing SORT-OTN's op mix on the OTC
        // lands within a small constant of the directly implemented
        // SORT-OTC's measured time.
        for &n in &[64usize, 256, 1024] {
            let xs: Vec<Word> = (0..n as Word).map(|v| (v * 37) % n as Word).collect();
            let (out, _otn_time, emu) =
                run_and_price(n, |net| crate::otn::sort::sort(net, &xs)).unwrap();
            let mut expect = xs.clone();
            expect.sort_unstable();
            assert_eq!(out.sorted, expect);

            let mut otc = Otc::for_sorting(n).unwrap();
            let direct = super::super::sort::sort(&mut otc, &xs).unwrap();
            let ratio = emu.time.as_f64() / direct.time.as_f64();
            assert!((0.2..5.0).contains(&ratio), "n={n}: emulated/direct = {ratio:.2}");
        }
    }

    #[test]
    fn emulated_time_is_theta_of_otn_time() {
        // Communication-dominated runs: OTC time ≈ OTN time (§V).
        for &n in &[64usize, 256] {
            let xs: Vec<Word> = (0..n as Word).collect();
            let (_, otn_time, emu) =
                run_and_price(n, |net| crate::otn::sort::sort(net, &xs)).unwrap();
            let ratio = emu.time.as_f64() / otn_time.as_f64();
            assert!((0.2..4.0).contains(&ratio), "n={n}: OTC/OTN = {ratio:.2}");
        }
    }

    #[test]
    fn pricing_scales_with_op_counts() {
        let base = OpStats { broadcasts: 1, ..OpStats::new() };
        let double = OpStats { broadcasts: 2, ..OpStats::new() };
        let t1 = price_on_otc(64, &base).unwrap().time;
        let t2 = price_on_otc(64, &double).unwrap().time;
        assert_eq!(t2, t1 * 2);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(price_on_otc(3, &OpStats::new()).is_err());
    }

    #[test]
    fn dims_report_the_decomposition() {
        let emu = price_on_otc(256, &OpStats::new()).unwrap();
        assert_eq!(emu.dims, (32, 8));
    }
}
