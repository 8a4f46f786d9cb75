//! Prefix (scan) operations on the OTN.
//!
//! A natural extension of the paper's §II.B toolkit: a tree over `C` leaves
//! computes *prefix sums* with one up-sweep (partial sums climb to the
//! root) and one down-sweep (each node sends its left child the incoming
//! offset and its right child the offset plus the left subtree's sum) —
//! two tree traversals, so the same `Θ(log² N)` a `SUM-LEAFTOLEAF` costs.
//! Prefix sums are the workhorse behind stream compaction ("pack the
//! flagged elements to the front"), which the paper's sorting procedure
//! implicitly performs when it routes ranked elements to output ports.
//!
//! Provided here:
//!
//! * [`Otn::prefix_sum_rows`] / [`Otn::prefix_sum_cols`] — the primitive,
//!   charged as two traversals of the tree family;
//! * [`prefix_sums`] — scan a vector laid out on one row;
//! * [`compact`] — stream compaction of flagged elements, built from a
//!   scan plus one routed `LEAFTOLEAF` per destination fan-in (here done
//!   with the standard rank-addressing trick, one extra `LEAFTOLEAF`).

use super::{Axis, Otn, PhaseCost, Reg};
use crate::word::Word;
use orthotrees_vlsi::{BitTime, ModelError};

impl Otn {
    fn charge_scan(&mut self, axis: Axis) {
        // Up-sweep + down-sweep: two pipelined traversals with one
        // bit-serial adder delay per level — the same price as one
        // aggregate plus one broadcast.
        let leaves = self.leaves(axis);
        let (model, pitch) = (*self.model(), self.pitch());
        let up = model.tree_aggregate(leaves, pitch);
        let down = model.tree_root_to_leaf(leaves, pitch);
        let mut parts = crate::attribution::aggregate_parts(&model, leaves, pitch);
        parts.extend(crate::attribution::downward_parts(&model, leaves, pitch));
        self.begin_phase(crate::primitive::spec_for("SCAN").name);
        self.seg_charge(up + down, &parts);
        self.end_phase();
        let stats = self.clock_mut().stats_mut();
        stats.aggregates += 1;
        stats.broadcasts += 1;
    }

    /// Exclusive prefix sums along every row tree: after the call,
    /// `dest(i, j) = Σ_{j' < j} src(i, j')` (`NULL` source values count as
    /// zero). Cost: one up-sweep + one down-sweep per tree family.
    pub fn prefix_sum_rows(&mut self, src: Reg, dest: Reg) {
        for i in 0..self.rows() {
            let mut acc: Word = 0;
            for j in 0..self.cols() {
                let v = self.peek(src, i, j).unwrap_or(0);
                self.poke(dest, i, j, Some(acc));
                acc += v;
            }
        }
        self.charge_scan(Axis::Rows);
    }

    /// Exclusive prefix sums along every column tree:
    /// `dest(i, j) = Σ_{i' < i} src(i', j)`.
    pub fn prefix_sum_cols(&mut self, src: Reg, dest: Reg) {
        for j in 0..self.cols() {
            let mut acc: Word = 0;
            for i in 0..self.rows() {
                let v = self.peek(src, i, j).unwrap_or(0);
                self.poke(dest, i, j, Some(acc));
                acc += v;
            }
        }
        self.charge_scan(Axis::Cols);
    }
}

/// Result of a scan/compaction run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanOutcome {
    /// The output vector.
    pub output: Vec<Word>,
    /// Simulated time.
    pub time: BitTime,
}

/// Exclusive prefix sums of `xs` on a `(1-row)` view of an OTN whose
/// column count is `xs.len()` (a power of two): `out[j] = Σ_{j' < j} xs[j']`.
///
/// # Errors
///
/// Returns [`ModelError`] unless `xs.len()` is a power of two.
///
/// # Example
///
/// ```
/// let out = orthotrees::otn::prefix::prefix_sums(&[3, 1, 4, 1])?;
/// assert_eq!(out.output, vec![0, 3, 4, 8]);
/// # Ok::<(), orthotrees::ModelError>(())
/// ```
pub fn prefix_sums(xs: &[Word]) -> Result<ScanOutcome, ModelError> {
    ModelError::require_power_of_two("scan length", xs.len())?;
    let mut net = Otn::new(1, xs.len(), crate::CostModel::thompson(xs.len()))?;
    let src = net.alloc_reg("src");
    let dest = net.alloc_reg("scan");
    net.load_reg(src, |_, j| Some(xs[j]));
    let (_, time) = net.elapsed(|net| net.prefix_sum_rows(src, dest));
    let output = (0..xs.len()).map(|j| net.peek(dest, 0, j).expect("scanned")).collect();
    Ok(ScanOutcome { output, time })
}

/// Stream compaction: keeps `xs[j]` where `keep[j]`, packed to the front
/// (order preserved), built from one scan plus one rank-addressed
/// `LEAFTOLEAF` phase on the same row.
///
/// # Errors
///
/// Returns [`ModelError`] unless `xs.len() == keep.len()` is a power of two.
pub fn compact(xs: &[Word], keep: &[bool]) -> Result<ScanOutcome, ModelError> {
    ModelError::require_power_of_two("compaction length", xs.len())?;
    let mut net = Otn::new(1, xs.len(), crate::CostModel::thompson(xs.len()))?;
    compact_on(&mut net, xs, keep)
}

/// [`compact`] on a caller-supplied net (one row of `xs.len()` columns is
/// used), so the run inherits the net's cost model, fault plan and
/// recorder — the registry-coverage tests drive the `SCAN` and `ROUTE`
/// spans through this entry point.
///
/// # Errors
///
/// Returns [`ModelError`] unless `xs.len() == keep.len()` equals the
/// net's column count.
pub fn compact_on(net: &mut Otn, xs: &[Word], keep: &[bool]) -> Result<ScanOutcome, ModelError> {
    ModelError::require_equal("values vs flags", xs.len(), keep.len())?;
    ModelError::require_equal("compaction length vs columns", xs.len(), net.cols())?;
    let n = xs.len();
    let val = net.alloc_reg("val");
    let flag = net.alloc_reg("flag");
    let rank = net.alloc_reg("rank");
    let out = net.alloc_reg("out");
    net.load_reg(val, |_, j| Some(xs[j]));
    net.load_reg(flag, |_, j| Some(Word::from(keep[j])));
    let (_, time) = net.elapsed(|net| {
        // rank(j) = number of kept elements strictly before j.
        net.prefix_sum_rows(flag, rank);
        // Route each kept element to column rank(j): the destinations are
        // distinct, so this is one parallel tree-routing phase; we charge a
        // LEAFTOLEAF (the elements pipeline through disjoint subtrees the
        // same way the §IV COMPEX streams do) plus the local writes.
        let moves: Vec<(usize, Word)> = (0..n)
            .filter(|&j| keep[j])
            .map(|j| {
                let r = net.peek(rank, 0, j).expect("scanned") as usize;
                (r, net.peek(val, 0, j).expect("loaded"))
            })
            .collect();
        for j in 0..n {
            net.poke(out, 0, j, None);
        }
        for (r, v) in moves {
            net.poke(out, 0, r, Some(v));
        }
        net.charge_route_phase();
        net.charge_compute("BP-PHASE", PhaseCost::Bit);
    });
    let output = (0..n).filter_map(|j| net.peek(out, 0, j)).collect();
    Ok(ScanOutcome { output, time })
}

impl Otn {
    /// Charges one permutation-routing phase through the row trees (the
    /// §IV stream-pipelining price: a full tree traversal plus one word
    /// interval per leaf crossing the root — the worst case for an
    /// arbitrary monotone route).
    pub(crate) fn charge_route_phase(&mut self) {
        let leaves = self.leaves(Axis::Rows);
        let (model, pitch) = (*self.model(), self.pitch());
        let spacing = model.pipeline_interval() * (leaves as u64 / 2).max(1);
        let t = model.tree_leaf_to_leaf(leaves, pitch) + spacing;
        // Causally: up and down the row trees plus the pipelined spacing
        // of the words crossing the root.
        let mut parts = crate::attribution::upward_parts(&model, leaves, pitch);
        parts.extend(crate::attribution::downward_parts(&model, leaves, pitch));
        parts.extend(crate::attribution::wait_parts(spacing));
        self.begin_phase(crate::primitive::spec_for("ROUTE").name);
        self.seg_charge(t, &parts);
        self.end_phase();
        let stats = self.clock_mut().stats_mut();
        stats.sends += 1;
        stats.broadcasts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_basic() {
        let out = prefix_sums(&[3, 1, 4, 1, 5, 9, 2, 6]).unwrap();
        assert_eq!(out.output, vec![0, 3, 4, 8, 9, 14, 23, 25]);
        assert!(out.time.get() > 0);
    }

    #[test]
    fn prefix_sums_handle_negatives_and_zeros() {
        let out = prefix_sums(&[0, -2, 5, 0]).unwrap();
        assert_eq!(out.output, vec![0, 0, -2, 3]);
    }

    #[test]
    fn prefix_sum_cols_scans_downwards() {
        let mut net = Otn::for_sorting(4).unwrap();
        let a = net.alloc_reg("A");
        let s = net.alloc_reg("S");
        net.load_reg(a, |i, j| Some((i + j) as Word));
        net.prefix_sum_cols(a, s);
        // Column j: values j, j+1, j+2, j+3 → prefixes 0, j, 2j+1, 3j+3.
        for j in 0..4 {
            assert_eq!(net.peek(s, 0, j), Some(0));
            assert_eq!(net.peek(s, 1, j), Some(j as Word));
            assert_eq!(net.peek(s, 2, j), Some(2 * j as Word + 1));
            assert_eq!(net.peek(s, 3, j), Some(3 * j as Word + 3));
        }
    }

    #[test]
    fn scan_cost_is_two_traversals() {
        let mut net = Otn::for_sorting(8).unwrap();
        let a = net.alloc_reg("A");
        let s = net.alloc_reg("S");
        net.load_reg(a, |_, _| Some(1));
        let model = *net.model();
        let pitch = net.pitch();
        let (_, dt) = net.elapsed(|net| net.prefix_sum_rows(a, s));
        assert_eq!(dt, model.tree_aggregate(8, pitch) + model.tree_root_to_leaf(8, pitch));
    }

    #[test]
    fn compact_packs_flagged_elements_in_order() {
        let xs = [10, 20, 30, 40, 50, 60, 70, 80];
        let keep = [true, false, true, true, false, false, true, false];
        let out = compact(&xs, &keep).unwrap();
        assert_eq!(out.output, vec![10, 30, 40, 70]);
    }

    #[test]
    fn compact_of_nothing_and_everything() {
        let xs = [1, 2, 3, 4];
        assert_eq!(compact(&xs, &[false; 4]).unwrap().output, Vec::<Word>::new());
        assert_eq!(compact(&xs, &[true; 4]).unwrap().output, vec![1, 2, 3, 4]);
    }

    #[test]
    fn scan_time_is_theta_log_squared() {
        let mut ratios = Vec::new();
        for k in [3u32, 6, 9, 12] {
            let n = 1usize << k;
            let xs = vec![1; n];
            let out = prefix_sums(&xs).unwrap();
            ratios.push(out.time.as_f64() / (k as f64 * k as f64));
        }
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 3.0, "{ratios:?}");
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(prefix_sums(&[1, 2, 3]).is_err());
        assert!(compact(&[1, 2], &[true]).is_err());
    }
}
