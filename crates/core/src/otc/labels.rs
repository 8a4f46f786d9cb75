//! The label toolkit of the OTC's graph algorithms, the counterpart of
//! [`crate::otn::graph::Labels`]: each OTN label operation becomes one
//! streamed tree operation plus a cycle-local phase (paper §VI.B), written
//! once here for [`super::cc`] and [`super::mst`].
//!
//! Vertex `v = I·L + q` (`L` = cycle length) keeps its label `D(v)` at
//! `d(I, I, q)`. Its streams are position-indexed: `drow(I, J, q) =
//! D(I·L+q)` along the row trees, `dcol(I, J, q) = D(J·L+q)` along the
//! column trees, so a column stream holds vertex `J·L+q`'s entry at
//! `(·, J, q)`.

use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::otn::graph;
use crate::word::Word;
use orthotrees_vlsi::log2_ceil;

/// `D` at the diagonal cycles, its two streams, and the scratch planes of
/// the fetch and the two cycle-local minima.
pub(crate) struct Labels {
    pub d: Reg,
    pub drow: Reg,
    pub dcol: Reg,
    fetch: Reg,
    fetched: Reg,
    pmin: Reg,
    lcand: Reg,
}

impl Labels {
    /// Allocates the registers and initialises `D(v) = v` at the diagonal
    /// cycles.
    pub fn init(net: &mut Otc) -> Labels {
        let [d, drow, dcol, fetch, fetched, pmin, lcand] =
            ["D", "Drow", "Dcol", "fetch", "fetched", "pmin", "Lcand"].map(|n| net.alloc_reg(n));
        let l = net.cycle_len();
        net.load_reg(d, |i, j, q| (i == j).then_some((i * l + q) as Word));
        Labels { d, drow, dcol, fetch, fetched, pmin, lcand }
    }

    /// Streams `D` along both tree families (2 `CYCLETOCYCLE`s).
    pub fn refresh(&self, net: &mut Otc) {
        spread(net, Axis::Rows, self.d, self.drow);
        spread(net, Axis::Cols, self.d, self.dcol);
    }

    /// The two-hop indirection `dest(v) = table(ptr(v))` at the diagonal,
    /// where `ptr` is a row stream of vertex ids and `table` a column
    /// stream: each cycle checks whether its column hosts its row group's
    /// targets, and the row trees gather the unique hits into `dest`.
    pub fn fetch(&self, net: &mut Otc, ptr: Reg, table: Reg, dest: Reg) {
        let (fetch, l) = (self.fetch, net.cycle_len());
        net.cycle_phase(PhaseCost::Words(l as u64), move |_, j, cyc| {
            for q in 0..cyc.len() {
                let val = cyc.get(ptr, q).and_then(|p| {
                    let p = p as usize;
                    (p / l == j).then(|| cyc.get(table, p % l)).flatten()
                });
                cyc.set(fetch, q, val);
            }
        });
        net.cycle_to_cycle(
            Axis::Rows,
            fetch,
            move |_, _, _, _| Sel::Valid(fetch),
            dest,
            |_, _, _| Sel::Diagonal,
        );
    }

    /// `D(v) := table(D(v))` unless that is `NULL`, with `drow` fresh and
    /// `table` a column stream.
    pub fn adopt(&self, net: &mut Otc, table: Reg) {
        self.fetch(net, self.drow, table, self.fetched);
        graph::adopt(net, self.fetched, self.d);
    }

    /// `⌈log₂ n⌉` pointer jumps `D(v) := D(D(v))`, each after a refresh.
    pub fn shortcut(&self, net: &mut Otc) {
        let n = net.side() * net.cycle_len();
        for _ in 0..log2_ceil(n as u64).max(1) {
            self.refresh(net);
            self.adopt(net, self.dcol);
        }
    }

    /// Per-vertex minima over the row trees: `dest(I, ·, r)` is the least
    /// word of `planes[r]` across row group `I` — a cycle-local minimum
    /// per row offset `r`, then one `MIN-CYCLETOCYCLE`.
    pub fn row_min(&self, net: &mut Otc, planes: &[Reg], dest: Reg) {
        let (pmin, l) = (self.pmin, net.cycle_len());
        net.cycle_phase(PhaseCost::Words(l as u64), |_, _, cyc| {
            for (r, &plane) in planes.iter().enumerate() {
                let best = (0..cyc.len()).filter_map(|q| cyc.get(plane, q)).min();
                cyc.set(pmin, r, best);
            }
        });
        net.min_cycle_to_cycle(Axis::Rows, pmin, |_, _, _, _| Sel::All, dest, |_, _, _| Sel::All);
    }

    /// Per-label minima over the column trees: `dest(·, J, q)` is the least
    /// `src(v)` over the vertices `v` labelled `J·L+q`, with `src` and
    /// `drow` row streams — a cycle-local regroup by label, then one
    /// `MIN-CYCLETOCYCLE`.
    pub fn group_min(&self, net: &mut Otc, src: Reg, dest: Reg) {
        let (drow, lcand, l) = (self.drow, self.lcand, net.cycle_len());
        net.cycle_phase(PhaseCost::Words(2 * l as u64), move |_, j, cyc| {
            for qq in 0..cyc.len() {
                let w = Some((j * l + qq) as Word);
                let best = (0..cyc.len()).filter(|&q| cyc.get(drow, q) == w);
                cyc.set(lcand, qq, best.filter_map(|q| cyc.get(src, q)).min());
            }
        });
        net.min_cycle_to_cycle(Axis::Cols, lcand, |_, _, _, _| Sel::All, dest, |_, _, _| Sel::All);
    }

    /// Reads the label vector through the column trees (one
    /// `CYCLETOROOT`; the diagonal positions line up).
    pub fn read(&self, net: &mut Otc) -> Vec<Word> {
        net.cycle_to_root(Axis::Cols, self.d, |_, _, _, _| Sel::Diagonal);
        net.root_words(Axis::Cols).iter().map(|v| v.expect("every vertex has a label")).collect()
    }
}

/// Streams the diagonal cycles' `src` along the `axis` trees into every
/// cycle's `dest` (one `CYCLETOCYCLE`).
pub(crate) fn spread(net: &mut Otc, axis: Axis, src: Reg, dest: Reg) {
    net.cycle_to_cycle(axis, src, |_, _, _, _| Sel::Diagonal, dest, |_, _, _| Sel::All);
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthotrees_vlsi::CostModel;

    /// A graph net of `n` vertices, like the ones CC and MST build.
    fn net(n: usize) -> Otc {
        let (m, l) = Otc::dims_for(n).unwrap();
        Otc::new(m, l, CostModel::thompson(n).with_word_bits(12)).unwrap()
    }

    /// Loads `D(v) = parent[v]` at the diagonal.
    fn load(net: &mut Otc, labels: &Labels, parent: &[Word]) {
        let l = net.cycle_len();
        net.load_reg(labels.d, |i, j, q| (i == j).then_some(parent[i * l + q]));
    }

    #[test]
    fn labels_initialise_to_identity_and_stream_both_ways() {
        let mut net = net(16);
        let labels = Labels::init(&mut net);
        assert_eq!(labels.read(&mut net), (0..16).collect::<Vec<Word>>());
        labels.refresh(&mut net);
        for (i, j, q) in [(0, 3, 1), (2, 1, 3), (3, 3, 0)] {
            assert_eq!(net.peek(labels.drow, i, j, q), Some((4 * i + q) as Word));
            assert_eq!(net.peek(labels.dcol, i, j, q), Some((4 * j + q) as Word));
        }
    }

    #[test]
    fn shortcut_collapses_a_chain_across_cycles() {
        let mut net = net(16);
        let labels = Labels::init(&mut net);
        let chain: Vec<Word> = (0..16).map(|v| (v - 1).max(0)).collect();
        load(&mut net, &labels, &chain);
        labels.refresh(&mut net);
        labels.adopt(&mut net, labels.dcol);
        let once: Vec<Word> = (0..16).map(|v| (v - 2).max(0)).collect();
        assert_eq!(labels.read(&mut net), once, "one jump");
        labels.shortcut(&mut net);
        assert_eq!(labels.read(&mut net), vec![0; 16]);
    }

    #[test]
    fn row_and_group_minima_reduce_across_cycles() {
        let mut net = net(16);
        let labels = Labels::init(&mut net);
        load(&mut net, &labels, &[9, 9, 2, 2, 9, 9, 9, 9, 2, 2, 2, 2, 9, 9, 9, 9]);
        labels.refresh(&mut net);
        // Vertex v's candidates: cycle (I, J) offers 100·J + 10·v + q.
        let planes: Vec<Reg> = (0..4).map(|_| net.alloc_reg("cand")).collect();
        for (r, &p) in planes.iter().enumerate() {
            net.load_reg(p, |i, j, q| Some((100 * j + 10 * (4 * i + r) + q) as Word));
        }
        let (best, comp) = (net.alloc_reg("best"), net.alloc_reg("comp"));
        labels.row_min(&mut net, &planes, best);
        assert_eq!(net.peek(best, 2, 1, 3), Some(10 * 11));
        labels.group_min(&mut net, best, comp);
        // Label 2 holds {2, 3, 8, 9, 10, 11}, label 9 the rest.
        assert_eq!(net.peek(comp, 1, 0, 2), Some(20));
        assert_eq!(net.peek(comp, 3, 2, 1), Some(0));
        assert_eq!(net.peek(comp, 0, 0, 1), None, "label 1 has no members");
    }
}
