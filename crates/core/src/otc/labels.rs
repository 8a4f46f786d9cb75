//! The OTC's [`LabelToolkit`], on which the CC and MST drivers of
//! [`crate::otn::graph`] run: each OTN label operation becomes one
//! streamed tree operation plus a cycle-local phase (paper §VI.B).
//!
//! Vertex `v = I·L + q` (`L` = cycle length) keeps `D(v)` at `d(I, I, q)`.
//! Streams are position-indexed: `drow(I, J, q) = D(I·L+q)`, `dcol(I, J,
//! q) = D(J·L+q)`. The `n×n` matrix is tiled into `L×L` squares, one per
//! cycle: plane `r` holds `m[r](I, J, q) = M(I·L+r, J·L+q)`.

use super::{Axis, Otc, PhaseCost, Reg, Sel};
use crate::otn::graph::{self, Candidates, LabelToolkit};
use crate::word::Word;
use orthotrees_vlsi::{log2_ceil, CostModel, ModelError};

/// `D` at the diagonal cycles, its two streams, and scratch planes.
pub(crate) struct Labels {
    pub d: Reg,
    pub drow: Reg,
    pub dcol: Reg,
    fetch: Reg,
    fetched: Reg,
    pmin: Reg,
    lcand: Reg,
    crow: Reg,
    cand: Vec<Reg>,
}

impl Labels {
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
}

impl LabelToolkit for Labels {
    type T = crate::wordnet::Cycles;
    type Matrix = Vec<Reg>;
    /// `ptr`, `Prow`, `t1`, `t2`, `newlabel`, `NLcol`, `LL`.
    type HookRegs = [Reg; 7];

    fn net(n: usize, word_bits: u32) -> Result<Otc, ModelError> {
        let (m, l) = Otc::dims_for(n)?;
        Otc::new(m, l, CostModel::thompson(n).with_word_bits(word_bits))
    }

    fn load(net: &mut Otc, f: impl Fn(usize, usize) -> Option<Word>) -> Vec<Reg> {
        let l = net.cycle_len();
        let planes: Vec<Reg> = (0..l).map(|_| net.alloc_reg("M-plane")).collect();
        for (r, &plane) in planes.iter().enumerate() {
            net.load_reg(plane, |i, j, q| f(i * l + r, j * l + q));
        }
        planes
    }

    fn init(net: &mut Otc) -> Labels {
        let [d, drow, dcol, fetch, fetched, pmin, lcand, crow] =
            ["D", "Drow", "Dcol", "fetch", "fetched", "pmin", "Lcand", "Crow"]
                .map(|r| net.alloc_reg(r));
        let l = net.cycle_len();
        let cand = (0..l).map(|_| net.alloc_reg("cand-plane")).collect();
        net.load_reg(d, |i, j, q| (i == j).then_some((i * l + q) as Word));
        Labels { d, drow, dcol, fetch, fetched, pmin, lcand, crow, cand }
    }

    fn d(&self) -> Reg {
        self.d
    }

    /// The diagonal cycles, where `D` is.
    fn own(&self) -> (Sel, Reg) {
        (Sel::Diagonal, self.d)
    }

    /// 2 `CYCLETOCYCLE`s.
    fn refresh(&self, net: &mut Otc) {
        spread(net, Axis::Rows, self.d, self.drow);
        spread(net, Axis::Cols, self.d, self.dcol);
    }

    /// A candidate phase into `L` planes, then [`row_min`](Labels::row_min).
    fn vertex_min(&self, net: &mut Otc, m: &Vec<Reg>, cands: Candidates, dest: Reg) {
        match cands {
            Candidates::Neighbours => super::cc::neighbour_labels(net, m, self.dcol, &self.cand),
            Candidates::Edges => super::mst::candidates(net, m, [self.drow, self.dcol], &self.cand),
        }
        self.row_min(net, &self.cand, dest);
    }

    /// One `CYCLETOCYCLE` streams the diagonal `C` along the rows.
    fn along_rows(&self, net: &mut Otc, c: Reg) -> Reg {
        spread(net, Axis::Rows, c, self.crow);
        self.crow
    }

    /// A cycle-local regroup by label, then one `MIN-CYCLETOCYCLE` into the
    /// column stream `dest(·, J, q)` of label `J·L+q`.
    fn group_min(&self, net: &mut Otc, src: Reg, dest: Reg) {
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

    /// `table` is a column stream; one fetch, then the adopt kernel.
    fn adopt(&self, net: &mut Otc, table: Reg) {
        self.fetch(net, self.drow, table, self.fetched);
        graph::adopt(net, self.fetched, self.d);
    }

    fn shortcut(&self, net: &mut Otc) {
        let n = net.side() * net.cycle_len();
        for _ in 0..log2_ceil(n as u64).max(1) {
            self.refresh(net);
            self.adopt(net, self.dcol);
        }
    }

    /// One `SUM-CYCLETOROOT` on the column trees, summed over the roots.
    fn count(&self, net: &mut Otc, flag: Reg) -> u64 {
        net.sum_cycle_to_root(Axis::Cols, flag, |_, _, _, _| Sel::All);
        net.root_words(Axis::Cols).iter().map(|v| v.unwrap_or(0)).sum::<Word>() as u64
    }

    /// One `CYCLETOROOT` on the column trees.
    fn read_diagonal(&self, net: &mut Otc, r: Reg) -> Vec<Option<Word>> {
        net.cycle_to_root(Axis::Cols, r, |_, _, _, _| Sel::Diagonal);
        net.root_words(Axis::Cols).to_vec()
    }

    fn hook_regs(net: &mut Otc) -> [Reg; 7] {
        ["ptr", "Prow", "t1", "t2", "newlabel", "NLcol", "LL"].map(|r| net.alloc_reg(r))
    }

    /// Fetches both endpoint labels and keeps the one that is not `w`,
    /// then fetches `newlabel(newlabel(w))` for the 2-cycle kernel.
    fn hook(&self, net: &mut Otc, regs: &[Reg; 7], best: Reg) {
        let [ptr, prow, t1, t2, nl, nlcol, ll] = *regs;
        for (upper, t) in [(false, t1), (true, t2)] {
            super::mst::endpoints(net, best, ptr, upper);
            spread(net, Axis::Rows, ptr, prow);
            self.fetch(net, prow, self.dcol, t);
        }
        super::mst::new_labels(net, [t1, t2], nl);
        spread(net, Axis::Cols, nl, nlcol);
        spread(net, Axis::Rows, nl, prow);
        self.fetch(net, prow, nlcol, ll);
        super::mst::break_two_cycles(net, [nl, ll], self.d);
    }
}

/// Streams the diagonal cycles' `src` along the `axis` trees into every
/// cycle's `dest` (one `CYCLETOCYCLE`).
fn spread(net: &mut Otc, axis: Axis, src: Reg, dest: Reg) {
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
