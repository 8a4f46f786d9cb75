//! Graph algorithms on the OTN (paper §III.B, Table III).
//!
//! The graph lives in the base as its adjacency (or weight) matrix — BP
//! `(v,u)` holds the edge `(v,u)` — and each vertex `v`'s state (its
//! component label `D(v)`) lives at the diagonal BP `(v,v)`. The paper
//! adapts the Hirschberg–Chandra–Sarwate connected-components algorithm
//! (ref \[12\]): every parallel step of HCS maps to `O(1)` tree primitives,
//! and the `Θ(log N)` hook-and-shortcut iterations give `Θ(log⁴ N)` total
//! time under Thompson's model — the Table III entry.
//!
//! * [`cc`] — connected components;
//! * [`mst`] — minimum spanning tree (Borůvka/Sollin phases, §III.B);
//! * [`closure`] — transitive closure by repeated Boolean squaring (an
//!   application of Table II's multiplier, included as the natural third
//!   adjacency-matrix algorithm);
//! * [`triangles`] — triangle counting via `trace(A³)/6`, two wide
//!   products.

pub mod cc;
pub mod closure;
pub mod mst;
pub mod triangles;

use super::{all, Axis, Otn, PhaseCost, Reg, Sel};
use crate::word::Word;
use crate::wordnet::{Topology, WordNet};

/// The register triple every label-manipulating algorithm keeps:
/// `d` holds `D(v)` at diagonal BPs; `drow`/`dcol` are its row/column
/// broadcasts (`drow(v,u) = D(v)`, `dcol(v,u) = D(u)`).
pub(crate) struct Labels {
    pub d: Reg,
    pub drow: Reg,
    pub dcol: Reg,
    lcol: Reg,
    lfetch: Reg,
}

impl Labels {
    /// Allocates the registers and initialises `D(v) = v`.
    pub fn init(net: &mut Otn) -> Labels {
        let d = net.alloc_reg("D");
        let drow = net.alloc_reg("Drow");
        let dcol = net.alloc_reg("Dcol");
        let lcol = net.alloc_reg("Lcol");
        let lfetch = net.alloc_reg("Lfetch");
        net.load_reg(d, |i, j| if i == j { Some(i as Word) } else { None });
        Labels { d, drow, dcol, lcol, lfetch }
    }

    /// Re-broadcasts `D` along rows and columns (2 `LEAFTOLEAF`s).
    pub fn refresh(&self, net: &mut Otn) {
        let (d, drow, dcol) = (self.d, self.drow, self.dcol);
        net.leaf_to_leaf(Axis::Rows, d, |_, _, _| Sel::Diagonal, drow, all);
        net.leaf_to_leaf(Axis::Cols, d, |_, _, _| Sel::Diagonal, dcol, all);
    }

    /// One pointer-jump `D(v) := D(D(v))`: with `drow`/`dcol` fresh, row
    /// tree `v` fetches `dcol(v, D(v)) = D(D(v))` into the diagonal.
    pub fn jump(&self, net: &mut Otn) {
        let (d, drow, dcol) = (self.d, self.drow, self.dcol);
        net.leaf_to_leaf(
            Axis::Rows,
            dcol,
            move |_, _, _| Sel::EqCol(drow),
            d,
            |_, _, _| Sel::Diagonal,
        );
    }

    /// `⌈log₂ N⌉` pointer jumps with refreshes — the paper's "shortcut"
    /// inner loop.
    pub fn shortcut(&self, net: &mut Otn) {
        let rounds = orthotrees_vlsi::log2_ceil(net.rows() as u64).max(1);
        for _ in 0..rounds {
            self.refresh(net);
            self.jump(net);
        }
    }

    /// Reads the label vector from the diagonal (host-side; charged as one
    /// `LEAFTOROOT` on the column trees, which is how the hardware would
    /// emit it).
    pub fn read(&self, net: &mut Otn) -> Vec<Word> {
        let d = self.d;
        net.leaf_to_root(Axis::Cols, d, |_, _, _| Sel::Diagonal);
        net.roots(Axis::Cols).iter().map(|v| v.expect("every vertex has a label")).collect()
    }

    /// Replaces each diagonal label `D(v)` by `L(D(v))`, where `L` is a
    /// per-vertex map stored at diagonal BPs in `lreg` (`None` ⇒ keep).
    /// Used for "members adopt their root's new label".
    pub fn adopt(&self, net: &mut Otn, lreg: Reg) {
        let (d, drow, lcol, fetched) = (self.d, self.drow, self.lcol, self.lfetch);
        // L(u) to every BP of column u…
        net.leaf_to_leaf(Axis::Cols, lreg, |_, _, _| Sel::Diagonal, lcol, all);
        // …then row v fetches L(D(v)) into a temporary at the diagonal…
        net.leaf_to_leaf(
            Axis::Rows,
            lcol,
            move |_, _, _| Sel::EqCol(drow),
            fetched,
            |_, _, _| Sel::Diagonal,
        );
        // …and adopts it unless NULL.
        adopt(net, fetched, d);
    }
}

// Label phases the OTC's graph algorithms share: one kernel each
// (`WordNet::bp_kernel`), vertex state at the diagonal cells.

/// `prev(v) := D(v)` at the diagonal, `NULL` included — the snapshot the
/// convergence test compares against.
pub(crate) fn snapshot<T: Topology>(net: &mut WordNet<T>, d: Reg, prev: Reg) {
    net.bp_kernel(PhaseCost::Bit, Sel::Diagonal, [d], prev, |_, [dv], _| dv);
}

/// `D(v) := new(v)` at the diagonal where `new(v)` is not `NULL`.
pub(crate) fn adopt<T: Topology>(net: &mut WordNet<T>, new: Reg, d: Reg) {
    net.bp_kernel(PhaseCost::Compare, Sel::Diagonal, [new], d, |_, [nv], dv| nv.or(dv));
}

/// `C := min(own, other)` over the cells of `domain`, `own` where
/// `other` is `NULL` and `NULL` where `own` is: a vertex's label against
/// the least label among its neighbours.
pub(crate) fn own_or_min<T: Topology>(
    net: &mut WordNet<T>,
    domain: Sel,
    [own, other]: [Reg; 2],
    c: Reg,
) {
    net.bp_kernel(PhaseCost::Compare, domain, [own, other], c, |_, words, _| match words {
        [Some(d), Some(m)] => Some(d.min(m)),
        [Some(d), None] => Some(d),
        _ => None,
    });
}

/// `flag := 1` at the diagonal cells whose `D` differs from `prev`, 0
/// everywhere else.
pub(crate) fn flag_changed<T: Topology>(net: &mut WordNet<T>, [d, prev]: [Reg; 2], flag: Reg) {
    net.bp_kernel(PhaseCost::Compare, Sel::All, [d, prev], flag, |bp, [dv, pv], _| {
        Some(Word::from(bp.i == bp.j && dv != pv))
    });
}

/// `flag := 1` at the diagonal cells whose component has a candidate
/// edge left (`best` not `NULL`), 0 everywhere else.
pub(crate) fn flag_open<T: Topology>(net: &mut WordNet<T>, best: Reg, flag: Reg) {
    net.bp_kernel(PhaseCost::Bit, Sel::All, [best], flag, |bp, [bv], _| {
        Some(Word::from(bp.i == bp.j && bv.is_some()))
    });
}

/// Scratch registers for [`count_label_changes`]; allocate once, reuse
/// every iteration.
pub(crate) struct ChangeCounter {
    chflag: Reg,
    colcount: Reg,
}

impl ChangeCounter {
    pub fn init(net: &mut Otn) -> ChangeCounter {
        ChangeCounter { chflag: net.alloc_reg("changed"), colcount: net.alloc_reg("colcount") }
    }
}

/// Counts how many diagonal labels differ between `d` and a snapshot held
/// in `prev`, using network primitives (flag at the diagonal, then two
/// counting reductions), and returns the count read at row-tree root 0.
pub(crate) fn count_label_changes(
    net: &mut Otn,
    labels: &Labels,
    prev: Reg,
    scratch: &ChangeCounter,
) -> u64 {
    let d = labels.d;
    let (chflag, colcount) = (scratch.chflag, scratch.colcount);
    flag_changed(net, [d, prev], chflag);
    // Column counts land in row 0, then row tree 0 counts the columns.
    net.count_to_leaf(Axis::Cols, chflag, colcount, |_, _, _| Sel::Row(0));
    net.count_to_root(Axis::Rows, colcount);
    net.roots(Axis::Rows)[0].expect("COUNT roots are never NULL") as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_initialise_to_identity() {
        let mut net = Otn::for_graphs(4).unwrap();
        let labels = Labels::init(&mut net);
        assert_eq!(labels.read(&mut net), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refresh_broadcasts_both_ways() {
        let mut net = Otn::for_graphs(4).unwrap();
        let labels = Labels::init(&mut net);
        labels.refresh(&mut net);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(net.peek(labels.drow, i, j), Some(i as Word));
                assert_eq!(net.peek(labels.dcol, i, j), Some(j as Word));
            }
        }
    }

    #[test]
    fn jump_follows_pointers() {
        let mut net = Otn::for_graphs(4).unwrap();
        let labels = Labels::init(&mut net);
        // Chain 3→2→1→0, 0→0.
        net.load_reg(labels.d, |i, j| (i == j).then_some(if i == 0 { 0 } else { i as Word - 1 }));
        labels.refresh(&mut net);
        labels.jump(&mut net);
        assert_eq!(labels.read(&mut net), vec![0, 0, 0, 1], "one doubling step");
    }

    #[test]
    fn shortcut_collapses_chains() {
        let mut net = Otn::for_graphs(16).unwrap();
        let labels = Labels::init(&mut net);
        net.load_reg(labels.d, |i, j| (i == j).then_some(if i == 0 { 0 } else { i as Word - 1 }));
        labels.shortcut(&mut net);
        assert_eq!(labels.read(&mut net), vec![0; 16], "log n jumps flatten a chain of 16");
    }

    /// The label streams stay root streams through a shortcut, and its
    /// pointer fetch reads them in place: `EqCol(drow)` picks one cell per
    /// row without expanding `drow`.
    #[test]
    fn shortcut_reads_its_label_streams_unexpanded() {
        let n = 64;
        let mut net = Otn::for_graphs(n).unwrap();
        let labels = Labels::init(&mut net);
        net.load_reg(labels.d, |i, j| (i == j).then_some(i.saturating_sub(1) as Word));
        labels.shortcut(&mut net);
        for r in [labels.drow, labels.dcol] {
            assert!(net.regs[r.0].is_broadcast(), "{} was expanded", net.reg_names()[r.0]);
        }
        let mut mask = vec![0; crate::bitset::words(n * n)];
        let sel =
            |_: usize, _: usize, _: usize, _: &crate::otn::RegsView<'_>| Sel::EqCol(labels.drow);
        let policy = crate::ParallelPolicy::Sequential;
        crate::select::fill(&sel, &net.view(), policy, true, &mut mask);
        for v in 0..n {
            let target = net.peek(labels.drow, v, 0).unwrap() as usize;
            assert_eq!(crate::bitset::count_range(&mask, v * n, n), 1, "row {v}");
            assert!(crate::bitset::test(&mask, v * n + target), "row {v} fetches column {target}");
        }
        assert!(net.regs[labels.drow.0].is_broadcast(), "the fill read drow in place");
    }

    #[test]
    fn adopt_rewrites_labels_through_the_map() {
        let mut net = Otn::for_graphs(4).unwrap();
        let labels = Labels::init(&mut net);
        net.load_reg(labels.d, |i, j| (i == j).then_some([1, 1, 3, 3][i]));
        labels.refresh(&mut net);
        let lmap = net.alloc_reg("L");
        // L(1) = 0, L(3) = 2, others NULL.
        net.load_reg(lmap, |i, j| {
            (i == j).then_some(()).and(match i {
                1 => Some(0),
                3 => Some(2),
                _ => None,
            })
        });
        labels.adopt(&mut net, lmap);
        assert_eq!(labels.read(&mut net), vec![0, 0, 2, 2]);
    }

    #[test]
    fn change_counter_counts_diagonal_differences() {
        let mut net = Otn::for_graphs(4).unwrap();
        let labels = Labels::init(&mut net);
        let prev = net.alloc_reg("prev");
        let scratch = ChangeCounter::init(&mut net);
        net.load_reg(prev, |i, j| (i == j).then_some(i as Word));
        assert_eq!(count_label_changes(&mut net, &labels, prev, &scratch), 0);
        net.load_reg(labels.d, |i, j| (i == j).then_some(0));
        assert_eq!(
            count_label_changes(&mut net, &labels, prev, &scratch),
            3,
            "vertices 1,2,3 changed"
        );
    }
}
