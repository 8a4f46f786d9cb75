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
        net.bp_phase(PhaseCost::Compare, |i, j, bp| {
            if i == j {
                if let Some(l) = bp.get(fetched) {
                    bp.set(d, Some(l));
                }
            }
        });
    }
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
    net.bp_phase(PhaseCost::Compare, |i, j, bp| {
        let f = i == j && bp.get(d) != bp.get(prev);
        bp.set(chflag, Some(Word::from(f)));
    });
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
