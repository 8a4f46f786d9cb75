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
use crate::grid::Grid;
use crate::word::Word;
use crate::wordnet::{Topology, WordNet};
use orthotrees_vlsi::{log2_ceil, CostModel, ModelError};

/// How one network issues the steps of the CC and MST drivers
/// ([`cc::components`], [`mst::spanning_forest`]): paper §VI.B converts the
/// OTN's graph algorithms to the OTC "in the same manner as procedure
/// SORT-OTN was converted to SORT-OTC", and this trait is that conversion.
/// The OTN's [`Labels`] and the OTC's `otc::labels` implement it. Steps
/// both networks issue alike — [`snapshot`], [`adopt`], [`own_or_min`],
/// [`flag_changed`], [`flag_open`] — are kernels the drivers call directly.
///
/// `D(v)` lives at the diagonal. A *row stream* holds a per-vertex value
/// in every cell of its vertex's row (on the OTC, at the vertex's stream
/// position); a *column stream* likewise down its column.
pub(crate) trait LabelToolkit: Sized {
    /// The network the toolkit runs on.
    type T: Topology;
    /// The loaded adjacency or weight matrix.
    type Matrix;
    /// MST's hook scratch registers.
    type HookRegs;

    /// The graph net of `n` vertices with `word_bits`-bit words.
    fn net(n: usize, word_bits: u32) -> Result<Net<Self>, ModelError>;
    /// Loads the matrix `f(v, u)` (one register on the OTN, `L` planes on the OTC).
    fn load(net: &mut Net<Self>, f: impl Fn(usize, usize) -> Option<Word>) -> Self::Matrix;
    /// Allocates the label registers and scratch, with `D(v) = v`.
    fn init(net: &mut Net<Self>) -> Self;
    /// The diagonal label register `D`.
    fn d(&self) -> Reg;
    /// Where CC computes `C(v) = min(D(v), minN(v))`, and `D`'s register there.
    fn own(&self) -> (Sel, Reg);
    /// Streams `D` along the rows and the columns.
    fn refresh(&self, net: &mut Net<Self>);
    /// `dest` := each vertex's least candidate, as a row stream.
    fn vertex_min(&self, net: &mut Net<Self>, m: &Self::Matrix, cands: Candidates, dest: Reg);
    /// `C`, computed over [`own`](Self::own), as a row stream.
    fn along_rows(&self, net: &mut Net<Self>, c: Reg) -> Reg;
    /// `dest(w)` := the least `src(v)` over the vertices `v` labelled `w`
    /// (`src` a row stream), where [`adopt`](Self::adopt) reads its table.
    fn group_min(&self, net: &mut Net<Self>, src: Reg, dest: Reg);
    /// `D(v) := table(D(v))` unless that is `NULL`.
    fn adopt(&self, net: &mut Net<Self>, table: Reg);
    /// `⌈log₂ n⌉` pointer jumps `D(v) := D(D(v))`, each after a refresh.
    fn shortcut(&self, net: &mut Net<Self>);
    /// How many diagonal cells have `flag` 1, counted by the trees.
    fn count(&self, net: &mut Net<Self>, flag: Reg) -> u64;
    /// Reads the diagonal of `r` out through the column roots.
    fn read_diagonal(&self, net: &mut Net<Self>, r: Reg) -> Vec<Option<Word>>;
    /// Allocates MST's hook scratch.
    fn hook_regs(net: &mut Net<Self>) -> Self::HookRegs;
    /// MST's hooking: `D(w)` := the label across the edge packed in
    /// `best(w)`, the smaller one where two components pick each other.
    fn hook(&self, net: &mut Net<Self>, regs: &Self::HookRegs, best: Reg);

    /// Reads the label vector.
    fn read(&self, net: &mut Net<Self>) -> Vec<Word> {
        let words = self.read_diagonal(net, self.d());
        words.into_iter().map(|v| v.expect("every vertex has a label")).collect()
    }
}

/// The net a [`LabelToolkit`] runs on.
pub(crate) type Net<L> = WordNet<<L as LabelToolkit>::T>;

/// What a vertex minimises over in [`LabelToolkit::vertex_min`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Candidates {
    /// Its neighbours' labels (CC).
    Neighbours,
    /// Its edges leaving its component, packed `(weight, normalised id)`.
    Edges,
}

/// The square-input check and the net build every graph entry starts with.
pub(crate) fn graph_net<L: LabelToolkit, X>(
    g: &Grid<X>,
    sides: &'static str,
    word_bits: u32,
) -> Result<Net<L>, ModelError> {
    ModelError::require_equal(sides, g.rows(), g.cols())?;
    L::net(g.rows(), word_bits)
}

/// The OTN's label registers: `d` holds `D(v)` at diagonal BPs;
/// `drow`/`dcol` are its row/column broadcasts (`drow(v,u) = D(v)`,
/// `dcol(v,u) = D(u)`); the rest is scratch.
pub(crate) struct Labels {
    pub d: Reg,
    pub drow: Reg,
    pub dcol: Reg,
    lcol: Reg,
    lfetch: Reg,
    cand: Reg,
    colcount: Reg,
}

/// Row tree `v` fetches `table(v, ptr(v))` into the diagonal, with `ptr`
/// a row and `table` a column broadcast.
fn fetch(net: &mut Otn, ptr: Reg, table: Reg, dest: Reg) {
    net.leaf_to_leaf(
        Axis::Rows,
        table,
        move |_, _, _| Sel::EqCol(ptr),
        dest,
        |_, _, _| Sel::Diagonal,
    );
}

/// Broadcasts the diagonal of `src` along the `axis` trees into `dest`.
fn spread(net: &mut Otn, axis: Axis, src: Reg, dest: Reg) {
    net.leaf_to_leaf(axis, src, |_, _, _| Sel::Diagonal, dest, all);
}

impl LabelToolkit for Labels {
    type T = crate::wordnet::Tree;
    type Matrix = Reg;
    /// `cmrow`, `hook`, `L`, `Lrow`, `Lcol2`, `LL`.
    type HookRegs = [Reg; 6];

    fn net(n: usize, word_bits: u32) -> Result<Otn, ModelError> {
        ModelError::require_power_of_two("vertex count", n)?;
        Otn::new(n, n, CostModel::thompson(n).with_word_bits(word_bits))
    }

    fn load(net: &mut Otn, f: impl Fn(usize, usize) -> Option<Word>) -> Reg {
        let r = net.alloc_reg("M");
        net.load_reg(r, f);
        r
    }

    fn init(net: &mut Otn) -> Labels {
        let [d, drow, dcol, lcol, lfetch, cand, colcount] =
            ["D", "Drow", "Dcol", "Lcol", "Lfetch", "cand", "colcount"].map(|r| net.alloc_reg(r));
        net.load_reg(d, |i, j| if i == j { Some(i as Word) } else { None });
        Labels { d, drow, dcol, lcol, lfetch, cand, colcount }
    }

    fn d(&self) -> Reg {
        self.d
    }

    /// Every BP of row `v`, where `drow(v, ·) = D(v)`.
    fn own(&self) -> (Sel, Reg) {
        (Sel::All, self.drow)
    }

    /// 2 `LEAFTOLEAF`s.
    fn refresh(&self, net: &mut Otn) {
        spread(net, Axis::Rows, self.d, self.drow);
        spread(net, Axis::Cols, self.d, self.dcol);
    }

    /// A candidate kernel, then one `MIN-LEAFTOLEAF` along the rows.
    fn vertex_min(&self, net: &mut Otn, m: &Reg, cands: Candidates, dest: Reg) {
        match cands {
            Candidates::Neighbours => cc::neighbour_labels(net, [*m, self.dcol], self.cand),
            Candidates::Edges => mst::candidates(net, [*m, self.drow, self.dcol], self.cand),
        }
        net.min_to_leaf(Axis::Rows, self.cand, all, dest, all);
    }

    /// Already one: `C` is computed in every BP of its row.
    fn along_rows(&self, _: &mut Otn, c: Reg) -> Reg {
        c
    }

    /// One `MIN-LEAFTOLEAF` down the columns, selected by `D(v) = column`.
    fn group_min(&self, net: &mut Otn, src: Reg, dest: Reg) {
        let drow = self.drow;
        net.min_to_leaf(
            Axis::Cols,
            src,
            move |_, _, _| Sel::EqCol(drow),
            dest,
            |_, _, _| Sel::Diagonal,
        );
    }

    /// `table` goes down the columns, row `v` fetches `table(D(v))`.
    fn adopt(&self, net: &mut Otn, table: Reg) {
        spread(net, Axis::Cols, table, self.lcol);
        fetch(net, self.drow, self.lcol, self.lfetch);
        adopt(net, self.lfetch, self.d);
    }

    /// Each jump: row tree `v` fetches `dcol(v, D(v)) = D(D(v))`.
    fn shortcut(&self, net: &mut Otn) {
        for _ in 0..log2_ceil(net.rows() as u64).max(1) {
            self.refresh(net);
            fetch(net, self.drow, self.dcol, self.d);
        }
    }

    /// Column counts land in row 0, then row tree 0 counts the columns.
    fn count(&self, net: &mut Otn, flag: Reg) -> u64 {
        net.count_to_leaf(Axis::Cols, flag, self.colcount, |_, _, _| Sel::Row(0));
        net.count_to_root(Axis::Rows, self.colcount);
        net.roots(Axis::Rows)[0].expect("COUNT roots are never NULL") as u64
    }

    /// One `LEAFTOROOT` on the column trees.
    fn read_diagonal(&self, net: &mut Otn, r: Reg) -> Vec<Option<Word>> {
        net.leaf_to_root(Axis::Cols, r, |_, _, _| Sel::Diagonal);
        net.roots(Axis::Cols).to_vec()
    }

    fn hook_regs(net: &mut Otn) -> [Reg; 6] {
        ["cmrow", "hook", "L", "Lrow", "Lcol2", "LL"].map(|r| net.alloc_reg(r))
    }

    /// Row `w` finds the label `L(w)` of the chosen edge's far endpoint,
    /// then fetches `L(L(w))` for the 2-cycle kernel.
    fn hook(&self, net: &mut Otn, regs: &[Reg; 6], best: Reg) {
        let [cmrow, hook, l, lrow, lcol, ll] = *regs;
        spread(net, Axis::Rows, best, cmrow);
        mst::hooks(net, [cmrow, self.drow, self.dcol], hook);
        net.min_to_leaf(Axis::Rows, hook, all, l, |_, _, _| Sel::Diagonal);
        spread(net, Axis::Rows, l, lrow);
        spread(net, Axis::Cols, l, lcol);
        fetch(net, lrow, lcol, ll);
        mst::break_two_cycles(net, [l, ll], self.d);
    }
}

/// The union–find root of `x`, compressing the path (host-side
/// references only).
fn find(parent: &mut [usize], x: usize) -> usize {
    if parent[x] != x {
        parent[x] = find(parent, parent[x]);
    }
    parent[x]
}

// Label phases both networks issue alike: one kernel each
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
        fetch(&mut net, labels.drow, labels.dcol, labels.d);
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
        let (prev, flag) = (net.alloc_reg("prev"), net.alloc_reg("changed"));
        net.load_reg(prev, |i, j| (i == j).then_some(i as Word));
        let changes = |net: &mut Otn| {
            flag_changed(net, [labels.d, prev], flag);
            labels.count(net, flag)
        };
        assert_eq!(changes(&mut net), 0);
        net.load_reg(labels.d, |i, j| (i == j).then_some(0));
        assert_eq!(changes(&mut net), 3, "vertices 1,2,3 changed");
    }

    /// A 16-vertex graph of several components, and weights with ties.
    fn span_inputs() -> (Grid<Word>, Grid<Option<Word>>) {
        let n = 16;
        let (mut adj, mut w) = (Grid::filled(n, n, 0), Grid::filled(n, n, None));
        for u in 0..n {
            for v in u + 1..n {
                if (u * 5 + v * 3) % 11 == 0 {
                    adj.set(u, v, 1);
                    adj.set(v, u, 1);
                }
                if (u + 2 * v) % 3 != 0 {
                    let x = Some(((u * v + u + v) % 9) as Word + 1);
                    w.set(u, v, x);
                    w.set(v, u, x);
                }
            }
        }
        (adj, w)
    }

    /// Runs `run` on `net` under a recorder: the span count and an FNV-1a
    /// digest of the `name start end` line of every span, in order.
    fn spans<T: Topology>(mut net: WordNet<T>, run: impl FnOnce(&mut WordNet<T>)) -> (usize, u64) {
        net.install_recorder(orthotrees_obs::Recorder::new());
        run(&mut net);
        let rec = net.take_recorder().unwrap();
        let digest = rec.spans().iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
            let line = format!("{} {} {}\n", s.name, s.start.get(), s.end.get());
            line.bytes().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        (rec.spans().len(), digest)
    }

    /// Golden digests time and op counts but not the order of the
    /// primitives; these pin that too. The figures were recorded from the
    /// four per-network CC/MST loops the drivers replaced, on the same
    /// inputs.
    #[test]
    fn drivers_issue_the_pinned_primitive_sequence() {
        use crate::otc::labels::Labels as OtcLabels;
        let (adj, w) = span_inputs();
        let (cc_bits, mst_bits) = (cc::label_bits(16), mst::weight_bits(&w));
        let got = [
            spans(Labels::net(16, cc_bits).unwrap(), |net| {
                cc::components::<Labels>(net, &adj);
            }),
            spans(OtcLabels::net(16, cc_bits).unwrap(), |net| {
                cc::components::<OtcLabels>(net, &adj);
            }),
            spans(Labels::net(16, mst_bits).unwrap(), |net| {
                mst::spanning_forest::<Labels>(net, &w);
            }),
            spans(OtcLabels::net(16, mst_bits).unwrap(), |net| {
                mst::spanning_forest::<OtcLabels>(net, &w);
            }),
        ];
        let want = [
            (190, 0x0ad9_f50c_4dcf_db31),
            (214, 0x7928_a7e1_dc05_13ef),
            (162, 0x360b_5d2f_b3c0_8a05),
            (197, 0x8962_652e_677b_84f6),
        ];
        assert_eq!(got, want);
    }

    /// The edge lists of the sweep's graph families on `n` vertices:
    /// empty, path, star, cycle, complete, two cliques joined by one edge,
    /// and `G(n, p)` at three densities.
    fn families(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<(String, Vec<(usize, usize)>)> {
        use rand::RngExt;
        let pairs = |keep: &dyn Fn(usize, usize) -> bool| -> Vec<(usize, usize)> {
            (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| keep(u, v))
                .collect()
        };
        let h = n / 2;
        let mut out = vec![
            ("empty".to_string(), Vec::new()),
            ("path".to_string(), (1..n).map(|v| (v - 1, v)).collect()),
            ("star".to_string(), (1..n).map(|v| (0, v)).collect()),
            (
                "cycle".to_string(),
                (0..n).map(|v| (v.min((v + 1) % n), v.max((v + 1) % n))).collect(),
            ),
            ("complete".to_string(), pairs(&|_, _| true)),
            ("two cliques".to_string(), pairs(&|u, v| (u < h) == (v < h) || (u, v) == (h - 1, h))),
        ];
        for p in [1.0 / n as f64, 4.0 / n as f64, 0.3] {
            let draws: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>()).collect();
            out.push((format!("G(n, {p:.3})"), pairs(&|u, v| draws[u * n + v] < p)));
        }
        out
    }

    /// CC against union–find and MST against Kruskal (weights drawn from
    /// 0..4, so most ties are broken by the packed edge id) on every
    /// family, n = 4…128 (`log₂ n` from 2 to 7, OTC cycle lengths 2 and
    /// 4), and the OTN's outcome against the OTC's.
    #[test]
    #[ignore = "release-mode sweep, run explicitly in CI"]
    fn graph_driver_sweep() {
        use crate::otc;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for n in [4, 8, 16, 32, 64, 128] {
            for (name, edges) in families(n, &mut rng) {
                let mut adj = Grid::filled(n, n, 0);
                let mut w = Grid::filled(n, n, None);
                for &(u, v) in &edges {
                    let x = rng.random_range(0..4);
                    for (a, b) in [(u, v), (v, u)] {
                        adj.set(a, b, 1);
                        w.set(a, b, Some(x));
                    }
                }
                let case = format!("{name} at n = {n}");
                let otn_cc = cc::connected_components(&adj).unwrap();
                let otc_cc = otc::cc::connected_components(&adj).unwrap();
                assert_eq!(otn_cc.labels, cc::reference_components(&adj), "{case}");
                assert_eq!(otc_cc.labels, otn_cc.labels, "{case}");
                let otn_mst = mst::minimum_spanning_tree(&w).unwrap();
                let otc_mst = otc::mst::minimum_spanning_tree(&w).unwrap();
                let want = mst::reference_mst_weight(&w);
                assert_eq!((otn_mst.total_weight, otn_mst.edges.len()), want, "{case}");
                assert_eq!(otc_mst.edges, otn_mst.edges, "{case}");
            }
        }
    }
}
