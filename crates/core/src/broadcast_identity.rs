//! Every access to a broadcast plane ([`Plane::broadcast`]) against the
//! same access to its expanded copy, and both against the plane the
//! root streams define cell by cell: reads (`get`, `gather`, the register
//! [`Sel`] fills per position and per cell, kernel sources), writes after
//! a broadcast (kernel destinations, `set`, `scatter`, `rotate_blocks`,
//! `fill`) and the snapshot forms (`to_words`, checkpoint text). Streams
//! hold `NULL`, 0, column indices (so [`Sel::EqCol`] hits), negative and
//! extreme words; both tree families; OTN grids of side 1–64, the one-row
//! and one-column ones included, and the OTCs of `dims_for(4..256)`.

use crate::bitset::{self, Plane};
use crate::otc::Otc;
use crate::otn::Otn;
use crate::primitive::ParallelPolicy;
use crate::select::{self, Sel};
use crate::word::Word;
use crate::wordnet::{Axis, PhaseCost, Reg, Topology, View, WordNet};
use crate::CostModel;
use proptest::prelude::*;

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*s ^ (*s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A word of every kind: `NULL`, 0, column indices, negative and extreme
/// words and the rest. `nulls` in 8 draws are `NULL`, so a stream can be
/// all valid (0) or all `NULL` (8).
fn word(seed: &mut u64, cols: usize, nulls: u64) -> Option<Word> {
    let r = splitmix(seed);
    if (r >> 32) % 8 < nulls {
        return None;
    }
    Some(match r % 8 {
        0 => 0,
        1..=3 => (r >> 3) as Word % cols as Word,
        4 => Word::MAX,
        5 => Word::MIN,
        6 => -((r >> 3) as Word % 100) - 1,
        _ => (r >> 3) as Word,
    })
}

/// A mask of `cells` bits: every, none or a random third of them.
fn mask(seed: &mut u64, cells: usize, kind: usize) -> Vec<u64> {
    let mut m = vec![0; bitset::words(cells)];
    match kind {
        0 => bitset::fill(&mut m, cells),
        1 => {}
        _ => {
            for k in 0..cells {
                bitset::assign(&mut m, k, splitmix(seed).is_multiple_of(3));
            }
        }
    }
    m
}

/// Everything a run can change: registers, roots, clock and counts.
fn text<T: Topology>(net: &WordNet<T>) -> String {
    net.checkpoint_text()
}

/// Register 0 of `net`, as a broadcast of `axis`'s root streams and as
/// that broadcast expanded, each in a copy of `net`.
fn pair<T: Topology>(net: &WordNet<T>, axis: Axis) -> (WordNet<T>, WordNet<T>) {
    let mut lazy = net.clone();
    let (cols, cycle) = (net.cols, net.cycle());
    let roots = net.roots[axis.index()].clone();
    lazy.regs[0].broadcast(axis, cols, cycle, &roots);
    let mut eager = lazy.clone();
    eager.expand_regs();
    (lazy, eager)
}

/// Checks every access on a broadcast of `axis` over a scrambled `net`
/// (three registers: the broadcast, a source, a destination).
fn check<T: Topology>(
    net: &mut WordNet<T>,
    axis: Axis,
    seed: &mut u64,
) -> Result<(), TestCaseError> {
    let (rows, cols, cycle, cells) = (net.rows, net.cols, net.cycle(), net.cells());
    let nulls = [0, 1, 4, 8][(splitmix(seed) % 4) as usize];
    for k in 0..cells {
        for r in [1, 2] {
            let w = word(seed, cols, 2);
            net.regs[r].set(k, w);
        }
    }
    for root in net.roots.iter_mut().flatten() {
        *root = word(seed, cols, nulls);
    }
    let roots = net.roots[axis.index()].clone();
    let (lazy, eager) = pair(net, axis);
    let what = format!("{rows}×{cols}×{cycle} {axis:?}, {nulls}/8 NULL");

    // The plane stays a broadcast wherever its stream and bits are
    // shorter than the plane and its cycles fit in a word.
    let len = roots.len();
    let lazy_expected = len + bitset::words(len) < cells && cycle <= 64;
    prop_assert!(lazy.regs[0].is_broadcast() == lazy_expected, "{what}");
    prop_assert!(!eager.regs[0].is_broadcast());

    // Reads: cell by cell against the streams, and the snapshot forms.
    let oracle: Vec<Option<Word>> = (0..cells)
        .map(|k| {
            let cell = k / cycle;
            let tree = axis.coords(cell / cols, cell % cols).0;
            roots[tree * cycle + k % cycle]
        })
        .collect();
    prop_assert!(lazy.regs[0].to_words() == oracle, "{what}: to_words");
    prop_assert!(eager.regs[0].to_words() == oracle, "{what}: expanded");
    prop_assert!(text(&lazy) == text(&eager), "{what}: checkpoint text");

    for kind in 0..3 {
        let m = mask(seed, cells, kind);
        let gathered = |p: &Plane| {
            let mut got = Vec::new();
            p.gather(&m, |k, w| got.push((k, w)));
            got
        };
        prop_assert!(gathered(&lazy.regs[0]) == gathered(&eager.regs[0]), "{what}: gather");
    }

    // Every selection shape, per position and per cell.
    let b = Reg(0);
    let shapes = [
        Sel::All,
        Sel::Diagonal,
        Sel::Row(rows - 1),
        Sel::Col(0),
        Sel::NonZero(b),
        Sel::EqCol(b),
        Sel::Valid(b),
    ];
    for shape in shapes {
        for per_position in [true, false] {
            let fill = |n: &WordNet<T>| {
                let mut m = vec![0; bitset::words(cells)];
                let sel = |_: usize, _: usize, _: usize, _: &View<'_, T>| shape;
                select::fill(&sel, &n.view(), ParallelPolicy::Sequential, per_position, &mut m);
                m
            };
            prop_assert!(
                fill(&lazy) == fill(&eager),
                "{what}: {shape:?} per position {per_position}"
            );
        }
    }

    // Kernels reading the broadcast, and writing it.
    let kernels: [fn(&mut WordNet<T>, Sel); 3] =
        [
            |n, domain| {
                n.bp_kernel(PhaseCost::Compare, domain, [Reg(0), Reg(1)], Reg(2), |bp, w, old| {
                    match w {
                        [Some(a), Some(b)] => Some(a.wrapping_mul(31) ^ b ^ (bp.q + bp.j) as Word),
                        [a, None] => a,
                        [None, b] => b.or(old),
                    }
                });
            },
            |n, domain| {
                n.bp_kernel(PhaseCost::Bit, domain, [Reg(1), Reg(0)], Reg(2), |_, w, _| {
                    w[1].map(|v| v.wrapping_add(w[0].unwrap_or(7)))
                });
            },
            |n, domain| {
                n.bp_kernel(PhaseCost::Add, domain, [Reg(1)], Reg(0), |bp, [a], old| {
                    if bp.i == bp.j {
                        a
                    } else {
                        old.map(|v| v ^ 1)
                    }
                });
            },
        ];
    for (i, kernel) in kernels.iter().enumerate() {
        for domain in [Sel::All, Sel::Diagonal, Sel::Row(0), Sel::Valid(Reg(1)), Sel::Row(rows)] {
            let run = |n: &WordNet<T>| {
                let mut n = n.clone();
                kernel(&mut n, domain);
                text(&n)
            };
            prop_assert!(run(&lazy) == run(&eager), "{what}: kernel {i} over {domain:?}");
        }
    }

    // Writes after a broadcast expand it first.
    let k = (splitmix(seed) as usize) % cells;
    let w = word(seed, cols, 2);
    let mut m = mask(seed, cells, 2);
    bitset::assign(&mut m, k, true);
    let block = if cycle > 1 { cycle } else { 2.min(cells) };
    let writes: [&dyn Fn(&mut Plane); 5] = [
        &|p| p.set(k, w),
        &|p| p.scatter(&m, |k| (k % 3 != 0).then_some(k as Word)),
        &|p| p.rotate_blocks(block),
        &|p| p.fill(w),
        &|p| p.materialize(),
    ];
    for (i, write) in writes.iter().enumerate() {
        let (mut a, mut e) = (lazy.regs[0].clone(), eager.regs[0].clone());
        write(&mut a);
        write(&mut e);
        prop_assert!(!a.is_broadcast(), "{what}: write {i} leaves it flat");
        prop_assert!(a.to_words() == e.to_words(), "{what}: write {i}");
        prop_assert!(a.values() == e.values(), "{what}: write {i} values");
        prop_assert!(a.valid() == e.valid(), "{what}: write {i} validity");
    }
    Ok(())
}

/// Both families on an OTN of `rows × cols` and on an OTC for `n`.
fn identity(rows: usize, cols: usize, n: usize, mut seed: u64) -> Result<(), TestCaseError> {
    let mut otn = Otn::new(rows, cols, CostModel::thompson(rows.max(cols).max(2))).unwrap();
    let (m, l) = Otc::dims_for(n).unwrap();
    let mut otc = Otc::new(m, l, CostModel::thompson(n)).unwrap();
    for r in ["B", "S", "D"] {
        otn.alloc_reg(r);
        otc.alloc_reg(r);
    }
    for axis in [Axis::Rows, Axis::Cols] {
        check(&mut otn, axis, &mut seed)?;
        check(&mut otc, axis, &mut seed)?;
    }
    Ok(())
}

/// Cycles longer than a word are written out at once, and read and
/// written like any flat plane.
#[test]
fn long_cycles_expand_at_once() {
    let mut otc = Otc::new(2, 128, CostModel::thompson(256)).unwrap();
    for r in ["B", "S", "D"] {
        otc.alloc_reg(r);
    }
    let mut seed = 5;
    for axis in [Axis::Rows, Axis::Cols] {
        for _ in 0..4 {
            check(&mut otc, axis, &mut seed).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A broadcast plane reads and writes like its expansion on OTNs of
    /// side 1–64 (one row or column included) and OTCs of
    /// `dims_for(4..256)`.
    #[test]
    fn broadcast_planes_match_their_expansion(
        row_log in 0u32..=6,
        col_log in 0u32..=6,
        n_log in 2u32..=8,
        seed in 0u64..1_000_000,
    ) {
        identity(1 << row_log, 1 << col_log, 1 << n_log, seed)?;
    }
}

/// The same property at every grid shape of the proptest and several
/// seeds each (release-mode sweep, run in CI).
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn broadcast_identity_sweep() {
    for row_log in 0..=6 {
        for col_log in 0..=6 {
            for seed in [7, 1234] {
                let n = 4 << ((row_log + col_log) % 7);
                identity(1 << row_log, 1 << col_log, n, seed + row_log * 7 + col_log)
                    .unwrap_or_else(|e| panic!("{row_log}/{col_log}: {e:?}"));
            }
        }
    }
}
