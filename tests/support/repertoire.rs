//! The one word-level repertoire run every word-level identity and
//! instrument suite shares: every registry entry bound on a network
//! ([`Topology::invoke`]), on both axes, over two loaded registers and
//! loaded root ports, then the network's compute phases. Two runs are the same run exactly when their
//! `checkpoint_text()` is equal.
//!
//! Test code, included by path: `tests/word_identity_suite.rs`,
//! `tests/profile_suite.rs`, `tests/telemetry_suite.rs`,
//! `tests/registry_suite.rs`, `tests/overhead_suite.rs` and
//! `tests/causal_suite.rs`.

#![allow(dead_code)]

use orthotrees::otc::Otc;
use orthotrees::otn::Otn;
use orthotrees::primitive::{self, Monoid, PrimitiveSpec, REGISTRY};
use orthotrees::wordnet::{Axis, Call, Cycles, PhaseCost, Reg, Topology, Tree, WordNet};
use orthotrees::Word;

/// What loading a network takes that differs between the two.
pub trait Load: Topology {
    /// Loads register `r` from `f(i, j, q)`.
    fn load_reg(net: &mut WordNet<Self>, r: Reg, f: impl Fn(usize, usize, usize) -> Word);
    /// Loads stream position `q` of every row root port `t` with `f(t, q)`.
    fn load_roots(net: &mut WordNet<Self>, f: impl Fn(usize, usize) -> Word);
    /// The base processors per cell.
    fn cycle_len(net: &WordNet<Self>) -> usize;
    /// Runs the network's compute phases over `[src, dest]`, so a compute
    /// charge follows the communication charges.
    fn phases(net: &mut WordNet<Self>, regs: [Reg; 2]);
}

impl Load for Tree {
    fn load_reg(net: &mut Otn, r: Reg, f: impl Fn(usize, usize, usize) -> Word) {
        net.load_reg(r, |i, j| Some(f(i, j, 0)));
    }

    fn load_roots(net: &mut Otn, f: impl Fn(usize, usize) -> Word) {
        net.load_row_roots(&(0..net.rows()).map(|t| f(t, 0)).collect::<Vec<_>>());
    }

    fn cycle_len(_: &Otn) -> usize {
        1
    }

    /// One BP phase: `dest` keeps the smaller of the two words.
    fn phases(net: &mut Otn, [src, dest]: [Reg; 2]) {
        net.bp_phase(PhaseCost::Compare, |_, _, r| r.set(dest, r.get(src).min(r.get(dest))));
    }
}

impl Load for Cycles {
    fn load_reg(net: &mut Otc, r: Reg, f: impl Fn(usize, usize, usize) -> Word) {
        net.load_reg(r, |i, j, q| Some(f(i, j, q)));
    }

    fn load_roots(net: &mut Otc, f: impl Fn(usize, usize) -> Word) {
        let cycle = net.cycle_len();
        let buffers: Vec<Vec<Word>> =
            (0..net.side()).map(|t| (0..cycle).map(|q| f(t, q)).collect()).collect();
        net.load_row_root_buffers(&buffers);
    }

    fn cycle_len(net: &Otc) -> usize {
        net.cycle_len()
    }

    /// A BP phase rotating `src` one position into `dest`, then a cycle
    /// phase copying each cycle's first `dest` word back into `src`.
    fn phases(net: &mut Otc, [src, dest]: [Reg; 2]) {
        let cycle = net.cycle_len();
        net.bp_phase(PhaseCost::Compare, |i, j, q, v| {
            Some((dest, v.get(src, i, j, (q + 1) % cycle)))
        });
        net.cycle_phase(PhaseCost::Compare, |_, _, c| c.set(src, 0, c.get(dest, 0)));
    }
}

/// Allocates and loads the two registers the repertoire reads and writes,
/// and loads the row root ports. Returns `[src, dest]`.
pub fn load<T: Load>(net: &mut WordNet<T>) -> [Reg; 2] {
    let (a, b) = (net.alloc_reg("A"), net.alloc_reg("B"));
    T::load_reg(net, a, |i, j, q| ((i * 31 + j * 7 + q * 3) % 97) as Word - 13);
    T::load_reg(net, b, |i, j, q| ((i * 5 + j * 11 + q) % 23) as Word);
    T::load_roots(net, |t, q| (t + q) as Word);
    [a, b]
}

/// One leaf per tree and stream position, on either axis of a square net.
fn diagonal(i: usize, j: usize, _: usize) -> bool {
    i == j
}

/// Two base processors in three, varying with the stream position.
fn two_in_three(i: usize, j: usize, q: usize) -> bool {
    !(i + 2 * j + q).is_multiple_of(3)
}

fn every(_: usize, _: usize, _: usize) -> bool {
    true
}

fn checkerboard(i: usize, j: usize, _: usize) -> bool {
    (i + j).is_multiple_of(2)
}

/// The call the repertoire makes of `spec` on `axis`: a `First` ascent
/// selects one leaf per tree and position, the folds two leaves in three;
/// descents write every cell on the rows (a broadcast plane when no fault
/// plan is installed) and a checkerboard on the columns.
pub fn call(spec: &PrimitiveSpec, axis: Axis, [src, dest]: [Reg; 2]) -> Call<'static> {
    let up = spec.composite_of.map_or(spec, |(up, _)| primitive::spec_for(up));
    let first = up.combine == Some(Monoid::First);
    Call {
        axis,
        src,
        src_sel: if first { &diagonal } else { &two_in_three },
        dest,
        dest_sel: if axis == Axis::Rows { &every } else { &checkerboard },
    }
}

/// Invokes every registry entry bound on `T`, in registry order, on the
/// rows and then on the columns.
pub fn invoke_all<T: Topology>(net: &mut WordNet<T>, regs: [Reg; 2]) {
    for axis in [Axis::Rows, Axis::Cols] {
        for spec in REGISTRY {
            let _ = T::invoke(net, spec, call(spec, axis, regs));
        }
    }
}

/// The repertoire on a fresh `T::for_sorting(n)`: `setup` installs the
/// instruments, fault plan and policy, then the registers and ports are
/// loaded, every bound entry runs on both axes and the compute phases
/// run last.
pub fn run<T: Load>(n: usize, setup: impl FnOnce(&mut WordNet<T>)) -> WordNet<T> {
    let mut net = T::for_sorting(n).unwrap();
    setup(&mut net);
    let regs = load(&mut net);
    invoke_all(&mut net, regs);
    T::phases(&mut net, regs);
    net
}
