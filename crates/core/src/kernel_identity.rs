//! Every per-BP phase the algorithms run as a kernel
//! ([`WordNet::bp_kernel`]) against the closure it replaced, run through
//! the kept closure forms ([`Otn::bp_phase`], [`Otc::bp_phase`]) on the
//! same planes: random ones (`NULL`s, duplicates for the index
//! tie-breaks, `Word::MIN` and `Word::MAX`) and those a sort under a dense
//! fault plan leaves behind. Registers, roots, clock, statistics and the
//! recorded spans must be equal, or both runs must panic.

use crate::otc::{self, Otc};
use crate::otn::{self, Otn};
use crate::select::Sel;
use crate::word::{pack, unpack, Word};
use crate::wordnet::{Reg, Topology, WordNet};
use crate::{CostModel, FaultPlan, TreeAxis};
use orthotrees_obs::causal::CausalSegment;
use orthotrees_obs::{Recorder, Span};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*s ^ (*s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a phase's register may hold for the phase to run at all: any
/// word, a weight `pack` accepts, or a packed word `unpack` accepts.
#[derive(Clone, Copy)]
enum Kind {
    Any,
    Weight,
    Packed,
}

/// A register word of `kind`: `NULL`, 0, a vertex id below `ids` (so
/// words collide and the index tie-breaks and `== w` tests fire), the
/// extremes and the rest.
fn word(seed: &mut u64, ids: usize, kind: Kind) -> Option<Word> {
    let r = splitmix(seed);
    let w = match r % 8 {
        0 => return None,
        1 => 0,
        2 | 3 => (r >> 3) as Word % ids as Word,
        4 => Word::MAX,
        5 => Word::MIN,
        6 => -1,
        _ => (r >> 3) as Word,
    };
    Some(match kind {
        Kind::Any => w,
        Kind::Weight => w.rem_euclid(1 << 20),
        Kind::Packed => w & Word::MAX,
    })
}

/// One ported phase over registers `r` (sources, then the destination):
/// its kernel and the closure body it replaced, and what each register
/// may hold.
struct Phase<N> {
    name: &'static str,
    kinds: &'static [Kind],
    kernel: fn(&mut N, &[Reg]),
    closure: fn(&mut N, &[Reg]),
}

const ANY2: &[Kind] = &[Kind::Any; 2];
const ANY3: &[Kind] = &[Kind::Any; 3];

fn otn_phases() -> Vec<Phase<Otn>> {
    vec![
        Phase {
            name: "SORT-OTN compare",
            kinds: ANY3,
            kernel: |net, r| otn::sort::compare(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (a, b, flag) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Compare, |i, j, bp| {
                    let f = match (bp.get(a), bp.get(b)) {
                        (Some(x), Some(y)) => x > y || (x == y && i > j),
                        _ => false,
                    };
                    bp.set(flag, Some(Word::from(f)));
                });
            },
        },
        Phase {
            name: "snapshot",
            kinds: ANY2,
            kernel: |net, r| otn::graph::snapshot(net, r[0], r[1]),
            closure: |net, r| {
                let (d, prev) = (r[0], r[1]);
                net.bp_phase(otn::PhaseCost::Bit, |i, j, bp| {
                    if i == j {
                        bp.set(prev, bp.get(d));
                    }
                });
            },
        },
        Phase {
            name: "adopt",
            kinds: ANY2,
            kernel: |net, r| otn::graph::adopt(net, r[0], r[1]),
            closure: |net, r| {
                let (fetched, d) = (r[0], r[1]);
                net.bp_phase(otn::PhaseCost::Compare, |i, j, bp| {
                    if i == j {
                        if let Some(l) = bp.get(fetched) {
                            bp.set(d, Some(l));
                        }
                    }
                });
            },
        },
        Phase {
            name: "flag_changed",
            kinds: ANY3,
            kernel: |net, r| otn::graph::flag_changed(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (d, prev, chflag) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Compare, |i, j, bp| {
                    let f = i == j && bp.get(d) != bp.get(prev);
                    bp.set(chflag, Some(Word::from(f)));
                });
            },
        },
        Phase {
            name: "flag_open",
            kinds: ANY2,
            kernel: |net, r| otn::graph::flag_open(net, r[0], r[1]),
            closure: |net, r| {
                let (compmin, have) = (r[0], r[1]);
                net.bp_phase(otn::PhaseCost::Bit, |i, j, bp| {
                    let f = i == j && bp.get(compmin).is_some();
                    bp.set(have, Some(Word::from(f)));
                });
            },
        },
        Phase {
            name: "own_or_min",
            kinds: ANY3,
            kernel: |net, r| otn::graph::own_or_min(net, Sel::All, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (drow, minn, cfull) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Compare, |_, _, bp| {
                    let c = match (bp.get(drow), bp.get(minn)) {
                        (Some(d), Some(m)) => Some(d.min(m)),
                        (Some(d), None) => Some(d),
                        _ => None,
                    };
                    bp.set(cfull, c);
                });
            },
        },
        Phase {
            name: "CC neighbour_labels",
            kinds: ANY3,
            kernel: |net, r| otn::graph::cc::neighbour_labels(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (a, dcol, cand) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Compare, |_, _, bp| {
                    let c = match (bp.get(a), bp.get(dcol)) {
                        (Some(e), lbl @ Some(_)) if e != 0 => lbl,
                        _ => None,
                    };
                    bp.set(cand, c);
                });
            },
        },
        Phase {
            name: "MST candidates",
            kinds: &[Kind::Weight, Kind::Any, Kind::Any, Kind::Any],
            kernel: |net, r| otn::graph::mst::candidates(net, [r[0], r[1], r[2]], r[3]),
            closure: |net, r| {
                let (wreg, drow, dcol, cand, nn) = (r[0], r[1], r[2], r[3], net.rows());
                net.bp_phase(otn::PhaseCost::Words(2), move |i, j, bp| {
                    let c = match (bp.get(wreg), bp.get(drow), bp.get(dcol)) {
                        (Some(w), Some(dv), Some(du)) if dv != du => {
                            Some(pack(w, i.min(j) * nn + i.max(j), nn * nn))
                        }
                        _ => None,
                    };
                    bp.set(cand, c);
                });
            },
        },
        Phase {
            name: "MST hooks",
            kinds: &[Kind::Packed, Kind::Any, Kind::Any, Kind::Any],
            kernel: |net, r| otn::graph::mst::hooks(net, [r[0], r[1], r[2]], r[3]),
            closure: |net, r| {
                let (cmrow, drow, dcol, hookval, nn) = (r[0], r[1], r[2], r[3], net.rows());
                net.bp_phase(otn::PhaseCost::Words(2), move |_, j, bp| {
                    let h = match (bp.get(cmrow), bp.get(drow), bp.get(dcol)) {
                        (Some(p), Some(dv), Some(du)) => {
                            let (_, eid) = unpack(p, nn * nn);
                            let is_endpoint = eid % nn == j || eid / nn == j;
                            if is_endpoint && du != dv {
                                Some(du)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    };
                    bp.set(hookval, h);
                });
            },
        },
        Phase {
            name: "MST break_two_cycles",
            kinds: ANY3,
            kernel: |net, r| otn::graph::mst::break_two_cycles(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (lreg, llreg, d) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Compare, move |i, j, bp| {
                    if i != j {
                        return;
                    }
                    match (bp.get(lreg), bp.get(llreg)) {
                        (Some(l), Some(ll)) if ll == i as Word => {
                            bp.set(d, Some(l.min(i as Word)));
                        }
                        (Some(l), _) => bp.set(d, Some(l)),
                        (None, _) => {}
                    }
                });
            },
        },
        Phase {
            name: "vector_matrix product",
            // Weights keep the products in range.
            kinds: &[Kind::Weight, Kind::Weight, Kind::Any],
            kernel: |net, r| otn::matmul::multiply(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (xa, b, p) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Multiply, |_, _, bp| {
                    let prod = match (bp.get(xa), bp.get(b)) {
                        (Some(xv), Some(bv)) => Some(xv * bv),
                        _ => Some(0),
                    };
                    bp.set(p, prod);
                });
            },
        },
        Phase {
            name: "wide product",
            kinds: &[Kind::Weight, Kind::Weight, Kind::Any],
            kernel: |net, r| otn::matmul::multiply(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (pa, pb, prod) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Multiply, |_, _, bp| {
                    let v = match (bp.get(pa), bp.get(pb)) {
                        (Some(x), Some(y)) => x * y,
                        _ => 0,
                    };
                    bp.set(prod, Some(v));
                });
            },
        },
        Phase {
            name: "wide Boolean product",
            kinds: ANY3,
            kernel: |net, r| otn::matmul::and(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (pa, pb, prod) = (r[0], r[1], r[2]);
                net.bp_phase(otn::PhaseCost::Bit, |_, _, bp| {
                    let v = match (bp.get(pa), bp.get(pb)) {
                        (Some(x), Some(y)) => Word::from(x != 0 && y != 0),
                        _ => 0,
                    };
                    bp.set(prod, Some(v));
                });
            },
        },
    ]
}

fn otc_phases() -> Vec<Phase<Otc>> {
    vec![
        Phase {
            name: "SORT-OTC compare rounds",
            // C is a count: no `cur + 1` overflow.
            kinds: &[Kind::Any, Kind::Any, Kind::Weight],
            kernel: |net, r| {
                for p in 0..net.cycle_len() {
                    otc::sort::compare_round(net, [r[0], r[1]], r[2], p);
                    net.circulate(&[r[1]]);
                }
            },
            closure: |net, r| {
                let (a, b, c, l) = (r[0], r[1], r[2], net.cycle_len());
                for p in 0..l {
                    net.bp_phase(otc::PhaseCost::Compare, |i, j, q, v| {
                        let (av, bv) = (v.get(a, i, j, q), v.get(b, i, j, q));
                        let (Some(av), Some(bv)) = (av, bv) else { return None };
                        let ia = (i * l + q) as Word;
                        let ib = (j * l + ((q + p) & (l - 1))) as Word;
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
            },
        },
        Phase {
            name: "snapshot",
            kinds: ANY2,
            kernel: |net, r| otn::graph::snapshot(net, r[0], r[1]),
            closure: |net, r| {
                let (d, prev) = (r[0], r[1]);
                net.bp_phase(otc::PhaseCost::Bit, move |i, j, q, v| {
                    (i == j).then(|| (prev, v.get(d, i, j, q)))
                });
            },
        },
        Phase {
            name: "own_or_min",
            kinds: ANY3,
            kernel: |net, r| otn::graph::own_or_min(net, Sel::Diagonal, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (d, minn, creg) = (r[0], r[1], r[2]);
                net.bp_phase(otc::PhaseCost::Compare, move |i, j, q, v| {
                    if i != j {
                        return None;
                    }
                    let c = match (v.get(d, i, j, q), v.get(minn, i, j, q)) {
                        (Some(dv), Some(mv)) => Some(dv.min(mv)),
                        (Some(dv), None) => Some(dv),
                        _ => None,
                    };
                    Some((creg, c))
                });
            },
        },
        Phase {
            name: "adopt",
            kinds: ANY2,
            kernel: |net, r| otn::graph::adopt(net, r[0], r[1]),
            closure: |net, r| {
                let (newd, d) = (r[0], r[1]);
                net.bp_phase(otc::PhaseCost::Compare, move |i, j, q, v| {
                    if i != j {
                        return None;
                    }
                    v.get(newd, i, j, q).map(|nd| (d, Some(nd)))
                });
            },
        },
        Phase {
            name: "flag_changed",
            kinds: ANY3,
            kernel: |net, r| otn::graph::flag_changed(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (d, prev, chflag) = (r[0], r[1], r[2]);
                net.bp_phase(otc::PhaseCost::Compare, move |i, j, q, v| {
                    let f = i == j && v.get(d, i, j, q) != v.get(prev, i, j, q);
                    Some((chflag, Some(Word::from(f))))
                });
            },
        },
        Phase {
            name: "flag_open",
            kinds: ANY2,
            kernel: |net, r| otn::graph::flag_open(net, r[0], r[1]),
            closure: |net, r| {
                let (compmin, have) = (r[0], r[1]);
                net.bp_phase(otc::PhaseCost::Bit, move |i, j, q, v| {
                    let f = i == j && v.get(compmin, i, j, q).is_some();
                    Some((have, Some(Word::from(f))))
                });
            },
        },
        Phase {
            name: "MST endpoints",
            kinds: &[Kind::Packed, Kind::Any],
            kernel: |net, r| {
                otc::mst::endpoints(net, r[0], r[1], false);
                otc::mst::endpoints(net, r[0], r[1], true);
            },
            closure: |net, r| {
                let (compmin, ptr) = (r[0], r[1]);
                let nn = net.side() * net.cycle_len();
                for endpoint_sel in [0usize, 1] {
                    net.bp_phase(otc::PhaseCost::Words(2), move |i, j, q, v| {
                        if i != j {
                            return None;
                        }
                        let p = v.get(compmin, i, j, q).map(|packed| {
                            let (_, eid) = unpack(packed, nn * nn);
                            if endpoint_sel == 0 {
                                (eid / nn) as Word
                            } else {
                                (eid % nn) as Word
                            }
                        });
                        Some((ptr, p))
                    });
                }
            },
        },
        Phase {
            name: "MST new_labels",
            kinds: ANY3,
            kernel: |net, r| otc::mst::new_labels(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (t1, t2, nl, l) = (r[0], r[1], r[2], net.cycle_len());
                net.bp_phase(otc::PhaseCost::Compare, move |i, j, q, v| {
                    if i != j {
                        return None;
                    }
                    let w = (i * l + q) as Word;
                    let target = match (v.get(t1, i, j, q), v.get(t2, i, j, q)) {
                        (Some(a), _) if a != w => Some(a),
                        (_, Some(b)) if b != w => Some(b),
                        _ => None,
                    };
                    Some((nl, target))
                });
            },
        },
        Phase {
            name: "MST break_two_cycles",
            kinds: ANY3,
            kernel: |net, r| otc::mst::break_two_cycles(net, [r[0], r[1]], r[2]),
            closure: |net, r| {
                let (nl, llr, d, l) = (r[0], r[1], r[2], net.cycle_len());
                net.bp_phase(otc::PhaseCost::Compare, move |i, j, q, v| {
                    if i != j {
                        return None;
                    }
                    let w = (i * l + q) as Word;
                    match (v.get(nl, i, j, q), v.get(llr, i, j, q)) {
                        (Some(target), Some(back)) if back == w => Some((d, Some(target.min(w)))),
                        (Some(target), _) => Some((d, Some(target))),
                        (None, _) => None,
                    }
                });
            },
        },
    ]
}

/// Everything a phase can change — registers, roots, clock and counts
/// (the checkpoint text) — and the spans and segments it recorded.
type State = (String, Vec<Span>, Vec<CausalSegment>);

/// Runs `op` on a recording copy of `base`; `None` if it panicked.
fn run<T: Topology>(
    base: &WordNet<T>,
    regs: &[Reg],
    op: fn(&mut WordNet<T>, &[Reg]),
) -> Option<State> {
    let mut net = base.clone();
    net.install_recorder(Recorder::new());
    catch_unwind(AssertUnwindSafe(|| op(&mut net, regs))).ok()?;
    for plane in &net.regs {
        let (valid, values) = (plane.valid(), plane.values());
        assert!(
            values.iter().enumerate().all(|(k, &v)| v == 0 || crate::bitset::test(valid, k)),
            "a NULL cell keeps value 0"
        );
    }
    let rec = net.take_recorder()?;
    Some((net.checkpoint_text(), rec.spans().to_vec(), rec.segments().to_vec()))
}

/// A dense plan: word faults, and a dark pair of subtrees on each axis
/// (inert where the trees are too small).
fn plan(seed: u64, side: usize) -> FaultPlan {
    FaultPlan::new(seed)
        .with_word_fault_rate(0.3)
        .with_max_retries(2)
        .with_dead_ip(TreeAxis::Rows, 0, 1, 0)
        .with_dead_ip(TreeAxis::Cols, side - 1, 1, 1)
}

/// Sort inputs with duplicates and both extremes.
fn inputs(n: usize, seed: &mut u64) -> Vec<Word> {
    (0..n).map(|_| word(seed, n, Kind::Any).unwrap_or(0)).collect()
}

/// Runs every phase of `phases` as kernel and closure on `base`, over
/// `regs`.
fn compare<T: Topology>(
    what: &str,
    base: &WordNet<T>,
    regs: &[Reg],
    phases: &[Phase<WordNet<T>>],
) -> Result<(), TestCaseError> {
    for phase in phases {
        let regs = &regs[..phase.kinds.len()];
        let kernel = run(base, regs, phase.kernel);
        let closure = run(base, regs, phase.closure);
        prop_assert!(kernel == closure, "{what}: {} differs", phase.name);
    }
    Ok(())
}

/// Fills `regs[k]` of `net` with words of `kinds[k]`.
fn scramble<T: Topology>(
    net: &mut WordNet<T>,
    regs: &[Reg],
    kinds: &[Kind],
    ids: usize,
    seed: &mut u64,
) {
    for (r, &kind) in regs.iter().zip(kinds) {
        for k in 0..net.cells() {
            net.regs[r.0].set(k, word(seed, ids, kind));
        }
    }
}

/// Every ported phase on an OTN of side `side` and an OTC for `n`
/// vertices, on random planes and on a faulty sort's planes.
fn identity(side: usize, n: usize, mut seed: u64) -> Result<(), TestCaseError> {
    let (otn_phases, otc_phases) = (otn_phases(), otc_phases());

    let mut net = Otn::new(side, side, CostModel::thompson(side.max(2))).unwrap();
    let regs = [0; 4].map(|_| net.alloc_reg("R"));
    for phase in &otn_phases {
        scramble(&mut net, &regs, phase.kinds, side, &mut seed);
        compare(&format!("OTN {side}²"), &net, &regs, std::slice::from_ref(phase))?;
    }
    let (m, l) = Otc::dims_for(n).unwrap();
    let mut otc = Otc::new(m, l, CostModel::thompson(n)).unwrap();
    let cregs = [0; 4].map(|_| otc.alloc_reg("R"));
    for phase in &otc_phases {
        scramble(&mut otc, &cregs, phase.kinds, n, &mut seed);
        compare(&format!("OTC {m}² × {l}"), &otc, &cregs, std::slice::from_ref(phase))?;
    }

    // The planes a dense-fault sort leaves: A, B, flag/C, R.
    let mut sorted = Otn::for_sorting(side).unwrap();
    sorted.install_fault_plan(plan(seed, side));
    otn::sort::sort(&mut sorted, &inputs(side, &mut seed)).unwrap();
    let regs = [0, 1, 2, 3].map(Reg);
    compare(&format!("faulty OTN {side}²"), &sorted, &regs, &otn_phases)?;
    let mut sorted = Otc::for_sorting(n).unwrap();
    sorted.install_fault_plan(plan(seed, m));
    otc::sort::sort(&mut sorted, &inputs(n, &mut seed)).unwrap();
    compare(&format!("faulty OTC {n}"), &sorted, &regs, &otc_phases)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each ported phase's kernel equals its closure on OTNs of side 1–64
    /// and OTCs of `dims_for(4..256)`.
    #[test]
    fn kernels_match_their_closures(
        side_log in 0u32..=6,
        n_log in 2u32..=8,
        seed in 0u64..1_000_000,
    ) {
        identity(1 << side_log, 1 << n_log, seed)?;
    }
}

/// The same property, every size of the proptest plus OTN side 128 and
/// OTC n = 1024, at several seeds each (release-mode sweep, run in CI).
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn kernel_identity_sweep() {
    for (side, n) in (0..=7).map(|k| (1 << k, 4 << k)).chain([(128, 1024)]) {
        for seed in [7, 1234, 99_991] {
            identity(side, n, seed).unwrap_or_else(|e| panic!("side {side}, n {n}: {e:?}"));
        }
    }
}

/// Every phase ran to the end somewhere: panics shared by both forms
/// (a negative weight, a debug-build overflow) do not hide a phase.
#[test]
fn every_phase_finishes_on_random_planes() {
    let (otn_phases, otc_phases) = (otn_phases(), otc_phases());
    let mut seed = 5;
    let mut net = Otn::new(8, 8, CostModel::thompson(8)).unwrap();
    let regs = [0; 4].map(|_| net.alloc_reg("R"));
    for phase in &otn_phases {
        let finished = (0..20).any(|_| {
            scramble(&mut net, &regs, phase.kinds, 8, &mut seed);
            run(&net, &regs[..phase.kinds.len()], phase.kernel).is_some()
        });
        assert!(finished, "OTN {} never finished", phase.name);
    }
    let mut otc = Otc::new(4, 4, CostModel::thompson(16)).unwrap();
    let regs = [0; 4].map(|_| otc.alloc_reg("R"));
    for phase in &otc_phases {
        let finished = (0..20).any(|_| {
            scramble(&mut otc, &regs, phase.kinds, 16, &mut seed);
            run(&otc, &regs[..phase.kinds.len()], phase.kernel).is_some()
        });
        assert!(finished, "OTC {} never finished", phase.name);
    }
}
