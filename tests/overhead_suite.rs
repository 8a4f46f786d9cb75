//! Fault-overhead base regression: each faultable primitive's retry
//! round must be priced from *its own* registry cost kind — the exact
//! bug class of the old `Otn::leaf_to_root`, whose overhead base cited
//! the broadcast closed form where the send form was intended. Under a
//! plan whose every transit faults detectably with `k` retries, the
//! elapsed time of one primitive is exactly `(1 + k) ×` its registry
//! cost: the charge itself plus `k` retransmissions of the same base.

use orthotrees::otn::Axis;
use orthotrees::primitive::{self, Direction};
use orthotrees::wordnet::{Cycles, Tree};
use orthotrees::{BitTime, FaultPlan};
use orthotrees_vlsi::{CostKind, CostModel};

#[path = "support/repertoire.rs"]
mod repertoire;
use repertoire::Load;

/// Every transit faults, every fault is parity-detectable, `k` retries:
/// each transit deterministically spends exactly `k` extra attempts
/// (and delivers an erasure, which these tests ignore — only the clock
/// is under test).
fn deterministic_plan(k: u32) -> FaultPlan {
    FaultPlan::new(17).with_word_fault_rate(1.0).with_undetectable_fraction(0.0).with_max_retries(k)
}

/// Runs every registry entry with a cost kind bound on `T`, each on the
/// row trees (whose root ports are loaded) of a fresh `T::for_sorting(16)`
/// under `deterministic_plan(k)`,
/// and returns `(name, elapsed, retries, registry-priced base)`. A
/// `VECTORCIRCULATE` rotation never crosses a tree, so it draws no fault
/// and spends no retry.
fn elapsed<T: Load>(k: u32) -> Vec<(&'static str, BitTime, u32, BitTime)> {
    let mut out = Vec::new();
    for spec in primitive::REGISTRY {
        let Some(kind) = spec.cost else { continue };
        let mut net = T::for_sorting(16).unwrap();
        net.install_fault_plan(deterministic_plan(k));
        let regs = repertoire::load(&mut net);
        let (leaves, cycle) = (net.leaves(Axis::Rows), T::cycle_len(&net));
        let base = net.model().primitive_cost(kind, leaves, net.pitch(), cycle);
        let call = repertoire::call(spec, Axis::Rows, regs);
        let (bound, t) = net.elapsed(|net| T::invoke(net, spec, call));
        let retries = if spec.direction == Some(Direction::Circulate) { 0 } else { k };
        if bound {
            out.push((spec.name, t, retries, base));
        }
    }
    out
}

/// Asserts every costed entry bound on `T` costs `(1 + retries) ×` its
/// registry base with `k` forced retries.
fn assert_overhead_scales_its_own_base<T: Load>(k: u32) {
    let runs = elapsed::<T>(k);
    assert!(!runs.is_empty(), "{} binds costed entries", T::NAME);
    for (name, t, retries, base) in runs {
        assert_eq!(
            t,
            base * u64::from(1 + retries),
            "{name} with {k} forced retries must cost (1 + {retries}) × its registry base"
        );
    }
}

#[test]
fn each_otn_primitive_overhead_scales_its_own_base() {
    for k in [1u32, 3] {
        assert_overhead_scales_its_own_base::<Tree>(k);
    }
}

#[test]
fn each_otc_primitive_overhead_scales_its_own_base() {
    for k in [1u32, 3] {
        assert_overhead_scales_its_own_base::<Cycles>(k);
    }
}

/// k = 0: the only faulting round is the final (erased) attempt, so no
/// retry time is charged — every costed entry costs exactly its base.
#[test]
fn a_clean_run_charges_exactly_the_registry_base() {
    assert_overhead_scales_its_own_base::<Tree>(0);
    assert_overhead_scales_its_own_base::<Cycles>(0);
}

/// `LEAFTOROOT`'s overhead base is now `tree_leaf_to_root` — the *send*
/// form — instead of the broadcast form it used to cite. The fix is
/// intentionally value-preserving: relays insert no per-level gate delay
/// (§II.B), so the two closed forms coincide and every pre-fix golden
/// clock total stays bit-identical. This test pins the coincidence so a
/// future asymmetric delay convention re-derives both sides together.
#[test]
fn send_form_fix_is_value_preserving() {
    for leaves in [4usize, 16, 64, 256] {
        let m = CostModel::thompson(leaves);
        let pitch = m.leaf_pitch();
        assert_eq!(m.tree_leaf_to_root(leaves, pitch), m.tree_root_to_leaf(leaves, pitch));
    }
}

/// The registry pricing table itself: one closed form per cost kind, the
/// stream kinds appending `cycle_len − 1` pipelined cycle hops.
#[test]
fn each_cost_kind_is_pinned_to_its_closed_form() {
    let m = CostModel::thompson(16);
    let pitch = m.leaf_pitch();
    assert_eq!(m.primitive_cost(CostKind::Broadcast, 16, pitch, 1), m.tree_root_to_leaf(16, pitch));
    assert_eq!(m.primitive_cost(CostKind::Send, 16, pitch, 1), m.tree_leaf_to_root(16, pitch));
    assert_eq!(m.primitive_cost(CostKind::Aggregate, 16, pitch, 1), m.tree_aggregate(16, pitch));
    for cycle in [1usize, 2, 4, 8] {
        let tail = m.cycle_step() * (cycle as u64 - 1);
        assert_eq!(
            m.primitive_cost(CostKind::StreamBroadcast, 16, pitch, cycle),
            m.tree_root_to_leaf(16, pitch) + tail
        );
        assert_eq!(
            m.primitive_cost(CostKind::StreamSend, 16, pitch, cycle),
            m.tree_leaf_to_root(16, pitch) + tail
        );
        assert_eq!(
            m.primitive_cost(CostKind::StreamAggregate, 16, pitch, cycle),
            m.tree_aggregate(16, pitch) + tail
        );
        assert_eq!(m.primitive_cost(CostKind::CycleStep, 16, pitch, cycle), m.cycle_step());
    }
}
