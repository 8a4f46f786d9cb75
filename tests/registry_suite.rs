//! Registry ↔ observability coverage: every span name the [`Recorder`]
//! sees while the full primitive repertoire runs must be an entry of
//! [`orthotrees::primitive::REGISTRY`] for that network, and every
//! registry entry claiming the network must actually be seen. Either
//! direction failing means a layer drifted from the descriptor table —
//! a renamed span, a primitive added without a registry entry, or a
//! registry entry nothing implements.

use std::collections::BTreeSet;

use orthotrees::obs::Recorder;
use orthotrees::otc;
use orthotrees::otn::{self, prefix, Axis, PhaseCost};
use orthotrees::primitive::{self, Network};
use orthotrees::wordnet::{Cycles, Tree, WordNet};
use orthotrees::{FaultPlan, Word};
use orthotrees_sim::experiments;

#[path = "support/repertoire.rs"]
mod repertoire;
use repertoire::Load;

/// Every distinct span name a recorder saw (phases aggregate by name).
fn span_names(rec: &Recorder) -> BTreeSet<String> {
    rec.phase_totals().iter().map(|p| p.name.clone()).collect()
}

/// Registry names claiming membership in a network.
fn registry_names(on: impl Fn(Network) -> bool) -> BTreeSet<String> {
    primitive::REGISTRY.iter().filter(|s| on(s.network)).map(|s| s.name.to_string()).collect()
}

/// A plan whose every word transit faults detectably, so one retry round
/// is charged and the `FAULT-OVERHEAD` span must appear.
fn always_faulting() -> FaultPlan {
    FaultPlan::new(9).with_word_fault_rate(1.0).with_undetectable_fraction(0.0).with_max_retries(1)
}

/// Runs the repertoire (every registry entry bound on `T`, both axes, and
/// the compute phases) on a recorded net, then `rest` (what the
/// repertoire does not cover), then the repertoire again under `always_faulting` so the retry
/// rounds charge `FAULT-OVERHEAD`; returns all span names seen.
fn spans_seen<T: Load>(rest: impl FnOnce(&mut WordNet<T>)) -> BTreeSet<String> {
    let mut net = repertoire::run::<T>(16, |net: &mut WordNet<T>| {
        net.install_recorder(Recorder::new());
    });
    rest(&mut net);
    net.install_fault_plan(always_faulting());
    let regs = repertoire::load(&mut net);
    repertoire::invoke_all(&mut net, regs);
    span_names(&net.take_recorder().unwrap())
}

/// The OTN's spans: the repertoire plus `PAIRWISE`, the root phase and
/// the SCAN/ROUTE/SORT-OTN procedures.
fn otn_spans() -> BTreeSet<String> {
    spans_seen::<Tree>(|net| {
        let n = net.rows();
        let [a, b] = repertoire::load(net);
        net.pairwise(Axis::Rows, 1, a, PhaseCost::Bit, |_, _, x, y| (y, x));
        net.root_phase(Axis::Rows, PhaseCost::Bit, |_, _| {});
        let xs: Vec<Word> = (0..n as Word).rev().collect();
        otn::sort::sort(net, &xs).unwrap();
        net.prefix_sum_rows(a, b);
        let keep: Vec<bool> = (0..n).map(|j| j % 2 == 0).collect();
        prefix::compact_on(net, &xs, &keep).unwrap();
    })
}

/// The OTC's spans: the repertoire plus SORT-OTC.
fn otc_spans() -> BTreeSet<String> {
    spans_seen::<Cycles>(|net| {
        let xs: Vec<Word> = (0..16).rev().collect();
        otc::sort::sort(net, &xs).unwrap();
    })
}

#[test]
fn otn_spans_and_registry_entries_coincide() {
    let seen = otn_spans();
    let expected = registry_names(Network::on_otn);
    let unregistered: Vec<&String> = seen.difference(&expected).collect();
    assert!(
        unregistered.is_empty(),
        "spans recorded on the OTN with no registry entry claiming Network::Otn: {unregistered:?}"
    );
    let unexercised: Vec<&String> = expected.difference(&seen).collect();
    assert!(
        unexercised.is_empty(),
        "registry entries claiming Network::Otn that no primitive recorded: {unexercised:?}"
    );
}

#[test]
fn otc_spans_and_registry_entries_coincide() {
    let seen = otc_spans();
    let expected = registry_names(Network::on_otc);
    let unregistered: Vec<&String> = seen.difference(&expected).collect();
    assert!(
        unregistered.is_empty(),
        "spans recorded on the OTC with no registry entry claiming Network::Otc: {unregistered:?}"
    );
    let unexercised: Vec<&String> = expected.difference(&seen).collect();
    assert!(
        unexercised.is_empty(),
        "registry entries claiming Network::Otc that no primitive recorded: {unexercised:?}"
    );
}

#[test]
fn experiment_metrics_name_registry_primitives() {
    for &(metric, prim) in experiments::PAPER_PRIMITIVES {
        assert!(
            primitive::lookup(prim).is_some(),
            "experiment metric {metric:?} cites {prim:?}, which is not a registry entry"
        );
    }
}

#[test]
fn every_span_seen_is_network_appropriate() {
    for name in otn_spans() {
        let spec = primitive::lookup(&name).unwrap();
        assert!(spec.network.on_otn(), "{name} recorded on the OTN but registered for OTC only");
    }
    for name in otc_spans() {
        let spec = primitive::lookup(&name).unwrap();
        assert!(spec.network.on_otc(), "{name} recorded on the OTC but registered for OTN only");
    }
}
