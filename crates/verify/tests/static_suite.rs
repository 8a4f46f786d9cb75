//! Integration suite for the static verifier: the paper's stock
//! configurations must lint clean for arbitrary drawn sizes, every class
//! of netlist corruption must be caught by its exact rule id, and running
//! the verifier must not perturb simulation results.

use orthotrees::otc::Otc;
use orthotrees::otn::Otn;
use orthotrees_sim::RunRecord;
use orthotrees_verify::determinism::{check_commutes, fan_in, FirstWins};
use orthotrees_verify::mutate::{self, Mutation};
use orthotrees_verify::net::{lint_structure, lint_tree, tree_netlist, DegreeBounds, TreeShape};
use orthotrees_verify::schedule::{
    aggregate_schedule, broadcast_schedule, lint_against_model, lint_budget, lint_conflicts,
    stream_schedule,
};
use orthotrees_verify::{determinism, words, Report};
use orthotrees_vlsi::{tree::level_wire_lengths, CostModel, DelayModel};
use proptest::prelude::*;

/// Everything `netlint` checks about one tree size under one model,
/// collected into a report.
fn lint_tree_config(leaves: usize, m: &CostModel) -> Report {
    let mut report = Report::new();
    let pitch = m.leaf_pitch();
    for downward in [true, false] {
        let net = tree_netlist(format!("tree[{leaves}]"), leaves, pitch, downward);
        report.extend(lint_structure(&net, DegreeBounds::default()));
        report.extend(lint_tree(&net, TreeShape { leaves, pitch, downward }));
    }
    let levels = level_wire_lengths(leaves, pitch);
    let b = broadcast_schedule(&levels, m.word_bits, m.delay);
    report.extend(lint_conflicts("t", &b));
    report.extend(lint_budget("t", &b, leaves, m.word_bits, m.delay));
    report.extend(lint_against_model("t", &b, m.tree_root_to_leaf(leaves, pitch)));
    let a = aggregate_schedule(&levels, m.word_bits, m.delay);
    report.extend(lint_conflicts("t", &a));
    report.extend(lint_against_model("t", &a, m.tree_aggregate(leaves, pitch)));
    let s = stream_schedule(&levels, m.word_bits, m.delay, 4, m.pipeline_interval().get());
    report.extend(lint_conflicts("t", &s));
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every paper-claims sorting size (16..1024) lints clean at the word
    /// level and as a tree netlist, under every delay model.
    #[test]
    fn paper_sort_configs_are_netlint_clean(k in 4u32..=10) {
        let n = 1usize << k;
        let otn = Otn::for_sorting(n).unwrap();
        prop_assert!(words::lint_otn(&otn).is_empty());
        let otc = Otc::for_sorting(n).unwrap();
        prop_assert!(words::lint_otc(&otc).is_empty());
        for m in [
            CostModel::thompson(n),
            CostModel::constant_delay(n),
            CostModel::linear_delay(n),
        ] {
            let report = lint_tree_config(n, &m);
            prop_assert!(report.is_clean(), "n={}: {}", n, report.render_text());
        }
    }

    /// The graph/matmul configurations (rectangular OTNs included) lint
    /// clean too.
    #[test]
    fn paper_graph_and_matmul_configs_are_netlint_clean(k in 3u32..=6) {
        let n = 1usize << k;
        prop_assert!(words::lint_otn(&Otn::for_graphs(n).unwrap()).is_empty());
        prop_assert!(words::lint_otn(&Otn::wide(n, n * n).unwrap()).is_empty());
    }

    /// The mutation matrix holds at every tree size: each corruption class
    /// is detected, and detected by its *exact* stable rule id.
    #[test]
    fn mutation_matrix_is_exact(k in 2u32..=8) {
        let leaves = 1usize << k;
        let pitch = CostModel::thompson(leaves).leaf_pitch();
        for (m, report) in mutate::matrix(leaves, pitch) {
            prop_assert!(
                report.has(m.expected_rule()),
                "{:?} at {} leaves missed {}: {}",
                m, leaves, m.expected_rule(), report.render_text()
            );
        }
    }
}

/// ISSUE acceptance: at least four corruption classes, each with a stable,
/// distinct rule id.
#[test]
fn mutation_classes_cover_the_required_matrix() {
    assert!(Mutation::ALL.len() >= 4);
    let ids: std::collections::BTreeSet<_> =
        Mutation::ALL.iter().map(|m| m.expected_rule()).collect();
    assert_eq!(ids.len(), Mutation::ALL.len(), "expected rules must be distinct");
    // The ids are stable: spelled out here so renaming one breaks loudly.
    let expected: std::collections::BTreeSet<_> =
        ["TREE-002", "NET-001", "TREE-001", "TREE-003", "NET-005", "NET-002", "NET-004", "NET-003"]
            .into();
    assert_eq!(ids, expected);
}

/// Every rule in the committed catalogue has a firing fixture — no rule
/// id can be registered without a corruption that provably triggers it.
#[test]
fn every_rule_has_a_firing_fixture() {
    for rule in orthotrees_verify::RULES {
        let report = orthotrees_verify::fixtures::firing_fixture(rule.id);
        assert!(report.has(rule.id), "{}: {}", rule.id, report.render_text());
    }
}

/// Layout passes: constructed area matches the closed form and nothing
/// overlaps, for every size the geometric construction is run at.
#[test]
fn stock_layouts_are_clean() {
    for n in [2usize, 4, 8, 16] {
        let word = orthotrees_vlsi::log2_ceil((n * n) as u64).max(1);
        let f = words::lint_layout(n, word);
        assert!(f.is_empty(), "n={n}: {f:?}");
    }
}

/// The stock determinism sweep finds nothing; a first-wins latch is
/// caught. Together these pin DET-001's false-positive and false-negative
/// behaviour.
#[test]
fn determinism_checker_is_calibrated() {
    assert!(determinism::stock_findings().is_empty());
    let f = check_commutes("first-wins", |lifo| {
        fan_in(DelayModel::Logarithmic, 4, 8, Box::new(FirstWins::new()), lifo)
    });
    assert!(f.iter().any(|f| f.rule == "DET-001"));
}

/// Bit-identity: attaching the verifier to an engine (snapshotting its
/// netlist and linting it) must not change the simulation at all —
/// completion time, per-node results and event log are identical to a
/// verifier-free run of the same network.
#[test]
fn verification_does_not_perturb_simulation() {
    use orthotrees_verify::net::Netlist;

    let build = || {
        fan_in(
            DelayModel::Logarithmic,
            4,
            8,
            Box::new(FirstWins::new()), // any behaviour; both runs share it
            false,
        )
    };

    // Run A: plain simulation.
    let mut plain = build();
    let t_plain = plain.run();

    // Run B: verifier enabled — snapshot and lint before running.
    let mut verified = build();
    let net = Netlist::from_engine("fan-in", &verified);
    let _findings =
        lint_structure(&net, DegreeBounds { max_ports_per_node: 5, max_fanout_per_port: 1 });
    let t_verified = verified.run();

    assert_eq!(t_plain, t_verified);
    assert_eq!(RunRecord::of(&plain), RunRecord::of(&verified));
}
