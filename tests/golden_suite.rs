//! Golden outputs of the word-level algorithms, pinned against values
//! recorded before the register planes and selection masks changed layout.
//!
//! Each SORT case runs on a fresh net with a reach-tracing recorder and
//! records the outcome, simulated time and operation counts, the fault
//! counters, every reach event and the full checkpoint text. The faulty
//! cases install a dense word-fault plan plus dead IPs: sibling pairs that
//! darken whole subtrees on both axes and a lone dead IP that reroutes.
//! The graph cases (CC and MST on both networks) build their nets
//! internally, so they pin the outcome, time and counts. Long values are
//! pinned as FNV-1a digests of their `Debug` text.

use orthotrees::obs::Recorder;
use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Otn};
use orthotrees::wordnet::{Topology, WordNet};
use orthotrees::{FaultPlan, TreeAxis};
use orthotrees_analysis::workloads;

/// FNV-1a over the bytes of `text`.
fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The faulty plan: word faults at rate 0.2 with two retries, row tree 3
/// dark below its level-2 pair (leaves 0..8), column tree 5 dark below its
/// level-1 pair 2/3 (leaves 4..8), and column tree 9 rerouted around one
/// level-3 IP.
fn dense_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_word_fault_rate(0.2)
        .with_max_retries(2)
        .with_dead_ip(TreeAxis::Rows, 3, 2, 0)
        .with_dead_ip(TreeAxis::Rows, 3, 2, 1)
        .with_dead_ip(TreeAxis::Cols, 5, 1, 2)
        .with_dead_ip(TreeAxis::Cols, 5, 1, 3)
        .with_dead_ip(TreeAxis::Cols, 9, 3, 1)
}

/// One SORT run's pinned figures.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// Simulated time of the sort.
    time: u64,
    /// Digest of `(sorted, missing)`.
    outcome: u64,
    /// Digest of the operation counts.
    stats: u64,
    /// Digest of the fault counters.
    faults: u64,
    /// Reach events recorded.
    reach: usize,
    /// Digest of the reach events.
    reach_digest: u64,
    /// Digest of `checkpoint_text()` after the sort.
    checkpoint: u64,
}

fn pin<T: Topology>(
    net: &mut WordNet<T>,
    run: impl FnOnce(&mut WordNet<T>) -> otn::sort::SortOutcome,
) -> Pinned {
    let mut rec = Recorder::new();
    rec.enable_reach();
    net.install_recorder(rec);
    let out = run(net);
    let rec = net.take_recorder().expect("recorder installed");
    Pinned {
        time: out.time.get(),
        outcome: digest(&format!("{:?}", (&out.sorted, &out.missing))),
        stats: digest(&format!("{:?}", out.stats)),
        faults: digest(&format!("{:?}", net.fault_stats())),
        reach: rec.reach_events().len(),
        reach_digest: digest(&format!("{:?}", rec.reach_events())),
        checkpoint: digest(&net.checkpoint_text()),
    }
}

fn sort_otn(n: usize, plan: Option<FaultPlan>) -> Pinned {
    let xs = workloads::duplicated_words(n, 11);
    let mut net = Otn::for_sorting(n).unwrap();
    if let Some(plan) = plan {
        let report = net.install_fault_plan(plan);
        assert!(!report.dark.is_empty() && !report.rerouted.is_empty());
    }
    pin(&mut net, |net| otn::sort::sort(net, &xs).unwrap())
}

fn sort_otc(n: usize, plan: Option<FaultPlan>) -> Pinned {
    let xs = workloads::duplicated_words(n, 11);
    let mut net = Otc::for_sorting(n).unwrap();
    if let Some(plan) = plan {
        let report = net.install_fault_plan(plan);
        assert!(!report.dark.is_empty() && !report.rerouted.is_empty());
    }
    pin(&mut net, |net| otc::sort::sort(net, &xs).unwrap())
}

/// Each case's figures, recorded before the layout change.
const PINNED_SORTS: [(&str, Pinned); 4] = [
    (
        "otn clean",
        Pinned {
            time: 318,
            outcome: 0x6dae_72bd_d1f6_0833,
            stats: 0x7f32_d85f_59f5_a4b0,
            faults: 0x6051_2c8d_0d57_98b8,
            reach: 14432,
            reach_digest: 0xc605_0641_84fe_c13b,
            checkpoint: 0x91dc_6008_94ca_5457,
        },
    ),
    (
        "otn faulty",
        Pinned {
            time: 1078,
            outcome: 0xb357_1531_0bf0_b7ae,
            stats: 0x7f32_d85f_59f5_a4b0,
            faults: 0x2f4f_94dd_337d_a23e,
            reach: 14330,
            reach_digest: 0xa008_1a95_8403_ca0d,
            checkpoint: 0x8a04_ed00_ff91_6647,
        },
    ),
    (
        "otc clean",
        Pinned {
            time: 375,
            outcome: 0x6dae_72bd_d1f6_0833,
            stats: 0xa416_1c16_307a_60ed,
            faults: 0x6051_2c8d_0d57_98b8,
            reach: 5192,
            reach_digest: 0x7193_5d85_ae52_d862,
            checkpoint: 0xfed2_61b0_e033_1c44,
        },
    ),
    (
        "otc faulty",
        Pinned {
            time: 1116,
            outcome: 0x664c_37e0_5329_4039,
            stats: 0xa416_1c16_307a_60ed,
            faults: 0x972b_acf1_044d_b267,
            reach: 5160,
            reach_digest: 0x9cab_198d_0421_9427,
            checkpoint: 0x82f4_2f57_4412_bf44,
        },
    ),
];

#[test]
fn sort_runs_match_their_pinned_outputs() {
    let got = [
        ("otn clean", sort_otn(64, None)),
        ("otn faulty", sort_otn(64, Some(dense_plan(5)))),
        ("otc clean", sort_otc(64, None)),
        ("otc faulty", sort_otc(64, Some(dense_plan(5)))),
    ];
    assert_eq!(got, PINNED_SORTS);
}

#[test]
fn graph_runs_match_their_pinned_outputs() {
    let adj = workloads::gnp_adjacency(16, 0.15, 3);
    let weights = workloads::random_weights(16, 0.3, 50, 4);
    let otn_cc = otn::graph::cc::connected_components(&adj).unwrap();
    let otc_cc = otc::cc::connected_components(&adj).unwrap();
    let otn_mst = otn::graph::mst::minimum_spanning_tree(&weights).unwrap();
    let otc_mst = otc::mst::minimum_spanning_tree(&weights).unwrap();
    // (case, simulated time, digest of the full outcome's Debug text)
    let got = [
        ("otn cc", otn_cc.time.get(), digest(&format!("{otn_cc:?}"))),
        ("otc cc", otc_cc.time.get(), digest(&format!("{otc_cc:?}"))),
        ("otn mst", otn_mst.time.get(), digest(&format!("{otn_mst:?}"))),
        ("otc mst", otc_mst.time.get(), digest(&format!("{otc_mst:?}"))),
    ];
    let want = [
        ("otn cc", 4314, 0x8328_6676_d499_fc02),
        ("otc cc", 6879, 0x76b0_118a_b574_a36d),
        ("otn mst", 7133, 0xcbf8_e3df_ab6e_0dc4),
        ("otc mst", 14784, 0xa73a_2570_2b2d_0d93),
    ];
    assert_eq!(got, want);
}
