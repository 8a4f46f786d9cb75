//! Word-level fault handling: detection, bounded retry, and graceful
//! degradation for the orthogonal-trees networks.
//!
//! The engine-level fault machinery (`orthotrees_sim::fault`) perturbs
//! individual bits on wires. At the register-transfer level the networks
//! here move whole words, so they consume the same deterministic
//! [`FaultPlan`] through a word-granular lens:
//!
//! * **Injection** — every word transit through a tree (one broadcast copy,
//!   one `LEAFTOROOT` word, one aggregate result, one stream position) may
//!   be dropped, hit by a single bit flip, or hit by a double bit flip,
//!   each drawn as a pure function of `(seed, site, round, attempt)`.
//! * **Detection** — each word carries a parity bit. A drop is caught by
//!   framing (a selected word was expected but never arrived); a single
//!   flip is caught by parity. A *double* flip balances the parity and
//!   passes undetected — the model's honest silent-corruption channel.
//! * **Recovery** — detected faults trigger a retransmission, up to the
//!   plan's retry budget; the extra rounds are charged to the simulated
//!   clock. A word still faulty after the last retry is delivered as an
//!   *erasure* (`NULL`), never as silently wrong data.
//! * **Degradation** — a dead internal processor severs its whole subtree
//!   of leaves. If its sibling subtree is intact the traffic reroutes
//!   through it at a lateral-crossing time penalty; otherwise the leaves go
//!   *dark* and are reported in the [`FaultReport`] instead of aborting the
//!   run.

use crate::otn::Axis;
use crate::word::Word;
use orthotrees_vlsi::log2_ceil;

pub use orthotrees_sim::fault::{DeadIp, FaultPlan, FaultStats, TreeAxis, WordFaultKind};

/// The sentinel leaf index used for whole-tree transit sites (one word per
/// tree: `LEAFTOROOT`, aggregates).
pub(crate) const TREE_SITE: usize = usize::MAX;

/// Injectively encodes a fault site from tree coordinates.
pub(crate) fn site(axis: Axis, tree: usize, leaf: usize) -> u64 {
    let a = match axis {
        Axis::Rows => 0u64,
        Axis::Cols => 1u64,
    };
    (a << 61) | ((tree as u64 & 0x1FFF_FFFF) << 32) | (leaf as u64 & 0xFFFF_FFFF)
}

/// A leaf severed from one of its trees by an unrecoverable dead IP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DarkLeaf {
    /// Tree family the leaf was cut from.
    pub axis: Axis,
    /// Tree index within the family.
    pub tree: usize,
    /// Leaf index within the tree.
    pub leaf: usize,
}

/// What graceful degradation decided for each dead internal processor of an
/// installed plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Dead IPs whose subtree traffic was rerouted through the live sibling
    /// subtree (the subtree stays reachable, at a time penalty).
    pub rerouted: Vec<DeadIp>,
    /// Leaves with no surviving path to their tree root. They are excluded
    /// from every primitive on that axis — reported, not fatal.
    pub dark: Vec<DarkLeaf>,
}

impl FaultReport {
    /// Whether `leaf` of `tree` along `axis` is dark.
    pub fn is_dark(&self, axis: Axis, tree: usize, leaf: usize) -> bool {
        self.dark.iter().any(|d| d.axis == axis && d.tree == tree && d.leaf == leaf)
    }
}

/// Per-network fault state: the plan, its running counters, the degradation
/// verdicts, and the transit round counter that keys the deterministic
/// draws.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    pub stats: FaultStats,
    pub report: FaultReport,
    /// Dark-leaf membership as dense masks `[tree][leaf]`, one per axis,
    /// so a leaf cut off by several dead IPs is reported once. The
    /// executors read dark leaves from one bitset per axis built at
    /// install time (`WordNet::install_fault_plan`).
    dark_rows: Vec<Vec<bool>>,
    dark_cols: Vec<Vec<bool>>,
    /// Largest rerouted subtree span per axis (0 = no reroute): the worst
    /// lateral crossing a primitive on that axis must absorb.
    pub reroute_span: [usize; 2],
    /// Transit round counter, bumped once per faultable primitive.
    round: u64,
}

impl FaultState {
    /// Builds the state for a network whose row trees have `row_leaves`
    /// leaves each (and `row_trees` of them), ditto columns.
    pub fn new(
        plan: FaultPlan,
        row_trees: usize,
        row_leaves: usize,
        col_trees: usize,
        col_leaves: usize,
    ) -> Self {
        let mut state = FaultState {
            plan,
            stats: FaultStats::default(),
            report: FaultReport::default(),
            dark_rows: vec![vec![false; row_leaves]; row_trees],
            dark_cols: vec![vec![false; col_leaves]; col_trees],
            reroute_span: [0, 0],
            round: 0,
        };
        state.resolve_dead_ips();
        state
    }

    /// Classifies every declared dead IP as rerouted or subtree-darkening.
    fn resolve_dead_ips(&mut self) {
        let dead = self.plan.dead_ips().to_vec();
        for ip in &dead {
            let axis = match ip.axis {
                TreeAxis::Rows => Axis::Rows,
                TreeAxis::Cols => Axis::Cols,
            };
            let (masks, ax) = match axis {
                Axis::Rows => (&mut self.dark_rows, 0),
                Axis::Cols => (&mut self.dark_cols, 1),
            };
            if ip.tree >= masks.len() {
                continue; // IP outside this network's trees: inert
            }
            let leaves = masks[ip.tree].len();
            let levels = log2_ceil(leaves as u64);
            if ip.level > levels || leaves == 0 {
                continue; // IP above the root: inert
            }
            let span = 1usize << ip.level;
            let lo = ip.index.saturating_mul(span);
            if lo >= leaves {
                continue; // IP outside the tree: inert
            }
            let nodes_at_level = (leaves >> ip.level).max(1);
            let sibling = ip.index ^ 1;
            let sibling_alive = nodes_at_level > 1
                && !dead.iter().any(|d| {
                    d.axis == ip.axis
                        && d.tree == ip.tree
                        && d.level == ip.level
                        && d.index == sibling
                });
            if sibling_alive {
                self.report.rerouted.push(*ip);
                self.reroute_span[ax] = self.reroute_span[ax].max(span);
            } else {
                let hi = (lo + span).min(leaves);
                for (off, dark) in masks[ip.tree][lo..hi].iter_mut().enumerate() {
                    if !*dark {
                        *dark = true;
                        self.report.dark.push(DarkLeaf { axis, tree: ip.tree, leaf: lo + off });
                    }
                }
            }
        }
    }

    /// Starts a new transit round (call once per faultable primitive).
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// The current transit-round cursor (checkpointed so a restored run
    /// replays the same deterministic fault draws).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Overwrites the transit-round cursor (checkpoint restore, or an
    /// epoch bump so a retry sees fresh draws instead of the same
    /// transient).
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Passes `value` through one faulty word transit at `site`. Returns
    /// the delivered value and the number of *extra* attempts spent
    /// (0 = clean first try). Parity-detected faults are retried up to the
    /// plan's budget; exhaustion delivers an erasure (`NULL`); a
    /// parity-evading double flip delivers corrupted data.
    pub fn transit(
        &mut self,
        site: u64,
        value: Option<Word>,
        word_bits: u32,
    ) -> (Option<Word>, u32) {
        if value.is_none() || self.plan.word_fault_rate() <= 0.0 {
            return (value, 0); // NULL carries no payload to corrupt
        }
        let width = u64::from(word_bits.max(2));
        let retries = self.plan.max_retries();
        for attempt in 0..=retries {
            match self.plan.word_fault(site, self.round, attempt) {
                None => {
                    if attempt > 0 {
                        self.stats.corrected += 1;
                        self.stats.retries += u64::from(attempt);
                    }
                    return (value, attempt);
                }
                Some(WordFaultKind::Drop) | Some(WordFaultKind::SingleFlip { .. }) => {
                    // Framing (drop) or parity (single flip) catches it;
                    // the round is retransmitted.
                    self.stats.injected += 1;
                    self.stats.detected += 1;
                }
                Some(WordFaultKind::DoubleFlip { bit_a, bit_b }) => {
                    // Even flip count: parity balances, corruption sails
                    // through as good data.
                    self.stats.injected += 1;
                    self.stats.silent += 1;
                    if attempt > 0 {
                        self.stats.retries += u64::from(attempt);
                    }
                    let a = u64::from(bit_a) % width;
                    let mut b = u64::from(bit_b) % width;
                    if b == a {
                        b = (b + 1) % width;
                    }
                    let corrupted = value.map(|w| w ^ (1 << a) ^ (1 << b));
                    return (corrupted, attempt);
                }
            }
        }
        self.stats.retries += u64::from(retries);
        self.stats.erasures += 1;
        (None, retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_transits_untouched() {
        let mut fs = FaultState::new(FaultPlan::new(1), 4, 4, 4, 4);
        for s in 0..100 {
            assert_eq!(fs.transit(s, Some(42), 8), (Some(42), 0));
        }
        assert_eq!(fs.stats, FaultStats::default());
        assert!(fs.report.rerouted.is_empty() && fs.report.dark.is_empty());
    }

    #[test]
    fn null_words_never_fault() {
        let mut fs = FaultState::new(FaultPlan::new(1).with_word_fault_rate(1.0), 4, 4, 4, 4);
        assert_eq!(fs.transit(0, None, 8), (None, 0));
        assert_eq!(fs.stats.injected, 0);
    }

    #[test]
    fn always_faulting_plan_erases_or_corrupts() {
        let mut fs = FaultState::new(
            FaultPlan::new(5).with_word_fault_rate(1.0).with_max_retries(2),
            4,
            4,
            4,
            4,
        );
        let mut erased = 0;
        let mut corrupted = 0;
        for s in 0..200 {
            fs.next_round();
            let (v, _) = fs.transit(s, Some(1000), 12);
            match v {
                None => erased += 1,
                Some(w) => {
                    assert_ne!(w, 1000, "rate 1.0 never delivers the clean word");
                    corrupted += 1;
                }
            }
        }
        assert!(erased > 0 && corrupted > 0, "{erased}/{corrupted}");
        assert_eq!(fs.stats.erasures, erased);
        assert_eq!(fs.stats.silent, corrupted);
        assert!(fs.stats.retries > 0);
    }

    #[test]
    fn moderate_rate_mostly_corrects() {
        let mut fs = FaultState::new(FaultPlan::new(9).with_word_fault_rate(0.3), 8, 8, 8, 8);
        for s in 0..500 {
            fs.next_round();
            let _ = fs.transit(s, Some(7), 8);
        }
        assert!(fs.stats.detected > 0);
        assert!(
            fs.stats.corrected > fs.stats.erasures,
            "retries should repair most detected faults: {:?}",
            fs.stats
        );
    }

    #[test]
    fn double_flip_changes_exactly_two_bits() {
        let mut fs = FaultState::new(
            FaultPlan::new(3)
                .with_word_fault_rate(1.0)
                .with_drop_fraction(0.0)
                .with_undetectable_fraction(1.0),
            4,
            4,
            4,
            4,
        );
        for s in 0..50 {
            fs.next_round();
            let (v, att) = fs.transit(s, Some(0), 10);
            assert_eq!(att, 0, "undetected faults are not retried");
            let delivered = v.expect("double flips never erase");
            assert_eq!(delivered.count_ones(), 2, "exactly two bits flipped");
            assert!(delivered < (1 << 10), "flips stay inside the word width");
        }
    }

    #[test]
    fn dead_ip_with_live_sibling_reroutes() {
        let plan = FaultPlan::new(0).with_dead_ip(TreeAxis::Rows, 2, 1, 0);
        let fs = FaultState::new(plan, 8, 8, 8, 8);
        assert_eq!(fs.report.rerouted.len(), 1);
        assert!(fs.report.dark.is_empty());
        assert_eq!(fs.reroute_span[0], 2);
        assert!(!fs.report.is_dark(Axis::Rows, 2, 0));
    }

    #[test]
    fn dead_sibling_pair_darkens_both_subtrees() {
        let plan = FaultPlan::new(0).with_dead_ip(TreeAxis::Cols, 1, 2, 0).with_dead_ip(
            TreeAxis::Cols,
            1,
            2,
            1,
        );
        let fs = FaultState::new(plan, 8, 8, 8, 8);
        assert!(fs.report.rerouted.is_empty());
        assert_eq!(fs.report.dark.len(), 8, "both 4-leaf subtrees dark");
        for leaf in 0..8 {
            assert!(fs.report.is_dark(Axis::Cols, 1, leaf));
            assert!(!fs.report.is_dark(Axis::Cols, 2, leaf), "other trees unaffected");
        }
    }

    #[test]
    fn dead_tree_root_darkens_the_whole_tree() {
        // Level log2(leaves) is the root: no sibling inside the tree.
        let plan = FaultPlan::new(0).with_dead_ip(TreeAxis::Rows, 0, 3, 0);
        let fs = FaultState::new(plan, 4, 8, 4, 8);
        assert_eq!(fs.report.dark.len(), 8);
        assert!((0..8).all(|l| fs.report.is_dark(Axis::Rows, 0, l)));
    }

    #[test]
    fn out_of_range_dead_ips_are_inert() {
        let plan = FaultPlan::new(0)
            .with_dead_ip(TreeAxis::Rows, 99, 1, 0)
            .with_dead_ip(TreeAxis::Rows, 0, 30, 0)
            .with_dead_ip(TreeAxis::Rows, 0, 1, 99);
        let fs = FaultState::new(plan, 4, 4, 4, 4);
        assert!(fs.report.rerouted.is_empty() && fs.report.dark.is_empty());
    }

    #[test]
    fn site_encoding_is_injective_across_axes() {
        assert_ne!(site(Axis::Rows, 1, 2), site(Axis::Cols, 1, 2));
        assert_ne!(site(Axis::Rows, 1, 2), site(Axis::Rows, 2, 1));
        assert_ne!(site(Axis::Rows, 1, TREE_SITE), site(Axis::Rows, 1, 0));
    }
}
