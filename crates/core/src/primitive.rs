//! The primitive-descriptor registry: one source of truth for every paper
//! primitive.
//!
//! The paper defines each network operation as an instance of a handful of
//! tree-primitive shapes (§II.B, §V.B). Before this module existed the
//! codebase re-stated each primitive's identity five times — the executor
//! bodies in [`otn`](crate::otn) / [`otc`](crate::otc), the closed forms in
//! `orthotrees_vlsi::cost`, the span names seen by the
//! [`Recorder`](orthotrees_obs::Recorder), the per-level segments in
//! `core::attribution`, and the expectation tables in `orthotrees-verify` —
//! so they could silently drift (the historical example: `Otn::leaf_to_root`
//! charged its fault-overhead base from the *broadcast* closed form).
//!
//! [`REGISTRY`] collapses those restatements into one declarative table of
//! [`PrimitiveSpec`]s. Each layer derives from it:
//!
//! * the executors look up their span name, combine [`Monoid`] and
//!   [`CostKind`] via [`spec_for`] and route through one shared
//!   gather → fault-round → transit → charge scaffold;
//! * [`CostModel::primitive_cost`](orthotrees_vlsi::CostModel::primitive_cost)
//!   maps the cost kind to its closed form, pricing both the clock charge
//!   and the fault-overhead base from the same place;
//! * attribution picks its per-level segment shape from the cost kind;
//! * `verify`'s SCHED-/CRIT-/PRIM- rules and the registry-coverage tests
//!   enumerate the table instead of hand-written lists.
//!
//! The table also makes per-tree data independence explicit. Every
//! executor first fills a reusable bitset selection mask from its selector
//! (a built-in [`Sel`](crate::Sel) shape a word at a time, a `bool`
//! closure cell by cell), then moves words in memory order;
//! [`ParallelPolicy::Threads`] fills a closure's read-only mask over scoped
//! threads, one band of mask words per worker, while every write, fault
//! transit and clock charge stays on the calling thread — so the parallel
//! run is bit- and clock-identical to the sequential one by construction
//! (and property tests assert it).

use crate::Word;
use orthotrees_vlsi::CostKind;

/// Which network family implements a primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Network {
    /// Orthogonal trees network only ([`crate::otn::Otn`]).
    Otn,
    /// Orthogonal tree cycles only ([`crate::otc::Otc`]).
    Otc,
    /// Both networks (shared phases such as `BP-PHASE`, `FAULT-OVERHEAD`).
    Both,
}

impl Network {
    /// Whether the primitive exists on the OTN.
    pub fn on_otn(self) -> bool {
        matches!(self, Network::Otn | Network::Both)
    }

    /// Whether the primitive exists on the OTC.
    pub fn on_otc(self) -> bool {
        matches!(self, Network::Otc | Network::Both)
    }
}

/// What kind of operation a registry entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A single tree/cycle traversal priced by one [`CostKind`] closed form.
    Communication,
    /// A two-leg composite of communication primitives (`LEAFTOLEAF`,
    /// `CYCLETOCYCLE`, …); opens an enclosing span, charges nothing itself.
    Composite,
    /// A pure local compute phase at the BPs / roots / cycle processors.
    Compute,
    /// A multi-primitive procedure span (`SORT-OTN`, `SCAN`, …) whose cost
    /// is the sum of the primitives it invokes.
    Procedure,
    /// The fault-retry overhead span charged by the resilience layer.
    Overhead,
}

/// The communication shape of a primitive (paper §II.B / §V.B vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Root-to-leaf word movement.
    Broadcast,
    /// Leaf-to-root relay of a single selected word.
    Send,
    /// Leaf-to-root combining ascent.
    Aggregate,
    /// An OTC traversal pipelining one word per cycle position behind a
    /// single tree traversal.
    Stream,
    /// One hop of an OTC cycle rotation.
    Circulate,
}

/// The combine monoid of an upward primitive — how the per-leaf (or
/// per-position) contributions fold into the root word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monoid {
    /// Exactly one leaf is selected and its word is relayed verbatim;
    /// selecting two is a contention violation (the executor panics unless
    /// the net is running degraded under a fault plan).
    First,
    /// Count of selected leaves (the folded words are ignored).
    Count,
    /// Sum of selected words, `NULL` counting as zero; an empty selection
    /// sums to `Some(0)`.
    Sum,
    /// Minimum over selected non-`NULL` words; `None` when none.
    Min,
    /// Maximum over selected non-`NULL` words; `None` when none.
    Max,
}

/// The result-width rule of a primitive (paper §II.B: "all numbers being
/// used are O(log N) bits long"; SUM/COUNT widen by `log C`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultWidth {
    /// The result is a plain `w`-bit word.
    Word,
    /// The result widens to `w + log₂(leaves)` bits (SUM/COUNT). Note the
    /// cost model charges the widened tail for *every* aggregate as a safe
    /// symmetric upper bound — see
    /// [`CostModel::tree_aggregate`](orthotrees_vlsi::CostModel::tree_aggregate).
    Widened,
    /// The entry produces no word of its own (compute phases, procedures,
    /// the overhead span).
    None,
}

/// One paper primitive, declared once.
///
/// `name` doubles as the [`Recorder`](orthotrees_obs::Recorder) span name —
/// the registry-coverage test asserts the bijection between span names seen
/// during a full sweep and registry entries, so a misspelled span cannot
/// survive.
#[derive(Clone, Copy, Debug)]
pub struct PrimitiveSpec {
    /// Canonical primitive / span name (e.g. `"SUM-LEAFTOROOT"`).
    pub name: &'static str,
    /// Which network(s) implement it.
    pub network: Network,
    /// Operation class.
    pub class: Class,
    /// Communication shape, for communication-class entries.
    pub direction: Option<Direction>,
    /// Combine monoid, for upward communication primitives.
    pub combine: Option<Monoid>,
    /// Result-width rule.
    pub result_width: ResultWidth,
    /// Cost kind — the single key both the clock charge and the
    /// fault-overhead base are priced from. `None` for composites (their
    /// legs charge), compute phases (priced by a
    /// [`PhaseCost`](crate::otn::PhaseCost)), procedures, `PAIRWISE`
    /// (distance-parameterised, priced in place) and `VECTORCIRCULATE`'s
    /// enclosing procedures.
    pub cost: Option<CostKind>,
    /// For composites: the `(upward, downward)` leg names, which must
    /// themselves be registry entries.
    pub composite_of: Option<(&'static str, &'static str)>,
}

/// Shorthand constructor for the registry table below.
const fn spec(name: &'static str, network: Network, class: Class) -> PrimitiveSpec {
    PrimitiveSpec {
        name,
        network,
        class,
        direction: None,
        combine: None,
        result_width: ResultWidth::None,
        cost: None,
        composite_of: None,
    }
}

/// A communication-class entry.
const fn comm(
    name: &'static str,
    network: Network,
    direction: Direction,
    combine: Option<Monoid>,
    result_width: ResultWidth,
    cost: CostKind,
) -> PrimitiveSpec {
    PrimitiveSpec {
        name,
        network,
        class: Class::Communication,
        direction: Some(direction),
        combine,
        result_width,
        cost: Some(cost),
        composite_of: None,
    }
}

/// A composite entry: `up` then `down`, both registry names.
const fn composite(
    name: &'static str,
    network: Network,
    result_width: ResultWidth,
    up: &'static str,
    down: &'static str,
) -> PrimitiveSpec {
    PrimitiveSpec {
        name,
        network,
        class: Class::Composite,
        direction: None,
        combine: None,
        result_width,
        cost: None,
        composite_of: Some((up, down)),
    }
}

/// The registry: every primitive, phase and procedure span of the paper
/// implementation, declared exactly once. Order groups OTN tree
/// primitives, OTN composites, OTC stream primitives, OTC composites,
/// compute phases, procedures, and the overhead span.
pub const REGISTRY: &[PrimitiveSpec] = &[
    // ---- OTN tree primitives (§II.B) ------------------------------------
    comm(
        "ROOTTOLEAF",
        Network::Otn,
        Direction::Broadcast,
        None,
        ResultWidth::Word,
        CostKind::Broadcast,
    ),
    comm(
        "LEAFTOROOT",
        Network::Otn,
        Direction::Send,
        Some(Monoid::First),
        ResultWidth::Word,
        CostKind::Send,
    ),
    comm(
        "COUNT-LEAFTOROOT",
        Network::Otn,
        Direction::Aggregate,
        Some(Monoid::Count),
        ResultWidth::Widened,
        CostKind::Aggregate,
    ),
    comm(
        "SUM-LEAFTOROOT",
        Network::Otn,
        Direction::Aggregate,
        Some(Monoid::Sum),
        ResultWidth::Widened,
        CostKind::Aggregate,
    ),
    comm(
        "MIN-LEAFTOROOT",
        Network::Otn,
        Direction::Aggregate,
        Some(Monoid::Min),
        ResultWidth::Word,
        CostKind::Aggregate,
    ),
    comm(
        "MAX-LEAFTOROOT",
        Network::Otn,
        Direction::Aggregate,
        Some(Monoid::Max),
        ResultWidth::Word,
        CostKind::Aggregate,
    ),
    // ---- OTN composites (§II.B composites 1–3) ---------------------------
    composite("LEAFTOLEAF", Network::Otn, ResultWidth::Word, "LEAFTOROOT", "ROOTTOLEAF"),
    composite(
        "COUNT-LEAFTOLEAF",
        Network::Otn,
        ResultWidth::Widened,
        "COUNT-LEAFTOROOT",
        "ROOTTOLEAF",
    ),
    composite("SUM-LEAFTOLEAF", Network::Otn, ResultWidth::Widened, "SUM-LEAFTOROOT", "ROOTTOLEAF"),
    composite("MIN-LEAFTOLEAF", Network::Otn, ResultWidth::Word, "MIN-LEAFTOROOT", "ROOTTOLEAF"),
    composite("MAX-LEAFTOLEAF", Network::Otn, ResultWidth::Word, "MAX-LEAFTOROOT", "ROOTTOLEAF"),
    // PAIRWISE is communication but distance-parameterised: its cost
    // depends on the exchange distance, so it is priced in place rather
    // than by a closed-form kind.
    spec("PAIRWISE", Network::Otn, Class::Communication),
    // ---- OTC stream primitives (§V.B) ------------------------------------
    comm(
        "VECTORCIRCULATE",
        Network::Otc,
        Direction::Circulate,
        None,
        ResultWidth::Word,
        CostKind::CycleStep,
    ),
    comm(
        "ROOTTOCYCLE",
        Network::Otc,
        Direction::Stream,
        None,
        ResultWidth::Word,
        CostKind::StreamBroadcast,
    ),
    comm(
        "CYCLETOROOT",
        Network::Otc,
        Direction::Stream,
        Some(Monoid::First),
        ResultWidth::Word,
        CostKind::StreamSend,
    ),
    comm(
        "SUM-CYCLETOROOT",
        Network::Otc,
        Direction::Stream,
        Some(Monoid::Sum),
        ResultWidth::Widened,
        CostKind::StreamAggregate,
    ),
    comm(
        "MIN-CYCLETOROOT",
        Network::Otc,
        Direction::Stream,
        Some(Monoid::Min),
        ResultWidth::Word,
        CostKind::StreamAggregate,
    ),
    // ---- OTC composites ---------------------------------------------------
    composite("CYCLETOCYCLE", Network::Otc, ResultWidth::Word, "CYCLETOROOT", "ROOTTOCYCLE"),
    composite(
        "SUM-CYCLETOCYCLE",
        Network::Otc,
        ResultWidth::Widened,
        "SUM-CYCLETOROOT",
        "ROOTTOCYCLE",
    ),
    composite(
        "MIN-CYCLETOCYCLE",
        Network::Otc,
        ResultWidth::Word,
        "MIN-CYCLETOROOT",
        "ROOTTOCYCLE",
    ),
    // ---- compute phases ---------------------------------------------------
    spec("BP-PHASE", Network::Both, Class::Compute),
    spec("ROOT-PHASE", Network::Otn, Class::Compute),
    spec("CYCLE-PHASE", Network::Otc, Class::Compute),
    // ---- procedure spans --------------------------------------------------
    spec("SCAN", Network::Otn, Class::Procedure),
    spec("ROUTE", Network::Otn, Class::Procedure),
    spec("SORT-OTN", Network::Otn, Class::Procedure),
    spec("SORT-OTC", Network::Otc, Class::Procedure),
    // ---- resilience -------------------------------------------------------
    spec("FAULT-OVERHEAD", Network::Both, Class::Overhead),
];

/// Looks up a registry entry by name.
pub fn lookup(name: &str) -> Option<&'static PrimitiveSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Looks up a registry entry by name, panicking on an unknown one — the
/// executors route every span through this, so a misspelled primitive name
/// is caught at first use rather than surviving as an orphan span.
///
/// # Panics
///
/// Panics if `name` is not in [`REGISTRY`].
pub fn spec_for(name: &str) -> &'static PrimitiveSpec {
    lookup(name).unwrap_or_else(|| panic!("unknown primitive {name:?}: not in the registry"))
}

/// How a network fills the selection mask of a primitive from a `bool`
/// selector (the read-only selector evaluation; [`Sel`](crate::Sel)
/// shapes are filled a word at a time either way). Writes, folds, fault
/// transits and clock charges always run on the calling thread, so both
/// policies are bit- and clock-identical — asserted by property tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Fill the mask on the calling thread (the default).
    #[default]
    Sequential,
    /// Fill the mask over scoped threads (`std::thread::scope`), one band
    /// of mask words per worker, up to the machine's available
    /// parallelism. Only engages when the mask has at least two words.
    Threads,
}

/// Fills the packed `mask` (64 bits to a word) from `f`, row by row: row
/// `i` holds `units` units of `stride` consecutive bits each, and `f(i, u)`
/// decides unit `u` of row `i`. `stride` and `units · stride` are powers of
/// two. Every word of `mask` is overwritten. Under
/// [`ParallelPolicy::Threads`] the rows are split into contiguous bands of
/// whole mask words, one per scoped worker (up to the machine's available
/// parallelism); a panic in a worker (e.g. a selector assertion) is
/// re-raised on the caller with its original payload.
pub(crate) fn fill_mask(
    policy: ParallelPolicy,
    mask: &mut [u64],
    rows: usize,
    units: usize,
    stride: usize,
    f: impl Fn(usize, usize) -> bool + Sync,
) {
    // Fills `out` from rows `first..first + count`: an accumulator takes
    // `stride` bits per unit and is flushed every 64, as units never
    // straddle a word unless they are whole words.
    let band = |first: usize, count: usize, out: &mut [u64]| {
        let (mut acc, mut n, mut w) = (0, 0, 0);
        let whole = (stride / 64).max(1);
        let ones = crate::bitset::low_bits(stride);
        for i in first..first + count {
            for u in 0..units {
                let on = f(i, u);
                if stride >= 64 {
                    out[w..w + whole].fill(if on { u64::MAX } else { 0 });
                    w += whole;
                    continue;
                }
                acc |= if on { ones << n } else { 0 };
                n += stride;
                if n == 64 {
                    out[w] = acc;
                    (acc, n, w) = (0, 0, w + 1);
                }
            }
        }
        if n > 0 {
            out[w] = acc;
        }
    };
    let row_bits = units * stride;
    // Bands of whole words: at least `64 / row_bits` rows each.
    let step = (64 / row_bits.max(1)).max(1);
    let workers = match policy {
        ParallelPolicy::Sequential => 1,
        ParallelPolicy::Threads => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(rows / step),
    };
    if workers <= 1 {
        band(0, rows, mask);
        return;
    }
    let band_rows = rows.div_ceil(workers).next_multiple_of(step);
    let band_words = band_rows * row_bits / 64;
    std::thread::scope(|scope| {
        let band = &band;
        let handles: Vec<_> = mask
            .chunks_mut(band_words)
            .enumerate()
            .map(|(b, chunk)| {
                let first = b * band_rows;
                scope.spawn(move || band(first, band_rows.min(rows - first), chunk))
            })
            .collect();
        for h in handles {
            // Preserve the worker's panic payload (selector assertions
            // must surface with their original message).
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// The running state of one tree's (or cycle position's) combine fold —
/// the executable form of [`Monoid`], shared by the OTN and OTC upward
/// executors.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Acc {
    /// [`Monoid::First`]: the relayed word once found.
    First {
        /// Whether a leaf has been selected yet.
        found: bool,
        /// The first selected leaf's word.
        value: Option<Word>,
    },
    /// [`Monoid::Count`]: running count of selected leaves.
    Count(Word),
    /// [`Monoid::Sum`]: running sum (`NULL` counts as zero).
    Sum(Word),
    /// [`Monoid::Min`]: running minimum over non-`NULL` words.
    Min(Option<Word>),
    /// [`Monoid::Max`]: running maximum over non-`NULL` words.
    Max(Option<Word>),
}

impl Acc {
    /// The identity element of `monoid`.
    pub(crate) fn new(monoid: Monoid) -> Acc {
        match monoid {
            Monoid::First => Acc::First { found: false, value: None },
            Monoid::Count => Acc::Count(0),
            Monoid::Sum => Acc::Sum(0),
            Monoid::Min => Acc::Min(None),
            Monoid::Max => Acc::Max(None),
        }
    }

    /// Folds one selected leaf's word in. `on_contention` fires when a
    /// [`Monoid::First`] fold sees a second selected leaf (the first word
    /// is kept, matching degraded-mode semantics; in a healthy net the
    /// callback asserts).
    pub(crate) fn fold(&mut self, word: Option<Word>, on_contention: impl FnOnce()) {
        match self {
            Acc::First { found, value } => {
                if *found {
                    on_contention();
                } else {
                    *found = true;
                    *value = word;
                }
            }
            Acc::Count(c) => *c += 1,
            Acc::Sum(s) => *s += word.unwrap_or(0),
            Acc::Min(best) => {
                if let Some(w) = word {
                    *best = Some(best.map_or(w, |b| b.min(w)));
                }
            }
            Acc::Max(best) => {
                if let Some(w) = word {
                    *best = Some(best.map_or(w, |b| b.max(w)));
                }
            }
        }
    }

    /// The folded root word.
    pub(crate) fn finish(self) -> Option<Word> {
        match self {
            Acc::First { value, .. } => value,
            Acc::Count(c) => Some(c),
            Acc::Sum(s) => Some(s),
            Acc::Min(best) | Acc::Max(best) => best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let mut seen = HashSet::new();
        for s in REGISTRY {
            assert!(seen.insert(s.name), "duplicate registry entry {:?}", s.name);
        }
    }

    #[test]
    fn lookup_and_spec_for_agree() {
        for s in REGISTRY {
            assert_eq!(lookup(s.name).unwrap().name, s.name);
            assert_eq!(spec_for(s.name).name, s.name);
        }
        assert!(lookup("ROOTTOLEAF-TYPO").is_none());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn spec_for_unknown_name_panics() {
        let _ = spec_for("NOT-A-PRIMITIVE");
    }

    #[test]
    fn communication_entries_declare_direction_and_cost() {
        for s in REGISTRY.iter().filter(|s| s.class == Class::Communication) {
            if s.name == "PAIRWISE" {
                // Distance-parameterised: priced in place.
                assert!(s.cost.is_none());
                continue;
            }
            assert!(s.direction.is_some(), "{} lacks a direction", s.name);
            assert!(s.cost.is_some(), "{} lacks a cost kind", s.name);
        }
    }

    #[test]
    fn composites_reference_registry_entries() {
        for s in REGISTRY.iter().filter(|s| s.class == Class::Composite) {
            let (up, down) = s.composite_of.expect("composite declares its legs");
            let up = spec_for(up);
            let down = spec_for(down);
            assert_eq!(up.class, Class::Communication, "{}'s upward leg", s.name);
            assert_eq!(down.class, Class::Communication, "{}'s downward leg", s.name);
            assert!(
                matches!(
                    up.direction,
                    Some(Direction::Send | Direction::Aggregate | Direction::Stream)
                ),
                "{}'s first leg must ascend",
                s.name
            );
            assert!(
                matches!(down.direction, Some(Direction::Broadcast | Direction::Stream)),
                "{}'s second leg must descend",
                s.name
            );
            assert_eq!(s.network, up.network);
            assert_eq!(s.network, down.network);
        }
    }

    #[test]
    fn every_cost_kind_is_reachable() {
        let used: HashSet<_> = REGISTRY.iter().filter_map(|s| s.cost).collect();
        for kind in orthotrees_vlsi::CostKind::ALL {
            assert!(used.contains(&kind), "no registry entry uses {kind:?}");
        }
    }

    #[test]
    fn acc_folds_match_monoid_semantics() {
        let nop = || {};
        let mut first = Acc::new(Monoid::First);
        first.fold(Some(7), nop);
        assert_eq!(first.finish(), Some(7));

        let mut count = Acc::new(Monoid::Count);
        count.fold(Some(9), nop);
        count.fold(None, nop);
        assert_eq!(count.finish(), Some(2), "count ignores the words");

        let mut sum = Acc::new(Monoid::Sum);
        sum.fold(Some(3), nop);
        sum.fold(None, nop);
        sum.fold(Some(4), nop);
        assert_eq!(sum.finish(), Some(7), "NULL sums as zero");
        assert_eq!(Acc::new(Monoid::Sum).finish(), Some(0), "empty sum is 0");

        let mut min = Acc::new(Monoid::Min);
        min.fold(None, nop);
        assert_eq!(min.finish(), None, "all-NULL min is NULL");
        let mut min = Acc::new(Monoid::Min);
        min.fold(Some(5), nop);
        min.fold(Some(2), nop);
        assert_eq!(min.finish(), Some(2));

        let mut max = Acc::new(Monoid::Max);
        max.fold(Some(5), nop);
        max.fold(Some(2), nop);
        assert_eq!(max.finish(), Some(5));
    }

    #[test]
    fn first_contention_keeps_the_first_word() {
        let mut acc = Acc::new(Monoid::First);
        let mut contended = false;
        acc.fold(Some(1), || {});
        acc.fold(Some(2), || contended = true);
        assert!(contended);
        assert_eq!(acc.finish(), Some(1));
    }

    #[test]
    fn fill_mask_fills_rows_in_order_under_both_policies() {
        let on = |i: usize, u: usize| (i * 3 + u).is_multiple_of(4);
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads] {
            for (rows, units, stride) in [
                (0usize, 4usize, 1usize),
                (1, 1, 1),
                (3, 2, 2),
                (64, 1, 1),
                (5, 16, 4),
                (4, 1, 128),
            ] {
                let bits = rows * units * stride;
                let mut mask = vec![u64::MAX; bits.div_ceil(64)];
                fill_mask(policy, &mut mask, rows, units, stride, on);
                let got: Vec<bool> = (0..bits).map(|k| crate::bitset::test(&mask, k)).collect();
                let want: Vec<bool> =
                    (0..bits).map(|k| on(k / stride / units, k / stride % units)).collect();
                assert_eq!(got, want, "{policy:?} over {rows} rows of {units} × {stride} bits");
                if bits % 64 != 0 {
                    assert_eq!(mask[bits / 64] >> (bits % 64), 0, "no bit past the last");
                }
            }
        }
    }

    #[test]
    fn fill_mask_reuses_its_buffer() {
        let mut mask = vec![0; 4];
        fill_mask(ParallelPolicy::Sequential, &mut mask, 16, 16, 1, |_, _| true);
        let (ptr, cap) = (mask.as_ptr(), mask.capacity());
        assert_eq!(mask, vec![u64::MAX; 4]);
        fill_mask(ParallelPolicy::Sequential, &mut mask, 16, 2, 8, |_, _| false);
        assert_eq!((mask.as_ptr(), mask.capacity()), (ptr, cap), "filled in place");
        assert_eq!(mask, vec![0; 4], "stale bits are overwritten");
    }

    #[test]
    #[should_panic(expected = "synthetic contention")]
    fn fill_mask_reraises_worker_panics_verbatim() {
        let mut mask = vec![0; 8];
        fill_mask(ParallelPolicy::Threads, &mut mask, 32, 16, 1, |i, _| {
            assert!(i != 29, "synthetic contention in row {i}");
            true
        });
    }
}
