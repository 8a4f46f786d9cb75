//! Word-level identity gate: the two word-level instruments and the
//! threaded selector fill, run over the whole registry repertoire.
//!
//! [`WordNet`] carries a [`Recorder`] and a [`Telemetry`] bus, each in its
//! own `Option`, and a [`ParallelPolicy`]. Two properties make them
//! trustworthy, and this gate pins both for every registry entry bound on
//! each network (`tests/support/repertoire.rs`), on both axes, over the
//! OTN at 2²..2⁷ leaves and the OTC at n = 16/64/256, clean and under a
//! dense word-fault plan:
//!
//! 1. **Transparency** — `checkpoint_text()` (every register, both root
//!    port families, the clock, the operation and the fault statistics)
//!    is the same bare, with the recorder, with the bus, with both, and
//!    under [`ParallelPolicy::Threads`].
//! 2. **Independence** — each instrument's result with the other
//!    installed equals its result installed alone.
//!
//! It is `tests/probe_suite.rs` one level up. The ignored sweep runs every
//! size, clean and under three plan seeds (release-only in CI).

use orthotrees::obs::telemetry::Telemetry;
use orthotrees::obs::Recorder;
use orthotrees::wordnet::{Cycles, Tree, WordNet};
use orthotrees::ParallelPolicy;
use orthotrees_bench::profile::dense_plan;
use proptest::prelude::*;

#[path = "support/repertoire.rs"]
mod repertoire;
use repertoire::Load;

/// What a run carries: recorder, telemetry bus, threaded policy.
type Attach = [bool; 3];

const BARE: Attach = [false; 3];

/// The run's fingerprint and each instrument's result rendered with
/// `Debug` (`None` when it was not installed).
fn run<T: Load>(n: usize, seed: Option<u64>, attach: Attach) -> (String, [Option<String>; 2]) {
    let [recorder, telemetry, threads] = attach;
    let mut net = repertoire::run::<T>(n, |net: &mut WordNet<T>| {
        if recorder {
            net.install_recorder(Recorder::new());
        }
        if telemetry {
            net.install_telemetry(Telemetry::new(64));
        }
        if threads {
            net.set_parallel_policy(ParallelPolicy::Threads);
        }
        if let Some(seed) = seed {
            net.install_fault_plan(dense_plan(seed));
        }
    });
    let results = [
        net.take_recorder().map(|r| format!("{r:?}")),
        net.take_telemetry().map(|t| format!("{t:?}")),
    ];
    (net.checkpoint_text(), results)
}

/// Runs one case bare, with each instrument alone, with both and under
/// the threaded policy, and checks transparency and independence.
fn check_case<T: Load>(n: usize, seed: Option<u64>) {
    let label = format!("{} n={n} plan={seed:?}", T::NAME);
    let (bare, none) = run::<T>(n, seed, BARE);
    assert_eq!(none, [None, None], "{label}: the bare run carries nothing");
    let (both, together) = run::<T>(n, seed, [true, true, false]);
    assert_eq!(both, bare, "{label}: installing both instruments changed the run");
    for i in 0..2 {
        let mut attach = BARE;
        attach[i] = true;
        let (alone, solo) = run::<T>(n, seed, attach);
        assert_eq!(alone, bare, "{label}: instrument {i} alone changed the run");
        assert!(solo[i].is_some(), "{label}: instrument {i} was installed");
        assert_eq!(together[i], solo[i], "{label}: instrument {i} depends on the other");
    }
    let (threaded, _) = run::<T>(n, seed, [false, false, true]);
    assert_eq!(threaded, bare, "{label}: the threaded policy changed the run");
}

/// The OTC sizes the gate runs.
const OTC_SIZES: [usize; 3] = [16, 64, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The OTN over 2² to 2⁷ leaves, clean and under a dense plan.
    #[test]
    fn otn_instruments_and_threads_are_transparent_and_independent(
        k in 2u32..=7,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        check_case::<Tree>(1 << k, faulty.then_some(seed));
    }

    /// The OTC at n = 16, 64 and 256, clean and under a dense plan.
    #[test]
    fn otc_instruments_and_threads_are_transparent_and_independent(
        size_idx in 0usize..3,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        check_case::<Cycles>(OTC_SIZES[size_idx], faulty.then_some(seed));
    }
}

/// The release-mode sweep CI runs: every size of both networks, clean and
/// under three plan seeds.
#[test]
#[ignore = "release-mode sweep, run explicitly in CI"]
fn full_word_identity_sweep() {
    for seed in [None, Some(1), Some(7), Some(4242)] {
        for k in 2..=7 {
            check_case::<Tree>(1 << k, seed);
        }
        for n in OTC_SIZES {
            check_case::<Cycles>(n, seed);
        }
    }
}
