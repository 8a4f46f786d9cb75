//! Parallel-execution knob: [`ParallelPolicy::Threads`] fans each `bool`
//! selector's mask fill over scoped threads. That it is bit- and
//! clock-identical to the sequential policy over every registry entry is
//! `tests/word_identity_suite.rs`'s gate; this suite checks the knob
//! itself and the deepest pipeline, SORT-OTN, end to end.

use orthotrees::otn::{self, Otn};
use orthotrees::{ParallelPolicy, Word};

/// The policy is a per-net knob: setting it is observable and does not
/// leak across instances.
#[test]
fn policy_is_per_instance() {
    let mut a = Otn::for_sorting(4).unwrap();
    let b = Otn::for_sorting(4).unwrap();
    assert_eq!(a.parallel_policy(), ParallelPolicy::Sequential);
    a.set_parallel_policy(ParallelPolicy::Threads);
    assert_eq!(a.parallel_policy(), ParallelPolicy::Threads);
    assert_eq!(b.parallel_policy(), ParallelPolicy::Sequential);
}

/// Sorting — the deepest primitive pipeline in the repo — end to end
/// under the threaded policy: same order, same clock as sequential.
#[test]
fn threaded_sort_matches_sequential_sort() {
    let xs: Vec<Word> = (0..64).map(|v| (v * 37) % 64).collect();
    let mut seq = Otn::for_sorting(64).unwrap();
    let seq_out = otn::sort::sort(&mut seq, &xs).unwrap();
    let mut par = Otn::for_sorting(64).unwrap();
    par.set_parallel_policy(ParallelPolicy::Threads);
    let par_out = otn::sort::sort(&mut par, &xs).unwrap();
    assert_eq!(seq_out.sorted, par_out.sorted);
    assert_eq!(seq_out.time, par_out.time);
    assert_eq!(seq.clock().stats(), par.clock().stats());
}
