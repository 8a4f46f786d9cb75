//! The traced run's allocation counts repeat exactly. This is the only
//! test in its binary: the counter is process-wide, so no other test may
//! allocate while it counts.

use wallbench::workload::Workload;

#[test]
fn two_traced_runs_count_identical_allocations() {
    for w in Workload::ALL {
        let first = wallbench::probes::allocation_counts(w, 11).expect("probes run");
        let second = wallbench::probes::allocation_counts(w, 11).expect("probes run");
        assert_eq!(first, second, "{}", w.name());
    }
}
