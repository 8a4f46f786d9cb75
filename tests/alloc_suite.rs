//! Allocation pin of the word-level sorts: SORT-OTN and SORT-OTC at
//! n = 256 may allocate no more often, and request no more bytes, than the
//! recorded figures. The binary runs without the test harness, on the main
//! thread alone: the counters are process-wide, so no other thread may
//! allocate while they count.

use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Otn};
use orthotrees_alloc::{count, CountingAlloc, Counts};
use orthotrees_analysis::workloads;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes of one clean sort call at n = 256 on a
/// prebuilt net, `[SORT-OTN, SORT-OTC]`, recorded before the register
/// planes became value arrays with a validity bitset. Debug builds make a
/// few more small allocations than release builds, so each profile has its
/// own figures.
const BEFORE: [Counts; 2] = if cfg!(debug_assertions) {
    [Counts { allocs: 36, bytes: 4_275_352 }, Counts { allocs: 134, bytes: 1_208_664 }]
} else {
    [Counts { allocs: 35, bytes: 4_275_328 }, Counts { allocs: 124, bytes: 1_208_424 }]
};

fn main() {
    let n = 256;
    let xs = workloads::distinct_words(n, 9);
    let mut sorted = xs.clone();
    sorted.sort_unstable();

    let mut otn_net = Otn::for_sorting(n).unwrap();
    let (out, otn_counts) = count(|| otn::sort::sort(&mut otn_net, &xs).unwrap());
    assert_eq!(out.sorted, sorted);
    let mut otc_net = Otc::for_sorting(n).unwrap();
    let (out, otc_counts) = count(|| otc::sort::sort(&mut otc_net, &xs).unwrap());
    assert_eq!(out.sorted, sorted);

    for ((name, got), before) in [("otn", otn_counts), ("otc", otc_counts)].into_iter().zip(BEFORE)
    {
        assert!(
            got.allocs <= before.allocs && got.bytes <= before.bytes,
            "SORT-{name} at n = {n}: {got:?}, recorded {before:?}"
        );
    }
    println!("alloc_suite: SORT-OTN {otn_counts:?}, SORT-OTC {otc_counts:?} at n = {n}");
}
