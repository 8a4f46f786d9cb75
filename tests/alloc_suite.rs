//! Allocation pins. The word-level sorts: SORT-OTN and SORT-OTC at
//! n = 256 may allocate no more often, and request no more bytes, than the
//! recorded figures. The engine: a SUM probe run at n = 512, bare and with
//! a telemetry bus alone attached, is held to its recorded figures too.
//! The telemetry registry: a named update of an existing metric allocates
//! nothing.
//! The binary runs without the test harness, on the main thread alone: the
//! counters are process-wide, so no other thread may allocate while they
//! count.

use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Otn};
use orthotrees_alloc::{count, CountingAlloc, Counts};
use orthotrees_analysis::workloads;
use orthotrees_sim::experiments::{probe_engine, ProbeKind};
use orthotrees_sim::{CalendarKind, Engine, Telemetry};
use orthotrees_vlsi::CostModel;

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

/// Allocations and requested bytes of one SUM probe run at n = 512,
/// `[bare, telemetry alone]`, the same in debug and release builds. With
/// the registry keyed by name (a `String`-keyed map per metric type, a
/// cloned map per snapshot row) the telemetry run read 58 allocations and
/// 1 852 552 bytes.
const SUM_PROBE: [Counts; 2] =
    [Counts { allocs: 17, bytes: 1_836_224 }, Counts { allocs: 42, bytes: 1_849_816 }];

/// A named `count`, `gauge` or `observe` of a metric that already exists
/// allocates nothing: the name is looked up, not copied. The sketch is fed
/// past its first compress first, so its own buffers are at capacity.
fn named_updates_allocate_nothing() {
    let mut tel = Telemetry::new(16);
    tel.count("c", 1);
    tel.gauge("g", 1);
    for v in 0..200 {
        tel.observe("s", v % 7);
    }
    let ((), counts) = count(|| {
        for v in 0..20 {
            tel.count("c", 1);
            tel.gauge("g", v);
            tel.observe("s", v % 7);
        }
    });
    assert_eq!(counts, Counts { allocs: 0, bytes: 0 }, "named updates of existing metrics");
}

/// Allocations of one SUM probe run at n = 512 (Thompson model, ladder
/// calendar, clean) on a prebuilt engine, with `attach` applied inside the
/// count.
fn sum_probe_run(attach: impl FnOnce(Engine) -> Engine) -> Counts {
    let m = CostModel::thompson(512);
    let e = probe_engine(ProbeKind::Sum, 512, &m, CalendarKind::Ladder, None, false);
    let (_e, counts) = count(|| {
        let mut e = attach(e);
        e.try_run().expect("the SUM probe runs within budget");
        e
    });
    counts
}

fn main() {
    let bare = sum_probe_run(|e| e);
    let metered = sum_probe_run(|e| e.with_telemetry(Telemetry::new(16)));
    for ((name, got), pinned) in [("bare", bare), ("telemetry", metered)].into_iter().zip(SUM_PROBE)
    {
        assert!(
            got.allocs <= pinned.allocs && got.bytes <= pinned.bytes,
            "SUM probe ({name}) at n = 512: {got:?}, recorded {pinned:?}"
        );
    }
    println!("alloc_suite: SUM probe at n = 512: bare {bare:?}, telemetry {metered:?}");
    named_updates_allocate_nothing();

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
