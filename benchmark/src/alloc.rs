//! A counting global allocator: it wraps [`System`] and, while counting is
//! switched on, counts every allocation and reallocation.
//!
//! Counting is off unless [`count`] is running, and only the traced run's
//! layer probes call [`count`]; an untraced run pays one relaxed load per
//! allocation and nothing else.
//!
//! [`pin_heap_policy`] fixes how the C heap under [`System`] hands memory
//! back to the kernel, for the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The largest mmap threshold glibc accepts on a 64-bit host: half of its
/// 64 MiB heap size.
pub const MMAP_THRESHOLD: i32 = 32 << 20;

/// Fixes glibc's heap policy: blocks under [`MMAP_THRESHOLD`] come from
/// the heap, and the heap is never trimmed. Call it first thing in `main`.
///
/// By default glibc hands freed memory at the top of its heap back to the
/// kernel and raises its mmap threshold as large blocks are freed. The
/// next op then faults the same pages back in — about 6 000 page faults
/// per `word-sort` op, whose cost on a shared host swings with the other
/// tenants — and the peak resident set depends on the order in which
/// blocks were freed, so on how many ops a timed run fits. Pinned, an op's
/// host time is the simulator's own work, and the peak is the heap's
/// high-water mark.
pub fn pin_heap_policy() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        // `malloc.h`.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` only sets allocator parameters; both values are
        // in the ranges glibc accepts, and no other thread runs yet.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the counter is a plain atomic and
// allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations (including reallocations) made meanwhile. The counter is
/// process-wide, so the count is exact only while no other thread
/// allocates — the benchmark's probes run on one thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    (r, ALLOCS.load(Relaxed) - before)
}
