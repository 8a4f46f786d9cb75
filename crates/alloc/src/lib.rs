//! A counting global allocator: [`CountingAlloc`] wraps [`System`] and,
//! while [`count`] runs, counts every allocation and reallocation and the
//! bytes they request.
//!
//! A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: orthotrees_alloc::CountingAlloc = orthotrees_alloc::CountingAlloc;
//! ```
//!
//! and wraps the code under test in [`count`]. The counters are
//! process-wide, so a count is exact only while no other thread allocates:
//! keep one counting test per binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus allocation and byte counters.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the counters are plain atomics and
// allocate nothing themselves.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What [`count`] saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Allocations, reallocations included.
    pub allocs: u64,
    /// Bytes requested by those allocations (a reallocation counts its new
    /// size).
    pub bytes: u64,
}

/// Runs `f` with counting on and returns its result with what it
/// allocated. Counts nothing unless [`CountingAlloc`] is the binary's
/// global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    (r, Counts { allocs: ALLOCS.load(Relaxed) - allocs, bytes: BYTES.load(Relaxed) - bytes })
}
