//! Counting global allocator for the allocation-regression harness.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation event (`alloc`, `alloc_zeroed`, `realloc`) plus the bytes
//! requested, in process-wide relaxed atomics. It is deliberately **not**
//! installed by this crate: a test binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rdsim_obs::CountingAlloc = rdsim_obs::CountingAlloc;
//! ```
//!
//! which scopes the (tiny) bookkeeping overhead to that one binary. The
//! whole module is behind the `alloc-count` cargo feature so production
//! builds never even compile it.
//!
//! Counters are global to the process, so measurements are only
//! meaningful on a single thread with no concurrent allocator traffic —
//! exactly the situation in the `alloc_regression` tests of `rdsim-core`
//! and `rdsim-operator`. Deallocations are *not* counted: the regression
//! gate is "no new heap memory is requested per steady-state step", and
//! frees of warm-up memory are irrelevant to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts allocation
/// events and requested bytes. Install with `#[global_allocator]` in the
/// measuring binary; read with [`alloc_counts`] / delta with
/// [`AllocCounts::since`].
pub struct CountingAlloc;

// SAFETY: pure forwarding to `System`; the counter updates have no
// allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocation events (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counters accumulated since an earlier reading.
    #[must_use]
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the current allocation counters. Monotone; take two readings
/// and [`AllocCounts::since`] them to measure a region.
#[must_use]
pub fn alloc_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
