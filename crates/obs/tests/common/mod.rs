//! A counting global allocator shared by the allocation tests.
//!
//! Each test binary that declares `mod common;` installs it for its
//! whole process. It is the sole `unsafe` in the workspace, hence
//! this crate's `deny`-not-`forbid` lint level and the module-local
//! allow below. Each binary holds one `#[test]` on purpose: the
//! harness runs tests in parallel, and a second test's allocations
//! would bleed into the counts.

#![allow(unsafe_code)]
// Each binary uses a subset of the helpers.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation while delegating to the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the only addition is a relaxed
// counter increment, which cannot violate any allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) so far in this process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `measure` up to five times and returns the smallest allocation
/// delta observed. The test harness's main thread occasionally
/// allocates a couple of times while a measured loop runs; a genuine
/// per-call allocation in the measured code shows up in *every*
/// attempt at loop scale, while harness noise is transient — the
/// minimum over a few attempts isolates the former.
pub fn min_allocations<F: FnMut()>(mut measure: F) -> u64 {
    (0..5)
        .map(|_| {
            let before = allocations();
            measure();
            allocations() - before
        })
        .min()
        .expect("at least one attempt")
}
