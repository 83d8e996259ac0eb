//! Proves the PR 5 satellite claim that `range_for_each` allocates
//! nothing on the common (non-degenerate) path: the traversal stack now
//! lives in a fixed inline array on the caller's frame, with a heap
//! spill only for trees deeper than its 64 slots.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not taint the unit-test
//! binary's measurements. The count is per thread: the test harness
//! runs tests on parallel threads, and each test must see only its own
//! allocations.

use nmbst::NmTreeMap;
use nmbst_reclaim::Leaky;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by the current thread. A
    /// const-initialized `Cell` needs no lazy set-up, so the allocator
    /// can touch it without allocating itself.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations made while the thread's locals are being
    // torn down go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn range_for_each_allocates_nothing_on_balanced_trees() {
    // Bulk-load for a guaranteed-balanced shape (depth ~13 ≪ the 64
    // inline slots) and `Leaky` so no reclamation bookkeeping allocates
    // behind the traversal's pin.
    let map: NmTreeMap<u64, u64, Leaky> = NmTreeMap::from_sorted_iter((0..1024).map(|k| (k, k)));

    // Warm-up: first pin of a thread may lazily allocate per-thread
    // state in some reclaimers; after this, steady state.
    let mut sink = 0u64;
    map.range_for_each(.., |_, v| sink = sink.wrapping_add(*v));

    let before = allocs();
    map.range_for_each(100..900, |k, v| {
        sink = sink.wrapping_add(k ^ v);
    });
    map.range_for_each(.., |_, _| {});
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "range_for_each must not heap-allocate on a balanced tree (sink={sink})"
    );
}

#[test]
fn range_for_each_spill_is_bounded_not_per_node() {
    // A ~300-deep degenerate spine forces the spill `Vec`, but the
    // allocation cost must be the Vec's geometric growth (a handful of
    // reallocs), not O(nodes).
    let map: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    for k in 0..300 {
        map.insert(k, ());
    }
    let mut n = 0usize;
    map.range_for_each(.., |_, _| n += 1); // warm-up
    assert_eq!(n, 300);

    let before = allocs();
    map.range_for_each(.., |_, _| {});
    let after = allocs();
    assert!(
        after - before <= 16,
        "spill must grow geometrically, not per node: {} allocations",
        after - before
    );
}
