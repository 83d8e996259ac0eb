//! Slab arena node storage with a bounded recycling free list.
//!
//! Since PR 7 the pool *is* the node store: trees no longer `Box` their
//! nodes, they carve fixed-layout slots out of per-tree arena segments
//! and address them with `u32` indices. That buys two things at once:
//!
//! * **Half-width edges.** A child reference inside a tree node is a
//!   32-bit slot index instead of a 64-bit pointer, so both edges of a
//!   node fit in one 8-byte word-pair and the mark bits ride in the low
//!   bits of a `u32`.
//! * **A closed allocation loop.** Retired slots flow through the
//!   reclaimer's grace period back onto the free list (retire → grace
//!   period → recycle → realloc), exactly as in PR 4 — but now even the
//!   *miss* path (bump allocation) stays inside the arena, so steady
//!   state never touches `malloc`.
//!
//! # Geometry
//!
//! Slots live in doubling segments: segment `s` holds `2^18 << s`
//! slots, and 13 segments cover indices up to 2³⁰ (the widest index an
//! edge word can carry next to its two mark bits). Index 0 is reserved
//! as the null edge.
//!
//! Segment 0 is allocated *eagerly* and its base is mirrored in a plain
//! (non-atomic) field: for every index below 2¹⁸ — in practice all of
//! them, since recycling keeps the bump cursor low — `slot_ptr` is one
//! predicted branch and a `base + idx * stride` address computation.
//! That keeps index resolution off the descent loop's dependent-load
//! chain: the base is immutable, so the compiler hoists it out of the
//! loop, where an atomic segment-table load would have to re-issue at
//! every level (measured ~25% of single-thread point-op throughput).
//! The reservation is virtual — 2¹⁸ slots of untouched pages cost
//! address space, not memory. Overflow segments are allocated lazily
//! and published with a CAS; the loser of a racing grow frees its
//! segment and adopts the winner's, so growth stays lock-free. A
//! resolved slot pointer is stable for the arena's lifetime — segments
//! are never moved or freed before the pool drops.
//!
//! # Safety model
//!
//! The pool never decides *when* a slot may be reused — that is the
//! reclaimer's job. A recycle deferral fires only after the grace
//! period, i.e. after no live reference to the slot can exist, so reuse
//! is ABA-safe by construction (DESIGN.md §11, §14). Unlike the PR 4
//! pool there is no dealloc fall-through: a slot the free list declines
//! (capacity, contention) is simply abandoned in place — counted in
//! [`PoolStats::dropped`] — and its memory returns when the arena drops.
//!
//! # Concurrency
//!
//! The free list is a bounded LIFO `Vec<u32>` under a spin lock,
//! accessed with `try_lock` only: a contended pop reports "empty" (the
//! caller bump-allocates) and a contended push abandons the slot. The
//! pool therefore never blocks an operation; the lock is a fast path,
//! not a serialization point.

use nmbst_sync::SpinLock;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// log2 of the first segment's slot count.
const SEG0_BITS: u32 = 18;
/// Slot count of the eagerly allocated segment 0; indices below this
/// take `slot_ptr`'s flat fast path.
const SEG0_SLOTS: usize = 1 << SEG0_BITS;
/// Number of doubling segments; together they cover indices past 2³⁰.
const SEGMENTS: usize = 13;
/// Largest allocatable index: an edge word keeps 2 bits for marks.
const MAX_INDEX: u32 = (1 << 30) - 1;

/// Point-in-time counters of one [`NodePool`]; see [`NodePool::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from recycled free-list slots instead of
    /// fresh (bump-allocated) arena space.
    pub hits: u64,
    /// Allocations the free list could not serve (empty or contended);
    /// the caller bump-allocated a fresh slot.
    pub misses: u64,
    /// Slots accepted into the free list (from recycling deferrals and
    /// cache give-backs).
    pub recycled: u64,
    /// Slots the free list declined (full or contended) and abandoned in
    /// place; their memory returns when the arena drops.
    pub dropped: u64,
    /// Slots the bump cursor has handed out. The arena never frees a
    /// slot, so this is its high-water mark.
    pub slots: u64,
    /// Current free-list length (racy snapshot).
    pub len: u64,
    /// Maximum free-list length.
    pub capacity: u64,
}

/// A slab arena of fixed-layout slots addressed by `u32` indices, with a
/// bounded LIFO free list recycling retired slots.
///
/// One pool serves one slot layout (one `Node<K, V>` type). LIFO because
/// the most recently retired slot is the most likely to still be
/// cache-hot when the next insert reuses it.
///
/// Shared by `Arc`: the owning tree holds one reference and parks a
/// second inside the reclaimer via [`Reclaim::hold`](crate::Reclaim::hold),
/// so recycling deferrals can carry a plain raw pointer — the reclaimer
/// guarantees the pool (and with it every slot a straggling deferral
/// touches) outlives every deferral it ever runs.
pub struct NodePool {
    layout: Layout,
    /// Distance between consecutive slots: the layout padded to its
    /// alignment.
    stride: usize,
    capacity: usize,
    /// Segment 0's base, duplicated out of `segments[0]` as a plain
    /// field: immutable after construction, so the hot resolution path
    /// reads it without an atomic load (and loop-invariant code motion
    /// can keep it in a register across a descent).
    seg0: NonNull<u8>,
    /// Doubling segments; entry `s` holds `SEG0_SLOTS << s` slots.
    /// Entry 0 is allocated in `new`; the rest lazily, published by
    /// CAS, so growth is lock-free.
    segments: [AtomicPtr<u8>; SEGMENTS],
    /// Bump cursor over the index space. Starts at 1: index 0 is the
    /// null edge.
    next: AtomicU32,
    free: SpinLock<FreeList>,
    /// Mirror of the free-list length, maintained inside the lock, so
    /// gauges and the empty-pool fast path need no lock at all.
    len: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    dropped: AtomicU64,
}

/// The lock-protected half of the pool. `recycled` lives here (not as an
/// atomic) because it is only ever bumped while the push already holds
/// the lock — keeping the per-slot release path at a single RMW (the
/// lock acquisition itself).
struct FreeList {
    slots: Vec<u32>,
    recycled: u64,
}

// SAFETY: segment pointers are owned allocations freed only in Drop, the
// free list holds plain indices, and all free-list access is
// synchronized by the spin lock.
unsafe impl Send for NodePool {}
unsafe impl Sync for NodePool {}

/// Splits an index into (segment, offset-within-segment).
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    debug_assert!(idx != 0 && idx <= MAX_INDEX);
    let adj = idx + (1 << SEG0_BITS);
    let bit = 31 - adj.leading_zeros();
    ((bit - SEG0_BITS) as usize, (adj - (1 << bit)) as usize)
}

/// Slot count of segment `seg`.
#[inline]
fn segment_slots(seg: usize) -> usize {
    1usize << (SEG0_BITS as usize + seg)
}

/// Allocates the backing memory of segment `seg`. Untouched pages are
/// only a virtual reservation; the kernel commits them on first write.
fn alloc_segment(seg: usize, stride: usize, align: usize) -> *mut u8 {
    let layout =
        Layout::from_size_align(segment_slots(seg) * stride, align).expect("segment layout");
    // SAFETY: non-zero size (stride > 0, slots > 0).
    let ptr = unsafe { std::alloc::alloc(layout) };
    assert!(!ptr.is_null(), "arena segment allocation failed");
    ptr
}

impl NodePool {
    /// Creates an empty arena for slots of `layout`, recycling at most
    /// `capacity` free slots (`0` disables reuse: every allocation bumps
    /// fresh space and every release abandons its slot). Zero-size
    /// layouts are rejected — there is nothing to store.
    pub fn new(layout: Layout, capacity: usize) -> Self {
        assert!(layout.size() > 0, "cannot pool zero-sized slots");
        let stride = layout.pad_to_align().size();
        let seg0 = alloc_segment(0, stride, layout.align());
        let segments = [const { AtomicPtr::new(std::ptr::null_mut()) }; SEGMENTS];
        segments[0].store(seg0, Ordering::Relaxed);
        NodePool {
            layout,
            stride,
            capacity,
            seg0: NonNull::new(seg0).expect("checked non-null above"),
            segments,
            next: AtomicU32::new(1),
            free: SpinLock::new(FreeList {
                // Reserve up front (bounded for pathological capacities)
                // so steady-state pushes never grow the Vec.
                slots: Vec::with_capacity(capacity.min(4096)),
                recycled: 0,
            }),
            len: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The one slot layout this arena serves.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Maximum number of free slots recycled.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current free-list length (racy snapshot; exact at quiescence).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if no free slot is currently pooled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a slot index to its address. The returned pointer is
    /// stable for the arena's lifetime.
    ///
    /// The index must have been produced by this pool
    /// ([`acquire`](Self::acquire) or [`bump`](Self::bump)); index 0
    /// (the null edge) is not a slot.
    #[inline]
    pub fn slot_ptr(&self, idx: u32) -> *mut u8 {
        debug_assert!(idx != 0 && idx <= MAX_INDEX);
        if (idx as usize) < SEG0_SLOTS {
            // Segment 0: `locate`'s bias cancels, the offset *is* the
            // index, and the base is a plain immutable field — no
            // atomic load on the descent's dependent chain.
            unsafe { self.seg0.as_ptr().add(idx as usize * self.stride) }
        } else {
            self.slot_ptr_overflow(idx)
        }
    }

    /// [`slot_ptr`](Self::slot_ptr) with the stride taken from `N` at
    /// compile time, so the hot path's offset computation is constant
    /// arithmetic instead of a multiply by a loaded field. `N` must be
    /// the type this arena's layout was created for.
    #[inline]
    pub fn slot_ptr_typed<N>(&self, idx: u32) -> *mut N {
        debug_assert_eq!(
            Layout::new::<N>().pad_to_align().size(),
            self.stride,
            "slot_ptr_typed called with a type foreign to this arena"
        );
        debug_assert!(idx != 0 && idx <= MAX_INDEX);
        if (idx as usize) < SEG0_SLOTS {
            // SAFETY: same address arithmetic as `slot_ptr`; the stride
            // equality is asserted above.
            unsafe { self.seg0.as_ptr().cast::<N>().add(idx as usize) }
        } else {
            self.slot_ptr_overflow(idx).cast()
        }
    }

    /// Index resolution for slots past segment 0. Out of line: the fast
    /// path must stay small enough to inline into every descent step.
    #[cold]
    fn slot_ptr_overflow(&self, idx: u32) -> *mut u8 {
        let (seg, off) = locate(idx);
        // Acquire pairs with the Release CAS in `segment`; any thread
        // that learned `idx` through a published edge already
        // happens-after the segment's publication, so the pointer is
        // always visible here.
        let base = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!base.is_null(), "slot {idx} resolved before allocation");
        unsafe { base.add(off * self.stride) }
    }

    /// Returns segment `seg`'s base, allocating and publishing it if this
    /// is the first touch. Lock-free: a racing loser frees its fresh
    /// segment and adopts the winner's.
    fn segment(&self, seg: usize) -> *mut u8 {
        let entry = &self.segments[seg];
        let base = entry.load(Ordering::Acquire);
        if !base.is_null() {
            return base;
        }
        let fresh = alloc_segment(seg, self.stride, self.layout.align());
        match entry.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                let layout =
                    Layout::from_size_align(segment_slots(seg) * self.stride, self.layout.align())
                        .expect("segment layout");
                // SAFETY: `fresh` is ours and was never published.
                unsafe { std::alloc::dealloc(fresh, layout) };
                winner
            }
        }
    }

    /// Bump-allocates a fresh slot (never consults the free list). The
    /// returned slot is uninitialized memory of [`layout`](Self::layout),
    /// exclusively owned by the caller.
    ///
    /// Does not count a hit or miss — callers batch accounting through
    /// [`note_usage`](Self::note_usage).
    pub fn bump(&self) -> (u32, NonNull<u8>) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(idx <= MAX_INDEX, "node arena exhausted (2^30 slots)");
        let (seg, off) = locate(idx);
        let base = self.segment(seg);
        // SAFETY: `off` is within the segment by construction.
        let ptr = unsafe { base.add(off * self.stride) };
        (idx, NonNull::new(ptr).expect("segment base is non-null"))
    }

    /// Pops one recycled slot, or `None` if the free list is empty or
    /// contended (the caller then bump-allocates). The returned slot is
    /// uninitialized memory, exclusively owned by the caller.
    ///
    /// Does not count a hit or miss — callers batch accounting through
    /// [`note_usage`](Self::note_usage).
    #[inline]
    pub fn acquire(&self) -> Option<(u32, NonNull<u8>)> {
        let mut out = None;
        self.acquire_batch(1, |idx| out = Some(idx));
        out.map(|idx| {
            (
                idx,
                NonNull::new(self.slot_ptr(idx)).expect("pooled slot resolves"),
            )
        })
    }

    /// Pops up to `max` recycled slots, passing each index to `sink`;
    /// returns the number popped. One lock acquisition for the whole
    /// batch — this is what per-thread caches refill through.
    pub fn acquire_batch(&self, max: usize, mut sink: impl FnMut(u32)) -> usize {
        // Lock-free fast path: an empty pool is the common case in grow-
        // only phases, and it must not pay even an uncontended lock CAS.
        if max == 0 || self.len.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let Some(mut free) = self.free.try_lock() else {
            return 0;
        };
        let take = free.slots.len().min(max);
        for _ in 0..take {
            let idx = free.slots.pop().expect("len checked");
            sink(idx);
        }
        self.len.store(free.slots.len(), Ordering::Relaxed);
        take
    }

    /// Gives a dead slot back to the free list. If the list is full (or
    /// the lock contended), the slot is abandoned in place — counted in
    /// [`PoolStats::dropped`], reclaimed when the arena drops — so
    /// release never blocks.
    ///
    /// # Safety
    ///
    /// `idx` must be a slot of this pool, exclusively owned by the
    /// caller, with its contents already dropped. Ownership transfers to
    /// the pool.
    #[inline]
    pub unsafe fn release(&self, idx: u32) {
        if let Some(mut free) = self.free.try_lock() {
            if free.slots.len() < self.capacity {
                free.slots.push(idx);
                free.recycled += 1;
                self.len.store(free.slots.len(), Ordering::Relaxed);
                return;
            }
        }
        // Full or contended: abandon the slot (arena memory, freed at
        // pool drop).
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Gives many dead slots back in one lock acquisition, draining
    /// `slots`. Slots that do not fit (full or contended) are abandoned
    /// in place. This is what per-thread caches flush through.
    ///
    /// # Safety
    ///
    /// Every index in `slots` must satisfy the [`release`](Self::release)
    /// contract.
    pub unsafe fn release_batch(&self, slots: &mut Vec<u32>) {
        if slots.is_empty() {
            return;
        }
        if let Some(mut free) = self.free.try_lock() {
            while free.slots.len() < self.capacity {
                let Some(idx) = slots.pop() else { break };
                free.slots.push(idx);
                free.recycled += 1;
            }
            self.len.store(free.slots.len(), Ordering::Relaxed);
        }
        let dropped = slots.len() as u64;
        slots.clear();
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Folds a caller's batched hit/miss counts into the pool's stats.
    pub fn note_usage(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters (racy snapshots; exact at quiescence).
    /// Briefly takes the free-list lock (for `recycled`); fine for a
    /// gauge scrape, kept off the operation hot paths.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.free.lock().recycled,
            dropped: self.dropped.load(Ordering::Relaxed),
            // The cursor starts at 1 (index 0 is the null edge) and may
            // overshoot the index space by the failed bumps that panicked.
            slots: u64::from(self.next.load(Ordering::Relaxed).min(MAX_INDEX + 1) - 1),
            len: self.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        for (seg, entry) in self.segments.iter_mut().enumerate() {
            let base = *entry.get_mut();
            if base.is_null() {
                continue;
            }
            let layout =
                Layout::from_size_align(segment_slots(seg) * self.stride, self.layout.align())
                    .expect("segment layout");
            // SAFETY: `base` is an owned allocation of exactly this
            // layout (see `segment`), and `&mut self` proves no other
            // reference to the pool exists.
            unsafe { std::alloc::dealloc(base, layout) };
        }
    }
}

impl std::fmt::Debug for NodePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePool")
            .field("layout", &self.layout)
            .field("capacity", &self.capacity)
            .field("next", &self.next.load(Ordering::Relaxed))
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pool(capacity: usize) -> NodePool {
        NodePool::new(Layout::new::<[u64; 4]>(), capacity)
    }

    #[test]
    fn locate_walks_doubling_segments() {
        const S0: u32 = SEG0_SLOTS as u32;
        // Segment 0: the bias cancels and the offset is the index
        // itself — the invariant the flat fast path relies on.
        assert_eq!(locate(1), (0, 1));
        assert_eq!(locate(S0 - 1), (0, SEG0_SLOTS - 1));
        // First overflow segment holds twice the slots.
        assert_eq!(locate(S0), (1, 0));
        assert_eq!(locate(3 * S0 - 1), (1, 2 * SEG0_SLOTS - 1));
        assert_eq!(locate(3 * S0), (2, 0));
        assert!(locate(MAX_INDEX).0 < SEGMENTS);
    }

    #[test]
    fn typed_resolution_matches_untyped() {
        let pool = test_pool(0);
        let (idx, ptr) = pool.bump();
        assert_eq!(
            pool.slot_ptr_typed::<[u64; 4]>(idx).cast::<u8>(),
            ptr.as_ptr()
        );
        assert_eq!(pool.slot_ptr(idx), ptr.as_ptr());
    }

    #[test]
    fn bump_yields_distinct_stable_slots() {
        let pool = test_pool(4);
        let (i1, p1) = pool.bump();
        let (i2, p2) = pool.bump();
        assert_ne!(i1, i2);
        assert_ne!(p1, p2);
        assert_ne!(i1, 0, "index 0 is the null edge");
        // Resolution is stable and agrees with the allocation.
        assert_eq!(pool.slot_ptr(i1), p1.as_ptr());
        assert_eq!(pool.slot_ptr(i2), p2.as_ptr());
    }

    #[test]
    fn bump_crosses_segment_boundaries() {
        let pool = test_pool(0);
        let mut prev = 0u32;
        // Run past segment 0 into the first lazily-grown overflow
        // segment, writing through every slot near the boundary to let
        // asan catch bad geometry.
        for _ in 0..(SEG0_SLOTS + 200) {
            let (idx, ptr) = pool.bump();
            assert!(idx > prev, "bump repeated or reordered index {idx}");
            prev = idx;
            if idx as usize > SEG0_SLOTS - 100 || idx < 200 {
                unsafe { ptr.as_ptr().cast::<[u64; 4]>().write([idx as u64; 4]) };
                assert_eq!(pool.slot_ptr(idx), ptr.as_ptr());
            }
        }
    }

    #[test]
    fn round_trip_returns_same_slot() {
        let pool = test_pool(4);
        assert!(pool.acquire().is_none(), "fresh pool is empty");
        let (idx, ptr) = pool.bump();
        unsafe { pool.release(idx) };
        assert_eq!(pool.len(), 1);
        let (got, got_ptr) = pool.acquire().expect("pooled slot");
        assert_eq!(got, idx);
        assert_eq!(got_ptr, ptr);
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn lifo_order() {
        let pool = test_pool(4);
        let (a, _) = pool.bump();
        let (b, _) = pool.bump();
        unsafe {
            pool.release(a);
            pool.release(b);
        }
        assert_eq!(pool.acquire().unwrap().0, b, "most recent first");
        assert_eq!(pool.acquire().unwrap().0, a);
    }

    #[test]
    fn overflow_abandons_slots() {
        let pool = test_pool(2);
        for _ in 0..5 {
            let (idx, _) = pool.bump();
            unsafe { pool.release(idx) };
        }
        let s = pool.stats();
        assert_eq!(s.recycled, 2, "capacity bounds the free list");
        assert_eq!(s.dropped, 3, "overflow slots abandoned, not recycled");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn capacity_zero_disables_reuse() {
        let pool = test_pool(0);
        let (idx, _) = pool.bump();
        unsafe { pool.release(idx) };
        assert!(pool.acquire().is_none());
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn batch_acquire_pops_up_to_max() {
        let pool = test_pool(8);
        for _ in 0..5 {
            let (idx, _) = pool.bump();
            unsafe { pool.release(idx) };
        }
        let mut got = Vec::new();
        let n = pool.acquire_batch(3, |idx| got.push(idx));
        assert_eq!(n, 3);
        assert_eq!(pool.len(), 2);
        let n = pool.acquire_batch(10, |idx| got.push(idx));
        assert_eq!(n, 2);
        assert!(pool.acquire().is_none());
    }

    #[test]
    fn usage_counters_accumulate() {
        let pool = test_pool(4);
        pool.note_usage(3, 1);
        pool.note_usage(0, 2);
        let s = pool.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 3);
        assert_eq!(s.capacity, 4);
    }

    #[test]
    fn concurrent_churn_loses_no_slots() {
        // 4 threads alternately bump fresh slots, release them, and
        // acquire them back; every index must stay unique among live
        // owners (checked by writing a thread tag through the slot and
        // reading it back before release).
        let pool = std::sync::Arc::new(test_pool(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..500 {
                        let slot = if i % 2 == 0 {
                            Some(pool.bump())
                        } else {
                            pool.acquire()
                        };
                        if let Some((idx, ptr)) = slot {
                            let cell = ptr.as_ptr().cast::<[u64; 4]>();
                            unsafe {
                                cell.write([t; 4]);
                                assert_eq!((*cell)[3], t, "slot {idx} not exclusive");
                                pool.release(idx);
                            }
                        }
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.len as usize, pool.len());
        assert!(s.len <= 64);
    }
}
