//! Slab arena node storage with an unbounded recycling free list.
//!
//! Since PR 7 the pool *is* the node store: trees no longer `Box` their
//! nodes, they carve fixed-layout slots out of per-tree arena segments
//! and address them with `u32` indices. That buys two things at once:
//!
//! * **Narrow edges.** A child reference inside a tree node is a 32-bit
//!   slot index instead of a 64-bit pointer, so both edges of a node fit
//!   in one 8-byte word-pair and the mark and kind bits ride in the low
//!   bits of a `u32`.
//! * **A closed allocation loop.** Retired slots flow through the
//!   reclaimer's grace period back onto the free list (retire → grace
//!   period → recycle → realloc) — and even the *miss* path (bump
//!   allocation) stays inside the arena, so steady state never touches
//!   `malloc`.
//!
//! A tree owns one pool per node class (routing nodes and each size
//! class of leaf blocks have different layouts), so each pool serves
//! exactly one slot size.
//!
//! # Geometry
//!
//! Slots live in doubling segments: segment `s` holds `2^18 << s`
//! slots, and 11 segments cover indices up to 2²⁸ (the widest index an
//! edge word can carry next to its two mark bits and its two kind
//! bits).
//! Index 0 is reserved. Segment bases are cache-line aligned, so a slot
//! whose stride divides 64 never straddles a line.
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
//! is ABA-safe by construction (DESIGN.md §11, §14). The pool never
//! abandons a slot: every released index is kept for reuse, so the
//! arena's high-water mark is bounded by what is live, cached and
//! awaiting reclamation, not by how many operations ran.
//!
//! # Concurrency
//!
//! The free list is an unbounded LIFO stack under a spin lock that
//! backs off by yielding. It is threaded through the dead slots
//! themselves: the list keeps only the top index, and each free slot's
//! first four bytes hold the index below it. So it owns no buffer,
//! never allocates and never reallocates, however long it grows. An
//! empty list is detected without the lock (the caller bump-allocates
//! at once); a non-empty one is always popped, waiting for the lock if
//! it is held, so no slot sits free while the bump cursor advances.
//! Releases wait for the lock the same way. Both critical sections are
//! a few link reads or writes; a thread only ever waits for another
//! thread's handful of index moves.

use nmbst_sync::SpinLock;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// log2 of the first segment's slot count.
const SEG0_BITS: u32 = 18;
/// Slot count of the eagerly allocated segment 0; indices below this
/// take `slot_ptr`'s flat fast path.
const SEG0_SLOTS: usize = 1 << SEG0_BITS;
/// Number of doubling segments; together they cover indices past 2²⁸.
const SEGMENTS: usize = 11;
/// Largest allocatable index: an edge word keeps 2 bits for marks and
/// 2 for the head's node kind (a route or one of three leaf classes).
pub const MAX_INDEX: u32 = (1 << 28) - 1;
/// Alignment of every segment base: one cache line.
const SEGMENT_ALIGN: usize = 64;
/// Bytes at the start of a free slot that hold the free-list link.
const LINK_BYTES: usize = std::mem::size_of::<u32>();

/// Point-in-time counters of one [`NodePool`]; see [`NodePool::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from recycled free-list slots instead of
    /// fresh (bump-allocated) arena space.
    pub hits: u64,
    /// Allocations the free list could not serve (it was empty); the
    /// caller bump-allocated a fresh slot.
    pub misses: u64,
    /// Slots accepted into the free list (from recycling deferrals and
    /// cache give-backs).
    pub recycled: u64,
    /// Slots the bump cursor has handed out. The arena never frees a
    /// slot, so this is its high-water mark.
    pub slots: u64,
    /// Current free-list length (racy snapshot).
    pub len: u64,
    /// Free slots held in per-thread allocation caches, as each cache
    /// last published it on flush (racy gauge; 0 once every cache has
    /// dropped).
    pub cached: u64,
}

impl std::ops::AddAssign for PoolStats {
    /// Field-wise sum: the view of several pools (a tree's classes, or
    /// the trees of a sharded store) as one.
    fn add_assign(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.slots += other.slots;
        self.len += other.len;
        self.cached += other.cached;
    }
}

/// A slab arena of fixed-layout slots addressed by `u32` indices, with an
/// unbounded LIFO free list recycling retired slots.
///
/// One pool serves one slot layout (one node type). LIFO because
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
    /// Slots held in per-thread caches, as last published by each cache
    /// (see [`note_cached`](Self::note_cached)).
    cached: AtomicU64,
}

/// The lock-protected half of the pool. `recycled` lives here (not as an
/// atomic) because it is only ever bumped while the push already holds
/// the lock — keeping the per-slot release path at a single RMW (the
/// lock acquisition itself).
struct FreeList {
    /// The most recently released free slot, 0 (the null edge) if none;
    /// each free slot links to the one released before it.
    head: u32,
    len: usize,
    recycled: u64,
}

// SAFETY: segment pointers are owned allocations freed only in Drop, the
// free list's links live in slots the pool owns, and all free-list access
// is synchronized by the spin lock.
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
fn alloc_segment(seg: usize, stride: usize) -> *mut u8 {
    // SAFETY: non-zero size (stride > 0, slots > 0).
    let ptr = unsafe { std::alloc::alloc(segment_layout(seg, stride)) };
    assert!(!ptr.is_null(), "arena segment allocation failed");
    ptr
}

/// The allocation layout of segment `seg`. The cache-line alignment
/// also satisfies every slot layout whose alignment is at most 64.
fn segment_layout(seg: usize, stride: usize) -> Layout {
    Layout::from_size_align(segment_slots(seg) * stride, SEGMENT_ALIGN).expect("segment layout")
}

impl NodePool {
    /// Creates an empty arena for slots of `layout`. Slots smaller than
    /// a free-list link (four bytes) and alignments above a cache line
    /// are rejected.
    pub fn new(layout: Layout) -> Self {
        assert!(
            layout.size() >= LINK_BYTES,
            "slots must hold a free-list link"
        );
        assert!(
            layout.align() <= SEGMENT_ALIGN,
            "slot alignment above a cache line"
        );
        let stride = layout.pad_to_align().size();
        let seg0 = alloc_segment(0, stride);
        let segments = [const { AtomicPtr::new(std::ptr::null_mut()) }; SEGMENTS];
        segments[0].store(seg0, Ordering::Relaxed);
        NodePool {
            layout,
            stride,
            seg0: NonNull::new(seg0).expect("checked non-null above"),
            segments,
            next: AtomicU32::new(1),
            free: SpinLock::new(FreeList {
                head: 0,
                len: 0,
                recycled: 0,
            }),
            len: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cached: AtomicU64::new(0),
        }
    }

    /// The one slot layout this arena serves.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Distance in bytes between consecutive slots (the slot size).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
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
        let fresh = alloc_segment(seg, self.stride);
        match entry.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` is ours and was never published.
                unsafe { std::alloc::dealloc(fresh, segment_layout(seg, self.stride)) };
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
        assert!(idx <= MAX_INDEX, "node arena exhausted (2^28 slots)");
        let (seg, off) = locate(idx);
        let base = self.segment(seg);
        // SAFETY: `off` is within the segment by construction.
        let ptr = unsafe { base.add(off * self.stride) };
        (idx, NonNull::new(ptr).expect("segment base is non-null"))
    }

    /// The free-list link stored in free slot `idx`.
    ///
    /// # Safety
    ///
    /// `idx` is on the free list, so the pool owns its slot.
    #[inline]
    unsafe fn link(&self, idx: u32) -> u32 {
        // SAFETY: the slot is at least `LINK_BYTES` long (checked in
        // `new`) and owned by the pool; slots of an odd stride may be
        // unaligned.
        unsafe { self.slot_ptr(idx).cast::<u32>().read_unaligned() }
    }

    /// Makes dead slot `idx` link to `below` on the free list.
    ///
    /// # Safety
    ///
    /// The caller owns slot `idx` and is handing it to the pool.
    #[inline]
    unsafe fn set_link(&self, idx: u32, below: u32) {
        // SAFETY: as `link`.
        unsafe { self.slot_ptr(idx).cast::<u32>().write_unaligned(below) }
    }

    /// Pops one recycled slot, or `None` if the free list is empty (the
    /// caller then bump-allocates). The returned slot is
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
    ///
    /// A list that looks non-empty is always popped: a held lock is
    /// waited for (yielding backoff), never answered with "empty", so a
    /// free slot is never passed over for a fresh bump.
    pub fn acquire_batch(&self, max: usize, mut sink: impl FnMut(u32)) -> usize {
        // Lock-free fast path: an empty pool is the common case in grow-
        // only phases, and it must not pay even an uncontended lock CAS.
        if max == 0 || self.len.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut free = self.free.lock();
        let take = free.len.min(max);
        for _ in 0..take {
            let idx = free.head;
            // SAFETY: `idx` is on the free list.
            free.head = unsafe { self.link(idx) };
            sink(idx);
        }
        free.len -= take;
        self.len.store(free.len, Ordering::Relaxed);
        take
    }

    /// Gives a dead slot back to the free list, waiting for the lock
    /// (yielding backoff) if another thread holds it.
    ///
    /// # Safety
    ///
    /// `idx` must be a slot of this pool, exclusively owned by the
    /// caller, with its contents already dropped. Ownership transfers to
    /// the pool.
    #[inline]
    pub unsafe fn release(&self, idx: u32) {
        let mut free = self.free.lock();
        // SAFETY: forwarded contract.
        unsafe { self.set_link(idx, free.head) };
        free.head = idx;
        free.len += 1;
        free.recycled += 1;
        self.len.store(free.len, Ordering::Relaxed);
    }

    /// Gives many dead slots back in one lock acquisition, draining
    /// `slots`. This is what per-thread caches flush through.
    ///
    /// # Safety
    ///
    /// Every index in `slots` must satisfy the [`release`](Self::release)
    /// contract.
    pub unsafe fn release_batch(&self, slots: &mut Vec<u32>) {
        let (Some(&bottom), Some(&top)) = (slots.first(), slots.last()) else {
            return;
        };
        // Chain the batch outside the lock, the last slot on top, as if
        // each had been released in turn; only its bottom link waits for
        // the list's head.
        for pair in slots.windows(2) {
            // SAFETY: forwarded contract.
            unsafe { self.set_link(pair[1], pair[0]) };
        }
        let mut free = self.free.lock();
        // SAFETY: forwarded contract.
        unsafe { self.set_link(bottom, free.head) };
        free.head = top;
        free.len += slots.len();
        free.recycled += slots.len() as u64;
        self.len.store(free.len, Ordering::Relaxed);
        drop(free);
        slots.clear();
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

    /// Moves a cache's published share of the
    /// [`cached`](PoolStats::cached) gauge from `old` to `new` slots. A
    /// cache only ever takes back what it added, so the sum never
    /// underflows.
    pub fn note_cached(&self, old: usize, new: usize) {
        if new > old {
            self.cached.fetch_add((new - old) as u64, Ordering::Relaxed);
        } else if old > new {
            self.cached.fetch_sub((old - new) as u64, Ordering::Relaxed);
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
            // The cursor starts at 1 (index 0 is the null edge) and may
            // overshoot the index space by the failed bumps that panicked.
            slots: u64::from(self.next.load(Ordering::Relaxed).min(MAX_INDEX + 1) - 1),
            len: self.len() as u64,
            cached: self.cached.load(Ordering::Relaxed),
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
            // SAFETY: `base` is an owned allocation of exactly this
            // layout (see `segment`), and `&mut self` proves no other
            // reference to the pool exists.
            unsafe { std::alloc::dealloc(base, segment_layout(seg, self.stride)) };
        }
    }
}

impl std::fmt::Debug for NodePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePool")
            .field("layout", &self.layout)
            .field("next", &self.next.load(Ordering::Relaxed))
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pool() -> NodePool {
        NodePool::new(Layout::new::<[u64; 4]>())
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
        let pool = test_pool();
        let (idx, ptr) = pool.bump();
        assert_eq!(
            pool.slot_ptr_typed::<[u64; 4]>(idx).cast::<u8>(),
            ptr.as_ptr()
        );
        assert_eq!(pool.slot_ptr(idx), ptr.as_ptr());
    }

    #[test]
    fn bump_yields_distinct_stable_slots() {
        let pool = test_pool();
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
        let pool = test_pool();
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
        let pool = test_pool();
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
        let pool = test_pool();
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
    fn free_list_is_unbounded() {
        let pool = test_pool();
        let mut batch = Vec::new();
        for i in 0..5000 {
            let (idx, _) = pool.bump();
            if i % 2 == 0 {
                unsafe { pool.release(idx) };
            } else {
                batch.push(idx);
            }
        }
        unsafe { pool.release_batch(&mut batch) };
        assert!(batch.is_empty(), "release_batch drains its input");
        let s = pool.stats();
        assert_eq!(s.recycled, 5000, "every released slot is kept");
        assert_eq!(pool.len(), 5000);
        // Reuse comes before the bump cursor moves again.
        for _ in 0..5000 {
            assert!(pool.acquire().is_some());
        }
        assert_eq!(pool.stats().slots, 5000);
    }

    #[test]
    fn slot_index_space_is_28_bits() {
        // Edge words keep four low bits (two marks, two node-kind bits).
        assert_eq!(MAX_INDEX, (1 << 28) - 1);
        assert_eq!(u32::MAX >> 4, MAX_INDEX);
        // The last segment is the one the largest index lands in.
        assert_eq!(locate(MAX_INDEX).0, SEGMENTS - 1);
    }

    #[test]
    fn segment_bases_are_cache_line_aligned() {
        let pool = NodePool::new(Layout::new::<[u64; 4]>());
        assert_eq!(
            pool.slot_ptr(1) as usize % 64,
            32,
            "slot 1 is one stride past the base"
        );
        let pool = NodePool::new(Layout::new::<[u64; 17]>());
        assert_eq!(pool.stride(), 136);
        assert_eq!((pool.slot_ptr(1) as usize - 136) % 64, 0);
    }

    #[test]
    fn batch_acquire_pops_up_to_max() {
        let pool = test_pool();
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
        let pool = test_pool();
        pool.note_usage(3, 1);
        pool.note_usage(0, 2);
        let s = pool.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn cached_gauge_sums_each_caches_last_published_share() {
        let pool = test_pool();
        pool.note_cached(0, 5); // cache A publishes 5
        pool.note_cached(0, 3); // cache B publishes 3
        pool.note_cached(5, 2); // A shrinks to 2
        assert_eq!(pool.stats().cached, 5);
        pool.note_cached(2, 2); // no change, no traffic
        pool.note_cached(3, 0); // B drops
        pool.note_cached(2, 0); // A drops
        assert_eq!(pool.stats().cached, 0);
        let mut sum = pool.stats();
        sum += PoolStats {
            cached: 4,
            slots: 1,
            ..PoolStats::default()
        };
        assert_eq!((sum.cached, sum.slots), (4, 1));
    }

    #[test]
    fn concurrent_churn_loses_no_slots() {
        // 4 threads alternately bump fresh slots, release them, and
        // acquire them back; every index must stay unique among live
        // owners (checked by writing a thread tag through the slot and
        // reading it back before release).
        let pool = std::sync::Arc::new(test_pool());
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
        // Nothing is abandoned: every slot ever bumped is back on the
        // free list once all owners released it.
        assert_eq!(s.len, s.slots, "{s:?}");
    }

    #[test]
    fn contended_churn_never_bumps_past_the_working_set() {
        // Two threads each hold at most 4 slots at a time, releasing and
        // re-acquiring through the shared list. A contended pop waits for
        // the lock instead of bumping, so the arena stays near the slots
        // ever held at once (2 x 4). The empty check is a relaxed load,
        // so a pop racing a release can see the list empty a moment
        // before the release lands; each such bump adds a slot that
        // keeps the list non-empty from then on, so the overshoot stays
        // a few slots. The try-lock pool this replaced bumped on every
        // contended pop and grew by thousands here.
        let pool = std::sync::Arc::new(test_pool());
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for _ in 0..20_000 {
                        while held.len() < 4 {
                            let idx = pool.acquire().map_or_else(|| pool.bump().0, |s| s.0);
                            held.push(idx);
                        }
                        unsafe { pool.release_batch(&mut held) };
                    }
                });
            }
        });
        let s = pool.stats();
        assert!(s.slots <= 16, "arena grew past the working set: {s:?}");
        assert_eq!(s.len, s.slots, "{s:?}");
    }
}
