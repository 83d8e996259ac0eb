//! Pool-aware node allocation over the tree's arena slabs: the
//! recycling layer, built on the arenas' slot storage.
//!
//! The shared [`NodePool`]s are not an *optional* free list in front of
//! `malloc` — they **are** the node store. Every tree owns one arena per
//! node class ([`Arenas`]): 32-byte routes in one, and leaf blocks in
//! one per leaf size class (4, 6 or 8 entries), each with its own index
//! space, free list and counters. Every node the tree ever creates is a
//! `u32` slot in its class's arena:
//!
//! * **retire → recycle**: the cleanup routine retires detached nodes
//!   with a *recycle deferral* ([`recycle_route_deferred`],
//!   [`recycle_leaf_deferred`]) instead of a plain drop; when the
//!   reclaimer proves the grace period elapsed, the deferral drops what
//!   the node still owns (for a leaf, the entries its drop hint names)
//!   and pushes the slot onto its own class's free list.
//! * **alloc → reuse**: allocation goes through a [`NodeCache`] — a
//!   per-handle (or per-call) unsynchronized cache over all the pools,
//!   one stash per class — so hot loops pop recycled slots without touching
//!   shared state, and fall through to the arena's bump cursor (never
//!   `malloc`) only when the shared free list is empty.
//!
//! Reuse is ABA-safe *by construction*: the deferral only runs once no
//! live reference to the slot can exist, which is exactly the guarantee
//! reclamation already provides for freeing (DESIGN.md §11, §14). Under
//! [`Leaky`](nmbst_reclaim::Leaky) (`Reclaim::RECLAIMS == false`)
//! deferrals never run, so retired slots keep leaking inside the arena —
//! the free list then only ever reuses insert scratch that was discarded
//! unpublished.

use crate::chaos::{self, Action, Point};
use crate::node::{drop_leaf_contents, drop_route_contents, Leaf, Route, LEAF_CLASSES};
use crate::stats;
use nmbst_reclaim::{Deferred, NodePool, PoolStats};
use std::alloc::Layout;
use std::sync::Arc;

/// How many slots of each class a handle's [`NodeCache`] keeps
/// privately. Refills and give-backs move slots between this cache and
/// the shared pool in batches, so the shared lock is touched once per
/// ~batch, not per node.
pub(crate) const HANDLE_CACHE_CAP: usize = 32;

/// Slots moved from the shared pool into a cache per refill.
const REFILL_BATCH: usize = 8;

/// A tree's node store: one arena per node class. Shared by `Arc`
/// between the tree and the keepalive it parks in its reclaimer (see
/// [`recycle_route_deferred`]).
pub(crate) struct Arenas {
    /// Slots of [`Route<K>`].
    pub(crate) routes: NodePool,
    /// Slots of [`Leaf<K, V>`], one arena per size class (indexed like
    /// `node::LEAF_CLASS_CAPS`).
    pub(crate) leaves: [NodePool; LEAF_CLASSES],
}

/// Node classes of a tree, one arena each: routes, then the leaf size
/// classes in `node::LEAF_CLASS_CAPS` order.
pub(crate) const NODE_CLASSES: usize = 1 + LEAF_CLASSES;

/// Point-in-time gauges of a tree's [`Arenas`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaStats {
    /// Each arena's counters, in [`NODE_CLASSES`] order.
    pub(crate) classes: [PoolStats; NODE_CLASSES],
    /// Bytes of slots handed out across all arenas.
    pub(crate) bytes: u64,
}

impl Arenas {
    /// The arenas of a `NmTreeMap<K, V>`.
    pub(crate) fn new<K, V>() -> Self {
        Arenas {
            routes: NodePool::new(Layout::new::<Route<K>>()),
            leaves: std::array::from_fn(|class| NodePool::new(Leaf::<K, V>::slot_layout(class))),
        }
    }

    /// The arenas in [`NODE_CLASSES`] order.
    fn pools(&self) -> [&NodePool; NODE_CLASSES] {
        std::array::from_fn(|c| match c {
            0 => &self.routes,
            c => &self.leaves[c - 1],
        })
    }

    /// Every arena's counters and the slot bytes they commit.
    pub(crate) fn stats(&self) -> ArenaStats {
        let pools = self.pools();
        let classes = pools.map(NodePool::stats);
        let bytes = pools
            .iter()
            .zip(&classes)
            .map(|(pool, s)| s.slots * pool.stride() as u64)
            .sum();
        ArenaStats { classes, bytes }
    }
}

/// One class's half of a [`NodeCache`]: a private stash of free slot
/// indices plus batched hit/miss counts.
struct SlotCache {
    local: Vec<u32>,
    hits: u64,
    misses: u64,
    /// `local.len()` as last published to the pool's cached gauge.
    published: usize,
}

impl SlotCache {
    const fn new() -> Self {
        SlotCache {
            local: Vec::new(),
            hits: 0,
            misses: 0,
            published: 0,
        }
    }

    /// One uninitialized slot of `pool`: recycled if the stash or the
    /// shared list has one, bump-allocated otherwise.
    #[inline]
    fn alloc(&mut self, pool: &NodePool) -> (u32, *mut u8) {
        if let Some(idx) = self.local.pop().or_else(|| refill(&mut self.local, pool)) {
            self.hits += 1;
            stats::record_pool_hit();
            return (idx, pool.slot_ptr(idx));
        }
        self.misses += 1;
        stats::record_alloc();
        let (idx, ptr) = pool.bump();
        (idx, ptr.as_ptr())
    }

    /// # Safety
    ///
    /// `idx` satisfies [`NodePool::release`]'s contract for `pool`.
    #[inline]
    unsafe fn free(&mut self, pool: &NodePool, idx: u32, cap: usize) {
        if self.local.len() < cap {
            self.local.push(idx);
        } else {
            // SAFETY: forwarded contract.
            unsafe { pool.release(idx) };
        }
    }

    /// Publishes the batched hit/miss counts and, if it changed, the
    /// stash size to the pool's cached gauge.
    fn flush_counters(&mut self, pool: &NodePool) {
        if self.hits != 0 || self.misses != 0 {
            pool.note_usage(self.hits, self.misses);
            self.hits = 0;
            self.misses = 0;
        }
        if self.local.len() != self.published {
            pool.note_cached(self.published, self.local.len());
            self.published = self.local.len();
        }
    }
}

/// An unsynchronized allocation cache over a tree's [`Arenas`], one
/// stash per node class (routes and each leaf size class).
///
/// Handles keep one alive across operations (capacity
/// [`HANDLE_CACHE_CAP`] per class); the plain API builds a transient
/// zero-capacity one per modify call, which then reads/writes the shared
/// pools directly. Either way this is the single choke point where node
/// slots enter and leave an operation, so hit/miss accounting batches
/// here in plain fields and flushes to the pools' atomics on drop/repin.
pub(crate) struct NodeCache<'t> {
    arenas: &'t Arenas,
    local_cap: usize,
    routes: SlotCache,
    leaves: [SlotCache; LEAF_CLASSES],
}

impl<'t> NodeCache<'t> {
    /// A transient cache that keeps nothing locally (plain-API calls).
    pub(crate) fn direct(arenas: &'t Arenas) -> Self {
        Self::with_local(arenas, 0)
    }

    /// A cache holding up to `local_cap` slots of each class privately
    /// (handles).
    pub(crate) fn with_local(arenas: &'t Arenas, local_cap: usize) -> Self {
        NodeCache {
            arenas,
            local_cap,
            routes: SlotCache::new(),
            leaves: [const { SlotCache::new() }; LEAF_CLASSES],
        }
    }

    /// Carves out one uninitialized route slot. Returns the slot's index
    /// and its (stable) address; the caller must initialize it before
    /// the route can be published or freed.
    #[inline]
    pub(crate) fn alloc_route<K>(&mut self) -> (u32, *mut Route<K>) {
        debug_assert_eq!(Layout::new::<Route<K>>(), self.arenas.routes.layout());
        let (idx, ptr) = self.routes.alloc(&self.arenas.routes);
        (idx, ptr.cast())
    }

    /// [`alloc_route`](Self::alloc_route) for a leaf slot of size class
    /// `class`; the caller must write the header before anything else.
    #[inline]
    pub(crate) fn alloc_leaf<K, V>(&mut self, class: usize) -> (u32, *mut Leaf<K, V>) {
        let pool = &self.arenas.leaves[class];
        debug_assert_eq!(Leaf::<K, V>::slot_layout(class), pool.layout());
        let (idx, ptr) = self.leaves[class].alloc(pool);
        (idx, ptr.cast())
    }

    /// Returns a route's slot to the cache/pool. The route must already
    /// be a *shell*: its routing key was dropped by the caller.
    ///
    /// # Safety
    ///
    /// `node` must be an exclusively owned, never-published (or fully
    /// unlinked and grace-period-expired) slot of this cache's route
    /// arena, with its contents already dropped.
    pub(crate) unsafe fn free_route_shell<K>(&mut self, node: *mut Route<K>) {
        // SAFETY: the slot is exclusively owned per contract; `idx` is
        // plain data, valid even after the contents were dropped.
        let idx = unsafe { (*node).idx };
        // SAFETY: slot provenance and dead contents per contract.
        unsafe { self.routes.free(&self.arenas.routes, idx, self.local_cap) };
    }

    /// [`free_route_shell`](Self::free_route_shell) for a leaf, which
    /// goes back to its own size class: whatever entries it owned were
    /// dropped (or moved out) by the caller.
    ///
    /// # Safety
    ///
    /// As [`free_route_shell`](Self::free_route_shell), for the leaf
    /// arenas; the header must still be intact.
    pub(crate) unsafe fn free_leaf_shell<K, V>(&mut self, node: *mut Leaf<K, V>) {
        // SAFETY: as `free_route_shell`; the header is plain data that
        // outlives the entries.
        let (idx, class) = unsafe { ((*node).idx, (*node).class()) };
        // SAFETY: as `free_route_shell`.
        unsafe { self.leaves[class].free(&self.arenas.leaves[class], idx, self.local_cap) };
    }

    /// Publishes batched hit/miss counts and the stash sizes into the
    /// shared pools' stats.
    pub(crate) fn flush_counters(&mut self) {
        self.routes.flush_counters(&self.arenas.routes);
        for (cache, pool) in self.leaves.iter_mut().zip(&self.arenas.leaves) {
            cache.flush_counters(pool);
        }
    }
}

fn refill(local: &mut Vec<u32>, pool: &NodePool) -> Option<u32> {
    let mut first = None;
    pool.acquire_batch(REFILL_BATCH, |idx| {
        if first.is_none() {
            first = Some(idx);
        } else {
            local.push(idx);
        }
    });
    first
}

impl Drop for NodeCache<'_> {
    fn drop(&mut self) {
        // SAFETY: every cached slot satisfies the release contract (came
        // from its class's pool, contents dropped before caching).
        unsafe {
            self.arenas.routes.release_batch(&mut self.routes.local);
            for (cache, pool) in self.leaves.iter_mut().zip(&self.arenas.leaves) {
                pool.release_batch(&mut cache.local);
            }
        }
        // The stashes are empty now: this takes back the cached share.
        self.flush_counters();
    }
}

/// Builds the deferral that recycles `node` once its grace period has
/// elapsed: drop its routing key, then hand the slot back to the route
/// pool (the [`Point::Recycle`] chaos hook can abandon it in place
/// instead).
///
/// The deferral carries only a *raw* pointer to the pool — no per-node
/// refcount traffic. The tree makes that sound by parking an `Arc` clone
/// of its [`Arenas`] inside the reclaimer
/// ([`Reclaim::hold`](nmbst_reclaim::Reclaim::hold)) at construction:
/// the reclaimer guarantees the token outlives every deferral it runs,
/// including on straggling collector threads.
///
/// # Safety
///
/// `node` must be unlinked and retired exactly once (the
/// [`RetireGuard::retire_deferred`](nmbst_reclaim::RetireGuard) contract
/// transfers to the caller) and must be a slot of `arenas.routes`. The
/// scheme running the deferral must prove the grace period before
/// calling it, and the caller must have parked an arenas keepalive in
/// that scheme (see above) so the pool is alive whenever the deferral
/// can run.
pub(crate) unsafe fn recycle_route_deferred<K: Send>(
    node: *mut Route<K>,
    arenas: &Arc<Arenas>,
) -> Deferred {
    unsafe fn recycle<K>(data: *mut (), ctx: *mut ()) {
        let node = data.cast::<Route<K>>();
        // SAFETY: the grace period elapsed — this deferral is the unique
        // owner. Read the slot index out before the contents die.
        let idx = unsafe { (*node).idx };
        // SAFETY: unique ownership.
        unsafe { drop_route_contents(node) };
        // SAFETY: keepalive and slot provenance per the contract.
        unsafe { give_back(ctx, idx) };
    }
    let ctx = (&arenas.routes as *const NodePool).cast_mut().cast();
    // SAFETY: `recycle::<K>` releases exactly once; `K: Send` makes
    // running it on a collector thread sound; leaking it uncalled
    // (Leaky) leaks only the slot's key, as intended.
    unsafe { Deferred::from_raw(node.cast(), ctx, recycle::<K>) }
}

/// [`recycle_route_deferred`] for a leaf: the deferral drops the entries
/// the leaf's drop hint says it still owns and hands the slot back to
/// the arena of the leaf's own size class.
///
/// # Safety
///
/// As [`recycle_route_deferred`], for a leaf slot of `arenas` whose
/// drop hint already describes which entries it still owns.
pub(crate) unsafe fn recycle_leaf_deferred<K: Send, V: Send>(
    node: *mut Leaf<K, V>,
    arenas: &Arc<Arenas>,
) -> Deferred {
    unsafe fn recycle<K, V>(data: *mut (), ctx: *mut ()) {
        let node = data.cast::<Leaf<K, V>>();
        // SAFETY: as in `recycle_route_deferred`.
        let idx = unsafe { (*node).idx };
        // SAFETY: unique ownership; the drop hint was set before retire.
        unsafe { drop_leaf_contents(node) };
        // SAFETY: keepalive and slot provenance per the contract.
        unsafe { give_back(ctx, idx) };
    }
    // SAFETY: `node` is a live, unlinked leaf whose header names its
    // class.
    let class = unsafe { (*node).class() };
    let ctx = (&arenas.leaves[class] as *const NodePool).cast_mut().cast();
    // SAFETY: as in `recycle_route_deferred`, with `V: Send` too.
    unsafe { Deferred::from_raw(node.cast(), ctx, recycle::<K, V>) }
}

/// The tail of every recycle deferral: release `idx` to the pool `ctx`
/// points at, unless the [`Point::Recycle`] chaos hook says to abandon
/// it in place (arena memory, reclaimed when the pool drops).
///
/// # Safety
///
/// `ctx` points at a live [`NodePool`] and `idx` is a dead slot of it.
unsafe fn give_back(ctx: *mut (), idx: u32) {
    if chaos::hit(Point::Recycle) == Action::Abandon {
        return;
    }
    // SAFETY: per contract.
    unsafe { (*ctx.cast::<NodePool>()).release(idx) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::node::{HINT_ALL, HINT_NONE};
    use crate::packed::Edge;

    unsafe fn free_leaf<K, V>(cache: &mut NodeCache<'_>, leaf: *mut Leaf<K, V>) {
        unsafe {
            drop_leaf_contents(leaf);
            cache.free_leaf_shell(leaf);
        }
    }

    #[test]
    fn alloc_free_round_trip_reuses_slot() {
        let arenas = Arenas::new::<u64, u64>();
        let mut cache = NodeCache::direct(&arenas);
        let a = Leaf::<u64, u64>::new_user_in(&mut cache, 1, 10);
        unsafe { free_leaf(&mut cache, a) };
        let b = Leaf::<u64, u64>::new_user_in(&mut cache, 2, 20);
        assert_eq!(a, b, "freed slot is reused LIFO");
        unsafe { free_leaf(&mut cache, b) };
        drop(cache);
        let s = arenas.leaves[0].stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(arenas.routes.stats().misses, 0, "no route was allocated");
    }

    #[test]
    fn classes_recycle_into_their_own_arena() {
        let arenas = Arenas::new::<u64, u64>();
        let mut cache = NodeCache::direct(&arenas);
        let l = Leaf::<u64, u64>::new_user_in(&mut cache, 1, 10);
        let m = Leaf::<u64, u64>::new_user_in(&mut cache, 2, 20);
        // Formed while the leaves live: a free slot's header holds the
        // free-list link, not its old index.
        let (el, em) = (Edge::<u64, u64>::of_leaf(l), Edge::of_leaf(m));
        let r = Route::new_in(&mut cache, Key::Fin(2), el, em);
        unsafe {
            drop_route_contents(r);
            cache.free_route_shell(r);
            free_leaf(&mut cache, l);
            free_leaf(&mut cache, m);
        }
        assert_eq!((arenas.routes.len(), arenas.leaves[0].len()), (1, 2));
        // A route allocation reuses the route slot, never a leaf slot.
        let r2 = Route::new_in(&mut cache, Key::<u64>::Inf0, el, em);
        assert_eq!(r2, r);
        assert_eq!((arenas.routes.len(), arenas.leaves[0].len()), (0, 2));
        unsafe {
            drop_route_contents(r2);
            cache.free_route_shell(r2);
        }
        drop(cache);
        let s = arenas.stats();
        let slots = s.classes.map(|c| c.slots);
        assert_eq!(slots, [1, 2, 0, 0], "one route, two class-4 leaves");
        assert_eq!(
            s.bytes,
            32 + 2 * 72,
            "committed slot bytes per class stride"
        );
        let (route, leaf) = (s.classes[0], s.classes[1]);
        assert_eq!((route.hits, route.misses), (1, 1));
        assert_eq!((leaf.hits, leaf.misses), (0, 2));
    }

    #[test]
    fn handle_caches_publish_their_stash_on_flush_and_drop() {
        let arenas = Arenas::new::<u64, ()>();
        let cached = |a: &Arenas| a.stats().classes.map(|c| c.cached);
        let mut cache = NodeCache::with_local(&arenas, 16);
        let leaves: Vec<_> = (0..5)
            .map(|i| Leaf::<u64, ()>::new_user_in(&mut cache, i, ()))
            .collect();
        for l in leaves {
            unsafe { free_leaf(&mut cache, l) };
        }
        assert_eq!(
            cached(&arenas),
            [0; NODE_CLASSES],
            "published on flush only"
        );
        cache.flush_counters();
        assert_eq!(cached(&arenas), [0, 5, 0, 0]);
        let _ = Leaf::<u64, ()>::new_user_in(&mut cache, 9, ());
        cache.flush_counters();
        assert_eq!(cached(&arenas), [0, 4, 0, 0], "the gauge follows the stash");
        drop(cache);
        assert_eq!(
            cached(&arenas),
            [0; NODE_CLASSES],
            "a dropped cache holds nothing"
        );
        assert_eq!(arenas.leaves[0].len(), 4, "its stash went to the free list");
    }

    #[test]
    fn local_cache_batches_shared_traffic() {
        let arenas = Arenas::new::<u64, ()>();
        // Seed the shared pool with a few slots.
        {
            let mut seed = NodeCache::direct(&arenas);
            let nodes: Vec<_> = (0..6)
                .map(|i| Leaf::<u64, ()>::new_user_in(&mut seed, i, ()))
                .collect();
            for n in nodes {
                unsafe { free_leaf(&mut seed, n) };
            }
        }
        assert_eq!(arenas.leaves[0].len(), 6);
        let mut cache = NodeCache::with_local(&arenas, 16);
        // One alloc refills a batch: the shared pool drains more than one.
        let n = Leaf::<u64, ()>::new_user_in(&mut cache, 9, ());
        assert!(arenas.leaves[0].len() < 6);
        unsafe { free_leaf(&mut cache, n) };
        drop(cache); // gives all cached slots back
        assert_eq!(arenas.leaves[0].len(), 6);
    }

    #[test]
    fn recycle_deferred_honours_drop_hints() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let arenas = Arc::new(Arenas::new::<u64, D>());
        let mut cache = NodeCache::direct(&arenas);
        let moved = Leaf::<u64, D>::new_user_in(&mut cache, 1, D(Arc::clone(&drops)));
        let owned = Leaf::<u64, D>::new_user_in(&mut cache, 2, D(Arc::clone(&drops)));
        drop(cache);
        unsafe {
            // A COW-replaced block: its entry moved on, nothing drops.
            (*moved).set_drop_hint(HINT_NONE);
            recycle_leaf_deferred(moved, &arenas).call();
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            // But the orphaned entry must be dropped by *someone*; here
            // the test plays the replacement block's role.
            (*owned).set_drop_hint(HINT_ALL);
            recycle_leaf_deferred(owned, &arenas).call();
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        }
        assert_eq!(
            arenas.leaves[0].len(),
            2,
            "both slots recycled, not abandoned"
        );
    }

    #[test]
    fn recycle_deferred_returns_each_slot_to_its_class() {
        let arenas = Arc::new(Arenas::new::<u64, u64>());
        let free_lists = |a: &Arenas| (a.routes.len(), a.leaves.each_ref().map(NodePool::len));
        let mut cache = NodeCache::direct(&arenas);
        // One leaf of each size class: 1, 5 and 7 entries.
        let mut blocks = vec![Leaf::<u64, u64>::new_user_in(&mut cache, 0, 0)];
        for k in 1..7u64 {
            let last = *blocks.last().unwrap();
            let next = unsafe { Leaf::block_insert_copy(&mut cache, &*last, k as usize, k, k) };
            blocks.push(next);
        }
        let (small, mid, large) = (blocks[0], blocks[4], blocks[6]);
        let sentinel = Leaf::<u64, u64>::new_sentinel_in(&mut cache, Key::Inf0);
        let route = Route::new_in(
            &mut cache,
            Key::Fin(7),
            Edge::of_leaf(large),
            Edge::of_leaf(sentinel),
        );
        // The blocks in between share their entries with the three kept
        // ones: free them as replaced shells.
        for &b in blocks
            .iter()
            .filter(|&&b| ![small, mid, large].contains(&b))
        {
            unsafe {
                (*b).set_drop_hint(HINT_NONE);
                free_leaf(&mut cache, b);
            }
        }
        drop(cache);
        let before = free_lists(&arenas);
        unsafe {
            (*small).set_drop_hint(HINT_NONE);
            (*mid).set_drop_hint(HINT_NONE);
        }
        let d = unsafe { recycle_leaf_deferred(mid, &arenas) };
        assert_eq!(d.address(), mid as usize);
        assert_eq!(
            free_lists(&arenas),
            before,
            "nothing moves before the deferral runs"
        );
        d.call();
        let (r, l) = before;
        assert_eq!(
            free_lists(&arenas),
            (r, [l[0], l[1] + 1, l[2]]),
            "class 6 slot recycled"
        );
        unsafe { recycle_leaf_deferred(large, &arenas) }.call();
        assert_eq!(
            free_lists(&arenas),
            (r, [l[0], l[1] + 1, l[2] + 1]),
            "class 8 slot recycled"
        );
        unsafe { recycle_leaf_deferred(small, &arenas) }.call();
        unsafe { recycle_route_deferred(route, &arenas) }.call();
        assert_eq!(
            free_lists(&arenas),
            (r + 1, [l[0] + 1, l[1] + 1, l[2] + 1]),
            "the route went back to the route arena, the leaf to class 4"
        );
        assert_eq!(
            Arc::strong_count(&arenas),
            1,
            "deferrals borrow the pool raw — no refcount traffic"
        );
        unsafe { recycle_leaf_deferred(sentinel, &arenas) }.call();
        assert_eq!(arenas.leaves[0].len(), l[0] + 2);
    }
}
