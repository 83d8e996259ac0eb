//! Tree nodes: compact routing nodes and cache-line *fat leaves*, each
//! class in its own arena slab.
//!
//! §3.2: "A tree node in our algorithm consists of three fields: key,
//! left and right." A routing node is exactly that: a [`Route`] holds
//! two child edges, its routing key and its own arena slot index — 32
//! bytes for `u64` keys. The deviations from the paper are leaf-only:
//!
//! * **Arena storage.** Nodes live in the tree's two
//!   [`NodePool`](nmbst_reclaim::NodePool) slabs (one per node class,
//!   see [`Arenas`]) and are addressed by `u32`
//!   slot indices; a node records its own slot in its `idx` field so an
//!   edge to it can be formed without consulting the arena. Nothing is
//!   ever `Box`ed.
//! * **Leaf blocks.** A user [`Leaf`] carries up to [`LEAF_CAP`] sorted
//!   key/value pairs instead of one. The block is immutable after
//!   publication: insert/remove copy-on-write a fresh block and swing
//!   the parent edge with the same single CAS the 1-key design used, so
//!   the synchronization contract is unchanged (DESIGN.md §14). The
//!   leaf's routing `key` is the block's *maximum* entry (`Fin(max)`),
//!   which keeps the external-tree routing invariant ("left subtree
//!   < router ≤ ... ") intact: every entry of the block is ≤ the router
//!   and > every router on the left-turn path above it.
//!
//! The tree is *external*: user keys live only in leaves, and routes
//! always have exactly two children. A leaf has no child fields at all:
//! every edge carries a *kind bit* naming its head's class (see
//! `packed`), so a descent learns it has reached a leaf from the edge
//! that points there, and only a leaf edge is ever cast to a [`Leaf`].

use crate::key::Key;
use crate::packed::{AtomicEdge, Edge};
use crate::pool::{Arenas, NodeCache};
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Maximum entries per leaf block: one cache line of u64 keys. The
/// per-tree runtime knob (`TreeConfig::leaf_cap`) can only lower this.
pub const LEAF_CAP: usize = 8;

/// Drop hint: the retired leaf's entries all moved into a replacement
/// block — reclamation must drop **none** of them.
pub(crate) const HINT_NONE: u8 = 0xFF;
/// Drop hint: the retired leaf still owns **all** its entries (chain
/// victims, unreachable subtrees). This is the state every leaf is
/// allocated in.
pub(crate) const HINT_ALL: u8 = 0xFE;

/// A routing (internal) node: the paper's three fields plus the node's
/// own slot index. Never exposed to users.
///
/// `repr(C)` pins the declaration order so `left` and `right` are
/// adjacent words: [`child`](Self::child) indexes between them with a
/// pointer `add` instead of a conditional select (see the `offset_of`
/// assertions in the tests). Both edges, the slot index and the routing
/// key share one 32-byte slot for `u64` keys, so two routes fill a
/// cache line.
#[repr(C, align(8))]
pub(crate) struct Route<K> {
    pub(crate) left: AtomicEdge,
    pub(crate) right: AtomicEdge,
    /// This route's own slot in the route arena, written once at
    /// allocation. Lets an edge to it be formed without an arena lookup
    /// and lets retirement release the slot without carrying the index
    /// separately.
    pub(crate) idx: u32,
    /// The routing key: left subtree `<` key `≤` right subtree.
    pub(crate) key: Key<K>,
}

/// A leaf block: up to [`LEAF_CAP`] sorted entries, immutable after
/// publication. Sentinel leaves hold none. Never exposed to users.
#[repr(C, align(8))]
pub(crate) struct Leaf<K, V> {
    /// This leaf's own slot in the leaf arena (see [`Route::idx`]).
    pub(crate) idx: u32,
    /// Live entries in the block: `0` for sentinel leaves,
    /// `1..=LEAF_CAP` for user leaves. Immutable after publication
    /// (blocks are copy-on-write).
    len: u8,
    /// Which entries reclamation must drop, written (release-free, the
    /// retire edge itself orders it) by the retiring operation *before*
    /// the leaf is handed to the reclaimer: [`HINT_ALL`] (default),
    /// [`HINT_NONE`] (entries moved to a replacement block), or an entry
    /// position (single entry logically deleted by a COW remove).
    drop_hint: AtomicU8,
    /// The routing key: `Fin(max entry)` for a user leaf, one of the
    /// infinities for a sentinel.
    pub(crate) key: Key<K>,
    keys: [MaybeUninit<K>; LEAF_CAP],
    vals: [MaybeUninit<V>; LEAF_CAP],
}

// SAFETY: nodes move between threads via the tree's synchronization
// (publication by CAS, retirement to the reclaimer); the raw child words
// carry no ownership that would make this unsound beyond what `K`/`V`
// themselves require.
unsafe impl<K: Send> Send for Route<K> {}
unsafe impl<K: Sync> Sync for Route<K> {}
unsafe impl<K: Send, V: Send> Send for Leaf<K, V> {}
unsafe impl<K: Sync, V: Sync> Sync for Leaf<K, V> {}

impl<K> Route<K> {
    /// Allocates a route with unmarked edges `left` and `right` (which
    /// name their heads' classes).
    pub(crate) fn new_in<V>(
        cache: &mut NodeCache<'_>,
        key: Key<K>,
        left: Edge<K, V>,
        right: Edge<K, V>,
    ) -> *mut Route<K> {
        let (idx, node) = cache.alloc_route::<K>();
        // SAFETY: `alloc_route` returned an exclusive, well-aligned slot
        // of exactly this layout.
        unsafe {
            node.write(Route {
                left: AtomicEdge::to(left),
                right: AtomicEdge::to(right),
                idx,
                key,
            });
        }
        node
    }

    /// The child edge at boolean index `go_right`, selected branchlessly:
    /// `repr(C)` makes `right` the word after `left`, so the select is a
    /// pointer `add` of the compare's result instead of a data-dependent
    /// branch the predictor gets wrong half the time on random descents.
    #[inline(always)]
    pub(crate) fn child(&self, go_right: bool) -> &AtomicEdge {
        debug_assert!(std::ptr::eq(
            // SAFETY: in-bounds by the layout assertion below.
            unsafe { (&raw const self.left).add(1) },
            &raw const self.right,
        ));
        // SAFETY: `repr(C)` lays `right` immediately after `left` (two
        // identically-typed, identically-aligned fields — no padding
        // between them), so `(&left).add(go_right as usize)` is in
        // bounds of `self` and points at `left` or `right`.
        unsafe { &*(&raw const self.left).add(go_right as usize) }
    }

    /// The child edge a search for `user_key` follows from this route
    /// (left iff `user_key < self.key`). Routes via
    /// `Key::user_goes_left_fin`, a plain `K: Ord` compare that is
    /// exact for sentinel keys too (they route every user key left).
    #[inline(always)]
    pub(crate) fn child_for(&self, user_key: &K) -> &AtomicEdge
    where
        K: Ord,
    {
        self.child(!self.key.user_goes_left_fin(user_key))
    }

    /// Both child edges ordered as (followed, sibling) for `user_key`.
    #[inline]
    pub(crate) fn child_and_sibling_for(&self, user_key: &K) -> (&AtomicEdge, &AtomicEdge)
    where
        K: Ord,
    {
        if self.key.user_goes_left(user_key) {
            (&self.left, &self.right)
        } else {
            (&self.right, &self.left)
        }
    }
}

impl<K, V> Leaf<K, V> {
    /// Carves a fresh leaf out of the cache and writes its header; the
    /// entry arrays stay uninitialized (`len` of them are the caller's to
    /// fill immediately).
    fn alloc_shell(cache: &mut NodeCache<'_>, key: Key<K>, len: usize) -> *mut Leaf<K, V> {
        debug_assert!(len <= LEAF_CAP);
        let (idx, node) = cache.alloc_leaf::<K, V>();
        // SAFETY: `alloc_leaf` returned an exclusive, well-aligned slot
        // of exactly this layout.
        unsafe {
            node.write(Leaf {
                idx,
                len: len as u8,
                drop_hint: AtomicU8::new(HINT_ALL),
                key,
                keys: [const { MaybeUninit::uninit() }; LEAF_CAP],
                vals: [const { MaybeUninit::uninit() }; LEAF_CAP],
            });
        }
        node
    }

    /// Allocates a sentinel (entry-less) leaf.
    pub(crate) fn new_sentinel_in(cache: &mut NodeCache<'_>, key: Key<K>) -> *mut Leaf<K, V> {
        Self::alloc_shell(cache, key, 0)
    }

    /// Allocates a 1-entry user leaf block. The routing key is the
    /// entry's key (a 1-entry block's max is its only entry).
    pub(crate) fn new_user_in(cache: &mut NodeCache<'_>, key: K, value: V) -> *mut Leaf<K, V>
    where
        K: Clone,
    {
        let node = Self::alloc_shell(cache, Key::Fin(key.clone()), 1);
        // SAFETY: fresh exclusive shell; slot 0 is within LEAF_CAP.
        unsafe {
            Self::key_slot(node, 0).write(key);
            Self::val_slot(node, 0).write(value);
        }
        node
    }

    /// Number of live entries: `0` for sentinel leaves.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The block's keys, sorted ascending. Empty for sentinel leaves.
    #[inline]
    pub(crate) fn entry_keys(&self) -> &[K] {
        // SAFETY: the first `len` array elements are initialized by
        // construction and immutable after publication.
        unsafe { std::slice::from_raw_parts(self.keys.as_ptr().cast::<K>(), self.len()) }
    }

    /// The block's values, parallel to [`entry_keys`](Self::entry_keys).
    #[inline]
    pub(crate) fn entry_vals(&self) -> &[V] {
        // SAFETY: as `entry_keys`.
        unsafe { std::slice::from_raw_parts(self.vals.as_ptr().cast::<V>(), self.len()) }
    }

    /// Position of `key` in the block (`Ok`) or the sorted insertion
    /// point (`Err`). A chunked branchless rank scan: the block is at
    /// most one cache line of keys, and counting `k < key` outcomes
    /// compiles to compare/accumulate with no data-dependent branch — a
    /// random probe into a sorted block mispredicts an early-exit scan
    /// (and a binary search) on nearly every entry, which measured
    /// slower than unconditionally touching all `len ≤ 8` keys.
    ///
    /// The scan walks half-`LEAF_CAP` chunks with four independent
    /// accumulators (SIMD-shaped: the compiler is free to vectorize the
    /// compares, and on scalar targets the four chains issue in
    /// parallel instead of serializing on one `pos`). It cannot touch
    /// the full fixed-size array unconditionally: only the first
    /// `len` slots are initialized, and reading a `MaybeUninit` tail is
    /// UB for a general `K` — so the tail (< 4 keys) falls through to
    /// the scalar accumulate. Attribution: the `leaf_ablation` perf
    /// cell (fat leaves vs. `leaf_cap = 1`) gates this path.
    #[inline]
    pub(crate) fn find(&self, key: &K) -> Result<usize, usize>
    where
        K: Ord,
    {
        let keys = self.entry_keys();
        let mut chunks = keys.chunks_exact(4);
        let mut pos = 0usize;
        for c in chunks.by_ref() {
            let r = usize::from(c[0] < *key)
                + usize::from(c[1] < *key)
                + usize::from(c[2] < *key)
                + usize::from(c[3] < *key);
            pos += r;
        }
        for k in chunks.remainder() {
            pos += usize::from(k < key);
        }
        match keys.get(pos) {
            Some(k) if k == key => Ok(pos),
            _ => Err(pos),
        }
    }

    /// Records which entries reclamation must drop when this (retired)
    /// leaf's grace period ends. Relaxed: the retire hand-off itself
    /// orders the write against the deferral that reads it.
    #[inline]
    pub(crate) fn set_drop_hint(&self, hint: u8) {
        self.drop_hint.store(hint, Ordering::Relaxed);
    }

    #[inline]
    unsafe fn key_slot(node: *mut Self, i: usize) -> *mut K {
        // SAFETY (of the projection): caller keeps `i < LEAF_CAP`.
        unsafe { (&raw mut (*node).keys).cast::<K>().add(i) }
    }

    #[inline]
    unsafe fn val_slot(node: *mut Self, i: usize) -> *mut V {
        // SAFETY: as `key_slot`.
        unsafe { (&raw mut (*node).vals).cast::<V>().add(i) }
    }

    /// Copy-on-write: a fresh leaf block = `old` with `(key, value)`
    /// inserted at sorted position `pos`. Requires `old.len() < LEAF_CAP`.
    ///
    /// The copied entries are **bitwise duplicates**: until the publish
    /// CAS settles, both blocks alias the same logical entries. On CAS
    /// success the caller marks `old` with [`HINT_NONE`] (the entries now
    /// belong to the new block) and retires it; on failure the caller
    /// recovers `(key, value)` with [`take_entry`](Self::take_entry) and
    /// frees the new block as a shell ([`NodeCache::free_leaf_shell`]),
    /// leaving every copied entry owned by `old`.
    ///
    /// # Safety
    ///
    /// `pos` must be the `Err` position of `old.find(&key)` and the block
    /// must not be full.
    pub(crate) unsafe fn block_insert_copy(
        cache: &mut NodeCache<'_>,
        old: &Leaf<K, V>,
        pos: usize,
        key: K,
        value: V,
    ) -> *mut Leaf<K, V>
    where
        K: Clone,
    {
        let n = old.len();
        debug_assert!(n < LEAF_CAP && pos <= n);
        let router = Key::Fin(if pos == n {
            key.clone()
        } else {
            old.entry_keys()[n - 1].clone()
        });
        let node = Self::alloc_shell(cache, router, n + 1);
        // SAFETY: fresh exclusive shell; source ranges are initialized
        // prefixes of `old`; destination indices stay below `n + 1`.
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            ptr::copy_nonoverlapping(src_k, Self::key_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_v, Self::val_slot(node, 0), pos);
            Self::key_slot(node, pos).write(key);
            Self::val_slot(node, pos).write(value);
            ptr::copy_nonoverlapping(src_k.add(pos), Self::key_slot(node, pos + 1), n - pos);
            ptr::copy_nonoverlapping(src_v.add(pos), Self::val_slot(node, pos + 1), n - pos);
        }
        node
    }

    /// Copy-on-write: a fresh leaf block = `old` minus the entry at
    /// `pos`. Requires `old.len() >= 2` (a 1-entry block is removed by
    /// the classic flag/tag/splice protocol instead).
    ///
    /// Ownership works as in [`block_insert_copy`](Self::block_insert_copy):
    /// on CAS success the caller sets `old`'s drop hint to `pos as u8`
    /// (the one entry that did *not* move) and retires it; on failure
    /// the new block is freed as a shell.
    ///
    /// # Safety
    ///
    /// `pos < old.len()` and `old.len() >= 2`.
    pub(crate) unsafe fn block_remove_copy(
        cache: &mut NodeCache<'_>,
        old: &Leaf<K, V>,
        pos: usize,
    ) -> *mut Leaf<K, V>
    where
        K: Clone,
    {
        let n = old.len();
        debug_assert!(n >= 2 && pos < n);
        let keys = old.entry_keys();
        let router = Key::Fin(keys[if pos == n - 1 { n - 2 } else { n - 1 }].clone());
        let node = Self::alloc_shell(cache, router, n - 1);
        // SAFETY: as `block_insert_copy`.
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            ptr::copy_nonoverlapping(src_k, Self::key_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_v, Self::val_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_k.add(pos + 1), Self::key_slot(node, pos), n - 1 - pos);
            ptr::copy_nonoverlapping(src_v.add(pos + 1), Self::val_slot(node, pos), n - 1 - pos);
        }
        node
    }

    /// Splits a full block around an insertion: builds two fresh blocks
    /// holding `old`'s entries plus `(key, value)` (left-biased halves)
    /// under a fresh route, returning `(route, left, right, holder,
    /// hpos)` where `holder`/`hpos` locate the *new* entry so a failed
    /// publish can recover it.
    ///
    /// Ownership: all of `old`'s entries are bitwise-moved into the
    /// halves — on CAS success retire `old` with [`HINT_NONE`]; on
    /// failure [`take_entry`](Self::take_entry)`(holder, hpos)` then free
    /// all three nodes as shells.
    ///
    /// # Safety
    ///
    /// `old.len() == cap` (full at the tree's runtime cap), `pos` the
    /// `Err` position of `old.find(&key)`, and `0 < pos < old.len()`
    /// (boundary inserts take the cheaper two-node path in `write.rs`).
    pub(crate) unsafe fn block_split_insert(
        cache: &mut NodeCache<'_>,
        old: &Leaf<K, V>,
        pos: usize,
        key: K,
        value: V,
    ) -> SplitBlocks<K, V>
    where
        K: Clone,
    {
        let n = old.len();
        let total = n + 1;
        let left_n = total.div_ceil(2);
        debug_assert!(pos > 0 && pos < n);
        let old_keys = old.entry_keys();
        // Key of merged position `m` (old entries with `key` at `pos`).
        let merged_key = |m: usize| -> &K {
            if m == pos {
                &key
            } else if m < pos {
                &old_keys[m]
            } else {
                &old_keys[m - 1]
            }
        };
        let left = Self::alloc_shell(cache, Key::Fin(merged_key(left_n - 1).clone()), left_n);
        let right = Self::alloc_shell(
            cache,
            Key::Fin(merged_key(total - 1).clone()),
            total - left_n,
        );
        let route = Route::new_in(
            cache,
            Key::Fin(merged_key(left_n).clone()),
            Edge::<K, V>::of_leaf(left),
            Edge::of_leaf(right),
        );
        let key = MaybeUninit::new(key);
        let value = MaybeUninit::new(value);
        // SAFETY: each merged position is written to exactly one fresh
        // slot; `key`/`value` are read exactly once (pos appears once).
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            let write = |dst: *mut Leaf<K, V>, j: usize, m: usize| {
                if m == pos {
                    Self::key_slot(dst, j).write(key.as_ptr().read());
                    Self::val_slot(dst, j).write(value.as_ptr().read());
                } else {
                    let s = if m < pos { m } else { m - 1 };
                    Self::key_slot(dst, j).write(src_k.add(s).read());
                    Self::val_slot(dst, j).write(src_v.add(s).read());
                }
            };
            for m in 0..left_n {
                write(left, m, m);
            }
            for m in left_n..total {
                write(right, m - left_n, m);
            }
        }
        let (holder, hpos) = if pos < left_n {
            (left, pos)
        } else {
            (right, pos - left_n)
        };
        SplitBlocks {
            route,
            left,
            right,
            holder,
            hpos,
        }
    }

    /// Builds a leaf block from the next `n` pairs of `it`, which must be
    /// key-ascending and unique (the bulk loader's contract). The routing
    /// key becomes the block's last (largest) entry.
    pub(crate) fn block_from_iter<I: Iterator<Item = (K, V)>>(
        cache: &mut NodeCache<'_>,
        it: &mut I,
        n: usize,
    ) -> *mut Leaf<K, V>
    where
        K: Clone,
    {
        debug_assert!((1..=LEAF_CAP).contains(&n));
        // The router is known only after the entries are drawn; park a
        // placeholder and overwrite it below.
        let node = Self::alloc_shell(cache, Key::Inf0, n);
        // SAFETY: fresh exclusive shell; each of the `n` declared slots
        // is written exactly once before any read.
        unsafe {
            for i in 0..n {
                let (k, v) = it.next().expect("n pairs remain");
                Self::key_slot(node, i).write(k);
                Self::val_slot(node, i).write(v);
            }
            (*node).key = Key::Fin((*node).entry_keys()[n - 1].clone());
        }
        node
    }

    /// Moves the entry at `pos` out of an **unpublished** block (a CAS
    /// loser being dismantled). The block must then be freed as a shell —
    /// its `len` still counts the moved entry.
    ///
    /// # Safety
    ///
    /// Exclusive access, `pos < len`, entry initialized and not already
    /// taken.
    pub(crate) unsafe fn take_entry(node: *mut Leaf<K, V>, pos: usize) -> (K, V) {
        // SAFETY: per contract.
        unsafe {
            (
                Self::key_slot(node, pos).read(),
                Self::val_slot(node, pos).read(),
            )
        }
    }
}

/// The fresh nodes of a block split (see [`Leaf::block_split_insert`]).
pub(crate) struct SplitBlocks<K, V> {
    /// The route the publishing CAS installs, over `left` and `right`.
    pub(crate) route: *mut Route<K>,
    pub(crate) left: *mut Leaf<K, V>,
    pub(crate) right: *mut Leaf<K, V>,
    /// The half holding the new entry, and its position there.
    pub(crate) holder: *mut Leaf<K, V>,
    pub(crate) hpos: usize,
}

/// Drops the contents of a leaf leaving the tree for good: the entries
/// its drop hint says it still owns, then the routing key. The slot
/// memory itself stays valid (caller releases or abandons it).
///
/// # Safety
///
/// Exclusive access (the leaf's grace period has ended, or it was never
/// published); contents not already dropped.
pub(crate) unsafe fn drop_leaf_contents<K, V>(node: *mut Leaf<K, V>) {
    // SAFETY: exclusive per contract.
    unsafe {
        let n = &mut *node;
        match n.drop_hint.load(Ordering::Relaxed) {
            HINT_NONE => {}
            HINT_ALL => {
                for i in 0..n.len() {
                    ptr::drop_in_place(Leaf::key_slot(node, i));
                    ptr::drop_in_place(Leaf::val_slot(node, i));
                }
            }
            pos => {
                debug_assert!((pos as usize) < n.len());
                ptr::drop_in_place(Leaf::key_slot(node, pos as usize));
                ptr::drop_in_place(Leaf::val_slot(node, pos as usize));
            }
        }
        ptr::drop_in_place(&mut n.key);
    }
}

/// Drops a route leaving the tree for good: its routing key (the edges
/// are plain words). The slot memory itself stays valid.
///
/// # Safety
///
/// As [`drop_leaf_contents`].
pub(crate) unsafe fn drop_route_contents<K>(node: *mut Route<K>) {
    // SAFETY: exclusive per contract.
    unsafe { ptr::drop_in_place(&raw mut (*node).key) };
}

/// The two permanent sentinel routes (Figure 3) plus the three sentinel
/// leaves of an empty tree.
///
/// ```text
///        R (∞₂)
///       /      \
///    S (∞₁)    leaf ∞₂
///    /     \
/// leaf ∞₀  leaf ∞₁
/// ```
///
/// `R` and `S` are never removed and none of their outgoing edges is
/// ever marked, so the seek record's four pointers are always defined.
pub(crate) fn sentinel_tree<K, V>(cache: &mut NodeCache<'_>) -> *mut Route<K> {
    let leaf0 = Leaf::<K, V>::new_sentinel_in(cache, Key::Inf0);
    let leaf1 = Leaf::<K, V>::new_sentinel_in(cache, Key::Inf1);
    let leaf2 = Leaf::<K, V>::new_sentinel_in(cache, Key::Inf2);
    let s = Route::new_in(cache, Key::Inf1, Edge::of_leaf(leaf0), Edge::of_leaf(leaf1));
    Route::new_in(
        cache,
        Key::Inf2,
        Edge::<K, V>::of_route(s),
        Edge::of_leaf(leaf2),
    )
}

/// Frees an entire subtree back to the arenas: drops every node's owned
/// entries and routing key, then releases its slot to its class's pool.
/// Iterative (explicit stack): a degenerate tree built by sorted inserts
/// at `leaf_cap = 1` is a linked list, and recursion would overflow on
/// large ones.
///
/// # Safety
///
/// Caller must have exclusive access to the subtree, every node in it
/// must be a live slot of `arenas` not owned elsewhere (in particular,
/// not also pending in a reclaimer bag — retired nodes are unreachable
/// from the root, so walking from the root never sees them), and every
/// reachable leaf owns all `len` of its entries.
pub(crate) unsafe fn free_subtree<K, V>(root: Edge<K, V>, arenas: &Arenas) {
    let mut stack = vec![root];
    while let Some(edge) = stack.pop() {
        // SAFETY: per the function contract the node is uniquely owned.
        unsafe {
            if edge.is_leaf() {
                let leaf = edge.leaf();
                debug_assert_eq!((*leaf).drop_hint.load(Ordering::Relaxed), HINT_ALL);
                let idx = (*leaf).idx;
                drop_leaf_contents(leaf);
                arenas.leaves.release(idx);
            } else {
                let route = edge.route();
                stack.push((*route).left.load_mut(arenas));
                stack.push((*route).right.load_mut(arenas));
                let idx = (*route).idx;
                drop_route_contents(route);
                arenas.routes.release(idx);
            }
        }
    }
}

/// Best-effort prefetch of one cache line. A pure hint — no-op on
/// architectures without a prefetch instruction, and safe on any address
/// (prefetch never faults).
#[inline(always)]
fn prefetch_line(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it performs no access and never
    // faults, whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(addr.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint with no architectural side effects; the
    // stable intrinsic is not available, so emit the instruction
    // directly. Never faults, whatever the address.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) addr, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = addr;
}

/// Best-effort prefetch of the node an edge points to: the route's one
/// line (a 32-byte route in a cache-line-aligned arena never straddles
/// lines), or a leaf's header line and the line its key array ends in —
/// what the block scan at the end of a descent reads. This is the
/// per-level descent hint: one line per route hop, like the paper's
/// pointer-chasing loop wants, and two for the one leaf a descent
/// reaches; see [`prefetch_wide`] for the traversal variant.
#[inline(always)]
pub(crate) fn prefetch<K, V>(edge: Edge<K, V>) {
    let addr = edge.addr().cast_const();
    prefetch_line(addr);
    if edge.is_leaf() {
        prefetch_line(addr.wrapping_add(std::mem::offset_of!(Leaf<K, V>, vals) - 1));
    }
}

/// Prefetch of a leaf's header line *and* the two lines after it, which
/// hold the entries a block scan is about to read. Issued where the
/// caller *knows* it is about to scan the whole block (range scans).
#[inline(always)]
pub(crate) fn prefetch_wide<K, V>(leaf: *const Leaf<K, V>) {
    let addr = leaf.cast::<u8>();
    prefetch_line(addr);
    prefetch_line(addr.wrapping_add(64));
    prefetch_line(addr.wrapping_add(128));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NodeCache;
    use std::mem::{offset_of, size_of};

    fn arenas_for<K, V>() -> Arenas {
        Arenas::new::<K, V>(true)
    }

    #[test]
    fn node_classes_have_the_compact_layouts() {
        // The sizes the arena-bytes-per-key budget rests on.
        assert_eq!(size_of::<Route<u64>>(), 32);
        assert_eq!(size_of::<Leaf<u64, u64>>(), 152);
        assert!(std::mem::align_of::<Route<u8>>() >= 8);
        assert!(std::mem::align_of::<Leaf<u8, u8>>() >= 8);
        // A route is the paper's node: two edges, the key, the slot.
        assert_eq!(offset_of!(Route<u64>, left), 0);
        assert_eq!(offset_of!(Route<u64>, key), 16);
        // A leaf carries no edge words: the entries follow the header.
        assert_eq!(offset_of!(Leaf<u64, u64>, key), 8);
        assert_eq!(offset_of!(Leaf<u64, u64>, keys), 24);
    }

    #[test]
    fn child_edges_are_adjacent_words() {
        // The layout contract behind `Route::child`'s branchless select.
        fn check<K: 'static>() {
            assert_eq!(
                offset_of!(Route<K>, right),
                offset_of!(Route<K>, left) + size_of::<AtomicEdge>(),
            );
        }
        check::<u64>();
        check::<u8>();
        check::<String>();
        check::<Box<[u8; 3]>>();
    }

    #[test]
    fn child_routing() {
        let arenas = arenas_for::<i64, ()>();
        let mut cache = NodeCache::direct(&arenas);
        let l = Leaf::<i64, ()>::new_user_in(&mut cache, 1, ());
        let r = Leaf::<i64, ()>::new_user_in(&mut cache, 10, ());
        let n = Route::new_in(&mut cache, Key::Fin(10), Edge::of_leaf(l), Edge::of_leaf(r));
        unsafe {
            let load = |e: &AtomicEdge| e.load::<i64, ()>(&arenas);
            assert_eq!(load((*n).child_for(&3)).leaf(), l);
            assert_eq!(load((*n).child_for(&10)).leaf(), r); // equal goes right
            assert_eq!(load((*n).child_for(&42)).leaf(), r);
            let (c, s) = (*n).child_and_sibling_for(&3);
            assert_eq!(load(c).leaf(), l);
            assert_eq!(load(s).leaf(), r);
            drop(cache);
            free_subtree(Edge::<i64, ()>::of_route(n), &arenas);
        }
    }

    #[test]
    fn edges_round_trip_through_slot_indices() {
        let arenas = arenas_for::<i64, ()>();
        let mut cache = NodeCache::direct(&arenas);
        let l = Leaf::<i64, ()>::new_user_in(&mut cache, 1, ());
        let e = Edge::of_leaf(l);
        unsafe {
            assert_eq!(e.idx(), (*l).idx);
            assert_eq!(e.leaf(), l);
            assert!(e.is_leaf());
            assert_eq!(arenas.leaves.slot_ptr(e.idx()).cast::<Leaf<i64, ()>>(), l);
            free_subtree(e, &arenas);
        }
    }

    #[test]
    fn sentinel_tree_shape() {
        let arenas = arenas_for::<i64, ()>();
        let mut cache = NodeCache::direct(&arenas);
        let root: *mut Route<i64> = sentinel_tree::<i64, ()>(&mut cache);
        unsafe {
            let load = |e: &AtomicEdge| e.load::<i64, ()>(&arenas);
            assert_eq!((*root).key, Key::Inf2);
            let s = load(&(*root).left);
            let r_leaf = load(&(*root).right);
            assert!(!s.is_leaf() && r_leaf.is_leaf());
            assert_eq!((*s.route()).key, Key::Inf1);
            assert_eq!((*r_leaf.leaf()).key, Key::Inf2);
            assert_eq!((*r_leaf.leaf()).len(), 0);
            let l0 = load(&(*s.route()).left);
            let l1 = load(&(*s.route()).right);
            assert!(l0.is_leaf() && l1.is_leaf());
            assert_eq!((*l0.leaf()).key, Key::Inf0);
            assert_eq!((*l1.leaf()).key, Key::Inf1);
            drop(cache);
            free_subtree(Edge::<i64, ()>::of_route(root), &arenas);
        }
        // Two routes and three leaves, each in its own arena, all back
        // on the free lists.
        assert_eq!((arenas.routes.len(), arenas.leaves.len()), (2, 3));
    }

    #[test]
    fn block_find_and_accessors() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        let mut leaf = Leaf::<i64, i64>::new_user_in(&mut cache, 10, 100);
        unsafe {
            for k in [30i64, 20, 40] {
                let pos = (*leaf).find(&k).unwrap_err();
                let next = Leaf::block_insert_copy(&mut cache, &*leaf, pos, k, k * 10);
                (*leaf).set_drop_hint(HINT_NONE);
                drop_leaf_contents(leaf);
                cache.free_leaf_shell(leaf);
                leaf = next;
            }
            assert_eq!((*leaf).entry_keys(), &[10, 20, 30, 40]);
            assert_eq!((*leaf).entry_vals(), &[100, 200, 300, 400]);
            assert_eq!((*leaf).key, Key::Fin(40), "router is the block max");
            assert_eq!((*leaf).find(&30), Ok(2));
            assert_eq!((*leaf).find(&35), Err(3));
            assert_eq!((*leaf).find(&5), Err(0));
            assert_eq!((*leaf).find(&99), Err(4));
            drop_leaf_contents(leaf); // HINT_ALL: drops all four entries
            cache.free_leaf_shell(leaf);
        }
    }

    #[test]
    fn block_remove_copy_keeps_router_at_max() {
        let arenas = arenas_for::<i64, ()>();
        let mut cache = NodeCache::direct(&arenas);
        let a = Leaf::<i64, ()>::new_user_in(&mut cache, 1, ());
        unsafe {
            let b = Leaf::block_insert_copy(&mut cache, &*a, 1, 2, ());
            let c = Leaf::block_insert_copy(&mut cache, &*b, 2, 3, ());
            // Drop the middle entry: router stays Fin(3).
            let d = Leaf::block_remove_copy(&mut cache, &*c, 1);
            assert_eq!((*d).entry_keys(), &[1, 3]);
            assert_eq!((*d).key, Key::Fin(3));
            // Drop the max: router shrinks to the new max.
            let e = Leaf::block_remove_copy(&mut cache, &*d, 1);
            assert_eq!((*e).entry_keys(), &[1]);
            assert_eq!((*e).key, Key::Fin(1));
            for shell in [a, b, c, d] {
                (*shell).set_drop_hint(HINT_NONE);
                drop_leaf_contents(shell);
                cache.free_leaf_shell(shell);
            }
            drop_leaf_contents(e);
            cache.free_leaf_shell(e);
        }
    }

    #[test]
    fn split_insert_partitions_and_locates_new_entry() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        // Build a full block 0,10,..,70.
        let mut leaf = Leaf::<i64, i64>::new_user_in(&mut cache, 0, 0);
        unsafe {
            for i in 1..LEAF_CAP as i64 {
                let next = Leaf::block_insert_copy(&mut cache, &*leaf, i as usize, i * 10, i * 10);
                (*leaf).set_drop_hint(HINT_NONE);
                drop_leaf_contents(leaf);
                cache.free_leaf_shell(leaf);
                leaf = next;
            }
            let split = Leaf::block_split_insert(&mut cache, &*leaf, 4, 35, 35);
            let route = split.route;
            let left = (*route).left.load::<i64, i64>(&arenas);
            let right = (*route).right.load::<i64, i64>(&arenas);
            assert!(
                left.is_leaf() && right.is_leaf(),
                "the halves hang as leaves"
            );
            assert_eq!((left.leaf(), right.leaf()), (split.left, split.right));
            let (left, right) = (split.left, split.right);
            assert_eq!((*left).entry_keys(), &[0, 10, 20, 30, 35]);
            assert_eq!((*right).entry_keys(), &[40, 50, 60, 70]);
            assert_eq!((*left).key, Key::Fin(35));
            assert_eq!((*right).key, Key::Fin(70));
            assert_eq!((*route).key, Key::Fin(40), "router = right half min");
            assert_eq!(split.holder, left);
            assert_eq!((*split.holder).entry_keys()[split.hpos], 35);
            // Dismantle as a CAS loser would: recover the new entry,
            // free the three shells, old block keeps its entries.
            let (k, v) = Leaf::take_entry(split.holder, split.hpos);
            assert_eq!((k, v), (35, 35));
            for shell in [left, right] {
                (*shell).set_drop_hint(HINT_NONE);
                drop_leaf_contents(shell);
                cache.free_leaf_shell(shell);
            }
            drop_route_contents(route);
            cache.free_route_shell(route);
            drop_leaf_contents(leaf);
            cache.free_leaf_shell(leaf);
        }
    }

    #[test]
    fn drop_hints_drop_exactly_the_owned_entries() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        #[derive(Clone)]
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let arenas = arenas_for::<i64, D>();
        let mut cache = NodeCache::direct(&arenas);
        unsafe {
            let a = Leaf::<i64, D>::new_user_in(&mut cache, 1, D(Arc::clone(&drops)));
            let b = Leaf::block_insert_copy(&mut cache, &*a, 1, 2, D(Arc::clone(&drops)));
            // `a`'s entry moved into `b`: HINT_NONE drops nothing.
            (*a).set_drop_hint(HINT_NONE);
            drop_leaf_contents(a);
            cache.free_leaf_shell(a);
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            // COW-remove entry 0 from `b`: hint `0` drops only that one.
            let c = Leaf::block_remove_copy(&mut cache, &*b, 0);
            (*b).set_drop_hint(0);
            drop_leaf_contents(b);
            cache.free_leaf_shell(b);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            // `c` still owns its single entry: HINT_ALL drops it.
            drop_leaf_contents(c);
            cache.free_leaf_shell(c);
            assert_eq!(drops.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn free_subtree_runs_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let arenas = arenas_for::<i64, D>();
        let mut cache = NodeCache::direct(&arenas);
        let a = Leaf::<i64, D>::new_user_in(&mut cache, 1, D(Arc::clone(&drops)));
        let b = Leaf::<i64, D>::new_user_in(&mut cache, 2, D(Arc::clone(&drops)));
        let n = Route::new_in(&mut cache, Key::Fin(2), Edge::of_leaf(a), Edge::of_leaf(b));
        drop(cache);
        unsafe { free_subtree(Edge::<i64, D>::of_route(n), &arenas) };
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn free_subtree_handles_degenerate_depth() {
        // A left-spine of 100k routes must not overflow the stack.
        let arenas = Arenas::new::<u64, ()>(false);
        let mut cache = NodeCache::direct(&arenas);
        let mut node = Edge::of_leaf(Leaf::<u64, ()>::new_user_in(&mut cache, 0, ()));
        for i in 1..100_000u64 {
            let leaf = Leaf::new_user_in(&mut cache, i, ());
            node = Edge::of_route(Route::new_in(
                &mut cache,
                Key::Fin(i),
                node,
                Edge::of_leaf(leaf),
            ));
        }
        drop(cache);
        unsafe { free_subtree(node, &arenas) };
    }
}
