//! Tree nodes: compact routing nodes and right-sized *leaf blocks*, each
//! size class in its own arena slab.
//!
//! §3.2: "A tree node in our algorithm consists of three fields: key,
//! left and right." A routing node is exactly that: a [`Route`] holds
//! two child edges, its routing key and its own arena slot index — 32
//! bytes for `u64` keys. The deviations from the paper are leaf-only:
//!
//! * **Arena storage.** Nodes live in the tree's
//!   [`NodePool`](nmbst_reclaim::NodePool) slabs (one for routes and one
//!   per leaf size class, see [`Arenas`]) and are addressed by `u32`
//!   slot indices; a node records its own slot in its `idx` field so an
//!   edge to it can be formed without consulting the arena. Nothing is
//!   ever `Box`ed.
//! * **Leaf blocks.** A user [`Leaf`] carries up to [`LEAF_CAP`] sorted
//!   key/value pairs instead of one. The block is immutable after
//!   publication: insert/remove copy-on-write a fresh block and swing
//!   the parent edge with the same single CAS the 1-key design used, so
//!   the synchronization contract is unchanged (DESIGN.md §14). A leaf
//!   stores no routing key: a user block's router is its *maximum*
//!   entry, which keeps the external-tree routing invariant ("left
//!   subtree < router ≤ ...") intact — every entry of the block is ≤ the
//!   router and > every router on the left-turn path above it. A
//!   sentinel leaf holds no entries and records which infinity it stands
//!   for in one header byte.
//! * **Size classes.** A leaf is an 8-byte header followed by a key
//!   array and a value array whose capacity is one of
//!   [`LEAF_CLASS_CAPS`] (4, 6 or 8 entries: 72, 104 or 136 bytes for
//!   `u64` keys and values). Every block builder allocates the smallest
//!   class that holds what it writes, so a block's slot follows its
//!   occupancy instead of always paying for [`LEAF_CAP`] entries. The
//!   offsets and slot sizes of all classes come from one const table,
//!   [`Leaf::CLASSES`].
//!
//! The tree is *external*: user keys live only in leaves, and routes
//! always have exactly two children. A leaf has no child fields at all:
//! every edge carries a 2-bit *kind* naming its head's arena — the route
//! arena or one of the leaf classes (see `packed`) — so a descent learns
//! it has reached a leaf from the edge that points there, and only a
//! leaf edge is ever cast to a [`Leaf`].

use crate::key::Key;
use crate::packed::{AtomicEdge, Edge};
use crate::pool::{Arenas, NodeCache};
use std::alloc::Layout;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Maximum entries per leaf block: the capacity of the largest size
/// class. The per-tree runtime knob (`TreeConfig::leaf_cap`) can only
/// lower this.
pub const LEAF_CAP: usize = 8;

/// Number of leaf size classes (each has its own arena).
pub(crate) const LEAF_CLASSES: usize = 3;

/// Entry capacity of each leaf size class, smallest first.
pub(crate) const LEAF_CLASS_CAPS: [usize; LEAF_CLASSES] = [4, 6, LEAF_CAP];

/// The smallest size class holding `len` entries (`len ≤ LEAF_CAP`).
#[inline(always)]
pub(crate) const fn leaf_class(len: usize) -> usize {
    (len > LEAF_CLASS_CAPS[0]) as usize + (len > LEAF_CLASS_CAPS[1]) as usize
}

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

/// The 8-byte header of a leaf block. The entries follow it in the same
/// arena slot: `cap` keys from [`Leaf::KEYS`], then `cap` values from
/// the class's `vals` offset, where `cap` is the capacity of the class
/// the header names (see [`Leaf::CLASSES`]). Up to `len` of each are
/// initialized, immutable after publication. Sentinel leaves hold none.
/// Never exposed to users.
///
/// A `&Leaf` only covers the header; the entry accessors reach past it
/// into the rest of the slot, which every leaf pointer the tree hands
/// out addresses in full.
#[repr(C)]
pub(crate) struct Leaf<K, V> {
    /// This leaf's own slot in its class's arena (see [`Route::idx`]).
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
    /// The size class the slot belongs to: an index into
    /// [`LEAF_CLASS_CAPS`] and the tree's leaf arenas.
    class: u8,
    /// `0` for a user leaf; the rank of the infinity a sentinel leaf
    /// stands for otherwise (`1` = ∞₀, `2` = ∞₁, `3` = ∞₂).
    sentinel: u8,
    _entries: PhantomData<(K, V)>,
}

/// Where a leaf size class keeps its values, and how large its slot is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafClass {
    /// Byte offset of the value array from the slot start.
    pub(crate) vals: usize,
    /// Slot size: header, keys and values, padded to [`Leaf::ALIGN`].
    pub(crate) size: usize,
}

const fn max(a: usize, b: usize) -> usize {
    if a > b {
        a
    } else {
        b
    }
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
    /// name their heads' arenas).
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
    /// Alignment of every leaf slot: the header's, the keys' and the
    /// values'.
    pub(crate) const ALIGN: usize = max(align_of::<Self>(), max(align_of::<K>(), align_of::<V>()));

    /// Byte offset of the key array: right after the header, in every
    /// class.
    pub(crate) const KEYS: usize = size_of::<Self>().next_multiple_of(align_of::<K>());

    /// The layout table of the size classes, in [`LEAF_CLASS_CAPS`]
    /// order: 72, 104 and 136-byte slots for `u64` keys and values.
    pub(crate) const CLASSES: [LeafClass; LEAF_CLASSES] = [
        Self::class_layout(LEAF_CLASS_CAPS[0]),
        Self::class_layout(LEAF_CLASS_CAPS[1]),
        Self::class_layout(LEAF_CLASS_CAPS[2]),
    ];

    const fn class_layout(cap: usize) -> LeafClass {
        let vals = (Self::KEYS + cap * size_of::<K>()).next_multiple_of(align_of::<V>());
        LeafClass {
            vals,
            size: (vals + cap * size_of::<V>()).next_multiple_of(Self::ALIGN),
        }
    }

    /// The slot layout of size class `class`: what its arena is built
    /// for.
    pub(crate) fn slot_layout(class: usize) -> Layout {
        Layout::from_size_align(Self::CLASSES[class].size, Self::ALIGN)
            .expect("leaf class layout fits the address space")
    }

    /// Carves a fresh leaf of the smallest class holding `len` entries
    /// out of the cache and writes its header; the entry arrays stay
    /// uninitialized (`len` of them are the caller's to fill
    /// immediately).
    fn alloc_shell(cache: &mut NodeCache<'_>, len: usize, sentinel: u8) -> *mut Leaf<K, V> {
        debug_assert!(len <= LEAF_CAP);
        let class = leaf_class(len);
        let (idx, node) = cache.alloc_leaf::<K, V>(class);
        // SAFETY: `alloc_leaf` returned an exclusive slot of `class`'s
        // layout, aligned for the header it starts with.
        unsafe {
            node.write(Leaf {
                idx,
                len: len as u8,
                drop_hint: AtomicU8::new(HINT_ALL),
                class: class as u8,
                sentinel,
                _entries: PhantomData,
            });
        }
        node
    }

    /// Allocates a sentinel (entry-less) leaf for the infinity `key`.
    pub(crate) fn new_sentinel_in(cache: &mut NodeCache<'_>, key: Key<K>) -> *mut Leaf<K, V> {
        let rank = match key {
            Key::Inf0 => 1,
            Key::Inf1 => 2,
            Key::Inf2 => 3,
            Key::Fin(_) => unreachable!("a sentinel leaf stands for an infinity"),
        };
        Self::alloc_shell(cache, 0, rank)
    }

    /// Allocates a 1-entry user leaf block (smallest class).
    pub(crate) fn new_user_in(cache: &mut NodeCache<'_>, key: K, value: V) -> *mut Leaf<K, V> {
        let node = Self::alloc_shell(cache, 1, 0);
        // SAFETY: fresh exclusive shell; slot 0 is within every class.
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

    /// The size class of this leaf's slot.
    #[inline]
    pub(crate) fn class(&self) -> usize {
        self.class as usize
    }

    /// The infinity a sentinel leaf stands for; `None` for a user leaf
    /// (whose router is its largest entry).
    pub(crate) fn sentinel(&self) -> Option<Key<K>> {
        match self.sentinel {
            0 => None,
            1 => Some(Key::Inf0),
            2 => Some(Key::Inf1),
            _ => Some(Key::Inf2),
        }
    }

    /// The block's keys, sorted ascending. Empty for sentinel leaves.
    #[inline]
    pub(crate) fn entry_keys(&self) -> &[K] {
        // SAFETY: `self` heads a slot of its class; the first `len` keys
        // are initialized by construction and immutable after
        // publication.
        unsafe {
            std::slice::from_raw_parts(
                Self::key_slot(ptr::from_ref(self).cast_mut(), 0),
                self.len(),
            )
        }
    }

    /// The block's values, parallel to [`entry_keys`](Self::entry_keys).
    #[inline]
    pub(crate) fn entry_vals(&self) -> &[V] {
        // SAFETY: as `entry_keys`.
        unsafe {
            std::slice::from_raw_parts(
                Self::val_slot(ptr::from_ref(self).cast_mut(), 0),
                self.len(),
            )
        }
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
    /// the class's whole key array unconditionally: only the first
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

    /// Key slot `i` of the leaf at `node`.
    ///
    /// # Safety
    ///
    /// `node` heads a leaf slot of the arenas and `i` is below its
    /// class's capacity.
    #[inline(always)]
    unsafe fn key_slot(node: *mut Self, i: usize) -> *mut K {
        // SAFETY: the key array starts `KEYS` bytes into every class's
        // slot and holds the class's capacity of keys.
        unsafe { node.byte_add(Self::KEYS).cast::<K>().add(i) }
    }

    /// Value slot `i` of the leaf at `node`.
    ///
    /// # Safety
    ///
    /// As [`key_slot`](Self::key_slot), and the header is initialized.
    #[inline(always)]
    unsafe fn val_slot(node: *mut Self, i: usize) -> *mut V {
        // SAFETY: the header names the class; the value array starts at
        // that class's `vals` offset and holds its capacity of values.
        unsafe {
            let vals = Self::CLASSES[(*node).class()].vals;
            node.byte_add(vals).cast::<V>().add(i)
        }
    }

    /// Copy-on-write: a fresh leaf block = `old` with `(key, value)`
    /// inserted at sorted position `pos`, in the class for `len + 1`
    /// entries. Requires `old.len() < LEAF_CAP`.
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
    ) -> *mut Leaf<K, V> {
        let n = old.len();
        debug_assert!(n < LEAF_CAP && pos <= n);
        let node = Self::alloc_shell(cache, n + 1, 0);
        // SAFETY: fresh exclusive shell; source ranges are initialized
        // prefixes of `old`; destination indices stay below `n + 1`,
        // which the new block's class holds.
        unsafe {
            let src = ptr::from_ref(old).cast_mut();
            let (src_k, src_v) = (Self::key_slot(src, 0), Self::val_slot(src, 0));
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
    /// `pos`, in the class for `len - 1` entries. Requires
    /// `old.len() >= 2` (a 1-entry block is removed by the classic
    /// flag/tag/splice protocol instead).
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
    ) -> *mut Leaf<K, V> {
        let n = old.len();
        debug_assert!(n >= 2 && pos < n);
        let node = Self::alloc_shell(cache, n - 1, 0);
        // SAFETY: as `block_insert_copy`.
        unsafe {
            let src = ptr::from_ref(old).cast_mut();
            let (src_k, src_v) = (Self::key_slot(src, 0), Self::val_slot(src, 0));
            ptr::copy_nonoverlapping(src_k, Self::key_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_v, Self::val_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_k.add(pos + 1), Self::key_slot(node, pos), n - 1 - pos);
            ptr::copy_nonoverlapping(src_v.add(pos + 1), Self::val_slot(node, pos), n - 1 - pos);
        }
        node
    }

    /// Splits a full block around an insertion: builds two fresh blocks
    /// holding `old`'s entries plus `(key, value)` (left-biased halves,
    /// each in the class its length needs) under a fresh route,
    /// returning `(route, left, right, holder, hpos)` where
    /// `holder`/`hpos` locate the *new* entry so a failed publish can
    /// recover it.
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
        // The right half's smallest key routes between the halves.
        let router = if left_n == pos {
            key.clone()
        } else {
            old_keys[if left_n < pos { left_n } else { left_n - 1 }].clone()
        };
        let left = Self::alloc_shell(cache, left_n, 0);
        let right = Self::alloc_shell(cache, total - left_n, 0);
        let route = Route::new_in(
            cache,
            Key::Fin(router),
            Edge::<K, V>::of_leaf(left),
            Edge::of_leaf(right),
        );
        let key = MaybeUninit::new(key);
        let value = MaybeUninit::new(value);
        // SAFETY: each merged position is written to exactly one fresh
        // slot below its block's length; `key`/`value` are read exactly
        // once (pos appears once).
        unsafe {
            let src = ptr::from_ref(old).cast_mut();
            let (src_k, src_v) = (Self::key_slot(src, 0), Self::val_slot(src, 0));
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
    /// key-ascending and unique (the bulk loader's contract), in the
    /// class for `n` entries.
    pub(crate) fn block_from_iter<I: Iterator<Item = (K, V)>>(
        cache: &mut NodeCache<'_>,
        it: &mut I,
        n: usize,
    ) -> *mut Leaf<K, V> {
        debug_assert!((1..=LEAF_CAP).contains(&n));
        let node = Self::alloc_shell(cache, n, 0);
        // SAFETY: fresh exclusive shell of a class holding `n` entries;
        // each of the `n` declared slots is written exactly once before
        // any read.
        unsafe {
            for i in 0..n {
                let (k, v) = it.next().expect("n pairs remain");
                Self::key_slot(node, i).write(k);
                Self::val_slot(node, i).write(v);
            }
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

/// Drops the entries a leaf leaving the tree for good still owns, as
/// its drop hint says. The slot memory itself stays valid (caller
/// releases or abandons it).
///
/// # Safety
///
/// Exclusive access (the leaf's grace period has ended, or it was never
/// published); contents not already dropped.
pub(crate) unsafe fn drop_leaf_contents<K, V>(node: *mut Leaf<K, V>) {
    // SAFETY: exclusive per contract; every position dropped is below
    // `len`, so initialized and inside the class's arrays.
    unsafe {
        let len = (*node).len();
        match (*node).drop_hint.load(Ordering::Relaxed) {
            HINT_NONE => {}
            HINT_ALL => {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Leaf::key_slot(node, 0), len));
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Leaf::val_slot(node, 0), len));
            }
            pos => {
                debug_assert!((pos as usize) < len);
                ptr::drop_in_place(Leaf::key_slot(node, pos as usize));
                ptr::drop_in_place(Leaf::val_slot(node, pos as usize));
            }
        }
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
/// entries and routing key, then releases its slot to its own arena.
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
                let (idx, class) = ((*leaf).idx, (*leaf).class());
                drop_leaf_contents(leaf);
                arenas.leaves[class].release(idx);
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
/// what the block scan at the end of a descent reads; the edge's kind
/// names the leaf's class, so the key array's end is known without
/// touching the leaf. This is the per-level descent hint: one line per
/// route hop, like the paper's pointer-chasing loop wants, and two for
/// the one leaf a descent reaches; see [`prefetch_wide`] for the
/// traversal variant.
#[inline(always)]
pub(crate) fn prefetch<K, V>(edge: Edge<K, V>) {
    let addr = edge.addr().cast_const();
    prefetch_line(addr);
    if edge.is_leaf() {
        let vals = Leaf::<K, V>::CLASSES[edge.leaf_class()].vals;
        prefetch_line(addr.wrapping_add(vals - 1));
    }
}

/// Prefetch of every line of the leaf a leaf edge points to: the header
/// and all the entries a block scan is about to read. Issued where the
/// caller *knows* it is about to scan the whole block (range scans).
#[inline(always)]
pub(crate) fn prefetch_wide<K, V>(edge: Edge<K, V>) {
    let addr = edge.addr().cast_const();
    let size = Leaf::<K, V>::CLASSES[edge.leaf_class()].size;
    prefetch_line(addr);
    let mut off = 64 - (addr as usize % 64);
    while off < size {
        prefetch_line(addr.wrapping_add(off));
        off += 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NodeCache;
    use std::mem::offset_of;

    fn arenas_for<K, V>() -> Arenas {
        Arenas::new::<K, V>()
    }

    /// Frees a leaf that was replaced (entries moved on) or dismantled.
    unsafe fn free_moved<K, V>(cache: &mut NodeCache<'_>, leaf: *mut Leaf<K, V>) {
        unsafe {
            (*leaf).set_drop_hint(HINT_NONE);
            drop_leaf_contents(leaf);
            cache.free_leaf_shell(leaf);
        }
    }

    /// Frees a leaf that still owns all its entries.
    unsafe fn free_owned<K, V>(cache: &mut NodeCache<'_>, leaf: *mut Leaf<K, V>) {
        unsafe {
            drop_leaf_contents(leaf);
            cache.free_leaf_shell(leaf);
        }
    }

    /// A block of `keys` (ascending), built by COW inserts from one key.
    fn block_of(cache: &mut NodeCache<'_>, keys: &[i64]) -> *mut Leaf<i64, i64> {
        let mut leaf = Leaf::new_user_in(cache, keys[0], keys[0]);
        for (i, &k) in keys.iter().enumerate().skip(1) {
            unsafe {
                let next = Leaf::block_insert_copy(cache, &*leaf, i, k, k);
                free_moved(cache, leaf);
                leaf = next;
            }
        }
        leaf
    }

    #[test]
    fn node_classes_have_the_compact_layouts() {
        // The sizes the arena-bytes-per-key budget rests on.
        assert_eq!(size_of::<Route<u64>>(), 32);
        assert!(align_of::<Route<u8>>() >= 8);
        // A route is the paper's node: two edges, the key, the slot.
        assert_eq!(offset_of!(Route<u64>, left), 0);
        assert_eq!(offset_of!(Route<u64>, key), 16);
        // A leaf header is 8 bytes and carries no routing key and no
        // edge words: the entries follow it.
        type L = Leaf<u64, u64>;
        assert_eq!(size_of::<L>(), 8);
        assert_eq!(offset_of!(L, idx), 0);
        assert_eq!(offset_of!(L, len), 4);
        assert_eq!(offset_of!(L, drop_hint), 5);
        assert_eq!(offset_of!(L, class), 6);
        assert_eq!(offset_of!(L, sentinel), 7);
        assert_eq!(L::KEYS, 8);
        // Values follow `cap` keys; classes of 4, 6 and 8 entries.
        assert_eq!(
            L::CLASSES.map(|c| (c.vals, c.size)),
            [(40, 72), (56, 104), (72, 136)]
        );
        assert_eq!(L::slot_layout(2), Layout::from_size_align(136, 8).unwrap());
        // Narrow entries pack tight; the header's alignment still holds.
        assert_eq!(Leaf::<u8, u8>::ALIGN, 4);
        assert_eq!(Leaf::<u8, u8>::CLASSES.map(|c| c.size), [16, 20, 24]);
        assert_eq!(Leaf::<u64, ()>::CLASSES.map(|c| c.size), [40, 56, 72]);
        assert_eq!(Leaf::<u32, u64>::CLASSES.map(|c| c.vals), [24, 32, 40]);
        assert_eq!(LEAF_CLASS_CAPS[LEAF_CLASSES - 1], LEAF_CAP);
        // The exposition labels name the classes by capacity.
        let labels = crate::obs::POOL_CLASS_LABELS;
        assert_eq!(labels[0], "route");
        for (label, cap) in labels[1..].iter().zip(LEAF_CLASS_CAPS) {
            assert_eq!(*label, format!("leaf{cap}"));
        }
    }

    #[test]
    fn lengths_map_to_the_smallest_class_that_holds_them() {
        let classes: Vec<usize> = (0..=LEAF_CAP).map(leaf_class).collect();
        assert_eq!(classes, [0, 0, 0, 0, 0, 1, 1, 2, 2]);
        for len in 0..=LEAF_CAP {
            let c = leaf_class(len);
            assert!(len <= LEAF_CLASS_CAPS[c]);
            assert!(c == 0 || len > LEAF_CLASS_CAPS[c - 1]);
        }
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
            assert_eq!(e.leaf_class(), 0);
            assert_eq!(
                arenas.leaves[0].slot_ptr(e.idx()).cast::<Leaf<i64, ()>>(),
                l
            );
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
            assert_eq!((*r_leaf.leaf()).sentinel(), Some(Key::Inf2));
            assert_eq!((*r_leaf.leaf()).len(), 0);
            let l0 = load(&(*s.route()).left);
            let l1 = load(&(*s.route()).right);
            assert!(l0.is_leaf() && l1.is_leaf());
            assert_eq!((*l0.leaf()).sentinel(), Some(Key::Inf0));
            assert_eq!((*l1.leaf()).sentinel(), Some(Key::Inf1));
            drop(cache);
            free_subtree(Edge::<i64, ()>::of_route(root), &arenas);
        }
        // Two routes and three smallest-class leaves, each in its own
        // arena, all back on the free lists.
        assert_eq!(arenas.routes.len(), 2);
        assert_eq!(arenas.leaves.each_ref().map(|p| p.len()), [3, 0, 0]);
    }

    #[test]
    fn block_find_and_accessors() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        let mut leaf = Leaf::<i64, i64>::new_user_in(&mut cache, 10, 100);
        unsafe {
            assert_eq!((*leaf).sentinel(), None);
            for k in [30i64, 20, 40] {
                let pos = (*leaf).find(&k).unwrap_err();
                let next = Leaf::block_insert_copy(&mut cache, &*leaf, pos, k, k * 10);
                free_moved(&mut cache, leaf);
                leaf = next;
            }
            assert_eq!((*leaf).entry_keys(), &[10, 20, 30, 40]);
            assert_eq!((*leaf).entry_vals(), &[100, 200, 300, 400]);
            assert_eq!((*leaf).find(&30), Ok(2));
            assert_eq!((*leaf).find(&35), Err(3));
            assert_eq!((*leaf).find(&5), Err(0));
            assert_eq!((*leaf).find(&99), Err(4));
            free_owned(&mut cache, leaf); // HINT_ALL: drops all four entries
        }
    }

    #[test]
    fn cow_inserts_move_blocks_up_the_classes() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        let mut leaf = Leaf::<i64, i64>::new_user_in(&mut cache, 0, 0);
        let mut seen = vec![unsafe { (*leaf).class() }];
        unsafe {
            for k in 1..LEAF_CAP as i64 {
                let next = Leaf::block_insert_copy(&mut cache, &*leaf, k as usize, k, -k);
                free_moved(&mut cache, leaf);
                leaf = next;
                seen.push((*leaf).class());
                // Entries read back through each class's value offset.
                assert_eq!((*leaf).entry_vals().last(), Some(&-k));
            }
            // 1..=4 entries: class 4; 5 and 6: class 6; 7 and 8: class 8.
            assert_eq!(seen, [0, 0, 0, 0, 1, 1, 2, 2]);
            assert_eq!(
                Edge::of_leaf(leaf).leaf_class(),
                2,
                "the edge names the class"
            );
            free_owned(&mut cache, leaf);
        }
    }

    #[test]
    fn cow_removes_move_blocks_down_the_classes() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        let five = block_of(&mut cache, &[1, 2, 3, 4, 5]);
        unsafe {
            assert_eq!((*five).class(), 1);
            // Drop the middle entry: 5 -> 4 entries moves to class 4.
            let four = Leaf::block_remove_copy(&mut cache, &*five, 2);
            assert_eq!((*four).entry_keys(), &[1, 2, 4, 5]);
            assert_eq!((*four).entry_vals(), &[1, 2, 4, 5]);
            assert_eq!((*four).class(), 0);
            // Drop the max: the block's largest entry (its router) shrinks.
            let three = Leaf::block_remove_copy(&mut cache, &*four, 3);
            assert_eq!((*three).entry_keys(), &[1, 2, 4]);
            assert_eq!((*three).class(), 0);
            (*five).set_drop_hint(2);
            free_owned(&mut cache, five);
            (*four).set_drop_hint(3);
            free_owned(&mut cache, four);
            free_owned(&mut cache, three);
        }
    }

    #[test]
    fn split_insert_partitions_and_locates_new_entry() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        // A full block 0,10,..,70.
        let keys: Vec<i64> = (0..LEAF_CAP as i64).map(|i| i * 10).collect();
        let leaf = block_of(&mut cache, &keys);
        unsafe {
            assert_eq!((*leaf).class(), 2);
            let split = Leaf::block_split_insert(&mut cache, &*leaf, 4, 35, 35);
            let route = split.route;
            let left = (*route).left.load::<i64, i64>(&arenas);
            let right = (*route).right.load::<i64, i64>(&arenas);
            assert!(
                left.is_leaf() && right.is_leaf(),
                "the halves hang as leaves"
            );
            assert_eq!((left.leaf(), right.leaf()), (split.left, split.right));
            // 9 entries split 5 + 4: classes 6 and 4, named by the edges.
            assert_eq!((left.leaf_class(), right.leaf_class()), (1, 0));
            let (left, right) = (split.left, split.right);
            assert_eq!(((*left).class(), (*right).class()), (1, 0));
            assert_eq!((*left).entry_keys(), &[0, 10, 20, 30, 35]);
            assert_eq!((*right).entry_keys(), &[40, 50, 60, 70]);
            assert_eq!((*right).entry_vals(), &[40, 50, 60, 70]);
            assert_eq!((*route).key, Key::Fin(40), "router = right half min");
            assert_eq!(split.holder, left);
            assert_eq!((*split.holder).entry_keys()[split.hpos], 35);
            // Dismantle as a CAS loser would: recover the new entry,
            // free the three shells, old block keeps its entries.
            let (k, v) = Leaf::take_entry(split.holder, split.hpos);
            assert_eq!((k, v), (35, 35));
            free_moved(&mut cache, left);
            free_moved(&mut cache, right);
            drop_route_contents(route);
            cache.free_route_shell(route);
            free_owned(&mut cache, leaf);
        }
    }

    #[test]
    fn split_router_is_the_right_half_minimum_wherever_the_key_lands() {
        let arenas = arenas_for::<i64, i64>();
        let mut cache = NodeCache::direct(&arenas);
        let keys: Vec<i64> = (0..LEAF_CAP as i64).map(|i| i * 10).collect();
        // The new key lands left of, at and right of the split point.
        for new in [5, 35, 45, 65] {
            let leaf = block_of(&mut cache, &keys);
            unsafe {
                let pos = (*leaf).find(&new).unwrap_err();
                let split = Leaf::block_split_insert(&mut cache, &*leaf, pos, new, new);
                let right_min = (*split.right).entry_keys()[0];
                assert_eq!((*split.route).key, Key::Fin(right_min), "new key {new}");
                assert!((*split.left).entry_keys().iter().all(|&k| k < right_min));
                Leaf::take_entry(split.holder, split.hpos);
                free_moved(&mut cache, split.left);
                free_moved(&mut cache, split.right);
                drop_route_contents(split.route);
                cache.free_route_shell(split.route);
                free_owned(&mut cache, leaf);
            }
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
            free_moved(&mut cache, a);
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            // COW-remove entry 0 from `b`: hint `0` drops only that one.
            let c = Leaf::block_remove_copy(&mut cache, &*b, 0);
            (*b).set_drop_hint(0);
            free_owned(&mut cache, b);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            // `c` still owns its single entry: HINT_ALL drops it.
            free_owned(&mut cache, c);
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
        let arenas = Arenas::new::<u64, ()>();
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
