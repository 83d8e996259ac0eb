//! Packed edge words: a 32-bit child *slot index* with the paper's
//! `flag` and `tag` bits, plus a 2-bit *kind*, stolen from its low-order
//! bits.
//!
//! §3.2: "we steal two bits from each child address stored at a node".
//! Since PR 7 the stolen bits come out of an arena index instead of a
//! pointer: nodes live in the tree's arena slabs (see `nmbst-reclaim`'s
//! `NodePool`), and a child reference is the child's `u32` slot index
//! shifted left by four, with the low bits carrying:
//!
//! * bit 0 — **flag**: the head (leaf) node of this edge is being
//!   deleted; both tail and head will leave the tree.
//! * bit 1 — **tag**: only the tail node of this edge is being removed;
//!   the head is hoisted to the tail's ancestor.
//! * bits 2–3 — **kind**: `0` if the head is a [`Route`], `1 + c` if it
//!   is a [`Leaf`] of size class `c` (see `node::LEAF_CLASS_CAPS`).
//!   Routes and each leaf class live in separate arenas with separate
//!   index spaces of 2²⁸ slots each, and the kind names the arena an
//!   index resolves against. It is fixed when the edge word is formed:
//!   marking and hoisting (`with_marks`) keep it, so a descent can stop
//!   at a leaf edge without ever loading the leaf.
//!
//! A whole edge is 4 bytes, and a route's two edges share one 8-byte
//! pair. Every edge of a route has a head: there are no null edges.
//!
//! A marked edge is immutable: no CAS with an unmarked expected value can
//! succeed on it, which is the entire coordination mechanism of the
//! algorithm — there are no operation descriptors.
//!
//! An [`Edge`] snapshot carries both the raw word (what CAS compares)
//! and the address the index resolved to at load time, so the tree
//! logic above keeps dereferencing plain pointers; resolution happens
//! exactly once per atomic load, against the arenas the caller passes
//! in.
//!
//! All bit algebra lives here; the tree logic deals only in the typed
//! [`Edge`] snapshot and the typed transitions on [`AtomicEdge`].

use crate::node::{Leaf, Route};
use crate::pool::Arenas;
use crate::stats;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

const FLAG: u32 = 1 << 0;
const TAG: u32 = 1 << 1;
const MARKS: u32 = FLAG | TAG;
/// Position of the kind field: `0` for a route head, `1 + class` for a
/// leaf head.
const KIND_SHIFT: u32 = 2;
/// The kind field's bits; nonzero iff the edge's head is a leaf.
const KIND: u32 = 0b11 << KIND_SHIFT;
/// Bits below the slot index: the two marks and the kind.
const INDEX_SHIFT: u32 = 4;

/// How the cleanup routine sets the tag bit (§2: the BTS instruction;
/// §6: "our algorithm can be easily modified to use only compare-and-swap
/// instructions"). Both variants are provided so the substitution can be
/// benchmarked (ablation bench `ablation_bts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagMode {
    /// One `fetch_or` — compiles to a single locked RMW (`lock or`),
    /// the moral equivalent of the paper's bit-test-and-set.
    #[default]
    FetchOr,
    /// A CAS loop: read, set bit, compare-exchange, retry on failure.
    CasLoop,
}

/// Resolves the index half of an edge word against the arena its kind
/// names. Route edges — every level of a descent — resolve with the
/// route's compile-time stride, so the offset math on the descent's
/// critical path is constant arithmetic; a leaf edge, reached once per
/// descent, resolves against its class's arena.
#[inline(always)]
fn resolve<K>(arenas: &Arenas, word: u32) -> *mut u8 {
    let idx = word >> INDEX_SHIFT;
    match (word & KIND) >> KIND_SHIFT {
        0 => arenas.routes.slot_ptr_typed::<Route<K>>(idx).cast(),
        kind => arenas.leaves[kind as usize - 1].slot_ptr(idx),
    }
}

/// An immutable snapshot of an edge: the raw word `(flag, tag, kind,
/// index)` plus the address the index resolved to when the snapshot was
/// taken. The head is a [`Route<K>`] or a [`Leaf<K, V>`]; the kind
/// says which (and, for a leaf, its size class), and only [`route`](Self::route) /
/// [`leaf`](Self::leaf) turn the address into a typed pointer.
///
/// Equality and CAS compare the *word*; the cached address is derived
/// state (index resolution is a pure function of the arenas).
pub(crate) struct Edge<K, V> {
    word: u32,
    ptr: *mut u8,
    _head: PhantomData<(*mut Route<K>, *mut Leaf<K, V>)>,
}

impl<K, V> Clone for Edge<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for Edge<K, V> {}

impl<K, V> Edge<K, V> {
    #[inline]
    fn from_parts(word: u32, ptr: *mut u8) -> Self {
        Edge {
            word,
            ptr,
            _head: PhantomData,
        }
    }

    /// An unmarked edge to `route`, formed from the route's own recorded
    /// slot index.
    #[inline]
    pub(crate) fn of_route(route: *mut Route<K>) -> Self {
        // SAFETY: callers hand in routes they may dereference (guarded
        // or owned); `idx` is immutable after allocation.
        Self::new(unsafe { (*route).idx }, 0, route.cast())
    }

    /// An unmarked edge to `leaf`, formed from the leaf's own recorded
    /// slot index and size class.
    #[inline]
    pub(crate) fn of_leaf(leaf: *mut Leaf<K, V>) -> Self {
        // SAFETY: as `of_route`; the class is immutable too.
        let (idx, class) = unsafe { ((*leaf).idx, (*leaf).class()) };
        Self::new(idx, 1 + class as u32, leaf.cast())
    }

    #[inline]
    fn new(idx: u32, kind: u32, ptr: *mut u8) -> Self {
        debug_assert!(idx != 0 && !ptr.is_null());
        debug_assert!(
            idx <= nmbst_reclaim::MAX_INDEX,
            "slot index overflows the edge word"
        );
        debug_assert!(kind <= KIND >> KIND_SHIFT);
        Self::from_parts((idx << INDEX_SHIFT) | (kind << KIND_SHIFT), ptr)
    }

    /// This edge's target with the given marks (used when splicing
    /// copies the flag of the hoisted edge, Algorithm 4 line 108). The
    /// kind is part of the target and survives.
    #[inline]
    pub(crate) fn with_marks(self, flag: bool, tag: bool) -> Self {
        Self::from_parts(
            (self.word & !MARKS) | (flag as u32 * FLAG) | (tag as u32 * TAG),
            self.ptr,
        )
    }

    #[inline(always)]
    fn from_word(arenas: &Arenas, word: u32) -> Self {
        Self::from_parts(word, resolve::<K>(arenas, word))
    }

    /// The arena slot this edge points to (marks and kind removed), in
    /// the arena the kind names.
    #[cfg(test)]
    pub(crate) fn idx(self) -> u32 {
        self.word >> INDEX_SHIFT
    }

    /// `true` if the head is a leaf, `false` if it is a route.
    #[inline(always)]
    pub(crate) fn is_leaf(self) -> bool {
        self.word & KIND != 0
    }

    /// The size class of the head leaf. Only meaningful behind a leaf
    /// edge.
    #[inline(always)]
    pub(crate) fn leaf_class(self) -> usize {
        debug_assert!(self.is_leaf(), "leaf_class() on a route edge");
        ((self.word & KIND) >> KIND_SHIFT) as usize - 1
    }

    /// The head as a route. Only meaningful behind a route edge.
    #[inline(always)]
    pub(crate) fn route(self) -> *mut Route<K> {
        debug_assert!(!self.is_leaf(), "route() on a leaf edge");
        self.ptr.cast()
    }

    /// The head as a leaf. Only meaningful behind a leaf edge.
    #[inline(always)]
    pub(crate) fn leaf(self) -> *mut Leaf<K, V> {
        debug_assert!(self.is_leaf(), "leaf() on a route edge");
        self.ptr.cast()
    }

    /// The head's address, whatever its kind (for prefetch hints).
    #[inline(always)]
    pub(crate) fn addr(self) -> *mut u8 {
        self.ptr
    }

    /// `true` if both edges point to the same node, marks aside.
    #[inline]
    pub(crate) fn same_head(self, other: Self) -> bool {
        (self.word ^ other.word) & !MARKS == 0
    }

    /// The flag bit: the head leaf of this edge is being deleted.
    #[inline]
    pub(crate) fn flag(self) -> bool {
        self.word & FLAG != 0
    }

    /// The tag bit: the tail node of this edge is being removed.
    #[inline]
    pub(crate) fn tag(self) -> bool {
        self.word & TAG != 0
    }

    /// `true` if the edge carries either mark.
    #[inline]
    pub(crate) fn marked(self) -> bool {
        self.word & MARKS != 0
    }

    /// The same edge with the flag bit set.
    #[inline]
    pub(crate) fn flagged(self) -> Self {
        Self::from_parts(self.word | FLAG, self.ptr)
    }
}

impl<K, V> PartialEq for Edge<K, V> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.word == other.word
    }
}
impl<K, V> Eq for Edge<K, V> {}

impl<K, V> std::fmt::Debug for Edge<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_word(self.word, f)
    }
}

fn fmt_word(word: u32, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    match (word & KIND) >> KIND_SHIFT {
        0 => f.write_str("Edge(route")?,
        kind => write!(f, "Edge(leaf class {}", kind - 1)?,
    }
    write!(
        f,
        " slot {}, flag={}, tag={})",
        word >> INDEX_SHIFT,
        word & FLAG != 0,
        word & TAG != 0
    )
}

/// A mutable edge: one 32-bit atomic word holding `(flag, tag, kind,
/// index)`.
///
/// This is a child field of a route (`left` or `right`). The typed
/// operations below are the *only* transitions the algorithm performs.
/// Operations that can surface a target take the arenas, so every
/// returned [`Edge`] snapshot is pre-resolved; the node types it
/// resolves to are the caller's (a route stores no `V`).
pub(crate) struct AtomicEdge {
    word: AtomicU32,
}

impl AtomicEdge {
    /// An edge initialized to `edge` (for nodes built before
    /// publication).
    #[inline]
    pub(crate) fn to<K, V>(edge: Edge<K, V>) -> Self {
        AtomicEdge {
            word: AtomicU32::new(edge.word),
        }
    }

    /// Atomically reads the edge, resolving its target against `arenas`.
    #[inline(always)]
    pub(crate) fn load<K, V>(&self, arenas: &Arenas) -> Edge<K, V> {
        Edge::from_word(arenas, self.word.load(Ordering::Acquire))
    }

    /// Reads the edge non-atomically; requires exclusive access.
    #[inline]
    pub(crate) fn load_mut<K, V>(&mut self, arenas: &Arenas) -> Edge<K, V> {
        Edge::from_word(arenas, *self.word.get_mut())
    }

    /// Plain store for unpublished nodes and for publishing under
    /// exclusive access (the bulk loader).
    #[inline]
    pub(crate) fn store_unsynchronized<K, V>(&self, edge: Edge<K, V>) {
        self.word.store(edge.word, Ordering::Relaxed);
    }

    /// The general CAS on an edge word. Counted as one atomic
    /// instruction under `feature = "instrument"`.
    ///
    /// Returns `Ok(())` on success and the observed edge (resolved
    /// against `arenas`) on failure.
    #[inline]
    pub(crate) fn compare_exchange<K, V>(
        &self,
        expected: Edge<K, V>,
        new: Edge<K, V>,
        arenas: &Arenas,
    ) -> Result<(), Edge<K, V>> {
        stats::record_cas();
        self.word
            .compare_exchange(expected.word, new.word, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(|word| Edge::from_word(arenas, word))
    }

    /// Sets the tag bit (the paper's BTS on the sibling edge, Algorithm 4
    /// line 106). Always succeeds; idempotent under helping. Counted as
    /// one atomic instruction.
    #[inline]
    pub(crate) fn set_tag(&self, mode: TagMode) {
        match mode {
            TagMode::FetchOr => {
                stats::record_bts();
                self.word.fetch_or(TAG, Ordering::AcqRel);
            }
            TagMode::CasLoop => loop {
                let current = self.word.load(Ordering::Acquire);
                if current & TAG != 0 {
                    break;
                }
                stats::record_cas();
                if self
                    .word
                    .compare_exchange_weak(
                        current,
                        current | TAG,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    break;
                }
            },
        }
    }
}

impl std::fmt::Debug for AtomicEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_word(self.word.load(Ordering::Relaxed), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LEAF_CLASSES;
    use nmbst_reclaim::NodePool;

    type E = Edge<u64, u64>;

    /// Every kind: the route arena, then each leaf class.
    const KINDS: [u32; 1 + LEAF_CLASSES] = [0, 1, 2, 3];

    fn arenas() -> Arenas {
        Arenas::new::<u64, u64>()
    }

    fn pool(arenas: &Arenas, kind: u32) -> &NodePool {
        match kind {
            0 => &arenas.routes,
            k => &arenas.leaves[k as usize - 1],
        }
    }

    /// An edge to a fresh (uninitialized) slot of the given kind.
    fn fake_node(arenas: &Arenas, kind: u32) -> E {
        let (idx, ptr) = pool(arenas, kind).bump();
        Edge::new(idx, kind, ptr.as_ptr())
    }

    #[test]
    fn clean_edge_roundtrip() {
        let a = arenas();
        for kind in KINDS {
            let e = fake_node(&a, kind);
            assert_eq!(e.is_leaf(), kind != 0);
            if kind != 0 {
                assert_eq!(e.leaf_class(), kind as usize - 1);
            }
            assert_eq!(pool(&a, kind).slot_ptr(e.idx()), e.addr());
            assert_eq!(Edge::<u64, u64>::from_word(&a, e.word), e);
            assert_eq!(Edge::<u64, u64>::from_word(&a, e.word).addr(), e.addr());
            assert!(!e.flag());
            assert!(!e.tag());
            assert!(!e.marked());
        }
    }

    #[test]
    fn kind_picks_the_arena() {
        // The same index in all four arenas names four different slots.
        let a = arenas();
        let edges = KINDS.map(|kind| fake_node(&a, kind));
        for (i, x) in edges.iter().enumerate() {
            assert_eq!(x.idx(), edges[0].idx());
            assert_eq!(x.addr(), pool(&a, KINDS[i]).slot_ptr(x.idx()));
            for y in &edges[i + 1..] {
                assert_ne!(x, y);
                assert!(!x.same_head(*y));
                assert_ne!(x.addr(), y.addr());
            }
        }
        assert_eq!(edges[0].route().cast::<u8>(), a.routes.slot_ptr(1));
        assert_eq!(edges[3].leaf().cast::<u8>(), a.leaves[2].slot_ptr(1));
    }

    #[test]
    fn marks_do_not_disturb_address_or_kind() {
        let a = arenas();
        for kind in KINDS {
            let base = fake_node(&a, kind);
            for (f, t) in [(false, false), (true, false), (false, true), (true, true)] {
                let e = base.with_marks(f, t);
                assert_eq!(e.addr(), base.addr());
                assert_eq!(e.idx(), base.idx());
                assert_eq!(e.is_leaf(), kind != 0, "the kind survives with_marks");
                if kind != 0 {
                    assert_eq!(e.leaf_class(), base.leaf_class(), "both kind bits survive");
                }
                assert!(e.same_head(base));
                assert_eq!(e.flag(), f);
                assert_eq!(e.tag(), t);
                assert_eq!(e.marked(), f || t);
                // Re-resolving the marked word lands on the same slot.
                assert_eq!(Edge::<u64, u64>::from_word(&a, e.word).addr(), base.addr());
            }
        }
    }

    #[test]
    fn flagged_sets_only_flag() {
        let a = arenas();
        for kind in 1..=3 {
            let e = fake_node(&a, kind).flagged();
            assert!(e.flag());
            assert!(!e.tag());
            assert_eq!(e.leaf_class(), kind as usize - 1);
        }
    }

    #[test]
    fn cas_succeeds_on_expected_value() {
        let a = arenas();
        let p = fake_node(&a, 1);
        let q = fake_node(&a, 0);
        let edge = AtomicEdge::to(p);
        assert!(edge.compare_exchange(p, q, &a).is_ok());
        let now: E = edge.load(&a);
        assert_eq!(now.addr(), q.addr());
        assert_eq!(now.idx(), q.idx());
        assert!(!now.is_leaf());
    }

    #[test]
    fn cas_fails_on_marked_edge() {
        let a = arenas();
        let p = fake_node(&a, 1);
        let q = fake_node(&a, 1);
        let edge = AtomicEdge::to(p);
        edge.set_tag(TagMode::FetchOr);
        let err = edge.compare_exchange(p, q, &a).unwrap_err();
        assert!(err.tag());
        assert_eq!(err.addr(), p.addr());
        // A marked edge is frozen: its target can never change again.
        assert_eq!(edge.load::<u64, u64>(&a).addr(), p.addr());
    }

    #[test]
    fn flag_cas_is_the_injection_step() {
        let a = arenas();
        let p = fake_node(&a, 2);
        let edge = AtomicEdge::to(p);
        assert!(edge.compare_exchange(p, p.flagged(), &a).is_ok());
        assert!(edge.load::<u64, u64>(&a).flag());
        // Second injection on the same edge fails (duplicate delete).
        assert!(edge.compare_exchange(p, p.flagged(), &a).is_err());
    }

    #[test]
    fn tag_modes_agree() {
        let a = arenas();
        for mode in [TagMode::FetchOr, TagMode::CasLoop] {
            let p = fake_node(&a, 0);
            let edge = AtomicEdge::to(p);
            edge.set_tag(mode);
            let e: E = edge.load(&a);
            assert!(e.tag());
            assert!(!e.flag());
            assert_eq!(e.addr(), p.addr());
            // Idempotent.
            edge.set_tag(mode);
            assert_eq!(edge.load(&a), e);
        }
    }

    #[test]
    fn tag_preserves_flag() {
        let a = arenas();
        let p = fake_node(&a, 3);
        let edge = AtomicEdge::to(p);
        edge.compare_exchange(p, p.flagged(), &a).unwrap();
        edge.set_tag(TagMode::FetchOr);
        let e: E = edge.load(&a);
        assert!(e.flag() && e.tag() && e.is_leaf());
        assert_eq!(e.leaf_class(), 2);
    }

    #[test]
    fn concurrent_taggers_idempotent() {
        let a = arenas();
        let p = fake_node(&a, 1);
        let edge = AtomicEdge::to(p);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        edge.set_tag(TagMode::FetchOr);
                        edge.set_tag(TagMode::CasLoop);
                    }
                });
            }
        });
        let e: E = edge.load(&a);
        assert!(e.tag());
        assert!(!e.flag());
        assert_eq!(e.addr(), p.addr());
    }

    #[test]
    fn debug_names_the_kind() {
        let a = arenas();
        assert_eq!(
            format!("{:?}", fake_node(&a, 0)),
            "Edge(route slot 1, flag=false, tag=false)"
        );
        let leaf = fake_node(&a, 3).flagged();
        assert_eq!(
            format!("{leaf:?}"),
            "Edge(leaf class 2 slot 1, flag=true, tag=false)"
        );
    }
}
