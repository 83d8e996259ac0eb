//! Packed edge words: a 32-bit child *slot index* with the paper's
//! `flag` and `tag` bits, plus a *kind* bit, stolen from its low-order
//! bits.
//!
//! §3.2: "we steal two bits from each child address stored at a node".
//! Since PR 7 the stolen bits come out of an arena index instead of a
//! pointer: nodes live in the tree's arena slabs (see `nmbst-reclaim`'s
//! `NodePool`), and a child reference is the child's `u32` slot index
//! shifted left by three, with the low bits carrying:
//!
//! * bit 0 — **flag**: the head (leaf) node of this edge is being
//!   deleted; both tail and head will leave the tree.
//! * bit 1 — **tag**: only the tail node of this edge is being removed;
//!   the head is hoisted to the tail's ancestor.
//! * bit 2 — **kind**: the head is a [`Leaf`] (set) or a [`Route`]
//!   (clear). Routes and leaves live in separate arenas with separate
//!   index spaces of 2²⁹ slots each, and the kind bit names the arena
//!   an index resolves against. It is fixed when the edge word is
//!   formed: marking and hoisting (`with_marks`) keep it, so a descent
//!   can stop at a leaf edge without ever loading the leaf.
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
/// The kind bit: set iff the edge's head is a leaf.
const LEAF: u32 = 1 << 2;
/// Bits below the slot index: the two marks and the kind bit.
const INDEX_SHIFT: u32 = 3;

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
/// bit names. Typed resolution: the stride is the node type's size,
/// known at compile time, so the offset math is constant arithmetic on
/// the descent's critical path.
#[inline(always)]
fn resolve<K, V>(arenas: &Arenas, word: u32) -> *mut u8 {
    let idx = word >> INDEX_SHIFT;
    if word & LEAF != 0 {
        arenas.leaves.slot_ptr_typed::<Leaf<K, V>>(idx).cast()
    } else {
        arenas.routes.slot_ptr_typed::<Route<K>>(idx).cast()
    }
}

/// An immutable snapshot of an edge: the raw word `(flag, tag, kind,
/// index)` plus the address the index resolved to when the snapshot was
/// taken. The head is a [`Route<K>`] or a [`Leaf<K, V>`]; the kind bit
/// says which, and only [`route`](Self::route) /
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
        Self::new(unsafe { (*route).idx }, false, route.cast())
    }

    /// An unmarked edge to `leaf`, formed from the leaf's own recorded
    /// slot index.
    #[inline]
    pub(crate) fn of_leaf(leaf: *mut Leaf<K, V>) -> Self {
        // SAFETY: as `of_route`.
        Self::new(unsafe { (*leaf).idx }, true, leaf.cast())
    }

    #[inline]
    fn new(idx: u32, leaf: bool, ptr: *mut u8) -> Self {
        debug_assert!(idx != 0 && !ptr.is_null());
        debug_assert!(
            idx <= nmbst_reclaim::MAX_INDEX,
            "slot index overflows the edge word"
        );
        Self::from_parts((idx << INDEX_SHIFT) | (leaf as u32 * LEAF), ptr)
    }

    /// This edge's target with the given marks (used when splicing
    /// copies the flag of the hoisted edge, Algorithm 4 line 108). The
    /// kind bit is part of the target and survives.
    #[inline]
    pub(crate) fn with_marks(self, flag: bool, tag: bool) -> Self {
        Self::from_parts(
            (self.word & !MARKS) | (flag as u32 * FLAG) | (tag as u32 * TAG),
            self.ptr,
        )
    }

    #[inline(always)]
    fn from_word(arenas: &Arenas, word: u32) -> Self {
        Self::from_parts(word, resolve::<K, V>(arenas, word))
    }

    /// The arena slot this edge points to (marks and kind removed), in
    /// the arena [`is_leaf`](Self::is_leaf) names.
    #[cfg(test)]
    pub(crate) fn idx(self) -> u32 {
        self.word >> INDEX_SHIFT
    }

    /// `true` if the head is a leaf, `false` if it is a route.
    #[inline(always)]
    pub(crate) fn is_leaf(self) -> bool {
        self.word & LEAF != 0
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
    write!(
        f,
        "Edge({} slot {}, flag={}, tag={})",
        if word & LEAF != 0 { "leaf" } else { "route" },
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

    type E = Edge<u64, u64>;

    fn arenas() -> Arenas {
        Arenas::new::<u64, u64>(true)
    }

    /// An edge to a fresh (uninitialized) slot of the given class.
    fn fake_node(arenas: &Arenas, leaf: bool) -> E {
        let pool = if leaf { &arenas.leaves } else { &arenas.routes };
        let (idx, ptr) = pool.bump();
        Edge::new(idx, leaf, ptr.as_ptr())
    }

    #[test]
    fn clean_edge_roundtrip() {
        let a = arenas();
        for leaf in [false, true] {
            let e = fake_node(&a, leaf);
            assert_eq!(e.is_leaf(), leaf);
            let pool = if leaf { &a.leaves } else { &a.routes };
            assert_eq!(pool.slot_ptr(e.idx()), e.addr());
            assert_eq!(Edge::<u64, u64>::from_word(&a, e.word), e);
            assert_eq!(Edge::<u64, u64>::from_word(&a, e.word).addr(), e.addr());
            assert!(!e.flag());
            assert!(!e.tag());
            assert!(!e.marked());
        }
    }

    #[test]
    fn kind_bit_picks_the_arena() {
        // The same index in both classes names two different slots.
        let a = arenas();
        let r = fake_node(&a, false);
        let l = fake_node(&a, true);
        assert_eq!(r.idx(), l.idx());
        assert_ne!(r, l);
        assert!(!r.same_head(l));
        assert_ne!(r.addr(), l.addr());
        assert_eq!(r.route().cast::<u8>(), a.routes.slot_ptr(r.idx()));
        assert_eq!(l.leaf().cast::<u8>(), a.leaves.slot_ptr(l.idx()));
    }

    #[test]
    fn marks_do_not_disturb_address_or_kind() {
        let a = arenas();
        for leaf in [false, true] {
            let base = fake_node(&a, leaf);
            for (f, t) in [(false, false), (true, false), (false, true), (true, true)] {
                let e = base.with_marks(f, t);
                assert_eq!(e.addr(), base.addr());
                assert_eq!(e.idx(), base.idx());
                assert_eq!(e.is_leaf(), leaf, "the kind bit survives with_marks");
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
        let e = fake_node(&a, true).flagged();
        assert!(e.flag());
        assert!(!e.tag());
        assert!(e.is_leaf());
    }

    #[test]
    fn cas_succeeds_on_expected_value() {
        let a = arenas();
        let p = fake_node(&a, true);
        let q = fake_node(&a, false);
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
        let p = fake_node(&a, true);
        let q = fake_node(&a, true);
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
        let p = fake_node(&a, true);
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
            let p = fake_node(&a, false);
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
        let p = fake_node(&a, true);
        let edge = AtomicEdge::to(p);
        edge.compare_exchange(p, p.flagged(), &a).unwrap();
        edge.set_tag(TagMode::FetchOr);
        let e: E = edge.load(&a);
        assert!(e.flag() && e.tag() && e.is_leaf());
    }

    #[test]
    fn concurrent_taggers_idempotent() {
        let a = arenas();
        let p = fake_node(&a, true);
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
}
