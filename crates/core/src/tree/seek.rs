//! The seek phase (Algorithm 1).
//!
//! Every operation begins by traversing from the root to a leaf along
//! the *access path*. The traversal maintains the paper's four-pointer
//! seek record:
//!
//! * `leaf` — the last node on the access path,
//! * `parent` — its predecessor,
//! * `(ancestor, successor)` — the last **untagged** edge encountered
//!   before reaching `parent`.
//!
//! When no conflicting delete is in progress, `ancestor`/`successor`
//! coincide with the grandparent/parent. Otherwise every node from
//! `successor` down to `parent` is in the process of being removed, and
//! the splice at `ancestor` will excise the whole chain at once.

use super::{NmTreeMap, RestartPolicy};
use crate::chaos::{self, Action, Point};
use crate::key::Key;
use crate::node::{prefetch, Leaf, Route};
use crate::obs::{self, EventKind};
use crate::packed::Edge;
use crate::stats;
use nmbst_reclaim::Reclaim;
use std::cmp::Ordering;

/// The four addresses a seek returns (Algorithm 1, lines 6–11), plus the
/// positional key bounds of the `(ancestor → successor)` edge that make
/// the record reusable as a *finger* for a different key. The first
/// three are always routes; only `leaf` is a leaf.
///
/// Raw pointers are valid for dereference only under the reclamation
/// guard the seek ran under.
pub(crate) struct SeekRecord<K, V> {
    pub(crate) ancestor: *mut Route<K>,
    pub(crate) successor: *mut Route<K>,
    pub(crate) parent: *mut Route<K>,
    pub(crate) leaf: *mut Leaf<K, V>,
    /// Lower key bound of the anchor edge's position: every key that
    /// routes through `(ancestor → successor)` is ≥ it. Null means −∞.
    /// Points at the routing key of a route on the recorded access path
    /// — dereference only under the record's guard.
    ///
    /// The stored bounds are those accumulated from the routing
    /// decisions strictly *above* the successor — the edge's exact
    /// positional window as of this descent. (They deliberately exclude
    /// the successor's own routing decision: [`seek_from`] re-compares
    /// at the successor, so a finger key may branch the other way there
    /// and still be reachable through the edge.) A key inside the
    /// window is guaranteed to route through the edge; a key outside it
    /// merely forfeits the finger and re-seeks from the root. Splices
    /// above the anchor only ever *widen* positional windows (they
    /// remove routing nodes; inserts grow the tree at leaves, never
    /// above a route), so "inside the stored window" keeps implying
    /// "routes through the edge" under concurrent restructuring.
    ///
    /// [`seek_from`]: NmTreeMap::seek_from
    pub(crate) lo: *const Key<K>,
    /// Upper (strict) key bound of the anchor edge's position; null
    /// means +∞. Same provenance and caveats as `lo`.
    pub(crate) hi: *const Key<K>,
}

impl<K, V> SeekRecord<K, V> {
    pub(crate) fn empty() -> Self {
        SeekRecord {
            ancestor: std::ptr::null_mut(),
            successor: std::ptr::null_mut(),
            parent: std::ptr::null_mut(),
            leaf: std::ptr::null_mut(),
            lo: std::ptr::null(),
            hi: std::ptr::null(),
        }
    }
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Algorithm 1, lines 13–33. Fills `rec` with the access-path
    /// addresses for `key`.
    ///
    /// # Safety
    ///
    /// Caller must hold a reclamation guard for this tree across the call
    /// and for as long as the returned record is dereferenced.
    // Perf: inline so the per-op entry points in write.rs fuse the descent
    // loop with their retry loops instead of paying a call per (re)seek.
    #[inline]
    pub(crate) unsafe fn seek(&self, key: &K, rec: &mut SeekRecord<K, V>) {
        stats::record_seek();
        obs::emit(EventKind::SeekStart);
        let s = self.s_node();
        // Initialization from the sentinels (lines 15–21).
        rec.ancestor = self.root;
        rec.successor = s;
        rec.parent = s;
        rec.lo = std::ptr::null();
        rec.hi = std::ptr::null();
        // SAFETY: `S` is permanent and pinned by the caller's guard.
        let edge = unsafe { &(*s).left }.load(self.arenas());
        // SAFETY: forwarded contract; the positional bounds of the edge
        // out of `S` are the whole key space.
        let depth = unsafe { self.descend(key, rec, edge, std::ptr::null(), std::ptr::null()) };
        self.metrics.note_depth(depth);
    }

    /// The descent loop shared by [`seek`](Self::seek) and
    /// [`seek_from`](Self::seek_from) (Algorithm 1, lines 22–32): from
    /// `edge`, the edge out of `rec.parent` toward `key` whose positional
    /// window is `[lo, hi)`, follow routes until a leaf edge, keeping the
    /// anchor and its bounds current. Returns the routes entered.
    ///
    /// # Safety
    ///
    /// As [`seek`](Self::seek); `rec.parent` and `edge` come from the
    /// same descent.
    #[inline(always)]
    unsafe fn descend(
        &self,
        key: &K,
        rec: &mut SeekRecord<K, V>,
        mut edge: Edge<K, V>,
        mut lo: *const Key<K>,
        mut hi: *const Key<K>,
    ) -> u64 {
        // SAFETY (all derefs in this function): routes were read from
        // live edges under the caller's guard; retired nodes cannot be
        // freed while it is held, and sentinels are never retired.
        let arenas = self.arenas();
        let mut depth = 0u64;
        // Only route edges are followed: the kind ends the loop at
        // the leaf edge without loading the leaf.
        while !edge.is_leaf() {
            let node = edge.route();
            // An untagged edge into `node` means `node` is not being
            // spliced out: it is a valid anchor for the next splice, and
            // its positional window is the one accumulated so far.
            if !edge.tag() {
                rec.ancestor = rec.parent;
                rec.successor = node;
                rec.lo = lo;
                rec.hi = hi;
            }
            rec.parent = node;
            let node_key = unsafe { &(*node).key };
            let go_left = node_key.user_goes_left_fin(key);
            if go_left {
                hi = node_key;
            } else {
                lo = node_key;
            }
            edge = unsafe { (*node).child(!go_left) }.load(arenas);
            // Start fetching the next node while this iteration's tag
            // bookkeeping and the loop test retire — hides one memory
            // latency per level on cold paths.
            prefetch(edge);
            depth += 1;
        }
        rec.leaf = edge.leaf();
        depth
    }

    /// Restarts a seek from a previously observed `(anchor → successor)`
    /// edge instead of the root — the local-restart optimization of
    /// Chatterjee et al. (arXiv:1404.3272), applied to the modify-path
    /// retry loops.
    ///
    /// The anchor is revalidated first: its child edge for `key` must
    /// still be the *clean* edge to `successor`. Marks are permanent and
    /// a route gets both of its edges marked before any splice can
    /// detach it, so observing the clean edge proves `anchor` was still
    /// in the tree at the moment of the load — descending from it is
    /// then indistinguishable from the tail of a full root seek that
    /// passed through that edge (see DESIGN.md, "Local restart").
    ///
    /// Returns `false` (record contents unspecified) when the anchor
    /// cannot be revalidated — tagged, flagged, or re-pointed edge —
    /// and the caller must fall back to a full [`seek`](Self::seek).
    ///
    /// # Safety
    ///
    /// Same contract as [`seek`](Self::seek); additionally `anchor` and
    /// `successor` must come from a seek record produced under the same
    /// continuously-held guard.
    // Perf: inline for the same reason as `seek` — it is the hot half of
    // every local-restart retry and every finger-anchored batch op.
    #[inline]
    pub(crate) unsafe fn seek_from(
        &self,
        anchor: *mut Route<K>,
        successor: *mut Route<K>,
        key: &K,
        rec: &mut SeekRecord<K, V>,
    ) -> bool {
        // SAFETY (all derefs): `anchor`/`successor` are guard-protected
        // per the contract; everything below them is read from live
        // edges under the same guard.
        let arenas = self.arenas();
        let edge: Edge<K, V> = unsafe { (*anchor).child_for(key) }.load(arenas);
        if edge != Edge::of_route(successor) {
            return false;
        }
        rec.ancestor = anchor;
        rec.successor = successor;
        rec.parent = successor;
        // Resume the positional bounds from the record: the caller
        // guarantees `key` routes through the anchor edge (same key as
        // the recorded seek, or a finger hit vetted against these very
        // bounds), so the stored `[lo, hi)` is a valid starting point.
        // `successor` may be a sentinel (S), whose key is safe as a
        // bound: only `hi` can ever take one (user keys never route
        // right of an infinite key) and ∞ₓ compares above every user
        // key, same as null.
        let (mut lo, mut hi) = (rec.lo, rec.hi);
        let s_key = unsafe { &(*successor).key };
        let go_left = s_key.user_goes_left_fin(key);
        if go_left {
            hi = s_key;
        } else {
            lo = s_key;
        }
        let edge = unsafe { (*successor).child(!go_left) }.load(arenas);
        // SAFETY: forwarded contract; `edge` leaves `rec.parent`.
        unsafe { self.descend(key, rec, edge, lo, hi) };
        stats::record_local_restart();
        obs::emit(EventKind::LocalRestart);
        true
    }

    /// Re-seeks after a failed CAS, honoring the tree's
    /// [`RestartPolicy`]: under `Local` the previous record's anchor is
    /// revalidated and the descent restarted there; any failure (or the
    /// `Root` policy) performs a full root seek.
    ///
    /// # Safety
    ///
    /// Same contract as [`seek`](Self::seek); additionally `rec` must
    /// hold the record of a prior seek for the same `key` performed
    /// under the same continuously-held guard.
    // Perf: inline so the policy dispatch folds away at the call sites.
    #[inline]
    pub(crate) unsafe fn seek_retry(&self, key: &K, rec: &mut SeekRecord<K, V>) {
        if self.restart == RestartPolicy::Local && !rec.ancestor.is_null() {
            let (anchor, successor) = (rec.ancestor, rec.successor);
            // SAFETY: forwarded contract.
            if unsafe { self.seek_from(anchor, successor, key, rec) } {
                return;
            }
        }
        // SAFETY: forwarded contract.
        unsafe { self.seek(key, rec) };
    }

    /// Batch-op seek: descend from a previous op's seek record — the
    /// *finger* — when the caller says it has one and it revalidates,
    /// from the root otherwise. Returns whether the finger was used (a
    /// finger **hit**: sorted neighbors share most of their access path,
    /// so the descent pays only the inter-key distance).
    ///
    /// Unlike a local-restart retry — which re-seeks the *same* key, so
    /// the anchor edge is on its path by construction — a finger carries
    /// the record to a **different** key, which is only sound if that key
    /// routes through the anchor edge at all. The record's positional
    /// bounds (`SeekRecord::lo`/`hi`) gate exactly that: a key inside
    /// `[lo, hi)` provably reaches the edge, a key outside forfeits the
    /// finger. After the gate, safety reduces to
    /// [`seek_from`](Self::seek_from)'s revalidation — a stale or
    /// torn-down anchor fails the clean-edge check and the op falls back
    /// to a full root seek. The [`Point::BatchFinger`] chaos point fires
    /// before the gate; [`Action::Abandon`] skips the anchor (a
    /// deterministic forced miss), it does not abandon the op.
    ///
    /// # Safety
    ///
    /// Same contract as [`seek`](Self::seek); when `finger` is true,
    /// `rec` must additionally hold a record produced under the same
    /// continuously-held guard (any key).
    #[inline]
    pub(crate) unsafe fn seek_finger(
        &self,
        key: &K,
        rec: &mut SeekRecord<K, V>,
        finger: bool,
    ) -> bool {
        if finger && !rec.ancestor.is_null() && chaos::hit(Point::BatchFinger) == Action::Continue {
            // SAFETY: bound pointers target routing keys of nodes on the
            // recorded path, guard-protected per the `finger` contract.
            let in_bounds = unsafe {
                (rec.lo.is_null() || (*rec.lo).cmp_user(key) != Ordering::Greater)
                    && (rec.hi.is_null() || (*rec.hi).cmp_user(key) == Ordering::Greater)
            };
            if in_bounds {
                let (anchor, successor) = (rec.ancestor, rec.successor);
                // SAFETY: forwarded contract (`finger` vouches for the
                // record, the bounds gate for the key).
                if unsafe { self.seek_from(anchor, successor, key, rec) } {
                    return true;
                }
            }
        }
        // SAFETY: forwarded contract.
        unsafe { self.seek(key, rec) };
        false
    }

    /// Whether `rec` still names `key`'s access path where a write
    /// would act on it: the anchor edge `ancestor → successor` and the
    /// leaf edge `parent → leaf` both still hold their clean values. A
    /// clean edge proves its source was in the tree when loaded (both
    /// edges of a route are marked before any splice can detach it),
    /// and positional windows of routes only widen, so a record that
    /// holds is one a fresh seek could have produced now — in particular
    /// its leaf is on `key`'s access path. A write that replaced the
    /// leaf, grew the tree at it, or spliced the parent or the anchor
    /// out has changed one of the two edges. The batch executor checks
    /// this before it acts on a record seeked earlier in the same run.
    ///
    /// # Safety
    ///
    /// `rec` must come from a seek for `key` under a guard for this
    /// tree that the caller still holds.
    #[inline]
    pub(crate) unsafe fn record_holds(&self, key: &K, rec: &SeekRecord<K, V>) -> bool {
        let arenas = self.arenas();
        // SAFETY: the record's nodes are protected by the caller's
        // guard.
        unsafe {
            (*rec.ancestor).child_for(key).load(arenas) == Edge::<K, V>::of_route(rec.successor)
                && (*rec.parent).child_for(key).load(arenas) == Edge::of_leaf(rec.leaf)
        }
    }

    /// Lightweight traversal for read-only operations: the paper's
    /// search (Algorithm 2, lines 34–39) only consults the final leaf,
    /// so the full record bookkeeping can be skipped.
    ///
    /// # Safety
    ///
    /// Same contract as [`seek`](Self::seek).
    // Perf: inline — this is the whole body of `contains`/`get`.
    #[inline]
    pub(crate) unsafe fn search_leaf(&self, key: &K) -> *mut Leaf<K, V> {
        // SAFETY: see `seek`.
        let arenas = self.arenas();
        let mut edge: Edge<K, V> = unsafe { &(*self.s_node()).left }.load(arenas);
        while !edge.is_leaf() {
            edge = unsafe { (*edge.route()).child_for(key) }.load(arenas);
            prefetch(edge);
        }
        edge.leaf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use nmbst_reclaim::Leaky;

    type Map = NmTreeMap<i64, (), Leaky>;

    #[test]
    fn seek_on_empty_tree_lands_on_inf0() {
        let map = Map::new();
        let mut rec = SeekRecord::empty();
        unsafe {
            map.seek(&42, &mut rec);
            assert_eq!((*rec.leaf).sentinel(), Some(Key::Inf0));
            assert_eq!(rec.parent, map.s_node());
            assert_eq!(rec.successor, map.s_node());
            assert_eq!(rec.ancestor, map.root);
        }
    }

    #[test]
    fn seek_finds_inserted_key() {
        let map = Map::new();
        for k in [50, 25, 75] {
            assert!(map.insert(k, ()));
        }
        let mut rec = SeekRecord::empty();
        unsafe {
            map.seek(&25, &mut rec);
            assert!((*rec.leaf).find(&25).is_ok());
            // No deletes in flight: successor == parent and the ancestor
            // is the parent's parent.
            assert_eq!(rec.successor, rec.parent);
        }
    }

    #[test]
    fn seek_for_missing_key_lands_on_boundary_leaf() {
        let map = Map::new();
        for k in [10, 20, 30] {
            map.insert(k, ());
        }
        let mut rec = SeekRecord::empty();
        unsafe {
            map.seek(&15, &mut rec);
            // The leaf block reached must contain 15's in-order
            // neighbours (all three keys coalesce into one fat leaf at
            // the default cap, so both sides live in the same block).
            let keys = (*rec.leaf).entry_keys();
            assert!(keys.contains(&10) || keys.contains(&20));
            assert!((*rec.leaf).find(&15).is_err());
        }
    }

    #[test]
    fn search_leaf_agrees_with_seek() {
        let map = Map::new();
        for k in 0..64 {
            map.insert(k * 3, ());
        }
        let mut rec = SeekRecord::empty();
        for probe in 0..200 {
            unsafe {
                map.seek(&probe, &mut rec);
                assert_eq!(map.search_leaf(&probe), rec.leaf);
            }
        }
    }
}
