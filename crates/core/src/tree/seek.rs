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

use super::read::SEARCH_LANES;
use super::{NmTreeMap, RestartPolicy};
use crate::chaos::{self, Action, Point};
use crate::key::Key;
use crate::node::{clean_edge, prefetch, Node};
use crate::obs::{self, EventKind};
use crate::packed::Edge;
use crate::stats;
use nmbst_reclaim::Reclaim;
use std::cmp::Ordering;

/// The four addresses a seek returns (Algorithm 1, lines 6–11), plus the
/// positional key bounds of the `(ancestor → successor)` edge that make
/// the record reusable as a *finger* for a different key.
///
/// Raw pointers are valid for dereference only under the reclamation
/// guard the seek ran under.
pub(crate) struct SeekRecord<K, V> {
    pub(crate) ancestor: *mut Node<K, V>,
    pub(crate) successor: *mut Node<K, V>,
    pub(crate) parent: *mut Node<K, V>,
    pub(crate) leaf: *mut Node<K, V>,
    /// Lower key bound of the anchor edge's position: every key that
    /// routes through `(ancestor → successor)` is ≥ it. Null means −∞.
    /// Points at the routing key of a node on the recorded access path —
    /// dereference only under the record's guard.
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
    /// above an internal node), so "inside the stored window" keeps
    /// implying "routes through the edge" under concurrent
    /// restructuring.
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

/// One in-flight descent of [`seek_many`]: the running Algorithm-1
/// record of its key plus the two edge words the tag bookkeeping reads.
struct SeekLane<'m, K, V, R: Reclaim> {
    tree: &'m NmTreeMap<K, V, R>,
    key: &'m K,
    /// Position of the key in the caller's query order.
    idx: usize,
    ancestor: *mut Node<K, V>,
    successor: *mut Node<K, V>,
    parent: *mut Node<K, V>,
    leaf: *mut Node<K, V>,
    /// The edge `parent → leaf`, as loaded.
    into_leaf: Edge<Node<K, V>>,
    /// The edge out of `leaf` toward the key; its target (prefetched
    /// when loaded) is what this lane reads next, and null once `leaf`
    /// is the leaf.
    out_of_leaf: Edge<Node<K, V>>,
    depth: u64,
}

/// [`NmTreeMap::seek`] for `recs.len()` keys at once, the record-producing
/// sibling of [`search_many`](super::search_many): up to
/// [`SEARCH_LANES`] root-to-leaf descents advance round-robin, one level
/// per turn, each prefetching the node it reads on its next turn, so the
/// cache misses of different keys overlap. Each lane keeps Algorithm 1's
/// ancestor/successor/parent/leaf bookkeeping (an untagged edge into the
/// next parent advances the anchor) and, when its leaf is reached,
/// writes `recs[i]` and sums its depth into the modify `depth_sum`,
/// exactly as a lone `seek` for that key would have at that instant.
///
/// The records carry no positional bounds (`lo`/`hi` stay null): they
/// feed one write each (and its local-restart retries), never a finger.
///
/// `query(i)` names the tree and key of record `i` and is called once
/// per `i`, in order.
///
/// # Safety
///
/// Every tree `query` returns must have its reclaimer pinned by a guard
/// held across the call and for as long as the records are
/// dereferenced.
pub(crate) unsafe fn seek_many<'m, K, V, R>(
    recs: &mut [SeekRecord<K, V>],
    mut query: impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
) where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    let mut next = 0;
    let mut lanes: [Option<SeekLane<'m, K, V, R>>; SEARCH_LANES] = [const { None }; SEARCH_LANES];
    let mut live = 0;
    for slot in lanes.iter_mut() {
        // SAFETY: forwarded contract.
        *slot = unsafe { launch_seek(recs, &mut next, &mut query) };
        live += usize::from(slot.is_some());
    }
    while live > 0 {
        for slot in lanes.iter_mut() {
            let Some(lane) = slot else { continue };
            // The body of `seek`'s descent loop, one level of it.
            if !lane.into_leaf.tag() {
                lane.ancestor = lane.parent;
                lane.successor = lane.leaf;
            }
            lane.parent = lane.leaf;
            lane.leaf = lane.out_of_leaf.ptr();
            lane.into_leaf = lane.out_of_leaf;
            // SAFETY: `lane.leaf` was read from a live edge of a pinned
            // tree.
            let node = unsafe { &*lane.leaf };
            let go_left = node.key.user_goes_left_fin(lane.key);
            lane.out_of_leaf = node.child(!go_left).load(lane.tree.arena());
            lane.depth += 1;
            let child = lane.out_of_leaf.ptr();
            if child.is_null() {
                finish_seek(lane, recs);
                // SAFETY: forwarded contract.
                *slot = unsafe { launch_seek(recs, &mut next, &mut query) };
                live -= usize::from(slot.is_none());
            } else {
                prefetch(child);
            }
        }
    }
}

/// Starts the descent of the next query of [`seek_many`] from the
/// sentinels (Algorithm 1, lines 15–21), or returns `None` once all have
/// started. A tree whose user area is one sentinel leaf completes its
/// record at once, and the next query is tried instead.
///
/// # Safety
///
/// As [`seek_many`].
unsafe fn launch_seek<'m, K, V, R>(
    recs: &mut [SeekRecord<K, V>],
    next: &mut usize,
    query: &mut impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
) -> Option<SeekLane<'m, K, V, R>>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    while *next < recs.len() {
        let idx = *next;
        *next += 1;
        let (tree, key) = query(idx);
        stats::record_seek();
        obs::emit(EventKind::SeekStart);
        let arena = tree.arena();
        let s = tree.s_node();
        // SAFETY: pinned per the contract; the sentinel prefix is
        // hardcoded exactly as in `seek`.
        let into_leaf = unsafe { &(*s).left }.load(arena);
        let out_of_leaf = unsafe { &(*into_leaf.ptr()).left }.load(arena);
        let lane = SeekLane {
            tree,
            key,
            idx,
            ancestor: tree.root,
            successor: s,
            parent: s,
            leaf: into_leaf.ptr(),
            into_leaf,
            out_of_leaf,
            depth: 0,
        };
        if out_of_leaf.ptr().is_null() {
            finish_seek(&lane, recs);
            continue;
        }
        prefetch(out_of_leaf.ptr());
        return Some(lane);
    }
    None
}

/// Writes a finished lane's record and accounts its depth.
fn finish_seek<K, V, R: Reclaim>(lane: &SeekLane<'_, K, V, R>, recs: &mut [SeekRecord<K, V>]) {
    recs[lane.idx] = SeekRecord {
        ancestor: lane.ancestor,
        successor: lane.successor,
        parent: lane.parent,
        leaf: lane.leaf,
        lo: std::ptr::null(),
        hi: std::ptr::null(),
    };
    lane.tree.metrics.note_depth(lane.depth);
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
        let r = self.root;
        let s = self.s_node();
        // Initialization from the sentinels (lines 15–21).
        rec.ancestor = r;
        rec.successor = s;
        rec.parent = s;
        rec.lo = std::ptr::null();
        rec.hi = std::ptr::null();
        // Running positional bounds of the descent, snapshotted into the
        // record whenever the anchor advances. The sentinel prefix (two
        // hardcoded lefts past ∞₁ and ∞₀) contributes nothing a user key
        // could violate, so both start at ±∞. Each node's routing
        // decision is applied one iteration *late* (`pend_*`), so the
        // snapshot taken when the anchor advances to `(parent, leaf)`
        // holds the bounds from strictly above `leaf` — the exact window
        // of the anchor edge, not one decision narrower.
        let mut lo: *const Key<K> = std::ptr::null();
        let mut hi: *const Key<K> = std::ptr::null();
        let mut pend_key: *const Key<K> = std::ptr::null();
        let mut pend_left = false;
        // SAFETY (all derefs in this function): pointers were read from
        // live edges under the caller's guard; retired nodes cannot be
        // freed while it is held, and sentinels are never retired.
        let arena = self.arena();
        let mut parent_field = unsafe { &(*s).left }.load(arena);
        rec.leaf = parent_field.ptr();
        let mut current_field = unsafe { &(*rec.leaf).left }.load(arena);
        let mut current = current_field.ptr();

        // Descend until a leaf (lines 22–32). The sentinel levels are
        // behind us (the two hardcoded `.left` loads above), so routing
        // uses the finite-key fast compare.
        let mut depth = 0u64;
        while !current.is_null() {
            // An untagged edge into `parent` means `parent` is not being
            // spliced out: it is a valid anchor for the next splice.
            if !parent_field.tag() {
                rec.ancestor = rec.parent;
                rec.successor = rec.leaf;
                rec.lo = lo;
                rec.hi = hi;
            }
            if !pend_key.is_null() {
                if pend_left {
                    hi = pend_key;
                } else {
                    lo = pend_key;
                }
            }
            rec.parent = rec.leaf;
            rec.leaf = current;
            parent_field = current_field;
            let node_key = unsafe { &(*current).key };
            let go_left = node_key.user_goes_left_fin(key);
            current_field = unsafe { (*current).child(!go_left) }.load(arena);
            pend_key = node_key;
            pend_left = go_left;
            current = current_field.ptr();
            // Start fetching the next node (the grandchild edge's target)
            // while this iteration's tag bookkeeping and the loop test
            // retire — hides one memory latency per level on cold paths.
            prefetch(current);
            depth += 1;
        }
        self.metrics.note_depth(depth);
    }

    /// Restarts a seek from a previously observed `(anchor → successor)`
    /// edge instead of the root — the local-restart optimization of
    /// Chatterjee et al. (arXiv:1404.3272), applied to the modify-path
    /// retry loops.
    ///
    /// The anchor is revalidated first: its child edge for `key` must
    /// still be the *clean* edge to `successor`. Marks are permanent and
    /// an internal node gets both of its edges marked before any splice
    /// can detach it, so observing the clean edge proves `anchor` was
    /// still in the tree at the moment of the load — descending from it
    /// is then indistinguishable from the tail of a full root seek that
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
    /// continuously-held guard, with `successor` an internal node.
    // Perf: inline for the same reason as `seek` — it is the hot half of
    // every local-restart retry and every finger-anchored batch op.
    #[inline]
    pub(crate) unsafe fn seek_from(
        &self,
        anchor: *mut Node<K, V>,
        successor: *mut Node<K, V>,
        key: &K,
        rec: &mut SeekRecord<K, V>,
    ) -> bool {
        // SAFETY (all derefs): `anchor`/`successor` are guard-protected
        // per the contract; everything below them is read from live
        // edges under the same guard.
        let arena = self.arena();
        let edge = unsafe { (*anchor).child_for(key) }.load(arena);
        if edge != clean_edge(successor) {
            return false;
        }
        rec.ancestor = anchor;
        rec.successor = successor;
        rec.parent = successor;
        // Resume the positional bounds from the record: the caller
        // guarantees `key` routes through the anchor edge (same key as
        // the recorded seek, or a finger hit vetted against these very
        // bounds), so the stored `[lo, hi)` is a valid starting point.
        let mut lo = rec.lo;
        let mut hi = rec.hi;
        // `anchor`/`successor` may be sentinels (R, S), so the first two
        // routing steps use the general compare. Sentinel keys are safe
        // as bounds: only `hi` can ever take one (user keys never route
        // right of an infinite key) and ∞ₓ compares above every user
        // key, same as null.
        let s_key = unsafe { &(*successor).key };
        let go_left = s_key.user_goes_left(key);
        let mut parent_field = unsafe { (*successor).child(!go_left) }.load(arena);
        if go_left {
            hi = s_key;
        } else {
            lo = s_key;
        }
        rec.leaf = parent_field.ptr();
        if rec.leaf.is_null() {
            // `successor` turned out to be a leaf: no record shape can be
            // formed below it. Unreachable for records produced by `seek`
            // (their successor is always internal), kept as a cheap
            // guard against misuse.
            return false;
        }
        let l_key = unsafe { &(*rec.leaf).key };
        let go_left = l_key.user_goes_left(key);
        let mut current_field = unsafe { (*rec.leaf).child(!go_left) }.load(arena);
        // `rec.leaf`'s decision stays pending (applied one iteration
        // late), matching `seek`: an anchor snapshot stores the bounds
        // from strictly above its successor.
        let mut pend_key: *const Key<K> = l_key;
        let mut pend_left = go_left;
        let mut current = current_field.ptr();

        // Identical to the descent loop of `seek`.
        while !current.is_null() {
            if !parent_field.tag() {
                rec.ancestor = rec.parent;
                rec.successor = rec.leaf;
                rec.lo = lo;
                rec.hi = hi;
            }
            if !pend_key.is_null() {
                if pend_left {
                    hi = pend_key;
                } else {
                    lo = pend_key;
                }
            }
            rec.parent = rec.leaf;
            rec.leaf = current;
            parent_field = current_field;
            let node_key = unsafe { &(*current).key };
            let go_left = node_key.user_goes_left_fin(key);
            current_field = unsafe { (*current).child(!go_left) }.load(arena);
            pend_key = node_key;
            pend_left = go_left;
            current = current_field.ptr();
            prefetch(current);
        }
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
    /// edges of a node are marked before any splice can detach it), and
    /// positional windows of routing nodes only widen, so a record that
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
        let arena = self.arena();
        // SAFETY: the record's nodes are protected by the caller's
        // guard.
        unsafe {
            (*rec.ancestor).child_for(key).load(arena) == clean_edge(rec.successor)
                && (*rec.parent).child_for(key).load(arena) == clean_edge(rec.leaf)
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
    pub(crate) unsafe fn search_leaf(&self, key: &K) -> *mut Node<K, V> {
        // Sentinel prefix of every access path, hardcoded as in `seek`:
        // a user key routes left of `S` (∞₁) and left of the ∞₀-keyed
        // node topping the user area, no comparison needed. Below that,
        // every routing key is finite and the loop uses the plain
        // `K: Ord` fast compare.
        //
        // SAFETY: see `seek`.
        let arena = self.arena();
        let mut current = unsafe { &(*self.s_node()).left }.load(arena).ptr();
        let mut next = unsafe { &(*current).left }.load(arena).ptr();
        while !next.is_null() {
            current = next;
            next = unsafe { (*current).child_for_fin(key) }.load(arena).ptr();
            prefetch(next);
        }
        current
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
            assert_eq!((*rec.leaf).key, Key::Inf0);
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
            assert!((*rec.leaf).is_leaf());
            assert!(!(*rec.parent).is_leaf());
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
            assert!((*rec.leaf).is_leaf());
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
