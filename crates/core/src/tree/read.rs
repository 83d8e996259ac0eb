//! Read-only operations: search (Algorithm 2, lines 34–39), value access
//! and weakly consistent traversal.

use super::seek::SeekRecord;
use super::NmTreeMap;
use crate::node::{prefetch, Route};
use crate::obs::{self, EventKind};
use crate::packed::Edge;
use crate::stats;
use nmbst_reclaim::Reclaim;

/// Descents an interleaved multi-get or batch keeps in flight
/// ([`MapHandle::get_many`](crate::MapHandle::get_many),
/// [`ShardedMapHandle::execute_batch`](crate::ShardedMapHandle::execute_batch)):
/// one pool, which a batch's GET searches and write seeks share.
/// A descent waits on one cache miss per level, so `G` of them advanced
/// round-robin overlap up to `G` misses. In the sweep in EXPERIMENTS.md,
/// 32 beats 16 only on calls of more than 16 keys. A caller that
/// gathers work for one call (the server's chunks) fills every lane
/// once it holds this many ops.
pub const SEARCH_LANES: usize = 16;

/// One in-flight descent of [`descend_many`]: a GET's search, or a
/// write's seek with its running Algorithm-1 record.
struct Lane<'m, K, V, R: Reclaim> {
    /// The tree this descent walks (lanes of one call may walk
    /// different trees).
    tree: &'m NmTreeMap<K, V, R>,
    key: &'m K,
    /// Position of the query in the caller's order: GETs come first.
    idx: usize,
    /// The edge this lane reads next, prefetched when it was loaded:
    /// into a route or, on a GET's last turn, a leaf. A seek lane
    /// finishes when it loads a leaf edge.
    edge: Edge<K, V>,
    /// A seek lane's record so far; a GET lane leaves these alone.
    ancestor: *mut Route<K>,
    successor: *mut Route<K>,
    parent: *mut Route<K>,
    depth: u64,
}

/// The paper's search (Algorithm 2, lines 34–39) for `gets` keys and
/// its seek (Algorithm 1) for `recs.len()` more, as one pass: up to
/// [`SEARCH_LANES`] root-to-leaf descents of either kind advance
/// round-robin, one level per turn, each issuing a prefetch for the
/// node it reads on its next turn, so a write's cache misses overlap
/// the GETs' as well as each other's. A lone descent stalls on every
/// level's miss; interleaved descents keep that many misses in flight.
/// A descent only loads, so interleaving needs no synchronisation.
///
/// A GET lane scans its leaf on the turn after it reaches the leaf
/// edge, and its answer is exactly what a lone
/// [`contains`](NmTreeMap::contains) descent at some instant inside
/// the call would return. A seek lane keeps Algorithm 1's
/// ancestor/successor/parent bookkeeping (an untagged edge into the
/// next parent advances the anchor) and, when it loads its leaf edge,
/// writes its record and sums its depth into the modify `depth_sum`,
/// exactly as a lone [`seek`](NmTreeMap::seek) for that key would have
/// at that instant. The records carry no positional bounds (`lo`/`hi`
/// stay null): they feed one write each (and its local-restart
/// retries), never a finger.
///
/// `query(i)` names the tree and key of query `i` and is called once
/// per `i`, in order: `i < gets` is a GET, and `gets + j` the key of
/// `recs[j]`. `found(i, value)` reports each GET's answer, in
/// completion order; `value` borrows the leaf block and is valid only
/// during the call.
///
/// # Safety
///
/// Every tree `query` returns must have its reclaimer pinned by a guard
/// held across the call and for as long as the records are
/// dereferenced.
pub(crate) unsafe fn descend_many<'m, K, V, R>(
    gets: usize,
    recs: &mut [SeekRecord<K, V>],
    mut query: impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
    mut found: impl FnMut(usize, Option<&V>),
) where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    let mut next = 0;
    let mut lanes: [Option<Lane<'m, K, V, R>>; SEARCH_LANES] = [const { None }; SEARCH_LANES];
    let mut live = 0;
    for slot in lanes.iter_mut() {
        // SAFETY: forwarded contract.
        *slot = unsafe { launch(gets, recs, &mut next, &mut query) };
        live += usize::from(slot.is_some());
    }
    while live > 0 {
        for slot in lanes.iter_mut() {
            let Some(lane) = slot else { continue };
            if lane.idx < gets {
                if !lane.edge.is_leaf() {
                    // SAFETY: read from a live edge of a pinned tree.
                    let route = unsafe { &*lane.edge.route() };
                    lane.edge = route.child_for(lane.key).load(lane.tree.arenas());
                    prefetch(lane.edge);
                    continue;
                }
                // SAFETY: as above; published blocks are immutable.
                let leaf = unsafe { &*lane.edge.leaf() };
                found(
                    lane.idx,
                    leaf.find(lane.key).ok().map(|pos| &leaf.entry_vals()[pos]),
                );
            } else {
                // The body of `seek`'s descent loop, one level of it.
                let node = lane.edge.route();
                if !lane.edge.tag() {
                    lane.ancestor = lane.parent;
                    lane.successor = node;
                }
                lane.parent = node;
                // SAFETY: `node` was read from a live edge of a pinned tree.
                lane.edge = unsafe { (*node).child_for(lane.key) }.load(lane.tree.arenas());
                lane.depth += 1;
                // The next turn reads the route; the write this record
                // feeds reads the leaf.
                prefetch(lane.edge);
                if !lane.edge.is_leaf() {
                    continue;
                }
                finish_seek(lane, &mut recs[lane.idx - gets]);
            }
            // SAFETY: forwarded contract.
            *slot = unsafe { launch(gets, recs, &mut next, &mut query) };
            live -= usize::from(slot.is_none());
        }
    }
}

/// Starts the descent of the next query of [`descend_many`] at the
/// edge out of the sentinel `S` (for a seek, Algorithm 1, lines
/// 15–21), or returns `None` once all have started. A seek in a tree
/// whose user area is one sentinel leaf completes its record at once,
/// and the next query is tried instead.
///
/// # Safety
///
/// As [`descend_many`].
unsafe fn launch<'m, K, V, R>(
    gets: usize,
    recs: &mut [SeekRecord<K, V>],
    next: &mut usize,
    query: &mut impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
) -> Option<Lane<'m, K, V, R>>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    while *next < gets + recs.len() {
        let idx = *next;
        *next += 1;
        let (tree, key) = query(idx);
        let s = tree.s_node();
        // SAFETY: pinned per the contract; `S` is permanent.
        let edge = unsafe { &(*s).left }.load(tree.arenas());
        let lane = Lane {
            tree,
            key,
            idx,
            edge,
            ancestor: tree.root,
            successor: s,
            parent: s,
            depth: 0,
        };
        if idx >= gets {
            stats::record_seek();
            obs::emit(EventKind::SeekStart);
            if edge.is_leaf() {
                finish_seek(&lane, &mut recs[idx - gets]);
                continue;
            }
        }
        prefetch(edge);
        return Some(lane);
    }
    None
}

/// Writes a finished seek lane's record and accounts its depth.
fn finish_seek<K, V, R: Reclaim>(lane: &Lane<'_, K, V, R>, rec: &mut SeekRecord<K, V>) {
    *rec = SeekRecord {
        ancestor: lane.ancestor,
        successor: lane.successor,
        parent: lane.parent,
        leaf: lane.edge.leaf(),
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
    /// `true` if `key` is in the map. Linearizable; never blocks and
    /// never restarts: a search is one root-to-leaf descent plus one
    /// in-block scan.
    pub fn contains(&self, key: &K) -> bool {
        let guard = self.reclaim.pin();
        self.metrics.note_search();
        let t = self.metrics.op_timer();
        // SAFETY: `guard` pins this tree's reclaimer for the whole call.
        let found = unsafe { self.contains_in(key, &guard) };
        self.metrics.op_finish(crate::obs::OpClass::Get, t);
        found
    }

    /// [`contains`](Self::contains) against a caller-provided guard —
    /// the shared internal entry point of the plain API and
    /// [`MapHandle`](crate::MapHandle).
    ///
    /// # Safety
    ///
    /// `guard` must pin this tree's reclaimer and stay held for the
    /// whole call.
    pub(crate) unsafe fn contains_in(&self, key: &K, guard: &R::Guard<'_>) -> bool {
        let _ = guard;
        // SAFETY: pinned for the duration of the traversal.
        let leaf = unsafe { self.search_leaf(key) };
        // SAFETY: guard-protected; published blocks are immutable.
        unsafe { (*leaf).find(key).is_ok() }
    }

    /// Applies `f` to the value stored under `key`, if present.
    ///
    /// The reference passed to `f` is valid only during the call (it is
    /// protected by an internal reclamation guard); this is the
    /// zero-copy alternative to [`get`](Self::get).
    pub fn with_value<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = self.reclaim.pin();
        self.metrics.note_search();
        let t = self.metrics.op_timer();
        // SAFETY: `guard` pins this tree's reclaimer for the whole call.
        let out = unsafe { self.with_value_in(key, f, &guard) };
        self.metrics.op_finish(crate::obs::OpClass::Get, t);
        out
    }

    /// [`with_value`](Self::with_value) against a caller-provided guard.
    ///
    /// # Safety
    ///
    /// Same contract as [`contains_in`](Self::contains_in).
    pub(crate) unsafe fn with_value_in<T>(
        &self,
        key: &K,
        f: impl FnOnce(&V) -> T,
        guard: &R::Guard<'_>,
    ) -> Option<T> {
        let _ = guard;
        // SAFETY: pinned.
        let leaf = unsafe { self.search_leaf(key) };
        // SAFETY: guard-protected; block contents are immutable after
        // publication.
        unsafe {
            match (*leaf).find(key) {
                Ok(pos) => Some(f(&(*leaf).entry_vals()[pos])),
                Err(_) => None,
            }
        }
    }

    /// Returns a clone of the value stored under `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.with_value(key, V::clone)
    }

    /// Visits every `(key, value)` pair in ascending key order.
    ///
    /// **Weakly consistent**: every key present for the *entire* call is
    /// reported exactly once, in order. Keys concurrently inserted or
    /// removed may be missed or included; a key removed and re-inserted
    /// during the call may even be reported twice (once through a
    /// detached-but-still-readable subtree, once at its new position),
    /// and keys inserted mid-call into subtrees hoisted by concurrent
    /// deletes can arrive out of order — the usual contract of
    /// concurrent-map iterators. For an exact snapshot use
    /// [`keys`](Self::keys) (requires `&mut`).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _guard = self.reclaim.pin();
        let arenas = self.arenas();
        let mut stack = vec![Edge::<K, V>::of_route(self.s_node())];
        while let Some(edge) = stack.pop() {
            // SAFETY: every edge on the stack was read from a live route
            // under the pin.
            unsafe {
                if edge.is_leaf() {
                    // Leaf block: entries are stored sorted ascending
                    // (sentinel leaves hold none).
                    let leaf = &*edge.leaf();
                    for (k, v) in leaf.entry_keys().iter().zip(leaf.entry_vals()) {
                        f(k, v);
                    }
                } else {
                    // In-order: right pushed first so left pops first.
                    let route = &*edge.route();
                    stack.push(route.right.load(arenas));
                    stack.push(route.left.load(arenas));
                }
            }
        }
    }

    /// The number of keys, counted by a weakly consistent traversal.
    /// Exact when no writer is concurrent.
    pub fn count(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }

    /// `true` if a weakly consistent traversal found no keys.
    ///
    /// Short-circuits on the first populated leaf block encountered, so
    /// a populated tree answers in O(depth of leftmost descent), not
    /// O(n).
    pub fn is_empty(&self) -> bool {
        let _guard = self.reclaim.pin();
        let arenas = self.arenas();
        let mut stack = vec![Edge::<K, V>::of_route(self.s_node())];
        while let Some(edge) = stack.pop() {
            // SAFETY: every edge on the stack was read from a live route
            // under the pin.
            unsafe {
                if edge.is_leaf() {
                    if (*edge.leaf()).len() > 0 {
                        return false;
                    }
                } else {
                    let route = &*edge.route();
                    stack.push(route.right.load(arenas));
                    stack.push(route.left.load(arenas));
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::NmTreeMap;
    use nmbst_reclaim::Ebr;

    #[test]
    fn with_value_zero_copy() {
        let map: NmTreeMap<u32, Vec<u8>, Ebr> = NmTreeMap::new();
        map.insert(1, vec![1, 2, 3]);
        let len = map.with_value(&1, |v| v.len());
        assert_eq!(len, Some(3));
        assert_eq!(map.with_value(&2, |v| v.len()), None);
    }

    #[test]
    fn for_each_in_ascending_order() {
        let map: NmTreeMap<i64, i64, Ebr> = NmTreeMap::new();
        let keys = [9, 1, 7, 3, 5, 8, 2, 6, 4, 0];
        for k in keys {
            map.insert(k, k * 10);
        }
        let mut seen = Vec::new();
        map.for_each(|k, v| {
            assert_eq!(*v, k * 10);
            seen.push(*k);
        });
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn count_and_is_empty() {
        let map: NmTreeMap<i64, (), Ebr> = NmTreeMap::new();
        assert!(map.is_empty());
        assert_eq!(map.count(), 0);
        for k in 0..37 {
            map.insert(k, ());
        }
        assert_eq!(map.count(), 37);
        map.remove(&0);
        assert_eq!(map.count(), 36);
        assert!(!map.is_empty());
    }

    #[test]
    fn for_each_skips_sentinels_on_empty_tree() {
        let map: NmTreeMap<i64, (), Ebr> = NmTreeMap::new();
        let mut called = false;
        map.for_each(|_, _| called = true);
        assert!(!called);
    }
}
