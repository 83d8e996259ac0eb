//! Read-only operations: search (Algorithm 2, lines 34–39), value access
//! and weakly consistent traversal.

use super::NmTreeMap;
use crate::node::prefetch;
use crate::packed::Edge;
use crate::pool::Arenas;
use nmbst_reclaim::Reclaim;

/// Descents an interleaved multi-get or batch keeps in flight
/// ([`MapHandle::get_many`](crate::MapHandle::get_many),
/// [`ShardedMapHandle::execute_batch`](crate::ShardedMapHandle::execute_batch)).
/// A descent waits on one cache miss per level, so `G` of them advanced
/// round-robin overlap up to `G` misses. In the sweep in EXPERIMENTS.md,
/// 32 beats 16 only on calls of more than 16 keys. A caller that
/// gathers work for one call (the server's chunks) fills every lane
/// once it holds this many ops.
pub const SEARCH_LANES: usize = 16;

/// One in-flight descent of [`search_many`].
struct Lane<'m, K, V> {
    /// The arenas of the tree this descent walks (lanes of one call may
    /// walk different trees).
    arenas: &'m Arenas,
    key: &'m K,
    /// Position of the key in the caller's query order.
    idx: usize,
    /// The edge to the node this lane reads next, whose head was
    /// prefetched when the edge was loaded.
    edge: Edge<K, V>,
}

/// The paper's search (Algorithm 2, lines 34–39) for `n` keys at once:
/// up to [`SEARCH_LANES`] root-to-leaf descents advanced round-robin,
/// one level per turn, each issuing a prefetch for the child it will
/// read on its next turn (the leaf block included: a lane that reaches
/// a leaf edge scans the block on its following turn). A lone descent
/// stalls on every level's miss; interleaved descents keep that many
/// misses in flight. A search only
/// loads, so interleaving needs no synchronisation, and each key's
/// answer is exactly what a lone [`contains`](NmTreeMap::contains)
/// descent at some instant inside the call would return.
///
/// `query(i)` names the tree and key of query `i` and is called once per
/// `i`, in order. `found(i, value)` reports each answer, in completion
/// order; `value` borrows the leaf block and is valid only during the
/// call.
///
/// # Safety
///
/// Every tree `query` returns must have its reclaimer pinned by a guard
/// held across the whole call.
pub(crate) unsafe fn search_many<'m, K, V, R>(
    n: usize,
    mut query: impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
    mut found: impl FnMut(usize, Option<&V>),
) where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    let mut next = 0;
    let mut lanes: [Option<Lane<'m, K, V>>; SEARCH_LANES] = [const { None }; SEARCH_LANES];
    let mut live = 0;
    for slot in lanes.iter_mut() {
        // SAFETY: forwarded contract.
        *slot = unsafe { launch(n, &mut next, &mut query) };
        live += usize::from(slot.is_some());
    }
    while live > 0 {
        for slot in lanes.iter_mut() {
            let Some(lane) = slot else { continue };
            if lane.edge.is_leaf() {
                // SAFETY: read from a live edge of a pinned tree;
                // published blocks are immutable.
                let leaf = unsafe { &*lane.edge.leaf() };
                found(
                    lane.idx,
                    leaf.find(lane.key).ok().map(|pos| &leaf.entry_vals()[pos]),
                );
                // SAFETY: forwarded contract.
                *slot = unsafe { launch(n, &mut next, &mut query) };
                live -= usize::from(slot.is_none());
            } else {
                // SAFETY: as above.
                let route = unsafe { &*lane.edge.route() };
                lane.edge = route.child_for(lane.key).load(lane.arenas);
                prefetch(lane.edge);
            }
        }
    }
}

/// Starts the descent of the next unanswered query of [`search_many`]
/// at the edge out of the sentinel `S`, or returns `None` once all `n`
/// have started.
///
/// # Safety
///
/// As [`search_many`].
unsafe fn launch<'m, K, V, R>(
    n: usize,
    next: &mut usize,
    query: &mut impl FnMut(usize) -> (&'m NmTreeMap<K, V, R>, &'m K),
) -> Option<Lane<'m, K, V>>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + 'm,
{
    if *next == n {
        return None;
    }
    let idx = *next;
    *next += 1;
    let (tree, key) = query(idx);
    let arenas = tree.arenas();
    // SAFETY: pinned per the contract; `S` is permanent.
    let edge = unsafe { &(*tree.s_node()).left }.load(arenas);
    prefetch(edge);
    Some(Lane {
        arenas,
        key,
        idx,
        edge,
    })
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
