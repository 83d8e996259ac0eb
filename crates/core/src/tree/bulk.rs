//! O(n) balanced bulk-load.
//!
//! Loop-inserting a sorted stream is the tree's worst case twice over:
//! every insert re-descends the same ever-growing right spine (O(n²)
//! total work, O(n) depth), and every node is published with its own
//! CAS. A bulk load sidesteps both: the perfectly balanced external
//! tree is built *privately* — nodes drawn from the pool, edges written
//! with plain stores, zero CAS, zero retries — and attached to the
//! sentinel scaffolding with **one** store.
//!
//! The publish argument is exclusivity, not marks: the builder runs
//! under `&mut self` (or on a tree no other thread has seen yet), so no
//! concurrent operation can observe the half-built subtree, and Rust's
//! `&mut` → `&` hand-off provides the happens-before edge that makes
//! the plain publish store visible to every later reader. See DESIGN.md
//! §12.

use super::NmTreeMap;
use crate::key::Key;
use crate::node::{Leaf, Route};
use crate::obs::PendingOps;
use crate::packed::Edge;
use crate::pool::NodeCache;
use nmbst_reclaim::Reclaim;
use std::iter::Peekable;

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Builds a map from an iterator of key-ascending pairs in O(n),
    /// producing a perfectly balanced tree (depth ⌈log₂ n⌉ instead of
    /// the n of a sorted loop-insert).
    ///
    /// Sorted input is the contract and the fast path; unsorted input is
    /// detected in one pass and stable-sorted first, so the result is
    /// always correct. Duplicate keys keep the **first** occurrence, as
    /// in [`insert`](Self::insert).
    ///
    /// # Examples
    ///
    /// ```
    /// use nmbst::NmTreeMap;
    ///
    /// let mut map: NmTreeMap<u64, u64> = NmTreeMap::from_sorted_iter((0..1024).map(|k| (k, k)));
    /// assert_eq!(map.get(&513), Some(513));
    /// let shape = map.check_invariants().unwrap();
    /// assert_eq!(shape.user_keys, 1024);
    /// // Balanced: 10 user levels + the sentinel prefix, not 1024.
    /// assert!(shape.max_depth <= 13);
    /// ```
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.bulk_extend(iter.into_iter().collect());
        map
    }

    /// Bulk-insert behind `Extend`/`FromIterator`: balanced private
    /// build + single publish when the tree is empty, finger-anchored
    /// sorted inserts otherwise. Input in any order; duplicates keep the
    /// first occurrence.
    pub(crate) fn bulk_extend(&mut self, mut pairs: Vec<(K, V)>) {
        // One-pass sortedness check: strictly ascending keys are both
        // sorted and duplicate-free, so the common presorted case skips
        // the O(n log n) sort *and* the dedup scan.
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            pairs.sort_by(|a, b| a.0.cmp(&b.0)); // stable: first duplicate wins
            pairs.dedup_by(|later, first| later.0 == first.0);
        }
        if pairs.is_empty() {
            return;
        }
        if !self.is_vacant() {
            // Non-empty tree: no single-store publish spot exists. The
            // batch path still profits from the sort (finger-anchored
            // descents).
            self.handle().insert_batch(pairs);
            return;
        }

        let n = pairs.len() as u64;
        let cap = self.leaf_cap;
        let mut cache = self.node_cache();
        let mut it = pairs.into_iter().peekable();
        let nblocks = (n as usize).div_ceil(cap);
        let user_root = build_blocks(&mut cache, &mut it, nblocks, n as usize, cap);
        debug_assert!(it.next().is_none(), "builder consumed every pair");

        // SAFETY: `&mut self` gives exclusive access; sentinels are
        // always live.
        unsafe {
            let s = self.s_node();
            let inf0_leaf: Edge<K, V> = (*s).left.load(&self.arenas);
            debug_assert!(inf0_leaf.is_leaf(), "vacant tree has the ∞₀ leaf under S");
            // The same shape the first insert would produce (Figure 1a
            // at the ∞₀ leaf), generalized to n leaves: an ∞₀-keyed
            // route with the user subtree left and the reused ∞₀
            // sentinel leaf right.
            let top = Route::new_in(&mut cache, Key::Inf0, user_root, inf0_leaf);
            // The single publish. Plain store: no other thread can hold
            // a reference to this tree (`&mut self`), and the `&mut` →
            // `&` hand-off that first shares it synchronizes everything
            // written here.
            (*s).left.store_unsynchronized(Edge::<K, V>::of_route(top));
        }

        self.metrics.add_pending(&PendingOps {
            inserts: n,
            inserted: n,
            ..PendingOps::default()
        });
    }

    /// `true` if no user key was ever inserted (the ∞₀ sentinel leaf
    /// still hangs directly under `S`). Exact under `&mut self`.
    fn is_vacant(&mut self) -> bool {
        // SAFETY: sentinels are always live; exclusive access.
        unsafe { (*self.s_node()).left.load::<K, V>(&self.arenas).is_leaf() }
    }
}

/// Builds a perfectly balanced external BST over the next `nentries`
/// pairs of `it` (ascending, unique), packed into `nblocks` leaf blocks
/// of up to `cap` entries, returning the edge to its root. Every block
/// except possibly the very last is full, so a bulk-loaded tree is
/// maximally compact: ⌈log₂⌈n/cap⌉⌉ pointer hops instead of ⌈log₂ n⌉.
/// Each route's key is the smallest key of its right subtree, satisfying
/// the external-tree invariant left < key ≤ right.
fn build_blocks<K, V, I>(
    cache: &mut NodeCache<'_>,
    it: &mut Peekable<I>,
    nblocks: usize,
    nentries: usize,
    cap: usize,
) -> Edge<K, V>
where
    K: Ord + Clone,
    I: Iterator<Item = (K, V)>,
{
    debug_assert!(nblocks >= 1 && nentries >= 1);
    if nblocks == 1 {
        debug_assert!(nentries <= cap);
        return Edge::of_leaf(Leaf::block_from_iter(cache, it, nentries));
    }
    // Left half: fully packed blocks (the partial block, if any, always
    // lands rightmost, matching what ascending inserts would build).
    let left_blocks = nblocks.div_ceil(2);
    let left_entries = left_blocks * cap;
    let left = build_blocks(cache, it, left_blocks, left_entries, cap);
    // The next pair is the first of the right half: its key is the
    // smallest the right subtree will contain — exactly the routing key
    // an insert-built tree would have used.
    let split = it.peek().expect("right half nonempty").0.clone();
    let right = build_blocks(
        cache,
        it,
        nblocks - left_blocks,
        nentries - left_entries,
        cap,
    );
    Edge::of_route(Route::new_in(cache, Key::Fin(split), left, right))
}

#[cfg(test)]
mod tests {
    use crate::NmTreeMap;
    use nmbst_reclaim::{Ebr, Leaky};

    #[test]
    fn bulk_load_matches_loop_insert_contents() {
        let bulk: NmTreeMap<u64, u64, Ebr> =
            NmTreeMap::from_sorted_iter((0..257).map(|k| (k, k * 3)));
        let loop_built: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        for k in 0..257 {
            loop_built.insert(k, k * 3);
        }
        for k in 0..257 {
            assert_eq!(bulk.get(&k), loop_built.get(&k), "key {k}");
        }
        assert_eq!(bulk.get(&257), None);
    }

    #[test]
    fn bulk_load_is_balanced_and_valid() {
        for n in [1u64, 2, 3, 7, 8, 9, 100, 1000] {
            let mut map: NmTreeMap<u64, (), Leaky> =
                NmTreeMap::from_sorted_iter((0..n).map(|k| (k, ())));
            let shape = map
                .check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(shape.user_keys, n as usize);
            // Depth: ⌈log₂ n⌉ user levels + the ∞₀ top internal + the
            // two sentinel levels above it.
            let balanced = (n as usize).next_power_of_two().trailing_zeros() as usize;
            assert!(
                shape.max_depth <= balanced + 3,
                "n={n}: depth {} not balanced",
                shape.max_depth
            );
        }
    }

    #[test]
    fn bulk_load_counts_metrics() {
        let map: NmTreeMap<u64, (), Ebr> = NmTreeMap::from_sorted_iter((0..50).map(|k| (k, ())));
        let m = map.metrics();
        assert_eq!(m.inserts, 50);
        assert_eq!(m.inserted, 50);
        assert_eq!(m.size_estimate, 50);
    }

    #[test]
    fn unsorted_and_duplicate_input_handled() {
        let map: NmTreeMap<i32, &str, Ebr> =
            NmTreeMap::from_sorted_iter([(3, "c"), (1, "first"), (2, "b"), (1, "second")]);
        assert_eq!(map.get(&1), Some("first"), "first duplicate wins");
        assert_eq!(map.get(&2), Some("b"));
        assert_eq!(map.get(&3), Some("c"));
        assert_eq!(map.count(), 3);
    }

    #[test]
    fn empty_bulk_load_is_empty_tree() {
        let mut map: NmTreeMap<u64, (), Ebr> = NmTreeMap::from_sorted_iter(std::iter::empty());
        assert!(map.is_empty());
        map.check_invariants().unwrap();
        // And still usable.
        assert!(map.insert(1, ()));
        assert!(map.contains(&1));
    }

    #[test]
    fn bulk_loaded_tree_supports_all_ops() {
        let mut map: NmTreeMap<u64, u64, Ebr> =
            NmTreeMap::from_sorted_iter((0..128).map(|k| (2 * k, k)));
        assert!(map.insert(3, 999)); // odd key between bulk leaves
        assert!(!map.insert(4, 999)); // bulk key rejected as duplicate
        assert!(map.remove(&0));
        assert!(map.remove(&254));
        assert!(!map.contains(&0));
        assert_eq!(map.get(&3), Some(999));
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 127);
    }

    #[test]
    fn bulk_load_concurrent_readers_after_publish() {
        // The `&mut` → `&` hand-off is the publish fence; hammer it.
        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::from_sorted_iter((0..512).map(|k| (k, k)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let map = &map;
                s.spawn(move || {
                    for k in 0..512 {
                        assert_eq!(map.get(&k), Some(k));
                    }
                });
            }
        });
    }
}
