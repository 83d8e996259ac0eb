//! Ordered queries: range traversal with subtree pruning, minimum and
//! maximum. All weakly consistent, like [`for_each`](NmTreeMap::for_each):
//! each visited key was present at some moment during the call.

use super::NmTreeMap;
use crate::key::Key;
use crate::node::{prefetch, prefetch_wide};
use crate::packed::Edge;
use nmbst_reclaim::Reclaim;
use std::ops::{Bound, ControlFlow, RangeBounds};

/// Inline capacity of [`TraversalStack`]. A DFS stack never holds more
/// than one pending sibling per level of the current path, so 64 slots
/// cover any balanced tree (2⁶⁰⁺ keys) without touching the heap; only
/// adversarially degenerate shapes (e.g. a loop-inserted sorted stream)
/// spill.
const INLINE_STACK: usize = 64;

/// A DFS stack for tree traversals with inline storage: the first
/// [`INLINE_STACK`] entries live on the *caller's* stack frame, so the
/// common case does zero heap allocation; deeper pushes spill to a heap
/// `Vec`.
///
/// Invariant: every spill entry is newer than every inline entry, so
/// `pop` drains the spill first — which also means the inline half can
/// never be part-empty while the spill is non-empty.
struct TraversalStack<K, V> {
    inline: [Edge<K, V>; INLINE_STACK],
    len: usize,
    spill: Vec<Edge<K, V>>,
}

impl<K, V> TraversalStack<K, V> {
    #[inline]
    fn new(root: Edge<K, V>) -> Self {
        TraversalStack {
            inline: [root; INLINE_STACK],
            len: 1,
            spill: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, edge: Edge<K, V>) {
        if self.len < INLINE_STACK && self.spill.is_empty() {
            self.inline[self.len] = edge;
            self.len += 1;
        } else {
            self.spill.push(edge);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Edge<K, V>> {
        self.spill.pop().or_else(|| {
            self.len = self.len.checked_sub(1)?;
            Some(self.inline[self.len])
        })
    }

    /// Hints the next frame to pop: a route's one line, or a leaf's
    /// header and entry lines, since a traversal block-scans every leaf
    /// it visits.
    #[inline]
    fn prefetch_top(&self) {
        let next = self
            .spill
            .last()
            .copied()
            .or_else(|| self.len.checked_sub(1).map(|i| self.inline[i]));
        match next {
            Some(edge) if edge.is_leaf() => prefetch_wide(edge),
            Some(edge) => prefetch(edge),
            None => {}
        }
    }
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Visits every `(key, value)` with key inside `range`, in ascending
    /// order, pruning subtrees that cannot intersect it.
    ///
    /// # Examples
    ///
    /// ```
    /// use nmbst::NmTreeMap;
    ///
    /// let map: NmTreeMap<u32, u32> = NmTreeMap::new();
    /// for k in 0..100 {
    ///     map.insert(k, k * 2);
    /// }
    /// let mut hits = Vec::new();
    /// map.range_for_each(10..13, |k, _| hits.push(*k));
    /// assert_eq!(hits, vec![10, 11, 12]);
    /// ```
    pub fn range_for_each<Q: RangeBounds<K>>(&self, range: Q, mut f: impl FnMut(&K, &V)) {
        self.range_walk(range, |k, v| {
            f(k, v);
            ControlFlow::Continue(())
        });
    }

    /// The traversal behind [`range_for_each`](Self::range_for_each):
    /// visits in-range pairs in ascending order until `f` breaks.
    pub(crate) fn range_walk<Q: RangeBounds<K>>(
        &self,
        range: Q,
        mut f: impl FnMut(&K, &V) -> ControlFlow<()>,
    ) {
        let _guard = self.reclaim.pin();
        // Whole-call timing (one clock pair amortized over the scan).
        let t = self.metrics.call_timer();
        // A routing key `nk` splits its node into: left = keys < nk,
        // right = keys ≥ nk.
        let may_go_left = |nk: &Key<K>| match range.start_bound() {
            Bound::Unbounded => true,
            // Keys below `nk` can intersect [s, ..) / (s, ..) iff s < nk.
            Bound::Included(s) | Bound::Excluded(s) => {
                nk.cmp_user(s) == std::cmp::Ordering::Greater
            }
        };
        let may_go_right = |nk: &Key<K>| match range.end_bound() {
            Bound::Unbounded => true,
            // Keys ≥ nk can intersect (.., e] iff nk ≤ e.
            Bound::Included(e) => nk.cmp_user(e) != std::cmp::Ordering::Greater,
            // Keys ≥ nk can intersect (.., e) iff nk < e.
            Bound::Excluded(e) => nk.cmp_user(e) == std::cmp::Ordering::Less,
        };
        let arenas = self.arenas();
        let mut stack = TraversalStack::new(Edge::of_route(self.s_node()));
        'walk: while let Some(edge) = stack.pop() {
            // The scan visits (and block-scans) every node it pops, so
            // fetching the *next* frame overlaps this frame's work.
            stack.prefetch_top();
            // SAFETY: edges read from live routes under the pin.
            unsafe {
                if edge.is_leaf() {
                    // Leaf block: entries are sorted, so the in-range ones
                    // form a contiguous run.
                    let leaf = &*edge.leaf();
                    for (k, v) in leaf.entry_keys().iter().zip(leaf.entry_vals()) {
                        if range.contains(k) && f(k, v).is_break() {
                            break 'walk;
                        }
                    }
                } else {
                    let route = &*edge.route();
                    let nk = &route.key;
                    if may_go_right(nk) {
                        stack.push(route.right.load(arenas));
                    }
                    if may_go_left(nk) {
                        stack.push(route.left.load(arenas));
                    }
                }
            }
        }
        self.metrics.op_finish(crate::obs::OpClass::Range, t);
    }

    /// Collects the keys (and cloned values) inside `range`, ascending.
    pub fn range_collect<Q: RangeBounds<K>>(&self, range: Q) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        self.range_for_each(range, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// The smallest key (with its value), or `None` if empty.
    ///
    /// One left-spine descent: the leftmost leaf is the minimum user key
    /// (or the ∞₀ sentinel when the tree is empty).
    pub fn first(&self) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let _guard = self.reclaim.pin();
        let arenas = self.arenas();
        // SAFETY: descent under the pin; sentinels are permanent.
        unsafe {
            let mut edge: Edge<K, V> = (*self.s_node()).left.load(arenas);
            while !edge.is_leaf() {
                edge = (*edge.route()).left.load(arenas);
            }
            // The leftmost leaf is a sentinel only when the tree is
            // empty; otherwise its first (smallest) entry is the minimum.
            let leaf = &*edge.leaf();
            let keys = leaf.entry_keys();
            let vals = leaf.entry_vals();
            keys.first().map(|k| (k.clone(), vals[0].clone()))
        }
    }

    /// The largest key (with its value), or `None` if empty.
    ///
    /// Right-first depth-first search returning the first finite leaf;
    /// the sentinel leaves at the far right are skipped by backtracking.
    pub fn last(&self) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let _guard = self.reclaim.pin();
        let arenas = self.arenas();
        let mut stack = TraversalStack::new(Edge::<K, V>::of_route(self.s_node()));
        while let Some(edge) = stack.pop() {
            // SAFETY: descent under the pin.
            unsafe {
                if edge.is_leaf() {
                    let leaf = &*edge.leaf();
                    if let (Some(k), Some(v)) = (leaf.entry_keys().last(), leaf.entry_vals().last())
                    {
                        // Rightmost populated block: its last entry is
                        // the maximum.
                        return Some((k.clone(), v.clone()));
                    }
                    // Sentinel leaf: backtrack.
                } else {
                    // Left pushed first so right pops (and resolves) first.
                    let route = &*edge.route();
                    stack.push(route.left.load(arenas));
                    stack.push(route.right.load(arenas));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::{NmTreeMap, TreeConfig};
    use nmbst_reclaim::Ebr;

    fn map_0_to(n: u32) -> NmTreeMap<u32, u32, Ebr> {
        let m = NmTreeMap::new();
        for k in 0..n {
            m.insert(k, k * 10);
        }
        m
    }

    #[test]
    fn range_inclusive_exclusive_unbounded() {
        let m = map_0_to(50);
        assert_eq!(
            m.range_collect(10..15)
                .iter()
                .map(|(k, _)| *k)
                .collect::<Vec<_>>(),
            vec![10, 11, 12, 13, 14]
        );
        assert_eq!(
            m.range_collect(10..=12)
                .iter()
                .map(|(k, _)| *k)
                .collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(m.range_collect(..3).len(), 3);
        assert_eq!(m.range_collect(47..).len(), 3);
        assert_eq!(m.range_collect(..).len(), 50);
        assert!(m.range_collect(20..20).is_empty());
        assert!(m.range_collect(60..80).is_empty());
    }

    #[test]
    fn range_values_come_along() {
        let m = map_0_to(10);
        let pairs = m.range_collect(4..6);
        assert_eq!(pairs, vec![(4, 40), (5, 50)]);
    }

    #[test]
    fn range_on_empty_tree() {
        let m: NmTreeMap<u32, u32, Ebr> = NmTreeMap::new();
        assert!(m.range_collect(..).is_empty());
        assert_eq!(m.first(), None);
        assert_eq!(m.last(), None);
    }

    #[test]
    fn first_and_last_track_membership() {
        let m = map_0_to(0);
        m.insert(500, 0);
        assert_eq!(m.first().map(|(k, _)| k), Some(500));
        assert_eq!(m.last().map(|(k, _)| k), Some(500));
        m.insert(100, 0);
        m.insert(900, 0);
        assert_eq!(m.first().map(|(k, _)| k), Some(100));
        assert_eq!(m.last().map(|(k, _)| k), Some(900));
        m.remove(&900);
        assert_eq!(m.last().map(|(k, _)| k), Some(500));
        m.remove(&100);
        m.remove(&500);
        assert_eq!(m.first(), None);
        assert_eq!(m.last(), None);
    }

    #[test]
    fn range_matches_model_randomly() {
        let m: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        let mut model = std::collections::BTreeSet::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 512;
            if x & 1 == 0 {
                m.insert(k, ());
                model.insert(k);
            } else {
                m.remove(&k);
                model.remove(&k);
            }
            // Occasionally compare a random window.
            if x.is_multiple_of(17) {
                let lo = x.rotate_left(7) % 512;
                let hi = (lo + x % 64).min(512);
                let got: Vec<u64> = m
                    .range_collect(lo..hi)
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let want: Vec<u64> = model.range(lo..hi).copied().collect();
                assert_eq!(got, want, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn unit_value_range_and_extremes() {
        let s: NmTreeMap<i64, (), Ebr> = NmTreeMap::new();
        for k in [-5i64, 0, 5, 10] {
            s.insert(k, ());
        }
        let mut got = Vec::new();
        s.range_for_each(-5..=5, |k, _| got.push(*k));
        assert_eq!(got, vec![-5, 0, 5]);
        assert_eq!(s.first(), Some((-5, ())));
        assert_eq!(s.last(), Some((10, ())));
    }

    #[test]
    fn degenerate_deep_tree_spills_and_stays_correct() {
        // Loop-inserting an ascending stream builds a right spine ~400
        // deep — far past INLINE_STACK — so this drives the spill path
        // of `TraversalStack` end to end. Single-entry leaves keep the
        // spine one node per key (fat blocks would compress it 8×).
        let m: NmTreeMap<u32, u32, Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
        for k in 0..400 {
            m.insert(k, k);
        }
        let got: Vec<u32> = m.range_collect(..).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, (0..400).collect::<Vec<_>>());
        let window: Vec<u32> = m
            .range_collect(100..300)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(window, (100..300).collect::<Vec<_>>());
        assert_eq!(m.last().map(|(k, _)| k), Some(399));
    }

    /// The PR 5 chaos satellite: a traversal racing a splice must report
    /// every key that is present for the *whole* call window. The
    /// deleter is parked deterministically between its tag and its
    /// splice CAS ([`Point::Splice`]) — the victim is flagged and its
    /// parent tagged, so the traversal crosses marked edges mid-surgery
    /// — and every innocent key must still surface.
    #[cfg(feature = "chaos")]
    #[test]
    fn range_during_stalled_splice_reports_every_stable_key() {
        use crate::chaos::{FaultPlan, Point, StallCell};

        for victim in [3u32, 10, 17] {
            // cap 1: every remove runs the flag/tag/splice protocol (a
            // multi-entry block would COW instead and never reach the
            // stalled point).
            let m: NmTreeMap<u32, u32, Ebr> =
                NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
            for k in 0..20 {
                m.insert(k, k);
            }
            let cell = StallCell::new();
            std::thread::scope(|s| {
                let deleter_cell = cell.clone();
                let m2 = &m;
                s.spawn(move || {
                    let removed = FaultPlan::new()
                        .stall_at(Point::Splice, deleter_cell)
                        .run(|| m2.remove(&victim));
                    assert!(removed, "victim {victim} was present");
                });
                // Only traverse once the deleter is provably parked
                // mid-splice; every run exercises the same window. The
                // tested guarantee (DESIGN.md §8, and the server's SCAN
                // verb): every key present for the entire call is
                // visited **exactly once** — the mid-splice chain, with
                // its transient second path to the hoisted sibling, must
                // yield neither misses nor duplicates.
                cell.wait_arrival();
                let mut seen = std::collections::BTreeMap::new();
                m.range_for_each(.., |k, _| {
                    *seen.entry(*k).or_insert(0u32) += 1;
                });
                for k in (0..20).filter(|k| *k != victim) {
                    assert_eq!(
                        seen.get(&k),
                        Some(&1),
                        "stable key {k} must appear exactly once mid-splice"
                    );
                }
                // The victim is logically deleted (its edge is flagged)
                // but may still be physically present: at most once.
                assert!(
                    seen.get(&victim).is_none_or(|c| *c == 1),
                    "victim {victim} duplicated mid-splice"
                );
                cell.resume();
            });
            assert!(!m.contains(&victim));
            let mut m = m;
            let shape = m.check_invariants().unwrap();
            assert_eq!(shape.user_keys, 19);
        }
    }

    /// The same exactly-once guarantee at the *other* deterministic
    /// window — the deleter parked between the flag and the tag (the
    /// hoisted edge not yet tagged) — and through a *bounded* range, so
    /// the pruned descent crosses the in-progress delete too.
    #[test]
    #[cfg(feature = "chaos")]
    fn bounded_range_during_stalled_tag_is_exactly_once() {
        use crate::chaos::{FaultPlan, Point, StallCell};

        for victim in [5u32, 11] {
            // cap 1: see `range_during_stalled_splice_reports_every_stable_key`.
            let m: NmTreeMap<u32, u32, Ebr> =
                NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
            for k in 0..24 {
                m.insert(k, k);
            }
            let cell = StallCell::new();
            std::thread::scope(|s| {
                let deleter_cell = cell.clone();
                let m2 = &m;
                s.spawn(move || {
                    let removed = FaultPlan::new()
                        .stall_at(Point::Tag, deleter_cell)
                        .run(|| m2.remove(&victim));
                    assert!(removed, "victim {victim} was present");
                });
                cell.wait_arrival();
                let mut seen = std::collections::BTreeMap::new();
                m.range_for_each(4..=20, |k, _| {
                    *seen.entry(*k).or_insert(0u32) += 1;
                });
                for k in (4..=20).filter(|k| *k != victim) {
                    assert_eq!(
                        seen.get(&k),
                        Some(&1),
                        "stable key {k} must appear exactly once mid-tag"
                    );
                }
                assert!(
                    seen.get(&victim).is_none_or(|c| *c == 1),
                    "victim {victim} duplicated mid-tag"
                );
                assert!(
                    seen.keys().all(|k| (4..=20).contains(k)),
                    "keys outside the bound leaked into the range"
                );
                cell.resume();
            });
            assert!(!m.contains(&victim));
            let mut m = m;
            let shape = m.check_invariants().unwrap();
            assert_eq!(shape.user_keys, 23);
        }
    }

    #[test]
    fn range_concurrent_with_writers_does_not_crash() {
        let m: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        for k in 0..256 {
            m.insert(k, k);
        }
        std::thread::scope(|s| {
            let m = &m;
            s.spawn(move || {
                for round in 0..200u64 {
                    for k in 0..256 {
                        if (k + round) % 3 == 0 {
                            m.remove(&k);
                        } else {
                            m.insert(k, k);
                        }
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..500 {
                    let mut seen_stable = std::collections::HashSet::new();
                    m.range_for_each(64..192, |k, _| {
                        assert!((64..192).contains(k));
                        // Keys of the *stable* residue (k % 3 != 0 for all
                        // rounds is not stable here; none are) cannot be
                        // asserted unique: concurrent remove+reinsert can
                        // surface a key twice, and concurrent inserts into
                        // hoisted subtrees can appear out of order. Only
                        // range membership and termination are guaranteed
                        // mid-churn.
                        seen_stable.insert(*k);
                    });
                }
            });
        });
    }
}
