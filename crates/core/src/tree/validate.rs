//! Structural validation and exclusive-access utilities.
//!
//! These methods require `&mut self` — i.e. provable quiescence — and are
//! meant for tests, debugging and snapshotting. In a quiescent tree
//! every operation has completed, so no reachable edge may still carry a
//! flag or tag; validation checks that along with the BST ordering and
//! external-tree shape the proof of §3.3 relies on.

use super::NmTreeMap;
use crate::key::Key;
use crate::node;
use crate::packed::Edge;
use nmbst_reclaim::Reclaim;

/// Shape summary returned by a successful
/// [`check_invariants`](NmTreeMap::check_invariants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of user keys (entries summed across all leaf blocks).
    pub user_keys: usize,
    /// Number of routing (internal) nodes, sentinels included.
    pub internal_nodes: usize,
    /// Number of leaf nodes (blocks and sentinels alike — a block of 8
    /// entries counts once).
    pub leaf_nodes: usize,
    /// `leaf_nodes` split by leaf size class (4, 6 and 8 entries, the
    /// sentinels in the first): the live blocks of each leaf arena.
    pub leaf_class_blocks: [usize; node::LEAF_CLASSES],
    /// Longest root-to-leaf path, in edges. Entries inside a block add
    /// no depth: this is the pointer-chase depth a descent pays, the
    /// same quantity the `max_depth` metrics gauge tracks.
    pub max_depth: usize,
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Validates every structural invariant of the quiescent tree:
    ///
    /// 1. the sentinel scaffolding of Figure 3 is intact,
    /// 2. no reachable edge carries a flag or tag,
    /// 3. BST order: left-subtree keys `<` route key `≤` right-subtree
    ///    keys,
    /// 4. external-tree shape: every route has two children (a leaf has
    ///    none — the node classes make both structural, and the count
    ///    `routes + 1 = leaves` is checked),
    /// 5. leaf-block invariants: entries strictly ascending, occupancy
    ///    between 1 and this tree's `leaf_cap` for user blocks and 0 for
    ///    sentinels, every block in the smallest size class that holds
    ///    it (as both its header and its incoming edge say), and every
    ///    entry inside the key window its position implies (blocks of
    ///    neighbouring subtrees are disjoint; a block routes by its
    ///    largest entry).
    ///
    /// Returns the tree's shape on success, a description of the first
    /// violation otherwise.
    pub fn check_invariants(&mut self) -> Result<TreeShape, String> {
        let leaf_cap = self.leaf_cap;
        // SAFETY: exclusive access throughout.
        unsafe {
            let arenas = &*self.arenas;
            let root = self.root;
            if (*root).key != Key::Inf2 {
                return Err("root key is not ∞₂".into());
            }
            let root_right: Edge<K, V> = (*root).right.load_mut(arenas);
            if root_right.marked() {
                return Err("edge R→leaf(∞₂) is marked".into());
            }
            if !root_right.is_leaf() || (*root_right.leaf()).sentinel() != Some(Key::Inf2) {
                return Err("right child of R is not the ∞₂ sentinel leaf".into());
            }
            let root_left: Edge<K, V> = (*root).left.load_mut(arenas);
            if root_left.marked() {
                return Err("edge R→S is marked".into());
            }
            if root_left.is_leaf() || (*root_left.route()).key != Key::Inf1 {
                return Err("left child of R is not the sentinel S (∞₁)".into());
            }

            let mut shape = TreeShape {
                user_keys: 0,
                internal_nodes: 0,
                leaf_nodes: 0,
                leaf_class_blocks: [0; node::LEAF_CLASSES],
                max_depth: 0,
            };
            // Iterative DFS with ordering bounds: (edge, lower, upper,
            // depth); bounds are exclusive below / inclusive above in the
            // external-BST sense (left < key ≤ right).
            type Bound<'a, K> = Option<&'a Key<K>>;
            type Frame<'a, K, V> = (Edge<K, V>, Bound<'a, K>, Bound<'a, K>, usize);
            let mut stack: Vec<Frame<'_, K, V>> = vec![(Edge::of_route(root), None, None, 0)];
            while let Some((edge, low, high, depth)) = stack.pop() {
                shape.max_depth = shape.max_depth.max(depth);
                let below_low = |k: &Key<K>| low.is_some_and(|low| k < low);
                let at_or_above_high = |k: &Key<K>| high.is_some_and(|high| k >= high);
                if edge.is_leaf() {
                    shape.leaf_nodes += 1;
                    let leaf = &*edge.leaf();
                    shape.leaf_class_blocks[leaf.class()] += 1;
                    let entries = leaf.entry_keys();
                    if leaf.class() != node::leaf_class(entries.len())
                        || edge.leaf_class() != leaf.class()
                    {
                        return Err(format!(
                            "block of {} entries not in its size class at depth {depth}",
                            entries.len()
                        ));
                    }
                    if let Some(sentinel) = leaf.sentinel() {
                        if !entries.is_empty() {
                            return Err("sentinel leaf carries entries".into());
                        }
                        if below_low(&sentinel) || at_or_above_high(&sentinel) {
                            return Err(format!(
                                "ordering violated: a sentinel leaf sits outside its bounds at depth {depth}"
                            ));
                        }
                        continue;
                    }
                    let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
                        return Err("user leaf block with zero entries".into());
                    };
                    if entries.len() > leaf_cap {
                        return Err(format!(
                            "block occupancy {} above leaf_cap {leaf_cap}",
                            entries.len()
                        ));
                    }
                    if entries.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!(
                            "block entries not strictly ascending at depth {depth}"
                        ));
                    }
                    // The block's router is its largest entry; sortedness
                    // makes the first and last entries the extremes, so
                    // both must sit inside [low, high).
                    if low.is_some_and(|low| low.cmp_user(first) == std::cmp::Ordering::Greater) {
                        return Err(format!(
                            "block entry below its subtree's lower bound at depth {depth}"
                        ));
                    }
                    if high.is_some_and(|high| high.cmp_user(last) != std::cmp::Ordering::Greater) {
                        return Err(format!(
                            "ordering violated: a block entry sits at/above its upper bound at depth {depth}"
                        ));
                    }
                    shape.user_keys += entries.len();
                } else {
                    shape.internal_nodes += 1;
                    let route = edge.route();
                    let key = &(*route).key;
                    if below_low(key) {
                        return Err(format!("ordering violated: a key sits left of its lower bound at depth {depth}"));
                    }
                    if at_or_above_high(key) {
                        return Err(format!("ordering violated: a key sits at/above its upper bound at depth {depth}"));
                    }
                    let left: Edge<K, V> = (*route).left.load_mut(arenas);
                    let right: Edge<K, V> = (*route).right.load_mut(arenas);
                    if left.marked() || right.marked() {
                        return Err(format!(
                            "marked edge reachable in quiescent tree at depth {depth}"
                        ));
                    }
                    // Left strictly below `key`; right at/above it.
                    stack.push((left, low, Some(key), depth + 1));
                    stack.push((right, Some(key), high, depth + 1));
                }
            }
            // External tree: #internal = #leaves - 1.
            if shape.internal_nodes + 1 != shape.leaf_nodes {
                return Err(format!(
                    "external-shape violation: {} internal vs {} leaves",
                    shape.internal_nodes, shape.leaf_nodes
                ));
            }
            Ok(shape)
        }
    }

    /// Exact number of keys. Exclusive access; `O(n)`.
    pub fn len(&mut self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }

    /// All keys in ascending order (exact snapshot; exclusive access).
    pub fn keys(&mut self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        self.for_each(|k, _| out.push(k.clone()));
        out
    }

    /// Removes every key, resetting the tree to the empty sentinel shape
    /// and freeing all user nodes immediately (their arena slots return
    /// to this tree's pool).
    pub fn clear(&mut self) {
        // SAFETY: exclusive access; rebuild from scratch.
        unsafe {
            node::free_subtree(Edge::<K, V>::of_route(self.root), &self.arenas);
        }
        self.root = node::sentinel_tree::<K, V>(&mut crate::pool::NodeCache::direct(&self.arenas));
    }
}

#[cfg(test)]
mod tests {
    use crate::{NmTreeMap, TreeConfig};
    use nmbst_reclaim::Ebr;

    type Map = NmTreeMap<i64, i64, Ebr>;

    #[test]
    fn empty_tree_is_valid() {
        let mut map = Map::new();
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 0);
        assert_eq!(shape.leaf_nodes, 3);
        assert_eq!(shape.leaf_class_blocks, [3, 0, 0], "sentinels are class 4");
        assert_eq!(shape.internal_nodes, 2);
        assert_eq!(shape.max_depth, 2);
    }

    #[test]
    fn shape_after_inserts() {
        let mut map = Map::new();
        for k in 0..100 {
            map.insert(k, k);
        }
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 100);
        // Ascending inserts pack full blocks of LEAF_CAP = 8: 13 blocks
        // (12 full + one of 4) + 3 sentinel leaves, each block creation
        // having added one internal to the 2 sentinel internals.
        assert_eq!(shape.leaf_nodes, 16);
        // The full blocks sit in class 8; the block of 4 and the
        // sentinels in class 4.
        assert_eq!(shape.leaf_class_blocks, [4, 0, 12]);
        assert_eq!(shape.internal_nodes, 15);
    }

    #[test]
    fn shape_after_inserts_cap1_matches_paper_arithmetic() {
        let mut map: NmTreeMap<i64, i64, Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
        for k in 0..100 {
            map.insert(k, k);
        }
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 100);
        // External tree at cap 1: each insert adds one internal + one leaf.
        assert_eq!(shape.leaf_nodes, 103);
        assert_eq!(shape.internal_nodes, 102);
    }

    #[test]
    fn shape_after_churn() {
        let mut map = Map::new();
        for k in 0..200 {
            map.insert(k, k);
        }
        for k in (0..200).step_by(2) {
            assert!(map.remove(&k));
        }
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 100);
        assert_eq!(map.len(), 100);
        assert_eq!(
            map.keys(),
            (0..200).filter(|k| k % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut map = Map::new();
        for k in 0..50 {
            map.insert(k, k);
        }
        map.clear();
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 0);
        assert!(map.is_empty());
        // Usable after clear.
        assert!(map.insert(1, 1));
        assert!(map.contains(&1));
    }

    #[test]
    fn sorted_inserts_make_degenerate_but_valid_tree() {
        let mut map: NmTreeMap<i64, i64, Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
        for k in 0..1000 {
            map.insert(k, k);
        }
        let shape = map.check_invariants().unwrap();
        assert!(shape.max_depth >= 1000, "expected a deep spine");
    }

    #[test]
    fn fat_leaves_compress_the_degenerate_spine() {
        // The same adversarial stream at the default cap: one spine node
        // per *block*, so the pointer-chase depth shrinks ~8×.
        let mut map = Map::new();
        for k in 0..1000 {
            map.insert(k, k);
        }
        let shape = map.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 1000);
        assert!(
            shape.max_depth <= 1000 / 8 + 8,
            "expected a block-compressed spine, got depth {}",
            shape.max_depth
        );
    }
}
