//! Whitebox test hooks: deterministic construction of the in-flight
//! states the paper's helping protocol handles.
//!
//! A "stalled" delete is one that performed its injection CAS (flagged
//! the edge to its victim) and then stopped before cleanup — exactly
//! what a preempted thread looks like to everyone else. These hooks
//! exist only under `cfg(test)` and let tests stage such states
//! deterministically instead of hoping a race produces them.

#![cfg(test)]

use super::{NmTreeMap, SeekRecord};
use crate::chaos::{FaultPlan, Point};
use nmbst_reclaim::Reclaim;

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Performs only the *injection* step of a delete: flags the edge to
    /// `key`'s leaf and returns without cleaning up, imitating a deleter
    /// preempted right after its injection CAS. The flag linearizes
    /// *ownership* — no rival delete can claim this leaf anymore — while
    /// the delete itself takes effect at the later splice (§3.3), so the
    /// key stays visible to searches until someone finishes the cleanup.
    /// Returns `true` iff the flag was planted by this call (`false` if
    /// the key is absent or another delete owns the edge).
    ///
    /// Implemented as a [`FaultPlan`] over the chaos injection layer: a
    /// plain `remove` whose cleanup is abandoned at [`Point::Tag`], the
    /// first atomic step after injection. When our injection CAS loses
    /// to a rival's flag, the same rule also abandons the *helping*
    /// cleanup before it mutates anything, preserving the staged state.
    ///
    /// Only meaningful on `leaf_cap = 1` trees: a remove from a
    /// multi-entry fat leaf takes the copy-on-write path, which has no
    /// flag/tag/splice steps to stall.
    pub(crate) fn stall_delete_after_injection(&self, key: &K) -> bool {
        FaultPlan::new()
            .abandon_at(Point::Tag)
            .run(|| self.remove(key))
    }

    /// Finishes a stalled delete of `key` the way any helper would:
    /// seek + cleanup until the leaf is gone.
    pub(crate) fn finish_stalled_delete(&self, key: &K) {
        let guard = self.reclaim.pin();
        let mut rec = SeekRecord::empty();
        loop {
            // SAFETY: pinned.
            unsafe { self.seek(key, &mut rec) };
            // SAFETY: read under the pin.
            if unsafe { (*rec.leaf).find(key).is_err() } {
                return;
            }
            // SAFETY: record from a seek under this pin.
            unsafe { self.cleanup(key, &mut rec, &guard) };
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{NmTreeMap, TreeConfig};
    use nmbst_reclaim::{Ebr, Leaky, Reclaim};

    /// Every scenario here stages the classic flag/tag/splice protocol,
    /// which only runs for singleton leaves — so the whole module works
    /// on `leaf_cap = 1` trees (the ablation shape, where every remove
    /// is a structural delete exactly as in the paper).
    fn cap1() -> TreeConfig {
        TreeConfig::default().with_leaf_cap(1)
    }

    fn set_with<R: Reclaim>(keys: &[u64]) -> NmTreeMap<u64, (), R> {
        let s = NmTreeMap::with_config(cap1());
        for &k in keys {
            s.insert(k, ());
        }
        s
    }

    /// Expands a generic scenario into one `#[test]` per reclaimer, so
    /// the helping paths that *retire* memory (retire-once, chain
    /// excision) run under every scheme the tree supports — `Ebr` and
    /// the paper-faithful `Leaky`.
    macro_rules! per_reclaimer {
        ($scenario:ident: $ebr:ident, $leaky:ident) => {
            #[test]
            fn $ebr() {
                $scenario::<Ebr>();
            }
            #[test]
            fn $leaky() {
                $scenario::<Leaky>();
            }
        };
    }

    #[test]
    fn search_still_finds_flagged_but_unspliced_key() {
        // The delete's linearization point is the *splice*, not the flag
        // (§3.3), so a flagged-but-present key is still a member.
        let set = set_with::<Ebr>(&[50, 25, 75]);
        assert!(set.stall_delete_after_injection(&25));
        assert!(set.contains(&25), "flagged key must still be visible");
        set.finish_stalled_delete(&25);
        assert!(!set.contains(&25));
    }

    #[test]
    fn insert_helps_stalled_delete_at_its_injection_point() {
        // Insert(30) seeks to the leaf 25 whose edge is flagged; its CAS
        // fails, it must help the stalled delete finish, then succeed.
        let set = set_with::<Ebr>(&[50, 25, 75]);
        assert!(set.stall_delete_after_injection(&25));
        assert!(set.insert(30, ()), "insert must help and then succeed");
        assert!(set.contains(&30));
        assert!(!set.contains(&25), "helped delete must have completed");
        let mut m = set;
        m.check_invariants().unwrap();
    }

    #[test]
    fn second_delete_of_same_key_loses_to_stalled_owner() {
        let set = set_with::<Ebr>(&[50, 25, 75]);
        assert!(set.stall_delete_after_injection(&25));
        // A competing delete of 25 must help the owner and report false:
        // the key was (logically) claimed by the stalled delete.
        assert!(!set.remove(&25));
        assert!(!set.contains(&25));
    }

    fn sibling_delete_helps_stalled_delete<R: Reclaim>() {
        // 25's edge is flagged; deleting its tree-sibling forces the
        // sibling's cleanup to interact with the flagged edge (the
        // "flag copied to the new edge" path, Algorithm 4 line 107-108).
        let set = set_with::<R>(&[50, 25, 75, 10, 30]);
        assert!(set.stall_delete_after_injection(&30));
        assert!(set.remove(&10));
        // Whatever the interleaving, 30 must end up deleted (it was
        // flagged) and the rest intact.
        set.finish_stalled_delete(&30);
        assert!(!set.contains(&30));
        for k in [50, 25, 75] {
            assert!(set.contains(&k), "lost {k}");
        }
        let mut m = set;
        let shape = m.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 3);
    }

    per_reclaimer!(sibling_delete_helps_stalled_delete:
        delete_of_sibling_helps_stalled_delete,
        delete_of_sibling_helps_stalled_delete_leaky);

    fn stalled_deletes_chain_excision<R: Reclaim>() {
        // Figure 2's situation: several flagged victims along one path.
        // Finishing any one of them (or any helper) may excise several.
        let set = set_with::<R>(&[10, 20, 30, 40, 50, 60, 70, 80]);
        for k in [30u64, 40, 50] {
            assert!(set.stall_delete_after_injection(&k), "stall {k}");
        }
        // All three remain visible (none spliced yet).
        for k in [30u64, 40, 50] {
            assert!(set.contains(&k));
        }
        for k in [30u64, 40, 50] {
            set.finish_stalled_delete(&k);
        }
        for k in [30u64, 40, 50] {
            assert!(!set.contains(&k));
        }
        for k in [10u64, 20, 60, 70, 80] {
            assert!(set.contains(&k), "lost innocent {k}");
        }
        let mut m = set;
        let shape = m.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 5);
    }

    per_reclaimer!(stalled_deletes_chain_excision:
        multiple_stalled_deletes_form_a_chain_removed_at_once,
        multiple_stalled_deletes_chain_leaky);

    #[test]
    fn edge_granularity_gives_independent_progress_figure5() {
        // §5 / Figure 5: operations touching *disjoint edges* proceed
        // independently even when they share nodes. A delete of 10 is
        // stalled mid-flight (its edge flagged); deleting its tree
        // sibling 20 — same parent node! — completes on its own and, in
        // contrast to node-locking designs (see the mirror test in
        // nmbst-baselines::efrb), does NOT have to drive the stalled
        // delete to completion: 10 stays present (flagged, hoisted with
        // its flag copied per Algorithm 4 line 107-108) until its owner
        // resumes.
        let set = set_with::<Ebr>(&[10, 20]);
        assert!(set.stall_delete_after_injection(&10));
        assert!(set.remove(&20), "sibling delete proceeds independently");
        assert!(
            set.contains(&10),
            "stalled delete was not forced to completion: 10 still visible"
        );
        // The stalled owner resumes and finishes on the hoisted edge.
        set.finish_stalled_delete(&10);
        assert!(!set.contains(&10));
        let mut m = set;
        let shape = m.check_invariants().unwrap();
        assert_eq!(shape.user_keys, 0);
    }

    #[test]
    fn hoists_keep_the_kind_bits_of_the_surviving_sibling() {
        // The splice CAS installs the sibling edge re-marked through
        // `with_marks` (tag cleared, flag kept). Whatever the marks, the
        // kind must still name the survivor's arena.
        let leaf_sibling = set_with::<Ebr>(&[10, 20]);
        let map = &leaf_sibling;
        // Flag the edge to leaf 20, then delete its sibling 10: the
        // splice hoists a *flagged leaf* edge into the ∞₀ route.
        assert!(map.stall_delete_after_injection(&20));
        assert!(leaf_sibling.remove(&10));
        let guard = map.pin();
        let arenas = map.arenas();
        // SAFETY: pinned; the sentinels and the ∞₀ route are live.
        unsafe {
            let top = (*map.s_node()).left.load::<u64, ()>(arenas);
            assert!(!top.is_leaf(), "the ∞₀ route tops the user area");
            let hoisted = (*top.route()).left.load::<u64, ()>(arenas);
            assert!(hoisted.is_leaf(), "a hoisted leaf stays a leaf edge");
            assert!(hoisted.flag() && !hoisted.tag(), "flag kept, tag cleared");
            assert_eq!((*hoisted.leaf()).entry_keys(), &[20]);
        }
        drop(guard);
        map.finish_stalled_delete(&20);
        let mut m = leaf_sibling;
        assert_eq!(m.check_invariants().unwrap().user_keys, 0);

        // Ascending inserts at cap 1 build R20{10, R30{20, 30}}: deleting
        // 10 hoists its *route* sibling R30.
        let route_sibling = set_with::<Ebr>(&[10, 20, 30]);
        let map = &route_sibling;
        assert!(route_sibling.remove(&10));
        let guard = map.pin();
        // SAFETY: as above.
        unsafe {
            let top = (*map.s_node()).left.load::<u64, ()>(map.arenas());
            let hoisted = (*top.route()).left.load::<u64, ()>(map.arenas());
            assert!(!hoisted.is_leaf(), "a hoisted route stays a route edge");
            assert!(!hoisted.marked(), "the tag does not travel");
            assert_eq!((*hoisted.route()).key, crate::Key::Fin(30));
        }
        drop(guard);
        let mut m = route_sibling;
        let shape = m.check_invariants().unwrap();
        assert_eq!((shape.user_keys, shape.internal_nodes), (2, 4));

        // At the default cap, 1..=8 fill one block of the largest class
        // (kind 3: both kind bits set) and 0 lands beside it as a
        // one-key leaf; deleting 0 tags that block's edge and hoists it.
        let big_sibling: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        for k in (1..=8).chain([0]) {
            big_sibling.insert(k, ());
        }
        let map = &big_sibling;
        assert!(big_sibling.remove(&0));
        let guard = map.pin();
        // SAFETY: as above.
        unsafe {
            let top = (*map.s_node()).left.load::<u64, ()>(map.arenas());
            let hoisted = (*top.route()).left.load::<u64, ()>(map.arenas());
            assert!(hoisted.is_leaf() && !hoisted.marked());
            assert_eq!(hoisted.leaf_class(), 2, "both kind bits survive the hoist");
            assert_eq!((*hoisted.leaf()).entry_keys(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        drop(guard);
        let mut m = big_sibling;
        assert_eq!(m.check_invariants().unwrap().user_keys, 8);
    }

    #[test]
    fn stalling_twice_on_same_key_fails_second_time() {
        let set = set_with::<Ebr>(&[5, 3, 8]);
        assert!(set.stall_delete_after_injection(&3));
        assert!(!set.stall_delete_after_injection(&3));
        set.finish_stalled_delete(&3);
    }

    fn racing_helpers_retire_once<R: Reclaim>() {
        // Many threads simultaneously help the same stalled delete; the
        // splice must happen exactly once (retire-once is implied: a
        // double retire would double-free under a reclaiming scheme and
        // crash/corrupt).
        for _trial in 0..40 {
            let set = set_with::<R>(&[50, 25, 75, 10, 30, 60, 90]);
            assert!(set.stall_delete_after_injection(&30));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let set = &set;
                    s.spawn(move || set.finish_stalled_delete(&30));
                }
            });
            assert!(!set.contains(&30));
            for k in [50, 25, 75, 10, 60, 90] {
                assert!(set.contains(&k), "lost {k}");
            }
            let mut m = set;
            let shape = m.check_invariants().unwrap();
            assert_eq!(shape.user_keys, 6);
        }
    }

    per_reclaimer!(racing_helpers_retire_once:
        racing_helpers_finish_one_stalled_delete_idempotently,
        racing_helpers_retire_once_leaky);

    #[test]
    fn readers_see_consistent_membership_around_staged_chain() {
        // While a staged Figure 2 chain is being excised by helpers,
        // concurrent searches must never crash and must see innocent
        // keys as present throughout.
        let set = set_with::<Ebr>(&[10, 20, 30, 40, 50, 60, 70, 80]);
        for k in [30u64, 40, 50] {
            assert!(set.stall_delete_after_injection(&k));
        }
        std::thread::scope(|s| {
            for k in [30u64, 40, 50] {
                let set = &set;
                s.spawn(move || set.finish_stalled_delete(&k));
            }
            for _ in 0..2 {
                let set = &set;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        for k in [10u64, 20, 60, 70, 80] {
                            assert!(set.contains(&k), "innocent key {k} vanished");
                        }
                    }
                });
            }
        });
        let mut m = set;
        assert_eq!(m.check_invariants().unwrap().user_keys, 5);
    }

    #[test]
    fn map_values_of_chain_victims_reclaimed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let map: NmTreeMap<u64, D, Ebr> = NmTreeMap::with_config(cap1());
        for k in [10, 20, 30, 40, 50] {
            map.insert(k, D(Arc::clone(&drops)));
        }
        for k in [20u64, 30, 40] {
            assert!(map.stall_delete_after_injection(&k));
        }
        for k in [20u64, 30, 40] {
            map.finish_stalled_delete(&k);
        }
        map.flush();
        drop(map);
        assert_eq!(drops.load(Ordering::Relaxed), 5, "each value dropped once");
    }
}
