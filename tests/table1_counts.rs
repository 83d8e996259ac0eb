//! Exact reproduction of **Table 1**: operation cost counts in the
//! absence of contention, asserted as hard equalities where the paper
//! gives exact numbers.
//!
//! Paper's Table 1 (no contention, no memory reclamation):
//!
//! | Algorithm        | objects insert/delete | atomics insert/delete |
//! |------------------|-----------------------|-----------------------|
//! | Ellen et al.     | 4 / 1                 | 3 / 4                 |
//! | Howley & Jones   | 2 / 1                 | 3 / up to 9           |
//! | This work        | 2 / 0                 | 1 / 3                 |

use nmbst::stats;
use nmbst::{NmTreeMap, TagMode, TreeConfig};
use nmbst_harness::table1::{measure_efrb, measure_hj, measure_nm};
use nmbst_reclaim::Leaky;

#[test]
fn nm_row_matches_exactly() {
    // The measurement runs the shipping node store, recycling on; under
    // `Leaky` with no contention no slot ever comes off a free list, so
    // every counted allocation is one of the algorithm's own.
    let (row, d) = stats::delta(|| measure_nm(TagMode::FetchOr));
    assert_eq!(d.pool_hits, 0, "no node of the measurement was recycled");
    assert_eq!(
        row.insert_allocs, 2.0,
        "NM insert must allocate exactly 2 objects"
    );
    assert_eq!(row.delete_allocs, 0.0, "NM delete must allocate nothing");
    assert_eq!(
        row.insert_atomics, 1.0,
        "NM insert must execute exactly 1 CAS"
    );
    assert_eq!(
        row.delete_atomics, 3.0,
        "NM delete must execute exactly 3 atomics"
    );
}

#[test]
fn efrb_row_matches_exactly() {
    let row = measure_efrb();
    assert_eq!(row.insert_allocs, 4.0);
    assert_eq!(row.delete_allocs, 1.0);
    assert_eq!(row.insert_atomics, 3.0);
    assert_eq!(row.delete_atomics, 4.0);
}

#[test]
fn hj_row_matches_paper_bounds() {
    let row = measure_hj();
    assert_eq!(row.insert_allocs, 2.0);
    assert_eq!(row.insert_atomics, 3.0);
    // Delete cost depends on how many victims had two children
    // (relocation); the paper reports 1 object and "up to 9" atomics.
    assert!(
        row.delete_allocs >= 1.0,
        "delete allocates at least the op record"
    );
    assert!(
        (4.0..=9.0).contains(&row.delete_atomics),
        "got {}",
        row.delete_atomics
    );
}

#[test]
fn nm_delete_breakdown_is_one_cas_one_bts_one_cas() {
    // Finer grain than the table: the three delete atomics are exactly
    // {injection CAS, sibling BTS, splice CAS}. Like `measure_nm`, this
    // pins `leaf_cap = 1` — the paper's costs are stated for one-key
    // leaves; a multi-entry block would COW (1 alloc, 1 CAS) instead.
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in [10, 5, 15, 3, 7] {
        set.insert(k, ());
    }
    let (removed, d) = stats::delta(|| set.remove(&7));
    assert!(removed);
    assert_eq!(d.cas, 2, "injection + splice");
    assert_eq!(d.bts, 1, "sibling tag");
    assert_eq!(d.allocs, 0);
    assert_eq!(d.splices, 1);
    assert_eq!(d.unlinked, 2, "leaf and its parent leave together");
}

#[test]
fn nm_uncontended_search_executes_no_atomics() {
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    for k in 0..64 {
        set.insert(k, ());
    }
    let ((), d) = stats::delta(|| {
        for k in 0..128 {
            std::hint::black_box(set.contains(&k));
        }
    });
    assert_eq!(d.cas, 0, "search is read-only");
    assert_eq!(d.bts, 0);
    assert_eq!(d.allocs, 0);
}

#[test]
fn cas_only_variant_uncontended_costs_match_bts_variant() {
    // §6: the CAS-only modification. Without contention the tag CAS loop
    // takes one attempt, so total atomics stay at 3 per delete.
    let bts = measure_nm(TagMode::FetchOr);
    let cas = measure_nm(TagMode::CasLoop);
    assert_eq!(bts.delete_atomics, cas.delete_atomics);
    assert_eq!(bts.insert_atomics, cas.insert_atomics);
    assert_eq!(bts.delete_allocs, cas.delete_allocs);
}

#[test]
fn failed_modify_operations_allocate_nothing_extra() {
    // Duplicate inserts must not burn allocations beyond the reusable
    // scratch pair, and failed removes allocate nothing at all.
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    set.insert(1, ());
    let ((), d) = stats::delta(|| {
        for _ in 0..10 {
            assert!(!set.insert(1, ())); // duplicate: discovered during seek
            assert!(!set.remove(&2)); // absent
        }
    });
    assert_eq!(
        d.allocs, 0,
        "failed ops found out in the seek phase allocate nothing"
    );
    assert_eq!(d.cas, 0);
}

/// The paper's costs hold through the two-phase batch executor: at
/// `leaf_cap = 1`, an uncontended `execute_batch` issues no failed CAS —
/// exactly 1 CAS (and 2 objects) per added key and 1 CAS + 1 BTS + 1 CAS
/// per removed key, nothing for an op that changes nothing — on every
/// layout where an earlier write of the run invalidates a later write's
/// Phase-1 seek record.
#[test]
fn execute_batch_uncontended_costs_have_no_failed_cas() {
    use nmbst::{BatchCmd, BatchScratch, BatchVerdict, ShardedMap};
    use BatchCmd::{Get, Insert, Remove};
    use BatchVerdict::{Added, Found, Missing, Removed};

    // (layout, keys inserted first in this order, batch, replies).
    type Case = (
        &'static str,
        &'static [u64],
        Vec<BatchCmd<u64, u64>>,
        Vec<BatchVerdict<u64>>,
    );
    let cases: [Case; 5] = [
        (
            // 11, 12 and 13 all descend to the leaf of 10 in Phase 1;
            // each insert grows the tree at the leaf the next one needs.
            "adjacent inserts into one leaf",
            &[10, 20],
            vec![Insert(12, 0), Insert(11, 0), Insert(13, 0)],
            vec![Added(true); 3],
        ),
        (
            // 10 and 20 are sibling leaves under one router: removing 10
            // splices that router out, with 20's record under it.
            "sibling removes",
            &[30, 40, 10, 20],
            vec![Remove(20), Remove(10)],
            vec![Removed(true); 2],
        ),
        (
            // 10's sibling is the router of 20 and 30; removing 10
            // splices out the parent that 30's record names as its
            // anchor, while 30's own leaf edge stays put.
            "remove whose sibling subtree is internal",
            &[10, 20, 30],
            vec![Remove(30), Remove(10)],
            vec![Removed(true); 2],
        ),
        (
            "insert then remove of one key",
            &[10, 20],
            vec![Get(15), Insert(15, 1), Get(15), Remove(15), Get(15)],
            vec![Missing, Added(true), Found(1), Removed(true), Missing],
        ),
        (
            "duplicate keys",
            &[10, 20],
            vec![
                Insert(15, 1),
                Remove(15),
                Insert(15, 2),
                Remove(15),
                Remove(15),
                Insert(15, 3),
                Insert(15, 4),
                Get(15),
            ],
            vec![
                Added(true),
                Removed(true),
                Added(true),
                Removed(true),
                Removed(false),
                Added(true),
                Added(false),
                Found(3),
            ],
        ),
    ];
    for (layout, prefill, cmds, want) in cases {
        let map: ShardedMap<u64, u64, Leaky> =
            ShardedMap::with_config(1, TreeConfig::default().with_leaf_cap(1));
        let mut h = map.handle();
        for &k in prefill {
            assert!(h.insert(k, k));
        }
        let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
        let ((), d) = stats::delta(|| h.execute_batch(&cmds, &mut scratch, &mut out));
        assert_eq!(out, want, "{layout}");
        let added = out.iter().filter(|v| **v == Added(true)).count() as u64;
        let removed = out.iter().filter(|v| **v == Removed(true)).count() as u64;
        assert_eq!(d.cas, added + 2 * removed, "{layout}: no failed CAS ({d})");
        assert_eq!(d.bts, removed, "{layout}: one tag per removed leaf ({d})");
        assert_eq!(
            d.allocs + d.pool_hits,
            2 * added,
            "{layout}: two objects per insert ({d})"
        );
        assert_eq!(d.splices, removed, "{layout}: ({d})");
    }
}
