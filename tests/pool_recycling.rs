//! Whitebox tests of the PR 4 node-recycling pool: retired nodes flow
//! retire → grace period → pool → fresh insert, and reuse is impossible
//! while any stalled operation could still observe the old node.
//!
//! The `chaos::Point::Recycle` injection point fires on the thread that
//! *runs* a recycle deferral, immediately before the block re-enters the
//! pool — these tests use it both as a counter (did recycling actually
//! happen, and when?) and as a valve (`Action::Abandon` forces the
//! fall-through-to-allocator path).

use nmbst::chaos::{self, Action, FaultPlan, Point, StallCell};
use nmbst::{Ebr, HazardEras, Leaky, NmTreeMap, Reclaim, TreeConfig};
use std::cell::Cell;
use std::rc::Rc;

const KEYS: u64 = 32;
const ROUNDS: u64 = 50;

/// Arena allocations made by tree construction itself: two internal
/// sentinels plus three sentinel leaves. Since PR 7 the arena is the
/// node store, so these five count as pool misses before any user op.
const SENTINELS: u64 = 5;

/// Insert-then-remove churn: every round retires `2 * KEYS` nodes and
/// allocates `2 * KEYS` fresh ones — the workload recycling exists for.
fn churn<R: Reclaim>(map: &NmTreeMap<u64, u64, R>, rounds: u64) {
    for round in 0..rounds {
        for k in 0..KEYS {
            assert!(map.insert(k, round), "churn key {k} must be absent");
        }
        for k in 0..KEYS {
            assert!(map.remove(&k), "churn key {k} must be present");
        }
        map.flush();
    }
}

fn round_trip<R: Reclaim>() -> nmbst::PoolStats {
    let map: NmTreeMap<u64, u64, R> = NmTreeMap::new();
    churn(&map, ROUNDS);
    // Correctness through heavy reuse: final contents and shape hold up.
    let mut map = map;
    for k in 0..KEYS {
        assert!(map.insert(k, 7));
    }
    let shape = map.check_invariants().expect("invariants after recycling");
    assert_eq!(shape.user_keys, KEYS as usize);
    map.metrics().pool
}

#[test]
fn retire_recycle_realloc_round_trip_under_ebr() {
    let stats = round_trip::<Ebr>();
    assert!(
        stats.recycled > 0,
        "EBR runs deferrals: retired nodes must reach the pool ({stats:?})"
    );
    assert!(
        stats.hits > 0,
        "recycled blocks must serve later inserts ({stats:?})"
    );
}

#[test]
fn retire_recycle_realloc_round_trip_under_hazard_eras() {
    let stats = round_trip::<HazardEras>();
    assert!(
        stats.recycled > 0,
        "HazardEras runs deferrals: retired nodes must reach the pool ({stats:?})"
    );
    assert!(
        stats.hits > 0,
        "recycled blocks must serve later inserts ({stats:?})"
    );
}

#[test]
fn leaky_never_recycles_retired_nodes() {
    let stats = round_trip::<Leaky>();
    // `Leaky` drops deferrals uncalled (RECLAIMS == false), and the tree
    // does not even build recycle deferrals for it. Fresh-key churn also
    // never discards insert scratch, so the pool stays untouched.
    assert_eq!(
        stats.recycled, 0,
        "Leaky must leak, not recycle ({stats:?})"
    );
    assert_eq!(stats.hits, 0, "nothing to reuse under Leaky ({stats:?})");
    assert!(
        stats.misses > 0,
        "all churn allocs are pool misses ({stats:?})"
    );
}

/// The ABA-safety argument (DESIGN.md §11), demonstrated: while an
/// operation is parked mid-protocol — pinned, holding a seek record
/// pointing into the tree — **no** node anywhere in the tree can be
/// recycled, because the grace period that gates the recycle deferral is
/// exactly "no pinned thread can still hold a reference". Once the
/// straggler resumes and unpins, recycling proceeds.
#[test]
fn stalled_seeker_never_observes_a_recycled_node() {
    // leaf_cap 1: the parked remove must run the classic flag/tag/splice
    // protocol — a multi-entry block would COW its way past `Point::Tag`
    // and the stall would never engage.
    let map: NmTreeMap<u64, u64, Ebr> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in 0..KEYS {
        map.insert(k, 0);
    }
    let parked = StallCell::new();
    std::thread::scope(|s| {
        let stalled = s.spawn({
            let map = &map;
            let cell = parked.clone();
            move || {
                // A remove stalled at its Tag step: it has sought, its
                // seek record references live nodes, its guard is pinned.
                FaultPlan::new()
                    .stall_at(Point::Tag, cell)
                    .run(|| map.remove(&0))
            }
        });
        parked.wait_arrival();

        // Churn hard on fresh keys while the seeker is provably parked.
        // Count recycle-deferral executions on this thread via the
        // injection point: there must be none — every retired node's
        // grace period is held open by the parked guard.
        let recycles = Rc::new(Cell::new(0u64));
        let seen = Rc::clone(&recycles);
        chaos::with_hook(
            move |p| {
                if p == Point::Recycle {
                    seen.set(seen.get() + 1);
                }
                Action::Continue
            },
            || {
                for round in 1..=20 {
                    for k in KEYS..KEYS * 2 {
                        assert!(map.insert(k, round));
                        assert!(map.remove(&k));
                    }
                    map.flush();
                }
            },
        );
        assert_eq!(
            recycles.get(),
            0,
            "a node was recycled while a stalled operation was pinned"
        );
        assert_eq!(
            map.metrics().pool.recycled,
            0,
            "pool must be empty while parked"
        );

        parked.resume();
        assert!(
            stalled.join().unwrap(),
            "the stalled remove owns its victim"
        );
    });

    // Straggler gone: the same churn now recycles freely.
    for k in 1..KEYS {
        assert!(map.remove(&k), "initial key {k} still present");
    }
    churn(&map, ROUNDS);
    let stats = map.metrics().pool;
    assert!(
        stats.recycled > 0 && stats.hits > 0,
        "recycling must resume once the straggler unpins ({stats:?})"
    );
}

#[test]
fn recycle_point_abandon_forces_allocator_fall_through() {
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    let recycles = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&recycles);
    chaos::with_hook(
        move |p| {
            if p == Point::Recycle {
                seen.set(seen.get() + 1);
                Action::Abandon // decline the pool: free to the allocator
            } else {
                Action::Continue
            }
        },
        || churn(&map, ROUNDS),
    );
    assert!(
        recycles.get() > 0,
        "churn under EBR must execute recycle deferrals"
    );
    let stats = map.metrics().pool;
    assert_eq!(
        stats.recycled, 0,
        "every deferral was abandoned into the allocator ({stats:?})"
    );
    assert_eq!(stats.len, 0, "pool must have stayed empty ({stats:?})");
    assert_eq!(stats.hits, 0, "nothing pooled, nothing reused ({stats:?})");
    // The abandoned slots stay parked in the arena; the tree is intact.
    let mut map = map;
    assert_eq!(map.check_invariants().expect("invariants").user_keys, 0);
}

#[test]
fn handle_churn_reuses_through_the_local_cache() {
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    {
        let mut h = map.handle();
        for round in 0..ROUNDS {
            for k in 0..KEYS {
                assert!(h.insert(k, round));
            }
            for k in 0..KEYS {
                assert!(h.remove(&k));
            }
            map.flush();
        }
    } // handle drop flushes its batched pool accounting
    let stats = map.metrics().pool;
    assert!(
        stats.hits > 0,
        "handle inserts must be served from recycled blocks ({stats:?})"
    );
    // Every insert/remove pair costs exactly 2 slots at any leaf_cap
    // dividing KEYS: a block of B keys takes 2 + (B-1) insert-path
    // allocations (one classic two-node subtree, then COW merges) and
    // B-1 remove-path COW shrinks (the last entry splices, 0 allocs).
    // Add the construction-time sentinels: the arena sees every
    // allocation as a hit or a miss.
    assert_eq!(
        stats.hits + stats.misses,
        2 * KEYS * ROUNDS + SENTINELS,
        "every node allocation is either a hit or a miss ({stats:?})"
    );
}
