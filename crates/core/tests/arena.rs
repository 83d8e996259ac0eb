//! The node arenas' memory bounds: routes and each leaf size class live
//! in slab arenas whose free lists never abandon a slot, so what a tree
//! holds is bounded by its live keys, the per-thread allocation caches
//! and the reclamation backlog — not by how many operations it has
//! served — and the compact 32-byte routes and right-sized leaf blocks
//! keep the arena near 26 bytes per `u64` key at the default leaf
//! capacity.
//!
//! Every workload here has a fixed operation count and a seeded key
//! stream; nothing depends on the wall clock.

use nmbst::{Ebr, Leaky, NmTreeMap, Reclaim};

/// Key range of the churn workloads.
const KEYS: u64 = 1024;
/// Operations each churn thread performs.
const OPS_PER_THREAD: u64 = 100_000;
/// Churn threads.
const THREADS: u64 = 2;
/// A churn thread samples the reclamation backlog every this many ops.
const SAMPLE_EVERY: u64 = 64;
/// Free slots a handle's allocation cache keeps per node class, plus
/// the refill batch it may pull from the shared list at once.
const CACHE_SLOTS: u64 = 32 + 8;
/// Leaf size classes: a handle caches up to `CACHE_SLOTS` of each.
const LEAF_CLASSES: u64 = 3;
/// Fresh nodes one in-flight insert holds before its publishing CAS: a
/// block split builds one route and two leaves.
const SCRATCH: u64 = 3;
/// Nodes one operation can retire: a splice retires the victim leaf and
/// its parent route. Whole chains are other deletes' victims, each
/// counted by the delete that flagged it.
const RETIRES_PER_OP: u64 = 2;

/// A splitmix64 step: the seeded key/verb stream of a churn thread.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `THREADS` handles churn `0..KEYS` (half prefilled) with 50/50
/// insert/remove. Returns the largest reclamation backlog any thread
/// sampled.
fn churn<R: Reclaim>(map: &NmTreeMap<u64, u64, R>) -> u64 {
    {
        let mut h = map.handle();
        for k in (0..KEYS).step_by(2) {
            h.insert(k, k);
        }
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut h = map.handle();
                    let mut rng = 0xA5A5_0000 + t;
                    let mut max_backlog = 0;
                    for i in 0..OPS_PER_THREAD {
                        let r = next(&mut rng);
                        let k = r % KEYS;
                        if r >> 63 == 0 {
                            h.insert(k, i);
                        } else {
                            h.remove(&k);
                        }
                        if i % SAMPLE_EVERY == 0 {
                            max_backlog = max_backlog.max(map.metrics().reclaim.retired_backlog);
                        }
                    }
                    max_backlog
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .max()
            .unwrap()
    })
}

/// Runs the reclaimer until nothing retired is left unreclaimed, or
/// gives up after a bounded number of flushes.
fn drain<R: Reclaim>(map: &NmTreeMap<u64, u64, R>) {
    for _ in 0..1_000 {
        map.flush();
        if map.metrics().reclaim.retired_backlog == 0 {
            return;
        }
    }
}

/// Churns `map` from two threads, then checks that each kind's
/// high-water slot count (the bump cursor — the arena never frees)
/// stays under the live keys, both threads' caches and in-flight
/// scratch, and the largest backlog the reclaimer reported; and that
/// after a drain every slot ever bumped is live in the tree or on a
/// free list. The backlog is sampled every `SAMPLE_EVERY` ops per
/// thread, so it can have grown by at most the retires of the ops
/// between two samples. A free list that abandoned slots — the try-lock
/// pool this arena replaced dropped ~4% of releases under exactly this
/// contention — breaks the bound by tens of thousands of slots.
fn churn_stays_under_live_plus_caches_plus_backlog<R: Reclaim>() {
    let mut map: NmTreeMap<u64, u64, R> = NmTreeMap::new();
    let max_backlog = churn(&map);
    let m = map.metrics();
    let sample_slack = THREADS * SAMPLE_EVERY * RETIRES_PER_OP;
    // Every user leaf holds a live key; routes number leaves - 1; the
    // sentinels add three leaves and two routes. Leaf slots are summed
    // over the size classes, each with its own per-handle cache.
    let bound = |classes: u64| {
        KEYS + 3 + THREADS * (classes * CACHE_SLOTS + SCRATCH) + max_backlog + sample_slack
    };
    for (class, slots, bound) in [
        ("route", m.pool_route_slots, bound(1)),
        ("leaf", m.pool_leaf_slots, bound(LEAF_CLASSES)),
    ] {
        assert!(
            slots <= bound,
            "{class} arenas grew to {slots} slots, bound {bound} \
             (backlog {max_backlog}; {m})"
        );
    }
    assert!(
        max_backlog > 0,
        "the backlog gauge samples real retirees ({m})"
    );
    // Conservation at quiescence: once reclamation has drained, every
    // slot ever bumped is in the tree or on a free list.
    drain(&map);
    let m = map.metrics();
    assert_eq!(m.reclaim.retired_backlog, 0, "drained at quiescence ({m})");
    let shape = map.check_invariants().expect("invariants after churn");
    assert!(m.pool.recycled > 0 && m.pool.hits > 0, "{m}");
    assert_eq!(
        m.pool.slots,
        (shape.internal_nodes + shape.leaf_nodes) as u64 + m.pool.len,
        "every slot is live or free ({m})"
    );
}

#[test]
fn two_thread_churn_high_water_stays_under_live_plus_caches_plus_backlog() {
    churn_stays_under_live_plus_caches_plus_backlog::<Ebr>();
}

/// Under `Leaky` deferrals never run, so retired slots stay parked in
/// the arenas by design; what the free lists still carry is insert
/// scratch that lost its CAS and handle-cache give-backs under two
/// contending threads, and every fresh slot is a counted miss.
#[test]
fn two_thread_churn_under_leaky_counts_every_bump_as_a_miss() {
    let map: NmTreeMap<u64, u64, Leaky> = NmTreeMap::new();
    churn(&map);
    let m = map.metrics();
    assert_eq!(
        m.pool.slots, m.pool.misses,
        "every bump is a counted miss ({m})"
    );
}

/// Slots freed by a bulk delete are reused by the next bulk insert: the
/// arenas do not grow at all when the same keys come back.
#[test]
fn bulk_delete_then_reinsert_adds_no_slots() {
    const N: u64 = 20_000;
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    let mut rng = 0x5EED;
    let keys: Vec<u64> = (0..N).map(|_| next(&mut rng)).collect();
    let fill = |map: &NmTreeMap<u64, u64, Ebr>| {
        let mut h = map.handle();
        for &k in &keys {
            h.insert(k, k);
        }
    };
    fill(&map);
    {
        let mut h = map.handle();
        for k in &keys {
            assert!(h.remove(k));
        }
    }
    drain(&map);
    let before = map.metrics();
    assert_eq!(
        before.reclaim.retired_backlog, 0,
        "the deletes were reclaimed"
    );
    assert!(
        before.pool.len > 0,
        "the freed slots wait on the free lists"
    );
    fill(&map);
    let after = map.metrics();
    assert_eq!(
        (after.pool_route_slots, after.pool_leaf_slots),
        (before.pool_route_slots, before.pool_leaf_slots),
        "re-insert reused freed slots ({before} -> {after})"
    );
}

/// The memory the compact nodes buy, as a deterministic bound: 2^16
/// random inserts at the default configuration commit at most 28 bytes
/// of arena slots per key. 32-byte routes and leaf blocks in the 72,
/// 104 and 136-byte size classes come to ~25.7; 152-byte leaves of a
/// single size came to ~35, and one 160-byte slot class for both node
/// kinds to ~60.
#[test]
fn random_inserts_cost_at_most_28_arena_bytes_per_key() {
    const N: u64 = 1 << 16;
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    let mut rng = 0xB17E5;
    let mut h = map.handle();
    let mut keys = 0u64;
    while keys < N {
        let k = next(&mut rng);
        keys += u64::from(h.insert(k, k));
    }
    drop(h);
    let m = map.metrics();
    let per_key = m.pool_bytes as f64 / keys as f64;
    assert!(per_key <= 28.0, "{per_key:.1} arena bytes per key ({m})");
    // Every kind is accounted for at its own slot size: routes at 32
    // bytes, leaves from the smallest class up to (and, as blocks are
    // not all full, below) the largest.
    let leaf_bytes = m.pool_bytes - m.pool_route_slots * 32;
    assert!(
        (m.pool_leaf_slots * 72..m.pool_leaf_slots * 136).contains(&leaf_bytes),
        "{m}"
    );
}
