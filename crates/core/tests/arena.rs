//! The node arenas' memory bounds: routes and leaves live in two slab
//! arenas whose free lists never abandon a slot, so what a tree holds is
//! bounded by its live keys, the per-thread allocation caches and the
//! reclamation backlog — not by how many operations it has served — and
//! the compact 32-byte routes keep the arena near 35 bytes per `u64`
//! key at the default leaf capacity.
//!
//! Every workload here has a fixed operation count and a seeded key
//! stream; nothing depends on the wall clock.

use nmbst::{Ebr, HazardEras, Leaky, NmTreeMap, Reclaim};

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

/// The 2-thread churn under EBR: each arena's high-water slot count
/// (the bump cursor — the arena never frees) stays under the live keys,
/// both threads' caches and in-flight scratch, and the largest backlog
/// the reclaimer reported. The backlog is sampled every
/// `SAMPLE_EVERY` ops per thread, so it can have grown by at most the
/// retires of the ops between two samples. A free list that abandoned
/// slots — the try-lock pool this arena replaced dropped ~4% of
/// releases under exactly this contention — breaks the bound by tens of
/// thousands of slots.
#[test]
fn two_thread_churn_high_water_stays_under_live_plus_caches_plus_backlog() {
    let mut map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    let max_backlog = churn(&map);
    let m = map.metrics();
    let sample_slack = THREADS * SAMPLE_EVERY * RETIRES_PER_OP;
    let per_thread = THREADS * (CACHE_SLOTS + SCRATCH);
    // Every user leaf holds a live key; routes number leaves - 1; the
    // sentinels add three leaves and two routes.
    let bound = KEYS + 3 + per_thread + max_backlog + sample_slack;
    for (class, slots) in [("route", m.pool_route_slots), ("leaf", m.pool_leaf_slots)] {
        assert!(
            slots <= bound,
            "{class} arena grew to {slots} slots, bound {bound} \
             (backlog {max_backlog}; {m})"
        );
    }
    assert_eq!(m.pool.dropped, 0, "a recycling pool abandons nothing ({m})");
    // Conservation at quiescence: once reclamation has drained, every
    // slot ever bumped is in the tree or on a free list.
    drain(&map);
    let m = map.metrics();
    assert_eq!(m.reclaim.retired_backlog, 0, "EBR drains at quiescence");
    let shape = map.check_invariants().expect("invariants after churn");
    assert_eq!(
        m.pool.slots,
        (shape.internal_nodes + shape.leaf_nodes) as u64 + m.pool.len,
        "every slot is live or free ({m})"
    );
}

/// The same churn under hazard eras (whose reclaimer reports no backlog
/// gauge): no slot is abandoned, and after a drain every slot the arenas
/// ever handed out is live in the tree or back on a free list.
#[test]
fn two_thread_churn_under_hazard_eras_conserves_every_slot() {
    let mut map: NmTreeMap<u64, u64, HazardEras> = NmTreeMap::new();
    churn(&map);
    for _ in 0..16 {
        map.flush();
    }
    let m = map.metrics();
    assert_eq!(m.pool.dropped, 0, "a recycling pool abandons nothing ({m})");
    let shape = map.check_invariants().expect("invariants after churn");
    let live = (shape.internal_nodes + shape.leaf_nodes) as u64;
    assert!(m.pool.recycled > 0 && m.pool.hits > 0, "{m}");
    assert_eq!(
        m.pool.slots,
        live + m.pool.len,
        "every slot is live or free ({m})"
    );
}

/// Under `Leaky` deferrals never run, so retired slots stay parked in
/// the arenas by design; what the free lists still carry — insert
/// scratch that lost its CAS and handle-cache give-backs under two
/// contending threads — must never be abandoned either.
#[test]
fn two_thread_churn_under_leaky_abandons_no_slot() {
    let map: NmTreeMap<u64, u64, Leaky> = NmTreeMap::new();
    churn(&map);
    let m = map.metrics();
    assert_eq!(m.pool.dropped, 0, "{m}");
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
    assert_eq!(after.pool.dropped, 0);
}

/// The memory the split buys, as a deterministic bound: 2^16 random
/// inserts at the default configuration commit at most 40 bytes of
/// arena slots per key (32-byte routes, 152-byte leaves at ~5.3 keys
/// each come to ~35; one 160-byte slot class for both came to ~60).
#[test]
fn random_inserts_cost_at_most_40_arena_bytes_per_key() {
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
    assert!(per_key <= 40.0, "{per_key:.1} arena bytes per key ({m})");
    // Both classes are accounted for, each at its own slot size.
    assert_eq!(
        m.pool_bytes,
        m.pool_route_slots * 32 + m.pool_leaf_slots * 152,
        "{m}"
    );
}
