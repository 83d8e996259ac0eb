//! `ShardedMap` against flat models: routing must be a
//! pure partition (every key readable back through the same front end),
//! merged ordered views must match a `BTreeMap`, and aggregated metrics
//! must add up exactly at quiescence.

use nmbst::{Ebr, ShardedMap, TreeConfig};
use std::collections::BTreeMap;
use std::sync::Barrier;

/// SplitMix64, same fixed-seed idiom as `properties.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn matches_model_across_shard_counts() {
    for shards in [1usize, 2, 3, 8, 13] {
        let mut rng = Rng(0xCAFE + shards as u64);
        let mut map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(shards);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..4_000 {
            let r = rng.next();
            let k = r % 512;
            match r % 10 {
                0..=4 => {
                    let inserted = map.insert(k, r);
                    assert_eq!(inserted, !model.contains_key(&k), "shards={shards} k={k}");
                    model.entry(k).or_insert(r);
                }
                5..=6 => {
                    let removed = map.remove(&k);
                    assert_eq!(removed, model.remove(&k).is_some(), "shards={shards} k={k}");
                }
                _ => {
                    assert_eq!(map.get(&k), model.get(&k).copied(), "shards={shards} k={k}");
                }
            }
        }
        // Quiescent aggregates.
        assert_eq!(map.len(), model.len(), "shards={shards}");
        assert_eq!(map.count(), model.len(), "shards={shards}");
        assert_eq!(
            map.keys(),
            model.keys().copied().collect::<Vec<_>>(),
            "shards={shards}"
        );
        let collected = map.range_collect(100..400);
        let expected: Vec<(u64, u64)> = model.range(100..400).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected, expected, "shards={shards}: merged range");
        map.check_invariants()
            .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        // Metrics: exact at quiescence, aggregated across shards.
        assert_eq!(map.metrics().size_estimate, model.len() as i64);
    }
}

#[test]
fn handle_agrees_with_plain_front_end() {
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(4);
    let mut h = map.handle();
    for k in 0..1_000 {
        assert!(h.insert(k, k * 7));
    }
    for k in 0..1_000 {
        // Handle writes visible through the plain routed API and back.
        assert_eq!(map.get(&k), Some(k * 7));
        assert_eq!(h.get(&k), Some(k * 7));
    }
    assert_eq!(h.remove_batch(0..500), 500);
    assert_eq!(h.insert_batch((0..10).map(|k| (k, k))), 10);
    let back = h.get_batch(vec![3, 999, 700, 250]);
    assert_eq!(back, vec![Some(3), Some(999 * 7), Some(700 * 7), None]);
    drop(h);
    let mut map = map;
    assert_eq!(map.len(), 510);
}

/// The sharded `get_batch` answers in input order, exactly like routed
/// `get`, with keys in every shard, misses and duplicates; each key is
/// one search in its shard's counters.
#[test]
fn get_batch_answers_across_shards_in_input_order() {
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(4);
    let mut h = map.handle();
    assert_eq!(h.get_batch([5, 6]), vec![None, None], "empty shards");
    for k in (0..4_000).step_by(3) {
        h.insert(k, k + 1);
    }
    let mut rng = Rng(11);
    let keys: Vec<u64> = (0..1_000).map(|_| rng.next() % 4_200).collect();
    assert!(
        (0..4).all(|s| keys.iter().any(|k| map.shard_of(k) == s)),
        "keys in every shard"
    );
    h.flush_stats();
    let before = map.metrics().searches;
    let out = h.get_batch(keys.iter().copied());
    h.flush_stats();
    assert_eq!(map.metrics().searches - before, keys.len() as u64);
    let expect: Vec<Option<u64>> = keys.iter().map(|k| map.get(k)).collect();
    assert_eq!(out, expect);
    assert!(out.iter().any(Option::is_none) && out.iter().any(Option::is_some));
}

#[test]
fn bulk_extend_routes_and_keeps_first_duplicate() {
    let mut map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(5);
    let mut stream = Vec::new();
    let mut rng = Rng(7);
    for i in 0..2_000u64 {
        stream.push((rng.next() % 600, i));
    }
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, v) in &stream {
        model.entry(k).or_insert(v);
    }
    map.bulk_extend(stream);
    assert_eq!(map.len(), model.len());
    for (k, v) in &model {
        assert_eq!(map.get(k), Some(*v), "key {k}");
    }
    map.check_invariants().unwrap();
}

/// Each worker thread drives its own `ShardedMapHandle` over disjoint
/// key stripes; after the join every stripe must be fully present and
/// the aggregated metrics exact.
#[test]
fn concurrent_workers_with_per_worker_handles() {
    const WORKERS: u64 = 4;
    const PER: u64 = 2_000;
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(8);
    let start = Barrier::new(WORKERS as usize);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let map = &map;
            let start = &start;
            s.spawn(move || {
                let mut h = map.handle();
                start.wait();
                for i in 0..PER {
                    let k = w * PER + i;
                    assert!(h.insert(k, k));
                }
                for i in 0..PER {
                    let k = w * PER + i;
                    assert_eq!(h.get(&k), Some(k));
                }
                h.flush_stats();
            });
        }
    });
    let mut map = map;
    assert_eq!(map.len(), (WORKERS * PER) as usize);
    let m = map.metrics();
    assert_eq!(m.inserted, WORKERS * PER);
    assert_eq!(m.searches, WORKERS * PER);
    assert_eq!(m.size_estimate, (WORKERS * PER) as i64);
    map.check_invariants().unwrap();
}

/// A live never-repinned sharded handle becomes visible to `metrics()`
/// after `flush_stats` — the serving tier's sampling-tick contract.
#[test]
fn sharded_flush_stats_makes_live_worker_visible() {
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(4);
    let mut h = map.handle();
    for k in 0..200 {
        h.insert(k, k);
    }
    h.flush_stats();
    assert_eq!(map.metrics().inserted, 200);
    drop(h);
    assert_eq!(map.metrics().inserted, 200, "no double count on drop");
}

/// A parked worker's sharded handle holds back reclamation in every
/// shard it pinned, until it unpins: retirements by another thread pile
/// up behind the stale pins, and once `unpin` is called the same churn
/// frees them down to a few sealed bags per participant.
#[test]
fn unpinned_sharded_handle_stops_holding_reclamation() {
    /// `BAG_SEAL_THRESHOLD` in `nmbst_reclaim::ebr`.
    const BAG: u64 = 32;
    // Each shard's participants: the parked thread and a churner.
    const PARTICIPANTS: u64 = 2 * 2;
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(2);
    let mut parked = map.handle();
    for k in 0..64 {
        parked.insert(k, k);
    }
    let churn = || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = map.handle();
                for r in 0..4096 {
                    let k = 1_000 + r % 512;
                    h.insert(k, k);
                    h.remove(&k);
                }
            });
        });
        map.flush();
        map.metrics().reclaim.retired_backlog
    };
    let held = churn();
    assert!(
        held > 4 * BAG * PARTICIPANTS,
        "the parked pins held only {held}"
    );
    parked.unpin();
    let freed = churn();
    assert!(
        freed <= 4 * BAG * PARTICIPANTS,
        "{freed} retired nodes still wait after unpin"
    );
    drop(parked);
}

/// A `ShardedMap<_, ()>` is the sharded set: keys only, routed and
/// merged like any other map.
#[test]
fn sharded_set_round_trip_and_merged_order() {
    let set: ShardedMap<u64, (), Ebr> = ShardedMap::with_shards(6);
    let mut h = set.handle();
    // Insert in descending order to make merged ascending output earn it.
    for k in (0..500).rev() {
        assert!(h.insert(k, ()));
    }
    assert!(!h.insert(250, ()));
    assert!(h.contains(&499));
    assert!(h.remove(&499));
    // The handle batch round trip: shard-partitioned batches count only
    // the keys they changed, and leave the set as it was.
    assert_eq!(h.insert_batch((495..505).map(|k| (k, ()))), 6);
    assert_eq!(h.remove_batch(499..505), 6);
    drop(h);
    let mut seen = Vec::new();
    set.range_for_each(10..20, |k, ()| seen.push(*k));
    assert_eq!(seen, (10..20).collect::<Vec<_>>());
    let mut ordered = Vec::new();
    set.for_each(|k, ()| ordered.push(*k));
    assert_eq!(ordered, (0..499).collect::<Vec<_>>());
    let mut set = set;
    assert_eq!(set.len(), 499);
    set.check_invariants().unwrap();
    set.clear();
    assert_eq!(set.len(), 0);
}

/// `execute_batch` against the sequential model: for every mixed batch,
/// the fused result (partition by shard → sort each run by `(key,
/// position)` → interleaved Phase-1 descents → Phase-2 writes in run
/// order → scatter) must equal executing the same ops one at a time in
/// request order. Duplicate keys inside one batch are the hard case —
/// same-key ops land in the same shard, the position tiebreak keeps
/// them in input order, and a write's record goes stale under the
/// same-key write before it. Batches longer than one 256-command chunk
/// and one-key leaves are covered too.
#[test]
fn execute_batch_matches_sequential_model() {
    use nmbst::{BatchCmd, BatchScratch, BatchVerdict};
    for (shards, leaf_cap, len) in [
        (1usize, 8, 64),
        (2, 8, 64),
        (7, 8, 64),
        (2, 1, 64),
        (3, 8, 600),
    ] {
        let mut rng = Rng(0xBA7C + shards as u64);
        let map: ShardedMap<u64, u64, Ebr> =
            ShardedMap::with_config(shards, TreeConfig::default().with_leaf_cap(leaf_cap));
        let model: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(shards);
        let mut h = map.handle();
        let mut mh = model.handle();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for round in 0..50 {
            // Small key range → plenty of intra-batch duplicates.
            let cmds: Vec<BatchCmd<u64, u64>> = (0..len)
                .map(|_| {
                    let r = rng.next();
                    let k = r % 48;
                    // The verb comes from other bits than the key (48
                    // is a multiple of 3), so one key sees every verb.
                    match (r >> 32) % 3 {
                        0 => BatchCmd::Insert(k, r),
                        1 => BatchCmd::Remove(k),
                        _ => BatchCmd::Get(k),
                    }
                })
                .collect();
            let expect: Vec<BatchVerdict<u64>> = cmds
                .iter()
                .map(|cmd| match cmd {
                    BatchCmd::Get(k) => match mh.get(k) {
                        Some(v) => BatchVerdict::Found(v),
                        None => BatchVerdict::Missing,
                    },
                    BatchCmd::Insert(k, v) => BatchVerdict::Added(mh.insert(*k, *v)),
                    BatchCmd::Remove(k) => BatchVerdict::Removed(mh.remove(k)),
                })
                .collect();
            h.execute_batch(&cmds, &mut scratch, &mut out);
            assert_eq!(out, expect, "shards={shards} cap={leaf_cap} round={round}");
        }
        drop(h);
        drop(mh);
        // Final states agree too.
        let mut a = Vec::new();
        map.for_each(|k, v| a.push((*k, *v)));
        let mut b = Vec::new();
        model.for_each(|k, v| b.push((*k, *v)));
        assert_eq!(a, b, "shards={shards} cap={leaf_cap}");
    }
}

/// The scatter in isolation: a batch arranged so request order is
/// maximally anti-correlated with shard order still replies in request
/// order, and an empty batch is a no-op that clears stale output.
#[test]
fn execute_batch_scatters_and_handles_empty() {
    use nmbst::{BatchCmd, BatchScratch, BatchVerdict};
    let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(4);
    // One key per shard, ordered so consecutive requests alternate
    // shards (found via the public router).
    let mut per_shard: Vec<Option<u64>> = vec![None; 4];
    let mut k = 0u64;
    while per_shard.iter().any(Option::is_none) {
        let s = map.shard_of(&k);
        if per_shard[s].is_none() {
            per_shard[s] = Some(k);
        }
        k += 1;
    }
    let keys: Vec<u64> = (0..4).rev().filter_map(|s| per_shard[s]).collect();
    let mut h = map.handle();
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let inserts: Vec<BatchCmd<u64, u64>> =
        keys.iter().map(|&k| BatchCmd::Insert(k, k + 7)).collect();
    h.execute_batch(&inserts, &mut scratch, &mut out);
    assert_eq!(out, vec![BatchVerdict::Added(true); 4]);
    let gets: Vec<BatchCmd<u64, u64>> = keys.iter().map(|&k| BatchCmd::Get(k)).collect();
    h.execute_batch(&gets, &mut scratch, &mut out);
    let want: Vec<BatchVerdict<u64>> = keys.iter().map(|&k| BatchVerdict::Found(k + 7)).collect();
    assert_eq!(out, want, "reply i must carry request i's key");
    h.execute_batch(&[], &mut scratch, &mut out);
    assert!(out.is_empty(), "empty batch clears the output");
}

/// A four-shard store of 2^14 keys, inserted in a scattered order so
/// each shard's tree is balanced-ish and a descent takes enough levels
/// for lanes to interleave, and the same contents as a `BTreeMap`.
fn deep_store(leaf_cap: usize) -> (ShardedMap<u64, u64, Ebr>, BTreeMap<u64, u64>) {
    let map = ShardedMap::with_config(4, TreeConfig::default().with_leaf_cap(leaf_cap));
    let mut model = BTreeMap::new();
    for i in 0..1u64 << 14 {
        // An odd multiplier permutes 0..2^15; the other half stays
        // absent, so GETs miss and inserts add.
        let k = i * 40_503 % (1 << 15);
        map.insert(k, k + 1);
        model.insert(k, k + 1);
    }
    (map, model)
}

/// Runs `cmds` as one `execute_batch` call and one at a time against
/// `model`, and asserts the verdicts agree.
fn batch_against_model(
    h: &mut nmbst::ShardedMapHandle<'_, u64, u64, Ebr>,
    model: &mut BTreeMap<u64, u64>,
    cmds: &[nmbst::BatchCmd<u64, u64>],
    what: &str,
) {
    use nmbst::{BatchCmd, BatchScratch, BatchVerdict};
    let expect: Vec<BatchVerdict<u64>> = cmds
        .iter()
        .map(|cmd| match cmd {
            BatchCmd::Get(k) => match model.get(k) {
                Some(&v) => BatchVerdict::Found(v),
                None => BatchVerdict::Missing,
            },
            BatchCmd::Insert(k, v) => BatchVerdict::Added(match model.entry(*k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(*v);
                    true
                }
                std::collections::btree_map::Entry::Occupied(_) => false,
            }),
            BatchCmd::Remove(k) => BatchVerdict::Removed(model.remove(k).is_some()),
        })
        .collect();
    let mut out = Vec::new();
    h.execute_batch(cmds, &mut BatchScratch::new(), &mut out);
    assert_eq!(out, expect, "{what}");
}

/// The final map state equals the model's.
fn assert_same_contents(map: &ShardedMap<u64, u64, Ebr>, model: &BTreeMap<u64, u64>) {
    let mut got = Vec::new();
    map.for_each(|k, v| got.push((*k, *v)));
    got.sort_unstable();
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
}

/// A chunk of `len` commands over the store's key range: `get`% GETs,
/// the rest inserts and removes in equal measure.
fn random_chunk(rng: &mut Rng, len: usize, get: u64) -> Vec<nmbst::BatchCmd<u64, u64>> {
    use nmbst::BatchCmd;
    (0..len)
        .map(|_| {
            let r = rng.next();
            let k = r % (1 << 15);
            match (r >> 32) % 100 {
                p if p < get => BatchCmd::Get(k),
                _ if r >> 63 == 0 => BatchCmd::Insert(k, r >> 40),
                _ => BatchCmd::Remove(k),
            }
        })
        .collect()
}

/// GET lanes and seek lanes share one descent pass: on a deep store,
/// GET-only, write-only and mixed chunks of every size up to a full
/// chunk, chunks of exactly `SEARCH_LANES` ops in every GET/write
/// split (every lane busy at launch), and calls of one command more
/// than the 256-command chunk answer as one-at-a-time execution does
/// and leave the same contents.
#[test]
fn one_pass_batch_chunks_match_model() {
    use nmbst::SEARCH_LANES;
    for leaf_cap in [1, 8] {
        let (map, mut model) = deep_store(leaf_cap);
        let mut h = map.handle();
        let mut rng = Rng(0x0DE5 + leaf_cap as u64);
        for len in 1..=SEARCH_LANES {
            for (get, kind) in [
                (100, "GET-only"),
                (0, "write-only"),
                (90, "mixed"),
                (50, "mixed"),
            ] {
                let cmds = random_chunk(&mut rng, len, get);
                let what = format!("cap={leaf_cap} len={len} {kind}");
                batch_against_model(&mut h, &mut model, &cmds, &what);
            }
        }
        for writes in 0..=SEARCH_LANES {
            let mut cmds = random_chunk(&mut rng, SEARCH_LANES - writes, 100);
            cmds.extend(random_chunk(&mut rng, writes, 0));
            let what = format!("cap={leaf_cap} full chunk, {writes} writes");
            batch_against_model(&mut h, &mut model, &cmds, &what);
        }
        for get in [100, 90, 0] {
            let cmds = random_chunk(&mut rng, 257, get);
            let what = format!("cap={leaf_cap} 257 ops, {get}% GETs");
            batch_against_model(&mut h, &mut model, &cmds, &what);
        }
        drop(h);
        assert_same_contents(&map, &model);
    }
}

/// Same-key GETs in one chunk: a GET after a same-key write waits for
/// Phase 2 (LATE), and a GET after a same-key GET copies its verdict
/// (DUP), while the chunk's other keys descend in lanes beside them.
#[test]
fn one_pass_batch_late_and_dup_gets_match_model() {
    use nmbst::BatchCmd::{Get, Insert, Remove};
    let (map, mut model) = deep_store(8);
    let mut h = map.handle();
    let (hit, miss) = (0, 1 << 15 | 1);
    assert!(model.contains_key(&hit) && !model.contains_key(&miss));
    let cmds = [
        Get(hit),
        Get(hit),
        Get(miss),
        Remove(hit),
        Get(hit),
        Get(hit),
        Insert(miss, 7),
        Get(miss),
        Get(5),
        Get(miss),
        Insert(hit, 9),
        Get(hit),
        Remove(miss),
        Get(miss),
        Get(6),
        Get(5),
    ];
    assert_eq!(cmds.len(), nmbst::SEARCH_LANES);
    batch_against_model(&mut h, &mut model, &cmds, "late and dup GETs");
    // Same keys again, with GETs first in input order but not in key
    // order.
    let cmds = [
        Get(miss),
        Get(hit),
        Get(miss),
        Remove(miss),
        Get(hit),
        Get(miss),
    ];
    batch_against_model(&mut h, &mut model, &cmds, "dup GETs before a write");
    drop(h);
    assert_same_contents(&map, &model);
}
