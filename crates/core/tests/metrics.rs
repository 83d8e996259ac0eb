//! The metrics facade under concurrency: sharded counters must lose
//! nothing (exact sums, not estimates), handle batching must flush on
//! drop, and the exposition formats must carry every counter.

use nmbst::obs::{
    validate_prometheus, MetricsSnapshot, ServeGauges, SlowOp, DEPTH_BUCKETS, POOL_CLASS_LABELS,
    SLOW_EVENTS,
};
use nmbst::{
    BatchCmd, BatchScratch, BatchVerdict, LatencyConfig, NmTreeMap, ShardedMap, TreeConfig,
};
use nmbst_reclaim::{Ebr, Leaky};
use std::sync::Barrier;

/// N threads × M plain-API ops each ⇒ the counter sums are exactly N×M.
/// Relaxed sharded counters may be *observed* mid-flight, but once the
/// threads join nothing may be lost.
#[test]
fn sharded_counters_sum_exactly_across_threads() {
    const THREADS: usize = 8;
    const OPS: u64 = 1_000;
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    let start = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let map = &map;
            let start = &start;
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    let key = t * OPS + i;
                    map.insert(key, key);
                    map.contains(&key);
                    map.remove(&key);
                }
            });
        }
    });

    let m = map.metrics();
    let n = THREADS as u64 * OPS;
    assert_eq!(m.inserts, n, "every insert call counted");
    assert_eq!(m.inserted, n, "disjoint keys: every insert succeeded");
    assert_eq!(m.searches, n);
    assert_eq!(m.removes, n);
    assert_eq!(m.removed, n);
    assert_eq!(m.size_estimate, 0, "inserted == removed");
    assert!(m.max_depth > 0);
    // Every modify op ran at least one descent (contended CAS failures
    // re-seek and record again; searches don't record depth), and the
    // sharded histogram must lose none of them.
    assert!(
        m.depth_hist.iter().sum::<u64>() >= 2 * n,
        "at least one histogram observation per insert and per remove"
    );
    assert!(m.depth_sum > 0);
}

/// The descent-depth histogram is the production-observable form of the
/// fat-leaf win: the same key stream at `leaf_cap = 1` must put its mass
/// in strictly deeper buckets than the default fat-leaf tree.
#[test]
fn depth_histogram_shows_fat_leaf_compression() {
    let mean_depth = |leaf_cap: usize| {
        let map: NmTreeMap<u64, u64, Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(leaf_cap));
        // Shuffled stream (multiplicative hash of 0..1024) so both trees
        // are reasonably balanced rather than spines.
        for i in 0..1024u64 {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            map.insert(k, k);
        }
        let m = map.metrics();
        let observations: u64 = m.depth_hist.iter().sum();
        assert_eq!(observations, 1024, "uncontended: one descent per insert");
        (m.depth_sum as f64 / observations as f64, m.max_depth)
    };
    let (mean_fat, max_fat) = mean_depth(8);
    let (mean_thin, max_thin) = mean_depth(1);
    // The mean is taken over the whole growth stream (early inserts are
    // shallow in both trees), so the steady-state gap is diluted — still,
    // the fat tree must be measurably flatter.
    assert!(
        mean_fat + 0.5 < mean_thin,
        "fat leaves must shorten the mean descent: {mean_fat:.1} vs {mean_thin:.1}"
    );
    assert!(
        max_fat < max_thin,
        "and the max gauge must agree: {max_fat} vs {max_thin}"
    );
}

/// The same exactness through handles: per-handle pending counts are
/// plain (non-atomic) fields, flushed on unpin/repin and on drop.
#[test]
fn handle_batched_counters_flush_on_drop() {
    const THREADS: usize = 4;
    const OPS: u64 = 500;
    let set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
    let start = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let set = &set;
            let start = &start;
            s.spawn(move || {
                let mut h = set.handle();
                start.wait();
                for i in 0..OPS {
                    let key = t * OPS + i;
                    h.insert(key, ());
                    h.contains(&key);
                }
                // `h` drops here: its batched counts must not be lost.
            });
        }
    });

    let m = set.metrics();
    let n = THREADS as u64 * OPS;
    assert_eq!(m.inserts, n);
    assert_eq!(m.inserted, n);
    assert_eq!(m.searches, n);
    assert_eq!(m.size_estimate, n as i64);
}

/// Mid-lifetime visibility: repin flushes, so long-lived handles don't
/// hide their counts until drop.
#[test]
fn handle_repin_publishes_batched_counts() {
    let set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
    let mut h = set.handle();
    for k in 0..10 {
        h.insert(k, ());
    }
    h.repin();
    let m = set.metrics();
    assert_eq!(m.inserts, 10);
    assert_eq!(m.inserted, 10);
    drop(h);
    assert_eq!(set.metrics().inserts, 10, "drop after flush adds nothing");
}

/// Failed modify operations count as attempts but not successes.
#[test]
fn success_counters_track_actual_mutations() {
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    assert!(set.insert(1, ()));
    assert!(!set.insert(1, ()));
    assert!(!set.remove(&2));
    assert!(set.remove(&1));
    let m = set.metrics();
    assert_eq!(m.inserts, 2);
    assert_eq!(m.inserted, 1);
    assert_eq!(m.removes, 2);
    assert_eq!(m.removed, 1);
    assert_eq!(m.size_estimate, 0);
}

/// Both exposition formats name every counter and agree on the values.
#[test]
fn exposition_formats_are_complete_and_consistent() {
    let set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
    for k in 0..5 {
        set.insert(k, ());
    }
    set.remove(&0);
    set.flush();
    let m = set.metrics();

    let json = m.to_json();
    for key in [
        "searches",
        "inserts",
        "inserted",
        "removes",
        "removed",
        "helps",
        "size_estimate",
        "max_depth",
        "reclaim_epoch",
        "reclaim_epoch_lag",
        "reclaim_pinned_threads",
        "reclaim_retired_backlog",
        "depth_hist",
        "depth_sum",
        "batch_lane_ops",
        "batch_reseeks",
        "pool_slots",
        "pool_route_slots",
        "pool_leaf_slots",
        "pool_bytes",
        "pool_classes",
        "lat_cell_bytes",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "json missing {key}");
    }
    assert!(json.contains("\"inserted\":5"));
    assert!(json.contains("\"size_estimate\":4"));
    // The histogram renders as a JSON array with one cell per bucket.
    let hist = json.split("\"depth_hist\":[").nth(1).unwrap();
    let hist = hist.split(']').next().unwrap();
    assert_eq!(hist.split(',').count(), DEPTH_BUCKETS);

    let prom = m.to_prometheus();
    for metric in [
        "nmbst_searches_total",
        "nmbst_inserts_total",
        "nmbst_inserted_total",
        "nmbst_removes_total",
        "nmbst_removed_total",
        "nmbst_helps_total",
        "nmbst_size_estimate",
        "nmbst_max_depth",
        "nmbst_reclaim_epoch",
        "nmbst_reclaim_epoch_lag",
        "nmbst_reclaim_pinned_threads",
        "nmbst_reclaim_retired_backlog",
        "nmbst_batch_lane_ops_total",
        "nmbst_batch_reseeks_total",
        "nmbst_pool_slots",
        "nmbst_pool_route_slots",
        "nmbst_pool_leaf_slots",
        "nmbst_pool_bytes",
        "nmbst_lat_cell_bytes",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {metric} ")),
            "prometheus missing TYPE for {metric}"
        );
        assert!(
            prom.contains(&format!("\n{metric} ")),
            "missing sample for {metric}"
        );
    }
    // The memory waterfall: one labelled series per node class.
    for metric in [
        "nmbst_pool_class_slots",
        "nmbst_pool_class_free",
        "nmbst_pool_class_cached",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {metric} gauge\n")),
            "prometheus missing TYPE for {metric}"
        );
        for class in POOL_CLASS_LABELS {
            assert!(
                prom.contains(&format!("\n{metric}{{class=\"{class}\"}} ")),
                "missing {class} sample for {metric}"
            );
        }
    }
    assert!(prom.contains("nmbst_inserted_total 5\n"));
    assert!(prom.contains("nmbst_size_estimate 4\n"));

    // The depth histogram uses the Prometheus histogram convention:
    // cumulative le-buckets, +Inf, _sum, and _count.
    assert!(prom.contains("# TYPE nmbst_descent_depth histogram"));
    for needle in [
        "nmbst_descent_depth_bucket{le=\"1\"} ",
        "nmbst_descent_depth_bucket{le=\"3\"} ",
        "nmbst_descent_depth_bucket{le=\"+Inf\"} ",
        "nmbst_descent_depth_sum ",
        "nmbst_descent_depth_count ",
    ] {
        assert!(prom.contains(needle), "prometheus missing {needle}");
    }
    // 6 modify ops ⇒ count 6, and +Inf agrees with _count.
    assert!(prom.contains("nmbst_descent_depth_bucket{le=\"+Inf\"} 6\n"));
    assert!(prom.contains("nmbst_descent_depth_count 6\n"));

    // Latency histograms ride along in both formats (empty but present
    // when recording is disabled — the snapshot fields are
    // unconditional).
    assert!(json.contains("\"latency\":{\"get\":{\"count\":"), "{json}");
    assert!(json.contains("\"slow_ops\":"), "{json}");
    assert!(prom.contains("# TYPE nmbst_op_latency_ns histogram"));
    for op in ["get", "insert", "remove", "batch", "range"] {
        assert!(
            prom.contains(&format!("nmbst_op_latency_ns_count{{op=\"{op}\"}} ")),
            "prometheus missing latency series for {op}"
        );
    }
    assert!(prom.contains("nmbst_slow_ops_captured "));

    // The real exposition output must pass the strict in-tree validator
    // — the same check the server's scrape tests apply end to end.
    validate_prometheus(&prom)
        .unwrap_or_else(|e| panic!("to_prometheus fails its own validator: {e}\n{prom}"));

    // Snapshots are plain clonable values (histograms make them too big
    // to be `Copy`); Display goes through and the default snapshot is
    // all zeros.
    assert!(!m.clone().to_string().is_empty());
    assert_eq!(MetricsSnapshot::default().inserted, 0);
}

/// `merge` edge cases: the default snapshot is a two-sided identity,
/// and merging two live snapshots adds every counter and histogram cell
/// exactly while max-gauges take the max.
#[test]
fn snapshot_merge_identity_and_exactness() {
    let mut empty = MetricsSnapshot::default();
    empty.merge(&MetricsSnapshot::default());
    assert_eq!(empty, MetricsSnapshot::default(), "empty ⊕ empty = empty");

    // Latency disabled so the snapshots carry no timing-dependent state
    // (slow_ops order is ns-sorted, which would not be identity-stable).
    let quiet = TreeConfig::default().with_latency(LatencyConfig::disabled());
    let set: NmTreeMap<u64, (), Ebr> = NmTreeMap::with_config(quiet);
    for k in 0..32 {
        set.insert(k, ());
    }
    set.remove(&0);
    set.flush();
    let a = set.metrics();
    assert!(a.inserts > 0);

    let mut left = a.clone();
    left.merge(&MetricsSnapshot::default());
    assert_eq!(left, a, "nonempty ⊕ empty = nonempty");
    let mut right = MetricsSnapshot::default();
    right.merge(&a);
    assert_eq!(right, a, "empty ⊕ nonempty = nonempty");

    // A second tree with thin leaves: same keys, deeper descents.
    let deep: NmTreeMap<u64, (), Ebr> = NmTreeMap::with_config(
        TreeConfig::default()
            .with_leaf_cap(1)
            .with_latency(LatencyConfig::disabled()),
    );
    for k in 0..256 {
        deep.insert(k, ());
    }
    deep.flush();
    let b = deep.metrics();
    assert!(b.max_depth > a.max_depth, "thin leaves descend deeper");

    let mut m = a.clone();
    m.merge(&b);
    assert_eq!(m.searches, a.searches + b.searches);
    assert_eq!(m.inserts, a.inserts + b.inserts);
    assert_eq!(m.inserted, a.inserted + b.inserted);
    assert_eq!(m.removes, a.removes + b.removes);
    assert_eq!(m.removed, a.removed + b.removed);
    assert_eq!(m.size_estimate, a.size_estimate + b.size_estimate);
    assert_eq!(m.depth_sum, a.depth_sum + b.depth_sum, "depth_sum adds");
    assert_eq!(m.max_depth, a.max_depth.max(b.max_depth), "max_depth maxes");
    for (i, cell) in m.depth_hist.iter().enumerate() {
        assert_eq!(
            *cell,
            a.depth_hist[i] + b.depth_hist[i],
            "depth_hist[{i}] adds cellwise"
        );
    }
}

/// The serving-tier gauges ride the same snapshot: zero-defaulted (so a
/// bare tree's snapshot is unchanged and the merge identity holds),
/// summed cell-by-cell on merge (workers own disjoint connections), and
/// present in both exposition formats — with the backpressure counter
/// named `*_total` so the strict validator accepts it.
#[test]
fn serve_gauges_merge_and_expose() {
    // Defaults are all-zero, so a tree snapshot (which never sets them)
    // keeps the identity property the previous test established.
    assert_eq!(ServeGauges::default().open_connections, 0);
    assert_eq!(MetricsSnapshot::default().serve, ServeGauges::default());

    let a = MetricsSnapshot {
        serve: ServeGauges {
            open_connections: 3,
            read_paused_connections: 1,
            write_buffered_bytes: 4096,
            backpressure_events: 7,
        },
        ..MetricsSnapshot::default()
    };
    let b = MetricsSnapshot {
        serve: ServeGauges {
            open_connections: 5,
            read_paused_connections: 0,
            write_buffered_bytes: 100,
            backpressure_events: 2,
        },
        ..MetricsSnapshot::default()
    };

    // Identity on both sides.
    let mut left = a.clone();
    left.merge(&MetricsSnapshot::default());
    assert_eq!(left, a, "serve ⊕ empty = serve");
    let mut right = MetricsSnapshot::default();
    right.merge(&a);
    assert_eq!(right, a, "empty ⊕ serve = serve");

    // Exact sums across workers.
    let mut m = a.clone();
    m.merge(&b);
    assert_eq!(m.serve.open_connections, 8);
    assert_eq!(m.serve.read_paused_connections, 1);
    assert_eq!(m.serve.write_buffered_bytes, 4196);
    assert_eq!(m.serve.backpressure_events, 9);

    // Both exposition formats carry the gauges with the merged values.
    let json = m.to_json();
    assert!(json.contains("\"open_connections\":8"), "{json}");
    assert!(json.contains("\"read_paused_connections\":1"), "{json}");
    assert!(json.contains("\"write_buffered_bytes\":4196"), "{json}");
    assert!(json.contains("\"backpressure_events\":9"), "{json}");

    let prom = m.to_prometheus();
    assert!(prom.contains("nmbst_serve_open_connections 8\n"));
    assert!(prom.contains("nmbst_serve_read_paused_connections 1\n"));
    assert!(prom.contains("nmbst_serve_write_buffered_bytes 4196\n"));
    assert!(prom.contains("nmbst_serve_backpressure_events_total 9\n"));
    assert!(prom.contains("# TYPE nmbst_serve_open_connections gauge"));
    assert!(prom.contains("# TYPE nmbst_serve_backpressure_events_total counter"));
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("serve gauges break the validator: {e}"));
}

/// The slots the bump cursor handed out ride every exposition format and
/// add on merge, and a live tree's slot count covers every node it
/// allocated.
#[test]
fn arena_slots_are_exported() {
    // leaf_cap = 1: every insert into a non-empty tree allocates exactly
    // two nodes (Table 1), all fresh from the bump cursor.
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    let before = set.metrics().pool.slots;
    for k in 1..=100 {
        set.insert(k, ());
    }
    assert_eq!(set.metrics().pool.slots, before + 200, "2 slots per insert");

    let pool = |len, slots| MetricsSnapshot {
        pool: nmbst::PoolStats {
            len,
            slots,
            ..Default::default()
        },
        ..MetricsSnapshot::default()
    };
    let mut m = pool(3, 10);
    m.merge(&pool(4, 20));
    assert_eq!((m.pool.len, m.pool.slots), (7, 30), "both add on merge");
    let json = m.to_json();
    assert!(json.contains("\"pool_len\":7,\"pool_slots\":30"), "{json}");
    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE nmbst_pool_len gauge\nnmbst_pool_len 7\n"));
    assert!(prom.contains("# TYPE nmbst_pool_slots gauge\nnmbst_pool_slots 30\n"));
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("pool gauges break the validator: {e}"));
    assert!(m.to_string().contains("pool_len=7 pool_slots=30"));
}

/// The two node arenas are visible apart: route and leaf slot counts and
/// the committed slot bytes ride every exposition format and add on
/// merge, while `pool` stays the sum over all arenas.
#[test]
fn per_class_arena_gauges_are_exported() {
    // leaf_cap = 1: every insert into a non-empty tree allocates one
    // route and one leaf (Table 1), both fresh from the bump cursors.
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    let empty = set.metrics();
    // The sentinel scaffolding: two routes (R, S), three leaves.
    assert_eq!((empty.pool_route_slots, empty.pool_leaf_slots), (2, 3));
    for k in 1..=100 {
        set.insert(k, ());
    }
    let m = set.metrics();
    assert_eq!(
        m.pool_route_slots,
        empty.pool_route_slots + 100,
        "one route per insert"
    );
    assert_eq!(
        m.pool_leaf_slots,
        empty.pool_leaf_slots + 100,
        "one leaf per insert"
    );
    assert_eq!(
        m.pool.slots,
        m.pool_route_slots + m.pool_leaf_slots,
        "pool is the sum"
    );
    // A route of a u64 set is 32 bytes; its one-key leaf sits in the
    // smallest size class (four keys, no values): 40.
    assert_eq!(
        m.pool_bytes,
        m.pool_route_slots * 32 + m.pool_leaf_slots * 40
    );

    let arenas = |routes, leaves, bytes| MetricsSnapshot {
        pool_route_slots: routes,
        pool_leaf_slots: leaves,
        pool_bytes: bytes,
        ..MetricsSnapshot::default()
    };
    let mut m = arenas(3, 5, 100);
    m.merge(&arenas(4, 6, 200));
    assert_eq!(
        (m.pool_route_slots, m.pool_leaf_slots, m.pool_bytes),
        (7, 11, 300),
        "all three add on merge"
    );
    let json = m.to_json();
    assert!(
        json.contains("\"pool_route_slots\":7,\"pool_leaf_slots\":11,\"pool_bytes\":300"),
        "{json}"
    );
    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE nmbst_pool_route_slots gauge\nnmbst_pool_route_slots 7\n"));
    assert!(prom.contains("# TYPE nmbst_pool_leaf_slots gauge\nnmbst_pool_leaf_slots 11\n"));
    assert!(prom.contains("# TYPE nmbst_pool_bytes gauge\nnmbst_pool_bytes 300\n"));
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("arena gauges break the validator: {e}"));
    assert!(m
        .to_string()
        .contains("pool_route_slots=7 pool_leaf_slots=11 pool_bytes=300"));
}

/// The memory waterfall: each node class's slots, free list and
/// cached slots, and the committed latency-cell bytes, ride every
/// exposition format and add on merge.
#[test]
fn memory_waterfall_is_exported_per_class() {
    // leaf_cap = 1 under Leaky: every insert bumps one route and one
    // class-4 leaf, and nothing is ever freed.
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in 1..=100 {
        set.insert(k, ());
    }
    let m = set.metrics();
    assert_eq!(m.pool_classes.map(|c| c.slots), [102, 103, 0, 0]);
    assert_eq!(m.pool_classes.map(|c| c.len), [0; 4]);
    assert_eq!(m.pool_classes.map(|c| c.cached), [0; 4], "no handle");
    assert_eq!(m.pool_route_slots, m.pool_classes[0].slots);

    let waterfall = |slots: u64, free: u64, cached: u64, cells: u64| {
        let mut m = MetricsSnapshot {
            lat_cell_bytes: cells,
            ..MetricsSnapshot::default()
        };
        for (i, class) in m.pool_classes.iter_mut().enumerate() {
            let i = i as u64;
            (class.slots, class.len, class.cached) = (slots + i, free + i, cached + i);
        }
        m
    };
    let mut m = waterfall(10, 3, 1, 4_608);
    m.merge(&waterfall(20, 4, 2, 9_216));
    assert_eq!(m.pool_classes.map(|c| c.slots), [30, 32, 34, 36]);
    assert_eq!(m.pool_classes.map(|c| c.len), [7, 9, 11, 13]);
    assert_eq!(m.pool_classes.map(|c| c.cached), [3, 5, 7, 9]);
    assert_eq!(m.lat_cell_bytes, 13_824, "cell bytes add on merge");
    let json = m.to_json();
    assert!(
        json.contains(concat!(
            "\"pool_classes\":{\"route\":{\"slots\":30,\"free\":7,\"cached\":3},",
            "\"leaf4\":{\"slots\":32,\"free\":9,\"cached\":5},",
            "\"leaf6\":{\"slots\":34,\"free\":11,\"cached\":7},",
            "\"leaf8\":{\"slots\":36,\"free\":13,\"cached\":9}},",
            "\"lat_cell_bytes\":13824"
        )),
        "{json}"
    );
    let prom = m.to_prometheus();
    for needle in [
        "nmbst_pool_class_slots{class=\"route\"} 30\n",
        "nmbst_pool_class_slots{class=\"leaf8\"} 36\n",
        "nmbst_pool_class_free{class=\"leaf4\"} 9\n",
        "nmbst_pool_class_cached{class=\"leaf6\"} 7\n",
        "# TYPE nmbst_lat_cell_bytes gauge\nnmbst_lat_cell_bytes 13824\n",
    ] {
        assert!(prom.contains(needle), "prometheus missing {needle}");
    }
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("waterfall breaks the validator: {e}"));
    assert!(m
        .to_string()
        .contains("class_slots=[30, 32, 34, 36] class_free=[7, 9, 11, 13]"));
}

/// Reads record no descent depth, so `depth_sum / modify ops` is a true
/// mean: a read-only batch leaves the depth sum and histogram alone.
#[test]
fn read_only_batch_leaves_the_depth_sum_alone() {
    let set: NmTreeMap<u64, (), Ebr> = NmTreeMap::from_sorted_iter((0..4096).map(|k| (k * 2, ())));
    let before = set.metrics();
    let mut h = set.handle();
    for start in (0..4096).step_by(512) {
        h.get_batch((start..start + 64).map(|k| k * 2 + 1));
    }
    drop(h);
    let after = set.metrics();
    assert_eq!(after.depth_sum, before.depth_sum, "no modify descent ran");
    assert_eq!(after.depth_hist, before.depth_hist);
    assert_eq!(after.searches - before.searches, 8 * 64);
    let prom = after.to_prometheus();
    assert!(prom.contains(&format!("nmbst_descent_depth_sum {}\n", after.depth_sum)));
}

/// `execute_batch` counts its Phase-1 lane descents and its Phase-2
/// stale re-seeks; both reach JSON, Prometheus (which the in-tree
/// validator accepts), `Display`, and add on merge. A write's descent
/// is a modify seek and sums into `depth_sum`; a lane GET does not.
#[test]
fn batch_lane_and_reseek_counters_are_exported() {
    let map: ShardedMap<u64, u64, Ebr> =
        ShardedMap::with_config(2, TreeConfig::default().with_leaf_cap(1));
    let mut h = map.handle();
    for k in (0..64).step_by(2) {
        h.insert(k, k);
    }
    h.flush_stats();
    let before = map.metrics();
    // 8 lane GETs and 4 lane writes. The GET of 101 follows a same-key
    // write, so it waits for Phase 2; the two extra GETs of 2 follow a
    // same-key GET and copy its verdict; none of the three takes a
    // lane. The remove of 101 acts after the insert of 101 replaced its
    // leaf edge, so its record is stale.
    let mut cmds: Vec<BatchCmd<u64, u64>> = (0..8).map(|k| BatchCmd::Get(k * 2)).collect();
    cmds.extend([
        BatchCmd::Insert(101, 1),
        BatchCmd::Remove(101),
        BatchCmd::Get(101),
        BatchCmd::Insert(103, 3),
        BatchCmd::Remove(4),
        BatchCmd::Get(2),
        BatchCmd::Get(2),
    ]);
    let mut out = Vec::new();
    h.execute_batch(&cmds, &mut BatchScratch::new(), &mut out);
    assert_eq!(out[1], BatchVerdict::Found(2));
    assert_eq!(out[13..], [BatchVerdict::Found(2), BatchVerdict::Found(2)]);
    assert_eq!(
        out[2],
        BatchVerdict::Found(4),
        "read before the remove of 4"
    );
    h.flush_stats();
    let after = map.metrics();
    assert_eq!(after.batch_lane_ops - before.batch_lane_ops, 12);
    assert!(after.batch_reseeks > before.batch_reseeks);
    assert_eq!(after.searches - before.searches, 11);
    assert!(
        after.depth_sum > before.depth_sum,
        "write lanes are modify seeks"
    );

    let json = after.to_json();
    assert!(json.contains(&format!(
        "\"batch_lane_ops\":{},\"batch_reseeks\":{}",
        after.batch_lane_ops, after.batch_reseeks
    )));
    let prom = after.to_prometheus();
    assert!(prom.contains(&format!(
        "# TYPE nmbst_batch_lane_ops_total counter\nnmbst_batch_lane_ops_total {}\n",
        after.batch_lane_ops
    )));
    assert!(prom.contains(&format!(
        "# TYPE nmbst_batch_reseeks_total counter\nnmbst_batch_reseeks_total {}\n",
        after.batch_reseeks
    )));
    validate_prometheus(&prom)
        .unwrap_or_else(|e| panic!("batch counters break the validator: {e}"));
    assert!(after.to_string().contains(&format!(
        "batch_lane_ops={} batch_reseeks={}",
        after.batch_lane_ops, after.batch_reseeks
    )));
    let mut merged = after.clone();
    merged.merge(&after);
    assert_eq!(merged.batch_lane_ops, 2 * after.batch_lane_ops);
    assert_eq!(merged.batch_reseeks, 2 * after.batch_reseeks);
}

/// With `sample_shift = 0` every point op is timed, so the per-op-type
/// latency histograms count calls exactly — and merging two snapshots
/// preserves counts and nanosecond sums to the bit.
#[test]
fn latency_histograms_count_exactly_and_merge_exactly() {
    let always = TreeConfig::default().with_latency(LatencyConfig::default().with_sample_shift(0));
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::with_config(always);
    for k in 0..10 {
        map.insert(k, k);
    }
    for k in 0..5 {
        map.contains(&k);
    }
    map.remove(&0);
    let mut range_hits = 0;
    map.range_for_each(2..=4, |_, _| range_hits += 1);
    assert_eq!(range_hits, 3);
    let a = map.metrics();
    assert_eq!(a.latency.insert.len(), 10, "every insert timed");
    assert_eq!(a.latency.get.len(), 5, "every contains timed");
    assert_eq!(a.latency.remove.len(), 1);
    assert_eq!(a.latency.range.len(), 1, "range timed per call");
    assert!(a.latency.insert.sum() > 0, "real durations recorded");

    // Handle ops buffer latency samples; drop flushes them, and batch
    // calls are one sample per call regardless of key count.
    let map2: NmTreeMap<u64, u64, Ebr> = NmTreeMap::with_config(always);
    {
        let mut h = map2.handle();
        for k in 0..7 {
            h.insert(k, k);
        }
        h.insert_batch((10..20).map(|k| (k, k)));
        let hits = h.get_batch(0..4u64);
        assert_eq!(hits.iter().filter(|v| v.is_some()).count(), 4);
    }
    let b = map2.metrics();
    assert_eq!(b.latency.insert.len(), 7, "handle inserts flushed on drop");
    assert_eq!(b.latency.batch.len(), 2, "one sample per batch call");

    let mut m = a.clone();
    m.merge(&b);
    assert_eq!(m.latency.insert.len(), 17, "merge adds counts exactly");
    assert_eq!(
        m.latency.insert.sum(),
        a.latency.insert.sum() + b.latency.insert.sum(),
        "merge adds nanosecond sums exactly"
    );
    assert_eq!(
        m.latency.insert.max(),
        a.latency.insert.max().max(b.latency.insert.max())
    );
    assert_eq!(m.latency.len(), a.latency.len() + b.latency.len());

    // Disabled recording stays empty even though the fields exist.
    let off: NmTreeMap<u64, u64, Ebr> =
        NmTreeMap::with_config(TreeConfig::default().with_latency(LatencyConfig::disabled()));
    off.insert(1, 1);
    off.contains(&1);
    assert!(off.metrics().latency.is_empty());
}

/// `LatencyConfig::disabled()` is the one off switch, and it holds on
/// every timer entry point even with every op sampled and a 1 ns
/// slow-op threshold: plain and handle point ops, the per-call batch
/// and range timers, and a sharded `execute_batch` record nothing.
#[test]
fn disabled_latency_records_nothing_on_any_timer_path() {
    let off = TreeConfig::default().with_latency(
        LatencyConfig::disabled()
            .with_sample_shift(0)
            .with_slow_op_ns(1),
    );
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::with_config(off);
    map.insert(1, 1);
    map.insert(2, 2);
    assert_eq!(map.get(&1), Some(1));
    assert!(map.remove(&2));
    let mut visited = 0;
    map.range_for_each(.., |_, _| visited += 1);
    assert_eq!(visited, 1);
    {
        let mut h = map.handle();
        assert!(h.insert(3, 3));
        assert!(h.contains(&3));
        assert_eq!(h.get(&1), Some(1));
        assert!(h.remove(&3));
        assert_eq!(h.insert_batch((10..20).map(|k| (k, k))), 10);
        let mut out = Vec::new();
        h.get_many(&[1, 10, 99], &mut out);
        assert_eq!(out, vec![Some(1), Some(10), None]);
        assert_eq!(h.remove_batch(10..20), 10);
    }
    let m = map.metrics();
    assert!(m.latency.is_empty(), "{:?}", m.latency);
    assert!(m.slow_ops.is_empty(), "{:?}", m.slow_ops);

    let sharded: ShardedMap<u64, u64, Ebr> = ShardedMap::with_config(2, off);
    {
        let mut h = sharded.handle();
        let cmds = [
            BatchCmd::Insert(1, 1),
            BatchCmd::Get(1),
            BatchCmd::Insert(2, 2),
            BatchCmd::Remove(1),
        ];
        let mut out = Vec::new();
        h.execute_batch(&cmds, &mut BatchScratch::new(), &mut out);
        assert_eq!(out[1], BatchVerdict::Found(1));
    }
    sharded.range_for_each(.., |_, _| {});
    let m = sharded.metrics();
    assert!(m.latency.is_empty(), "{:?}", m.latency);
    assert!(m.slow_ops.is_empty(), "{:?}", m.slow_ops);
}

/// Reclamation gauges surface through the tree-level snapshot: a pinned
/// guard shows up, and flushing drains the backlog.
#[test]
fn reclaim_gauges_flow_through_tree_metrics() {
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    for k in 0..64 {
        map.insert(k, k);
    }
    for k in 0..64 {
        map.remove(&k);
    }
    // 64 removed leaves (plus internals) retired on this thread; before
    // any flush some backlog must be visible somewhere (local bags or
    // sealed pending bags).
    let m = map.metrics();
    assert!(
        m.reclaim.retired_backlog > 0,
        "retired nodes must be visible in the backlog gauge (got {m:?})"
    );

    // Handles pin lazily: the guard appears on the first operation and
    // stays held until repin/unpin/drop.
    let mut held = map.handle();
    held.contains(&0);
    let m = map.metrics();
    assert!(
        m.reclaim.pinned_threads >= 1,
        "a handle that has operated holds a pin (got {:?})",
        m.reclaim
    );
    drop(held);
}

/// The flush_stats bugfix: a long-lived handle whose re-pin budget is
/// never exhausted used to be invisible to `metrics()` until it was
/// dropped — the batched counts only flushed on repin/unpin/drop. An
/// explicit `flush_stats` must publish them immediately, without
/// disturbing the guard.
#[test]
fn flush_stats_publishes_counts_from_live_handle() {
    let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
    // A budget far larger than the op count: this handle never re-pins
    // after its first op, so nothing flushes organically.
    let mut h = map.handle().with_repin_every(1_000_000);
    for k in 0..100 {
        h.insert(k, k);
    }
    for k in 0..50 {
        h.contains(&k);
    }
    // The bug: a snapshot taken now used to show none of the 150 ops.
    h.flush_stats();
    let m = map.metrics();
    assert_eq!(m.inserts, 100, "inserts visible after flush_stats");
    assert_eq!(m.inserted, 100);
    assert_eq!(m.searches, 50, "searches visible after flush_stats");
    assert_eq!(m.size_estimate, 100);

    // flush_stats must not invalidate the handle: it keeps operating,
    // and a second flush publishes only the delta.
    for k in 100..120 {
        h.insert(k, k);
    }
    h.flush_stats();
    assert_eq!(map.metrics().inserted, 120);
    drop(h);
    // Drop after an explicit flush must not double-count.
    assert_eq!(map.metrics().inserted, 120);
}

/// A snapshot in which every exposed scalar holds its own distinct,
/// non-zero value, every node class and every latency class is
/// populated, and `slow_ops` is non-empty: the input of the exposition
/// goldens. `seed` varies the values so that two snapshots differ in
/// every field, and in both directions, which pins each row's merge
/// rule (sum, max or min) in the merged golden.
fn populated(seed: u64) -> MetricsSnapshot {
    let mut state = seed;
    // Field `i` draws from its own band of a thousand, so no two fields
    // collide, while the low digits (a SplitMix64 step) decide which of
    // two snapshots holds the larger value.
    let mut band = 0u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        band += 1;
        band * 1000 + (z ^ (z >> 31)) % 997 + 1
    };
    let mut m = MetricsSnapshot {
        searches: next(),
        inserts: next(),
        inserted: next(),
        removes: next(),
        removed: next(),
        helps: next(),
        finger_hits: next(),
        finger_misses: next(),
        batch_lane_ops: next(),
        batch_reseeks: next(),
        size_estimate: next() as i64 - 500_000,
        max_depth: next(),
        depth_sum: next(),
        lat_cell_bytes: next(),
        pool_route_slots: next(),
        pool_leaf_slots: next(),
        pool_bytes: next(),
        ..MetricsSnapshot::default()
    };
    for cell in m.depth_hist.iter_mut() {
        *cell = next();
    }
    m.reclaim = nmbst_reclaim::ReclaimGauges {
        epoch: next(),
        epoch_lag: next(),
        pinned_threads: next(),
        retired_backlog: next(),
    };
    m.pool = nmbst::PoolStats {
        hits: next(),
        misses: next(),
        recycled: next(),
        slots: next(),
        len: next(),
        cached: next(),
    };
    for class in m.pool_classes.iter_mut() {
        (class.hits, class.misses, class.recycled) = (next(), next(), next());
        (class.slots, class.len, class.cached) = (next(), next(), next());
    }
    m.serve = ServeGauges {
        open_connections: next(),
        read_paused_connections: next(),
        write_buffered_bytes: next(),
        backpressure_events: next(),
    };
    let latency = &mut m.latency;
    for hist in [
        &mut latency.get,
        &mut latency.insert,
        &mut latency.remove,
        &mut latency.batch,
        &mut latency.range,
    ] {
        for _ in 0..4 {
            hist.record(next());
        }
    }
    m.slow_ops = (0..3)
        .map(|i| SlowOp {
            kind: i,
            origin: 0,
            n_events: 0,
            key: next(),
            ns: next(),
            events: [0; SLOW_EVENTS],
        })
        .collect();
    m.reclaim_epoch_min = Some(next());
    m
}

/// Compares exposition output with a committed golden byte for byte,
/// naming the first line that differs.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{name} differs from its golden at line {}:\n  actual: {:?}\n  golden: {:?}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line),
    );
}

/// The exposition of a fully populated snapshot is pinned byte for
/// byte: every name, key, help text, label, value and their order.
#[test]
fn exposition_golden_of_a_populated_snapshot() {
    let m = populated(1);
    assert_golden(
        &m.to_json(),
        include_str!("golden/snapshot.json"),
        "snapshot JSON",
    );
    let prom = m.to_prometheus();
    assert_golden(
        &prom,
        include_str!("golden/snapshot.prom"),
        "snapshot Prometheus",
    );
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("golden snapshot: {e}"));
}

/// Merging two populated snapshots whose every field differs, in both
/// directions, pins each row's merge rule through the exposition.
#[test]
fn exposition_golden_of_a_merged_pair() {
    let mut m = populated(1);
    m.merge(&populated(2));
    assert_golden(
        &m.to_json(),
        include_str!("golden/merged.json"),
        "merged JSON",
    );
    let prom = m.to_prometheus();
    assert_golden(
        &prom,
        include_str!("golden/merged.prom"),
        "merged Prometheus",
    );
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("golden merge: {e}"));
}
