//! The hot-path perf harness: machine-readable before/after cells for
//! the PR 2 optimizations, the PR 4 node-recycling pool, the PR 5
//! locality work (bulk-load + finger-anchored batches), the PR 6
//! sharded serving tier, the PR 7 fat-leaf blocks, the PR 8
//! latency-observability layer, the PR 9 reactor serving model, and
//! the PR 10 shard-fused batch execution, written as
//! `BENCH_PR10.json` (override the path with `NMBST_BENCH_JSON`).
//!
//! Thirteen benches, each emitting `{bench, config, metrics}` cells in
//! the `nmbst-bench-v1` schema shared with criterion-lite:
//!
//! * `single_thread_throughput` — one thread, read-heavy / mixed /
//!   write-heavy mixes, plain per-op-pin API vs a pin-amortizing
//!   handle.
//! * `contended_throughput` — several threads hammering a small key
//!   range (write-heavy), root-restart vs local-restart retry policy,
//!   with the seek/local-restart counters captured per cell.
//! * `latency` — single-thread mixed-workload per-op latency
//!   percentiles, per-op-pin vs handle.
//! * `table1_exact` — the paper's Table-1 exact counts (insert: 2
//!   allocs / 1 CAS; delete: 0 allocs / 3 atomics), measured through
//!   both the plain API and a handle. **The process exits non-zero if
//!   any exact count regresses**, which is the CI perf-smoke gate.
//! * `pool_ablation` — the PR 4 one-flag A/B: the insert-heavy
//!   (write-dominated) handle cell with the node pool on vs off, plus
//!   mixed-workload cells, each embedding its obs snapshot so
//!   `pool_hits` / `pool_recycled` are committed next to the
//!   throughput they bought. **The process exits non-zero if pool-on
//!   trails pool-off by more than `NMBST_POOL_TOLERANCE`** (default
//!   0.10; CI uses a looser bound for jittery shared runners), or if
//!   the mixed pool-on cell somehow recorded zero pool hits.
//! * `leaf_ablation` — the PR 7 one-flag A/B: read-dominated and mixed
//!   handle cells at `leaf_cap = 1` (every leaf a single key — the
//!   PR 6 shape, on the new arena) vs the default fat-leaf capacity.
//!   Each cell embeds its obs snapshot, so the committed file carries
//!   the attribution: the thin tree's `max_depth`/`depth_hist` must
//!   reproduce the old deep shape while the fat tree's is measurably
//!   flatter. **The process exits non-zero if the fat read-dominated
//!   cell trails the thin one by more than `NMBST_LEAF_TOLERANCE`**
//!   (relative, default 0.05 — the fat leaves exist to *win* this
//!   cell), **or if the thin tree's max depth is not strictly deeper**
//!   (the ablation stopped reproducing the pre-PR 7 shape, so the cell
//!   no longer attributes the win to leaf compaction).
//! * `bulk_load` — the PR 5 O(n) balanced build:
//!   `NmTreeSet::from_sorted_iter` over `NMBST_BULK_KEYS` keys (default
//!   100 000) vs handle loop-inserting the same keys in *shuffled*
//!   order (the honest baseline — sorted loop-insert degenerates to an
//!   O(n²) spine and would flatter the bulk path). **The process exits
//!   non-zero if the bulk build is not at least
//!   `NMBST_BULK_MIN_SPEEDUP`× faster** (default 2.0).
//! * `sorted_batch` — the PR 5 finger-anchored batch descent: identical
//!   Zipf-clustered ascending key runs (length `NMBST_BATCH_LEN`,
//!   default 32) driven through the handle batch entry points vs the
//!   same handle one key at a time. **The process exits non-zero if
//!   the batched cell trails singles by more than
//!   `NMBST_BATCH_TOLERANCE`** (relative, default 0.05), **or if it
//!   recorded zero `finger_hits`** — a dead finger means the anchor
//!   gate is rejecting everything and the batch API has silently
//!   degraded to root descents.
//! * `serving_replay` — the PR 6 serving tier end to end: an
//!   `nmbst-server` over a sharded store on loopback, driven by the
//!   open-loop session replay in `nmbst-harness` (Zipf hot keys,
//!   `NMBST_SESSIONS` simulated sessions, default 1 000 000). A
//!   calibration pass at infinite arrival rate measures peak capacity,
//!   then the measured runs replay at `NMBST_SERVE_UTIL` (default 0.7)
//!   of that rate so p50/p99/p999 session latency reflects queueing
//!   under a sustainable load, not time-to-drain. Median of three by
//!   p999. **The process exits non-zero if any worker recorded zero
//!   ops through its pinned handles** (worker/shard pinning broken),
//!   **or if peak capacity trails the committed baseline cell by more
//!   than `NMBST_SERVE_TOLERANCE`** (default 0.25 — loopback serving
//!   on shared runners jitters far more than in-process cells).
//!   The PR 8 agreement gate rides on the paced median run: the
//!   client-observed per-bundle round-trip histogram and the server's
//!   per-frame BATCH wire histogram time the *same frame population
//!   with the same bucketing*, so their counts must match exactly and
//!   the server-reported p99 must sit inside the client-observed p99
//!   plus two-sided bucket error (`NMBST_AGREE_TOLERANCE`, default
//!   0.15 ≈ 2 × 6.7%); the client p99 in turn must not exceed the
//!   server p99 by more than `NMBST_AGREE_FACTOR` (default 100 — a
//!   unit-mismatch tripwire, since loopback syscall overhead
//!   legitimately dominates sub-10µs frames).
//! * `obs_overhead` — the PR 8 one-flag A/B: the mixed and
//!   read-dominated handle cells with latency recording at its default
//!   sampling (`sample_shift = 6`, 1-in-64 point ops) vs
//!   `LatencyConfig::disabled()`, run as 5 adjacent off/on pairs and
//!   gated on the **median of the per-pair on/off ratios**. Adjacent
//!   runs share machine state, so each pair's ratio cancels slow
//!   drift, and the median rejects the occasional pair hit by a
//!   one-sided interference spike (observed spikes of 7–20% dwarf the
//!   ~0–1% true cost). **The process exits non-zero if the median
//!   ratio trails 1.0 by more than `NMBST_OBS_TOLERANCE`**
//!   (relative, default 0.03 — the issue's ≤3% observability budget,
//!   now enforced rather than asserted).
//! * `serving_churn` — the PR 9 connection-churn cell: the same
//!   open-loop replay, but every client redials a fresh connection
//!   every `sessions_per_conn` sessions through the pipelined client,
//!   with concurrent connections ≥ 8× the worker count (16 conns / 2
//!   workers) — the shape the pre-reactor one-connection-per-worker
//!   server provably could not serve without backlog collapse.
//!   Calibrated then paced at `NMBST_SERVE_UTIL`, median of three by
//!   p999. **The process exits non-zero if any worker routed zero
//!   ops**, **if the run did not actually churn** (connections opened
//!   must exceed the concurrent fleet), **if any connection is stuck
//!   open after the replay drains**, or **if the paced run overran its
//!   own schedule by more than `NMBST_CHURN_SLACK`** (relative,
//!   default 1.0 — a collapsed server drains at capacity, not at the
//!   offered rate, and blows straight through the slack).
//! * `pipelining` — the PR 9 client A/B: one client, the same seeded
//!   uniform GET stream, blocking one-at-a-time vs pipelined with a
//!   bounded in-flight window, run as interleaved pairs and compared
//!   on median Mops/s. **The process exits non-zero if the pipelined
//!   arm is not at least `NMBST_PIPELINE_MIN_SPEEDUP`× the blocking
//!   arm** (default 2.0 — the win is one RTT per window instead of
//!   one per request; if it can't clear 2× over loopback the window
//!   is not actually in flight).
//! * `serving_batch_fusion` — drain-rate replays of the BATCH shape
//!   shard fusion targets (frames partitioned by shard, sorted, and
//!   executed through `execute_batch`, so wire batches inherit the
//!   finger-anchored descent), median Mops/s of three: high-occupancy
//!   frames (the replay's `coalesce`/`coalesce_ops` knobs fill and cap
//!   them at 768 ops/frame) over a dense 2^14 key range, where sorted
//!   per-shard runs actually land on adjacent leaves. **The process
//!   exits non-zero if the median trails the baseline cell's
//!   `fused_mops` by more than `NMBST_FUSION_TOLERANCE`** (relative,
//!   default 0.05), **or if the servers recorded zero `finger_hits`**
//!   — the end-to-end proof that sorted per-shard runs arriving over
//!   TCP actually anchor on the finger, not just in-process batches.
//!
//! On any gate failure the harness writes the slow-op records captured
//! during the serving replay (server slow-frame ring + tree rings,
//! slowest first, with flight-recorder event names where present) to
//! `NMBST_SLOWLOG_PATH` (default `SLOWLOG_DUMP.txt`) so CI can upload
//! the postmortem as an artifact.
//!
//! Knobs: `NMBST_SECS` (measured seconds per throughput cell, default
//! 1.0; CI uses 0.2), `NMBST_KEYS` (first entry = single-thread key
//! range), `NMBST_SEED`.
//!
//! Regression gate: when `NMBST_BASELINE_JSON` names a committed bench
//! file, the mixed-workload single-thread cells are compared against it
//! and the process exits non-zero if throughput dropped more than
//! `NMBST_PERF_TOLERANCE` (default 0.03) — the observability layer's
//! "no default-build slowdown" budget, enforced.

use criterion::json::{self, Json};
use nmbst::obs::{MetricsSnapshot, SlowOp};
use nmbst::{LatencyConfig, NmTreeSet, PoolConfig, RestartPolicy, SetHandle, TagMode, TreeConfig};
use nmbst_bench::SweepConfig;
use nmbst_harness::replay::{
    run_replay, run_replay_churn, ReplayConfig, ReplayReport, SessionOp, SessionTarget,
};
use nmbst_harness::rng::XorShift64Star;
use nmbst_harness::workload::OpKind;
use nmbst_harness::{Histogram, SortedBatchGen, Workload};
use nmbst_reclaim::{Ebr, Leaky, Reclaim};
use nmbst_server::wire::{BatchOp, Request, Response};
use nmbst_server::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Which front end drives the operations.
#[derive(Clone, Copy, PartialEq)]
enum Api {
    /// The plain API: every call pins and unpins the reclaimer.
    PerOpPin,
    /// A [`SetHandle`] holding its guard across operations.
    Handle,
}

impl Api {
    fn label(self) -> &'static str {
        match self {
            Api::PerOpPin => "per_op_pin",
            Api::Handle => "handle",
        }
    }
}

fn prepopulate<R: Reclaim>(set: &NmTreeSet<u64, R>, key_range: u64, seed: u64) {
    let target = key_range / 2;
    let mut rng = XorShift64Star::from_stream(seed, u64::MAX);
    let mut inserted = 0;
    while inserted < target {
        if set.insert(1 + rng.next_bounded(key_range)) {
            inserted += 1;
        }
    }
}

#[inline]
fn plain_op<R: Reclaim>(set: &NmTreeSet<u64, R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => set.contains(&key),
        OpKind::Insert => set.insert(key),
        OpKind::Delete => set.remove(&key),
    }
}

#[inline]
fn handle_op<R: Reclaim>(h: &mut SetHandle<'_, u64, R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => h.contains(&key),
        OpKind::Insert => h.insert(key),
        OpKind::Delete => h.remove(&key),
    }
}

/// One single-thread throughput measurement; returns (Mops/s, ops,
/// final metrics snapshot).
fn single_thread_mops(
    api: Api,
    config: TreeConfig,
    workload: Workload,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> (f64, u64, MetricsSnapshot) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::with_config(config);
    prepopulate(&set, key_range, seed);
    let warmup = Duration::from_secs_f64((secs * 0.2).min(0.2));
    let duration = Duration::from_secs_f64(secs);
    let mut rng = XorShift64Star::from_stream(seed, 1);
    let mut ops = 0u64;
    let mut elapsed = Duration::ZERO;

    let mut phase = |budget: Duration, measured: bool, rng: &mut XorShift64Star| {
        let t0 = Instant::now();
        match api {
            Api::PerOpPin => {
                while t0.elapsed() < budget {
                    for _ in 0..64 {
                        let key = 1 + rng.next_bounded(key_range);
                        std::hint::black_box(plain_op(&set, workload.pick(rng), key));
                        if measured {
                            ops += 1;
                        }
                    }
                }
            }
            Api::Handle => {
                let mut h = set.handle();
                while t0.elapsed() < budget {
                    for _ in 0..64 {
                        let key = 1 + rng.next_bounded(key_range);
                        std::hint::black_box(handle_op(&mut h, workload.pick(rng), key));
                        if measured {
                            ops += 1;
                        }
                    }
                }
            }
        }
        t0.elapsed()
    };
    phase(warmup, false, &mut rng);
    elapsed += phase(duration, true, &mut rng);
    (ops as f64 / elapsed.as_secs_f64() / 1e6, ops, set.metrics())
}

/// A [`MetricsSnapshot`] as a JSON object, via its canonical `to_json`
/// rendering so the bench file and a live scrape always agree on keys.
fn snapshot_json(m: &MetricsSnapshot) -> Json {
    Json::parse(&m.to_json()).expect("MetricsSnapshot::to_json emits valid JSON")
}

/// Multi-thread contended throughput under a restart policy; returns
/// (Mops/s, ops, full seeks, local restarts) summed over threads.
fn contended_mops(
    restart: RestartPolicy,
    threads: usize,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> (f64, u64, u64, u64) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::with_restart_policy(restart);
    prepopulate(&set, key_range, seed);
    let workload = Workload::WRITE_DOMINATED;
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let totals = Mutex::new((0u64, 0u64, 0u64)); // ops, seeks, local restarts
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|s| {
        for t in 0..threads {
            let (set, stop, start, totals) = (&set, &stop, &start, &totals);
            s.spawn(move || {
                let mut rng = XorShift64Star::from_stream(seed, t as u64);
                start.wait();
                let (ops, delta) = nmbst::stats::delta(|| {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..32 {
                            let key = 1 + rng.next_bounded(key_range);
                            std::hint::black_box(plain_op(set, workload.pick(&mut rng), key));
                            ops += 1;
                        }
                    }
                    ops
                });
                let mut acc = totals.lock().unwrap();
                acc.0 += ops;
                acc.1 += delta.seeks;
                acc.2 += delta.local_restarts;
            });
        }
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
    });

    let (ops, seeks, restarts) = *totals.lock().unwrap();
    (
        ops as f64 / elapsed.as_secs_f64() / 1e6,
        ops,
        seeks,
        restarts,
    )
}

/// Single-thread per-op latency histogram over `ops` mixed operations.
fn latency_hist(api: Api, key_range: u64, ops: u64, seed: u64) -> Histogram {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    prepopulate(&set, key_range, seed);
    let workload = Workload::MIXED;
    let mut rng = XorShift64Star::from_stream(seed, 2);
    let mut hist = Histogram::new();
    match api {
        Api::PerOpPin => {
            for _ in 0..ops {
                let key = 1 + rng.next_bounded(key_range);
                let op = workload.pick(&mut rng);
                let t0 = Instant::now();
                std::hint::black_box(plain_op(&set, op, key));
                hist.record(t0.elapsed().as_nanos() as u64);
            }
        }
        Api::Handle => {
            let mut h = set.handle();
            for _ in 0..ops {
                let key = 1 + rng.next_bounded(key_range);
                let op = workload.pick(&mut rng);
                let t0 = Instant::now();
                std::hint::black_box(handle_op(&mut h, op, key));
                hist.record(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    hist
}

/// Table-1 exact counts measured through the chosen front end; returns
/// (insert allocs, delete allocs, insert atomics, delete atomics) per op.
fn table1_counts(api: Api) -> (f64, f64, f64, f64) {
    const BASE: u64 = 1_000;
    const OPS: u64 = 500;
    // leaf_cap = 1: the paper's Table-1 costs are stated for one-key
    // leaves; a fat block COWs (1 alloc, 1 CAS) instead of running the
    // classic 2-alloc insert / flag-tag-splice delete being counted.
    let set: NmTreeSet<u64, Leaky> = NmTreeSet::with_config(TreeConfig::default().with_leaf_cap(1));
    let mut h = set.handle();
    let set = &set;
    let mut run = |key: u64, op: OpKind| match api {
        Api::PerOpPin => plain_op(set, op, key),
        Api::Handle => handle_op(&mut h, op, key),
    };
    for k in (0..BASE).map(|i| i * 2 + 1) {
        run(k, OpKind::Insert);
    }
    let ((), ins) = nmbst::stats::delta(|| {
        for k in (1..=OPS).map(|i| i * 2) {
            assert!(run(k, OpKind::Insert), "uncontended insert failed");
        }
    });
    let ((), del) = nmbst::stats::delta(|| {
        for k in (1..=OPS).map(|i| i * 2) {
            assert!(run(k, OpKind::Delete), "uncontended delete failed");
        }
    });
    (
        ins.allocs as f64 / OPS as f64,
        del.allocs as f64 / OPS as f64,
        ins.atomics() as f64 / OPS as f64,
        del.atomics() as f64 / OPS as f64,
    )
}

/// Times one balanced bulk build of `1..=n` against handle
/// loop-inserting the same keys in shuffled order; returns
/// `(bulk_secs, loop_secs)`.
///
/// Shuffled, not sorted, for the loop baseline: sorted loop-insert
/// builds a right spine and degenerates to O(n²), which would make the
/// bulk path look better than it is. Shuffled insert builds a random
/// (expected O(log n) depth) tree — the strongest incremental build
/// the existing API offers.
fn bulk_load_pair(n: u64, seed: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let bulk: NmTreeSet<u64, Ebr> = NmTreeSet::from_sorted_iter(1..=n);
    let bulk_secs = t0.elapsed().as_secs_f64();
    assert_eq!(bulk.count(), n as usize, "bulk build lost keys");
    drop(bulk);

    let mut keys: Vec<u64> = (1..=n).collect();
    let mut rng = XorShift64Star::from_stream(seed, 4);
    for i in (1..keys.len()).rev() {
        let j = rng.next_bounded((i + 1) as u64) as usize;
        keys.swap(i, j);
    }
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    let t1 = Instant::now();
    let mut h = set.handle();
    for &k in &keys {
        std::hint::black_box(h.insert(k));
    }
    drop(h);
    let loop_secs = t1.elapsed().as_secs_f64();
    assert_eq!(set.count(), n as usize, "loop build lost keys");
    (bulk_secs, loop_secs)
}

/// One single-thread sorted-batch throughput measurement: identical
/// Zipf-clustered ascending runs driven through the handle batch entry
/// points (`batched = true`) or the same handle one key at a time.
/// Both sides amortize pinning through the handle, so the delta
/// isolates the finger anchor (plus per-batch dispatch overhead).
/// Returns (Mops/s, ops, final metrics snapshot).
fn sorted_batch_mops(
    batched: bool,
    key_range: u64,
    batch_len: usize,
    secs: f64,
    seed: u64,
) -> (f64, u64, MetricsSnapshot) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    prepopulate(&set, key_range, seed);
    let gen = SortedBatchGen::new(key_range, batch_len, 0.8);
    let workload = Workload::MIXED;
    let warmup = Duration::from_secs_f64((secs * 0.2).min(0.2));
    let duration = Duration::from_secs_f64(secs);
    let mut rng = XorShift64Star::from_stream(seed, 5);
    let mut buf = Vec::with_capacity(batch_len);
    let mut h = set.handle();
    let mut ops = 0u64;
    let mut elapsed = Duration::ZERO;

    let mut phase = |budget: Duration, measured: bool, rng: &mut XorShift64Star| {
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            for _ in 0..4 {
                gen.fill(rng, &mut buf);
                let op = workload.pick(rng);
                if batched {
                    match op {
                        OpKind::Search => {
                            std::hint::black_box(h.contains_batch(buf.iter().copied()));
                        }
                        OpKind::Insert => {
                            std::hint::black_box(h.insert_batch(buf.iter().copied()));
                        }
                        OpKind::Delete => {
                            std::hint::black_box(h.remove_batch(buf.iter().copied()));
                        }
                    }
                } else {
                    for &key in &buf {
                        std::hint::black_box(handle_op(&mut h, op, key));
                    }
                }
                if measured {
                    ops += buf.len() as u64;
                }
            }
        }
        t0.elapsed()
    };
    phase(warmup, false, &mut rng);
    elapsed += phase(duration, true, &mut rng);
    drop(h);
    (ops as f64 / elapsed.as_secs_f64() / 1e6, ops, set.metrics())
}

fn main() {
    let cfg = SweepConfig::from_env();
    let secs = cfg.duration.as_secs_f64();
    let seed = cfg.seed;
    let key_range = cfg.key_ranges.first().copied().unwrap_or(1_000).max(64);
    let latency_ops = ((secs * 200_000.0) as u64).clamp(10_000, 2_000_000);
    // Conflict-dense on purpose: local restarts only pay off when CAS
    // failures actually happen, so this cell packs many writers into a
    // small key range.
    let contended_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8);
    let contended_range = 128;
    let out_path = std::env::var(criterion::BENCH_JSON_ENV)
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());

    let mut cells: Vec<Json> = Vec::new();

    // Single-core containers schedule-jitter individual runs by 10%+;
    // the median of three repeats per cell is stable enough to commit.
    const REPEATS: usize = 3;
    println!(
        "== single-thread throughput (key range {key_range}, {secs:.2}s/cell, median of {REPEATS}) =="
    );
    let mut gate_mops: Vec<(&'static str, &'static str, f64)> = Vec::new();
    for workload in Workload::FIGURE4 {
        for api in [Api::PerOpPin, Api::Handle] {
            let mut runs: Vec<(f64, u64, MetricsSnapshot)> = (0..REPEATS)
                .map(|_| {
                    single_thread_mops(api, TreeConfig::default(), workload, key_range, secs, seed)
                })
                .collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mops, ops, snap) = runs.swap_remove(REPEATS / 2);
            println!(
                "  {:<24} {:<10} {mops:.3} Mops/s",
                workload.name,
                api.label()
            );
            if workload.name == Workload::MIXED.name
                || workload.name == Workload::READ_DOMINATED.name
            {
                gate_mops.push((workload.name, api.label(), mops));
            }
            cells.push(json::cell(
                "single_thread_throughput",
                Json::obj([
                    ("workload", Json::from(workload.name)),
                    ("api", Json::from(api.label())),
                    ("threads", Json::Int(1)),
                    ("key_range", Json::from(key_range)),
                    ("secs", Json::Num(secs)),
                    ("seed", Json::from(seed)),
                    ("repeats", Json::from(REPEATS)),
                ]),
                Json::obj([
                    ("mops", Json::Num(mops)),
                    ("ops", Json::from(ops)),
                    ("obs", snapshot_json(&snap)),
                ]),
            ));
        }
    }

    println!(
        "== contended throughput ({contended_threads} threads, key range {contended_range}, write-heavy) =="
    );
    for restart in [RestartPolicy::Root, RestartPolicy::Local] {
        let label = match restart {
            RestartPolicy::Root => "root",
            RestartPolicy::Local => "local",
        };
        let (mops, ops, seeks, restarts) =
            contended_mops(restart, contended_threads, contended_range, secs, seed);
        println!(
            "  restart={label:<6} {mops:.3} Mops/s  (seeks {seeks}, local restarts {restarts})"
        );
        cells.push(json::cell(
            "contended_throughput",
            Json::obj([
                ("workload", Json::from(Workload::WRITE_DOMINATED.name)),
                ("restart", Json::from(label)),
                ("threads", Json::from(contended_threads)),
                ("key_range", Json::from(contended_range)),
                ("secs", Json::Num(secs)),
                ("seed", Json::from(seed)),
            ]),
            Json::obj([
                ("mops", Json::Num(mops)),
                ("ops", Json::from(ops)),
                ("seeks", Json::from(seeks)),
                ("local_restarts", Json::from(restarts)),
            ]),
        ));
    }

    println!("== latency percentiles (1 thread, mixed, {latency_ops} ops) ==");
    for api in [Api::PerOpPin, Api::Handle] {
        let hist = latency_hist(api, key_range, latency_ops, seed);
        let (p50, p99, p999) = (
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.percentile(99.9),
        );
        println!(
            "  {:<10} p50 {p50} ns, p99 {p99} ns, p99.9 {p999} ns",
            api.label()
        );
        cells.push(json::cell(
            "latency",
            Json::obj([
                ("workload", Json::from(Workload::MIXED.name)),
                ("api", Json::from(api.label())),
                ("threads", Json::Int(1)),
                ("key_range", Json::from(key_range)),
                ("ops", Json::from(latency_ops)),
                ("seed", Json::from(seed)),
            ]),
            Json::obj([
                ("p50_ns", Json::from(p50)),
                ("p99_ns", Json::from(p99)),
                ("p999_ns", Json::from(p999)),
                ("mean_ns", Json::Num(hist.mean())),
                ("max_ns", Json::from(hist.max())),
            ]),
        ));
    }

    println!("== Table-1 exact counts ==");
    let mut table1_ok = true;
    for api in [Api::PerOpPin, Api::Handle] {
        let (ia, da, iat, dat) = table1_counts(api);
        let ok = ia == 2.0 && da == 0.0 && iat == 1.0 && dat == 3.0;
        table1_ok &= ok;
        println!(
            "  {:<10} insert {ia:.2} allocs / {iat:.2} atomics, delete {da:.2} allocs / {dat:.2} atomics  [{}]",
            api.label(),
            if ok { "ok" } else { "REGRESSED" },
        );
        cells.push(json::cell(
            "table1_exact",
            Json::obj([
                ("api", Json::from(api.label())),
                ("tag_mode", Json::from(format!("{:?}", TagMode::FetchOr))),
            ]),
            Json::obj([
                ("insert_allocs", Json::Num(ia)),
                ("delete_allocs", Json::Num(da)),
                ("insert_atomics", Json::Num(iat)),
                ("delete_atomics", Json::Num(dat)),
                ("ok", Json::Bool(ok)),
            ]),
        ));
    }

    // The PR 4 ablation: identical insert-heavy handle cells, the only
    // difference being `TreeConfig::pool`. Pool-on reuses grace-period-
    // expired nodes instead of round-tripping the global allocator, so
    // it must at least hold the line; the mixed cells record the steady
    // hit rate a balanced workload sustains.
    println!("== pool ablation (1 thread, handle, key range {key_range}, median of {REPEATS}) ==");
    let mut pool_gate_ok = true;
    let mut insert_heavy = [0.0f64; 2]; // [pool-off, pool-on] Mops/s
    for workload in [Workload::WRITE_DOMINATED, Workload::MIXED] {
        for pool_on in [false, true] {
            let pool = if pool_on {
                PoolConfig::default()
            } else {
                PoolConfig::disabled()
            };
            let config = TreeConfig::default().with_pool(pool);
            let mut runs: Vec<(f64, u64, MetricsSnapshot)> = (0..REPEATS)
                .map(|_| single_thread_mops(Api::Handle, config, workload, key_range, secs, seed))
                .collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mops, ops, snap) = runs.swap_remove(REPEATS / 2);
            println!(
                "  {:<24} pool={:<4} {mops:.3} Mops/s  (pool_hits {}, recycled {})",
                workload.name,
                if pool_on { "on" } else { "off" },
                snap.pool.hits,
                snap.pool.recycled,
            );
            if workload.name == Workload::WRITE_DOMINATED.name {
                insert_heavy[pool_on as usize] = mops;
            }
            if pool_on && workload.name == Workload::MIXED.name && snap.pool.hits == 0 {
                eprintln!("error: mixed pool-on cell recorded zero pool hits — recycling is dead");
                pool_gate_ok = false;
            }
            cells.push(json::cell(
                "pool_ablation",
                Json::obj([
                    ("workload", Json::from(workload.name)),
                    ("api", Json::from(Api::Handle.label())),
                    ("pool", Json::from(if pool_on { "on" } else { "off" })),
                    ("pool_capacity", Json::from(pool.capacity)),
                    ("threads", Json::Int(1)),
                    ("key_range", Json::from(key_range)),
                    ("secs", Json::Num(secs)),
                    ("seed", Json::from(seed)),
                    ("repeats", Json::from(REPEATS)),
                ]),
                Json::obj([
                    ("mops", Json::Num(mops)),
                    ("ops", Json::from(ops)),
                    ("obs", snapshot_json(&snap)),
                ]),
            ));
        }
    }
    pool_gate_ok &= check_pool_gate(insert_heavy[0], insert_heavy[1]);

    // The PR 7 ablation: identical handle cells, the only difference
    // being `TreeConfig::leaf_cap`. Capacity 1 reproduces the pre-PR 7
    // one-key-per-leaf shape on the same arena, so the delta isolates
    // the fat-leaf blocks (shorter descents, one cache line per final
    // hop) from everything else this PR changed.
    println!("== leaf ablation (1 thread, handle, key range {key_range}, median of {REPEATS}) ==");
    let mut leaf_read_dom = [0.0f64; 2]; // [cap 1, cap 8] Mops/s
    let mut leaf_depths = [0u64; 2]; // [cap 1, cap 8] max observed depth
    for workload in [Workload::READ_DOMINATED, Workload::MIXED] {
        for fat in [false, true] {
            let leaf_cap = if fat { nmbst::LEAF_CAP } else { 1 };
            let config = TreeConfig::default().with_leaf_cap(leaf_cap);
            let mut runs: Vec<(f64, u64, MetricsSnapshot)> = (0..REPEATS)
                .map(|_| single_thread_mops(Api::Handle, config, workload, key_range, secs, seed))
                .collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mops, ops, snap) = runs.swap_remove(REPEATS / 2);
            println!(
                "  {:<24} leaf_cap={leaf_cap} {mops:.3} Mops/s  (max_depth {})",
                workload.name, snap.max_depth,
            );
            if workload.name == Workload::READ_DOMINATED.name {
                leaf_read_dom[fat as usize] = mops;
                leaf_depths[fat as usize] = snap.max_depth;
            }
            cells.push(json::cell(
                "leaf_ablation",
                Json::obj([
                    ("workload", Json::from(workload.name)),
                    ("api", Json::from(Api::Handle.label())),
                    ("leaf_cap", Json::from(leaf_cap as u64)),
                    ("threads", Json::Int(1)),
                    ("key_range", Json::from(key_range)),
                    ("secs", Json::Num(secs)),
                    ("seed", Json::from(seed)),
                    ("repeats", Json::from(REPEATS)),
                ]),
                Json::obj([
                    ("mops", Json::Num(mops)),
                    ("ops", Json::from(ops)),
                    ("obs", snapshot_json(&snap)),
                ]),
            ));
        }
    }
    let leaf_gate_ok = check_leaf_gate(leaf_read_dom, leaf_depths);

    // The PR 5 bulk-load cell. Fixed key count (not time-budgeted):
    // build cost is what's being measured, and a fixed n keeps the cell
    // comparable across runs regardless of NMBST_SECS.
    let bulk_keys = std::env::var("NMBST_BULK_KEYS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100_000)
        // Below ~10k keys the fixed per-tree costs (pool setup, first
        // allocations) drown the asymptotic difference and the 2× gate
        // stops measuring anything; clamp overrides to a meaningful n.
        .max(10_000);
    println!(
        "== bulk load ({bulk_keys} keys, bulk vs shuffled handle loop, median of {REPEATS}) =="
    );
    let mut pairs: Vec<(f64, f64)> = (0..REPEATS)
        .map(|_| bulk_load_pair(bulk_keys, seed))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let bulk_secs = pairs[REPEATS / 2].0;
    pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let loop_secs = pairs[REPEATS / 2].1;
    let speedup = loop_secs / bulk_secs;
    let bulk_gate_ok = check_bulk_gate(bulk_secs, loop_secs, bulk_keys);
    cells.push(json::cell(
        "bulk_load",
        Json::obj([
            ("keys", Json::from(bulk_keys)),
            ("loop_order", Json::from("shuffled")),
            ("loop_api", Json::from(Api::Handle.label())),
            ("seed", Json::from(seed)),
            ("repeats", Json::from(REPEATS)),
        ]),
        Json::obj([
            ("bulk_secs", Json::Num(bulk_secs)),
            ("loop_secs", Json::Num(loop_secs)),
            ("speedup", Json::Num(speedup)),
            (
                "bulk_mkeys_per_sec",
                Json::Num(bulk_keys as f64 / bulk_secs / 1e6),
            ),
        ]),
    ));

    // The PR 5 sorted-batch cell: same clustered ascending runs, batch
    // entry points vs one-at-a-time on the same handle.
    let batch_len = std::env::var("NMBST_BATCH_LEN")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .max(2);
    println!(
        "== sorted batch (key range {key_range}, runs of {batch_len}, {secs:.2}s/cell, median of {REPEATS}) =="
    );
    let mut batch_mops = [0.0f64; 2]; // [singles, batched]
    let mut batch_snap: Option<MetricsSnapshot> = None;
    for batched in [false, true] {
        let mut runs: Vec<(f64, u64, MetricsSnapshot)> = (0..REPEATS)
            .map(|_| sorted_batch_mops(batched, key_range, batch_len, secs, seed))
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mops, ops, snap) = runs.swap_remove(REPEATS / 2);
        let label = if batched { "batched" } else { "singles" };
        println!(
            "  {label:<10} {mops:.3} Mops/s  (finger hits {}, misses {})",
            snap.finger_hits, snap.finger_misses
        );
        batch_mops[batched as usize] = mops;
        cells.push(json::cell(
            "sorted_batch",
            Json::obj([
                ("workload", Json::from(Workload::MIXED.name)),
                ("api", Json::from(label)),
                ("batch_len", Json::from(batch_len)),
                ("threads", Json::Int(1)),
                ("key_range", Json::from(key_range)),
                ("secs", Json::Num(secs)),
                ("seed", Json::from(seed)),
                ("repeats", Json::from(REPEATS)),
            ]),
            Json::obj([
                ("mops", Json::Num(mops)),
                ("ops", Json::from(ops)),
                ("obs", snapshot_json(&snap)),
            ]),
        ));
        if batched {
            batch_snap = Some(snap);
        }
    }
    let batch_gate_ok = check_batch_gate(
        batch_mops[0],
        batch_mops[1],
        batch_snap.as_ref().map_or(0, |s| s.finger_hits),
    );

    // The PR 8 ablation: identical handle cells, the only difference
    // being `TreeConfig::lat` (default sampled recording vs disabled).
    // Runs are interleaved off/on per repeat, and the gate compares
    // the MEDIAN of the per-pair on/off ratios, not medians of arms:
    // interference on this box slows single runs by up to ~20% while
    // the true recording cost at 1-in-64 sampling is ~1%, so any
    // estimator that pairs an afflicted run from one arm against a
    // clean run from the other manufactures a phantom cost (or a
    // phantom win). Adjacent runs share the machine's state, so each
    // pair's ratio isolates the one-flag delta, and the median
    // rejects the pairs where a spike landed inside one half.
    const OBS_REPEATS: usize = 5;
    let period = 1u64 << LatencyConfig::default().sample_shift;
    println!(
        "== obs overhead (1 thread, handle, key range {key_range}, sampled 1-in-{period}, median on/off ratio of {OBS_REPEATS} interleaved pairs) =="
    );
    let mut obs_ratio = f64::NAN; // mixed-cell median pairwise on/off ratio
    for workload in [Workload::MIXED, Workload::READ_DOMINATED] {
        let mut runs: [Vec<(f64, u64, MetricsSnapshot)>; 2] = [Vec::new(), Vec::new()];
        let mut ratios = Vec::with_capacity(OBS_REPEATS);
        for _ in 0..OBS_REPEATS {
            for (on, arm) in runs.iter_mut().enumerate() {
                let lat = if on == 1 {
                    LatencyConfig::default()
                } else {
                    LatencyConfig::disabled()
                };
                let config = TreeConfig::default().with_latency(lat);
                arm.push(single_thread_mops(
                    Api::Handle,
                    config,
                    workload,
                    key_range,
                    secs,
                    seed,
                ));
            }
            ratios.push(runs[1].last().unwrap().0 / runs[0].last().unwrap().0);
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let median_ratio = ratios[OBS_REPEATS / 2];
        println!(
            "  {:<24} pair ratios {:?}  median {median_ratio:.4}",
            workload.name,
            ratios
                .iter()
                .map(|r| (r * 1e4).round() / 1e4)
                .collect::<Vec<_>>(),
        );
        if workload.name == Workload::MIXED.name {
            obs_ratio = median_ratio;
        }
        for (on, arm) in runs.iter_mut().enumerate() {
            arm.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mops, ops, snap) = arm.swap_remove(OBS_REPEATS / 2);
            let label = if on == 1 { "on" } else { "off" };
            println!(
                "  {:<24} recording={label:<4} {mops:.3} Mops/s  (lat samples {}, slow ops {})",
                workload.name,
                snap.latency.len(),
                snap.slow_ops.len(),
            );
            if on == 1 && snap.latency.is_empty() {
                // Sampled recording over seconds of ops cannot miss
                // unless recording is broken outright.
                eprintln!("error: recording-on cell captured zero latency samples");
                obs_ratio = 0.0;
            }
            cells.push(json::cell(
                "obs_overhead",
                Json::obj([
                    ("workload", Json::from(workload.name)),
                    ("api", Json::from(Api::Handle.label())),
                    ("recording", Json::from(label)),
                    (
                        "sample_shift",
                        Json::from(u64::from(LatencyConfig::default().sample_shift)),
                    ),
                    ("threads", Json::Int(1)),
                    ("key_range", Json::from(key_range)),
                    ("secs", Json::Num(secs)),
                    ("seed", Json::from(seed)),
                    ("repeats", Json::from(OBS_REPEATS)),
                ]),
                Json::obj([
                    ("mops", Json::Num(mops)),
                    ("ops", Json::from(ops)),
                    ("lat_samples", Json::from(snap.latency.len())),
                    ("pair_ratio_median", Json::Num(median_ratio)),
                    ("obs", snapshot_json(&snap)),
                ]),
            ));
        }
    }
    let obs_gate_ok = check_obs_gate(obs_ratio);

    // The PR 6 serving cell: open-loop session replay against the TCP
    // server over loopback. Calibrate peak capacity first (every
    // session due at t=0), then measure tail latency at a sustainable
    // fraction of it so p999 means queueing, not time-to-drain.
    let sessions = std::env::var("NMBST_SESSIONS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1_000_000)
        .max(1_000);
    let util = std::env::var("NMBST_SERVE_UTIL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.7)
        .clamp(0.05, 1.0);
    let serve_workers = 2;
    let replay_cfg = ReplayConfig {
        sessions,
        clients: serve_workers,
        seed,
        ..ReplayConfig::default()
    };
    println!(
        "== serving replay ({sessions} sessions, {serve_workers} workers/clients, Zipf θ={}, util {util:.2}, median of {REPEATS}) ==",
        replay_cfg.zipf_theta
    );
    // Calibrate over the *full* session count: the store grows over the
    // run (mixed mix nets ~+10% keys), so a short calibration measures
    // a small, fast tree and overestimates the sustainable rate — the
    // paced runs would then queue without bound and report drain time,
    // not latency.
    let calib_cfg = ReplayConfig {
        arrival_rate: f64::INFINITY,
        ..replay_cfg.clone()
    };
    let calib = serving_replay_run(&calib_cfg, serve_workers).report;
    let max_rate = calib.sessions_per_sec();
    let max_mops = calib.mops();
    println!("  peak capacity      {max_rate:.0} sessions/s  ({max_mops:.3} Mops/s)");
    let paced_cfg = ReplayConfig {
        arrival_rate: max_rate * util,
        ..replay_cfg.clone()
    };
    let mut serve_runs: Vec<ServeRun> = (0..REPEATS)
        .map(|_| serving_replay_run(&paced_cfg, serve_workers))
        .collect();
    serve_runs.sort_by_key(|r| r.report.percentile_ns(99.9));
    let run = &serve_runs[REPEATS / 2];
    let (report, serve_snap, worker_ops) = (&run.report, &run.snap, &run.worker_ops);
    println!(
        "  paced @ {:.0}/s      {:.3} Mops/s  p50 {}µs  p99 {}µs  p999 {}µs",
        paced_cfg.arrival_rate,
        report.mops(),
        report.percentile_ns(50.0) / 1_000,
        report.percentile_ns(99.0) / 1_000,
        report.percentile_ns(99.9) / 1_000,
    );
    println!(
        "  server-side        BATCH wire p50 {}µs  p99 {}µs  ({} frames, {} slow records)",
        run.batch_wire.percentile(50.0) / 1_000,
        run.batch_wire.percentile(99.0) / 1_000,
        run.batch_wire.len(),
        run.slow.len(),
    );
    cells.push(json::cell(
        "serving_replay",
        Json::obj([
            ("workload", Json::from(paced_cfg.workload.name)),
            ("sessions", Json::from(sessions)),
            (
                "ops_per_session",
                Json::from(u64::from(paced_cfg.ops_per_session)),
            ),
            ("workers", Json::from(serve_workers)),
            ("clients", Json::from(paced_cfg.clients)),
            ("key_range", Json::from(paced_cfg.key_range)),
            ("zipf_theta", Json::Num(paced_cfg.zipf_theta)),
            ("util", Json::Num(util)),
            ("arrival_rate", Json::Num(paced_cfg.arrival_rate)),
            ("seed", Json::from(seed)),
            ("repeats", Json::from(REPEATS)),
        ]),
        Json::obj([
            ("max_mops", Json::Num(max_mops)),
            ("max_sessions_per_sec", Json::Num(max_rate)),
            ("mops", Json::Num(report.mops())),
            ("sessions_per_sec", Json::Num(report.sessions_per_sec())),
            ("ops", Json::from(report.ops)),
            ("p50_ns", Json::from(report.percentile_ns(50.0))),
            ("p99_ns", Json::from(report.percentile_ns(99.0))),
            ("p999_ns", Json::from(report.percentile_ns(99.9))),
            ("client_rtt_p50_ns", Json::from(report.rtt.percentile(50.0))),
            ("client_rtt_p99_ns", Json::from(report.rtt.percentile(99.0))),
            (
                "server_wire_p50_ns",
                Json::from(run.batch_wire.percentile(50.0)),
            ),
            (
                "server_wire_p99_ns",
                Json::from(run.batch_wire.percentile(99.0)),
            ),
            ("frames", Json::from(run.batch_wire.len())),
            ("slow_records", Json::from(run.slow.len())),
            ("batch_fused_ops", Json::from(run.batch_fused_ops)),
            (
                "worker_ops",
                Json::Arr(worker_ops.iter().map(|&o| Json::from(o)).collect()),
            ),
            ("obs", snapshot_json(serve_snap)),
        ]),
    ));
    let serving_gate_ok = check_serving_gate(max_mops, worker_ops);
    let agreement_ok = check_latency_agreement(&report.rtt, &run.batch_wire);

    // The PR 9 churn cell: same replay engine, but every client redials
    // a fresh connection every `sessions_per_conn` sessions and ships
    // its bundles as pipelined per-session BATCH frames. 16 concurrent
    // connections against 2 workers: the pre-reactor server (one
    // connection served to completion per worker) could not serve this
    // shape at all.
    let churn_workers = 2;
    let churn_clients = churn_workers * 8;
    let churn_sessions = (sessions / 4).max(1_000);
    let churn_cfg = ReplayConfig {
        sessions: churn_sessions,
        clients: churn_clients,
        sessions_per_conn: 32,
        seed,
        ..ReplayConfig::default()
    };
    println!(
        "== serving churn ({churn_sessions} sessions, {churn_workers} workers, {churn_clients} conns redialing every {} sessions, util {util:.2}, median of {REPEATS}) ==",
        churn_cfg.sessions_per_conn
    );
    let churn_calib_cfg = ReplayConfig {
        arrival_rate: f64::INFINITY,
        ..churn_cfg.clone()
    };
    let churn_calib = serving_churn_run(&churn_calib_cfg, churn_workers);
    let churn_peak = churn_calib.report.sessions_per_sec();
    println!(
        "  peak capacity      {churn_peak:.0} sessions/s  ({:.3} Mops/s, {} conns opened)",
        churn_calib.report.mops(),
        churn_calib.report.conns
    );
    let churn_paced_cfg = ReplayConfig {
        arrival_rate: churn_peak * util,
        ..churn_cfg.clone()
    };
    let churn_sched_secs = churn_sessions as f64 / churn_paced_cfg.arrival_rate;
    let mut churn_runs: Vec<ChurnRun> = (0..REPEATS)
        .map(|_| serving_churn_run(&churn_paced_cfg, churn_workers))
        .collect();
    churn_runs.sort_by_key(|r| r.report.percentile_ns(99.9));
    let churn_run = &churn_runs[REPEATS / 2];
    println!(
        "  paced @ {:.0}/s      {:.3} Mops/s  p50 {}µs  p99 {}µs  p999 {}µs  ({} conns, backpressure events {})",
        churn_paced_cfg.arrival_rate,
        churn_run.report.mops(),
        churn_run.report.percentile_ns(50.0) / 1_000,
        churn_run.report.percentile_ns(99.0) / 1_000,
        churn_run.report.percentile_ns(99.9) / 1_000,
        churn_run.report.conns,
        churn_run.backpressure_events,
    );
    cells.push(json::cell(
        "serving_churn",
        Json::obj([
            ("workload", Json::from(churn_paced_cfg.workload.name)),
            ("sessions", Json::from(churn_sessions)),
            (
                "ops_per_session",
                Json::from(u64::from(churn_paced_cfg.ops_per_session)),
            ),
            ("workers", Json::from(churn_workers)),
            ("clients", Json::from(churn_paced_cfg.clients)),
            (
                "sessions_per_conn",
                Json::from(churn_paced_cfg.sessions_per_conn),
            ),
            ("key_range", Json::from(churn_paced_cfg.key_range)),
            ("zipf_theta", Json::Num(churn_paced_cfg.zipf_theta)),
            ("util", Json::Num(util)),
            ("arrival_rate", Json::Num(churn_paced_cfg.arrival_rate)),
            ("seed", Json::from(seed)),
            ("repeats", Json::from(REPEATS)),
        ]),
        Json::obj([
            ("max_sessions_per_sec", Json::Num(churn_peak)),
            ("max_mops", Json::Num(churn_calib.report.mops())),
            ("mops", Json::Num(churn_run.report.mops())),
            (
                "sessions_per_sec",
                Json::Num(churn_run.report.sessions_per_sec()),
            ),
            ("ops", Json::from(churn_run.report.ops)),
            ("conns", Json::from(churn_run.report.conns)),
            ("p50_ns", Json::from(churn_run.report.percentile_ns(50.0))),
            ("p99_ns", Json::from(churn_run.report.percentile_ns(99.0))),
            ("p999_ns", Json::from(churn_run.report.percentile_ns(99.9))),
            (
                "backpressure_events",
                Json::from(churn_run.backpressure_events),
            ),
            ("drained", Json::from(u64::from(churn_run.drained))),
            (
                "worker_ops",
                Json::Arr(
                    churn_run
                        .worker_ops
                        .iter()
                        .map(|&o| Json::from(o))
                        .collect(),
                ),
            ),
            ("obs", snapshot_json(&churn_run.snap)),
        ]),
    ));
    let churn_gate_ok = check_churn_gate(churn_run, churn_clients, churn_workers, churn_sched_secs);

    // The PR 9 pipelining A/B: identical seeded uniform GET streams on
    // one client, blocking one-at-a-time vs pipelined, as interleaved
    // pairs against one long-lived server so machine drift cancels.
    let pipe_range = key_range.min(1 << 18);
    println!(
        "== pipelining (1 client GETs over {pipe_range} keys, window {}, {secs:.2}s/arm, median of {REPEATS} interleaved pairs) ==",
        Client::PIPELINE_WINDOW
    );
    let pipe_server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    {
        // Preload every other key so GETs split hit/miss.
        let mut c = Client::connect(pipe_server.addr()).expect("connect to server");
        let mut ops = Vec::with_capacity(1024);
        for chunk_start in (0..pipe_range).step_by(2 * 1024) {
            ops.clear();
            ops.extend(
                (chunk_start..)
                    .step_by(2)
                    .take(1024)
                    .take_while(|&k| k < pipe_range)
                    .map(|k| BatchOp::Insert(k, k)),
            );
            c.batch(&ops).expect("preload batch");
        }
    }
    let mut arm_mops: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for rep in 0..REPEATS {
        for pipelined in [false, true] {
            let mops = pipeline_arm_mops(
                pipe_server.addr(),
                pipelined,
                pipe_range,
                secs,
                seed ^ rep as u64,
            );
            arm_mops[pipelined as usize].push(mops);
        }
    }
    pipe_server.shutdown();
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let serial_mops = median(&mut arm_mops[0]);
    let pipelined_mops = median(&mut arm_mops[1]);
    println!(
        "  blocking  {serial_mops:.3} Mops/s\n  pipelined {pipelined_mops:.3} Mops/s  ({:.1}x)",
        pipelined_mops / serial_mops
    );
    cells.push(json::cell(
        "pipelining",
        Json::obj([
            ("workload", Json::from("uniform_get")),
            ("window", Json::from(Client::PIPELINE_WINDOW)),
            ("threads", Json::Int(1)),
            ("workers", Json::Int(2)),
            ("key_range", Json::from(pipe_range)),
            ("secs", Json::Num(secs)),
            ("seed", Json::from(seed)),
            ("repeats", Json::from(REPEATS)),
        ]),
        Json::obj([
            ("serial_mops", Json::Num(serial_mops)),
            ("pipelined_mops", Json::Num(pipelined_mops)),
            ("speedup", Json::Num(pipelined_mops / serial_mops)),
        ]),
    ));
    let pipeline_gate_ok = check_pipeline_gate(serial_mops, pipelined_mops);

    // Shard-fused BATCH serving at drain rate against fresh servers.
    // The frame shape is the one fusion targets — high-occupancy BATCH
    // frames (the `coalesce` / `coalesce_ops` replay knobs fill and cap
    // them) over a serving-resident key range dense enough that sorted
    // per-shard runs land on adjacent leaves; the default replay shape
    // (96–192-op frames over 2^20 keys) leaves the tree such a small
    // slice of loopback wall time that the cell would measure syscall
    // jitter, not execution.
    let fusion_workers = 2;
    let fusion_sessions = (sessions / 4).max(1_000);
    let fusion_ops_cap = 768;
    let fusion_cfg = ReplayConfig {
        sessions: fusion_sessions,
        clients: fusion_workers,
        arrival_rate: f64::INFINITY,
        key_range: 1 << 14,
        coalesce: 256,
        coalesce_ops: fusion_ops_cap,
        seed,
        ..ReplayConfig::default()
    };
    println!(
        "== serving batch fusion ({fusion_sessions} sessions, {fusion_workers} workers, ≤{fusion_ops_cap} ops/frame, drain rate, median of {REPEATS}) =="
    );
    let mut fusion_mops: Vec<f64> = Vec::new();
    let mut fused_finger_hits = 0u64;
    let mut fused_finger_misses = 0u64;
    let mut fused_ops_total = 0u64;
    for _ in 0..REPEATS {
        let run = serving_replay_run(&fusion_cfg, fusion_workers);
        fusion_mops.push(run.report.mops());
        fused_finger_hits += run.snap.finger_hits;
        fused_finger_misses += run.snap.finger_misses;
        fused_ops_total += run.batch_fused_ops;
    }
    let fused_mops = median(&mut fusion_mops);
    println!(
        "  fused {fused_mops:.3} Mops/s  finger hits {fused_finger_hits} / misses {fused_finger_misses}"
    );
    cells.push(json::cell(
        "serving_batch_fusion",
        Json::obj([
            ("workload", Json::from(fusion_cfg.workload.name)),
            ("sessions", Json::from(fusion_sessions)),
            (
                "ops_per_session",
                Json::from(u64::from(fusion_cfg.ops_per_session)),
            ),
            ("workers", Json::from(fusion_workers)),
            ("clients", Json::from(fusion_cfg.clients)),
            ("coalesce_ops", Json::from(fusion_ops_cap as u64)),
            ("key_range", Json::from(fusion_cfg.key_range)),
            ("zipf_theta", Json::Num(fusion_cfg.zipf_theta)),
            ("seed", Json::from(seed)),
            ("repeats", Json::from(REPEATS)),
        ]),
        Json::obj([
            ("fused_mops", Json::Num(fused_mops)),
            ("fused_finger_hits", Json::from(fused_finger_hits)),
            ("fused_finger_misses", Json::from(fused_finger_misses)),
            ("batch_fused_ops", Json::from(fused_ops_total)),
        ]),
    ));
    let fusion_gate_ok = check_fusion_gate(fused_mops, fused_finger_hits, fused_ops_total);

    let path = std::path::Path::new(&out_path);
    json::write_bench_file(path, &cells).expect("write bench json");
    println!("wrote {} cells to {}", cells.len(), path.display());

    let baseline_ok = check_against_baseline(&gate_mops);

    let mut failures: Vec<&str> = Vec::new();
    if !pool_gate_ok {
        failures.push("pool ablation gate failed");
    }
    if !leaf_gate_ok {
        failures.push("leaf ablation gate failed");
    }
    if !table1_ok {
        failures.push(
            "Table-1 exact counts regressed (expected insert 2 allocs/1 CAS, delete 0 allocs/3 atomics)",
        );
    }
    if !bulk_gate_ok {
        failures.push("bulk-load gate failed");
    }
    if !batch_gate_ok {
        failures.push("sorted-batch gate failed");
    }
    if !obs_gate_ok {
        failures.push("obs overhead gate failed (recording costs more than the budget)");
    }
    if !serving_gate_ok {
        failures.push("serving replay gate failed");
    }
    if !agreement_ok {
        failures.push("client/server latency agreement gate failed");
    }
    if !churn_gate_ok {
        failures.push("serving churn gate failed");
    }
    if !pipeline_gate_ok {
        failures.push("pipelining gate failed");
    }
    if !fusion_gate_ok {
        failures.push("serving batch fusion gate failed");
    }
    if !baseline_ok {
        failures.push("baseline throughput gate failed");
    }
    if !failures.is_empty() {
        for msg in &failures {
            eprintln!("error: {msg}");
        }
        dump_slowlog(&serve_runs[REPEATS / 2].slow);
        std::process::exit(1);
    }
}

/// Writes the median paced run's slow-op records to
/// `NMBST_SLOWLOG_PATH` (default `SLOWLOG_DUMP.txt`) so a failing CI
/// job can upload the outliers that were live when the gate tripped.
fn dump_slowlog(slow: &[SlowOp]) {
    let path =
        std::env::var("NMBST_SLOWLOG_PATH").unwrap_or_else(|_| "SLOWLOG_DUMP.txt".to_string());
    let mut out = String::new();
    out.push_str("# slow-op records from the median paced serving run, slowest first\n");
    out.push_str("# origin kind key ns events\n");
    for op in slow {
        let (origin, kind) = match op.origin {
            1 => ("server", nmbst_server::wire::op_name(op.kind)),
            _ => (
                "tree",
                match op.kind {
                    0 => "get",
                    1 => "insert",
                    2 => "remove",
                    3 => "batch",
                    4 => "range",
                    _ => "?",
                },
            ),
        };
        out.push_str(&format!(
            "{origin} {kind} key={} ns={} events={:?}\n",
            op.key,
            op.ns,
            op.event_names(),
        ));
    }
    match std::fs::write(&path, &out) {
        Ok(()) => eprintln!("wrote {} slow-op records to {path}", slow.len()),
        Err(e) => eprintln!("failed to write slowlog dump to {path}: {e}"),
    }
}

/// The client/server latency agreement gate: both sides timed the same
/// BATCH frames (one histogram sample per session bundle on each side),
/// so the counts must match exactly, and the server's wire p99 — which
/// excludes the client's syscall + loopback cost — can never credibly
/// exceed the client's RTT p99 by more than the two histograms' bucket
/// error (`NMBST_AGREE_TOLERANCE`, default 0.15 ≈ 2× the 6.7% bucket
/// width). The reverse direction is a loose unit-mismatch tripwire
/// (`NMBST_AGREE_FACTOR`, default 100×): loopback syscall overhead
/// legitimately dominates sub-10µs frames, but a µs/ns mix-up overshoots
/// 100× instantly.
fn check_latency_agreement(client_rtt: &Histogram, server_wire: &Histogram) -> bool {
    let tolerance = std::env::var("NMBST_AGREE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.15);
    let factor = std::env::var("NMBST_AGREE_FACTOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(100.0);
    if client_rtt.len() != server_wire.len() {
        eprintln!(
            "  agreement: FAIL — client timed {} frames, server timed {}",
            client_rtt.len(),
            server_wire.len()
        );
        return false;
    }
    let client_p99 = client_rtt.percentile(99.0) as f64;
    let server_p99 = server_wire.percentile(99.0) as f64;
    let mut ok = true;
    if server_p99 > client_p99 * (1.0 + tolerance) {
        eprintln!(
            "  agreement: FAIL — server wire p99 {server_p99:.0}ns exceeds client rtt p99 \
             {client_p99:.0}ns by more than {:.0}% (bucket error budget)",
            tolerance * 100.0
        );
        ok = false;
    }
    if client_p99 > server_p99 * factor {
        eprintln!(
            "  agreement: FAIL — client rtt p99 {client_p99:.0}ns is over {factor:.0}x the \
             server wire p99 {server_p99:.0}ns (unit mismatch?)"
        );
        ok = false;
    }
    if ok {
        println!(
            "  agreement: ok — {} frames both sides, server p99 {:.1}µs ≤ client p99 {:.1}µs × {:.2}",
            client_rtt.len(),
            server_p99 / 1_000.0,
            client_p99 / 1_000.0,
            1.0 + tolerance
        );
    }
    ok
}

/// The obs-overhead gate: default sampled recording vs
/// `LatencyConfig::disabled()` on the mixed handle cell must stay
/// within `NMBST_OBS_TOLERANCE` (relative, default 0.03 — the paper
/// repro's observability budget). `ratio` is the median of the
/// per-pair on/off ratios from the interleaved runs (see the call
/// site for why that's the estimator).
fn check_obs_gate(ratio: f64) -> bool {
    let tolerance = std::env::var("NMBST_OBS_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.03);
    if ratio.is_nan() || ratio <= 0.0 {
        eprintln!("  obs gate: FAIL — degenerate on/off ratio {ratio}");
        return false;
    }
    let ok = ratio >= 1.0 - tolerance;
    println!(
        "  obs gate: {} — recording-on runs at {:.1}% of recording-off (tolerance -{:.0}%)",
        if ok { "ok" } else { "FAIL" },
        ratio * 100.0,
        tolerance * 100.0
    );
    if !ok {
        eprintln!(
            "error: latency recording costs {:.1}% (> {:.0}% budget)",
            (1.0 - ratio) * 100.0,
            tolerance * 100.0
        );
    }
    ok
}

/// A replay target that ships each coalesced session bundle as one
/// BATCH frame on its own blocking connection — the replay engine's
/// [`SessionOp`]s map 1:1 onto wire [`BatchOp`]s.
struct WireTarget {
    client: Client,
    ops: Vec<BatchOp>,
}

impl SessionTarget for WireTarget {
    fn run(&mut self, ops: &[SessionOp]) -> std::io::Result<()> {
        self.ops.clear();
        self.ops.extend(ops.iter().map(|op| match *op {
            SessionOp::Get(k) => BatchOp::Get(k),
            SessionOp::Insert(k, v) => BatchOp::Insert(k, v),
            SessionOp::Remove(k) => BatchOp::Remove(k),
        }));
        self.client.batch(&self.ops).map(drop)
    }
}

/// Everything one replay run produces: the client-side report, the
/// store's metrics, per-worker op counts, the server's BATCH wire-time
/// histogram (the server-side view of the same frames the client's
/// `rtt` histogram timed — the agreement gate compares the two), and
/// the merged slow-op records (server frames + tree ops).
struct ServeRun {
    report: ReplayReport,
    snap: MetricsSnapshot,
    worker_ops: Vec<u64>,
    batch_wire: Histogram,
    slow: Vec<SlowOp>,
    /// BATCH ops executed shard-fused through `execute_batch`.
    batch_fused_ops: u64,
}

/// One fresh-server replay run: bind on loopback, connect one client
/// per replay thread, replay, then shut the server down (joining the
/// workers flushes every pinned handle) before snapshotting metrics.
/// Request timing is read through [`Server::stats_arc`] *after*
/// `shutdown` so every frame's record is certainly published.
fn serving_replay_run(cfg: &ReplayConfig, workers: usize) -> ServeRun {
    let server = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = Arc::clone(server.store());
    let stats = server.stats_arc();
    let targets: Vec<WireTarget> = (0..cfg.clients)
        .map(|_| WireTarget {
            client: Client::connect(server.addr()).expect("connect to server"),
            ops: Vec::new(),
        })
        .collect();
    let report = run_replay(cfg, targets);
    let worker_ops = stats.worker_ops();
    server.shutdown();
    let snap = store.metrics();
    let batch_wire = stats.wire_hist(nmbst_server::wire::OP_BATCH);
    let mut slow = stats.slow_frames();
    slow.extend_from_slice(&snap.slow_ops);
    slow.sort_by_key(|r| std::cmp::Reverse(r.ns));
    ServeRun {
        report,
        snap,
        worker_ops,
        batch_wire,
        slow,
        batch_fused_ops: stats.batch_fused_ops(),
    }
}

fn to_batch_op(op: SessionOp) -> BatchOp {
    match op {
        SessionOp::Get(k) => BatchOp::Get(k),
        SessionOp::Insert(k, v) => BatchOp::Insert(k, v),
        SessionOp::Remove(k) => BatchOp::Remove(k),
    }
}

/// The churn replay's per-connection target: one BATCH frame per
/// *session* (not per bundle), shipped pipelined — several frames in
/// flight on the connection, responses drained in order. Dropped and
/// reopened by the replay engine every `sessions_per_conn` sessions.
struct ChurnTarget {
    client: Client,
    per_session: usize,
    reqs: Vec<Request>,
}

impl SessionTarget for ChurnTarget {
    fn run(&mut self, ops: &[SessionOp]) -> std::io::Result<()> {
        self.reqs.clear();
        self.reqs.extend(
            ops.chunks(self.per_session)
                .map(|chunk| Request::Batch(chunk.iter().copied().map(to_batch_op).collect())),
        );
        for resp in self.client.pipeline(&self.reqs)? {
            if let Response::Err(msg) = resp {
                return Err(std::io::Error::other(format!("server error: {msg}")));
            }
        }
        Ok(())
    }
}

/// Everything one churn replay run produces. No wire histogram here —
/// pipelined frames share socket flushes, so there is no per-frame
/// client RTT population to cross-check against (the agreement gate
/// stays on the `serving_replay` cell, whose target is strictly one
/// frame in flight).
struct ChurnRun {
    report: ReplayReport,
    snap: MetricsSnapshot,
    worker_ops: Vec<u64>,
    backpressure_events: u64,
    /// Every reactor noticed every close: `open_connections` reached 0
    /// after the last client hung up (2 s grace).
    drained: bool,
}

/// One fresh-server churn run: clients open and close their own
/// connections via a redialing factory, bundles go out pipelined.
fn serving_churn_run(cfg: &ReplayConfig, workers: usize) -> ChurnRun {
    let server = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = Arc::clone(server.store());
    let stats = server.stats_arc();
    let addr = server.addr();
    let per_session = cfg.ops_per_session as usize;
    let factories: Vec<_> = (0..cfg.clients)
        .map(|_| {
            move || {
                Ok(ChurnTarget {
                    client: Client::connect(addr)?,
                    per_session,
                    reqs: Vec::new(),
                })
            }
        })
        .collect();
    let report = run_replay_churn(cfg, factories);
    // All clients have hung up; stuck connections are reactor bugs.
    let t0 = Instant::now();
    let mut drained = false;
    while t0.elapsed() < Duration::from_secs(2) {
        if stats.serve_gauges().open_connections == 0 {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let worker_ops = stats.worker_ops();
    let backpressure_events = stats.serve_gauges().backpressure_events;
    server.shutdown();
    let snap = store.metrics();
    ChurnRun {
        report,
        snap,
        worker_ops,
        backpressure_events,
        drained,
    }
}

/// The churn gate: per-worker ops all nonzero (hard fail — churned
/// connections still must reach every reactor's pinned handles), the
/// run actually churned (connections opened exceed the concurrent
/// fleet, which itself is ≥ 8× workers), every connection closed when
/// the clients left, and the paced run finished within
/// `NMBST_CHURN_SLACK` (relative, default 1.0) of its own schedule — a
/// server that can't sustain the offered load drains at capacity
/// instead and overshoots immediately.
fn check_churn_gate(run: &ChurnRun, clients: usize, workers: usize, sched_secs: f64) -> bool {
    let slack = std::env::var("NMBST_CHURN_SLACK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0);
    let mut pass = true;
    for (w, &ops) in run.worker_ops.iter().enumerate() {
        if ops == 0 {
            eprintln!("error: churn worker {w} routed zero ops through its pinned handles");
            pass = false;
        }
    }
    if clients < 8 * workers {
        eprintln!("error: churn fleet of {clients} conns is under 8x the {workers} workers");
        pass = false;
    }
    if run.report.conns <= clients as u64 {
        eprintln!(
            "error: churn run opened only {} connections for {clients} clients — nothing redialed",
            run.report.conns
        );
        pass = false;
    }
    if !run.drained {
        eprintln!("error: connections stuck open after every churn client hung up");
        pass = false;
    }
    let elapsed = run.report.elapsed.as_secs_f64();
    let ceiling = sched_secs * (1.0 + slack);
    if elapsed > ceiling {
        eprintln!(
            "error: paced churn run took {elapsed:.2}s against a {sched_secs:.2}s schedule \
             (ceiling {ceiling:.2}s) — the offered load was not sustained"
        );
        pass = false;
    }
    println!(
        "  churn gate: {} — {} conns over {clients} clients, drained={}, {elapsed:.2}s vs {sched_secs:.2}s schedule",
        if pass { "ok" } else { "FAIL" },
        run.report.conns,
        run.drained,
    );
    pass
}

/// One pipelining arm: `secs` of the seeded uniform GET stream, either
/// blocking one-at-a-time or pipelined in bursts of 8 windows (the
/// window itself still bounds frames in flight). Returns Mops/s.
fn pipeline_arm_mops(
    addr: std::net::SocketAddr,
    pipelined: bool,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> f64 {
    let mut client = Client::connect(addr).expect("connect to server");
    let mut rng = XorShift64Star::from_stream(seed, 0x919);
    let burst = Client::PIPELINE_WINDOW * 8;
    let mut reqs = Vec::with_capacity(burst);
    let mut ops = 0u64;
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    while t0.elapsed() < deadline {
        if pipelined {
            reqs.clear();
            reqs.extend((0..burst).map(|_| Request::Get(rng.next_bounded(key_range))));
            let responses = client.pipeline(&reqs).expect("pipelined gets");
            assert_eq!(responses.len(), reqs.len());
            ops += responses.len() as u64;
        } else {
            let key = rng.next_bounded(key_range);
            std::hint::black_box(client.get(&key).expect("blocking get"));
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// The pipelining gate: the pipelined arm must clear
/// `NMBST_PIPELINE_MIN_SPEEDUP`× the blocking arm (default 2.0). The
/// blocking client pays a full RTT per request; the pipelined client
/// pays one per window — anything under 2× means the window is not
/// actually keeping frames in flight.
fn check_pipeline_gate(serial_mops: f64, pipelined_mops: f64) -> bool {
    let min_speedup = std::env::var("NMBST_PIPELINE_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0);
    let speedup = pipelined_mops / serial_mops;
    let pass = speedup >= min_speedup;
    println!(
        "  pipeline gate: {speedup:.1}x over blocking (floor {min_speedup:.1}x)  [{}]",
        if pass { "ok" } else { "FAIL" }
    );
    if !pass {
        eprintln!(
            "error: pipelined client only {speedup:.2}x the blocking client (need {min_speedup:.1}x)"
        );
    }
    pass
}

/// The batch-fusion gate. The fused serving median must not trail the
/// baseline's `serving_batch_fusion.fused_mops` by more than
/// `NMBST_FUSION_TOLERANCE` (relative, default 0.05; skipped when no
/// baseline has the cell). Hard-fails if the servers recorded **zero
/// finger hits** (the sorted per-shard runs never anchored — fusion
/// silently degraded to root descents) or executed zero ops through
/// `execute_batch` (BATCH frames are not reaching the fused path).
fn check_fusion_gate(fused_mops: f64, fused_finger_hits: u64, fused_ops: u64) -> bool {
    let tolerance = std::env::var("NMBST_FUSION_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.05);
    let mut ok = true;
    if fused_ops == 0 {
        eprintln!(
            "error: serving runs executed zero ops through execute_batch — \
             BATCH frames are not reaching the fused path"
        );
        ok = false;
    }
    if fused_finger_hits == 0 {
        eprintln!(
            "error: fused serving runs recorded zero finger hits — \
             sorted per-shard runs never anchored, wire batches have \
             silently degraded to root descents"
        );
        ok = false;
    }
    let Some(base) = baseline_cell_metric("serving_batch_fusion", "fused_mops") else {
        println!("  fusion gate: no serving_batch_fusion baseline cell — ratio skipped, finger hits {fused_finger_hits}  [{}]",
            if ok { "ok" } else { "FAIL" });
        return ok;
    };
    let floor = base * (1.0 - tolerance);
    let pass = fused_mops >= floor;
    println!(
        "  fusion gate: fused {fused_mops:.3} vs baseline {base:.3} Mops/s (floor {floor:.3}), finger hits {fused_finger_hits}  [{}]",
        if pass && ok { "ok" } else { "FAIL" }
    );
    if !pass {
        eprintln!(
            "error: fused batch serving trails the baseline by more than {:.1}% \
             ({fused_mops:.3} vs {base:.3} Mops/s; NMBST_FUSION_TOLERANCE={tolerance})",
            tolerance * 100.0
        );
        ok = false;
    }
    ok
}

/// `metric` of the `bench` cell in the `NMBST_BASELINE_JSON` file, or
/// `None` when no baseline is set or it has no such cell. Unreadable or
/// unparseable baselines are already fatal in `check_against_baseline`,
/// so they read as `None` here rather than being reported twice.
fn baseline_cell_metric(bench: &str, metric: &str) -> Option<f64> {
    let path = std::env::var("NMBST_BASELINE_JSON")
        .ok()
        .filter(|p| !p.is_empty())?;
    let baseline = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    baseline
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .find_map(|c| {
            (c.get("bench")?.as_str()? == bench)
                .then(|| c.get("metrics")?.get(metric)?.as_f64())
                .flatten()
        })
}

/// The serving gate. Hard-fails if any worker routed zero ops through
/// its pinned handles (traffic got served, but not through the
/// per-shard handle path — the pinning is silently broken), and
/// compares peak capacity against the committed `serving_replay`
/// baseline cell under `NMBST_SERVE_TOLERANCE` (relative, default
/// 0.25 — loopback serving jitters far more than in-process cells).
/// A baseline file without the cell (pre-PR 6) skips the comparison.
fn check_serving_gate(max_mops: f64, worker_ops: &[u64]) -> bool {
    let mut pass = true;
    for (w, &ops) in worker_ops.iter().enumerate() {
        if ops == 0 {
            eprintln!("error: serving worker {w} routed zero ops through its pinned handles");
            pass = false;
        }
    }
    let tolerance = std::env::var("NMBST_SERVE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);
    let Some(base) = baseline_cell_metric("serving_replay", "max_mops") else {
        println!("  serving baseline: no serving_replay baseline cell — skipped");
        return pass;
    };
    let floor = base * (1.0 - tolerance);
    let ok = max_mops >= floor;
    println!(
        "  serving peak {max_mops:.3} Mops/s vs baseline {base:.3} (floor {floor:.3}) — {}",
        if ok { "ok" } else { "FAIL" }
    );
    if !ok {
        eprintln!(
            "error: serving peak capacity trails the baseline by more than {:.0}%",
            tolerance * 100.0
        );
    }
    pass && ok
}

/// The bulk-load gate: the O(n) balanced build must beat loop-insert
/// (shuffled order, handle API) by at least `NMBST_BULK_MIN_SPEEDUP`×
/// (default 2.0). The bulk path allocates from the pool, does zero CAS
/// work, and never re-descends — if it can't clear 2× something is
/// structurally wrong, not jittery.
fn check_bulk_gate(bulk_secs: f64, loop_secs: f64, keys: u64) -> bool {
    let min_speedup = std::env::var("NMBST_BULK_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0);
    let speedup = loop_secs / bulk_secs;
    let pass = speedup >= min_speedup;
    println!(
        "  bulk {:.1} ms vs loop {:.1} ms for {keys} keys — {speedup:.1}x (floor {min_speedup:.1}x)  [{}]",
        bulk_secs * 1e3,
        loop_secs * 1e3,
        if pass { "ok" } else { "REGRESSED" },
    );
    if !pass {
        eprintln!("error: bulk load only {speedup:.2}x faster than shuffled loop-insert (need {min_speedup:.1}x)");
    }
    pass
}

/// The sorted-batch gate: the batched cell must not trail the
/// one-at-a-time cell by more than `NMBST_BATCH_TOLERANCE` (relative,
/// default 0.05 — the finger exists to *win* this cell; the tolerance
/// only absorbs single-core scheduler jitter), and it must have
/// recorded at least one finger hit. A zero hit count with green
/// throughput means the anchor gate is rejecting every op and the
/// batch API silently degraded to root descents.
fn check_batch_gate(singles_mops: f64, batched_mops: f64, finger_hits: u64) -> bool {
    let tolerance = std::env::var("NMBST_BATCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.05);
    let floor = singles_mops * (1.0 - tolerance);
    let fast_enough = batched_mops >= floor;
    let finger_alive = finger_hits > 0;
    println!(
        "  batch gate: batched {batched_mops:.3} Mops/s vs singles {singles_mops:.3} (floor {floor:.3}), finger hits {finger_hits}  [{}]",
        if fast_enough && finger_alive { "ok" } else { "REGRESSED" },
    );
    if !fast_enough {
        eprintln!(
            "error: batched sorted runs trail one-at-a-time by more than {:.1}%",
            tolerance * 100.0
        );
    }
    if !finger_alive {
        eprintln!("error: sorted-batch cell recorded zero finger hits — the anchor gate is dead");
    }
    fast_enough && finger_alive
}

/// The leaf ablation gate, two clauses:
///
/// * **Win** — the fat-leaf read-dominated cell must not trail the
///   `leaf_cap = 1` cell by more than `NMBST_LEAF_TOLERANCE` (relative,
///   default 0.05). Fat leaves exist to win the read path; the
///   tolerance only absorbs single-core scheduler jitter.
/// * **Attribution** — the thin tree's max observed descent depth must
///   be *strictly deeper* than the fat tree's. Both cells run the same
///   seeded key stream, so this is deterministic: if it ever fails, the
///   ablation stopped reproducing the pre-PR 7 one-key-per-leaf shape
///   and the throughput delta no longer isolates leaf compaction.
fn check_leaf_gate(read_dom_mops: [f64; 2], max_depths: [u64; 2]) -> bool {
    let tolerance = std::env::var("NMBST_LEAF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.05);
    let [thin_mops, fat_mops] = read_dom_mops;
    let [thin_depth, fat_depth] = max_depths;
    let floor = thin_mops * (1.0 - tolerance);
    let fast_enough = fat_mops >= floor;
    let shape_ok = thin_depth > fat_depth;
    println!(
        "== leaf gate (tolerance {:.0}%) ==\n  read-dominated fat {fat_mops:.3} Mops/s vs cap-1 {thin_mops:.3} (floor {floor:.3}), depth {fat_depth} vs {thin_depth}  [{}]",
        tolerance * 100.0,
        if fast_enough && shape_ok { "ok" } else { "REGRESSED" },
    );
    if !fast_enough {
        eprintln!(
            "error: fat-leaf read-dominated throughput trails leaf_cap=1 by more than {:.1}%",
            tolerance * 100.0
        );
    }
    if !shape_ok {
        eprintln!(
            "error: leaf_cap=1 ablation no longer reproduces the deep pre-fat-leaf shape \
             (thin max_depth {thin_depth} vs fat {fat_depth}) — attribution lost"
        );
    }
    fast_enough && shape_ok
}

/// The pool ablation gate: pool-on must not trail pool-off on the
/// insert-heavy cell by more than `NMBST_POOL_TOLERANCE` (relative,
/// default 0.10). The pool exists to *win* this cell; the tolerance
/// only absorbs scheduler jitter on shared single-core runners, not a
/// real regression.
fn check_pool_gate(off_mops: f64, on_mops: f64) -> bool {
    let tolerance = std::env::var("NMBST_POOL_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.10);
    let floor = off_mops * (1.0 - tolerance);
    let pass = on_mops >= floor;
    println!(
        "== pool gate (tolerance {:.0}%) ==\n  insert-heavy pool-on {on_mops:.3} Mops/s vs pool-off {off_mops:.3} (floor {floor:.3})  [{}]",
        tolerance * 100.0,
        if pass { "ok" } else { "REGRESSED" },
    );
    if !pass {
        eprintln!(
            "error: pool-on insert-heavy throughput trails pool-off by more than {:.1}%",
            tolerance * 100.0
        );
    }
    pass
}

/// The throughput regression gate: compares this run's mixed and
/// read-dominated single-thread cells against the bench file named by
/// `NMBST_BASELINE_JSON` (no-op when unset). Tolerance is relative, from
/// `NMBST_PERF_TOLERANCE` (default 0.03 = 3%, the observability budget).
fn check_against_baseline(gate_mops: &[(&'static str, &'static str, f64)]) -> bool {
    let Some(baseline_path) = std::env::var("NMBST_BASELINE_JSON")
        .ok()
        .filter(|p| !p.is_empty())
    else {
        return true;
    };
    let tolerance = std::env::var("NMBST_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.03);
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: cannot parse baseline {baseline_path}: {e}");
            return false;
        }
    };
    let cells = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let baseline_mops = |workload: &str, api: &str| -> Option<f64> {
        cells.iter().find_map(|c| {
            let cfg = c.get("config")?;
            (c.get("bench")?.as_str()? == "single_thread_throughput"
                && cfg.get("workload")?.as_str()? == workload
                && cfg.get("api")?.as_str()? == api)
                .then(|| c.get("metrics")?.get("mops")?.as_f64())
                .flatten()
        })
    };

    println!(
        "== baseline gate ({baseline_path}, tolerance {:.0}%) ==",
        tolerance * 100.0
    );
    let mut ok = true;
    for &(workload, api, current) in gate_mops {
        let Some(base) = baseline_mops(workload, api) else {
            println!("  {workload:<24} {api:<10} no baseline cell — skipped");
            continue;
        };
        let floor = base * (1.0 - tolerance);
        let pass = current >= floor;
        ok &= pass;
        println!(
            "  {workload:<24} {api:<10} {current:.3} Mops/s vs baseline {base:.3} (floor {floor:.3})  [{}]",
            if pass { "ok" } else { "REGRESSED" },
        );
        if !pass {
            eprintln!(
                "error: {workload} throughput ({api}) regressed more than {:.1}% vs {baseline_path}",
                tolerance * 100.0
            );
        }
    }
    ok
}
