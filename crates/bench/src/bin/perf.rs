//! The hot-path perf harness: one declarative table of cells ([`CELLS`])
//! run by [`nmbst_bench::cells::run_table`], written as an
//! `nmbst-bench-v1` bench file (`BENCH_PR16.json` unless
//! `NMBST_BENCH_JSON` names another path).
//!
//! Each cell lists its arms and its gates; the runner interleaves the
//! arms, takes the median of [`K`](nmbst_bench::cells::K) runs, prints
//! one verdict line per gate, and exits non-zero if any gate fails.
//! Every bound is a constant in its cell's row. The bin reads five
//! variables:
//!
//! * `NMBST_SECS` — measured seconds per time-budgeted run (default
//!   1.0; CI uses 0.2);
//! * `NMBST_SESSIONS` — sessions per serving replay (default 1 000 000;
//!   CI uses 60 000);
//! * `NMBST_BENCH_JSON` — where to write the bench file;
//! * `NMBST_BASELINE_JSON` — the committed bench file the baseline
//!   gates compare against (unset: those gates are skipped);
//! * `NMBST_SLOWLOG_PATH` — where a failing run writes the slow-op
//!   records of every arm's median run (default `SLOWLOG_DUMP.txt`).

use nmbst::obs::hist::Histogram;
use nmbst::obs::{MetricsSnapshot, SlowOp};
use nmbst::{LatencyConfig, MapHandle, NmTreeMap, RestartPolicy, TagMode, TreeConfig};
use nmbst_bench::cells::{render_slowlog, run_table, Arm, Built, Cell, Cmp, Env, Gate, Rhs, Run};
use nmbst_bench::json::{self, Json};
use nmbst_bench::obj;
use nmbst_harness::adapter::{NmEbr, NmLeaky};
use nmbst_harness::replay::{
    run_replay, run_replay_churn, ReplayConfig, ReplayReport, SessionTarget,
};
use nmbst_harness::rng::XorShift64Star;
use nmbst_harness::workload::OpKind;
use nmbst_harness::{prepopulate, SortedBatchGen, Workload};
use nmbst_reclaim::Reclaim;
use nmbst_server::wire::{BatchOp, Request, Response};
use nmbst_server::{Client, Server, ServerConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Key range of the single-thread tree cells.
const KEY_RANGE: u64 = 1_000;
/// Workload seed of every cell.
const SEED: u64 = 0x5EED;
/// Key range of the contended cell: small on purpose, because local
/// restarts only pay off when CAS failures actually happen.
const CONTENDED_RANGE: u64 = 128;
/// Keys of the bulk-load cell. Fixed, not time-budgeted: build cost is
/// what is measured, and below ~10k keys fixed per-tree costs drown the
/// asymptotic difference.
const BULK_KEYS: u64 = 100_000;
/// Run length of the sorted-batch cell.
const BATCH_LEN: usize = 32;
/// Workers (and blocking clients) of every serving cell.
const SERVE_WORKERS: usize = 2;
/// Fraction of calibrated peak capacity the paced serving runs offer,
/// so p999 measures queueing under a sustainable load, not drain time.
const SERVE_UTIL: f64 = 0.7;

/// Which front end drives the operations.
#[derive(Clone, Copy, PartialEq)]
enum Api {
    /// The plain API: every call pins and unpins the reclaimer.
    PerOpPin,
    /// A [`MapHandle`] holding its guard across operations.
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

#[inline]
fn plain_op<R: Reclaim>(set: &NmTreeMap<u64, (), R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => set.contains(&key),
        OpKind::Insert => set.insert(key, ()),
        OpKind::Delete => set.remove(&key),
    }
}

#[inline]
fn handle_op<R: Reclaim>(h: &mut MapHandle<'_, u64, (), R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => h.contains(&key),
        OpKind::Insert => h.insert(key, ()),
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
    let set: NmEbr = NmTreeMap::with_config(config);
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

/// Operations per slice of [`interleaved_mops`]: about half a
/// millisecond of single-thread handle ops, long enough that the two
/// timer reads per slice cost nothing, short enough that host drift
/// and interference spikes span many slices of both sides.
const SLICE_OPS: u64 = 4_096;

/// Single-thread handle throughput of two trees that differ only in
/// their configs, measured within one run in alternating slices of
/// [`SLICE_OPS`] operations, so drift and interference land on both
/// sides alike instead of on whichever side happened to run during
/// them. Both trees start from the same keys and see the same operation
/// sequence, and each side runs `secs` of measured slices. Returns
/// (Mops/s, ops, final metrics snapshot) per side.
fn interleaved_mops(
    configs: [TreeConfig; 2],
    workload: Workload,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> [(f64, u64, MetricsSnapshot); 2] {
    let sets = configs.map(|config| {
        let set: NmEbr = NmTreeMap::with_config(config);
        prepopulate(&set, key_range, seed);
        set
    });
    let mut handles = [sets[0].handle(), sets[1].handle()];
    let mut rngs = [(); 2].map(|()| XorShift64Star::from_stream(seed, 1));
    let mut ops = [0u64; 2];
    let mut elapsed = [Duration::ZERO; 2];

    let mut phase = |budget: Duration, measured: bool| {
        let mut spent = [Duration::ZERO; 2];
        let mut slices = 0u64;
        while spent[0] + spent[1] < 2 * budget {
            for (side, (h, rng)) in handles.iter_mut().zip(&mut rngs).enumerate() {
                let t0 = Instant::now();
                for _ in 0..SLICE_OPS {
                    let key = 1 + rng.next_bounded(key_range);
                    std::hint::black_box(handle_op(h, workload.pick(rng), key));
                }
                spent[side] += t0.elapsed();
            }
            slices += 1;
        }
        if measured {
            for side in 0..2 {
                ops[side] += slices * SLICE_OPS;
                elapsed[side] += spent[side];
            }
        }
    };
    phase(Duration::from_secs_f64((secs * 0.2).min(0.2)), false);
    phase(Duration::from_secs_f64(secs), true);
    drop(handles);
    [0, 1].map(|side| {
        let mops = ops[side] as f64 / elapsed[side].as_secs_f64() / 1e6;
        (mops, ops[side], sets[side].metrics())
    })
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
    let set: NmEbr = NmTreeMap::with_config(TreeConfig::default().with_restart(restart));
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
    let set: NmEbr = NmTreeMap::new();
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
    let set: NmLeaky = NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
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
    let bulk: NmEbr = NmTreeMap::from_sorted_iter((1..=n).map(|k| (k, ())));
    let bulk_secs = t0.elapsed().as_secs_f64();
    assert_eq!(bulk.count(), n as usize, "bulk build lost keys");
    drop(bulk);

    let mut keys: Vec<u64> = (1..=n).collect();
    let mut rng = XorShift64Star::from_stream(seed, 4);
    for i in (1..keys.len()).rev() {
        let j = rng.next_bounded((i + 1) as u64) as usize;
        keys.swap(i, j);
    }
    let set: NmEbr = NmTreeMap::new();
    let t1 = Instant::now();
    let mut h = set.handle();
    for &k in &keys {
        std::hint::black_box(h.insert(k, ()));
    }
    drop(h);
    let loop_secs = t1.elapsed().as_secs_f64();
    assert_eq!(set.count(), n as usize, "loop build lost keys");
    (bulk_secs, loop_secs)
}

/// One single-thread sorted-batch throughput measurement: identical
/// Zipf-clustered ascending runs driven through the handle batch entry
/// points (`batched = true`) or the same handle one key at a time.
/// Both sides amortize pinning through the handle. In the batched arm
/// the writes run finger-anchored (`insert_batch`/`remove_batch`) and
/// the GETs in `get_many`'s interleaved lanes (`get_batch`), so
/// the delta is the finger on writes plus the lanes on reads (plus
/// per-batch dispatch overhead).
/// Returns (Mops/s, ops, final metrics snapshot).
fn sorted_batch_mops(
    batched: bool,
    key_range: u64,
    batch_len: usize,
    secs: f64,
    seed: u64,
) -> (f64, u64, MetricsSnapshot) {
    let set: NmEbr = NmTreeMap::new();
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
                            std::hint::black_box(h.get_batch(buf.iter().copied()));
                        }
                        OpKind::Insert => {
                            std::hint::black_box(h.insert_batch(buf.iter().map(|&k| (k, ()))));
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

/// A replay target that ships each coalesced session bundle as one
/// BATCH frame on its own blocking connection.
struct WireTarget {
    client: Client,
}

impl SessionTarget for WireTarget {
    fn run(&mut self, ops: &[BatchOp]) -> std::io::Result<()> {
        self.client.batch(ops).map(drop)
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
    fn run(&mut self, ops: &[BatchOp]) -> std::io::Result<()> {
        self.reqs.clear();
        self.reqs.extend(
            ops.chunks(self.per_session)
                .map(|chunk| Request::Batch(chunk.to_vec())),
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

/// The perf table. Arm indices in the gates follow each builder's arm
/// order, noted on the row. Bounds are the ones CI has enforced; the
/// golden-list test below pins every one of them.
const CELLS: &[Cell] = &[
    // Arms: {write, mixed, read}-dominated × {per_op_pin, handle}.
    Cell {
        name: "single_thread_throughput",
        rank: "mops",
        build: single_thread,
        gates: &[
            Gate::Baseline(2, "mops", 0.25),
            Gate::Baseline(3, "mops", 0.25),
            Gate::Baseline(4, "mops", 0.25),
            Gate::Baseline(5, "mops", 0.25),
        ],
    },
    // Arms: restart=root, restart=local. Free-running writers on 128 keys
    // must make the local-restart path fire at least once. Ranked by the
    // gated metric: a host phase that leaves the threads one core makes
    // conflicts (and restarts) rare in the runs it covers, and the median
    // keeps such runs out.
    Cell {
        name: "contended_throughput",
        rank: "local_restarts",
        build: contended,
        gates: &[Gate::Invariant(
            1,
            "local_restarts",
            Cmp::Gt,
            Rhs::Const(0.0),
        )],
    },
    // Arms: per_op_pin, handle.
    Cell {
        name: "latency",
        rank: "p99_ns",
        build: latency,
        gates: &[],
    },
    // Arms: per_op_pin, handle. The paper's Table 1 at leaf_cap = 1:
    // insert 2 allocs / 1 CAS, delete 0 allocs / 3 atomics.
    Cell {
        name: "table1_exact",
        rank: "insert_allocs",
        build: table1_exact,
        gates: &[
            Gate::Invariant(0, "insert_allocs", Cmp::Eq, Rhs::Const(2.0)),
            Gate::Invariant(0, "insert_atomics", Cmp::Eq, Rhs::Const(1.0)),
            Gate::Invariant(0, "delete_allocs", Cmp::Eq, Rhs::Const(0.0)),
            Gate::Invariant(0, "delete_atomics", Cmp::Eq, Rhs::Const(3.0)),
            Gate::Invariant(1, "insert_allocs", Cmp::Eq, Rhs::Const(2.0)),
            Gate::Invariant(1, "insert_atomics", Cmp::Eq, Rhs::Const(1.0)),
            Gate::Invariant(1, "delete_allocs", Cmp::Eq, Rhs::Const(0.0)),
            Gate::Invariant(1, "delete_atomics", Cmp::Eq, Rhs::Const(3.0)),
        ],
    },
    // Arms: {read-dominated, mixed} × leaf_cap {1, LEAF_CAP}. Fat leaves
    // must win the read path, and the thin tree must stay strictly deeper
    // so the delta is attributable to leaf compaction.
    Cell {
        name: "leaf_ablation",
        rank: "mops",
        build: leaf_ablation,
        gates: &[
            Gate::Sibling((1, "mops"), (0, "mops"), 0.85),
            Gate::Invariant(
                0,
                "obs.max_depth",
                Cmp::Gt,
                Rhs::Metric(1, "obs.max_depth", 1.0),
            ),
        ],
    },
    // One arm timing both builds. Anything under 2x is structural.
    Cell {
        name: "bulk_load",
        rank: "speedup",
        build: bulk_load,
        gates: &[Gate::Sibling((0, "loop_secs"), (0, "bulk_secs"), 2.0)],
    },
    // Arms: singles, batched. Zero finger hits would mean the anchor gate
    // silently degraded every batch op to a root descent.
    Cell {
        name: "sorted_batch",
        rank: "mops",
        build: sorted_batch,
        gates: &[
            Gate::Sibling((1, "mops"), (0, "mops"), 0.85),
            Gate::Invariant(1, "obs.finger_hits", Cmp::Gt, Rhs::Const(0.0)),
        ],
    },
    // Arms: {mixed, read-dominated} × recording {off, on}. Each
    // workload's off and on arms share every run: one run alternates
    // slices of the two trees, so a pair ratio carries no host drift.
    Cell {
        name: "obs_overhead",
        rank: "mops",
        build: obs_overhead,
        gates: &[
            Gate::Sibling((1, "mops"), (0, "mops"), 0.90),
            Gate::Invariant(1, "lat_samples", Cmp::Gt, Rhs::Const(0.0)),
            Gate::Invariant(3, "lat_samples", Cmp::Gt, Rhs::Const(0.0)),
        ],
    },
    // One arm. Every worker must route ops through its pinned handles,
    // and client RTT and server wire time cover the same BATCH frames:
    // equal counts, server p99 within two-sided bucket error of client
    // p99, and client p99 under 100x server p99 (a unit-mismatch
    // tripwire; loopback syscalls legitimately dominate small frames).
    Cell {
        name: "serving_replay",
        rank: "p999_ns",
        build: serving_replay,
        gates: &[
            Gate::Baseline(0, "max_mops", 0.5),
            Gate::Invariant(0, "worker_ops", Cmp::Gt, Rhs::Const(0.0)),
            Gate::Invariant(0, "frames", Cmp::Eq, Rhs::Metric(0, "client_frames", 1.0)),
            Gate::Invariant(
                0,
                "server_wire_p99_ns",
                Cmp::Le,
                Rhs::Metric(0, "client_rtt_p99_ns", 1.3),
            ),
            Gate::Invariant(
                0,
                "client_rtt_p99_ns",
                Cmp::Le,
                Rhs::Metric(0, "server_wire_p99_ns", 100.0),
            ),
        ],
    },
    // One arm: 16 connections redialing over 2 workers. A collapsed
    // server drains at capacity, not at the offered rate, and overruns
    // its own schedule.
    Cell {
        name: "serving_churn",
        rank: "p999_ns",
        build: serving_churn,
        gates: &[
            Gate::Invariant(0, "worker_ops", Cmp::Gt, Rhs::Const(0.0)),
            Gate::Invariant(0, "clients", Cmp::Ge, Rhs::Metric(0, "workers", 8.0)),
            Gate::Invariant(0, "conns", Cmp::Gt, Rhs::Metric(0, "clients", 1.0)),
            Gate::Invariant(0, "drained", Cmp::Eq, Rhs::Const(1.0)),
            Gate::Invariant(
                0,
                "elapsed_secs",
                Cmp::Le,
                Rhs::Metric(0, "schedule_secs", 3.0),
            ),
        ],
    },
    // One arm timing blocking then pipelined GETs each repeat. Under
    // 1.5x means the window is not actually in flight.
    Cell {
        name: "pipelining",
        rank: "speedup",
        build: pipelining,
        gates: &[Gate::Sibling(
            (0, "pipelined_mops"),
            (0, "serial_mops"),
            1.5,
        )],
    },
    // One arm. Zero lane ops would mean fused BATCH frames arriving over
    // TCP stopped reaching execute_batch's interleaved Phase-1 lanes.
    Cell {
        name: "serving_batch_fusion",
        rank: "fused_mops",
        build: serving_batch_fusion,
        gates: &[
            Gate::Baseline(0, "fused_mops", 0.15),
            Gate::Invariant(0, "batch_lane_ops", Cmp::Gt, Rhs::Const(0.0)),
            Gate::Invariant(0, "batch_fused_ops", Cmp::Gt, Rhs::Const(0.0)),
        ],
    },
];

/// Config of a single-thread tree cell: `first`, then the common fields.
fn tree_config(env: &Env, first: Json) -> Json {
    first.join(obj! {
        "threads" => Json::Int(1), "key_range" => KEY_RANGE, "secs" => env.secs, "seed" => SEED,
    })
}

fn mops_metrics(mops: f64, ops: u64, snap: &MetricsSnapshot) -> Run {
    let lat_samples = snap.latency.len();
    let obs = snapshot_json(snap);
    obj! { "mops" => mops, "ops" => ops, "lat_samples" => lat_samples, "obs" => obs }.into()
}

/// A single-thread tree cell: one arm per workload × variant (labels,
/// front end, tree config), each run a fresh tree measured by
/// [`single_thread_mops`].
fn tree_cell(
    env: &Env,
    workloads: &[Workload],
    variants: &[(Json, Api, TreeConfig)],
    config: Json,
) -> Built {
    let secs = env.secs;
    let mut arms = Vec::new();
    for &workload in workloads {
        for (labels, api, tree) in variants.iter().cloned() {
            let labels = obj! { "workload" => workload.name }.join(labels);
            arms.push(Arm::new(labels, move |_| {
                let (mops, ops, snap) =
                    single_thread_mops(api, tree, workload, KEY_RANGE, secs, SEED);
                mops_metrics(mops, ops, &snap)
            }));
        }
    }
    (config, arms)
}

fn single_thread(env: &Env) -> Built {
    let variants = [Api::PerOpPin, Api::Handle]
        .map(|api| (obj! { "api" => api.label() }, api, TreeConfig::default()));
    tree_cell(
        env,
        &Workload::FIGURE4,
        &variants,
        tree_config(env, obj! {}),
    )
}

fn handle_config(env: &Env) -> Json {
    tree_config(env, obj! { "api" => Api::Handle.label() })
}

fn leaf_ablation(env: &Env) -> Built {
    let variants = [1, nmbst::LEAF_CAP].map(|cap| {
        (
            obj! { "leaf_cap" => cap },
            Api::Handle,
            TreeConfig::default().with_leaf_cap(cap),
        )
    });
    let workloads = [Workload::READ_DOMINATED, Workload::MIXED];
    tree_cell(env, &workloads, &variants, handle_config(env))
}

/// Two arms fed by one measurement of both: whichever of them runs a
/// repeat first calls `measure`, and the other one's run of that repeat
/// returns the second half. The runner runs repeat `r` of every arm
/// before repeat `r + 1` of any, so each call serves one repeat of both.
fn paired_arms(labels: [Json; 2], measure: impl FnMut() -> [Run; 2] + 'static) -> [Arm; 2] {
    let shared = Rc::new(RefCell::new((measure, [None, None])));
    let [first, second] = labels;
    [(0, first), (1, second)].map(|(mine, labels)| {
        let shared = Rc::clone(&shared);
        Arm::new(labels, move |_| {
            let (measure, halves) = &mut *shared.borrow_mut();
            if halves[mine].is_none() {
                *halves = measure().map(Some);
            }
            halves[mine].take().expect("filled above")
        })
    })
}

fn obs_overhead(env: &Env) -> Built {
    let secs = env.secs;
    let configs = [LatencyConfig::disabled(), LatencyConfig::default()]
        .map(|lat| TreeConfig::default().with_latency(lat));
    let mut arms = Vec::new();
    for workload in [Workload::MIXED, Workload::READ_DOMINATED] {
        let labels =
            ["off", "on"].map(|rec| obj! { "workload" => workload.name, "recording" => rec });
        arms.extend(paired_arms(labels, move || {
            interleaved_mops(configs, workload, KEY_RANGE, secs, SEED)
                .map(|(mops, ops, snap)| mops_metrics(mops, ops, &snap))
        }));
    }
    let shift = u64::from(LatencyConfig::default().sample_shift);
    let config = tree_config(
        env,
        obj! { "api" => Api::Handle.label(), "sample_shift" => shift, "slice_ops" => SLICE_OPS },
    );
    (config, arms)
}

fn sorted_batch(env: &Env) -> Built {
    let secs = env.secs;
    let arms = [false, true].map(|batched| {
        let label = if batched { "batched" } else { "singles" };
        Arm::new(obj! { "api" => label }, move |_| {
            let (mops, ops, snap) = sorted_batch_mops(batched, KEY_RANGE, BATCH_LEN, secs, SEED);
            mops_metrics(mops, ops, &snap)
        })
    });
    let config = tree_config(
        env,
        obj! { "workload" => Workload::MIXED.name, "batch_len" => BATCH_LEN },
    );
    (config, arms.into())
}

fn contended(env: &Env) -> Built {
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(4, 8);
    let secs = env.secs;
    let arms = [
        (RestartPolicy::Root, "root"),
        (RestartPolicy::Local, "local"),
    ]
    .map(|(restart, label)| {
        Arm::new(obj! { "restart" => label }, move |_| {
            let (mops, ops, seeks, restarts) =
                contended_mops(restart, threads, CONTENDED_RANGE, secs, SEED);
            obj! { "mops" => mops, "ops" => ops, "seeks" => seeks, "local_restarts" => restarts }
                .into()
        })
    });
    let config = obj! {
        "workload" => Workload::WRITE_DOMINATED.name, "threads" => threads,
        "key_range" => CONTENDED_RANGE, "secs" => secs, "seed" => SEED,
    };
    (config, arms.into())
}

fn latency(env: &Env) -> Built {
    let ops = ((env.secs * 200_000.0) as u64).clamp(10_000, 2_000_000);
    let arms = [Api::PerOpPin, Api::Handle].map(|api| {
        Arm::new(obj! { "api" => api.label() }, move |_| {
            let h = latency_hist(api, KEY_RANGE, ops, SEED);
            let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
            obj! {
                "p50_ns" => p50, "p99_ns" => p99, "p999_ns" => p999,
                "mean_ns" => h.mean(), "max_ns" => h.max(),
            }
            .into()
        })
    });
    let config = obj! {
        "workload" => Workload::MIXED.name, "threads" => Json::Int(1),
        "key_range" => KEY_RANGE, "ops" => ops, "seed" => SEED,
    };
    (config, arms.into())
}

fn table1_exact(_: &Env) -> Built {
    let arms = [Api::PerOpPin, Api::Handle].map(|api| {
        Arm::new(obj! { "api" => api.label() }, move |_| {
            let (ia, da, iat, dat) = table1_counts(api);
            let ok = ia == 2.0 && da == 0.0 && iat == 1.0 && dat == 3.0;
            obj! {
                "insert_allocs" => ia, "delete_allocs" => da,
                "insert_atomics" => iat, "delete_atomics" => dat, "ok" => ok,
            }
            .into()
        })
    });
    let config = obj! { "tag_mode" => format!("{:?}", TagMode::FetchOr) };
    (config, arms.into())
}

fn bulk_load(_: &Env) -> Built {
    let arm = Arm::new(obj! {}, |_| {
        let (bulk_secs, loop_secs) = bulk_load_pair(BULK_KEYS, SEED);
        let (speedup, rate) = (loop_secs / bulk_secs, BULK_KEYS as f64 / bulk_secs / 1e6);
        obj! {
            "bulk_secs" => bulk_secs, "loop_secs" => loop_secs,
            "speedup" => speedup, "bulk_mkeys_per_sec" => rate,
        }
        .into()
    });
    let config = obj! {
        "keys" => BULK_KEYS, "loop_order" => "shuffled",
        "loop_api" => Api::Handle.label(), "seed" => SEED,
    };
    (config, vec![arm])
}

/// Config of a serving cell's replay, then `rest`.
fn replay_config(cfg: &ReplayConfig, rest: Json) -> Json {
    let common = obj! {
        "workload" => cfg.workload.name, "sessions" => cfg.sessions,
        "ops_per_session" => u64::from(cfg.ops_per_session), "workers" => SERVE_WORKERS,
        "clients" => cfg.clients, "key_range" => cfg.key_range, "zipf_theta" => cfg.zipf_theta,
    };
    common.join(rest)
}

/// Calibrates peak capacity with every session of `base` due at t=0,
/// then returns `base` paced at [`SERVE_UTIL`] of it, so p999 measures
/// queueing under a sustainable load, not drain time, along with the
/// peak's metrics. Calibration covers the full session count: the store
/// grows during the run, so a short calibration would measure a small,
/// fast tree and overestimate the sustainable rate.
fn pace(base: ReplayConfig, run: impl Fn(&ReplayConfig) -> ReplayReport) -> (ReplayConfig, Json) {
    let calib = run(&ReplayConfig {
        arrival_rate: f64::INFINITY,
        ..base.clone()
    });
    let rate = calib.sessions_per_sec();
    let peak = obj! { "max_mops" => calib.mops(), "max_sessions_per_sec" => rate };
    (
        ReplayConfig {
            arrival_rate: rate * SERVE_UTIL,
            ..base
        },
        peak,
    )
}

/// `peak`, then the client-side replay metrics of `report`, then `rest`.
fn replay_metrics(peak: &Json, r: &ReplayReport, rest: Json) -> Json {
    let (p50, p99, p999) = (
        r.percentile_ns(50.0),
        r.percentile_ns(99.0),
        r.percentile_ns(99.9),
    );
    let client = obj! {
        "mops" => r.mops(), "sessions_per_sec" => r.sessions_per_sec(), "ops" => r.ops,
        "p50_ns" => p50, "p99_ns" => p99, "p999_ns" => p999,
    };
    peak.clone().join(client).join(rest)
}

fn worker_ops_json(worker_ops: &[u64]) -> Json {
    Json::Arr(worker_ops.iter().map(|&o| Json::from(o)).collect())
}

/// The serving tier end to end: open-loop session replay against the
/// TCP server over loopback, paced (see [`pace`]).
fn serving_replay(env: &Env) -> Built {
    let base = ReplayConfig {
        sessions: env.sessions,
        clients: SERVE_WORKERS,
        seed: SEED,
        ..ReplayConfig::default()
    };
    let (paced, peak) = pace(base, |c| serving_replay_run(c, SERVE_WORKERS).report);
    let config = replay_config(
        &paced,
        obj! { "util" => SERVE_UTIL, "arrival_rate" => paced.arrival_rate, "seed" => SEED },
    );
    let arm = Arm::new(obj! {}, move |_| {
        let run = serving_replay_run(&paced, SERVE_WORKERS);
        let (rtt, wire) = (&run.report.rtt, &run.batch_wire);
        let metrics = replay_metrics(
            &peak,
            &run.report,
            obj! {
                "client_rtt_p50_ns" => rtt.percentile(50.0),
                "client_rtt_p99_ns" => rtt.percentile(99.0),
                "server_wire_p50_ns" => wire.percentile(50.0),
                "server_wire_p99_ns" => wire.percentile(99.0),
                "frames" => wire.len(), "client_frames" => rtt.len(),
                "slow_records" => run.slow.len(), "batch_fused_ops" => run.batch_fused_ops,
                "worker_ops" => worker_ops_json(&run.worker_ops),
                "obs" => snapshot_json(&run.snap),
            },
        );
        Run {
            metrics,
            slow: run.slow,
        }
    });
    (config, vec![arm])
}

/// Connection churn: every client redials every 32 sessions and ships
/// per-session BATCH frames pipelined, with 8x more connections than
/// workers, paced (see [`pace`]).
fn serving_churn(env: &Env) -> Built {
    let base = ReplayConfig {
        sessions: (env.sessions / 4).max(1_000),
        clients: SERVE_WORKERS * 8,
        sessions_per_conn: 32,
        seed: SEED,
        ..ReplayConfig::default()
    };
    let (paced, peak) = pace(base, |c| serving_churn_run(c, SERVE_WORKERS).report);
    let schedule_secs = paced.sessions as f64 / paced.arrival_rate;
    let config = replay_config(
        &paced,
        obj! {
            "sessions_per_conn" => paced.sessions_per_conn, "util" => SERVE_UTIL,
            "arrival_rate" => paced.arrival_rate, "seed" => SEED,
        },
    );
    let arm = Arm::new(obj! {}, move |_| {
        let run = serving_churn_run(&paced, SERVE_WORKERS);
        replay_metrics(&peak, &run.report, obj! {
            "conns" => run.report.conns, "backpressure_events" => run.backpressure_events,
            "drained" => u64::from(run.drained), "elapsed_secs" => run.report.elapsed.as_secs_f64(),
            "schedule_secs" => schedule_secs, "worker_ops" => worker_ops_json(&run.worker_ops),
            "obs" => snapshot_json(&run.snap),
        })
        .into()
    });
    (config, vec![arm])
}

/// One client, the same seeded uniform GET stream, blocking then
/// pipelined against one long-lived server preloaded with every other
/// key, so GETs split hit/miss.
fn pipelining(env: &Env) -> Built {
    let server = Server::start(ServerConfig {
        workers: SERVE_WORKERS,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let mut client = Client::connect(server.addr()).expect("connect to server");
    let preload: Vec<BatchOp> = (0..KEY_RANGE)
        .step_by(2)
        .map(|k| BatchOp::Insert(k, k))
        .collect();
    for chunk in preload.chunks(1024) {
        client.batch(chunk).expect("preload batch");
    }
    let secs = env.secs;
    // The arm owns the server; dropping the arm shuts it down.
    let arm = Arm::new(obj! {}, move |rep| {
        let seed = SEED ^ rep as u64;
        let serial = pipeline_arm_mops(server.addr(), false, KEY_RANGE, secs, seed);
        let pipelined = pipeline_arm_mops(server.addr(), true, KEY_RANGE, secs, seed);
        let speedup = pipelined / serial;
        obj! { "serial_mops" => serial, "pipelined_mops" => pipelined, "speedup" => speedup }.into()
    });
    let config = obj! {
        "workload" => "uniform_get", "window" => Client::PIPELINE_WINDOW, "threads" => Json::Int(1),
        "workers" => SERVE_WORKERS, "key_range" => KEY_RANGE, "secs" => secs, "seed" => SEED,
    };
    (config, vec![arm])
}

/// Shard-fused BATCH serving at drain rate: high-occupancy frames (the
/// `coalesce` / `coalesce_ops` replay knobs fill and cap them) over a
/// dense 2^14-key range, where sorted per-shard runs land on adjacent
/// leaves. The default replay shape leaves the tree so small a slice of
/// loopback wall time that the cell would measure syscall jitter.
fn serving_batch_fusion(env: &Env) -> Built {
    let cfg = ReplayConfig {
        sessions: (env.sessions / 4).max(1_000),
        clients: SERVE_WORKERS,
        arrival_rate: f64::INFINITY,
        key_range: 1 << 14,
        coalesce: 256,
        coalesce_ops: 768,
        seed: SEED,
        ..ReplayConfig::default()
    };
    let config = replay_config(
        &cfg,
        obj! { "coalesce_ops" => cfg.coalesce_ops, "seed" => SEED },
    );
    let arm = Arm::new(obj! {}, move |_| {
        let run = serving_replay_run(&cfg, SERVE_WORKERS);
        obj! {
            "fused_mops" => run.report.mops(), "batch_lane_ops" => run.snap.batch_lane_ops,
            "batch_reseeks" => run.snap.batch_reseeks,
            "batch_fused_ops" => run.batch_fused_ops,
            "obs" => snapshot_json(&run.snap),
        }
        .into()
    });
    (config, vec![arm])
}

fn main() {
    let env = Env::from_env();
    let path_var = |name: &str| std::env::var(name).ok().filter(|p| !p.is_empty());
    let mut failures = Vec::new();
    let baseline = path_var("NMBST_BASELINE_JSON").and_then(|path| {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        parsed
            .map_err(|e| failures.push(format!("cannot read baseline {path}: {e}")))
            .ok()
    });
    let out = run_table(CELLS, &env, baseline.as_ref());

    let out_path = path_var("NMBST_BENCH_JSON").unwrap_or_else(|| "BENCH_PR16.json".into());
    json::write_bench_file(std::path::Path::new(&out_path), &out.rows).expect("write bench json");
    println!("wrote {} cells to {out_path}", out.rows.len());

    failures.extend(out.failures);
    if !failures.is_empty() {
        for msg in &failures {
            eprintln!("error: {msg}");
        }
        let slowlog = path_var("NMBST_SLOWLOG_PATH").unwrap_or_else(|| "SLOWLOG_DUMP.txt".into());
        match std::fs::write(&slowlog, render_slowlog(&out.slow)) {
            Ok(()) => eprintln!("wrote {} slow-op records to {slowlog}", out.slow.len()),
            Err(e) => eprintln!("failed to write slowlog dump to {slowlog}: {e}"),
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gate the perf bin enforces, with the bound CI has enforced.
    /// Dropping or loosening a gate fails here.
    #[test]
    fn table_holds_every_gate_with_its_ci_bound() {
        let got: Vec<String> = CELLS
            .iter()
            .flat_map(|c| c.gates.iter().map(move |g| format!("{}: {g}", c.name)))
            .collect();
        let want = [
            "single_thread_throughput: arm2.mops >= (1 - 0.25) x baseline",
            "single_thread_throughput: arm3.mops >= (1 - 0.25) x baseline",
            "single_thread_throughput: arm4.mops >= (1 - 0.25) x baseline",
            "single_thread_throughput: arm5.mops >= (1 - 0.25) x baseline",
            "contended_throughput: arm1.local_restarts > 0",
            "table1_exact: arm0.insert_allocs == 2",
            "table1_exact: arm0.insert_atomics == 1",
            "table1_exact: arm0.delete_allocs == 0",
            "table1_exact: arm0.delete_atomics == 3",
            "table1_exact: arm1.insert_allocs == 2",
            "table1_exact: arm1.insert_atomics == 1",
            "table1_exact: arm1.delete_allocs == 0",
            "table1_exact: arm1.delete_atomics == 3",
            "leaf_ablation: median(arm1.mops / arm0.mops) >= 0.85",
            "leaf_ablation: arm0.obs.max_depth > arm1.obs.max_depth",
            "bulk_load: median(arm0.loop_secs / arm0.bulk_secs) >= 2",
            "sorted_batch: median(arm1.mops / arm0.mops) >= 0.85",
            "sorted_batch: arm1.obs.finger_hits > 0",
            "obs_overhead: median(arm1.mops / arm0.mops) >= 0.9",
            "obs_overhead: arm1.lat_samples > 0",
            "obs_overhead: arm3.lat_samples > 0",
            "serving_replay: arm0.max_mops >= (1 - 0.5) x baseline",
            "serving_replay: arm0.worker_ops > 0",
            "serving_replay: arm0.frames == arm0.client_frames",
            "serving_replay: arm0.server_wire_p99_ns <= 1.3 x arm0.client_rtt_p99_ns",
            "serving_replay: arm0.client_rtt_p99_ns <= 100 x arm0.server_wire_p99_ns",
            "serving_churn: arm0.worker_ops > 0",
            "serving_churn: arm0.clients >= 8 x arm0.workers",
            "serving_churn: arm0.conns > arm0.clients",
            "serving_churn: arm0.drained == 1",
            "serving_churn: arm0.elapsed_secs <= 3 x arm0.schedule_secs",
            "pipelining: median(arm0.pipelined_mops / arm0.serial_mops) >= 1.5",
            "serving_batch_fusion: arm0.fused_mops >= (1 - 0.15) x baseline",
            "serving_batch_fusion: arm0.batch_lane_ops > 0",
            "serving_batch_fusion: arm0.batch_fused_ops > 0",
        ];
        assert_eq!(got, want);
    }

    /// The gates index arms by position; pin that each gated arm of the
    /// in-process cells is the one its gate means. Building these cells
    /// only creates closures, so this runs nothing.
    #[test]
    fn gated_arms_are_the_intended_ones() {
        let env = Env {
            secs: 0.01,
            sessions: 1_000,
        };
        let labels = |build: fn(&Env) -> Built| -> Vec<String> {
            (build)(&env).1.iter().map(|a| a.labels.render()).collect()
        };
        let mixed = Workload::MIXED.name;
        let read = Workload::READ_DOMINATED.name;
        let st = labels(single_thread);
        for (arm, workload, api) in [
            (2, mixed, "per_op_pin"),
            (3, mixed, "handle"),
            (4, read, "per_op_pin"),
            (5, read, "handle"),
        ] {
            assert_eq!(
                st[arm],
                format!(r#"{{"workload":"{workload}","api":"{api}"}}"#)
            );
        }
        assert_eq!(labels(contended)[1], r#"{"restart":"local"}"#);
        assert_eq!(
            labels(table1_exact),
            [r#"{"api":"per_op_pin"}"#, r#"{"api":"handle"}"#]
        );
        let leaf = labels(leaf_ablation);
        assert_eq!(leaf[0], format!(r#"{{"workload":"{read}","leaf_cap":1}}"#));
        assert_eq!(
            leaf[1],
            format!(r#"{{"workload":"{read}","leaf_cap":{}}}"#, nmbst::LEAF_CAP)
        );
        assert_eq!(
            labels(sorted_batch),
            [r#"{"api":"singles"}"#, r#"{"api":"batched"}"#]
        );
        let obs = labels(obs_overhead);
        assert_eq!(
            obs[0],
            format!(r#"{{"workload":"{mixed}","recording":"off"}}"#)
        );
        assert_eq!(
            obs[1],
            format!(r#"{{"workload":"{mixed}","recording":"on"}}"#)
        );
        assert_eq!(
            obs[3],
            format!(r#"{{"workload":"{read}","recording":"on"}}"#)
        );
    }
}
