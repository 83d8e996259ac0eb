//! End-to-end tests over loopback: protocol semantics against a model,
//! concurrent clients, metrics exposition, malformed-frame handling,
//! and clean shutdown.

use nmbst_server::wire::{
    BatchOp, BatchReply, MetricsFormat, Request, OP_BATCH, OP_GET, OP_INSERT, OP_REMOVE,
};
use nmbst_server::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;

fn start(workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// SplitMix64, the workspace's seeded-test idiom.
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
fn point_ops_match_model() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).unwrap();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = Rng(0xE2E);
    c.ping().unwrap();
    for _ in 0..2_000 {
        let r = rng.next();
        let k = r % 256;
        match r % 3 {
            0 => {
                let added = c.insert(k, r).unwrap();
                assert_eq!(added, !model.contains_key(&k), "insert {k}");
                model.entry(k).or_insert(r);
            }
            1 => {
                let removed = c.remove(&k).unwrap();
                assert_eq!(removed, model.remove(&k).is_some(), "remove {k}");
            }
            _ => assert_eq!(c.get(&k).unwrap(), model.get(&k).copied(), "get {k}"),
        }
    }
    // SCAN agrees with the model, ascending.
    let (entries, truncated) = c.scan(0, u64::MAX, 0).unwrap();
    assert!(!truncated);
    assert_eq!(
        entries,
        model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    );
    drop(c);
    server.shutdown();
}

#[test]
fn batch_replies_line_up_with_requests() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).unwrap();
    let replies = c
        .batch(&[
            BatchOp::Insert(1, 10),
            BatchOp::Insert(1, 11), // duplicate → rejected
            BatchOp::Get(1),
            BatchOp::Get(2),
            BatchOp::Remove(1),
            BatchOp::Remove(1),
        ])
        .unwrap();
    assert_eq!(
        replies,
        vec![
            BatchReply::Added(true),
            BatchReply::Added(false),
            BatchReply::Found(10),
            BatchReply::Missing,
            BatchReply::Removed(true),
            BatchReply::Removed(false),
        ]
    );
    assert_eq!(c.batch(&[]).unwrap(), vec![]);
    drop(c);
    server.shutdown();
}

#[test]
fn scan_bounds_and_truncation() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).unwrap();
    let ops: Vec<BatchOp> = (0..100).map(|k| BatchOp::Insert(k, k * 2)).collect();
    c.batch(&ops).unwrap();
    let (entries, truncated) = c.scan(10, 19, 0).unwrap();
    assert!(!truncated);
    assert_eq!(entries, (10..=19).map(|k| (k, k * 2)).collect::<Vec<_>>());
    let (entries, truncated) = c.scan(0, u64::MAX, 7).unwrap();
    assert!(truncated);
    assert_eq!(entries.len(), 7);
    assert_eq!(entries[0], (0, 0), "cap keeps the ascending prefix");
    drop(c);
    server.shutdown();
}

/// `workers` clients hammer disjoint stripes concurrently; the final
/// state and the aggregated metrics must both be exact, and *every*
/// worker must have routed ops through its pinned handle.
#[test]
fn concurrent_clients_and_worker_stats() {
    const WORKERS: usize = 3;
    const PER: u64 = 1_500;
    let server = start(WORKERS);
    std::thread::scope(|s| {
        for w in 0..WORKERS as u64 {
            let addr = server.addr();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..PER {
                    let k = w * PER + i;
                    assert!(c.insert(k, k).unwrap());
                }
                for i in 0..PER {
                    let k = w * PER + i;
                    assert_eq!(c.get(&k).unwrap(), Some(k));
                }
            });
        }
    });
    let total = WORKERS as u64 * PER;
    // The sampling tick + connection teardown flush every handle, so the
    // aggregated snapshot is exact once the clients are gone.
    let m = server.metrics();
    assert_eq!(m.inserted, total);
    assert_eq!(m.size_estimate, total as i64);
    let per_worker = server.stats().worker_ops();
    assert_eq!(per_worker.len(), WORKERS);
    assert_eq!(per_worker.iter().sum::<u64>(), 2 * total);
    for (w, &ops) in per_worker.iter().enumerate() {
        assert!(ops > 0, "worker {w} routed zero ops through its handle");
    }
    assert_eq!(server.stats().connections(), WORKERS as u64);
    server.shutdown();
}

/// A live, mid-connection METRICS scrape must see the ops the serving
/// worker has already executed — the `flush_stats` sampling tick at
/// `flush_every` ops is what makes this hold without waiting for the
/// connection to close.
#[test]
fn live_metrics_see_in_flight_worker() {
    let server = Server::start(ServerConfig {
        workers: 2,
        flush_every: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // Two sampling windows of ops, then scrape *on the same live
    // connection* (the worker never unpinned or dropped its handle).
    let ops: Vec<BatchOp> = (0..128).map(|k| BatchOp::Insert(k, k)).collect();
    c.batch(&ops).unwrap();
    let json = c.metrics(MetricsFormat::Json).unwrap();
    assert!(
        json.contains("\"inserted\":128"),
        "live scrape must not undercount: {json}"
    );
    assert!(json.contains("\"worker_ops\""), "server counters present");

    let prom = c.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(prom.contains("nmbst_inserted_total 128"), "{prom}");
    assert!(prom.contains("nmbst_server_worker_ops_total{worker=\"0\"}"));
    assert!(prom.contains("nmbst_server_connections_total 1"));
    drop(c);
    server.shutdown();
}

/// After exactly-known traffic on one worker, every server counter in
/// the METRICS payload is exact — connections, frames, wire errors,
/// per-worker ops — and the per-opcode timing histograms count each
/// served frame exactly once. The whole Prometheus payload (tree +
/// server sections) must pass the strict exposition validator.
#[test]
fn metrics_scrape_is_exact_and_exposition_valid() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 0..10u64 {
        assert!(c.insert(k, k * 7).unwrap());
    }
    for k in 0..5u64 {
        assert_eq!(c.get(&k).unwrap(), Some(k * 7));
    }
    assert!(c.remove(&9).unwrap());
    c.batch(&[
        BatchOp::Get(0),
        BatchOp::Insert(100, 1),
        BatchOp::Remove(100),
    ])
    .unwrap();
    // A BATCH frame of exactly one chunk's worth of ops.
    let full: Vec<BatchOp> = (0..nmbst::SEARCH_LANES as u64).map(BatchOp::Get).collect();
    c.batch(&full).unwrap();

    // 18 frames served so far; the scrape below is frame 19 and counts
    // itself (the frame counter bumps before execution).
    let json = c.metrics(MetricsFormat::Json).unwrap();
    assert!(json.contains("\"connections\":1"), "{json}");
    assert!(json.contains("\"frames\":19"), "{json}");
    assert!(json.contains("\"wire_errors\":0"), "{json}");
    // 10 inserts + 5 gets + 1 remove + 3 + 16 batched ops, all through
    // the one worker's pinned handle.
    assert!(json.contains("\"worker_ops\":[35]"), "{json}");
    // Blocking frames arrive one per pass, so each data frame is a
    // chunk of its own: 17 chunks of one op, one of 3 and one of 16.
    // Only the 16-op frame fills a chunk, and the reactor writes its
    // reply in mid-pass.
    assert!(
        json.contains(
            "\"batch_fused_ops\":19,\"chunks\":18,\"chunk_ops\":35,\"mid_pass_flushes\":1"
        ),
        "{json}"
    );
    // Per-opcode timing: a frame is recorded after its response is
    // flushed and before the worker reads the next request, so on one
    // connection the scrape sees every earlier frame exactly once.
    for (op, frames) in [("get", 5), ("insert", 10), ("remove", 1), ("batch", 2)] {
        assert!(
            json.contains(&format!("\"{op}\":{{\"wire\":{{\"count\":{frames},")),
            "timing for {op} should count {frames} frames: {json}"
        );
    }
    assert!(json.contains("\"slow_frames\":"), "{json}");
    // The reactor's per-worker serve gauges: this scrape rides the one
    // open connection on the one worker.
    assert!(
        json.contains("\"serve\":{\"open_connections\":[1]"),
        "{json}"
    );
    assert!(json.contains("\"backpressure_events\":[0]"), "{json}");

    // The stats API agrees with the wire payload.
    let stats = server.stats();
    assert_eq!(stats.wire_hist(nmbst_server::wire::OP_INSERT).len(), 10);
    assert_eq!(stats.wire_hist(nmbst_server::wire::OP_BATCH).len(), 2);
    for (op, p) in stats.request_timing() {
        let n = p.wire.len();
        assert_eq!(p.decode.len(), n, "{op}: every phase counts every frame");
        assert_eq!(p.execute.len(), n, "{op}");
        assert_eq!(p.encode.len(), n, "{op}");
        let interior = p.decode.sum() + p.execute.sum() + p.encode.sum();
        assert_eq!(interior, p.wire.sum(), "{op}: phases partition the frame");
    }

    let prom = c.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(prom.contains("nmbst_server_frames_total 20"), "{prom}");
    assert!(
        prom.contains("nmbst_server_request_ns_count{op=\"insert\",phase=\"wire\"} 10"),
        "{prom}"
    );
    assert!(
        prom.contains(
            "nmbst_server_request_ns_bucket{op=\"batch\",phase=\"execute\",le=\"+Inf\"} 2"
        ),
        "{prom}"
    );
    assert!(prom.contains("nmbst_server_slow_frames_total"), "{prom}");
    for line in [
        "nmbst_server_chunks_total 18\n",
        "nmbst_server_chunk_ops_total 35\n",
        "nmbst_server_mid_pass_flushes_total 1\n",
    ] {
        assert!(prom.contains(line), "{line}{prom}");
    }
    assert!(
        prom.contains("nmbst_server_open_connections{worker=\"0\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("nmbst_server_backpressure_events_total{worker=\"0\"} 0"),
        "{prom}"
    );
    nmbst::obs::validate_prometheus(&prom)
        .unwrap_or_else(|e| panic!("server scrape fails exposition validation: {e}\n{prom}"));
    drop(c);
    server.shutdown();
}

/// With a 1 ns slow-frame threshold every frame is "slow": SLOWLOG must
/// return server-origin records for each opcode served, slowest first,
/// and honor its cap. With the tree's slow-op threshold also floored,
/// tree-origin records (sampled point ops) show up in the same log.
#[test]
fn slowlog_serves_merged_slow_records() {
    let server = Server::start(ServerConfig {
        workers: 1,
        slow_frame_ns: 1,
        tree: nmbst::TreeConfig::default()
            .with_latency(nmbst::LatencyConfig::default().with_slow_op_ns(1)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 0..64u64 {
        assert!(c.insert(k, k).unwrap());
    }
    let gets: Vec<BatchOp> = (0..64).map(BatchOp::Get).collect();
    c.batch(&gets).unwrap();

    let log = c.slowlog(0).unwrap();
    assert!(!log.is_empty());
    assert!(
        log.windows(2).all(|w| w[0].ns >= w[1].ns),
        "slowest first: {log:?}"
    );
    let server_kinds: Vec<u8> = log
        .iter()
        .filter(|r| r.origin == 1)
        .map(|r| r.kind)
        .collect();
    assert!(
        server_kinds.contains(&nmbst_server::wire::OP_INSERT),
        "{log:?}"
    );
    assert!(
        server_kinds.contains(&nmbst_server::wire::OP_BATCH),
        "{log:?}"
    );
    // Point-op frames carry their target key.
    assert!(
        log.iter()
            .any(|r| r.origin == 1 && r.kind == nmbst_server::wire::OP_INSERT && r.key == 63),
        "{log:?}"
    );
    // the unsampled whole-batch call timer guarantees tree-origin records
    // (their `kind` is an OpClass discriminant, not an opcode).
    assert!(log.iter().any(|r| r.origin == 0), "{log:?}");

    // The first SLOWLOG frame was itself slow (1 ns threshold), so the
    // set only grew between the calls; the capped head is the slowest.
    let capped = c.slowlog(3).unwrap();
    assert_eq!(capped.len(), 3);
    assert!(capped[0].ns >= log[0].ns, "cap keeps the slowest");
    drop(c);
    server.shutdown();
}

/// Pipelined point and BATCH frames share chunks, yet every frame keeps
/// its own opcode: each lands in its opcode's phase histograms, and
/// (with a 1 ns threshold) deposits one slow-frame record of its
/// opcode carrying its first key.
#[test]
fn pipelined_frames_keep_their_opcode_in_timing_and_slow_records() {
    let server = Server::start(ServerConfig {
        workers: 1,
        slow_frame_ns: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut reqs = Vec::new();
    for i in 0..80u64 {
        reqs.push(match i % 8 {
            0 | 2 | 4 => Request::Get(i),
            1 | 5 => Request::Insert(i, i),
            3 => Request::Remove(i - 2),
            6 => Request::Batch((0..(i % 24)).map(|j| BatchOp::Get(i + j)).collect()),
            _ => Request::Batch(vec![BatchOp::Insert(i, 1), BatchOp::Get(i)]),
        });
    }
    let replies = c.pipeline(&reqs).unwrap();
    assert_eq!(replies.len(), reqs.len());
    let log = c.slowlog(0).unwrap();

    let timing = server.stats().request_timing();
    for (opcode, name) in [
        (OP_GET, "get"),
        (OP_INSERT, "insert"),
        (OP_REMOVE, "remove"),
        (OP_BATCH, "batch"),
    ] {
        let mine: Vec<&Request> = reqs.iter().filter(|r| r.opcode() == opcode).collect();
        let p = &timing.iter().find(|(op, _)| *op == name).unwrap().1;
        for (phase, h) in p.by_phase() {
            assert_eq!(h.len(), mine.len() as u64, "{name} {phase}");
        }
        let mut want: Vec<u64> = mine
            .iter()
            .map(|r| match r {
                Request::Get(k) | Request::Insert(k, _) | Request::Remove(k) => *k,
                Request::Batch(ops) => ops.first().map_or(0, |op| *op.key()),
                _ => unreachable!(),
            })
            .collect();
        let mut got: Vec<u64> = log
            .iter()
            .filter(|r| r.origin == 1 && r.kind == opcode)
            .map(|r| r.key)
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{name} slow-frame records");
    }
    drop(c);
    server.shutdown();
}

/// Malformed frames get an error response and a dropped connection;
/// the server survives and keeps serving new clients.
#[test]
fn malformed_frame_drops_connection_not_server() {
    let server = start(1);

    // Garbage opcode.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&3u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xFF, 0x00, 0x01]).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // error frame, then EOF
    assert!(reply.len() > 5, "an error frame came back");
    assert_eq!(reply[4], 0x01, "status byte = ERR");
    drop(raw);

    // Oversized length prefix: dropped without a reply.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(reply.is_empty());
    drop(raw);

    // The server is still healthy.
    let mut c = Client::connect(server.addr()).unwrap();
    c.ping().unwrap();
    assert!(c.insert(1, 1).unwrap());
    assert_eq!(server.stats().wire_errors(), 1);
    drop(c);
    server.shutdown();
}

/// One BATCH frame whose keys land on every shard, with the shards
/// deliberately interleaved in request order: the fused engine
/// partitions by shard, sorts each run by key, executes per shard, and
/// must scatter every reply back to its request slot — plus exact
/// fused-counter accounting. A second frame interleaves the same-key
/// sequence insert, get, remove, get on one key per shard: the
/// per-shard sort must keep each key's ops in request order.
#[test]
fn batch_spanning_all_shards_scatters_to_request_order() {
    const SHARDS: usize = 4;
    let server = Server::start(ServerConfig {
        workers: 1,
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .unwrap();
    // Pick three keys per shard with the store's own router, so the
    // test tracks the hash function instead of hardcoding it.
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    let mut k = 0u64;
    while per_shard.iter().any(|v| v.len() < 3) {
        let s = server.store().shard_of(&k);
        if per_shard[s].len() < 3 {
            per_shard[s].push(k);
        }
        k += 1;
    }
    // Request order cycles shard 0,1,2,3,0,1,… — maximally scattered,
    // so an engine that forgot to un-permute would fail loudly.
    let keys: Vec<u64> = (0..3)
        .flat_map(|i| per_shard.iter().map(move |v| v[i]))
        .collect();
    let n = keys.len();
    let mut ops: Vec<BatchOp> = keys.iter().map(|&k| BatchOp::Insert(k, k + 1000)).collect();
    ops.extend(keys.iter().map(|&k| BatchOp::Get(k)));
    ops.push(BatchOp::Get(u64::MAX)); // a miss, mid-frame
    ops.extend(keys.iter().map(|&k| BatchOp::Remove(k)));

    let mut c = Client::connect(server.addr()).unwrap();
    let replies = c.batch(&ops).unwrap();
    assert_eq!(replies.len(), ops.len());
    for i in 0..n {
        assert_eq!(replies[i], BatchReply::Added(true), "insert slot {i}");
        assert_eq!(
            replies[n + i],
            BatchReply::Found(keys[i] + 1000),
            "get slot {} must carry key {}'s value",
            n + i,
            keys[i]
        );
        assert_eq!(
            replies[2 * n + 1 + i],
            BatchReply::Removed(true),
            "remove slot {}",
            2 * n + 1 + i
        );
    }
    assert_eq!(replies[2 * n], BatchReply::Missing);

    let stats = server.stats();
    assert_eq!(
        stats.batch_fused_ops(),
        ops.len() as u64,
        "every batched op accounted to the fused path"
    );
    let encode = stats.encode_bytes();
    let batch_bytes = encode.iter().find(|(op, _)| *op == "batch").unwrap().1;
    // 1 status + 4 count + n inserts/removes at 1 byte + n gets at 9 +
    // 1 miss at 1, plus the 4-byte length prefix.
    assert_eq!(batch_bytes, (5 + 2 * n + (9 * n + 1) + 4) as u64);

    // Same-key sequences, one key per shard, interleaved step by step.
    let same_key: Vec<u64> = per_shard.iter().map(|v| v[0]).collect();
    let (mut seq, mut expected) = (Vec::new(), Vec::new());
    for step in 0..4 {
        for &k in &same_key {
            let (op, reply) = match step {
                0 => (BatchOp::Insert(k, k + 7), BatchReply::Added(true)),
                1 => (BatchOp::Get(k), BatchReply::Found(k + 7)),
                2 => (BatchOp::Remove(k), BatchReply::Removed(true)),
                _ => (BatchOp::Get(k), BatchReply::Missing),
            };
            seq.push(op);
            expected.push(reply);
        }
    }
    assert_eq!(
        c.batch(&seq).unwrap(),
        expected,
        "same-key replies in request order"
    );
    assert_eq!(
        stats.batch_fused_ops(),
        (ops.len() + seq.len()) as u64,
        "every batched op accounted to the fused path"
    );
    drop(c);
    server.shutdown();
}

/// Shutdown with an idle connected client joins promptly (the read
/// timeout tick notices the stop flag) and leaves the store intact.
#[test]
fn shutdown_with_idle_connection_joins() {
    let server = start(2);
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.insert(5, 50).unwrap());
    let store = std::sync::Arc::clone(server.store());
    let t0 = std::time::Instant::now();
    server.shutdown(); // client `c` still connected and idle
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown hung on the idle connection"
    );
    assert_eq!(store.get(&5), Some(50), "store survives the server");
}

/// A worker that served one op and went quiet must not hold
/// reclamation in the shards it touched. Two workers, two shards: client
/// A (worker 0, by round-robin assignment) inserts one key and stays
/// connected and silent; client B (worker 1) churns INSERT/REMOVE pairs
/// over both shards. Every pair retires nodes, and the backlog of
/// retired-but-unfreed nodes must stay under four sealed bags per
/// participant (each shard's participants are the two workers). A
/// worker that kept its pin across the silence would let the backlog
/// grow with B's writes instead, and freeze its shard's epoch, which
/// `reclaim_epoch_min` shows.
#[test]
fn quiet_worker_does_not_stall_reclamation() {
    /// `BAG_SEAL_THRESHOLD` in `nmbst_reclaim::ebr`: retirements per
    /// sealed bag.
    const BAG: u64 = 32;
    const PARTICIPANTS: u64 = 2 * 2;
    let server = Server::start(ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut quiet = Client::connect(server.addr()).unwrap();
    assert!(quiet.insert(1 << 40, 1).unwrap());
    let mut churn = Client::connect(server.addr()).unwrap();
    let mut epoch_min = 0;
    for round in 0..4u64 {
        for chunk in 0..64u64 {
            let ops: Vec<BatchOp> = (0..32)
                .flat_map(|i| {
                    let k = (round * 2048 + chunk * 32 + i) % 4096;
                    [BatchOp::Insert(k, k), BatchOp::Remove(k)]
                })
                .collect();
            churn.batch(&ops).unwrap();
        }
        let m = server.metrics();
        let backlog = m.reclaim.retired_backlog;
        assert!(
            backlog <= 4 * BAG * PARTICIPANTS,
            "round {round}: {backlog} retired nodes wait for a quiet worker's pin"
        );
        let min = m.reclaim_epoch_min.expect("a store snapshot has an epoch");
        assert!(
            min > epoch_min,
            "round {round}: a shard's epoch stopped at {min}"
        );
        epoch_min = min;
    }
    drop((quiet, churn));
    server.shutdown();
}
