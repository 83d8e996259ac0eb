//! The serving loop: per-worker **epoll reactors** over one shared
//! non-blocking `TcpListener`, each worker multiplexing many
//! connections through a pinned per-shard [`ShardedMapHandle`].
//!
//! Worker/handle pinning is the design's point: a worker thread owns
//! one `ShardedMapHandle` — one pin-amortizing [`nmbst::MapHandle`] per
//! shard — so every descent that worker makes into a given shard reuses
//! that shard's guard, seek record, and node cache, all resident in the
//! worker's core cache. There is no cross-worker handle sharing and
//! therefore no handle synchronization.
//!
//! Concurrency model: every worker registers the shared listener in its
//! own epoll instance (level-triggered). Whichever worker wakes first
//! accepts, and each accepted connection is assigned **round-robin**
//! across workers — a connection for another worker is handed off
//! through that worker's inbox and an eventfd wake. Each worker drives
//! its connections as non-blocking state machines ([`crate::conn`]):
//! partial frames assemble incrementally, a connection may have many
//! frames in flight (**pipelining** — responses are written in request
//! order, which the FIFO parse→execute→buffer path guarantees), and a
//! connection whose write buffer exceeds `write_budget` stops being
//! read (**backpressure**) until it drains below half the budget.
//!
//! ## Routing policy: connections round-robin, keys inside the worker
//!
//! Connection→worker assignment is deliberately **not** key-affine (no
//! routing by a frame's first key, batch hash, or anything else derived
//! from keys): every worker owns a pinned handle *per shard*, so any
//! worker can serve any key at full handle speed, and a connection's
//! mixed-key traffic never has to hop workers. Key locality is
//! recovered one level down, per chunk: the engine gathers the ops of
//! consecutive data frames (GET, INSERT, REMOVE and BATCH) into one
//! chunk, partitions it by `RouteHasher` shard, sorts each shard's
//! run, executes the runs in two phases — interleaved descents, then
//! writes from their pre-seeked records — through the shards' handles
//! ([`nmbst::ShardedMapHandle::execute_batch`]), and scatters replies
//! back to request order — so pipelined frames overlap their descents'
//! cache misses regardless of which worker the connection landed on.
//!
//! ## Zero-copy serve path
//!
//! A steady-state point or BATCH frame is served without touching the
//! heap: the frame body is a *range* into the connection's assembly
//! buffer (never copied out), its ops decode into the reusable
//! per-reactor chunk, and the response is encoded directly into the
//! connection's write buffer behind a reserved length prefix
//! (`wire::begin_frame`/`end_frame`) — no staging `Vec`, no
//! per-response memcpy. SCAN/METRICS/SLOWLOG still build owned
//! payloads; their cost is the payload, not the framing.
//!
//! Shutdown: a stop flag plus one eventfd signal per worker — the
//! eventfd wake replaces the old dummy-`connect()` hack, which raced
//! against real clients for the accept queue.
//!
//! A worker never blocks pinned: before every `epoll_wait` it unpins its
//! handle if a chunk ran since the last wait, so a quiet worker holds
//! back no shard's reclamation. The unpin also publishes the handle's
//! batched stats (as does every `flush_every` ops of a busy worker),
//! which keeps the METRICS verb's view of in-flight workers honest.

use crate::conn::{Conn, FillOutcome, NextFrame};
use crate::sys::{
    set_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::{
    self, op_name, MetricsFormat, Request, Response, OP_BATCH, OP_COUNT, OP_GET, OP_INSERT,
    OP_REMOVE, STATUS_OK,
};
use nmbst::obs::series::{self, counter, gauge, histogram, PhaseSamples, Series, Value};
use nmbst::obs::slow::SlowRing;
use nmbst::obs::{Histogram, MetricsSnapshot, ServeGauges, SlowOp, SLOW_EVENTS};
use nmbst::{
    BatchCmd, BatchScratch, BatchVerdict, Ebr, ShardedMap, ShardedMapHandle, TreeConfig,
    SEARCH_LANES,
};
use nmbst_sync::CachePadded;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The store the tier serves: `u64 → u64` over epoch-reclaimed sharded
/// trees. Fixed-width keys keep the wire protocol trivial; richer
/// payloads belong in a layer above.
pub type Store = ShardedMap<u64, u64, Ebr>;

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Reactor worker threads, each multiplexing its share of the
    /// connections. Defaults to the machine's available parallelism
    /// (thread-per-core).
    pub workers: usize,
    /// Tree shards in the store; `0` (default) means one per worker.
    pub shards: usize,
    /// Configuration for every shard's tree.
    pub tree: TreeConfig,
    /// Ops between a worker's `flush_stats` sampling ticks.
    pub flush_every: u32,
    /// Frames whose wire time (request assembled → response buffered)
    /// meets this threshold deposit a server-origin [`SlowOp`] into the
    /// server's slow ring (served by the SLOWLOG verb). `0` disables
    /// capture. Default 1 ms.
    pub slow_frame_ns: u64,
    /// Backpressure watermark: a connection whose buffered response
    /// bytes reach this budget stops being read (and therefore stops
    /// having requests executed) until the buffer drains below half.
    /// The buffer may overshoot by one response (responses are queued
    /// whole), so this is a watermark, not a hard cap. Default 256 KiB.
    pub write_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards: 0,
            tree: TreeConfig::default(),
            flush_every: 1024,
            slow_frame_ns: 1_000_000,
            write_budget: 256 * 1024,
        }
    }
}

/// Records the server-level slow-frame ring retains.
const SERVER_SLOW_CAP: usize = 128;

/// Epoll token for the worker's wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX;
/// Epoll token for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Per-phase latency histograms for one request opcode: where a frame's
/// time went. `wire` spans request-assembled → response-buffered;
/// `decode`/`execute`/`encode` partition its interior (encode includes
/// queuing the frame into the connection's write buffer), so
/// `wire = decode + execute + encode` per frame — the breakdown that
/// tells a slow-frame investigation whether the store or the wire
/// handling is the problem. Socket flush time is *not* attributed to
/// individual frames: under pipelining many responses share one write.
/// A data frame served in a chunk (see `Engine`) is timed through its
/// chunk: it records a share of the chunk's decode, execute and encode
/// spans in proportion to its ops, and its `wire` is the sum of the
/// three: the server time the frame cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseHists {
    /// Full frame: request assembled → response buffered.
    pub wire: Histogram,
    /// Decode time: `Request::decode` for a non-data frame; for a data
    /// frame, its share of the chunk's parse-and-decode span (the
    /// chunk's first frame's start to its execution).
    pub decode: Histogram,
    /// Store execution time (the tree/batch/scan work).
    pub execute: Histogram,
    /// `Response::encode` + write-buffer queue time.
    pub encode: Histogram,
}

impl PhaseHists {
    /// The phase histograms with their exposition labels, in fixed
    /// order.
    pub fn by_phase(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("wire", &self.wire),
            ("decode", &self.decode),
            ("execute", &self.execute),
            ("encode", &self.encode),
        ]
    }

    fn merge(&mut self, other: &PhaseHists) {
        self.wire.merge(&other.wire);
        self.decode.merge(&other.decode);
        self.execute.merge(&other.execute);
        self.encode.merge(&other.encode);
    }
}

/// One worker's request timing: a [`PhaseHists`] per opcode, indexed by
/// `opcode - 1`. Behind a per-worker mutex that only the owning worker
/// (per frame) and scrapes (rarely) take — never contended on the
/// serving path, so the lock costs an uncontended CAS per frame.
struct WorkerTiming {
    ops: [PhaseHists; OP_COUNT],
}

impl WorkerTiming {
    fn new() -> Self {
        WorkerTiming {
            ops: std::array::from_fn(|_| PhaseHists::default()),
        }
    }
}

/// One worker's connection gauges, cache-padded like the op counters.
/// `open`/`paused`/`wbuf_bytes` are gauges the owning reactor maintains
/// (exact at its loop boundaries); `backpressure` counts pause
/// transitions monotonically.
#[derive(Debug, Default)]
struct WorkerServe {
    open: AtomicU64,
    paused: AtomicU64,
    wbuf_bytes: AtomicU64,
    backpressure: AtomicU64,
}

/// Server-level counters, one step above the store's tree metrics.
/// Worker op counts are cache-padded like the tree's own counter shards
/// — workers must not ping-pong a stats line while serving.
#[derive(Debug)]
pub struct ServerStats {
    worker_ops: Box<[CachePadded<AtomicU64>]>,
    connections: AtomicU64,
    frames: AtomicU64,
    wire_errors: AtomicU64,
    batch_fused_ops: AtomicU64,
    chunks: AtomicU64,
    chunk_ops: AtomicU64,
    mid_pass_flushes: AtomicU64,
    encode_bytes: Box<[AtomicU64]>,
    timing: Box<[Mutex<WorkerTiming>]>,
    serve: Box<[CachePadded<WorkerServe>]>,
    slow: SlowRing,
    slow_frame_ns: u64,
}

impl std::fmt::Debug for WorkerTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTiming").finish_non_exhaustive()
    }
}

impl ServerStats {
    fn new(workers: usize, slow_frame_ns: u64) -> Self {
        ServerStats {
            worker_ops: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            batch_fused_ops: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            chunk_ops: AtomicU64::new(0),
            mid_pass_flushes: AtomicU64::new(0),
            encode_bytes: (0..OP_COUNT).map(|_| AtomicU64::new(0)).collect(),
            timing: (0..workers)
                .map(|_| Mutex::new(WorkerTiming::new()))
                .collect(),
            serve: (0..workers)
                .map(|_| CachePadded::new(WorkerServe::default()))
                .collect(),
            slow: SlowRing::new(SERVER_SLOW_CAP),
            slow_frame_ns,
        }
    }

    /// Served frames' timing: records each frame's four phase durations
    /// (`[wire, decode, execute, encode]`) into the worker's histograms
    /// for the frame's opcode under one lock, and deposits a slow-frame
    /// record, carrying the frame's opcode and key, for every frame
    /// whose wire time crosses the configured threshold.
    fn record_frames(
        &self,
        worker: usize,
        frames: impl Iterator<Item = (u8, u64, [u64; 4])> + Clone,
    ) {
        {
            let mut t = self.timing[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for (opcode, _, [wire, decode, execute, encode]) in frames.clone() {
                let p = &mut t.ops[usize::from(opcode - 1).min(OP_COUNT - 1)];
                p.wire.record(wire);
                p.decode.record(decode);
                p.execute.record(execute);
                p.encode.record(encode);
            }
        }
        if self.slow_frame_ns == 0 {
            return;
        }
        for (opcode, key, [wire, ..]) in frames {
            if wire >= self.slow_frame_ns {
                self.slow.push(SlowOp {
                    kind: opcode,
                    origin: 1,
                    n_events: 0,
                    key,
                    ns: wire,
                    events: [0; SLOW_EVENTS],
                });
            }
        }
    }

    /// Per-opcode request timing merged across workers, labelled with
    /// the opcode's exposition name, in opcode order. Opcodes that have
    /// served no frames are included (empty histograms).
    pub fn request_timing(&self) -> Vec<(&'static str, PhaseHists)> {
        let mut merged: Vec<PhaseHists> = (0..OP_COUNT).map(|_| PhaseHists::default()).collect();
        for w in self.timing.iter() {
            let t = w.lock().unwrap_or_else(|e| e.into_inner());
            for (dst, src) in merged.iter_mut().zip(t.ops.iter()) {
                dst.merge(src);
            }
        }
        merged
            .into_iter()
            .enumerate()
            .map(|(i, p)| (op_name(i as u8 + 1), p))
            .collect()
    }

    /// The full-frame (wire) latency histogram for one opcode, merged
    /// across workers — e.g. `wire::OP_BATCH` for the replay bench's
    /// server-vs-client percentile cross-check.
    pub fn wire_hist(&self, opcode: u8) -> Histogram {
        let mut h = Histogram::new();
        if opcode == 0 || usize::from(opcode) > OP_COUNT {
            return h;
        }
        for w in self.timing.iter() {
            let t = w.lock().unwrap_or_else(|e| e.into_inner());
            h.merge(&t.ops[usize::from(opcode - 1)].wire);
        }
        h
    }

    /// The server-origin slow-frame records currently retained, oldest
    /// first (the SLOWLOG verb merges these with the store's
    /// tree-origin records and sorts slowest-first).
    pub fn slow_frames(&self) -> Vec<SlowOp> {
        self.slow.snapshot()
    }

    /// Total slow frames ever deposited (including ones the ring has
    /// since overwritten).
    pub fn slow_frames_deposited(&self) -> u64 {
        self.slow.deposited()
    }

    /// Tree operations each worker has routed through its pinned
    /// handles, index-aligned with worker threads. The replay gate
    /// hard-fails if any entry is zero — a worker that served traffic
    /// without touching its handle means the pinning is broken.
    pub fn worker_ops(&self) -> Vec<u64> {
        self.worker_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Request frames served.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Malformed frames (connection dropped after each).
    pub fn wire_errors(&self) -> u64 {
        self.wire_errors.load(Ordering::Relaxed)
    }

    /// Ops of BATCH frames executed shard-fused (partition → per-shard
    /// sorted runs through the two-phase executor → scatter), as part of
    /// the engine's chunks. The fusion gate hard-fails if a server
    /// serves a replay with this at zero.
    pub fn batch_fused_ops(&self) -> u64 {
        self.batch_fused_ops.load(Ordering::Relaxed)
    }

    /// Chunks run: `execute_batch` calls, each over the ops of one or
    /// more consecutive data frames of a parse pass.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Ops executed in those chunks; `chunk_ops / chunks` is the mean
    /// chunk size, which bounds how many descents a chunk can overlap
    /// (at most `nmbst::SEARCH_LANES` at a time).
    pub fn chunk_ops(&self) -> u64 {
        self.chunk_ops.load(Ordering::Relaxed)
    }

    /// Writes the reactors issued in the middle of a parse pass, right
    /// after a full chunk ran, so its replies reach the client before
    /// the next chunk runs.
    pub fn mid_pass_flushes(&self) -> u64 {
        self.mid_pass_flushes.load(Ordering::Relaxed)
    }

    /// Response-frame bytes encoded per opcode (body + 4-byte length
    /// prefix), labelled with the opcode's exposition name, in opcode
    /// order. Error replies are not attributed (the opcode is what
    /// failed to parse).
    pub fn encode_bytes(&self) -> Vec<(&'static str, u64)> {
        self.encode_bytes
            .iter()
            .enumerate()
            .map(|(i, b)| (op_name(i as u8 + 1), b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Attributes one encoded response frame's bytes to its opcode.
    fn note_encode(&self, opcode: u8, bytes: u64) {
        self.encode_bytes[usize::from(opcode - 1).min(OP_COUNT - 1)]
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// This worker's connection gauges (racy point reads).
    fn worker_gauges(&self, w: usize) -> ServeGauges {
        let g = &self.serve[w];
        ServeGauges {
            open_connections: g.open.load(Ordering::Relaxed),
            read_paused_connections: g.paused.load(Ordering::Relaxed),
            write_buffered_bytes: g.wbuf_bytes.load(Ordering::Relaxed),
            backpressure_events: g.backpressure.load(Ordering::Relaxed),
        }
    }

    /// Per-reactor connection/backpressure gauges, index-aligned with
    /// worker threads.
    pub fn worker_serve(&self) -> Vec<ServeGauges> {
        (0..self.serve.len())
            .map(|w| self.worker_gauges(w))
            .collect()
    }

    /// Fleet-aggregate connection gauges — the values the METRICS verb
    /// folds into the store snapshot's `serve` field — combined by
    /// [`MetricsSnapshot::merge`]'s rule for them.
    pub fn serve_gauges(&self) -> ServeGauges {
        let mut total = MetricsSnapshot::default();
        for serve in self.worker_serve() {
            total.merge(&MetricsSnapshot {
                serve,
                ..MetricsSnapshot::default()
            });
        }
        total.serve
    }
}

/// A worker's cross-thread mailbox: connections assigned to it by
/// whichever worker ran the accept, plus the eventfd that wakes its
/// `epoll_wait` (for handoffs and shutdown).
struct WorkerShared {
    inbox: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// A running serving tier over one [`Store`].
///
/// # Examples
///
/// ```
/// use nmbst_server::{Client, Server, ServerConfig};
///
/// let server = Server::start(ServerConfig {
///     workers: 2,
///     ..ServerConfig::default()
/// })
/// .unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// assert!(client.insert(7, 70).unwrap());
/// assert_eq!(client.get(&7).unwrap(), Some(70));
/// drop(client);
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    shared: Vec<Arc<WorkerShared>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and spawns the workers; serving begins before this returns.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let workers = config.workers.max(1);
        let shards = if config.shards == 0 {
            workers
        } else {
            config.shards
        };
        let listener = TcpListener::bind(&config.addr)?;
        set_nonblocking(listener.as_raw_fd())?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let store = Arc::new(Store::with_config(shards, config.tree));
        let stats = Arc::new(ServerStats::new(workers, config.slow_frame_ns));
        let stop = Arc::new(AtomicBool::new(false));
        let rr = Arc::new(AtomicUsize::new(0));
        let shared = (0..workers)
            .map(|_| {
                Ok(Arc::new(WorkerShared {
                    inbox: Mutex::new(Vec::new()),
                    wake: EventFd::new()?,
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let handles = (0..workers)
            .map(|w| {
                let listener = Arc::clone(&listener);
                let shared: Vec<_> = shared.iter().map(Arc::clone).collect();
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let rr = Arc::clone(&rr);
                let flush_every = config.flush_every.max(1);
                let write_budget = config.write_budget.max(1);
                std::thread::Builder::new()
                    .name(format!("nmbst-worker-{w}"))
                    .spawn(move || {
                        worker_loop(
                            w,
                            &listener,
                            &shared,
                            &rr,
                            &store,
                            &stats,
                            &stop,
                            flush_every,
                            write_budget,
                        )
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server {
            addr,
            store,
            stats,
            stop,
            shared,
            workers: handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store being served (e.g. for out-of-band verification).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Server-level counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// A shared handle to the counters that outlives the server — lets
    /// a bench snapshot request timing *after* `shutdown` has joined
    /// the workers, when every frame's record is certainly published.
    pub fn stats_arc(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Aggregated store metrics — the same snapshot the METRICS verb
    /// serves, minus the server counters.
    pub fn metrics(&self) -> nmbst::obs::MetricsSnapshot {
        self.store.metrics()
    }

    /// Stops the reactors (eventfd wake, no dummy connections) and
    /// joins them. Connections are closed where they stand; buffered
    /// responses that have not reached the socket are dropped with
    /// them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for sh in &self.shared {
            sh.wake.signal();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker's reactor state: its epoll instance, connection slab, and
/// pinned store handle. Connections are identified by slab slot, which
/// doubles as the epoll registration token; freed slots are reused only
/// after the event batch that might still reference them has been fully
/// processed (accepts and inbox handoffs are deferred to the end of
/// each loop iteration for exactly this reason).
struct Reactor<'a> {
    idx: usize,
    workers: usize,
    epoll: Epoll,
    listener: &'a TcpListener,
    shared: &'a [Arc<WorkerShared>],
    rr: &'a AtomicUsize,
    stats: &'a ServerStats,
    stop: &'a AtomicBool,
    engine: Engine<'a>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    write_budget: usize,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    idx: usize,
    listener: &TcpListener,
    shared: &[Arc<WorkerShared>],
    rr: &AtomicUsize,
    store: &Store,
    stats: &ServerStats,
    stop: &AtomicBool,
    flush_every: u32,
    write_budget: usize,
) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return,
    };
    if epoll
        .add(shared[idx].wake.fd(), EPOLLIN, TOKEN_WAKE)
        .is_err()
    {
        return;
    }
    if epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .is_err()
    {
        return;
    }
    let mut reactor = Reactor {
        idx,
        workers: shared.len(),
        epoll,
        listener,
        shared,
        rr,
        stats,
        stop,
        engine: Engine::new(idx, store, stats, flush_every),
        slab: Vec::new(),
        free: Vec::new(),
        write_budget,
    };
    reactor.run();
}

impl Reactor<'_> {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::ZERO; 128];
        loop {
            // A worker never blocks pinned: a pin held across a quiet
            // spell would stall reclamation in every shard it touched.
            self.engine.unpin();
            let n = match self.epoll.wait(&mut events, 100) {
                Ok(n) => n,
                Err(_) => {
                    // An epoll failure is unrecoverable for this worker,
                    // but don't spin on it — check the flag and park.
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut accept_ready = false;
            for ev in events.iter().take(n) {
                let ev = *ev; // copy out of the packed buffer
                match ev.data {
                    TOKEN_WAKE => {
                        self.shared[self.idx].wake.drain();
                    }
                    TOKEN_LISTENER => accept_ready = true,
                    slot => self.drive(slot as usize, ev.events),
                }
            }
            // Accepts and handoffs run *after* the event batch: a slot
            // freed while processing the batch must not be reused while
            // stale events for it may remain in `events`.
            if accept_ready {
                self.accept_new();
            }
            self.drain_inbox();
            let buffered: u64 = self
                .slab
                .iter()
                .flatten()
                .map(|c| c.buffered() as u64)
                .sum();
            self.stats.serve[self.idx]
                .wbuf_bytes
                .store(buffered, Ordering::Relaxed);
        }
        self.engine.flush_stats();
        // Dropping the slab closes every connection; zero the gauges so
        // a post-shutdown scrape doesn't report ghosts.
        let g = &self.stats.serve[self.idx];
        g.open.store(0, Ordering::Relaxed);
        g.paused.store(0, Ordering::Relaxed);
        g.wbuf_bytes.store(0, Ordering::Relaxed);
    }

    /// Accepts until `WouldBlock`, assigning each connection
    /// round-robin across workers.
    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.stats.connections.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr.fetch_add(1, Ordering::Relaxed) % self.workers;
                    if target == self.idx {
                        self.register(stream);
                    } else {
                        let sh = &self.shared[target];
                        sh.inbox
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(stream);
                        sh.wake.signal();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Adopts connections other workers' accepts assigned to us.
    fn drain_inbox(&mut self) {
        let pending: Vec<TcpStream> = {
            let mut inbox = self.shared[self.idx]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *inbox)
        };
        for stream in pending {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            self.register(stream);
        }
    }

    /// Registers a new connection in the slab and this worker's epoll.
    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if set_nonblocking(stream.as_raw_fd()).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let mut conn = Conn::new(stream);
        conn.interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), conn.interest, slot as u64)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(conn);
        self.stats.serve[self.idx]
            .open
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one readiness event for a connection slot.
    fn drive(&mut self, slot: usize, ev: u32) {
        let Some(mut conn) = self.slab.get_mut(slot).and_then(Option::take) else {
            return; // stale event for an already-closed slot
        };
        if self.drive_conn(&mut conn, ev, slot) {
            self.slab[slot] = Some(conn);
        } else {
            self.discard(slot, conn);
        }
    }

    /// The per-event state machine. Returns false when the connection
    /// is finished (dropped by the caller, which closes the fd).
    fn drive_conn(&mut self, conn: &mut Conn, ev: u32, slot: usize) -> bool {
        if ev & (EPOLLHUP | EPOLLERR) != 0 {
            return false;
        }
        if ev & EPOLLOUT != 0 {
            if conn.flush().is_err() {
                return false;
            }
            if conn.read_paused && conn.should_resume(self.write_budget) {
                self.unpause(conn);
                // Bytes already sitting in the assembly buffer will not
                // re-trigger EPOLLIN (epoll only sees the socket), so
                // the parse loop must run again right here.
                if !self.process(conn) {
                    return false;
                }
            }
            if conn.close_after_flush && conn.buffered() == 0 {
                return false;
            }
        }
        if ev & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.read_paused && !conn.close_after_flush {
            match conn.fill() {
                Err(_) => return false,
                Ok(outcome) => {
                    if !self.process(conn) {
                        return false;
                    }
                    if outcome == FillOutcome::Eof && !conn.close_after_flush {
                        if conn.buffered() == 0 {
                            return false;
                        }
                        // Responses are still queued: flush, then close.
                        conn.close_after_flush = true;
                    }
                    if conn.close_after_flush && conn.buffered() == 0 {
                        return false;
                    }
                }
            }
        }
        self.update_interest(conn, slot);
        true
    }

    /// Parses and serves every complete frame buffered on `conn`,
    /// pausing at the backpressure watermark. Returns false when the
    /// connection is finished. Each full chunk's replies are written
    /// before the next frame is parsed, and the engine's pending chunk
    /// is run before the pass pauses or returns, so no reply is held
    /// back across passes (or leaks to another connection).
    fn process(&mut self, conn: &mut Conn) -> bool {
        let mut open = true;
        loop {
            if conn.close_after_flush {
                break;
            }
            // The pending chunk's replies count toward the watermark at
            // their largest size, and are queued before any pause.
            let pending = self.engine.reply_bound();
            if conn.should_pause(self.write_budget.saturating_sub(pending)) {
                self.engine.run_chunk(conn.wbuf());
            }
            if conn.should_pause(self.write_budget) {
                if !conn.read_paused {
                    conn.read_paused = true;
                    let g = &self.stats.serve[self.idx];
                    g.paused.fetch_add(1, Ordering::Relaxed);
                    g.backpressure.fetch_add(1, Ordering::Relaxed);
                }
                if conn.flush().is_err() {
                    return false;
                }
                if conn.should_resume(self.write_budget) {
                    self.unpause(conn);
                    continue;
                }
                break;
            }
            match conn.next_frame() {
                NextFrame::Pending => break,
                // An oversized length prefix closes the connection with
                // no reply — a length-prefixed stream cannot resync.
                NextFrame::Oversized => {
                    open = false;
                    break;
                }
                NextFrame::Frame { start, len } => {
                    // Zero-copy hand-off: the request body stays in the
                    // assembly buffer and the response is encoded
                    // straight into the write buffer — the split borrow
                    // proves the two never alias.
                    let (body, wbuf) = conn.frame_and_wbuf(start, len);
                    match self.engine.serve_frame(body, wbuf) {
                        Served::Continue => {}
                        // The client reads and refills its window while
                        // the next chunk runs.
                        Served::Flush => {
                            self.stats.mid_pass_flushes.fetch_add(1, Ordering::Relaxed);
                            if conn.flush().is_err() {
                                return false;
                            }
                        }
                        // An Err frame is queued after every earlier
                        // reply; after a framing error the stream cannot
                        // be trusted, so frames buffered behind the bad
                        // one are discarded with it.
                        Served::Close => conn.close_after_flush = true,
                    }
                }
            }
        }
        self.engine.run_chunk(conn.wbuf());
        if !open {
            return false;
        }
        conn.compact();
        match conn.flush() {
            Err(_) => false,
            Ok(done) => !(conn.close_after_flush && done),
        }
    }

    fn unpause(&self, conn: &mut Conn) {
        conn.read_paused = false;
        self.stats.serve[self.idx]
            .paused
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Re-registers the fd's epoll interest if it changed: EPOLLIN
    /// while reads are allowed, EPOLLOUT while responses are buffered.
    fn update_interest(&self, conn: &mut Conn, slot: usize) {
        let mut want = 0u32;
        if !conn.read_paused && !conn.close_after_flush {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.buffered() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, slot as u64)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Closes a connection: epoll dereg (best-effort — closing the fd
    /// deregisters anyway), gauge updates, slot back on the free list.
    fn discard(&mut self, slot: usize, conn: Conn) {
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        let g = &self.stats.serve[self.idx];
        g.open.fetch_sub(1, Ordering::Relaxed);
        if conn.read_paused {
            g.paused.fetch_sub(1, Ordering::Relaxed);
        }
        self.free.push(slot);
        // `conn` drops here, closing the socket.
    }
}

/// Largest reply bytes one pending frame adds beyond its ops' records:
/// length prefix, status byte and a BATCH reply's count.
const REPLY_FRAME_MAX: usize = 4 + 1 + 4;
/// Largest reply bytes one op adds: a found flag and its value.
const REPLY_OP_MAX: usize = 1 + 8;

/// What serving one frame leaves for the reactor to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// Nothing yet: the frame joined the pending chunk, or was answered
    /// in place.
    Continue,
    /// A full chunk ran and its replies are queued: write them before
    /// parsing the next frame, so the client can refill its window while
    /// the next chunk runs.
    Flush,
    /// The frame was malformed: an Err reply is queued after everything
    /// before it, and the connection closes once it is flushed.
    Close,
}

/// One data frame of the pending chunk.
#[derive(Debug, Clone, Copy)]
struct PendingFrame {
    opcode: u8,
    /// How many of the chunk's `cmds` are its own: each frame's ops
    /// follow the previous frame's.
    ops: u32,
    /// The key its slow-frame record carries: the first op's, else 0.
    key: u64,
}

/// One worker's request-execution engine: the pinned store handle plus
/// every piece of reusable scratch a frame needs, factored out of the
/// reactor so tests can drive the exact serving path in-process (see
/// [`crate::testing`]) without sockets or epoll.
///
/// **Chunks.** Every well-formed GET, INSERT, REMOVE and BATCH frame
/// decodes into the pending chunk: its ops join `cmds` and the frame
/// joins `frames`. The chunk runs as one
/// [`ShardedMapHandle::execute_batch`] and each frame's reply is
/// encoded in frame order — a point frame's from its one verdict, a
/// BATCH frame's as its count plus its slice of the verdicts. It runs:
/// - as soon as it holds [`SEARCH_LANES`] ops (or frames), the number
///   of descents `execute_batch` keeps in flight, and the reactor then
///   writes the replies before it parses on ([`Served::Flush`]);
/// - before any other frame is served, including a malformed one, whose
///   Err reply then follows the chunk's replies;
/// - at the end of every parse pass, and before a backpressure pause
///   ([`Engine::run_chunk`], which the reactor calls).
///
/// `execute_batch` keeps same-key commands in input order and reorders
/// only commands on distinct keys, which is the ordering the wire
/// protocol promises (DESIGN.md §16).
///
/// **Timing.** The chunk is timed, not its frames (see
/// [`PhaseHists`]): its first frame stamps its start, and `run_chunk`
/// shares the parse-and-decode span up to execution, the execute span
/// and the encode span among its frames by op weight.
///
/// Steady state runs allocation-free: ops decode into `cmds`, partition
/// into `scratch`, verdicts land in `out`, and replies are encoded
/// straight into the connection's write buffer behind reserved length
/// prefixes. All of them keep their capacity across chunks.
struct Engine<'a> {
    worker: usize,
    store: &'a Store,
    stats: &'a ServerStats,
    handle: ShardedMapHandle<'a, u64, u64, Ebr>,
    /// Whether a chunk ran through `handle` since the last unpin.
    pinned: bool,
    flush_every: u32,
    ops_since_flush: u32,
    cmds: Vec<BatchCmd<u64, u64>>,
    frames: Vec<PendingFrame>,
    /// When the pending chunk's first frame began decoding.
    chunk_start: Instant,
    scratch: BatchScratch,
    out: Vec<BatchVerdict<u64>>,
}

impl<'a> Engine<'a> {
    fn new(
        worker: usize,
        store: &'a Store,
        stats: &'a ServerStats,
        flush_every: u32,
    ) -> Engine<'a> {
        Engine {
            worker,
            store,
            stats,
            handle: store.handle(),
            pinned: false,
            flush_every: flush_every.max(1),
            ops_since_flush: 0,
            cmds: Vec::with_capacity(SEARCH_LANES),
            frames: Vec::with_capacity(SEARCH_LANES),
            chunk_start: Instant::now(),
            scratch: BatchScratch::new(),
            out: Vec::with_capacity(SEARCH_LANES),
        }
    }

    /// Publishes the handle's batched stats and resets the sampling
    /// countdown (shutdown / test scrape).
    fn flush_stats(&mut self) {
        self.handle.flush_stats();
        self.ops_since_flush = 0;
    }

    /// Releases the handle's pins, if a chunk ran since the last
    /// unpin, publishing its batched stats too. The reactor calls this
    /// before every blocking wait; the next chunk re-pins.
    fn unpin(&mut self) {
        if self.pinned {
            self.handle.unpin();
            self.pinned = false;
            self.ops_since_flush = 0;
        }
    }

    /// Serves one request frame in arrival order (the pipelining
    /// ordering guarantee): a well-formed data frame joins the pending
    /// chunk, which runs once it is full; anything else first runs the
    /// chunk, then is decoded, executed and encoded into `wbuf` behind a
    /// reserved length prefix.
    fn serve_frame(&mut self, body: &[u8], wbuf: &mut Vec<u8>) -> Served {
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        match body.first() {
            Some(&op @ (OP_GET | OP_INSERT | OP_REMOVE | OP_BATCH)) => {
                self.join_chunk(op, body, wbuf)
            }
            _ => {
                self.run_chunk(wbuf);
                self.serve_plain(body, wbuf)
            }
        }
    }

    /// Decodes a data frame into the pending chunk, and runs the chunk
    /// once it fills every lane.
    fn join_chunk(&mut self, opcode: u8, body: &[u8], wbuf: &mut Vec<u8>) -> Served {
        if self.frames.is_empty() {
            self.chunk_start = Instant::now();
        }
        let at = self.cmds.len();
        let cmds = &mut self.cmds;
        let decoded = wire::decode_data_ops(body, |op| cmds.push(op));
        let ops = match decoded {
            Ok(ops) => ops,
            Err(e) => {
                self.cmds.truncate(at);
                self.run_chunk(wbuf);
                return self.wire_error(&e, wbuf);
            }
        };
        self.frames.push(PendingFrame {
            opcode,
            ops: ops as u32,
            key: self.cmds.get(at).map_or(0, |c| *c.key()),
        });
        if self.cmds.len().max(self.frames.len()) >= SEARCH_LANES {
            self.run_chunk(wbuf);
            Served::Flush
        } else {
            Served::Continue
        }
    }

    /// Upper bound on the bytes the pending chunk's replies will add to
    /// the write buffer: the reactor counts them toward the
    /// backpressure watermark before they are queued.
    fn reply_bound(&self) -> usize {
        self.frames.len() * REPLY_FRAME_MAX + self.cmds.len() * REPLY_OP_MAX
    }

    /// Runs the pending chunk, if any: one `execute_batch` over its ops,
    /// then each frame's reply encoded into `wbuf` in frame order. The
    /// chunk is timed, not its frames: each frame is charged a share of
    /// the chunk's decode (its first frame's start to here, parsing
    /// included), execute and encode time in proportion to its ops (a
    /// frame of no ops counts as one), and its wire time is the sum of
    /// its three shares.
    fn run_chunk(&mut self, wbuf: &mut Vec<u8>) {
        if self.frames.is_empty() {
            return;
        }
        let t1 = Instant::now();
        self.pinned = true;
        self.handle
            .execute_batch(&self.cmds, &mut self.scratch, &mut self.out);
        let t2 = Instant::now();
        let mut bytes = [0u64; OP_BATCH as usize];
        let (mut at, mut batch_ops) = (0, 0);
        for f in &self.frames {
            let verdicts = &self.out[at..at + f.ops as usize];
            at += f.ops as usize;
            let mark = wire::begin_frame(wbuf);
            if f.opcode == OP_BATCH {
                batch_ops += u64::from(f.ops);
                wbuf.push(STATUS_OK);
                wbuf.extend_from_slice(&f.ops.to_le_bytes());
                for &v in verdicts {
                    wire::encode_batch_reply(wbuf, v);
                }
            } else {
                wire::encode_point_reply(wbuf, verdicts[0]);
            }
            bytes[usize::from(f.opcode - 1)] += wire::end_frame(wbuf, mark) as u64 + 4;
        }
        let t3 = Instant::now();
        for (i, &b) in bytes.iter().enumerate() {
            if b != 0 {
                self.stats.note_encode(i as u8 + 1, b);
            }
        }

        let n = self.cmds.len() as u64;
        self.stats.chunks.fetch_add(1, Ordering::Relaxed);
        self.stats.chunk_ops.fetch_add(n, Ordering::Relaxed);
        if batch_ops != 0 {
            self.stats
                .batch_fused_ops
                .fetch_add(batch_ops, Ordering::Relaxed);
        }
        self.stats.worker_ops[self.worker].fetch_add(n, Ordering::Relaxed);
        self.ops_since_flush = self.ops_since_flush.saturating_add(n as u32);

        let weight = |f: &PendingFrame| u64::from(f.ops.max(1));
        let total: u64 = self.frames.iter().map(weight).sum();
        let phases = [t1 - self.chunk_start, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64);
        let frames = self.frames.iter().map(|f| {
            let [d, x, e] = phases.map(|ns| ns * weight(f) / total);
            (f.opcode, f.key, [d + x + e, d, x, e])
        });
        self.stats.record_frames(self.worker, frames);
        self.cmds.clear();
        self.frames.clear();
        self.maybe_flush_stats();
    }

    /// Every non-data opcode: the `Request`/`Response` path, with the
    /// response encoded directly into `wbuf`.
    fn serve_plain(&mut self, body: &[u8], wbuf: &mut Vec<u8>) -> Served {
        let t0 = Instant::now();
        let decoded = Request::decode(body);
        let t1 = Instant::now();
        let req = match decoded {
            Ok(req) => req,
            Err(e) => return self.wire_error(&e, wbuf),
        };
        let response = execute(&req, self.store, self.stats);
        let t2 = Instant::now();
        let mark = wire::begin_frame(wbuf);
        response.encode(wbuf);
        let frame_bytes = wire::end_frame(wbuf, mark) as u64 + 4;
        self.stats.note_encode(req.opcode(), frame_bytes);
        let t3 = Instant::now();
        let key = match req {
            Request::Scan { lo, .. } => lo,
            _ => 0,
        };
        let ns = [
            (t3 - t0).as_nanos() as u64,
            (t1 - t0).as_nanos() as u64,
            (t2 - t1).as_nanos() as u64,
            (t3 - t2).as_nanos() as u64,
        ];
        self.stats
            .record_frames(self.worker, std::iter::once((req.opcode(), key, ns)));
        Served::Continue
    }

    /// Queues an Err reply for a malformed frame and reports the
    /// connection unservable. Error bytes are not attributed to an
    /// opcode — the opcode is what failed to parse.
    fn wire_error(&mut self, e: &wire::WireError, wbuf: &mut Vec<u8>) -> Served {
        self.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        let mark = wire::begin_frame(wbuf);
        Response::Err(e.to_string()).encode(wbuf);
        wire::end_frame(wbuf, mark);
        Served::Close
    }

    /// The sampled stats flush: every `flush_every` ops.
    fn maybe_flush_stats(&mut self) {
        if self.ops_since_flush >= self.flush_every {
            self.flush_stats();
        }
    }
}

/// Serves a non-data request. SCAN, METRICS, PING and SLOWLOG read
/// through the store front end, not the worker's pinned handle.
fn execute(req: &Request, store: &Store, stats: &ServerStats) -> Response {
    match req {
        Request::Get(_) | Request::Insert(..) | Request::Remove(_) | Request::Batch(_) => {
            unreachable!("data frames join the engine's chunk")
        }
        Request::Scan { lo, hi, max } => {
            let cap = if *max == 0 { usize::MAX } else { *max as usize };
            // One entry past the cap is enough to tell whether it cut.
            let mut entries = store.range_collect_limit(*lo..=*hi, cap.saturating_add(1));
            let truncated = entries.len() > cap;
            entries.truncate(cap);
            Response::Scan { entries, truncated }
        }
        Request::Metrics(fmt) => Response::Metrics(metrics_text(store, stats, *fmt)),
        Request::Ping => Response::Pong,
        Request::SlowLog { max } => {
            // Merge the two capture layers: the server's slow-frame
            // ring (origin 1, whole frames) and the trees' slow-op
            // rings (origin 0, already merged slowest-first by the
            // store snapshot). Slowest first, like the snapshot.
            let mut records = stats.slow_frames();
            records.extend_from_slice(&store.metrics().slow_ops);
            records.sort_by_key(|r| std::cmp::Reverse(r.ns));
            if *max != 0 {
                records.truncate(*max as usize);
            }
            Response::SlowLog(records)
        }
    }
}

/// The METRICS verb's payload: the aggregated tree snapshot (with the
/// fleet's serve gauges folded in) plus the server's own series, in the
/// requested exposition format. JSON nests the two as `tree` and
/// `server`; Prometheus appends the server's families.
fn metrics_text(store: &Store, stats: &ServerStats, fmt: MetricsFormat) -> String {
    let mut snap = store.metrics();
    snap.serve = stats.serve_gauges();
    match fmt {
        MetricsFormat::Json => format!(
            "{{\"tree\":{},\"server\":{}}}",
            snap.to_json(),
            series::to_json(SERVER_SERIES, stats)
        ),
        MetricsFormat::Prometheus => {
            let mut out = snap.to_prometheus();
            series::to_prometheus(SERVER_SERIES, stats, &mut out);
            out
        }
    }
}

/// The server's own series, in Prometheus order. The JSON object ranks
/// them apart: the scalars and `worker_ops` first, then the per-opcode
/// rows and `slow_frames`, then the per-worker connection gauges
/// nested under `serve` (the aggregate rides in the tree snapshot's
/// `nmbst_serve_*` family).
#[rustfmt::skip]
const SERVER_SERIES: &[Series<ServerStats>] = &[
    counter("nmbst_server_connections_total", "connections",
        Value::Count(ServerStats::connections), "Connections accepted."),
    counter("nmbst_server_frames_total", "frames", Value::Count(ServerStats::frames),
        "Request frames served."),
    counter("nmbst_server_wire_errors_total", "wire_errors",
        Value::Count(ServerStats::wire_errors), "Malformed frames."),
    counter("nmbst_server_batch_fused_ops_total", "batch_fused_ops",
        Value::Count(ServerStats::batch_fused_ops),
        "BATCH ops executed shard-fused (partition, per-shard sorted run, scatter)."),
    counter("nmbst_server_chunks_total", "chunks", Value::Count(ServerStats::chunks),
        "Chunks of data-frame ops run by one execute_batch each."),
    counter("nmbst_server_chunk_ops_total", "chunk_ops", Value::Count(ServerStats::chunk_ops),
        "Ops run in chunks (divided by chunks: the mean chunk size)."),
    counter("nmbst_server_mid_pass_flushes_total", "mid_pass_flushes",
        Value::Count(ServerStats::mid_pass_flushes),
        "Writes issued after a full chunk, before the parse pass went on."),
    counter("nmbst_server_encode_bytes_total", "encode_bytes",
        Value::PerOp(encoded),
        "Response frame bytes encoded per opcode (body plus length prefix).").json_rank(1),
    counter("nmbst_server_worker_ops_total", "worker_ops", Value::PerWorker(ServerStats::worker_ops),
        "Tree ops routed through each worker's pinned handle."),
    gauge("", "serve", Value::Group(&[
        gauge("nmbst_server_open_connections", "open_connections",
            Value::PerWorker(|s| serve_column(s, |g| g.open_connections)),
            "Connections registered with each reactor worker."),
        gauge("nmbst_server_read_paused_connections", "read_paused_connections",
            Value::PerWorker(|s| serve_column(s, |g| g.read_paused_connections)),
            "Connections read-paused by backpressure, per worker."),
        gauge("nmbst_server_write_buffered_bytes", "write_buffered_bytes",
            Value::PerWorker(|s| serve_column(s, |g| g.write_buffered_bytes)),
            "Buffered response bytes per worker."),
        counter("nmbst_server_backpressure_events_total", "backpressure_events",
            Value::PerWorker(|s| serve_column(s, |g| g.backpressure_events)),
            "Read-pause transitions per worker."),
    ]), "").json_rank(2),
    histogram("nmbst_server_request_ns", "timing", Value::PerOpPhase(timing_samples),
        "Request latency by opcode and phase (ns); phase=\"wire\" is the whole frame, \
         decode/execute/encode partition it.").json_rank(1),
    counter("nmbst_server_slow_frames_total", "slow_frames",
        Value::Count(ServerStats::slow_frames_deposited), "Frames over the slow threshold.")
        .json_rank(1),
];

/// One of [`ServerStats::worker_serve`]'s gauges, per worker.
fn serve_column(stats: &ServerStats, gauge: fn(&ServeGauges) -> u64) -> Vec<u64> {
    stats.worker_serve().iter().map(gauge).collect()
}

/// [`ServerStats::encode_bytes`] of the opcodes that encoded any.
fn encoded(stats: &ServerStats) -> Vec<(&'static str, u64)> {
    let bytes = stats.encode_bytes().into_iter();
    bytes.filter(|&(_, b)| b != 0).collect()
}

/// [`ServerStats::request_timing`] of the opcodes that served frames,
/// as labelled histograms.
fn timing_samples(stats: &ServerStats) -> PhaseSamples {
    let phases = |p: PhaseHists| p.by_phase().map(|(ph, h)| (ph, h.clone())).to_vec();
    let served = stats.request_timing().into_iter();
    let served = served.filter(|(_, p)| !p.wire.is_empty());
    served.map(|(op, p)| (op, phases(p))).collect()
}

/// In-process driver for the exact serving path the reactors run —
/// frame bytes in, frame bytes out, through the same `Engine` —
/// without sockets, epoll, or threads. Exists for tests that need the
/// serve path on the *current* thread: chaos hooks are thread-local,
/// and the zero-allocation gate must measure the engine without reactor
/// noise. Not a public API; hidden from docs and exempt from semver.
pub mod testing {
    use super::*;

    /// One worker's `Engine` over a private store, driven directly.
    pub struct LocalEngine<'a> {
        engine: Engine<'a>,
    }

    impl LocalEngine<'_> {
        /// Serves one request body (no length prefix) as a parse pass
        /// of its own, appending the length-prefixed response frame to
        /// `out` — exactly what the reactor queues on the connection.
        /// Returns false on a wire error (the reactor would close the
        /// connection after flushing the Err frame this queued).
        pub fn serve(&mut self, body: &[u8], out: &mut Vec<u8>) -> bool {
            let served = self.engine.serve_frame(body, out);
            self.engine.run_chunk(out);
            served != Served::Close
        }

        /// Serves a pipelined byte stream of length-prefixed request
        /// frames as one parse pass, through the engine entry points the
        /// reactor's pass uses: every complete frame in order, stopping
        /// after a malformed one, then the pending chunk. Appends the
        /// replies to `out` (where the reactor writes a full chunk's
        /// replies to the socket, they simply stay in `out`). Returns
        /// false when a wire error (or an oversized prefix) ended the
        /// pass, as it would end the connection; a trailing incomplete
        /// frame is left unserved.
        pub fn serve_stream(&mut self, mut stream: &[u8], out: &mut Vec<u8>) -> bool {
            let mut ok = true;
            while let wire::FrameSplit::Frame { body_len } = wire::split_frame(stream) {
                ok = self.engine.serve_frame(&stream[4..4 + body_len], out) != Served::Close;
                stream = &stream[4 + body_len..];
                if !ok {
                    break;
                }
            }
            ok &= !matches!(wire::split_frame(stream), wire::FrameSplit::Oversized(_));
            self.engine.run_chunk(out);
            ok
        }

        /// Releases the engine's pins, as the reactor does before every
        /// blocking wait.
        pub fn unpin(&mut self) {
            self.engine.unpin();
        }

        /// The engine's server counters.
        pub fn stats(&self) -> &ServerStats {
            self.engine.stats
        }

        /// The backing store (for out-of-band verification).
        pub fn store(&self) -> &Store {
            self.engine.store
        }

        /// Flushes the handle's batched stats and snapshots the store's
        /// metrics — the batch lane and re-seek counters included.
        pub fn metrics(&mut self) -> nmbst::obs::MetricsSnapshot {
            self.engine.flush_stats();
            self.engine.store.metrics()
        }
    }

    /// Runs `f` with a [`LocalEngine`] over a fresh `shards`-way store.
    /// Slow-frame capture is disabled (threshold 0) and the stats flush
    /// interval is effectively infinite, so `serve` does only what a
    /// steady-state reactor frame does.
    pub fn with_local_engine<T>(shards: usize, f: impl FnOnce(&mut LocalEngine<'_>) -> T) -> T {
        let store = Store::with_config(shards.max(1), TreeConfig::default());
        let stats = ServerStats::new(1, 0);
        let mut local = LocalEngine {
            engine: Engine::new(0, &store, &stats, u32::MAX),
        };
        f(&mut local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BatchOp, OP_PING, OP_SCAN};
    use nmbst::LatencyConfig;

    /// A store and server counters in a fixed state: a two-shard store
    /// whose latency recording is off, and counters, gauges and frame
    /// timings set to fixed values, so no wall-clock value reaches a
    /// scrape. Worker 1 serves only GETs and opcodes past BATCH encode
    /// nothing, so the sparse families' filtering shows too.
    fn fixed_state() -> (Store, ServerStats) {
        let quiet = TreeConfig::default().with_latency(LatencyConfig::disabled());
        let store = Store::with_config(2, quiet);
        for k in 0..40 {
            store.insert(k, k);
        }
        for k in 0..10 {
            store.remove(&k);
        }
        store.flush();
        let stats = ServerStats::new(2, 5_000);
        for (counter, v) in [
            (&stats.connections, 11),
            (&stats.frames, 203),
            (&stats.wire_errors, 2),
            (&stats.batch_fused_ops, 37),
            (&stats.chunks, 19),
            (&stats.chunk_ops, 241),
            (&stats.mid_pass_flushes, 5),
        ] {
            counter.store(v, Ordering::Relaxed);
        }
        for (w, ops) in [(0, 150), (1, 91)] {
            stats.worker_ops[w].store(ops, Ordering::Relaxed);
            let g = &stats.serve[w];
            g.open.store(3 + w as u64, Ordering::Relaxed);
            g.paused.store(w as u64, Ordering::Relaxed);
            g.wbuf_bytes.store(4096 + 7 * w as u64, Ordering::Relaxed);
            g.backpressure.store(9 + 2 * w as u64, Ordering::Relaxed);
        }
        for (opcode, bytes) in [
            (OP_GET, 130),
            (OP_INSERT, 44),
            (OP_BATCH, 901),
            (OP_PING, 5),
        ] {
            stats.note_encode(opcode, bytes);
        }
        let frames = [
            (OP_GET, 7, [900, 100, 600, 200]),
            (OP_INSERT, 8, [7_000, 300, 6_000, 700]),
            (OP_BATCH, 9, [12_000, 1_000, 10_000, 1_000]),
            (OP_SCAN, 10, [3_300, 300, 2_000, 1_000]),
        ];
        stats.record_frames(0, frames.into_iter());
        stats.record_frames(1, std::iter::once((OP_GET, 11, [1_700, 200, 1_000, 500])));
        (store, stats)
    }

    /// Both METRICS formats of a fixed state are pinned byte for byte:
    /// the tree snapshot, the server's own families, their labels and
    /// their order.
    #[test]
    fn metrics_text_matches_its_golden() {
        let (store, stats) = fixed_state();
        for (fmt, golden) in [
            (
                MetricsFormat::Json,
                include_str!("../tests/golden/metrics.json"),
            ),
            (
                MetricsFormat::Prometheus,
                include_str!("../tests/golden/metrics.prom"),
            ),
        ] {
            let text = metrics_text(&store, &stats, fmt);
            if let Some(line) = text.lines().zip(golden.lines()).position(|(a, g)| a != g) {
                panic!(
                    "{fmt:?} differs from its golden at line {}:\n  actual: {:?}\n  golden: {:?}",
                    line + 1,
                    text.lines().nth(line),
                    golden.lines().nth(line),
                );
            }
            assert_eq!(text, golden, "{fmt:?} differs from its golden in length");
        }
        let prom = metrics_text(&store, &stats, MetricsFormat::Prometheus);
        nmbst::obs::validate_prometheus(&prom).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Chunks are timed, not frames, yet a pipelined pass of point and
    /// BATCH frames records exactly one sample per frame in every phase
    /// of its opcode, each frame's wire time is exactly the sum of its
    /// phase shares, and with a 1 ns threshold every frame deposits one
    /// slow-frame record keyed by its first op.
    #[test]
    fn chunk_timing_records_each_frame_once_per_phase() {
        let store = Store::with_config(2, TreeConfig::default());
        let stats = ServerStats::new(1, 1);
        let mut engine = Engine::new(0, &store, &stats, u32::MAX);
        let mut want = Vec::new();
        let mut wbuf = Vec::new();
        for i in 0..40u64 {
            let k = 1_000 + i;
            let req = match i % 8 {
                0..=2 => Request::Get(k),
                3 => Request::Insert(k, i),
                4 => Request::Remove(k),
                5 => Request::Batch(vec![BatchOp::Get(k), BatchOp::Insert(k + 1, 1)]),
                // More ops than a chunk holds.
                6 => Request::Batch((k..k + 20).map(BatchOp::Get).collect()),
                _ => Request::Batch(Vec::new()),
            };
            want.push((req.opcode(), if i % 8 == 7 { 0 } else { k }));
            let mut body = Vec::new();
            req.encode(&mut body);
            engine.serve_frame(&body, &mut wbuf);
        }
        engine.run_chunk(&mut wbuf);
        assert!(stats.chunks() >= 4, "the pass ran in several chunks");

        let timing = stats.request_timing();
        for (opcode, frames) in [(OP_GET, 15), (OP_INSERT, 5), (OP_REMOVE, 5), (OP_BATCH, 15)] {
            let (op, p) = &timing[usize::from(opcode - 1)];
            for (phase, h) in p.by_phase() {
                assert_eq!(h.len(), frames, "{op} {phase}");
            }
            let interior = p.decode.sum() + p.execute.sum() + p.encode.sum();
            assert_eq!(interior, p.wire.sum(), "{op}: wire is d + x + e");
        }
        let mut slow: Vec<(u8, u64)> = stats
            .slow_frames()
            .iter()
            .map(|r| (r.kind, r.key))
            .collect();
        slow.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            slow, want,
            "one slow record per frame, keyed by its first op"
        );
        assert_eq!(stats.slow_frames_deposited(), 40);
    }
}
