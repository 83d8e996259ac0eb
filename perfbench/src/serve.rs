//! `serve_batch` and `serve_point`: the TCP server, driven over one
//! connection by one client thread. One in-order connection lets a
//! sequential model predict every reply exactly, so every reply is
//! checked.
//!
//! The untraced run drives an open loop from this thread on a
//! non-blocking socket: frames are sent on a fixed schedule (at most
//! [`WINDOW`] in flight) and each is timed from when it was due, so a
//! stall is charged to every request it delays.
//!
//! The traced run times blocking `Client` calls over TCP, then replays
//! the identical request stream in-process through the layers the
//! server uses — wire decode, `execute_batch` or `MapHandle` ops, wire
//! encode — timing each call. What the replay cannot account for of the
//! client round trip is `server.gap_us`: reactor, syscalls and loopback.

use crate::config::{Workload, SHARDS};
use crate::embed::{shard_layer, shard_runs, tree_layer};
use crate::gen::{point_reply, point_request, Checker, OpGen, Shadow};
use crate::pin;
use crate::stats::{percentile_sorted, quantile, rss_bytes, Windows};
use crate::trace::{write_spans, Trace, NO_PARENT};
use crate::{
    ladder_metrics, layer_report, ratio, spans_path, Args, Report, Rung, Slice, BEHIND_SHARE,
    FULL_SHARE, LADDER_SHARE, RATE_Q, ROUNDS, SETUP_Q, WARM_SHARE, WINDOW_NS,
};
use nmbst::{BatchCmd, BatchScratch, BatchVerdict, TreeConfig};
use nmbst_server::wire::{self, BatchOp, BatchReply, FrameSplit, Request, Response, OP_BATCH};
use nmbst_server::{Client, Server, ServerConfig, Store};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Frames in flight on the one connection.
const WINDOW: usize = Client::PIPELINE_WINDOW;
/// How long in-flight frames may take to drain after a phase ends.
const DRAIN_NS: u64 = 10_000_000_000;
/// Pause instructions between empty reads of the open-loop client.
const IDLE_SPINS: u32 = 16;
/// Queued request bytes that are written without waiting for more frames.
const FLUSH_BYTES: usize = 1024;
/// Longest the client sleeps waiting for a reply before it looks at the
/// clock again.
const WAIT_MS: i32 = 5;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Keys read back from the store after the untraced run.
const SPOT_CHECKS: u64 = 1000;

fn prefill(store: &Store, order: &[(u64, u64)]) {
    let mut h = store.handle();
    for &(k, v) in order {
        h.insert(k, v);
    }
}

/// Set-up: server start and prefill. The server's worker inherits the
/// quieter CPU from this thread; the thread then moves to CPU 0, where it
/// prefills and later runs the client.
fn start_server(order: &[(u64, u64)]) -> Result<Server, String> {
    if let Some(cpu) = pin::cpu(pin::QUIET) {
        pin::pin_to(cpu);
    }
    let server = Server::start(ServerConfig {
        workers: 1,
        shards: SHARDS,
        ..ServerConfig::default()
    });
    if let Some(cpu) = pin::cpu(0) {
        pin::pin_to(cpu);
    }
    let server = server.map_err(|e| format!("server start: {e}"))?;
    prefill(server.store(), order);
    Ok(server)
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The client side of the open loop: one non-blocking connection with
/// its send and receive buffers and the frames in flight.
struct Conn {
    stream: TcpStream,
    batch_ops: usize,
    out: Vec<u8>,
    out_at: usize,
    inb: Vec<u8>,
    in_at: usize,
    in_end: usize,
    body: Vec<u8>,
    batch: Vec<BatchOp>,
    /// Due time (ns since the phase origin) and opcode per frame in
    /// flight, oldest first; their ops in request order.
    pending: VecDeque<(u64, u8)>,
    ops: VecDeque<BatchOp>,
    frames_sent: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, batch_ops: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            batch_ops,
            out: Vec::with_capacity(1 << 16),
            out_at: 0,
            inb: vec![0; 1 << 20],
            in_at: 0,
            in_end: 0,
            body: Vec::with_capacity(1 << 12),
            batch: Vec::with_capacity(batch_ops),
            pending: VecDeque::with_capacity(64),
            ops: VecDeque::with_capacity(64 * batch_ops),
            frames_sent: 0,
        })
    }

    /// Generates one frame and appends it to the send buffer.
    fn queue(&mut self, gen: &mut OpGen, due_ns: u64) {
        self.body.clear();
        let opcode = if self.batch_ops == 1 {
            let op = gen.next();
            self.ops.push_back(op);
            let req = point_request(op);
            req.encode(&mut self.body);
            req.opcode()
        } else {
            self.batch.clear();
            for _ in 0..self.batch_ops {
                let op = gen.next();
                self.batch.push(op);
                self.ops.push_back(op);
            }
            let req = Request::Batch(std::mem::take(&mut self.batch));
            req.encode(&mut self.body);
            if let Request::Batch(v) = req {
                self.batch = v;
            }
            OP_BATCH
        };
        wire::write_frame(&mut self.out, &self.body).expect("writing to a Vec cannot fail");
        self.pending.push_back((due_ns, opcode));
        self.frames_sent += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived and checks every complete reply,
    /// calling `done(due_ns, recv_ns, ops)` per frame. Returns whether
    /// anything was read.
    fn poll(
        &mut self,
        origin: Instant,
        chk: &mut Checker,
        mut done: impl FnMut(u64, u64, u64),
    ) -> io::Result<bool> {
        if self.in_end == self.inb.len() {
            self.inb.copy_within(self.in_at..self.in_end, 0);
            self.in_end -= self.in_at;
            self.in_at = 0;
        }
        match self.stream.read(&mut self.inb[self.in_end..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.in_end += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(e),
        }
        let recv_ns = origin.elapsed().as_nanos() as u64;
        loop {
            let body_len = match wire::split_frame(&self.inb[self.in_at..self.in_end]) {
                FrameSplit::Incomplete(_) => break,
                FrameSplit::Oversized(n) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply of {n} bytes"),
                    ))
                }
                FrameSplit::Frame { body_len } => body_len,
            };
            let (due, opcode) = self.pending.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply with no request")
            })?;
            let body = &self.inb[self.in_at + 4..self.in_at + 4 + body_len];
            let n = if opcode == OP_BATCH {
                self.batch_ops
            } else {
                1
            };
            let mut next = || self.ops.pop_front().expect("ops of an in-flight frame");
            match Response::decode(opcode, body) {
                Ok(Response::Batch(replies)) if replies.len() == n => {
                    for reply in replies {
                        chk.check(next(), Some(reply));
                    }
                }
                Ok(resp) if n == 1 => chk.check(next(), point_reply(&resp)),
                _ => (0..n).for_each(|_| chk.check(next(), None)),
            }
            self.in_at += 4 + body_len;
            done(due, recv_ns, n as u64);
        }
        if self.in_at == self.in_end {
            self.in_at = 0;
            self.in_end = 0;
        }
        Ok(true)
    }

    /// Blocks until the socket is readable, or for at most
    /// [`WAIT_MS`].
    fn wait_readable(&self) -> io::Result<()> {
        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `fd` is one valid `pollfd` and the count passed is 1.
        if unsafe { poll(&mut fd, 1, WAIT_MS) } < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Counts the ops of frames that will never be answered as failed.
    fn abandon(&mut self, chk: &mut Checker) {
        while let Some(op) = self.ops.pop_front() {
            chk.check(op, None);
        }
        self.pending.clear();
    }
}

/// What one open-loop phase measured.
struct Drive {
    /// Completed ops per window of `WINDOW_NS`, by receive time.
    window_ops: Vec<u64>,
    completed: u64,
    elapsed_ns: u64,
    late_p99_ns: f64,
    /// Frames the schedule made due, and frames sent, by the phase end.
    due: f64,
    sent: u64,
}

impl Drive {
    /// Completed ops per second of every whole window.
    fn rates(&self) -> Vec<f64> {
        let whole = self.window_ops.len().saturating_sub(1).max(1);
        self.window_ops[..whole]
            .iter()
            .map(|&n| n as f64 / (WINDOW_NS as f64 / 1e9))
            .collect()
    }
}

/// Runs the open loop for `secs`. `pace` is the rate in thousands of ops
/// per second and where each frame's latency goes, or `None` for full
/// pressure, every request due at once. Frames in flight at the end are
/// drained before it returns.
fn drive(
    conn: &mut Conn,
    gen: &mut OpGen,
    chk: &mut Checker,
    w: &Workload,
    mut pace: Option<(f64, &mut Windows)>,
    secs: f64,
    late: &mut Vec<u32>,
) -> io::Result<Drive> {
    let origin = Instant::now();
    let end_ns = (secs * 1e9) as u64;
    let period = pace.as_ref().map(|(k, _)| w.batch_ops as f64 * 1e6 / k);
    let mut window_ops = vec![0u64; (end_ns / WINDOW_NS) as usize + 1];
    let mut completed = 0u64;
    let mut sent = 0u64;
    late.clear();
    loop {
        let now = origin.elapsed().as_nanos() as u64;
        if now < end_ns {
            while conn.pending.len() < WINDOW {
                let due = period.map_or(now, |p| (sent as f64 * p) as u64);
                if due > now || due >= end_ns {
                    break;
                }
                conn.queue(gen, due);
                if late.len() < late.capacity() {
                    late.push((now - due).min(u64::from(u32::MAX)) as u32);
                }
                sent += 1;
                // Large frames go out one by one, so the server starts on
                // the first while the client builds the next; small ones
                // share a write.
                if conn.out.len() >= FLUSH_BYTES {
                    conn.flush()?;
                }
            }
        } else if conn.pending.is_empty() {
            break;
        } else if now > end_ns + DRAIN_NS {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "replies did not drain",
            ));
        }
        conn.flush()?;
        let got = conn.poll(origin, chk, |due, recv, n| {
            if let Some((_, lat)) = pace.as_mut() {
                lat.push(recv - due);
            }
            if recv < end_ns {
                window_ops[(recv / WINDOW_NS) as usize] += n;
            }
            completed += n;
        })?;
        if !got {
            if conn.out.is_empty() && (conn.pending.len() >= WINDOW || now >= end_ns) {
                // Nothing can be sent before a reply comes: sleep in the
                // kernel, so the client does not compete with the server
                // for a core it may share.
                conn.wait_readable()?;
            } else {
                // Back off for about a microsecond rather than issue
                // reads back to back.
                for _ in 0..IDLE_SPINS {
                    std::hint::spin_loop();
                }
            }
        }
    }
    let elapsed_ns = origin.elapsed().as_nanos() as u64;
    late.sort_unstable();
    Ok(Drive {
        window_ops,
        completed,
        elapsed_ns,
        late_p99_ns: percentile_sorted(late, 99.0),
        due: period.map_or(0.0, |p| (end_ns as f64 / p).ceil()),
        sent,
    })
}

/// Sample buffers, allocated before memory is measured: latencies per
/// rung for slices of `slice_secs`, and generator lateness for the
/// slice with the most frames.
fn buffers(w: &Workload, slice_secs: &[f64]) -> (Vec<Windows>, Vec<u32>) {
    let frames: Vec<usize> = w
        .ladder_kops
        .iter()
        .zip(slice_secs)
        .map(|(k, secs)| (k * 1e3 / w.batch_ops as f64 * secs * 1.05) as usize)
        .collect();
    let mut late = vec![1u32; frames.iter().copied().max().unwrap_or(0)];
    late.clear();
    (frames.into_iter().map(Windows::new).collect(), late)
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: &Workload, args: &Args) -> Result<Report, String> {
    let s = args.seconds;
    let rung_secs = w.rung_secs(LADDER_SHARE * s);
    let slice_secs: Vec<f64> = rung_secs.iter().map(|x| x / ROUNDS as f64).collect();
    let (mut lats, mut late) = buffers(w, &slice_secs);
    let mut chk = Checker::new(Shadow::prefilled(w, args.seed));
    let mut gen = OpGen::new(w, args.seed, 1);
    let order = chk.shadow.insert_order(args.seed);
    let mut r = Report::default();

    let rss0 = rss_bytes()?;
    let t0 = Instant::now();
    let server = start_server(&order)?;
    let mut conn = Conn::connect(server.addr(), w.batch_ops).map_err(io_err("connect"))?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    let mut rates = Vec::new();
    let mut rungs: Vec<Rung> = w
        .ladder_kops
        .iter()
        .map(|&kops| Rung {
            kops,
            slices: Vec::new(),
        })
        .collect();
    let outcome = (|| -> io::Result<()> {
        let (c, g, k) = (&mut conn, &mut gen, &mut chk);
        drive(c, g, k, w, None, WARM_SHARE * s, &mut late)?;
        for _ in 0..ROUNDS {
            let slice = FULL_SHARE * s / ROUNDS as f64;
            rates.extend(drive(c, g, k, w, None, slice, &mut late)?.rates());
            for ((rung, &secs), lat) in rungs.iter_mut().zip(&slice_secs).zip(&mut lats) {
                let d = drive(c, g, k, w, Some((rung.kops, &mut *lat)), secs, &mut late)?;
                rung.slices.push(Slice {
                    achieved_kops: d.completed as f64 / d.elapsed_ns as f64 * 1e6,
                    lat: lat.finish(),
                    behind: d.due - d.sent as f64 > BEHIND_SHARE * d.due,
                    late_p99_ns: d.late_p99_ns,
                });
            }
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        r.lines.push(format!("transport error: {e}"));
        conn.abandon(&mut chk);
    }
    // Read a sample of keys back from the store itself.
    let mut spot_failed = 0;
    let mut pick = crate::gen::Rng::new(args.seed, 99);
    for _ in 0..SPOT_CHECKS {
        let k = pick.below(w.keys);
        spot_failed += u64::from(server.store().get(&k) != chk.shadow.get(k));
    }
    r.checks_ok = spot_failed == 0;
    r.attempted = chk.checked + SPOT_CHECKS;
    r.failed = chk.failed + spot_failed;
    let rss1 = rss_bytes()?;
    let live = chk.shadow.live() as f64;
    drop(conn);
    server.shutdown();
    drop(chk);
    for _ in 1..w.setup_reps {
        let t = Instant::now();
        let server = start_server(&order)?;
        let conn = Conn::connect(server.addr(), w.batch_ops).map_err(io_err("connect"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(conn);
        server.shutdown();
    }

    r.metric("throughput_mops", quantile(&rates, RATE_Q) / 1e6, "Mop/s");
    r.metric("setup_s", quantile(&setup_s, SETUP_Q), "s");
    r.metric(
        "mem_bytes_per_key",
        ratio(rss1.saturating_sub(rss0) as f64, live),
        "B/key",
    );
    ladder_metrics(w, &rungs, &mut r);
    r.lines.insert(
        0,
        format!(
            "{}: 1 worker, {SHARDS} shards, {} ops/frame, window {WINDOW}; full-pressure windows {:?} Mop/s; setup from {}",
            w.name,
            w.batch_ops,
            rates.iter().map(|x| (x / 1e3).round() / 1e3).collect::<Vec<_>>(),
            setup_s.len()
        ),
    );
    Ok(r)
}

/// Frames per block of the traced round-trip phase; blocks alternate
/// between untraced and traced.
const BLOCK: u64 = 32;
const SPAN_CAP: usize = 1 << 18;

/// Sum and count of the server's own per-frame phase timers (wire,
/// decode, execute, encode) over the opcodes this workload sends.
fn server_timing(server: &Server, batch: bool) -> [(u128, u64); 4] {
    let mut acc = [(0u128, 0u64); 4];
    for (op, p) in server.stats().request_timing() {
        let mine = if batch {
            op == "batch"
        } else {
            matches!(op, "get" | "insert" | "remove")
        };
        if mine {
            for (slot, (_, h)) in acc.iter_mut().zip(p.by_phase()) {
                slot.0 += h.sum();
                slot.1 += h.len();
            }
        }
    }
    acc
}

/// One blocking round trip through `Client`; the replies in op order.
fn call(client: &mut Client, ops: &[BatchOp]) -> io::Result<Vec<BatchReply>> {
    if ops.len() != 1 {
        return client.batch(ops);
    }
    Ok(vec![match ops[0] {
        BatchOp::Get(k) => client
            .get(&k)?
            .map_or(BatchReply::Missing, BatchReply::Found),
        BatchOp::Insert(k, v) => BatchReply::Added(client.insert(k, v)?),
        BatchOp::Remove(k) => BatchReply::Removed(client.remove(&k)?),
    }])
}

/// The traced run: per-layer metrics.
pub fn traced(w: &Workload, args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let s = args.seconds;
    let batch = w.batch_ops > 1;
    let (mut lats, mut late) = buffers(w, &vec![0.2 * s; w.ladder_kops.len()]);
    let nominal = w
        .ladder_kops
        .iter()
        .position(|&k| k == w.nominal_kops)
        .expect("the ladder holds the nominal rate");
    let mut chk = Checker::new(Shadow::prefilled(w, args.seed));
    let mut gen = OpGen::new(w, args.seed, 1);
    let order = chk.shadow.insert_order(args.seed);
    let mut r = Report::default();
    let mut vals: Vec<(&'static str, f64)> = Vec::new();

    // Phase 1: the open loop at the nominal rate, for the generator's
    // own lateness.
    let server = start_server(&order)?;
    let mut conn = Conn::connect(server.addr(), w.batch_ops).map_err(io_err("connect"))?;
    let open = (|| -> io::Result<Drive> {
        let (c, g, k) = (&mut conn, &mut gen, &mut chk);
        drive(c, g, k, w, None, WARM_SHARE * s, &mut late)?;
        let pace = Some((w.nominal_kops, &mut lats[nominal]));
        drive(c, g, k, w, pace, 0.2 * s, &mut late)
    })()
    .map_err(io_err("open loop"))?;
    vals.push(("gen.late_p99_us", open.late_p99_ns / 1e3));
    let crate::stats::WindowStats {
        p50_ns: p50,
        p99_ns: p99,
        ..
    } = lats[nominal].finish();
    r.lines.push(format!(
        "open loop at {} kop/s: achieved {:.1} kop/s, p50 {:.2} us, p99 {:.2} us, generator late p99 {:.2} us",
        w.nominal_kops,
        open.completed as f64 / open.elapsed_ns as f64 * 1e6,
        p50 / 1e3,
        p99 / 1e3,
        open.late_p99_ns / 1e3
    ));
    let seg_start = conn.frames_sent;
    drop(conn);

    // Phase 2: blocking `Client` round trips, traced and untraced blocks
    // alternating.
    let mut client = Client::connect(server.addr()).map_err(io_err("connect"))?;
    let before = server_timing(&server, batch);
    let mut tr = Trace::new(origin, SPAN_CAP);
    let mut rtt_traced: Vec<u32> = Vec::new();
    let (mut plain_ns, mut plain_n) = (0u64, 0u64);
    let mut ops = Vec::with_capacity(w.batch_ops);
    let mut frame = seg_start;
    let end = Instant::now() + Duration::from_secs_f64(0.35 * s);
    'rtt: for block in 0u64.. {
        if Instant::now() >= end {
            break;
        }
        for _ in 0..BLOCK {
            ops.clear();
            ops.extend((0..w.batch_ops).map(|_| gen.next()));
            let start = tr.now();
            let replies = call(&mut client, &ops);
            let stop = tr.now();
            frame += 1;
            match replies {
                Ok(replies) if replies.len() == ops.len() => {
                    for (&op, reply) in ops.iter().zip(replies) {
                        chk.check(op, Some(reply));
                    }
                }
                other => {
                    for &op in &ops {
                        chk.check(op, None);
                    }
                    r.lines
                        .push(format!("round trip failed: {:?}", other.err()));
                    break 'rtt;
                }
            }
            if block % 2 == 1 {
                tr.record("client.call", frame - 1, NO_PARENT, start, stop);
                rtt_traced.push((stop - start).min(u64::from(u32::MAX)) as u32);
            } else {
                plain_ns += stop - start;
                plain_n += 1;
            }
        }
    }
    let seg = seg_start..frame;
    let after = server_timing(&server, batch);
    let backpressure = server.stats().serve_gauges().backpressure_events;
    drop(client);
    server.shutdown();
    let rtt_ns = tr.mean_ns("client.call");
    rtt_traced.sort_unstable();
    let per_frame = |i: usize| {
        ratio(
            (after[i].0 - before[i].0) as f64,
            (after[i].1 - before[i].1) as f64,
        )
    };
    vals.extend([
        ("client.rtt_us", rtt_ns / 1e3),
        (
            "client.rtt_p99_us",
            percentile_sorted(&rtt_traced, 99.0) / 1e3,
        ),
        ("client.frames", (seg.end - seg.start) as f64),
        ("server.wire_us", per_frame(0) / 1e3),
        ("server.decode_us", per_frame(1) / 1e3),
        ("server.execute_us", per_frame(2) / 1e3),
        ("server.encode_us", per_frame(3) / 1e3),
        ("server.backpressure_events", backpressure as f64),
        (
            "trace.overhead_pct",
            (ratio(rtt_ns, ratio(plain_ns as f64, plain_n as f64)) - 1.0) * 100.0,
        ),
    ]);

    // Phase 3: the same request stream, replayed in-process.
    let mut replay_chk = Checker::new(Shadow::prefilled(w, args.seed));
    let replayed = replay(w, args.seed, &order, seg.clone(), &mut tr, &mut replay_chk);
    let ops_n = (seg.end - seg.start) as f64 * w.batch_ops as f64;
    let sum = |name: &str| tr.mean_ns(name) * tr.count(name) as f64;
    let frame_ns = tr.mean_ns("replay.frame");
    vals.extend(replayed);
    vals.extend([
        ("wire.decode_ns_per_op", ratio(sum("wire.decode"), ops_n)),
        ("wire.encode_ns_per_op", ratio(sum("wire.encode"), ops_n)),
        ("server.gap_us", (rtt_ns - frame_ns) / 1e3),
    ]);
    if !batch {
        for name in ["tree.get", "tree.insert", "tree.remove"] {
            let metric = match name {
                "tree.get" => "tree.get_ns",
                "tree.insert" => "tree.insert_ns",
                _ => "tree.remove_ns",
            };
            vals.push((metric, tr.mean_ns(name)));
        }
    }
    r.lines.push(format!(
        "{}: client.rtt {:.2} us = server wire {:.2} us + outside the server {:.2} us",
        w.name,
        rtt_ns / 1e3,
        per_frame(0) / 1e3,
        (rtt_ns - per_frame(0)) / 1e3
    ));
    r.lines.push(format!(
        "replayed per frame: decode {:.2} us + {} {:.2} us + encode {:.2} us = {:.2} us; gap to rtt {:.2} us",
        sum("wire.decode") / tr.count("replay.frame").max(1) as f64 / 1e3,
        if batch { "execute_batch" } else { "tree op" },
        (sum("shard.execute_batch") + sum("tree.get") + sum("tree.insert") + sum("tree.remove"))
            / tr.count("replay.frame").max(1) as f64
            / 1e3,
        sum("wire.encode") / tr.count("replay.frame").max(1) as f64 / 1e3,
        frame_ns / 1e3,
        (rtt_ns - frame_ns) / 1e3
    ));
    r.attempted = chk.checked + replay_chk.checked;
    r.failed = chk.failed + replay_chk.failed;
    r.checks_ok = true;
    layer_report(&mut r, &vals);
    write_spans(&spans_path(args), &tr).map_err(|e| format!("writing spans: {e}"))?;
    Ok(r)
}

/// Replays frames `0..seg.end` of the request stream against a fresh,
/// identically prefilled store through the server's layers, timing the
/// calls of frames in `seg` as spans. Returns the shard, tree and
/// reclaim metrics of the segment.
fn replay(
    w: &Workload,
    seed: u64,
    order: &[(u64, u64)],
    seg: std::ops::Range<u64>,
    tr: &mut Trace,
    chk: &mut Checker,
) -> Vec<(&'static str, f64)> {
    let store = Store::with_config(SHARDS, TreeConfig::default());
    prefill(&store, order);
    let mut gen = OpGen::new(w, seed, 1);
    let mut h = store.handle();
    let batch = w.batch_ops > 1;
    let (mut body, mut out) = (Vec::new(), Vec::new());
    let mut ops: Vec<BatchOp> = Vec::with_capacity(w.batch_ops);
    let mut cmds: Vec<BatchCmd<u64, u64>> = Vec::with_capacity(w.batch_ops);
    let mut scratch = BatchScratch::new();
    let mut verdicts: Vec<BatchVerdict<u64>> = Vec::with_capacity(w.batch_ops);
    let (mut bytes, mut runs) = (0u64, 0u64);
    let mut gauges = Vec::new();
    let mut m0 = store.metrics();
    for f in 0..seg.end {
        if f == seg.start {
            h.flush_stats();
            m0 = store.metrics();
        }
        ops.clear();
        ops.extend((0..w.batch_ops).map(|_| gen.next()));
        body.clear();
        let opcode = if batch {
            Request::Batch(ops.clone()).encode(&mut body);
            OP_BATCH
        } else {
            let req = point_request(ops[0]);
            req.encode(&mut body);
            req.opcode()
        };
        out.clear();
        let t0 = tr.now();
        let (t1, t2, exec);
        if batch {
            cmds.clear();
            let decoded = wire::decode_batch_ops(&body, |op| {
                cmds.push(match op {
                    BatchOp::Get(k) => BatchCmd::Get(k),
                    BatchOp::Insert(k, v) => BatchCmd::Insert(k, v),
                    BatchOp::Remove(k) => BatchCmd::Remove(k),
                })
            });
            t1 = tr.now();
            if decoded.is_ok() {
                h.execute_batch(&cmds, &mut scratch, &mut verdicts);
            } else {
                verdicts.clear();
            }
            t2 = tr.now();
            exec = "shard.execute_batch";
            let mark = wire::begin_frame(&mut out);
            // An OK status byte, the reply count, then the replies: the
            // BATCH response layout of the wire module's docs.
            out.push(0);
            out.extend_from_slice(&(verdicts.len() as u32).to_le_bytes());
            for v in &verdicts {
                wire::encode_batch_reply(
                    &mut out,
                    match *v {
                        BatchVerdict::Found(x) => BatchReply::Found(x),
                        BatchVerdict::Missing => BatchReply::Missing,
                        BatchVerdict::Added(b) => BatchReply::Added(b),
                        BatchVerdict::Removed(b) => BatchReply::Removed(b),
                    },
                );
            }
            wire::end_frame(&mut out, mark);
        } else {
            let req = Request::decode(&body);
            t1 = tr.now();
            let (resp, name) = match req {
                Ok(Request::Get(k)) => {
                    let sh = store.shard_of(&k);
                    (Response::Get(h.shard_handle(sh).get(&k)), "tree.get")
                }
                Ok(Request::Insert(k, v)) => {
                    let sh = store.shard_of(&k);
                    (
                        Response::Insert(h.shard_handle(sh).insert(k, v)),
                        "tree.insert",
                    )
                }
                Ok(Request::Remove(k)) => {
                    let sh = store.shard_of(&k);
                    (
                        Response::Remove(h.shard_handle(sh).remove(&k)),
                        "tree.remove",
                    )
                }
                other => (Response::Err(format!("{other:?}")), "tree.get"),
            };
            t2 = tr.now();
            exec = name;
            let mark = wire::begin_frame(&mut out);
            resp.encode(&mut out);
            wire::end_frame(&mut out, mark);
        }
        let t3 = tr.now();
        if seg.contains(&f) {
            let parent = tr.record("replay.frame", f, NO_PARENT, t0, t3);
            tr.record("wire.decode", f, parent, t0, t1);
            tr.record(exec, f, parent, t1, t2);
            tr.record("wire.encode", f, parent, t2, t3);
            bytes += 4 + body.len() as u64 + out.len() as u64;
            if batch {
                runs += shard_runs(&store, &ops);
            }
            if f % 64 == 0 {
                let g = store.metrics().reclaim;
                gauges.push((g.retired_backlog, g.epoch_lag));
            }
        }
        match Response::decode(opcode, &out[4..]) {
            Ok(Response::Batch(replies)) if batch && replies.len() == ops.len() => {
                for (&op, reply) in ops.iter().zip(replies) {
                    chk.check(op, Some(reply));
                }
            }
            Ok(resp) if !batch => chk.check(ops[0], point_reply(&resp)),
            _ => ops.iter().for_each(|&op| chk.check(op, None)),
        }
    }
    h.flush_stats();
    let m1 = store.metrics();
    let frames = (seg.end - seg.start) as f64;
    let ops_n = frames * w.batch_ops as f64;
    let mut vals = tree_layer(&m0, &m1, &gauges);
    vals.push(("wire.bytes_per_op", ratio(bytes as f64, ops_n)));
    if batch {
        let exec = "shard.execute_batch";
        let exec_ns = tr.mean_ns(exec) * tr.count(exec) as f64;
        vals.extend(shard_layer(&m0, &m1, exec_ns, ops_n, runs as f64));
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(corrupt_at: Option<u64>) -> Checker {
        let w = crate::config::workload("serve_batch").unwrap();
        let mut chk = Checker::new(Shadow::prefilled(w, 5));
        chk.corrupt_at = corrupt_at;
        let server = start_server(&chk.shadow.insert_order(5)).unwrap();
        let mut conn = Conn::connect(server.addr(), w.batch_ops).unwrap();
        let mut gen = OpGen::new(w, 5, 1);
        let mut late = Vec::with_capacity(1 << 12);
        drive(&mut conn, &mut gen, &mut chk, w, None, 0.2, &mut late).unwrap();
        drop(conn);
        server.shutdown();
        chk
    }

    #[test]
    fn every_reply_of_a_served_session_matches_the_model() {
        let chk = session(None);
        assert!(chk.checked > 1000, "only {} replies checked", chk.checked);
        assert_eq!(chk.failed, 0);
    }

    #[test]
    fn oracle_fires_on_one_corrupted_served_reply() {
        let chk = session(Some(777));
        assert!(chk.checked > 1000);
        assert_eq!(chk.failed, 1);
    }
}
