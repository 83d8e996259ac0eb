//! End-to-end tests for the reactor serving model: pipelined requests,
//! partial frames dribbled across epoll wakeups, frames straddling the
//! size limit, fault isolation between interleaved connections, and
//! backpressure pause/recovery with its gauges.

use nmbst_server::wire::{write_frame, BatchOp, BatchReply, Request, Response, MAX_FRAME};
use nmbst_server::{Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Reads one length-prefixed reply frame off a raw socket.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply length prefix");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("reply body");
    body
}

/// Polls `cond` for up to two seconds — gauges move on reactor loop
/// boundaries, not synchronously with client-side syscalls.
fn eventually(mut cond: impl FnMut() -> bool, what: &str) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(2), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A mixed pipelined burst comes back as exactly the right responses in
/// request order — the protocol has no request IDs, so order *is* the
/// correlation contract.
#[test]
fn pipeline_matches_responses_by_order() {
    let server = start(2);
    let mut c = Client::connect(server.addr()).unwrap();
    let reqs = vec![
        Request::Ping,
        Request::Insert(1, 10),
        Request::Insert(1, 11), // duplicate → rejected
        Request::Get(1),
        Request::Batch(vec![BatchOp::Insert(2, 20), BatchOp::Get(2)]),
        Request::Remove(1),
        Request::Get(1),
        Request::Scan {
            lo: 0,
            hi: u64::MAX,
            max: 0,
        },
    ];
    let responses = c.pipeline(&reqs).unwrap();
    assert_eq!(
        responses,
        vec![
            Response::Pong,
            Response::Insert(true),
            Response::Insert(false),
            Response::Get(Some(10)),
            Response::Batch(vec![BatchReply::Added(true), BatchReply::Found(20)]),
            Response::Remove(true),
            Response::Get(None),
            Response::Scan {
                entries: vec![(2, 20)],
                truncated: false,
            },
        ]
    );
    // A GET-heavy window: the server answers runs of GET frames with
    // one interleaved multi-get, and same-key writes inside the window
    // must still split the runs exactly where they sit.
    let mut model = std::collections::BTreeMap::from([(2u64, 20u64)]);
    let mut reqs = Vec::new();
    let mut expect = Vec::new();
    for i in 0..96u64 {
        let k = i % 6;
        let req = match i % 8 {
            3 => Request::Insert(k, i),
            6 => Request::Remove(k),
            _ => Request::Get(k),
        };
        expect.push(match req {
            Request::Insert(k, v) => {
                // Duplicate inserts are rejected and keep the old value.
                let fresh = !model.contains_key(&k);
                model.entry(k).or_insert(v);
                Response::Insert(fresh)
            }
            Request::Remove(k) => Response::Remove(model.remove(&k).is_some()),
            _ => Response::Get(model.get(&k).copied()),
        });
        reqs.push(req);
    }
    assert_eq!(c.pipeline(&reqs).unwrap(), expect);
    // A window of 1 degenerates to the blocking path; same answers.
    assert_eq!(
        c.pipeline_with_window(&[Request::Get(2), Request::Get(6)], 1)
            .unwrap(),
        vec![Response::Get(model.get(&2).copied()), Response::Get(None)]
    );
    drop(c);
    server.shutdown();
}

/// A frame dribbled one byte at a time — each byte its own epoll wakeup
/// — must assemble and serve exactly like a whole one, including when
/// the *next* frame's first bytes ride in the same segment as the
/// previous frame's tail.
#[test]
fn frame_dribbled_byte_by_byte_is_served() {
    let server = start(1);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();

    // INSERT(7, 70) then GET(7), encoded as one byte stream, dribbled.
    let mut wire = Vec::new();
    for req in [Request::Insert(7, 70), Request::Get(7)] {
        let mut body = Vec::new();
        req.encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    for chunk in wire.chunks(1) {
        raw.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let insert_reply = read_reply(&mut raw);
    assert_eq!(insert_reply[0], 0x00, "status OK: {insert_reply:?}");
    let get_reply = read_reply(&mut raw);
    assert_eq!(get_reply[0], 0x00, "status OK: {get_reply:?}");
    drop(raw);

    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.get(&7).unwrap(), Some(70), "the dribbled insert landed");
    drop(c);
    server.shutdown();
}

/// Two connections pipelining concurrently against the same server
/// never see each other's responses (per-connection FIFO, not global).
#[test]
fn interleaved_pipelined_connections_stay_isolated() {
    const PER: u64 = 500;
    let server = start(2);
    std::thread::scope(|s| {
        for lane in 0..2u64 {
            let addr = server.addr();
            s.spawn(move || {
                let base = lane * 10_000;
                let mut c = Client::connect(addr).unwrap();
                let inserts: Vec<Request> = (0..PER)
                    .map(|i| Request::Insert(base + i, base + i))
                    .collect();
                for r in c.pipeline(&inserts).unwrap() {
                    assert_eq!(r, Response::Insert(true), "lane {lane}");
                }
                let gets: Vec<Request> = (0..PER).map(|i| Request::Get(base + i)).collect();
                for (i, r) in c.pipeline(&gets).unwrap().into_iter().enumerate() {
                    assert_eq!(r, Response::Get(Some(base + i as u64)), "lane {lane}");
                }
            });
        }
    });
    server.shutdown();
}

/// A length prefix announcing more than [`MAX_FRAME`], arriving split
/// across writes (the prefix itself straddles a read boundary), closes
/// the connection with no reply — and no wire-error count, because no
/// frame was ever decoded.
#[test]
fn oversized_prefix_straddling_reads_closes_silently() {
    let server = start(1);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let prefix = ((MAX_FRAME as u32) + 1).to_le_bytes();
    raw.write_all(&prefix[..2]).unwrap();
    std::thread::sleep(Duration::from_millis(20)); // two epoll wakeups
    raw.write_all(&prefix[2..]).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(reply.is_empty(), "oversized frames get no reply: {reply:?}");
    drop(raw);

    // A frame of exactly MAX_FRAME announced is fine to *announce*; it
    // only has to arrive. (Decode then rejects the garbage body with an
    // ERR reply — the boundary is a frame-size limit, not a crash.)
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
    raw.write_all(&vec![0xAB; MAX_FRAME]).unwrap();
    let reply = read_reply(&mut raw);
    assert_eq!(
        reply[0],
        0x01,
        "status ERR: {:?}",
        &reply[..8.min(reply.len())]
    );
    drop(raw);

    let mut c = Client::connect(server.addr()).unwrap();
    c.ping().unwrap();
    assert_eq!(
        server.stats().wire_errors(),
        1,
        "only the decoded-garbage frame counts as a wire error"
    );
    drop(c);
    server.shutdown();
}

/// A connection that earns ERR-and-close mid-stream cannot desync its
/// neighbor: a concurrently pipelining connection still gets every
/// response, in order, with the right payloads.
#[test]
fn err_and_close_does_not_desync_neighbor() {
    let server = start(1); // one worker: both connections share a reactor
    let addr = server.addr();
    std::thread::scope(|s| {
        let victim = s.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let reqs: Vec<Request> = (0..2_000).map(|i| Request::Insert(i, i)).collect();
            for r in c.pipeline(&reqs).unwrap() {
                assert_eq!(r, Response::Insert(true));
            }
            let gets: Vec<Request> = (0..2_000).map(Request::Get).collect();
            for (i, r) in c.pipeline(&gets).unwrap().into_iter().enumerate() {
                assert_eq!(r, Response::Get(Some(i as u64)));
            }
        });
        s.spawn(move || {
            // Valid PING, then a garbage opcode, then a frame the server
            // must never answer (the ERR closes the connection first).
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.set_nodelay(true).unwrap();
            let mut wire = Vec::new();
            let mut body = Vec::new();
            Request::Ping.encode(&mut body);
            write_frame(&mut wire, &body).unwrap();
            write_frame(&mut wire, &[0xFF, 0x00, 0x01]).unwrap();
            body.clear();
            Request::Get(1).encode(&mut body);
            write_frame(&mut wire, &body).unwrap();
            raw.write_all(&wire).unwrap();
            let pong = read_reply(&mut raw);
            assert_eq!(pong[0], 0x00, "the frame before the fault is served");
            let err = read_reply(&mut raw);
            assert_eq!(err[0], 0x01, "the fault gets an ERR");
            let mut rest = Vec::new();
            raw.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "nothing after ERR-and-close: {rest:?}");
        });
        victim.join().unwrap();
    });
    assert_eq!(server.stats().wire_errors(), 1);
    server.shutdown();
}

/// Filling a connection's write budget pauses its reads (gauges +
/// counter say so), and draining the responses un-pauses it with no
/// bytes lost — backpressure is flow control, not failure.
#[test]
fn backpressure_pauses_reads_and_recovers() {
    const KEYS: u64 = 4_000; // ≈64 KiB per SCAN response
    const SCANS: usize = 128; // ≈8 MiB total — far beyond socket buffers
    let server = Server::start(ServerConfig {
        workers: 1,
        write_budget: 8 * 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let ops: Vec<BatchOp> = (0..KEYS).map(|k| BatchOp::Insert(k, k)).collect();
    c.batch(&ops).unwrap();
    drop(c);

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    let mut body = Vec::new();
    for _ in 0..SCANS {
        body.clear();
        Request::Scan {
            lo: 0,
            hi: u64::MAX,
            max: 0,
        }
        .encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    raw.write_all(&wire).unwrap();

    // Don't read: the server's write buffer must cross the budget and
    // pause the connection (socket buffers can't absorb 8 MiB).
    // Early pauses can be transient (a flush into still-empty socket
    // buffers un-pauses immediately); once the socket truly fills, the
    // connection sticks at paused-with-buffered-bytes until we read.
    let stats = server.stats();
    eventually(
        || {
            let g = stats.serve_gauges();
            g.read_paused_connections == 1 && g.write_buffered_bytes > 0
        },
        "connection never stuck read-paused under an unread 8 MiB backlog",
    );
    let mid = stats.serve_gauges();
    assert!(mid.backpressure_events >= 1, "{mid:?}");
    assert_eq!(mid.open_connections, 1, "{mid:?}");

    // Drain everything: every response intact, in order, status OK.
    for i in 0..SCANS {
        let reply = read_reply(&mut raw);
        assert_eq!(reply[0], 0x00, "scan {i} status");
        assert_eq!(
            u32::from_le_bytes(reply[1..5].try_into().unwrap()) as u64,
            KEYS,
            "scan {i} entry count"
        );
    }
    // With its backlog drained the connection un-pauses and its buffer
    // empties; closing it zeroes the open-connections gauge.
    eventually(
        || {
            let g = stats.serve_gauges();
            g.read_paused_connections == 0 && g.write_buffered_bytes == 0
        },
        "gauges never recovered after the drain",
    );
    drop(raw);
    eventually(
        || stats.serve_gauges().open_connections == 0,
        "open-connections gauge never saw the close",
    );
    server.shutdown();
}
