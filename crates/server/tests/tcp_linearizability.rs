//! Linearizability of what clients observe over TCP. Three connections
//! pipeline windows of mixed GET, INSERT, REMOVE and BATCH frames on
//! eight keys against one server, whose engine serves them in chunks
//! through `execute_batch`. Each op's interval runs from just before
//! its frame is written to just after its reply is read, on one clock
//! shared by the connections.
//!
//! The histories go through the Wing-Gong map checker with the wire
//! protocol's ordering contract as extra constraints: on one
//! connection, ops on the same key take effect in request order, across
//! frames and inside a BATCH frame. Ops on different keys in flight
//! together get no constraint, because the server may reorder them.
//!
//! The connections run in rounds of at most 64 ops. Between rounds the
//! test reads the eight keys from the store, and each round is checked
//! from that state. A round is checked one key at a time. A map is an
//! independent register per key and every constraint relates ops on
//! one key, so by locality (Herlihy and Wing) the round is
//! linearizable exactly when each key's sub-history is.

use nmbst_lincheck::spec::{check_history_ordered, GenEvent, MapOp, MapRet, MapSpec};
use nmbst_server::wire::{read_frame, write_frame, BatchOp, BatchReply, Request, Response};
use nmbst_server::{Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

const CONNS: u64 = 3;
const KEYS: u64 = 8;
const ROUNDS: usize = 300;
/// Ops one connection sends per round: 3 × 21 = 63 ≤ 64 per round.
const OPS_PER_CONN: usize = 21;

/// One recorded op: its key, and the event the checker sees.
type Op = (u64, GenEvent<MapSpec>);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A blocking connection that writes a window of frames at once.
struct Conn {
    stream: TcpStream,
    body: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Conn {
            stream,
            body: Vec::new(),
        }
    }

    /// Pipelines `reqs` as two bursts (the second written after the
    /// first reply arrives, as a client refills its window) and records
    /// one event per op, in request order.
    fn window(&mut self, reqs: &[Request], clock: &AtomicU64) -> Vec<Op> {
        let half = reqs.len().div_ceil(2);
        let mut invokes = vec![0; reqs.len()];
        self.send(&reqs[..half], &mut invokes[..half], clock);
        let mut ops = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            assert!(read_frame(&mut self.stream, &mut self.body).unwrap());
            let response = clock.fetch_add(1, Ordering::SeqCst);
            let reply = Response::decode(req.opcode(), &self.body).unwrap();
            record(req, reply, invokes[i], response, &mut ops);
            if i == 0 && half < reqs.len() {
                self.send(&reqs[half..], &mut invokes[half..], clock);
            }
        }
        ops
    }

    fn send(&mut self, reqs: &[Request], invokes: &mut [u64], clock: &AtomicU64) {
        let mut wire = Vec::new();
        for req in reqs {
            let mut body = Vec::new();
            req.encode(&mut body);
            write_frame(&mut wire, &body).unwrap();
        }
        invokes.fill(clock.fetch_add(1, Ordering::SeqCst));
        self.stream.write_all(&wire).unwrap();
    }
}

/// Appends the events of one frame: one per op, all sharing the frame's
/// interval.
fn record(req: &Request, reply: Response, invoke: u64, response: u64, ops: &mut Vec<Op>) {
    let mut push = |key, op, ret| {
        ops.push((
            key,
            GenEvent {
                op,
                ret,
                invoke,
                response,
            },
        ))
    };
    match (req, reply) {
        (&Request::Get(k), Response::Get(v)) => push(k, MapOp::Get(k), MapRet::Got(v)),
        (&Request::Insert(k, s), Response::Insert(b)) => {
            push(k, MapOp::Insert(k, s), MapRet::Inserted(b))
        }
        (&Request::Remove(k), Response::Remove(b)) => push(k, MapOp::Delete(k), MapRet::Deleted(b)),
        (Request::Batch(cmds), Response::Batch(replies)) => {
            assert_eq!(cmds.len(), replies.len());
            for (&cmd, reply) in cmds.iter().zip(replies) {
                let (op, ret) = match (cmd, reply) {
                    (BatchOp::Get(k), BatchReply::Found(v)) => {
                        (MapOp::Get(k), MapRet::Got(Some(v)))
                    }
                    (BatchOp::Get(k), BatchReply::Missing) => (MapOp::Get(k), MapRet::Got(None)),
                    (BatchOp::Insert(k, s), BatchReply::Added(b)) => {
                        (MapOp::Insert(k, s), MapRet::Inserted(b))
                    }
                    (BatchOp::Remove(k), BatchReply::Removed(b)) => {
                        (MapOp::Delete(k), MapRet::Deleted(b))
                    }
                    other => panic!("reply of the wrong kind: {other:?}"),
                };
                push(*cmd.key(), op, ret);
            }
        }
        other => panic!("reply of the wrong kind: {other:?}"),
    }
}

/// A point op on one of the `KEYS` keys; inserts carry unique stamps.
fn point(r: u64, stamp: &AtomicU64) -> BatchOp {
    let k = r % KEYS;
    match (r >> 8) % 3 {
        0 => BatchOp::Get(k),
        1 => BatchOp::Insert(k, stamp.fetch_add(1, Ordering::Relaxed)),
        _ => BatchOp::Remove(k),
    }
}

/// One connection's window for a round: point frames and BATCH frames
/// of 2–6 ops (often repeating a key), `OPS_PER_CONN` ops in all.
fn gen_window(rng: &mut u64, stamp: &AtomicU64) -> Vec<Request> {
    let mut reqs = Vec::new();
    let mut left = OPS_PER_CONN;
    while left > 0 {
        let r = xorshift(rng);
        if r.is_multiple_of(4) && left >= 2 {
            let len = (2 + (r >> 16) % 5).min(left as u64) as usize;
            let mut ops: Vec<BatchOp> = (0..len).map(|_| point(xorshift(rng), stamp)).collect();
            if (r >> 24).is_multiple_of(2) {
                // A duplicate key: the last op lands on the first's.
                let k = *ops[0].key();
                let last = ops.last_mut().unwrap();
                *last = match *last {
                    BatchOp::Get(_) => BatchOp::Get(k),
                    BatchOp::Insert(_, s) => BatchOp::Insert(k, s),
                    BatchOp::Remove(_) => BatchOp::Remove(k),
                };
            }
            left -= len;
            reqs.push(Request::Batch(ops));
        } else {
            left -= 1;
            reqs.push(match point(r, stamp) {
                BatchOp::Get(k) => Request::Get(k),
                BatchOp::Insert(k, s) => Request::Insert(k, s),
                BatchOp::Remove(k) => Request::Remove(k),
            });
        }
    }
    reqs
}

/// Checks one key's sub-history: the key's value when the round began
/// (an insert that completes before anything else is invoked), then
/// its recorded ops, each connection's in request order.
fn check_key(initial: Option<u64>, key: u64, conns: &[Vec<Op>]) -> Result<(), String> {
    let mut history = Vec::new();
    let mut preds = Vec::new();
    if let Some(v) = initial {
        history.push(GenEvent {
            op: MapOp::Insert(key, v),
            ret: MapRet::Inserted(true),
            invoke: 0,
            response: 1,
        });
        preds.push(0);
    }
    for ops in conns {
        let mut mine = 0u64;
        for (_, e) in ops.iter().filter(|(k, _)| *k == key) {
            preds.push(mine);
            mine |= 1 << history.len();
            history.push(e.clone());
        }
    }
    match check_history_ordered(&MapSpec, &history, &preds) {
        Some(_) => Ok(()),
        None => Err(format!("key {key}, initial {initial:?}: {history:#?}")),
    }
}

#[test]
fn pipelined_mixed_windows_over_tcp_are_linearizable() {
    let server = Server::start(ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    // Intervals start at 2: [0, 1] is each round's initial state.
    let clock = AtomicU64::new(2);
    let stamp = AtomicU64::new(1);
    let start = Barrier::new(CONNS as usize + 1);
    let done = Barrier::new(CONNS as usize + 1);
    let rounds: Mutex<Vec<Vec<Vec<Op>>>> = Mutex::new(vec![Vec::new(); ROUNDS]);

    std::thread::scope(|s| {
        for c in 0..CONNS {
            let (clock, stamp, start, done, rounds) = (&clock, &stamp, &start, &done, &rounds);
            let addr = server.addr();
            s.spawn(move || {
                let mut conn = Conn::connect(addr);
                let mut rng = 0x9E37_79B9 ^ ((c + 1) * 0x1000_0001);
                for round in 0..ROUNDS {
                    let reqs = gen_window(&mut rng, stamp);
                    start.wait();
                    let ops = conn.window(&reqs, clock);
                    rounds.lock().unwrap()[round].push(ops);
                    done.wait();
                }
            });
        }
        let mut failures = Vec::new();
        for round in 0..ROUNDS {
            // Quiescent: every reply of the last round has arrived.
            let initial: Vec<Option<u64>> = (0..KEYS).map(|k| server.store().get(&k)).collect();
            start.wait();
            done.wait();
            let conns = &rounds.lock().unwrap()[round];
            let events: usize = conns.iter().map(Vec::len).sum();
            assert!(events <= 64, "round {round}: {events} events");
            for key in 0..KEYS {
                if let Err(e) = check_key(initial[key as usize], key, conns) {
                    failures.push(format!("round {round}, {e}"));
                }
            }
        }
        assert!(
            failures.is_empty(),
            "not linearizable:\n{}",
            failures.join("\n")
        );
    });
    assert!(server.stats().chunks() > 0);
    assert!(server.stats().batch_fused_ops() > 0);
    server.shutdown();
}

/// The checker must reject what the contract forbids. One connection
/// pipelines insert, get, remove, get on one key. Swapping the two GET
/// replies gives a history that is linearizable if the four ops may be
/// reordered (they overlap in time), but not in request order, which is
/// what the same-key constraint demands.
#[test]
fn checker_rejects_swapped_same_key_replies() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let clock = AtomicU64::new(2);
    let mut conn = Conn::connect(server.addr());
    let reqs = [
        Request::Insert(3, 100),
        Request::Get(3),
        Request::Remove(3),
        Request::Get(3),
    ];
    let ops = conn.window(&reqs, &clock);
    let rets: Vec<MapRet> = ops.iter().map(|(_, e)| e.ret).collect();
    assert_eq!(
        rets,
        [
            MapRet::Inserted(true),
            MapRet::Got(Some(100)),
            MapRet::Deleted(true),
            MapRet::Got(None),
        ]
    );
    assert!(check_key(None, 3, std::slice::from_ref(&ops)).is_ok());

    let mut swapped = ops;
    let (a, b) = (swapped[1].1.ret, swapped[3].1.ret);
    swapped[1].1.ret = b;
    swapped[3].1.ret = a;
    assert!(
        check_key(None, 3, std::slice::from_ref(&swapped)).is_err(),
        "swapped same-key replies must be rejected"
    );
    // Without the same-key order the swap is explained by reordering,
    // so the constraint is what catches it.
    let history: Vec<GenEvent<MapSpec>> = swapped.into_iter().map(|(_, e)| e).collect();
    assert!(check_history_ordered(&MapSpec, &history, &[]).is_some());
    server.shutdown();
}
