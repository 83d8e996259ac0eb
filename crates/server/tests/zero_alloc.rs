//! Proves the zero-copy claim at the allocator: a steady-state BATCH
//! (or point-op, or pipelined mixed pass) round trip through the
//! serving engine performs **zero server-side heap allocations**. Ops
//! decode into the reusable chunk, execute through the pinned handles,
//! and encode straight into the (warm) write buffer behind a reserved
//! length prefix.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not taint other binaries'
//! measurements. The first two tests mutate nothing (get hits and
//! misses, duplicate inserts, removes of absent keys); the third adds
//! and removes keys on every pass, so each write retires nodes and the
//! measured window covers the node arenas' free lists and the
//! reclaimer's bags too. The engine is unpinned between passes, as a
//! reactor worker is before every blocking wait, so the pin cycle is
//! measured as well.
//!
//! The same allocator bounds SCAN: a capped scan over a large store
//! allocates in proportion to the cap, not to the store.

use nmbst_server::testing::with_local_engine;
use nmbst_server::wire::{
    split_frame, write_frame, BatchOp, FrameSplit, Request, Response, OP_SCAN,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread, so tests running in parallel (and the harness thread
    // reporting them) do not count into each other's windows. The
    // engine serves on the calling thread. Const-initialized and
    // drop-free, so reading them never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn encode_req(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    req.encode(&mut body);
    body
}

#[test]
fn steady_state_batch_round_trip_allocates_nothing() {
    with_local_engine(2, |eng| {
        // Populate even keys 0..512 — outside the measured window.
        let seed: Vec<BatchOp> = (0..256).map(|i| BatchOp::Insert(i * 2, i)).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(seed)), &mut out));

        // The steady-state frames, pre-encoded: a mixed batch that
        // mutates nothing (hits, misses, rejected duplicate inserts,
        // removes of absent keys) and two point ops.
        let mixed: Vec<BatchOp> = (0..128)
            .map(|i| match i % 4 {
                0 => BatchOp::Get(i * 2),           // hit
                1 => BatchOp::Get(i * 2 + 1),       // miss
                2 => BatchOp::Insert(i * 2, 9_999), // duplicate → rejected
                _ => BatchOp::Remove(i * 2 + 1),    // absent → false
            })
            .collect();
        let batch_frame = encode_req(&Request::Batch(mixed));
        let get_hit = encode_req(&Request::Get(0));
        let get_miss = encode_req(&Request::Get(1));

        // Warm-up: sizes every piece of reusable scratch (decode vec,
        // partition runs, verdict vec, write buffer) and any lazy
        // per-thread reclaimer state behind the first pins.
        for _ in 0..4 {
            out.clear();
            assert!(eng.serve(&batch_frame, &mut out));
            assert!(eng.serve(&get_hit, &mut out));
            assert!(eng.serve(&get_miss, &mut out));
            eng.unpin();
        }

        let before = ALLOCS.get();
        for _ in 0..32 {
            out.clear();
            assert!(eng.serve(&batch_frame, &mut out));
            assert!(eng.serve(&get_hit, &mut out));
            assert!(eng.serve(&get_miss, &mut out));
            eng.unpin();
        }
        let after = ALLOCS.get();

        assert_eq!(
            after - before,
            0,
            "steady-state serve must not heap-allocate \
             ({} allocations over 32 rounds)",
            after - before
        );
        assert!(!out.is_empty(), "responses were actually produced");
    });
}

/// A steady-state pipelined pass of mixed frames — GET hits and
/// misses, rejected duplicate INSERTs, REMOVEs of absent keys, BATCH
/// frames and a PING, served in chunks by `execute_batch` — allocates
/// nothing either: ops, verdicts and replies all land in retained
/// scratch and the warm write buffer.
#[test]
fn steady_state_mixed_pass_allocates_nothing() {
    with_local_engine(4, |eng| {
        let mut out = Vec::new();
        let fill = (0..512).map(|k| BatchOp::Insert(k * 2, k)).collect();
        assert!(eng.serve(&encode_req(&Request::Batch(fill)), &mut out));

        // 131 frames: point ops in every shard, a 24-op BATCH (more
        // than a chunk) every 20 frames and a 3-op one every 20, and a
        // PING in mid-chunk.
        let mut stream = Vec::new();
        for i in 0..131u64 {
            let k = i * 13 % 1_024;
            let req = match i % 20 {
                5 => Request::Batch(
                    (0..24)
                        .map(|j| match j % 3 {
                            0 => BatchOp::Get(k + j),
                            1 => BatchOp::Insert(k & !1, j),
                            _ => BatchOp::Remove(k | 1),
                        })
                        .collect(),
                ),
                11 => Request::Batch(vec![BatchOp::Get(k), BatchOp::Get(k), BatchOp::Remove(1)]),
                _ if i == 100 => Request::Ping,
                _ => match i % 4 {
                    0 | 1 => Request::Get(k),
                    2 => Request::Insert(k & !1, 9),
                    _ => Request::Remove(k | 1),
                },
            };
            write_frame(&mut stream, &encode_req(&req)).unwrap();
        }
        for _ in 0..4 {
            out.clear();
            assert!(eng.serve_stream(&stream, &mut out));
            eng.unpin();
        }
        let chunks = eng.stats().chunks();

        let before = ALLOCS.get();
        for _ in 0..32 {
            out.clear();
            assert!(eng.serve_stream(&stream, &mut out));
            eng.unpin();
        }
        let allocs = ALLOCS.get() - before;
        assert_eq!(
            allocs, 0,
            "steady-state mixed passes allocated {allocs} times"
        );
        assert!(eng.stats().chunks() >= chunks + 32 * 8, "served in chunks");
    });
}

/// A steady-state pass whose INSERTs add keys and whose REMOVEs remove
/// them allocates nothing either: every write retires a node, and the
/// freed slots and the reclamation bags that carry them are reused.
#[test]
fn steady_state_mutating_pass_allocates_nothing() {
    const PASS_KEYS: u64 = 64;
    const BATCH_PAIRS: u64 = 16;
    with_local_engine(4, |eng| {
        let mut out = Vec::new();
        let fill = (0..1_024).map(|k| BatchOp::Insert(k * 2, k)).collect();
        assert!(eng.serve(&encode_req(&Request::Batch(fill)), &mut out));

        // Odd keys are absent. The pass adds `PASS_KEYS` of them with
        // point INSERTs, adds and removes `BATCH_PAIRS` more inside one
        // BATCH, then removes the first ones with point REMOVEs: every
        // write changes a tree, and each pass ends where it began.
        let odd = |k: u64| k * 16 + 1;
        let mut stream = Vec::new();
        for k in 0..PASS_KEYS {
            write_frame(&mut stream, &encode_req(&Request::Insert(odd(k), k))).unwrap();
        }
        let pairs = (0..BATCH_PAIRS)
            .flat_map(|k| [BatchOp::Insert(odd(k) + 2, k), BatchOp::Remove(odd(k) + 2)])
            .collect();
        write_frame(&mut stream, &encode_req(&Request::Batch(pairs))).unwrap();
        for k in 0..PASS_KEYS {
            write_frame(&mut stream, &encode_req(&Request::Remove(odd(k)))).unwrap();
        }
        let pass = |eng: &mut nmbst_server::testing::LocalEngine<'_>, out: &mut Vec<u8>| {
            out.clear();
            assert!(eng.serve_stream(&stream, out));
            eng.unpin();
        };
        for _ in 0..64 {
            pass(eng, &mut out);
        }
        let m0 = eng.store().metrics();

        let before = ALLOCS.get();
        for _ in 0..256 {
            pass(eng, &mut out);
        }
        let allocs = ALLOCS.get() - before;
        let m1 = eng.store().metrics();
        let writes = 256 * (PASS_KEYS + BATCH_PAIRS);
        assert_eq!(
            (m1.inserted - m0.inserted, m1.removed - m0.removed),
            (writes, writes),
            "every write changed the store"
        );
        assert_eq!(
            allocs, 0,
            "steady-state mutating passes allocated {allocs} times"
        );
    });
}

/// `SCAN max=10` over the whole key space of a 100k-key store must stop
/// each shard's walk after the cap, not collect the store and truncate.
#[test]
fn capped_scan_allocates_in_proportion_to_the_cap() {
    const KEYS: u64 = 100_000;
    with_local_engine(2, |eng| {
        let mut out = Vec::new();
        let ks: Vec<u64> = (0..KEYS).collect();
        for chunk in ks.chunks(1024) {
            let fill = chunk.iter().map(|&k| BatchOp::Insert(k, k)).collect();
            assert!(eng.serve(&encode_req(&Request::Batch(fill)), &mut out));
        }
        let scan = encode_req(&Request::Scan {
            lo: 0,
            hi: u64::MAX,
            max: 10,
        });
        out.clear();
        let before = BYTES.get();
        assert!(eng.serve(&scan, &mut out));
        let bytes = BYTES.get() - before;

        let FrameSplit::Frame { body_len } = split_frame(&out) else {
            panic!("one complete frame");
        };
        let reply = Response::decode(OP_SCAN, &out[4..4 + body_len]).unwrap();
        let expected: Vec<(u64, u64)> = (0..10).map(|k| (k, k)).collect();
        assert_eq!(
            reply,
            Response::Scan {
                entries: expected,
                truncated: true
            }
        );
        // The store holds 1.6 MB of (key, value) pairs; the reply 160 B.
        let store_bytes = KEYS as usize * 16;
        assert!(
            bytes < store_bytes / 100,
            "SCAN max=10 allocated {bytes} B over a {store_bytes} B store"
        );
    });
}
