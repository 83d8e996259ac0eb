//! Fault injection through the serving path. Chaos hooks are
//! thread-local (`nmbst::chaos::with_hook` installs into the calling
//! thread), so these tests drive the reactor's exact request engine
//! in-process via the hidden `testing` module instead of across reactor
//! threads — same decode → execute → encode path, no sockets.
//!
//! Requires the `chaos` feature on `nmbst`, which this crate's
//! dev-dependency enables for all test builds (feature unification).

use nmbst::chaos::{self, Action, Point};
use nmbst_server::testing::with_local_engine;
use nmbst_server::wire::{
    split_frame, BatchOp, BatchReply, FrameSplit, Request, Response, OP_BATCH,
};
use std::cell::Cell;
use std::rc::Rc;

fn encode_req(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    req.encode(&mut body);
    body
}

/// Splits exactly one frame out of `out` and decodes it as a response
/// to `for_op`.
fn decode_reply(frame: &[u8], for_op: u8) -> Response {
    match split_frame(frame) {
        FrameSplit::Frame { body_len } => {
            assert_eq!(4 + body_len, frame.len(), "exactly one frame queued");
            Response::decode(for_op, &frame[4..]).unwrap()
        }
        other => panic!("expected a complete frame, got {other:?}"),
    }
}

/// Forces **every** `Point::BatchFinger` anchor revalidation in a fused
/// BATCH to abandon (descend from the root — a deterministic finger
/// miss; a persistent hook, not `FaultPlan::abandon_at`, which is
/// one-shot). Replies must be unaffected, the hook must actually have
/// fired, and the misses must surface in the store's finger counters —
/// proving the server path both *uses* the finger and *survives*
/// losing it.
#[test]
fn forced_batch_finger_abandons_keep_replies_correct() {
    with_local_engine(2, |eng| {
        let inserts: Vec<BatchOp> = (0..64).map(|k| BatchOp::Insert(k, k * 3)).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(inserts)), &mut out));

        let baseline = eng.metrics();
        let gets: Vec<BatchOp> = (0..64).map(BatchOp::Get).collect();
        let body = encode_req(&Request::Batch(gets));
        let arrivals = Rc::new(Cell::new(0u32));
        let arrivals2 = Rc::clone(&arrivals);
        let reply_frame = chaos::with_hook(
            move |p| {
                if p == Point::BatchFinger {
                    arrivals2.set(arrivals2.get() + 1);
                    return Action::Abandon;
                }
                Action::Continue
            },
            || {
                let mut out = Vec::new();
                assert!(eng.serve(&body, &mut out));
                out
            },
        );
        assert!(
            arrivals.get() > 0,
            "the engine's fused gets must reach the finger point"
        );

        let Response::Batch(replies) = decode_reply(&reply_frame, OP_BATCH) else {
            panic!("expected a batch response");
        };
        assert_eq!(replies.len(), 64);
        for (k, r) in replies.iter().enumerate() {
            assert_eq!(*r, BatchReply::Found(k as u64 * 3), "get {k}");
        }

        let after = eng.metrics();
        assert_eq!(
            after.finger_hits, baseline.finger_hits,
            "no finger hits while every anchor is abandoned"
        );
        assert_eq!(
            after.finger_misses,
            baseline.finger_misses + 64,
            "all 64 forced root descents surface as finger misses"
        );
    });
}

/// The same engine without injection: a fused batch over sorted
/// same-shard runs must actually *hit* the finger — the property the
/// perf gate asserts end-to-end over TCP, pinned down here at the
/// engine layer where it is deterministic.
#[test]
fn fused_batches_hit_the_finger_without_injection() {
    with_local_engine(2, |eng| {
        let inserts: Vec<BatchOp> = (0..256).map(|k| BatchOp::Insert(k, k)).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(inserts)), &mut out));
        out.clear();
        let gets: Vec<BatchOp> = (0..256).map(BatchOp::Get).collect();
        assert!(eng.serve(&encode_req(&Request::Batch(gets)), &mut out));

        let m = eng.metrics();
        assert!(
            m.finger_hits > 0,
            "sorted per-shard runs through the fused engine must anchor \
             on the finger (hits={}, misses={})",
            m.finger_hits,
            m.finger_misses
        );
        assert_eq!(eng.stats().batch_fused_ops(), 512);
    });
}
