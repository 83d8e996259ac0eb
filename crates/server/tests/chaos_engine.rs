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

/// A fused BATCH over 64 stored keys: per key, a remove, an insert of a
/// new key, a get, or a duplicate insert, and the replies input order
/// owes them.
fn mixed_batch() -> (Vec<BatchOp>, Vec<BatchReply>) {
    (0..64u64)
        .map(|k| match k % 4 {
            0 => (BatchOp::Remove(k), BatchReply::Removed(true)),
            1 => (BatchOp::Insert(k + 1_000, k), BatchReply::Added(true)),
            2 => (BatchOp::Get(k), BatchReply::Found(k * 3)),
            _ => (BatchOp::Insert(k, 7), BatchReply::Added(false)),
        })
        .unzip()
}

/// Runs `body` with a persistent hook (not `FaultPlan::abandon_at`,
/// which is one-shot) that abandons **every** arrival at
/// `Point::BatchStale`, so every Phase-2 write of a fused BATCH treats
/// its Phase-1 seek record as stale and re-seeks before its CAS.
/// Returns `body`'s output and the number of arrivals.
fn forcing_every_reseek<T>(body: impl FnOnce() -> T) -> (T, u32) {
    let arrivals = Rc::new(Cell::new(0u32));
    let arrivals2 = Rc::clone(&arrivals);
    let out = chaos::with_hook(
        move |p| {
            if p == Point::BatchStale {
                arrivals2.set(arrivals2.get() + 1);
                return Action::Abandon;
            }
            Action::Continue
        },
        body,
    );
    (out, arrivals.get())
}

/// Forced re-seeks change no reply: every write of a mixed fused BATCH
/// reaches the staleness check and re-seeks, yet each reply is the one
/// input-order execution owes, and the store ends in the state those
/// replies describe.
#[test]
fn forced_batch_reseeks_keep_replies_correct() {
    with_local_engine(2, |eng| {
        let inserts: Vec<BatchOp> = (0..64).map(|k| BatchOp::Insert(k, k * 3)).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(inserts)), &mut out));

        let (ops, want) = mixed_batch();
        let body = encode_req(&Request::Batch(ops));
        let (reply_frame, arrivals) = forcing_every_reseek(|| {
            let mut out = Vec::new();
            assert!(eng.serve(&body, &mut out));
            out
        });
        assert_eq!(arrivals, 48, "every write reaches the staleness check");
        let Response::Batch(replies) = decode_reply(&reply_frame, OP_BATCH) else {
            panic!("expected a batch response");
        };
        assert_eq!(replies, want);

        let probes: Vec<BatchOp> = (0..64).chain(1_000..1_064).map(BatchOp::Get).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(probes)), &mut out));
        let Response::Batch(found) = decode_reply(&out, OP_BATCH) else {
            panic!("expected a batch response");
        };
        for (i, r) in found.iter().enumerate() {
            let (k, want) = if i < 64 {
                let k = i as u64;
                (k, (!k.is_multiple_of(4)).then_some(k * 3))
            } else {
                let k = i as u64 - 64 + 1_000;
                (k, (k % 4 == 1).then_some(k - 1_000))
            };
            let want = want.map_or(BatchReply::Missing, BatchReply::Found);
            assert_eq!(*r, want, "key {k}");
        }
    });
}

/// The same engine counts what it did: each forced re-seek is one
/// `batch_reseeks`, every op of the batch (no GET follows a same-key
/// write) descended in a Phase-1 lane, and every op ran fused.
#[test]
fn forced_batch_reseeks_are_counted() {
    with_local_engine(2, |eng| {
        let inserts: Vec<BatchOp> = (0..64).map(|k| BatchOp::Insert(k, k * 3)).collect();
        let mut out = Vec::new();
        assert!(eng.serve(&encode_req(&Request::Batch(inserts)), &mut out));
        let before = eng.metrics();
        assert!(before.batch_lane_ops >= 64, "the insert batch ran in lanes");

        let (ops, _) = mixed_batch();
        let body = encode_req(&Request::Batch(ops));
        let ((), arrivals) = forcing_every_reseek(|| {
            let mut out = Vec::new();
            assert!(eng.serve(&body, &mut out));
        });
        let after = eng.metrics();
        assert_eq!(
            after.batch_reseeks - before.batch_reseeks,
            u64::from(arrivals),
            "every forced re-seek is counted"
        );
        assert_eq!(arrivals, 48);
        assert_eq!(after.batch_lane_ops - before.batch_lane_ops, 64);
        assert_eq!(eng.stats().batch_fused_ops(), 128);
    });
}
