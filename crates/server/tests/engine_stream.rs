//! Pipelined streams through the serving engine, in process: the same
//! engine entry points a reactor's parse pass uses (`serve_frame` per
//! frame, then the pending chunk), with no sockets. Replies are checked
//! against a sequential model of the map — the data frames of a pass
//! are served in chunks of `SEARCH_LANES` ops by one `execute_batch`
//! each, and that must be invisible.

use nmbst::SEARCH_LANES;
use nmbst_server::testing::with_local_engine;
use nmbst_server::wire::{
    split_frame, write_frame, BatchOp, BatchReply, FrameSplit, Request, Response, OP_BATCH,
    OP_INSERT,
};
use std::collections::BTreeMap;

fn stream(reqs: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for req in reqs {
        let mut body = Vec::new();
        req.encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    wire
}

/// Decodes every reply frame in `out`, the i-th as the answer to
/// `reqs[i]` (the first reply of an unknown request must be an Err).
fn replies(mut out: &[u8], reqs: &[Request]) -> Vec<Response> {
    let mut got = Vec::new();
    while let FrameSplit::Frame { body_len } = split_frame(out) {
        let op = reqs.get(got.len()).map_or(0, Request::opcode);
        got.push(Response::decode(op, &out[4..4 + body_len]).unwrap());
        out = &out[4 + body_len..];
    }
    assert!(out.is_empty(), "no partial reply frame");
    got
}

/// One op applied to the model, as a BATCH reply.
fn apply(model: &mut BTreeMap<u64, u64>, op: BatchOp) -> BatchReply {
    match op {
        BatchOp::Get(k) => model
            .get(&k)
            .copied()
            .map_or(BatchReply::Missing, BatchReply::Found),
        BatchOp::Insert(k, v) => {
            let fresh = !model.contains_key(&k);
            if fresh {
                model.insert(k, v);
            }
            BatchReply::Added(fresh)
        }
        BatchOp::Remove(k) => BatchReply::Removed(model.remove(&k).is_some()),
    }
}

/// What serving `reqs` one at a time, each op in request order, against
/// `model` answers.
fn sequential(model: &mut BTreeMap<u64, u64>, reqs: &[Request]) -> Vec<Response> {
    reqs.iter()
        .map(|req| match req {
            Request::Get(k) => Response::Get(model.get(k).copied()),
            Request::Insert(k, v) => match apply(model, BatchOp::Insert(*k, *v)) {
                BatchReply::Added(added) => Response::Insert(added),
                r => unreachable!("{r:?}"),
            },
            Request::Remove(k) => Response::Remove(model.remove(k).is_some()),
            Request::Batch(ops) => {
                Response::Batch(ops.iter().map(|&op| apply(model, op)).collect())
            }
            Request::Ping => Response::Pong,
            other => panic!("no model for {other:?}"),
        })
        .collect()
}

/// The chunks the engine must run over one pass of `reqs`, and their
/// ops: a chunk runs once it holds `SEARCH_LANES` ops or frames, before
/// any non-data frame, and at the end of the pass.
fn expected_chunks(reqs: &[Request]) -> (u64, u64) {
    let (mut chunks, mut ops) = (0, 0);
    let (mut frames, mut pending) = (0usize, 0usize);
    for req in reqs {
        let n = match req {
            Request::Get(_) | Request::Insert(..) | Request::Remove(_) => Some(1),
            Request::Batch(b) => Some(b.len()),
            _ => None,
        };
        if let Some(n) = n {
            frames += 1;
            pending += n;
            ops += n as u64;
        }
        let full = pending.max(frames) >= SEARCH_LANES;
        if full || (n.is_none() && frames > 0) {
            chunks += 1;
            (frames, pending) = (0, 0);
        }
    }
    (chunks + u64::from(frames > 0), ops)
}

#[test]
fn pipelined_mixed_stream_matches_sequential_model() {
    with_local_engine(4, |eng| {
        let shards = eng.store().shard_count();
        // One key per shard.
        let mut per_shard = vec![None; shards];
        for k in 1_000u64.. {
            per_shard[eng.store().shard_of(&k)].get_or_insert(k);
            if per_shard.iter().all(Option::is_some) {
                break;
            }
        }
        let mut reqs = Vec::new();
        // Same-key sequences of five frames on a key in every shard,
        // twice over: 40 frames, so chunk boundaries (every 16 ops) fall
        // inside sequences.
        for round in 0..2 {
            for k in per_shard.iter().flatten().copied() {
                reqs.extend([
                    Request::Get(k),
                    Request::Insert(k, k + round),
                    Request::Get(k),
                    Request::Remove(k),
                    Request::Get(k),
                ]);
            }
        }
        reqs.extend((0..400).step_by(2).map(|k| Request::Insert(k, k * 10)));
        // Hits and misses in every shard, with BATCH frames between
        // point frames: a BATCH frame larger than a chunk, small ones
        // with duplicate keys, and an empty one.
        for i in 0..60u64 {
            let k = i * 7 % 400;
            reqs.push(Request::Get(k));
            reqs.push(match i % 10 {
                0 => Request::Batch(
                    (0..40)
                        .map(|j| match j % 4 {
                            0 => BatchOp::Get(k + j),
                            1 => BatchOp::Insert(k + j, j),
                            2 => BatchOp::Get(k + j - 1),
                            _ => BatchOp::Remove(k + j - 2),
                        })
                        .collect(),
                ),
                3 => Request::Batch(vec![
                    BatchOp::Insert(k, 1),
                    BatchOp::Get(k),
                    BatchOp::Remove(k),
                    BatchOp::Get(k),
                    BatchOp::Insert(k, 2),
                ]),
                5 => Request::Batch(Vec::new()),
                7 => Request::Ping,
                _ => Request::Remove(k + 1),
            });
        }
        // Short point runs broken by writes to keys the runs read.
        for k in 0..40u64 {
            reqs.extend([Request::Get(k), Request::Get(k + 1), Request::Get(k + 2)]);
            reqs.push(match k % 3 {
                0 => Request::Remove(k + 1),
                1 => Request::Insert(k + 1, 7),
                _ => Request::Ping,
            });
        }

        let mut model = BTreeMap::new();
        let mut out = Vec::new();
        assert!(eng.serve_stream(&stream(&reqs), &mut out));
        assert_eq!(replies(&out, &reqs), sequential(&mut model, &reqs));
        let (chunks, ops) = expected_chunks(&reqs);
        assert_eq!(eng.stats().chunks(), chunks);
        assert_eq!(eng.stats().chunk_ops(), ops);
        let batch_ops: usize = reqs
            .iter()
            .map(|r| match r {
                Request::Batch(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(eng.stats().batch_fused_ops(), batch_ops as u64);

        // A malformed frame in mid-chunk: everything before it is
        // answered first, then its Err frame, and nothing behind it is
        // served. The bad BATCH's first op is well formed and must not
        // run either.
        let before = [
            Request::Insert(500, 5),
            Request::Get(2),
            Request::Batch(vec![BatchOp::Get(500), BatchOp::Remove(4)]),
            Request::Get(4),
        ];
        for bad in [
            vec![OP_INSERT, 1, 2, 3],
            [OP_BATCH, 2, 0, 0, 0, OP_INSERT]
                .into_iter()
                .chain(777u64.to_le_bytes())
                .chain(1u64.to_le_bytes())
                .chain([0x09])
                .collect(),
        ] {
            let mut wire = stream(&before);
            write_frame(&mut wire, &bad).unwrap();
            wire.extend(stream(&[Request::Get(2), Request::Insert(999, 1)]));
            out.clear();
            assert!(!eng.serve_stream(&wire, &mut out), "the pass ends in error");
            let got = replies(&out, &before);
            assert_eq!(got.len(), before.len() + 1, "replies then one Err: {got:?}");
            assert_eq!(
                got[..before.len()],
                sequential(&mut model, &before)[..],
                "earlier frames answered in order"
            );
            assert!(matches!(got[before.len()], Response::Err(_)), "{got:?}");
            assert_eq!(eng.store().get(&777), None, "the bad frame ran nothing");
            assert_eq!(
                eng.store().get(&999),
                None,
                "frames after the error unserved"
            );
            // Undo the frames that ran, for the next case.
            let undo = [Request::Remove(500), Request::Insert(4, 40)];
            out.clear();
            assert!(eng.serve_stream(&stream(&undo), &mut out));
            sequential(&mut model, &undo);
        }
        assert_eq!(eng.stats().wire_errors(), 2);
    });
}
