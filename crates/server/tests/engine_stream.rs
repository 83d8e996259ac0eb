//! Pipelined streams through the serving engine, in process: the same
//! engine entry points a reactor's parse pass uses (`serve_frame` per
//! frame, then the pending GET run), with no sockets. Replies are
//! checked against a sequential model of the map — runs of GET frames
//! are answered by one interleaved multi-get, and that must be
//! invisible.

use nmbst_server::testing::{with_local_engine, GET_RUN_CAP};
use nmbst_server::wire::{split_frame, write_frame, FrameSplit, Request, Response};
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

/// What serving `reqs` one at a time against `model` answers.
fn sequential(model: &mut BTreeMap<u64, u64>, reqs: &[Request]) -> Vec<Response> {
    reqs.iter()
        .map(|req| match *req {
            Request::Get(k) => Response::Get(model.get(&k).copied()),
            Request::Insert(k, v) => {
                let fresh = !model.contains_key(&k);
                if fresh {
                    model.insert(k, v);
                }
                Response::Insert(fresh)
            }
            Request::Remove(k) => Response::Remove(model.remove(&k).is_some()),
            Request::Ping => Response::Pong,
            ref other => panic!("no model for {other:?}"),
        })
        .collect()
}

/// GET runs the engine must form: every maximal stretch of consecutive
/// GET frames, in pieces of at most `GET_RUN_CAP`.
fn expected_runs(reqs: &[Request]) -> u64 {
    let mut runs = 0;
    let mut len = 0usize;
    for req in reqs.iter().chain([&Request::Ping]) {
        if matches!(req, Request::Get(_)) {
            len += 1;
        } else {
            runs += len.div_ceil(GET_RUN_CAP) as u64;
            len = 0;
        }
    }
    runs
}

#[test]
fn pipelined_stream_matches_sequential_model() {
    with_local_engine(4, |eng| {
        let shards = eng.store().shard_count();
        // One key per shard, plus keys 0..400 spread over all shards.
        let mut per_shard = vec![None; shards];
        for k in 1_000u64.. {
            per_shard[eng.store().shard_of(&k)].get_or_insert(k);
            if per_shard.iter().all(Option::is_some) {
                break;
            }
        }
        let mut reqs = Vec::new();
        // Same-key sequences inside GET runs, on a key in every shard.
        for k in per_shard.iter().flatten().copied() {
            reqs.extend([
                Request::Get(k),
                Request::Insert(k, k + 1),
                Request::Get(k),
                Request::Remove(k),
                Request::Get(k),
            ]);
        }
        reqs.extend((0..400).step_by(2).map(|k| Request::Insert(k, k * 10)));
        // A run over three times the cap: hits and misses in every shard.
        reqs.extend((0..3 * GET_RUN_CAP as u64 + 5).map(|i| Request::Get(i * 7 % 400)));
        // Short runs broken by writes to keys the runs read.
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
        let gets = reqs.iter().filter(|r| matches!(r, Request::Get(_))).count() as u64;
        assert_eq!(eng.stats().get_run_frames(), gets);
        assert_eq!(eng.stats().get_runs(), expected_runs(&reqs));

        // A malformed GET in mid-run: the GETs before it are answered
        // first, then its Err frame, and nothing behind it is served.
        let mut wire = stream(&[Request::Get(2), Request::Get(3), Request::Get(4)]);
        write_frame(&mut wire, &[nmbst_server::wire::OP_GET, 1, 2, 3]).unwrap();
        wire.extend(stream(&[Request::Get(2), Request::Insert(999, 1)]));
        out.clear();
        assert!(!eng.serve_stream(&wire, &mut out), "the pass ends in error");
        let got = replies(&out, &[Request::Get(2), Request::Get(3), Request::Get(4)]);
        assert_eq!(got.len(), 4, "three replies and one Err: {got:?}");
        assert_eq!(
            got[..3],
            sequential(
                &mut model,
                &[Request::Get(2), Request::Get(3), Request::Get(4)]
            )[..]
        );
        assert!(matches!(got[3], Response::Err(_)), "{:?}", got[3]);
        assert_eq!(
            eng.store().get(&999),
            None,
            "frames after the error unserved"
        );
        assert_eq!(eng.stats().wire_errors(), 1);
    });
}
