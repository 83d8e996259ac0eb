//! Mechanical linearizability checking of `NmTreeMap`'s *value-bearing*
//! operations (`insert(k, v)`, `remove_get`, `get`, and the interleaved
//! multi-get `MapHandle::get_many`) — stronger than the set checks:
//! stamped values let the checker catch value mix-ups (a remove
//! returning another insert's payload), not just membership errors.
//!
//! A `get_many` call is recorded as one `Get` per key, each sharing the
//! call's invoke/response interval: every key's answer must be some
//! linearizable `get` inside the call. `ShardedMapHandle::execute_batch`
//! is checked the same way, one event per command: batches with
//! duplicate keys race point mutators on the same shards.

use nmbst::{BatchCmd, BatchScratch, BatchVerdict, NmTreeMap, ShardedMap};
use nmbst_lincheck::spec::{
    check_history, check_history_ordered, GenEvent, MapOp, MapRet, MapSpec,
};
use nmbst_reclaim::Ebr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const THREADS: u64 = 3;
const OPS_PER_THREAD: u64 = 6;
const KEY_SPACE: u64 = 3;
const TRIALS: u64 = 120;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn map_histories_with_values_are_linearizable() {
    for trial in 0..TRIALS {
        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        let clock = AtomicU64::new(0);
        let stamp_gen = AtomicU64::new(1);
        let all: Mutex<Vec<GenEvent<MapSpec>>> = Mutex::new(Vec::new());

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let map = &map;
                let clock = &clock;
                let stamp_gen = &stamp_gen;
                let all = &all;
                s.spawn(move || {
                    let mut rng = trial * 7_368_787 + t * 104_729 + 1;
                    let mut local = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        let r = xorshift(&mut rng);
                        let key = r % KEY_SPACE + 1;
                        if r % 4 == 3 {
                            let keys = [key, (r >> 32) % KEY_SPACE + 1];
                            let mut h = map.handle();
                            let mut out = Vec::new();
                            let invoke = clock.fetch_add(1, Ordering::AcqRel);
                            h.get_many(&keys, &mut out);
                            let response = clock.fetch_add(1, Ordering::AcqRel);
                            for (&k, &v) in keys.iter().zip(&out) {
                                local.push(GenEvent {
                                    op: MapOp::Get(k),
                                    ret: MapRet::Got(v),
                                    invoke,
                                    response,
                                });
                            }
                            continue;
                        }
                        let (op, run): (MapOp, Box<dyn FnOnce() -> MapRet>) = match r % 3 {
                            0 => {
                                // Globally unique stamp per insert.
                                let stamp = stamp_gen.fetch_add(1, Ordering::Relaxed);
                                (
                                    MapOp::Insert(key, stamp),
                                    Box::new(move || MapRet::Inserted(map.insert(key, stamp))),
                                )
                            }
                            1 => (
                                MapOp::Remove(key),
                                Box::new(move || MapRet::Removed(map.remove_get(&key))),
                            ),
                            _ => (
                                MapOp::Get(key),
                                Box::new(move || MapRet::Got(map.get(&key))),
                            ),
                        };
                        let invoke = clock.fetch_add(1, Ordering::AcqRel);
                        let ret = run();
                        let response = clock.fetch_add(1, Ordering::AcqRel);
                        local.push(GenEvent {
                            op,
                            ret,
                            invoke,
                            response,
                        });
                    }
                    all.lock().unwrap().extend(local);
                });
            }
        });

        let history = all.into_inner().unwrap();
        assert!(
            check_history(&MapSpec, &history).is_some(),
            "trial {trial}: non-linearizable map history:\n{history:#?}"
        );
    }
}

#[test]
fn checker_catches_value_swap() {
    // Feed the checker a corrupted history: remove reports a stamp that
    // was never inserted under that key.
    let h = vec![
        GenEvent::<MapSpec> {
            op: MapOp::Insert(1, 10),
            ret: MapRet::Inserted(true),
            invoke: 0,
            response: 1,
        },
        GenEvent::<MapSpec> {
            op: MapOp::Remove(1),
            ret: MapRet::Removed(Some(11)),
            invoke: 2,
            response: 3,
        },
    ];
    assert!(check_history(&MapSpec, &h).is_none());
}

/// Threads running mixed `execute_batch` batches — duplicate keys within
/// a batch are the common case over 3 keys — race threads running point
/// mutators on the same shards. Each command of a batch is one event
/// spanning the whole call, and a batch's same-key commands must also
/// linearize in input order (the batch contract, which no interval can
/// state); the history must be linearizable under both.
#[test]
fn execute_batch_histories_are_linearizable() {
    const BATCH_THREADS: u64 = 2;
    const POINT_THREADS: u64 = 2;
    const BATCHES: u64 = 3;
    for trial in 0..TRIALS {
        let map: ShardedMap<u64, u64, Ebr> = ShardedMap::with_shards(2);
        let clock = AtomicU64::new(0);
        let stamp_gen = AtomicU64::new(1);
        // Events, and the `(a, b)` index pairs where `a` must linearize
        // before `b`.
        type Recorded = (Vec<GenEvent<MapSpec>>, Vec<(usize, usize)>);
        let all: Mutex<Recorded> = Mutex::default();
        let stamp = || stamp_gen.fetch_add(1, Ordering::Relaxed);

        std::thread::scope(|s| {
            for t in 0..BATCH_THREADS + POINT_THREADS {
                let (map, clock, all, stamp) = (&map, &clock, &all, &stamp);
                s.spawn(move || {
                    let mut rng = trial * 6_700_417 + t * 65_537 + 3;
                    let (mut local, mut order) = (Vec::new(), Vec::new());
                    let mut h = map.handle();
                    let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
                    for _ in 0..BATCHES {
                        let len = if t < BATCH_THREADS {
                            2 + xorshift(&mut rng) % 3
                        } else {
                            1
                        };
                        let cmds: Vec<BatchCmd<u64, u64>> = (0..len)
                            .map(|_| {
                                let r = xorshift(&mut rng);
                                let key = r % KEY_SPACE + 1;
                                match (r >> 8) % 3 {
                                    0 => BatchCmd::Insert(key, stamp()),
                                    1 => BatchCmd::Remove(key),
                                    _ => BatchCmd::Get(key),
                                }
                            })
                            .collect();
                        let invoke = clock.fetch_add(1, Ordering::AcqRel);
                        if t < BATCH_THREADS {
                            h.execute_batch(&cmds, &mut scratch, &mut out);
                        } else {
                            // A point mutator through the plain routed API.
                            out.clear();
                            out.push(match cmds[0] {
                                BatchCmd::Insert(k, v) => BatchVerdict::Added(map.insert(k, v)),
                                BatchCmd::Remove(k) => BatchVerdict::Removed(map.remove(&k)),
                                BatchCmd::Get(k) => map
                                    .get(&k)
                                    .map_or(BatchVerdict::Missing, BatchVerdict::Found),
                            });
                        }
                        let response = clock.fetch_add(1, Ordering::AcqRel);
                        let base = local.len();
                        for (b, cmd) in cmds.iter().enumerate() {
                            order.extend(
                                (0..b)
                                    .filter(|&a| cmds[a].key() == cmd.key())
                                    .map(|a| (base + a, base + b)),
                            );
                        }
                        for (cmd, verdict) in cmds.iter().zip(&out) {
                            let op = match *cmd {
                                BatchCmd::Insert(k, v) => MapOp::Insert(k, v),
                                BatchCmd::Remove(k) => MapOp::Delete(k),
                                BatchCmd::Get(k) => MapOp::Get(k),
                            };
                            let ret = match *verdict {
                                BatchVerdict::Added(added) => MapRet::Inserted(added),
                                BatchVerdict::Removed(removed) => MapRet::Deleted(removed),
                                BatchVerdict::Found(v) => MapRet::Got(Some(v)),
                                BatchVerdict::Missing => MapRet::Got(None),
                            };
                            local.push(GenEvent {
                                op,
                                ret,
                                invoke,
                                response,
                            });
                        }
                    }
                    let mut all = all.lock().unwrap();
                    let base = all.0.len();
                    all.0.extend(local);
                    all.1
                        .extend(order.iter().map(|&(a, b)| (base + a, base + b)));
                });
            }
        });

        let (history, order) = all.into_inner().unwrap();
        let mut preds = vec![0u64; history.len()];
        for (a, b) in order {
            preds[b] |= 1 << a;
        }
        assert!(
            check_history_ordered(&MapSpec, &history, &preds).is_some(),
            "trial {trial}: non-linearizable batch history:\n{history:#?}"
        );
    }
}
