//! Mechanical linearizability checking of `NmTreeMap`'s *value-bearing*
//! operations (`insert(k, v)`, `remove_get`, `get`, and the interleaved
//! multi-get `MapHandle::get_many`) — stronger than the set checks:
//! stamped values let the checker catch value mix-ups (a remove
//! returning another insert's payload), not just membership errors.
//!
//! A `get_many` call is recorded as one `Get` per key, each sharing the
//! call's invoke/response interval: every key's answer must be some
//! linearizable `get` inside the call.

use nmbst::NmTreeMap;
use nmbst_lincheck::spec::{check_history, GenEvent, MapOp, MapRet, MapSpec};
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
