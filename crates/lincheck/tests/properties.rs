//! Property-style tests for the linearizability checker itself, driven
//! by a fixed-seed SplitMix64 stream (no external property-testing
//! crate in this offline build).

use nmbst_lincheck::{check_history, GenEvent, MapOp, MapRet, MapSpec, SetOp, SetSpec, Spec};

/// SplitMix64 (Steele et al.): tiny, full-period, well-mixed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_ops(rng: &mut Rng, max_len: u64) -> Vec<SetOp> {
    let len = 1 + rng.below(max_len);
    (0..len)
        .map(|_| {
            let k = rng.below(8);
            match rng.below(3) {
                0 => SetOp::Insert(k),
                1 => SetOp::Remove(k),
                _ => SetOp::Contains(k),
            }
        })
        .collect()
}

/// Builds a sequential (non-overlapping) history by running `ops`
/// against the abstract model.
fn sequential_history(ops: &[SetOp]) -> Vec<GenEvent<SetSpec>> {
    let mut state = 0u64;
    let mut clock = 0u64;
    ops.iter()
        .map(|&op| {
            let (ret, next) = SetSpec.apply(&op, &state);
            state = next;
            let e = GenEvent {
                op,
                ret,
                invoke: clock,
                response: clock + 1,
            };
            clock += 2;
            e
        })
        .collect()
}

fn linearizable(h: &[GenEvent<SetSpec>]) -> bool {
    check_history(&SetSpec, h).is_some()
}

#[test]
fn sequential_histories_always_linearizable() {
    let mut rng = Rng(0x11C4_0001);
    for case in 0..200 {
        let ops = gen_ops(&mut rng, 23);
        let h = sequential_history(&ops);
        assert!(linearizable(&h), "case {case}: {ops:?}");
    }
}

#[test]
fn flipping_any_sequential_result_breaks_it() {
    // In a non-overlapping history every result is uniquely determined,
    // so corrupting one must be detected.
    let mut rng = Rng(0x11C4_0002);
    for case in 0..200 {
        let ops = gen_ops(&mut rng, 15);
        let mut h = sequential_history(&ops);
        let i = rng.below(h.len() as u64) as usize;
        h[i].ret = !h[i].ret;
        assert!(!linearizable(&h), "case {case}: flipped op {i} of {ops:?}");
    }
}

#[test]
fn witness_replay_is_always_consistent() {
    // Stretch response times to create overlap windows, then verify any
    // witness found actually replays correctly.
    let mut rng = Rng(0x11C4_0003);
    for case in 0..200 {
        let ops = gen_ops(&mut rng, 15);
        let overlap = rng.below(4);
        let mut h = sequential_history(&ops);
        for e in h.iter_mut() {
            e.response += overlap * 3;
        }
        let Some(order) = check_history(&SetSpec, &h) else {
            // Stretching responses only ADDS legal orders; the original
            // sequential history was legal, so a witness must exist.
            panic!("case {case}: stretched legal history reported illegal ({ops:?})");
        };
        assert_eq!(order.len(), h.len());
        let mut state = 0u64;
        for (pos, &i) in order.iter().enumerate() {
            // Real-time: no earlier-linearized op may have begun after a
            // later one ended.
            for &j in &order[..pos] {
                assert!(h[j].invoke < h[i].response, "case {case}: real-time order");
            }
            let (r, s) = SetSpec.apply(&h[i].op, &state);
            assert_eq!(r, h[i].ret, "case {case}: replay of op {i}");
            state = s;
        }
    }
}

#[test]
fn fully_overlapping_distinct_inserts_linearizable() {
    for n in 1usize..12 {
        let h: Vec<GenEvent<SetSpec>> = (0..n)
            .map(|i| GenEvent {
                op: SetOp::Insert(i as u64 % 8),
                // Duplicate keys: only the first per key may succeed.
                ret: i < 8,
                invoke: 0,
                response: 1000,
            })
            .collect();
        // All events overlap, inserts of 8 distinct keys succeed, the
        // rest (duplicates) fail — always linearizable.
        assert!(linearizable(&h), "n = {n}");
    }
}

/// Builds a concurrent history that is linearizable by construction:
/// op `i` takes effect at time `100 + 10 * i` against the model, and its
/// interval spreads a random distance around that point, so intervals
/// overlap several neighbours while the model order stays legal.
fn concurrent_history(rng: &mut Rng, ops: &[SetOp]) -> Vec<GenEvent<SetSpec>> {
    let mut state = 0u64;
    ops.iter()
        .enumerate()
        .map(|(i, &op)| {
            let (ret, next) = SetSpec.apply(&op, &state);
            state = next;
            let at = 100 + 10 * i as u64;
            GenEvent {
                op,
                ret,
                invoke: at - rng.below(40),
                response: at + 1 + rng.below(40),
            }
        })
        .collect()
}

/// The set history as a map history: every insert stores stamp 0, a
/// remove is a `Delete` (its verdict carries no value), a search a
/// `Get`.
fn as_map_history(h: &[GenEvent<SetSpec>]) -> Vec<GenEvent<MapSpec>> {
    h.iter()
        .map(|e| {
            let (op, ret) = match e.op {
                SetOp::Insert(k) => (MapOp::Insert(k, 0), MapRet::Inserted(e.ret)),
                SetOp::Remove(k) => (MapOp::Delete(k), MapRet::Deleted(e.ret)),
                SetOp::Contains(k) => (MapOp::Get(k), MapRet::Got(e.ret.then_some(0))),
            };
            GenEvent {
                op,
                ret,
                invoke: e.invoke,
                response: e.response,
            }
        })
        .collect()
}

#[test]
fn set_and_map_specs_agree_on_concurrent_set_histories() {
    // The map ADT restricted to one stamp is the set ADT, so the two
    // specs must give the same verdict on every set history: legal ones
    // as built, and the same ones with one result flipped, which the
    // overlap sometimes leaves legal and sometimes not.
    let mut rng = Rng(0x11C4_0004);
    let mut flipped_verdicts = [0usize; 2];
    for case in 0..200 {
        let ops = gen_ops(&mut rng, 23);
        let mut h = concurrent_history(&mut rng, &ops);
        assert!(linearizable(&h), "case {case}: built legal ({ops:?})");
        assert!(
            check_history(&MapSpec, &as_map_history(&h)).is_some(),
            "case {case}: map spec rejects a legal set history ({ops:?})"
        );
        let i = rng.below(h.len() as u64) as usize;
        h[i].ret = !h[i].ret;
        let set_verdict = linearizable(&h);
        assert_eq!(
            set_verdict,
            check_history(&MapSpec, &as_map_history(&h)).is_some(),
            "case {case}: specs disagree with op {i} flipped ({ops:?})"
        );
        flipped_verdicts[set_verdict as usize] += 1;
    }
    assert!(
        flipped_verdicts.iter().all(|&n| n > 0),
        "flipped histories cover both verdicts (illegal, legal): {flipped_verdicts:?}"
    );
}
