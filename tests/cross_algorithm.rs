//! Differential testing: all five implementations must agree with each
//! other (and with `BTreeSet`) on identical operation sequences, both
//! sequentially and at post-concurrency quiescence.

use nmbst::NmTreeMap;
use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree, locked::LockedBTreeSet};
use nmbst_harness::adapter::{ConcurrentSet, NmEbr, NmLeaky};
use nmbst_reclaim::Ebr;
use std::collections::BTreeSet;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Applies the same pseudo-random op tape to one implementation and the
/// model, asserting every return value matches.
fn drive<S: ConcurrentSet>(seed: u64, ops: usize, key_space: u64) {
    let set = S::make();
    let mut model = BTreeSet::new();
    let mut x = seed;
    for i in 0..ops {
        let r = xorshift(&mut x);
        let k = r % key_space + 1;
        match r % 3 {
            0 => assert_eq!(
                set.insert(k),
                model.insert(k),
                "{} diverged from model at op {i} (insert {k})",
                S::label()
            ),
            1 => assert_eq!(
                set.remove(k),
                model.remove(&k),
                "{} diverged from model at op {i} (remove {k})",
                S::label()
            ),
            _ => assert_eq!(
                set.contains(k),
                model.contains(&k),
                "{} diverged from model at op {i} (contains {k})",
                S::label()
            ),
        }
    }
}

#[test]
fn every_implementation_matches_the_model_sequentially() {
    for seed in [1u64, 0xBEEF, 0x12345678] {
        drive::<NmLeaky>(seed, 8_000, 96);
        drive::<NmEbr>(seed, 8_000, 96);
        drive::<EfrbTree>(seed, 8_000, 96);
        drive::<HjTree>(seed, 8_000, 96);
        drive::<BccoTree>(seed, 8_000, 96);
        drive::<LockedBTreeSet>(seed, 8_000, 96);
    }
}

/// Concurrent phase on disjoint key slices, then all implementations
/// must hold the identical key set.
#[test]
fn implementations_converge_to_identical_contents() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 1_500;
    const SPACE: u64 = 512;

    fn churn<S: ConcurrentSet>() -> Vec<u64> {
        let set = S::make();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let set = &set;
                s.spawn(move || {
                    // Deterministic per-thread tape: same for every
                    // implementation. Keys partitioned by thread so the
                    // final contents are deterministic despite races.
                    let mut x = 0xC0FFEE ^ (t << 40) | 1;
                    for _ in 0..PER_THREAD {
                        let r = xorshift(&mut x);
                        let k = (r % (SPACE / THREADS)) * THREADS + t + 1;
                        if r & (1 << 33) == 0 {
                            set.insert(k);
                        } else {
                            set.remove(k);
                        }
                    }
                });
            }
        });
        (1..=SPACE).filter(|&k| set.contains(k)).collect()
    }

    let reference = churn::<LockedBTreeSet>();
    assert_eq!(churn::<NmLeaky>(), reference, "NM-BST (leaky) diverged");
    assert_eq!(churn::<NmEbr>(), reference, "NM-BST (ebr) diverged");
    assert_eq!(churn::<EfrbTree>(), reference, "EFRB diverged");
    assert_eq!(churn::<HjTree>(), reference, "HJ diverged");
    assert_eq!(churn::<BccoTree>(), reference, "BCCO diverged");
    assert!(!reference.is_empty(), "degenerate test: nothing inserted");
}

#[test]
fn nm_structural_invariants_after_cross_thread_churn() {
    let mut set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let set = &set;
            s.spawn(move || {
                let mut x = t * 0x9E3779B9 + 1;
                for _ in 0..5_000 {
                    let r = xorshift(&mut x);
                    let k = r % 200;
                    if r & 4 == 0 {
                        set.insert(k, ());
                    } else {
                        set.remove(&k);
                    }
                }
            });
        }
    });
    let shape = set.check_invariants().expect("invariants violated");
    assert_eq!(shape.user_keys, set.len());
}
