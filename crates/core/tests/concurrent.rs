//! Multi-threaded correctness tests for the NM-BST.
//!
//! These exercise the paths the paper's proof sketch (§3.3) reasons
//! about: conflicting inserts, conflicting deletes, insert-helps-delete,
//! delete-helps-delete, and chain removal (multiple logically deleted
//! leaves excised by one splice).

use nmbst::NmTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Simple deterministic per-thread generator (SplitMix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn disjoint_key_ranges_all_inserted() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 2_000;
    let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
    std::thread::scope(|s| {
        let set = &set;
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    assert!(set.insert(t * PER_THREAD + i, ()));
                }
            });
        }
    });
    assert_eq!(set.len() as u64, THREADS * PER_THREAD);
    let shape = set.check_invariants().expect("invariants after inserts");
    assert_eq!(shape.user_keys as u64, THREADS * PER_THREAD);
}

#[test]
fn racing_inserts_of_same_keys_exactly_one_winner() {
    const THREADS: usize = 8;
    const KEYS: u64 = 512;
    let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
    let wins = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let set = &set;
        let wins = &wins;
        for _ in 0..THREADS {
            s.spawn(move || {
                let mut local = 0;
                for k in 0..KEYS {
                    if set.insert(k, ()) {
                        local += 1;
                    }
                }
                wins.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed) as u64, KEYS);
    assert_eq!(set.len() as u64, KEYS);
    set.check_invariants().unwrap();
}

#[test]
fn racing_deletes_of_same_keys_exactly_one_winner() {
    const THREADS: usize = 8;
    const KEYS: u64 = 512;
    let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
    for k in 0..KEYS {
        set.insert(k, ());
    }
    let wins = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let set = &set;
        let wins = &wins;
        for _ in 0..THREADS {
            s.spawn(move || {
                let mut local = 0;
                for k in 0..KEYS {
                    if set.remove(&k) {
                        local += 1;
                    }
                }
                wins.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed) as u64, KEYS);
    assert_eq!(set.len(), 0);
    set.check_invariants().unwrap();
}

#[test]
fn per_key_conservation_under_mixed_churn() {
    // For every key: (#successful inserts - #successful removes) must
    // equal its final membership. This follows from linearizability of
    // the per-key insert/remove alternation and catches lost updates,
    // duplicated keys, and resurrection bugs.
    const THREADS: usize = 8;
    const OPS: usize = 20_000;
    const KEY_SPACE: u64 = 128; // small: maximum contention
    let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
    let ins: Vec<AtomicUsize> = (0..KEY_SPACE).map(|_| AtomicUsize::new(0)).collect();
    let del: Vec<AtomicUsize> = (0..KEY_SPACE).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|s| {
        let set = &set;
        let ins = &ins;
        let del = &del;
        for t in 0..THREADS {
            s.spawn(move || {
                let mut rng = 0xDEADBEEF ^ (t as u64) << 32;
                for _ in 0..OPS {
                    let r = splitmix(&mut rng);
                    let key = r % KEY_SPACE;
                    if r & (1 << 40) == 0 {
                        if set.insert(key, ()) {
                            ins[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if set.remove(&key) {
                        del[key as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let shape = set.check_invariants().expect("invariants after churn");
    let mut expected = 0;
    for k in 0..KEY_SPACE {
        let i = ins[k as usize].load(Ordering::Relaxed);
        let d = del[k as usize].load(Ordering::Relaxed);
        assert!(
            i == d || i == d + 1,
            "key {k}: {i} inserts vs {d} removes — alternation broken"
        );
        let present = i == d + 1;
        assert_eq!(set.contains(&k), present, "key {k} membership");
        expected += present as usize;
    }
    assert_eq!(shape.user_keys, expected);
}

#[test]
fn readers_never_crash_during_heavy_churn() {
    const KEY_SPACE: u64 = 64;
    let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
    for k in (0..KEY_SPACE).step_by(2) {
        set.insert(k, ());
    }
    let stop = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let set = &set;
        let stop = &stop;
        for t in 0..4u64 {
            s.spawn(move || {
                let mut rng = t.wrapping_mul(0xA24BAED4963EE407);
                for _ in 0..30_000 {
                    let k = splitmix(&mut rng) % KEY_SPACE;
                    if k.is_multiple_of(2) {
                        set.remove(&k);
                        set.insert(k, ());
                    } else {
                        set.insert(k, ());
                        set.remove(&k);
                    }
                }
                stop.fetch_add(1, Ordering::Release);
            });
        }
        for _ in 0..2 {
            s.spawn(move || {
                let mut rng = 7;
                while stop.load(Ordering::Acquire) < 4 {
                    let k = splitmix(&mut rng) % KEY_SPACE;
                    // Result is unpredictable; absence of UB/crash and
                    // post-hoc invariants are the assertion.
                    let _ = set.contains(&k);
                    let _ = set.count();
                }
            });
        }
    });
    set.check_invariants().unwrap();
}

#[test]
fn chain_removal_scenario_figure2() {
    // Build the Figure 2 situation deterministically: several deletes
    // whose victims lie along one access path, then let them race. The
    // invariant check proves the chain splice leaves a legal tree no
    // matter who wins.
    for _trial in 0..50 {
        let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
        // A right-leaning path: 10 < 20 < ... < 80.
        for k in (1..=8).map(|i| i * 10) {
            set.insert(k, ());
        }
        std::thread::scope(|s| {
            let set = &set;
            // Deletes of keys along the same path, racing.
            for k in [20u64, 30, 40, 50, 60] {
                s.spawn(move || {
                    assert!(set.remove(&k));
                });
            }
        });
        for k in [20u64, 30, 40, 50, 60] {
            assert!(!set.contains(&k));
        }
        for k in [10u64, 70, 80] {
            assert!(set.contains(&k), "lost innocent key {k}");
        }
        set.check_invariants().unwrap();
    }
}

#[test]
fn insert_helps_conflicting_delete() {
    // Insert lands repeatedly at injection points being deleted: small
    // key space, deletes of neighbours while inserts target between them.
    for _trial in 0..30 {
        let mut set: NmTreeMap<u64, ()> = NmTreeMap::new();
        for k in [10, 20, 30, 40] {
            set.insert(k, ());
        }
        std::thread::scope(|s| {
            let set = &set;
            s.spawn(move || {
                assert!(set.remove(&20));
            });
            s.spawn(move || {
                assert!(set.remove(&30));
            });
            s.spawn(move || {
                // Key 25 seeks into the region both deletes are tearing up.
                assert!(set.insert(25, ()));
            });
        });
        assert!(set.contains(&25));
        assert!(!set.contains(&20));
        assert!(!set.contains(&30));
        set.check_invariants().unwrap();
    }
}

#[test]
fn map_values_survive_concurrent_churn_on_other_keys() {
    let map: NmTreeMap<u64, String> = NmTreeMap::new();
    for k in 0..50 {
        map.insert(k, format!("v{k}"));
    }
    std::thread::scope(|s| {
        let map = &map;
        s.spawn(move || {
            for round in 0..200u64 {
                for k in 50..80 {
                    map.insert(k, format!("r{round}"));
                }
                for k in 50..80 {
                    map.remove(&k);
                }
            }
        });
        s.spawn(move || {
            for _ in 0..2_000 {
                for k in 0..50 {
                    assert_eq!(map.get(&k), Some(format!("v{k}")));
                }
            }
        });
    });
}

#[test]
fn works_through_arc_across_spawned_threads() {
    use std::sync::Arc;
    let set: Arc<NmTreeMap<u64, ()>> = Arc::new(NmTreeMap::new());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let set = Arc::clone(&set);
        handles.push(std::thread::spawn(move || {
            for i in 0..1000 {
                set.insert(t * 1000 + i, ());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(set.count(), 4000);
}
