//! Memory accounting under epoch-based reclamation: every node the tree
//! allocates is freed exactly once — no leaks, no double frees — and
//! values are dropped exactly once.

use nmbst::{Ebr, NmTreeMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A value whose clones and drops are counted.
struct Tracked {
    live: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Tracked {
            live: Arc::clone(live),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[test]
fn values_dropped_exactly_once_sequential() {
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    for k in 0..500 {
        assert!(map.insert(k, Tracked::new(&live)));
    }
    assert_eq!(live.load(Ordering::Relaxed), 500);
    // Duplicate inserts drop their values immediately.
    for k in 0..100 {
        assert!(!map.insert(k, Tracked::new(&live)));
    }
    assert_eq!(live.load(Ordering::Relaxed), 500);
    // Removals retire nodes; values die when the collector frees them.
    for k in 0..250 {
        assert!(map.remove(&k));
    }
    drop(map);
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leaked or double-dropped values"
    );
}

#[test]
fn values_dropped_exactly_once_concurrent() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 800;
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    std::thread::scope(|s| {
        let map = &map;
        let live = &live;
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let k = t * PER_THREAD + i;
                    map.insert(k, Tracked::new(live));
                    if i % 2 == 0 {
                        map.remove(&k);
                    }
                }
                map.flush();
            });
        }
    });
    let expected_live = (THREADS * PER_THREAD / 2) as usize;
    assert_eq!(map.count(), expected_live);
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0, "leak under concurrency");
}

#[test]
fn contended_same_keys_no_leak() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 2_000;
    const KEY_SPACE: u64 = 32;
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    std::thread::scope(|s| {
        let map = &map;
        let live = &live;
        for t in 0..THREADS {
            s.spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..ROUNDS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEY_SPACE;
                    if x & 1 == 0 {
                        map.insert(k, Tracked::new(live));
                    } else {
                        map.remove(&k);
                    }
                }
                map.flush();
            });
        }
    });
    let present = map.count();
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0);
    assert!(present <= KEY_SPACE as usize);
}

#[test]
fn flush_reclaims_without_dropping_tree() {
    // After heavy churn and a flush + quiescent period, the collector
    // should have freed the bulk of retired values even while the tree
    // is still alive.
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    for round in 0..10 {
        for k in 0..200 {
            map.insert(k, Tracked::new(&live));
        }
        for k in 0..200 {
            map.remove(&k);
        }
        let _ = round;
    }
    map.flush();
    map.flush();
    map.flush();
    // 2000 values were created and all removed; everything should be
    // reclaimed by now (no thread is pinned).
    assert_eq!(live.load(Ordering::Relaxed), 0);
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

#[test]
fn handle_repin_keeps_reclamation_flowing() {
    // A MapHandle holds one epoch guard across many operations. Its
    // periodic re-pin must be a real unpin/pin — otherwise a long-lived
    // handle parks the global epoch forever and every node retired while
    // it exists becomes unreclaimable garbage.
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    let mut h = map.handle().with_repin_every(8);
    for round in 0..64 {
        for k in 0..32 {
            h.insert(k, Tracked::new(&live));
        }
        for k in 0..32 {
            assert!(h.remove(&k), "round {round}: key {k} missing");
        }
        map.flush();
    }
    // 2048 values churned through a handle that was never dropped. With
    // the handle's guard re-pinned every 8 ops, the epoch kept advancing
    // and the collector kept up: the bulk of the garbage must be gone
    // while the handle still exists.
    let leaked = live.load(Ordering::Relaxed);
    assert!(
        leaked < 200,
        "{leaked} of 2048 removed values still live: the handle's \
         re-pin is not releasing its epoch"
    );
    drop(h);
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

#[test]
fn handle_without_repin_holds_its_epoch() {
    // Control for the test above: a handle that never re-pins must pin
    // its epoch, so garbage retired by *other* threads after the handle
    // pinned cannot all be freed while it is held. This is the hazard
    // the re-pin budget exists to bound.
    let live = Arc::new(AtomicUsize::new(0));
    let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
    let mut h = map.handle().with_repin_every(u32::MAX);
    assert!(!h.contains(&0)); // force the pin now
    std::thread::scope(|s| {
        let map = &map;
        let live = &live;
        s.spawn(move || {
            for k in 0..512 {
                map.insert(k, Tracked::new(live));
                map.remove(&k);
            }
            map.flush();
            map.flush();
        });
    });
    let held = live.load(Ordering::Relaxed);
    assert!(
        held > 0,
        "an unpinned-never handle should have trapped some garbage"
    );
    // Releasing the handle's guard unblocks the epoch; the next flushes
    // reclaim everything.
    h.unpin();
    map.flush();
    map.flush();
    map.flush();
    drop(h);
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

#[test]
fn leaky_mode_reads_remain_valid_after_remove() {
    // With the paper's no-reclamation mode, removed nodes stay readable
    // (leaked); this is exactly the §4 benchmark configuration.
    use nmbst::Leaky;
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    for k in 0..100 {
        set.insert(k, ());
    }
    for k in 0..100 {
        set.remove(&k);
    }
    assert_eq!(set.count(), 0);
}
