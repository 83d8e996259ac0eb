//! Long-running soak tests, `#[ignore]`d by default. Run explicitly:
//!
//! ```text
//! cargo test --release --test soak -- --ignored --test-threads=1
//! ```
//!
//! These shake out rare interleavings (helping chains, deep splices,
//! reclamation races) that the second-scale CI tests may miss.

use nmbst::NmTreeMap;
use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree};
use nmbst_reclaim::Ebr;
use std::sync::atomic::{AtomicI64, Ordering};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Generic conservation soak: heavy churn on a tiny key space.
macro_rules! soak {
    ($name:ident, $make:expr, $insert:expr, $remove:expr, $contains:expr) => {
        #[test]
        #[ignore = "soak test: minutes of runtime; run with --ignored"]
        fn $name() {
            const THREADS: usize = 12;
            const OPS: usize = 400_000;
            const SPACE: u64 = 48;
            let set = $make;
            let balance: Vec<AtomicI64> = (0..SPACE).map(|_| AtomicI64::new(0)).collect();
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let set = &set;
                    let balance = &balance;
                    s.spawn(move || {
                        let mut x = 0x6A09E667F3BCC909u64 ^ ((t as u64) << 17) | 1;
                        for _ in 0..OPS {
                            let r = xorshift(&mut x);
                            let k = r % SPACE + 1;
                            if r & 8 == 0 {
                                if $insert(set, k) {
                                    balance[(k - 1) as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            } else if r & 4 == 0 {
                                if $remove(set, k) {
                                    balance[(k - 1) as usize].fetch_sub(1, Ordering::Relaxed);
                                }
                            } else {
                                std::hint::black_box($contains(set, k));
                            }
                        }
                    });
                }
            });
            for k in 1..=SPACE {
                let b = balance[(k - 1) as usize].load(Ordering::Relaxed);
                assert!(b == 0 || b == 1, "key {k} balance {b}");
                assert_eq!($contains(&set, k), b == 1, "membership of {k}");
            }
        }
    };
}

soak!(
    soak_nm_ebr,
    NmTreeMap::<u64, (), Ebr>::new(),
    |s: &NmTreeMap<u64, (), Ebr>, k| s.insert(k, ()),
    |s: &NmTreeMap<u64, (), Ebr>, k: u64| s.remove(&k),
    |s: &NmTreeMap<u64, (), Ebr>, k: u64| s.contains(&k)
);

soak!(
    soak_efrb,
    EfrbTree::new(),
    |s: &EfrbTree, k| s.insert(k),
    |s: &EfrbTree, k: u64| s.remove(&k),
    |s: &EfrbTree, k: u64| s.contains(&k)
);

soak!(
    soak_hj,
    HjTree::new(),
    |s: &HjTree, k| s.insert(k),
    |s: &HjTree, k: u64| s.remove(&k),
    |s: &HjTree, k: u64| s.contains(&k)
);

soak!(
    soak_bcco,
    BccoTree::new(),
    |s: &BccoTree, k| s.insert(k),
    |s: &BccoTree, k: u64| s.remove(&k),
    |s: &BccoTree, k: u64| s.contains(&k)
);

/// Wide schedule-exploration sweep: the per-PR gate in
/// `tests/chaos_explorer.rs` covers a small seed window; this covers
/// thousands. `NMBST_EXPLORE_SEEDS` overrides the seed count.
#[test]
#[ignore = "soak test: minutes of runtime; run with --ignored"]
fn soak_explorer_wide_seed_sweep() {
    use nmbst_lincheck::explore::{explore_many, ExploreConfig};
    let seeds: u64 = std::env::var("NMBST_EXPLORE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_096);
    let stats = explore_many(&ExploreConfig::default(), 0..seeds).unwrap_or_else(|v| {
        // Dump the flight-recorder postmortem where CI can pick it up as
        // an artifact before failing the test.
        let path = std::env::var("NMBST_POSTMORTEM_PATH")
            .unwrap_or_else(|_| "target/postmortem.txt".into());
        let _ = std::fs::write(&path, v.postmortem());
        panic!("explorer found a real violation (postmortem: {path}): {v}");
    });
    assert_eq!(stats.schedules as u64, seeds);
    println!(
        "explored {} schedules ({} events) — clean",
        stats.schedules, stats.events
    );
}

/// Memory soak: sustained churn with EBR must not grow memory without
/// bound — asserted indirectly by counting live tracked values.
#[test]
#[ignore = "soak test: minutes of runtime; run with --ignored"]
fn soak_reclamation_bounded_garbage() {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let live = Arc::new(AtomicUsize::new(0));
    let map: nmbst::NmTreeMap<u64, Tracked, Ebr> = nmbst::NmTreeMap::new();
    const ROUNDS: usize = 200;
    const SPACE: u64 = 2_000;
    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = &map;
                let live = &live;
                s.spawn(move || {
                    for i in 0..SPACE / 4 {
                        let k = t * (SPACE / 4) + i;
                        live.fetch_add(1, Ordering::Relaxed);
                        if !map.insert(k, Tracked(Arc::clone(live))) {
                            // rejected duplicate: its value dropped now
                        }
                        map.remove(&k);
                    }
                    map.flush();
                });
            }
        });
        // After each quiescent round + flushes, live values must be
        // (nearly) zero: bounded by one thread-local bag per thread.
        let l = live.load(Ordering::Relaxed);
        assert!(
            l <= 4 * 64,
            "round {round}: {l} values still live — reclamation is lagging unboundedly"
        );
    }
    drop(map);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}
