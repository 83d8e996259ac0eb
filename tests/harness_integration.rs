//! Workspace-level integration of the benchmark harness: the runner,
//! key distributions and latency measurement must drive every
//! implementation correctly (these are the components Figure 4's
//! numbers depend on, so they get correctness tests of their own).

use nmbst_harness::adapter::{ConcurrentSet, NmEbr, NmLeaky};
use nmbst_harness::rng::XorShift64Star;
use nmbst_harness::zipf::ZipfGenerator;
use nmbst_harness::{prepopulate, run_latency, run_throughput, BenchConfig, KeyDist, Workload};
use std::time::Duration;

fn cfg(threads: usize, dist: KeyDist) -> BenchConfig {
    BenchConfig {
        threads,
        key_range: 512,
        workload: Workload::MIXED,
        duration: Duration::from_millis(60),
        seed: 0xACE,
        dist,
    }
}

#[test]
fn throughput_runner_with_zipf_distribution() {
    let r = run_throughput::<NmEbr>(&cfg(2, KeyDist::Zipf(0.9)));
    assert!(r.total_ops > 0);
    assert_eq!(r.per_thread.len(), 2);
}

#[test]
fn latency_runner_produces_sane_percentiles() {
    let res = run_latency::<NmLeaky>(&cfg(2, KeyDist::Uniform), 5_000);
    let h = &res.hist;
    assert_eq!(h.len(), 10_000);
    assert!(h.percentile(50.0) <= h.percentile(99.0));
    assert!(h.percentile(99.0) <= h.max());
    assert!(h.mean() > 0.0);
    // On any machine, a tree op takes under a millisecond at p50.
    assert!(
        h.percentile(50.0) < 1_000_000,
        "p50 = {}ns",
        h.percentile(50.0)
    );
}

#[test]
fn zipf_skew_concentrates_load_but_preserves_correctness() {
    // Run a heavily skewed churn on a tree and verify per-key
    // conservation still holds: skew changes contention, never results.
    use std::sync::atomic::{AtomicI64, Ordering};
    const SPACE: u64 = 64;
    let set = NmEbr::make();
    let balance: Vec<AtomicI64> = (0..SPACE).map(|_| AtomicI64::new(0)).collect();
    let zipf = ZipfGenerator::new(SPACE, 0.99);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let set = &set;
            let balance = &balance;
            let zipf = &zipf;
            s.spawn(move || {
                let mut rng = XorShift64Star::from_stream(0xF00D, t);
                for _ in 0..10_000 {
                    let k = 1 + zipf.next(&mut rng);
                    if rng.next_u64() & 1 == 0 {
                        if set.insert(k, ()) {
                            balance[(k - 1) as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if set.remove(&k) {
                        balance[(k - 1) as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for k in 1..=SPACE {
        let b = balance[(k - 1) as usize].load(Ordering::Relaxed);
        assert!(b == 0 || b == 1, "key {k} balance {b}");
        assert_eq!(set.contains(&k), b == 1, "membership of {k}");
    }
}

#[test]
fn prepopulation_is_identical_across_implementations() {
    use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree};
    fn contents<S: ConcurrentSet>() -> Vec<u64> {
        let s = S::make();
        prepopulate(&s, 256, 31);
        (1..=256).filter(|&k| s.contains(k)).collect()
    }
    let nm = contents::<NmLeaky>();
    assert_eq!(nm.len(), 128);
    assert_eq!(contents::<EfrbTree>(), nm);
    assert_eq!(contents::<HjTree>(), nm);
    assert_eq!(contents::<BccoTree>(), nm);
}

#[test]
fn workload_mix_reaches_the_tree() {
    // A write-dominated run on an initially half-full range must change
    // the tree's contents relative to pre-population.
    let set = NmEbr::make();
    let before = prepopulate(&set, 512, 0xACE);
    assert_eq!(before, 256);
    let mut rng = XorShift64Star::new(1);
    let mut changed = 0;
    for _ in 0..5_000 {
        let k = 1 + rng.next_bounded(512);
        let did = if rng.next_u64() & 1 == 0 {
            set.insert(k, ())
        } else {
            set.remove(&k)
        };
        changed += u64::from(did);
    }
    assert!(changed > 1_000, "only {changed} ops changed the set");
}
