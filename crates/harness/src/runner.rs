//! The timed throughput runner behind Figure 4.
//!
//! Mirrors the paper's §4 methodology: the tree is pre-populated to half
//! the key range, then `threads` workers issue operations drawn from the
//! workload mix on uniformly random keys for a fixed wall-clock
//! duration; the metric is completed operations per second.

use crate::adapter::ConcurrentSet;
use crate::rng::XorShift64Star;
use crate::workload::{OpKind, Workload};
use crate::zipf::ZipfGenerator;
use nmbst::obs::hist::Histogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How benchmark keys are drawn from the key space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KeyDist {
    /// Uniform over the range — the paper's §4 setting.
    #[default]
    Uniform,
    /// Zipf-skewed with the given theta (e.g. `0.99` = YCSB-hot).
    Zipf(f64),
}

/// One cell of the Figure 4 grid.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of worker threads (the paper sweeps 1–256).
    pub threads: usize,
    /// Size of the key space; keys are drawn from `1..=key_range`.
    pub key_range: u64,
    /// Operation mix.
    pub workload: Workload,
    /// Measured wall-clock duration (the paper used 30 s per run).
    pub duration: Duration,
    /// Seed for deterministic workload streams.
    pub seed: u64,
    /// Key distribution (the paper uses uniform).
    pub dist: KeyDist,
}

/// A per-thread key source implementing [`KeyDist`].
enum KeySource<'a> {
    Uniform(u64),
    Zipf(&'a ZipfGenerator),
}

impl KeySource<'_> {
    #[inline]
    fn next(&self, rng: &mut XorShift64Star) -> u64 {
        match self {
            KeySource::Uniform(range) => 1 + rng.next_bounded(*range),
            KeySource::Zipf(z) => 1 + z.next(rng),
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Implementation label.
    pub algorithm: &'static str,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Per-thread completed operations (load-balance diagnostics).
    pub per_thread: Vec<u64>,
}

impl BenchResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Inserts random keys until the set holds `key_range / 2` of them
/// (§4: "we *pre-populated* the tree prior to starting the simulation
/// run"). Returns the number inserted.
pub fn prepopulate<S: ConcurrentSet>(set: &S, key_range: u64, seed: u64) -> u64 {
    let target = key_range / 2;
    let mut rng = XorShift64Star::from_stream(seed, u64::MAX);
    let mut inserted = 0;
    while inserted < target {
        if set.insert(1 + rng.next_bounded(key_range)) {
            inserted += 1;
        }
    }
    inserted
}

/// Runs one cell: build, pre-populate, run the op mix for the configured
/// duration, return the counts.
pub fn run_throughput<S: ConcurrentSet>(cfg: &BenchConfig) -> BenchResult {
    let set = S::make();
    prepopulate(&set, cfg.key_range, cfg.seed);

    let zipf = match cfg.dist {
        KeyDist::Uniform => None,
        KeyDist::Zipf(theta) => Some(ZipfGenerator::new(cfg.key_range, theta)),
    };
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(cfg.threads + 1);
    let mut per_thread = vec![0u64; cfg.threads];
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let set = &set;
            let stop = &stop;
            let start_barrier = &start_barrier;
            let workload = cfg.workload;
            let key_range = cfg.key_range;
            let seed = cfg.seed;
            let zipf = zipf.as_ref();
            handles.push(s.spawn(move || {
                let source = match zipf {
                    Some(z) => KeySource::Zipf(z),
                    None => KeySource::Uniform(key_range),
                };
                let mut rng = XorShift64Star::from_stream(seed, t as u64);
                let mut ops = 0u64;
                start_barrier.wait();
                // Check the stop flag only every few ops so the flag
                // itself stays out of the measured footprint.
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..32 {
                        let key = source.next(&mut rng);
                        match workload.pick(&mut rng) {
                            OpKind::Search => {
                                std::hint::black_box(set.contains(key));
                            }
                            OpKind::Insert => {
                                std::hint::black_box(set.insert(key));
                            }
                            OpKind::Delete => {
                                std::hint::black_box(set.remove(key));
                            }
                        }
                        ops += 1;
                    }
                }
                ops
            }));
        }
        start_barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
        for (t, h) in handles.into_iter().enumerate() {
            per_thread[t] = h.join().expect("bench worker panicked");
        }
    });

    BenchResult {
        algorithm: S::label(),
        total_ops: per_thread.iter().sum(),
        elapsed,
        per_thread,
    }
}

/// Runs a cell `runs` times and returns the mean throughput in Mops/s
/// (the paper averages over multiple runs).
pub fn mean_mops<S: ConcurrentSet>(cfg: &BenchConfig, runs: usize) -> f64 {
    let total: f64 = (0..runs).map(|_| run_throughput::<S>(cfg).mops()).sum();
    total / runs as f64
}

/// Per-operation latency distribution from one run.
#[derive(Debug)]
pub struct LatencyResult {
    /// Implementation label.
    pub algorithm: &'static str,
    /// Merged latency histogram across threads (nanoseconds).
    pub hist: Histogram,
}

/// Measures per-operation latency: each thread runs `ops_per_thread`
/// operations of the configured mix and times every one. The duration
/// field of `cfg` is ignored (the run is op-count bounded, so the
/// histograms are deterministic in size).
pub fn run_latency<S: ConcurrentSet>(cfg: &BenchConfig, ops_per_thread: u64) -> LatencyResult {
    let set = S::make();
    prepopulate(&set, cfg.key_range, cfg.seed);
    let zipf = match cfg.dist {
        KeyDist::Uniform => None,
        KeyDist::Zipf(theta) => Some(ZipfGenerator::new(cfg.key_range, theta)),
    };
    let start_barrier = Barrier::new(cfg.threads);
    let merged = Mutex::new(Histogram::new());

    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let set = &set;
            let start_barrier = &start_barrier;
            let merged = &merged;
            let workload = cfg.workload;
            let key_range = cfg.key_range;
            let seed = cfg.seed;
            let zipf = zipf.as_ref();
            s.spawn(move || {
                let source = match zipf {
                    Some(z) => KeySource::Zipf(z),
                    None => KeySource::Uniform(key_range),
                };
                let mut rng = XorShift64Star::from_stream(seed, t as u64);
                let mut hist = Histogram::new();
                start_barrier.wait();
                for _ in 0..ops_per_thread {
                    let key = source.next(&mut rng);
                    let op = workload.pick(&mut rng);
                    let t0 = Instant::now();
                    match op {
                        OpKind::Search => {
                            std::hint::black_box(set.contains(key));
                        }
                        OpKind::Insert => {
                            std::hint::black_box(set.insert(key));
                        }
                        OpKind::Delete => {
                            std::hint::black_box(set.remove(key));
                        }
                    }
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
                merged.lock().unwrap().merge(&hist);
            });
        }
    });

    LatencyResult {
        algorithm: S::label(),
        hist: merged.into_inner().unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{NmEbr, NmLeaky};

    #[test]
    fn prepopulate_reaches_half_range() {
        let set = NmLeaky::make();
        let n = prepopulate(&set, 1000, 42);
        assert_eq!(n, 500);
        assert_eq!(set.count(), 500);
    }

    #[test]
    fn prepopulate_is_deterministic() {
        let a = NmLeaky::make();
        let b = NmLeaky::make();
        prepopulate(&a, 256, 7);
        prepopulate(&b, 256, 7);
        for k in 1..=256 {
            assert_eq!(
                ConcurrentSet::contains(&a, k),
                ConcurrentSet::contains(&b, k)
            );
        }
    }

    #[test]
    fn short_run_produces_throughput() {
        let cfg = BenchConfig {
            threads: 2,
            key_range: 128,
            workload: Workload::MIXED,
            duration: Duration::from_millis(50),
            seed: 1,
            dist: crate::runner::KeyDist::Uniform,
        };
        let res = run_throughput::<NmEbr>(&cfg);
        assert!(res.total_ops > 0);
        assert_eq!(res.per_thread.len(), 2);
        assert!(res.per_thread.iter().all(|&c| c > 0));
        assert!(res.mops() > 0.0);
        assert!(res.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn all_workloads_run_on_all_algorithms() {
        use crate::adapter::*;
        use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree, locked::LockedBTreeSet};
        fn one<S: ConcurrentSet>() {
            for w in Workload::FIGURE4 {
                let cfg = BenchConfig {
                    threads: 2,
                    key_range: 64,
                    workload: w,
                    duration: Duration::from_millis(10),
                    seed: 3,
                    dist: crate::runner::KeyDist::Uniform,
                };
                let r = run_throughput::<S>(&cfg);
                assert!(r.total_ops > 0, "{} idle under {}", S::label(), w.name);
            }
        }
        one::<NmLeaky>();
        one::<NmEbr>();
        one::<NmCasOnly>();
        one::<EfrbTree>();
        one::<HjTree>();
        one::<BccoTree>();
        one::<LockedBTreeSet>();
    }
}
