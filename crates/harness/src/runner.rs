//! The timed throughput runner behind Figure 4.
//!
//! Mirrors the paper's §4 methodology: the tree is pre-populated to half
//! the key range, then `threads` workers issue operations drawn from the
//! workload mix on uniformly random keys for a fixed wall-clock
//! duration; the metric is completed operations per second.

use crate::adapter::ConcurrentSet;
use crate::rng::XorShift64Star;
use crate::workload::{OpKind, SortedBatchGen, Workload};
use crate::zipf::ZipfGenerator;
use nmbst::obs::hist::Histogram;
use nmbst::obs::MetricsSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How often the runner samples [`ConcurrentSet::metrics`] during a
/// timed run. Coarse on purpose: sampling sums the counter shards, and
/// we don't want the driver thread perturbing the measurement.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(200);

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

impl BenchConfig {
    /// A small default suitable for quick runs.
    pub fn quick(threads: usize, key_range: u64, workload: Workload) -> Self {
        BenchConfig {
            threads,
            key_range,
            workload,
            duration: Duration::from_millis(500),
            seed: 0x5EED,
            dist: KeyDist::Uniform,
        }
    }
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
    /// Periodic metrics samples `(elapsed, snapshot)` taken by the
    /// driver thread during the run, plus one final sample after the
    /// workers join. Empty for implementations without metrics.
    pub samples: Vec<(Duration, MetricsSnapshot)>,
}

impl BenchResult {
    /// The final metrics snapshot (taken after all workers joined, so
    /// every handle has flushed), if the implementation exposes one.
    pub fn final_metrics(&self) -> Option<&MetricsSnapshot> {
        self.samples.last().map(|(_, m)| m)
    }
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
    let mut samples: Vec<(Duration, MetricsSnapshot)> = Vec::new();

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
        // The driver doubles as a low-rate metrics sampler while the
        // workers run; for implementations without metrics this is the
        // same sleep loop with extra wakeups.
        loop {
            let remaining = cfg.duration.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break;
            }
            std::thread::sleep(remaining.min(SAMPLE_INTERVAL));
            if let Some(m) = set.metrics() {
                samples.push((t0.elapsed(), m));
            }
        }
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
        for (t, h) in handles.into_iter().enumerate() {
            per_thread[t] = h.join().expect("bench worker panicked");
        }
    });

    // Final sample after the join: every worker has finished, so batched
    // handle counters (if any) are flushed and the totals are exact.
    if let Some(m) = set.metrics() {
        samples.push((elapsed, m));
    }

    BenchResult {
        algorithm: S::label(),
        total_ops: per_thread.iter().sum(),
        elapsed,
        per_thread,
        samples,
    }
}

/// Runs the PR 5 `sorted-batch` cell: like [`run_throughput`], but each
/// worker draws ascending Zipf-clustered key runs from
/// [`SortedBatchGen`] and applies whole runs through the adapter's
/// batch entry points ([`ConcurrentSet::insert_batch`] and friends).
///
/// Implementations without a native batch path fall back to the
/// default loop-of-singles, so NM's finger-anchored batches and every
/// baseline are measured on identical cells. `total_ops` counts
/// individual keys, not batches, keeping Mops comparable with
/// [`run_throughput`]. Cluster skew follows `cfg.dist` when it is
/// [`KeyDist::Zipf`], else a moderate default of 0.8.
pub fn run_batch_throughput<S: ConcurrentSet>(cfg: &BenchConfig, batch_len: usize) -> BenchResult {
    let set = S::make();
    prepopulate(&set, cfg.key_range, cfg.seed);

    let theta = match cfg.dist {
        KeyDist::Zipf(t) => t,
        KeyDist::Uniform => 0.8,
    };
    let gen = SortedBatchGen::new(cfg.key_range, batch_len, theta);
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(cfg.threads + 1);
    let mut per_thread = vec![0u64; cfg.threads];
    let mut elapsed = Duration::ZERO;
    let mut samples: Vec<(Duration, MetricsSnapshot)> = Vec::new();

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let set = &set;
            let stop = &stop;
            let start_barrier = &start_barrier;
            let gen = &gen;
            let workload = cfg.workload;
            let seed = cfg.seed;
            handles.push(s.spawn(move || {
                let mut rng = XorShift64Star::from_stream(seed, t as u64);
                let mut buf = Vec::with_capacity(batch_len);
                let mut ops = 0u64;
                start_barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // One stop-flag check per few batches; each batch is
                    // already tens of ops deep.
                    for _ in 0..4 {
                        gen.fill(&mut rng, &mut buf);
                        match workload.pick(&mut rng) {
                            OpKind::Search => {
                                std::hint::black_box(set.contains_batch(&buf));
                            }
                            OpKind::Insert => {
                                std::hint::black_box(set.insert_batch(&buf));
                            }
                            OpKind::Delete => {
                                std::hint::black_box(set.remove_batch(&buf));
                            }
                        }
                        ops += buf.len() as u64;
                    }
                }
                ops
            }));
        }
        start_barrier.wait();
        let t0 = Instant::now();
        loop {
            let remaining = cfg.duration.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break;
            }
            std::thread::sleep(remaining.min(SAMPLE_INTERVAL));
            if let Some(m) = set.metrics() {
                samples.push((t0.elapsed(), m));
            }
        }
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
        for (t, h) in handles.into_iter().enumerate() {
            per_thread[t] = h.join().expect("batch bench worker panicked");
        }
    });

    if let Some(m) = set.metrics() {
        samples.push((elapsed, m));
    }

    BenchResult {
        algorithm: S::label(),
        total_ops: per_thread.iter().sum(),
        elapsed,
        per_thread,
        samples,
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
        // NM exposes metrics, so the run carries at least the final
        // post-join sample, and it accounts for every measured op (plus
        // pre-population inserts).
        let m = res.final_metrics().expect("NmEbr has metrics");
        assert!(m.searches + m.inserts + m.removes >= res.total_ops);
    }

    #[test]
    fn metrics_sampling_skips_implementations_without_metrics() {
        use nmbst_baselines::locked::LockedBTreeSet;
        let cfg = BenchConfig {
            threads: 1,
            key_range: 64,
            workload: Workload::MIXED,
            duration: Duration::from_millis(10),
            seed: 2,
            dist: crate::runner::KeyDist::Uniform,
        };
        let res = run_throughput::<LockedBTreeSet>(&cfg);
        assert!(res.total_ops > 0);
        assert!(res.samples.is_empty(), "baselines sample nothing");
        assert!(res.final_metrics().is_none());
    }

    #[test]
    fn batch_run_produces_throughput_and_finger_hits() {
        let cfg = BenchConfig {
            threads: 2,
            key_range: 4_096,
            workload: Workload::MIXED,
            duration: Duration::from_millis(50),
            seed: 9,
            dist: KeyDist::Uniform,
        };
        let res = run_batch_throughput::<NmEbr>(&cfg, 32);
        assert!(res.total_ops > 0);
        assert!(res.per_thread.iter().all(|&c| c > 0));
        let m = res.final_metrics().expect("NmEbr has metrics");
        assert!(
            m.finger_hits > 0,
            "sorted-batch run recorded zero finger hits"
        );
    }

    #[test]
    fn batch_run_works_on_baselines_via_default_loop() {
        use nmbst_baselines::locked::LockedBTreeSet;
        let cfg = BenchConfig {
            threads: 2,
            key_range: 1_024,
            workload: Workload::MIXED,
            duration: Duration::from_millis(20),
            seed: 4,
            dist: KeyDist::Zipf(0.9),
        };
        let res = run_batch_throughput::<LockedBTreeSet>(&cfg, 16);
        assert!(res.total_ops > 0);
        assert!(res.final_metrics().is_none(), "baselines have no metrics");
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
