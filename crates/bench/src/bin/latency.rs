//! Per-operation latency percentiles for every implementation — a
//! complement to Figure 4's throughput view (the paper reports only
//! throughput; tail latency is where helping protocols and lock
//! convoys show their character). NM-BST runs three ways: leaking (the
//! paper's setup), under epoch-based reclamation, and with CAS-only
//! tagging (§6's variant without BTS).
//!
//! ```text
//! NMBST_THREADS=1,4 NMBST_KEYS=10000 \
//!     cargo run --release -p nmbst-bench --bin latency
//! ```

use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree, locked::LockedBTreeSet};
use nmbst_bench::SweepConfig;
use nmbst_harness::adapter::{ConcurrentSet, NmCasOnly, NmEbr, NmLeaky};
use nmbst_harness::report::Table;
use nmbst_harness::{run_latency, BenchConfig, Workload};

const OPS_PER_THREAD: u64 = 50_000;

fn row<S: ConcurrentSet>(cfg: &BenchConfig, table: &mut Table) {
    let res = run_latency::<S>(cfg, OPS_PER_THREAD);
    let h = &res.hist;
    table.push_row(vec![
        res.algorithm.to_string(),
        format!("{:.2}", h.mean() / 1e3),
        format!("{:.2}", h.percentile(50.0) as f64 / 1e3),
        format!("{:.2}", h.percentile(99.0) as f64 / 1e3),
        format!("{:.2}", h.percentile(99.9) as f64 / 1e3),
        format!("{:.2}", h.max() as f64 / 1e3),
    ]);
}

fn main() {
    let cfg = SweepConfig::from_env();
    for &keys in &cfg.key_ranges {
        for workload in [Workload::MIXED, Workload::WRITE_DOMINATED] {
            for &threads in &cfg.threads {
                let bench = BenchConfig {
                    threads,
                    key_range: keys,
                    workload,
                    duration: cfg.duration, // unused by run_latency
                    seed: cfg.seed,
                    dist: cfg.dist,
                };
                println!(
                    "\n== latency (us) | {} keys | {} | {} threads | {} ops/thread ==",
                    keys, workload.name, threads, OPS_PER_THREAD
                );
                let mut table = Table::new(vec!["algorithm", "mean", "p50", "p99", "p99.9", "max"]);
                row::<NmLeaky>(&bench, &mut table);
                row::<NmEbr>(&bench, &mut table);
                row::<NmCasOnly>(&bench, &mut table);
                row::<EfrbTree>(&bench, &mut table);
                row::<HjTree>(&bench, &mut table);
                row::<BccoTree>(&bench, &mut table);
                row::<LockedBTreeSet>(&bench, &mut table);
                println!("{}", table.render());
            }
        }
    }
}
