//! Shared plumbing for the benchmark binaries: the perf runner
//! ([`cells`]), the bench-file JSON model ([`json`]), and the sweep
//! configuration of the paper-reproduction bins.
//!
//! The sweep knobs of `figure4`, `latency` and `conflicts` are
//! environment variables so `cargo run` stays argument-free:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `NMBST_SECS` | measured seconds per cell | `1.0` |
//! | `NMBST_RUNS` | runs averaged per cell | `1` |
//! | `NMBST_THREADS` | comma list of thread counts | `1,2,4,8` |
//! | `NMBST_KEYS` | comma list of key ranges | `1000,10000,100000` |
//! | `NMBST_SEED` | workload seed | `0x5EED` |
//! | `NMBST_ZIPF` | Zipf theta (unset = uniform, the paper's setting) | unset |
//!
//! The paper's full grid is `NMBST_SECS=30 NMBST_RUNS=3`
//! `NMBST_THREADS=1,2,4,8,16,32,64,128,256`
//! `NMBST_KEYS=1000,10000,100000,1000000`.

pub mod cells;
pub mod json;

use nmbst_harness::KeyDist;
use std::time::Duration;

/// Parses a comma-separated list env var into numbers.
fn parse_list(name: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(name) {
        Ok(s) => s
            .split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad {name} entry: {x:?}"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Sweep configuration read from the environment.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Measured duration per cell.
    pub duration: Duration,
    /// Runs averaged per cell.
    pub runs: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Key ranges to sweep.
    pub key_ranges: Vec<u64>,
    /// Workload seed.
    pub seed: u64,
    /// Key distribution (uniform unless `NMBST_ZIPF` is set).
    pub dist: KeyDist,
}

impl SweepConfig {
    /// Reads the sweep configuration from the environment.
    pub fn from_env() -> Self {
        let secs: f64 = std::env::var("NMBST_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        SweepConfig {
            duration: Duration::from_secs_f64(secs),
            runs: std::env::var("NMBST_RUNS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1),
            threads: parse_list("NMBST_THREADS", &[1, 2, 4, 8])
                .into_iter()
                .map(|t| t as usize)
                .collect(),
            key_ranges: parse_list("NMBST_KEYS", &[1_000, 10_000, 100_000]),
            seed: std::env::var("NMBST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x5EED),
            dist: match std::env::var("NMBST_ZIPF")
                .ok()
                .and_then(|s| s.parse().ok())
            {
                Some(theta) => KeyDist::Zipf(theta),
                None => KeyDist::Uniform,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // Note: assumes the test environment doesn't set NMBST_* vars.
        let c = SweepConfig::from_env();
        assert_eq!(c.runs, 1);
        assert!(!c.threads.is_empty());
        assert!(!c.key_ranges.is_empty());
    }
}
