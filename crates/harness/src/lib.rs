//! Benchmark substrate for the NM-BST reproduction.
//!
//! Everything needed to regenerate the paper's evaluation (§4):
//!
//! * [`adapter`] — the [`adapter::ConcurrentSet`] trait
//!   and adapters for NM-BST (leaky / EBR / CAS-only), EFRB, HJ, BCCO
//!   and a coarse-locked reference.
//! * [`workload`] — the three §4 operation mixes.
//! * [`rng`] — deterministic allocation-free generators for the hot loop.
//! * [`runner`] — pre-population plus the timed multi-threaded
//!   throughput measurement of Figure 4.
//! * [`table1`] — uncontended per-operation cost measurement (Table 1).
//! * [`report`] — text/CSV table rendering.
//!
//! The actual regenerator binaries (`figure4`, `table1`) live in the
//! `nmbst-bench` crate; this crate is the library they (and the tests)
//! share.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod chart;
pub mod replay;
pub mod report;
pub mod rng;
pub mod runner;
pub mod table1;
pub mod workload;
pub mod zipf;

pub use adapter::ConcurrentSet;
pub use replay::{run_replay, ReplayConfig, ReplayReport, SessionTarget};
pub use runner::{
    mean_mops, prepopulate, run_latency, run_throughput, BenchConfig, BenchResult, KeyDist,
    LatencyResult,
};
pub use workload::{OpKind, SortedBatchGen, Workload};
pub use zipf::ZipfGenerator;
