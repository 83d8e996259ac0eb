//! Umbrella crate for the NM-BST reproduction workspace.
//!
//! Re-exports the pieces a downstream user typically wants, and hosts
//! the workspace-level `examples/` and `tests/`. See the individual
//! crates for the real content:
//!
//! * [`nmbst`] — the paper's lock-free external BST (a map; with `()`
//!   values, the paper's set).
//! * [`nmbst_reclaim`] — epoch-based reclamation, hazard eras, leaky.
//! * [`nmbst_baselines`] — EFRB, HJ, BCCO comparators.
//! * [`nmbst_harness`] — workload generation and throughput running.
//! * [`nmbst_lincheck`] — linearizability checking.

pub use nmbst::{Key, NmTreeMap, TagMode, TreeShape};
pub use nmbst_reclaim::{Ebr, Leaky, Reclaim, RetireGuard};

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile_and_work() {
        let set: super::NmTreeMap<u64, ()> = super::NmTreeMap::new();
        assert!(set.insert(1, ()));
        assert!(!super::VERSION.is_empty());
    }
}
