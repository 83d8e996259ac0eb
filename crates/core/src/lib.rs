//! # nmbst — Fast Concurrent Lock-Free Binary Search Trees
//!
//! A faithful, production-grade Rust implementation of the lock-free
//! external binary search tree of **Natarajan & Mittal, "Fast Concurrent
//! Lock-Free Binary Search Trees", PPoPP 2014**.
//!
//! ## The algorithm in one paragraph
//!
//! The tree is *external*: user keys live only in leaves; internal nodes
//! route. Conflicting operations coordinate by **marking edges, not
//! nodes**: two bits stolen from each child pointer distinguish a
//! *flagged* edge (its head leaf is being deleted) from a *tagged* edge
//! (its tail is being spliced out while its head is hoisted). An insert
//! publishes a two-node subtree with a **single CAS**; a delete
//! linearizes with one CAS (flagging the victim's incoming edge) and
//! physically splices with one BTS plus one CAS at the *ancestor* — the
//! deepest node above the victim whose incoming edge is untagged — which
//! can excise an entire chain of logically deleted nodes in one step.
//! There are no operation descriptors, helping never allocates, and only
//! deletes are ever helped.
//!
//! ## Entry points
//!
//! * [`NmTreeMap`] — the tree, carrying a value per key. With `V = ()`
//!   it is exactly the paper's dictionary ADT of unique keys
//!   (search/insert/delete), and a `()` value takes no space.
//! * [`MapHandle`] — a pin-amortizing cursor over one tree, for hot
//!   loops and batches.
//! * [`ShardedMap`] — independent trees behind one key router.
//!
//! The tree is generic over the memory-reclamation scheme (this paper
//! assumes a garbage-collected world; we default to the from-scratch
//! epoch-based reclaimer in [`nmbst_reclaim`]):
//!
//! ```
//! use nmbst::NmTreeMap;
//! use nmbst_reclaim::Leaky;
//!
//! // Production: epoch-reclaimed (default type parameter).
//! let set: NmTreeMap<u64, ()> = NmTreeMap::new();
//! assert!(set.insert(1, ()));
//! assert!(!set.insert(1, ())); // duplicate: set unchanged
//! assert!(set.contains(&1));
//!
//! // Paper-faithful benchmark mode: leak instead of reclaiming.
//! let bench_set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
//! bench_set.insert(1, ());
//! ```
//!
//! ## Concurrency guarantees
//!
//! All operations are linearizable (§3.3 of the paper; exercised by the
//! `nmbst-lincheck` history checker in this workspace) and lock-free:
//! some operation always completes in a finite number of steps,
//! regardless of stalled threads.
//!
//! ## Instrumentation and observability
//!
//! With `feature = "instrument"`, per-thread counters in [`stats`]
//! record allocations and atomic instructions per operation, which is
//! how this workspace regenerates Table 1 of the paper (insert: 2
//! allocations, 1 CAS; delete: 0 allocations, 3 atomics — uncontended).
//!
//! Every tree additionally exposes an always-on metrics facade
//! ([`NmTreeMap::metrics`] → [`obs::MetricsSnapshot`], with JSON and
//! Prometheus exposition), and with `feature = "obs"` a per-thread
//! flight recorder of structural events (`obs::FlightRecorder`) — see
//! the [`obs`] module docs.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
mod handle;
mod key;
mod node;
pub mod obs;
mod packed;
mod pool;
mod shard;
pub mod stats;
mod tree;

pub use handle::{MapHandle, DEFAULT_REPIN_EVERY};
pub use key::Key;
pub use node::LEAF_CAP;
pub use obs::{LatencyConfig, OpClass};
pub use packed::TagMode;
pub use shard::{
    BatchCmd, BatchScratch, BatchVerdict, ShardedMap, ShardedMapHandle, DEFAULT_SHARD_COUNT,
};
pub use tree::{NmTreeMap, RestartPolicy, TreeConfig, TreeShape, SEARCH_LANES};

// Re-export the reclamation entry points users need to name the tree's
// type parameter, plus the pool stats surfaced in metrics snapshots.
pub use nmbst_reclaim::{Ebr, Leaky, PoolStats, Reclaim};
