//! Safe memory reclamation substrate for the NM-BST reproduction.
//!
//! The paper (§3.2) assumes "memory allocated to nodes that are no longer
//! part of the tree is not reclaimed" and its evaluation (§4) performs no
//! reclamation in any implementation. A credible Rust release cannot leak,
//! so this crate implements — from scratch, no `crossbeam-epoch` — the
//! reclamation schemes a lock-free tree needs:
//!
//! * [`Ebr`] — epoch-based reclamation (global epoch, per-thread
//!   participant slots, deferred-destruction bags). This is the scheme
//!   the tree ships with.
//! * [`HazardEras`] — hazard-pointer record machinery protecting an
//!   *era* instead of an address. Needs no per-node validation, so the
//!   tree can (and its whitebox helping-path tests do) run on it.
//!   Per-address (Michael-style) hazard pointers are not provided: NM-BST
//!   seeks traverse nodes whose incoming edge is already marked, and a
//!   plain per-node hazard pointer cannot be validated against such a
//!   path (the paper waves at hazard pointers; published follow-up work
//!   restructures the traversal to make them sound — out of scope here,
//!   documented in `hazard`).
//! * [`Leaky`] — the paper-faithful no-op reclaimer used by the benchmark
//!   harness so that Figure 4 is measured under the paper's conditions.
//!
//! All three implement the [`Reclaim`] trait; the tree is generic over it.
//!
//! # Progress guarantees
//!
//! `Leaky` is trivially wait-free. `Ebr`'s `pin`/`unpin` are wait-free;
//! retiring is lock-free except for a bounded-critical-section spin lock
//! guarding the global bag queue and the participant registry — a stalled
//! lock holder delays *reclamation* (memory growth) but never blocks or
//! delays tree operations' completion, so the tree's lock-freedom claim
//! is unaffected.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod deferred;
pub mod ebr;
pub mod hazard;
mod leaky;
mod pool;

pub use deferred::Deferred;
pub use ebr::{Ebr, EbrGuard};
pub use hazard::{HazardEras, HazardErasGuard};
pub use leaky::{Leaky, LeakyGuard};
pub use pool::{NodePool, PoolStats, MAX_INDEX};

/// Point-in-time reclamation health gauges (see [`Reclaim::gauges`]).
///
/// These are the numbers an operator needs to tell "reclamation is
/// keeping up" from "a parked thread is pinning the epoch and garbage is
/// accumulating" — previously observable only indirectly, by watching
/// live-value counts in whitebox tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimGauges {
    /// The scheme's global epoch (or era) counter. `0` for schemes
    /// without one.
    pub epoch: u64,
    /// Distance between the global epoch and the oldest epoch any
    /// currently pinned thread announced. `0` when nothing is pinned.
    /// Under [`Ebr`] a persistent non-zero lag means some thread is
    /// parked inside a critical section and no garbage newer than its
    /// epoch can be freed.
    pub epoch_lag: u64,
    /// Threads currently inside a pinned critical section.
    pub pinned_threads: u64,
    /// Objects retired but not yet freed: the sum of every thread's
    /// local retire queue plus all sealed bags awaiting their epoch
    /// distance. The "garbage backlog" an operator alerts on.
    pub retired_backlog: u64,
}

/// A memory-reclamation scheme a concurrent data structure can be
/// generic over.
///
/// The contract mirrors epoch-style reclamation:
///
/// 1. A thread [`pin`](Reclaim::pin)s before dereferencing any shared
///    node pointer and keeps the returned guard alive for as long as it
///    uses pointers read under it.
/// 2. After a node has been *unlinked* (no new observer can reach it by
///    following the structure from its roots), the unlinking thread
///    passes it to [`RetireGuard::retire`]; the scheme frees it once no
///    pinned thread can still hold a reference.
pub trait Reclaim: Send + Sync + 'static {
    /// The critical-section token. Dropping it ends the critical section.
    type Guard<'a>: RetireGuard
    where
        Self: 'a;

    /// Whether retired deferrals eventually *run* under this scheme.
    ///
    /// `true` for every real reclaimer; `false` for [`Leaky`], which
    /// drops deferrals uncalled so retired memory leaks by design.
    /// Callers building recycle deferrals (which reference a shared
    /// [`NodePool`]) consult this to skip the pointless construction
    /// under a non-reclaiming scheme.
    const RECLAIMS: bool = true;

    /// Creates a fresh, independent instance of the scheme.
    fn new() -> Self;

    /// Enters a reclamation critical section on the current thread.
    fn pin(&self) -> Self::Guard<'_>;

    /// Hands any garbage batched on the current thread to the global
    /// collector so it becomes eligible for reclamation without waiting
    /// for this thread to exit. No-op for schemes without batching.
    fn flush(&self) {}

    /// Point-in-time health gauges for this scheme. The default
    /// implementation reports all zeros (appropriate for schemes with no
    /// deferred state, like [`Leaky`]); [`Ebr`] and [`HazardEras`]
    /// report real epoch (era) lag and retire-queue backlog. Never blocks operations: implementations
    /// only take short diagnostic locks.
    fn gauges(&self) -> ReclaimGauges {
        ReclaimGauges::default()
    }

    /// Parks `token` inside the scheme's shared state so it is dropped
    /// only after the last deferral that could ever run has run.
    ///
    /// This is the lifetime half of the recycle path's contract: a
    /// recycle [`Deferred`] carries a *raw* pointer to its [`NodePool`]
    /// (refcounting every deferral would put two RMWs on every retired
    /// node), and instead the pool's owner parks one `Arc` clone here.
    /// Implementations that execute deferrals **must** therefore keep the
    /// token alive at every site that calls a deferral — including
    /// straggler per-thread state destroyed after the scheme's owner is
    /// gone. [`Ebr`] and [`HazardEras`] anchor every execution site in
    /// their `Arc`-shared inner state and park the token there.
    ///
    /// The default drops `token` immediately, which is correct exactly
    /// when the scheme never runs deferrals (`RECLAIMS == false`, i.e.
    /// [`Leaky`]).
    fn hold(&self, token: Box<dyn std::any::Any + Send>) {
        drop(token);
    }
}

/// Operations available on a pinned guard.
pub trait RetireGuard {
    /// Defers destruction of `ptr` until no pinned thread can reach it.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been created by [`Box::into_raw`] and not
    ///   retired or freed before.
    /// * `ptr` must already be unreachable for threads that pin *after*
    ///   this call (i.e. it has been unlinked from the shared structure).
    unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        // SAFETY: forwarded caller contract; `retire_deferred` runs the
        // deferral exactly once after the grace period (or leaks it, for
        // non-reclaiming schemes, which leaks the allocation as intended).
        unsafe { self.retire_deferred(Deferred::drop_box(ptr)) }
    }

    /// Defers an arbitrary destruction/recycle action until no pinned
    /// thread can reach the allocation it guards. This is the recycle
    /// path's entry point: the caller builds a [`Deferred`] that hands
    /// the block back to a [`NodePool`] instead of freeing it, and the
    /// scheme runs it with exactly the same grace-period proof it gives
    /// [`retire`](Self::retire) — which is what makes reuse ABA-safe.
    ///
    /// Schemes that never reclaim ([`Leaky`]) drop the deferral uncalled.
    ///
    /// # Safety
    ///
    /// * Running `deferred` must be the unique release of whatever it
    ///   guards, and must be sound once the allocation is unreachable.
    /// * The allocation must already be unreachable for threads that pin
    ///   *after* this call (unlinked from the shared structure).
    unsafe fn retire_deferred(&self, deferred: Deferred);
}
