//! Epoch-based reclamation (EBR), built from scratch.
//!
//! # Scheme
//!
//! A global epoch counter advances through an unbounded sequence
//! `0, 1, 2, …`. Every participating thread owns a *slot* holding its
//! local view: a word whose bit 0 says "pinned" and whose upper bits hold
//! the epoch the thread pinned at. Retired allocations are batched into
//! bags stamped with the global epoch at seal time; a bag may be freed
//! once the global epoch is at least **two** ahead of its stamp, because:
//!
//! * the epoch can only advance when every pinned slot shows the current
//!   epoch, so a thread pinned at `e` blocks any advance beyond `e + 1`;
//! * an allocation sealed at stamp `s` was unlinked before sealing, so a
//!   thread pinned at `s + 1` or later can never have read a pointer to
//!   it. The only threads that might still hold one were pinned at `≤ s`,
//!   and those block the epoch below `s + 2`.
//!
//! # Structure
//!
//! * [`Ebr`] — the collector; one per data structure. Dropping it frees
//!   all pending garbage (guards borrow the collector, so none can be
//!   outstanding).
//! * Per-thread `Local`s are created lazily through a thread-local
//!   registry keyed by collector id, so `pin` needs no explicit handle.
//! * [`EbrGuard`] — the pinned critical section; re-entrant on the same
//!   thread (inner pins reuse the outer epoch).
//!
//! `pin`/`unpin` are wait-free (one store + one fence). Sealing a bag
//! takes a short spin-locked push to the global queue; collection is
//! opportunistic (`try_lock`) so it never blocks an operation. A
//! collection tries up to two advances, each under the same
//! every-pin-caught-up check, so a participant with no pin behind it
//! frees the bag it just sealed in the same call: a backlog is the
//! unsealed bag plus whatever bags a pin still behind holds.

use crate::{Deferred, Reclaim, ReclaimGauges, RetireGuard};
use nmbst_sync::{CachePadded, SpinLock};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How many retired objects accumulate in a thread-local bag before it is
/// sealed and handed to the global queue. Chosen small enough that memory
/// bounds stay tight in delete-heavy workloads, large enough that the
/// spin-locked queue push amortizes away.
const BAG_SEAL_THRESHOLD: usize = 32;

/// A participant's shared state: one word (pinned bit + epoch) plus an
/// activity flag allowing slot reuse after a thread exits. Slots are
/// never deallocated while the collector lives, so scanning them is safe.
struct Slot {
    /// Bit 0: pinned. Bits 1..: the epoch pinned at.
    state: CachePadded<AtomicU64>,
    /// Whether a live thread currently owns this slot.
    active: AtomicBool,
    /// Length of the owner's *unsealed* local retire bag. Written only by
    /// the owning thread (plain stores: the bag's length on retire, zero
    /// on seal); read racily by [`Ebr::gauges`] /
    /// [`Ebr::per_thread_backlog`]. Diagnostics only — never consulted by
    /// the reclamation protocol itself.
    retired: AtomicU64,
}

const PINNED: u64 = 1;

/// A bag of deferred destructions stamped with the epoch it was sealed at.
struct SealedBag {
    epoch: u64,
    items: Vec<Deferred>,
}

struct Global {
    /// Unique id used to key the thread-local registry.
    id: u64,
    epoch: CachePadded<AtomicU64>,
    /// Participant registry. Locked only on registration (first pin of a
    /// thread), slot release, and epoch-advance scans.
    slots: SpinLock<Vec<Arc<Slot>>>,
    /// Sealed bags awaiting the epoch distance that makes them free-able.
    pending: SpinLock<Vec<SealedBag>>,
    /// Set when the owning `Ebr` is dropped: no guards can exist any
    /// more, so straggler `Local`s may free garbage immediately.
    orphaned: AtomicBool,
    /// Tokens parked by [`Reclaim::hold`]. Every deferral execution site
    /// (`collect`, `drain_all`) runs under a live `Global` — reached via
    /// the owning `Ebr` or a straggler `Local`'s `Arc` — and struct
    /// fields drop after `Global::drop` has drained the last bag, so a
    /// parked token provably outlives every deferral call.
    keepalive: SpinLock<Vec<Box<dyn std::any::Any + Send>>>,
}

impl Global {
    /// Advances the global epoch if every pinned participant has caught
    /// up with it. Returns the (possibly just advanced) epoch.
    fn try_advance(&self) -> u64 {
        let epoch = self.epoch.load(Ordering::Relaxed);
        // Synchronize with the `fence(SeqCst)` in `Local::pin`: after
        // this fence, any pin whose store we fail to observe started
        // after our epoch load, and will have stored `epoch` or later.
        fence(Ordering::SeqCst);
        let Some(slots) = self.slots.try_lock() else {
            return epoch;
        };
        for slot in slots.iter() {
            let state = slot.state.load(Ordering::Relaxed);
            if state & PINNED == PINNED && state >> 1 != epoch {
                return epoch;
            }
        }
        drop(slots);
        match self
            .epoch
            .compare_exchange(epoch, epoch + 1, Ordering::Release, Ordering::Relaxed)
        {
            Ok(_) => epoch + 1,
            Err(current) => current,
        }
    }

    /// Frees every pending bag at least two epochs old. Opportunistic:
    /// skips entirely if another thread holds the queue.
    ///
    /// Tries a second advance whenever the first one moved the epoch
    /// (ours or a racing thread's CAS), so a bag sealed by a quiescent
    /// caller with no pin behind it is freed by this same call instead
    /// of waiting one more seal. Each step is a full `try_advance`: the
    /// two-epoch proof above holds per advance, whatever their number.
    fn collect(&self) {
        let before = self.epoch.load(Ordering::Relaxed);
        let mut epoch = self.try_advance();
        if epoch != before {
            epoch = self.try_advance();
        }
        let mut ready = Vec::new();
        if let Some(mut pending) = self.pending.try_lock() {
            let mut i = 0;
            while i < pending.len() {
                if epoch.wrapping_sub(pending[i].epoch) >= 2 {
                    ready.push(pending.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Destructors run outside the lock.
        for bag in ready {
            for item in bag.items {
                item.call();
            }
        }
    }

    /// Frees *everything* pending, regardless of epoch. Only sound when
    /// no guard can exist (collector orphaned or being dropped).
    fn drain_all(&self) {
        let bags = std::mem::take(&mut *self.pending.lock());
        for bag in bags {
            for item in bag.items {
                item.call();
            }
        }
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // Last owner: no locals, no guards. Free whatever is left.
        self.drain_all();
    }
}

/// Per-thread participant state, owned by the thread-local registry.
struct Local {
    global: Arc<Global>,
    slot: Arc<Slot>,
    guard_count: Cell<usize>,
    bag: RefCell<Vec<Deferred>>,
}

impl Local {
    fn register(global: Arc<Global>) -> Local {
        let mut slots = global.slots.lock();
        let slot = match slots.iter().find(|s| {
            !s.active.load(Ordering::Relaxed)
                && s.active
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        }) {
            Some(s) => Arc::clone(s),
            None => {
                let s = Arc::new(Slot {
                    state: CachePadded::new(AtomicU64::new(0)),
                    active: AtomicBool::new(true),
                    retired: AtomicU64::new(0),
                });
                slots.push(Arc::clone(&s));
                s
            }
        };
        drop(slots);
        Local {
            global,
            slot,
            guard_count: Cell::new(0),
            bag: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    fn pin(&self) {
        let count = self.guard_count.get();
        if count == 0 {
            let epoch = self.global.epoch.load(Ordering::Relaxed);
            self.slot
                .state
                .store(epoch << 1 | PINNED, Ordering::Relaxed);
            // Make the pin visible before any shared read: pairs with the
            // SeqCst fence in `try_advance`.
            fence(Ordering::SeqCst);
        }
        self.guard_count.set(count + 1);
    }

    #[inline]
    fn unpin(&self) {
        let count = self.guard_count.get() - 1;
        self.guard_count.set(count);
        if count == 0 {
            self.slot.state.store(0, Ordering::Release);
            if self.bag.borrow().len() >= BAG_SEAL_THRESHOLD {
                self.seal();
                self.global.collect();
            }
        }
    }

    /// Moves the local bag to the global queue, stamped with the current
    /// epoch.
    fn seal(&self) {
        let items = std::mem::take(&mut *self.bag.borrow_mut());
        self.slot.retired.store(0, Ordering::Relaxed);
        if items.is_empty() {
            return;
        }
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        self.global.pending.lock().push(SealedBag { epoch, items });
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        debug_assert_eq!(self.guard_count.get(), 0, "thread exited while pinned");
        self.slot.state.store(0, Ordering::Release);
        self.seal();
        self.slot.active.store(false, Ordering::Release);
        // If the collector is gone, nobody is left to collect for us —
        // and nobody can be pinned, so everything is immediately free-able.
        if self.global.orphaned.load(Ordering::Acquire) {
            self.global.drain_all();
        }
    }
}

thread_local! {
    /// Registry of this thread's `Local`s, keyed by collector id. Scanned
    /// linearly: a thread participates in very few collectors at a time,
    /// and entries for dropped collectors are evicted on the next pin.
    static LOCALS: RefCell<Vec<(u64, Rc<Local>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(0);

/// An epoch-based garbage collector.
///
/// Typically owned by the concurrent data structure it protects. Threads
/// participate implicitly: the first [`pin`](Ebr::pin) on a thread
/// registers it; registration is dropped when the thread exits (or when
/// the collector is dropped).
///
/// # Examples
///
/// ```
/// use nmbst_reclaim::{Ebr, Reclaim, RetireGuard};
///
/// let ebr = Ebr::new();
/// let guard = ebr.pin();
/// let ptr = Box::into_raw(Box::new(42));
/// // ... unlink `ptr` from the shared structure, then:
/// unsafe { guard.retire(ptr) };
/// drop(guard);
/// // `ptr` is freed once no pinned thread can still reach it —
/// // at the latest when `ebr` is dropped.
/// ```
pub struct Ebr {
    global: Arc<Global>,
}

impl Ebr {
    /// Returns this thread's `Local` for this collector, registering on
    /// first use and evicting registry entries of dropped collectors.
    fn local(&self) -> Rc<Local> {
        LOCALS.with(|registry| {
            let mut registry = registry.borrow_mut();
            registry.retain(|(_, local)| !local.global.orphaned.load(Ordering::Acquire));
            if let Some((_, local)) = registry.iter().find(|(id, _)| *id == self.global.id) {
                return Rc::clone(local);
            }
            let local = Rc::new(Local::register(Arc::clone(&self.global)));
            registry.push((self.global.id, Rc::clone(&local)));
            local
        })
    }

    /// Current value of the global epoch (diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.global.epoch.load(Ordering::Acquire)
    }

    /// Unsealed retire-queue length of every *active* participant slot,
    /// in registry order. Diagnostics: the values are racy snapshots, but
    /// each is exact if its owning thread is quiescent. Sealed bags (on
    /// the global queue) are not attributed to a thread; they show up
    /// only in [`ReclaimGauges::retired_backlog`].
    pub fn per_thread_backlog(&self) -> Vec<u64> {
        self.global
            .slots
            .lock()
            .iter()
            .filter(|s| s.active.load(Ordering::Relaxed))
            .map(|s| s.retired.load(Ordering::Relaxed))
            .collect()
    }
}

impl Reclaim for Ebr {
    type Guard<'a> = EbrGuard<'a>;

    fn new() -> Self {
        Ebr {
            global: Arc::new(Global {
                id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
                epoch: CachePadded::new(AtomicU64::new(0)),
                slots: SpinLock::new(Vec::new()),
                pending: SpinLock::new(Vec::new()),
                orphaned: AtomicBool::new(false),
                keepalive: SpinLock::new(Vec::new()),
            }),
        }
    }

    #[inline]
    fn pin(&self) -> EbrGuard<'_> {
        let local = self.local();
        local.pin();
        EbrGuard {
            local,
            _collector: PhantomData,
        }
    }

    /// Seals this thread's bag and collects, making this thread's
    /// retired garbage eligible without waiting for thread exit.
    fn flush(&self) {
        let local = self.local();
        local.seal();
        self.global.collect();
    }

    /// Parks `token` in the global state, which outlives every deferral
    /// call: stragglers reach `drain_all` through their own `Arc` to it.
    fn hold(&self, token: Box<dyn std::any::Any + Send>) {
        self.global.keepalive.lock().push(token);
    }

    /// Epoch, epoch lag behind the oldest pinned thread, pinned-thread
    /// count, and total retired-but-unreclaimed backlog (local bags plus
    /// sealed bags). Takes the registry and queue spin locks briefly;
    /// safe to call from any thread at any time, including while pinned.
    fn gauges(&self) -> ReclaimGauges {
        let epoch = self.global.epoch.load(Ordering::Acquire);
        let mut pinned_threads = 0u64;
        let mut min_pinned_epoch = None;
        let mut local_backlog = 0u64;
        for slot in self.global.slots.lock().iter() {
            let state = slot.state.load(Ordering::Relaxed);
            if state & PINNED == PINNED {
                pinned_threads += 1;
                let e = state >> 1;
                min_pinned_epoch = Some(min_pinned_epoch.map_or(e, |m: u64| m.min(e)));
            }
            if slot.active.load(Ordering::Relaxed) {
                local_backlog += slot.retired.load(Ordering::Relaxed);
            }
        }
        let sealed_backlog: u64 = self
            .global
            .pending
            .lock()
            .iter()
            .map(|bag| bag.items.len() as u64)
            .sum();
        ReclaimGauges {
            epoch,
            // A thread pinned at `e` caps the epoch at `e + 1`, so the lag
            // is normally 0 or 1; saturate against the benign race where a
            // pin lands between our epoch load and the slot scan.
            epoch_lag: min_pinned_epoch.map_or(0, |m| epoch.saturating_sub(m)),
            pinned_threads,
            retired_backlog: local_backlog + sealed_backlog,
        }
    }
}

impl Default for Ebr {
    fn default() -> Self {
        Reclaim::new()
    }
}

impl Drop for Ebr {
    fn drop(&mut self) {
        // Guards borrow `&self`, so none exist anywhere. Publish
        // orphan-hood first, then drain: a straggler `Local::drop` either
        // pushes before our drain (we free it) or observes `orphaned`
        // and drains its own push.
        self.global.orphaned.store(true, Ordering::SeqCst);
        // Evict this thread's own Local now (sealing its bag) instead of
        // waiting for thread exit; other threads' bags were sealed when
        // those threads exited, or will drain themselves via the
        // orphaned flag.
        let _ = LOCALS.try_with(|registry| {
            registry
                .borrow_mut()
                .retain(|(id, _)| *id != self.global.id);
        });
        self.global.drain_all();
    }
}

impl std::fmt::Debug for Ebr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ebr")
            .field("id", &self.global.id)
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// The pinned critical section of an [`Ebr`] collector.
///
/// Re-entrant: nested pins on the same thread share the outermost epoch.
/// `!Send`: a guard must be dropped on the thread that created it.
pub struct EbrGuard<'a> {
    local: Rc<Local>,
    _collector: PhantomData<&'a Ebr>,
}

impl RetireGuard for EbrGuard<'_> {
    #[inline]
    unsafe fn retire_deferred(&self, deferred: Deferred) {
        // Recycle deferrals ride the same bags as plain drops: the bag's
        // epoch stamp is the grace-period proof either way.
        let mut bag = self.local.bag.borrow_mut();
        bag.push(deferred);
        // Only the owner writes its slot's count: a plain store, no RMW.
        self.local
            .slot
            .retired
            .store(bag.len() as u64, Ordering::Relaxed);
    }
}

impl Drop for EbrGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.local.unpin();
    }
}

impl std::fmt::Debug for EbrGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EbrGuard { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn retire_counter(ebr: &Ebr, drops: &Arc<AtomicUsize>) {
        let guard = ebr.pin();
        let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(drops))));
        unsafe { guard.retire(ptr) };
    }

    #[test]
    fn garbage_freed_by_collector_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        for _ in 0..10 {
            retire_counter(&ebr, &drops);
        }
        drop(ebr);
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn flush_then_quiescence_frees_without_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        for _ in 0..5 {
            retire_counter(&ebr, &drops);
        }
        ebr.flush();
        // Nothing is pinned; a few flushes advance the epoch far enough.
        ebr.flush();
        ebr.flush();
        assert_eq!(drops.load(Ordering::Relaxed), 5);
        drop(ebr);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn pinned_thread_blocks_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        let outer = ebr.pin();
        let epoch_at_pin = ebr.epoch();
        // Retire from another thread; it flushes and tries to collect.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    retire_counter(&ebr, &drops);
                }
                ebr.flush();
                ebr.flush();
                ebr.flush();
            });
        });
        // Our pin caps the epoch at +1, so nothing can have been freed...
        assert!(ebr.epoch() <= epoch_at_pin + 1);
        assert_eq!(drops.load(Ordering::Relaxed), 0, "freed under a pin");
        drop(outer);
        ebr.flush();
        ebr.flush();
        ebr.flush();
        assert_eq!(drops.load(Ordering::Relaxed), 3);
        drop(ebr);
    }

    #[test]
    fn nested_pins_share_epoch() {
        let ebr = Ebr::new();
        let g1 = ebr.pin();
        let e1 = ebr.epoch();
        let g2 = ebr.pin();
        drop(g2);
        // Still pinned: epoch can advance at most once past our pin.
        for _ in 0..5 {
            ebr.flush();
        }
        assert!(ebr.epoch() <= e1 + 1);
        drop(g1);
    }

    #[test]
    fn many_threads_retire_everything_freed() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        retire_counter(&ebr, &drops);
                    }
                    // `thread::scope` returns when the closure does, which
                    // can be before this thread's TLS destructors seal its
                    // bag; flush explicitly so the count below is
                    // deterministic.
                    ebr.flush();
                });
            }
        });
        drop(ebr);
        assert_eq!(drops.load(Ordering::Relaxed), THREADS * PER_THREAD);
    }

    #[test]
    fn two_collectors_are_independent() {
        let drops_a = Arc::new(AtomicUsize::new(0));
        let drops_b = Arc::new(AtomicUsize::new(0));
        let a = Ebr::new();
        let b = Ebr::new();
        retire_counter(&a, &drops_a);
        retire_counter(&b, &drops_b);
        drop(a);
        assert_eq!(drops_a.load(Ordering::Relaxed), 1);
        assert_eq!(drops_b.load(Ordering::Relaxed), 0);
        drop(b);
        assert_eq!(drops_b.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn epoch_advances_when_unpinned() {
        let ebr = Ebr::new();
        let e0 = ebr.epoch();
        // Touch the collector so this thread is registered but unpinned.
        drop(ebr.pin());
        for _ in 0..4 {
            ebr.flush();
        }
        assert!(ebr.epoch() > e0);
    }

    #[test]
    fn slot_reuse_after_thread_exit() {
        let ebr = Ebr::new();
        for _ in 0..4 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    drop(ebr.pin());
                });
            });
        }
        // All four threads reused the same slot (plus possibly the main
        // thread's): the registry stays small.
        assert!(ebr.global.slots.lock().len() <= 2);
    }

    #[test]
    fn gauges_track_pin_retire_seal_and_drain() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        assert_eq!(ebr.gauges(), ReclaimGauges::default());

        let guard = ebr.pin();
        let g = ebr.gauges();
        assert_eq!(g.pinned_threads, 1);
        assert_eq!(g.retired_backlog, 0);

        for _ in 0..3 {
            let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.retire(ptr) };
        }
        let g = ebr.gauges();
        assert_eq!(g.retired_backlog, 3, "local bag counted before sealing");
        assert_eq!(ebr.per_thread_backlog(), vec![3]);

        drop(guard);
        ebr.flush(); // seal: backlog moves from the slot to the queue
        let g = ebr.gauges();
        assert_eq!(g.pinned_threads, 0);
        assert!(
            g.retired_backlog <= 3,
            "sealed items still count until freed"
        );
        assert_eq!(ebr.per_thread_backlog(), vec![0]);

        ebr.flush();
        ebr.flush(); // two epoch advances free the sealed bag
        let g = ebr.gauges();
        assert_eq!(g.retired_backlog, 0, "drained after quiescence");
        assert_eq!(drops.load(Ordering::Relaxed), 3);
        drop(ebr);
    }

    #[test]
    fn gauges_see_epoch_lag_under_a_parked_pin() {
        let ebr = Ebr::new();
        let parked = ebr.pin();
        // Another thread retires and flushes enough to advance the epoch
        // once; our pin caps it there, which the lag gauge must expose.
        std::thread::scope(|s| {
            s.spawn(|| {
                let drops = Arc::new(AtomicUsize::new(0));
                retire_counter(&ebr, &drops);
                ebr.flush();
                ebr.flush();
                ebr.flush();
            });
        });
        let g = ebr.gauges();
        assert_eq!(g.pinned_threads, 1);
        assert_eq!(g.epoch_lag, 1, "parked pin holds the epoch one behind");
        assert!(g.retired_backlog >= 1, "garbage held hostage by the pin");
        drop(parked);
        drop(ebr);
    }

    /// A sole participant's full bag is freed by the collect its own
    /// unpin runs: the two advances it needs both happen in that call,
    /// so nothing waits for the next seal.
    #[test]
    fn sole_participant_frees_its_sealed_bag_before_its_next_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        let guard = ebr.pin();
        for _ in 0..BAG_SEAL_THRESHOLD {
            let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.retire(ptr) };
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0, "freed under a pin");
        drop(guard);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            BAG_SEAL_THRESHOLD,
            "every deferral ran before the next pin"
        );
        assert_eq!(ebr.gauges().retired_backlog, 0);
        drop(ebr);
    }

    #[test]
    fn guard_count_survives_interleaved_collectors() {
        let a = Ebr::new();
        let b = Ebr::new();
        let ga = a.pin();
        let gb = b.pin();
        let ga2 = a.pin();
        drop(ga);
        drop(gb);
        drop(ga2);
        drop(a);
        drop(b);
    }
}
