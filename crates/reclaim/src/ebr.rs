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
//!
//! # Bag buffers
//!
//! A bag's buffer outlives the bag. Sealing swaps the full buffer for an
//! empty one from a spare list kept under the queue lock (a fresh one of
//! `BAG_SEAL_THRESHOLD` slots only when the list is empty), and
//! collection hands each drained buffer back to that list, so a steady
//! stream of retirements calls the allocator only while the buffers in
//! circulation grow to their working size. The list keeps
//! `SPARE_BAGS_PER_PARTICIPANT` buffers per participant slot, and only
//! buffers of at most `SPARE_BAG_MAX_CAPACITY` slots: one grown by a
//! long pin is freed, not kept. Deferrals run with no lock and no
//! `RefCell` borrow held: a deferred value's `Drop` may pin this same
//! collector and retire into it.

use crate::{Deferred, Reclaim, ReclaimGauges, RetireGuard};
use nmbst_sync::{CachePadded, SpinLock};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How many retired objects accumulate in a thread-local bag before it is
/// sealed and handed to the global queue. Chosen small enough that memory
/// bounds stay tight in delete-heavy workloads, large enough that the
/// spin-locked queue push amortizes away.
const BAG_SEAL_THRESHOLD: usize = 32;

/// Emptied bag buffers the queue keeps for the next seals, per
/// participant slot; a drained buffer beyond that many is freed. A
/// participant seals at most one bag per unpin and each waits two
/// epochs, so a collect that finds every pin caught up frees two or
/// three bags per participant. More than this many only pile up behind
/// a pin that stalls; their buffers go back to the allocator.
const SPARE_BAGS_PER_PARTICIPANT: usize = 4;

/// Largest buffer, in deferrals, the spare list keeps. A bag is sealed
/// at the first unpin after it holds `BAG_SEAL_THRESHOLD` deferrals, so
/// its size is set by how much a pin retires: under the tree handles'
/// default re-pin budget (64 ops) bags grow to 128 slots. A buffer that
/// a longer pin grew past this bound is freed once drained, so one long
/// pin does not leave an oversized buffer in circulation.
const SPARE_BAG_MAX_CAPACITY: usize = 8 * BAG_SEAL_THRESHOLD;

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

/// The global bag queue: sealed bags, and the emptied buffers of freed
/// ones.
struct Pending {
    /// Sealed bags awaiting the epoch distance that makes them free-able.
    bags: Vec<SealedBag>,
    /// Empty buffers with their capacity kept, at most
    /// [`SPARE_BAGS_PER_PARTICIPANT`] per participant slot.
    spare: Vec<Vec<Deferred>>,
}

struct Global {
    /// Unique id used to key the thread-local registry.
    id: u64,
    epoch: CachePadded<AtomicU64>,
    /// Participant registry. Locked only on registration (first pin of a
    /// thread), slot release, and epoch-advance scans.
    slots: SpinLock<Vec<Arc<Slot>>>,
    /// `slots.len()`, readable without the registry lock: the most
    /// participants ever active at once (slots are reused, never freed).
    participants: AtomicUsize,
    /// Sealed bags and spare bag buffers.
    pending: SpinLock<Pending>,
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
    ///
    /// Takes one ready bag at a time off the queue, runs its deferrals
    /// with the lock released, and hands the emptied buffer back to the
    /// spare list when it retakes the lock for the next bag, unless the
    /// list is full or the buffer is oversized.
    fn collect(&self) {
        let before = self.epoch.load(Ordering::Relaxed);
        let mut epoch = self.try_advance();
        if epoch != before {
            epoch = self.try_advance();
        }
        let Some(mut pending) = self.pending.try_lock() else {
            return;
        };
        // A bag sealed after `epoch` was read (while the lock is released
        // below, say) carries a newer stamp: compare, never subtract.
        let spare_cap = SPARE_BAGS_PER_PARTICIPANT * self.participants.load(Ordering::Relaxed);
        let mut next = 0;
        while let Some(i) = (next..pending.bags.len()).find(|&i| pending.bags[i].epoch + 2 <= epoch)
        {
            let mut items = pending.bags.swap_remove(i).items;
            next = i;
            drop(pending);
            // Destructors run outside the lock: one may retire into this
            // collector, and sealing takes the lock.
            for item in items.drain(..) {
                item.call();
            }
            pending = self.pending.lock();
            if pending.spare.len() < spare_cap && items.capacity() <= SPARE_BAG_MAX_CAPACITY {
                pending.spare.push(items);
            }
        }
    }

    /// Frees *everything* pending, regardless of epoch. Only sound when
    /// no guard can exist (collector orphaned or being dropped).
    fn drain_all(&self) {
        let bags = std::mem::take(&mut self.pending.lock().bags);
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
                global.participants.store(slots.len(), Ordering::Relaxed);
                s
            }
        };
        drop(slots);
        Local {
            global,
            slot,
            guard_count: Cell::new(0),
            bag: RefCell::new(Vec::with_capacity(BAG_SEAL_THRESHOLD)),
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
    /// epoch, and puts an empty buffer in its place: a spare one if the
    /// queue keeps one, else a fresh one of [`BAG_SEAL_THRESHOLD`] slots.
    fn seal(&self) {
        let mut bag = self.bag.borrow_mut();
        self.slot.retired.store(0, Ordering::Relaxed);
        if bag.is_empty() {
            return;
        }
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        let mut pending = self.global.pending.lock();
        let spare = pending.spare.pop().unwrap_or_default();
        let items = std::mem::replace(&mut *bag, spare);
        pending.bags.push(SealedBag { epoch, items });
        drop(pending);
        if bag.capacity() == 0 {
            bag.reserve_exact(BAG_SEAL_THRESHOLD);
        }
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
                participants: AtomicUsize::new(0),
                pending: SpinLock::new(Pending {
                    bags: Vec::new(),
                    spare: Vec::new(),
                }),
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
            .bags
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

    /// Retires `n` counters under one guard and ends it.
    fn retire_counters(ebr: &Ebr, drops: &Arc<AtomicUsize>, n: usize) {
        let guard = ebr.pin();
        for _ in 0..n {
            let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(drops))));
            unsafe { guard.retire(ptr) };
        }
    }

    /// Bag buffers circulate: every seal leaves a full-capacity buffer
    /// behind, and a sole participant's seal/collect cycles keep reusing
    /// the same buffers instead of allocating new ones.
    #[test]
    fn bag_buffers_survive_seal_and_collect() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        let local = ebr.local();
        assert!(local.bag.borrow().capacity() >= BAG_SEAL_THRESHOLD);
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..64 {
            retire_counters(&ebr, &drops, BAG_SEAL_THRESHOLD);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                (cycle + 1) * BAG_SEAL_THRESHOLD
            );
            let bag = local.bag.borrow();
            assert!(bag.is_empty());
            assert!(bag.capacity() >= BAG_SEAL_THRESHOLD, "cycle {cycle}");
            seen.insert(bag.as_ptr() as usize);
        }
        // The unsealed bag and the one freed bag trade places each cycle.
        assert!(seen.len() <= 2, "{} distinct bag buffers", seen.len());
        let pending = ebr.global.pending.lock();
        assert!(pending.bags.is_empty());
        assert_eq!(pending.spare.len(), 1);
    }

    /// A burst of bags held back by a pin fills the spare list to its
    /// bound once freed, and no further; the bound follows the number of
    /// participant slots.
    #[test]
    fn spare_list_stays_bounded() {
        for helpers in [0, 3] {
            let drops = Arc::new(AtomicUsize::new(0));
            let ebr = Ebr::new();
            // Threads pinned at once each take a slot of their own.
            let outer = ebr.pin();
            let all_pinned = std::sync::Barrier::new(helpers);
            std::thread::scope(|s| {
                for _ in 0..helpers {
                    s.spawn(|| {
                        let _guard = ebr.pin();
                        all_pinned.wait();
                    });
                }
            });
            let participants = ebr.global.slots.lock().len();
            assert_eq!(participants, helpers + 1);
            let cap = SPARE_BAGS_PER_PARTICIPANT * participants;
            let bags = 3 * cap;
            for _ in 0..bags {
                retire_counters(&ebr, &drops, 4);
                ebr.flush();
            }
            assert_eq!(ebr.global.pending.lock().bags.len(), bags);
            assert_eq!(drops.load(Ordering::Relaxed), 0, "freed under a pin");
            drop(outer);
            ebr.flush();
            assert_eq!(drops.load(Ordering::Relaxed), bags * 4);
            let pending = ebr.global.pending.lock();
            assert!(pending.bags.is_empty());
            assert_eq!(pending.spare.len(), cap, "{participants} participants");
            assert!(pending
                .spare
                .iter()
                .all(|b| b.is_empty() && b.capacity() > 0));
        }
    }

    /// A long pin grows its bag far past the seal threshold; once that
    /// bag is freed its buffer goes back to the allocator instead of
    /// onto the spare list, and the next bag starts small again.
    #[test]
    fn oversized_bag_buffers_are_not_kept() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Ebr::new();
        let n = 100_000;
        retire_counters(&ebr, &drops, n);
        ebr.flush();
        assert_eq!(drops.load(Ordering::Relaxed), n);
        let local = ebr.local();
        assert!(local.bag.borrow().capacity() <= SPARE_BAG_MAX_CAPACITY);
        let pending = ebr.global.pending.lock();
        assert!(pending.bags.is_empty());
        for buffer in &pending.spare {
            assert!(
                buffer.capacity() <= SPARE_BAG_MAX_CAPACITY,
                "kept a buffer of {} slots",
                buffer.capacity()
            );
        }
    }

    /// A deferred value whose `Drop` pins the collector that is running
    /// it and retires into it (enough to seal and collect a bag of its
    /// own) must not meet a held lock or `RefCell` borrow.
    #[test]
    fn deferral_that_retires_into_its_own_collector() {
        struct Reenter {
            ebr: Arc<Ebr>,
            drops: Arc<AtomicUsize>,
        }
        impl Drop for Reenter {
            fn drop(&mut self) {
                retire_counters(&self.ebr, &self.drops, 2);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let ebr = Arc::new(Ebr::new());
        let n = 2 * BAG_SEAL_THRESHOLD;
        {
            let guard = ebr.pin();
            for _ in 0..n {
                let ptr = Box::into_raw(Box::new(Reenter {
                    ebr: Arc::clone(&ebr),
                    drops: Arc::clone(&drops),
                }));
                unsafe { guard.retire(ptr) };
            }
        }
        for _ in 0..4 {
            ebr.flush();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 2 * n);
        assert_eq!(ebr.gauges().retired_backlog, 0);
    }

    /// While a collect runs one bag's deferrals with the queue unlocked,
    /// the epoch may move past the one it read and a newer bag may be
    /// sealed. That bag is not yet two epochs old and must stay queued:
    /// here another thread pins at the collect's epoch, the deferral
    /// advances once past it and seals a witness, and the witness must
    /// not be freed before the epoch is two past its retirement.
    #[test]
    fn bag_sealed_during_a_collect_waits_two_epochs() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::{channel, Receiver, Sender};

        /// Flags a free that comes before the epoch is two past its
        /// retirement.
        struct Witness {
            ebr: Arc<Ebr>,
            retired_at: u64,
            freed: Arc<AtomicBool>,
            early: Arc<AtomicBool>,
        }
        impl Drop for Witness {
            fn drop(&mut self) {
                if self.ebr.epoch() < self.retired_at + 2 {
                    self.early.store(true, Ordering::Relaxed);
                }
                self.freed.store(true, Ordering::Relaxed);
            }
        }
        struct PinElsewhere {
            ebr: Arc<Ebr>,
            freed: Arc<AtomicBool>,
            early: Arc<AtomicBool>,
            pin: Sender<()>,
            pinned: Receiver<()>,
        }
        impl Drop for PinElsewhere {
            fn drop(&mut self) {
                self.pin.send(()).unwrap();
                self.pinned.recv().unwrap();
                self.ebr.flush(); // one advance, up to the other pin's cap
                let guard = self.ebr.pin();
                let witness = Box::into_raw(Box::new(Witness {
                    ebr: Arc::clone(&self.ebr),
                    retired_at: self.ebr.epoch(),
                    freed: Arc::clone(&self.freed),
                    early: Arc::clone(&self.early),
                }));
                unsafe { guard.retire(witness) };
                drop(guard);
                self.ebr.flush(); // sealed at the new epoch, not yet free-able
            }
        }

        let ebr = Arc::new(Ebr::new());
        let freed = Arc::new(AtomicBool::new(false));
        let early = Arc::new(AtomicBool::new(false));
        let (pin_tx, pin_rx) = channel();
        let (pinned_tx, pinned_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let freed_under_pin = std::thread::scope(|s| {
            let other = &ebr;
            s.spawn(move || {
                pin_rx.recv().unwrap();
                let guard = other.pin();
                pinned_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(guard);
            });
            {
                let guard = ebr.pin();
                let ptr = Box::into_raw(Box::new(PinElsewhere {
                    ebr: Arc::clone(&ebr),
                    freed: Arc::clone(&freed),
                    early: Arc::clone(&early),
                    pin: pin_tx,
                    pinned: pinned_rx,
                }));
                unsafe { guard.retire(ptr) };
            }
            ebr.flush(); // seals and runs `PinElsewhere` in one collect
            let freed_under_pin = freed.load(Ordering::Relaxed);
            release_tx.send(()).unwrap();
            freed_under_pin
        });
        assert!(!freed_under_pin, "freed while a pin could still read it");
        for _ in 0..4 {
            ebr.flush();
        }
        assert!(freed.load(Ordering::Relaxed));
        assert!(!early.load(Ordering::Relaxed), "freed before two epochs");
    }

    /// `flush` and `drain_all` free every bag a pin held back, and the
    /// unsealed one, however many spare buffers there are to keep.
    #[test]
    fn flush_and_drain_all_free_every_bag() {
        let bags = 8 * SPARE_BAGS_PER_PARTICIPANT;
        for by_drop in [false, true] {
            let drops = Arc::new(AtomicUsize::new(0));
            let ebr = Ebr::new();
            let outer = ebr.pin();
            for _ in 0..bags {
                retire_counters(&ebr, &drops, 3);
                ebr.flush();
            }
            retire_counters(&ebr, &drops, 3);
            drop(outer);
            assert_eq!(drops.load(Ordering::Relaxed), 0, "by_drop={by_drop}");
            if by_drop {
                drop(ebr);
            } else {
                ebr.flush();
                assert_eq!(ebr.gauges().retired_backlog, 0);
            }
            assert_eq!(
                drops.load(Ordering::Relaxed),
                (bags + 1) * 3,
                "by_drop={by_drop}"
            );
        }
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
