//! Hazard eras (Ramalhete & Correia, DISC 2017 brief announcement),
//! built from scratch: the hazard-pointer machinery of Michael (TPDS
//! 2004) — per-thread records, published slots, scan-before-free —
//! protecting an *era* instead of an address.
//!
//! # Why not per-address hazard pointers
//!
//! The paper remarks (§3.2) that reclamation "can be derived using the
//! well-known notion of hazard pointers". For the NM-BST as published,
//! that derivation is *not* the textbook protect-and-validate recipe: a
//! seek routinely walks through nodes whose incoming edge is already
//! flagged or tagged (that is the whole point of the seek record's
//! ancestor/successor pair), so the validation step "source still points
//! to the protected node" fails spuriously and, worse, cannot distinguish
//! a node that merely *will* be unlinked from one that already has been.
//! Making per-address hazard pointers sound for this algorithm requires
//! restarting seeks from checkpoints whose own protection is validated
//! transitively — a follow-up line of work (e.g. NBR, HP-trees) beyond
//! this paper. The tree therefore ships on [`Ebr`](crate::Ebr), and this
//! module keeps only the record machinery in the form the tree *can*
//! use: era protection needs no validation step, so [`HazardEras`] is
//! sound for the tree — see its type docs.
//!
//! Participation is implicit, like `Ebr`: [`HazardEras`] implements
//! [`Reclaim`].

use crate::{Deferred, Reclaim, ReclaimGauges, RetireGuard};
use nmbst_sync::SpinLock;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One thread's published state: whether a live thread owns the record,
/// the era it announced (0 = unpinned), and how many retirees its
/// private list holds.
struct HpRecord {
    active: AtomicBool,
    era: AtomicUsize,
    /// Length of the owning thread's retired list, mirrored for
    /// [`Reclaim::gauges`]: the list itself is thread-private. Written
    /// only by the owner (after each retire and scan, and zeroed when it
    /// releases the record); a statistic, so every access is relaxed.
    retired: AtomicUsize,
}

impl HpRecord {
    fn new() -> Self {
        HpRecord {
            active: AtomicBool::new(true),
            era: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
        }
    }
}

struct DomainInner {
    records: SpinLock<Vec<Arc<HpRecord>>>,
    /// Retired items orphaned by exited threads, picked up by the next
    /// scan on any thread.
    stash: SpinLock<Vec<(usize, Deferred)>>,
    /// Tokens parked by [`Reclaim::hold`]. Every deferral execution site
    /// (a local's `scan`, the stash drains) runs under a live
    /// `DomainInner`, and struct fields drop only after `Drop` has
    /// drained the stash — so a parked token outlives every deferral
    /// call.
    keepalive: SpinLock<Vec<Box<dyn std::any::Any + Send>>>,
}

impl DomainInner {
    fn new() -> Self {
        DomainInner {
            records: SpinLock::new(Vec::new()),
            stash: SpinLock::new(Vec::new()),
            keepalive: SpinLock::new(Vec::new()),
        }
    }

    /// Claims an inactive record for the calling thread, or registers a
    /// fresh one.
    fn acquire_record(&self) -> Arc<HpRecord> {
        let mut records = self.records.lock();
        match records.iter().find(|r| {
            !r.active.load(Ordering::Relaxed)
                && r.active
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        }) {
            Some(r) => Arc::clone(r),
            None => {
                let r = Arc::new(HpRecord::new());
                records.push(Arc::clone(&r));
                r
            }
        }
    }
}

impl Drop for DomainInner {
    fn drop(&mut self) {
        // Last reference: no locals exist, hence no published hazards.
        for (_, deferred) in self.stash.lock().drain(..) {
            deferred.call();
        }
    }
}

/// Retirements accumulated on a thread before its next unpin scans.
const ERA_SCAN_THRESHOLD: usize = 32;

struct ErasInner {
    /// Unique id keying the thread-local registry.
    id: usize,
    /// Global era clock. Starts at 1 so a published 0 means "unpinned";
    /// bumped on every retirement.
    era: AtomicUsize,
    /// Record registry + orphan stash; stashed retirees carry their
    /// retirement era.
    domain: DomainInner,
    /// Set when the owning [`HazardEras`] is dropped: no guards can exist
    /// any more, so registry entries may be evicted.
    orphaned: AtomicBool,
}

/// Per-thread participant in a [`HazardEras`] collector, owned by the
/// thread-local registry.
struct ErasLocal {
    inner: Arc<ErasInner>,
    record: Arc<HpRecord>,
    guard_count: Cell<usize>,
    /// `(retirement era, destructor)` pairs not yet proven unreachable.
    retired: RefCell<Vec<(usize, Deferred)>>,
}

impl ErasLocal {
    #[inline]
    fn pin(&self) {
        let count = self.guard_count.get();
        if count == 0 {
            let era = self.inner.era.load(Ordering::SeqCst);
            self.record.era.store(era, Ordering::SeqCst);
            // Publish the era before any shared read; pairs with the
            // fence in `scan`.
            fence(Ordering::SeqCst);
        }
        self.guard_count.set(count + 1);
    }

    #[inline]
    fn unpin(&self) {
        let count = self.guard_count.get() - 1;
        self.guard_count.set(count);
        if count == 0 {
            self.record.era.store(0, Ordering::Release);
            if self.retired.borrow().len() >= ERA_SCAN_THRESHOLD {
                self.scan();
            }
        }
    }

    /// Frees every retiree whose retirement era precedes every published
    /// era (such a pin started after the retiree's unlink-then-bump, so
    /// it cannot have reached the retiree).
    fn scan(&self) {
        // Adopt orphaned retirees first so they are not stranded.
        {
            let mut stash = self.inner.domain.stash.lock();
            self.retired.borrow_mut().append(&mut stash);
        }
        // Pairs with the fence in `pin`: an era publication not visible
        // to the loads below happened after this fence, hence reads an
        // era greater than any already-stamped retiree's.
        fence(Ordering::SeqCst);
        let mut min_era = usize::MAX;
        {
            let records = self.inner.domain.records.lock();
            for record in records.iter() {
                let e = record.era.load(Ordering::Acquire);
                if e != 0 && e < min_era {
                    min_era = e;
                }
            }
        }
        let retired = std::mem::take(&mut *self.retired.borrow_mut());
        let mut kept = Vec::new();
        for (era, deferred) in retired {
            if era >= min_era {
                kept.push((era, deferred));
            } else {
                deferred.call();
            }
        }
        self.record.retired.store(kept.len(), Ordering::Relaxed);
        *self.retired.borrow_mut() = kept;
    }
}

impl Drop for ErasLocal {
    fn drop(&mut self) {
        debug_assert_eq!(self.guard_count.get(), 0, "thread exited while pinned");
        self.record.era.store(0, Ordering::Release);
        self.scan();
        let leftovers = std::mem::take(&mut *self.retired.borrow_mut());
        if !leftovers.is_empty() {
            self.inner.domain.stash.lock().extend(leftovers);
        }
        self.record.retired.store(0, Ordering::Relaxed);
        self.record.active.store(false, Ordering::Release);
    }
}

thread_local! {
    /// Registry of this thread's `ErasLocal`s, keyed by collector id —
    /// same shape as the EBR registry (`ebr::LOCALS`).
    static ERAS_LOCALS: RefCell<Vec<(usize, Rc<ErasLocal>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_ERAS_ID: AtomicUsize = AtomicUsize::new(0);

/// Hazard-eras reclamation (Ramalhete & Correia, DISC 2017 brief
/// announcement): the hazard-pointer *machinery* — per-thread records,
/// published slots, scan-before-free — protecting an **era** instead of
/// an address.
///
/// Each pin publishes the global era; each retirement stamps the retiree
/// with the era and bumps the clock. A retiree may be freed once every
/// published era is newer than its stamp: such a pin began after the
/// retiree was unlinked, so it can never have reached it.
///
/// # Why this is the hazard scheme the tree can use
///
/// Per-address hazard pointers need a protect-then-validate step that the
/// NM-BST seek cannot perform (see the module docs: seeks walk edges that
/// are already flagged/tagged). Era protection needs **no validation** —
/// it guards an interval of time, not a pointer — so it is sound for any
/// structure that unlinks before retiring, the tree included. The cost is
/// EBR-like: a stalled pinned thread blocks reclamation (but never tree
/// progress). What it buys over [`Ebr`](crate::Ebr) here is exercising
/// this crate's hazard-record substrate under the tree's real workload.
///
/// # Examples
///
/// ```
/// use nmbst_reclaim::{HazardEras, Reclaim, RetireGuard};
///
/// let he = HazardEras::new();
/// let guard = he.pin();
/// let ptr = Box::into_raw(Box::new(42));
/// // ... unlink `ptr` from the shared structure, then:
/// unsafe { guard.retire(ptr) };
/// drop(guard);
/// // freed once every pin that could have seen `ptr` has ended —
/// // at the latest when `he` is dropped.
/// ```
pub struct HazardEras {
    inner: Arc<ErasInner>,
}

impl HazardEras {
    /// Returns this thread's `ErasLocal` for this collector, registering
    /// on first use and evicting entries of dropped collectors.
    fn local(&self) -> Rc<ErasLocal> {
        ERAS_LOCALS.with(|registry| {
            let mut registry = registry.borrow_mut();
            registry.retain(|(_, local)| !local.inner.orphaned.load(Ordering::Acquire));
            if let Some((_, local)) = registry.iter().find(|(id, _)| *id == self.inner.id) {
                return Rc::clone(local);
            }
            let local = Rc::new(ErasLocal {
                inner: Arc::clone(&self.inner),
                record: self.inner.domain.acquire_record(),
                guard_count: Cell::new(0),
                retired: RefCell::new(Vec::new()),
            });
            registry.push((self.inner.id, Rc::clone(&local)));
            local
        })
    }

    /// Current value of the era clock (diagnostics and tests).
    pub fn era(&self) -> usize {
        self.inner.era.load(Ordering::Acquire)
    }
}

impl Reclaim for HazardEras {
    type Guard<'a> = HazardErasGuard<'a>;

    fn new() -> Self {
        HazardEras {
            inner: Arc::new(ErasInner {
                id: NEXT_ERAS_ID.fetch_add(1, Ordering::Relaxed),
                era: AtomicUsize::new(1),
                domain: DomainInner::new(),
                orphaned: AtomicBool::new(false),
            }),
        }
    }

    #[inline]
    fn pin(&self) -> HazardErasGuard<'_> {
        let local = self.local();
        local.pin();
        HazardErasGuard {
            local,
            _collector: PhantomData,
        }
    }

    /// Scans now, freeing whatever no current pin can reach, without
    /// waiting for this thread's retirement threshold.
    fn flush(&self) {
        self.local().scan();
    }

    /// Parks `token` in the shared domain state, which every deferral
    /// execution site (local scans, the orphan-stash drains) runs under:
    /// stragglers reach it through their own `Arc<ErasInner>`.
    fn hold(&self, token: Box<dyn std::any::Any + Send>) {
        self.inner.domain.keepalive.lock().push(token);
    }

    /// The era clock as the epoch; the lag from the oldest published
    /// era, which counts the retirements since the oldest live pin began
    /// (the clock advances once per retirement); the threads with a
    /// published era; and the backlog of every thread's retired list
    /// plus the orphan stash.
    fn gauges(&self) -> ReclaimGauges {
        let era = self.inner.era.load(Ordering::Acquire) as u64;
        let mut pinned_threads = 0u64;
        let mut min_era = None;
        let mut local_backlog = 0u64;
        for record in self.inner.domain.records.lock().iter() {
            let e = record.era.load(Ordering::Relaxed) as u64;
            if e != 0 {
                pinned_threads += 1;
                min_era = Some(min_era.map_or(e, |m: u64| m.min(e)));
            }
            local_backlog += record.retired.load(Ordering::Relaxed) as u64;
        }
        let stashed = self.inner.domain.stash.lock().len() as u64;
        ReclaimGauges {
            epoch: era,
            // A pin racing this scan can publish an era newer than the
            // clock value read above; saturate rather than wrap.
            epoch_lag: min_era.map_or(0, |m| era.saturating_sub(m)),
            pinned_threads,
            retired_backlog: local_backlog + stashed,
        }
    }
}

impl Default for HazardEras {
    fn default() -> Self {
        Reclaim::new()
    }
}

impl Drop for HazardEras {
    fn drop(&mut self) {
        // Guards borrow `&self`, so none exist anywhere; publish
        // orphan-hood so registries evict, then free the stash. Retirees
        // still private to other live threads are freed by those
        // threads' `ErasLocal::drop` scans (nothing is pinned).
        self.inner.orphaned.store(true, Ordering::SeqCst);
        let _ = ERAS_LOCALS.try_with(|registry| {
            registry.borrow_mut().retain(|(id, _)| *id != self.inner.id);
        });
        for (_, deferred) in self.inner.domain.stash.lock().drain(..) {
            deferred.call();
        }
    }
}

impl std::fmt::Debug for HazardEras {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardEras")
            .field("id", &self.inner.id)
            .field("era", &self.era())
            .finish()
    }
}

/// The pinned critical section of a [`HazardEras`] collector.
///
/// Re-entrant: nested pins on the same thread share the outermost era.
/// `!Send`: a guard must be dropped on the thread that created it.
pub struct HazardErasGuard<'a> {
    local: Rc<ErasLocal>,
    _collector: PhantomData<&'a HazardEras>,
}

impl RetireGuard for HazardErasGuard<'_> {
    #[inline]
    unsafe fn retire_deferred(&self, deferred: Deferred) {
        // Stamp, then bump: any pin published after the bump carries an
        // era strictly greater than the stamp. Recycle deferrals get the
        // same stamp discipline as plain drops.
        let era = self.local.inner.era.fetch_add(1, Ordering::SeqCst);
        let mut retired = self.local.retired.borrow_mut();
        retired.push((era, deferred));
        self.local
            .record
            .retired
            .store(retired.len(), Ordering::Relaxed);
    }
}

impl Drop for HazardErasGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.local.unpin();
    }
}

impl std::fmt::Debug for HazardErasGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HazardErasGuard { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, AtomicUsize as Counter};

    struct DropCounter(Arc<Counter>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Threads that exit hand their record back; the next thread to
    /// register claims it instead of growing the registry.
    #[test]
    fn record_reuse_after_exit() {
        let he = Arc::new(HazardEras::new());
        for _ in 0..5 {
            let he = Arc::clone(&he);
            std::thread::spawn(move || drop(he.pin())).join().unwrap();
        }
        let records = he.inner.domain.records.lock();
        assert_eq!(records.len(), 1);
        assert!(!records[0].active.load(Ordering::Relaxed));
    }

    /// A thread that exits while its retiree is still covered by another
    /// pin stashes it; dropping the collector frees it.
    #[test]
    fn orphaned_retirees_freed_at_collector_drop() {
        let drops = Arc::new(Counter::new(0));
        let he = Arc::new(HazardEras::new());
        let outer = he.pin();
        {
            let (he, drops) = (Arc::clone(&he), Arc::clone(&drops));
            std::thread::spawn(move || eras_retire_counter(&he, &drops))
                .join()
                .unwrap();
        }
        assert_eq!(he.inner.domain.stash.lock().len(), 1, "exit stashes");
        drop(outer);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(he);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    fn eras_retire_counter(he: &HazardEras, drops: &Arc<Counter>) {
        let guard = he.pin();
        let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(drops))));
        unsafe { guard.retire(ptr) };
    }

    #[test]
    fn eras_garbage_freed_by_collector_drop() {
        let drops = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        for _ in 0..10 {
            eras_retire_counter(&he, &drops);
        }
        drop(he);
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn eras_flush_frees_when_nothing_pinned() {
        let drops = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        for _ in 0..5 {
            eras_retire_counter(&he, &drops);
        }
        he.flush();
        assert_eq!(drops.load(Ordering::Relaxed), 5);
        drop(he);
    }

    #[test]
    fn eras_pinned_thread_blocks_reclamation() {
        let drops = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        let outer = he.pin();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    eras_retire_counter(&he, &drops);
                }
                he.flush();
            });
        });
        assert_eq!(drops.load(Ordering::Relaxed), 0, "freed under a pin");
        drop(outer);
        // The exited thread stashed its survivors from its thread-local
        // destructor, which may trail the join slightly; adopt-and-scan
        // until they arrive, then free them (nothing is pinned anymore).
        for _ in 0..1_000 {
            he.flush();
            if drops.load(Ordering::Relaxed) == 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert_eq!(drops.load(Ordering::Relaxed), 3);
        drop(he);
    }

    #[test]
    fn eras_nested_pins_share_era() {
        let drops = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        let g1 = he.pin();
        eras_retire_counter(&he, &drops); // nested pin + retire
        he.flush();
        assert_eq!(drops.load(Ordering::Relaxed), 0, "own pin must block");
        drop(g1);
        he.flush();
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(he);
    }

    #[test]
    fn eras_era_clock_bumps_on_retire() {
        let he = HazardEras::new();
        let e0 = he.era();
        let ptr = Box::into_raw(Box::new(7u32));
        let guard = he.pin();
        unsafe { guard.retire(ptr) };
        drop(guard);
        assert_eq!(he.era(), e0 + 1);
        drop(he);
    }

    #[test]
    fn gauges_track_pin_retire_scan_and_exit() {
        let drops = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        assert_eq!(
            he.gauges(),
            ReclaimGauges {
                epoch: 1,
                ..ReclaimGauges::default()
            },
            "the era clock starts at 1"
        );

        let guard = he.pin();
        let g = he.gauges();
        assert_eq!(
            (g.pinned_threads, g.epoch_lag, g.retired_backlog),
            (1, 0, 0)
        );

        for _ in 0..3 {
            let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.retire(ptr) };
        }
        let g = he.gauges();
        assert_eq!(g.epoch, 4, "one era per retirement");
        assert_eq!(g.epoch_lag, 3, "three retirements since the pin began");
        assert_eq!(g.retired_backlog, 3, "the private list is counted");

        // Our own pin covers every retiree: a scan keeps them all.
        he.flush();
        assert_eq!(he.gauges().retired_backlog, 3);
        drop(guard);
        let g = he.gauges();
        assert_eq!((g.pinned_threads, g.epoch_lag), (0, 0));
        he.flush();
        assert_eq!(he.gauges().retired_backlog, 0, "drained once unpinned");
        assert_eq!(drops.load(Ordering::Relaxed), 3);

        // A thread that exits while a pin still covers its retiree
        // stashes it: the stash counts until a scan frees it.
        let outer = he.pin();
        std::thread::scope(|s| {
            s.spawn(|| eras_retire_counter(&he, &drops));
        });
        // The exited thread's destructor may trail the join slightly; it
        // releases its record last, after stashing.
        let settled = || {
            let records = he.inner.domain.records.lock();
            records
                .iter()
                .filter(|r| r.active.load(Ordering::Acquire))
                .count()
                == 1
        };
        for _ in 0..1_000 {
            if settled() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        let g = he.gauges();
        assert_eq!((g.pinned_threads, g.retired_backlog), (1, 1), "{g:?}");
        drop(outer);
        he.flush();
        assert_eq!(he.gauges().retired_backlog, 0);
        assert_eq!(drops.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn eras_concurrent_swap_stress_frees_everything() {
        const ITERS: usize = 2_000;
        let drops = Arc::new(Counter::new(0));
        let allocs = Arc::new(Counter::new(0));
        let he = HazardEras::new();
        let shared: AtomicPtr<DropCounter> = AtomicPtr::new(std::ptr::null_mut());

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        allocs.fetch_add(1, Ordering::Relaxed);
                        let fresh = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                        let guard = he.pin();
                        let old = shared.swap(fresh, Ordering::AcqRel);
                        if !old.is_null() {
                            unsafe { guard.retire(old) };
                        }
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        let guard = he.pin();
                        let p = shared.load(Ordering::Acquire);
                        if !p.is_null() {
                            // Dereference under the pin: must not be freed.
                            let _ = unsafe { &(*p).0 };
                        }
                        drop(guard);
                    }
                });
            }
        });

        let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !last.is_null() {
            drop(unsafe { Box::from_raw(last) });
        }
        drop(he);
        // Worker thread-local destructors (which stash-or-free their
        // remaining retirees) may trail the joins slightly.
        for _ in 0..1_000 {
            if drops.load(Ordering::Relaxed) == allocs.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            allocs.load(Ordering::Relaxed),
            "every allocation freed exactly once"
        );
    }
}
