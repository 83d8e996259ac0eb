//! Deterministic fault injection for the helping protocol
//! (`feature = "chaos"`).
//!
//! The bugs that matter in the Natarajan–Mittal tree live in rare
//! interleavings of the three-step delete (flag → tag → splice,
//! Algorithm 3–4) and the paths that help it. This module names every
//! atomic step of the algorithm as an **injection point** and routes each
//! through a thread-local hook, so tests can *construct* the in-flight
//! states the protocol must survive instead of hoping a race produces
//! them:
//!
//! | Point | Atomic step guarded |
//! |---|---|
//! | [`Point::SeekRetry`] | an operation looping back to re-seek after a failed CAS or a lost splice |
//! | [`Point::InsertPublish`] | insert's single publishing CAS (Algorithm 2, line 51) |
//! | [`Point::DeleteInject`] | delete's injection CAS — flagging the victim's incoming edge (Algorithm 3, line 73) |
//! | [`Point::Tag`] | the cleanup routine's BTS on the edge to hoist (Algorithm 4, line 106) |
//! | [`Point::Splice`] | the cleanup routine's splice CAS at the ancestor (Algorithm 4, lines 107–108) |
//! | [`Point::Retire`] | handing the detached chain to the reclaimer after a won splice |
//! | [`Point::Recycle`] | a retired node's recycle deferral handing its block back to the pool (fires on the thread *running* the deferral, after the grace period, not on the retiring op) |
//! | [`Point::BatchFinger`] | a batch op about to revalidate its finger anchor ([`Action::Abandon`] skips the anchor and forces a full root descent — a deterministic finger *miss*, not an abandoned op) |
//! | [`Point::BatchStale`] | an `execute_batch` write about to check its Phase-1 seek record for staleness ([`Action::Abandon`] treats the record as stale and forces the re-seek — not an abandoned op) |
//!
//! Each point fires **immediately before** its atomic step executes, so
//! returning [`Action::Abandon`] from a hook stops the operation with
//! everything *up to* that step done and nothing after — e.g. abandoning
//! at [`Point::Tag`] yields a delete that performed its injection CAS and
//! then stopped, which is exactly what a preempted deleter looks like to
//! every helper.
//!
//! # Cost
//!
//! With the feature **off** every point compiles to an empty inline
//! function returning [`Action::Continue`]; no atomic, branch, or
//! thread-local access is added to any hot path. With the feature **on**
//! but no hook installed, a point is one thread-local borrow and a
//! branch.
//!
//! # Hooks
//!
//! A hook is any `FnMut(Point) -> Action` installed on the current
//! thread with `with_hook`. The hook may *block* (stall the operation
//! until another thread releases it), *yield*, or return
//! [`Action::Abandon`]. Abandoned operations return early with a
//! conservative result (`insert` → `false`, `remove` → its linearized
//! result if the injection CAS already succeeded, `None`/`false`
//! otherwise); only install plans on threads whose results the test
//! interprets accordingly.
//!
//! `FaultPlan` covers the common cases declaratively; the schedule
//! explorer in `nmbst-lincheck` installs a custom hook that parks every
//! point on a seeded cooperative scheduler.
//!
//! # Bug switches
//!
//! `set_bug` re-introduces known historical bugs on the current thread
//! (e.g. [`Bug::DropFlagOnSplice`], the Algorithm 4 line 107–108
//! flag-copy). They exist so the schedule explorer can demonstrate it
//! *would* catch the bug class; see `tests/chaos_explorer.rs`.
//! Thread-local on purpose: a buggy splice performed by a *helper*
//! thread without the switch stays correct, mirroring a partial
//! deployment of a broken patch — enable it on every thread of a
//! scenario to make the bug unconditional.

#[cfg(feature = "chaos")]
use std::cell::{Cell, RefCell};
#[cfg(feature = "chaos")]
use std::sync::{Arc, Condvar, Mutex};

/// A named injection point: one atomic step of the algorithm. See the
/// [module docs](self) for the step each point guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// An operation loops back to re-seek (failed CAS or lost splice).
    SeekRetry,
    /// Insert's publishing CAS is about to execute.
    InsertPublish,
    /// Delete's injection CAS (the flag) is about to execute.
    DeleteInject,
    /// Cleanup's tag (BTS) on the hoisted edge is about to execute.
    Tag,
    /// Cleanup's splice CAS at the ancestor is about to execute.
    Splice,
    /// A won splice is about to retire the detached chain.
    Retire,
    /// A recycle deferral is about to return a reclaimed node's slot to
    /// the tree's pool. [`Action::Abandon`] abandons the slot in place
    /// instead (the free-list-overflow fall-through path — arena memory,
    /// reclaimed when the tree drops), which lets tests pin down *where*
    /// a given slot may reappear.
    Recycle,
    /// A batch operation is about to revalidate the previous op's seek
    /// record as its descent anchor. Unlike every other point,
    /// [`Action::Abandon`] here does not abandon the operation — it skips
    /// the anchor and descends from the root (a forced, deterministic
    /// finger miss). The operation's result is unaffected either way.
    BatchFinger,
    /// An `execute_batch` write is about to check whether the seek
    /// record its Phase-1 lane produced still holds. Like
    /// [`BatchFinger`](Point::BatchFinger), [`Action::Abandon`] does not
    /// abandon the operation: it treats the record as stale and re-seeks
    /// from its anchor before the CAS. The result is unaffected either
    /// way.
    BatchStale,
}

/// What an operation does after its hook inspected an injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Execute the atomic step normally.
    Continue,
    /// Stop the operation here: everything before this point's step has
    /// happened, nothing after it will. The structure is left in a
    /// protocol-consistent in-flight state for helpers to finish.
    Abandon,
}

/// Consults the current thread's hook at injection point `p`.
///
/// This is the only entry point the tree calls; everything else in this
/// module is plumbing for installing hooks.
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn hit(p: Point) -> Action {
    // Take the hook out while running it: a hook that re-enters the tree
    // (e.g. to inspect membership mid-stall) must not observe itself.
    // `try_with`, not `with`: [`Point::Recycle`] fires from recycle
    // deferrals, which a reclaimer's own thread-local destructor can run
    // during thread exit — after this TLS slot is gone. No hook can be
    // installed at that point, so `Continue` is the only right answer.
    let Ok(Some(mut hook)) = HOOK.try_with(|h| h.borrow_mut().take()) else {
        return Action::Continue;
    };
    let action = hook(p);
    let _ = HOOK.try_with(|h| {
        if h.borrow().is_none() {
            *h.borrow_mut() = Some(hook);
        }
    });
    action
}

/// No-op twin compiled when the feature is off: the call site folds away.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn hit(_p: Point) -> Action {
    Action::Continue
}

/// The installed hook's type: boxed so plans and closures store uniformly.
#[cfg(feature = "chaos")]
type Hook = Box<dyn FnMut(Point) -> Action>;

#[cfg(feature = "chaos")]
thread_local! {
    static HOOK: RefCell<Option<Hook>> = const { RefCell::new(None) };
    static BUGS: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` with `hook` installed as this thread's injection-point hook,
/// restoring the previously installed hook (if any) afterwards.
#[cfg(feature = "chaos")]
pub fn with_hook<T>(hook: impl FnMut(Point) -> Action + 'static, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Box<dyn FnMut(Point) -> Action>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            HOOK.with(|h| *h.borrow_mut() = prev);
        }
    }
    let prev = HOOK.take();
    HOOK.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
    let _restore = Restore(prev);
    f()
}

/// Known historical bugs that can be re-introduced per thread with
/// `set_bug` to validate that the test infrastructure catches them.
/// Inert (never enabled) unless `feature = "chaos"` is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Splice with a clean edge instead of copying the hoisted edge's
    /// flag (Algorithm 4, lines 107–108). The flag marks a leaf some
    /// *other* delete already claimed; dropping it makes that delete's
    /// cleanup swap roles and excise the wrong subtree — deleted keys
    /// resurface and innocent siblings vanish.
    DropFlagOnSplice,
}

#[cfg(feature = "chaos")]
impl Bug {
    fn mask(self) -> u32 {
        match self {
            Bug::DropFlagOnSplice => 1 << 0,
        }
    }
}

/// Enables or disables `bug` on the current thread.
#[cfg(feature = "chaos")]
pub fn set_bug(bug: Bug, enabled: bool) {
    BUGS.with(|b| {
        let m = bug.mask();
        b.set(if enabled { b.get() | m } else { b.get() & !m });
    });
}

/// `true` if `bug` is enabled on the current thread.
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn bug_enabled(bug: Bug) -> bool {
    BUGS.with(|b| b.get() & bug.mask() != 0)
}

/// No-op twin compiled when the feature is off: bugs can never be on.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn bug_enabled(_bug: Bug) -> bool {
    false
}

/// A declarative per-thread hook: a list of one-shot rules, each firing
/// at the n-th arrival at its injection point.
///
/// ```
/// # #[cfg(feature = "chaos")] {
/// use nmbst::chaos::{FaultPlan, Point};
/// use nmbst::NmTreeMap;
///
/// let set: NmTreeMap<u64, ()> = NmTreeMap::new();
/// set.insert(7, ());
/// // A delete that flags its victim and then stops before cleanup:
/// let flagged = FaultPlan::new()
///     .abandon_at(Point::Tag)
///     .run(|| set.remove(&7));
/// assert!(flagged, "injection CAS succeeded: the delete owns the leaf");
/// // Not yet spliced: searches still find the leaf, and any operation
/// // that trips over the flagged edge will help finish the delete.
/// assert!(set.contains(&7));
/// # }
/// ```
#[cfg(feature = "chaos")]
#[derive(Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

#[cfg(feature = "chaos")]
struct Rule {
    point: Point,
    /// Arrivals at `point` still to skip before firing.
    skip: u32,
    what: Fault,
    spent: bool,
}

#[cfg(feature = "chaos")]
enum Fault {
    Abandon,
    Stall(StallCell),
}

#[cfg(feature = "chaos")]
impl FaultPlan {
    /// An empty plan (every point continues normally).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Abandon the operation at its first arrival at `point`.
    pub fn abandon_at(self, point: Point) -> Self {
        self.abandon_at_nth(point, 0)
    }

    /// Abandon the operation at its `n`-th (0-based) arrival at `point`.
    pub fn abandon_at_nth(mut self, point: Point, n: u32) -> Self {
        self.rules.push(Rule {
            point,
            skip: n,
            what: Fault::Abandon,
            spent: false,
        });
        self
    }

    /// Block at the first arrival at `point` until `cell` is
    /// [resumed](StallCell::resume) by another thread: a deterministic
    /// mid-flight preemption.
    pub fn stall_at(mut self, point: Point, cell: StallCell) -> Self {
        self.rules.push(Rule {
            point,
            skip: 0,
            what: Fault::Stall(cell),
            spent: false,
        });
        self
    }

    /// Runs `f` with this plan installed as the thread's hook.
    pub fn run<T>(mut self, f: impl FnOnce() -> T) -> T {
        with_hook(move |p| self.consult(p), f)
    }

    fn consult(&mut self, p: Point) -> Action {
        for rule in self.rules.iter_mut() {
            if rule.spent || rule.point != p {
                continue;
            }
            if rule.skip > 0 {
                rule.skip -= 1;
                continue;
            }
            rule.spent = true;
            match &rule.what {
                Fault::Abandon => return Action::Abandon,
                Fault::Stall(cell) => cell.wait(),
            }
            break;
        }
        Action::Continue
    }
}

/// A resumable parking spot shared between a stalled operation and the
/// test controlling it (see [`FaultPlan::stall_at`]).
#[cfg(feature = "chaos")]
#[derive(Clone, Default)]
pub struct StallCell {
    inner: Arc<(Mutex<StallState>, Condvar)>,
}

#[cfg(feature = "chaos")]
#[derive(Default)]
struct StallState {
    resumed: bool,
    arrived: bool,
}

#[cfg(feature = "chaos")]
impl StallCell {
    /// A cell in the "will stall" state.
    pub fn new() -> Self {
        StallCell::default()
    }

    /// Releases the stalled thread (idempotent; may be called before the
    /// stall is reached, in which case the stall is skipped).
    pub fn resume(&self) {
        let (lock, cv) = &*self.inner;
        lock.lock().unwrap().resumed = true;
        cv.notify_all();
    }

    /// Blocks until some operation has reached the stall point. Lets a
    /// test order its own steps *after* the stalled thread is provably
    /// parked mid-operation, instead of sleeping and hoping.
    pub fn wait_arrival(&self) {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        while !st.arrived {
            st = cv.wait(st).unwrap();
        }
    }

    fn wait(&self) {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        st.arrived = true;
        cv.notify_all();
        while !st.resumed {
            st = cv.wait(st).unwrap();
        }
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn no_hook_continues() {
        assert_eq!(hit(Point::Tag), Action::Continue);
    }

    #[test]
    fn with_hook_routes_points_and_restores() {
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = std::rc::Rc::clone(&seen);
        with_hook(
            move |p| {
                seen2.borrow_mut().push(p);
                Action::Continue
            },
            || {
                assert_eq!(hit(Point::Splice), Action::Continue);
                assert_eq!(hit(Point::Retire), Action::Continue);
            },
        );
        assert_eq!(*seen.borrow(), vec![Point::Splice, Point::Retire]);
        // Uninstalled afterwards.
        assert_eq!(hit(Point::Splice), Action::Continue);
        assert!(seen.borrow().len() == 2);
    }

    #[test]
    fn nested_hooks_restore_outer() {
        let outer_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let o = std::rc::Rc::clone(&outer_hits);
        with_hook(
            move |_| {
                o.set(o.get() + 1);
                Action::Continue
            },
            || {
                hit(Point::Tag);
                with_hook(
                    |_| Action::Abandon,
                    || assert_eq!(hit(Point::Tag), Action::Abandon),
                );
                hit(Point::Tag);
            },
        );
        assert_eq!(outer_hits.get(), 2);
    }

    #[test]
    fn plan_abandons_at_nth_arrival() {
        let mut plan = FaultPlan::new().abandon_at_nth(Point::SeekRetry, 2);
        assert_eq!(plan.consult(Point::SeekRetry), Action::Continue);
        assert_eq!(plan.consult(Point::Tag), Action::Continue);
        assert_eq!(plan.consult(Point::SeekRetry), Action::Continue);
        assert_eq!(plan.consult(Point::SeekRetry), Action::Abandon);
        // One-shot: spent rules never fire again.
        assert_eq!(plan.consult(Point::SeekRetry), Action::Continue);
    }

    #[test]
    fn stall_cell_resumed_from_other_thread() {
        let cell = StallCell::new();
        let released = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let c = cell.clone();
            let released = &released;
            s.spawn(move || {
                c.wait();
                released.fetch_add(1, Ordering::SeqCst);
            });
            std::thread::yield_now();
            assert_eq!(released.load(Ordering::SeqCst), 0);
            cell.resume();
        });
        assert_eq!(released.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bug_switch_is_thread_local() {
        set_bug(Bug::DropFlagOnSplice, true);
        assert!(bug_enabled(Bug::DropFlagOnSplice));
        std::thread::scope(|s| {
            s.spawn(|| assert!(!bug_enabled(Bug::DropFlagOnSplice)));
        });
        set_bug(Bug::DropFlagOnSplice, false);
        assert!(!bug_enabled(Bug::DropFlagOnSplice));
    }
}
