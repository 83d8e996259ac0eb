//! Deterministic coverage for the local-restart seek (`seek_from`):
//! chaos stalls construct the exact CAS-failure interleavings the
//! optimization targets, and the `instrument` counters prove which
//! descent path the retry actually took.
//!
//! Built as a root-workspace integration test so both the `chaos` and
//! `instrument` features of `nmbst` are enabled (see the workspace
//! `[dev-dependencies]`).

use nmbst::chaos::{FaultPlan, Point, StallCell};
use nmbst::{stats, Leaky, NmTreeMap, RestartPolicy, TreeConfig};

/// The staged interleavings below reason about the paper's 1-key-leaf
/// shape (an insert publishes a two-node subtree, a remove splices) —
/// `leaf_cap = 1` keeps those scripts exact. The free-running stress
/// test sweeps fat leaves too.
fn cap1() -> TreeConfig {
    TreeConfig::default().with_leaf_cap(1)
}

/// Stalls `insert(key)` on a fresh thread right before its publishing
/// CAS, runs `rival` on this thread while it is parked, resumes, and
/// returns the stalled thread's counter deltas (counters are
/// thread-local, so the delta covers exactly the stalled insert).
fn race_insert_against(
    set: &NmTreeMap<u64, (), Leaky>,
    key: u64,
    rival: impl FnOnce(),
) -> stats::OpStats {
    std::thread::scope(|s| {
        let cell = StallCell::new();
        let stalled = s.spawn({
            let cell = cell.clone();
            move || {
                let before = stats::snapshot();
                let inserted = FaultPlan::new()
                    .stall_at(Point::InsertPublish, cell)
                    .run(|| set.insert(key, ()));
                assert!(inserted, "the stalled insert must retry and succeed");
                stats::snapshot().since(&before)
            }
        });
        cell.wait_arrival();
        rival();
        cell.resume();
        stalled.join().unwrap()
    })
}

#[test]
fn insert_conflict_restarts_from_local_anchor() {
    // Keys {10, 20}: the user area is one internal (routing key 20) over
    // the leaves 10 and 20. An insert of 15 seeks to leaf 10 and parks
    // before its publishing CAS; a rival insert of 12 then takes that
    // leaf. The rival's CAS rewrote only the *parent's* child edge — the
    // record's (ancestor → successor) edge is untouched — so the retry
    // must revalidate the anchor and descend from there, not the root.
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::with_config(cap1());
    for k in [10, 20] {
        assert!(set.insert(k, ()));
    }
    let delta = race_insert_against(&set, 15, || {
        assert!(set.insert(12, ()), "rival insert takes the leaf");
    });
    assert_eq!(delta.seeks, 1, "only the initial descent hits the root");
    assert_eq!(delta.local_restarts, 1, "the retry reused the anchor");
    for k in [10, 12, 15, 20] {
        assert!(set.contains(&k), "lost key {k}");
    }
    let mut set = set;
    assert_eq!(set.check_invariants().unwrap().user_keys, 4);
}

#[test]
fn invalidated_anchor_falls_back_to_root_seek() {
    // Same stall, different rival: a delete of 20 splices at the
    // record's ancestor, so the (ancestor → successor) edge no longer
    // leads to the successor. The retry must *reject* the stale anchor
    // and fall back to a full root seek — restarting from a detached
    // node would descend into a frozen region.
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::with_config(cap1());
    for k in [10, 20] {
        assert!(set.insert(k, ()));
    }
    let delta = race_insert_against(&set, 15, || {
        assert!(set.remove(&20), "rival delete splices at the anchor");
    });
    assert_eq!(delta.seeks, 2, "the retry re-descended from the root");
    assert_eq!(delta.local_restarts, 0, "the stale anchor was rejected");
    assert_eq!(
        delta.cleanups, 1,
        "the insert helped (and lost) the delete's cleanup before retrying"
    );
    for k in [10, 15] {
        assert!(set.contains(&k), "lost key {k}");
    }
    assert!(!set.contains(&20));
    let mut set = set;
    assert_eq!(set.check_invariants().unwrap().user_keys, 2);
}

#[test]
fn root_policy_never_takes_the_local_path() {
    // The paper-faithful ablation: under `RestartPolicy::Root` the exact
    // interleaving of `insert_conflict_restarts_from_local_anchor` must
    // retry with a second full seek instead.
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(cap1().with_restart(RestartPolicy::Root));
    for k in [10, 20] {
        assert!(set.insert(k, ()));
    }
    let delta = race_insert_against(&set, 15, || {
        assert!(set.insert(12, ()));
    });
    assert_eq!(delta.seeks, 2);
    assert_eq!(delta.local_restarts, 0);
    for k in [10, 12, 15, 20] {
        assert!(set.contains(&k), "lost key {k}");
    }
}

#[test]
fn local_restart_stress_matches_model() {
    // Free-running contention on a small key space under both policies:
    // the final contents must agree key-for-key with a per-key ownership
    // model. Exercises the local-restart path probabilistically on top
    // of the deterministic tests above.
    for (restart, leaf_cap) in [
        (RestartPolicy::Local, 1),
        (RestartPolicy::Root, 1),
        (RestartPolicy::Local, 8),
        (RestartPolicy::Root, 8),
    ] {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 512;
        let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::with_config(
            TreeConfig::default()
                .with_restart(restart)
                .with_leaf_cap(leaf_cap),
        );
        std::thread::scope(|s| {
            let set = &set;
            for t in 0..THREADS {
                s.spawn(move || {
                    // Disjoint key stripes interleaved in key order, so
                    // concurrent inserts keep landing on shared leaves
                    // (maximal publishing-CAS conflicts); then remove
                    // every other key of the stripe.
                    for i in 0..PER_THREAD {
                        assert!(set.insert(i * THREADS + t, ()));
                    }
                    for i in (0..PER_THREAD).step_by(2) {
                        assert!(set.remove(&(i * THREADS + t)));
                    }
                });
            }
        });
        for i in 0..PER_THREAD {
            for t in 0..THREADS {
                let k = i * THREADS + t;
                assert_eq!(set.contains(&k), i % 2 == 1, "key {k} under {restart:?}");
            }
        }
        let mut set = set;
        let shape = set.check_invariants().unwrap();
        assert_eq!(shape.user_keys as u64, THREADS * PER_THREAD / 2);
    }
}
