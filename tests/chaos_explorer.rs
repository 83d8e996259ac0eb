//! Integration tests for the fault-injection layer (`nmbst::chaos`) and
//! the seeded schedule explorer (`nmbst_lincheck::explore`).
//!
//! The headline test reintroduces a known protocol bug — dropping the
//! flag copy on the splice CAS (Algorithm 4, lines 107–108) — behind the
//! chaos-only `Bug::DropFlagOnSplice` switch and demonstrates the
//! explorer finds a violating schedule within a bounded seed budget, and
//! that the violating seed replays deterministically.

use nmbst::chaos::{self, FaultPlan, Point, StallCell};
use nmbst::{NmTreeMap, TreeConfig};
use nmbst_lincheck::explore::{explore_many, explore_seed, ExploreConfig, ReclaimKind};

/// The bounded per-PR seed budget (CI runs exactly this test). The wide
/// sweep lives in `soak.rs`.
const SEED_BUDGET: u64 = 256;

#[test]
fn explorer_catches_dropped_flag_copy_within_seed_budget() {
    let cfg = ExploreConfig {
        inject_drop_flag_bug: true,
        ..Default::default()
    };
    let violation = match explore_many(&cfg, 0..SEED_BUDGET) {
        Err(v) => v,
        Ok(stats) => panic!(
            "explorer missed the reintroduced Algorithm 4 flag-copy bug \
             across {} schedules ({} events)",
            stats.schedules, stats.events
        ),
    };
    // The violating seed must replay: exploration is deterministic, so
    // the same seed re-derives the same scenario, schedule, and failure.
    let replay = explore_seed(&cfg, violation.report.seed)
        .expect_err("violating seed no longer fails on replay");
    assert_eq!(replay.report, violation.report, "replay diverged");

    // The same seeds are clean without the bug switch: the violation
    // came from the reintroduced bug, not from the explorer itself.
    let clean = ExploreConfig::default();
    explore_seed(&clean, violation.report.seed)
        .unwrap_or_else(|v| panic!("violating seed fails even without the bug: {v}"));
}

#[test]
fn bounded_seed_sweep_is_clean_on_the_real_tree() {
    // The per-PR gate: a window of seeded schedules on the unmodified
    // tree must check out (linearizable + invariants) end to end.
    let stats = explore_many(&ExploreConfig::default(), 0..48).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(stats.schedules, 48);
}

#[test]
fn bounded_seed_sweep_is_clean_under_both_restart_policies() {
    // Same bounded window, run explicitly against each retry policy:
    // the local-restart seek must be linearizable under exactly the
    // schedules that validate the paper's root-restart retry loops.
    for restart in [nmbst::RestartPolicy::Local, nmbst::RestartPolicy::Root] {
        let cfg = ExploreConfig {
            restart,
            ..Default::default()
        };
        let stats = explore_many(&cfg, 0..32).unwrap_or_else(|v| panic!("policy {restart:?}: {v}"));
        assert_eq!(stats.schedules, 32, "policy {restart:?}");
    }
}

#[test]
fn bounded_seed_sweep_is_clean_with_recycling_pool() {
    // EBR actually reclaims mid-schedule and the pool re-issues retired
    // nodes' slots to later inserts, so these schedules exercise retire →
    // grace period → recycle → realloc interleaved with concurrent
    // seeks. Linearizability and tree invariants must hold throughout.
    let cfg = ExploreConfig {
        reclaim: ReclaimKind::Ebr,
        ..Default::default()
    };
    let stats = explore_many(&cfg, 0..32).unwrap_or_else(|v| panic!("Ebr recycling: {v}"));
    assert_eq!(stats.schedules, 32);
}

#[test]
fn bounded_seed_sweep_is_clean_across_leaf_capacities() {
    // PR 7 sweep: the same seed window must check out on the paper's
    // 1-key leaf shape (`leaf_cap = 1`, the ablation and historical
    // corpus) and on fat-leaf trees, where most inserts and removes
    // become copy-on-write block publishes and full blocks split.
    for leaf_cap in [1usize, 2, 8] {
        let cfg = ExploreConfig {
            leaf_cap,
            ..Default::default()
        };
        let stats =
            explore_many(&cfg, 0..32).unwrap_or_else(|v| panic!("leaf_cap {leaf_cap}: {v}"));
        assert_eq!(stats.schedules, 32, "leaf_cap {leaf_cap}");
        // Same-seed determinism at every capacity: the block COW/split
        // paths must be pure functions of the schedule too.
        let first = explore_seed(&cfg, 11).unwrap_or_else(|v| panic!("{v}"));
        let second = explore_seed(&cfg, 11).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(first, second, "leaf_cap {leaf_cap}: replay diverged");
    }
    // Fat leaves + recycling pool + EBR: retired blocks carry multiple
    // entries through retire → grace period → recycle → realloc.
    let cfg = ExploreConfig {
        leaf_cap: 8,
        reclaim: ReclaimKind::Ebr,
        ..Default::default()
    };
    let stats = explore_many(&cfg, 0..16).unwrap_or_else(|v| panic!("leaf_cap 8 + Ebr: {v}"));
    assert_eq!(stats.schedules, 16);
}

#[test]
fn pool_enabled_exploration_is_deterministic() {
    // The token-passing scheduler serializes every step, so epoch
    // advancement, deferral execution, and pool traffic are pure
    // functions of the seed — recycling must not break replayability.
    let cfg = ExploreConfig {
        reclaim: ReclaimKind::Ebr,
        ..Default::default()
    };
    let first = explore_seed(&cfg, 7).unwrap_or_else(|v| panic!("{v}"));
    let second = explore_seed(&cfg, 7).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(first, second, "same seed, same schedule, same report");
}

#[test]
fn fault_plan_stalls_a_delete_until_resumed() {
    // A delete stalled *between* its injection CAS and its cleanup is
    // the canonical helping scenario; StallCell lets a test hold an
    // operation there for as long as it wants, deterministically.
    // leaf_cap 1 so the remove runs the protocol (a multi-entry block
    // COWs past `Point::Tag` and the plan would never engage).
    let set: NmTreeMap<u64, ()> = NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in [50, 25, 75] {
        set.insert(k, ());
    }
    let cell = StallCell::new();
    std::thread::scope(|s| {
        let stalled = s.spawn({
            let set = &set;
            let cell = cell.clone();
            move || {
                FaultPlan::new()
                    .stall_at(Point::Tag, cell)
                    .run(|| set.remove(&25))
            }
        });
        // The deleter is (or will be) parked after its flag CAS. Another
        // thread's delete must help it complete rather than wait.
        while set.contains(&25) {
            std::hint::spin_loop();
            if set.remove(&25) {
                break; // we raced ahead of the stalled thread's flag
            }
        }
        assert!(!set.contains(&25));
        cell.resume();
        stalled.join().unwrap();
    });
    for k in [50, 75] {
        assert!(set.contains(&k), "lost innocent key {k}");
    }
    let mut m = set;
    assert_eq!(m.check_invariants().unwrap().user_keys, 2);
}

#[test]
fn abandoned_insert_leaves_no_trace() {
    let set: NmTreeMap<u64, ()> = NmTreeMap::new();
    set.insert(10, ());
    let published = FaultPlan::new()
        .abandon_at(Point::InsertPublish)
        .run(|| set.insert(20, ()));
    assert!(!published, "abandoned before the publishing CAS");
    assert!(!set.contains(&20));
    // The abandoned op held nothing: a plain retry succeeds.
    assert!(set.insert(20, ()));
    assert!(set.contains(&20));
    let mut m = set;
    assert_eq!(m.check_invariants().unwrap().user_keys, 2);
}

#[test]
fn abandoned_delete_before_injection_is_a_no_op() {
    let set: NmTreeMap<u64, ()> = NmTreeMap::new();
    set.insert(5, ());
    let removed = FaultPlan::new()
        .abandon_at(Point::DeleteInject)
        .run(|| set.remove(&5));
    assert!(
        !removed,
        "abandoned before the injection CAS: nothing happened"
    );
    assert!(set.contains(&5));
    assert!(set.remove(&5));
}

#[test]
fn delete_abandoned_after_splice_skips_retire_but_stays_correct() {
    // Abandoning at Retire leaks the detached chain (by design) but the
    // tree itself must be fully consistent.
    let set: NmTreeMap<u64, ()> = NmTreeMap::new();
    for k in [8, 4, 12, 2, 6] {
        set.insert(k, ());
    }
    let removed = FaultPlan::new()
        .abandon_at(Point::Retire)
        .run(|| set.remove(&4));
    assert!(removed, "splice happened; only the retire was skipped");
    assert!(!set.contains(&4));
    for k in [8, 2, 6, 12] {
        assert!(set.contains(&k), "lost innocent key {k}");
    }
    let mut m = set;
    assert_eq!(m.check_invariants().unwrap().user_keys, 4);
}

#[test]
fn flag_copy_on_splice_survives_without_bug_switch() {
    // Sanity for the acceptance test's premise, staged deterministically
    // on one thread: abandon a delete of 10 after its flag (the stalled
    // owner), then delete its tree sibling 20. The sibling's splice must
    // copy 10's flag onto the hoisted edge (Algorithm 4, lines 107–108);
    // if it did, the resumed owner still owns its victim: a rival
    // remove(10) helps the owner's delete and reports false.
    // leaf_cap = 1: the staged state needs singleton leaves so both
    // removes take the structural flag/tag/splice path.
    let set: NmTreeMap<u64, ()> = NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in [10, 20] {
        set.insert(k, ());
    }
    let owner_flagged = FaultPlan::new()
        .abandon_at(Point::Tag)
        .run(|| set.remove(&10));
    assert!(owner_flagged, "owner's injection CAS must win");
    assert!(set.remove(&20), "sibling delete proceeds independently");
    assert!(set.contains(&10), "10 still visible until its cleanup runs");
    assert!(
        !set.remove(&10),
        "the hoisted edge kept the flag, so 10 still belongs to the owner"
    );
    assert!(!set.contains(&10));
    let mut m = set;
    assert_eq!(m.check_invariants().unwrap().user_keys, 0);
}

#[test]
fn bug_switch_drops_the_flag_copy() {
    // Mirror of the test above with the bug enabled on this thread: the
    // sibling's splice forgets the flag, so the rival remove(10) no
    // longer sees an owned edge — it deletes 10 as if it were free,
    // returning true. This inverted result is exactly the class of
    // misbehavior the explorer's checker flags on concurrent schedules.
    let set: NmTreeMap<u64, ()> = NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    for k in [10, 20] {
        set.insert(k, ());
    }
    let owner_flagged = FaultPlan::new()
        .abandon_at(Point::Tag)
        .run(|| set.remove(&10));
    assert!(owner_flagged);
    chaos::set_bug(chaos::Bug::DropFlagOnSplice, true);
    assert!(set.remove(&20));
    chaos::set_bug(chaos::Bug::DropFlagOnSplice, false);
    assert!(
        set.remove(&10),
        "with the flag copy dropped, the owner's claim on 10 was lost"
    );
}
