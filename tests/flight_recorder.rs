//! Acceptance tests for the flight recorder (ISSUE 3 tentpole): the
//! capture-scoped structural-event trace must be deterministic under the
//! seeded schedule explorer, and a forced helping-protocol bug must
//! yield a postmortem artifact naming the delete protocol's steps in
//! sequence order.

use nmbst::obs::{EventKind, FlightRecorder};
use nmbst::{NmTreeMap, TreeConfig};
use nmbst_lincheck::explore::{explore_many, explore_seed, ExploreConfig};
use nmbst_reclaim::Leaky;

/// Same config + same seed ⇒ byte-identical rendered trace. The
/// explorer's cooperative scheduler serializes every recording thread,
/// so the merged trace is a pure function of the seed.
#[test]
fn same_seed_renders_byte_identical_trace() {
    let cfg = ExploreConfig::default();
    for seed in [0u64, 1, 0xDEAD_BEEF, 42] {
        let a = explore_seed(&cfg, seed).expect("clean run");
        let b = explore_seed(&cfg, seed).expect("clean run");
        assert_eq!(a.trace, b.trace, "seed {seed:#x}: trace diverged");
        let render_a: String = a.trace.iter().map(|e| format!("{e}\n")).collect();
        let render_b: String = b.trace.iter().map(|e| format!("{e}\n")).collect();
        assert_eq!(render_a, render_b);
        assert!(
            !a.trace.is_empty(),
            "seed {seed:#x}: a run with inserts and removes must record structural events"
        );
    }
}

/// Different seeds produce different traces (sanity: the trace actually
/// reflects the schedule rather than some fixed sequence).
#[test]
fn different_seeds_diverge() {
    let cfg = ExploreConfig::default();
    let a = explore_seed(&cfg, 3).expect("clean run");
    let b = explore_seed(&cfg, 4).expect("clean run");
    assert_ne!(a.trace, b.trace);
}

/// The payoff path: force `Bug::DropFlagOnSplice`, let the explorer find
/// a violating seed, and check the postmortem artifact names the delete
/// protocol's InjectFlag → TagSibling → Splice steps in sequence order.
#[test]
fn violation_postmortem_names_the_delete_protocol_steps() {
    let cfg = ExploreConfig {
        inject_drop_flag_bug: true,
        ..ExploreConfig::default()
    };
    let violation = explore_many(&cfg, 0..256)
        .expect_err("the dropped-flag bug must be caught within the seed budget");

    let text = violation.postmortem();
    assert!(text.starts_with("nmbst explorer postmortem"));
    assert!(text.contains(&format!("seed: {:#x}", violation.report.seed)));
    assert!(text.contains("failed check:"));

    // The trace must show the three delete-protocol steps, in order:
    // some flag injection precedes some sibling tag precedes some splice.
    let trace = &violation.report.trace;
    let pos = |kind_match: fn(&EventKind) -> bool| trace.iter().position(|e| kind_match(&e.kind));
    let inject = pos(|k| matches!(k, EventKind::InjectFlag)).expect("postmortem has InjectFlag");
    let tag = trace
        .iter()
        .skip(inject)
        .position(|e| matches!(e.kind, EventKind::TagSibling))
        .map(|i| i + inject)
        .expect("postmortem has TagSibling after InjectFlag");
    let splice = trace
        .iter()
        .skip(tag)
        .position(|e| matches!(e.kind, EventKind::Splice { .. }))
        .map(|i| i + tag)
        .expect("postmortem has Splice after TagSibling");
    assert!(inject < tag && tag < splice);

    // Sequence numbers are strictly increasing in the merged trace, and
    // the rendered artifact lists the same events.
    assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
    for kind in ["InjectFlag", "TagSibling", "Splice{chain_len="] {
        assert!(text.contains(kind), "artifact must mention {kind}");
    }

    // The artifact itself is deterministic: replaying the violating seed
    // under the same config reproduces it byte for byte.
    let replay = explore_seed(&cfg, violation.report.seed)
        .expect_err("violating seed must replay as a violation");
    assert_eq!(replay.postmortem(), text);
}

/// Recorder smoke test outside the explorer: attach on this thread, run
/// real tree operations, and check the expected event kinds show up with
/// strictly increasing sequence numbers.
#[test]
fn recorder_captures_tree_operations_directly() {
    let flight = FlightRecorder::new();
    // leaf_cap = 1: the remove must take the structural
    // flag/tag/splice path for its protocol events to appear (a fat-leaf
    // COW remove publishes a new block and emits no helping events).
    let set: NmTreeMap<u64, (), Leaky> =
        NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
    {
        let _attached = flight.attach(0);
        for k in [10, 5, 15, 3, 7] {
            set.insert(k, ());
        }
        set.remove(&7);
        set.contains(&5);
    }
    // Events recorded after detach don't land in this capture.
    set.remove(&3);

    let trace = flight.merged();
    assert!(trace.iter().all(|e| e.thread == 0));
    assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
    let count = |kind: fn(&EventKind) -> bool| trace.iter().filter(|e| kind(&e.kind)).count();
    // Searches descend without building a seek record, so only the six
    // modify operations start seeks.
    assert_eq!(
        count(|k| matches!(k, EventKind::SeekStart)),
        6,
        "5 inserts + 1 remove, one seek each"
    );
    assert_eq!(count(|k| matches!(k, EventKind::InjectFlag)), 1);
    assert_eq!(count(|k| matches!(k, EventKind::TagSibling)), 1);
    assert_eq!(count(|k| matches!(k, EventKind::Splice { .. })), 1);
    assert_eq!(flight.dropped(), 0);
}
