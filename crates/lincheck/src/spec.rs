//! Linearizability checking against a sequential specification.
//!
//! Implement [`Spec`] (a deterministic sequential model), record
//! [`GenEvent`]s, and [`check_history`] searches for a legal
//! linearization: the Wing & Gong search with the remaining-set ×
//! abstract-state memoization of Lowe's refinement. [`SetSpec`] is the
//! paper's set ADT; [`MapSpec`] the map ADT with observable values.

use crate::SetOp;
use std::collections::HashSet;
use std::hash::Hash;

/// A sequential specification: deterministic abstract state plus an
/// `apply` function producing the expected result of each operation.
pub trait Spec {
    /// Operation descriptor (what was invoked).
    type Op: Clone;
    /// Observed result type.
    type Ret: PartialEq + Clone;
    /// Abstract state; `Hash + Eq` enables memoization.
    type State: Clone + Hash + Eq;

    /// The initial abstract state.
    fn init(&self) -> Self::State;

    /// Applies `op` to `state`, returning the expected result and the
    /// successor state.
    fn apply(&self, op: &Self::Op, state: &Self::State) -> (Self::Ret, Self::State);
}

/// One completed operation in a history over spec `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenEvent<S: Spec> {
    /// What was invoked.
    pub op: S::Op,
    /// What it returned.
    pub ret: S::Ret,
    /// Logical invocation timestamp.
    pub invoke: u64,
    /// Logical response timestamp (must exceed `invoke`).
    pub response: u64,
}

/// Decides whether a complete history is linearizable against `spec`:
/// is there a total order of the operations, consistent with real time
/// (an op that responded before another was invoked must come first),
/// in which every result matches the sequential specification? On
/// success returns a *witness*: the indices of `history` in one legal
/// linearization order — when debugging a reported violation, rerun
/// with the suspect event removed to see which constraint broke.
///
/// Complexity is exponential in the worst case; the memo on
/// `(remaining-ops bitmask, abstract state)` makes histories of a few
/// dozen events check in microseconds to milliseconds.
///
/// # Panics
///
/// Panics if the history has more than 64 events (a bitmask tracks the
/// remaining set; keep recorded windows small and check many of them)
/// or an event's `response` does not exceed its `invoke`.
pub fn check_history<S: Spec>(spec: &S, history: &[GenEvent<S>]) -> Option<Vec<usize>> {
    check_history_ordered(spec, history, &[])
}

/// [`check_history`] under extra order constraints: bit `j` of
/// `preds[i]` says event `j` must be linearized before event `i`, an
/// order real time does not imply — the same-key commands of one batch,
/// whose contract is input order, share one interval. `preds` may be
/// shorter than `history` (missing entries constrain nothing).
pub fn check_history_ordered<S: Spec>(
    spec: &S,
    history: &[GenEvent<S>],
    preds: &[u64],
) -> Option<Vec<usize>> {
    assert!(history.len() <= 64, "at most 64 events per history");
    for e in history {
        assert!(e.invoke < e.response, "malformed event interval");
    }
    if history.is_empty() {
        return Some(Vec::new());
    }
    let full: u64 = if history.len() == 64 {
        u64::MAX
    } else {
        (1u64 << history.len()) - 1
    };
    let mut memo: HashSet<(u64, S::State)> = HashSet::new();
    let mut order = Vec::with_capacity(history.len());
    if dfs(
        spec,
        history,
        preds,
        full,
        spec.init(),
        &mut memo,
        &mut order,
    ) {
        Some(order)
    } else {
        None
    }
}

/// DFS: try every minimal remaining operation as the next linearized
/// one. `remaining` is a bitmask of un-linearized events.
fn dfs<S: Spec>(
    spec: &S,
    history: &[GenEvent<S>],
    preds: &[u64],
    remaining: u64,
    state: S::State,
    memo: &mut HashSet<(u64, S::State)>,
    order: &mut Vec<usize>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    if !memo.insert((remaining, state.clone())) {
        return false; // already explored this configuration: dead end
    }
    // The earliest response among remaining ops bounds which ops may be
    // linearized next: an op invoked after some other op responded
    // cannot precede it.
    let mut min_response = u64::MAX;
    let mut bits = remaining;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        min_response = min_response.min(history[i].response);
    }
    let mut bits = remaining;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let e = &history[i];
        if e.invoke > min_response {
            continue; // some remaining op responded before this began
        }
        if preds.get(i).is_some_and(|p| p & remaining != 0) {
            continue; // an op ordered before this one is still pending
        }
        let (expected, next) = spec.apply(&e.op, &state);
        if expected != e.ret {
            continue; // this op cannot be next: result contradicts model
        }
        order.push(i);
        if dfs(
            spec,
            history,
            preds,
            remaining & !(1u64 << i),
            next,
            memo,
            order,
        ) {
            return true;
        }
        order.pop();
    }
    false
}

/// The set ADT of the paper (§2): `insert`/`delete` report whether the
/// set changed, `search` reports membership. The abstract state is a
/// bitmask, so set histories must use keys `0..64`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SetSpec;

impl Spec for SetSpec {
    type Op = SetOp;
    type Ret = bool;
    type State = u64;

    fn init(&self) -> u64 {
        0
    }

    /// # Panics
    ///
    /// Panics if the key is 64 or more.
    fn apply(&self, op: &SetOp, state: &u64) -> (bool, u64) {
        assert!(op.key() < 64, "set histories use keys 0..64");
        let bit = 1u64 << op.key();
        match op {
            SetOp::Insert(_) => (state & bit == 0, state | bit),
            SetOp::Remove(_) => (state & bit != 0, state & !bit),
            SetOp::Contains(_) => (state & bit != 0, *state),
        }
    }
}

/// The map ADT of [`NmTreeMap`](https://docs.rs/nmbst): insert-once
/// semantics with observable values (`get`, `remove_get`). Values are
/// `u64` stamps — give each insert a distinct stamp and the checker can
/// detect value mix-ups, not just membership errors.
#[derive(Debug, Default, Clone)]
pub struct MapSpec;

/// A map operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// `insert(k, stamp)` — rejected if the key exists.
    Insert(u64, u64),
    /// `remove_get(k)`.
    Remove(u64),
    /// `remove(k)`, whose result does not carry the value (a batch
    /// remove's verdict).
    Delete(u64),
    /// `get(k)`.
    Get(u64),
}

/// A map operation's observed result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapRet {
    /// Result of `insert`.
    Inserted(bool),
    /// Result of `remove_get`: the removed stamp, if any.
    Removed(Option<u64>),
    /// Result of `remove`: whether the key was present.
    Deleted(bool),
    /// Result of `get`.
    Got(Option<u64>),
}

impl Spec for MapSpec {
    type Op = MapOp;
    type Ret = MapRet;
    // Sorted association list: cheap to hash, canonical by construction.
    type State = Vec<(u64, u64)>;

    fn init(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, op: &MapOp, state: &Self::State) -> (MapRet, Self::State) {
        match *op {
            MapOp::Insert(k, stamp) => match state.binary_search_by_key(&k, |e| e.0) {
                Ok(_) => (MapRet::Inserted(false), state.clone()),
                Err(pos) => {
                    let mut next = state.clone();
                    next.insert(pos, (k, stamp));
                    (MapRet::Inserted(true), next)
                }
            },
            MapOp::Remove(k) => match state.binary_search_by_key(&k, |e| e.0) {
                Ok(pos) => {
                    let mut next = state.clone();
                    let (_, stamp) = next.remove(pos);
                    (MapRet::Removed(Some(stamp)), next)
                }
                Err(_) => (MapRet::Removed(None), state.clone()),
            },
            MapOp::Delete(k) => match self.apply(&MapOp::Remove(k), state) {
                (MapRet::Removed(stamp), next) => (MapRet::Deleted(stamp.is_some()), next),
                _ => unreachable!("a remove answers Removed"),
            },
            MapOp::Get(k) => {
                let got = state
                    .binary_search_by_key(&k, |e| e.0)
                    .ok()
                    .map(|pos| state[pos].1);
                (MapRet::Got(got), state.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: MapOp, ret: MapRet, invoke: u64, response: u64) -> GenEvent<MapSpec> {
        GenEvent {
            op,
            ret,
            invoke,
            response,
        }
    }

    #[test]
    fn sequential_map_history_passes() {
        let h = vec![
            ev(MapOp::Insert(1, 100), MapRet::Inserted(true), 0, 1),
            ev(MapOp::Get(1), MapRet::Got(Some(100)), 2, 3),
            ev(MapOp::Insert(1, 200), MapRet::Inserted(false), 4, 5),
            ev(MapOp::Remove(1), MapRet::Removed(Some(100)), 6, 7),
            ev(MapOp::Get(1), MapRet::Got(None), 8, 9),
        ];
        assert!(check_history(&MapSpec, &h).is_some());
    }

    #[test]
    fn wrong_value_is_detected() {
        // The stamp returned by remove must be the one inserted.
        let h = vec![
            ev(MapOp::Insert(1, 100), MapRet::Inserted(true), 0, 1),
            ev(MapOp::Remove(1), MapRet::Removed(Some(999)), 2, 3),
        ];
        assert!(check_history(&MapSpec, &h).is_none());
    }

    #[test]
    fn overlapping_insert_and_get_either_value_state() {
        // get overlaps the insert: both None and Some(100) are legal...
        for got in [None, Some(100)] {
            let h = vec![
                ev(MapOp::Insert(1, 100), MapRet::Inserted(true), 0, 5),
                ev(MapOp::Get(1), MapRet::Got(got), 1, 4),
            ];
            assert!(check_history(&MapSpec, &h).is_some(), "got = {got:?}");
        }
        // ...but a *third* value never is.
        let h = vec![
            ev(MapOp::Insert(1, 100), MapRet::Inserted(true), 0, 5),
            ev(MapOp::Get(1), MapRet::Got(Some(42)), 1, 4),
        ];
        assert!(check_history(&MapSpec, &h).is_none());
    }

    #[test]
    fn double_remove_of_one_insert_fails() {
        let h = vec![
            ev(MapOp::Insert(1, 7), MapRet::Inserted(true), 0, 9),
            ev(MapOp::Remove(1), MapRet::Removed(Some(7)), 1, 8),
            ev(MapOp::Remove(1), MapRet::Removed(Some(7)), 2, 7),
        ];
        assert!(check_history(&MapSpec, &h).is_none());
    }

    #[test]
    fn witness_replays() {
        let h = vec![
            ev(MapOp::Insert(3, 1), MapRet::Inserted(true), 0, 10),
            ev(MapOp::Insert(4, 2), MapRet::Inserted(true), 0, 10),
            ev(MapOp::Remove(3), MapRet::Removed(Some(1)), 0, 10),
            ev(MapOp::Get(4), MapRet::Got(Some(2)), 0, 10),
        ];
        let order = check_history(&MapSpec, &h).expect("linearizable");
        let spec = MapSpec;
        let mut state = spec.init();
        for &i in &order {
            let (r, s) = spec.apply(&h[i].op, &state);
            assert_eq!(r, h[i].ret);
            state = s;
        }
    }

    #[test]
    fn empty_history() {
        assert_eq!(check_history(&MapSpec, &[]), Some(vec![]));
    }

    // The set ADT: every case of the former set-only checker, kept as a
    // `SetSpec` case of the one search.

    fn set_ev(op: SetOp, ret: bool, invoke: u64, response: u64) -> GenEvent<SetSpec> {
        GenEvent {
            op,
            ret,
            invoke,
            response,
        }
    }

    fn linearizable(h: &[GenEvent<SetSpec>]) -> bool {
        check_history(&SetSpec, h).is_some()
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(linearizable(&[]));
    }

    #[test]
    fn sequential_legal_history() {
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 1),
            set_ev(SetOp::Contains(1), true, 2, 3),
            set_ev(SetOp::Remove(1), true, 4, 5),
            set_ev(SetOp::Contains(1), false, 6, 7),
        ];
        assert!(linearizable(&h));
    }

    #[test]
    fn sequential_illegal_history() {
        // contains(1) = false after insert(1) = true completed: illegal.
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 1),
            set_ev(SetOp::Contains(1), false, 2, 3),
        ];
        assert!(!linearizable(&h));
    }

    #[test]
    fn overlap_allows_reordering() {
        // contains(1)=false overlaps insert(1)=true: legal, the search
        // can linearize before the insert.
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 3),
            set_ev(SetOp::Contains(1), false, 1, 2),
        ];
        assert!(linearizable(&h));
        // Ordering the insert first (as one batch's input order would)
        // leaves the search no legal place.
        assert!(check_history_ordered(&SetSpec, &h, &[0, 0b01]).is_none());
        assert_eq!(
            check_history_ordered(&SetSpec, &h, &[0b10]),
            Some(vec![1, 0])
        );
    }

    #[test]
    fn double_successful_insert_is_illegal() {
        // Two inserts of the same key both claim to have changed the
        // set, with no interleaved remove: impossible.
        let h = vec![
            set_ev(SetOp::Insert(4), true, 0, 5),
            set_ev(SetOp::Insert(4), true, 1, 4),
        ];
        assert!(!linearizable(&h));
    }

    #[test]
    fn insert_remove_race_both_succeed() {
        // insert(2)=true and remove(2)=true overlapping: legal
        // (linearize insert first).
        let h = vec![
            set_ev(SetOp::Insert(2), true, 0, 5),
            set_ev(SetOp::Remove(2), true, 1, 4),
        ];
        assert!(linearizable(&h));
    }

    #[test]
    fn remove_before_insert_non_overlapping_is_illegal() {
        // remove(2)=true completed before insert(2) even began, on an
        // initially empty set: illegal.
        let h = vec![
            set_ev(SetOp::Remove(2), true, 0, 1),
            set_ev(SetOp::Insert(2), true, 2, 3),
        ];
        assert!(!linearizable(&h));
    }

    #[test]
    fn real_time_order_is_respected() {
        // insert(7)=true completes, THEN contains(7)=false runs alone,
        // THEN remove(7)=true. The contains cannot be reordered around
        // the non-overlapping insert: illegal.
        let h = vec![
            set_ev(SetOp::Insert(7), true, 0, 1),
            set_ev(SetOp::Contains(7), false, 2, 3),
            set_ev(SetOp::Remove(7), true, 4, 5),
        ];
        assert!(!linearizable(&h));
    }

    #[test]
    fn three_way_overlap_with_one_witness() {
        // insert(1), remove(1), contains(1) all overlap. contains=true
        // forces an order insert < contains < remove (or contains after
        // insert at least): still linearizable.
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 10),
            set_ev(SetOp::Remove(1), true, 1, 9),
            set_ev(SetOp::Contains(1), true, 2, 8),
        ];
        assert!(linearizable(&h));
    }

    #[test]
    fn contradictory_witnesses_fail() {
        // Two sequential searches inside one insert/remove pair:
        // first sees present, second (later) sees present again AFTER a
        // non-overlapping successful remove completed: illegal.
        let h = vec![
            set_ev(SetOp::Insert(3), true, 0, 1),
            set_ev(SetOp::Remove(3), true, 2, 3),
            set_ev(SetOp::Contains(3), true, 4, 5),
        ];
        assert!(!linearizable(&h));
    }

    #[test]
    fn random_sequential_histories_always_pass() {
        // Any history generated by *running* ops sequentially against a
        // model is linearizable by construction.
        let mut state = 0u64;
        let mut clock = 0u64;
        let mut h = Vec::new();
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 8;
            let op = match x % 3 {
                0 => SetOp::Insert(k),
                1 => SetOp::Remove(k),
                _ => SetOp::Contains(k),
            };
            let (r, s) = SetSpec.apply(&op, &state);
            state = s;
            h.push(set_ev(op, r, clock, clock + 1));
            clock += 2;
        }
        assert!(linearizable(&h));
    }

    #[test]
    fn memo_handles_wide_overlap() {
        // 16 fully-overlapping inserts of distinct keys: hugely many
        // interleavings, all legal; must terminate fast thanks to memo.
        let h: Vec<_> = (0..16)
            .map(|i| set_ev(SetOp::Insert(i), true, 0, 100))
            .collect();
        assert!(linearizable(&h));
    }

    #[test]
    fn wide_overlap_with_single_flaw_fails() {
        let mut h: Vec<_> = (0..12)
            .map(|i| set_ev(SetOp::Insert(i), true, 0, 100))
            .collect();
        // A fully-overlapping failed insert of a key nobody else touches:
        // there is no state in which insert(40) returns false.
        h.push(set_ev(SetOp::Insert(40), false, 0, 100));
        assert!(!linearizable(&h));
    }

    #[test]
    fn witness_is_a_valid_linearization() {
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 9),
            set_ev(SetOp::Remove(1), true, 1, 8),
            set_ev(SetOp::Contains(1), true, 2, 7),
            set_ev(SetOp::Contains(1), false, 10, 11),
        ];
        let order = check_history(&SetSpec, &h).expect("linearizable");
        assert_eq!(order.len(), h.len());
        // Replay the witness: every result must match the model, and
        // real-time order must hold.
        let mut state = 0u64;
        let mut done: Vec<usize> = Vec::new();
        for &i in &order {
            for &j in &done {
                assert!(
                    h[j].invoke < h[i].response,
                    "witness violates real time: {j} before {i}"
                );
            }
            let (r, s) = SetSpec.apply(&h[i].op, &state);
            assert_eq!(r, h[i].ret, "witness result mismatch at {i}");
            state = s;
            done.push(i);
        }
    }

    #[test]
    fn witness_absent_for_violation() {
        let h = vec![
            set_ev(SetOp::Insert(1), true, 0, 1),
            set_ev(SetOp::Contains(1), false, 2, 3),
        ];
        assert!(check_history(&SetSpec, &h).is_none());
    }

    #[test]
    #[should_panic(expected = "keys 0..64")]
    fn rejects_large_keys() {
        let h = vec![set_ev(SetOp::Insert(64), true, 0, 1)];
        let _ = check_history(&SetSpec, &h);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn rejects_malformed_interval() {
        let h = vec![set_ev(SetOp::Insert(1), true, 5, 5)];
        let _ = check_history(&SetSpec, &h);
    }
}
