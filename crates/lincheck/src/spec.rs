//! Generic linearizability checking against any sequential
//! specification.
//!
//! [`check_linearizable`](crate::check_linearizable) is the fast,
//! bitmask-memoized checker for the set ADT. This module provides the
//! same Wing & Gong search for *arbitrary* ADTs: implement [`Spec`]
//! (a deterministic sequential model) and record [`GenEvent`]s.

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
#[derive(Debug, Clone)]
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

/// Checks a complete history against `spec`; on success returns a
/// witness linearization (indices into `history`).
///
/// Histories are limited to 64 events (a bitmask tracks the remaining
/// set); keep recorded windows small and check many of them.
pub fn check_history<S: Spec>(spec: &S, history: &[GenEvent<S>]) -> Option<Vec<usize>> {
    check_history_ordered(spec, history, &[])
}

/// [`check_history`] under extra order constraints, as in
/// [`linearization_witness_ordered`](crate::linearization_witness_ordered):
/// bit `j` of `preds[i]` says event `j` must be linearized before
/// event `i`.
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
        return false;
    }
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
            continue;
        }
        if preds.get(i).is_some_and(|p| p & remaining != 0) {
            continue;
        }
        let (expected, next) = spec.apply(&e.op, &state);
        if expected != e.ret {
            continue;
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
}
