//! The Wing & Gong exhaustive linearizability checker, with the
//! remaining-set × abstract-state memoization of Lowe's refinement.

use crate::Event;
use std::collections::HashSet;

/// Decides whether a complete history of set operations is
/// linearizable: is there a total order of the operations, consistent
/// with real-time (an op that responded before another was invoked must
/// come first), in which every result matches the sequential set
/// semantics?
///
/// Complexity is exponential in the worst case; the memo on
/// `(remaining-ops bitmask, abstract set bitmask)` makes histories of a
/// few dozen events over keys `0..64` check in microseconds to
/// milliseconds.
///
/// # Panics
///
/// Panics if the history has more than 64 events or touches keys ≥ 64
/// (recording should be sized accordingly).
pub fn check_linearizable(history: &[Event]) -> bool {
    linearization_witness(history).is_some()
}

/// Like [`check_linearizable`], but on success returns a *witness*: the
/// indices of `history` in one legal linearization order. Invaluable
/// when debugging a reported violation — rerun with the suspect event
/// removed to see which constraint broke.
///
/// Same preconditions as [`check_linearizable`].
pub fn linearization_witness(history: &[Event]) -> Option<Vec<usize>> {
    linearization_witness_ordered(history, &[])
}

/// [`linearization_witness`] under extra order constraints: bit `j` of
/// `preds[i]` says event `j` must be linearized before event `i`, an
/// order real time does not imply — the same-key commands of one batch,
/// whose contract is input order, share one interval. `preds` may be
/// shorter than `history` (missing entries constrain nothing).
pub fn linearization_witness_ordered(history: &[Event], preds: &[u64]) -> Option<Vec<usize>> {
    assert!(
        history.len() <= 64,
        "checker handles at most 64 events per history"
    );
    for e in history {
        assert!(e.op.key() < 64, "checker handles keys 0..64");
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
    let mut memo: HashSet<(u64, u64)> = HashSet::new();
    let mut order = Vec::with_capacity(history.len());
    if search(history, preds, full, 0, &mut memo, &mut order) {
        Some(order)
    } else {
        None
    }
}

/// DFS: try every minimal remaining operation as the next linearized
/// one. `remaining` is a bitmask of un-linearized events; `state` the
/// abstract set contents.
fn search(
    history: &[Event],
    preds: &[u64],
    remaining: u64,
    state: u64,
    memo: &mut HashSet<(u64, u64)>,
    order: &mut Vec<usize>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    if !memo.insert((remaining, state)) {
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
        let (expected, next_state) = e.op.apply(state);
        if expected != e.result {
            continue; // this op cannot be next: result contradicts model
        }
        order.push(i);
        if search(
            history,
            preds,
            remaining & !(1u64 << i),
            next_state,
            memo,
            order,
        ) {
            return true;
        }
        order.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetOp;

    fn ev(op: SetOp, result: bool, invoke: u64, response: u64) -> Event {
        Event {
            op,
            result,
            invoke,
            response,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(&[]));
    }

    #[test]
    fn sequential_legal_history() {
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 1),
            ev(SetOp::Contains(1), true, 2, 3),
            ev(SetOp::Remove(1), true, 4, 5),
            ev(SetOp::Contains(1), false, 6, 7),
        ];
        assert!(check_linearizable(&h));
    }

    #[test]
    fn sequential_illegal_history() {
        // contains(1) = false after insert(1) = true completed: illegal.
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 1),
            ev(SetOp::Contains(1), false, 2, 3),
        ];
        assert!(!check_linearizable(&h));
    }

    #[test]
    fn overlap_allows_reordering() {
        // contains(1)=false overlaps insert(1)=true: legal, the search
        // can linearize before the insert.
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 3),
            ev(SetOp::Contains(1), false, 1, 2),
        ];
        assert!(check_linearizable(&h));
        // Ordering the insert first (as one batch's input order would)
        // leaves the search no legal place.
        assert!(linearization_witness_ordered(&h, &[0, 0b01]).is_none());
        assert_eq!(linearization_witness_ordered(&h, &[0b10]), Some(vec![1, 0]));
    }

    #[test]
    fn double_successful_insert_is_illegal() {
        // Two inserts of the same key both claim to have changed the
        // set, with no interleaved remove: impossible.
        let h = vec![
            ev(SetOp::Insert(4), true, 0, 5),
            ev(SetOp::Insert(4), true, 1, 4),
        ];
        assert!(!check_linearizable(&h));
    }

    #[test]
    fn insert_remove_race_both_succeed() {
        // insert(2)=true and remove(2)=true overlapping: legal
        // (linearize insert first).
        let h = vec![
            ev(SetOp::Insert(2), true, 0, 5),
            ev(SetOp::Remove(2), true, 1, 4),
        ];
        assert!(check_linearizable(&h));
    }

    #[test]
    fn remove_before_insert_non_overlapping_is_illegal() {
        // remove(2)=true completed before insert(2) even began, on an
        // initially empty set: illegal.
        let h = vec![
            ev(SetOp::Remove(2), true, 0, 1),
            ev(SetOp::Insert(2), true, 2, 3),
        ];
        assert!(!check_linearizable(&h));
    }

    #[test]
    fn real_time_order_is_respected() {
        // insert(7)=true completes, THEN contains(7)=false runs alone,
        // THEN remove(7)=true. The contains cannot be reordered around
        // the non-overlapping insert: illegal.
        let h = vec![
            ev(SetOp::Insert(7), true, 0, 1),
            ev(SetOp::Contains(7), false, 2, 3),
            ev(SetOp::Remove(7), true, 4, 5),
        ];
        assert!(!check_linearizable(&h));
    }

    #[test]
    fn three_way_overlap_with_one_witness() {
        // insert(1), remove(1), contains(1) all overlap. contains=true
        // forces an order insert < contains < remove (or contains after
        // insert at least): still linearizable.
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 10),
            ev(SetOp::Remove(1), true, 1, 9),
            ev(SetOp::Contains(1), true, 2, 8),
        ];
        assert!(check_linearizable(&h));
    }

    #[test]
    fn contradictory_witnesses_fail() {
        // Two sequential searches inside one insert/remove pair:
        // first sees present, second (later) sees present again AFTER a
        // non-overlapping successful remove completed: illegal.
        let h = vec![
            ev(SetOp::Insert(3), true, 0, 1),
            ev(SetOp::Remove(3), true, 2, 3),
            ev(SetOp::Contains(3), true, 4, 5),
        ];
        assert!(!check_linearizable(&h));
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
            let (r, s) = op.apply(state);
            state = s;
            h.push(ev(op, r, clock, clock + 1));
            clock += 2;
        }
        assert!(check_linearizable(&h));
    }

    #[test]
    fn memo_handles_wide_overlap() {
        // 16 fully-overlapping inserts of distinct keys: hugely many
        // interleavings, all legal; must terminate fast thanks to memo.
        let h: Vec<Event> = (0..16)
            .map(|i| ev(SetOp::Insert(i), true, 0, 100))
            .collect();
        assert!(check_linearizable(&h));
    }

    #[test]
    fn wide_overlap_with_single_flaw_fails() {
        let mut h: Vec<Event> = (0..12)
            .map(|i| ev(SetOp::Insert(i), true, 0, 100))
            .collect();
        // A fully-overlapping failed insert of a key nobody else touches:
        // there is no state in which insert(40) returns false.
        h.push(ev(SetOp::Insert(40), false, 0, 100));
        assert!(!check_linearizable(&h));
    }

    #[test]
    fn witness_is_a_valid_linearization() {
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 9),
            ev(SetOp::Remove(1), true, 1, 8),
            ev(SetOp::Contains(1), true, 2, 7),
            ev(SetOp::Contains(1), false, 10, 11),
        ];
        let order = super::linearization_witness(&h).expect("linearizable");
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
            let (r, s) = h[i].op.apply(state);
            assert_eq!(r, h[i].result, "witness result mismatch at {i}");
            state = s;
            done.push(i);
        }
    }

    #[test]
    fn witness_absent_for_violation() {
        let h = vec![
            ev(SetOp::Insert(1), true, 0, 1),
            ev(SetOp::Contains(1), false, 2, 3),
        ];
        assert!(super::linearization_witness(&h).is_none());
    }

    #[test]
    #[should_panic(expected = "keys 0..64")]
    fn rejects_large_keys() {
        let h = vec![ev(SetOp::Insert(64), true, 0, 1)];
        let _ = check_linearizable(&h);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn rejects_malformed_interval() {
        let h = vec![ev(SetOp::Insert(1), true, 5, 5)];
        let _ = check_linearizable(&h);
    }
}
