//! Linearizability checking for set histories.
//!
//! The paper argues linearizability by identifying linearization points
//! (§3.3); this crate checks it *mechanically* on recorded executions: a
//! Wing & Gong-style exhaustive search over the partial order of a
//! concurrent history, memoized on (remaining-operations, abstract-set)
//! state.
//!
//! The abstract state is a bitmask, so checked histories must use keys
//! `0..64` — ideal anyway, since linearizability violations reproduce
//! best under maximal contention on tiny key spaces.
//!
//! ```
//! use nmbst_lincheck::{check_linearizable, Event, SetOp};
//!
//! // Two sequential ops: insert(3)=true then contains(3)=true. Legal.
//! let h = vec![
//!     Event { op: SetOp::Insert(3), result: true, invoke: 0, response: 1 },
//!     Event { op: SetOp::Contains(3), result: true, invoke: 2, response: 3 },
//! ];
//! assert!(check_linearizable(&h));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod checker;
#[cfg(feature = "explore")]
pub mod explore;
mod recorder;
pub mod spec;

pub use checker::{check_linearizable, linearization_witness, linearization_witness_ordered};
pub use recorder::Recorder;
pub use spec::{check_history, check_history_ordered, GenEvent, MapOp, MapRet, MapSpec, Spec};

/// A set operation (the paper's dictionary ADT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    /// `insert(k)` — returns whether the set changed.
    Insert(u64),
    /// `delete(k)` — returns whether the set changed.
    Remove(u64),
    /// `search(k)` — returns membership.
    Contains(u64),
}

impl SetOp {
    /// The key the operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            SetOp::Insert(k) | SetOp::Remove(k) | SetOp::Contains(k) => k,
        }
    }

    /// Applies the operation to an abstract set (bitmask over keys
    /// `0..64`); returns `(result, new_state)`.
    pub fn apply(&self, state: u64) -> (bool, u64) {
        match *self {
            SetOp::Insert(k) => {
                let bit = 1u64 << k;
                (state & bit == 0, state | bit)
            }
            SetOp::Remove(k) => {
                let bit = 1u64 << k;
                (state & bit != 0, state & !bit)
            }
            SetOp::Contains(k) => (state & (1u64 << k) != 0, state),
        }
    }
}

/// One completed operation in a recorded history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What was invoked.
    pub op: SetOp,
    /// What it returned.
    pub result: bool,
    /// Logical timestamp at invocation.
    pub invoke: u64,
    /// Logical timestamp at response (must exceed `invoke`).
    pub response: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_insert_remove_contains() {
        let (r, s) = SetOp::Insert(3).apply(0);
        assert!(r);
        assert_eq!(s, 0b1000);
        let (r, s2) = SetOp::Insert(3).apply(s);
        assert!(!r);
        assert_eq!(s2, s);
        let (r, _) = SetOp::Contains(3).apply(s);
        assert!(r);
        let (r, s3) = SetOp::Remove(3).apply(s);
        assert!(r);
        assert_eq!(s3, 0);
        let (r, _) = SetOp::Remove(3).apply(0);
        assert!(!r);
    }

    #[test]
    fn key_accessor() {
        assert_eq!(SetOp::Insert(9).key(), 9);
        assert_eq!(SetOp::Remove(1).key(), 1);
        assert_eq!(SetOp::Contains(0).key(), 0);
    }
}
