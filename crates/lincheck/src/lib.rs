//! Linearizability checking for concurrent histories.
//!
//! The paper argues linearizability by identifying linearization points
//! (§3.3); this crate checks it *mechanically* on recorded executions: a
//! Wing & Gong-style exhaustive search over the partial order of a
//! concurrent history, memoized on (remaining-operations, abstract-state)
//! pairs, against any sequential specification ([`Spec`]). Two ship
//! here: [`SetSpec`], the paper's set ADT, and [`MapSpec`], the map ADT
//! with observable values.
//!
//! [`SetSpec`]'s abstract state is a bitmask, so checked set histories
//! must use keys `0..64` — ideal anyway, since linearizability
//! violations reproduce best under maximal contention on tiny key
//! spaces.
//!
//! ```
//! use nmbst_lincheck::{check_history, GenEvent, SetOp, SetSpec};
//!
//! // Two sequential ops: insert(3)=true then contains(3)=true. Legal.
//! let h: Vec<GenEvent<SetSpec>> = vec![
//!     GenEvent { op: SetOp::Insert(3), ret: true, invoke: 0, response: 1 },
//!     GenEvent { op: SetOp::Contains(3), ret: true, invoke: 2, response: 3 },
//! ];
//! assert!(check_history(&SetSpec, &h).is_some());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(feature = "explore")]
pub mod explore;
mod recorder;
pub mod spec;

pub use recorder::Recorder;
pub use spec::{
    check_history, check_history_ordered, GenEvent, MapOp, MapRet, MapSpec, SetSpec, Spec,
};

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_insert_remove_contains() {
        let (r, s) = SetSpec.apply(&SetOp::Insert(3), &0);
        assert!(r);
        assert_eq!(s, 0b1000);
        let (r, s2) = SetSpec.apply(&SetOp::Insert(3), &s);
        assert!(!r);
        assert_eq!(s2, s);
        let (r, _) = SetSpec.apply(&SetOp::Contains(3), &s);
        assert!(r);
        let (r, s3) = SetSpec.apply(&SetOp::Remove(3), &s);
        assert!(r);
        assert_eq!(s3, 0);
        let (r, _) = SetSpec.apply(&SetOp::Remove(3), &0);
        assert!(!r);
    }

    #[test]
    fn key_accessor() {
        assert_eq!(SetOp::Insert(9).key(), 9);
        assert_eq!(SetOp::Remove(1).key(), 1);
        assert_eq!(SetOp::Contains(0).key(), 0);
    }
}
