//! Recording concurrent histories with a global logical clock.

use crate::spec::{GenEvent, Spec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stamps operations with invocation/response timestamps from a shared
/// logical clock.
///
/// Each worker thread keeps its own `Vec<GenEvent<S>>`; merge them
/// afterwards and feed the result to
/// [`check_history`](crate::check_history).
///
/// # Examples
///
/// ```
/// use nmbst_lincheck::{check_history, Recorder, SetOp, SetSpec};
/// use std::collections::BTreeSet;
/// use std::sync::Mutex;
///
/// let set = Mutex::new(BTreeSet::new());
/// let rec = Recorder::new();
/// let events = vec![
///     rec.measure::<SetSpec>(SetOp::Insert(5), || set.lock().unwrap().insert(5)),
///     rec.measure::<SetSpec>(SetOp::Contains(5), || set.lock().unwrap().contains(&5)),
/// ];
/// assert!(check_history(&SetSpec, &events).is_some());
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
}

impl Recorder {
    /// Creates a recorder with the clock at zero.
    pub fn new() -> Self {
        Recorder {
            clock: AtomicU64::new(0),
        }
    }

    /// Runs `action` (the real operation on the structure under test)
    /// bracketed by clock ticks, producing the stamped event.
    ///
    /// The timestamps deliberately bracket the *entire* operation: any
    /// linearization point the implementation chooses lies inside the
    /// recorded interval, so a history the checker rejects is a genuine
    /// linearizability violation.
    pub fn measure<S: Spec>(&self, op: S::Op, action: impl FnOnce() -> S::Ret) -> GenEvent<S> {
        let invoke = self.clock.fetch_add(1, Ordering::AcqRel);
        let ret = action();
        let response = self.clock.fetch_add(1, Ordering::AcqRel);
        GenEvent {
            op,
            ret,
            invoke,
            response,
        }
    }

    /// Runs `action`, one multi-op call (a batch), bracketed by clock
    /// ticks: `action` pushes one result per op of `ops`, and each op
    /// becomes an event spanning the whole call — any linearization
    /// point inside the call is admissible for any of them.
    pub fn measure_all<S: Spec>(
        &self,
        ops: &[S::Op],
        action: impl FnOnce(&mut Vec<S::Ret>),
    ) -> Vec<GenEvent<S>> {
        let invoke = self.clock.fetch_add(1, Ordering::AcqRel);
        let mut results = Vec::with_capacity(ops.len());
        action(&mut results);
        let response = self.clock.fetch_add(1, Ordering::AcqRel);
        assert_eq!(results.len(), ops.len(), "one result per op");
        ops.iter()
            .zip(results)
            .map(|(op, ret)| GenEvent {
                op: op.clone(),
                ret,
                invoke,
                response,
            })
            .collect()
    }

    /// Current clock value (diagnostics).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_history, SetOp, SetSpec};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn timestamps_are_strictly_bracketing() {
        let rec = Recorder::new();
        let e1 = rec.measure::<SetSpec>(SetOp::Insert(1), || true);
        let e2 = rec.measure::<SetSpec>(SetOp::Remove(1), || true);
        assert!(e1.invoke < e1.response);
        assert!(e1.response < e2.invoke);
        assert_eq!(rec.now(), 4);
    }

    #[test]
    fn concurrent_recording_against_locked_model_is_linearizable() {
        // A mutex-protected BTreeSet is trivially linearizable; the
        // recorded history must always pass. This validates recorder +
        // checker end-to-end.
        for trial in 0..20 {
            let set = Mutex::new(BTreeSet::new());
            let rec = Recorder::new();
            let all = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for t in 0..3u64 {
                    let set = &set;
                    let rec = &rec;
                    let all = &all;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        let mut x = (trial + 1) * 1000 + t + 1;
                        for _ in 0..6 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let k = x % 4;
                            let op = match x % 3 {
                                0 => SetOp::Insert(k),
                                1 => SetOp::Remove(k),
                                _ => SetOp::Contains(k),
                            };
                            local.push(rec.measure::<SetSpec>(op, || {
                                let mut g = set.lock().unwrap();
                                match op {
                                    SetOp::Insert(k) => g.insert(k),
                                    SetOp::Remove(k) => g.remove(&k),
                                    SetOp::Contains(k) => g.contains(&k),
                                }
                            }));
                        }
                        all.lock().unwrap().extend(local);
                    });
                }
            });
            let events = all.into_inner().unwrap();
            assert!(
                check_history(&SetSpec, &events).is_some(),
                "trial {trial} not linearizable"
            );
        }
    }

    #[test]
    fn measure_records_map_events() {
        use crate::{MapOp, MapRet, MapSpec};
        use std::collections::BTreeMap;
        let rec = Recorder::new();
        let map = Mutex::new(BTreeMap::new());
        let h = vec![
            rec.measure::<MapSpec>(MapOp::Insert(1, 10), || {
                let mut g = map.lock().unwrap();
                MapRet::Inserted(g.insert(1, 10).is_none())
            }),
            rec.measure::<MapSpec>(MapOp::Remove(1), || {
                MapRet::Removed(map.lock().unwrap().remove(&1))
            }),
        ];
        assert!(check_history(&MapSpec, &h).is_some());
    }

    #[test]
    fn recorder_catches_a_broken_structure() {
        // A "set" that always claims success is not linearizable once
        // two non-overlapping inserts of the same key both return true.
        let rec = Recorder::new();
        let e1 = rec.measure::<SetSpec>(SetOp::Insert(9), || true);
        let e2 = rec.measure::<SetSpec>(SetOp::Insert(9), || true);
        assert!(check_history(&SetSpec, &[e1, e2]).is_none());
    }
}
