//! Mechanical linearizability checking of every concurrent tree in the
//! workspace, using the `nmbst-lincheck` history checker.
//!
//! §3.3 argues linearizability by exhibiting linearization points; here
//! we *check* it: small key spaces, few threads, short op sequences —
//! maximal contention with exhaustively checkable histories — across
//! many trials.

use nmbst::{NmTreeMap, TreeConfig};
use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree};
use nmbst_lincheck::{check_linearizable, Event, Recorder, SetOp};
use nmbst_reclaim::{Ebr, Leaky, Reclaim};
use std::sync::Mutex;

const THREADS: u64 = 3;
const OPS_PER_THREAD: u64 = 7;
const KEY_SPACE: u64 = 4; // keys 1..=4: tiny space, constant conflicts
const TRIALS: u64 = 150;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs one contended trial against `ops` and returns the history.
fn run_trial(trial: u64, apply: impl Fn(&SetOp) -> bool + Sync) -> Vec<Event> {
    let rec = Recorder::new();
    let all: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = &rec;
            let all = &all;
            let apply = &apply;
            s.spawn(move || {
                let mut rng = trial * 1_000_003 + t * 7919 + 1;
                let mut local = Vec::new();
                for _ in 0..OPS_PER_THREAD {
                    let r = xorshift(&mut rng);
                    let key = r % KEY_SPACE + 1;
                    let op = match r % 3 {
                        0 => SetOp::Insert(key),
                        1 => SetOp::Remove(key),
                        _ => SetOp::Contains(key),
                    };
                    local.push(rec.measure(op, || apply(&op)));
                }
                all.lock().unwrap().extend(local);
            });
        }
    });
    all.into_inner().unwrap()
}

fn check_many<F, S>(make: F, name: &str)
where
    F: Fn() -> S,
    S: Sync,
    for<'a> &'a S: ApplyOp,
{
    for trial in 0..TRIALS {
        let set = make();
        let history = run_trial(trial, |op| (&set).apply_op(op));
        assert!(
            check_linearizable(&history),
            "{name}: trial {trial} produced a non-linearizable history:\n{history:#?}"
        );
    }
}

/// Adapter so the same driver runs every implementation.
trait ApplyOp {
    fn apply_op(&self, op: &SetOp) -> bool;
}

macro_rules! impl_apply {
    ($ty:ty) => {
        impl ApplyOp for &$ty {
            fn apply_op(&self, op: &SetOp) -> bool {
                match *op {
                    SetOp::Insert(k) => self.insert(k),
                    SetOp::Remove(k) => self.remove(&k),
                    SetOp::Contains(k) => self.contains(&k),
                }
            }
        }
    };
}

impl<R: Reclaim> ApplyOp for &NmTreeMap<u64, (), R> {
    fn apply_op(&self, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.insert(k, ()),
            SetOp::Remove(k) => self.remove(&k),
            SetOp::Contains(k) => self.contains(&k),
        }
    }
}

impl_apply!(EfrbTree);
impl_apply!(HjTree);
impl_apply!(BccoTree);

#[test]
fn nm_bst_leaky_is_linearizable() {
    check_many(NmTreeMap::<u64, (), Leaky>::new, "NM-BST (leaky)");
}

#[test]
fn nm_bst_ebr_is_linearizable() {
    check_many(NmTreeMap::<u64, (), Ebr>::new, "NM-BST (ebr)");
}

#[test]
fn nm_bst_cas_only_is_linearizable() {
    check_many(
        || {
            let config = TreeConfig::default().with_tag_mode(nmbst::TagMode::CasLoop);
            NmTreeMap::<u64, (), Ebr>::with_config(config)
        },
        "NM-BST (cas-only)",
    );
}

#[test]
fn efrb_is_linearizable() {
    check_many(EfrbTree::new, "EFRB-BST");
}

#[test]
fn hj_is_linearizable() {
    check_many(HjTree::new, "HJ-BST");
}

#[test]
fn bcco_is_linearizable() {
    check_many(BccoTree::new, "BCCO-BST");
}

#[test]
fn checker_rejects_a_seeded_violation() {
    // Sanity check that this test setup has teeth: corrupt one result in
    // an otherwise legal sequential history and expect rejection.
    let rec = Recorder::new();
    let set = NmTreeMap::<u64, (), Ebr>::new();
    let mut history = vec![
        rec.measure(SetOp::Insert(1), || set.insert(1, ())),
        rec.measure(SetOp::Contains(1), || set.contains(&1)),
    ];
    // Flip the contains result.
    let last = history.last_mut().unwrap();
    last.result = !last.result;
    assert!(!check_linearizable(&history));
}
