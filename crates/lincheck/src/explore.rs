//! Seeded schedule exploration (`feature = "explore"`).
//!
//! Drives a real tree — compiled with its `chaos` feature, the one
//! shard of a [`ShardedMap`] so batches can also run through
//! `execute_batch` — through *deterministic* thread interleavings:
//! worker threads hand a single run token around at every chaos
//! injection point (each atomic step of the helping protocol) and at
//! every operation boundary, and a seeded SplitMix64 stream picks who
//! runs next. Exactly one thread
//! makes progress at any instant, so a seed fully determines the
//! interleaving, the recorded history, and the final tree — a failing
//! seed replays forever.
//!
//! Each run is validated three ways:
//!
//! 1. the recorded concurrent history must be linearizable
//!    ([`linearization_witness_ordered`]; a batch's same-key commands
//!    must also linearize in input order),
//! 2. a sequential probe of every key is appended *after* the workers
//!    join, so the final physical contents must be consistent with some
//!    linearization (lost or resurrected keys cannot hide), and
//! 3. [`ShardedMap::check_invariants`] must accept the final tree.
//!
//! The explorer exists to make helping-protocol regressions loud. The
//! acceptance test reintroduces a known bug — dropping the flag copy on
//! the splice (Algorithm 4, lines 107–108) via
//! [`chaos::Bug::DropFlagOnSplice`] — and demonstrates the explorer
//! finds a violating schedule within a bounded seed budget.

use crate::{linearization_witness_ordered, Event, Recorder, SetOp};
use nmbst::chaos::{self, Action};
use nmbst::obs::{FlightRecorder, TraceEvent};
use nmbst::{
    BatchCmd, BatchScratch, BatchVerdict, Ebr, Leaky, MapHandle, NmTreeMap, Reclaim, RestartPolicy,
    ShardedMap, ShardedMapHandle, TreeConfig,
};
use nmbst_sync::Backoff;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// SplitMix64 (Steele et al.): tiny, full-period, well-mixed.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Bounds on the scenarios a seed expands to.
///
/// Defaults follow the sweet spot for linearizability hunting: tiny key
/// spaces and a handful of threads, so operations collide constantly and
/// the checker stays fast.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Fewest worker threads per scenario (≥ 2).
    pub min_threads: usize,
    /// Most worker threads per scenario.
    pub max_threads: usize,
    /// Smallest key-space size.
    pub min_keys: u64,
    /// Largest key-space size (keys are `0..keys`; must stay < 64 for
    /// the checker's bitmask state).
    pub max_keys: u64,
    /// Most operations per worker thread.
    pub max_ops_per_thread: usize,
    /// Re-introduce [`chaos::Bug::DropFlagOnSplice`] on every worker
    /// thread — used by tests proving the explorer catches the bug
    /// class. Never enable outside tests.
    pub inject_drop_flag_bug: bool,
    /// Retry-descent policy of the tree under test. The default
    /// ([`RestartPolicy::Local`]) exercises the local-restart seek; set
    /// [`RestartPolicy::Root`] to sweep the paper's root-restart retry
    /// loops with the same seeds.
    pub restart: RestartPolicy,
    /// Which reclamation scheme backs the tree under test. The tree
    /// always recycles its nodes, as it does in production, but only a
    /// scheme that runs deferrals returns retired ones: under
    /// [`ReclaimKind::Ebr`] schedules interleave through the retire →
    /// recycle → realloc path (the [`chaos::Point::Recycle`] injection
    /// point becomes a schedule point); under [`ReclaimKind::Leaky`] the
    /// free lists only ever carry discarded insert scratch.
    pub reclaim: ReclaimKind,
    /// Drive every worker through the finger-anchored batch API instead
    /// of the plain one: each tape op becomes a size-1
    /// `insert_batch`/`remove_batch`/`get_batch` on a persistent
    /// [`MapHandle`]. Schedules then also interleave through
    /// [`chaos::Point::BatchFinger`] and the `seek_from` anchor
    /// revalidation, sweeping the finger path under the same seeds. Off
    /// by default to keep the historical seed corpus stable.
    pub batch: bool,
    /// Race `execute_batch` against point ops: even-numbered workers run
    /// their tape as batches of up to [`FUSED_BATCH`] commands through
    /// a persistent [`ShardedMapHandle`], odd-numbered ones as plain
    /// point ops on the same shard. A batch's Phase-1 descents run
    /// between two schedule points, and every Phase-2 write crosses
    /// [`chaos::Point::BatchStale`], so point writes land between a
    /// batch's seeks and its CASes and stale records are the common
    /// case. Each command of a batch is recorded as one event spanning
    /// the whole call, and the check orders a batch's same-key commands
    /// as input order does. Takes precedence over `batch`.
    pub fused: bool,
    /// Fat-leaf block capacity of the tree under test (clamped by the
    /// tree to `1..=LEAF_CAP`). Defaults to **1** — the paper's 1-key
    /// leaf shape — which keeps the historical seed corpus meaningful:
    /// at capacity 1 every remove is a structural flag/tag/splice, so
    /// the [`chaos::Bug::DropFlagOnSplice`] canary still fires. Sweep
    /// `{2, 8}` to drive the copy-on-write block publish paths instead
    /// (COW inserts/removes and block splits become the common case).
    pub leaf_cap: usize,
}

/// The reclamation scheme a seeded run instantiates the tree with.
///
/// Determinism holds for both: the token-passing scheduler serializes
/// the threads, so EBR's epoch advancement, bag sealing, and deferral
/// execution are pure functions of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReclaimKind {
    /// Paper-faithful leaking mode (the historical explorer default).
    #[default]
    Leaky,
    /// Epoch-based reclamation: retired nodes really traverse the grace
    /// period and come back through fresh inserts.
    Ebr,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            min_threads: 2,
            max_threads: 4,
            min_keys: 4,
            max_keys: 16,
            max_ops_per_thread: 5,
            inject_drop_flag_bug: false,
            restart: RestartPolicy::default(),
            reclaim: ReclaimKind::default(),
            batch: false,
            fused: false,
            leaf_cap: 1,
        }
    }
}

/// Everything one seeded run did — enough to compare two runs for
/// determinism or to debug a violation by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The seed the scenario and schedule were derived from.
    pub seed: u64,
    /// Worker threads in the scenario.
    pub threads: usize,
    /// Key-space size (operations draw keys from `0..keys`).
    pub keys: u64,
    /// The scheduler's pick sequence: which thread received the token,
    /// in order.
    pub schedule: Vec<usize>,
    /// The recorded history: seeded prepopulation, concurrent phase,
    /// then the sequential probe of every key.
    pub history: Vec<Event>,
    /// The merged flight-recorder trace of the run: every structural
    /// event (flag injections, tags, splices, helps, …) each thread
    /// executed, in global sequence order. Workers record under their
    /// thread id; the driver's sequential prepopulation and probe phases
    /// record under label `threads`. Deterministic per seed: the
    /// cooperative scheduler serializes the threads, so the same seed
    /// yields a byte-identical rendered trace.
    pub trace: Vec<TraceEvent>,
}

/// A schedule on which the structure misbehaved.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What check failed.
    pub reason: String,
    /// The full run, replayable via [`explore_seed`] with the same
    /// config and [`RunReport::seed`].
    pub report: RunReport,
}

impl Violation {
    /// The violation rendered as a postmortem artifact: the scenario,
    /// the failed check, and the merged flight-recorder trace in
    /// sequence order — the interleaving that broke the structure,
    /// readable without re-running the explorer. Byte-identical for the
    /// same config and seed.
    pub fn postmortem(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "nmbst explorer postmortem");
        let _ = writeln!(out, "seed: {:#x}", self.report.seed);
        let _ = writeln!(
            out,
            "scenario: {} worker threads, keys 0..{}",
            self.report.threads, self.report.keys
        );
        let _ = writeln!(out, "failed check: {}", self.reason);
        let _ = writeln!(
            out,
            "trace ({} structural events; t{} is the sequential driver):",
            self.report.trace.len(),
            self.report.threads
        );
        for event in &self.report.trace {
            let _ = writeln!(out, "{event}");
        }
        out
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#x} ({} threads, {} keys, {} events): {}",
            self.report.seed,
            self.report.threads,
            self.report.keys,
            self.report.history.len(),
            self.reason
        )
    }
}

/// Aggregate result of a seed sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules run.
    pub schedules: usize,
    /// History events checked across all schedules.
    pub events: usize,
}

/// The cooperative scheduler: a single run token handed around at every
/// chaos point and operation boundary, next holder chosen by the seeded
/// stream. All workers park on a condvar; the pick among *parked, live*
/// threads is a pure function of the schedule so far, which makes the
/// whole run deterministic.
struct Scheduler {
    n: usize,
    /// Mirror of the current turn for the spin phase (`usize::MAX` =
    /// no one); the mutex-guarded `turn` stays authoritative.
    turn_hint: AtomicUsize,
    state: Mutex<SchedState>,
    cv: Condvar,
}

struct SchedState {
    turn: Option<usize>,
    parked: Vec<bool>,
    done: Vec<bool>,
    registered: usize,
    rng: Rng,
    schedule: Vec<usize>,
}

impl Scheduler {
    fn new(n: usize, seed: u64) -> Arc<Self> {
        Arc::new(Scheduler {
            n,
            turn_hint: AtomicUsize::new(usize::MAX),
            state: Mutex::new(SchedState {
                turn: None,
                parked: vec![false; n],
                done: vec![false; n],
                registered: 0,
                rng: Rng(seed),
                schedule: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Worker `tid` registers and blocks until its first turn. The first
    /// pick happens only once all workers are parked, so OS spawn order
    /// cannot leak into the schedule.
    fn start(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        st.parked[tid] = true;
        st.registered += 1;
        if st.registered == self.n {
            self.pick(&mut st);
            self.cv.notify_all();
        }
        self.wait_for_turn(st, tid);
    }

    /// The running worker yields the token and blocks until it gets it
    /// back (possibly immediately, if it is the only live thread).
    fn gate(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        st.parked[tid] = true;
        self.pick(&mut st);
        self.cv.notify_all();
        self.wait_for_turn(st, tid);
    }

    /// Worker `tid` leaves the scenario and passes the token on.
    fn finish(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        st.done[tid] = true;
        st.parked[tid] = false;
        self.pick(&mut st);
        self.cv.notify_all();
    }

    fn wait_for_turn<'a>(&'a self, mut st: MutexGuard<'a, SchedState>, tid: usize) {
        while st.turn != Some(tid) {
            // Spin-then-park pacer: poll the turn hint briefly outside
            // the lock (token handoffs are fast), then sleep.
            drop(st);
            let backoff = Backoff::new();
            while self.turn_hint.load(Ordering::Acquire) != tid && !backoff.is_completed() {
                backoff.spin();
            }
            st = self.state.lock().unwrap();
            if st.turn != Some(tid) {
                st = self.cv.wait(st).unwrap();
            }
        }
        st.parked[tid] = false;
    }

    fn pick(&self, st: &mut SchedState) {
        let candidates: Vec<usize> = (0..self.n)
            .filter(|&i| st.parked[i] && !st.done[i])
            .collect();
        match candidates.as_slice() {
            [] => {
                st.turn = None;
                self.turn_hint.store(usize::MAX, Ordering::Release);
            }
            c => {
                let next = c[(st.rng.next() % c.len() as u64) as usize];
                st.turn = Some(next);
                st.schedule.push(next);
                self.turn_hint.store(next, Ordering::Release);
            }
        }
    }

    fn schedule(&self) -> Vec<usize> {
        self.state.lock().unwrap().schedule.clone()
    }
}

/// Passes the token on even if the worker panics, so a failed assertion
/// inside an operation surfaces as a test failure instead of a hang.
struct FinishGuard<'a> {
    sched: &'a Scheduler,
    tid: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.sched.finish(self.tid);
    }
}

/// Commands per `execute_batch` call in [`ExploreConfig::fused`] mode.
pub const FUSED_BATCH: usize = 3;

fn apply<R: Reclaim>(tree: &NmTreeMap<u64, (), R>, op: SetOp) -> bool {
    match op {
        SetOp::Insert(k) => tree.insert(k, ()),
        SetOp::Remove(k) => tree.remove(&k),
        SetOp::Contains(k) => tree.contains(&k),
    }
}

/// Batch-mode twin of [`apply`]: one tape op = one size-1 batch on the
/// worker's persistent handle, so every op crosses the finger path.
fn apply_batch<R: Reclaim>(handle: &mut MapHandle<'_, u64, (), R>, op: SetOp) -> bool {
    match op {
        SetOp::Insert(k) => handle.insert_batch([(k, ())]) == 1,
        SetOp::Remove(k) => handle.remove_batch([k]) == 1,
        SetOp::Contains(k) => handle.get_batch([k])[0].is_some(),
    }
}

/// Fused-mode twin of [`apply`]: `ops` as one `execute_batch` call,
/// one result per op.
fn apply_fused<R: Reclaim>(
    handle: &mut ShardedMapHandle<'_, u64, (), R>,
    ops: &[SetOp],
    results: &mut Vec<bool>,
) {
    let cmds: Vec<BatchCmd<u64, ()>> = ops
        .iter()
        .map(|op| match *op {
            SetOp::Insert(k) => BatchCmd::Insert(k, ()),
            SetOp::Remove(k) => BatchCmd::Remove(k),
            SetOp::Contains(k) => BatchCmd::Get(k),
        })
        .collect();
    let mut out = Vec::new();
    handle.execute_batch(&cmds, &mut BatchScratch::new(), &mut out);
    results.extend(out.iter().map(|v| match *v {
        BatchVerdict::Added(b) | BatchVerdict::Removed(b) => b,
        BatchVerdict::Found(()) => true,
        BatchVerdict::Missing => false,
    }));
}

/// How one worker thread drives the store.
enum Driver<'t, R: Reclaim> {
    /// The plain API, one call per tape op.
    Point,
    /// Size-1 finger batches on a persistent handle.
    Finger(Box<MapHandle<'t, u64, (), R>>),
    /// `execute_batch` calls of up to [`FUSED_BATCH`] tape ops.
    Fused(ShardedMapHandle<'t, u64, (), R>),
}

/// Runs the scenario and schedule derived from `seed` and validates it.
/// The `Ok` report (schedule + history) is bit-for-bit reproducible:
/// calling again with the same config and seed returns an equal report.
pub fn explore_seed(cfg: &ExploreConfig, seed: u64) -> Result<RunReport, Box<Violation>> {
    match cfg.reclaim {
        ReclaimKind::Leaky => run_seed::<Leaky>(cfg, seed),
        ReclaimKind::Ebr => run_seed::<Ebr>(cfg, seed),
    }
}

fn run_seed<R: Reclaim>(cfg: &ExploreConfig, seed: u64) -> Result<RunReport, Box<Violation>> {
    assert!(cfg.min_threads >= 2 && cfg.max_threads >= cfg.min_threads);
    assert!(cfg.min_keys >= 2 && cfg.max_keys >= cfg.min_keys && cfg.max_keys < 64);
    // The checker's memoization works on u64 bitmasks and histories are
    // exhaustively ordered; keep every phase small enough that the whole
    // history stays within its 64-event budget.
    assert!(
        cfg.max_keys as usize * 2 + cfg.max_threads * cfg.max_ops_per_thread <= 64,
        "scenario bounds overflow the checker's 64-event budget"
    );

    let mut rng = Rng(seed ^ 0xA5A5_5A5A_C0FF_EE00);
    let threads = rng.in_range(cfg.min_threads as u64, cfg.max_threads as u64) as usize;
    let keys = rng.in_range(cfg.min_keys, cfg.max_keys);
    let inject_bug = cfg.inject_drop_flag_bug;
    let (batch, fused) = (cfg.batch, cfg.fused);

    let map: ShardedMap<u64, (), R> = ShardedMap::with_config(
        1,
        TreeConfig::default()
            .with_restart(cfg.restart)
            .with_leaf_cap(cfg.leaf_cap),
    );
    let tree = map.shard(0);
    let rec = Recorder::new();
    // Capture-scoped flight recorder: sequence numbers start at 0 for
    // every run, and the token-passing scheduler serializes all recording
    // threads, so the trace is deterministic per seed. The driver records
    // its sequential phases under label `threads`.
    let flight = FlightRecorder::new();
    let _driver_attached = flight.attach(threads as u32);
    let mut history: Vec<Event> = Vec::new();

    // Seeded prepopulation, recorded sequentially so the checker sees
    // the true initial state.
    for k in 0..keys {
        if rng.next() & 1 == 1 {
            history.push(rec.measure(SetOp::Insert(k), || tree.insert(k, ())));
        }
    }

    // Per-thread operation tapes, deletion-heavy: the helping protocol
    // only activates on deletes.
    let tapes: Vec<Vec<SetOp>> = (0..threads)
        .map(|_| {
            let ops = rng.in_range(1, cfg.max_ops_per_thread as u64);
            (0..ops)
                .map(|_| {
                    let k = rng.next() % keys;
                    match rng.next() % 4 {
                        0 => SetOp::Insert(k),
                        1 | 2 => SetOp::Remove(k),
                        _ => SetOp::Contains(k),
                    }
                })
                .collect()
        })
        .collect();

    let sched = Scheduler::new(threads, rng.next());
    // Worker events, plus the pairs `(a, b)` of their indices where `a`
    // must linearize before `b` (same-key commands of one batch).
    type Collected = (Vec<Event>, Vec<(usize, usize)>);
    let collected: Mutex<Collected> = Mutex::default();

    std::thread::scope(|s| {
        for (tid, tape) in tapes.iter().enumerate() {
            let sched = Arc::clone(&sched);
            let map = &map;
            let rec = &rec;
            let collected = &collected;
            let flight = flight.clone();
            s.spawn(move || {
                // Attach before taking the token: ring creation happens
                // outside the schedule, recording happens only while this
                // thread holds the token.
                let _attached = flight.attach(tid as u32);
                sched.start(tid);
                let _token = FinishGuard { sched: &sched, tid };
                if inject_bug {
                    chaos::set_bug(chaos::Bug::DropFlagOnSplice, true);
                }
                let mut local = Vec::with_capacity(tape.len());
                let mut order = Vec::new();
                let hook_sched = Arc::clone(&sched);
                // Batch modes keep one handle for the whole tape (in
                // finger mode each op's seek record is the next op's
                // finger anchor).
                let tree = map.shard(0);
                let mut driver = if fused {
                    if tid % 2 == 0 {
                        Driver::Fused(map.handle())
                    } else {
                        Driver::Point
                    }
                } else if batch {
                    Driver::Finger(Box::new(tree.handle()))
                } else {
                    Driver::Point
                };
                chaos::with_hook(
                    move |_point| {
                        hook_sched.gate(tid);
                        Action::Continue
                    },
                    || match &mut driver {
                        Driver::Fused(h) => {
                            for ops in tape.chunks(FUSED_BATCH) {
                                sched.gate(tid);
                                let base = local.len();
                                local.extend(rec.measure_all(ops, |out| apply_fused(h, ops, out)));
                                for (b, op) in ops.iter().enumerate() {
                                    order.extend(
                                        (0..b)
                                            .filter(|&a| ops[a].key() == op.key())
                                            .map(|a| (base + a, base + b)),
                                    );
                                }
                            }
                        }
                        driver => {
                            for &op in tape {
                                // Schedule point at the op boundary; the
                                // hook adds one at every atomic step
                                // inside.
                                sched.gate(tid);
                                local.push(rec.measure(op, || match driver {
                                    Driver::Finger(h) => apply_batch(h, op),
                                    _ => apply(tree, op),
                                }));
                            }
                        }
                    },
                );
                let mut collected = collected.lock().unwrap();
                let base = collected.0.len();
                collected.0.extend(local);
                collected
                    .1
                    .extend(order.iter().map(|&(a, b)| (base + a, base + b)));
            });
        }
    });
    let (events, order) = collected.into_inner().unwrap();
    let base = history.len();
    history.extend(events);

    // Sequential probe phase: the final physical contents become part of
    // the checked history, so a lost or resurrected key is a guaranteed
    // linearizability failure even if no mid-run result exposed it.
    for k in 0..keys {
        history.push(rec.measure(SetOp::Contains(k), || tree.contains(&k)));
    }

    let report = RunReport {
        seed,
        threads,
        keys,
        schedule: sched.schedule(),
        history,
        trace: flight.merged(),
    };

    let mut map = map;
    if let Err(e) = map.check_invariants() {
        return Err(Box::new(Violation {
            reason: format!("structural invariants violated: {e}"),
            report,
        }));
    }
    let mut preds = vec![0u64; report.history.len()];
    for (a, b) in order {
        preds[base + b] |= 1 << (base + a);
    }
    if linearization_witness_ordered(&report.history, &preds).is_none() {
        return Err(Box::new(Violation {
            reason: "history (with final sequential probes) is not linearizable".to_string(),
            report,
        }));
    }
    Ok(report)
}

/// Sweeps `seeds`, stopping at the first violating schedule.
pub fn explore_many(
    cfg: &ExploreConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<ExploreStats, Box<Violation>> {
    let mut stats = ExploreStats::default();
    for seed in seeds {
        let report = explore_seed(cfg, seed)?;
        stats.schedules += 1;
        stats.events += report.history.len();
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_run() {
        let cfg = ExploreConfig::default();
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = explore_seed(&cfg, seed).expect("correct tree passes");
            let b = explore_seed(&cfg, seed).expect("correct tree passes");
            assert_eq!(a, b, "seed {seed:#x} did not replay identically");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let cfg = ExploreConfig::default();
        let runs: Vec<RunReport> = (0..8)
            .map(|s| explore_seed(&cfg, s).expect("correct tree passes"))
            .collect();
        let distinct = runs
            .iter()
            .map(|r| (r.threads, r.keys, r.schedule.clone()))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            distinct.len() > 4,
            "seeds barely vary the scenario/schedule: {} distinct of 8",
            distinct.len()
        );
    }

    #[test]
    fn bounded_sweep_is_clean_on_the_real_tree() {
        let cfg = ExploreConfig::default();
        let stats = explore_many(&cfg, 0..64).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.schedules, 64);
        assert!(stats.events > 0);
    }

    #[test]
    fn batch_mode_same_seed_same_run() {
        let cfg = ExploreConfig {
            batch: true,
            ..ExploreConfig::default()
        };
        for seed in [0u64, 7, 0xBA7C_4ED5] {
            let a = explore_seed(&cfg, seed).expect("correct tree passes");
            let b = explore_seed(&cfg, seed).expect("correct tree passes");
            assert_eq!(a, b, "batch seed {seed:#x} did not replay identically");
        }
    }

    #[test]
    fn batch_mode_bounded_sweep_is_clean() {
        // Every op crosses Point::BatchFinger and the seek_from anchor
        // revalidation; linearizability + probe + invariants must still
        // hold on every schedule.
        let cfg = ExploreConfig {
            batch: true,
            ..ExploreConfig::default()
        };
        let stats = explore_many(&cfg, 0..48).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.schedules, 48);
    }

    #[test]
    fn batch_mode_sweeps_ebr_with_pool() {
        // Finger anchors + node recycling + real reclamation in one
        // sweep: anchors must revalidate correctly even as retired nodes
        // return through the pool.
        let cfg = ExploreConfig {
            batch: true,
            reclaim: ReclaimKind::Ebr,
            ..ExploreConfig::default()
        };
        let stats = explore_many(&cfg, 0..24).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.schedules, 24);
    }

    #[test]
    fn fused_batch_mode_same_seed_same_run() {
        let cfg = ExploreConfig {
            fused: true,
            ..ExploreConfig::default()
        };
        for seed in [0u64, 5, 0xF05E_D000] {
            let a = explore_seed(&cfg, seed).expect("correct tree passes");
            let b = explore_seed(&cfg, seed).expect("correct tree passes");
            assert_eq!(a, b, "fused seed {seed:#x} did not replay identically");
        }
    }

    #[test]
    fn fused_batch_mode_bounded_sweep_is_clean() {
        // execute_batch races point ops on one shard: point writes land
        // between a batch's Phase-1 seeks and its Phase-2 CASes, at
        // one-key leaves (flag/tag/splice) and fat ones (COW, splits).
        for leaf_cap in [1, 2, 8] {
            let cfg = ExploreConfig {
                fused: true,
                leaf_cap,
                ..ExploreConfig::default()
            };
            let stats =
                explore_many(&cfg, 0..64).unwrap_or_else(|v| panic!("leaf_cap {leaf_cap}: {v}"));
            assert_eq!(stats.schedules, 64);
        }
    }

    #[test]
    fn fused_batch_mode_sweeps_ebr_with_pool() {
        let cfg = ExploreConfig {
            fused: true,
            reclaim: ReclaimKind::Ebr,
            ..ExploreConfig::default()
        };
        let stats = explore_many(&cfg, 0..32).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.schedules, 32);
    }
}
