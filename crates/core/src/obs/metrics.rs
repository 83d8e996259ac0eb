//! The always-on metrics facade: sharded relaxed counters + gauges,
//! sampled per-op-type latency histograms, and slow-op capture.
//!
//! Counter writes must not create the cross-core cache-line traffic the
//! tree itself avoids, so counts live in [`SHARDS`] cache-padded shards;
//! each thread is assigned a shard round-robin on first use and bumps it
//! with relaxed `fetch_add`s. Reads ([`Metrics::snapshot`]) sum the
//! shards — exact once writers are quiescent, racy-but-monotonic while
//! they are not, which is the usual scrape contract.
//!
//! Latency recording follows the same cost discipline at a second
//! remove: a tree op costs ~100 ns while a clock read costs ~20 ns, so
//! timing *every* op would blow the ≤3% observability budget several
//! times over. Point ops are therefore **sampled** — a thread-local
//! tick arms a timer every `2^sample_shift`-th call (see
//! [`LatencyConfig`]) — while batch and range calls, which amortize a
//! clock pair over many keys, are timed on every call. Handles buffer
//! their sampled durations in plain fields ([`PendingLat`]) and flush
//! them into the shared [`ConcurrentHistogram`]s on re-pin, exactly
//! like their op counters. Ops that cross
//! [`LatencyConfig::slow_op_ns`] additionally deposit a [`SlowOp`]
//! record (with the flight-recorder event chain, when `feature = "obs"`
//! has a recorder attached) into a lock-free [`SlowRing`].

use crate::pool::{ArenaStats, NODE_CLASSES};
use nmbst_reclaim::{PoolStats, ReclaimGauges};
use nmbst_sync::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::hist::LatencySnapshot;
use super::series::{self, counter, gauge, histogram, Field, Merge, Series, Value};
use super::slow::SlowOp;
use super::{hist::ConcurrentHistogram, slow::SlowRing, OpClass};

/// Number of counter shards. More than the container's typical core
/// count so that threads rarely share a line even under round-robin
/// assignment; small enough that snapshot sums stay trivial.
const SHARDS: usize = 8;

/// The node classes' labels in exposition output (`class="..."`), in
/// [`MetricsSnapshot::pool_classes`] order: routes, then the leaf size
/// classes by capacity.
pub const POOL_CLASS_LABELS: [&str; NODE_CLASSES] = ["route", "leaf4", "leaf6", "leaf8"];

/// Buckets in the descent-depth histogram. Power-of-two buckets: bucket
/// `b` counts descents that touched `2^(b-1) ..= 2^b - 1` nodes (bucket
/// 0 is the degenerate zero-node descent), saturating in the last
/// bucket, so 16 buckets cover any depth a 2³⁰-slot arena can produce.
pub const DEPTH_BUCKETS: usize = 16;

/// The histogram bucket a given descent depth lands in: the bit length
/// of `depth`, saturated to the last bucket.
#[inline]
fn depth_bucket(depth: u64) -> usize {
    ((u64::BITS - depth.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
}

/// How latency recording behaves on a tree (`TreeConfig::lat`).
///
/// Runtime knobs: [`disabled`](LatencyConfig::disabled) is the one off
/// switch (every op then pays one field load and a branch), so one
/// binary can A/B the cost or retune the threshold without rebuilding,
/// which is exactly what the perf harness's overhead gate does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Master switch. Off: every op pays one field load + branch.
    pub enabled: bool,
    /// Point ops (get/insert/remove) are timed once every
    /// `2^sample_shift` calls per thread (0 = every call — useful in
    /// tests, too hot for production). Batch/range calls ignore this
    /// and are always timed: one clock pair amortized over the whole
    /// call. Default 6 (1 in 64), which keeps the measured overhead
    /// comfortably inside the ≤3% budget.
    pub sample_shift: u32,
    /// Sampled ops (and every batch/range call) whose duration reaches
    /// this many nanoseconds deposit a [`SlowOp`] into the tree's slow
    /// ring. 0 disables capture. Default 1 ms — pathological for a
    /// sub-microsecond tree op.
    pub slow_op_ns: u64,
}

impl LatencyConfig {
    /// Recording disabled (the config the perf A/B's "off" arm uses).
    pub fn disabled() -> Self {
        LatencyConfig {
            enabled: false,
            ..LatencyConfig::default()
        }
    }

    /// Returns the config with the point-op sampling period set to
    /// `2^shift` (clamped to 31).
    pub fn with_sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift.min(31);
        self
    }

    /// Returns the config with the slow-op threshold set (0 = off).
    pub fn with_slow_op_ns(mut self, ns: u64) -> Self {
        self.slow_op_ns = ns;
        self
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            enabled: true,
            sample_shift: 6,
            slow_op_ns: 1_000_000,
        }
    }
}

/// One shard of operation counters. All bumps are relaxed: counts have
/// no ordering role, they only need to add up.
///
/// Counters are split by *outcome*, not aggregated by call, so every
/// operation costs exactly one `fetch_add` (`inserts` = `inserted` +
/// `insert_dup`, summed at snapshot time, never on the hot path).
#[derive(Default)]
struct Shard {
    searches: AtomicU64,
    inserted: AtomicU64,
    insert_dup: AtomicU64,
    removed: AtomicU64,
    remove_miss: AtomicU64,
    helps: AtomicU64,
    finger_hits: AtomicU64,
    finger_misses: AtomicU64,
    /// Power-of-two histogram of nodes touched per seek descent (see
    /// [`DEPTH_BUCKETS`]), plus a running sum for the average. Lives in
    /// the shard so the per-seek bump shares the line the op counter
    /// bump already owns.
    depth_hist: [AtomicU64; DEPTH_BUCKETS],
    depth_sum: AtomicU64,
    batch_lane_ops: AtomicU64,
    batch_reseeks: AtomicU64,
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    /// Const-initialized `Cell` (not a lazy initializer) so the per-op
    /// access compiles to a plain TLS load; `usize::MAX` = unassigned.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

thread_local! {
    /// Per-thread sampling tick for latency timers (see
    /// [`LatencyConfig::sample_shift`]). Shared across trees: sampling
    /// needs no per-tree phase, only the right long-run rate.
    static LAT_TICK: Cell<u32> = const { Cell::new(0) };
}

/// This thread's counter-shard index (round-robin assigned on first
/// use) — shared with the concurrent latency histograms so a recording
/// thread keeps bumping lines it already owns.
#[inline]
pub(crate) fn my_shard() -> usize {
    MY_SHARD.with(|s| {
        let idx = s.get();
        if idx != usize::MAX {
            idx
        } else {
            let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(assigned);
            assigned
        }
    })
}

/// The per-tree latency recording state: one concurrent histogram per
/// op class plus the slow-op ring.
struct LatencyState {
    config: LatencyConfig,
    /// `2^sample_shift - 1`, cached at construction so the per-op
    /// sampling test is a single AND, not a shift+clamp.
    sample_mask: u32,
    hists: [ConcurrentHistogram; OpClass::COUNT],
    slow: SlowRing,
}

/// An armed-or-idle latency timer handed out by [`Metrics::op_timer`] /
/// [`Metrics::call_timer`] and consumed by the `op_finish` family.
#[derive(Clone, Copy)]
pub(crate) struct LatTimer {
    t0: Option<std::time::Instant>,
    /// Flight-recorder ring position at arm time, so a slow op can
    /// report exactly the events recorded during it.
    #[cfg(feature = "obs")]
    mark: u64,
}

impl LatTimer {
    #[inline]
    fn idle() -> Self {
        LatTimer {
            t0: None,
            #[cfg(feature = "obs")]
            mark: u64::MAX,
        }
    }

    #[inline]
    fn armed() -> Self {
        LatTimer {
            t0: Some(std::time::Instant::now()),
            #[cfg(feature = "obs")]
            mark: super::trace::local_mark(),
        }
    }

    /// Nanoseconds since an armed timer was armed: one clock read.
    /// `None` for an idle timer.
    #[inline]
    pub(crate) fn elapsed_ns(&self) -> Option<u64> {
        self.t0.map(|t0| t0.elapsed().as_nanos() as u64)
    }
}

/// Sampled `(op class, duration)` pairs a handle buffers in plain
/// fields between guard refreshes, flushed into the shared histograms
/// on re-pin/unpin/drop — the latency twin of [`PendingOps`]. Fixed
/// capacity: at the default 1-in-64 sampling and 64-op re-pin budget a
/// window yields ~1 sample, so 8 slots absorb even a forced
/// every-op-sampled test loop between organic flushes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PendingLat {
    buf: [(u8, u64); Self::CAP],
    len: u8,
    /// The owning handle's sampling tick (see
    /// [`Metrics::op_timer_buffered`]) — handle ops sample off this
    /// plain field rather than the thread-local the plain API uses.
    tick: u32,
}

impl PendingLat {
    const CAP: usize = 8;

    /// Appends a sample; false when full (caller flushes and retries).
    #[inline]
    fn push(&mut self, class: u8, ns: u64) -> bool {
        let i = usize::from(self.len);
        if i >= Self::CAP {
            return false;
        }
        self.buf[i] = (class, ns);
        self.len += 1;
        true
    }
}

/// Per-tree metrics state, owned by `NmTreeMap`.
pub(crate) struct Metrics {
    shards: [CachePadded<Shard>; SHARDS],
    /// Deepest access path any seek observed (leaf depth in
    /// edges below the sentinel pair). Racy max: updated with a relaxed
    /// load-then-`fetch_max` only when a new maximum is seen.
    max_depth: AtomicU64,
    lat: LatencyState,
}

impl Metrics {
    pub(crate) fn new(lat: LatencyConfig) -> Self {
        Metrics {
            shards: Default::default(),
            max_depth: AtomicU64::new(0),
            lat: LatencyState {
                config: lat,
                sample_mask: (1u32 << lat.sample_shift.min(31)) - 1,
                hists: Default::default(),
                slow: SlowRing::new(super::slow::TREE_SLOW_CAP),
            },
        }
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[my_shard()]
    }

    #[inline]
    pub(crate) fn note_search(&self) {
        self.shard().searches.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_insert(&self, success: bool) {
        let shard = self.shard();
        let counter = if success {
            &shard.inserted
        } else {
            &shard.insert_dup
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_remove(&self, success: bool) {
        let shard = self.shard();
        let counter = if success {
            &shard.removed
        } else {
            &shard.remove_miss
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_help(&self) {
        self.shard().helps.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a new observed access-path depth into the max gauge, the
    /// sharded power-of-two histogram, and the depth sum. The max
    /// update's common case (not a new maximum) is a single relaxed
    /// load; the histogram and sum cost two relaxed `fetch_add`s on this
    /// thread's shard — the line the op counter bump for the same
    /// operation already owns.
    #[inline]
    pub(crate) fn note_depth(&self, depth: u64) {
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        let shard = self.shard();
        shard.depth_hist[depth_bucket(depth)].fetch_add(1, Ordering::Relaxed);
        shard.depth_sum.fetch_add(depth, Ordering::Relaxed);
    }

    /// Arms a sampled point-op timer: idle unless recording is enabled
    /// and this thread's tick hits the sampling period. The unsampled
    /// path costs one field load, one TLS bump, and a branch.
    #[inline]
    pub(crate) fn op_timer(&self) -> LatTimer {
        if !self.lat.config.enabled {
            return LatTimer::idle();
        }
        let mask = self.lat.sample_mask;
        let sampled = LAT_TICK.with(|c| {
            let v = c.get().wrapping_add(1);
            c.set(v);
            v & mask == 0
        });
        if sampled {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// The handle-op twin of [`op_timer`](Metrics::op_timer): the
    /// sampling tick lives in the handle's [`PendingLat`] (a plain
    /// field the handle already owns) instead of thread-local storage,
    /// so the unsampled path is a load, an add, and a branch on memory
    /// that's already hot — handles are the throughput-critical front
    /// end, and the ≤3% budget is measured through them.
    #[inline]
    pub(crate) fn op_timer_buffered(&self, buf: &mut PendingLat) -> LatTimer {
        if !self.lat.config.enabled {
            return LatTimer::idle();
        }
        buf.tick = buf.tick.wrapping_add(1);
        if buf.tick & self.lat.sample_mask == 0 {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// Arms an unsampled timer for whole batch/range calls, where one
    /// clock pair amortizes over many keys.
    #[inline]
    pub(crate) fn call_timer(&self) -> LatTimer {
        if self.lat.config.enabled {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// Finishes a timer directly into the shared histograms (the plain
    /// API path, and batch/range calls).
    #[inline]
    pub(crate) fn op_finish(&self, class: OpClass, t: LatTimer) {
        if let Some(ns) = t.elapsed_ns() {
            self.op_record(class, &t, ns);
        }
    }

    /// Records `ns`, read once from the armed timer `t`, as one `class`
    /// sample: [`op_finish`](Metrics::op_finish) for a call that
    /// records one duration into several trees.
    #[inline]
    pub(crate) fn op_record(&self, class: OpClass, t: &LatTimer, ns: u64) {
        self.lat.hists[class as usize].record(ns);
        self.check_slow(class, ns, t);
    }

    /// Finishes a timer into a handle's [`PendingLat`] buffer (flushed
    /// on re-pin, like the op counters). Slow-op detection still
    /// happens immediately — a 1 ms outlier should not wait for a
    /// flush to become visible.
    #[inline]
    pub(crate) fn op_finish_buffered(&self, class: OpClass, t: LatTimer, buf: &mut PendingLat) {
        if let Some(ns) = t.elapsed_ns() {
            self.check_slow(class, ns, &t);
            if !buf.push(class as u8, ns) {
                self.flush_pending_lat(buf);
                let _ = buf.push(class as u8, ns);
            }
        }
    }

    /// Drains a handle's buffered latency samples into the shared
    /// histograms.
    pub(crate) fn flush_pending_lat(&self, buf: &mut PendingLat) {
        for &(class, ns) in &buf.buf[..usize::from(buf.len)] {
            self.lat.hists[usize::from(class).min(OpClass::COUNT - 1)].record(ns);
        }
        buf.len = 0;
    }

    #[inline]
    fn check_slow(&self, class: OpClass, ns: u64, t: &LatTimer) {
        let thr = self.lat.config.slow_op_ns;
        if thr != 0 && ns >= thr {
            self.push_slow(class, ns, t);
        }
    }

    /// Deposits a slow-op record, attaching the flight-recorder event
    /// chain for the op when a recorder is active on this thread.
    #[cold]
    fn push_slow(&self, class: OpClass, ns: u64, t: &LatTimer) {
        #[cfg(feature = "obs")]
        let (events, n_events) = super::trace::local_events_since(t.mark);
        #[cfg(not(feature = "obs"))]
        let (events, n_events) = {
            let _ = t;
            ([0u8; super::slow::SLOW_EVENTS], 0u8)
        };
        self.lat.slow.push(SlowOp {
            kind: class as u8,
            origin: 0,
            n_events,
            key: 0,
            ns,
            events,
        });
    }

    /// Adds a handle's batched counts in one pass (see [`PendingOps`]).
    pub(crate) fn add_pending(&self, p: &PendingOps) {
        if p.is_empty() {
            return;
        }
        let shard = self.shard();
        shard.searches.fetch_add(p.searches, Ordering::Relaxed);
        shard.inserted.fetch_add(p.inserted, Ordering::Relaxed);
        shard
            .insert_dup
            .fetch_add(p.inserts - p.inserted, Ordering::Relaxed);
        shard.removed.fetch_add(p.removed, Ordering::Relaxed);
        shard
            .remove_miss
            .fetch_add(p.removes - p.removed, Ordering::Relaxed);
        shard
            .finger_hits
            .fetch_add(p.finger_hits, Ordering::Relaxed);
        shard
            .finger_misses
            .fetch_add(p.finger_misses, Ordering::Relaxed);
        shard
            .batch_lane_ops
            .fetch_add(p.batch_lane_ops, Ordering::Relaxed);
        shard
            .batch_reseeks
            .fetch_add(p.batch_reseeks, Ordering::Relaxed);
    }

    /// Sums the shards and folds in the reclaimer's gauges and the node
    /// arenas' stats.
    pub(crate) fn snapshot(&self, reclaim: ReclaimGauges, arenas: ArenaStats) -> MetricsSnapshot {
        let mut pool = PoolStats::default();
        for class in arenas.classes {
            pool += class;
        }
        let mut s = MetricsSnapshot {
            max_depth: self.max_depth.load(Ordering::Relaxed),
            reclaim,
            reclaim_epoch_min: Some(reclaim.epoch),
            pool,
            pool_route_slots: arenas.classes[0].slots,
            pool_leaf_slots: arenas.classes[1..].iter().map(|c| c.slots).sum(),
            pool_bytes: arenas.bytes,
            pool_classes: arenas.classes,
            lat_cell_bytes: self.lat.hists.iter().map(|h| h.cell_bytes()).sum(),
            ..MetricsSnapshot::default()
        };
        for shard in &self.shards {
            s.searches += shard.searches.load(Ordering::Relaxed);
            s.inserted += shard.inserted.load(Ordering::Relaxed);
            s.inserts += shard.insert_dup.load(Ordering::Relaxed);
            s.removed += shard.removed.load(Ordering::Relaxed);
            s.removes += shard.remove_miss.load(Ordering::Relaxed);
            s.helps += shard.helps.load(Ordering::Relaxed);
            s.finger_hits += shard.finger_hits.load(Ordering::Relaxed);
            s.finger_misses += shard.finger_misses.load(Ordering::Relaxed);
            s.batch_lane_ops += shard.batch_lane_ops.load(Ordering::Relaxed);
            s.batch_reseeks += shard.batch_reseeks.load(Ordering::Relaxed);
            for (dst, src) in s.depth_hist.iter_mut().zip(shard.depth_hist.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
            s.depth_sum += shard.depth_sum.load(Ordering::Relaxed);
        }
        // The shards store outcomes; the snapshot reports call totals.
        s.inserts += s.inserted;
        s.removes += s.removed;
        s.size_estimate = s.inserted as i64 - s.removed as i64;
        s.latency = LatencySnapshot {
            get: self.lat.hists[OpClass::Get as usize].snapshot(),
            insert: self.lat.hists[OpClass::Insert as usize].snapshot(),
            remove: self.lat.hists[OpClass::Remove as usize].snapshot(),
            batch: self.lat.hists[OpClass::Batch as usize].snapshot(),
            range: self.lat.hists[OpClass::Range as usize].snapshot(),
        };
        s.slow_ops = self.lat.slow.snapshot();
        s
    }
}

/// Operation counts a [`MapHandle`](crate::MapHandle) batches in plain
/// (non-atomic) fields between guard refreshes, flushed into the shards
/// on re-pin, unpin, and drop. This is what keeps the metrics facade off
/// the handle's per-op critical path entirely.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PendingOps {
    pub(crate) searches: u64,
    pub(crate) inserts: u64,
    pub(crate) inserted: u64,
    pub(crate) removes: u64,
    pub(crate) removed: u64,
    pub(crate) finger_hits: u64,
    pub(crate) finger_misses: u64,
    pub(crate) batch_lane_ops: u64,
    pub(crate) batch_reseeks: u64,
}

impl PendingOps {
    fn is_empty(&self) -> bool {
        self.searches == 0
            && self.inserts == 0
            && self.removes == 0
            && self.finger_hits == 0
            && self.finger_misses == 0
            && self.batch_lane_ops == 0
            && self.batch_reseeks == 0
    }

    pub(crate) fn clear(&mut self) {
        *self = PendingOps::default();
    }
}

/// Serving-tier connection gauges, folded into a [`MetricsSnapshot`] by
/// front ends that own connections (the TCP server's per-worker
/// reactors). Trees themselves never set these — they default to zero —
/// but carrying them on the snapshot lets the server reuse the metrics
/// merge/exposition pipeline (JSON + Prometheus + validator) instead of
/// inventing a parallel one.
///
/// `open_connections`, `read_paused_connections`, and
/// `write_buffered_bytes` are point-in-time gauges;
/// `backpressure_events` is a monotonic counter of read-pause
/// transitions (a connection entering the paused state counts once per
/// entry, not per byte). All four are *summed* by
/// [`MetricsSnapshot::merge`]: each worker owns disjoint connections, so
/// the aggregate is the fleet total.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeGauges {
    /// Connections currently registered with a reactor.
    pub open_connections: u64,
    /// Connections whose reads are paused by write-buffer backpressure.
    pub read_paused_connections: u64,
    /// Bytes sitting in not-yet-flushed per-connection write buffers.
    pub write_buffered_bytes: u64,
    /// Times any connection transitioned into the read-paused state.
    pub backpressure_events: u64,
}

/// A point-in-time view of one tree's metrics, produced by
/// [`NmTreeMap::metrics`](crate::NmTreeMap::metrics).
///
/// Counters are monotonic over the tree's lifetime; gauges are racy
/// point samples. `searches`/`inserts`/`removes` count *calls*;
/// `inserted`/`removed` count the calls that changed the key set, so
/// `inserted - removed` estimates the live key count (exact once writers
/// are quiescent). The latency histograms carry the sampled per-op-type
/// distributions (see [`LatencyConfig`]); `slow_ops` is the current
/// window of threshold-crossing op records.
///
/// # Examples
///
/// ```
/// use nmbst::NmTreeMap;
///
/// let set: NmTreeMap<u64, ()> = NmTreeMap::new();
/// set.insert(1, ());
/// set.insert(2, ());
/// set.remove(&1);
/// let m = set.metrics();
/// assert_eq!(m.inserts, 2);
/// assert_eq!(m.size_estimate, 1);
/// assert!(m.to_prometheus().contains("nmbst_size_estimate 1"));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `contains`/`get`/`with_value` calls.
    pub searches: u64,
    /// `insert` calls (successful or duplicate-rejected).
    pub inserts: u64,
    /// `insert` calls that added a key.
    pub inserted: u64,
    /// `remove`/`remove_get` calls (successful or key-absent).
    pub removes: u64,
    /// `remove` calls that deleted a key.
    pub removed: u64,
    /// Times an operation helped a conflicting delete's cleanup instead
    /// of progressing its own work.
    pub helps: u64,
    /// Batch ops whose finger anchor revalidated: the descent started
    /// from the previous op's seek record instead of the root.
    pub finger_hits: u64,
    /// Batch ops that fell back to a full root descent (first op of a
    /// batch, stale anchor, or anchor's successor was a leaf).
    pub finger_misses: u64,
    /// `execute_batch` ops whose descent ran in a Phase-1 interleaved
    /// lane: every write, and the first GET of each key in a shard run
    /// that no same-key write precedes.
    pub batch_lane_ops: u64,
    /// `execute_batch` writes whose Phase-1 record had gone stale by
    /// Phase 2 (an earlier write of the run, or a concurrent one, moved
    /// an edge of it; or the `BatchStale` chaos point said so) and
    /// re-seeked before their CAS.
    pub batch_reseeks: u64,
    /// `inserted - removed`: live key count, exact at quiescence.
    pub size_estimate: i64,
    /// Deepest access path observed by any seek (nodes touched below the
    /// sentinel pair, the fat leaf *block* counting as one node; 0 until
    /// the first modify op).
    pub max_depth: u64,
    /// Power-of-two histogram of nodes touched per modify-op seek
    /// descent (reads take a lighter path that records nothing): bucket `b` counts descents of depth
    /// `2^(b-1) ..= 2^b - 1` (bucket 0 holds the degenerate zero-node
    /// case, the last bucket saturates). This is the
    /// production-observable form of the fat-leaf miss-reduction claim:
    /// shrinking depth moves mass into lower buckets.
    pub depth_hist: [u64; DEPTH_BUCKETS],
    /// Sum of modify-path descent depths (`depth_sum / modify ops` =
    /// mean nodes touched per modify descent; a CAS retry that re-seeks
    /// from the root counts again).
    pub depth_sum: u64,
    /// Sampled per-op-type latency histograms (all empty when
    /// recording is disabled).
    pub latency: LatencySnapshot,
    /// The latest window of slow-op records (ops that crossed
    /// [`LatencyConfig::slow_op_ns`]); oldest first from a single tree,
    /// slowest first after [`merge`](MetricsSnapshot::merge).
    pub slow_ops: Vec<SlowOp>,
    /// Reclamation health at snapshot time (see
    /// [`ReclaimGauges`]); all zeros under schemes
    /// without deferred state, like `Leaky`.
    pub reclaim: ReclaimGauges,
    /// The least `reclaim.epoch` over the trees merged into this
    /// snapshot (a tree's own epoch before any merge; `None` only on
    /// the default snapshot). A shard whose epoch stalls while the
    /// others advance shows here, where the merged `reclaim.epoch`,
    /// their maximum, hides it.
    pub reclaim_epoch_min: Option<u64>,
    /// Node-pool hit/recycle stats at snapshot time (see
    /// [`PoolStats`]), summed over the tree's arenas (routes and each
    /// leaf size class). `hits`/`misses` are flushed from handles on re-pin and
    /// drop, so mid-loop snapshots may lag a handle's batched counts.
    pub pool: PoolStats,
    /// Route slots handed out: the route arena's high-water mark.
    pub pool_route_slots: u64,
    /// Leaf slots handed out: the leaf arenas' high-water marks, summed
    /// over the size classes.
    pub pool_leaf_slots: u64,
    /// Bytes of arena slots handed out across all arenas (each class's
    /// slots times its slot size): the node memory the tree has
    /// committed.
    pub pool_bytes: u64,
    /// Each node class's arena on its own, in [`POOL_CLASS_LABELS`]
    /// order (routes, then leaf classes 4, 6 and 8): the memory
    /// waterfall. A class's `slots` (its high-water mark) are live
    /// nodes, `len` free-list slots, `cached` slots in handle caches
    /// (as each cache last published on flush), and the rest retired
    /// nodes awaiting their grace period or insert scratch in flight.
    /// Once handles drop and the backlog drains, `slots` = live blocks
    /// of the class + `len`.
    pub pool_classes: [PoolStats; NODE_CLASSES],
    /// Bytes of latency-histogram cells committed: each per-op-class
    /// histogram shard commits its cell on its first sample (see
    /// [`ConcurrentHistogram`]).
    pub lat_cell_bytes: u64,
    /// Serving-tier connection/backpressure gauges (see
    /// [`ServeGauges`]); all zeros on snapshots taken from a bare tree —
    /// only connection-owning front ends populate them.
    pub serve: ServeGauges,
}

/// A [`Field`] of a snapshot, from its path.
macro_rules! field {
    ($($path:ident).+) => {
        Field {
            get: |s| &s.$($path).+,
            get_mut: |s| &mut s.$($path).+,
        }
    };
}

/// A merged number of a snapshot, from its merge rule and path.
macro_rules! int {
    ($rule:ident, $($path:ident).+) => {
        Value::Int(field!($($path).+), Merge::$rule)
    };
}

/// Every series a [`MetricsSnapshot`] exposes, in output order: the one
/// place its names, keys, help texts, label sets and merge rules are
/// written. `pinned_threads` sums per shard, so a thread pinned in
/// several shards counts once per shard: a pressure gauge, not a
/// census. Each worker owns disjoint connections, so the serve gauges
/// sum.
#[rustfmt::skip]
const SNAPSHOT_SERIES: &[Series<MetricsSnapshot>] = &[
    counter("nmbst_searches_total", "searches", int!(Sum, searches), "Search operations."),
    counter("nmbst_inserts_total", "inserts", int!(Sum, inserts),
        "Insert operations (incl. duplicate-rejected)."),
    counter("nmbst_inserted_total", "inserted", int!(Sum, inserted), "Inserts that added a key."),
    counter("nmbst_removes_total", "removes", int!(Sum, removes),
        "Remove operations (incl. key-absent)."),
    counter("nmbst_removed_total", "removed", int!(Sum, removed), "Removes that deleted a key."),
    counter("nmbst_helps_total", "helps", int!(Sum, helps),
        "Operations that helped a conflicting delete."),
    counter("nmbst_finger_hits_total", "finger_hits", int!(Sum, finger_hits),
        "Batch ops whose finger anchor revalidated."),
    counter("nmbst_finger_misses_total", "finger_misses", int!(Sum, finger_misses),
        "Batch ops that fell back to a full root descent."),
    counter("nmbst_batch_lane_ops_total", "batch_lane_ops", int!(Sum, batch_lane_ops),
        "execute_batch ops descended in interleaved Phase-1 lanes."),
    counter("nmbst_batch_reseeks_total", "batch_reseeks", int!(Sum, batch_reseeks),
        "execute_batch writes that re-seeked a stale Phase-1 record."),
    gauge("nmbst_size_estimate", "size_estimate", Value::Signed(field!(size_estimate)),
        "Live keys (inserted - removed; exact at quiescence)."),
    gauge("nmbst_max_depth", "max_depth", int!(Max, max_depth),
        "Deepest access path observed by a seek."),
    histogram("nmbst_descent_depth", "depth_hist",
        Value::Buckets(field!(depth_hist), field!(depth_sum), "depth_sum"),
        "Nodes touched per modify-op seek."),
    histogram("nmbst_op_latency_ns", "latency", Value::OpHists(field!(latency)),
        "Sampled operation latency by op type (ns)."),
    gauge("nmbst_slow_ops_captured", "slow_ops", Value::SlowOps(field!(slow_ops)),
        "Slow-op records currently in the capture ring."),
    gauge("nmbst_reclaim_epoch", "reclaim_epoch", int!(Max, reclaim.epoch),
        "Reclaimer global epoch."),
    gauge("nmbst_reclaim_epoch_min", "reclaim_epoch_min", Value::Min(field!(reclaim_epoch_min)),
        "Least reclaimer global epoch over the merged trees."),
    gauge("nmbst_reclaim_epoch_lag", "reclaim_epoch_lag", int!(Max, reclaim.epoch_lag),
        "Global epoch minus oldest pinned epoch."),
    gauge("nmbst_reclaim_pinned_threads", "reclaim_pinned_threads",
        int!(Sum, reclaim.pinned_threads), "Threads currently pinned."),
    gauge("nmbst_reclaim_retired_backlog", "reclaim_retired_backlog",
        int!(Sum, reclaim.retired_backlog), "Objects retired but not yet freed."),
    gauge("", "", Value::Pool(field!(pool), &[
        counter("nmbst_pool_hits_total", "pool_hits", Value::Count(|p| p.hits),
            "Node allocations served from recycled pool memory."),
        counter("nmbst_pool_misses_total", "pool_misses", Value::Count(|p| p.misses),
            "Node allocations the free list could not serve (a fresh arena slot)."),
        counter("nmbst_pool_recycled_total", "pool_recycled", Value::Count(|p| p.recycled),
            "Reclaimed nodes returned to the pool."),
        gauge("nmbst_pool_len", "pool_len", Value::Count(|p| p.len),
            "Free blocks currently in the shared pool."),
        gauge("nmbst_pool_slots", "pool_slots", Value::Count(|p| p.slots),
            "Arena slots handed out so far (the arena never frees one)."),
    ]), ""),
    gauge("nmbst_pool_route_slots", "pool_route_slots", int!(Sum, pool_route_slots),
        "Route-arena slots handed out so far."),
    gauge("nmbst_pool_leaf_slots", "pool_leaf_slots", int!(Sum, pool_leaf_slots),
        "Leaf-arena slots handed out so far, summed over the size classes."),
    gauge("nmbst_pool_bytes", "pool_bytes", int!(Sum, pool_bytes),
        "Bytes of arena slots handed out across all node classes."),
    gauge("", "pool_classes", Value::Classes(field!(pool_classes), &[
        gauge("nmbst_pool_class_slots", "slots", Value::Count(|c| c.slots),
            "Arena slots handed out so far, per node class."),
        gauge("nmbst_pool_class_free", "free", Value::Count(|c| c.len),
            "Free-list length, per node class."),
        gauge("nmbst_pool_class_cached", "cached", Value::Count(|c| c.cached),
            "Free slots held in handle caches as last flushed, per node class."),
    ]), ""),
    gauge("nmbst_lat_cell_bytes", "lat_cell_bytes", int!(Sum, lat_cell_bytes),
        "Bytes of latency-histogram cells committed (on first sample)."),
    gauge("nmbst_serve_open_connections", "open_connections", int!(Sum, serve.open_connections),
        "Connections currently registered with serving reactors."),
    gauge("nmbst_serve_read_paused_connections", "read_paused_connections",
        int!(Sum, serve.read_paused_connections),
        "Connections read-paused by write-buffer backpressure."),
    gauge("nmbst_serve_write_buffered_bytes", "write_buffered_bytes",
        int!(Sum, serve.write_buffered_bytes),
        "Bytes in not-yet-flushed per-connection write buffers."),
    counter("nmbst_serve_backpressure_events_total", "backpressure_events",
        int!(Sum, serve.backpressure_events),
        "Connections that transitioned into the read-paused state."),
];

impl MetricsSnapshot {
    /// Folds another snapshot into this one, producing the aggregate view
    /// a sharded front end (e.g. `ShardedMap::metrics`) reports for N
    /// independent trees. Each field combines by the merge rule of its
    /// row in the series table (`SNAPSHOT_SERIES`, `obs/metrics.rs`).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        series::merge(SNAPSHOT_SERIES, self, other);
    }

    /// The snapshot as one flat JSON object (fixed key order, no
    /// dependencies — the same hand-rolled dialect as the bench schema).
    /// Latency histograms render as per-op-type summary objects
    /// (`{count, sum, max, p50, p99, p999}`, percentiles computed from
    /// the full-resolution slots); `slow_ops` as the captured count.
    pub fn to_json(&self) -> String {
        series::to_json(SNAPSHOT_SERIES, self)
    }

    /// The snapshot in the Prometheus text exposition format, ready to
    /// serve from a `/metrics` endpoint. Latency renders as one
    /// histogram family with an `op` label per op type, cumulative `le`
    /// buckets at the power-of-two bounds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        series::to_prometheus(SNAPSHOT_SERIES, self, &mut out);
        out
    }
}

/// One `key=value` pair per JSON key, in output order (see
/// [`series::fmt_display`]).
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        series::fmt_display(SNAPSHOT_SERIES, self, f)
    }
}
