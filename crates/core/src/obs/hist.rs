//! Log-bucketed latency histograms: a fixed-memory single-threaded
//! [`Histogram`] (also the snapshot/merge/exposition type) and its
//! sharded relaxed-atomic counterpart [`ConcurrentHistogram`] for
//! recording on live trees.
//!
//! The bucket scheme is HDR-style: [`BUCKETS`] power-of-two buckets,
//! each cut into [`SUBS`] linear sub-buckets, covering `1 ns` to
//! `2^36 - 1 ns` (~69 s) in 576 fixed slots. Within bucket `b` the
//! sub-bucket width is `2^b / 16`, so the worst-case relative error of
//! a reported slot value is `1/16 ≈ 6.7%` — tight enough to gate tail
//! percentiles, small enough that a histogram is 4.6 KiB.
//!
//! Recording is branch-light: one `leading_zeros`, one shift, three
//! counter bumps. The concurrent form stripes its slots across
//! `LAT_SHARDS` shards indexed by the same thread-local shard
//! assignment the operation counters use, so a recording thread bumps
//! lines it already owns; snapshots sum the shards (racy but monotonic,
//! the usual scrape contract). A shard's 576-slot cell is committed on
//! the first sample that lands in it, so memory follows the op classes
//! and threads that actually record: a write-only handle commits two
//! cells (insert and remove, on its own shard), not all ten of a tree.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two bucket.
pub const SUBS: usize = 16;
/// Power-of-two buckets: values are clamped to `1..2^BUCKETS` ns.
pub const BUCKETS: usize = 36;
/// Total histogram slots (`BUCKETS * SUBS`).
pub const SLOTS: usize = BUCKETS * SUBS;

/// Shards in a [`ConcurrentHistogram`]. Latency recording is sampled
/// (see `LatencyConfig`), so it needs far less striping than the per-op
/// counters; two shards keep same-slot contention off the common path
/// without quintupling the footprint.
const LAT_SHARDS: usize = 2;

/// The slot a nanosecond value lands in.
#[inline]
pub(crate) fn index(ns: u64) -> usize {
    let ns = ns.clamp(1, (1u64 << BUCKETS) - 1);
    let bucket = (63 - ns.leading_zeros()) as usize;
    let base = 1u64 << bucket;
    let sub = if bucket == 0 {
        0
    } else {
        (((ns - base) * SUBS as u64) >> bucket) as usize
    };
    bucket * SUBS + sub.min(SUBS - 1)
}

/// The representative (lower-bound) value of a slot.
#[inline]
pub(crate) fn slot_value(idx: usize) -> u64 {
    let bucket = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    let base = 1u64 << bucket;
    base + ((sub << bucket) / SUBS as u64)
}

/// The inclusive upper bound of power-of-two bucket `b` — the `le`
/// boundary its slots aggregate to in Prometheus exposition.
#[inline]
fn bucket_upper_bound(b: usize) -> u64 {
    (1u64 << (b + 1)) - 1
}

fn zeroed_counts() -> Box<[u64; SLOTS]> {
    vec![0u64; SLOTS]
        .into_boxed_slice()
        .try_into()
        .expect("SLOTS-sized box")
}

/// A fixed-memory log-bucketed histogram of nanosecond durations.
///
/// Single-writer; also the *snapshot* type a [`ConcurrentHistogram`]
/// sums into, the *merge* unit sharded snapshots aggregate, and the
/// exposition source for JSON summaries and Prometheus histogram
/// series. ≤6.7% relative slot error (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use nmbst::obs::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for ns in [800, 950, 1_200, 50_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.max(), 50_000);
/// let p50 = h.percentile(50.0);
/// assert!((900..=1_000).contains(&p50), "p50 {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; SLOTS]>,
    total: u64,
    max: u64,
    sum: u128,
}

impl Histogram {
    /// An empty histogram (~4.6 KiB, allocated once).
    pub fn new() -> Self {
        Histogram {
            counts: zeroed_counts(),
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Records one duration in nanoseconds. Zero clamps up to 1 ns;
    /// values ≥ 2^36 ns saturate into the top slot (exact in `sum` and
    /// `max` either way).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
        self.sum += u128::from(ns);
    }

    /// Folds `other` into `self`. Slot counts and sums add exactly;
    /// `max` takes the maximum.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact sum of recorded values in nanoseconds.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The exact mean in nanoseconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at percentile `p` (0 < p ≤ 100), within one slot's
    /// resolution, capped at the exact observed max. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return slot_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// Counts aggregated to the [`BUCKETS`] power-of-two buckets — the
    /// granularity Prometheus exposition uses.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (idx, &count) in self.counts.iter().enumerate() {
            out[idx / SUBS] += count;
        }
        out
    }

    /// One-line human summary in microseconds.
    pub fn summary(&self) -> String {
        if self.total == 0 {
            return "no samples".to_string();
        }
        format!(
            "n={} mean={:.1}µs p50={:.1}µs p99={:.1}µs p999={:.1}µs max={:.1}µs",
            self.total,
            self.mean() / 1_000.0,
            self.percentile(50.0) as f64 / 1_000.0,
            self.percentile(99.0) as f64 / 1_000.0,
            self.percentile(99.9) as f64 / 1_000.0,
            self.max as f64 / 1_000.0,
        )
    }

    /// The compact JSON summary object embedded in `MetricsSnapshot::
    /// to_json` and the server's METRICS reply: count, sum, max, and
    /// the p50/p99/p999 computed from the full-resolution slots (so
    /// scrape consumers never re-derive percentiles from coarse
    /// buckets).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            self.total,
            self.sum,
            self.max,
            self.percentile(50.0),
            self.percentile(99.0),
            self.percentile(99.9),
        )
    }

    /// Appends one Prometheus histogram *series* (cumulative
    /// `_bucket{…,le="…"}` lines at the power-of-two bounds, then
    /// `+Inf`, `_sum`, `_count`) for metric `name` with `labels`
    /// (`key="value"` pairs, comma-separated, or empty). The caller
    /// emits the `# HELP`/`# TYPE` header once per metric name.
    pub fn fmt_prometheus_series(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write as _;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (b, count) in self.bucket_counts().iter().enumerate() {
            cumulative += count;
            // The top bucket saturates (it also holds clamped values),
            // so its bound folds into +Inf rather than claiming 2^36-1.
            if b + 1 < BUCKETS {
                let le = bucket_upper_bound(b);
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
                );
            }
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", self.sum);
            let _ = writeln!(out, "{name}_count {cumulative}");
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum);
            let _ = writeln!(out, "{name}_count{{{labels}}} {cumulative}");
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The slot counters of one [`HistShard`].
type SlotCell = [AtomicU64; SLOTS];

/// Bytes one committed shard cell of a [`ConcurrentHistogram`] occupies
/// (its 576 slot counters).
pub const CELL_BYTES: usize = std::mem::size_of::<SlotCell>();

/// One shard of a [`ConcurrentHistogram`]: its slot cell plus
/// total/sum, all bumped with relaxed `fetch_add`. The cell is a
/// separate allocation (no inter-shard false sharing to pad away),
/// committed by the first record that lands in this shard.
struct HistShard {
    /// Null until the first record; then a leaked `Box<SlotCell>`, freed in
    /// `Drop`.
    cell: AtomicPtr<SlotCell>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    const fn new() -> Self {
        HistShard {
            cell: AtomicPtr::new(std::ptr::null_mut()),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The committed cell, or `None` before the first record.
    #[inline]
    fn cell(&self) -> Option<&SlotCell> {
        // Acquire pairs with the publishing CAS in `commit`: the zeroed
        // counters are visible before the pointer is.
        // SAFETY: non-null only once published, and freed only in Drop.
        unsafe { self.cell.load(Ordering::Acquire).as_ref() }
    }

    /// The cell to record into, committing it on first use.
    #[inline]
    fn cell_or_commit(&self) -> &SlotCell {
        match self.cell() {
            Some(cell) => cell,
            None => self.commit(),
        }
    }

    /// Allocates a zeroed cell and publishes it by CAS; a racing loser
    /// frees its own box and adopts the winner's, so no count is lost.
    #[cold]
    fn commit(&self) -> &SlotCell {
        let cell: Box<[AtomicU64]> = (0..SLOTS).map(|_| AtomicU64::new(0)).collect();
        let cell: Box<SlotCell> = cell.try_into().expect("SLOTS-sized box");
        let fresh = Box::into_raw(cell);
        let won = match self.cell.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` is ours and was never published.
                drop(unsafe { Box::from_raw(fresh) });
                winner
            }
        };
        // SAFETY: published (by us or the winner), freed only in Drop.
        unsafe { &*won }
    }
}

impl Drop for HistShard {
    fn drop(&mut self) {
        let cell = *self.cell.get_mut();
        if !cell.is_null() {
            // SAFETY: a published cell is a `Box` only this shard owns.
            drop(unsafe { Box::from_raw(cell) });
        }
    }
}

/// A concurrent, mergeable, fixed-memory latency histogram: the
/// [`Histogram`] bucket scheme promoted to sharded relaxed-atomic
/// counters. A shard's cell ([`CELL_BYTES`]) is allocated by the first
/// [`record`](ConcurrentHistogram::record) that lands in it, and never
/// again; [`snapshot`](ConcurrentHistogram::snapshot) sums the shards
/// (an uncommitted cell reads as zeros) into a plain [`Histogram`] for
/// percentiles, merging, and exposition.
///
/// # Examples
///
/// ```
/// use nmbst::obs::hist::ConcurrentHistogram;
///
/// let h = ConcurrentHistogram::new();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for ns in 1..=1_000 {
///                 h.record(ns);
///             }
///         });
///     }
/// });
/// let snap = h.snapshot();
/// assert_eq!(snap.len(), 4_000, "relaxed shards lose nothing");
/// ```
pub struct ConcurrentHistogram {
    shards: [HistShard; LAT_SHARDS],
    /// Racy max gauge: common case (not a new max) is one relaxed load.
    max: AtomicU64,
}

impl ConcurrentHistogram {
    /// An empty histogram. It allocates nothing: each shard commits
    /// its [`CELL_BYTES`] cell on the first record that lands in it.
    pub const fn new() -> Self {
        ConcurrentHistogram {
            shards: [HistShard::new(), HistShard::new()],
            max: AtomicU64::new(0),
        }
    }

    /// Records one duration: three relaxed `fetch_add`s on this
    /// thread's shard (assigned by the same round-robin thread-local
    /// the operation counters use) plus a racy max update. The shard's
    /// first record also commits its cell.
    #[inline]
    pub fn record(&self, ns: u64) {
        let shard = &self.shards[super::metrics::my_shard() % LAT_SHARDS];
        shard.cell_or_commit()[index(ns)].fetch_add(1, Ordering::Relaxed);
        shard.total.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Sums the shards into a plain [`Histogram`] — exact once writers
    /// are quiescent, racy-but-monotonic while they are not.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for shard in &self.shards {
            if let Some(cell) = shard.cell() {
                for (dst, src) in h.counts.iter_mut().zip(cell.iter()) {
                    *dst += src.load(Ordering::Relaxed);
                }
            }
            h.total += shard.total.load(Ordering::Relaxed);
            h.sum += u128::from(shard.sum.load(Ordering::Relaxed));
        }
        h.max = self.max.load(Ordering::Relaxed);
        h
    }

    /// Bytes of slot cells committed so far: [`CELL_BYTES`] per shard
    /// that has recorded at least once.
    pub fn cell_bytes(&self) -> u64 {
        let committed = self.shards.iter().filter(|s| s.cell().is_some()).count();
        (committed * CELL_BYTES) as u64
    }
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ConcurrentHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHistogram")
            .field("snapshot", &self.snapshot().summary())
            .finish()
    }
}

/// Per-op-kind latency histograms, as snapshotted into a
/// `MetricsSnapshot` — one [`Histogram`] per [`OpClass`](super::OpClass).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    /// `contains`/`get`/`with_value` calls (sampled).
    pub get: Histogram,
    /// `insert` calls (sampled).
    pub insert: Histogram,
    /// `remove`/`remove_get` calls (sampled).
    pub remove: Histogram,
    /// Whole batch-API calls (`insert_batch`/`remove_batch`/
    /// `get_batch`/`MapHandle::get_many`; one sample
    /// per call, every call).
    pub batch: Histogram,
    /// Whole range-traversal calls (`range_for_each` and everything on
    /// top of it; one sample per call, every call).
    pub range: Histogram,
}

impl LatencySnapshot {
    /// Folds another snapshot in: per-kind histogram merges (counts and
    /// sums exact, max maxed).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.get.merge(&other.get);
        self.insert.merge(&other.insert);
        self.remove.merge(&other.remove);
        self.batch.merge(&other.batch);
        self.range.merge(&other.range);
    }

    /// The per-kind histograms with their exposition labels, in fixed
    /// order.
    pub fn by_class(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("get", &self.get),
            ("insert", &self.insert),
            ("remove", &self.remove),
            ("batch", &self.batch),
            ("range", &self.range),
        ]
    }

    /// Total samples across every op kind.
    pub fn len(&self) -> u64 {
        self.by_class().iter().map(|(_, h)| h.len()).sum()
    }

    /// True when no kind has any samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary(), "no samples");
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(1_000);
        assert_eq!(h.len(), 1);
        assert_eq!(h.max(), 1_000);
        let p50 = h.percentile(50.0);
        assert!((937..=1_000).contains(&p50), "p50 {p50} within one slot");
        assert_eq!(h.percentile(99.9), p50);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        let mut prev = 0;
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p} {v} < previous {prev}");
            assert!(v <= h.max());
            prev = v;
        }
    }

    #[test]
    fn relative_error_within_bucket_resolution() {
        for v in [1u64, 7, 100, 1_000, 65_535, 1_000_000, 123_456_789] {
            let idx = index(v);
            let edge = slot_value(idx);
            assert!(edge <= v, "slot lower bound exceeds value: {edge} > {v}");
            assert!(v - edge <= v / 8, "slot {idx} edge {edge} too far from {v}");
        }
    }

    #[test]
    fn merge_combines_exactly() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=100 {
            a.record(i * 10);
            b.record(i * 1_000);
        }
        let (la, lb) = (a.len(), b.len());
        let (sa, sb) = (a.sum(), b.sum());
        a.merge(&b);
        assert_eq!(a.len(), la + lb, "counts preserved");
        assert_eq!(a.sum(), sa + sb, "sum preserved");
        assert_eq!(a.max(), b.max(), "max maxed");
        assert!(a.percentile(99.0) >= 90_000);
    }

    /// Two populations three decades apart: after a merge the quartiles
    /// land on either side, the tail stays under the exact max, and the
    /// summary renders.
    #[test]
    fn merged_populations_split_at_the_quartiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(10 + i);
            b.record(100_000 + i);
        }
        a.merge(&b);
        assert_eq!(a.len(), 200);
        assert_eq!(a.max(), 100_099);
        assert!(a.percentile(25.0) < 1_000);
        assert!(a.percentile(75.0) > 50_000);
        let p50 = a.percentile(50.0);
        let p99 = a.percentile(99.0);
        assert!(p50 <= p99 && p99 <= a.max());
        assert!(!a.summary().is_empty());
        assert_ne!(a.summary(), "no samples");
    }

    #[test]
    fn zero_and_huge_values_clamp() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.len(), 2);
        assert_eq!(h.max(), u64::MAX, "max is exact even when clamped");
        assert_eq!(h.sum(), u128::from(u64::MAX));
        assert!(h.percentile(1.0) >= 1);
    }

    #[test]
    fn concurrent_histogram_loses_nothing() {
        let h = ConcurrentHistogram::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i + 1);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.len(), 8_000);
        assert_eq!(snap.max(), 8_000);
        let expect_sum: u128 = (1..=8_000u128).sum();
        assert_eq!(snap.sum(), expect_sum, "relaxed shards sum exactly");
    }

    #[test]
    fn cells_are_committed_on_first_record() {
        assert_eq!(CELL_BYTES, SLOTS * 8);
        let h = ConcurrentHistogram::new();
        assert_eq!(h.cell_bytes(), 0, "a fresh histogram commits nothing");
        assert_eq!(h.snapshot(), Histogram::new(), "uncommitted reads as zeros");
        h.record(1_000);
        assert_eq!(h.cell_bytes(), CELL_BYTES as u64, "one shard, one cell");
        h.record(2_000);
        assert_eq!(h.cell_bytes(), CELL_BYTES as u64, "committed once");
        let snap = h.snapshot();
        assert_eq!((snap.len(), snap.max()), (2, 2_000));
    }

    /// Threads that share a shard race its first record: the CAS loser
    /// frees its cell and records into the winner's, so no count is
    /// lost and one cell stays committed per shard.
    #[test]
    fn racing_first_records_of_one_cell_lose_no_count() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_000;
        for _ in 0..50 {
            let h = ConcurrentHistogram::new();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        for ns in 1..=PER_THREAD {
                            h.record(ns);
                        }
                    });
                }
            });
            let snap = h.snapshot();
            assert_eq!(snap.len(), THREADS as u64 * PER_THREAD);
            assert_eq!(snap.bucket_counts().iter().sum::<u64>(), snap.len());
            // Four threads over two shards: at least one shard is shared.
            assert!(h.cell_bytes() <= (LAT_SHARDS * CELL_BYTES) as u64);
        }
    }

    #[test]
    fn bucket_counts_aggregate_slots() {
        let mut h = Histogram::new();
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1_000_000); // bucket 19
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[19], 1);
        assert_eq!(buckets.iter().sum::<u64>(), h.len());
    }

    #[test]
    fn prometheus_series_shape() {
        let mut h = Histogram::new();
        for ns in [10, 100, 1_000] {
            h.record(ns);
        }
        let mut out = String::new();
        h.fmt_prometheus_series(&mut out, "test_ns", "op=\"get\"");
        assert!(out.contains("test_ns_bucket{op=\"get\",le=\"1\"} 0"));
        assert!(out.contains("test_ns_bucket{op=\"get\",le=\"+Inf\"} 3"));
        assert!(out.contains("test_ns_sum{op=\"get\"} 1110"));
        assert!(out.contains("test_ns_count{op=\"get\"} 3"));
        // Unlabelled series omit the braces on _sum/_count.
        let mut bare = String::new();
        h.fmt_prometheus_series(&mut bare, "test_ns", "");
        assert!(bare.contains("test_ns_bucket{le=\"+Inf\"} 3"));
        assert!(bare.contains("test_ns_sum 1110"));
    }

    #[test]
    fn summary_json_is_wellformed() {
        let mut h = Histogram::new();
        h.record(500);
        let json = h.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in ["count", "sum", "max", "p50", "p99", "p999"] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"sum\":500"));
    }
}
