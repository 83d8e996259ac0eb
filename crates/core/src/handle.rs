//! Pin-amortizing operation handles.
//!
//! Every plain-API call pins the reclaimer on entry and unpins on exit.
//! Under EBR a pin is a thread-local registry lookup plus a sequentially
//! consistent fence — cheap, but charged on *every* operation, and the
//! paper's per-op cost model (Table 1) never pays it. A handle hoists
//! that cost out of the loop: it holds one guard and one seek-record
//! scratch across many operations, re-pinning every
//! [`repin_every`](MapHandle::with_repin_every) ops so the global epoch
//! can still advance and retired nodes still get freed.
//!
//! Handles borrow the tree and are single-threaded cursors (with the
//! default [`Ebr`] reclaimer the guard is `!Send`, so the handle is
//! too); clone-free, allocation-free, and safe — every unsafe internal
//! entry point is sealed behind the guard the handle itself manages.

use crate::chaos::{self, Action, Point};
use crate::obs::{self, EventKind, OpClass, PendingLat, PendingOps};
use crate::pool::NodeCache;
use crate::tree::{NmTreeMap, SeekRecord};
use crate::{BatchCmd, BatchVerdict};
use nmbst_reclaim::{Ebr, Reclaim};

/// How many operations a handle performs on one guard before re-pinning,
/// unless overridden with [`MapHandle::with_repin_every`].
///
/// Re-pinning refreshes the thread's announced epoch; until then every
/// node retired anywhere in the tree since the pin stays unreclaimable.
/// 64 keeps that window to a few cache lines of garbage per thread while
/// making the pin cost ~1.5% of its per-op price.
pub const DEFAULT_REPIN_EVERY: u32 = 64;

/// Keys a multi-get ([`MapHandle::get_many`]) looks up, or commands a
/// batch (`ShardedMapHandle::execute_batch`) executes, under one guard
/// before it may re-pin: long calls still let reclamation advance.
pub(crate) const MANY_CHUNK: usize = 256;

/// A pin-amortizing cursor over an [`NmTreeMap`].
///
/// Obtained from [`NmTreeMap::handle`]. All operations take `&mut self`:
/// the handle owns a reusable reclamation guard and seek-record scratch,
/// which is exactly what makes it faster than the plain API in a hot
/// loop. For cross-thread sharing, give each thread its own handle.
///
/// # Examples
///
/// ```
/// use nmbst::NmTreeMap;
///
/// let map: NmTreeMap<u64, u64> = NmTreeMap::new();
/// let mut h = map.handle();
/// for k in 0..1000 {
///     h.insert(k, k * 2);
/// }
/// assert_eq!(h.get(&500), Some(1000));
/// assert!(h.remove(&500));
/// assert!(!h.contains(&500));
/// ```
pub struct MapHandle<'t, K, V, R: Reclaim = Ebr> {
    tree: &'t NmTreeMap<K, V, R>,
    /// `None` only between construction/[`unpin`](Self::unpin) and the
    /// next operation.
    guard: Option<R::Guard<'t>>,
    /// Scratch for the tree's seek phase, reused across operations.
    rec: SeekRecord<K, V>,
    /// Node-allocation cache over the tree's pool: keeps a private stash
    /// of recycled blocks so insert-heavy loops skip the shared free
    /// list. Its `Drop` gives the stash back.
    cache: NodeCache<'t>,
    ops_since_repin: u32,
    repin_every: u32,
    /// Metrics batched in plain fields, flushed into the tree's sharded
    /// counters on re-pin/unpin/drop so the per-op path stays atomic-free.
    pending: PendingOps,
    /// Sampled latency durations batched the same way (flushed into the
    /// tree's concurrent histograms alongside `pending`).
    pending_lat: PendingLat,
    /// `true` while `rec` holds a record produced under the *current*
    /// guard — the validity bit of the batch-op finger. Cleared whenever
    /// the guard is dropped or refreshed ([`unpin`](Self::unpin) /
    /// [`repin`](Self::repin)): `seek_from`'s contract needs the record
    /// and the guard to be continuous, and that is exactly what this
    /// tracks. Set by batch ops after each record-producing seek.
    finger: bool,
}

impl<'t, K, V, R> MapHandle<'t, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    pub(crate) fn new(tree: &'t NmTreeMap<K, V, R>) -> Self {
        MapHandle {
            tree,
            guard: None,
            rec: SeekRecord::empty(),
            cache: tree.handle_cache(),
            ops_since_repin: 0,
            repin_every: DEFAULT_REPIN_EVERY,
            pending: PendingOps::default(),
            pending_lat: PendingLat::default(),
            finger: false,
        }
    }

    /// Sets how many operations run on one guard before the handle
    /// re-pins (default [`DEFAULT_REPIN_EVERY`]). Larger values shave
    /// pin overhead but lengthen the window during which concurrently
    /// retired nodes cannot be reclaimed; `0` re-pins on every op,
    /// reproducing the plain API's behavior.
    pub fn with_repin_every(mut self, ops: u32) -> Self {
        self.repin_every = ops;
        self
    }

    /// The map this handle operates on.
    pub fn tree(&self) -> &'t NmTreeMap<K, V, R> {
        self.tree
    }

    /// Drops the current guard immediately, letting reclamation advance
    /// past this thread. Call before parking or blocking with the handle
    /// still alive; the next operation re-pins transparently.
    pub fn unpin(&mut self) {
        self.guard = None;
        self.finger = false;
        self.ops_since_repin = 0;
        self.flush_pending();
    }

    /// Forces a fresh pin now, regardless of the re-pin interval.
    pub fn repin(&mut self) {
        // Drop the old guard *before* pinning anew: pinning is
        // re-entrant, so a pin taken while the old guard is still alive
        // would inherit — and keep announcing — the stale epoch.
        self.guard = None;
        self.finger = false;
        self.guard = Some(self.tree.reclaim.pin());
        self.ops_since_repin = 0;
        obs::emit(EventKind::Repin);
        self.flush_pending();
    }

    /// Publishes the batched operation counts into the tree's metrics
    /// and the batched pool hit/miss counts into the pool's stats.
    fn flush_pending(&mut self) {
        self.tree.metrics.add_pending(&self.pending);
        self.pending.clear();
        self.tree.metrics.flush_pending_lat(&mut self.pending_lat);
        self.cache.flush_counters();
    }

    /// Publishes this handle's batched operation counts (and node-cache
    /// counters) into the tree's metrics shards *now*, without touching
    /// the guard or the finger.
    ///
    /// Without this, batched counts only reach
    /// [`metrics()`](NmTreeMap::metrics) on re-pin, [`unpin`](Self::unpin)
    /// or drop — so a snapshot can lag a live handle by up to
    /// `repin_every` operations (64 by default), and a handle with a
    /// large budget that never re-pins is invisible for its whole
    /// lifetime. Long-lived workers (e.g. server connection loops) should
    /// call this on a sampling tick; between ticks the staleness bound is
    /// the number of operations since the last flush/re-pin.
    #[inline]
    pub fn flush_stats(&mut self) {
        self.flush_pending();
    }

    /// Charges one operation against the re-pin budget, (re)pinning if
    /// the guard is missing or expired.
    #[inline]
    fn tick(&mut self) {
        if self.guard.is_none() || self.ops_since_repin >= self.repin_every {
            self.repin();
        }
        self.ops_since_repin += 1;
    }

    /// Charges `n` operations against the re-pin budget at once,
    /// (re)pinning first if the guard is missing or expired: the guard a
    /// multi-op call's interleaved descents — and, in a batch, the
    /// writes that act on their records — run under. Nothing re-pins
    /// until the next charge or tick.
    #[inline]
    pub(crate) fn charge(&mut self, n: usize) {
        if self.guard.is_none() || self.ops_since_repin >= self.repin_every {
            self.repin();
        }
        let n32 = u32::try_from(n).unwrap_or(u32::MAX);
        self.ops_since_repin = self.ops_since_repin.saturating_add(n32);
    }

    /// [`charge`](Self::charge) for `n` searches, counted as such.
    #[inline]
    pub(crate) fn charge_searches(&mut self, n: usize) {
        self.charge(n);
        self.pending.searches += n as u64;
    }

    /// Counts a batch run's `searches` GETs and its `lanes` ops that
    /// descend in Phase-1 lanes.
    #[inline]
    pub(crate) fn note_run(&mut self, searches: usize, lanes: usize) {
        self.pending.searches += searches as u64;
        self.pending.batch_lane_ops += lanes as u64;
    }

    /// A GET of a batch run's Phase 2 (one that follows a same-key
    /// write of the run): a plain search under the guard the run was
    /// charged on, already counted by [`note_run`](Self::note_run).
    pub(crate) fn run_get(&mut self, key: &K) -> BatchVerdict<V>
    where
        V: Clone,
    {
        let guard = self.guard.as_ref().expect("pinned by the run's charge");
        // SAFETY: `guard` pins this tree's reclaimer.
        match unsafe { self.tree.with_value_in(key, V::clone, guard) } {
            Some(v) => BatchVerdict::Found(v),
            None => BatchVerdict::Missing,
        }
    }

    /// A write of a batch run's Phase 2 (see
    /// [`ShardedMapHandle::execute_batch`](crate::ShardedMapHandle::execute_batch)),
    /// acting on `rec`, the record its Phase-1 lane produced. If
    /// [`record_holds`](NmTreeMap::record_holds) finds the record stale
    /// — or the [`Point::BatchStale`] chaos point forces it — the write
    /// first re-seeks from the record's anchor.
    ///
    /// # Safety
    ///
    /// `cmd` is an insert or a remove, and `rec` holds a seek for its
    /// key produced under this handle's current guard, not re-pinned
    /// since.
    pub(crate) unsafe fn run_write(
        &mut self,
        cmd: &BatchCmd<K, V>,
        rec: &mut SeekRecord<K, V>,
    ) -> BatchVerdict<V>
    where
        V: Clone,
    {
        let tree = self.tree;
        let guard = self.guard.as_ref().expect("pinned by the run's charge");
        let key = cmd.key();
        // SAFETY (this block): `rec` was produced under `guard`, held
        // continuously since, per the contract.
        unsafe {
            if chaos::hit(Point::BatchStale) == Action::Abandon || !tree.record_holds(key, rec) {
                self.pending.batch_reseeks += 1;
                tree.seek_retry(key, rec);
            }
            match cmd {
                BatchCmd::Insert(k, v) => {
                    let added =
                        tree.insert_seeked(k.clone(), v.clone(), guard, rec, &mut self.cache);
                    self.pending.inserts += 1;
                    self.pending.inserted += u64::from(added);
                    BatchVerdict::Added(added)
                }
                BatchCmd::Remove(k) => {
                    let removed = tree
                        .remove_seeked(k, |_| (), guard, rec, &mut self.cache)
                        .is_some();
                    self.pending.removes += 1;
                    self.pending.removed += u64::from(removed);
                    BatchVerdict::Removed(removed)
                }
                BatchCmd::Get(_) => unreachable!("GETs go through run_get"),
            }
        }
    }

    /// [`NmTreeMap::insert`] through this handle's guard.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.tick();
        let t = self.tree.metrics.op_timer_buffered(&mut self.pending_lat);
        let guard = self.guard.as_ref().expect("pinned by tick");
        // SAFETY: `guard` pins this tree's reclaimer (pinned from
        // `self.tree` in `repin`) and lives across the call; `rec` is
        // scratch; `cache` was built over this tree's pool.
        let added = unsafe {
            self.tree
                .insert_in(key, value, guard, &mut self.rec, &mut self.cache)
        };
        self.pending.inserts += 1;
        self.pending.inserted += u64::from(added);
        self.tree
            .metrics
            .op_finish_buffered(OpClass::Insert, t, &mut self.pending_lat);
        added
    }

    /// [`NmTreeMap::remove`] through this handle's guard.
    #[inline]
    pub fn remove(&mut self, key: &K) -> bool {
        self.tick();
        let t = self.tree.metrics.op_timer_buffered(&mut self.pending_lat);
        let guard = self.guard.as_ref().expect("pinned by tick");
        // SAFETY: as in `insert`.
        let removed = unsafe {
            self.tree
                .remove_in(key, |_| (), guard, &mut self.rec, &mut self.cache)
        }
        .is_some();
        self.pending.removes += 1;
        self.pending.removed += u64::from(removed);
        self.tree
            .metrics
            .op_finish_buffered(OpClass::Remove, t, &mut self.pending_lat);
        removed
    }

    /// [`NmTreeMap::remove_get`] through this handle's guard.
    #[inline]
    pub fn remove_get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.tick();
        let t = self.tree.metrics.op_timer_buffered(&mut self.pending_lat);
        let guard = self.guard.as_ref().expect("pinned by tick");
        // SAFETY: as in `insert`.
        let removed = unsafe {
            self.tree
                .remove_in(key, V::clone, guard, &mut self.rec, &mut self.cache)
        };
        self.pending.removes += 1;
        self.pending.removed += u64::from(removed.is_some());
        self.tree
            .metrics
            .op_finish_buffered(OpClass::Remove, t, &mut self.pending_lat);
        removed
    }

    /// [`NmTreeMap::contains`] through this handle's guard.
    #[inline]
    pub fn contains(&mut self, key: &K) -> bool {
        self.tick();
        let t = self.tree.metrics.op_timer_buffered(&mut self.pending_lat);
        let guard = self.guard.as_ref().expect("pinned by tick");
        self.pending.searches += 1;
        // SAFETY: as in `insert`.
        let found = unsafe { self.tree.contains_in(key, guard) };
        self.tree
            .metrics
            .op_finish_buffered(OpClass::Get, t, &mut self.pending_lat);
        found
    }

    /// [`NmTreeMap::with_value`] through this handle's guard.
    #[inline]
    pub fn with_value<T>(&mut self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.tick();
        let t = self.tree.metrics.op_timer_buffered(&mut self.pending_lat);
        let guard = self.guard.as_ref().expect("pinned by tick");
        self.pending.searches += 1;
        // SAFETY: as in `insert`.
        let out = unsafe { self.tree.with_value_in(key, f, guard) };
        self.tree
            .metrics
            .op_finish_buffered(OpClass::Get, t, &mut self.pending_lat);
        out
    }

    /// [`NmTreeMap::get`] through this handle's guard.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.with_value(key, V::clone)
    }

    /// Inserts every pair of `items`, returning how many keys were added.
    ///
    /// The batch is stable-sorted by key first, then each op descends
    /// from the previous op's seek record — the *finger* — when it
    /// revalidates (the same anchor check as the local-restart seek; see
    /// DESIGN.md), from the root otherwise. Sorted neighbors share most
    /// of their access path, so
    /// the amortized descent is O(1 + log of the inter-key distance)
    /// instead of O(log n). Semantics are identical to calling
    /// [`insert`](Self::insert) on each pair in input order: duplicate
    /// keys keep the first occurrence (stable sort preserves input order
    /// among equals; later ones are rejected by the tree).
    ///
    /// Finger hits and misses are counted in the tree's metrics
    /// ([`MetricsSnapshot::finger_hits`](crate::obs::MetricsSnapshot)).
    ///
    /// # Examples
    ///
    /// ```
    /// use nmbst::NmTreeMap;
    ///
    /// let map: NmTreeMap<u64, u64> = NmTreeMap::new();
    /// let mut h = map.handle();
    /// assert_eq!(h.insert_batch((0..100).map(|k| (k, k * 2))), 100);
    /// assert_eq!(h.get(&42), Some(84));
    /// ```
    pub fn insert_batch(&mut self, items: impl IntoIterator<Item = (K, V)>) -> usize {
        // Whole-call timing: the one clock pair covers the sort too.
        let timer = self.tree.metrics.call_timer();
        let mut items: Vec<(K, V)> = items.into_iter().collect();
        // Already-ascending input — the common bulk-ingest shape — skips
        // the sort; equal neighbors are fine (first one wins either way).
        if !items.windows(2).all(|w| w[0].0 <= w[1].0) {
            items.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let added = items
            .into_iter()
            .map(|(key, value)| usize::from(self.insert_fingered(key, value)))
            .sum();
        self.tree.metrics.op_finish(OpClass::Batch, timer);
        added
    }

    /// Removes every key of `keys`, returning how many were present.
    /// Sorted and finger-anchored like [`insert_batch`](Self::insert_batch).
    ///
    /// Removes re-anchor on the splice's surviving sibling, so their
    /// finger hit rate is workload-dependent (a survivor that is a leaf
    /// cannot anchor a descent and the next op pays a root seek).
    pub fn remove_batch(&mut self, keys: impl IntoIterator<Item = K>) -> usize {
        let timer = self.tree.metrics.call_timer();
        let mut keys: Vec<K> = keys.into_iter().collect();
        if !keys.is_sorted() {
            keys.sort();
        }
        let removed = keys
            .iter()
            .map(|key| usize::from(self.remove_fingered(key)))
            .sum();
        self.tree.metrics.op_finish(OpClass::Batch, timer);
        removed
    }

    /// [`get_many`](Self::get_many) over owned keys: the values come
    /// back **in input order**.
    pub fn get_batch(&mut self, keys: impl IntoIterator<Item = K>) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let keys: Vec<K> = keys.into_iter().collect();
        let mut out = Vec::new();
        self.get_many(&keys, &mut out);
        out
    }

    /// Looks up every key of `keys` with interleaved descents: `out` is
    /// cleared and receives one answer per key, in input order.
    ///
    /// Up to 16 descents advance round-robin, one tree level per turn,
    /// and each prefetches the child it reads next, so the cache misses
    /// of different keys overlap instead of queueing one behind another
    /// (DESIGN.md §16). Each answer is what [`get`](Self::get) would
    /// return at some instant inside the call; each key counts as one
    /// search in the tree's metrics, and the whole call is one
    /// [`OpClass::Batch`] latency sample. Nothing is sorted, no finger
    /// is used, and nothing is allocated beyond `out`'s capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use nmbst::NmTreeMap;
    ///
    /// let map: NmTreeMap<u64, u64> = NmTreeMap::new();
    /// let mut h = map.handle();
    /// h.insert(1, 10);
    /// h.insert(3, 30);
    /// let mut out = Vec::new();
    /// h.get_many(&[3, 2, 1], &mut out);
    /// assert_eq!(out, vec![Some(30), None, Some(10)]);
    /// ```
    pub fn get_many(&mut self, keys: &[K], out: &mut Vec<Option<V>>)
    where
        V: Clone,
    {
        out.clear();
        out.resize_with(keys.len(), || None);
        let timer = self.tree.metrics.call_timer();
        for chunk in (0..keys.len()).step_by(MANY_CHUNK) {
            let keys = &keys[chunk..keys.len().min(chunk + MANY_CHUNK)];
            self.charge_searches(keys.len());
            let tree = self.tree;
            let out = &mut out[chunk..];
            // SAFETY: `charge_searches` left this tree's reclaimer pinned
            // by `self.guard`, which nothing drops before the call ends.
            unsafe {
                crate::tree::descend_many(
                    keys.len(),
                    &mut [],
                    |i| (tree, &keys[i]),
                    |i, v| out[i] = v.cloned(),
                )
            };
        }
        self.tree.metrics.op_finish(OpClass::Batch, timer);
    }

    /// One finger-anchored insert: the batch loop body.
    #[inline]
    fn insert_fingered(&mut self, key: K, value: V) -> bool {
        self.tick();
        let finger = self.finger;
        let guard = self.guard.as_ref().expect("pinned by tick");
        // SAFETY: as in `insert`; `finger` is true only while `rec` holds
        // a record produced under the current guard (cleared on repin).
        let (added, hit) = unsafe {
            let hit = self.tree.seek_finger(&key, &mut self.rec, finger);
            let added = self
                .tree
                .insert_seeked(key, value, guard, &mut self.rec, &mut self.cache);
            (added, hit)
        };
        self.finger = true;
        self.pending.inserts += 1;
        self.pending.inserted += u64::from(added);
        self.note_finger(hit);
        added
    }

    /// One finger-anchored remove: the batch loop body.
    #[inline]
    fn remove_fingered(&mut self, key: &K) -> bool {
        self.tick();
        let finger = self.finger;
        let guard = self.guard.as_ref().expect("pinned by tick");
        // SAFETY: as in `insert_fingered`.
        let (removed, hit) = unsafe {
            let hit = self.tree.seek_finger(key, &mut self.rec, finger);
            let removed =
                self.tree
                    .remove_seeked(key, |_| (), guard, &mut self.rec, &mut self.cache);
            (removed, hit)
        };
        self.finger = true;
        self.pending.removes += 1;
        self.pending.removed += u64::from(removed.is_some());
        self.note_finger(hit);
        removed.is_some()
    }

    #[inline]
    fn note_finger(&mut self, hit: bool) {
        self.pending.finger_hits += u64::from(hit);
        self.pending.finger_misses += u64::from(!hit);
    }
}

impl<K, V, R: Reclaim> Drop for MapHandle<'_, K, V, R> {
    fn drop(&mut self) {
        // Flush the batched metrics; a handle abandoned without a final
        // unpin/repin must not lose its counts (or latency samples).
        self.tree.metrics.add_pending(&self.pending);
        self.tree.metrics.flush_pending_lat(&mut self.pending_lat);
    }
}

impl<K, V, R> std::fmt::Debug for MapHandle<'_, K, V, R>
where
    R: Reclaim,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapHandle")
            .field("pinned", &self.guard.is_some())
            .field("ops_since_repin", &self.ops_since_repin)
            .field("repin_every", &self.repin_every)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::MANY_CHUNK;
    use crate::NmTreeMap;
    use nmbst_reclaim::{Ebr, Leaky};

    #[test]
    fn handle_matches_plain_api_semantics() {
        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        let mut h = map.handle();
        assert!(h.insert(1, 10));
        assert!(!h.insert(1, 11)); // duplicate rejected
        assert_eq!(h.get(&1), Some(10));
        assert_eq!(h.with_value(&1, |v| v + 1), Some(11));
        assert!(h.contains(&1));
        assert_eq!(h.remove_get(&1), Some(10));
        assert!(!h.remove(&1));
        assert!(!h.contains(&1));
        // The plain API sees the handle's effects and vice versa.
        map.insert(2, 20);
        assert_eq!(h.get(&2), Some(20));
        h.insert(3, 30);
        assert_eq!(map.get(&3), Some(30));
    }

    #[test]
    fn handle_model_check_with_aggressive_repin() {
        // repin_every = 0 re-pins on every op; interleave handle and
        // plain-API calls against a model.
        let mut model = std::collections::BTreeSet::new();
        let map: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        let mut h = map.handle().with_repin_every(0);
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for i in 0..4000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 64;
            let via_handle = i % 2 == 0;
            match state % 3 {
                0 => {
                    let got = if via_handle {
                        h.insert(key, ())
                    } else {
                        map.insert(key, ())
                    };
                    assert_eq!(got, model.insert(key), "insert {key}");
                }
                1 => {
                    let got = if via_handle {
                        h.remove(&key)
                    } else {
                        map.remove(&key)
                    };
                    assert_eq!(got, model.remove(&key), "remove {key}");
                }
                _ => {
                    let got = if via_handle {
                        h.contains(&key)
                    } else {
                        map.contains(&key)
                    };
                    assert_eq!(got, model.contains(&key), "contains {key}");
                }
            }
        }
    }

    /// The interleaved multi-get answers every key like `get`, in input
    /// order: hits, misses, duplicates, an empty tree, an empty call, a
    /// call longer than one guard's chunk, fat and one-key leaves. Each
    /// key counts as one search.
    #[test]
    fn get_many_matches_get_in_input_order() {
        for leaf_cap in [1, crate::LEAF_CAP] {
            let map: NmTreeMap<u64, u64, Ebr> =
                NmTreeMap::with_config(crate::TreeConfig::default().with_leaf_cap(leaf_cap));
            let mut h = map.handle();
            let mut out = vec![Some(7)];
            h.get_many(&[1, 2], &mut out);
            assert_eq!(out, vec![None, None], "empty tree");
            let mut state = 0x2545_F491_4F6C_DD1D_u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..3_000 {
                let k = next() % 8_192;
                h.insert(k, k * 3);
            }
            let keys: Vec<u64> = (0..MANY_CHUNK * 3 + 17).map(|_| next() % 10_000).collect();
            let before = {
                h.flush_stats();
                map.metrics().searches
            };
            h.get_many(&keys, &mut out);
            let expect: Vec<Option<u64>> = keys.iter().map(|k| map.get(k)).collect();
            assert_eq!(out, expect, "leaf_cap {leaf_cap}");
            assert!(out.iter().any(Option::is_none) && out.iter().any(Option::is_some));
            h.flush_stats();
            // `map.get` above counted one search per key as well.
            assert_eq!(map.metrics().searches - before, 2 * keys.len() as u64);
            h.get_many(&[], &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn unit_value_handle_round_trip() {
        let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
        let mut h = set.handle();
        for k in 0..100 {
            assert!(h.insert(k, ()));
        }
        for k in 0..100 {
            assert!(h.contains(&k));
        }
        for k in (0..100).step_by(2) {
            assert!(h.remove(&k));
        }
        h.unpin();
        for k in 0..100 {
            assert_eq!(h.contains(&k), k % 2 == 1);
        }
        assert_eq!(set.count(), 50);
    }

    #[test]
    fn batch_ops_match_model() {
        // Batches against a BTreeMap model: duplicates, unsorted input,
        // overlap between insert and remove batches.
        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        let mut model = std::collections::BTreeMap::new();
        let mut h = map.handle();

        let items: Vec<(u64, u64)> = vec![(5, 50), (1, 10), (9, 90), (1, 11), (3, 30), (5, 51)];
        let mut added = 0;
        for (k, v) in &items {
            if !model.contains_key(k) {
                model.insert(*k, *v);
                added += 1;
            }
        }
        assert_eq!(h.insert_batch(items), added);
        assert_eq!(h.get(&1), Some(10), "first duplicate wins");
        assert_eq!(h.get(&5), Some(50));

        assert_eq!(h.insert_batch((0..32).map(|k| (k, k))), 32 - model.len());
        for k in 0..32 {
            model.entry(k).or_insert(k);
        }

        let doomed: Vec<u64> = vec![31, 2, 2, 19, 100];
        let mut removed = 0;
        for k in &doomed {
            removed += usize::from(model.remove(k).is_some());
        }
        assert_eq!(h.remove_batch(doomed), removed);

        // get_batch answers in INPUT order even though lookups run
        // sorted.
        let probes: Vec<u64> = vec![9, 0, 100, 2, 31, 5];
        let got = h.get_batch(probes.clone());
        let want: Vec<Option<u64>> = probes.iter().map(|k| model.get(k).copied()).collect();
        assert_eq!(got, want);

        drop(h);
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(*v));
        }
        assert_eq!(map.count(), model.len());
    }

    #[test]
    fn batch_finger_hits_are_counted() {
        let map: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        {
            let mut h = map.handle();
            assert_eq!(h.insert_batch((0..200).map(|k| (k, ()))), 200);
        }
        let m = map.metrics();
        assert!(
            m.finger_hits > 100,
            "sorted batch must mostly ride the finger: {} hits / {} misses",
            m.finger_hits,
            m.finger_misses
        );
        assert_eq!(m.finger_hits + m.finger_misses, 200);
    }

    /// [`Action::Abandon`] at [`Point::BatchFinger`] is a *forced miss*,
    /// not an abandoned op: every operation must still complete with
    /// identical results, only the descent anchoring changes. This pins
    /// the chaos point's semantics deterministically.
    #[cfg(feature = "chaos")]
    #[test]
    fn batch_finger_abandon_forces_root_descents_only() {
        use crate::chaos::{self, Action, Point};
        use std::cell::Cell;
        use std::rc::Rc;

        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        let arrivals = Rc::new(Cell::new(0u32));
        let arrivals2 = Rc::clone(&arrivals);
        {
            // A repin would clear the finger mid-run (correct, but it
            // would make the arrival count below depend on the default
            // repin cadence); push it past the test's op count.
            let mut h = map.handle().with_repin_every(1_000);
            chaos::with_hook(
                move |p| {
                    if p == Point::BatchFinger {
                        arrivals2.set(arrivals2.get() + 1);
                        return Action::Abandon;
                    }
                    Action::Continue
                },
                || {
                    assert_eq!(h.insert_batch((0..64).map(|k| (k, k))), 64);
                    assert_eq!(h.remove_batch(0..10), 10);
                    assert_eq!(
                        h.get_batch(vec![5, 15]),
                        vec![None, Some(15)],
                        "ops are never abandoned, only their finger"
                    );
                },
            );
        }
        // The first op of the fresh handle has no finger; every later
        // write reaches the point (`get_batch` descends in lanes, with
        // no finger). 64 + 10 writes → 73 arrivals.
        assert_eq!(arrivals.get(), 73);
        let m = map.metrics();
        assert_eq!(m.finger_hits, 0, "every finger was abandoned");
        assert_eq!(m.finger_misses, 74);
        assert_eq!(m.size_estimate, 54);
    }

    #[test]
    fn concurrent_handles_one_per_thread() {
        let map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle().with_repin_every(16);
                    for i in 0..1000 {
                        let k = t * 1000 + i;
                        assert!(h.insert(k, k));
                        assert_eq!(h.get(&k), Some(k));
                        if i % 3 == 0 {
                            assert!(h.remove(&k));
                        }
                    }
                });
            }
        });
        let mut expected = 0;
        for t in 0..4u64 {
            for i in 0..1000u64 {
                let present = map.contains(&(t * 1000 + i));
                assert_eq!(present, i % 3 != 0);
                expected += usize::from(present);
            }
        }
        assert_eq!(map.count(), expected);
    }
}
