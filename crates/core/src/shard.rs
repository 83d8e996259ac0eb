//! Sharded front ends: N independent trees behind a cheap hash router.
//!
//! The serving tier's unit of scale. One [`NmTreeMap`] already scales
//! with readers, but every writer ultimately contends on the same hot
//! region of one tree, and every descent walks one shared root. Sharding
//! by key hash splits the key space across `N` independent trees so hot
//! keys land in different trees, roots stay in different cache lines,
//! and each server worker can keep a *pinned per-shard handle* whose
//! seek-record and node-cache scratch stay in that worker's core cache —
//! the locality ELB-Trees (Bonnichsen et al.) buys with fat leaves, here
//! bought one layer up.
//!
//! The router is a multiplicative hash (an FxHash-style folded
//! multiply, finished with a SplitMix64 mix) reduced onto `0..N` with
//! the high-bits range reduction `(h * N) >> 64` — no modulo, no
//! dependence on `N` being a power of two. Routing is deterministic
//! across threads and processes for a given key type and shard count,
//! which is what lets a future partitioned server agree on placement.
//!
//! Ordered views (`range_for_each`, `keys`, `for_each`) are *merged*
//! across shards: each shard's snapshot is weakly consistent exactly as
//! documented on [`NmTreeMap::range_for_each`], and shards are sampled
//! one after another, so cross-shard consistency is also weak. Every key
//! present in its shard for the entire call is still reported exactly
//! once, in ascending order.

use crate::handle::MANY_CHUNK;
use crate::obs::{MetricsSnapshot, OpClass};
use crate::tree::{descend_many, NmTreeMap, SeekRecord, TreeConfig, TreeShape};
use crate::MapHandle;
use nmbst_reclaim::{Ebr, Reclaim};
use std::hash::{Hash, Hasher};
use std::ops::{Bound, ControlFlow, RangeBounds};

/// Shard count used by [`ShardedMap::new`]. Eight matches the metrics
/// facade's counter striping: enough that a thread-per-core server on a
/// small box gets one tree per worker, small enough that merged
/// snapshots stay trivial.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// FxHash's multiplicative constant (a 64-bit truncation of π's golden
/// spiral) — the "cheap multiply" half of the router.
const ROUTE_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The router's hasher: a folded-multiply accumulator over whatever the
/// key's `Hash` impl writes, finished with a SplitMix64-style avalanche
/// so the *high* bits (the ones the range reduction keeps) depend on
/// every input bit. Integer keys hash in two multiplies.
struct RouteHasher(u64);

impl RouteHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(ROUTE_K);
    }
}

impl Hasher for RouteHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail) | 1 << 63);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.fold(n as u64);
        self.fold((n >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: spreads the multiply's entropy (which
        // concentrates in the middle bits) into the high bits.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Routes a key hash onto `0..shards` by multiplying into the high word
/// — Lemire's range reduction, one multiply instead of a modulo.
#[inline]
fn reduce(hash: u64, shards: usize) -> usize {
    ((hash as u128 * shards as u128) >> 64) as usize
}

/// A hash-sharded collection of [`NmTreeMap`]s behind one map-shaped
/// front end — the store the serving tier (`nmbst-server`) runs.
///
/// Point operations route to exactly one shard and inherit that tree's
/// linearizability; there are **no cross-shard transactions**, and
/// multi-key views (`metrics`, `count`, ranges) compose the per-shard
/// weak-consistency contracts. Hot loops should go through
/// [`handle()`](Self::handle), which keeps one pinned [`MapHandle`] per
/// shard.
///
/// # Examples
///
/// ```
/// use nmbst::ShardedMap;
///
/// let map: ShardedMap<u64, u64> = ShardedMap::with_shards(4);
/// let mut h = map.handle();
/// for k in 0..100 {
///     h.insert(k, k * 10);
/// }
/// assert_eq!(h.get(&42), Some(420));
/// drop(h);
/// assert_eq!(map.metrics().inserted, 100);
/// ```
pub struct ShardedMap<K, V, R: Reclaim = Ebr> {
    shards: Box<[NmTreeMap<K, V, R>]>,
}

impl<K, V, R> ShardedMap<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// A sharded map with [`DEFAULT_SHARD_COUNT`] default-configured
    /// trees.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARD_COUNT)
    }

    /// A sharded map with `shards` default-configured trees. The shard
    /// count is fixed for the map's lifetime — it is part of the routing
    /// function. Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(shards, TreeConfig::default())
    }

    /// A sharded map whose every tree runs the given [`TreeConfig`].
    /// Panics if `shards` is zero.
    pub fn with_config(shards: usize, config: TreeConfig) -> Self {
        assert!(shards > 0, "a sharded map needs at least one shard");
        ShardedMap {
            shards: (0..shards)
                .map(|_| NmTreeMap::with_config(config))
                .collect(),
        }
    }

    /// The number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to. Deterministic for a given key
    /// type and shard count.
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        let mut h = RouteHasher(0);
        key.hash(&mut h);
        reduce(h.finish(), self.shards.len())
    }

    /// Direct access to one shard's tree (diagnostics, per-shard
    /// metrics). Writing through this bypasses nothing — the shard *is*
    /// a plain tree — but keys inserted into the wrong shard are
    /// invisible to routed reads, so mutate only via the routed API.
    pub fn shard(&self, idx: usize) -> &NmTreeMap<K, V, R> {
        &self.shards[idx]
    }

    /// A per-worker cursor holding one pinned [`MapHandle`] per shard.
    pub fn handle(&self) -> ShardedMapHandle<'_, K, V, R> {
        ShardedMapHandle {
            map: self,
            handles: self.shards.iter().map(|t| t.handle()).collect(),
            recs: Vec::new(),
        }
    }

    /// Routed [`NmTreeMap::insert`].
    #[inline]
    pub fn insert(&self, key: K, value: V) -> bool {
        self.shards[self.shard_of(&key)].insert(key, value)
    }

    /// Routed [`NmTreeMap::remove`].
    #[inline]
    pub fn remove(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].remove(key)
    }

    /// Routed [`NmTreeMap::contains`].
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].contains(key)
    }

    /// Routed [`NmTreeMap::with_value`].
    #[inline]
    pub fn with_value<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.shards[self.shard_of(key)].with_value(key, f)
    }

    /// Routed [`NmTreeMap::get`].
    #[inline]
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Routed [`NmTreeMap::remove_get`].
    #[inline]
    pub fn remove_get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shards[self.shard_of(key)].remove_get(key)
    }

    /// Visits every pair in ascending key order by merging per-shard
    /// range snapshots; see [`Self::range_for_each`] for the consistency
    /// contract.
    pub fn for_each(&self, f: impl FnMut(&K, &V))
    where
        V: Clone,
    {
        self.range_for_each(.., f)
    }

    /// Visits every pair in `range` in ascending key order.
    ///
    /// Each shard is snapshotted with [`NmTreeMap::range_collect`]
    /// (weakly consistent under concurrent writers, every stable key
    /// exactly once), one shard after another, and the snapshots are
    /// merged before `f` runs — so `f` observes a sorted view that never
    /// blocks writers but may interleave shard states from slightly
    /// different times.
    pub fn range_for_each<Q: RangeBounds<K>>(&self, range: Q, mut f: impl FnMut(&K, &V))
    where
        V: Clone,
    {
        for (k, v) in self.range_collect(range) {
            f(&k, &v);
        }
    }

    /// Collects `range` across all shards into one ascending `Vec`; the
    /// allocation behind [`Self::range_for_each`].
    pub fn range_collect<Q: RangeBounds<K>>(&self, range: Q) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.range_collect_limit(range, usize::MAX)
    }

    /// The first `limit` pairs of `range`, ascending — what
    /// [`Self::range_collect`] returns, truncated, without materializing
    /// the rest: each shard's walk stops after `limit` pairs. Shards
    /// partition the key space, so the global first `limit` keys are
    /// among the per-shard first `limit`.
    pub fn range_collect_limit<Q: RangeBounds<K>>(&self, range: Q, limit: usize) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let lo: Bound<K> = range.start_bound().cloned();
        let hi: Bound<K> = range.end_bound().cloned();
        let mut merged: Vec<(K, V)> = Vec::new();
        for tree in self.shards.iter() {
            let mut taken = 0;
            tree.range_walk((lo.clone(), hi.clone()), |k, v| {
                if taken == limit {
                    return ControlFlow::Break(());
                }
                merged.push((k.clone(), v.clone()));
                taken += 1;
                ControlFlow::Continue(())
            });
        }
        // Shards partition the key space, so per-shard ascending runs
        // never share keys; an unstable sort by key is a pure merge.
        merged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        merged.truncate(limit);
        merged
    }

    /// Sums [`NmTreeMap::count`] across shards (snapshot, each shard
    /// weakly consistent).
    pub fn count(&self) -> usize {
        self.shards.iter().map(|t| t.count()).sum()
    }

    /// Whether every shard is empty (racy under writers, like
    /// [`NmTreeMap::is_empty`]).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|t| t.is_empty())
    }

    /// Exact live-key count across shards (`&mut self` = quiescent).
    pub fn len(&mut self) -> usize {
        self.shards.iter_mut().map(|t| t.len()).sum()
    }

    /// Every key, ascending, across shards (`&mut self` = quiescent).
    pub fn keys(&mut self) -> Vec<K> {
        let mut all: Vec<K> = Vec::new();
        for tree in self.shards.iter_mut() {
            all.extend(tree.keys());
        }
        all.sort_unstable();
        all
    }

    /// Empties every shard (`&mut self` = quiescent).
    pub fn clear(&mut self) {
        for tree in self.shards.iter_mut() {
            tree.clear();
        }
    }

    /// Bulk-loads `pairs` by routing each to its shard and running the
    /// per-shard bulk extend (balanced build into vacant
    /// shards, finger-batched inserts otherwise). First occurrence of a
    /// duplicate key wins, matching `insert` against a vacant map.
    pub fn bulk_extend(&mut self, pairs: Vec<(K, V)>) {
        let mut routed: Vec<Vec<(K, V)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (k, v) in pairs {
            routed[self.shard_of(&k)].push((k, v));
        }
        for (tree, pairs) in self.shards.iter_mut().zip(routed) {
            tree.bulk_extend(pairs);
        }
    }

    /// Runs [`NmTreeMap::check_invariants`] on every shard, returning
    /// the per-shard shapes or the first shard's failure (prefixed with
    /// its index).
    pub fn check_invariants(&mut self) -> Result<Vec<TreeShape>, String> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(i, t)| t.check_invariants().map_err(|e| format!("shard {i}: {e}")))
            .collect()
    }

    /// One [`MetricsSnapshot`] aggregated over all shards with
    /// [`MetricsSnapshot::merge`] — what the server's METRICS verb
    /// serves. Sums are exact at quiescence; each shard is sampled
    /// independently. The aggregate starts from the first shard's
    /// snapshot, so a minimum never folds in a default zero.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut shards = self.shards.iter().map(|tree| tree.metrics());
        let mut agg = shards.next().expect("a sharded map has at least one shard");
        for snap in shards {
            agg.merge(&snap);
        }
        agg
    }

    /// [`NmTreeMap::flush`] on every shard's reclaimer.
    pub fn flush(&self) {
        for tree in self.shards.iter() {
            tree.flush();
        }
    }
}

impl<K, V, R> Default for ShardedMap<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, R: Reclaim> std::fmt::Debug for ShardedMap<K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// One operation of a mixed batch, executed by
/// [`ShardedMapHandle::execute_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchCmd<K, V> {
    /// Look the key up.
    Get(K),
    /// Insert the pair (rejected if the key is present).
    Insert(K, V),
    /// Remove the key.
    Remove(K),
}

impl<K, V> BatchCmd<K, V> {
    /// The key this command operates on.
    #[inline]
    pub fn key(&self) -> &K {
        match self {
            BatchCmd::Get(k) | BatchCmd::Remove(k) => k,
            BatchCmd::Insert(k, _) => k,
        }
    }
}

/// The result of one [`BatchCmd`], index-aligned with the command list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchVerdict<V> {
    /// `Get` found the key, carrying its value.
    Found(V),
    /// `Get` did not find the key.
    Missing,
    /// `Insert` ran; `true` iff the key was newly added.
    Added(bool),
    /// `Remove` ran; `true` iff the key was present.
    Removed(bool),
}

/// Reusable scratch for [`ShardedMapHandle::execute_batch`]: the
/// per-shard runs and the two phases' op lists, capacity retained
/// across calls so a steady-state caller never re-allocates.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// The shard each chunk position routes to, hashed once by the
    /// partition and read again by the Phase-1 lanes.
    shard: Vec<u32>,
    /// Chunk positions per shard, sorted by `(key, position)`; a GET
    /// that follows a same-key write of its run carries [`LATE`], one
    /// that follows a same-key Phase-1 GET carries [`DUP`].
    runs: Vec<Vec<u32>>,
    /// Phase-1 GETs: chunk positions the pass's search lanes answer.
    gets: Vec<u32>,
    /// Writes, shard by shard in run order: `writes[i]` acts on the
    /// `i`-th Phase-1 seek record.
    writes: Vec<u32>,
}

/// Run-entry bit of a GET that waits for Phase 2 because an earlier
/// write of its run has the same key. Chunk positions stay below
/// [`MANY_CHUNK`], far under it.
const LATE: u32 = 1 << 31;

/// Run-entry bit of a GET whose run has an earlier same-key GET and no
/// same-key write between them: it takes no lane and copies that GET's
/// verdict, so equal-key reads answer alike and in input order.
const DUP: u32 = 1 << 30;

impl BatchScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Clears every list and makes sure one run exists per shard.
    fn reset(&mut self, shards: usize) {
        for run in self.runs.iter_mut() {
            run.clear();
        }
        if self.runs.len() < shards {
            self.runs.resize_with(shards, Vec::new);
        }
        self.shard.clear();
        self.gets.clear();
        self.writes.clear();
    }
}

/// A per-worker cursor over a [`ShardedMap`]: one pin-amortizing
/// [`MapHandle`] per shard, so a worker's descents into any shard reuse
/// that shard's guard, seek scratch, and node cache. Single-threaded
/// like the handles it wraps — give each worker its own.
pub struct ShardedMapHandle<'t, K, V, R: Reclaim = Ebr> {
    map: &'t ShardedMap<K, V, R>,
    handles: Box<[MapHandle<'t, K, V, R>]>,
    /// [`Self::execute_batch`]'s Phase-1 seek records, one per write of
    /// a chunk; capacity retained across calls.
    recs: Vec<SeekRecord<K, V>>,
}

impl<'t, K, V, R> ShardedMapHandle<'t, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// The sharded map this cursor operates on.
    pub fn map(&self) -> &'t ShardedMap<K, V, R> {
        self.map
    }

    /// Borrows the pinned handle for one shard (index-aligned with the
    /// router); escape hatch for shard-aware callers.
    pub fn shard_handle(&mut self, idx: usize) -> &mut MapHandle<'t, K, V, R> {
        &mut self.handles[idx]
    }

    #[inline]
    fn route(&mut self, key: &K) -> &mut MapHandle<'t, K, V, R> {
        let idx = self.map.shard_of(key);
        &mut self.handles[idx]
    }

    /// Routed [`MapHandle::insert`].
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.route(&key).insert(key, value)
    }

    /// Routed [`MapHandle::remove`].
    #[inline]
    pub fn remove(&mut self, key: &K) -> bool {
        self.route(key).remove(key)
    }

    /// Routed [`MapHandle::remove_get`].
    #[inline]
    pub fn remove_get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.route(key).remove_get(key)
    }

    /// Routed [`MapHandle::contains`].
    #[inline]
    pub fn contains(&mut self, key: &K) -> bool {
        self.route(key).contains(key)
    }

    /// Routed [`MapHandle::get`].
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.route(key).get(key)
    }

    /// Routed [`MapHandle::with_value`].
    #[inline]
    pub fn with_value<T>(&mut self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.route(key).with_value(key, f)
    }

    /// [`Self::execute_batch`] over one `Insert` per pair. Returns how
    /// many keys were newly added.
    pub fn insert_batch(&mut self, items: impl IntoIterator<Item = (K, V)>) -> usize
    where
        V: Clone,
    {
        let verdicts = self.execute_owned(items.into_iter().map(|(k, v)| BatchCmd::Insert(k, v)));
        verdicts
            .iter()
            .filter(|r| matches!(r, BatchVerdict::Added(true)))
            .count()
    }

    /// [`Self::execute_batch`] over one `Remove` per key. Returns how
    /// many keys were removed.
    pub fn remove_batch(&mut self, keys: impl IntoIterator<Item = K>) -> usize
    where
        V: Clone,
    {
        let verdicts = self.execute_owned(keys.into_iter().map(BatchCmd::Remove));
        verdicts
            .iter()
            .filter(|r| matches!(r, BatchVerdict::Removed(true)))
            .count()
    }

    /// [`Self::execute_batch`] over one `Get` per key; the values come
    /// back in the caller's order.
    pub fn get_batch(&mut self, keys: impl IntoIterator<Item = K>) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let verdicts = self.execute_owned(keys.into_iter().map(BatchCmd::Get));
        verdicts
            .into_iter()
            .map(|r| match r {
                BatchVerdict::Found(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    /// [`Self::execute_batch`] with call-local buffers, for the
    /// homogeneous wrappers.
    fn execute_owned(&mut self, cmds: impl Iterator<Item = BatchCmd<K, V>>) -> Vec<BatchVerdict<V>>
    where
        V: Clone,
    {
        let cmds: Vec<BatchCmd<K, V>> = cmds.collect();
        let mut out = Vec::new();
        self.execute_batch(&cmds, &mut BatchScratch::new(), &mut out);
        out
    }

    /// Executes a mixed batch of commands shard-fused, in two phases,
    /// and scatters the verdicts back into `out` at each command's input
    /// position. All buffers are caller- or handle-owned and reused — a
    /// steady-state caller allocates nothing beyond retained capacity.
    ///
    /// The batch runs in chunks of up to 256 commands, one after
    /// another. A chunk is partitioned by shard and each shard's run is
    /// sorted by `(key, input position)`; every run is charged to its
    /// shard handle up front, so one pin covers it through both phases.
    /// A chunk is timed once: the duration is one `batch` latency sample
    /// in every shard it touched.
    ///
    /// * **Phase 1** advances the descents of every run, GETs and
    ///   writes, in one pass: up to [`SEARCH_LANES`](crate::SEARCH_LANES)
    ///   interleaved lanes from one pool, with a prefetch per level, so
    ///   the misses of different keys overlap, a write's with the GETs'
    ///   too. Each GET with no earlier same-key write in its run is
    ///   answered right there (one lane per key: a repeated GET copies
    ///   the first one's verdict), and each write's descent fills a seek
    ///   record.
    /// * **Phase 2** walks each run in order, applying its writes, and
    ///   the GETs that follow a same-key write, one at a time. A write
    ///   first checks that its record still holds — its anchor edge and
    ///   its leaf edge unchanged — and re-seeks from the anchor if an
    ///   earlier write (of the run, or a concurrent one) moved either.
    ///   Uncontended, no write ever CASes against a stale record, so
    ///   the paper's exact costs hold: 1 CAS per added key, 1 CAS +
    ///   1 BTS + 1 CAS per removed one-key leaf.
    ///
    /// **Equivalence to input-order execution.** The replies (and the
    /// final map state) are identical to running `cmds` one at a time in
    /// input order: a map is a family of independent per-key registers,
    /// so two commands on *distinct* keys commute, and commands on the
    /// *same* key land in the same shard's run, adjacent under the
    /// `(key, input position)` sort (positions are unique, so the
    /// comparator is a total order). Their order survives both phases:
    /// a Phase-1 GET has no same-key write before it in the run, so
    /// reading before every write of the run answers as input order
    /// would, and same-key Phase-1 GETs share one read, so lanes that
    /// finish out of order cannot answer them out of order; writes and
    /// late GETs execute in run order; and a write
    /// whose key an earlier write changed finds its record stale (that
    /// write replaced the leaf or the edge into it), re-seeks, and sees
    /// the change. The only freedom the executor takes is reordering
    /// across distinct keys, which no reply can observe.
    pub fn execute_batch(
        &mut self,
        cmds: &[BatchCmd<K, V>],
        scratch: &mut BatchScratch,
        out: &mut Vec<BatchVerdict<V>>,
    ) where
        V: Clone,
    {
        out.clear();
        out.resize(cmds.len(), BatchVerdict::Missing);
        for (c, chunk) in cmds.chunks(MANY_CHUNK).enumerate() {
            self.execute_chunk(chunk, scratch, &mut out[c * MANY_CHUNK..]);
        }
    }

    /// One chunk of [`Self::execute_batch`]; `out[pos]` receives the
    /// verdict of `cmds[pos]`.
    fn execute_chunk(
        &mut self,
        cmds: &[BatchCmd<K, V>],
        scratch: &mut BatchScratch,
        out: &mut [BatchVerdict<V>],
    ) where
        V: Clone,
    {
        let map = self.map;
        let timer = map.shards[0].metrics.call_timer();
        scratch.reset(self.handles.len());
        for (pos, cmd) in cmds.iter().enumerate() {
            let shard = map.shard_of(cmd.key());
            scratch.shard.push(shard as u32);
            scratch.runs[shard].push(pos as u32);
        }
        // Sort, charge and classify each run.
        for (run, handle) in scratch.runs.iter_mut().zip(self.handles.iter_mut()) {
            if run.is_empty() {
                continue;
            }
            run.sort_unstable_by(|&a, &b| {
                cmds[a as usize]
                    .key()
                    .cmp(cmds[b as usize].key())
                    .then(a.cmp(&b))
            });
            handle.charge(run.len());
            let (gets, writes) = (scratch.gets.len(), scratch.writes.len());
            let (mut wrote, mut read): (Option<&K>, Option<&K>) = (None, None);
            let mut searches = 0;
            for entry in run.iter_mut() {
                let cmd = &cmds[*entry as usize];
                match cmd {
                    BatchCmd::Get(k) => {
                        searches += 1;
                        if wrote == Some(k) {
                            *entry |= LATE;
                        } else if read == Some(k) {
                            *entry |= DUP;
                        } else {
                            read = Some(k);
                            scratch.gets.push(*entry);
                        }
                    }
                    _ => {
                        wrote = Some(cmd.key());
                        scratch.writes.push(*entry);
                    }
                }
            }
            let lanes = scratch.gets.len() - gets + scratch.writes.len() - writes;
            handle.note_run(searches, lanes);
        }

        // Phase 1: every lane descent, across shards, in one pass.
        let (gets, writes, shard) = (&scratch.gets, &scratch.writes, &scratch.shard);
        let query = |i: usize| {
            let pos = if i < gets.len() {
                gets[i]
            } else {
                writes[i - gets.len()]
            } as usize;
            (map.shard(shard[pos] as usize), cmds[pos].key())
        };
        self.recs.clear();
        self.recs.resize_with(writes.len(), SeekRecord::empty);
        // SAFETY: every shard a command of this chunk routes to was
        // charged — hence pinned by its handle's guard — above, and
        // nothing re-pins a handle before its run's Phase 2 ends.
        unsafe {
            descend_many(gets.len(), &mut self.recs, query, |i, v| {
                out[gets[i] as usize] = match v {
                    Some(v) => BatchVerdict::Found(v.clone()),
                    None => BatchVerdict::Missing,
                }
            });
        }

        // Phase 2: each run's writes and late GETs, in run order.
        let mut recs = self.recs.iter_mut();
        for (run, handle) in scratch.runs.iter().zip(self.handles.iter_mut()) {
            if run.is_empty() {
                continue;
            }
            // The Phase-1 GET a DUP entry copies: the run's last one.
            let mut read = 0;
            for &entry in run {
                let pos = (entry & !(LATE | DUP)) as usize;
                out[pos] = match &cmds[pos] {
                    BatchCmd::Get(k) if entry & LATE != 0 => handle.run_get(k),
                    BatchCmd::Get(_) if entry & DUP != 0 => out[read].clone(),
                    BatchCmd::Get(_) => {
                        read = pos;
                        continue;
                    }
                    cmd => {
                        let rec = recs.next().expect("one record per write");
                        // SAFETY: Phase 1 produced `rec` for this write
                        // under the guard charged for this run.
                        unsafe { handle.run_write(cmd, rec) }
                    }
                };
            }
        }
        // One clock read for the call, one sample per shard it touched.
        if let Some(ns) = timer.elapsed_ns() {
            for (run, shard) in scratch.runs.iter().zip(map.shards.iter()) {
                if !run.is_empty() {
                    shard.metrics.op_record(OpClass::Batch, &timer, ns);
                }
            }
        }
    }

    /// [`MapHandle::flush_stats`] on every shard handle — publishes all
    /// batched counts so a concurrent [`ShardedMap::metrics`] stops
    /// lagging this worker.
    pub fn flush_stats(&mut self) {
        for h in self.handles.iter_mut() {
            h.flush_stats();
        }
    }

    /// [`MapHandle::unpin`] on every shard handle. Call before parking
    /// the worker.
    pub fn unpin(&mut self) {
        for h in self.handles.iter_mut() {
            h.unpin();
        }
    }
}

impl<K, V, R: Reclaim> std::fmt::Debug for ShardedMapHandle<'_, K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMapHandle")
            .field("shards", &self.handles.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_deterministic_and_in_range() {
        let map: ShardedMap<u64, u64> = ShardedMap::with_shards(7);
        for k in 0..10_000u64 {
            let s = map.shard_of(&k);
            assert!(s < 7);
            assert_eq!(s, map.shard_of(&k));
        }
    }

    #[test]
    fn router_spreads_sequential_keys() {
        // Sequential integer keys are the adversarial case for a weak
        // router; every shard must get a meaningful share.
        let map: ShardedMap<u64, u64> = ShardedMap::with_shards(8);
        let mut counts = [0usize; 8];
        const N: usize = 64_000;
        for k in 0..N as u64 {
            counts[map.shard_of(&k)] += 1;
        }
        let expected = N / 8;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "shard {i} got {c} of {N} (expected ≈{expected})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedMap<u64, u64> = ShardedMap::with_shards(0);
    }
}
