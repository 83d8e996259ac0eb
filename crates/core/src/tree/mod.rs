//! The lock-free external BST (the paper's Algorithm 1–4).

mod bulk;
mod collect;
mod dot;
mod range;
mod read;
mod seek;
mod validate;
mod whitebox;
mod write;

pub use validate::TreeShape;

pub(crate) use read::descend_many;
pub use read::SEARCH_LANES;
pub(crate) use seek::SeekRecord;

use crate::handle::MapHandle;
use crate::node::{self, Leaf, Route, LEAF_CAP};
use crate::obs::{self, LatencyConfig, MetricsSnapshot};
use crate::packed::{Edge, TagMode};
use crate::pool::{Arenas, NodeCache, HANDLE_CACHE_CAP};
use nmbst_reclaim::{Ebr, Reclaim};
use std::marker::PhantomData;
use std::sync::Arc;

/// Where a modify operation restarts its descent after a failed CAS.
///
/// The paper restarts every retry from the root. Chatterjee et al.
/// (arXiv:1404.3272) observe that most CAS failures are *local* — the
/// conflicting operation touched only the bottom of the access path —
/// so restarting from the last recorded untagged anchor skips the
/// redundant prefix. The anchor is revalidated before use and any doubt
/// falls back to a full root seek, so both policies execute the same
/// set of linearizable interleavings (see DESIGN.md, "Local restart").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Retry from the seek record's `(ancestor → successor)` edge when
    /// it revalidates; fall back to the root otherwise.
    #[default]
    Local,
    /// Always retry from the root (the paper's Algorithm 2/3 verbatim).
    Root,
}

/// Every tuning knob of a tree, bundled so constructors stay stable as
/// knobs accrue. `TreeConfig::default()` is the shipping configuration;
/// builder-style `with_*` methods override one knob at a time:
///
/// ```
/// use nmbst::{NmTreeMap, RestartPolicy, TreeConfig};
///
/// let paper = TreeConfig::default()
///     .with_restart(RestartPolicy::Root)
///     .with_leaf_cap(1); // the paper's one-key-per-leaf shape
/// let map: NmTreeMap<u64, u64> = NmTreeMap::with_config(paper);
/// assert!(map.insert(1, 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// BTS vs CAS-only tagging in the cleanup routine (§6).
    pub tag_mode: TagMode,
    /// Root vs local restart for modify-path retries.
    pub restart: RestartPolicy,
    /// Maximum entries per leaf block, `1..=LEAF_CAP` (values outside are
    /// clamped). `1` reproduces the classic one-key-per-leaf shape
    /// exactly (every insert publishes a two-node subtree, every remove
    /// runs flag/tag/splice); the default packs a cache line.
    pub leaf_cap: usize,
    /// Latency recording behavior: on/off, sampling rate and slow-op
    /// threshold.
    pub lat: LatencyConfig,
}

impl TreeConfig {
    /// Overrides the [`TagMode`] knob.
    pub fn with_tag_mode(mut self, tag_mode: TagMode) -> Self {
        self.tag_mode = tag_mode;
        self
    }

    /// Overrides the [`RestartPolicy`] knob.
    pub fn with_restart(mut self, restart: RestartPolicy) -> Self {
        self.restart = restart;
        self
    }

    /// Overrides the leaf-block capacity (clamped to `1..=LEAF_CAP` at
    /// tree construction).
    pub fn with_leaf_cap(mut self, leaf_cap: usize) -> Self {
        self.leaf_cap = leaf_cap;
        self
    }

    /// Overrides the [`LatencyConfig`] knob.
    pub fn with_latency(mut self, lat: LatencyConfig) -> Self {
        self.lat = lat;
        self
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            tag_mode: TagMode::default(),
            restart: RestartPolicy::default(),
            leaf_cap: LEAF_CAP,
            lat: LatencyConfig::default(),
        }
    }
}

/// A concurrent lock-free ordered map backed by the Natarajan–Mittal
/// external binary search tree, with cache-line leaf blocks.
///
/// * `search`/`get`/`contains` are wait-free with respect to other
///   readers and lock-free overall.
/// * `insert` publishes with **one** CAS; `remove` of a multi-entry leaf
///   publishes a copied block with **one** CAS, and removing a leaf's
///   last entry needs one CAS to linearize (flagging the victim's
///   incoming edge) and two more atomic instructions (a BTS and a CAS)
///   to physically splice — the costs of Table 1 at `leaf_cap = 1`.
/// * Conflicts are coordinated purely through two bits stolen from child
///   edge words; there are no operation descriptor objects and helping
///   never allocates.
///
/// Nodes live in per-tree slab arenas addressed by `u32` slot indices
/// (half-width edges): 32-byte routing nodes in one, leaf blocks in one
/// per size class (4, 6 or 8 entries). User keys live in immutable
/// sorted leaf blocks of up to [`TreeConfig::leaf_cap`] entries, each in
/// the smallest class that holds it.
///
/// The tree is generic over the reclamation scheme `R`
/// ([`Ebr`](nmbst_reclaim::Ebr) by default;
/// [`Leaky`](nmbst_reclaim::Leaky) reproduces the paper's no-reclamation
/// evaluation mode).
///
/// Keys follow the paper's dictionary semantics: duplicates are
/// rejected, `insert` returns whether the key set changed, and values
/// are immutable once inserted (no in-place update operation exists in
/// the algorithm).
///
/// # Examples
///
/// ```
/// use nmbst::NmTreeMap;
///
/// let map: NmTreeMap<u64, &str> = NmTreeMap::new();
/// assert!(map.insert(3, "three"));
/// assert!(!map.insert(3, "again")); // duplicate key rejected
/// assert_eq!(map.get(&3), Some("three"));
/// assert!(map.remove(&3));
/// assert_eq!(map.get(&3), None);
/// ```
pub struct NmTreeMap<K, V, R: Reclaim = Ebr> {
    /// The permanent sentinel root `R` (key ∞₂); see
    /// [`node::sentinel_tree`].
    pub(crate) root: *mut Route<K>,
    pub(crate) reclaim: R,
    pub(crate) tag_mode: TagMode,
    pub(crate) restart: RestartPolicy,
    /// Effective leaf-block capacity, `1..=LEAF_CAP`.
    pub(crate) leaf_cap: usize,
    pub(crate) metrics: obs::Metrics,
    /// The slab arenas every node of this tree lives in, one per node
    /// class. Declared after `reclaim` so the reclaimer — whose drop runs
    /// pending recycle deferrals against arena slots — goes first;
    /// deferrals that outlive even that (straggler collector threads)
    /// are covered by the `Arc` clone parked in the reclaimer at
    /// construction.
    pub(crate) arenas: Arc<Arenas>,
    /// The tree logically owns its nodes (the `K`s and `V`s it drops
    /// live in routes and leaves; a leaf holds both types).
    _own: PhantomData<Box<Leaf<K, V>>>,
}

// SAFETY: all shared mutation goes through atomic edges; nodes move
// between threads (retirement / value reads), hence `Send + Sync` on both
// parameters.
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Send for NmTreeMap<K, V, R> {}
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Sync for NmTreeMap<K, V, R> {}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Creates an empty map with the shipping configuration
    /// ([`TreeConfig::default`]).
    pub fn new() -> Self {
        Self::with_config(TreeConfig::default())
    }

    /// Creates an empty map with every tuning knob explicit.
    pub fn with_config(config: TreeConfig) -> Self {
        let arenas = Arc::new(Arenas::new::<K, V>());
        let reclaim = R::new();
        // Recycle deferrals reference the pools by raw pointer; this
        // parked clone is what keeps them alive for straggling collector
        // threads that run deferrals after the tree is gone (see
        // `pool::recycle_route_deferred`). The arenas are the node store,
        // so the keepalive is unconditional.
        reclaim.hold(Box::new(Arc::clone(&arenas)));
        let root = node::sentinel_tree::<K, V>(&mut NodeCache::direct(&arenas));
        NmTreeMap {
            root,
            reclaim,
            tag_mode: config.tag_mode,
            restart: config.restart,
            leaf_cap: config.leaf_cap.clamp(1, LEAF_CAP),
            metrics: obs::Metrics::new(config.lat),
            arenas,
            _own: PhantomData,
        }
    }

    /// A point-in-time [`MetricsSnapshot`] of this tree: operation
    /// counters, size estimate, depth histogram and max observed depth,
    /// the reclaimer's health gauges, and the node pool's hit/recycle
    /// stats. Cheap (sums a few cache lines); never blocks operations.
    /// See the [`obs`](crate::obs) module docs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.reclaim.gauges(), self.arenas.stats())
    }

    /// The arenas every node of this tree lives in: the context for
    /// resolving edge words into node addresses.
    #[inline]
    pub(crate) fn arenas(&self) -> &Arenas {
        &self.arenas
    }

    /// A transient [`NodeCache`] for one plain-API modify call: no local
    /// slot hoarding, shared pool touched directly.
    #[inline]
    pub(crate) fn node_cache(&self) -> NodeCache<'_> {
        NodeCache::direct(&self.arenas)
    }

    /// The [`NodeCache`] a long-lived handle embeds: keeps a private
    /// slot stash so hot loops skip the shared free list.
    pub(crate) fn handle_cache(&self) -> NodeCache<'_> {
        NodeCache::with_local(&self.arenas, HANDLE_CACHE_CAP)
    }

    /// Pins the current thread, returning a guard other read methods can
    /// amortize over (see [`with_value`](Self::with_value)).
    pub fn pin(&self) -> R::Guard<'_> {
        self.reclaim.pin()
    }

    /// Makes this thread's retired nodes eligible for reclamation
    /// without waiting for thread exit (see
    /// [`Reclaim::flush`]).
    pub fn flush(&self) {
        self.reclaim.flush();
    }

    /// The sentinel routing node `S` (key ∞₁): the left child of `R`.
    /// Its incoming edge is never marked.
    #[inline]
    pub(crate) fn s_node(&self) -> *mut Route<K> {
        // SAFETY: `root` is always the live sentinel `R`, whose left edge
        // is never marked and always points at the live sentinel `S`.
        unsafe { (*self.root).left.load::<K, V>(&self.arenas).route() }
    }
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Returns a pin-amortizing [`MapHandle`] bound to this map: it
    /// holds one reclamation guard and one seek-record scratch across
    /// many operations, re-pinning periodically so reclamation still
    /// progresses. The fastest way to drive a hot loop from one thread.
    pub fn handle(&self) -> MapHandle<'_, K, V, R> {
        MapHandle::new(self)
    }
}

impl<K, V, R> Default for NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, R: Reclaim> Drop for NmTreeMap<K, V, R> {
    fn drop(&mut self) {
        // Exclusive access: free every node still reachable from the
        // root. Nodes already retired are unreachable from the root and
        // are handled by the reclaimer's own drop (which runs after this,
        // field order) or by straggling deferrals against the Arc-kept
        // arena.
        // SAFETY: `&mut self` gives exclusive ownership of the reachable
        // subtree, and every reachable node owns all its entries.
        unsafe { node::free_subtree(Edge::<K, V>::of_route(self.root), &self.arenas) };
    }
}

impl<K, V, R> std::fmt::Debug for NmTreeMap<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NmTreeMap")
            .field("tag_mode", &self.tag_mode)
            .field("restart", &self.restart)
            .field("leaf_cap", &self.leaf_cap)
            .finish_non_exhaustive()
    }
}
