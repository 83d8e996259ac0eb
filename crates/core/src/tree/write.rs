//! Modify operations: insert (Algorithm 2), delete (Algorithm 3) and the
//! shared cleanup routine (Algorithm 4), extended to fat leaf blocks.
//!
//! A leaf is an immutable sorted block of up to `leaf_cap` entries.
//! Every block mutation is copy-on-write: build the replacement block(s)
//! privately, publish with **one** CAS on the parent edge — exactly the
//! shape of the paper's insert publication, so the protocol argument
//! (flag/tag/splice only ever contend with clean-edge CASes) transfers
//! verbatim. The classic two-node insert and the flag/tag/splice delete
//! remain as the boundary cases: a sentinel or full-block boundary
//! insert grows the tree by an internal node, and a 1-entry block is
//! removed by splicing (so `leaf_cap = 1` reproduces the original
//! algorithm operation for operation).

use super::{NmTreeMap, SeekRecord};
use crate::chaos::{self, Action, Point};
use crate::key::Key;
use crate::node::{self, Leaf, Route, SplitBlocks, HINT_NONE};
use crate::obs::{self, EventKind};
use crate::packed::Edge;
use crate::pool::{self, NodeCache};
use crate::stats;
use nmbst_reclaim::{Reclaim, RetireGuard};
use std::ptr;

/// What one [`NmTreeMap::cleanup`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CleanupOutcome {
    /// This call performed the splice (and retired the chain).
    Spliced,
    /// Another thread changed the region first; re-seek and retry.
    Lost,
    /// A chaos hook abandoned the operation before the next atomic step;
    /// the region is left in a protocol-consistent in-flight state
    /// (flag and possibly tag planted) for helpers to finish.
    Abandoned,
}

/// One insert attempt's private, unpublished node(s). Which variant is
/// built depends on where the key lands (see [`NmTreeMap::insert_seeked`]);
/// all of them publish with a single CAS and, if that CAS loses, are torn
/// down with [`dismantle`](Scratch::dismantle) to recover the pending
/// entry.
enum Scratch<K, V> {
    /// The paper's two-node subtree: a fresh 1-entry leaf under a fresh
    /// route, next to the existing leaf. Used for sentinel leaves and
    /// for boundary inserts into a full block.
    Classic {
        leaf: *mut Leaf<K, V>,
        route: *mut Route<K>,
    },
    /// A copy of the target block with the entry added (block not full).
    Cow { block: *mut Leaf<K, V>, pos: usize },
    /// A full block split into two halves under a fresh route.
    Split(SplitBlocks<K, V>),
}

impl<K, V> Scratch<K, V> {
    /// The edge the publishing CAS installs: to a route, or (for a
    /// copy-on-write block) to a leaf.
    fn top(&self) -> Edge<K, V> {
        match self {
            Scratch::Classic { route, .. } => Edge::of_route(*route),
            Scratch::Cow { block, .. } => Edge::of_leaf(*block),
            Scratch::Split(split) => Edge::of_route(split.route),
        }
    }

    /// Tears a losing attempt down: moves the pending `(key, value)` back
    /// out and returns every shell (a route with its routing-key clone)
    /// to the cache. Entries that were bitwise copies of the published block's
    /// entries are left untouched — the old block still owns them.
    ///
    /// # Safety
    ///
    /// The scratch must be unpublished (its CAS failed or was never
    /// attempted) and built through `cache`'s pool.
    unsafe fn dismantle(self, cache: &mut NodeCache<'_>) -> (K, V) {
        match self {
            Scratch::Classic { leaf, route } => {
                // SAFETY: slot 0 holds the pending entry, written once.
                let kv = unsafe { Leaf::take_entry(leaf, 0) };
                // SAFETY: unpublished + exclusively owned per contract.
                unsafe {
                    cache.free_leaf_shell(leaf);
                    free_route_scratch(cache, route);
                }
                kv
            }
            Scratch::Cow { block, pos } => {
                // SAFETY: `pos` holds the pending entry, written once.
                let kv = unsafe { Leaf::take_entry(block, pos) };
                // SAFETY: as above.
                unsafe { cache.free_leaf_shell(block) };
                kv
            }
            Scratch::Split(split) => {
                // SAFETY: `(holder, hpos)` locate the pending entry.
                let kv = unsafe { Leaf::take_entry(split.holder, split.hpos) };
                // SAFETY: as above.
                unsafe {
                    cache.free_leaf_shell(split.left);
                    cache.free_leaf_shell(split.right);
                    free_route_scratch(cache, split.route);
                }
                kv
            }
        }
    }
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Inserts `key → value`. Returns `true` if the key was absent (the
    /// pair was added) and `false` if the key already exists — duplicate
    /// keys are rejected and `value` is dropped, per the paper's
    /// dictionary semantics.
    ///
    /// Lock-free. Publishes with a single CAS; on conflict with a delete
    /// it helps that delete complete and retries from a fresh seek.
    pub fn insert(&self, key: K, value: V) -> bool {
        let guard = self.reclaim.pin();
        let mut rec = SeekRecord::empty();
        let mut cache = self.node_cache();
        let t = self.metrics.op_timer();
        // SAFETY: `guard` pins this tree's reclaimer for the whole call;
        // `cache` serves this tree's pool.
        let added = unsafe { self.insert_in(key, value, &guard, &mut rec, &mut cache) };
        self.metrics.note_insert(added);
        self.metrics.op_finish(crate::obs::OpClass::Insert, t);
        added
    }

    /// [`insert`](Self::insert) against a caller-provided guard and
    /// seek-record scratch — the shared internal entry point of the
    /// plain API and [`MapHandle`](crate::MapHandle).
    ///
    /// # Safety
    ///
    /// `guard` must pin this tree's reclaimer and stay held for the
    /// whole call. `rec` is pure scratch: its previous contents are
    /// ignored (the first seek of the call is always a full root seek).
    /// `cache` must serve this tree's pool (from
    /// [`node_cache`](Self::node_cache) / [`handle_cache`](Self::handle_cache)).
    pub(crate) unsafe fn insert_in(
        &self,
        key: K,
        value: V,
        guard: &R::Guard<'_>,
        rec: &mut SeekRecord<K, V>,
        cache: &mut NodeCache<'_>,
    ) -> bool {
        // SAFETY: forwarded contract.
        unsafe {
            self.seek(&key, rec);
            self.insert_seeked(key, value, guard, rec, cache)
        }
    }

    /// The insert proper (Algorithm 2 from line 41), acting on `rec` as
    /// already seeked for `key`; failed CASes re-seek through
    /// [`seek_retry`](Self::seek_retry).
    ///
    /// Case analysis, with `n` the target block's entry count and `cap`
    /// this tree's `leaf_cap`:
    ///
    /// * sentinel leaf, or full block with the key outside its range —
    ///   classic two-node subtree next to the untouched leaf (a route and
    ///   a leaf, nothing retired);
    /// * `n < cap` — copy-on-write block with the entry spliced in
    ///   (1 leaf, old block retired);
    /// * full block, key interior — split into two halves under a fresh
    ///   route (a route and two leaves, old block retired).
    ///
    /// All three publish with one CAS on the parent edge. At
    /// `cap = 1` only the first case can occur, reproducing the paper's
    /// Table 1 cost exactly.
    ///
    /// # Safety
    ///
    /// Same contract as [`insert_in`](Self::insert_in), except that
    /// `rec` must hold a seek for `key` produced under the same
    /// continuously-held guard.
    pub(crate) unsafe fn insert_seeked(
        &self,
        key: K,
        value: V,
        guard: &R::Guard<'_>,
        rec: &mut SeekRecord<K, V>,
        cache: &mut NodeCache<'_>,
    ) -> bool {
        let arenas = self.arenas();
        let cap = self.leaf_cap;
        // The entry travels in and out of scratch nodes across retries.
        let mut pending = Some((key, value));
        let mut retry = false;

        loop {
            if retry {
                if chaos::hit(Point::SeekRetry) == Action::Abandon {
                    return false; // pending entry dropped
                }
                let k = &pending.as_ref().expect("entry pending at seek").0;
                // SAFETY: `guard` held continuously since `rec` was
                // produced, as `seek_retry` requires.
                unsafe { self.seek_retry(k, rec) };
            }
            retry = true;
            let leaf = rec.leaf;
            let (key, value) = pending.take().expect("entry pending after seek");
            // SAFETY: `leaf` was read under `guard`; blocks are immutable.
            let (len, pos) = unsafe {
                match (*leaf).find(&key) {
                    // Key already present (Algorithm 2, line 59): reject
                    // the duplicate, dropping the pending entry.
                    Ok(_) => return false,
                    Err(pos) => ((*leaf).len(), pos),
                }
            };

            let parent = rec.parent;
            // SAFETY: `parent` read under `guard`.
            let child_edge = unsafe { (*parent).child_for(&key) };

            // Build the private replacement; see the method docs for the
            // case analysis.
            // SAFETY (block builders): `leaf` is guard-protected and
            // immutable; `pos`/`len` were just computed against it.
            let scratch = if len == 0 || (len >= cap && (pos == 0 || pos == len)) {
                // Classic (Figure 1a). The router must cover the block it
                // sits above: the sentinel's own key when growing at a
                // sentinel, the block's min when the new key is smaller
                // than the whole block, the new key when it is larger.
                // Every sentinel key routes user keys left, so the only
                // sentinel leaf a seek can reach is ∞₀ (under `S`, or
                // alone under an emptied user area).
                let (router, new_on_left) = unsafe {
                    if len == 0 {
                        debug_assert!(matches!((*leaf).sentinel(), Some(Key::Inf0)));
                        (Key::Inf0, true)
                    } else if pos == 0 {
                        (Key::Fin((*leaf).entry_keys()[0].clone()), true)
                    } else {
                        (Key::Fin(key.clone()), false)
                    }
                };
                let new_leaf = Leaf::new_user_in(cache, key, value);
                let (l, r) = if new_on_left {
                    (Edge::of_leaf(new_leaf), Edge::of_leaf(leaf))
                } else {
                    (Edge::of_leaf(leaf), Edge::of_leaf(new_leaf))
                };
                let route = Route::new_in(cache, router, l, r);
                Scratch::Classic {
                    leaf: new_leaf,
                    route,
                }
            } else if len < cap {
                let block = unsafe { Leaf::block_insert_copy(cache, &*leaf, pos, key, value) };
                Scratch::Cow { block, pos }
            } else {
                Scratch::Split(unsafe { Leaf::block_split_insert(cache, &*leaf, pos, key, value) })
            };

            if chaos::hit(Point::InsertPublish) == Action::Abandon {
                // SAFETY: scratch unpublished; entry recovered then dropped.
                drop(unsafe { scratch.dismantle(cache) });
                return false;
            }
            // The single publishing CAS (Algorithm 2, line 51).
            let expected = Edge::of_leaf(leaf);
            match child_edge.compare_exchange(expected, scratch.top(), arenas) {
                Ok(()) => {
                    if matches!(scratch, Scratch::Cow { .. } | Scratch::Split(_)) {
                        // The old block's entries moved (bitwise) into the
                        // replacement; retire its shell.
                        if chaos::hit(Point::Retire) == Action::Abandon {
                            return true; // leak the old block
                        }
                        stats::record_retire();
                        // SAFETY: `leaf` just became unreachable (our CAS
                        // removed the last edge to it) and only the CAS
                        // winner retires it; HINT_NONE disowns the moved
                        // entries.
                        unsafe {
                            (*leaf).set_drop_hint(HINT_NONE);
                            self.retire_leaf(leaf, guard);
                        }
                    }
                    return true;
                }
                Err(observed) => {
                    // SAFETY: scratch unpublished (the CAS failed).
                    pending = Some(unsafe { scratch.dismantle(cache) });
                    // Help a conflicting delete if the injection point is
                    // unchanged but marked (lines 55–57), then retry.
                    if observed.same_head(expected) && observed.marked() {
                        self.metrics.note_help();
                        obs::emit(EventKind::Help);
                        // SAFETY: record still refers to nodes protected
                        // by `guard`.
                        let outcome =
                            unsafe { self.cleanup(&pending.as_ref().unwrap().0, rec, guard) };
                        if outcome == CleanupOutcome::Abandoned {
                            return false; // pending entry dropped
                        }
                    }
                }
            }
        }
    }

    /// Removes `key`. Returns `true` if the key was present.
    ///
    /// Lock-free. Removal from a multi-entry block is a copy-on-write
    /// publish: one CAS installs the shrunken block and linearizes the
    /// delete. Removal of a block's last entry is the paper's protocol:
    /// one CAS linearizes (flagging the edge to the victim leaf); one BTS
    /// plus one CAS splice it out physically, possibly along with a whole
    /// chain of other logically deleted nodes.
    pub fn remove(&self, key: &K) -> bool {
        self.remove_and(key, |_| ()).is_some()
    }

    /// Removes `key` and returns its value. `None` if the key was absent.
    pub fn remove_get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_and(key, V::clone)
    }

    /// Algorithm 3. `read` runs exactly once, immediately after this
    /// thread's linearizing CAS succeeds — the point where the entry is
    /// logically removed but its block is still protected by our guard.
    fn remove_and<T>(&self, key: &K, read: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = self.reclaim.pin();
        let mut rec = SeekRecord::empty();
        let mut cache = self.node_cache();
        let t = self.metrics.op_timer();
        // SAFETY: `guard` pins this tree's reclaimer for the whole call;
        // `cache` serves this tree's pool.
        let removed = unsafe { self.remove_in(key, read, &guard, &mut rec, &mut cache) };
        self.metrics.note_remove(removed.is_some());
        self.metrics.op_finish(crate::obs::OpClass::Remove, t);
        removed
    }

    /// [`remove_and`](Self::remove_and) against a caller-provided guard
    /// and seek-record scratch — the shared internal entry point of the
    /// plain API and [`MapHandle`](crate::MapHandle).
    ///
    /// # Safety
    ///
    /// Same contract as [`insert_in`](Self::insert_in).
    pub(crate) unsafe fn remove_in<T>(
        &self,
        key: &K,
        read: impl FnOnce(&V) -> T,
        guard: &R::Guard<'_>,
        rec: &mut SeekRecord<K, V>,
        cache: &mut NodeCache<'_>,
    ) -> Option<T> {
        // SAFETY: forwarded contract.
        unsafe {
            self.seek(key, rec);
            self.remove_seeked(key, read, guard, rec, cache)
        }
    }

    /// The delete proper (Algorithm 3 from line 68), acting on `rec` as
    /// already seeked for `key` (see [`insert_seeked`](Self::insert_seeked)).
    ///
    /// # Safety
    ///
    /// Same contract as [`insert_seeked`](Self::insert_seeked).
    pub(crate) unsafe fn remove_seeked<T>(
        &self,
        key: &K,
        read: impl FnOnce(&V) -> T,
        guard: &R::Guard<'_>,
        rec: &mut SeekRecord<K, V>,
        cache: &mut NodeCache<'_>,
    ) -> Option<T> {
        let arenas = self.arenas();
        let mut read = Some(read);
        let mut injecting = true;
        let mut target: *mut Leaf<K, V> = ptr::null_mut();
        let mut result: Option<T> = None;
        let mut retry = false;

        loop {
            if retry {
                if chaos::hit(Point::SeekRetry) == Action::Abandon {
                    // Before linearization `result` is `None` (op never
                    // happened); after it, the delete already linearized
                    // and the planted flag lets any helper finish the
                    // splice.
                    return result;
                }
                // SAFETY: `guard` held continuously since `rec` was
                // produced, as `seek_retry` requires; in cleanup mode it
                // also keeps `target` comparable by address (the leaf
                // cannot be freed and recycled while we are pinned).
                unsafe { self.seek_retry(key, rec) };
            }
            retry = true;
            let parent = rec.parent;
            // SAFETY: read under `guard`.
            let child_edge = unsafe { (*parent).child_for(key) };

            if injecting {
                let leaf = rec.leaf;
                // SAFETY: read under `guard`; blocks are immutable.
                let pos = match unsafe { (*leaf).find(key) } {
                    Ok(pos) => pos,
                    Err(_) => return None, // key absent (line 72)
                };
                // SAFETY: as above.
                let len = unsafe { (*leaf).len() };

                if len >= 2 {
                    // Copy-on-write removal: publish the shrunken block
                    // with one CAS — that CAS is the linearization point.
                    // The block stays in place; no flag/tag/splice.
                    // SAFETY: `pos < len`, `len >= 2`, `leaf` immutable.
                    let block = unsafe { Leaf::block_remove_copy(cache, &*leaf, pos) };
                    if chaos::hit(Point::DeleteInject) == Action::Abandon {
                        // SAFETY: unpublished; no entry pending inside.
                        unsafe { cache.free_leaf_shell(block) };
                        return None; // abandoned before linearizing
                    }
                    let expected = Edge::of_leaf(leaf);
                    match child_edge.compare_exchange(expected, Edge::of_leaf(block), arenas) {
                        Ok(()) => {
                            // SAFETY: the old block is unreachable but
                            // guard-protected; entry `pos` still lives
                            // there (the copy skipped it).
                            let out = unsafe {
                                read.take().expect("read used once")(&(*leaf).entry_vals()[pos])
                            };
                            if chaos::hit(Point::Retire) == Action::Abandon {
                                return Some(out); // leak the old block
                            }
                            stats::record_retire();
                            // SAFETY: unreachable since our CAS; only the
                            // CAS winner retires it. The hint hands the
                            // removed entry (the one that did not move)
                            // to reclamation.
                            unsafe {
                                (*leaf).set_drop_hint(pos as u8);
                                self.retire_leaf(leaf, guard);
                            }
                            return Some(out);
                        }
                        Err(observed) => {
                            // SAFETY: unpublished (the CAS failed).
                            unsafe { cache.free_leaf_shell(block) };
                            if observed.same_head(expected) && observed.marked() {
                                self.metrics.note_help();
                                obs::emit(EventKind::Help);
                                // SAFETY: record protected by `guard`.
                                let outcome = unsafe { self.cleanup(key, rec, guard) };
                                if outcome == CleanupOutcome::Abandoned {
                                    return None; // not yet linearized
                                }
                            }
                        }
                    }
                } else {
                    // Last entry of the block: the paper's protocol
                    // removes the whole leaf.
                    if chaos::hit(Point::DeleteInject) == Action::Abandon {
                        return None; // abandoned before linearizing
                    }
                    // Injection: flag the edge to the victim (line 73).
                    // This is the linearization point.
                    let clean = Edge::of_leaf(leaf);
                    match child_edge.compare_exchange(clean, clean.flagged(), arenas) {
                        Ok(()) => {
                            obs::emit(EventKind::InjectFlag);
                            // SAFETY: leaf is immutable, guard-protected,
                            // and holds exactly one entry.
                            result = Some(read.take().expect("read used once")(unsafe {
                                &(*leaf).entry_vals()[0]
                            }));
                            target = leaf;
                            injecting = false;
                            // SAFETY: record protected by `guard`.
                            match unsafe { self.cleanup(key, rec, guard) } {
                                // Abandoned: the delete already linearized
                                // at the flag; leave the splice to helpers.
                                CleanupOutcome::Spliced | CleanupOutcome::Abandoned => {
                                    return result
                                }
                                CleanupOutcome::Lost => {}
                            }
                        }
                        Err(observed) => {
                            if observed.same_head(clean) && observed.marked() {
                                self.metrics.note_help();
                                obs::emit(EventKind::Help);
                                // SAFETY: record protected by `guard`.
                                let outcome = unsafe { self.cleanup(key, rec, guard) };
                                if outcome == CleanupOutcome::Abandoned {
                                    return None; // not yet linearized
                                }
                            }
                        }
                    }
                }
            } else {
                // Cleanup mode (lines 82–87): if the flagged leaf is no
                // longer on the access path, a helper already removed it.
                if rec.leaf != target {
                    return result;
                }
                // SAFETY: record protected by `guard`.
                match unsafe { self.cleanup(key, rec, guard) } {
                    CleanupOutcome::Spliced | CleanupOutcome::Abandoned => return result,
                    CleanupOutcome::Lost => {}
                }
            }
        }
    }

    /// Algorithm 4: tag the sibling edge, then splice at the ancestor.
    /// Invoked by the delete that owns the flag *and* by any operation
    /// helping it.
    ///
    /// On a won splice whose hoisted survivor is a route, the record's
    /// `successor` is repointed at it: `(ancestor → survivor)` is exactly
    /// the edge our CAS just installed, so it is the freshest possible
    /// local-restart anchor for the retry loops and the batch-op finger
    /// (it fails revalidation harmlessly if the edge moved again). A
    /// leaf survivor cannot anchor a descent; the record keeps its
    /// detached successor, which fails revalidation and sends the next
    /// seek to the root.
    ///
    /// # Safety
    ///
    /// `rec` must come from a seek under `guard`, still held.
    pub(crate) unsafe fn cleanup(
        &self,
        key: &K,
        rec: &mut SeekRecord<K, V>,
        guard: &R::Guard<'_>,
    ) -> CleanupOutcome {
        stats::record_cleanup();
        let arenas = self.arenas();
        let ancestor = rec.ancestor;
        let successor = rec.successor;
        let parent = rec.parent;

        // SAFETY (derefs below): all four record nodes are protected by
        // `guard`; even if already spliced out by another thread they
        // cannot have been freed.
        let successor_edge = unsafe { (*ancestor).child_for(key) };
        let (child_edge, sibling_edge) = unsafe { (*parent).child_and_sibling_for(key) };

        // Lines 103–105: if the edge to our leaf is not flagged, the
        // delete being helped flagged the *other* child; the roles swap
        // and our side is the one to hoist.
        let child_val: Edge<K, V> = child_edge.load(arenas);
        let sibling_edge = if !child_val.flag() {
            child_edge
        } else {
            sibling_edge
        };

        if chaos::hit(Point::Tag) == Action::Abandon {
            return CleanupOutcome::Abandoned;
        }
        // Line 106: tag the edge that will be hoisted. Unconditional and
        // idempotent — after this, neither child of `parent` can change,
        // so `parent` can never again be an injection point.
        sibling_edge.set_tag(self.tag_mode);
        obs::emit(EventKind::TagSibling);

        if chaos::hit(Point::Splice) == Action::Abandon {
            return CleanupOutcome::Abandoned;
        }
        // Lines 107–108: splice. The hoisted edge keeps its flag (its
        // head may itself be a leaf some delete already flagged; the flag
        // must survive the move so that delete can still be helped).
        // `Bug::DropFlagOnSplice` deliberately loses that copy.
        let sib: Edge<K, V> = sibling_edge.load(arenas);
        let keep_flag = sib.flag() && !chaos::bug_enabled(chaos::Bug::DropFlagOnSplice);
        match successor_edge.compare_exchange(
            Edge::of_route(successor),
            sib.with_marks(keep_flag, false),
            arenas,
        ) {
            Ok(()) => {
                // We won the splice: everything that hung below
                // `successor`, except the hoisted survivor subtree, just
                // left the tree — retire it (exactly once, by us).
                if chaos::hit(Point::Retire) == Action::Abandon {
                    return CleanupOutcome::Spliced; // leak the chain
                }
                obs::emit(EventKind::Retire);
                // SAFETY: the detached region is frozen (every edge in it
                // is marked) and unreachable from the root.
                let chain_len = unsafe { self.retire_chain(Edge::of_route(successor), sib, guard) };
                // `Splice` carries the chain length, which is only known
                // after the detached region has been walked — hence this
                // delete's `Retire` precedes its `Splice` in the trace.
                obs::emit(EventKind::Splice {
                    chain_len: chain_len.min(u32::MAX as u64) as u32,
                });
                // Repoint the record at the edge we just wrote (see the
                // method docs); the detached `successor`/`parent`/`leaf`
                // pointers stay guard-protected but are now stale. The
                // positional bounds (`rec.lo`/`hi`) stay valid verbatim:
                // they bound the *edge position* at `ancestor`, which the
                // splice did not move — only the subtree hanging there
                // changed.
                if !sib.is_leaf() {
                    rec.successor = sib.route();
                }
                CleanupOutcome::Spliced
            }
            Err(_) => CleanupOutcome::Lost,
        }
    }

    /// Retires the chain a successful splice detached: the subtree `from`
    /// points to, minus the subtree of the hoisted `survivor` (both
    /// compared as edges, marks aside). Returns the number of nodes
    /// retired; each goes back to its own class's arena.
    ///
    /// Recursion depth is bounded by the number of concurrent deletes
    /// whose victims lay on this access path (each tagged edge on the
    /// chain belongs to one), so it cannot overflow.
    ///
    /// # Safety
    ///
    /// Caller must be the thread whose splice CAS detached `from`, and
    /// must still hold `guard`.
    unsafe fn retire_chain(
        &self,
        from: Edge<K, V>,
        survivor: Edge<K, V>,
        guard: &R::Guard<'_>,
    ) -> u64 {
        let mut unlinked = 0;
        // SAFETY: forwarded contract.
        unsafe { self.retire_rec(from, survivor, guard, &mut unlinked) };
        stats::record_splice(unlinked);
        unlinked
    }

    unsafe fn retire_rec(
        &self,
        edge: Edge<K, V>,
        survivor: Edge<K, V>,
        guard: &R::Guard<'_>,
        unlinked: &mut u64,
    ) {
        if edge.same_head(survivor) {
            return;
        }
        *unlinked += 1;
        stats::record_retire();
        if edge.is_leaf() {
            // SAFETY: detached by our splice, retired exactly once (only
            // the splice winner walks this region). Spliced-out leaves
            // keep the default HINT_ALL: their entries never moved, so
            // reclamation drops all of them.
            unsafe { self.retire_leaf(edge.leaf(), guard) };
            return;
        }
        let route = edge.route();
        let arenas = self.arenas();
        // SAFETY: routes in the detached region are frozen; their edges
        // are immutable and the routes are guard-protected.
        let (left, right) = unsafe { ((*route).left.load(arenas), (*route).right.load(arenas)) };
        unsafe {
            self.retire_rec(left, survivor, guard, unlinked);
            self.retire_rec(right, survivor, guard, unlinked);
            // SAFETY: as for a leaf above.
            self.retire_route(route, guard);
        }
    }

    /// Hands one unlinked leaf to the reclaimer as a *recycle* deferral:
    /// after the grace period, drop whatever entries the leaf's drop hint
    /// says it still owns and return the slot to its size class's arena.
    /// Non-reclaiming schemes ([`Leaky`](nmbst_reclaim::Leaky)) drop the
    /// deferral uncalled, leaking the contents and leaving the slot
    /// parked in the arena — as those schemes intend.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`RetireGuard::retire_deferred`]: `node` is unlinked, retired
    /// exactly once, its drop hint already set, and `guard` pins this
    /// tree's reclaimer.
    #[inline]
    unsafe fn retire_leaf(&self, node: *mut Leaf<K, V>, guard: &R::Guard<'_>) {
        // SAFETY: the deferral releases exactly once and the scheme
        // proves the grace period before running it; the tree parked the
        // arenas keepalive in the reclaimer at construction.
        unsafe { guard.retire_deferred(pool::recycle_leaf_deferred(node, &self.arenas)) }
    }

    /// [`retire_leaf`](Self::retire_leaf) for a route: its slot goes
    /// back to the route arena.
    ///
    /// # Safety
    ///
    /// As [`retire_leaf`](Self::retire_leaf).
    #[inline]
    unsafe fn retire_route(&self, node: *mut Route<K>, guard: &R::Guard<'_>) {
        // SAFETY: as `retire_leaf`.
        unsafe { guard.retire_deferred(pool::recycle_route_deferred(node, &self.arenas)) }
    }
}

/// Returns one unpublished scratch route to the cache, dropping its
/// routing key.
///
/// # Safety
///
/// `node` must be unpublished and built through `cache`'s arenas.
unsafe fn free_route_scratch<K>(cache: &mut NodeCache<'_>, node: *mut Route<K>) {
    // SAFETY: exclusively owned per contract.
    unsafe {
        node::drop_route_contents(node);
        cache.free_route_shell(node);
    }
}

#[cfg(test)]
mod tests {
    use crate::{NmTreeMap, TreeConfig};
    use nmbst_reclaim::{Ebr, Leaky};

    #[test]
    fn insert_then_contains() {
        let map: NmTreeMap<i64, i64, Leaky> = NmTreeMap::new();
        assert!(map.insert(10, 100));
        assert!(map.insert(5, 50));
        assert!(map.insert(15, 150));
        assert!(map.contains(&10));
        assert!(map.contains(&5));
        assert!(map.contains(&15));
        assert!(!map.contains(&7));
    }

    #[test]
    fn duplicate_insert_rejected_and_value_dropped() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let map: NmTreeMap<i64, D, Ebr> = NmTreeMap::new();
        assert!(map.insert(1, D(Arc::clone(&drops))));
        assert!(!map.insert(1, D(Arc::clone(&drops))));
        // The rejected value must have been dropped, the stored one not.
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(map);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn remove_present_and_absent() {
        let map: NmTreeMap<i64, (), Leaky> = NmTreeMap::new();
        for k in [4, 2, 6, 1, 3, 5, 7] {
            assert!(map.insert(k, ()));
        }
        assert!(map.remove(&4));
        assert!(!map.remove(&4));
        assert!(!map.remove(&99));
        assert!(!map.contains(&4));
        for k in [2, 6, 1, 3, 5, 7] {
            assert!(map.contains(&k), "lost key {k}");
        }
    }

    #[test]
    fn remove_get_returns_value() {
        let map: NmTreeMap<i64, String, Ebr> = NmTreeMap::new();
        map.insert(1, "one".to_string());
        assert_eq!(map.remove_get(&1), Some("one".to_string()));
        assert_eq!(map.remove_get(&1), None);
    }

    #[test]
    fn reinsert_after_remove() {
        let map: NmTreeMap<i64, i64, Ebr> = NmTreeMap::new();
        for round in 0..5 {
            assert!(map.insert(42, round));
            assert_eq!(map.get(&42), Some(round));
            assert!(map.remove(&42));
            assert!(!map.contains(&42));
        }
    }

    #[test]
    fn delete_only_key_restores_empty_shape() {
        let mut map: NmTreeMap<i64, (), Ebr> = NmTreeMap::new();
        assert!(map.insert(9, ()));
        assert!(map.remove(&9));
        let shape = map.check_invariants().expect("invariants");
        assert_eq!(shape.user_keys, 0);
    }

    #[test]
    fn interleaved_single_thread_model_check() {
        // Deterministic pseudo-random op sequence vs a BTreeSet model.
        let mut model = std::collections::BTreeSet::new();
        let mut map: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 64;
            match state % 3 {
                0 => assert_eq!(map.insert(key, ()), model.insert(key), "insert {key}"),
                1 => assert_eq!(map.remove(&key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(map.contains(&key), model.contains(&key), "contains {key}"),
            }
        }
        let shape = map.check_invariants().expect("invariants");
        assert_eq!(shape.user_keys, model.len());
    }

    #[test]
    fn model_check_every_leaf_cap() {
        // The same op sequence must behave identically at every block
        // width — cap 1 exercises only the classic paths, cap 2 the
        // split, cap 8 the COW fill.
        for cap in [1usize, 2, 3, 8] {
            let mut model = std::collections::BTreeSet::new();
            let mut map: NmTreeMap<u64, (), Ebr> =
                NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(cap));
            let mut state = 0xD1B54A32D192ED03u64;
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = (state >> 33) % 48;
                match state % 3 {
                    0 => assert_eq!(
                        map.insert(key, ()),
                        model.insert(key),
                        "cap {cap} ins {key}"
                    ),
                    1 => assert_eq!(map.remove(&key), model.remove(&key), "cap {cap} rm {key}"),
                    _ => assert_eq!(
                        map.contains(&key),
                        model.contains(&key),
                        "cap {cap} has {key}"
                    ),
                }
            }
            let shape = map.check_invariants().expect("invariants");
            assert_eq!(shape.user_keys, model.len(), "cap {cap}");
        }
    }

    #[test]
    fn values_drop_once_through_block_churn() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>, u64);
        impl Clone for D {
            fn clone(&self) -> Self {
                D(Arc::clone(&self.0), self.1)
            }
        }
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let map: NmTreeMap<u64, D, Ebr> = NmTreeMap::new();
        const N: u64 = 64;
        for k in 0..N {
            assert!(map.insert(k, D(Arc::clone(&drops), k)));
        }
        // Remove half through the COW path (blocks stay multi-entry) and
        // check the payload identity survived the block copies.
        for k in 0..N / 2 {
            assert_eq!(map.remove_get(&k).map(|d| d.1), Some(k));
        }
        drop(map);
        // Each removed key drops twice (the `remove_get` clone plus the
        // stored original, reclaimed by the collector teardown); each
        // surviving key once (the live-tree teardown).
        let expect = (N / 2) as usize * 2 + (N / 2) as usize;
        assert_eq!(drops.load(Ordering::Relaxed), expect);
    }
}
