//! The flight recorder (`feature = "obs"`): per-thread lock-free event
//! rings.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb the schedule being recorded.** A recording thread
//!    writes only to its own ring — one relaxed `fetch_add` on the shared
//!    sequence counter, then three stores into a slot it exclusively
//!    owns. No locks, no allocation, no cross-thread stores.
//! 2. **Deterministic under the explorer.** Recorder state is
//!    capture-scoped, not process-global: each [`FlightRecorder`] owns
//!    its own sequence counter (starting at 0) and ring registry, so
//!    concurrently running tests cannot pollute each other's traces and
//!    the same explorer seed yields a byte-identical merged trace.
//! 3. **Readable while hot.** [`FlightRecorder::merged`] may run while
//!    threads still record; each slot is validated with a
//!    [`SeqCount`] and torn slots are skipped rather
//!    than spun on.
//!
//! Rings have fixed capacity: when full, the oldest events are
//! overwritten and counted in [`FlightRecorder::dropped`] — a flight
//! recorder keeps the *latest* window, which is the one that explains a
//! failure.

use super::EventKind;
use nmbst_sync::{SeqCount, SpinLock};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Events each per-thread ring retains before overwriting the oldest.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Packs an [`EventKind`] into one word: discriminant in the low byte,
/// the (only) argument in the bits above it.
fn encode(kind: EventKind) -> u64 {
    match kind {
        EventKind::SeekStart => 0,
        EventKind::LocalRestart => 1,
        EventKind::InjectFlag => 2,
        EventKind::TagSibling => 3,
        EventKind::Splice { chain_len } => 4 | (u64::from(chain_len) << 8),
        EventKind::Help => 5,
        EventKind::Retire => 6,
        EventKind::Repin => 7,
    }
}

fn decode(data: u64) -> EventKind {
    match data & 0xFF {
        0 => EventKind::SeekStart,
        1 => EventKind::LocalRestart,
        2 => EventKind::InjectFlag,
        3 => EventKind::TagSibling,
        4 => EventKind::Splice {
            chain_len: (data >> 8) as u32,
        },
        5 => EventKind::Help,
        6 => EventKind::Retire,
        _ => EventKind::Repin,
    }
}

/// One ring slot. `version` brackets writes so a concurrent reader can
/// tell a consistent `(seq, data)` pair from a torn one.
struct Slot {
    version: SeqCount,
    seq: AtomicU64,
    data: AtomicU64,
}

/// One thread's ring. Written only by the owning thread (enforced by
/// reaching it exclusively through thread-local state); read by anyone.
struct Ring {
    label: u32,
    /// Total events ever pushed; the write cursor is `head % capacity`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(label: u32, capacity: usize) -> Ring {
        Ring {
            label,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    version: SeqCount::new(),
                    seq: AtomicU64::new(0),
                    data: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Owner-thread-only append.
    fn push(&self, seq: u64, kind: EventKind) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.version.write_begin();
        slot.seq.store(seq, Ordering::Relaxed);
        slot.data.store(encode(kind), Ordering::Relaxed);
        slot.version.write_end();
        self.head.store(head + 1, Ordering::Release);
    }
}

struct Inner {
    /// Global (per-recorder) sequence counter. One relaxed `fetch_add`
    /// per event; each thread's subsequence is strictly monotonic, and
    /// sorting the merged trace by it reconstructs a total order
    /// consistent with every per-thread program order.
    seq: AtomicU64,
    capacity: usize,
    /// Every ring ever attached, in attach order. Locked only on attach
    /// and merge, never on the emit path.
    rings: SpinLock<Vec<Arc<Ring>>>,
}

thread_local! {
    /// The recorder(s) this thread is attached to, innermost last. A
    /// stack so tests can nest captures; [`emit`] records only into the
    /// innermost.
    static CURRENT: RefCell<Vec<(Arc<Inner>, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// Records `kind` into the current thread's attached ring, if any.
///
/// This is the only entry point the tree calls. Cost when unattached:
/// one thread-local borrow and a branch.
#[inline]
pub(crate) fn emit(kind: EventKind) {
    CURRENT.with(|current| {
        if let Some((inner, ring)) = current.borrow().last() {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            ring.push(seq, kind);
        }
    });
}

/// This thread's position in its innermost attached ring (events
/// recorded so far), or `u64::MAX` when unattached. An armed latency
/// timer takes this at op start so a slow op can report exactly the
/// events recorded during it.
#[inline]
pub(crate) fn local_mark() -> u64 {
    CURRENT.with(|current| {
        current
            .borrow()
            .last()
            .map_or(u64::MAX, |(_, ring)| ring.head.load(Ordering::Relaxed))
    })
}

/// The event discriminants this thread recorded into its innermost ring
/// since `mark` (from [`local_mark`]), keeping the latest
/// [`SLOW_EVENTS`](super::slow::SLOW_EVENTS) when the op recorded more
/// (the tail of a retry storm is where the resolution is). Reading our
/// own ring is safe without validation: the owner is the only writer.
pub(crate) fn local_events_since(mark: u64) -> ([u8; super::slow::SLOW_EVENTS], u8) {
    let mut out = [0u8; super::slow::SLOW_EVENTS];
    let mut n = 0u8;
    if mark == u64::MAX {
        return (out, n);
    }
    CURRENT.with(|current| {
        if let Some((_, ring)) = current.borrow().last() {
            let head = ring.head.load(Ordering::Relaxed);
            let cap = ring.slots.len() as u64;
            let start = mark
                .max(head.saturating_sub(cap))
                .max(head.saturating_sub(out.len() as u64));
            for i in start..head {
                let slot = &ring.slots[(i % cap) as usize];
                out[usize::from(n)] = (slot.data.load(Ordering::Relaxed) & 0xFF) as u8;
                n += 1;
            }
        }
    });
    (out, n)
}

/// A capture-scoped flight recorder (see the [module docs](self)).
///
/// Cloning is cheap and shares the capture: clone one recorder into each
/// worker thread, [`attach`](FlightRecorder::attach) there, and read the
/// [`merged`](FlightRecorder::merged) trace from the driver.
///
/// # Examples
///
/// ```
/// use nmbst::obs::FlightRecorder;
/// use nmbst::NmTreeMap;
///
/// let set: NmTreeMap<u64, ()> = NmTreeMap::new();
/// let rec = FlightRecorder::new();
/// {
///     let _attached = rec.attach(0);
///     set.insert(7, ());
///     set.remove(&7);
/// }
/// let trace = rec.merged();
/// assert!(!trace.is_empty());
/// // Per-thread sequence numbers are strictly monotonic.
/// assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A recorder whose rings hold [`DEFAULT_CAPACITY`] events each.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder with explicit per-thread ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Inner {
                seq: AtomicU64::new(0),
                capacity: capacity.max(1),
                rings: SpinLock::new(Vec::new()),
            }),
        }
    }

    /// Attaches the current thread to this recorder under `label`
    /// (conventionally the worker's thread index): until the returned
    /// guard drops, every structural event the thread executes is
    /// recorded into a fresh ring. Attachments nest; the innermost wins.
    pub fn attach(&self, label: u32) -> RecorderGuard {
        let ring = Arc::new(Ring::new(label, self.inner.capacity));
        self.inner.rings.lock().push(Arc::clone(&ring));
        CURRENT.with(|current| {
            current.borrow_mut().push((Arc::clone(&self.inner), ring));
        });
        RecorderGuard {
            _not_send: PhantomData,
        }
    }

    /// All recorded events from every attached thread, merged and sorted
    /// by sequence number. Safe to call while threads still record:
    /// slots being overwritten at that moment are skipped.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<Ring>> = self.inner.rings.lock().clone();
        let mut events = Vec::new();
        for ring in rings {
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            for i in head.saturating_sub(cap)..head {
                let slot = &ring.slots[(i % cap) as usize];
                let version = slot.version.raw();
                if version & 1 == 1 {
                    continue; // mid-write right now
                }
                let seq = slot.seq.load(Ordering::Relaxed);
                let data = slot.data.load(Ordering::Relaxed);
                if !slot.version.validate(version) {
                    continue; // overwritten while we read
                }
                events.push(TraceEvent {
                    seq,
                    thread: ring.label,
                    kind: decode(data),
                });
            }
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Events lost to ring overwrite across all threads.
    pub fn dropped(&self) -> u64 {
        self.inner
            .rings
            .lock()
            .iter()
            .map(|r| {
                r.head
                    .load(Ordering::Acquire)
                    .saturating_sub(r.slots.len() as u64)
            })
            .sum()
    }

    /// The merged trace rendered as text, one event per line — the
    /// postmortem artifact format (byte-identical for identical traces).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in self.merged() {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.inner.capacity)
            .field("rings", &self.inner.rings.lock().len())
            .field("seq", &self.inner.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Detaches the thread from its innermost recorder on drop. `!Send`: it
/// manipulates the attaching thread's local state.
pub struct RecorderGuard {
    _not_send: PhantomData<*mut ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            current.borrow_mut().pop();
        });
    }
}

impl std::fmt::Debug for RecorderGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecorderGuard { .. }")
    }
}

/// One recorded event: where ([`thread`](TraceEvent::thread)), when
/// ([`seq`](TraceEvent::seq)), what ([`kind`](TraceEvent::kind)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recorder-wide sequence number (per-thread subsequences are
    /// strictly monotonic).
    pub seq: u64,
    /// The label the recording thread attached under.
    pub thread: u32,
    /// The structural event.
    pub kind: EventKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:06} t{} {}", self.seq, self.thread, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for kind in [
            EventKind::SeekStart,
            EventKind::LocalRestart,
            EventKind::InjectFlag,
            EventKind::TagSibling,
            EventKind::Splice { chain_len: 0 },
            EventKind::Splice {
                chain_len: u32::MAX,
            },
            EventKind::Help,
            EventKind::Retire,
            EventKind::Repin,
        ] {
            assert_eq!(decode(encode(kind)), kind);
        }
    }

    #[test]
    fn unattached_emit_is_a_no_op() {
        emit(EventKind::SeekStart);
        let rec = FlightRecorder::new();
        assert!(rec.merged().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(4);
        {
            let _g = rec.attach(9);
            for _ in 0..10 {
                emit(EventKind::Help);
            }
        }
        assert_eq!(rec.dropped(), 6);
        let trace = rec.merged();
        assert_eq!(trace.len(), 4);
        // The latest window survives: seqs 6..=9.
        assert_eq!(trace.first().unwrap().seq, 6);
        assert_eq!(trace.last().unwrap().seq, 9);
        assert!(trace.iter().all(|e| e.thread == 9));
    }

    #[test]
    fn captures_nest_and_do_not_leak_across_recorders() {
        let outer = FlightRecorder::new();
        let inner = FlightRecorder::new();
        let _o = outer.attach(0);
        emit(EventKind::SeekStart);
        {
            let _i = inner.attach(1);
            emit(EventKind::Help);
        }
        emit(EventKind::Retire);
        let outer_trace = outer.merged();
        assert_eq!(outer_trace.len(), 2);
        assert!(matches!(outer_trace[0].kind, EventKind::SeekStart));
        assert!(matches!(outer_trace[1].kind, EventKind::Retire));
        let inner_trace = inner.merged();
        assert_eq!(inner_trace.len(), 1);
        assert!(matches!(inner_trace[0].kind, EventKind::Help));
        // Each recorder numbers from zero, independently.
        assert_eq!(inner_trace[0].seq, 0);
    }

    #[test]
    fn merged_orders_across_threads() {
        let rec = FlightRecorder::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    let _g = rec.attach(t);
                    for _ in 0..100 {
                        emit(EventKind::SeekStart);
                    }
                });
            }
        });
        let trace = rec.merged();
        assert_eq!(trace.len(), 400);
        // The shared counter hands out unique seqs; sorted means strictly
        // increasing, and each thread's subsequence is monotonic by
        // construction.
        assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
        for t in 0..4 {
            assert_eq!(trace.iter().filter(|e| e.thread == t).count(), 100);
        }
    }
}
