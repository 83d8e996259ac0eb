//! Slow-op capture: a lock-free ring of compact records for operations
//! that exceeded a configured latency threshold.
//!
//! A tail-latency outlier is only actionable with context, so each
//! record carries the op kind, the key (when the depositing layer has a
//! `u64` key — the server does; the generic tree stores 0), the
//! duration, and — when the `obs` flight recorder was attached on the
//! depositing thread — the chain of structural events recorded during
//! the op (retries, helps, splices), truncated to [`SLOW_EVENTS`].
//!
//! The ring is multi-producer/multi-consumer without locks: writers
//! take a ticket with one `fetch_add` on the head, then claim the
//! ticket's slot by CAS-ing its Vyukov-style sequence word from the
//! even (stable) value they observed to odd (writing), and publish by
//! storing the next even, ticket-tagged value. A writer that finds the
//! slot odd (another writer lapped onto it mid-publish) or already
//! tagged with a newer ticket drops its record instead (counted in
//! [`SlowRing::dropped`]), so at most one writer ever fills a slot at a
//! time and a slot's even values only grow. Readers sample every slot
//! and discard torn ones by re-checking the sequence — no reader ever
//! blocks a writer, and the ring keeps the *latest* window when full,
//! the same retention policy as the flight recorder. Record payloads
//! are stored through relaxed atomics (five words per slot), so a torn
//! read is detected, never undefined.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Max structural events a [`SlowOp`] retains from the flight recorder.
pub const SLOW_EVENTS: usize = 12;

/// Records the tree-level slow ring retains (per tree).
pub(crate) const TREE_SLOW_CAP: usize = 64;

/// A compact record of one slow operation. `Copy`, fixed-size, and
/// wire-encodable (the server's SLOWLOG verb ships these verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlowOp {
    /// Op kind discriminant (an [`OpClass`](super::OpClass) as `u8` for
    /// tree-level records; the server uses its wire opcodes).
    pub kind: u8,
    /// Which layer deposited the record: 0 = tree, 1 = server.
    pub origin: u8,
    /// Number of valid entries in [`events`](SlowOp::events).
    pub n_events: u8,
    /// The key the op targeted, when the depositing layer has a `u64`
    /// key (the server); 0 otherwise (generic tree keys are only `Ord`).
    pub key: u64,
    /// Wall-clock duration of the op in nanoseconds.
    pub ns: u64,
    /// Flight-recorder event discriminants for the op, oldest first
    /// (see [`slow_event_name`]); all zero when no recorder was
    /// attached or `feature = "obs"` is off.
    pub events: [u8; SLOW_EVENTS],
}

impl SlowOp {
    /// Packs the record into the ring's five payload words.
    fn encode(&self) -> [u64; 5] {
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        lo.copy_from_slice(&self.events[..8]);
        hi[..SLOW_EVENTS - 8].copy_from_slice(&self.events[8..]);
        [
            u64::from(self.kind) | (u64::from(self.origin) << 8) | (u64::from(self.n_events) << 16),
            self.key,
            self.ns,
            u64::from_le_bytes(lo),
            u64::from_le_bytes(hi),
        ]
    }

    fn decode(words: [u64; 5]) -> SlowOp {
        let mut events = [0u8; SLOW_EVENTS];
        events[..8].copy_from_slice(&words[3].to_le_bytes());
        events[8..].copy_from_slice(&words[4].to_le_bytes()[..SLOW_EVENTS - 8]);
        SlowOp {
            kind: words[0] as u8,
            origin: (words[0] >> 8) as u8,
            n_events: (words[0] >> 16) as u8,
            key: words[1],
            ns: words[2],
            events,
        }
    }

    /// The recorded event chain as names, oldest first (empty when no
    /// recorder was attached).
    pub fn event_names(&self) -> Vec<&'static str> {
        self.events[..usize::from(self.n_events).min(SLOW_EVENTS)]
            .iter()
            .map(|&d| slow_event_name(d))
            .collect()
    }
}

/// The name of a flight-recorder event discriminant as stored in
/// [`SlowOp::events`]. The numbering matches the recorder's on-ring
/// encoding (asserted against it in tests when `feature = "obs"` is
/// on), and is stable for wire consumers that never compile the
/// recorder in.
pub fn slow_event_name(discriminant: u8) -> &'static str {
    match discriminant {
        0 => "SeekStart",
        1 => "LocalRestart",
        2 => "InjectFlag",
        3 => "TagSibling",
        4 => "Splice",
        5 => "Help",
        6 => "Retire",
        7 => "Repin",
        _ => "?",
    }
}

/// One ring slot: a Vyukov-style sequence word plus the five payload
/// words, all atomics so concurrent access is detected-torn, never UB.
struct Slot {
    /// Odd while a writer is mid-publish; `2 * (ticket + 1)` once the
    /// record for `ticket` is stable. Only the writer whose CAS turned
    /// the value odd writes the payload, and even values are strictly
    /// monotonic per slot, so a reader that sees the same even value
    /// before and after its payload loads read a consistent record.
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

/// A fixed-capacity lock-free MPMC overwrite ring of [`SlowOp`]s.
///
/// Writers never block or allocate; when the ring is full the oldest
/// records are overwritten (slow ops are diagnostics — the latest
/// window is the useful one), and a writer that laps another one still
/// mid-publish on the same slot drops its record rather than wait.
/// Readers ([`snapshot`](SlowRing::snapshot)) may run concurrently with
/// writers and skip records they catch mid-publish.
///
/// # Examples
///
/// ```
/// use nmbst::obs::slow::{SlowOp, SlowRing};
///
/// let ring = SlowRing::new(8);
/// ring.push(SlowOp { kind: 1, ns: 2_000_000, ..SlowOp::default() });
/// let seen = ring.snapshot();
/// assert_eq!(seen.len(), 1);
/// assert_eq!(seen[0].ns, 2_000_000);
/// ```
pub struct SlowRing {
    /// Total records ever pushed; a writer's slot is `ticket % cap`.
    head: AtomicU64,
    /// Records dropped because their slot was mid-publish by a lapping
    /// writer or already held a newer ticket's record.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl SlowRing {
    /// A ring retaining the latest `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        SlowRing {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: Default::default(),
                })
                .collect(),
        }
    }

    /// Deposits one record: one `fetch_add` to take a ticket, one CAS
    /// to claim its slot, six stores to publish. Lock-free,
    /// allocation-free and wait-free: a slot another writer holds is
    /// never waited for (the record is dropped and counted instead).
    pub fn push(&self, op: SlowOp) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.claim(ticket) {
            Self::publish(slot, ticket, &op);
        }
    }

    /// The first half of [`push`](Self::push): claims `ticket`'s slot by
    /// moving its sequence from the even value observed to odd
    /// `2 * ticket + 1`. Returns `None` — and counts a drop — if the slot
    /// is odd (a lapping writer is mid-publish), already holds a newer
    /// ticket's record, or moved between the load and the CAS.
    fn claim(&self, ticket: u64) -> Option<&Slot> {
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seen = slot.seq.load(Ordering::Relaxed);
        // Acquire on success: the payload stores of the writer whose
        // even value we replace happen before ours.
        let claimed = seen & 1 == 0
            && seen < 2 * (ticket + 1)
            && slot
                .seq
                .compare_exchange(seen, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if !claimed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Orders the odd store before the payload stores: a reader whose
        // (acquire) payload load returns one of our words synchronizes
        // with this fence, so its re-check of the sequence sees the odd
        // value or a later one and discards the record.
        fence(Ordering::Release);
        Some(slot)
    }

    /// The second half of [`push`](Self::push): writes the payload into
    /// a slot [`claim`](Self::claim) returned for `ticket`, then marks it
    /// stable.
    fn publish(slot: &Slot, ticket: u64, op: &SlowOp) {
        for (w, v) in slot.words.iter().zip(op.encode()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (ticket + 1), Ordering::Release);
    }

    /// Total records ever deposited (including overwritten and dropped
    /// ones).
    pub fn deposited(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because a lapping writer held their slot
    /// mid-publish, or a newer record already filled it.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The stable records currently in the ring, oldest first. Records
    /// mid-overwrite at read time are skipped, not spun on.
    pub fn snapshot(&self) -> Vec<SlowOp> {
        let mut out: Vec<(u64, SlowOp)> = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue; // never written, or mid-publish
            }
            let mut words = [0u64; 5];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while we read
            }
            out.push((before, SlowOp::decode(words)));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, op)| op).collect()
    }
}

impl std::fmt::Debug for SlowRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowRing")
            .field("capacity", &self.slots.len())
            .field("deposited", &self.deposited())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: u8, key: u64, ns: u64) -> SlowOp {
        SlowOp {
            kind,
            key,
            ns,
            ..SlowOp::default()
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut events = [0u8; SLOW_EVENTS];
        for (i, e) in events.iter_mut().enumerate() {
            *e = i as u8;
        }
        let original = SlowOp {
            kind: 3,
            origin: 1,
            n_events: 12,
            key: u64::MAX,
            ns: 123_456_789,
            events,
        };
        assert_eq!(SlowOp::decode(original.encode()), original);
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        let ring = SlowRing::new(4);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.deposited(), 0);
    }

    #[test]
    fn ring_keeps_latest_window_in_order() {
        let ring = SlowRing::new(4);
        for i in 0..10u64 {
            ring.push(op(0, i, i * 100));
        }
        assert_eq!(ring.deposited(), 10);
        let seen = ring.snapshot();
        assert_eq!(seen.len(), 4);
        assert_eq!(
            seen.iter().map(|o| o.key).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "latest window, oldest first"
        );
    }

    #[test]
    fn concurrent_pushes_never_yield_torn_records() {
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let ring = SlowRing::new(16);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..PER {
                        // kind/key/ns all derive from one value, so a
                        // torn mix of two records is detectable.
                        let v = t * PER + i;
                        ring.push(op((v % 5) as u8, v, v * 7));
                    }
                });
            }
            // Read while writers run: every record seen must be
            // internally consistent.
            let ring = &ring;
            s.spawn(move || {
                for _ in 0..1_000 {
                    for o in ring.snapshot() {
                        assert_eq!(o.kind, (o.key % 5) as u8, "torn record");
                        assert_eq!(o.ns, o.key * 7, "torn record");
                    }
                }
            });
        });
        assert_eq!(ring.deposited(), THREADS * PER);
        let final_snap = ring.snapshot();
        assert!(!final_snap.is_empty());
        for o in final_snap {
            assert_eq!(o.ns, o.key * 7);
        }
    }

    /// The lap that used to tear a record, replayed deterministically
    /// through the two halves of `push`: a writer stalled between its
    /// claim and its publish, a second writer whose ticket maps to the
    /// same slot, and readers in between. The lapping writer must not
    /// write into the held slot, and a late writer with an older ticket
    /// must not rewind a slot a newer record already filled.
    #[test]
    fn lapping_writers_neither_tear_nor_rewind_a_slot() {
        let ring = SlowRing::new(2);
        let seq = |i: usize| ring.slots[i].seq.load(Ordering::Relaxed);
        let keys = |ring: &SlowRing| ring.snapshot().iter().map(|o| o.key).collect::<Vec<_>>();

        // Writer A takes ticket 0 (slot 0), claims it and stalls.
        let a = ring.head.fetch_add(1, Ordering::Relaxed);
        let held = ring.claim(a).expect("a fresh slot is claimable");
        assert_eq!(seq(0), 1, "odd while A writes");
        // Ticket 1 fills slot 1; writer B takes ticket 2, which laps
        // onto A's slot 0 while A is still mid-publish.
        ring.push(op(1, 1, 7));
        let b = ring.head.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b % 2, a % 2, "B's ticket maps to A's slot");
        assert!(ring.claim(b).is_none(), "a held slot is not claimed twice");
        assert_eq!(ring.dropped(), 1);
        assert_eq!(seq(0), 1, "B left A's claim alone");
        assert_eq!(keys(&ring), vec![1], "readers skip the held slot");
        // A finishes: its record is whole, under its own ticket's tag.
        SlowRing::publish(held, a, &op(0, 0, 0));
        assert_eq!(seq(0), 2);
        assert_eq!(keys(&ring), vec![0, 1]);

        // Tickets 3 and 5 share slot 1. The newer one publishes first;
        // the older one arrives late and must drop, not rewind.
        let t3 = ring.head.fetch_add(1, Ordering::Relaxed);
        let t4 = ring.head.fetch_add(1, Ordering::Relaxed);
        let t5 = ring.head.fetch_add(1, Ordering::Relaxed);
        SlowRing::publish(ring.claim(t5).expect("slot 1 is stable"), t5, &op(0, 5, 35));
        assert_eq!(seq(1), 2 * (t5 + 1));
        assert!(ring.claim(t3).is_none(), "an older ticket cannot rewind");
        assert_eq!(seq(1), 2 * (t5 + 1), "sequence never goes backwards");
        SlowRing::publish(ring.claim(t4).expect("slot 0 is stable"), t4, &op(4, 4, 28));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.deposited(), 6);
        assert_eq!(keys(&ring), vec![4, 5]);
    }

    #[test]
    fn event_names_render() {
        let mut o = op(0, 0, 0);
        o.n_events = 3;
        o.events[0] = 0;
        o.events[1] = 1;
        o.events[2] = 4;
        assert_eq!(o.event_names(), vec!["SeekStart", "LocalRestart", "Splice"]);
    }
}
