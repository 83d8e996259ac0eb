//! Open-loop traffic replay — the serving tier's workload generator.
//!
//! The throughput runner ([`crate::runner`]) is *closed-loop*: each
//! thread issues its next op the instant the previous one returns, so
//! measured latency can never exceed service time and queueing is
//! invisible. Real front-end traffic is *open-loop*: sessions arrive on
//! a schedule that does not care whether the server is keeping up, and
//! tail latency is dominated by the queueing the schedule induces. This
//! module replays exactly that: a deterministic global arrival schedule
//! of simulated sessions (a few ops each, Zipf-skewed hot keys), fanned
//! out over a fixed fleet of client connections, with per-session
//! latency measured from *scheduled arrival* to completion — the
//! "coordinated omission"-free definition, so a stalled server charges
//! every queued session for the stall.
//!
//! Sessions that are already due when a client comes up for air are
//! *coalesced* into one [`SessionTarget::run`] call (one BATCH frame on
//! the wire), which is how a blocking per-connection client sustains
//! millions of scheduled sessions over loopback without a reactor.
//!
//! Two fleet shapes: [`run_replay`] drives a *pinned* fleet (each
//! client keeps one pre-opened connection for the whole run), while
//! [`run_replay_churn`] adds *connection churn* — each client redials
//! through a [`TargetFactory`] every
//! [`ReplayConfig::sessions_per_conn`] sessions, closing the old
//! connection first, so the server continuously sees arrivals and
//! departures (the shape a blocking one-connection-per-worker server
//! provably cannot absorb once connections outnumber workers).
//!
//! Everything is seeded: session `s` always issues the same ops drawn
//! from `XorShift64Star::from_stream(seed, s)`, independent of which
//! client executes it or when.

use crate::rng::XorShift64Star;
use crate::workload::{OpKind, Workload};
use crate::zipf::ZipfGenerator;
use nmbst::obs::hist::Histogram;
use nmbst::BatchCmd;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Where replayed sessions execute: one target per client thread. The
/// replay engine never sees the transport — a target may be a TCP
/// client bundling the ops into a BATCH frame, or an in-process handle
/// (how the engine itself is tested).
pub trait SessionTarget {
    /// Executes one bundle of session ops (possibly several coalesced
    /// sessions' worth, in session order). An `Err` aborts the replay.
    fn run(&mut self, ops: &[BatchCmd<u64, u64>]) -> io::Result<()>;
}

impl<F: FnMut(&[BatchCmd<u64, u64>]) -> io::Result<()>> SessionTarget for F {
    fn run(&mut self, ops: &[BatchCmd<u64, u64>]) -> io::Result<()> {
        self(ops)
    }
}

/// Opens connections for the churn replay mode ([`run_replay_churn`]):
/// each client thread holds one factory and calls [`connect`] whenever
/// it needs a fresh connection — at startup, and again every
/// [`ReplayConfig::sessions_per_conn`] sessions after dropping the old
/// one. Against a TCP server this is real connection churn: the old
/// socket closes, the new one lands on a (round-robin) possibly
/// different worker.
///
/// [`connect`]: TargetFactory::connect
pub trait TargetFactory {
    /// The connection type this factory opens.
    type Target: SessionTarget;
    /// Opens a fresh connection. An `Err` aborts the replay.
    fn connect(&mut self) -> io::Result<Self::Target>;
}

impl<T: SessionTarget, F: FnMut() -> io::Result<T>> TargetFactory for F {
    type Target = T;
    fn connect(&mut self) -> io::Result<T> {
        self()
    }
}

/// Adapts a pre-opened target into a [`TargetFactory`] that yields it
/// exactly once — how [`run_replay`] reuses the churn engine for the
/// classic pinned-fleet mode.
struct Pinned<T>(Option<T>);

impl<T: SessionTarget> TargetFactory for Pinned<T> {
    type Target = T;
    fn connect(&mut self) -> io::Result<T> {
        self.0
            .take()
            .ok_or_else(|| io::Error::other("pinned target cannot reconnect"))
    }
}

/// The replay schedule and workload shape.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Total simulated sessions across all clients.
    pub sessions: u64,
    /// Ops per session (drawn from `workload` with `zipf_theta` keys).
    pub ops_per_session: u32,
    /// Client threads; session `s` is owned by client `s % clients`.
    pub clients: usize,
    /// Key space `0..key_range` (Zipf ranks are scattered over it so
    /// hot keys spread across shards).
    pub key_range: u64,
    /// Zipf skew θ ∈ [0, 1); 0 = uniform.
    pub zipf_theta: f64,
    /// Global arrival rate in sessions/second. `f64::INFINITY` makes
    /// every session due at t=0 (maximum pressure; latency then measures
    /// time-to-drain, not queueing under a sustainable load).
    pub arrival_rate: f64,
    /// Max sessions coalesced into one [`SessionTarget::run`] call.
    pub coalesce: usize,
    /// Max *ops* coalesced into one [`SessionTarget::run`] call; `0`
    /// leaves the session cap alone. The first due session always
    /// ships (a bundle is never empty), so the effective cap is
    /// `max(coalesce_ops, ops_per_session)`. Against a wire target
    /// this bounds the BATCH frame size — the knob the batch-fusion
    /// perf cell sweeps to control how much per-frame sort/partition
    /// work the server's fused execution gets to amortize.
    pub coalesce_ops: usize,
    /// Connection churn ([`run_replay_churn`] only): after this many
    /// sessions a client drops its connection and opens a fresh one
    /// from its [`TargetFactory`]. Churn happens at bundle boundaries —
    /// a coalesced bundle never splits across connections — so the
    /// effective count can overshoot by up to `coalesce - 1`. `0`
    /// pins one connection per client for the whole run (and is forced
    /// by [`run_replay`], whose targets cannot reconnect).
    pub sessions_per_conn: u64,
    /// Operation mix.
    pub workload: Workload,
    /// Master seed; session op streams derive from it.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            sessions: 100_000,
            ops_per_session: 3,
            clients: 2,
            key_range: 1 << 20,
            zipf_theta: 0.9,
            arrival_rate: f64::INFINITY,
            coalesce: 64,
            coalesce_ops: 0,
            sessions_per_conn: 0,
            workload: Workload::MIXED,
            seed: 42,
        }
    }
}

/// What one replay run measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Sessions completed (always `config.sessions` unless a target
    /// errored).
    pub sessions: u64,
    /// Tree operations issued.
    pub ops: u64,
    /// Wall-clock from the schedule's t=0 to the last completion.
    pub elapsed: Duration,
    /// Per-session latency in nanoseconds, measured from *scheduled
    /// arrival* (not send time) to completion.
    pub latency: Histogram,
    /// Per-bundle round-trip time in nanoseconds, measured from just
    /// before [`SessionTarget::run`] to its return — send to receive,
    /// excluding schedule-induced queueing. Against a wire target this
    /// is exactly one frame's client-observed service time, the
    /// population the server's own per-frame wire histogram times from
    /// the other end (the replay bench cross-checks the two).
    pub rtt: Histogram,
    /// Ops issued by each client thread.
    pub per_client_ops: Vec<u64>,
    /// Connections opened across all clients: `clients` in the pinned
    /// mode, more under churn ([`ReplayConfig::sessions_per_conn`]).
    pub conns: u64,
}

impl ReplayReport {
    /// Completed sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Million tree ops per wall-clock second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9) / 1e6
    }

    /// Latency percentile in nanoseconds (p ∈ [0, 100]).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.latency.percentile(p)
    }
}

/// Scatters a Zipf rank over the key space so the hottest ranks don't
/// cluster in one tree region (or one shard). SplitMix64 mix then a
/// range reduction; deterministic, rank-stable.
#[inline]
fn rank_to_key(rank: u64, key_range: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((u128::from(z) * u128::from(key_range)) >> 64) as u64
}

/// Generates session `sid`'s ops — deterministic in `(config.seed,
/// sid)`, so a replay is reproducible across client fleets and runs.
pub fn session_ops(
    cfg: &ReplayConfig,
    zipf: &ZipfGenerator,
    sid: u64,
    out: &mut Vec<BatchCmd<u64, u64>>,
) {
    let mut rng = XorShift64Star::from_stream(cfg.seed, sid);
    for _ in 0..cfg.ops_per_session {
        let key = rank_to_key(zipf.next(&mut rng), cfg.key_range);
        out.push(match cfg.workload.pick(&mut rng) {
            OpKind::Search => BatchCmd::Get(key),
            OpKind::Insert => BatchCmd::Insert(key, sid),
            OpKind::Delete => BatchCmd::Remove(key),
        });
    }
}

/// Runs the replay over a fixed fleet: one thread per pre-opened
/// target, open-loop arrivals, due sessions coalesced up to
/// `config.coalesce` per bundle.
///
/// `targets.len()` must equal `config.clients`. Panics if a target
/// errors — a replay with missing sessions would report a lie.
/// `config.sessions_per_conn` is ignored (pre-opened targets cannot
/// reconnect); use [`run_replay_churn`] for churn.
pub fn run_replay<T: SessionTarget + Send>(cfg: &ReplayConfig, targets: Vec<T>) -> ReplayReport {
    assert_eq!(targets.len(), cfg.clients, "one target per client");
    let cfg = ReplayConfig {
        sessions_per_conn: 0,
        ..cfg.clone()
    };
    run_replay_churn(&cfg, targets.into_iter().map(|t| Pinned(Some(t))).collect())
}

/// Runs the replay with connection churn: one thread per factory, each
/// opening its first connection at t=0 and a fresh one every
/// [`ReplayConfig::sessions_per_conn`] sessions (the old connection is
/// dropped — closed — first, so the server sees genuine connection
/// arrival/departure under load, not a fixed fleet).
///
/// `factories.len()` must equal `config.clients`. Panics if a connect
/// or a target errors — a replay with missing sessions would report a
/// lie.
pub fn run_replay_churn<F>(cfg: &ReplayConfig, factories: Vec<F>) -> ReplayReport
where
    F: TargetFactory + Send,
{
    assert_eq!(factories.len(), cfg.clients, "one target per client");
    assert!(cfg.clients > 0 && cfg.sessions > 0 && cfg.ops_per_session > 0);
    assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");

    // O(key_range) zeta setup paid once, cloned per thread.
    let zipf = ZipfGenerator::new(cfg.key_range.max(1), cfg.zipf_theta);
    let start_gate = Barrier::new(cfg.clients);
    let coalesce = cfg.coalesce.max(1);

    // Session s is scheduled at s / rate seconds after t=0. (Evenly
    // spaced deterministic arrivals: the queueing behavior of interest
    // comes from service-time variance and deliberate overload, and a
    // fixed schedule keeps runs comparable.)
    let arrival_ns = |s: u64| -> u64 {
        if cfg.arrival_rate.is_finite() {
            (s as f64 / cfg.arrival_rate * 1e9) as u64
        } else {
            0
        }
    };

    let churn = cfg.sessions_per_conn;
    let mut per_client: Vec<(u64, Histogram, Histogram, Duration, u64)> =
        Vec::with_capacity(cfg.clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = factories
            .into_iter()
            .enumerate()
            .map(|(c, mut factory)| {
                let zipf = zipf.clone();
                let start_gate = &start_gate;
                let arrival_ns = &arrival_ns;
                s.spawn(move || {
                    let mut hist = Histogram::new();
                    let mut rtt = Histogram::new();
                    let mut ops_issued = 0u64;
                    let mut conns = 0u64;
                    let mut on_conn = 0u64;
                    let mut target: Option<F::Target> = None;
                    let mut bundle_ops: Vec<BatchCmd<u64, u64>> = Vec::new();
                    let mut bundle_arrivals: Vec<u64> = Vec::new();
                    let mut owned = (c as u64..cfg.sessions).step_by(cfg.clients).peekable();
                    start_gate.wait();
                    let t0 = Instant::now();
                    while let Some(sid) = owned.next() {
                        let due = arrival_ns(sid);
                        let now = t0.elapsed().as_nanos() as u64;
                        if now < due {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        bundle_ops.clear();
                        bundle_arrivals.clear();
                        session_ops(cfg, &zipf, sid, &mut bundle_ops);
                        bundle_arrivals.push(due);
                        // Coalesce every already-due session into this
                        // wire round trip, bounded by both the session
                        // cap and (when set) the op cap.
                        let now = t0.elapsed().as_nanos() as u64;
                        while bundle_arrivals.len() < coalesce
                            && (cfg.coalesce_ops == 0
                                || bundle_ops.len() + cfg.ops_per_session as usize
                                    <= cfg.coalesce_ops)
                        {
                            match owned.peek() {
                                Some(&next) if arrival_ns(next) <= now => {
                                    session_ops(cfg, &zipf, next, &mut bundle_ops);
                                    bundle_arrivals.push(arrival_ns(next));
                                    owned.next();
                                }
                                _ => break,
                            }
                        }
                        // Churn at bundle boundaries: close (drop) the
                        // old connection before dialing, so the server
                        // sees departures, not just arrivals. The dial
                        // itself is on the clock — connection setup is
                        // part of what churn mode exists to measure.
                        if target.is_none() || (churn > 0 && on_conn >= churn) {
                            drop(target.take());
                            target = Some(
                                factory
                                    .connect()
                                    .unwrap_or_else(|e| panic!("client {c}: connect failed: {e}")),
                            );
                            conns += 1;
                            on_conn = 0;
                        }
                        let sent = t0.elapsed().as_nanos() as u64;
                        target
                            .as_mut()
                            .expect("connection just established")
                            .run(&bundle_ops)
                            .unwrap_or_else(|e| panic!("client {c}: target failed: {e}"));
                        ops_issued += bundle_ops.len() as u64;
                        on_conn += bundle_arrivals.len() as u64;
                        let done = t0.elapsed().as_nanos() as u64;
                        rtt.record(done.saturating_sub(sent));
                        for &arr in &bundle_arrivals {
                            hist.record(done.saturating_sub(arr));
                        }
                    }
                    (ops_issued, hist, rtt, t0.elapsed(), conns)
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread panicked"));
        }
    });

    let mut latency = Histogram::new();
    let mut rtt = Histogram::new();
    let mut ops = 0;
    let mut elapsed = Duration::ZERO;
    let mut conns = 0;
    let mut per_client_ops = Vec::with_capacity(cfg.clients);
    for (client_ops, hist, client_rtt, client_elapsed, client_conns) in per_client {
        latency.merge(&hist);
        rtt.merge(&client_rtt);
        ops += client_ops;
        elapsed = elapsed.max(client_elapsed);
        conns += client_conns;
        per_client_ops.push(client_ops);
    }
    ReplayReport {
        sessions: latency.len(),
        ops,
        elapsed,
        latency,
        rtt,
        per_client_ops,
        conns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn cfg(sessions: u64, clients: usize) -> ReplayConfig {
        ReplayConfig {
            sessions,
            clients,
            key_range: 1024,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn session_streams_are_deterministic() {
        let c = cfg(10, 1);
        let zipf = ZipfGenerator::new(c.key_range, c.zipf_theta);
        let mut a = Vec::new();
        let mut b = Vec::new();
        session_ops(&c, &zipf, 7, &mut a);
        session_ops(&c, &zipf, 7, &mut b);
        assert_eq!(a, b);
        let mut other = Vec::new();
        session_ops(&c, &zipf, 8, &mut other);
        assert_ne!(a, other, "distinct sessions draw distinct streams");
        assert_eq!(a.len(), c.ops_per_session as usize);
    }

    #[test]
    fn all_sessions_complete_and_count() {
        const SESSIONS: u64 = 10_000;
        let c = cfg(SESSIONS, 3);
        let executed = AtomicU64::new(0);
        let targets: Vec<_> = (0..3)
            .map(|_| {
                let executed = &executed;
                move |ops: &[BatchCmd<u64, u64>]| {
                    executed.fetch_add(ops.len() as u64, Ordering::Relaxed);
                    Ok(())
                }
            })
            .collect();
        let report = run_replay(&c, targets);
        assert_eq!(report.sessions, SESSIONS);
        assert_eq!(report.ops, SESSIONS * c.ops_per_session as u64);
        assert_eq!(report.ops, executed.load(Ordering::Relaxed));
        assert_eq!(report.latency.len(), SESSIONS);
        assert_eq!(report.per_client_ops.len(), 3);
        assert!(report.per_client_ops.iter().all(|&n| n > 0));
        assert!(report.percentile_ns(99.9) >= report.percentile_ns(50.0));
        assert_eq!(report.conns, 3, "pinned mode opens one conn per client");
    }

    #[test]
    fn churn_redials_at_bundle_boundaries() {
        let mut c = cfg(1_000, 2);
        c.coalesce = 4;
        c.sessions_per_conn = 8;
        let connects = AtomicU64::new(0);
        let executed = AtomicU64::new(0);
        let factories: Vec<_> = (0..2)
            .map(|_| {
                let connects = &connects;
                let executed = &executed;
                move || {
                    connects.fetch_add(1, Ordering::Relaxed);
                    Ok(move |ops: &[BatchCmd<u64, u64>]| {
                        executed.fetch_add(ops.len() as u64, Ordering::Relaxed);
                        Ok(())
                    })
                }
            })
            .collect();
        let report = run_replay_churn(&c, factories);
        assert_eq!(report.sessions, 1_000);
        assert_eq!(report.ops, executed.load(Ordering::Relaxed));
        assert_eq!(report.conns, connects.load(Ordering::Relaxed));
        // 500 sessions per client, redial every 8 (= 2 bundles of 4):
        // far more connections than clients, but never more than one
        // per bundle.
        assert!(report.conns > 2, "churn never redialed: {}", report.conns);
        assert!(report.conns <= 2 * 500u64.div_ceil(8));
    }

    #[test]
    fn churn_zero_pins_connections() {
        let mut c = cfg(200, 2);
        c.sessions_per_conn = 0;
        let connects = AtomicU64::new(0);
        let factories: Vec<_> = (0..2)
            .map(|_| {
                let connects = &connects;
                move || {
                    connects.fetch_add(1, Ordering::Relaxed);
                    Ok(|_: &[BatchCmd<u64, u64>]| Ok(()))
                }
            })
            .collect();
        let report = run_replay_churn(&c, factories);
        assert_eq!(report.sessions, 200);
        assert_eq!(report.conns, 2);
        assert_eq!(connects.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn coalescing_respects_cap_and_order() {
        let mut c = cfg(1_000, 1);
        c.coalesce = 8;
        c.ops_per_session = 2;
        let bundles: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let keys_seen: Mutex<Vec<BatchCmd<u64, u64>>> = Mutex::new(Vec::new());
        let report = run_replay(
            &c,
            vec![|ops: &[BatchCmd<u64, u64>]| {
                bundles.lock().unwrap().push(ops.len());
                keys_seen.lock().unwrap().extend_from_slice(ops);
                Ok(())
            }],
        );
        let bundles = bundles.into_inner().unwrap();
        assert!(bundles.iter().all(|&n| n <= 8 * 2), "coalesce cap held");
        assert_eq!(bundles.iter().sum::<usize>() as u64, report.ops);
        // The concatenated stream equals the sessions generated in order.
        let zipf = ZipfGenerator::new(c.key_range, c.zipf_theta);
        let mut expect = Vec::new();
        for sid in 0..1_000 {
            session_ops(&c, &zipf, sid, &mut expect);
        }
        assert_eq!(*keys_seen.lock().unwrap(), expect);
    }

    #[test]
    fn coalesce_ops_caps_bundle_size() {
        let mut c = cfg(1_000, 1);
        c.coalesce = 64; // session cap alone would allow 192-op bundles
        c.ops_per_session = 3;
        c.coalesce_ops = 10; // ⇒ at most 3 sessions (9 ops) per bundle
        let bundles: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let report = run_replay(
            &c,
            vec![|ops: &[BatchCmd<u64, u64>]| {
                bundles.lock().unwrap().push(ops.len());
                Ok(())
            }],
        );
        assert_eq!(report.sessions, 1_000);
        let bundles = bundles.into_inner().unwrap();
        assert!(bundles.iter().all(|&n| n <= 9), "op cap held: {bundles:?}");
        assert_eq!(bundles.iter().sum::<usize>() as u64, report.ops);
        // The cap shrinks bundles but must not drop sessions.
        assert_eq!(report.ops, 3_000);
    }

    #[test]
    fn finite_rate_paces_arrivals() {
        // 2000 sessions at 20k/s ⇒ the schedule alone takes ≥ 100 ms.
        let mut c = cfg(2_000, 2);
        c.arrival_rate = 20_000.0;
        let report = run_replay(
            &c,
            (0..2)
                .map(|_| |_: &[BatchCmd<u64, u64>]| Ok(()))
                .collect::<Vec<_>>(),
        );
        assert!(
            report.elapsed >= Duration::from_millis(95),
            "open-loop pacing ignored the schedule: {:?}",
            report.elapsed
        );
        // A fast target under a sustainable rate keeps latency far below
        // the run length (queueing never builds).
        assert!(report.percentile_ns(50.0) < 50_000_000);
    }

    #[test]
    #[should_panic(expected = "one target per client")]
    fn target_count_must_match() {
        let c = cfg(10, 2);
        let _ = run_replay(&c, vec![|_: &[BatchCmd<u64, u64>]| Ok(())]);
    }
}
