//! The in-process workloads, driven from the calling thread.
//! `embed_hot_writes` calls one `NmTreeMap` through a `MapHandle`, one op
//! per call; `embed_batch` calls a sharded store through
//! `ShardedMapHandle::execute_batch`, `batch_ops` ops per call. With one
//! thread the ops take effect in the order they are issued (a fused batch
//! replies as if run in input order), so the sequential model predicts
//! every reply exactly. After the run every key is read back against the
//! model and the structural invariants are checked.

use crate::config::{Workload, SHARDS};
use crate::gen::{Checker, OpGen, Shadow};
use crate::pin;
use crate::stats::{quantile, rss_bytes, Windows};
use crate::trace::{write_spans, Trace, NO_PARENT};
use crate::{
    ladder_metrics, layer_report, ratio, spans_path, Args, Report, Rung, Slice, BEHIND_SHARE,
    FULL_SHARE, LADDER_SHARE, RATE_Q, ROUNDS, SETUP_Q, WARM_SHARE, WINDOW_NS,
};
use nmbst::obs::MetricsSnapshot;
use nmbst::{
    BatchCmd, BatchScratch, BatchVerdict, Ebr, MapHandle, NmTreeMap, ShardedMapHandle, TreeConfig,
};
use nmbst_server::wire::{BatchOp, BatchReply};
use nmbst_server::Store;
use std::time::{Duration, Instant};

type Tree = NmTreeMap<u64, u64>;

/// Set-ups averaged into one `setup_s` sample run for at least this
/// long: one small set-up alone takes microseconds, too little to read
/// steadily from the clock.
const SETUP_SAMPLE: Duration = Duration::from_millis(20);

/// The map under test.
enum Map {
    Tree(Box<Tree>),
    Store(Store),
}

impl Map {
    /// Set-up: a fresh map with the default configuration, prefilled.
    fn setup(w: &Workload, order: &[(u64, u64)]) -> Map {
        if w.batch_ops == 1 {
            let tree = Tree::new();
            let mut h = tree.handle();
            for &(k, v) in order {
                h.insert(k, v);
            }
            drop(h);
            Map::Tree(Box::new(tree))
        } else {
            let store = Store::with_config(SHARDS, TreeConfig::default());
            let mut h = store.handle();
            for &(k, v) in order {
                h.insert(k, v);
            }
            drop(h);
            Map::Store(store)
        }
    }

    fn caller(&self, w: &Workload) -> Caller<'_> {
        match self {
            Map::Tree(t) => Caller::Point(t.handle()),
            Map::Store(s) => Caller::Batch {
                h: s.handle(),
                width: w.batch_ops,
                ops: Vec::with_capacity(w.batch_ops),
                cmds: Vec::with_capacity(w.batch_ops),
                scratch: BatchScratch::new(),
                out: Vec::with_capacity(w.batch_ops),
            },
        }
    }

    fn get(&self, k: u64) -> Option<u64> {
        match self {
            Map::Tree(t) => t.get(&k),
            Map::Store(s) => s.get(&k),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Map::Tree(t) => t.metrics(),
            Map::Store(s) => s.metrics(),
        }
    }

    /// Checks the structural invariants; returns the keys found.
    fn check(&mut self) -> Result<u64, String> {
        Ok(match self {
            Map::Tree(t) => t.check_invariants()?.user_keys as u64,
            Map::Store(s) => s
                .check_invariants()?
                .iter()
                .map(|t| t.user_keys as u64)
                .sum(),
        })
    }
}

/// A handle on the map and the buffers one call into it needs.
enum Caller<'m> {
    Point(MapHandle<'m, u64, u64>),
    Batch {
        h: ShardedMapHandle<'m, u64, u64, Ebr>,
        width: usize,
        ops: Vec<BatchOp>,
        cmds: Vec<BatchCmd<u64, u64>>,
        scratch: BatchScratch,
        out: Vec<BatchVerdict<u64>>,
    },
}

impl Caller<'_> {
    /// Ops per call.
    fn width(&self) -> u64 {
        match self {
            Caller::Point(_) => 1,
            Caller::Batch { width, .. } => *width as u64,
        }
    }

    /// Makes one call with the next ops of `gen` and checks every reply
    /// against the model. With `span`, records the call into the program
    /// (and nothing of the benchmark's own work) as request `span.1`.
    #[inline]
    fn call(&mut self, gen: &mut OpGen, chk: &mut Checker, span: Option<(&mut Trace, u64)>) {
        match self {
            Caller::Point(h) => {
                let op = gen.next();
                let start = span.as_ref().map_or(0, |s| s.0.now());
                let (reply, name) = match op {
                    BatchOp::Get(k) => (
                        h.get(&k).map_or(BatchReply::Missing, BatchReply::Found),
                        "tree.get",
                    ),
                    BatchOp::Insert(k, v) => (BatchReply::Added(h.insert(k, v)), "tree.insert"),
                    BatchOp::Remove(k) => (BatchReply::Removed(h.remove(&k)), "tree.remove"),
                };
                if let Some((tr, req)) = span {
                    tr.record(name, req, NO_PARENT, start, tr.now());
                }
                chk.check(op, Some(reply));
            }
            Caller::Batch {
                h,
                width,
                ops,
                cmds,
                scratch,
                out,
            } => {
                ops.clear();
                cmds.clear();
                for _ in 0..*width {
                    let op = gen.next();
                    ops.push(op);
                    cmds.push(match op {
                        BatchOp::Get(k) => BatchCmd::Get(k),
                        BatchOp::Insert(k, v) => BatchCmd::Insert(k, v),
                        BatchOp::Remove(k) => BatchCmd::Remove(k),
                    });
                }
                let start = span.as_ref().map_or(0, |s| s.0.now());
                h.execute_batch(cmds, scratch, out);
                if let Some((tr, req)) = span {
                    tr.record("shard.execute_batch", req, NO_PARENT, start, tr.now());
                }
                for (&op, v) in ops.iter().zip(out.iter()) {
                    chk.check(
                        op,
                        Some(match *v {
                            BatchVerdict::Found(x) => BatchReply::Found(x),
                            BatchVerdict::Missing => BatchReply::Missing,
                            BatchVerdict::Added(b) => BatchReply::Added(b),
                            BatchVerdict::Removed(b) => BatchReply::Removed(b),
                        }),
                    );
                }
            }
        }
    }

    /// The runs `execute_batch` made of the last batch.
    fn runs(&self, map: &Map) -> u64 {
        match (self, map) {
            (Caller::Batch { ops, .. }, Map::Store(store)) => shard_runs(store, ops),
            _ => 0,
        }
    }

    fn flush_stats(&mut self) {
        match self {
            Caller::Point(h) => h.flush_stats(),
            Caller::Batch { h, .. } => h.flush_stats(),
        }
    }
}

/// Closed loop: `windows` windows of `ops` ops, returning each window's
/// rate in ops per second. A fixed op count, not a fixed time, keeps the
/// work (and the memory it leaves behind) the same whatever the speed.
fn closed(
    c: &mut Caller<'_>,
    gen: &mut OpGen,
    chk: &mut Checker,
    windows: usize,
    ops: u64,
) -> Vec<f64> {
    let calls = (ops / c.width()).max(1);
    (0..windows)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                c.call(gen, chk, None);
            }
            (calls * c.width()) as f64 / t.elapsed().as_secs_f64()
        })
        .collect()
}

/// One slice of an open-loop rung: `kops` thousand ops per second for
/// `secs`, each call timed from its scheduled start into `lat`. Every
/// slice makes all its calls, however late: the tree's memory grows with
/// the ops it has run, so a fixed op count keeps `mem_bytes_per_key`
/// independent of the host's speed.
fn open(
    c: &mut Caller<'_>,
    gen: &mut OpGen,
    chk: &mut Checker,
    kops: f64,
    secs: f64,
    lat: &mut Windows,
) -> Slice {
    let period = c.width() as f64 * 1e6 / kops;
    let n = (secs * 1e9 / period) as u64;
    let start = Instant::now();
    // One clock read per call once the loop runs behind: the end of one
    // call is the start of the next.
    let mut now = 0;
    for i in 0..n {
        let due = (i as f64 * period) as u64;
        while now < due {
            std::hint::spin_loop();
            now = start.elapsed().as_nanos() as u64;
        }
        c.call(gen, chk, None);
        now = start.elapsed().as_nanos() as u64;
        lat.push(now - due);
    }
    Slice {
        achieved_kops: (n * c.width()) as f64 / now.max(1) as f64 * 1e6,
        lat: lat.finish(),
        behind: now as f64 > secs * 1e9 * (1.0 + BEHIND_SHARE),
        late_p99_ns: 0.0,
    }
}

/// Reads every key back against the model and checks the invariants.
/// Returns the number of keys that disagree.
fn verify(map: &mut Map, shadow: &Shadow, r: &mut Report) -> u64 {
    let keys = shadow.keys();
    let bad = (0..keys).filter(|&k| map.get(k) != shadow.get(k)).count() as u64;
    match map.check() {
        Ok(n) if n == shadow.live() => r.checks_ok = true,
        Ok(n) => r.lines.push(format!(
            "check failed: {n} keys in the map, {} in the model",
            shadow.live()
        )),
        Err(e) => r.lines.push(format!("check failed: {e}")),
    }
    if bad != 0 {
        r.lines.push(format!(
            "oracle: {bad} of {keys} keys disagree with the model"
        ));
    }
    bad
}

/// Closed-loop windows that fill `share` of a run of `secs`, at one
/// window per [`WINDOW_NS`].
fn windows(share: f64, secs: f64) -> usize {
    ((share * secs * 1e9 / WINDOW_NS as f64).round() as usize).max(ROUNDS)
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: &Workload, args: &Args) -> Result<Report, String> {
    let s = args.seconds;
    let rung_secs = w.rung_secs(LADDER_SHARE * s);
    let mut lats: Vec<Windows> = w
        .ladder_kops
        .iter()
        .zip(&rung_secs)
        .map(|(k, secs)| {
            let calls = k * 1e3 / w.batch_ops as f64 * secs / ROUNDS as f64;
            Windows::new((calls * 1.05) as usize)
        })
        .collect();
    let mut chk = Checker::new(Shadow::prefilled(w, args.seed));
    let mut gen = OpGen::new(w, args.seed, 1);
    let order = chk.shadow.insert_order(args.seed);
    if let Some(cpu) = pin::cpu(pin::QUIET) {
        pin::pin_to(cpu);
    }
    let mut r = Report::default();

    let rss0 = rss_bytes()?;
    let mut map = Map::setup(w, &order);
    let mut c = map.caller(w);
    closed(
        &mut c,
        &mut gen,
        &mut chk,
        windows(WARM_SHARE, s),
        w.closed_ops,
    );
    let full_windows = windows(FULL_SHARE, s) / ROUNDS;
    let mut rates = Vec::new();
    let mut rungs: Vec<Rung> = w
        .ladder_kops
        .iter()
        .map(|&kops| Rung {
            kops,
            slices: Vec::new(),
        })
        .collect();
    for _ in 0..ROUNDS {
        rates.extend(closed(
            &mut c,
            &mut gen,
            &mut chk,
            full_windows,
            w.closed_ops,
        ));
        for ((rung, secs), lat) in rungs.iter_mut().zip(&rung_secs).zip(&mut lats) {
            let secs = secs / ROUNDS as f64;
            rung.slices
                .push(open(&mut c, &mut gen, &mut chk, rung.kops, secs, lat));
        }
    }
    drop(c);
    r.attempted = chk.checked;
    r.failed = chk.failed + verify(&mut map, &chk.shadow, &mut r);
    let rss1 = rss_bytes()?;
    drop(map);
    let mut per_sample = 0;
    let setup_s: Vec<f64> = (0..w.setup_reps)
        .map(|_| {
            let (mut total, mut n) = (Duration::ZERO, 0);
            while total < SETUP_SAMPLE {
                let t = Instant::now();
                let map = Map::setup(w, &order);
                total += t.elapsed();
                n += 1;
                drop(map);
            }
            per_sample = per_sample.max(n);
            total.as_secs_f64() / n as f64
        })
        .collect();

    r.metric("throughput_mops", quantile(&rates, RATE_Q) / 1e6, "Mop/s");
    r.metric("setup_s", quantile(&setup_s, SETUP_Q), "s");
    r.metric(
        "mem_bytes_per_key",
        ratio(rss1.saturating_sub(rss0) as f64, chk.shadow.live() as f64),
        "B/key",
    );
    ladder_metrics(w, &rungs, &mut r);
    r.lines.insert(
        0,
        format!(
            "{}: 1 thread, {} ops per call; closed-loop windows {:?} Mop/s; setup from {} means of up to {}",
            w.name,
            w.batch_ops,
            rates
                .iter()
                .map(|x| (x / 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            w.setup_reps,
            per_sample,
        ),
    );
    Ok(r)
}

/// Ops per block of the traced run; blocks alternate between untraced
/// and traced so both see the same map over the same time.
const BLOCK: u64 = 1024;
/// Blocks between samples of the reclaim gauges.
const GAUGE_EVERY: u64 = 16;
/// Spans kept for the spans file.
const SPAN_CAP: usize = 1 << 17;

/// The traced run: per-layer metrics for the shard, tree and reclaim
/// layers.
pub fn traced(w: &Workload, args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut chk = Checker::new(Shadow::prefilled(w, args.seed));
    let mut map = Map::setup(w, &chk.shadow.insert_order(args.seed));
    if let Some(cpu) = pin::cpu(pin::QUIET) {
        pin::pin_to(cpu);
    }
    let mut c = map.caller(w);
    let mut gen = OpGen::new(w, args.seed, 1);
    let mut tr = Trace::new(origin, SPAN_CAP);
    // [untraced, traced] elapsed ns and ops.
    let (mut ns, mut ops) = ([0u64; 2], [0u64; 2]);
    let mut runs = 0u64;
    let mut gauges = Vec::new();
    let secs = args.seconds;
    closed(
        &mut c,
        &mut gen,
        &mut chk,
        windows(WARM_SHARE, secs),
        w.closed_ops,
    );
    c.flush_stats();
    let m0 = map.metrics();
    let calls = (BLOCK / c.width()).max(1);
    let end = Instant::now() + Duration::from_secs_f64((1.0 - WARM_SHARE) * secs);
    for block in 0u64.. {
        // Reclaim gauges are point samples, taken between blocks.
        if block % GAUGE_EVERY == 0 {
            let g = map.metrics().reclaim;
            gauges.push((g.retired_backlog, g.epoch_lag));
        }
        let traced = (block % 2) as usize;
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        for i in 0..calls {
            if traced == 1 {
                c.call(&mut gen, &mut chk, Some((&mut tr, block * calls + i)));
                runs += c.runs(&map);
            } else {
                c.call(&mut gen, &mut chk, None);
            }
        }
        ns[traced] += t0.elapsed().as_nanos() as u64;
        ops[traced] += calls * c.width();
    }
    c.flush_stats();
    let m1 = map.metrics();
    drop(c);

    let mut r = Report::default();
    r.attempted = chk.checked;
    r.failed = chk.failed + verify(&mut map, &chk.shadow, &mut r);
    let per_op = |i: usize| ratio(ns[i] as f64, ops[i] as f64);
    let mut vals = tree_layer(&m0, &m1, &gauges);
    vals.push((
        "trace.overhead_pct",
        (ratio(per_op(1), per_op(0)) - 1.0) * 100.0,
    ));
    if w.batch_ops == 1 {
        for (metric, span) in [
            ("tree.get_ns", "tree.get"),
            ("tree.insert_ns", "tree.insert"),
            ("tree.remove_ns", "tree.remove"),
        ] {
            if tr.count(span) > 0 {
                vals.push((metric, tr.mean_ns(span)));
            }
        }
    } else {
        let span = "shard.execute_batch";
        let batch_ops = tr.count(span) as f64 * w.batch_ops as f64;
        vals.extend(shard_layer(
            &m0,
            &m1,
            tr.mean_ns(span) * tr.count(span) as f64,
            batch_ops,
            runs as f64,
        ));
    }
    r.lines.push(format!(
        "{}: 1 thread, {} ops per call; untraced {:.1} ns/op, traced {:.1} ns/op over {} ops",
        w.name,
        w.batch_ops,
        per_op(0),
        per_op(1),
        ops[0] + ops[1]
    ));
    layer_report(&mut r, &vals);
    write_spans(&spans_path(args), &tr).map_err(|e| format!("writing spans: {e}"))?;
    Ok(r)
}

/// Tree and reclaim metrics from counter deltas between two snapshots
/// and gauge samples taken in between.
pub fn tree_layer(
    m0: &MetricsSnapshot,
    m1: &MetricsSnapshot,
    gauges: &[(u64, u64)],
) -> Vec<(&'static str, f64)> {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let modifies = d(m0.inserts + m0.removes, m1.inserts + m1.removes);
    let ops = modifies + d(m0.searches, m1.searches);
    let hits = d(m0.pool.hits, m1.pool.hits);
    let misses = d(m0.pool.misses, m1.pool.misses);
    let backlog: Vec<f64> = gauges.iter().map(|g| g.0 as f64).collect();
    let lag: Vec<f64> = gauges.iter().map(|g| g.1 as f64).collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    vec![
        (
            "tree.depth_mean",
            ratio(d(m0.depth_sum, m1.depth_sum), modifies),
        ),
        (
            "tree.helps_per_kop",
            ratio(d(m0.helps, m1.helps) * 1e3, ops),
        ),
        ("reclaim.pool_hit_ratio", ratio(hits, hits + misses)),
        ("reclaim.retired_backlog", mean(&backlog)),
        ("reclaim.epoch_lag", mean(&lag)),
    ]
}

/// Shards `ops` touch: the runs `execute_batch` cuts them into.
pub fn shard_runs(store: &Store, ops: &[BatchOp]) -> u64 {
    let mut seen = 0u64;
    for op in ops {
        let (BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k)) = *op;
        seen |= 1 << store.shard_of(&k);
    }
    u64::from(seen.count_ones())
}

/// Shard-layer metrics: `execute_batch` time per op, ops per shard run
/// and the finger hit ratio between two snapshots.
pub fn shard_layer(
    m0: &MetricsSnapshot,
    m1: &MetricsSnapshot,
    exec_ns: f64,
    ops: f64,
    runs: f64,
) -> Vec<(&'static str, f64)> {
    let hits = m1.finger_hits.saturating_sub(m0.finger_hits) as f64;
    let misses = m1.finger_misses.saturating_sub(m0.finger_misses) as f64;
    vec![
        ("shard.exec_ns_per_op", ratio(exec_ns, ops)),
        ("shard.ops_per_run", ratio(ops, runs)),
        ("shard.finger_hit_ratio", ratio(hits, hits + misses)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(name: &str, corrupt_at: Option<u64>) -> (Checker, u64) {
        let w = crate::config::workload(name).unwrap();
        let mut chk = Checker::new(Shadow::prefilled(w, 9));
        chk.corrupt_at = corrupt_at;
        let mut map = Map::setup(w, &chk.shadow.insert_order(9));
        let mut gen = OpGen::new(w, 9, 1);
        let mut c = map.caller(w);
        closed(&mut c, &mut gen, &mut chk, 2, 10_240);
        drop(c);
        let bad = verify(&mut map, &chk.shadow, &mut Report::default());
        (chk, bad)
    }

    #[test]
    fn every_embedded_reply_matches_the_model() {
        for name in ["embed_hot_writes", "embed_batch"] {
            let (chk, bad) = session(name, None);
            assert_eq!((chk.checked, chk.failed, bad), (20_480, 0, 0), "{name}");
        }
    }

    #[test]
    fn oracle_fires_on_one_corrupted_embedded_reply() {
        for name in ["embed_hot_writes", "embed_batch"] {
            let (chk, bad) = session(name, Some(4_321));
            assert_eq!((chk.checked, chk.failed, bad), (20_480, 1, 0), "{name}");
        }
    }
}
