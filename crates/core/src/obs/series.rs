//! Declared series: each exposed metric is one [`Series`] row, and the
//! JSON, Prometheus, `Display` and merge renderings iterate a table of
//! rows instead of naming fields.
//!
//! A row holds the Prometheus family name, the JSON key, the kind, the
//! help text, and a [`Value`]: the accessor, whose variant fixes the
//! label set (none, `class`, `op`, `worker`, or `op`+`phase`), the
//! rendered shape and the merge rule. [`MetricsSnapshot`]'s table is
//! `SNAPSHOT_SERIES` in `obs/metrics.rs`; the TCP server declares its
//! own families over its counters with the same row type.
//!
//! [`MetricsSnapshot`]: super::MetricsSnapshot

use super::hist::{Histogram, LatencySnapshot};
use super::slow::{SlowOp, TREE_SLOW_CAP};
use super::{DEPTH_BUCKETS, POOL_CLASS_LABELS};
use crate::pool::NODE_CLASSES;
use nmbst_reclaim::PoolStats;
use std::fmt::{self, Write as _};

/// The Prometheus type of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A monotonic count; its name ends in `_total`.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram,
}

/// How a number combines when snapshots of independent trees merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// The fleet total: counts, and gauges of disjoint resources.
    Sum,
    /// The worst source: each shard owns an independent reclaimer and
    /// depth budget, so the worst shard is the health signal.
    Max,
}

/// Both borrows of one field of `S`, made by the `field!` macro of
/// `obs/metrics.rs`: rendering reads through `get`, merging writes
/// through `get_mut`.
pub struct Field<S, T> {
    pub(crate) get: fn(&S) -> &T,
    pub(crate) get_mut: fn(&mut S) -> &mut T,
}

/// Where a row's samples come from, and so its label set, its rendered
/// shape and its merge rule. Field-backed variants merge; the
/// read-only variants compute their samples from a live source (the
/// server's counters, a pool's stats) and have nothing to merge.
pub enum Value<S: 'static> {
    /// One unlabelled number.
    Int(Field<S, u64>, Merge),
    /// One unlabelled signed number, summed.
    Signed(Field<S, i64>),
    /// The least of a number over the merged sources: `None` until a
    /// source is folded in, so the default snapshot stays the merge
    /// identity. Renders `None` as 0.
    Min(Field<S, Option<u64>>),
    /// The descent-depth histogram: power-of-two buckets (`le = 2^b -
    /// 1`, the last saturating into `+Inf`) and their sum, which JSON
    /// carries under the last field's key. Merges cell by cell.
    Buckets(Field<S, [u64; DEPTH_BUCKETS]>, Field<S, u64>, Str),
    /// One latency histogram per op class (`op` label); JSON carries
    /// each as a summary object, `Display` the total sample count.
    OpHists(Field<S, LatencySnapshot>),
    /// A slow-op window, rendered as its record count. Merges by
    /// concatenation, slowest first, capped at the per-tree ring size.
    SlowOps(Field<S, Vec<SlowOp>>),
    /// Pool totals, rendered as the unlabelled sub-rows in place and
    /// merged as one `PoolStats` sum (every counter, exposed or not).
    Pool(Field<S, PoolStats>, &'static [Series<PoolStats>]),
    /// The memory waterfall: one gauge family per sub-row, one `class`
    /// series per node class. JSON nests quantity under class, under
    /// the row's key; merges class by class.
    Classes(
        Field<S, [PoolStats; NODE_CLASSES]>,
        &'static [Series<PoolStats>],
    ),
    /// One unlabelled number, read-only.
    Count(fn(&S) -> u64),
    /// One number per worker (`worker` label); a JSON array.
    PerWorker(fn(&S) -> Vec<u64>),
    /// One number per opcode (`op` label), for the opcodes the
    /// accessor yields; a family with none is left out of Prometheus,
    /// whose validator rejects a declared family with no samples.
    PerOp(fn(&S) -> Vec<(Str, u64)>),
    /// Histograms per opcode and phase (`op`,`phase` labels), for the
    /// opcodes the accessor yields; left out of Prometheus like
    /// `PerOp` when there are none.
    PerOpPhase(fn(&S) -> PhaseSamples),
    /// Sub-rows that JSON nests in an object under the row's key and
    /// Prometheus renders in place.
    Group(&'static [Series<S>]),
}

type Str = &'static str;

/// Per-opcode, per-phase histograms, labelled.
pub type PhaseSamples = Vec<(Str, Vec<(Str, Histogram)>)>;

/// One declared series of a source `S`, made by [`counter`], [`gauge`]
/// or [`histogram`].
pub struct Series<S: 'static> {
    /// The Prometheus family name.
    name: Str,
    /// The JSON key.
    key: Str,
    /// The Prometheus type.
    kind: Kind,
    /// The accessor, label set and merge rule.
    value: Value<S>,
    /// The Prometheus help text.
    help: Str,
    /// Where the row sits in JSON: rows render in ascending rank, in
    /// table order within a rank, while Prometheus follows table order.
    /// 0 for every row of a tree snapshot; the server's two formats
    /// were laid out apart, and both layouts are kept.
    json_rank: u8,
}

impl<S> Value<S> {
    /// An unlabelled number's value; `None` for every other shape.
    fn number(&self, s: &S) -> Option<i128> {
        Some(match self {
            Value::Int(f, _) => (*(f.get)(s)).into(),
            Value::Signed(f) => (*(f.get)(s)).into(),
            Value::Min(f) => (f.get)(s).unwrap_or(0).into(),
            Value::Count(f) => f(s).into(),
            Value::SlowOps(f) => (f.get)(s).len() as i128,
            _ => return None,
        })
    }
}

impl<S> Series<S> {
    /// The row, placed at `rank` in JSON output.
    pub const fn json_rank(mut self, rank: u8) -> Self {
        self.json_rank = rank;
        self
    }
}

const fn row<S>(kind: Kind, name: Str, key: Str, value: Value<S>, help: Str) -> Series<S> {
    let json_rank = 0;
    Series {
        name,
        key,
        kind,
        value,
        help,
        json_rank,
    }
}

/// A counter row.
pub const fn counter<S>(name: Str, key: Str, value: Value<S>, help: Str) -> Series<S> {
    row(Kind::Counter, name, key, value, help)
}

/// A gauge row.
pub const fn gauge<S>(name: Str, key: Str, value: Value<S>, help: Str) -> Series<S> {
    row(Kind::Gauge, name, key, value, help)
}

/// A histogram row.
pub const fn histogram<S>(name: Str, key: Str, value: Value<S>, help: Str) -> Series<S> {
    row(Kind::Histogram, name, key, value, help)
}

/// The rows as one JSON object, ranked by [`Series::json_rank`].
pub fn to_json<S: 'static>(rows: &[Series<S>], s: &S) -> String {
    let mut out = String::with_capacity(2048);
    json_object(rows, s, &mut out);
    out
}

fn json_object<S: 'static>(rows: &[Series<S>], s: &S, out: &mut String) {
    let mut ranked: Vec<&Series<S>> = rows.iter().collect();
    ranked.sort_by_key(|row| row.json_rank);
    out.push('{');
    json_fields(ranked, s, out);
    out.push('}');
}

/// Appends each row's `"key":value` pairs, comma-separated.
fn json_fields<'a, S: 'static>(
    rows: impl IntoIterator<Item = &'a Series<S>>,
    s: &S,
    out: &mut String,
) {
    for row in rows {
        if let Value::Pool(f, sub) = &row.value {
            json_fields(sub.iter(), (f.get)(s), out);
            continue;
        }
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", row.key);
        json_value(&row.value, s, out);
    }
}

/// Appends one row's JSON value (for `Buckets`, also its sum's pair).
fn json_value<S: 'static>(value: &Value<S>, s: &S, out: &mut String) {
    let object = |out: &mut String, items: Vec<(&str, String)>| {
        out.push('{');
        for (i, (label, v)) in items.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{label}\":{v}");
        }
        out.push('}');
    };
    if let Some(n) = value.number(s) {
        let _ = write!(out, "{n}");
        return;
    }
    let _ = match value {
        Value::Buckets(counts, sum, sum_key) => {
            let counts: Vec<String> = (counts.get)(s).iter().map(u64::to_string).collect();
            write!(out, "[{}],\"{sum_key}\":{}", counts.join(","), (sum.get)(s))
        }
        Value::OpHists(f) => {
            let items = (f.get)(s).by_class().map(|(op, h)| (op, h.summary_json()));
            object(out, items.to_vec());
            Ok(())
        }
        Value::Classes(f, sub) => {
            let classes = POOL_CLASS_LABELS.iter().zip((f.get)(s));
            let items = classes.map(|(label, class)| {
                let mut fields = String::new();
                json_object(sub, class, &mut fields);
                (*label, fields)
            });
            object(out, items.collect());
            Ok(())
        }
        Value::PerWorker(f) => {
            let cells: Vec<String> = f(s).iter().map(u64::to_string).collect();
            write!(out, "[{}]", cells.join(","))
        }
        Value::PerOp(f) => {
            let items = f(s).into_iter().map(|(op, v)| (op, v.to_string()));
            object(out, items.collect());
            Ok(())
        }
        Value::PerOpPhase(f) => {
            let items = f(s).into_iter().map(|(op, phases)| {
                let mut inner = String::new();
                let phases = phases.iter().map(|(phase, h)| (*phase, h.summary_json()));
                object(&mut inner, phases.collect());
                (op, inner)
            });
            object(out, items.collect());
            Ok(())
        }
        Value::Group(sub) => {
            json_object(sub, s, out);
            Ok(())
        }
        _ => unreachable!("numbers render above, pool rows in place"),
    };
}

/// Appends the rows in the Prometheus text exposition format, in table
/// order.
pub fn to_prometheus<S: 'static>(rows: &[Series<S>], s: &S, out: &mut String) {
    for row in rows {
        let name = row.name;
        let head = |out: &mut String| header(out, row);
        if let Some(n) = row.value.number(s) {
            head(out);
            let _ = writeln!(out, "{name} {n}");
            continue;
        }
        match &row.value {
            Value::Buckets(counts, sum, _) => {
                head(out);
                let mut cumulative = 0u64;
                for (b, count) in (counts.get)(s).iter().enumerate() {
                    cumulative += count;
                    // Bucket b covers 2^(b-1) ..= 2^b - 1; its upper
                    // bound is 2^b - 1 (bucket 0 is the exact-zero
                    // bucket). The saturated last bucket is unbounded,
                    // so it folds into +Inf.
                    if b + 1 < DEPTH_BUCKETS {
                        let le = (1u64 << b) - 1;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                let _ = writeln!(out, "{name}_sum {}", (sum.get)(s));
                let _ = writeln!(out, "{name}_count {cumulative}");
            }
            Value::OpHists(f) => {
                head(out);
                for (op, h) in (f.get)(s).by_class() {
                    h.fmt_prometheus_series(out, name, &format!("op=\"{op}\""));
                }
            }
            Value::Pool(f, sub) => to_prometheus(sub, (f.get)(s), out),
            Value::Classes(f, sub) => {
                for q in sub.iter() {
                    header(out, q);
                    for (label, class) in POOL_CLASS_LABELS.iter().zip((f.get)(s)) {
                        let n = q.value.number(class).unwrap_or_default();
                        let _ = writeln!(out, "{}{{class=\"{label}\"}} {n}", q.name);
                    }
                }
            }
            Value::PerWorker(f) => {
                head(out);
                for (w, v) in f(s).iter().enumerate() {
                    let _ = writeln!(out, "{name}{{worker=\"{w}\"}} {v}");
                }
            }
            Value::PerOp(f) => {
                let samples = f(s);
                if !samples.is_empty() {
                    head(out);
                }
                for (op, v) in samples {
                    let _ = writeln!(out, "{name}{{op=\"{op}\"}} {v}");
                }
            }
            Value::PerOpPhase(f) => {
                let samples = f(s);
                if !samples.is_empty() {
                    head(out);
                }
                for (op, phases) in samples {
                    for (phase, h) in phases {
                        let labels = format!("op=\"{op}\",phase=\"{phase}\"");
                        h.fmt_prometheus_series(out, name, &labels);
                    }
                }
            }
            Value::Group(sub) => to_prometheus(sub, s, out),
            _ => unreachable!("numbers render above"),
        }
    }
}

/// Appends a family's `# HELP` and `# TYPE` lines.
fn header<S: 'static>(out: &mut String, row: &Series<S>) {
    let (name, help) = (row.name, row.help);
    let kind = match row.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Writes the rows as space-separated `key=value` pairs, in table
/// order: numbers as themselves, histograms as their sample counts,
/// the depth buckets as an array, class rows as one array per
/// quantity (`class_<quantity>=[...]`), and the rest as their JSON
/// values.
pub fn fmt_display<S: 'static>(
    rows: &[Series<S>],
    s: &S,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        match &row.value {
            Value::Buckets(counts, sum, sum_key) => {
                let (counts, sum) = ((counts.get)(s), (sum.get)(s));
                write!(f, "{}={counts:?} {sum_key}={sum}", row.key)?;
            }
            Value::OpHists(h) => write!(f, "{}={}", row.key, (h.get)(s).len())?,
            Value::Pool(p, sub) => fmt_display(sub, (p.get)(s), f)?,
            Value::Classes(c, sub) => {
                for (j, q) in sub.iter().enumerate() {
                    let sep = if j == 0 { "" } else { " " };
                    let cells = (c.get)(s).map(|class| q.value.number(&class).unwrap_or_default());
                    write!(f, "{sep}class_{}={cells:?}", q.key)?;
                }
            }
            value => {
                let mut json = String::new();
                json_value(value, s, &mut json);
                write!(f, "{}={json}", row.key)?;
            }
        }
    }
    Ok(())
}

/// Folds `src` into `dst` by each row's rule.
pub fn merge<S: 'static>(rows: &[Series<S>], dst: &mut S, src: &S) {
    for row in rows {
        match &row.value {
            Value::Int(f, rule) => {
                let (d, v) = ((f.get_mut)(dst), *(f.get)(src));
                *d = match rule {
                    Merge::Sum => *d + v,
                    Merge::Max => (*d).max(v),
                };
            }
            Value::Signed(f) => *(f.get_mut)(dst) += *(f.get)(src),
            Value::Min(f) => {
                let (d, v) = ((f.get_mut)(dst), *(f.get)(src));
                *d = match (*d, v) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            Value::Buckets(counts, sum, _) => {
                let cells = (counts.get_mut)(dst).iter_mut().zip((counts.get)(src));
                cells.for_each(|(d, v)| *d += v);
                *(sum.get_mut)(dst) += *(sum.get)(src);
            }
            Value::OpHists(f) => (f.get_mut)(dst).merge((f.get)(src)),
            Value::SlowOps(f) => {
                let ops = (f.get_mut)(dst);
                ops.extend_from_slice((f.get)(src));
                ops.sort_by_key(|r| std::cmp::Reverse(r.ns));
                ops.truncate(TREE_SLOW_CAP);
            }
            Value::Pool(f, _) => *(f.get_mut)(dst) += *(f.get)(src),
            Value::Classes(f, _) => {
                let classes = (f.get_mut)(dst).iter_mut().zip((f.get)(src));
                classes.for_each(|(d, v)| *d += *v);
            }
            Value::Group(sub) => merge(sub, dst, src),
            Value::Count(_) | Value::PerWorker(_) | Value::PerOp(_) | Value::PerOpPhase(_) => {}
        }
    }
}
