//! The perf runner: a declarative table of [`Cell`]s, each measured as
//! interleaved arms, reduced median-of-[`K`], gated, and written as
//! `nmbst-bench-v1` rows.
//!
//! A cell names its bench, builds its arms (closures over the `perf`
//! bin's measurement helpers), and lists its [`Gate`]s. The runner owns
//! the rest. Repeat `r` of every arm runs before repeat `r+1` of any
//! arm, so adjacent runs of sibling arms share machine state and slow
//! host drift cancels out of their ratios. Each arm reports the median
//! of its `K` runs by the cell's rank metric; sibling gates instead take
//! the median of the per-repeat ratios, which one interference spike in
//! one arm of one pair cannot move. A failed ratio gate prints the
//! embedded `obs` snapshot fields that moved most between the two
//! compared rows, so the failure names the layer that moved.

use crate::json::{self, Json};
use nmbst::obs::SlowOp;
use std::fmt;

/// Runs per arm. Odd, so every reported median is one real run.
pub const K: usize = 5;

/// How many moved `obs` fields a failed ratio gate prints.
const OBS_MOVES: usize = 6;

/// The run sizes that CI and the committed run set differently.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Measured seconds per time-budgeted run (`NMBST_SECS`, default 1).
    pub secs: f64,
    /// Sessions per serving replay (`NMBST_SESSIONS`, default 1 000 000,
    /// floor 1 000).
    pub sessions: u64,
}

impl Env {
    /// Reads `NMBST_SECS` and `NMBST_SESSIONS`.
    pub fn from_env() -> Env {
        let var = |name: &str| std::env::var(name).ok();
        Env {
            secs: var("NMBST_SECS")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1.0),
            sessions: var("NMBST_SESSIONS")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1_000_000u64)
                .max(1_000),
        }
    }
}

/// One measurement.
pub struct Run {
    /// A JSON object of metrics (nested objects allowed, such as an
    /// embedded `obs` snapshot).
    pub metrics: Json,
    /// Slow-op records a serving run captured, dumped when a gate fails.
    pub slow: Vec<SlowOp>,
}

impl From<Json> for Run {
    fn from(metrics: Json) -> Run {
        let slow = Vec::new();
        Run { metrics, slow }
    }
}

/// One arm: the labels that tell it apart from its siblings (they also
/// find its row in a baseline file) and a closure that measures one run,
/// given the repeat index.
pub struct Arm {
    /// A JSON object of label → value.
    pub labels: Json,
    /// Measures one run.
    pub run: Box<dyn FnMut(usize) -> Run>,
}

impl Arm {
    /// An arm from its labels and its measurement closure.
    pub fn new(labels: Json, run: impl FnMut(usize) -> Run + 'static) -> Arm {
        let run = Box::new(run);
        Arm { labels, run }
    }
}

/// A set-up cell: a JSON object of config shared by every arm (it may
/// hold values measured during setup, such as a calibrated arrival rate)
/// and the arms, in the order the cell's gates index them.
pub type Built = (Json, Vec<Arm>);

/// One row of the perf table.
pub struct Cell {
    /// The `bench` name of every row this cell writes.
    pub name: &'static str,
    /// The metric that picks each arm's median run.
    pub rank: &'static str,
    /// Sets the cell up.
    pub build: fn(&Env) -> Built,
    /// The cell's gates.
    pub gates: &'static [Gate],
}

/// An invariant's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `<=`
    Le,
}

/// An invariant's right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rhs {
    /// A constant.
    Const(f64),
    /// `(arm, metric, scale)`: `scale ×` a metric of an arm's median run.
    Metric(usize, &'static str, f64),
}

/// A gate. Metrics are dotted paths into a run's metrics object
/// (`obs.finger_hits`), falling back to the arm's config; an array value
/// must satisfy an invariant in every element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// `(arm, metric, max_drop)`: the arm's median `metric` trails the
    /// same row of the baseline file by at most `max_drop` (relative).
    /// Skipped when there is no baseline file or no such row in it.
    Baseline(usize, &'static str, f64),
    /// `((arm, metric), (arm, metric), min)`: the median over repeats of
    /// numerator / denominator, both from the same repeat, is at least
    /// `min`. Both sides may name one arm (two metrics of one run).
    Sibling((usize, &'static str), (usize, &'static str), f64),
    /// `(arm, metric, cmp, rhs)`: a structural predicate on the arm's
    /// median run.
    Invariant(usize, &'static str, Cmp, Rhs),
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Baseline(arm, m, drop) => write!(f, "arm{arm}.{m} >= (1 - {drop}) x baseline"),
            Gate::Sibling((a, m), (b, n), min) => {
                write!(f, "median(arm{a}.{m} / arm{b}.{n}) >= {min}")
            }
            Gate::Invariant(arm, m, cmp, rhs) => {
                let op = match cmp {
                    Cmp::Gt => ">",
                    Cmp::Ge => ">=",
                    Cmp::Eq => "==",
                    Cmp::Le => "<=",
                };
                write!(f, "arm{arm}.{m} {op} ")?;
                match rhs {
                    Rhs::Const(c) => write!(f, "{c}"),
                    Rhs::Metric(a, n, s) if s != 1.0 => write!(f, "{s} x arm{a}.{n}"),
                    Rhs::Metric(a, n, _) => write!(f, "arm{a}.{n}"),
                }
            }
        }
    }
}

/// Resolves a dotted path (`obs.pool_hits`) inside a JSON object.
fn lookup<'j>(root: &'j Json, path: &str) -> Option<&'j Json> {
    path.split('.').try_fold(root, |j, key| j.get(key))
}

/// The numbers a value stands for: a number, a bool as 0/1, or every
/// element of an array of numbers.
fn numbers(v: &Json) -> Option<Vec<f64>> {
    match v {
        Json::Bool(b) => Some(vec![f64::from(u8::from(*b))]),
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        other => other.as_f64().map(|x| vec![x]),
    }
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Every numeric leaf under `j`, keyed by its dotted path.
fn flatten(prefix: String, j: &Json, out: &mut Vec<(String, f64)>) {
    let key = |k: &str| match prefix.as_str() {
        "" => k.to_string(),
        p => format!("{p}.{k}"),
    };
    match j {
        Json::Obj(fields) => fields.iter().for_each(|(k, v)| flatten(key(k), v, out)),
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(key(&i.to_string()), v, out);
            }
        }
        other => out.extend(other.as_f64().map(|x| (prefix, x))),
    }
}

/// One cell's measurements: per arm, its labels, full config, and the
/// metrics of its `K` runs, plus which run is the median by rank.
struct Measured {
    name: &'static str,
    labels: Vec<Json>,
    config: Vec<Json>,
    runs: Vec<Vec<Json>>,
    median: Vec<usize>,
}

impl Measured {
    /// Groups raw runs: `runs[arm][repeat]` is a metrics object; each
    /// arm's config is its labels, then `shared`, then `repeats`.
    fn new(
        name: &'static str,
        rank: &str,
        labels: Vec<Json>,
        shared: &Json,
        runs: Vec<Vec<Json>>,
    ) -> Self {
        let repeats = crate::obj! { "repeats" => K };
        let config = (labels.iter())
            .map(|l| l.clone().join(shared.clone()).join(repeats.clone()))
            .collect();
        let median = (runs.iter())
            .map(|arm| {
                let key = |i: &usize| lookup(&arm[*i], rank).and_then(Json::as_f64);
                let nan_last = |i: &usize| key(i).unwrap_or(f64::NAN);
                let mut idx: Vec<usize> = (0..arm.len()).collect();
                idx.sort_by(|a, b| nan_last(a).total_cmp(&nan_last(b)));
                idx[idx.len() / 2]
            })
            .collect();
        Measured {
            name,
            labels,
            config,
            runs,
            median,
        }
    }

    /// The median run of `arm`.
    fn best(&self, arm: usize) -> &Json {
        &self.runs[arm][self.median[arm]]
    }

    /// `path` in run `rep` of `arm`: its metrics first, then its config.
    fn value(&self, arm: usize, rep: usize, path: &str) -> Option<Vec<f64>> {
        let metric = lookup(&self.runs[arm][rep], path);
        metric
            .or_else(|| lookup(&self.config[arm], path))
            .and_then(numbers)
    }

    fn scalar(&self, arm: usize, rep: usize, path: &str) -> Option<f64> {
        self.value(arm, rep, path)
            .filter(|v| v.len() == 1)
            .map(|v| v[0])
    }

    /// The per-repeat ratios of a sibling gate.
    fn pair_ratios(&self, (a, m): (usize, &str), (b, n): (usize, &str)) -> Option<Vec<f64>> {
        (0..self.runs[a].len())
            .map(|rep| Some(self.scalar(a, rep, m)? / self.scalar(b, rep, n)?))
            .collect()
    }

    /// The row in a baseline file's cells with this cell's bench name and
    /// every label of `arm` equal in its config.
    fn baseline_row<'b>(&self, arm: usize, base: Option<&'b [Json]>) -> Option<&'b Json> {
        let Json::Obj(labels) = &self.labels[arm] else {
            return None;
        };
        base?.iter().find(|c| {
            let config = |k: &str| c.get("config").and_then(|cfg| cfg.get(k));
            c.get("bench").and_then(Json::as_str) == Some(self.name)
                && labels.iter().all(|(k, v)| config(k) == Some(v))
        })
    }

    /// Evaluates one gate against `base`, a baseline file's cells: `Ok`
    /// (held, or skipped for want of a baseline row) or `Err`, each with
    /// the numbers behind it.
    fn check(&self, gate: &Gate, base: Option<&[Json]>) -> Result<String, String> {
        let verdict = |ok: bool, msg: String| if ok { Ok(msg) } else { Err(msg) };
        let missing = || Err("a compared metric is missing".to_string());
        match *gate {
            Gate::Baseline(arm, metric, max_drop) => {
                let Some(row) = self.baseline_row(arm, base) else {
                    return Ok("skipped: no baseline row".into());
                };
                let old = lookup(row, &format!("metrics.{metric}")).and_then(Json::as_f64);
                let cur = self.scalar(arm, self.median[arm], metric);
                let (Some(cur), Some(old)) = (cur, old) else {
                    return missing();
                };
                let floor = old * (1.0 - max_drop);
                let msg = format!("{cur:.4} vs baseline {old:.4} (floor {floor:.4})");
                verdict(cur >= floor, msg)
            }
            Gate::Sibling(num, den, min) => {
                let Some(ratios) = self.pair_ratios(num, den) else {
                    return missing();
                };
                let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
                let med = median_of(ratios);
                let msg = format!("pair ratios [{}] median {med:.4}", shown.join(", "));
                // `>=` is false for NaN, so a zero denominator fails.
                verdict(med >= min, msg)
            }
            Gate::Invariant(arm, metric, cmp, rhs) => {
                let left = self.value(arm, self.median[arm], metric);
                let right = match rhs {
                    Rhs::Const(c) => Some(c),
                    Rhs::Metric(a, path, s) => self.scalar(a, self.median[a], path).map(|v| v * s),
                };
                let (Some(left), Some(right)) = (left, right) else {
                    return missing();
                };
                let holds = |l: &f64| match cmp {
                    Cmp::Gt => *l > right,
                    Cmp::Ge => *l >= right,
                    Cmp::Eq => *l == right,
                    Cmp::Le => *l <= right,
                };
                let ok = !left.is_empty() && left.iter().all(holds);
                verdict(ok, format!("{left:?} vs {right}"))
            }
        }
    }

    /// For a ratio gate: the `obs` fields that moved most between the two
    /// compared rows, as `(field, this row, other row)`. Empty for
    /// invariants, same-arm ratios, and rows without an `obs` snapshot.
    fn obs_moves(&self, gate: &Gate, base: Option<&[Json]>) -> Vec<(String, f64, f64)> {
        let (this, other) = match *gate {
            Gate::Baseline(arm, ..) => (
                self.best(arm).get("obs"),
                self.baseline_row(arm, base)
                    .and_then(|row| lookup(row, "metrics.obs")),
            ),
            Gate::Sibling((a, _), (b, _), _) if a != b => {
                (self.best(a).get("obs"), self.best(b).get("obs"))
            }
            _ => (None, None),
        };
        let (Some(this), Some(other)) = (this, other) else {
            return Vec::new();
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        flatten(String::new(), this, &mut a);
        flatten(String::new(), other, &mut b);
        let mut moves: Vec<(String, f64, f64)> = (a.into_iter())
            .filter_map(|(k, x)| {
                let y = b.iter().find(|(kb, _)| *kb == k)?.1;
                (x != y).then_some((k, x, y))
            })
            .collect();
        let rel = |(_, x, y): &(String, f64, f64)| (x - y).abs() / x.abs().max(y.abs());
        moves.sort_by(|p, q| rel(q).total_cmp(&rel(p)));
        moves.truncate(OBS_MOVES);
        moves
    }
}

/// Everything one pass over the table produced.
#[derive(Default)]
pub struct Outcome {
    /// One bench row per arm of every cell.
    pub rows: Vec<Json>,
    /// One message per failed gate.
    pub failures: Vec<String>,
    /// Slow-op records of every arm's median run, slowest first.
    pub slow: Vec<SlowOp>,
}

/// Runs every cell in order, gating against `baseline`, a parsed bench
/// file.
pub fn run_table(cells: &[Cell], env: &Env, baseline: Option<&Json>) -> Outcome {
    let base = baseline.and_then(|b| b.get("cells")).and_then(Json::as_arr);
    let mut out = Outcome::default();
    for cell in cells {
        let (config, mut arms) = (cell.build)(env);
        println!("== {} {} ==", cell.name, config.render());
        let mut runs: Vec<Vec<Run>> = arms.iter().map(|_| Vec::new()).collect();
        for rep in 0..K {
            for (arm, done) in arms.iter_mut().zip(&mut runs) {
                done.push((arm.run)(rep));
            }
        }
        let labels = arms.iter().map(|a| a.labels.clone()).collect();
        drop(arms); // releases what the arms own, such as servers
        let (metrics, mut slow): (Vec<Vec<Json>>, Vec<Vec<Vec<SlowOp>>>) = (runs.into_iter())
            .map(|arm| arm.into_iter().map(|r| (r.metrics, r.slow)).unzip())
            .unzip();
        let m = Measured::new(cell.name, cell.rank, labels, &config, metrics);
        let mut rows: Vec<Json> = (0..m.runs.len()).map(|a| m.best(a).clone()).collect();
        for arm in 0..rows.len() {
            let ranks: Vec<String> = (0..K)
                .map(|rep| {
                    m.scalar(arm, rep, cell.rank)
                        .map_or("?".into(), |v| format!("{v:.4}"))
                })
                .collect();
            let (labels, median) = (m.labels[arm].render(), &ranks[m.median[arm]]);
            println!(
                "  {labels} {} [{}] median {median}",
                cell.rank,
                ranks.join(", ")
            );
            out.slow.append(&mut slow[arm][m.median[arm]]);
        }
        for gate in cell.gates {
            match m.check(gate, base) {
                Ok(msg) => println!("  [ok] {gate}: {msg}"),
                Err(msg) => {
                    println!("  [FAIL] {gate}: {msg}");
                    out.failures
                        .push(format!("{} gate failed: {gate}: {msg}", cell.name));
                    for (field, this, other) in m.obs_moves(gate, base) {
                        println!(
                            "    obs.{field} moved: {this} here vs {other} in the compared row"
                        );
                    }
                }
            }
            if let Gate::Sibling(num, den, _) = *gate {
                if num.0 != den.0 {
                    let med = m.pair_ratios(num, den).map_or(f64::NAN, median_of);
                    let ratio = crate::obj! { "pair_ratio_median" => med };
                    rows[num.0] = rows[num.0].clone().join(ratio);
                }
            }
        }
        for (arm, metrics) in rows.into_iter().enumerate() {
            out.rows
                .push(json::cell(cell.name, m.config[arm].clone(), metrics));
        }
    }
    out.slow.sort_by_key(|r| std::cmp::Reverse(r.ns));
    out
}

/// Renders slow-op records as the text dump a failing CI job uploads.
pub fn render_slowlog(slow: &[SlowOp]) -> String {
    let mut out = String::from("# slow-op records of every arm's median run, slowest first\n");
    out.push_str("# origin kind key ns events\n");
    for op in slow {
        let (origin, kind) = match op.origin {
            1 => ("server", nmbst_server::wire::op_name(op.kind)),
            _ => {
                let kinds = ["get", "insert", "remove", "batch", "range"];
                ("tree", *kinds.get(usize::from(op.kind)).unwrap_or(&"?"))
            }
        };
        let (key, ns, events) = (op.key, op.ns, op.event_names());
        out.push_str(&format!(
            "{origin} {kind} key={key} ns={ns} events={events:?}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&'static str, f64)]) -> Json {
        Json::obj(pairs.iter().map(|&(k, v)| (k, Json::Num(v))))
    }

    /// A cell named `t` whose arm `a`, labelled `arm=a`, ran `runs[a]`.
    fn measured(runs: Vec<Vec<Json>>) -> Measured {
        let labels = (0..runs.len()).map(|a| Json::obj([("arm", Json::from(a))]));
        Measured::new("t", "x", labels.collect(), &Json::obj([]), runs)
    }

    fn xs(values: &[f64]) -> Vec<Json> {
        values.iter().map(|&x| obj(&[("x", x)])).collect()
    }

    #[test]
    fn median_run_is_picked_by_rank() {
        let m = measured(vec![xs(&[5.0, 1.0, 4.0, 2.0, 3.0])]);
        assert_eq!(m.best(0).get("x"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn baseline_gate_holds_at_the_floor_and_fails_just_below() {
        let labels = Json::obj([("arm", Json::from(0usize))]);
        let base = [json::cell("t", labels, obj(&[("x", 10.0)]))];
        let gate = Gate::Baseline(0, "x", 0.25);
        assert!(measured(vec![xs(&[7.5; K])])
            .check(&gate, Some(&base))
            .is_ok());
        assert!(measured(vec![xs(&[7.49; K])])
            .check(&gate, Some(&base))
            .is_err());
        // No baseline file, or no matching row: skipped, not failed.
        assert!(measured(vec![xs(&[0.0; K])]).check(&gate, None).is_ok());
        let other = [json::cell("u", Json::obj([]), obj(&[("x", 10.0)]))];
        assert!(measured(vec![xs(&[0.0; K])])
            .check(&gate, Some(&other))
            .is_ok());
    }

    #[test]
    fn sibling_gate_takes_the_median_of_per_repeat_ratios() {
        let gate = Gate::Sibling((1, "x"), (0, "x"), 0.8);
        // Ratios 0.8, 0.8, 0.8, 0.1, 2.0: one spike each way, median 0.8.
        let den = xs(&[10.0; K]);
        let holds = measured(vec![den.clone(), xs(&[8.0, 8.0, 8.0, 1.0, 20.0])]);
        assert!(holds.check(&gate, None).is_ok());
        let fails = measured(vec![den, xs(&[7.99, 7.99, 8.0, 1.0, 20.0])]);
        assert!(fails.check(&gate, None).is_err());
        // Two metrics of one arm.
        let gate = Gate::Sibling((0, "slow"), (0, "fast"), 2.0);
        let one = |s: f64| vec![obj(&[("x", 0.0), ("slow", s), ("fast", 1.0)]); K];
        assert!(measured(vec![one(2.0)]).check(&gate, None).is_ok());
        assert!(measured(vec![one(1.99)]).check(&gate, None).is_err());
    }

    #[test]
    fn invariant_gate_checks_every_element_and_scaled_metrics() {
        let ops = |w: [i64; 2]| {
            let w = Json::Arr(w.map(Json::Int).to_vec());
            measured(vec![vec![Json::obj([("x", Json::Num(0.0)), ("w", w)]); K]])
        };
        let nonzero = Gate::Invariant(0, "w", Cmp::Gt, Rhs::Const(0.0));
        assert!(ops([3, 1]).check(&nonzero, None).is_ok());
        assert!(ops([3, 0]).check(&nonzero, None).is_err());

        let pair = |a: f64, b: f64| measured(vec![xs(&[a; K]), xs(&[b; K])]);
        let deeper = Gate::Invariant(0, "x", Cmp::Gt, Rhs::Metric(1, "x", 1.0));
        assert!(pair(21.0, 20.0).check(&deeper, None).is_ok());
        assert!(pair(20.0, 20.0).check(&deeper, None).is_err());
        let within = Gate::Invariant(0, "x", Cmp::Le, Rhs::Metric(1, "x", 1.3));
        assert!(pair(130.0, 100.0).check(&within, None).is_ok());
        assert!(pair(130.5, 100.0).check(&within, None).is_err());
        let exact = Gate::Invariant(0, "x", Cmp::Eq, Rhs::Const(2.0));
        assert!(pair(2.0, 0.0).check(&exact, None).is_ok());
        assert!(pair(2.002, 0.0).check(&exact, None).is_err());
        // A missing metric fails rather than passing vacuously.
        let absent = Gate::Invariant(0, "nope", Cmp::Ge, Rhs::Const(0.0));
        assert!(pair(1.0, 1.0).check(&absent, None).is_err());
    }

    #[test]
    fn failed_ratio_gate_names_the_obs_fields_that_moved() {
        let run = |hits: f64| {
            let obs = obj(&[("pool_hits", hits), ("helps", 5.0)]);
            vec![Json::obj([("x", Json::Num(1.0)), ("obs", obs)]); K]
        };
        let m = measured(vec![run(1000.0), run(0.0)]);
        let gate = Gate::Sibling((1, "x"), (0, "x"), 2.0);
        assert_eq!(
            m.obs_moves(&gate, None),
            [("pool_hits".to_string(), 0.0, 1000.0)]
        );
        let invariant = Gate::Invariant(0, "x", Cmp::Gt, Rhs::Const(0.0));
        assert!(m.obs_moves(&invariant, None).is_empty());
    }
}
