//! The repository's benchmark: one command runs a named workload against
//! the program and prints every metric by name and unit, ending with one
//! JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no tracing.
//! With `--trace 1` it makes a separate traced run that times calls into
//! each layer from this crate's code and prints the per-layer metrics.
//! Both check every reply against a sequential model of the map.
//! Workloads are defined in `config.rs`.

mod config;
mod embed;
mod gen;
mod pin;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations issued and the ones that failed: transport errors, error
    /// replies and replies the model disagrees with.
    pub attempted: u64,
    pub failed: u64,
    /// False when a structural check after the run failed.
    pub checks_ok: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed above the metrics.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.metrics {
            println!("{name:<26} {value:>16.4} {unit}");
        }
        println!(
            "{:<26} {error_rate:>16.6} ratio ({} of {} ops)",
            "error_rate", self.failed, self.attempted
        );
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        let correct = self.checks_ok && finite && self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let run = || -> Result<Report, String> {
        let args = parse_args()?;
        let w = config::workload(&args.workload)?;
        match (w.shape, args.trace) {
            (config::Shape::Embed, false) => embed::measure(w, &args),
            (config::Shape::Embed, true) => embed::traced(w, &args),
            (config::Shape::Serve, false) => serve::measure(w, &args),
            (config::Shape::Serve, true) => serve::traced(w, &args),
        }
    };
    match run() {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            ExitCode::FAILURE
        }
    }
}

/// Where the traced run writes its spans, relative to the directory the
/// benchmark runs from.
pub fn spans_path(args: &Args) -> String {
    format!(
        "perfbench/out/spans-{}-seed{}.tsv",
        args.workload, args.seed
    )
}

/// Length of the windows the full-pressure throughput is taken over.
pub const WINDOW_NS: u64 = 100_000_000;

/// Quantile of the window rates reported as `throughput_mops`, and of
/// the set-up samples reported as `setup_s`. Other tenants of a shared
/// host only ever slow the program down, and on a small VM they do so by
/// up to a third for seconds at a time; the fast windows show the
/// program's own speed, where the median shows the host's load as well.
pub const RATE_Q: f64 = 0.9;
pub const SETUP_Q: f64 = 0.1;

/// How a run's measured time is split: warm-up, the full-pressure
/// throughput phase, and the fixed-rate ladder. The warm-up is long
/// because the tree, its node pool and the server's buffers take seconds
/// to reach their steady state after set-up.
pub const WARM_SHARE: f64 = 0.20;
pub const FULL_SHARE: f64 = 0.40;
pub const LADDER_SHARE: f64 = 0.40;

/// Slices the full-pressure phase and each rung are cut into; the slices
/// of all phases are interleaved, so a slow spell of the host lands on
/// part of every phase instead of on the whole of one.
pub const ROUNDS: usize = 8;

/// A rung whose generator ends this share of its schedule behind has a
/// growing backlog. (A short stall at the very end is not a backlog.)
pub const BEHIND_SHARE: f64 = 0.10;

/// One slice of a rung of the fixed-rate ladder.
pub struct Slice {
    /// Completed ops per second over the slice, in thousands.
    pub achieved_kops: f64,
    /// Latency windows, timed from scheduled send.
    pub lat: stats::WindowStats,
    /// The generator ended the slice more than [`BEHIND_SHARE`] of its
    /// schedule behind: the backlog grew.
    pub behind: bool,
    /// p99 of how late the generator sent, in ns (0 where not measured).
    pub late_p99_ns: f64,
}

impl Slice {
    /// The slice kept its schedule and its median window's p99 is within
    /// `limit_ns`.
    fn meets(&self, limit_ns: f64) -> bool {
        !self.behind && self.lat.windows > 0 && self.lat.p99_ns <= limit_ns
    }
}

/// One rung of the fixed-rate ladder: its [`ROUNDS`] slices.
pub struct Rung {
    pub kops: f64,
    pub slices: Vec<Slice>,
}

/// Prints `slo_kops`: the highest rate the program sustains
/// within the workload's p99 limit without a growing backlog. A rung
/// counts when at least one of its slices does so, and `slo_kops` is the
/// achieved rate of that slice on the highest such rung. Other tenants of
/// a shared host only ever slow the program down, so the best slice is
/// the one that shows the program's own capacity.
///
/// Also prints `lat_p50_us`/`lat_p99_us` of the nominal rung. None of
/// the three is among the JSON metrics: on a small shared VM their
/// run-to-run spread (0.15 to 0.3 of the median) is as wide as or wider
/// than any bound a regression gate could use.
pub fn ladder_metrics(w: &config::Workload, rungs: &[Rung], r: &mut Report) {
    let limit_ns = w.p99_limit_us * 1e3;
    let mut slo = 0.0;
    let (mut p50_nominal, mut p99_nominal) = (0.0, 0.0);
    for rung in rungs {
        // The rung's latencies: medians over its slices of their median
        // windows.
        let measured: Vec<&Slice> = rung.slices.iter().filter(|s| s.lat.windows > 0).collect();
        let p50 = stats::median(&measured.iter().map(|s| s.lat.p50_ns).collect::<Vec<_>>());
        let p99 = stats::median(&measured.iter().map(|s| s.lat.p99_ns).collect::<Vec<_>>());
        let windows: usize = measured.iter().map(|s| s.lat.windows).sum();
        let meeting = rung.slices.iter().filter(|s| s.meets(limit_ns));
        let best = meeting
            .clone()
            .map(|s| s.achieved_kops)
            .fold(None, |m: Option<f64>, k| Some(m.map_or(k, |m| m.max(k))));
        if let Some(k) = best {
            slo = k;
        }
        if rung.kops == w.nominal_kops {
            (p50_nominal, p99_nominal) = (p50, p99);
        }
        let n = rung.slices.len().max(1) as f64;
        r.lines.push(format!(
            "rung {:>8.0} kop/s: achieved {:>9.1}  p50 {:>9.2} us  p99 {:>9.2} us  gen late p99 {:>8.2} us  {} windows  {}/{} slices meet, {} behind",
            rung.kops,
            rung.slices.iter().map(|s| s.achieved_kops).sum::<f64>() / n,
            p50 / 1e3,
            p99 / 1e3,
            rung.slices.iter().map(|s| s.late_p99_ns).fold(0.0, f64::max) / 1e3,
            windows,
            meeting.count(),
            rung.slices.len(),
            rung.slices.iter().filter(|s| s.behind).count(),
        ));
    }
    for (name, value) in [("lat_p50_us", p50_nominal), ("lat_p99_us", p99_nominal)] {
        r.lines
            .push(format!("{name:<26} {:>16.4} us (not gated)", value / 1e3));
    }
    r.lines
        .push(format!("{:<26} {slo:>16.4} kop/s (not gated)", "slo_kops"));
}

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p99_us", "us"),
    ("client.rtt_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.frames", "count"),
    ("server.wire_us", "us"),
    ("server.decode_us", "us"),
    ("server.execute_us", "us"),
    ("server.encode_us", "us"),
    ("server.backpressure_events", "count"),
    ("server.gap_us", "us"),
    ("wire.decode_ns_per_op", "ns"),
    ("wire.encode_ns_per_op", "ns"),
    ("wire.bytes_per_op", "B/op"),
    ("shard.exec_ns_per_op", "ns"),
    ("shard.ops_per_run", "ops"),
    ("shard.finger_hit_ratio", "ratio"),
    ("tree.get_ns", "ns"),
    ("tree.insert_ns", "ns"),
    ("tree.remove_ns", "ns"),
    ("tree.depth_mean", "nodes"),
    ("tree.helps_per_kop", "1/kop"),
    ("reclaim.pool_hit_ratio", "ratio"),
    ("reclaim.retired_backlog", "count"),
    ("reclaim.epoch_lag", "epochs"),
    ("trace.overhead_pct", "%"),
];

/// Fills the report with every per-layer metric. A layer the workload
/// does not exercise reads 0 and is named on a line of its own.
pub fn layer_report(r: &mut Report, measured: &[(&'static str, f64)]) {
    let mut idle = Vec::new();
    for &(name, unit) in PER_LAYER {
        match measured.iter().find(|m| m.0 == name) {
            Some(&(_, v)) => r.metric(name, v, unit),
            None => {
                idle.push(name);
                r.metric(name, 0.0, unit);
            }
        }
    }
    if !idle.is_empty() {
        r.lines.push(format!(
            "not exercised by this workload (reported as 0): {}",
            idle.join(" ")
        ));
    }
}

/// Ratio that reads 0 rather than NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
