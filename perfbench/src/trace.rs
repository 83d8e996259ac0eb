//! Spans recorded by the traced run around the benchmark's calls into
//! each layer. Spans stay in memory (a bounded ring, so the cost per
//! span is constant) and are written out once,
//! when the run ends. Per-name sums cover every span, including those
//! the ring has overwritten.

use std::io::Write;
use std::time::Instant;

/// `parent` of a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this id.
    pub req: u64,
    /// Index of the causing span in the same [`Trace`], or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    origin: Instant,
    ring: Vec<Span>,
    cap: usize,
    recorded: u64,
    totals: Vec<(&'static str, u128, u64)>,
}

impl Trace {
    pub fn new(origin: Instant, cap: usize) -> Trace {
        Trace {
            origin,
            ring: Vec::with_capacity(cap),
            cap,
            recorded: 0,
            totals: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index, for children to name as
    /// their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let span = Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        };
        let idx = (self.recorded % self.cap as u64) as usize;
        if self.ring.len() < self.cap {
            self.ring.push(span);
        } else {
            self.ring[idx] = span;
        }
        self.recorded += 1;
        let dur = u128::from(end_ns.saturating_sub(start_ns));
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += dur;
                t.2 += 1;
            }
            None => self.totals.push((name, dur, 1)),
        }
        idx as u32
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or(0.0, |t| t.1 as f64 / t.2 as f64)
    }

    /// Number of spans named `name` ever recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.2)
    }
}

/// Writes the retained spans as tab-separated lines:
/// `req name parent start_ns end_ns duration_ns`.
pub fn write_spans(path: &str, trace: &Trace) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tname\tparent\tstart_ns\tend_ns\tduration_ns")?;
    for s in &trace.ring {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.req,
            s.name,
            s.start_ns,
            s.end_ns,
            s.end_ns.saturating_sub(s.start_ns)
        )?;
    }
    out.flush()
}
