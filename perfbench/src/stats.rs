//! Order statistics, windowed percentiles and process memory.

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Quantile `q` (0..=1) of `v`, by nearest rank; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile_sorted(s: &[u32], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    f64::from(s[rank.clamp(1, s.len()) - 1])
}

/// Latency samples grouped into windows of [`WINDOW_SAMPLES`] consecutive
/// requests. Each window yields its own p50 and p99; the median of those
/// is what a run reports. On a small shared machine the host steals the
/// CPU for milliseconds at a time, about 1% of the time: a p99 over a
/// whole run lands on those stalls or not by chance, while the median
/// window is one the stalls missed. Samples are only appended while a
/// phase runs; sorting waits for `finish`, so it never delays the
/// schedule being measured.
pub struct Windows {
    buf: Vec<u32>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

/// Samples per window: the fewest that leave ten beyond the p99.
pub const WINDOW_SAMPLES: usize = 1000;

/// What [`Windows::finish`] reports: the median window's p50 and p99 in
/// nanoseconds, and the number of windows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStats {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub windows: usize,
}

impl Windows {
    /// Room for `capacity` samples between calls to `finish`, allocated
    /// and touched now, so neither recording nor `finish` allocates and
    /// the buffers are not counted as growth of the program's memory.
    /// Samples beyond it are dropped.
    pub fn new(capacity: usize) -> Windows {
        let mut buf = vec![1u32; capacity + WINDOW_SAMPLES];
        buf.clear();
        let windows = capacity / WINDOW_SAMPLES + 1;
        let (mut p50, mut p99) = (vec![0.0; windows], vec![0.0; windows]);
        p50.clear();
        p99.clear();
        Windows { buf, p50, p99 }
    }

    /// Records one latency; samples must arrive in due-time order.
    #[inline]
    pub fn push(&mut self, lat_ns: u64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(lat_ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Reports on every full window recorded since the last call. The
    /// samples of a partial last window stay for the next call, so a
    /// phase run in slices forms windows across its slices.
    pub fn finish(&mut self) -> WindowStats {
        let full = self.buf.len() / WINDOW_SAMPLES * WINDOW_SAMPLES;
        self.p50.clear();
        self.p99.clear();
        for w in self.buf[..full].chunks_exact_mut(WINDOW_SAMPLES) {
            w.sort_unstable();
            self.p50.push(percentile_sorted(w, 50.0));
            self.p99.push(percentile_sorted(w, 99.0));
        }
        self.buf.drain(..full);
        WindowStats {
            p50_ns: median_in_place(&mut self.p50),
            p99_ns: median_in_place(&mut self.p99),
            windows: self.p50.len(),
        }
    }
}

/// [`median`] that sorts `v` instead of a copy.
fn median_in_place(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resident memory of the process that no file backs, from
/// `/proc/self/statm` (pages of 4 KiB): resident minus shared. The pages
/// of the program's code that the run happens to touch are file-backed,
/// so they do not count as memory the map grew by.
pub fn rss_bytes() -> Result<u64, String> {
    let statm = std::fs::read_to_string("/proc/self/statm").map_err(|e| format!("statm: {e}"))?;
    let field = |i: usize| {
        statm
            .split_whitespace()
            .nth(i)
            .and_then(|p| p.parse::<u64>().ok())
    };
    match (field(1), field(2)) {
        (Some(resident), Some(shared)) => Ok(resident.saturating_sub(shared) * 4096),
        _ => Err("statm: no resident or shared field".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!((quantile(&v, 0.9), quantile(&v, 0.1)), (9.0, 1.0));
    }

    #[test]
    fn windows_report_the_median_window() {
        let mut w = Windows::new(4096);
        for win in 0..3u64 {
            for i in 0..WINDOW_SAMPLES as u64 {
                w.push((win + 1) * 10 + i % 2);
            }
        }
        w.push(5);
        let stats = |p50_ns, p99_ns, windows| WindowStats {
            p50_ns,
            p99_ns,
            windows,
        };
        assert_eq!(w.finish(), stats(20.0, 21.0, 3));
        assert_eq!(w.finish(), stats(0.0, 0.0, 0));
        // The leftover sample opens the next window.
        for _ in 1..WINDOW_SAMPLES {
            w.push(7);
        }
        assert_eq!(w.finish(), stats(7.0, 7.0, 1));
    }
}
