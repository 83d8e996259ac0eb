//! Workload definitions — §4's three operation mixes, plus the
//! `sorted-batch` key generator.

use crate::rng::XorShift64Star;
use crate::zipf::ZipfGenerator;

/// One of the paper's benchmark operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Membership query.
    Search,
    /// Key addition.
    Insert,
    /// Key removal.
    Delete,
}

/// An operation mix (percentages summing to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Percentage of search operations.
    pub search_pct: u8,
    /// Percentage of insert operations.
    pub insert_pct: u8,
    /// Percentage of delete operations.
    pub delete_pct: u8,
    /// Report label.
    pub name: &'static str,
}

impl Workload {
    /// §4: "*write-dominated workload:* 0% search, 50% insert and 50%
    /// delete."
    pub const WRITE_DOMINATED: Workload = Workload {
        search_pct: 0,
        insert_pct: 50,
        delete_pct: 50,
        name: "write-dominated (0/50/50)",
    };

    /// §4: "*mixed workload:* 70% search, 20% insert and 10% delete."
    pub const MIXED: Workload = Workload {
        search_pct: 70,
        insert_pct: 20,
        delete_pct: 10,
        name: "mixed (70/20/10)",
    };

    /// §4: "*read-dominated workload:* 90% search, 9% insert and 1%
    /// delete."
    pub const READ_DOMINATED: Workload = Workload {
        search_pct: 90,
        insert_pct: 9,
        delete_pct: 1,
        name: "read-dominated (90/9/1)",
    };

    /// The paper's three columns of Figure 4, in order.
    pub const FIGURE4: [Workload; 3] = [
        Workload::WRITE_DOMINATED,
        Workload::MIXED,
        Workload::READ_DOMINATED,
    ];

    /// Creates a custom mix; panics unless the percentages sum to 100.
    pub fn custom(name: &'static str, search_pct: u8, insert_pct: u8, delete_pct: u8) -> Workload {
        assert_eq!(
            search_pct as u32 + insert_pct as u32 + delete_pct as u32,
            100,
            "workload percentages must sum to 100"
        );
        Workload {
            search_pct,
            insert_pct,
            delete_pct,
            name,
        }
    }

    /// Draws the next operation from the mix.
    #[inline]
    pub fn pick(&self, rng: &mut XorShift64Star) -> OpKind {
        let p = rng.next_percent();
        if p < self.search_pct {
            OpKind::Search
        } else if p < self.search_pct + self.insert_pct {
            OpKind::Insert
        } else {
            OpKind::Delete
        }
    }
}

/// The `sorted-batch` key generator: each draw yields an
/// ascending, duplicate-free run of keys confined to one Zipf-popular
/// *cluster* of the key space.
///
/// This models bulk ingest shapes — log replay, sorted file merges,
/// time-ordered feeds — where consecutive operations land near each
/// other in key order. It is the best case for NM's finger-anchored
/// batch descents, which the `perf` bin's sorted-batch cell measures.
///
/// Clusters are `cluster_width`-wide slices of `1..=key_range`; which
/// cluster a run lands in follows a Zipf draw (rank 0 hottest), and the
/// run itself walks upward with stride 1–2 from a random offset inside
/// the cluster.
#[derive(Debug, Clone)]
pub struct SortedBatchGen {
    key_range: u64,
    batch_len: usize,
    cluster_width: u64,
    zipf: ZipfGenerator,
}

impl SortedBatchGen {
    /// Builds a generator over `1..=key_range` producing runs of
    /// `batch_len` keys, with cluster popularity skew `theta` ∈ [0, 1).
    pub fn new(key_range: u64, batch_len: usize, theta: f64) -> Self {
        assert!(key_range > 0, "empty key space");
        assert!(batch_len > 0, "empty batches");
        // A cluster holds a few batches' worth of keys, so repeated
        // draws from a hot cluster overlap without being identical.
        let cluster_width = (batch_len as u64 * 4).max(16).min(key_range);
        let clusters = (key_range / cluster_width).max(1);
        SortedBatchGen {
            key_range,
            batch_len,
            cluster_width,
            zipf: ZipfGenerator::new(clusters, theta),
        }
    }

    /// The configured run length (output may be shorter after clamping
    /// at the top of the key space deduplicates the tail).
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Fills `out` with the next ascending run. Keys are strictly
    /// increasing, duplicate-free, and within `1..=key_range`.
    pub fn fill(&self, rng: &mut XorShift64Star, out: &mut Vec<u64>) {
        out.clear();
        let base = self.zipf.next(rng) * self.cluster_width;
        let mut key = base + rng.next_bounded(self.cluster_width.div_ceil(2));
        for _ in 0..self.batch_len {
            key += 1 + rng.next_bounded(2);
            out.push(key.min(self.key_range));
        }
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sum_to_100() {
        for w in Workload::FIGURE4 {
            assert_eq!(
                w.search_pct as u32 + w.insert_pct as u32 + w.delete_pct as u32,
                100
            );
        }
    }

    #[test]
    fn pick_matches_mix_statistically() {
        let w = Workload::MIXED;
        let mut rng = XorShift64Star::new(2024);
        let (mut s, mut i, mut d) = (0u32, 0u32, 0u32);
        const N: u32 = 100_000;
        for _ in 0..N {
            match w.pick(&mut rng) {
                OpKind::Search => s += 1,
                OpKind::Insert => i += 1,
                OpKind::Delete => d += 1,
            }
        }
        let f = |x: u32| x as f64 / N as f64;
        assert!((f(s) - 0.70).abs() < 0.01, "searches {}", f(s));
        assert!((f(i) - 0.20).abs() < 0.01, "inserts {}", f(i));
        assert!((f(d) - 0.10).abs() < 0.01, "deletes {}", f(d));
    }

    #[test]
    fn write_dominated_never_searches() {
        let w = Workload::WRITE_DOMINATED;
        let mut rng = XorShift64Star::new(5);
        for _ in 0..10_000 {
            assert_ne!(w.pick(&mut rng), OpKind::Search);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn custom_validates_sum() {
        let _ = Workload::custom("bad", 50, 50, 50);
    }

    #[test]
    fn sorted_batch_runs_are_ascending_and_in_range() {
        let gen = SortedBatchGen::new(10_000, 32, 0.8);
        let mut rng = XorShift64Star::new(11);
        let mut buf = Vec::new();
        for _ in 0..1_000 {
            gen.fill(&mut rng, &mut buf);
            assert!(!buf.is_empty() && buf.len() <= 32);
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "run not ascending");
            assert!(*buf.first().unwrap() >= 1);
            assert!(*buf.last().unwrap() <= 10_000);
        }
    }

    #[test]
    fn sorted_batch_is_deterministic_per_seed() {
        let gen = SortedBatchGen::new(4_096, 16, 0.6);
        let (mut ra, mut rb) = (XorShift64Star::new(3), XorShift64Star::new(3));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            gen.fill(&mut ra, &mut a);
            gen.fill(&mut rb, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sorted_batch_clusters_are_skewed() {
        // With heavy skew, most runs should start in the hottest slice
        // of the key space.
        let gen = SortedBatchGen::new(100_000, 32, 0.99);
        let mut rng = XorShift64Star::new(7);
        let mut buf = Vec::new();
        let mut in_head = 0;
        const DRAWS: usize = 2_000;
        for _ in 0..DRAWS {
            gen.fill(&mut rng, &mut buf);
            if buf[0] <= 10_000 {
                in_head += 1;
            }
        }
        assert!(
            in_head as f64 > 0.35 * DRAWS as f64,
            "only {in_head}/{DRAWS} runs in the hot 10%"
        );
    }

    #[test]
    fn sorted_batch_tiny_key_space_stays_valid() {
        let gen = SortedBatchGen::new(8, 32, 0.5);
        let mut rng = XorShift64Star::new(1);
        let mut buf = Vec::new();
        for _ in 0..100 {
            gen.fill(&mut rng, &mut buf);
            assert!(buf.windows(2).all(|w| w[0] < w[1]));
            assert!(buf.iter().all(|&k| (1..=8).contains(&k)));
        }
    }
}
