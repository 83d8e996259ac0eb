//! Zipfian key generation (skewed access), for workloads beyond the
//! paper's uniform draws.
//!
//! The paper samples keys uniformly; real caches and indexes see skew.
//! This is the standard Gray et al. incremental-zeta generator (the one
//! YCSB uses): item ranks follow `P(rank = k) ∝ 1 / k^θ`.

use crate::rng::XorShift64Star;

/// A Zipf-distributed generator over `0..n`.
///
/// `theta` ∈ \[0, 1): 0 = uniform, 0.99 = heavily skewed (YCSB default).
///
/// # Examples
///
/// ```
/// use nmbst_harness::rng::XorShift64Star;
/// use nmbst_harness::zipf::ZipfGenerator;
///
/// let mut rng = XorShift64Star::new(7);
/// let zipf = ZipfGenerator::new(1000, 0.99);
/// let k = zipf.next(&mut rng);
/// assert!(k < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl ZipfGenerator {
    /// Builds a generator over `0..n` with skew `theta`. `O(n)` setup
    /// (computes the harmonic normalizer).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zeta_n = zeta(n, theta);
        let zeta_2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        ZipfGenerator {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    /// Draws the next rank in `0..n` (rank 0 is the hottest).
    pub fn next(&self, rng: &mut XorShift64Star) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The size of the key space.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_range() {
        let z = ZipfGenerator::new(100, 0.9);
        let mut rng = XorShift64Star::new(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_hottest_under_skew() {
        let z = ZipfGenerator::new(1000, 0.99);
        let mut rng = XorShift64Star::new(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999] * 10);
        // Hot head: top-10 ranks should dominate a heavy-tailed draw.
        let head: u32 = counts[..10].iter().sum();
        assert!(head as f64 > 0.35 * 200_000.0, "head too cold: {head}");
    }

    #[test]
    fn low_theta_approaches_uniform() {
        let z = ZipfGenerator::new(64, 0.01);
        let mut rng = XorShift64Star::new(3);
        let mut counts = vec![0u32; 64];
        const N: u32 = 256_000;
        for _ in 0..N {
            counts[z.next(&mut rng) as usize] += 1;
        }
        let expected = N / 64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected as f64 * 0.5 && (c as f64) < expected as f64 * 2.0,
                "bucket {i} has {c}, expected ≈{expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_theta_one() {
        let _ = ZipfGenerator::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_space() {
        let _ = ZipfGenerator::new(0, 0.5);
    }
}
