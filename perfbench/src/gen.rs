//! Seeded request generation and the reply oracle.
//!
//! Everything here is the benchmark's own code, so the inputs a seed
//! produces never change with the program under test.

use crate::config::Workload;
use nmbst_server::wire::{BatchOp, BatchReply, Request, Response};

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// How request keys are drawn from `0..n`.
enum Keys {
    Uniform(u64),
    /// Zipf ranks from an alias table (one random draw and one table
    /// read per key, so the client stays cheaper than the server), spread
    /// over the key space by an odd multiplier (a bijection modulo the
    /// power-of-two key count), so hot keys land on every shard rather
    /// than on the smallest keys.
    Zipf {
        /// Per rank: keep the rank when the draw's low 32 bits are at
        /// most the threshold, else take the alias.
        table: Vec<(u32, u32)>,
        shift: u32,
        mask: u64,
    },
}

/// Vose's alias table for probabilities proportional to `weights`.
fn alias_table(weights: &[f64]) -> Vec<(u32, u32)> {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let mut p: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
    let mut table = vec![(u32::MAX, 0u32); n];
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| p[i] < 1.0);
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        table[s] = ((p[s] * 4_294_967_296.0) as u32, l as u32);
        p[l] -= 1.0 - p[s];
        if p[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    table
}

impl Keys {
    fn new(n: u64, theta: f64) -> Keys {
        if theta == 0.0 {
            return Keys::Uniform(n);
        }
        assert!(n.is_power_of_two(), "Zipf key spaces are powers of two");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        Keys::Zipf {
            table: alias_table(&weights),
            shift: 64 - n.trailing_zeros(),
            mask: n - 1,
        }
    }

    fn draw(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform(n) => rng.below(*n),
            Keys::Zipf { table, shift, mask } => {
                let r = rng.next();
                let slot = (r >> shift) as usize;
                let (keep, alias) = table[slot];
                let rank = if r as u32 <= keep {
                    slot as u64
                } else {
                    u64::from(alias)
                };
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask
            }
        }
    }
}

/// The request stream of one client (or one embedded thread).
pub struct OpGen {
    rng: Rng,
    keys: Keys,
    mix: [u64; 3],
    next_value: u64,
}

impl OpGen {
    pub fn new(w: &Workload, seed: u64, stream: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed, stream),
            keys: Keys::new(w.keys, w.zipf_theta),
            mix: w.mix,
            // Insert values are unique per stream, so a GET that returns
            // a stale value cannot match the oracle by accident.
            next_value: stream << 48,
        }
    }

    pub fn next(&mut self) -> BatchOp {
        let key = self.keys.draw(&mut self.rng);
        let r = self.rng.below(100);
        if r < self.mix[0] {
            BatchOp::Get(key)
        } else if r < self.mix[0] + self.mix[1] {
            self.next_value += 1;
            BatchOp::Insert(key, self.next_value)
        } else {
            BatchOp::Remove(key)
        }
    }
}

/// The point request carrying `op`.
pub fn point_request(op: BatchOp) -> Request {
    match op {
        BatchOp::Get(k) => Request::Get(k),
        BatchOp::Insert(k, v) => Request::Insert(k, v),
        BatchOp::Remove(k) => Request::Remove(k),
    }
}

/// A point response as the reply record it carries; `None` for an
/// error or a response of the wrong kind.
pub fn point_reply(resp: &Response) -> Option<BatchReply> {
    Some(match *resp {
        Response::Get(Some(v)) => BatchReply::Found(v),
        Response::Get(None) => BatchReply::Missing,
        Response::Insert(b) => BatchReply::Added(b),
        Response::Remove(b) => BatchReply::Removed(b),
        _ => return None,
    })
}

/// A sequential model of the map: value per key, 0 when absent (every
/// value the benchmark stores is non-zero).
#[derive(Clone)]
pub struct Shadow {
    vals: Vec<u64>,
    live: u64,
}

impl Shadow {
    /// The state after set-up: exactly `w.prefill_keys()` keys, chosen by
    /// selection sampling so the choice is seeded and ascending.
    pub fn prefilled(w: &Workload, seed: u64) -> Shadow {
        let mut rng = Rng::new(seed, 0);
        let mut vals = vec![0u64; w.keys as usize];
        let mut need = w.prefill_keys();
        for (k, v) in vals.iter_mut().enumerate() {
            let left = w.keys - k as u64;
            if rng.below(left) < need {
                *v = (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
                need -= 1;
            }
        }
        Shadow {
            vals,
            live: w.prefill_keys(),
        }
    }

    /// Present `(key, value)` pairs in a seeded random order: the order
    /// set-up inserts them in. (The tree does not rebalance, so ascending
    /// inserts would build a degenerate chain.)
    pub fn insert_order(&self, seed: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k as u64, v))
            .collect();
        let mut rng = Rng::new(seed, 2);
        for i in (1..out.len()).rev() {
            out.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        Some(self.vals[key as usize]).filter(|&v| v != 0)
    }

    pub fn live(&self) -> u64 {
        self.live
    }

    /// Size of the key space.
    pub fn keys(&self) -> u64 {
        self.vals.len() as u64
    }

    /// Runs `op` on the model and returns the reply the map must give.
    pub fn apply(&mut self, op: BatchOp) -> BatchReply {
        match op {
            BatchOp::Get(k) => self.get(k).map_or(BatchReply::Missing, BatchReply::Found),
            BatchOp::Insert(k, v) => {
                let slot = &mut self.vals[k as usize];
                let added = *slot == 0;
                if added {
                    *slot = v;
                    self.live += 1;
                }
                BatchReply::Added(added)
            }
            BatchOp::Remove(k) => {
                let slot = &mut self.vals[k as usize];
                let removed = *slot != 0;
                if removed {
                    *slot = 0;
                    self.live -= 1;
                }
                BatchReply::Removed(removed)
            }
        }
    }
}

/// Checks replies, in request order, against the model.
pub struct Checker {
    pub shadow: Shadow,
    pub checked: u64,
    pub failed: u64,
    /// Index of a reply to corrupt before it is checked: lets the test
    /// show that the oracle catches a wrong reply.
    pub corrupt_at: Option<u64>,
}

impl Checker {
    pub fn new(shadow: Shadow) -> Checker {
        Checker {
            shadow,
            checked: 0,
            failed: 0,
            corrupt_at: None,
        }
    }

    /// Checks one reply; `None` is a reply that never arrived or did not
    /// decode, and counts as failed.
    pub fn check(&mut self, op: BatchOp, got: Option<BatchReply>) {
        let want = self.shadow.apply(op);
        let got = if self.corrupt_at == Some(self.checked) {
            got.map(corrupt)
        } else {
            got
        };
        self.checked += 1;
        if got != Some(want) {
            self.failed += 1;
        }
    }
}

fn corrupt(r: BatchReply) -> BatchReply {
    match r {
        BatchReply::Found(v) => BatchReply::Found(v ^ 1),
        BatchReply::Missing => BatchReply::Found(1),
        BatchReply::Added(b) => BatchReply::Added(!b),
        BatchReply::Removed(b) => BatchReply::Removed(!b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_is_exact_and_seeded() {
        let w = crate::config::workload("serve_batch").unwrap();
        let a = Shadow::prefilled(w, 7).insert_order(7);
        assert_eq!(a.len() as u64, w.prefill_keys());
        assert!(a.windows(2).any(|p| p[0].0 > p[1].0), "order is shuffled");
        assert_eq!(a, Shadow::prefilled(w, 7).insert_order(7));
        assert_ne!(a, Shadow::prefilled(w, 8).insert_order(8));
    }

    #[test]
    fn zipf_concentrates_and_stays_in_range() {
        let w = crate::config::workload("serve_batch").unwrap();
        let mut g = OpGen::new(w, 1, 1);
        let mut hits = vec![0u32; w.keys as usize];
        for _ in 0..100_000 {
            let (BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k)) = g.next();
            hits[k as usize] += 1;
        }
        // Rank 1 has weight 1 out of the sum over all ranks.
        let total: f64 = (1..=w.keys).map(|r| (r as f64).powf(-w.zipf_theta)).sum();
        let want = 100_000.0 / total;
        let max = f64::from(*hits.iter().max().unwrap());
        assert!(
            (max - want).abs() < 0.1 * want,
            "hottest key drew {max} of 100k, expected about {want:.0}"
        );
    }

    #[test]
    fn alias_table_reproduces_its_weights() {
        let table = alias_table(&[1.0, 2.0, 3.0, 2.0]);
        // Each slot is drawn with probability 1/4; mass 1/4 * keep share
        // stays, the rest goes to the alias.
        let mut mass = [0.0; 4];
        for (slot, &(keep, alias)) in table.iter().enumerate() {
            let stay = (f64::from(keep) + 1.0) / 4_294_967_296.0;
            mass[slot] += stay / 4.0;
            mass[alias as usize] += (1.0 - stay) / 4.0;
        }
        for (m, want) in mass.iter().zip([0.125, 0.25, 0.375, 0.25]) {
            assert!((m - want).abs() < 1e-6, "{mass:?}");
        }
    }

    #[test]
    fn oracle_counts_a_corrupted_reply() {
        let w = crate::config::workload("serve_batch").unwrap();
        let mut model = Shadow::prefilled(w, 3);
        let mut chk = Checker::new(model.clone());
        chk.corrupt_at = Some(5);
        let mut g = OpGen::new(w, 3, 1);
        for _ in 0..20 {
            let op = g.next();
            chk.check(op, Some(model.apply(op)));
        }
        assert_eq!((chk.checked, chk.failed), (20, 1));
    }
}
