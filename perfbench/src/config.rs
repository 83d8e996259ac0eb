//! Workload definitions: parameters, fixed rates and latency limits, one
//! table so they are recorded in one place.

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// In process, from the calling thread: one `NmTreeMap` through a
    /// `MapHandle`, or a sharded store through `execute_batch`.
    Embed,
    /// A TCP server with one reactor worker, driven over one connection
    /// by one client thread.
    Serve,
}

/// One workload's parameters.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Key space `0..keys`.
    pub keys: u64,
    /// Share of the key space present after set-up.
    pub prefill: f64,
    /// Percentages of GET, INSERT, REMOVE.
    pub mix: [u64; 3],
    /// Zipf skew over the key space; 0 means uniform.
    pub zipf_theta: f64,
    /// Embedded workloads: ops in each timed window of the closed loop.
    pub closed_ops: u64,
    /// Ops per call into the map, or per frame on the wire: 1 is a point
    /// op, more a BATCH.
    pub batch_ops: usize,
    /// Fixed open-loop rates in thousands of ops per second, ascending.
    /// They run past the program's capacity, so the highest rung that
    /// meets the latency limit moves with the program's speed.
    pub ladder_kops: &'static [f64],
    /// The ladder rung whose latencies are reported as `lat_p50_us` and
    /// `lat_p99_us`.
    pub nominal_kops: f64,
    /// A rung meets the objective when its p99 is at most this.
    pub p99_limit_us: f64,
    /// Set-up samples per run; `setup_s` is their fast quantile
    /// ([`crate::SETUP_Q`]).
    pub setup_reps: usize,
}

/// Shards of every sharded store, served or in process.
pub const SHARDS: usize = 4;

/// Every workload the benchmark knows.
pub const WORKLOADS: &[Workload] = &[
    // Every op is an insert or remove on a tree that fits in cache: the
    // tree's update path and reclaim do nearly all the work; server, wire
    // and shard do none. The paper's small-range, write-dominated corner.
    // One thread, not two: on a 2-vCPU VM two contending threads made
    // throughput and memory bimodal between runs (the cost of sharing
    // depends on where the host places the vCPUs).
    Workload {
        name: "embed_hot_writes",
        shape: Shape::Embed,
        keys: 1024,
        prefill: 0.5,
        mix: [0, 50, 50],
        zipf_theta: 0.0,
        closed_ops: 500_000,
        batch_ops: 1,
        ladder_kops: &[
            1000.0, 2000.0, 2500.0, 2750.0, 3000.0, 3250.0, 3500.0, 3750.0, 4000.0, 4500.0, 5000.0,
            5500.0,
        ],
        nominal_kops: 1000.0,
        p99_limit_us: 20.0,
        setup_reps: 21,
    },
    // Fixed 64-op batches through ShardedMapHandle::execute_batch
    // (partition, sort, finger batch, scatter) on a 4-shard store, in
    // process; Zipf duplicates exercise same-key ordering of fused batches.
    // This is the gated workload of the shard layer. serve_batch sends the
    // same batches over TCP, but there a client and a server share a
    // 2-vCPU host, and its throughput moved by a third between runs.
    Workload {
        name: "embed_batch",
        shape: Shape::Embed,
        keys: 65536,
        prefill: 0.5,
        mix: [70, 20, 10],
        zipf_theta: 0.9,
        closed_ops: 192_000,
        batch_ops: 64,
        ladder_kops: &[
            500.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0, 2750.0, 3000.0, 3500.0,
        ],
        nominal_kops: 500.0,
        p99_limit_us: 500.0,
        setup_reps: 15,
    },
    // Fixed 64-op BATCH frames make execute_batch the main server cost
    // (partition, sort, finger batch, scatter) and spread per-frame reactor
    // cost over 64 ops; Zipf duplicates exercise same-key ordering of fused
    // batches. 64 ops, not 256: at 256 a rung of a few hundred thousand
    // ops per second is a few thousand frames per second, too few latency
    // samples for a steady p99 in a run of seconds.
    Workload {
        name: "serve_batch",
        shape: Shape::Serve,
        keys: 65536,
        prefill: 0.5,
        mix: [70, 20, 10],
        zipf_theta: 0.9,
        closed_ops: 0,
        batch_ops: 64,
        ladder_kops: &[
            500.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0, 2400.0, 2700.0,
        ],
        nominal_kops: 500.0,
        p99_limit_us: 5000.0,
        setup_reps: 15,
    },
    // One op per frame makes the reactor, conn and wire per-frame path
    // dominant and bypasses execute_batch; a ~2M-key tree far larger than
    // the last-level cache makes descents miss.
    Workload {
        name: "serve_point",
        shape: Shape::Serve,
        keys: 1 << 22,
        prefill: 0.5,
        mix: [90, 9, 1],
        zipf_theta: 0.0,
        closed_ops: 0,
        batch_ops: 1,
        ladder_kops: &[
            100.0, 150.0, 175.0, 200.0, 225.0, 250.0, 275.0, 300.0, 325.0, 350.0, 400.0, 450.0,
        ],
        nominal_kops: 100.0,
        p99_limit_us: 1000.0,
        setup_reps: 3,
    },
];

impl Workload {
    /// Keys present after set-up.
    pub fn prefill_keys(&self) -> u64 {
        (self.keys as f64 * self.prefill).round() as u64
    }

    /// Splits `secs` over the ladder's rungs; the nominal rung, whose
    /// latencies are reported, gets twice the time of the others.
    pub fn rung_secs(&self, secs: f64) -> Vec<f64> {
        let weight = |k: f64| if k == self.nominal_kops { 2.0 } else { 1.0 };
        let total: f64 = self.ladder_kops.iter().map(|&k| weight(k)).sum();
        self.ladder_kops
            .iter()
            .map(|&k| secs * weight(k) / total)
            .collect()
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_is_well_formed() {
        for w in super::WORKLOADS {
            assert_eq!(w.mix.iter().sum::<u64>(), 100, "{}", w.name);
            assert!(w.ladder_kops.contains(&w.nominal_kops), "{}", w.name);
            assert!(
                w.ladder_kops.windows(2).all(|p| p[0] < p[1]),
                "{}: ladder ascends",
                w.name
            );
            assert!(w.prefill_keys() > 0, "{}", w.name);
            assert!(w.setup_reps > 0, "{}", w.name);
            assert_eq!(super::workload(w.name).unwrap().name, w.name);
        }
        assert!(super::workload("nope").is_err());
    }
}
