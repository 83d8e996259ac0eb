//! A price-level index for a limit order book — the paper's
//! *write-dominated* workload (≈50% insert / 50% delete) in application
//! form, plus ordered traversal for top-of-book queries.
//!
//! Each side of the book is a [`ShardedMap<u64, ()>`] of active price
//! levels (prices in ticks, no values): hash-sharded for write
//! throughput, while `range_for_each` still merges the shards into one
//! globally ascending pass for the market-data feed. Matching engines
//! drive their side through a [`nmbst::ShardedMapHandle`], using the
//! batch entry points for quote-ladder refreshes — pure insert/delete
//! churn, exactly the regime where the NM algorithm's single-CAS insert
//! and three-atomic delete shine (Figure 4, left column).
//!
//! ```text
//! cargo run --release --example order_book
//! ```

use nmbst::ShardedMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TICKS: u64 = 4_096; // price grid
const MID: u64 = TICKS / 2;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn main() {
    let bids: ShardedMap<u64, ()> = ShardedMap::with_shards(4);
    let asks: ShardedMap<u64, ()> = ShardedMap::with_shards(4);

    // Seed a plausible book around the mid price.
    for d in 1..200 {
        bids.insert(MID - d, ());
        asks.insert(MID + d, ());
    }

    let stop = AtomicBool::new(false);
    let churn_ops = AtomicU64::new(0);
    let snapshots = AtomicU64::new(0);
    let t0 = Instant::now();

    std::thread::scope(|s| {
        // Matching engines: create/clear price levels near the mid.
        for t in 0..6u64 {
            let bids = &bids;
            let asks = &asks;
            let stop = &stop;
            let churn_ops = &churn_ops;
            s.spawn(move || {
                let mut bid_h = bids.handle();
                let mut ask_h = asks.handle();
                let mut rng = 0xB00C + t;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    // Price levels cluster near the mid (geometric-ish).
                    let depth = (r >> 48).trailing_zeros() as u64 * 13 % 400 + 1;
                    if r & 0xFF == 0 {
                        // Occasional quote refresh: replace a ladder of
                        // levels on one side in two batched calls.
                        let (side, sign) = if r & 1 == 0 {
                            (&mut bid_h, -1i64)
                        } else {
                            (&mut ask_h, 1i64)
                        };
                        let rung = |i: u64| {
                            let p = MID as i64 + sign * (depth + 3 * i) as i64;
                            (p.clamp(1, TICKS as i64 - 1)) as u64
                        };
                        ops += side.insert_batch((0..8).map(|i| (rung(i), ()))) as u64;
                        ops += side.remove_batch((8..16).map(rung)) as u64;
                    } else {
                        let (side, price) = if r & 1 == 0 {
                            (&mut bid_h, MID.saturating_sub(depth).max(1))
                        } else {
                            (&mut ask_h, (MID + depth).min(TICKS - 1))
                        };
                        if r & 2 == 0 {
                            side.insert(price, ());
                        } else {
                            side.remove(&price);
                        }
                        ops += 1;
                    }
                }
                churn_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        // Market-data thread: periodic ordered snapshots of each side.
        {
            let bids = &bids;
            let asks = &asks;
            let stop = &stop;
            let snapshots = &snapshots;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // `range_for_each` merges all shards and visits in
                    // ascending order: best bid = last key below the
                    // mid, best ask = first key at/above it.
                    let mut best_bid = None;
                    bids.range_for_each(1..MID, |p, ()| best_bid = Some(*p));
                    let mut best_ask = None;
                    asks.range_for_each(MID..TICKS, |p, ()| {
                        if best_ask.is_none() {
                            best_ask = Some(*p);
                        }
                    });
                    if let (Some(b), Some(a)) = (best_bid, best_ask) {
                        // The book may be transiently crossed from the
                        // snapshot's weak consistency; that is expected
                        // and what real feeds debounce.
                        std::hint::black_box((b, a));
                    }
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(750));
        stop.store(true, Ordering::Relaxed);
    });

    let secs = t0.elapsed().as_secs_f64();
    let ops = churn_ops.load(Ordering::Relaxed);
    println!(
        "churned {ops} level updates in {secs:.2}s ({:.2} Mops/s)",
        ops as f64 / secs / 1e6
    );
    println!(
        "market-data snapshots taken: {}",
        snapshots.load(Ordering::Relaxed)
    );
    println!(
        "book at close: {} bid levels, {} ask levels ({} shards/side)",
        bids.count(),
        asks.count(),
        bids.shard_count()
    );

    // Deterministic post-run checks: both sides stay inside the grid,
    // in merged ascending order, and every shard's tree is well-formed.
    let mut last = 0;
    bids.for_each(|p, ()| {
        assert!((1..MID).contains(p));
        assert!(*p > last || last == 0, "merged traversal stays sorted");
        last = *p;
    });
    asks.for_each(|p, ()| assert!((MID..TICKS).contains(p)));
    let mut bids = bids;
    bids.check_invariants().expect("bid shards well-formed");
    println!("post-run range + shard invariants: ok");
}
