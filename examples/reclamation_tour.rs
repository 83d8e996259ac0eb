//! A tour of the memory-reclamation substrate (`nmbst-reclaim`),
//! implemented from scratch for this reproduction.
//!
//! The paper assumes removed nodes are never reclaimed (§3.2) and its
//! evaluation leaks in all implementations (§4). This example shows the
//! schemes a real deployment chooses from.
//!
//! ```text
//! cargo run --release --example reclamation_tour
//! ```

use nmbst::NmTreeMap;
use nmbst_reclaim::{Ebr, Leaky, Reclaim, RetireGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() {
    // ---------- 1. Leaky: the paper's benchmark regime ----------------
    let leaky_set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    for k in 0..10_000 {
        leaky_set.insert(k, ());
    }
    for k in 0..10_000 {
        leaky_set.remove(&k);
    }
    println!("Leaky: 10k inserted+removed; removed nodes intentionally leaked");

    // ---------- 2. EBR: the production default ------------------------
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let freed = Arc::new(AtomicUsize::new(0));
    {
        let map: NmTreeMap<u64, Tracked, Ebr> = NmTreeMap::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = &map;
                let freed = &freed;
                s.spawn(move || {
                    for i in 0..2_500 {
                        let k = t * 2_500 + i;
                        map.insert(k, Tracked(Arc::clone(freed)));
                        map.remove(&k);
                    }
                    map.flush(); // hand this thread's garbage to the collector
                });
            }
        });
        println!(
            "EBR: after churn, {} of 10000 removed values already freed while the tree lives",
            freed.load(Ordering::Relaxed)
        );
    }
    assert_eq!(freed.load(Ordering::Relaxed), 10_000);
    println!("EBR: all 10000 freed exactly once by tree drop");

    // ---------- 3. Raw EBR usage (for your own structures) ------------
    let ebr = Ebr::new();
    let guard = ebr.pin();
    let ptr = Box::into_raw(Box::new([0u8; 64]));
    // ... unlink `ptr` from your structure, then:
    unsafe { guard.retire(ptr) };
    drop(guard);
    drop(ebr); // frees everything pending
    println!("raw EBR: pin / retire / drop cycle ok");
}
