//! Quickstart: the paper's dictionary ADT in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nmbst::{NmTreeMap, TagMode, TreeConfig};
use nmbst_reclaim::Leaky;

fn main() {
    // --- the set (the ADT of §2: search / insert / delete) -----------
    // A map with `()` values is the paper's set; the values take no space.
    let set: NmTreeMap<u64, ()> = NmTreeMap::new(); // epoch-reclaimed by default
    assert!(set.insert(42, ()));
    assert!(!set.insert(42, ())); // duplicates rejected
    assert!(set.contains(&42));
    assert!(set.remove(&42));
    assert!(!set.remove(&42));
    println!("single-threaded set semantics: ok");

    // --- lock-free concurrency ---------------------------------------
    // Ten threads hammer overlapping ranges; no locks anywhere.
    std::thread::scope(|s| {
        for t in 0..10u64 {
            let set = &set;
            s.spawn(move || {
                for i in 0..10_000 {
                    let k = (t * 7919 + i) % 5_000;
                    if i % 3 == 0 {
                        set.remove(&k);
                    } else {
                        set.insert(k, ());
                    }
                }
            });
        }
    });
    println!(
        "after 100k contended ops: {} keys, all invariants hold",
        set.count()
    );

    // --- the map variant ----------------------------------------------
    let map: NmTreeMap<String, Vec<u8>> = NmTreeMap::new();
    map.insert("alpha".into(), vec![1, 2, 3]);
    map.insert("beta".into(), vec![4, 5]);
    // Zero-copy reads under an internal reclamation guard:
    let total: usize = map.with_value(&"alpha".to_string(), |v| v.len()).unwrap();
    assert_eq!(total, 3);
    // Ascending-order traversal (weakly consistent under concurrency):
    map.for_each(|k, v| println!("  {k} -> {} bytes", v.len()));

    // --- choosing a reclamation scheme ---------------------------------
    // `Leaky` reproduces the paper's benchmark regime: retired nodes are
    // never freed. Use it for measurements, never for long-running
    // services.
    let bench_set: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    bench_set.insert(1, ());

    // --- the CAS-only variant (§6) --------------------------------------
    let cas_only: NmTreeMap<u64, ()> =
        NmTreeMap::with_config(TreeConfig::default().with_tag_mode(TagMode::CasLoop));
    cas_only.insert(7, ());
    assert!(cas_only.remove(&7));
    println!("CAS-only variant: ok");
}
