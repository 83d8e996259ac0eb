//! Property-style tests: the tree agrees with `BTreeMap`/`BTreeSet`
//! models on pseudo-random operation sequences, and its structural
//! invariants hold after arbitrary histories.
//!
//! Cases come from a fixed-seed SplitMix64 stream (no external
//! property-testing crate in this offline build), so runs are identical
//! everywhere and a failing case index pins the exact sequence.

use nmbst::{Ebr, Key, NmTreeMap, TagMode, TreeConfig};
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64 (Steele et al.): tiny, full-period, well-mixed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(i32),
    Remove(i32),
    Contains(i32),
}

fn gen_ops(rng: &mut Rng, key_range: i32, max_len: u64) -> Vec<Op> {
    let len = 1 + rng.below(max_len);
    (0..len)
        .map(|_| {
            let k = rng.below(key_range as u64) as i32;
            match rng.below(3) {
                0 => Op::Insert(k),
                1 => Op::Remove(k),
                _ => Op::Contains(k),
            }
        })
        .collect()
}

#[test]
fn matches_btreeset_model() {
    let mut rng = Rng(0x0001_5E7A);
    for case in 0..128 {
        let ops = gen_ops(&mut rng, 64, 400);
        let mut model = BTreeSet::new();
        let mut set: NmTreeMap<i32, (), Ebr> = NmTreeMap::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k) => assert_eq!(
                    set.insert(k, ()),
                    model.insert(k),
                    "case {case}, op {i}: insert({k}) diverged (ops: {ops:?})"
                ),
                Op::Remove(k) => assert_eq!(
                    set.remove(&k),
                    model.remove(&k),
                    "case {case}, op {i}: remove({k}) diverged (ops: {ops:?})"
                ),
                Op::Contains(k) => assert_eq!(
                    set.contains(&k),
                    model.contains(&k),
                    "case {case}, op {i}: contains({k}) diverged (ops: {ops:?})"
                ),
            }
        }
        assert_eq!(set.keys(), model.iter().copied().collect::<Vec<_>>());
        let shape = set
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(shape.user_keys, model.len(), "case {case}: size diverged");
    }
}

#[test]
fn map_values_match_model() {
    let mut rng = Rng(0x0002_3A9D);
    for case in 0..128 {
        let ops = gen_ops(&mut rng, 48, 300);
        let mut model: BTreeMap<i32, i64> = BTreeMap::new();
        let map: NmTreeMap<i32, i64, Ebr> = NmTreeMap::new();
        for (i, &op) in ops.iter().enumerate() {
            let stamp = i as i64;
            match op {
                Op::Insert(k) => {
                    // The tree rejects duplicates (no update), mirror that.
                    let inserted = map.insert(k, stamp);
                    let expected = !model.contains_key(&k);
                    if expected {
                        model.insert(k, stamp);
                    }
                    assert_eq!(inserted, expected, "case {case}, op {i}: insert({k})");
                }
                Op::Remove(k) => {
                    assert_eq!(
                        map.remove_get(&k),
                        model.remove(&k),
                        "case {case}, op {i}: remove({k})"
                    );
                }
                Op::Contains(k) => {
                    assert_eq!(
                        map.get(&k),
                        model.get(&k).copied(),
                        "case {case}, op {i}: get({k})"
                    );
                }
            }
        }
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(*v), "case {case}: final get({k})");
        }
    }
}

#[test]
fn cas_only_variant_matches_model() {
    // §6: "our algorithm can be easily modified to use only CAS".
    let mut rng = Rng(0x0003_CA5B);
    for case in 0..128 {
        let ops = gen_ops(&mut rng, 32, 200);
        let mut model = BTreeSet::new();
        let mut set: NmTreeMap<i32, (), Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_tag_mode(TagMode::CasLoop));
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k) => assert_eq!(
                    set.insert(k, ()),
                    model.insert(k),
                    "case {case}, op {i}: insert({k}) diverged (ops: {ops:?})"
                ),
                Op::Remove(k) => assert_eq!(
                    set.remove(&k),
                    model.remove(&k),
                    "case {case}, op {i}: remove({k}) diverged (ops: {ops:?})"
                ),
                Op::Contains(k) => assert_eq!(
                    set.contains(&k),
                    model.contains(&k),
                    "case {case}, op {i}: contains({k}) diverged (ops: {ops:?})"
                ),
            }
        }
        set.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

#[test]
fn key_ordering_total_and_sentinels_above() {
    let mut rng = Rng(0x0004_0EDE);
    for _ in 0..512 {
        let a = rng.next() as i64;
        let b = rng.next() as i64;
        let (ka, kb) = (Key::Fin(a), Key::Fin(b));
        assert_eq!(ka.cmp(&kb), a.cmp(&b));
        assert!(Key::Fin(a) < Key::Inf0);
        assert!(Key::Fin(a) < Key::Inf1);
        assert!(Key::Fin(a) < Key::Inf2);
    }
    // Extremes too, which random sampling would rarely pick.
    for a in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert!(Key::Fin(a) < Key::Inf0);
        assert!(Key::Fin(a) < Key::Inf1);
        assert!(Key::Fin(a) < Key::Inf2);
    }
}

#[test]
fn interleaved_two_batches_concurrently() {
    let mut rng = Rng(0x0005_BA7C);
    for case in 0..16 {
        let gen_keys = |rng: &mut Rng| {
            let target = 1 + rng.below(127);
            let mut keys = BTreeSet::new();
            while (keys.len() as u64) < target {
                keys.insert(rng.below(2048));
            }
            keys
        };
        let keys_a = gen_keys(&mut rng);
        let keys_b = gen_keys(&mut rng);

        // Two threads insert their batches concurrently, then one removes
        // its batch. Since removals of shared keys race with nothing
        // after the join, the final state is keys_a \ keys_b exactly.
        let mut set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
        std::thread::scope(|s| {
            let set = &set;
            let a = keys_a.clone();
            let b = keys_b.clone();
            s.spawn(move || {
                for k in a {
                    set.insert(k, ());
                }
            });
            s.spawn(move || {
                for k in b {
                    set.insert(k, ());
                }
            });
        });
        for k in &keys_b {
            assert!(set.remove(k), "case {case}: remove({k})");
        }
        let expected: Vec<u64> = keys_a.difference(&keys_b).copied().collect();
        assert_eq!(set.keys(), expected, "case {case}");
        set.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Bulk construction from arbitrary iterators must match `insert`-loop
/// semantics exactly: any order accepted, duplicate keys keep the
/// *first* occurrence, and the built tree is structurally valid.
#[test]
fn bulk_construction_from_shuffled_duplicated_streams() {
    let mut rng = Rng(0xB17D_0CAB);
    for case in 0..24 {
        // A stream with heavy duplication: keys drawn from a small
        // range, values tagged with the occurrence index so we can tell
        // which duplicate survived.
        let len = 1 + rng.below(300);
        let stream: Vec<(u64, u64)> = (0..len).map(|i| (rng.below(1 + len / 2), i)).collect();

        // Model: first occurrence wins, like `insert` on a fresh map.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &stream {
            model.entry(k).or_insert(v);
        }

        let mut map: NmTreeMap<u64, u64, Ebr> = stream.iter().copied().collect();
        let shape = map
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case} (map): {e}"));
        assert_eq!(shape.user_keys, model.len(), "case {case}: key count");
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(*v), "case {case}: map[{k}]");
        }
        assert_eq!(
            map.keys(),
            model.keys().copied().collect::<Vec<_>>(),
            "case {case}: key order"
        );
    }
}

/// `Extend` onto a *populated* tree must keep the same first-wins
/// contract: keys already present reject the incoming value, duplicate
/// keys within the extension keep their first occurrence.
#[test]
fn extend_populated_tree_from_shuffled_duplicated_streams() {
    let mut rng = Rng(0x5EED_E47E_u64.wrapping_mul(3));
    for case in 0..12 {
        let pre_len = 1 + rng.below(100);
        let ext_len = 1 + rng.below(200);
        let key_space = 1 + (pre_len + ext_len) / 2;
        let pre: Vec<(u64, u64)> = (0..pre_len)
            .map(|i| (rng.below(key_space), 10_000 + i))
            .collect();
        let ext: Vec<(u64, u64)> = (0..ext_len)
            .map(|i| (rng.below(key_space), 20_000 + i))
            .collect();

        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut map: NmTreeMap<u64, u64, Ebr> = NmTreeMap::new();
        for &(k, v) in &pre {
            model.entry(k).or_insert(v);
            map.insert(k, v);
        }
        map.extend(ext.iter().copied());
        for &(k, v) in &ext {
            model.entry(k).or_insert(v);
        }

        map.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(map.len(), model.len(), "case {case}");
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(*v), "case {case}: map[{k}]");
        }
    }
}
