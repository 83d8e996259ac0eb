//! Edge cases: extreme key values, zero-sized and heap-heavy values,
//! non-`Copy` keys, tiny trees, and boundary shapes.

use nmbst::{Ebr, Leaky, NmTreeMap};

#[test]
fn extreme_integer_keys() {
    // Sentinels live in the Key enum, so *no* integer value is reserved
    // (unlike the C baselines which sacrifice u64::MAX and MAX-1).
    let mut set: NmTreeMap<u64, (), Ebr> = NmTreeMap::new();
    for k in [0, 1, u64::MAX - 1, u64::MAX, u64::MAX / 2] {
        assert!(set.insert(k, ()), "insert {k}");
        assert!(set.contains(&k));
    }
    assert_eq!(set.keys(), vec![0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
    assert_eq!(set.first(), Some((0, ())));
    assert_eq!(set.last(), Some((u64::MAX, ())));
    for k in [0, 1, u64::MAX - 1, u64::MAX, u64::MAX / 2] {
        assert!(set.remove(&k));
    }
    set.check_invariants().unwrap();
}

#[test]
fn signed_keys_across_zero() {
    let mut set: NmTreeMap<i64, (), Ebr> = NmTreeMap::new();
    for k in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert!(set.insert(k, ()));
    }
    assert_eq!(set.keys(), vec![i64::MIN, -1, 0, 1, i64::MAX]);
    set.check_invariants().unwrap();
}

#[test]
fn single_key_lifecycle() {
    let mut set: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
    for _ in 0..100 {
        assert!(set.insert(7, ()));
        assert_eq!(set.len(), 1);
        assert!(set.remove(&7));
        assert_eq!(set.len(), 0);
        set.check_invariants().unwrap();
    }
}

#[test]
fn two_keys_all_delete_orders() {
    for (first, second) in [(1u32, 2u32), (2, 1)] {
        let mut set: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
        set.insert(1, ());
        set.insert(2, ());
        assert!(set.remove(&first));
        assert!(set.contains(&second));
        assert!(!set.contains(&first));
        set.check_invariants().unwrap();
        assert!(set.remove(&second));
        assert_eq!(set.len(), 0);
        set.check_invariants().unwrap();
    }
}

#[test]
fn string_keys_heavy_churn() {
    let mut set: NmTreeMap<String, (), Ebr> = NmTreeMap::new();
    let words: Vec<String> = (0..200).map(|i| format!("key-{:03}", i % 50)).collect();
    for (i, w) in words.iter().enumerate() {
        if i % 3 == 2 {
            set.remove(w);
        } else {
            set.insert(w.clone(), ());
        }
    }
    set.check_invariants().unwrap();
    // Keys come back in lexicographic order.
    let keys = set.keys();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn tuple_keys_lexicographic() {
    let mut set: NmTreeMap<(u8, u8), (), Ebr> = NmTreeMap::new();
    set.insert((1, 9), ());
    set.insert((2, 0), ());
    set.insert((1, 0), ());
    assert_eq!(set.keys(), vec![(1, 0), (1, 9), (2, 0)]);
    let mut got = Vec::new();
    set.range_for_each((1, 0)..(2, 0), |k, _| got.push(*k));
    assert_eq!(got, vec![(1, 0), (1, 9)]);
}

#[test]
fn zero_sized_values() {
    let map: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
    assert!(map.insert(1, ()));
    assert_eq!(map.get(&1), Some(()));
    assert_eq!(map.remove_get(&1), Some(()));
    assert_eq!(map.remove_get(&1), None);
}

#[test]
fn large_values_move_without_copying_tree() {
    let map: NmTreeMap<u32, Vec<u8>, Leaky> = NmTreeMap::new();
    map.insert(1, vec![0xAB; 1 << 20]);
    let len = map.with_value(&1, |v| v.len());
    assert_eq!(len, Some(1 << 20));
    let taken = map.remove_get(&1).unwrap();
    assert_eq!(taken.len(), 1 << 20);
    assert!(taken.iter().all(|&b| b == 0xAB));
}

#[test]
fn count_is_exact_at_quiescence() {
    let set: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
    assert_eq!(set.count(), 0);
    for k in 0..123 {
        set.insert(k, ());
    }
    assert_eq!(set.count(), 123);
}

#[test]
fn clear_reclaims_everything() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    struct D(Arc<AtomicUsize>);
    impl Drop for D {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let mut map: NmTreeMap<u32, D, Ebr> = NmTreeMap::new();
    for k in 0..50 {
        map.insert(k, D(Arc::clone(&drops)));
    }
    map.clear();
    assert_eq!(
        drops.load(Ordering::Relaxed),
        50,
        "clear frees values eagerly"
    );
    assert!(map.is_empty());
    // Tree remains fully usable.
    map.insert(1, D(Arc::clone(&drops)));
    assert!(map.contains(&1));
}

#[test]
fn reverse_and_shuffled_insert_orders_agree() {
    let asc: Vec<u32> = (0..300).collect();
    let desc: Vec<u32> = (0..300).rev().collect();
    let mut shuffled: Vec<u32> = (0..300).collect();
    // Deterministic Fisher-Yates.
    let mut x = 0x243F6A8885A308D3u64;
    for i in (1..shuffled.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        shuffled.swap(i, (x % (i as u64 + 1)) as usize);
    }
    for order in [asc, desc, shuffled] {
        let mut set: NmTreeMap<u32, (), Ebr> = order.iter().map(|&k| (k, ())).collect();
        assert_eq!(set.keys(), (0..300).collect::<Vec<_>>());
        set.check_invariants().unwrap();
    }
}

#[test]
fn boxed_reclaimer_choice_is_a_type_parameter_only() {
    // The two reclaimers expose identical tree behaviour.
    fn exercise<R: nmbst::Reclaim>() {
        let set: NmTreeMap<u32, (), R> = NmTreeMap::new();
        assert!(set.insert(1, ()));
        assert!(set.remove(&1));
        assert!(!set.contains(&1));
    }
    exercise::<Ebr>();
    exercise::<Leaky>();
}
