//! Standard collection traits and bulk operations.

use super::NmTreeMap;
use nmbst_reclaim::Reclaim;

impl<K, V, R> FromIterator<(K, V)> for NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Builds a map from pairs. Duplicate keys keep the **first**
    /// occurrence (inserts of existing keys are rejected, per the
    /// algorithm's dictionary semantics).
    ///
    /// Routes through the O(n) balanced bulk-load (see
    /// [`from_sorted_iter`](NmTreeMap::from_sorted_iter)): already-sorted
    /// input skips the sort, everything else pays one `sort` and then
    /// builds privately with zero CAS.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = NmTreeMap::new();
        map.bulk_extend(iter.into_iter().collect());
        map
    }
}

impl<K, V, R> Extend<(K, V)> for NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Bulk insert. On an empty tree this is the O(n) balanced build
    /// with a single publish; on a populated tree it becomes a sorted
    /// [`insert_batch`](crate::MapHandle::insert_batch) so each descent
    /// anchors at the previous one. Duplicate keys are rejected as in
    /// [`insert`](NmTreeMap::insert).
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.bulk_extend(iter.into_iter().collect());
    }
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Removes every key for which `pred` returns `false`.
    ///
    /// Requires exclusive access (it is a compound read-then-remove, so
    /// offering it concurrently would invite TOCTOU misuse); each
    /// removal still goes through the normal lock-free path.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &V) -> bool) {
        let mut doomed = Vec::new();
        self.for_each(|k, v| {
            if !pred(k, v) {
                doomed.push(k.clone());
            }
        });
        for k in &doomed {
            self.remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::NmTreeMap;
    use nmbst_reclaim::Ebr;

    fn unit_keys(keys: impl IntoIterator<Item = i32>) -> impl Iterator<Item = (i32, ())> {
        keys.into_iter().map(|k| (k, ()))
    }

    #[test]
    fn from_iterator_unit_values() {
        let mut set: NmTreeMap<i32, (), Ebr> = unit_keys(0..10).collect();
        assert_eq!(set.len(), 10);
        assert_eq!(set.keys(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_iterator_map_keeps_first_duplicate() {
        let map: NmTreeMap<i32, &str, Ebr> = [(1, "first"), (2, "two"), (1, "second")]
            .into_iter()
            .collect();
        assert_eq!(map.get(&1), Some("first"));
        assert_eq!(map.get(&2), Some("two"));
    }

    #[test]
    fn extend_unit_and_valued_maps() {
        let mut set: NmTreeMap<i32, (), Ebr> = NmTreeMap::new();
        set.extend(unit_keys(0..5));
        set.extend(unit_keys(3..8)); // overlap is fine
        assert_eq!(set.len(), 8);

        let mut map: NmTreeMap<i32, i32, Ebr> = NmTreeMap::new();
        map.extend((0..5).map(|k| (k, k * k)));
        assert_eq!(map.get(&4), Some(16));
    }

    #[test]
    fn retain_by_key() {
        let mut set: NmTreeMap<i32, (), Ebr> = unit_keys(0..20).collect();
        set.retain(|k, _| k % 3 == 0);
        assert_eq!(set.keys(), vec![0, 3, 6, 9, 12, 15, 18]);
        set.check_invariants().unwrap();
    }

    #[test]
    fn retain_map_uses_values() {
        let mut map: NmTreeMap<i32, i32, Ebr> = (0..10).map(|k| (k, k * 10)).collect();
        map.retain(|_, v| *v >= 50);
        let mut keys = Vec::new();
        map.for_each(|k, _| keys.push(*k));
        assert_eq!(keys, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn retain_everything_and_nothing() {
        let mut set: NmTreeMap<i32, (), Ebr> = unit_keys(0..10).collect();
        set.retain(|_, _| true);
        assert_eq!(set.len(), 10);
        set.retain(|_, _| false);
        assert_eq!(set.len(), 0);
        set.check_invariants().unwrap();
    }
}
