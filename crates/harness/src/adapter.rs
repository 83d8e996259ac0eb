//! The common interface the benchmark runner drives, and adapters for
//! every implementation under comparison.

use nmbst::{NmTreeMap, TagMode, TreeConfig};
use nmbst_baselines::{bcco::BccoTree, efrb::EfrbTree, hj::HjTree, locked::LockedBTreeSet};
use nmbst_reclaim::{Ebr, Leaky, Reclaim};

/// The dictionary ADT of §2, as seen by the benchmark harness.
///
/// Keys are `u64` in `1..=key_range` (1-based so the HJ baseline's zero
/// sentinel is never used as a user key).
pub trait ConcurrentSet: Send + Sync + 'static {
    /// Construct an empty instance.
    fn make() -> Self
    where
        Self: Sized;

    /// Display name used in reports (matches the paper's labels).
    fn label() -> &'static str
    where
        Self: Sized;

    /// The paper's *insert*.
    fn insert(&self, key: u64) -> bool;
    /// The paper's *delete*.
    fn remove(&self, key: u64) -> bool;
    /// The paper's *search*.
    fn contains(&self, key: u64) -> bool;
}

/// NM-BST in the paper's evaluation regime: no memory reclamation.
pub type NmLeaky = NmTreeMap<u64, (), Leaky>;
/// NM-BST in production regime: epoch-based reclamation.
pub type NmEbr = NmTreeMap<u64, (), Ebr>;

/// A reclamation scheme the harness reports NM-BST under, with the row
/// label that names it.
pub trait NmScheme: Reclaim {
    /// The report label of NM-BST under this scheme.
    const LABEL: &'static str;
}

impl NmScheme for Leaky {
    const LABEL: &'static str = "NM-BST";
}

impl NmScheme for Ebr {
    const LABEL: &'static str = "NM-BST(ebr)";
}

/// NM-BST as the paper's set: the tree with `()` values, driven through
/// the plain API.
impl<R: NmScheme> ConcurrentSet for NmTreeMap<u64, (), R> {
    fn make() -> Self {
        NmTreeMap::new()
    }
    fn label() -> &'static str {
        R::LABEL
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        NmTreeMap::insert(self, key, ())
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        NmTreeMap::remove(self, &key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        NmTreeMap::contains(self, &key)
    }
}

/// NM-BST with the CAS-only tag variant (§6), for the BTS ablation.
pub struct NmCasOnly(NmLeaky);

impl ConcurrentSet for NmCasOnly {
    fn make() -> Self {
        let config = TreeConfig::default().with_tag_mode(TagMode::CasLoop);
        NmCasOnly(NmTreeMap::with_config(config))
    }
    fn label() -> &'static str {
        "NM-BST(cas-only)"
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        self.0.insert(key, ())
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        self.0.remove(&key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        self.0.contains(&key)
    }
}

impl ConcurrentSet for EfrbTree {
    fn make() -> Self {
        EfrbTree::new()
    }
    fn label() -> &'static str {
        "EFRB-BST"
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        EfrbTree::insert(self, key)
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        EfrbTree::remove(self, &key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        EfrbTree::contains(self, &key)
    }
}

impl ConcurrentSet for HjTree {
    fn make() -> Self {
        HjTree::new()
    }
    fn label() -> &'static str {
        "HJ-BST"
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        HjTree::insert(self, key)
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        HjTree::remove(self, &key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        HjTree::contains(self, &key)
    }
}

impl ConcurrentSet for BccoTree {
    fn make() -> Self {
        BccoTree::new()
    }
    fn label() -> &'static str {
        "BCCO-BST"
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        BccoTree::insert(self, key)
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        BccoTree::remove(self, &key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        BccoTree::contains(self, &key)
    }
}

impl ConcurrentSet for LockedBTreeSet {
    fn make() -> Self {
        LockedBTreeSet::new()
    }
    fn label() -> &'static str {
        "LOCKED-BTREE"
    }
    #[inline]
    fn insert(&self, key: u64) -> bool {
        LockedBTreeSet::insert(self, key)
    }
    #[inline]
    fn remove(&self, key: u64) -> bool {
        LockedBTreeSet::remove(self, &key)
    }
    #[inline]
    fn contains(&self, key: u64) -> bool {
        LockedBTreeSet::contains(self, &key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: ConcurrentSet>() {
        let s = S::make();
        assert!(!s.contains(7));
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(!s.contains(7));
        assert!(!S::label().is_empty());
    }

    #[test]
    fn all_adapters_satisfy_set_semantics() {
        exercise::<NmLeaky>();
        exercise::<NmEbr>();
        exercise::<NmCasOnly>();
        exercise::<EfrbTree>();
        exercise::<HjTree>();
        exercise::<BccoTree>();
        exercise::<LockedBTreeSet>();
    }
}
