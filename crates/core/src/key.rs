//! Keys with the paper's sentinel infinities.
//!
//! §3.2.1: "we assume the presence of three *sentinel* keys ∞₀, ∞₁ and
//! ∞₂, where ∞₀ < ∞₁ < ∞₂. The sentinel keys are greater than all other
//! keys, and are never removed from the tree." Encoding them in the key
//! type (rather than reserving values of `K`) keeps the tree fully
//! generic: any `K: Ord` works, with no keys sacrificed.

use std::cmp::Ordering;

/// A routing key stored in a tree node: either a finite user key or one
/// of the three sentinels.
///
/// The ordering places every finite key below every sentinel:
/// `Fin(k) < Inf0 < Inf1 < Inf2` for all `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Key<K> {
    /// A user key.
    Fin(K),
    /// Sentinel ∞₀ — the key of the initial leaf under `S`.
    Inf0,
    /// Sentinel ∞₁ — the key of routing node `S` and its right leaf.
    Inf1,
    /// Sentinel ∞₂ — the key of the root `R` and its right leaf.
    Inf2,
}

impl<K: Ord> Key<K> {
    fn rank(&self) -> u8 {
        match self {
            Key::Fin(_) => 0,
            Key::Inf0 => 1,
            Key::Inf1 => 2,
            Key::Inf2 => 3,
        }
    }

    /// Compares a borrowed user key against this routing key without
    /// constructing a `Key`.
    #[inline]
    pub fn cmp_user(&self, user: &K) -> Ordering {
        match self {
            Key::Fin(k) => k.cmp(user),
            // Sentinels exceed every user key.
            _ => Ordering::Greater,
        }
    }

    /// `true` if a search for `user` descends into the left child of a
    /// node routed by `self` (the paper's `key < node.key` test).
    #[inline]
    pub fn user_goes_left(&self, user: &K) -> bool {
        self.cmp_user(user) == Ordering::Greater
    }

    /// [`user_goes_left`](Self::user_goes_left), shaped for descent
    /// loops.
    ///
    /// The sentinel structure is fixed: the access path passes `R(∞₂)`,
    /// `S(∞₁)` and (in a non-empty tree) the `∞₀`-keyed top of the user
    /// area, and **every** routing key strictly below that is finite (a
    /// route's key is `max(new, leaf)` of two keys that are both finite
    /// there, and the `∞₀` leaf is only ever reachable as the right
    /// child of the `∞₀` route). So in a descent this compiles down to a
    /// plain `K: Ord` comparison: the `Fin` arm is first, no `Ordering`
    /// is materialized, and the sentinel arm — taken only at the top
    /// levels — is a constant.
    #[inline(always)]
    pub fn user_goes_left_fin(&self, user: &K) -> bool {
        match self {
            Key::Fin(k) => user < k,
            // Sentinels exceed every user key: always left, exactly as
            // `user_goes_left` decides.
            _ => true,
        }
    }

    /// `true` if this is exactly the user key `user`.
    #[inline]
    pub fn is_user(&self, user: &K) -> bool {
        matches!(self, Key::Fin(k) if k == user)
    }

    /// The user key, if finite.
    #[inline]
    pub fn as_user(&self) -> Option<&K> {
        match self {
            Key::Fin(k) => Some(k),
            _ => None,
        }
    }
}

impl<K: Ord> PartialOrd for Key<K> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Key<K> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Key::Fin(a), Key::Fin(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_ordering() {
        let fin = Key::Fin(i64::MAX);
        assert!(fin < Key::Inf0);
        assert!(Key::<i64>::Inf0 < Key::Inf1);
        assert!(Key::<i64>::Inf1 < Key::Inf2);
        assert!(Key::Fin(i64::MIN) < Key::Fin(0));
    }

    #[test]
    fn finite_keys_compare_normally() {
        assert!(Key::Fin(1) < Key::Fin(2));
        assert_eq!(Key::Fin(7), Key::Fin(7));
        assert!(Key::Fin(9) > Key::Fin(3));
    }

    #[test]
    fn cmp_user_against_sentinels() {
        for s in [Key::Inf0, Key::Inf1, Key::Inf2] {
            assert_eq!(s.cmp_user(&i64::MAX), Ordering::Greater);
            assert!(s.user_goes_left(&i64::MAX));
        }
    }

    #[test]
    fn cmp_user_against_finite() {
        let k = Key::Fin(10);
        assert_eq!(k.cmp_user(&5), Ordering::Greater); // 5 goes left of 10
        assert!(k.user_goes_left(&5));
        assert_eq!(k.cmp_user(&10), Ordering::Equal); // equal goes right
        assert!(!k.user_goes_left(&10));
        assert_eq!(k.cmp_user(&15), Ordering::Less);
        assert!(!k.user_goes_left(&15));
    }

    #[test]
    fn is_user_and_as_user() {
        assert!(Key::Fin(3).is_user(&3));
        assert!(!Key::Fin(3).is_user(&4));
        assert!(!Key::<i32>::Inf0.is_user(&3));
        assert_eq!(Key::Fin(3).as_user(), Some(&3));
        assert_eq!(Key::<i32>::Inf2.as_user(), None);
    }

    #[test]
    fn total_order_is_consistent() {
        let mut keys = vec![
            Key::Inf2,
            Key::Fin(5),
            Key::Inf0,
            Key::Fin(-2),
            Key::Inf1,
            Key::Fin(100),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                Key::Fin(-2),
                Key::Fin(5),
                Key::Fin(100),
                Key::Inf0,
                Key::Inf1,
                Key::Inf2,
            ]
        );
    }
}
