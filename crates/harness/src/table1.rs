//! Regenerating Table 1: per-operation objects allocated and atomic
//! instructions executed, in the absence of contention.
//!
//! Methodology: a single thread builds a tree of odd keys, then performs
//! a batch of inserts of fresh (even) keys and a batch of deletes of
//! those keys, reading the instrumentation counters around each batch.
//! No other thread runs, so every operation succeeds on its first
//! attempt — the paper's "absence of contention" column.
//!
//! Requires `feature = "instrument"` on `nmbst` and `nmbst-baselines`
//! (forwarded by this crate's `instrument` feature); without it all
//! counts read zero.

use nmbst::{NmTreeMap, TagMode, TreeConfig};
use nmbst_baselines::{efrb::EfrbTree, hj::HjTree};
use nmbst_reclaim::Leaky;

/// Per-operation averages for one algorithm (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Algorithm label (paper row name).
    pub algorithm: &'static str,
    /// Objects allocated per insert.
    pub insert_allocs: f64,
    /// Objects allocated per delete.
    pub delete_allocs: f64,
    /// Atomic RMW instructions per insert.
    pub insert_atomics: f64,
    /// Atomic RMW instructions per delete.
    pub delete_atomics: f64,
}

const BASE: u64 = 1_000;
const OPS: u64 = 500;

fn even_keys() -> impl Iterator<Item = u64> {
    (1..BASE).map(|i| i * 2)
}

fn odd_keys() -> impl Iterator<Item = u64> {
    (0..BASE).map(|i| i * 2 + 1)
}

/// Measures NM-BST (this paper). Expected: insert 2 allocs / 1 CAS,
/// delete 0 allocs / 3 atomics (1 flag CAS + 1 BTS + 1 splice CAS).
///
/// The tree runs the shipping node store, recycling included. A slot
/// served from a free list counts as a `pool_hit`, not an `alloc`, but
/// none is served here: under `Leaky` retired nodes never return to the
/// free lists, and an uncontended run never discards insert scratch, so
/// every node is a fresh slot and `allocs` counts the algorithm's own
/// allocations exactly. `leaf_cap = 1`: the paper's costs are stated for
/// 1-key leaves, where every insert is the classic two-node subtree and
/// every delete is a structural flag/tag/splice (fat leaves replace most
/// of those with cheaper copy-on-write block publishes, which is this
/// implementation's optimisation, not the paper's row).
pub fn measure_nm(tag_mode: TagMode) -> CostRow {
    let set: NmTreeMap<u64, (), Leaky> = NmTreeMap::with_config(
        TreeConfig::default()
            .with_tag_mode(tag_mode)
            .with_leaf_cap(1),
    );
    for k in odd_keys() {
        set.insert(k, ());
    }
    let before = nmbst::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.insert(k, ()));
    }
    let mid = nmbst::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.remove(&k));
    }
    let after = nmbst::stats::snapshot();
    let ins = mid.since(&before);
    let del = after.since(&mid);
    CostRow {
        algorithm: "This work (NM)",
        insert_allocs: ins.allocs as f64 / OPS as f64,
        delete_allocs: del.allocs as f64 / OPS as f64,
        insert_atomics: ins.atomics() as f64 / OPS as f64,
        delete_atomics: del.atomics() as f64 / OPS as f64,
    }
}

/// Measures EFRB. Expected: insert 4 allocs / 3 CAS, delete 1 alloc /
/// 4 CAS.
pub fn measure_efrb() -> CostRow {
    let set = EfrbTree::new();
    for k in odd_keys() {
        set.insert(k);
    }
    nmbst_baselines::stats::reset();
    let before = nmbst_baselines::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.insert(k));
    }
    let mid = nmbst_baselines::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.remove(&k));
    }
    let after = nmbst_baselines::stats::snapshot();
    let ins = mid.since(&before);
    let del = after.since(&mid);
    CostRow {
        algorithm: "Ellen et al. (EFRB)",
        insert_allocs: ins.allocs as f64 / OPS as f64,
        delete_allocs: del.allocs as f64 / OPS as f64,
        insert_atomics: ins.cas as f64 / OPS as f64,
        delete_atomics: del.cas as f64 / OPS as f64,
    }
}

/// Measures HJ. Expected: insert 2 allocs / 3 CAS; delete averages
/// between the ≤1-child case (1 alloc / 4 CAS) and the relocation case
/// ("up to 9" atomics).
pub fn measure_hj() -> CostRow {
    let set = HjTree::new();
    for k in odd_keys() {
        set.insert(k);
    }
    nmbst_baselines::stats::reset();
    let before = nmbst_baselines::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.insert(k));
    }
    let mid = nmbst_baselines::stats::snapshot();
    for k in even_keys().take(OPS as usize) {
        assert!(set.remove(&k));
    }
    let after = nmbst_baselines::stats::snapshot();
    let ins = mid.since(&before);
    let del = after.since(&mid);
    CostRow {
        algorithm: "Howley & Jones (HJ)",
        insert_allocs: ins.allocs as f64 / OPS as f64,
        delete_allocs: del.allocs as f64 / OPS as f64,
        insert_atomics: ins.cas as f64 / OPS as f64,
        delete_atomics: del.cas as f64 / OPS as f64,
    }
}

/// All three rows of Table 1, in the paper's order.
pub fn table1_rows() -> Vec<CostRow> {
    vec![measure_efrb(), measure_hj(), measure_nm(TagMode::FetchOr)]
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[CostRow]) -> String {
    let mut t = crate::report::Table::new(vec![
        "Algorithm",
        "allocs/insert",
        "allocs/delete",
        "atomics/insert",
        "atomics/delete",
    ]);
    for r in rows {
        t.push_row(vec![
            r.algorithm.to_string(),
            format!("{:.2}", r.insert_allocs),
            format!("{:.2}", r.delete_allocs),
            format!("{:.2}", r.insert_atomics),
            format!("{:.2}", r.delete_atomics),
        ]);
    }
    t.render()
}

#[cfg(all(test, feature = "instrument"))]
mod tests {
    use super::*;

    #[test]
    fn nm_matches_paper_exactly() {
        let row = measure_nm(TagMode::FetchOr);
        // Table 1, "This work": 2 / 0 objects, 1 / 3 atomics.
        assert_eq!(row.insert_allocs, 2.0);
        assert_eq!(row.delete_allocs, 0.0);
        assert_eq!(row.insert_atomics, 1.0);
        assert_eq!(row.delete_atomics, 3.0);
    }

    #[test]
    fn efrb_matches_paper_exactly() {
        let row = measure_efrb();
        // Table 1, "Ellen et al.": 4 / 1 objects, 3 / 4 atomics.
        assert_eq!(row.insert_allocs, 4.0);
        assert_eq!(row.delete_allocs, 1.0);
        assert_eq!(row.insert_atomics, 3.0);
        assert_eq!(row.delete_atomics, 4.0);
    }

    #[test]
    fn hj_matches_paper() {
        let row = measure_hj();
        // Table 1, "Howley & Jones": 2 objects / 3 atomics per insert;
        // deletes: ≥1 object, between 4 and 9 atomics depending on how
        // many victims had two children.
        assert_eq!(row.insert_allocs, 2.0);
        assert_eq!(row.insert_atomics, 3.0);
        assert!(row.delete_allocs >= 1.0 && row.delete_allocs <= 2.0);
        assert!(
            row.delete_atomics >= 4.0 && row.delete_atomics <= 9.0,
            "delete atomics {}",
            row.delete_atomics
        );
    }

    #[test]
    fn cas_only_variant_costs_one_extra_nothing_on_insert() {
        let bts = measure_nm(TagMode::FetchOr);
        let cas = measure_nm(TagMode::CasLoop);
        assert_eq!(cas.insert_atomics, bts.insert_atomics);
        // Uncontended, the CAS loop also takes exactly one attempt.
        assert_eq!(cas.delete_atomics, bts.delete_atomics);
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = table1_rows();
        let s = render_table1(&rows);
        assert!(s.contains("This work"));
        assert!(s.contains("Ellen"));
        assert!(s.contains("Howley"));
    }
}
