//! Graphviz export for debugging and documentation.

use super::NmTreeMap;
use crate::key::Key;
use crate::packed::Edge;
use nmbst_reclaim::Reclaim;
use std::fmt::Write as _;

/// Escapes the characters Graphviz record labels treat as structure.
fn record_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if matches!(c, '{' | '}' | '|' | '<' | '>' | '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

impl<K, V, R> NmTreeMap<K, V, R>
where
    K: Ord + std::fmt::Debug + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Renders the tree as a Graphviz `digraph` (exclusive access).
    ///
    /// Routing nodes are ellipses, sentinel leaves grey boxes, and user
    /// leaves **records**: the first field is the router key, the rest
    /// one field per stored entry, so a fat leaf block reads as
    /// `Fin(30) | 10 | 20 | 30` instead of eight anonymous boxes.
    /// Marked edges (impossible at quiescence, but this method is also
    /// useful from whitebox tests staging in-flight states) render
    /// dashed with their flag/tag annotation.
    ///
    /// ```
    /// use nmbst::NmTreeMap;
    ///
    /// let mut map: NmTreeMap<u32, ()> = NmTreeMap::new();
    /// map.insert(5, ());
    /// let dot = map.to_dot();
    /// assert!(dot.starts_with("digraph nmbst {"));
    /// assert!(dot.contains("Fin(5)"));
    /// assert!(dot.contains("shape=record"));
    /// ```
    pub fn to_dot(&mut self) -> String {
        let arenas = &*self.arenas;
        let mut out = String::from("digraph nmbst {\n  node [fontname=\"monospace\"];\n");
        // SAFETY: exclusive access for the whole walk.
        unsafe {
            let mut stack = vec![Edge::<K, V>::of_route(self.root)];
            while let Some(edge) = stack.pop() {
                let id = edge.addr() as usize;
                let label = |key: &Key<K>| match key {
                    Key::Fin(k) => (format!("Fin({k:?})"), false),
                    Key::Inf0 => ("inf0".to_string(), true),
                    Key::Inf1 => ("inf1".to_string(), true),
                    Key::Inf2 => ("inf2".to_string(), true),
                };
                let (router, sentinel) = if edge.is_leaf() {
                    let leaf = &*edge.leaf();
                    match (leaf.sentinel(), leaf.entry_keys().last()) {
                        (Some(sentinel), _) => label(&sentinel),
                        (None, max) => {
                            // Fat user leaf: record node, its router (the
                            // largest entry) first, then the block's
                            // entries in stored (ascending) order.
                            let max = max.expect("a user block holds an entry");
                            let mut label = record_escape(&format!("Fin({max:?})"));
                            for k in leaf.entry_keys() {
                                let _ = write!(label, " | {}", record_escape(&format!("{k:?}")));
                            }
                            let _ = writeln!(out, "  n{id} [label=\"{label}\" shape=record];");
                            continue;
                        }
                    }
                } else {
                    label(&(*edge.route()).key)
                };
                let _ = writeln!(
                    out,
                    "  n{id} [label=\"{router}\" shape={}{}];",
                    if edge.is_leaf() { "box" } else { "ellipse" },
                    if sentinel {
                        " style=filled fillcolor=lightgrey"
                    } else {
                        ""
                    }
                );
                if edge.is_leaf() {
                    continue;
                }
                let route = edge.route();
                for (side, child) in [
                    ("L", (*route).left.load_mut::<K, V>(arenas)),
                    ("R", (*route).right.load_mut(arenas)),
                ] {
                    let marks = match (child.flag(), child.tag()) {
                        (false, false) => String::new(),
                        (f, t) => format!(
                            " style=dashed color=red label=\"{}{}\"",
                            if f { "F" } else { "" },
                            if t { "T" } else { "" }
                        ),
                    };
                    let _ = writeln!(
                        out,
                        "  n{id} -> n{} [taillabel=\"{side}\"{marks}];",
                        child.addr() as usize
                    );
                    stack.push(child);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::TreeConfig;
    use crate::NmTreeMap;
    use nmbst_reclaim::Ebr;

    #[test]
    fn empty_tree_dot_has_sentinels() {
        let mut m: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
        let dot = m.to_dot();
        assert_eq!(dot.matches("inf0").count(), 1);
        assert_eq!(dot.matches("inf1").count(), 2); // S and its right leaf
        assert_eq!(dot.matches("inf2").count(), 2); // R and its right leaf
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn populated_tree_renders_one_record_block() {
        // Default leaf_cap = 8: three keys coalesce into one fat leaf.
        let mut m: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
        for k in [4, 2, 6] {
            m.insert(k, ());
        }
        let dot = m.to_dot();
        // Router is the block max; entries appear as record fields.
        assert!(dot.contains("Fin(6) | 2 | 4 | 6"), "block missing\n{dot}");
        assert_eq!(dot.matches("shape=record").count(), 1);
        // Sentinel leaves stay plain grey boxes.
        assert_eq!(dot.matches("shape=box").count(), 3);
    }

    #[test]
    fn leaf_cap_one_renders_singleton_records() {
        // The ablation shape: every user leaf is a 1-entry record.
        let mut m: NmTreeMap<u32, (), Ebr> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(1));
        for k in [4, 2, 6] {
            m.insert(k, ());
        }
        let dot = m.to_dot();
        for k in [4, 2, 6] {
            assert!(
                dot.contains(&format!("Fin({k}) | {k}")),
                "missing singleton record for {k}\n{dot}"
            );
        }
        assert_eq!(dot.matches("shape=record").count(), 3);
    }

    #[test]
    fn no_marked_edges_at_quiescence() {
        let mut m: NmTreeMap<u32, (), Ebr> = NmTreeMap::new();
        for k in 0..20 {
            m.insert(k, ());
        }
        for k in 0..10 {
            m.remove(&k);
        }
        assert!(!m.to_dot().contains("dashed"));
    }
}
