//! Per-function reference index derived from the item tree.
//!
//! For every function (including functions a `macro_rules!` body
//! generates, resolved per invocation site) the index records the set of
//! identifiers its body references. That is deliberately coarser than a
//! resolved call graph — field names and locals land in the set too —
//! but it is *sound* for the two uses the rules make of it: one-level
//! inlining of lock acquisitions (R6 widens, never narrows, the held-set)
//! and reachability from parity tests (R8 only needs "some test path
//! mentions this kernel").

use std::collections::{BTreeMap, BTreeSet};

use crate::item_tree::ItemTree;
use crate::lex::{Lexed, TokKind};

/// One function node in the index.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Function name (concrete; macro metavariables are resolved).
    pub name: String,
    /// File the node was defined in (repo-relative display path).
    pub file: String,
    /// 1-based definition line (for macro-generated fns: the invocation).
    pub line: usize,
    /// Identifiers referenced in the body (macro-generated fns: the macro
    /// body's concrete refs plus the other idents of the invocation).
    pub refs: BTreeSet<String>,
    /// Declared with `#[target_feature(...)]`.
    pub target_feature: bool,
    /// Body mentions `_mm*` SIMD intrinsics.
    pub intrinsics: bool,
    /// Synthesized from a macro invocation rather than a literal `fn`.
    pub from_macro: bool,
}

/// Reference index over a set of files: function name → definitions.
/// Same-name definitions (cfg pairs, macro twins) all appear.
#[derive(Debug, Default)]
pub struct FnIndex {
    /// All nodes keyed by function name.
    pub by_name: BTreeMap<String, Vec<FnNode>>,
}

impl FnIndex {
    /// Index one file's functions into the map. Functions (and macro
    /// invocations) on a line `skip_line` accepts stay out: R10 passes the
    /// file's `#[cfg(test)]` regions so a unit test is not a caller.
    pub fn add_file(
        &mut self,
        file: &str,
        lexed: &Lexed,
        tree: &ItemTree,
        skip_line: &dyn Fn(usize) -> bool,
    ) {
        for f in &tree.fns {
            if f.name.starts_with('$') || skip_line(f.line) {
                continue; // `$name` fns are resolved below, per invocation
            }
            let mut refs = BTreeSet::new();
            let mut intrinsics = false;
            if let Some((lo, hi)) = f.body {
                for t in &lexed.tokens[lo..hi] {
                    if let TokKind::Ident(s) = &t.kind {
                        if s.starts_with("_mm") {
                            intrinsics = true;
                        }
                        if s != &f.name {
                            refs.insert(s.clone());
                        }
                    }
                }
            }
            self.push(FnNode {
                name: f.name.clone(),
                file: file.to_string(),
                line: f.line,
                refs,
                target_feature: f.target_feature,
                intrinsics,
                from_macro: false,
            });
        }
        // Macro-expansion lite: each invocation of a local macro that
        // defines `fn $meta` produces one node per fn-metavariable, named
        // by the positional argument bound to that metavariable.
        for inv in &tree.invocations {
            let Some(def) = tree.macros.iter().find(|m| m.name == inv.name) else {
                continue;
            };
            if skip_line(inv.line) {
                continue;
            }
            // Shared refs: the macro body's concrete identifiers plus the
            // invocation's other single-ident arguments (a driver macro
            // that takes kernel names references those kernels).
            let mut shared: BTreeSet<String> = def.body_refs.iter().cloned().collect();
            shared.extend(inv.arg_idents.iter().flatten().cloned());
            for (meta, tf) in &def.fn_params {
                let pos = def.params.iter().position(|p| p == meta);
                let Some(name) = pos
                    .and_then(|p| inv.arg_idents.get(p))
                    .and_then(|a| a.clone())
                else {
                    continue;
                };
                let mut refs = shared.clone();
                refs.remove(&name);
                self.push(FnNode {
                    name,
                    file: file.to_string(),
                    line: inv.line,
                    refs,
                    target_feature: *tf,
                    intrinsics: def.intrinsics,
                    from_macro: true,
                });
            }
        }
    }

    fn push(&mut self, node: FnNode) {
        self.by_name
            .entry(node.name.clone())
            .or_default()
            .push(node);
    }

    /// All definition sites of `name`.
    pub fn defs(&self, name: &str) -> &[FnNode] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every function name transitively reachable from `seeds` by
    /// following reference edges (name-level, unbounded depth).
    pub fn reachable(&self, seeds: &BTreeSet<String>) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: Vec<String> = seeds
            .iter()
            .filter(|s| self.by_name.contains_key(*s))
            .cloned()
            .collect();
        // Seeds that are mentioned but not defined here still count as
        // "covered names" for the caller's membership test.
        seen.extend(seeds.iter().cloned());
        while let Some(name) = queue.pop() {
            for node in self.defs(&name) {
                for r in &node.refs {
                    if self.by_name.contains_key(r) && seen.insert(r.clone()) {
                        queue.push(r.clone());
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_tree::ItemTree;
    use crate::lex::lex;

    fn index(src: &str) -> FnIndex {
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed);
        let mut idx = FnIndex::default();
        idx.add_file("t.rs", &lexed, &tree, &|_| false);
        idx
    }

    #[test]
    fn body_refs_feed_reachability() {
        let idx = index("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}");
        let mut seeds = BTreeSet::new();
        seeds.insert("a".to_string());
        let reach = idx.reachable(&seeds);
        assert!(reach.contains("c"));
        assert!(!reach.contains("lonely"));
    }

    #[test]
    fn macro_invocations_synthesize_kernel_nodes() {
        let src = r#"
macro_rules! define_kernels {
    ($tile:ident, $row:ident, $feat:literal) => {
        #[target_feature(enable = $feat)]
        pub unsafe fn $tile() { _mm256_setzero_ps(); }
        pub unsafe fn $row() {}
    };
}
define_kernels!(tile_fma, row_fma, "fma");
define_kernels!(tile_avx, row_avx, "avx");
"#;
        let idx = index(src);
        let tile = &idx.defs("tile_fma")[0];
        assert!(tile.target_feature);
        assert!(tile.intrinsics);
        assert!(tile.from_macro);
        assert_eq!(idx.defs("row_avx").len(), 1);
        assert!(!idx.defs("row_avx")[0].target_feature);
        // Sibling args of the invocation are cross-referenced.
        assert!(tile.refs.contains("row_fma"));
    }
}
