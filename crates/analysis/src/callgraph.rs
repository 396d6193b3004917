//! Per-function reference index derived from the item tree.
//!
//! For every function (including functions a `macro_rules!` body
//! generates, resolved per invocation site) the index records the set of
//! identifiers its body references. That is deliberately coarser than a resolved call graph —
//! field names and locals land in the set too — but it is *sound* for the
//! use R10 makes of it: a function some live path names is never reported
//! unreached.

use std::collections::{BTreeMap, BTreeSet};

use crate::item_tree::ItemTree;
use crate::lex::{Lexed, TokKind};

/// Reference index over a set of files: function name → every identifier
/// the bodies of that name reference. Same-name definitions (cfg pairs,
/// methods of different types) share one entry.
#[derive(Debug, Default)]
pub struct FnIndex {
    refs: BTreeMap<String, BTreeSet<String>>,
}

impl FnIndex {
    /// Index one file's functions. Functions on a line `skip_line`
    /// accepts stay out: R10 passes the file's `#[cfg(test)]` regions so a
    /// unit test is not a caller.
    pub fn add_file(&mut self, lexed: &Lexed, tree: &ItemTree, skip_line: &dyn Fn(usize) -> bool) {
        for f in tree.fns.iter().filter(|f| !skip_line(f.line)) {
            let refs = self.refs.entry(f.name.clone()).or_default();
            let Some((lo, hi)) = f.body else { continue };
            for t in &lexed.tokens[lo..hi] {
                if let TokKind::Ident(s) = &t.kind {
                    refs.insert(s.clone());
                }
            }
        }
        // Macro expansion lite: each invocation of a local macro that
        // defines `fn $meta` yields one function per fn-metavariable, named
        // by the argument bound to it and referencing the macro body's
        // concrete identifiers plus the invocation's other arguments.
        for inv in tree.invocations.iter().filter(|inv| !skip_line(inv.line)) {
            let Some(def) = tree.macros.iter().find(|m| m.name == inv.name) else {
                continue;
            };
            for meta in &def.fn_params {
                let pos = def.params.iter().position(|p| p == meta);
                let Some(Some(name)) = pos.and_then(|p| inv.arg_idents.get(p)) else {
                    continue;
                };
                let refs = self.refs.entry(name.clone()).or_default();
                refs.extend(def.body_refs.iter().cloned());
                refs.extend(inv.arg_idents.iter().flatten().cloned());
            }
        }
    }

    /// `seeds` plus every function name transitively reachable from them
    /// by following reference edges (name-level, unbounded depth).
    pub fn reachable(&self, seeds: &BTreeSet<String>) -> BTreeSet<String> {
        let mut seen = seeds.clone();
        let mut queue: Vec<&String> = seeds.iter().collect();
        while let Some(name) = queue.pop() {
            for r in self.refs.get(name).into_iter().flatten() {
                if self.refs.contains_key(r) && seen.insert(r.clone()) {
                    queue.push(r);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn body_refs_feed_reachability() {
        let lexed = lex("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}");
        let mut idx = FnIndex::default();
        idx.add_file(&lexed, &ItemTree::build(&lexed), &|_| false);
        let reach = idx.reachable(&BTreeSet::from(["a".to_string()]));
        assert!(reach.contains("c"));
        assert!(!reach.contains("lonely"));
    }

    #[test]
    fn macro_invocations_synthesize_fn_entries() {
        let src = r#"
macro_rules! define_ops {
    ($add:ident, $sub:ident, $($doc:literal),+) => {
        pub fn $add() { helper(); }
        pub fn $sub() {}
    };
}
define_ops!(plus, minus, "a", "b");
fn helper() {}
fn lonely() {}
"#;
        let lexed = lex(src);
        let mut idx = FnIndex::default();
        idx.add_file(&lexed, &ItemTree::build(&lexed), &|_| false);
        // Each `fn $meta` of the invocation gets its own entry.
        assert!(idx.refs.contains_key("minus"));
        // The macro body's refs and the sibling arguments are edges.
        let reach = idx.reachable(&BTreeSet::from(["plus".to_string()]));
        assert!(reach.contains("minus"));
        assert!(reach.contains("helper"));
        assert!(!reach.contains("lonely"));
    }
}
