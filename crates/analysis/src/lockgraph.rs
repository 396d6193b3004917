//! Lock-acquisition order graph for static deadlock detection (R6).
//!
//! Every acquisition in `serve`/`net` goes through the poison-safe
//! primitives (`lock_recover`, `read_recover`, `write_recover` — R4,
//! `clippy::disallowed_methods`, enforces this), which makes acquisitions
//! syntactically recognizable. A linear scan of each function body tracks which locks are held at
//! each point:
//!
//! * a lock's identity is the last identifier of the argument path
//!   (`lock_recover(&self.shared.dedup)` → `dedup`), shared across files
//!   so cross-crate orderings merge;
//! * `let g = lock_recover(…)` binds the guard to `g`; it is released at
//!   `drop(g)` or when its block closes;
//! * an unbound acquisition (`lock_recover(&rx).recv()`) is a temporary,
//!   released at the `;` that ends its statement (at its own brace
//!   depth, so guards live across `match`/`if` blocks opened inside the
//!   statement — conservative and correct for deadlock purposes);
//! * calling a function that itself acquires locks (one level of
//!   inlining, name-matched across the indexed file set) widens the
//!   held-set edges: `held → every lock the callee takes`.
//!
//! The result is a directed graph `A → B` = "B acquired while A held".
//! Any cycle — including a self-edge, since `std::sync` locks are not
//! reentrant — is a potential deadlock and fails the build.

use std::collections::{BTreeMap, BTreeSet};

use crate::item_tree::{matching_close, ItemTree};
use crate::lex::{Lexed, TokKind, Token};

/// Acquisition primitives whose first argument is the lock.
const PRIMITIVES: [&str; 3] = ["lock_recover", "read_recover", "write_recover"];

/// One `A → B` ordering observation with its acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired while `held` was held.
    pub acquired: String,
    /// File of the acquisition (display path).
    pub file: String,
    /// 1-based line of the acquisition.
    pub line: usize,
}

#[derive(Debug, Clone)]
struct CallEvent {
    held: Vec<String>,
    callee: String,
    file: String,
    line: usize,
}

/// Accumulates acquisition scans across files, then reports cycles.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// First observation of each ordered pair.
    edges: BTreeMap<(String, String), (String, usize)>,
    /// Locks each scanned function acquires anywhere in its body.
    fn_locks: BTreeMap<String, BTreeSet<String>>,
    /// Calls made while locks were held (resolved in [`Self::finalize`]).
    calls: Vec<CallEvent>,
}

struct Active {
    name: String,
    var: Option<String>,
    depth: i64,
}

impl LockGraph {
    /// Scan every function body in `tree`, skipping bodies whose `fn`
    /// line the caller excludes (test regions).
    pub fn add_file(
        &mut self,
        file: &str,
        lexed: &Lexed,
        tree: &ItemTree,
        skip_line: &dyn Fn(usize) -> bool,
    ) {
        for f in &tree.fns {
            let Some((lo, hi)) = f.body else { continue };
            if skip_line(f.line) {
                continue;
            }
            self.scan_body(file, &f.name, &lexed.tokens, lo, hi);
        }
    }

    fn scan_body(&mut self, file: &str, fn_name: &str, toks: &[Token], lo: usize, hi: usize) {
        let mut depth = 0i64;
        let mut active: Vec<Active> = Vec::new();
        let mut acquired_here: BTreeSet<String> = BTreeSet::new();
        let mut i = lo + 1;
        let end = hi.saturating_sub(1);
        while i < end {
            match &toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    active.retain(|a| a.depth <= depth);
                }
                TokKind::Punct(';') => {
                    active.retain(|a| !(a.var.is_none() && a.depth == depth));
                }
                TokKind::Ident(s) if s == "drop" && punct(toks, i + 1) == Some('(') => {
                    if let Some(TokKind::Ident(v)) = toks.get(i + 2).map(|t| &t.kind) {
                        if punct(toks, i + 3) == Some(')') {
                            if let Some(pos) = active
                                .iter()
                                .rposition(|a| a.var.as_deref() == Some(v.as_str()))
                            {
                                active.remove(pos);
                                i += 4;
                                continue;
                            }
                        }
                    }
                }
                TokKind::Ident(s)
                    if PRIMITIVES.contains(&s.as_str()) && punct(toks, i + 1) == Some('(') =>
                {
                    let close = matching_close(toks, i + 1);
                    let name = last_ident(&toks[i + 2..close.saturating_sub(1)])
                        .unwrap_or_else(|| "?".to_string());
                    let line = toks[i].line;
                    for a in &active {
                        self.edge(&a.name, &name, file, line);
                    }
                    acquired_here.insert(name.clone());
                    active.push(Active {
                        name,
                        var: binding_var(toks, i),
                        depth,
                    });
                    i = close;
                    continue;
                }
                TokKind::Ident(s) if punct(toks, i + 1) == Some('(') && !active.is_empty() => {
                    // Call while locks are held (plain, or a method matched
                    // by bare name): candidate for the one-level inlining
                    // pass.
                    self.calls.push(CallEvent {
                        held: active.iter().map(|a| a.name.clone()).collect(),
                        callee: s.clone(),
                        file: file.to_string(),
                        line: toks[i].line,
                    });
                }
                _ => {}
            }
            i += 1;
        }
        self.fn_locks
            .entry(fn_name.to_string())
            .or_default()
            .extend(acquired_here);
    }

    fn edge(&mut self, held: &str, acquired: &str, file: &str, line: usize) {
        self.edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert_with(|| (file.to_string(), line));
    }

    /// Resolve recorded calls against the scanned functions: calling `f`
    /// while holding `L` adds `L → every lock f acquires`.
    pub fn finalize(&mut self) {
        let calls = std::mem::take(&mut self.calls);
        for c in calls {
            let Some(locks) = self.fn_locks.get(&c.callee).cloned() else {
                continue;
            };
            for acq in locks {
                for held in &c.held {
                    self.edge(held, &acq, &c.file, c.line);
                }
            }
        }
    }

    /// Every edge that participates in a cycle (its target can reach its
    /// source), sorted; self-edges included. Empty = deadlock-free order.
    pub fn cyclic_edges(&self) -> Vec<LockEdge> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (held, acquired) in self.edges.keys() {
            adj.entry(held.as_str())
                .or_default()
                .insert(acquired.as_str());
        }
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if let Some(next) = adj.get(n) {
                    for m in next {
                        if seen.insert(*m) {
                            stack.push(m);
                        }
                    }
                }
            }
            false
        };
        self.edges
            .iter()
            .filter(|((held, acquired), _)| held == acquired || reaches(acquired, held))
            .map(|((held, acquired), (file, line))| LockEdge {
                held: held.clone(),
                acquired: acquired.clone(),
                file: file.clone(),
                line: *line,
            })
            .collect()
    }

    /// All observed ordering edges (for tests and debugging).
    pub fn edges(&self) -> impl Iterator<Item = LockEdge> + '_ {
        self.edges
            .iter()
            .map(|((held, acquired), (file, line))| LockEdge {
                held: held.clone(),
                acquired: acquired.clone(),
                file: file.clone(),
                line: *line,
            })
    }
}

fn punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Last identifier in a token slice (the lock field of `&self.a.b`).
fn last_ident(toks: &[Token]) -> Option<String> {
    toks.iter().rev().find_map(|t| match &t.kind {
        TokKind::Ident(s) => Some(s.clone()),
        _ => None,
    })
}

/// For `let g = [path::]primitive(…)` at primitive index `i`, the bound
/// guard variable `g`; `None` for temporaries and destructured patterns.
fn binding_var(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Walk back over a `path::` qualifier.
    while j >= 3
        && punct(toks, j - 1) == Some(':')
        && punct(toks, j - 2) == Some(':')
        && matches!(toks.get(j - 3).map(|t| &t.kind), Some(TokKind::Ident(_)))
    {
        j -= 3;
    }
    if punct(toks, j - 1) != Some('=') || j < 2 {
        return None;
    }
    let var = match toks.get(j - 2).map(|t| &t.kind) {
        Some(TokKind::Ident(v)) => v.clone(),
        _ => return None,
    };
    // Require a `let [mut] var =` head so plain assignments to fields or
    // reused slots do not bind (their lifetime is not block-scoped).
    let head = |k: usize| match toks.get(k).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str().to_string()),
        _ => None,
    };
    if j >= 3 && head(j - 3).as_deref() == Some("let") {
        return Some(var);
    }
    if j >= 4 && head(j - 3).as_deref() == Some("mut") && head(j - 4).as_deref() == Some("let") {
        return Some(var);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_tree::ItemTree;
    use crate::lex::lex;

    fn graph(src: &str) -> LockGraph {
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed);
        let mut g = LockGraph::default();
        g.add_file("t.rs", &lexed, &tree, &|_| false);
        g.finalize();
        g
    }

    #[test]
    fn nested_acquisitions_order_and_cycle() {
        let src = r#"
fn ab(&self) {
    let a = lock_recover(&self.a);
    let b = lock_recover(&self.b);
    use_both(&a, &b);
}
fn ba(&self) {
    let b = lock_recover(&self.b);
    let a = lock_recover(&self.a);
}
"#;
        let g = graph(src);
        let cyc = g.cyclic_edges();
        assert_eq!(cyc.len(), 2, "a→b and b→a both cyclic: {cyc:?}");
    }

    #[test]
    fn drop_releases_before_next_acquisition() {
        let src = r#"
fn ok(&self) {
    let a = lock_recover(&self.a);
    work(&a);
    drop(a);
    let b = lock_recover(&self.b);
}
fn ok2(&self) {
    let b = lock_recover(&self.b);
    drop(b);
    let a = lock_recover(&self.a);
}
"#;
        let g = graph(src);
        assert!(
            g.edges().next().is_none(),
            "{:?}",
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn block_scoping_releases_guards() {
        let src = r#"
fn scoped(&self) {
    let x = { let s = read_recover(&self.service); s.value() };
    let d = lock_recover(&self.dedup);
}
fn other(&self) {
    let d = lock_recover(&self.dedup);
    drop(d);
    let s = read_recover(&self.service);
}
"#;
        let g = graph(src);
        assert!(g.cyclic_edges().is_empty());
    }

    #[test]
    fn temporaries_hold_through_match_blocks() {
        let src = r#"
fn temp(&self) {
    let n = match lock_recover(&self.rx).recv() {
        Ok(j) => lock_recover(&self.stats).push(j),
        Err(_) => return,
    };
    let late = lock_recover(&self.late);
}
"#;
        let g = graph(src);
        let edges: Vec<LockEdge> = g.edges().collect();
        // Held through the match arms; dead by the time `late` is taken.
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].held, "rx");
        assert_eq!(edges[0].acquired, "stats");
    }

    #[test]
    fn one_level_inlining_widens_held_set() {
        let src = r#"
fn outer(&self) {
    let a = lock_recover(&self.a);
    helper(self);
}
fn helper(&self) {
    let b = lock_recover(&self.b);
}
fn reversed(&self) {
    let b = lock_recover(&self.b);
    let a = lock_recover(&self.a);
}
"#;
        let g = graph(src);
        let cyc = g.cyclic_edges();
        assert!(
            cyc.iter().any(|e| e.held == "a" && e.acquired == "b"),
            "inlined edge missing: {cyc:?}"
        );
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let src = r#"
fn relock(&self) {
    let a = lock_recover(&self.a);
    let again = lock_recover(&self.a);
}
"#;
        let g = graph(src);
        let cyc = g.cyclic_edges();
        assert_eq!(cyc.len(), 1);
        assert_eq!(cyc[0].held, "a");
        assert_eq!(cyc[0].acquired, "a");
    }
}
