//! Brace-matched structural view of one lexed file: its functions (free,
//! impl and trait methods, nested-module fns), each with its token span
//! and source line, plus the `macro_rules!` definitions and item-level
//! invocations that generate more of them.
//!
//! The tree is what lifts the rule engine from token matching to
//! structural analysis: the call index ([`crate::callgraph`]), the lock
//! graph ([`crate::lockgraph`]) and R3's hot-path bodies are all derived
//! from it. Parsing is deliberately shallow — no expression grammar, just
//! item headers plus exact brace/paren matching — which is enough to
//! attribute every token range to the function that owns it.

use std::collections::BTreeSet;

use crate::lex::{Lexed, TokKind, Token};

/// One function item: a free `fn` or an impl/trait method.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Body token range `[open brace, one past close]`, `None` for
    /// bodyless declarations (trait signatures).
    pub body: Option<(usize, usize)>,
}

/// One `macro_rules!` definition, summarized just enough to name the
/// functions an invocation generates and what their bodies reference.
#[derive(Debug, Clone)]
pub struct MacroDef {
    /// Macro name.
    pub name: String,
    /// Metavariable names of the first rule's matcher, in positional
    /// order (repetition groups contribute their inner metavariables).
    pub params: Vec<String>,
    /// Metavariables used as `fn $x` names in the body.
    pub fn_params: Vec<String>,
    /// Concrete identifiers referenced anywhere in the body.
    pub body_refs: BTreeSet<String>,
}

/// One item-level macro invocation `name!(args…)` / `name![…]` / `name!{…}`.
#[derive(Debug, Clone)]
pub struct MacroInvocation {
    /// Invoked macro name.
    pub name: String,
    /// 1-based line of the invocation.
    pub line: usize,
    /// Per positional argument (top-level comma split): `Some(ident)`
    /// when the argument is a single identifier, `None` otherwise.
    pub arg_idents: Vec<Option<String>>,
}

/// The structural view of one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every function in the file, in source order (impl methods and
    /// nested-module fns included; fns nested inside other fn bodies or
    /// generated by `macro_rules!` are not items and are not walked).
    pub fns: Vec<FnItem>,
    /// Every `macro_rules!` definition.
    pub macros: Vec<MacroDef>,
    /// Every macro invocation at item level.
    pub invocations: Vec<MacroInvocation>,
}

impl ItemTree {
    /// Build the tree from a lexed file.
    pub fn build(lexed: &Lexed) -> Self {
        let mut tree = ItemTree::default();
        let toks = &lexed.tokens;
        walk_items(toks, 0, toks.len(), &mut tree);
        tree
    }
}

/// Index one past the close delimiter matching the open delimiter at
/// `open` (`{}`/`()`/`[]` chosen by the token at `open`); all three
/// nestings are tracked together so mixed nesting cannot desync.
pub fn matching_close(toks: &[Token], open: usize) -> usize {
    let (mut brace, mut paren, mut bracket) = (0i64, 0i64, 0i64);
    for (off, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            _ => continue,
        }
        if brace == 0 && paren == 0 && bracket == 0 && off > open {
            return off + 1;
        }
        // A close delimiter that drops any counter below zero means the
        // span we were asked about was not an open delimiter; bail at it.
        if brace < 0 || paren < 0 || bracket < 0 {
            return off + 1;
        }
    }
    toks.len()
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Token index of the first `{` or `;` in `toks[from..end]` outside
/// parens and brackets (an item's body, or the end of a bodyless one),
/// `end` when there is none.
fn header_end(toks: &[Token], from: usize, end: usize) -> usize {
    let (mut paren, mut bracket) = (0i64, 0i64);
    for j in from..end {
        match punct_at(toks, j) {
            Some('(') => paren += 1,
            Some(')') => paren -= 1,
            Some('[') => bracket += 1,
            Some(']') => bracket -= 1,
            Some('{' | ';') if paren == 0 && bracket == 0 => return j,
            _ => {}
        }
    }
    end
}

/// Walk the item grammar of `toks[start..end]`, appending found fns.
fn walk_items(toks: &[Token], start: usize, end: usize, tree: &mut ItemTree) {
    let mut i = start;
    while i < end {
        let Some(word) = ident_at(toks, i) else {
            // Attributes are skipped whole (`#[…]`, `#![…]`).
            i = match (punct_at(toks, i), punct_at(toks, i + 1)) {
                (Some('#'), Some('[')) => matching_close(toks, i + 1),
                (Some('#'), Some('!')) if punct_at(toks, i + 2) == Some('[') => {
                    matching_close(toks, i + 2)
                }
                _ => i + 1,
            };
            continue;
        };
        match word {
            // Bodies walked for the fns in them: modules, impls, traits
            // (generics use `<>`, which the lexer emits as plain punct —
            // they never contain braces in this codebase).
            "mod" | "impl" | "trait" => {
                let j = header_end(toks, i + 1, end);
                if punct_at(toks, j) == Some('{') {
                    let close = matching_close(toks, j);
                    walk_items(toks, j + 1, close.saturating_sub(1), tree);
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                let j = header_end(toks, i + 1, end);
                let body = (punct_at(toks, j) == Some('{')).then(|| (j, matching_close(toks, j)));
                tree.fns.push(FnItem {
                    name: ident_at(toks, i + 1).unwrap_or("?").to_string(),
                    line: toks[i].line,
                    fn_idx: i,
                    body,
                });
                i = body.map_or(j + 1, |(_, close)| close);
            }
            // Skipped whole: the fields of a type.
            "struct" | "enum" | "union" => {
                let j = header_end(toks, i + 1, end);
                i = if punct_at(toks, j) == Some('{') {
                    matching_close(toks, j)
                } else {
                    j + 1
                };
            }
            "macro_rules" => {
                let mut open = i + 1;
                while open < end && punct_at(toks, open) != Some('{') {
                    open += 1;
                }
                let close = matching_close(toks, open);
                if let Some(name) = ident_at(toks, i + 2) {
                    tree.macros.push(macro_def(name, &toks[open..close]));
                }
                i = close;
            }
            _ if punct_at(toks, i + 1) == Some('!')
                && matches!(punct_at(toks, i + 2), Some('{' | '(' | '[')) =>
            {
                let close = matching_close(toks, i + 2);
                tree.invocations.push(MacroInvocation {
                    name: word.to_string(),
                    line: toks[i].line,
                    arg_idents: arg_idents(&toks[i + 3..close.saturating_sub(1)]),
                });
                i = close;
            }
            _ => i += 1,
        }
    }
}

/// Split an invocation's arguments at top-level commas: `Some(ident)`
/// for an argument that is one identifier, `None` otherwise.
fn arg_idents(args: &[Token]) -> Vec<Option<String>> {
    let mut out = Vec::new();
    let mut current: Vec<&Token> = Vec::new();
    let mut depth = 0i64;
    for t in args {
        match t.kind {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}' | ')' | ']') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => {
                out.push(single_ident(&current));
                current.clear();
                continue;
            }
            _ => {}
        }
        current.push(t);
    }
    if !current.is_empty() {
        out.push(single_ident(&current));
    }
    out
}

fn single_ident(arg: &[&Token]) -> Option<String> {
    match arg {
        [Token {
            kind: TokKind::Ident(s),
            ..
        }] => Some(s.clone()),
        _ => None,
    }
}

/// Summarize `macro_rules! name { (matcher) => { body } … }` from the
/// tokens of its outer braces.
fn macro_def(name: &str, toks: &[Token]) -> MacroDef {
    // First rule's matcher: the first `(` inside the outer braces.
    let m = (0..toks.len())
        .find(|&k| punct_at(toks, k) == Some('('))
        .unwrap_or(toks.len());
    let matcher_close = matching_close(toks, m).min(toks.len());
    let mut params = Vec::new();
    for j in m..matcher_close {
        // `$name:kind`; repetition groups `$(…)` have a delimiter after
        // `$` and fall through to the inner metavariables.
        if punct_at(toks, j) == Some('$') && punct_at(toks, j + 2) == Some(':') {
            params.extend(ident_at(toks, j + 1).map(str::to_string));
        }
    }
    let mut fn_params = Vec::new();
    let mut body_refs = BTreeSet::new();
    for k in matcher_close..toks.len() {
        let Some(s) = ident_at(toks, k) else { continue };
        if s == "fn" && punct_at(toks, k + 1) == Some('$') {
            fn_params.extend(ident_at(toks, k + 2).map(str::to_string));
        } else if k == 0 || punct_at(toks, k - 1) != Some('$') {
            // Metavariable uses (`$x`) are not concrete references.
            body_refs.insert(s.to_string());
        }
    }
    MacroDef {
        name: name.to_string(),
        params,
        fn_params,
        body_refs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn finds_fns_in_mods_and_impls() {
        let src =
            "mod a { impl Foo { pub fn bar(&self) -> u32 { 1 } }\n fn baz() {} }\nfn top() {}";
        let tree = ItemTree::build(&lex(src));
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["bar", "baz", "top"]);
    }

    #[test]
    fn macro_defs_map_fn_metavariables() {
        let src = r#"
macro_rules! define_ops {
    ($add:ident, $sub:ident, $($doc:literal),+) => {
        pub fn $add() { helper(); }
        pub fn $sub() {}
    };
}
define_ops!(plus, minus, "a", "b");
"#;
        let tree = ItemTree::build(&lex(src));
        let def = &tree.macros[0];
        assert_eq!(def.params, vec!["add", "sub", "doc"]);
        assert_eq!(def.fn_params, vec!["add", "sub"]);
        assert!(def.body_refs.contains("helper"));
        assert_eq!(
            tree.invocations[0].arg_idents,
            vec![
                Some("plus".to_string()),
                Some("minus".to_string()),
                None,
                None
            ]
        );
    }

    #[test]
    fn macro_bodies_and_nested_fns_are_not_items() {
        let src = "macro_rules! m { ($f:ident) => { fn $f() {} }; }\nm!(x);\nfn outer() { fn inner() {} }\ntrait T { fn sig(&self); }";
        let tree = ItemTree::build(&lex(src));
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "sig"]);
        assert!(tree.fns[1].body.is_none());
    }
}
