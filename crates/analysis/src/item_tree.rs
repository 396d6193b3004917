//! Brace-matched structural view of one lexed file: modules, functions
//! (free, impl and trait methods), `macro_rules!` definitions and macro
//! invocations, each with its token span and source line.
//!
//! The tree is what lifts the rule engine from token matching to
//! structural analysis: the call index ([`crate::callgraph`]) and lock
//! graph ([`crate::lockgraph`]) are both derived from it. Parsing is
//! deliberately shallow — no expression grammar, just item headers plus
//! exact brace/paren matching — which is enough to attribute every token
//! range to the function that owns it.

use std::collections::BTreeSet;

use crate::lex::{Lexed, TokKind, Token};

/// Item modifiers that may sit between an attribute run and the item
/// keyword (`#[x] pub unsafe fn …`).
const MODIFIERS: [&str; 6] = ["pub", "unsafe", "async", "const", "extern", "default"];

/// One function item: a free `fn`, an impl/trait method, or a function
/// defined inside a `macro_rules!` body under a metavariable name.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name. Metavariable-named macro fns carry the marker form
    /// `$name` and are resolved per invocation by the call index.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Body token range `[open brace, one past close]`, `None` for
    /// bodyless declarations (trait signatures).
    pub body: Option<(usize, usize)>,
    /// The item carries a `#[target_feature(...)]` attribute.
    pub target_feature: bool,
    /// Names of the enclosing modules, outermost first.
    pub module_path: Vec<String>,
}

/// One `macro_rules!` definition, summarized just enough to map
/// invocation arguments onto the functions the macro generates.
#[derive(Debug, Clone)]
pub struct MacroDef {
    /// Macro name.
    pub name: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// Metavariable names of the first rule's matcher, in positional
    /// order (repetition groups contribute their inner metavariables).
    pub params: Vec<String>,
    /// Metavariables used as `fn $x` names in the body, with a flag for a
    /// directly-preceding `#[target_feature]` attribute.
    pub fn_params: Vec<(String, bool)>,
    /// Concrete identifiers referenced anywhere in the body.
    pub body_refs: BTreeSet<String>,
    /// The body contains `_mm*` intrinsic identifiers.
    pub intrinsics: bool,
}

/// One macro invocation `name!(args…)` / `name![…]` / `name!{…}`.
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

/// One module with its body span, for span attribution.
#[derive(Debug, Clone)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// 1-based line of the `mod` keyword.
    pub line: usize,
    /// Body token range `[open brace, one past close]`.
    pub body: (usize, usize),
}

/// The structural view of one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every function in the file, in source order (impl methods and
    /// nested-module fns included; fns nested inside other fn bodies are
    /// not items and are not walked).
    pub fns: Vec<FnItem>,
    /// Every `macro_rules!` definition.
    pub macros: Vec<MacroDef>,
    /// Every macro invocation outside `macro_rules!` bodies.
    pub invocations: Vec<MacroInvocation>,
    /// Every inline module.
    pub modules: Vec<ModItem>,
}

impl ItemTree {
    /// Build the tree from a lexed file.
    pub fn build(lexed: &Lexed) -> Self {
        let mut tree = ItemTree::default();
        let toks = &lexed.tokens;
        let mut path = Vec::new();
        walk_items(toks, 0, toks.len(), &mut path, &mut tree);
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

fn is_open_delim(c: char) -> bool {
    matches!(c, '{' | '(' | '[')
}

/// Walk the item grammar of `toks[start..end]`, appending found items.
fn walk_items(
    toks: &[Token],
    start: usize,
    end: usize,
    path: &mut Vec<String>,
    tree: &mut ItemTree,
) {
    let mut i = start;
    // Token index where the attribute run directly above the current item
    // begins; `target_feature` presence is checked inside that run.
    let mut attr_run: Option<(usize, bool)> = None;
    while i < end {
        // Attributes: record the run, skip over it.
        if punct_at(toks, i) == Some('#')
            && (punct_at(toks, i + 1) == Some('[')
                || (punct_at(toks, i + 1) == Some('!') && punct_at(toks, i + 2) == Some('[')))
        {
            let open = if punct_at(toks, i + 1) == Some('[') {
                i + 1
            } else {
                i + 2
            };
            let close = matching_close(toks, open);
            let has_tf = toks[i..close]
                .iter()
                .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "target_feature"));
            attr_run = match attr_run {
                Some((first, tf)) => Some((first, tf || has_tf)),
                None => Some((i, has_tf)),
            };
            i = close;
            continue;
        }
        let Some(word) = ident_at(toks, i) else {
            attr_run = None;
            i += 1;
            continue;
        };
        match word {
            "mod" => {
                let name = ident_at(toks, i + 1).unwrap_or("?").to_string();
                // `mod name;` (out-of-line) has no body here.
                if punct_at(toks, i + 2) == Some('{') {
                    let open = i + 2;
                    let close = matching_close(toks, open);
                    tree.modules.push(ModItem {
                        name: name.clone(),
                        line: toks[i].line,
                        body: (open, close),
                    });
                    path.push(name);
                    walk_items(toks, open + 1, close.saturating_sub(1), path, tree);
                    path.pop();
                    i = close;
                } else {
                    i += 2;
                }
                attr_run = None;
            }
            "impl" | "trait" => {
                // Scan to the body `{` at delimiter depth 0 (generics use
                // `<>`, which the lexer emits as plain punct — they never
                // contain braces in this codebase), then walk the body for
                // methods.
                let mut j = i + 1;
                let (mut paren, mut bracket) = (0i64, 0i64);
                while j < end {
                    match punct_at(toks, j) {
                        Some('(') => paren += 1,
                        Some(')') => paren -= 1,
                        Some('[') => bracket += 1,
                        Some(']') => bracket -= 1,
                        Some('{') if paren == 0 && bracket == 0 => break,
                        Some(';') if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if punct_at(toks, j) == Some('{') {
                    let close = matching_close(toks, j);
                    walk_items(toks, j + 1, close.saturating_sub(1), path, tree);
                    i = close;
                } else {
                    i = j + 1;
                }
                attr_run = None;
            }
            "fn" => {
                let tf = attr_run.map(|(_, tf)| tf).unwrap_or(false);
                let name = match ident_at(toks, i + 1) {
                    Some(n) => n.to_string(),
                    None if punct_at(toks, i + 1) == Some('$') => {
                        format!("${}", ident_at(toks, i + 2).unwrap_or("?"))
                    }
                    None => "?".to_string(),
                };
                let body = fn_body_open(toks, i, end).map(|open| {
                    let close = matching_close(toks, open);
                    (open, close)
                });
                tree.fns.push(FnItem {
                    name,
                    line: toks[i].line,
                    fn_idx: i,
                    body,
                    target_feature: tf,
                    module_path: path.clone(),
                });
                // Scan the body for invocations the fn makes of local
                // macros (e.g. a driver fn built around a kernel macro),
                // but do not treat nested `fn`s as items.
                if let Some((open, close)) = body {
                    collect_invocations(toks, open + 1, close.saturating_sub(1), tree);
                    i = close;
                } else {
                    // Bodyless: advance past the `;`.
                    let mut j = i + 1;
                    while j < end && punct_at(toks, j) != Some(';') {
                        j += 1;
                    }
                    i = j + 1;
                }
                attr_run = None;
            }
            "macro_rules" => {
                if let Some(def) = parse_macro_def(toks, i) {
                    let open = find_macro_body_open(toks, i);
                    tree.macros.push(def);
                    i = matching_close(toks, open);
                } else {
                    i += 1;
                }
                attr_run = None;
            }
            "struct" | "enum" | "union" => {
                // Skip the item: either to its `{…}` close or its `;`.
                let mut j = i + 1;
                let (mut paren, mut bracket) = (0i64, 0i64);
                while j < end {
                    match punct_at(toks, j) {
                        Some('(') => paren += 1,
                        Some(')') => paren -= 1,
                        Some('[') => bracket += 1,
                        Some(']') => bracket -= 1,
                        Some('{') if paren == 0 && bracket == 0 => {
                            j = matching_close(toks, j);
                            break;
                        }
                        Some(';') if paren == 0 && bracket == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                attr_run = None;
            }
            _ => {
                // Macro invocation at item level (`define_kernels!(…)`).
                if punct_at(toks, i + 1) == Some('!')
                    && punct_at(toks, i + 2).is_some_and(is_open_delim)
                {
                    record_invocation(toks, i, tree);
                    i = matching_close(toks, i + 2);
                    attr_run = None;
                } else {
                    // Visibility/safety modifiers sit between an item's
                    // attributes and its keyword — keep the run alive.
                    if !MODIFIERS.contains(&word) {
                        attr_run = None;
                    }
                    i += 1;
                }
            }
        }
    }
}

/// Token index of the `{` opening the body of the fn whose `fn` keyword
/// is at `fn_idx`, or `None` for a bodyless declaration. Parens and
/// brackets in the signature (arguments, return types, defaults) are
/// skipped.
fn fn_body_open(toks: &[Token], fn_idx: usize, end: usize) -> Option<usize> {
    let (mut paren, mut bracket) = (0i64, 0i64);
    for j in fn_idx + 1..end {
        match punct_at(toks, j) {
            Some('(') => paren += 1,
            Some(')') => paren -= 1,
            Some('[') => bracket += 1,
            Some(']') => bracket -= 1,
            Some('{') if paren == 0 && bracket == 0 => return Some(j),
            Some(';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Record macro invocations found in a statement range (used for fn
/// bodies, where full item walking would mis-read statements as items).
fn collect_invocations(toks: &[Token], start: usize, end: usize, tree: &mut ItemTree) {
    let mut i = start;
    while i < end {
        if ident_at(toks, i).is_some()
            && punct_at(toks, i + 1) == Some('!')
            && punct_at(toks, i + 2).is_some_and(is_open_delim)
        {
            record_invocation(toks, i, tree);
            i = matching_close(toks, i + 2);
        } else {
            i += 1;
        }
    }
}

/// Parse `name!(args…)` at `i` into an invocation record.
fn record_invocation(toks: &[Token], i: usize, tree: &mut ItemTree) {
    let Some(name) = ident_at(toks, i) else {
        return;
    };
    let open = i + 2;
    let close = matching_close(toks, open);
    let mut arg_idents = Vec::new();
    let mut current: Vec<&Token> = Vec::new();
    let (mut brace, mut paren, mut bracket) = (0i64, 0i64, 0i64);
    for t in toks.iter().take(close.saturating_sub(1)).skip(open + 1) {
        match t.kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct(',') if brace == 0 && paren == 0 && bracket == 0 => {
                arg_idents.push(single_ident(&current));
                current.clear();
                continue;
            }
            _ => {}
        }
        current.push(t);
    }
    if !current.is_empty() {
        arg_idents.push(single_ident(&current));
    }
    tree.invocations.push(MacroInvocation {
        name: name.to_string(),
        line: toks[i].line,
        arg_idents,
    });
}

fn single_ident(arg: &[&Token]) -> Option<String> {
    match arg {
        [t] => match &t.kind {
            TokKind::Ident(s) => Some(s.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Token index of the outer `{` of a `macro_rules! name { … }` at `i`.
fn find_macro_body_open(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    while j < toks.len() && punct_at(toks, j) != Some('{') {
        j += 1;
    }
    j
}

/// Summarize `macro_rules! name { (matcher) => { body } … }` starting at
/// the `macro_rules` keyword.
fn parse_macro_def(toks: &[Token], i: usize) -> Option<MacroDef> {
    let name = ident_at(toks, i + 2)?.to_string();
    let line = toks[i].line;
    let outer_open = find_macro_body_open(toks, i);
    let outer_close = matching_close(toks, outer_open);
    // First rule's matcher: the first `(` inside the outer braces.
    let mut m = outer_open + 1;
    while m < outer_close && punct_at(toks, m) != Some('(') {
        m += 1;
    }
    let matcher_close = matching_close(toks, m);
    let mut params = Vec::new();
    let mut j = m + 1;
    while j + 1 < matcher_close {
        if punct_at(toks, j) == Some('$') {
            if let Some(p) = ident_at(toks, j + 1) {
                // `$name:kind`; repetition groups `$(…)` have a delimiter
                // after `$` and fall through to the inner metavariables.
                if punct_at(toks, j + 2) == Some(':') {
                    params.push(p.to_string());
                }
            }
        }
        j += 1;
    }
    // Body: everything between the matcher's `=> {` and the outer close.
    let mut fn_params = Vec::new();
    let mut body_refs = BTreeSet::new();
    let mut intrinsics = false;
    let mut k = matcher_close;
    while k < outer_close {
        match &toks[k].kind {
            TokKind::Ident(s) if s == "fn" && punct_at(toks, k + 1) == Some('$') => {
                if let Some(meta) = ident_at(toks, k + 2) {
                    // `#[target_feature…]` in the run of attribute/modifier
                    // tokens directly above this `fn`.
                    let tf = attr_above_mentions(toks, k, "target_feature");
                    fn_params.push((meta.to_string(), tf));
                }
            }
            TokKind::Ident(s) => {
                if s.starts_with("_mm") {
                    intrinsics = true;
                }
                // Metavariable uses (`$x`) are not concrete references.
                if punct_at(toks, k.wrapping_sub(1)) != Some('$') {
                    body_refs.insert(s.clone());
                }
            }
            _ => {}
        }
        k += 1;
    }
    Some(MacroDef {
        name,
        line,
        params,
        fn_params,
        body_refs,
        intrinsics,
    })
}

/// Walk back from `fn_idx` over modifiers (`pub`, `unsafe`, …) and one or
/// more attributes, checking whether any attribute mentions `what`.
fn attr_above_mentions(toks: &[Token], fn_idx: usize, what: &str) -> bool {
    let mut j = fn_idx;
    loop {
        if j == 0 {
            return false;
        }
        let prev = j - 1;
        match &toks[prev].kind {
            TokKind::Ident(s) if MODIFIERS.contains(&s.as_str()) => {
                j = prev;
            }
            TokKind::Punct(']') => {
                // Walk back over the `#[…]` attribute.
                let mut depth = 0i64;
                let mut k = prev;
                loop {
                    match punct_at(toks, k) {
                        Some(']') => depth += 1,
                        Some('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        return false;
                    }
                    k -= 1;
                }
                if toks[k + 1..prev]
                    .iter()
                    .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == what))
                {
                    return true;
                }
                // `#` (and `#[doc…]` runs) sit before the bracket.
                j = k.saturating_sub(1);
                if punct_at(toks, j.wrapping_add(0)) != Some('#') && j > 0 {
                    j += 1;
                }
            }
            _ => return false,
        }
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
        assert_eq!(tree.fns[0].module_path, vec!["a"]);
        assert_eq!(tree.modules.len(), 1);
    }

    #[test]
    fn target_feature_attribute_is_detected() {
        let src =
            "#[cfg(x)]\n#[target_feature(enable = \"avx\")]\npub unsafe fn k() {}\nfn plain() {}";
        let tree = ItemTree::build(&lex(src));
        assert!(tree.fns[0].target_feature);
        assert!(!tree.fns[1].target_feature);
    }

    #[test]
    fn macro_defs_map_fn_metavariables() {
        let src = r#"
macro_rules! define_kernels {
    ($tile:ident, $row:ident, $($feat:literal),+) => {
        #[target_feature($(enable = $feat),+)]
        pub unsafe fn $tile() { helper(); }
        pub unsafe fn $row() {}
    };
}
define_kernels!(tile_fma, row_fma, "avx2", "fma");
"#;
        let tree = ItemTree::build(&lex(src));
        assert_eq!(tree.macros.len(), 1);
        let def = &tree.macros[0];
        assert_eq!(def.params, vec!["tile", "row", "feat"]);
        assert_eq!(
            def.fn_params,
            vec![("tile".to_string(), true), ("row".to_string(), false)]
        );
        assert!(def.body_refs.contains("helper"));
        assert_eq!(tree.invocations.len(), 1);
        assert_eq!(
            tree.invocations[0].arg_idents,
            vec![
                Some("tile_fma".to_string()),
                Some("row_fma".to_string()),
                None,
                None
            ]
        );
    }
}
