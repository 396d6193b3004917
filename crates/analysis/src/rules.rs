//! The rule engine: the repo invariants the compiler cannot state,
//! enforced as CI-failing diagnostics.
//!
//! Every rule works on the token stream of [`crate::lex`], plus a few
//! derived views: attribute token ranges, `#[cfg(test)] mod` line regions
//! and `// hot-path`-marked function bodies. Findings carry `file:line`
//! and can be silenced per line with a trailing `// lint: allow(<rule>)`
//! marker (e.g. `// lint: allow(r10)`).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::callgraph::FnIndex;
use crate::item_tree::ItemTree;
use crate::lex::{lex, Lexed, TokKind, Token};
use crate::lockgraph::LockGraph;

/// The rule catalogue. Ids are stable: CI logs, allowlist markers and
/// DESIGN.md all refer to them. R1, R2, R4, R5 and R7 are compiler lints
/// now (DESIGN.md §9), and R8 is gone; their ids are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R3: no timing or allocation calls inside functions marked with a
    /// `// hot-path` comment.
    HotPathAlloc,
    /// R6: the partial order of `*_recover` lock acquisitions held
    /// simultaneously must be acyclic (static deadlock detection, one
    /// level of call inlining).
    LockOrder,
    /// R9: every `// lint: allow(rN)` marker must actually silence a
    /// finding; dead markers are findings themselves.
    AllowHygiene,
    /// R10: every `pub fn` under `crates/*/src` is reachable, by name,
    /// from a fn defined in a non-test root (`src/bin/**`, `src/main.rs`,
    /// `examples/`, the root `src/` facade). Unit tests, integration
    /// tests and `pub use` are not callers.
    UnreachedPub,
}

impl Rule {
    /// Stable short id.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "R3",
            Rule::LockOrder => "R6",
            Rule::AllowHygiene => "R9",
            Rule::UnreachedPub => "R10",
        }
    }

    /// The rule with the given lower-case id (`"r3"`, `"r10"`…), if any.
    pub fn from_marker_id(id: &str) -> Option<Rule> {
        Rule::all()
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(id))
    }

    /// One-line description, shown by `rptcn-analysis rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => {
                "no Instant::now()/allocations inside functions marked `// hot-path`"
            }
            Rule::LockOrder => {
                "lock acquisition order across serve/net must be acyclic (static deadlock check)"
            }
            Rule::AllowHygiene => {
                "a `// lint: allow(rN)` marker that silences nothing is itself a finding"
            }
            Rule::UnreachedPub => {
                "every `pub fn` under crates/*/src must be reachable from a bin, an example or the root facade (tests and `pub use` are not callers)"
            }
        }
    }

    /// Every rule, in id order.
    pub fn all() -> [Rule; 4] {
        [
            Rule::HotPathAlloc,
            Rule::LockOrder,
            Rule::AllowHygiene,
            Rule::UnreachedPub,
        ]
    }
}

/// One finding: a rule violated at `file:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the finding is in (as passed to the checker).
    pub file: PathBuf,
    /// 1-based source line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// A non-test root of the workspace, by cargo's directory layout: a bin
/// target (`src/bin/**`, `src/main.rs`), an example, or the root package's
/// `src/` facade. R10 walks from the fns these files define.
fn is_root_file(p: &str) -> bool {
    p.contains("/src/bin/")
        || p.ends_with("/src/main.rs")
        || p.starts_with("examples/")
        || p.starts_with("src/")
}

/// Which rules apply to a workspace file, by repo policy: R3 and R9
/// everywhere; R6 in `serve` and `net`; R10 on every library file of
/// every crate (`crates/*/src` minus the roots it walks from).
pub fn rules_for(path: &Path) -> Vec<Rule> {
    let p = path.to_string_lossy().replace('\\', "/");
    let in_crate = |c: &str| p.contains(&format!("crates/{c}/src/"));
    let mut rules = vec![Rule::HotPathAlloc];
    if in_crate("serve") || in_crate("net") {
        rules.push(Rule::LockOrder);
    }
    if p.contains("crates/") && p.contains("/src/") && !is_root_file(&p) {
        rules.push(Rule::UnreachedPub);
    }
    rules.push(Rule::AllowHygiene);
    rules
}

/// Run `rules` over one file's source text. R6 and R10 run in their
/// single-file form (lock graph / fn index restricted to this file);
/// R9 always runs last so every other rule's marker usage is recorded
/// first.
// lint: allow(r10) test entry: lint_engine.rs runs one fixture under chosen rules
pub fn check_source(path: &Path, src: &str, rules: &[Rule]) -> Vec<Diagnostic> {
    let ctx = FileContext::new(path, src);
    let mut out = Vec::new();
    for &rule in rules.iter().filter(|&&r| r != Rule::AllowHygiene) {
        ctx.run_rule(rule, &mut out);
    }
    if rules.contains(&Rule::AllowHygiene) {
        ctx.check_allow_hygiene(&mut out);
    }
    out.sort_by_key(|d| d.line);
    out
}

/// Lexed file plus the derived views the rules share. Public so the
/// workspace walk can run the cross-file rules (R6/R10) over many files
/// while sharing the marker-usage state R9 audits.
pub struct FileContext {
    path: PathBuf,
    lexed: Lexed,
    /// Structural view (fns and modules) for R6/R10.
    tree: ItemTree,
    /// `in_attr[i]` — token `i` is inside a `#[...]` / `#![...]` attribute.
    in_attr: Vec<bool>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    test_regions: Vec<(usize, usize)>,
    /// Token index ranges (exclusive end) of `// hot-path` fn bodies.
    hot_fn_spans: Vec<(usize, usize)>,
    /// Lines whose tokens are all attribute tokens.
    attr_only_lines: Vec<usize>,
    /// `(line, rule id)` of every allow marker that suppressed a finding;
    /// R9 flags the markers that never land here.
    used_markers: RefCell<BTreeSet<(usize, &'static str)>>,
}

impl FileContext {
    /// Lex `src` and precompute the shared views.
    pub fn new(path: &Path, src: &str) -> Self {
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed);
        let in_attr = mark_attributes(&lexed.tokens);
        let attr_only_lines = attr_only_lines(&lexed.tokens, &in_attr);
        let test_regions = find_test_regions(&lexed.tokens, &in_attr);
        let mut ctx = Self {
            path: path.to_path_buf(),
            lexed,
            tree,
            in_attr,
            test_regions,
            hot_fn_spans: Vec::new(),
            attr_only_lines,
            used_markers: RefCell::new(BTreeSet::new()),
        };
        ctx.hot_fn_spans = ctx.find_hot_fn_spans();
        ctx
    }

    /// The path this context was built for.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Dispatch one rule in its single-file form (R9 excluded: it must
    /// run after every other rule, via [`FileContext::check_allow_hygiene`]).
    pub fn run_rule(&self, rule: Rule, out: &mut Vec<Diagnostic>) {
        match rule {
            Rule::HotPathAlloc => self.check_hot_path(out),
            Rule::LockOrder => check_lock_order(&[self], out),
            Rule::AllowHygiene => {}
            Rule::UnreachedPub => check_unreached_pub(&[self], out),
        }
    }

    fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tokens().get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize) -> Option<char> {
        match self.tokens().get(i).map(|t| &t.kind) {
            Some(TokKind::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn line_of(&self, i: usize) -> usize {
        self.tokens()[i].line
    }

    fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Trailing `// lint: allow(rN)` marker on `line`? A hit is recorded
    /// so R9 can tell live markers from dead ones.
    fn allowed(&self, line: usize, rule: Rule) -> bool {
        let marker = format!("lint: allow({})", rule.id().to_ascii_lowercase());
        let hit = self
            .lexed
            .comment_on(line)
            .to_ascii_lowercase()
            .contains(&marker);
        if hit {
            self.used_markers.borrow_mut().insert((line, rule.id()));
        }
        hit
    }

    /// The comment-only lines of the comment / attribute run directly
    /// above `line`, nearest first.
    fn comment_lines_above(&self, line: usize) -> impl Iterator<Item = usize> + '_ {
        (1..line)
            .rev()
            .take_while(|l| {
                self.lexed.is_comment_only(*l) || self.attr_only_lines.binary_search(l).is_ok()
            })
            .filter(|l| self.lexed.is_comment_only(*l))
    }

    /// An allow marker for `rule` in a plain comment of the run directly
    /// above `line` — where a marker that speaks for a whole item goes,
    /// between its docs and its first line.
    fn allowed_above(&self, line: usize, rule: Rule) -> bool {
        self.comment_lines_above(line).any(|l| {
            let doc = self.lexed.comment_on(l).trim_start().starts_with("///");
            !doc && self.allowed(l, rule)
        })
    }

    fn emit(&self, out: &mut Vec<Diagnostic>, line: usize, rule: Rule, message: String) {
        if self.in_test_region(line) || self.allowed(line, rule) {
            return;
        }
        out.push(Diagnostic {
            file: self.path.to_path_buf(),
            line,
            rule,
            message,
        });
    }

    /// A `// hot-path` marker in the comment run directly above `line`?
    /// The marker must be a plain line comment whose text *starts* with
    /// `hot-path` (after the slashes) — a doc comment merely mentioning
    /// the phrase does not opt a function in.
    fn has_hot_path_marker_above(&self, line: usize) -> bool {
        self.comment_lines_above(line).any(|l| {
            let c = self.lexed.comment_on(l).trim_start();
            !c.starts_with("///")
                && !c.starts_with("//!")
                && c.trim_start_matches('/')
                    .trim_start()
                    .starts_with("hot-path")
        })
    }

    /// Walk back from token `i` over attributes and item modifiers
    /// (`pub`, `pub(crate)`, `unsafe`, `async`, `const`, `extern "C"`) to
    /// the first token of the item declaration; returns its index.
    fn item_start(&self, mut i: usize) -> usize {
        const MODIFIERS: [&str; 6] = ["pub", "unsafe", "async", "const", "extern", "default"];
        loop {
            if i == 0 {
                return 0;
            }
            let prev = i - 1;
            // Skip a trailing `)` of `pub(crate)` / `pub(super)`.
            if self.punct_at(prev) == Some(')') {
                let mut depth = 0usize;
                let mut j = prev;
                loop {
                    match self.punct_at(j) {
                        Some(')') => depth += 1,
                        Some('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                if j > 0 && self.ident_at(j - 1) == Some("pub") {
                    i = j - 1;
                    continue;
                }
                return i;
            }
            if self.in_attr[prev] {
                // Skip the whole attribute.
                let mut j = prev;
                while j > 0 && self.in_attr[j - 1] {
                    j -= 1;
                }
                i = j;
                continue;
            }
            match self.ident_at(prev) {
                Some(m) if MODIFIERS.contains(&m) => {
                    i = prev;
                    continue;
                }
                _ => return i,
            }
        }
    }

    /// Body spans of functions whose leading comment run contains a
    /// `hot-path` marker.
    fn find_hot_fn_spans(&self) -> Vec<(usize, usize)> {
        self.tree
            .fns
            .iter()
            .filter(|f| self.has_hot_path_marker_above(self.line_of(self.item_start(f.fn_idx))))
            .filter_map(|f| f.body)
            .collect()
    }

    // ---- R3 ---------------------------------------------------------------

    fn check_hot_path(&self, out: &mut Vec<Diagnostic>) {
        for &(lo, hi) in &self.hot_fn_spans {
            for i in lo..hi {
                let Some(name) = self.ident_at(i) else {
                    continue;
                };
                if self.in_attr[i] {
                    continue;
                }
                let flagged: Option<&str> = match name {
                    "now" if self.path_prefix_is(i, "Instant") => Some("Instant::now()"),
                    "new" if self.path_prefix_is(i, "Vec") => Some("Vec::new()"),
                    "new" if self.path_prefix_is(i, "Box") => Some("Box::new()"),
                    "vec" if self.punct_at(i + 1) == Some('!') => Some("vec!"),
                    "with_capacity" if self.punct_at(i + 1) == Some('(') => Some("with_capacity()"),
                    "to_vec" | "clone" | "to_string" | "to_owned" | "collect"
                        if i > 0
                            && self.punct_at(i - 1) == Some('.')
                            && self.punct_at(i + 1) == Some('(') =>
                    {
                        Some("allocating method call")
                    }
                    "format" if self.punct_at(i + 1) == Some('!') => Some("format!"),
                    _ => None,
                };
                if let Some(what) = flagged {
                    self.emit(
                        out,
                        self.line_of(i),
                        Rule::HotPathAlloc,
                        format!("{what} (`{name}`) inside a `// hot-path` function"),
                    );
                }
            }
        }
    }

    /// Token `i` is preceded by `prefix ::` (e.g. `Instant :: now`).
    fn path_prefix_is(&self, i: usize, prefix: &str) -> bool {
        i >= 3
            && self.punct_at(i - 1) == Some(':')
            && self.punct_at(i - 2) == Some(':')
            && self.ident_at(i - 3) == Some(prefix)
    }

    // ---- R9 ---------------------------------------------------------------

    /// Every `// lint: allow(rN)` marker in a plain line comment that no
    /// rule consulted when suppressing a finding. Must run after every
    /// other rule (including the cross-file ones) so usage is complete.
    pub fn check_allow_hygiene(&self, out: &mut Vec<Diagnostic>) {
        let markers: Vec<(usize, String)> = self
            .lexed
            .comments
            .iter()
            .flat_map(|(&line, comment)| {
                let t = comment.trim_start();
                // Doc comments talk *about* the syntax; only plain `//`
                // comments carry live markers.
                if t.starts_with("///") || t.starts_with("//!") || t.starts_with("/**") {
                    return Vec::new();
                }
                parse_markers(comment)
                    .into_iter()
                    .map(move |id| (line, id))
                    .collect()
            })
            .collect();
        for (line, id) in markers {
            if self.in_test_region(line) {
                continue;
            }
            match Rule::from_marker_id(&id) {
                None => self.emit(
                    out,
                    line,
                    Rule::AllowHygiene,
                    format!("allow marker names unknown rule `{id}`"),
                ),
                Some(rule) => {
                    let used = self.used_markers.borrow().contains(&(line, rule.id()));
                    if !used {
                        self.emit(
                            out,
                            line,
                            Rule::AllowHygiene,
                            format!(
                                "`lint: allow({id})` silences nothing on this line; remove the stale marker"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Rule ids named by `lint: allow(<id>)` markers in `comment`.
fn parse_markers(comment: &str) -> Vec<String> {
    const NEEDLE: &str = "lint: allow(";
    let lower = comment.to_ascii_lowercase();
    let mut ids = Vec::new();
    let mut pos = 0;
    while let Some(off) = lower[pos..].find(NEEDLE) {
        let start = pos + off + NEEDLE.len();
        let Some(close) = lower[start..].find(')') else {
            break;
        };
        ids.push(lower[start..start + close].trim().to_string());
        pos = start + close + 1;
    }
    ids
}

// ---- R6 (cross-file) ------------------------------------------------------

/// R6 over a file set: build one lock graph across every function body
/// (test regions skipped), inline one call level, and report each
/// acquisition edge that participates in a cycle at its source site.
/// Single-file mode (fixtures, `check_source`) passes a one-element
/// slice.
pub fn check_lock_order(files: &[&FileContext], out: &mut Vec<Diagnostic>) {
    let mut graph = LockGraph::default();
    for f in files {
        let disp = f.path.to_string_lossy().replace('\\', "/");
        graph.add_file(&disp, &f.lexed, &f.tree, &|line| f.in_test_region(line));
    }
    graph.finalize();
    for e in graph.cyclic_edges() {
        let Some(f) = files
            .iter()
            .find(|f| f.path.to_string_lossy().replace('\\', "/") == e.file)
        else {
            continue;
        };
        let msg = if e.held == e.acquired {
            format!(
                "lock `{}` re-acquired while already held (std locks are not reentrant)",
                e.acquired
            )
        } else {
            format!(
                "lock `{}` acquired while `{}` is held, and the reverse order exists elsewhere — deadlock cycle",
                e.acquired, e.held
            )
        };
        f.emit(out, e.line, Rule::LockOrder, msg);
    }
}

// ---- R10 (cross-file) -----------------------------------------------------

/// R10 over a file set: index every fn outside `#[cfg(test)]` modules,
/// walk the name-level reference edges from the fns the root files
/// define, and report each unrestricted `pub fn` of a library file the
/// walk never names. The index holds identifiers, not resolved paths, so
/// a same-named fn or field anywhere on a live path keeps an item
/// alive: the rule under-reports and never flags a called fn. A marker
/// on an unreached item (its own line, or a plain comment between its
/// docs and its first line) silences it and makes it a seed of a second
/// walk. A file set with no root in it has nothing to walk from and
/// reports nothing.
pub fn check_unreached_pub(files: &[&FileContext], out: &mut Vec<Diagnostic>) {
    let mut idx = FnIndex::default();
    let mut seeds: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let disp = f.path.to_string_lossy().replace('\\', "/");
        idx.add_file(&f.lexed, &f.tree, &|line| f.in_test_region(line));
        if is_root_file(&disp) {
            let live = f.tree.fns.iter().filter(|i| !f.in_test_region(i.line));
            seeds.extend(live.map(|i| i.name.clone()));
        }
    }
    if seeds.is_empty() {
        return;
    }
    let reached = idx.reachable(&seeds);
    // An item kept for tests is a caller too: what only it calls stays,
    // so one marker speaks for a test helper and the private API under it.
    let mut unreached = Vec::new();
    for f in files {
        if !rules_for(&f.path).contains(&Rule::UnreachedPub) {
            continue;
        }
        for item in &f.tree.fns {
            // `pub(crate)` and `pub(super)` are the compiler's to audit.
            let start = f.item_start(item.fn_idx);
            let plain_pub = (start..item.fn_idx).any(|i| {
                !f.in_attr[i] && f.ident_at(i) == Some("pub") && f.punct_at(i + 1) != Some('(')
            });
            if !plain_pub || reached.contains(&item.name) || f.in_test_region(item.line) {
                continue;
            }
            if f.allowed(item.line, Rule::UnreachedPub)
                || f.allowed_above(f.line_of(start), Rule::UnreachedPub)
            {
                seeds.insert(item.name.clone());
            } else {
                unreached.push((f, item));
            }
        }
    }
    let reached = idx.reachable(&seeds);
    for (f, item) in unreached {
        if !reached.contains(&item.name) {
            f.emit(
                out,
                item.line,
                Rule::UnreachedPub,
                format!(
                    "`pub fn {}` is reached from no bin, example or the root facade; delete it, or mark what exists for tests with `// lint: allow(r10) <why>`",
                    item.name
                ),
            );
        }
    }
}

/// Mark tokens inside `#[...]` / `#![...]` attributes.
fn mark_attributes(tokens: &[Token]) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let hash = matches!(tokens[i].kind, TokKind::Punct('#'));
        let open = |k: usize| matches!(tokens.get(k).map(|t| &t.kind), Some(TokKind::Punct('[')));
        let bang = |k: usize| matches!(tokens.get(k).map(|t| &t.kind), Some(TokKind::Punct('!')));
        if hash && (open(i + 1) || (bang(i + 1) && open(i + 2))) {
            let bracket_at = if open(i + 1) { i + 1 } else { i + 2 };
            let mut depth = 0i32;
            let mut j = bracket_at;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for slot in out.iter_mut().take((j + 1).min(tokens.len())).skip(i) {
                *slot = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Lines whose tokens are all attribute tokens (sorted, for binary search).
fn attr_only_lines(tokens: &[Token], in_attr: &[bool]) -> Vec<usize> {
    use std::collections::BTreeMap;
    let mut per_line: BTreeMap<usize, (bool, bool)> = BTreeMap::new();
    for (t, &ia) in tokens.iter().zip(in_attr) {
        let e = per_line.entry(t.line).or_insert((false, false));
        if ia {
            e.0 = true;
        } else {
            e.1 = true;
        }
    }
    per_line
        .into_iter()
        .filter_map(|(line, (attr, code))| (attr && !code).then_some(line))
        .collect()
}

/// Line ranges of `#[cfg(test)] mod name { … }` bodies.
fn find_test_regions(tokens: &[Token], in_attr: &[bool]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Find an attribute opening at i that contains cfg(test).
        let is_hash = matches!(tokens[i].kind, TokKind::Punct('#'))
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokKind::Punct('['))
            );
        if !is_hash {
            i += 1;
            continue;
        }
        // Attribute extent.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr_tokens = &tokens[i..=j.min(tokens.len() - 1)];
        let has = |name: &str| {
            attr_tokens
                .iter()
                .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == name))
        };
        if has("cfg") && has("test") {
            // Skip further attributes, then expect `mod name {`.
            let mut k = j + 1;
            while k < tokens.len() && in_attr[k] {
                k += 1;
            }
            if matches!(tokens.get(k).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == "mod") {
                // Find the opening brace of the module body.
                let mut open = k + 1;
                while open < tokens.len()
                    && !matches!(tokens[open].kind, TokKind::Punct('{') | TokKind::Punct(';'))
                {
                    open += 1;
                }
                if open < tokens.len() && matches!(tokens[open].kind, TokKind::Punct('{')) {
                    let mut d = 0i32;
                    let mut c = open;
                    while c < tokens.len() {
                        match tokens[c].kind {
                            TokKind::Punct('{') => d += 1,
                            TokKind::Punct('}') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        c += 1;
                    }
                    let end_line = tokens.get(c).map(|t| t.line).unwrap_or(usize::MAX);
                    regions.push((tokens[i].line, end_line));
                    i = c + 1;
                    continue;
                }
            }
        }
        i = j + 1;
    }
    regions
}
