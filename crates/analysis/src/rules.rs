//! The rule engine: repo invariants enforced as CI-failing diagnostics.
//!
//! Every rule works on the token stream of [`crate::lex`], plus a few
//! derived views: attribute token ranges, `#[cfg(test)] mod` line regions
//! and `// hot-path`-marked function bodies. Findings carry `file:line`
//! and can be silenced per line with a trailing `// lint: allow(<rule>)`
//! marker (e.g. `// lint: allow(r2)`).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::callgraph::FnIndex;
use crate::item_tree::ItemTree;
use crate::lex::{lex, Lexed, TokKind, Token};
use crate::lockgraph::LockGraph;

/// The rule catalogue. Ids (`R1`…`R10`) are stable: CI logs, allowlist
/// markers and DESIGN.md all refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R1: every `unsafe` block / fn / impl is immediately preceded by a
    /// `// SAFETY:` comment (a doc `# Safety` section also counts).
    SafetyComment,
    /// R2: no `unwrap()` / `expect()` / `panic!` / `todo!` in non-test
    /// library code.
    NoPanicPaths,
    /// R3: no timing or allocation calls inside functions marked with a
    /// `// hot-path` comment.
    HotPathAlloc,
    /// R4: no bare `Mutex`/`RwLock` acquisition (`.lock()` / `.read()` /
    /// `.write()`); use the poison-safe `lock_recover` helper.
    LockRecover,
    /// R5: every public item (`pub fn` / `struct` / `enum` / `trait` /
    /// `type` / `const` / `static`) carries a doc comment.
    MissingDocs,
    /// R6: the partial order of `*_recover` lock acquisitions held
    /// simultaneously must be acyclic (static deadlock detection, one
    /// level of call inlining).
    LockOrder,
    /// R7: no nondeterminism sources (`Instant::now`, `SystemTime`,
    /// hash-map iteration, entropy-seeded RNGs, bare
    /// `available_parallelism`) in determinism-critical scopes.
    DeterminismScope,
    /// R8: every `#[target_feature]` / intrinsic-calling kernel fn has a
    /// scalar twin and is reachable from a `*parity*` test.
    TwinCoverage,
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
    /// Stable short id (`R1`…`R10`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "R1",
            Rule::NoPanicPaths => "R2",
            Rule::HotPathAlloc => "R3",
            Rule::LockRecover => "R4",
            Rule::MissingDocs => "R5",
            Rule::LockOrder => "R6",
            Rule::DeterminismScope => "R7",
            Rule::TwinCoverage => "R8",
            Rule::AllowHygiene => "R9",
            Rule::UnreachedPub => "R10",
        }
    }

    /// The rule with the given lower-case id (`"r1"`…`"r10"`), if any.
    pub fn from_marker_id(id: &str) -> Option<Rule> {
        Rule::all()
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(id))
    }

    /// One-line description, shown by `rptcn-analysis rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::SafetyComment => {
                "unsafe block/fn/impl must be preceded by a `// SAFETY:` comment"
            }
            Rule::NoPanicPaths => {
                "no unwrap()/expect()/panic!/todo! in non-test library code (serve, net, core, models, obs, analysis + kernel files)"
            }
            Rule::HotPathAlloc => {
                "no Instant::now()/allocations inside functions marked `// hot-path`"
            }
            Rule::LockRecover => {
                "Mutex/RwLock acquisitions in serve and net must go through `lock_recover`"
            }
            Rule::MissingDocs => {
                "public items in serve, net, core, obs and analysis must have doc comments"
            }
            Rule::LockOrder => {
                "lock acquisition order across serve/net must be acyclic (static deadlock check)"
            }
            Rule::DeterminismScope => {
                "no wall clocks, hash-map iteration, entropy RNGs or bare available_parallelism in determinism-critical scopes"
            }
            Rule::TwinCoverage => {
                "every #[target_feature]/intrinsic kernel fn needs a scalar twin and a *parity* test reference"
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
    pub fn all() -> [Rule; 10] {
        [
            Rule::SafetyComment,
            Rule::NoPanicPaths,
            Rule::HotPathAlloc,
            Rule::LockRecover,
            Rule::MissingDocs,
            Rule::LockOrder,
            Rule::DeterminismScope,
            Rule::TwinCoverage,
            Rule::AllowHygiene,
            Rule::UnreachedPub,
        ]
    }
}

/// How a finding gates CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Fails the check unconditionally; must be fixed or explicitly
    /// allow-marked with a justification.
    Deny,
    /// Reported, and gated through `analysis-baseline.json`: accepted
    /// findings live there, anything new (or any stale entry) fails.
    Warn,
}

impl Severity {
    /// Lower-case label used in JSON output and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// The files that hold the repo's compute kernels. They sit on the serving
/// hot path and double as determinism-critical scope: their outputs are
/// under a bitwise parity contract.
const KERNEL_FILES: [&str; 2] = ["tensor/src/gemm.rs", "autograd/src/conv_kernels.rs"];

/// Severity of a rule for a given file, by repo policy: everything is
/// deny except R7, which denies only in its determinism-critical core
/// (`net/src/sim*`, the SimClock seam file, the kernel files) and
/// warns elsewhere so the hash-iteration lint can roll out through the
/// baseline instead of blocking.
pub fn severity(rule: Rule, file: &Path) -> Severity {
    match rule {
        Rule::DeterminismScope => {
            let p = file.to_string_lossy().replace('\\', "/");
            let deny = p.contains("net/src/sim")
                || p.ends_with("obs/src/clock.rs")
                || p.contains("core/src/decide")
                || KERNEL_FILES.iter().any(|f| p.ends_with(f));
            if deny {
                Severity::Deny
            } else {
                Severity::Warn
            }
        }
        _ => Severity::Deny,
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

/// Which rules apply to a workspace file, by repo policy:
/// R1, R3 and R9 everywhere; R2 in `serve`/`net`/`core`/`models`/`obs`/
/// `analysis` plus the kernel files (GEMM, conv); R4 and R6 in `serve` and `net`; R5 in `serve`, `net`,
/// `core`, `obs` and `analysis`; R7 in `serve`/`net`/`obs` plus the
/// kernel files and the `core/src/decide` module (deny inside the
/// determinism core — which includes `decide`, whose reservation replays
/// must be reproducible — warn elsewhere; see [`severity`]); R8 on the
/// conv kernel file, home of the one `#[target_feature]` fn; R10 on every library file of
/// every crate (`crates/*/src` minus the roots it walks from).
pub fn rules_for(path: &Path) -> Vec<Rule> {
    let p = path.to_string_lossy().replace('\\', "/");
    let in_crate = |c: &str| p.contains(&format!("crates/{c}/src/"));
    // The kernel files sit on the serving hot path: a stray panic there
    // aborts a forecast mid-batch, so they carry R2 even though their
    // crates as a whole do not. The deliberate sites (row counts a guard
    // already checked) carry r2 allow markers with their justification
    // inline.
    let kernel_file = KERNEL_FILES.iter().any(|f| p.ends_with(f));
    let mut rules = vec![Rule::SafetyComment, Rule::HotPathAlloc];
    if in_crate("serve")
        || in_crate("net")
        || in_crate("core")
        || in_crate("models")
        || in_crate("obs")
        || in_crate("analysis")
        || kernel_file
    {
        rules.push(Rule::NoPanicPaths);
    }
    if in_crate("serve") || in_crate("net") {
        rules.push(Rule::LockRecover);
        rules.push(Rule::LockOrder);
    }
    if in_crate("serve")
        || in_crate("net")
        || in_crate("core")
        || in_crate("obs")
        || in_crate("analysis")
    {
        rules.push(Rule::MissingDocs);
    }
    if in_crate("serve")
        || in_crate("net")
        || in_crate("obs")
        || p.contains("core/src/decide")
        || kernel_file
    {
        rules.push(Rule::DeterminismScope);
    }
    if p.ends_with("autograd/src/conv_kernels.rs") {
        rules.push(Rule::TwinCoverage);
    }
    if p.contains("crates/") && p.contains("/src/") && !is_root_file(&p) {
        rules.push(Rule::UnreachedPub);
    }
    rules.push(Rule::AllowHygiene);
    rules
}

/// Run `rules` over one file's source text. R6, R8 and R10 run in their
/// single-file form (lock graph / fn index restricted to this file);
/// R9 always runs last so every other rule's marker usage is recorded
/// first.
// lint: allow(r10) test entry: lint_engine.rs and export_golden.rs run one fixture under chosen rules
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
/// workspace walk can run the cross-file rules (R6/R8) over many files
/// while sharing the marker-usage state R9 audits.
pub struct FileContext {
    path: PathBuf,
    lexed: Lexed,
    /// Structural view (fns, macros, invocations) for R6/R8.
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

    /// The lexed token stream.
    pub fn lexed(&self) -> &Lexed {
        &self.lexed
    }

    /// The structural item tree.
    pub fn tree(&self) -> &ItemTree {
        &self.tree
    }

    /// Dispatch one rule in its single-file form (R9 excluded: it must
    /// run after every other rule, via [`FileContext::check_allow_hygiene`]).
    pub fn run_rule(&self, rule: Rule, out: &mut Vec<Diagnostic>) {
        match rule {
            Rule::SafetyComment => self.check_safety(out),
            Rule::NoPanicPaths => self.check_no_panic(out),
            Rule::HotPathAlloc => self.check_hot_path(out),
            Rule::LockRecover => self.check_lock_recover(out),
            Rule::MissingDocs => self.check_missing_docs(out),
            Rule::LockOrder => check_lock_order(&[self], out),
            Rule::DeterminismScope => self.check_determinism(out),
            Rule::TwinCoverage => check_twin_coverage(&[self], out),
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

    /// The contiguous run of comment-only / attribute-only lines directly
    /// above `line`, concatenated (nearest line first).
    fn comment_run_above(&self, line: usize) -> String {
        let mut text = String::new();
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.lexed.is_comment_only(l) || self.attr_only_lines.binary_search(&l).is_ok() {
                text.push_str(self.lexed.comment_on(l));
                text.push('\n');
            } else {
                break;
            }
        }
        text
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

    /// Does the comment run above `line` contain a `///` doc comment?
    fn has_doc_above(&self, line: usize) -> bool {
        self.comment_lines_above(line).any(|l| {
            let t = self.lexed.comment_on(l).trim_start();
            t.starts_with("///") || t.starts_with("/**")
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

    /// Token index of the `{` opening the body of the fn whose `fn`
    /// keyword is at `fn_idx`, or `None` for a bodyless declaration.
    fn fn_body_open(&self, fn_idx: usize) -> Option<usize> {
        let toks = self.tokens();
        let mut paren = 0i32;
        let mut bracket = 0i32;
        for (off, t) in toks.iter().enumerate().skip(fn_idx + 1) {
            match t.kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{') if paren == 0 && bracket == 0 => return Some(off),
                TokKind::Punct(';') if paren == 0 && bracket == 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// Index one past the `}` matching the `{` at `open`.
    fn matching_close(&self, open: usize) -> usize {
        let toks = self.tokens();
        let mut depth = 0i32;
        for (off, t) in toks.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return off + 1;
                    }
                }
                _ => {}
            }
        }
        toks.len()
    }

    /// Body spans of functions whose leading comment run contains a
    /// `hot-path` marker.
    fn find_hot_fn_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        for i in 0..self.tokens().len() {
            if self.ident_at(i) != Some("fn") || self.in_attr[i] {
                continue;
            }
            let start = self.item_start(i);
            if !self.has_hot_path_marker_above(self.line_of(start)) {
                continue;
            }
            if let Some(open) = self.fn_body_open(i) {
                spans.push((open, self.matching_close(open)));
            }
        }
        spans
    }

    // ---- R1 ---------------------------------------------------------------

    fn check_safety(&self, out: &mut Vec<Diagnostic>) {
        for i in 0..self.tokens().len() {
            if self.ident_at(i) != Some("unsafe") || self.in_attr[i] {
                continue;
            }
            // `unsafe` in a type position (`unsafe fn` pointer types,
            // `unsafe extern` blocks) is rare here; treat every keyword
            // use as a site needing justification.
            let start = self.item_start(i);
            let line = self.line_of(start);
            let same_line = self.lexed.comment_on(self.line_of(i));
            let above = self.comment_run_above(line);
            let ok = same_line.contains("SAFETY:")
                || above.contains("SAFETY:")
                || above.contains("# Safety");
            if !ok {
                let what = match self.ident_at(i + 1) {
                    Some("fn") => "unsafe fn",
                    Some("impl") => "unsafe impl",
                    _ => "unsafe block",
                };
                self.emit(
                    out,
                    self.line_of(i),
                    Rule::SafetyComment,
                    format!("{what} without an immediately-preceding `// SAFETY:` comment"),
                );
            }
        }
    }

    // ---- R2 ---------------------------------------------------------------

    fn check_no_panic(&self, out: &mut Vec<Diagnostic>) {
        for i in 0..self.tokens().len() {
            let Some(name) = self.ident_at(i) else {
                continue;
            };
            if self.in_attr[i] {
                continue;
            }
            match name {
                "unwrap" | "expect" => {
                    let method = i > 0
                        && self.punct_at(i - 1) == Some('.')
                        && self.punct_at(i + 1) == Some('(');
                    if method {
                        self.emit(
                            out,
                            self.line_of(i),
                            Rule::NoPanicPaths,
                            format!("`.{name}()` in library code; return a typed error instead"),
                        );
                    }
                }
                "panic" | "todo" | "unimplemented" if self.punct_at(i + 1) == Some('!') => {
                    self.emit(
                        out,
                        self.line_of(i),
                        Rule::NoPanicPaths,
                        format!("`{name}!` in library code; return a typed error instead"),
                    );
                }
                _ => {}
            }
        }
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

    // ---- R4 ---------------------------------------------------------------

    fn check_lock_recover(&self, out: &mut Vec<Diagnostic>) {
        for i in 0..self.tokens().len() {
            let Some(name) = self.ident_at(i) else {
                continue;
            };
            if !matches!(name, "lock" | "read" | "write") || self.in_attr[i] {
                continue;
            }
            // `.lock()` / `.read()` / `.write()` with an empty argument
            // list — the Mutex/RwLock acquisition shape. IO calls such as
            // `write_all(buf)` have arguments and stay untouched.
            let bare_acquire = i > 0
                && self.punct_at(i - 1) == Some('.')
                && self.punct_at(i + 1) == Some('(')
                && self.punct_at(i + 2) == Some(')');
            if bare_acquire {
                self.emit(
                    out,
                    self.line_of(i),
                    Rule::LockRecover,
                    format!(
                        "bare `.{name}()` acquisition; use the poison-safe `lock_recover` helper"
                    ),
                );
            }
        }
    }

    // ---- R5 ---------------------------------------------------------------

    fn check_missing_docs(&self, out: &mut Vec<Diagnostic>) {
        const ITEM_KEYWORDS: [&str; 7] =
            ["fn", "struct", "enum", "trait", "type", "const", "static"];
        for i in 0..self.tokens().len() {
            if self.ident_at(i) != Some("pub") || self.in_attr[i] {
                continue;
            }
            // `pub(crate)` / `pub(super)` are not public API.
            if self.punct_at(i + 1) == Some('(') {
                continue;
            }
            // Item position: previous non-attribute token opens/closes a
            // block or ends a statement. Tuple-struct fields (`(pub f32)`)
            // and similar positions are skipped.
            let mut p = i;
            while p > 0 && self.in_attr[p - 1] {
                p -= 1;
            }
            if p > 0 && !matches!(self.punct_at(p - 1), Some('{') | Some('}') | Some(';')) {
                continue;
            }
            // Reach the item keyword through modifiers.
            let mut j = i + 1;
            while matches!(
                self.ident_at(j),
                Some("unsafe") | Some("async") | Some("extern") | Some("default")
            ) || matches!(self.tokens().get(j).map(|t| &t.kind), Some(TokKind::Str))
            {
                j += 1;
            }
            // `pub const fn` is a fn; bare `pub const NAME` is a const.
            if self.ident_at(j) == Some("const") && self.ident_at(j + 1) == Some("fn") {
                j += 1;
            }
            let Some(kw) = self.ident_at(j) else { continue };
            if !ITEM_KEYWORDS.contains(&kw) {
                continue;
            }
            let item_name = self.ident_at(j + 1).unwrap_or("?").to_string();
            let start = self.item_start(j);
            if !self.has_doc_above(self.line_of(start)) {
                self.emit(
                    out,
                    self.line_of(i),
                    Rule::MissingDocs,
                    format!("public {kw} `{item_name}` has no doc comment"),
                );
            }
        }
    }

    // ---- R7 ---------------------------------------------------------------

    /// Identifiers declared with a std hash-container type in this file:
    /// `name: [&][mut] HashMap<…>` fields/params/annotations and
    /// `let name = HashMap::new()`-style bindings.
    fn hash_typed_names(&self) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for i in 0..self.tokens().len() {
            let Some(ty) = self.ident_at(i) else { continue };
            if !(ty == "HashMap" || ty == "HashSet") || self.in_attr[i] {
                continue;
            }
            let mut j = i;
            while j > 0
                && (self.punct_at(j - 1) == Some('&') || self.ident_at(j - 1) == Some("mut"))
            {
                j -= 1;
            }
            if j < 2 {
                continue;
            }
            // `a :: HashMap` is a use/path position, not a declaration.
            let decl = (self.punct_at(j - 1) == Some(':') && self.punct_at(j - 2) != Some(':'))
                || self.punct_at(j - 1) == Some('=');
            if decl {
                if let Some(v) = self.ident_at(j - 2) {
                    names.insert(v.to_string());
                }
            }
        }
        names
    }

    /// The iteration at token `i` feeds a `let [mut] v = ….collect();`
    /// binding that is sorted in the immediately following statement —
    /// the blessed "sorted drain" shape.
    fn sorted_after(&self, i: usize) -> bool {
        // Find the binding variable: walk back to the statement start and
        // expect `let [mut] v =`.
        let mut j = i;
        while j > 0 {
            match self.punct_at(j - 1) {
                Some(';') | Some('{') | Some('}') => break,
                _ => j -= 1,
            }
        }
        let var = match (self.ident_at(j), self.ident_at(j + 1), self.ident_at(j + 2)) {
            (Some("let"), Some("mut"), Some(v)) => v.to_string(),
            (Some("let"), Some(v), _) => v.to_string(),
            _ => return false,
        };
        // Find the `;` ending this statement, then require `v.sort…(` next.
        let mut k = i;
        while k < self.tokens().len() && self.punct_at(k) != Some(';') {
            k += 1;
        }
        self.ident_at(k + 1) == Some(var.as_str())
            && self.punct_at(k + 2) == Some('.')
            && self.ident_at(k + 3).is_some_and(|m| m.starts_with("sort"))
            && self.punct_at(k + 4) == Some('(')
    }

    fn check_determinism(&self, out: &mut Vec<Diagnostic>) {
        const ITER_METHODS: [&str; 10] = [
            "iter",
            "iter_mut",
            "keys",
            "values",
            "values_mut",
            "drain",
            "into_iter",
            "into_keys",
            "into_values",
            "retain",
        ];
        let hash_vars = self.hash_typed_names();
        let toks = self.tokens();
        for i in 0..toks.len() {
            let Some(name) = self.ident_at(i) else {
                continue;
            };
            if self.in_attr[i] {
                continue;
            }
            match name {
                "now"
                    if self.path_prefix_is(i, "Instant")
                        || self.path_prefix_is(i, "SystemTime") =>
                {
                    self.emit(
                        out,
                        self.line_of(i),
                        Rule::DeterminismScope,
                        "wall-clock `::now()` in a determinism-critical scope; take time from the injected `Clock`".to_string(),
                    );
                }
                "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => {
                    self.emit(
                        out,
                        self.line_of(i),
                        Rule::DeterminismScope,
                        format!("entropy-seeded RNG (`{name}`); derive randomness from the run seed (splitmix64)"),
                    );
                }
                "available_parallelism" => {
                    self.emit(
                        out,
                        self.line_of(i),
                        Rule::DeterminismScope,
                        "bare `available_parallelism`; thread counts must come from configuration"
                            .to_string(),
                    );
                }
                "in" => {
                    // `for x in [&][mut] path.to.hash { … }` — direct
                    // iteration of a hash container.
                    let mut j = i + 1;
                    while self.punct_at(j) == Some('&') || self.ident_at(j) == Some("mut") {
                        j += 1;
                    }
                    if self.ident_at(j).is_none() {
                        continue;
                    }
                    while self.punct_at(j + 1) == Some('.') && self.ident_at(j + 2).is_some() {
                        j += 2;
                    }
                    let last = self.ident_at(j).unwrap_or_default();
                    if self.punct_at(j + 1) == Some('{') && hash_vars.contains(last) {
                        self.emit(
                            out,
                            self.line_of(j),
                            Rule::DeterminismScope,
                            format!("iteration over std hash container `{last}` is order-nondeterministic; use BTreeMap/BTreeSet or sort after collecting"),
                        );
                    }
                }
                m if ITER_METHODS.contains(&m)
                    && i >= 2
                    && self.punct_at(i - 1) == Some('.')
                    && self.punct_at(i + 1) == Some('(') =>
                {
                    let Some(recv) = self.ident_at(i - 2) else {
                        continue;
                    };
                    if hash_vars.contains(recv) && !self.sorted_after(i) {
                        self.emit(
                            out,
                            self.line_of(i),
                            Rule::DeterminismScope,
                            format!("`.{m}()` on std hash container `{recv}` is order-nondeterministic; use BTreeMap/BTreeSet or a sorted drain"),
                        );
                    }
                }
                _ => {}
            }
        }
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

// ---- R8 (cross-file) ------------------------------------------------------

/// R8 over a file set: every `#[target_feature]` or intrinsic-calling fn
/// in the conv kernel file must have a scalar twin (a second same-name
/// definition — the cfg pair — or a `*_scalar` sibling) and be
/// transitively reachable from a `*parity*` test file or module. When no
/// file in the set is a policy kernel file (fixture mode), every given
/// file is treated as one.
pub fn check_twin_coverage(files: &[&FileContext], out: &mut Vec<Diagnostic>) {
    let mut idx = FnIndex::default();
    for f in files {
        let disp = f.path.to_string_lossy().replace('\\', "/");
        idx.add_file(&disp, &f.lexed, &f.tree, &|_| false);
    }
    // Seeds: every identifier in *parity* files, plus identifiers inside
    // modules whose name contains "parity" (single-file fixtures).
    let mut seeds: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let stem_parity = f
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().contains("parity"))
            .unwrap_or(false);
        if stem_parity {
            for t in &f.lexed.tokens {
                if let TokKind::Ident(s) = &t.kind {
                    seeds.insert(s.clone());
                }
            }
        } else {
            for m in &f.tree.modules {
                if !m.name.contains("parity") {
                    continue;
                }
                for t in &f.lexed.tokens[m.body.0..m.body.1] {
                    if let TokKind::Ident(s) = &t.kind {
                        seeds.insert(s.clone());
                    }
                }
            }
        }
    }
    let covered = idx.reachable(&seeds);

    let policy_kernels: Vec<&FileContext> = files
        .iter()
        .copied()
        .filter(|f| rules_for(&f.path).contains(&Rule::TwinCoverage))
        .collect();
    let kernel_files: Vec<&FileContext> = if policy_kernels.is_empty() {
        files.to_vec()
    } else {
        policy_kernels
    };
    for f in kernel_files {
        let disp = f.path.to_string_lossy().replace('\\', "/");
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        let nodes: Vec<_> = idx
            .by_name
            .values()
            .flatten()
            .filter(|n| n.file == disp && (n.target_feature || n.intrinsics))
            .collect();
        for node in nodes {
            if f.in_test_region(node.line) || !reported.insert(node.name.as_str()) {
                continue;
            }
            let defs = idx.defs(&node.name);
            let base = node
                .name
                .rsplit_once('_')
                .map(|(b, _)| b)
                .unwrap_or(&node.name);
            let twin = defs.len() >= 2
                || idx.by_name.contains_key(&format!("{}_scalar", node.name))
                || idx.by_name.contains_key(&format!("{base}_scalar"));
            if !twin {
                f.emit(
                    out,
                    node.line,
                    Rule::TwinCoverage,
                    format!(
                        "kernel fn `{}` has no scalar twin (no cfg-paired second definition or `*_scalar` sibling)",
                        node.name
                    ),
                );
            }
            if !covered.contains(&node.name) {
                f.emit(
                    out,
                    node.line,
                    Rule::TwinCoverage,
                    format!(
                        "kernel fn `{}` is not reachable from any *parity* test, so the bitwise twin contract is untested",
                        node.name
                    ),
                );
            }
        }
    }
}

// ---- R10 (cross-file) -----------------------------------------------------

/// R10 over a file set: index every fn outside `#[cfg(test)]` modules,
/// walk the name-level reference edges from the fns the root files
/// define, and report each unrestricted `pub fn` of a library file the
/// walk never names. The index is R8's — identifiers, not resolved paths
/// — so a same-named fn or field anywhere on a live path keeps an item
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
        idx.add_file(&disp, &f.lexed, &f.tree, &|line| f.in_test_region(line));
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
