//! `rptcn-analysis` — workspace-native static analysis.
//!
//! The serving stack promises things the compiler cannot check: every
//! `unsafe` block justified, no panics in library paths, allocation-free
//! hot paths, poison-safe locking, documented public API. This crate
//! machine-checks those promises on every commit:
//!
//! * a hand-rolled lexer ([`lex`]) — comment/string/raw-string aware,
//!   brace-tracking, no external parser (the offline build vendors every
//!   dependency, so `syn` is out of reach by design);
//! * a rule engine ([`rules`]) walking every file of the workspace
//!   (`crates/`, the root `src/`, `examples/` and `tests/`) and emitting
//!   CI-failing diagnostics with `file:line` output.
//!
//! The rule catalogue (see [`Rule`]) and the per-line allowlist syntax
//! (`// lint: allow(r2)`) are documented in DESIGN.md under
//! "Static analysis & sanitizers". Run locally with
//! `cargo run -p rptcn-analysis -- check`.

pub mod callgraph;
pub mod export;
pub mod item_tree;
pub mod lex;
pub mod lockgraph;
pub mod rules;

pub use rules::{
    check_lock_order, check_source, check_twin_coverage, check_unreached_pub, rules_for, severity,
    Diagnostic, FileContext, Rule, Severity,
};

use std::io;
use std::path::{Path, PathBuf};

/// Check every `.rs` file under `root`'s `crates/`, `src/`, `examples/`
/// and `tests/` with the rules the repo policy assigns to it
/// ([`rules_for`]), then run the cross-file rules: R6 (lock order) over
/// one graph spanning `serve` and `net`, R8 (twin coverage) over one
/// reference index that also ingests every `tests/` directory so
/// `*parity*` test files seed reachability, R10 (unreached `pub fn`) over
/// the library files and the roots it walks from — bins, examples, the
/// root facade — and finally R9 (allow hygiene) once every other rule has
/// recorded which markers it consulted. `target`, `vendor` and `fixtures`
/// directories are skipped (build output, stand-ins for published crates,
/// and inputs that are bad on purpose). Paths in diagnostics are relative
/// to `root` and files are visited in sorted order so output is
/// deterministic.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    // `crates/` must exist (a wrong `--root` is an error, not a clean
    // tree); the root package's own directories are optional.
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    for dir in ["src", "examples", "tests"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    // Integration tests feed R8's parity seeds and nothing else.
    let (test_files, src_files): (Vec<PathBuf>, Vec<PathBuf>) = files
        .into_iter()
        .partition(|p| p.components().any(|c| c.as_os_str() == "tests"));

    let load = |files: &[PathBuf]| -> io::Result<Vec<rules::FileContext>> {
        files
            .iter()
            .map(|file| {
                let text = std::fs::read_to_string(file)?;
                let rel = file.strip_prefix(root).unwrap_or(file);
                Ok(rules::FileContext::new(rel, &text))
            })
            .collect()
    };
    let contexts = load(&src_files)?;
    let test_contexts = load(&test_files)?;

    let mut out = Vec::new();
    // Per-file rules. R6/R8 run over file sets below; R9 runs last.
    for ctx in &contexts {
        for rule in rules_for(ctx.path()) {
            if matches!(
                rule,
                Rule::LockOrder | Rule::TwinCoverage | Rule::AllowHygiene | Rule::UnreachedPub
            ) {
                continue;
            }
            ctx.run_rule(rule, &mut out);
        }
    }
    // R6: one lock graph across every file in lock scope (serve + net).
    let lock_scope: Vec<&rules::FileContext> = contexts
        .iter()
        .filter(|c| rules_for(c.path()).contains(&Rule::LockOrder))
        .collect();
    check_lock_order(&lock_scope, &mut out);
    // R8: kernels + twins from src, parity seeds from test files too.
    let twin_scope: Vec<&rules::FileContext> =
        contexts.iter().chain(test_contexts.iter()).collect();
    check_twin_coverage(&twin_scope, &mut out);
    // R10: library files plus the roots the walk starts from.
    let all: Vec<&rules::FileContext> = contexts.iter().collect();
    check_unreached_pub(&all, &mut out);
    // R9: now that every rule has recorded its marker usage.
    for ctx in &contexts {
        ctx.check_allow_hygiene(&mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`, leaving out what is not
/// this workspace's code.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str());
            if !matches!(name, Some("target" | "vendor" | "fixtures")) {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
