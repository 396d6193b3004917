//! `rptcn-analysis` — workspace-native static analysis for what the
//! compiler cannot check.
//!
//! The serving stack's invariants are split in two. Those a lint can
//! state — justified `unsafe`, no panics in library paths, poison-safe
//! locking, deterministic replay, documented public API — are rustc and
//! clippy lint levels (the crate roots and `clippy.toml`). This crate
//! machine-checks the rest on every commit:
//!
//! * a hand-rolled lexer ([`lex`]) — comment/string/raw-string aware,
//!   brace-tracking, no external parser (the offline build vendors every
//!   dependency, so `syn` is out of reach by design);
//! * a rule engine ([`rules`]) walking every file of the workspace
//!   (`crates/`, the root `src/`, `examples/` and `tests/`) and emitting
//!   CI-failing diagnostics with `file:line` output.
//!
//! The rule catalogue (see [`Rule`]) and the per-line allowlist syntax
//! (`// lint: allow(r10)`) are documented in DESIGN.md §9. Run locally
//! with `cargo run -p rptcn-analysis -- check`.

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// R5: documented public API.
#![warn(missing_docs)]

pub mod callgraph;
pub mod item_tree;
pub mod lex;
pub mod lockgraph;
pub mod rules;

pub use rules::{
    check_lock_order, check_source, check_unreached_pub, rules_for, Diagnostic, FileContext, Rule,
};

use std::io;
use std::path::{Path, PathBuf};

/// Check every `.rs` file under `root`'s `crates/`, `src/` and
/// `examples/` with the rules the repo policy assigns to it
/// ([`rules_for`]), then run the cross-file rules: R6 (lock order) over
/// one graph spanning `serve` and `net`, R10 (unreached `pub fn`) over
/// the library files and the roots it walks from — bins, examples, the
/// root facade — and finally R9 (allow hygiene) once every other rule has
/// recorded which markers it consulted. `target`, `vendor`, `fixtures`
/// and `tests` directories are skipped (build output, stand-ins for
/// published crates, inputs that are bad on purpose, and integration
/// tests, which are no callers). Paths in diagnostics are relative to
/// `root` and files are visited in sorted order so output is
/// deterministic.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    // `crates/` must exist (a wrong `--root` is an error, not a clean
    // tree); the root package's own directories are optional.
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    for dir in ["src", "examples"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let contexts = files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)?;
            let rel = file.strip_prefix(root).unwrap_or(file);
            Ok(FileContext::new(rel, &text))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let mut out = Vec::new();
    // R3 file by file; R6 and R10 run over file sets below; R9 runs last.
    for ctx in &contexts {
        ctx.run_rule(Rule::HotPathAlloc, &mut out);
    }
    // R6: one lock graph across every file in lock scope (serve + net).
    let lock_scope: Vec<&FileContext> = contexts
        .iter()
        .filter(|c| rules_for(c.path()).contains(&Rule::LockOrder))
        .collect();
    check_lock_order(&lock_scope, &mut out);
    // R10: library files plus the roots the walk starts from.
    let all: Vec<&FileContext> = contexts.iter().collect();
    check_unreached_pub(&all, &mut out);
    // R9: now that every rule has recorded its marker usage.
    for ctx in &contexts {
        ctx.check_allow_hygiene(&mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`, leaving out what is not
/// this workspace's library or root code.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str());
            if !matches!(name, Some("target" | "vendor" | "fixtures" | "tests")) {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
