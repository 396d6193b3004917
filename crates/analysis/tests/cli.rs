//! Exit-code contract of the `rptcn-analysis` binary: zero on a clean tree,
//! non-zero with `file:line` diagnostics when any fixture rule fires.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a throwaway workspace root containing `crates/serve/src/<file>`
/// copied from the named fixture, so the CLI's workspace walk finds it and
/// the serve-crate rule policy (R3, R6, R9, R10) applies.
fn scratch_root(tag: &str, fixture: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("rptcn-analysis-cli-{}-{tag}", std::process::id()));
    let src_dir = root.join("crates/serve/src");
    fs::create_dir_all(&src_dir).expect("create scratch workspace");
    let from = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    fs::copy(&from, src_dir.join(fixture)).expect("copy fixture");
    root
}

fn run_check(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rptcn-analysis"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("spawn rptcn-analysis")
}

#[test]
fn check_fails_loudly_on_a_bad_tree() {
    let root = scratch_root("bad", "r3_bad.rs");
    let out = run_check(&root);
    fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "bad tree must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("r3_bad.rs:5: [R3]"),
        "diagnostics must carry file:line: {stdout}"
    );
}

#[test]
fn check_passes_on_a_clean_tree() {
    let root = scratch_root("clean", "clean.rs");
    let out = run_check(&root);
    fs::remove_dir_all(&root).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "clean tree must pass: stdout={stdout} stderr={stderr}"
    );
}

#[test]
fn check_walks_examples_as_roots_and_integration_tests_as_nothing() {
    // A workspace whose one library file is called from an example and
    // from an integration test: the walk must find `examples/` (or every
    // `pub fn` is a finding) and must not start from `tests/`.
    let root = std::env::temp_dir().join(format!("rptcn-analysis-cli-{}-r10", std::process::id()));
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (fixture, at) in [
        ("r10_lib.rs", "crates/tensor/src/r10_lib.rs"),
        ("r10_example.rs", "examples/r10_example.rs"),
        ("r10_bin.rs", "tests/r10_bin.rs"),
    ] {
        let to = root.join(at);
        fs::create_dir_all(to.parent().expect("nested path")).expect("create scratch workspace");
        fs::copy(fixtures.join(fixture), to).expect("copy fixture");
    }
    let out = run_check(&root);
    fs::remove_dir_all(&root).ok();
    assert!(
        !out.status.success(),
        "unreached pub fns must fail the check"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let r10: Vec<&str> = stdout.lines().filter(|l| l.contains("[R10]")).collect();
    // only_unit_tested (5), reexported_only (10), and called_from_bin (20)
    // whose only caller stands under `tests/`.
    assert_eq!(r10.len(), 3, "{stdout}");
    assert!(
        r10[2].starts_with("crates/tensor/src/r10_lib.rs:20: [R10]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("r10_lib.rs:46: [R9]"),
        "stale marker: {stdout}"
    );
}

#[test]
fn rules_lists_the_catalogue_and_no_moved_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_rptcn-analysis"))
        .arg("rules")
        .output()
        .expect("spawn rptcn-analysis");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split(':').next()).collect();
    assert_eq!(ids, ["R3", "R6", "R9", "R10"], "{stdout}");
}
