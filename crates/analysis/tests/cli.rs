//! Exit-code contract of the `rptcn-analysis` binary: zero on a clean tree,
//! non-zero with `file:line` diagnostics when any fixture rule fires.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a throwaway workspace root containing `crates/serve/src/<file>`
/// copied from the named fixture, so the CLI's workspace walk finds it and
/// the serve-crate rule policy (R2/R4/R5) applies.
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
    let root = scratch_root("bad", "r2_bad.rs");
    let out = run_check(&root);
    fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "bad tree must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("r2_bad.rs:4: [R2]"),
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
fn check_writes_a_sarif_report_alongside_text_diagnostics() {
    let root = scratch_root("sarif", "r2_bad.rs");
    let report = root.join("analysis.sarif");
    let out = Command::new(env!("CARGO_BIN_EXE_rptcn-analysis"))
        .args(["check", "--format", "sarif", "--out"])
        .arg(&report)
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn rptcn-analysis");
    let sarif = fs::read_to_string(&report).expect("SARIF report must exist");
    fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "deny findings must still fail");
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"R2\""));
    // Text diagnostics still land on stdout when --out takes the report.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("r2_bad.rs:4: [R2]"), "stdout: {stdout}");
}

#[test]
fn baseline_gates_warn_findings_both_ways() {
    // shard.rs in serve is warn scope for R7; the fixture's hash-map
    // iteration produces warn findings only.
    let root = scratch_root("baseline", "r7_bad.rs");
    fs::rename(
        root.join("crates/serve/src/r7_bad.rs"),
        root.join("crates/serve/src/shard.rs"),
    )
    .unwrap();

    // Without a baseline file, warn findings are informational.
    let out = run_check(&root);
    assert!(
        out.status.success(),
        "warn-only tree without a baseline must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A baseline that misses the findings fails with drift diagnostics.
    fs::write(
        root.join("analysis-baseline.json"),
        "{\n  \"version\": 1,\n  \"accepted\": [\"crates/serve/src/gone.rs:1:R7\"]\n}\n",
    )
    .unwrap();
    let out = run_check(&root);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!out.status.success(), "drift must fail: {stdout}");
    assert!(
        stdout.contains("new warn finding not in baseline"),
        "{stdout}"
    );
    assert!(stdout.contains("stale baseline entry"), "{stdout}");

    // --update-baseline rewrites it; the next run is clean.
    let out = Command::new(env!("CARGO_BIN_EXE_rptcn-analysis"))
        .args(["check", "--update-baseline", "--root"])
        .arg(&root)
        .output()
        .expect("spawn rptcn-analysis");
    assert!(out.status.success(), "update run must pass");
    let out = run_check(&root);
    fs::remove_dir_all(&root).ok();
    assert!(out.status.success(), "baselined tree must pass");
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
fn rules_lists_the_full_catalogue() {
    let out = Command::new(env!("CARGO_BIN_EXE_rptcn-analysis"))
        .arg("rules")
        .output()
        .expect("spawn rptcn-analysis");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"] {
        assert!(
            stdout.contains(&format!("{id}: ")),
            "missing {id}: {stdout}"
        );
    }
}
