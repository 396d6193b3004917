//! End-to-end tests for the lint engine: each bad fixture must trip its rule
//! at the expected line, and the clean fixture must produce zero findings
//! even with every rule enabled.

use std::path::Path;

use analysis::{check_source, check_unreached_pub, Diagnostic, FileContext, Rule};

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

fn run_fixture(name: &str, rules: &[Rule]) -> Vec<Diagnostic> {
    check_source(Path::new(name), &read_fixture(name), rules)
}

/// R10, then R9, over `r10_lib.rs` and its facade standing in a crate's
/// `src/`, plus the given root fixtures at the workspace paths they name.
fn run_r10(roots: &[(&str, &str)]) -> Vec<Diagnostic> {
    let placed = [
        ("r10_lib.rs", "crates/demo/src/r10_lib.rs"),
        ("r10_facade.rs", "crates/demo/src/lib.rs"),
    ];
    let files: Vec<FileContext> = placed
        .iter()
        .chain(roots)
        .map(|(name, at)| FileContext::new(Path::new(at), &read_fixture(name)))
        .collect();
    let mut diags = Vec::new();
    check_unreached_pub(&files.iter().collect::<Vec<_>>(), &mut diags);
    for file in &files {
        file.check_allow_hygiene(&mut diags);
    }
    diags
}

fn lines_for(diags: &[Diagnostic], rule: Rule) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn r3_flags_hot_path_alloc_and_timing_only() {
    let diags = run_fixture("r3_bad.rs", &[Rule::HotPathAlloc]);
    // Instant::now (5), Vec::new (6), to_vec (8) — all inside the marked fn.
    assert_eq!(lines_for(&diags, Rule::HotPathAlloc), vec![5, 6, 8]);
    // The unmarked sibling with identical body must stay silent, so no
    // diagnostic past the marked fn's closing brace (line 12).
    assert!(
        diags.iter().all(|d| d.line <= 12),
        "cold fn was flagged: {diags:?}"
    );
}

#[test]
fn r6_flags_both_directions_of_a_lock_cycle_and_reacquisition() {
    let diags = run_fixture("r6_bad.rs", &[Rule::LockOrder]);
    // rx→stats (22) and stats→rx (30) form the cycle; the queue
    // re-acquisition surfaces at the call site (38) via one-level inlining.
    assert_eq!(lines_for(&diags, Rule::LockOrder), vec![22, 30, 38]);
    assert!(
        diags[2].message.contains("re-acquired"),
        "inlined self-edge should name reentrancy: {}",
        diags[2].message
    );
}

#[test]
fn r9_flags_stale_unknown_and_moved_markers_but_not_live_ones() {
    let diags = run_fixture("r9_bad.rs", &[Rule::HotPathAlloc, Rule::AllowHygiene]);
    // Line 6's marker suppresses a real R3 finding, so it is live and
    // produces nothing; line 11 is stale, line 16 names a rule that never
    // existed and line 21 one that moved to clippy.
    assert!(lines_for(&diags, Rule::HotPathAlloc).is_empty());
    assert_eq!(lines_for(&diags, Rule::AllowHygiene), vec![11, 16, 21]);
    assert!(diags[1].message.contains("unknown rule `r42`"));
    assert!(diags[2].message.contains("unknown rule `r2`"));
}

#[test]
fn r10_flags_what_only_unit_tests_and_reexports_reach_and_r9_a_marker_on_a_live_fn() {
    let diags = run_r10(&[
        ("r10_example.rs", "examples/r10_example.rs"),
        ("r10_bin.rs", "crates/demo/src/bin/r10_bin.rs"),
    ]);
    // only_unit_tested (5) has a `#[cfg(test)]` caller, reexported_only
    // (10) a `pub use`. Alive: the example's and the bin's callees, the
    // two-hop chain under the example, the marked item (36) and what only
    // it calls (41); `helper` (56) sits in a test module.
    assert_eq!(lines_for(&diags, Rule::UnreachedPub), vec![5, 10]);
    assert!(diags[0].message.contains("`pub fn only_unit_tested`"));
    // Line 35's marker silenced kept_for_tests; line 46's sits on a fn the
    // example calls, which makes it an R9 finding.
    assert_eq!(lines_for(&diags, Rule::AllowHygiene), vec![46]);
}

#[test]
fn r10_walks_from_examples_and_bins_only() {
    // Without the bin its callee (20) is unreached.
    let diags = run_r10(&[("r10_example.rs", "examples/r10_example.rs")]);
    assert_eq!(lines_for(&diags, Rule::UnreachedPub), vec![5, 10, 20]);
    // Without the example, its callee (15) and the chain under it (25, 30)
    // go too, and the once-stale marker on line 46 now silences line 47.
    let diags = run_r10(&[("r10_bin.rs", "crates/demo/src/bin/r10_bin.rs")]);
    assert_eq!(
        lines_for(&diags, Rule::UnreachedPub),
        vec![5, 10, 15, 25, 30]
    );
    assert!(lines_for(&diags, Rule::AllowHygiene).is_empty());
}

#[test]
fn clean_fixture_passes_every_rule() {
    let diags = run_fixture("clean.rs", &Rule::all());
    assert!(
        diags.is_empty(),
        "clean fixture produced findings: {diags:?}"
    );
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let diags = run_fixture("r3_bad.rs", &[Rule::HotPathAlloc]);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("r3_bad.rs:5: [R3]"),
        "unexpected rendering: {rendered}"
    );
}
