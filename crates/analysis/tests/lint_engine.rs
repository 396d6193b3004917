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
fn r1_flags_safety_less_unsafe_sites() {
    let diags = run_fixture("r1_bad.rs", &[Rule::SafetyComment]);
    // Line 5: unsafe block with no SAFETY comment.
    // Line 9: unsafe fn whose docs lack a safety note.
    assert_eq!(lines_for(&diags, Rule::SafetyComment), vec![5, 9]);
}

#[test]
fn r2_flags_each_panicking_call() {
    let diags = run_fixture("r2_bad.rs", &[Rule::NoPanicPaths]);
    // unwrap (4), expect (8), panic! (15), todo! (20).
    assert_eq!(lines_for(&diags, Rule::NoPanicPaths), vec![4, 8, 15, 20]);
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
fn r4_flags_bare_lock_acquisitions() {
    let diags = run_fixture("r4_bad.rs", &[Rule::LockRecover]);
    // m.lock() (6) and l.read() (11).
    assert_eq!(lines_for(&diags, Rule::LockRecover), vec![6, 11]);
}

#[test]
fn r5_flags_undocumented_public_items() {
    let diags = run_fixture("r5_bad.rs", &[Rule::MissingDocs]);
    // struct Widget (3), fn poke (8), enum Mode (13), const LIMIT (18).
    assert_eq!(lines_for(&diags, Rule::MissingDocs), vec![3, 8, 13, 18]);
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
fn r7_flags_clocks_rng_threads_and_hash_iteration_only() {
    let diags = run_fixture("r7_bad.rs", &[Rule::DeterminismScope]);
    // Instant::now (16), SystemTime::now (17), thread_rng (18),
    // available_parallelism (19), for-in over the HashMap (20),
    // .keys() on it (23). The BTreeMap loop (27) and the sorted
    // drain (31–32) must stay silent.
    assert_eq!(
        lines_for(&diags, Rule::DeterminismScope),
        vec![16, 17, 18, 19, 20, 23]
    );
}

#[test]
fn r8_flags_missing_twin_and_missing_parity_reference() {
    let diags = run_fixture("r8_bad.rs", &[Rule::TwinCoverage]);
    // row_avx (17) is twinned but unreferenced from gemm_parity;
    // dot_avx (27) is missing both the twin and the reference.
    assert_eq!(lines_for(&diags, Rule::TwinCoverage), vec![17, 27, 27]);
    assert!(diags.iter().any(|d| d.message.contains("scalar twin")));
    assert!(diags.iter().any(|d| d.message.contains("*parity*")));
}

#[test]
fn r9_flags_stale_and_unknown_markers_but_not_live_ones() {
    let diags = run_fixture("r9_bad.rs", &[Rule::NoPanicPaths, Rule::AllowHygiene]);
    // Line 5's marker suppresses a real R2 finding, so it is live and
    // produces nothing; line 10 is stale, line 15 names a rule that
    // does not exist.
    assert!(lines_for(&diags, Rule::NoPanicPaths).is_empty());
    assert_eq!(lines_for(&diags, Rule::AllowHygiene), vec![10, 15]);
    assert!(diags[1].message.contains("unknown rule"));
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
    let diags = run_fixture("r2_bad.rs", &[Rule::NoPanicPaths]);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("r2_bad.rs:4: [R2]"),
        "unexpected rendering: {rendered}"
    );
}
