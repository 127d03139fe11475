//! Golden tests: each fixture under `fixtures/` is a known-bad snippet
//! (never compiled — outside every Cargo source tree) linted under a
//! virtual workspace path, with the exact expected `(line, rule)` set.
//! The final test runs the real [`gfaas_analyze::lint_workspace`] over
//! this repository and requires zero diagnostics — the linter gates CI
//! with `--deny-all`, so this test failing means either new
//! nondeterministic code or a rule regression, and both must be loud.

use std::path::Path;

use gfaas_analyze::engine::{BAD_WAIVER, UNUSED_WAIVER};
use gfaas_analyze::{lint_source, lint_workspace};

/// Lints one fixture file under a virtual workspace path and returns
/// the `(line, rule)` pairs found.
fn lint_fixture(fixture: &str, virtual_path: &str) -> Vec<(u32, &'static str)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    lint_source(virtual_path, &src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn hash_iter_fixture() {
    assert_eq!(
        lint_fixture("hash_iter.rs", "crates/core/src/bad.rs"),
        [(4, "hash-iter"), (8, "hash-iter")]
    );
    // The same code in a non-deterministic crate: only the waiver
    // (now matching nothing) is reported.
    assert_eq!(
        lint_fixture("hash_iter.rs", "crates/faas/src/ok.rs"),
        [(12, UNUSED_WAIVER)]
    );
}

#[test]
fn wall_clock_fixture() {
    assert_eq!(
        lint_fixture("wall_clock.rs", "crates/sim/src/bad.rs"),
        [(4, "wall-clock"), (7, "wall-clock"), (9, "wall-clock")]
    );
    // Allowlisted locations: the bench crate, the live crate, examples.
    assert!(lint_fixture("wall_clock.rs", "crates/bench/src/ok.rs").is_empty());
    assert!(lint_fixture("wall_clock.rs", "crates/live/src/server.rs").is_empty());
    // A file named `live.rs` elsewhere is not exempt.
    assert_eq!(
        lint_fixture("wall_clock.rs", "crates/core/src/live.rs"),
        [(4, "wall-clock"), (7, "wall-clock"), (9, "wall-clock")]
    );
    assert!(lint_fixture("wall_clock.rs", "examples/demo.rs").is_empty());
}

#[test]
fn obs_guard_fixture() {
    assert_eq!(
        lint_fixture("obs_guard.rs", "crates/core/src/bad.rs"),
        [(16, "obs-guard"), (20, "obs-guard")]
    );
    // Outside gfaas-core the rule is silent (recorders match on events).
    assert!(lint_fixture("obs_guard.rs", "crates/obs/src/ok.rs").is_empty());
}

#[test]
fn no_unsafe_fixture() {
    // Fires regardless of crate.
    assert_eq!(
        lint_fixture("no_unsafe.rs", "crates/bench/src/bad.rs"),
        [(5, "no-unsafe")]
    );
    assert_eq!(
        lint_fixture("no_unsafe.rs", "tests/bad.rs"),
        [(5, "no-unsafe")]
    );
}

#[test]
fn float_ord_fixture() {
    assert_eq!(
        lint_fixture("float_ord.rs", "crates/sim/src/bad.rs"),
        [(5, "float-ord"), (10, "float-ord")]
    );
    assert!(lint_fixture("float_ord.rs", "crates/faas/src/ok.rs").is_empty());
}

#[test]
fn snap_mutate_fixture() {
    assert_eq!(
        lint_fixture("snap_mutate.rs", "crates/core/src/scheduler.rs"),
        [
            (5, "snap-mutate"),
            (6, "snap-mutate"),
            (7, "snap-mutate"),
            (8, "snap-mutate"),
        ]
    );
    // The write API itself — any file of the `cluster` module — is
    // exempt: its waiver (now matching nothing) is the only report.
    for path in [
        "crates/core/src/cluster.rs",
        "crates/core/src/cluster/mod.rs",
        "crates/core/src/cluster/batch.rs",
    ] {
        assert_eq!(
            lint_fixture("snap_mutate.rs", path),
            [(23, UNUSED_WAIVER)],
            "{path}"
        );
    }
    // Other crates never see the rule.
    assert_eq!(
        lint_fixture("snap_mutate.rs", "crates/store/src/lib.rs"),
        [(23, UNUSED_WAIVER)]
    );
}

#[test]
fn waivers_fixture() {
    // Three malformed waivers, one stale one; the well-formed waiver on
    // line 17 silently covers the Instant::now on line 18.
    assert_eq!(
        lint_fixture("waivers.rs", "crates/sim/src/bad.rs"),
        [
            (4, BAD_WAIVER),
            (7, BAD_WAIVER),
            (10, BAD_WAIVER),
            (13, UNUSED_WAIVER),
        ]
    );
}

#[test]
fn workspace_is_clean_under_deny_all() {
    // CARGO_MANIFEST_DIR = crates/analyze; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = lint_workspace(root).expect("scan workspace");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace must lint clean (every finding fixed or waived with a reason):\n{}",
        rendered.join("\n")
    );
    assert_eq!(report.failures(true), 0);
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(
        report.files > 100,
        "suspiciously few files scanned: {}",
        report.files
    );
}
