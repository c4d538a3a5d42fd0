//! Negative tests: each lint must fire on its seeded-violation fixture
//! with the exact diagnostic (file, 1-based line, lint name, message)
//! recorded in the fixture's `expected.txt` — and the real workspace
//! must be clean.
//!
//! This duplicates what `cargo xtask fixtures` checks so that a plain
//! `cargo test` also proves the lints are live, not just compiled.

use std::path::{Path, PathBuf};
use xtask::{closure, coverage, determinism, hotpath, nopanic, schemafp, Config, Diagnostic};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> Config {
    Config::new(repo_root().join("crates/xtask/fixtures").join(name))
}

fn expected(name: &str) -> Vec<String> {
    let path = repo_root()
        .join("crates/xtask/fixtures")
        .join(name)
        .join("expected.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect()
}

fn rendered(diags: Vec<Diagnostic>) -> Vec<String> {
    diags.iter().map(ToString::to_string).collect()
}

#[test]
fn hotpath_lint_fires_on_seeded_allocation() {
    let got = rendered(hotpath::check(&fixture("hotpath_violation")));
    assert_eq!(got, expected("hotpath_violation"));
}

#[test]
fn hotpath_lint_fires_on_seeded_soa_dispatch_allocation() {
    // The data-oriented engine's shape specifically: a dispatch-style
    // loop over occupied nodes whose scratch should live in a reused
    // dispatch buffer, seeded with per-call allocations instead.
    let got = rendered(hotpath::check(&fixture("hotpath_soa_violation")));
    assert_eq!(got, expected("hotpath_soa_violation"));
}

#[test]
fn hotpath_lint_fires_on_seeded_trace_buffer_allocation() {
    // The trace writer's shape: a per-event emit hook that must append
    // into the observer's reused sized buffer, seeded with a fresh
    // String per event instead.
    let got = rendered(hotpath::check(&fixture("hotpath_tracebuf_violation")));
    assert_eq!(got, expected("hotpath_tracebuf_violation"));
}

#[test]
fn schema_drift_lint_fires_on_stale_fingerprint() {
    let got = rendered(schemafp::check(&fixture("schema_drift")));
    assert_eq!(got, expected("schema_drift"));
}

#[test]
fn coverage_lint_fires_in_both_directions() {
    let got = rendered(coverage::check(&fixture("coverage_gap")));
    assert_eq!(got, expected("coverage_gap"));
}

#[test]
fn bless_refuses_unbumped_drift() {
    // The schema_drift fixture models exactly the state --bless must not
    // paper over: fingerprint moved, SCHEMA_VERSION did not.
    let err = schemafp::bless(&fixture("schema_drift"))
        .expect_err("bless must refuse drift without a version bump");
    assert_eq!(err.lint, "schema-drift");
    assert_eq!(err.file, "crates/hotpotato-sim/src/event.rs");
    assert!(err.msg.contains("bump SCHEMA_VERSION"), "{}", err.msg);
}

#[test]
fn closure_lint_fires_on_seeded_transitive_allocation() {
    let got = rendered(closure::check(&fixture("hotpath_closure_violation")));
    assert_eq!(got, expected("hotpath_closure_violation"));
}

#[test]
fn closure_lint_follows_trait_qualified_calls_into_impls() {
    // The allocation sits in an `impl Trait for T` method the hot-path
    // fn reaches only as `Trait::m(self, ..)`: the trait's own item has
    // no body, so only trait-path resolution finds it.
    let cfg = fixture("hotpath_closure_trait_violation");
    assert!(hotpath::check(&cfg).is_empty());
    let got = rendered(closure::check(&cfg));
    assert_eq!(got, expected("hotpath_closure_trait_violation"));
}

#[test]
fn closure_fixture_is_invisible_to_the_intraprocedural_lint() {
    // The acceptance criterion for the call-graph layer: the seeded
    // allocation sits two calls below the hot-path fn, so the old
    // per-function `hot-path-alloc` must see a clean tree while the
    // closure lint flags it.
    let cfg = fixture("hotpath_closure_violation");
    let intra = hotpath::check(&cfg);
    assert!(
        intra.is_empty(),
        "intraprocedural lint must miss it: {intra:#?}"
    );
    assert!(!closure::check(&cfg).is_empty());
}

#[test]
fn nopanic_lint_fires_on_seeded_panics() {
    let got = rendered(nopanic::check(&fixture("nopanic_violation")));
    assert_eq!(got, expected("nopanic_violation"));
}

#[test]
fn nopanic_fixture_counts_its_allowed_site() {
    // The fixture carries exactly one `// lint: allow-panic(reason)`
    // site; it must be suppressed from the diagnostics AND counted.
    let (diags, allowed) = nopanic::check_counted(&fixture("nopanic_violation"));
    assert_eq!(allowed, 1);
    assert!(
        !diags.iter().any(|d| d.msg.contains("table[0]")),
        "suppressed site leaked: {diags:#?}"
    );
}

#[test]
fn determinism_lint_fires_on_seeded_nondeterminism() {
    let got = rendered(determinism::check(&fixture("determinism_violation")));
    assert_eq!(got, expected("determinism_violation"));
}

#[test]
fn real_workspace_is_clean() {
    let cfg = Config::new(repo_root());
    let mut diags = hotpath::check(&cfg);
    diags.extend(schemafp::check(&cfg));
    diags.extend(coverage::check(&cfg));
    let g = xtask::callgraph::CallGraph::build(&cfg);
    diags.extend(closure::check_graph(&g));
    diags.extend(nopanic::check_graph(&g).0);
    diags.extend(determinism::check_graph(&g));
    assert!(diags.is_empty(), "{diags:#?}");
}
