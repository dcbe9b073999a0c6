//! Fixture-driven rule tests: each `d<n>_bad.rs` fixture fires its rule
//! exactly once; the blessed and adversarial fixtures stay silent. (The
//! fixtures of the rules clippy now enforces live in
//! `.github/lint-fixtures/`, where CI plants them into a crate and
//! requires clippy to reject each.)
//!
//! Fixtures are analyzed under **synthetic** `crates/fixture/src/…` paths:
//! the parser treats real `tests/` paths as test-like (rules are relaxed
//! there), which would defeat the point of the fixtures.

use dpmd_analyze::analyze_source;
use dpmd_analyze::config::{Config, HotPath};
use dpmd_analyze::diag::{Finding, RuleId};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Analyze fixture `name` under a synthetic production path.
fn run(name: &str, cfg: &Config) -> Vec<Finding> {
    analyze_source(&format!("crates/fixture/src/{name}"), &fixture(name), cfg)
}

/// The config fixtures run under: default rules plus the D5/D7 fixtures'
/// hot-path registrations.
fn fixture_config() -> Config {
    let mut cfg = Config::default();
    cfg.hotpaths.push(HotPath {
        path_suffix: "crates/fixture/src/d5_bad.rs".to_string(),
        fn_name: "hot_inner".to_string(),
    });
    cfg.hotpaths.push(HotPath {
        path_suffix: "crates/fixture/src/d7_bad.rs".to_string(),
        fn_name: "hot_entry".to_string(),
    });
    cfg
}

fn assert_fires_once(name: &str, rule: RuleId) {
    let findings = run(name, &fixture_config());
    assert_eq!(
        findings.len(),
        1,
        "{name} must produce exactly one finding, got {findings:?}"
    );
    assert_eq!(findings[0].rule, rule, "{name} fired the wrong rule: {findings:?}");
    assert!(findings[0].line > 0, "{name} finding must carry a line");
}

#[test]
fn d2_bad_fires_exactly_once() {
    assert_fires_once("d2_bad.rs", RuleId::D2);
}

#[test]
fn d5_bad_fires_exactly_once() {
    assert_fires_once("d5_bad.rs", RuleId::D5);
}

#[test]
fn d6_bad_fires_exactly_once() {
    assert_fires_once("d6_bad.rs", RuleId::D6);
}

#[test]
fn d7_bad_fires_exactly_once() {
    assert_fires_once("d7_bad.rs", RuleId::D7);
}

#[test]
fn d10_bad_fires_exactly_once() {
    assert_fires_once("d10_bad.rs", RuleId::D10);
}

#[test]
fn d7_fixture_is_quiet_without_registration() {
    // Reachability starts at the hot-path manifest: with no roots, the
    // allocating helper is unreachable by definition.
    let findings = run("d7_bad.rs", &Config::default());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d10_fixture_is_quiet_with_blessed_edges() {
    let mut cfg = fixture_config();
    cfg.d10_blessed_edges.push(("fixture::a".to_string(), "fixture::b".to_string()));
    cfg.d10_blessed_edges.push(("fixture::b".to_string(), "fixture::a".to_string()));
    let findings = run("d10_bad.rs", &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn blessed_patterns_stay_silent() {
    let findings = run("blessed.rs", &fixture_config());
    assert!(findings.is_empty(), "blessed fixture must be clean: {findings:?}");
}

#[test]
fn adversarial_decoys_stay_silent() {
    let findings = run("adversarial.rs", &fixture_config());
    assert!(findings.is_empty(), "adversarial fixture must be clean: {findings:?}");
}

#[test]
fn d5_fixture_is_quiet_without_registration() {
    // The hot-path manifest is opt-in: the same allocation is legal in an
    // unregistered function.
    let findings = run("d5_bad.rs", &Config::default());
    assert!(findings.is_empty(), "{findings:?}");
}
