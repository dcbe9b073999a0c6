//! Golden JSON snapshot of the fixture findings.
//!
//! The report serialization (`diag::to_json`) must be bit-stable:
//! canonically sorted, no timestamps, no map-order dependence. This test
//! runs the full fixture set twice, requires the two serializations to be
//! byte-identical, and compares against the committed golden file.
//!
//! Refresh after an intentional rule/message change with:
//! `DPMD_BLESS=1 cargo test -p dpmd-analyze --test golden_findings`

use dpmd_analyze::analyze_source;
use dpmd_analyze::config::{Config, HotPath};
use dpmd_analyze::diag::{self, Finding};

const BAD_FIXTURES: &[&str] = &["d2_bad.rs", "d5_bad.rs", "d6_bad.rs", "d7_bad.rs", "d10_bad.rs"];

fn analyze_all() -> Vec<Finding> {
    let mut cfg = Config::default();
    cfg.hotpaths.push(HotPath {
        path_suffix: "crates/fixture/src/d5_bad.rs".to_string(),
        fn_name: "hot_inner".to_string(),
    });
    cfg.hotpaths.push(HotPath {
        path_suffix: "crates/fixture/src/d7_bad.rs".to_string(),
        fn_name: "hot_entry".to_string(),
    });
    let mut findings = Vec::new();
    for name in BAD_FIXTURES {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        findings.extend(analyze_source(&format!("crates/fixture/src/{name}"), &src, &cfg));
    }
    diag::sort_findings(&mut findings);
    findings
}

#[test]
fn fixture_findings_match_the_golden_snapshot() {
    let first = diag::to_json(&analyze_all());
    let second = diag::to_json(&analyze_all());
    assert_eq!(first, second, "report serialization must be bit-stable across runs");

    let golden_path = format!("{}/tests/golden/findings.json", env!("CARGO_MANIFEST_DIR"));
    let rendered = first + "\n";
    if std::env::var("DPMD_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path}: {e} (run with DPMD_BLESS=1 to create)"));
    assert_eq!(
        rendered, golden,
        "fixture findings diverged from the golden snapshot; if the change is \
         intentional, refresh with DPMD_BLESS=1"
    );
}
