//! Rule hit-counts flow through dpmd-obs: `record_metrics` must register
//! per-rule counters plus scan/suppression totals.

use dpmd_analyze::diag::{Finding, RuleId};
use dpmd_analyze::record_metrics;
use dpmd_obs::MetricsRegistry;

fn finding(rule: RuleId, line: u32) -> Finding {
    Finding {
        rule,
        path: "crates/fixture/src/lib.rs".to_string(),
        line,
        message: "test finding".to_string(),
        snippet: String::new(),
    }
}

#[test]
fn record_metrics_counts_rules_and_suppressions() {
    let reg = MetricsRegistry::new();
    let fresh = vec![finding(RuleId::D2, 1), finding(RuleId::D2, 2), finding(RuleId::D7, 3)];
    let baselined = vec![finding(RuleId::D5, 4)];
    record_metrics(&reg, &fresh, &baselined, 157);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("analyze.files_scanned"), Some(157));
    assert_eq!(snap.counter("analyze.findings.total"), Some(3 + 1));
    assert_eq!(snap.counter("analyze.findings.suppressed"), Some(1));
    assert_eq!(snap.counter("analyze.rule.d2"), Some(2));
    assert_eq!(snap.counter("analyze.rule.d7"), Some(1));
    assert_eq!(snap.counter("analyze.rule.d5"), Some(1));
    assert_eq!(snap.counter("analyze.rule.d6"), None, "unhit rules register no counter");
}

#[test]
fn record_graph_metrics_counts_nodes_edges_and_resolution() {
    use dpmd_analyze::graph::CallGraph;
    use dpmd_analyze::parser::parse_file;
    use dpmd_analyze::record_graph_metrics;
    use std::collections::BTreeMap;

    let files = vec![parse_file(
        "crates/demo/src/lib.rs",
        "pub fn leaf() {}\npub fn root() { leaf(); std::process::id(); }\n",
    )];
    let g = CallGraph::build(&files, &BTreeMap::new());

    let reg = MetricsRegistry::new();
    record_graph_metrics(&reg, &g);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("analyze.graph.nodes"), Some(2));
    assert_eq!(snap.counter("analyze.graph.edges"), Some(1));
    assert_eq!(snap.counter("analyze.graph.call_sites"), Some(g.stats.sites));
    assert_eq!(snap.counter("analyze.graph.resolved"), Some(1));
    assert_eq!(snap.counter("analyze.graph.external"), Some(g.stats.external));
    assert_eq!(snap.counter("analyze.graph.unresolved"), Some(0));
}
