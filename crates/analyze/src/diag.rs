//! Typed diagnostics and their deterministic JSON form.

use serde::Value;

/// The project invariants the analyzer enforces. The rules rustc and
/// clippy check exactly (D1, D3, D4, D8, D9) live in the workspace lint
/// table and `clippy.toml`; the kept rules keep their numbers, so inline
/// `dpmd-allow` audits stay valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Float accumulation over parallel/per-chunk results outside the
    /// blessed chunk-ordered reduction pattern.
    D2,
    /// Allocation inside a registered hot-path function.
    D5,
    /// Lock-order cycle (potential deadlock) in the cross-crate
    /// `Mutex`/`RwLock` acquisition graph.
    D6,
    /// Allocation in any function *reachable* from a registered hot path
    /// (transitive closure over the workspace call graph; closes D5's
    /// one-hop blind spot).
    D7,
    /// Interprocedural lock-order cycle: lock sets accumulated along real
    /// call chains (lifts D6 beyond single-function bodies).
    D10,
}

impl RuleId {
    pub const ALL: [RuleId; 5] = [RuleId::D2, RuleId::D5, RuleId::D6, RuleId::D7, RuleId::D10];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D2 => "D2",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::D10 => "D10",
        }
    }

    /// Parse a rule name like `"D5"` (None for anything else).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line description (shown in `--explain`-style summaries).
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D2 => "unordered float accumulation across parallel chunks",
            RuleId::D5 => "allocation inside a registered hot-path function",
            RuleId::D6 => "lock-order cycle (potential deadlock)",
            RuleId::D7 => "allocation reachable from a registered hot path",
            RuleId::D10 => "interprocedural lock-order cycle across call chains",
        }
    }
}

/// One diagnostic with a file:line span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Trimmed source line, for human output and review.
    pub snippet: String,
}

impl Finding {
    fn key(&self) -> (String, u32, RuleId, String) {
        (self.path.clone(), self.line, self.rule, self.message.clone())
    }
}

/// Sort findings into the canonical (path, line, rule) order that makes the
/// JSON report bit-stable across runs and platforms.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by_key(Finding::key);
}

/// Serialize findings as deterministic, timestamp-free JSON:
/// `{"findings":[{"rule":…,"path":…,"line":…,"message":…,"snippet":…}]}`.
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::String(f.rule.as_str().to_string())),
                ("path".to_string(), Value::String(f.path.clone())),
                ("line".to_string(), Value::Number(f.line.to_string())),
                ("message".to_string(), Value::String(f.message.clone())),
                ("snippet".to_string(), Value::String(f.snippet.clone())),
            ])
        })
        .collect();
    let root = Value::Object(vec![("findings".to_string(), Value::Array(items))]);
    serde_json::to_string(&root).expect("JSON print is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_and_stable() {
        let mut f = vec![
            Finding {
                rule: RuleId::D5,
                path: "b.rs".into(),
                line: 9,
                message: "m".into(),
                snippet: "s".into(),
            },
            Finding {
                rule: RuleId::D2,
                path: "a.rs".into(),
                line: 2,
                message: "m".into(),
                snippet: "s".into(),
            },
        ];
        sort_findings(&mut f);
        assert_eq!(f[0].path, "a.rs");
        let j = to_json(&f);
        assert!(j.starts_with("{\"findings\":[{\"rule\":\"D2\""));
        assert_eq!(j, to_json(&f), "printing twice must be identical");
    }
}
