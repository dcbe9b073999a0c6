//! Committed baseline suppression.
//!
//! The baseline is a JSON file of `{rule, path, count}` entries: up to
//! `count` findings of `rule` in `path` are suppressed (reported as
//! baselined, not failures). The intent is a ratchet — the committed
//! baseline should trend toward empty; new findings always fail `--deny`.
//! Refresh with `--bless` (or `DPMD_BLESS=1`) after an intentional change,
//! and justify any surviving entry with a comment in the finding's file.

use std::collections::BTreeMap;

use serde::Value;

use crate::diag::Finding;

/// Suppression budget per (rule, path).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// (rule, path) → allowed count. BTreeMap so serialization is ordered.
    pub entries: BTreeMap<(String, String), u64>,
}

impl Baseline {
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let v = serde_json::parse(text).map_err(|e| format!("baseline parse: {e}"))?;
        let mut entries = BTreeMap::new();
        let Some(Value::Array(items)) = v.get("entries") else {
            return Err("baseline needs a top-level \"entries\" array".to_string());
        };
        for item in items {
            let rule = match item.get("rule") {
                Some(Value::String(s)) => {
                    if crate::diag::RuleId::parse(s).is_none() {
                        return Err(format!("baseline entry names unknown rule {s:?}"));
                    }
                    s.clone()
                }
                _ => return Err("baseline entry missing \"rule\"".to_string()),
            };
            let path = match item.get("path") {
                Some(Value::String(s)) => s.clone(),
                _ => return Err("baseline entry missing \"path\"".to_string()),
            };
            let count = match item.get("count") {
                Some(Value::Number(n)) => {
                    n.parse::<u64>().map_err(|_| format!("bad count {n:?}"))?
                }
                _ => return Err("baseline entry missing \"count\"".to_string()),
            };
            entries.insert((rule, path), count);
        }
        Ok(Baseline { entries })
    }

    /// Serialize in canonical (rule, path) order — bit-stable.
    pub fn to_json(&self) -> String {
        let items: Vec<Value> = self
            .entries
            .iter()
            .filter(|(_, count)| **count > 0)
            .map(|((rule, path), count)| {
                Value::Object(vec![
                    ("rule".to_string(), Value::String(rule.clone())),
                    ("path".to_string(), Value::String(path.clone())),
                    ("count".to_string(), Value::Number(count.to_string())),
                ])
            })
            .collect();
        let root = Value::Object(vec![("entries".to_string(), Value::Array(items))]);
        serde_json::to_string(&root).expect("JSON print is infallible")
    }

    /// Build the baseline that exactly covers `findings` (for `--bless`).
    pub fn covering(findings: &[Finding]) -> Baseline {
        let mut entries: BTreeMap<(String, String), u64> = BTreeMap::new();
        for f in findings {
            *entries.entry((f.rule.as_str().to_string(), f.path.clone())).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Split `findings` into (fresh, baselined). Within a (rule, path)
    /// bucket the first `count` findings — canonical order — are baselined.
    pub fn split(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut budget: BTreeMap<(String, String), u64> = self.entries.clone();
        let mut fresh = Vec::new();
        let mut baselined = Vec::new();
        for f in findings {
            let key = (f.rule.as_str().to_string(), f.path.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    baselined.push(f);
                }
                _ => fresh.push(f),
            }
        }
        (fresh, baselined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::RuleId;

    fn f(rule: RuleId, path: &str, line: u32) -> Finding {
        Finding { rule, path: path.into(), line, message: "m".into(), snippet: "s".into() }
    }

    #[test]
    fn roundtrip_and_split() {
        let findings =
            vec![f(RuleId::D2, "a.rs", 1), f(RuleId::D2, "a.rs", 9), f(RuleId::D5, "b.rs", 2)];
        let b = Baseline::covering(&findings);
        let b2 = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, b2);

        let mut partial = b.clone();
        partial.entries.insert(("D2".into(), "a.rs".into()), 1);
        let (fresh, baselined) = partial.split(findings);
        assert_eq!(fresh.len(), 1, "second D2 in a.rs exceeds the budget");
        assert_eq!(fresh[0].line, 9);
        assert_eq!(baselined.len(), 2);
    }

    #[test]
    fn unknown_rule_names_are_rejected() {
        let err = Baseline::from_json(
            r#"{"entries":[{"rule":"D99","path":"a.rs","count":1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("D99"), "got: {err}");
    }

    #[test]
    fn empty_baseline_serializes_stably() {
        let b = Baseline::default();
        assert_eq!(b.to_json(), "{\"entries\":[]}");
        assert_eq!(Baseline::from_json(&b.to_json()).unwrap(), b);
    }
}
