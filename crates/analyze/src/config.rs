//! Analyzer configuration: hot-path manifest, blessed reduction helpers,
//! and the D7/D10 interprocedural allowlists.
//!
//! The committed workspace config lives in `analyze-config.json` at the
//! repository root; tests build `Config` values directly. Registering a new
//! hot-path function is one manifest entry — see DESIGN.md ("Registering a
//! new hot-path function").
//!
//! Parsing is strict: an unknown top-level key is a typed
//! [`ConfigError::UnknownKey`], not a silent ignore — a typo'd allowlist
//! that silently does nothing is how audits rot.

use std::fmt;

use serde::Value;

/// Why a config failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The JSON itself didn't parse.
    Parse(String),
    /// A top-level key the schema doesn't know.
    UnknownKey(String),
    /// A known key held the wrong shape.
    BadEntry {
        key: &'static str,
        want: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse: {e}"),
            ConfigError::UnknownKey(k) => write!(
                f,
                "unknown config key `{k}` — the schema rejects unknown keys so a typo'd \
                 allowlist cannot silently do nothing"
            ),
            ConfigError::BadEntry { key, want } => write!(f, "config key `{key}` needs {want}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One hot-path registration: a function that must not allocate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotPath {
    /// Path suffix the file must end with (e.g. `crates/serve/src/lib.rs`).
    pub path_suffix: String,
    /// Function name (unqualified).
    pub fn_name: String,
}

/// Rule configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Functions registered as allocation-free hot paths (D5, D7 roots).
    pub hotpaths: Vec<HotPath>,
    /// Function names allowed to accumulate floats across chunks (D2) —
    /// the blessed chunk-ordered reduction helpers.
    pub blessed_reductions: Vec<String>,
    /// Path prefixes exempt from D7's transitive-allocation reachability
    /// (e.g. the observability layer, reached only when attached).
    pub d7_alloc_allow: Vec<String>,
    /// Blessed interprocedural lock-order edges (D10): `(held, acquired)`.
    pub d10_blessed_edges: Vec<(String, String)>,
}

impl Config {
    /// Parse the committed JSON config. Missing keys keep their defaults;
    /// unknown keys are a typed error.
    pub fn from_json(text: &str) -> Result<Config, ConfigError> {
        let v = serde_json::parse(text).map_err(|e| ConfigError::Parse(e.to_string()))?;
        let Value::Object(pairs) = &v else {
            return Err(ConfigError::Parse("top level must be an object".to_string()));
        };
        let mut cfg = Config::default();
        for (key, val) in pairs {
            match key.as_str() {
                "blessed_reductions" => cfg.blessed_reductions = string_list(key, val)?,
                "d7_alloc_allow" => cfg.d7_alloc_allow = string_list(key, val)?,
                "hotpaths" => cfg.hotpaths = file_fn_list("hotpaths", val)?,
                "d10_blessed_edges" => {
                    let Value::Array(items) = val else {
                        return Err(ConfigError::BadEntry {
                            key: "d10_blessed_edges",
                            want: "an array of {\"held\":…,\"acquired\":…} objects",
                        });
                    };
                    let mut edges = Vec::new();
                    for item in items {
                        match (
                            item.get("held").and_then(as_string),
                            item.get("acquired").and_then(as_string),
                        ) {
                            (Some(h), Some(a)) => edges.push((h.to_string(), a.to_string())),
                            _ => {
                                return Err(ConfigError::BadEntry {
                                    key: "d10_blessed_edges",
                                    want: "entries shaped {\"held\":…,\"acquired\":…}",
                                })
                            }
                        }
                    }
                    cfg.d10_blessed_edges = edges;
                }
                other => return Err(ConfigError::UnknownKey(other.to_string())),
            }
        }
        Ok(cfg)
    }

    /// Hot-path entries registered for `path`.
    pub fn hotpaths_for<'a>(&'a self, path: &str) -> Vec<&'a HotPath> {
        self.hotpaths.iter().filter(|h| path.ends_with(h.path_suffix.as_str())).collect()
    }

    /// Is `path` exempt from D7's transitive-allocation reachability?
    pub fn d7_alloc_allowed(&self, path: &str) -> bool {
        self.d7_alloc_allow.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Is the interprocedural lock edge `held` → `acquired` blessed (D10)?
    pub fn d10_blessed(&self, held: &str, acquired: &str) -> bool {
        self.d10_blessed_edges.iter().any(|(h, a)| h == held && a == acquired)
    }
}

fn string_list(key: &str, v: &Value) -> Result<Vec<String>, ConfigError> {
    let want = "an array of strings";
    let keyed = |k: &str| -> &'static str {
        // Map back to the static key names so the error type stays Copy-able.
        match k {
            "blessed_reductions" => "blessed_reductions",
            "d7_alloc_allow" => "d7_alloc_allow",
            _ => "config",
        }
    };
    let Value::Array(items) = v else {
        return Err(ConfigError::BadEntry { key: keyed(key), want });
    };
    let mut out = Vec::new();
    for item in items {
        match as_string(item) {
            Some(s) => out.push(s.to_string()),
            None => return Err(ConfigError::BadEntry { key: keyed(key), want }),
        }
    }
    Ok(out)
}

fn file_fn_list(key: &'static str, v: &Value) -> Result<Vec<HotPath>, ConfigError> {
    let want = "entries shaped {\"file\":…,\"fn\":…}";
    let Value::Array(items) = v else {
        return Err(ConfigError::BadEntry { key, want });
    };
    let mut out = Vec::new();
    for item in items {
        match (item.get("file").and_then(as_string), item.get("fn").and_then(as_string)) {
            (Some(f), Some(n)) => {
                out.push(HotPath { path_suffix: f.to_string(), fn_name: n.to_string() })
            }
            _ => return Err(ConfigError::BadEntry { key, want }),
        }
    }
    Ok(out)
}

fn as_string(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_shape() {
        let cfg = Config::from_json(
            r#"{
                "hotpaths": [{"file": "crates/serve/src/lib.rs", "fn": "run"}],
                "blessed_reductions": ["merge_chunks"],
                "d7_alloc_allow": ["crates/obs/"],
                "d10_blessed_edges": [{"held": "serve::queue", "acquired": "serve::state"}]
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.hotpaths_for("crates/serve/src/lib.rs").len(), 1);
        assert_eq!(cfg.blessed_reductions, vec!["merge_chunks".to_string()]);
        assert!(cfg.d7_alloc_allowed("crates/obs/src/metrics.rs"));
        assert!(cfg.d10_blessed("serve::queue", "serve::state"));
        assert!(!cfg.d10_blessed("serve::state", "serve::queue"));
    }

    #[test]
    fn rejects_malformed_hotpaths() {
        assert!(matches!(
            Config::from_json(r#"{"hotpaths": [{"file": "x"}]}"#),
            Err(ConfigError::BadEntry { key: "hotpaths", .. })
        ));
    }

    #[test]
    fn rejects_unknown_keys_with_a_typed_error() {
        let err = Config::from_json(r#"{"d7_alloc_alow": []}"#).unwrap_err();
        assert_eq!(err, ConfigError::UnknownKey("d7_alloc_alow".to_string()));
        assert!(err.to_string().contains("d7_alloc_alow"));
    }
}
