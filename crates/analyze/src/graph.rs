//! The workspace call graph: function nodes annotated with the facts the
//! interprocedural rules query (allocation sites, lock activity), resolved
//! call edges, and per-run resolution statistics.
//!
//! Everything here is deterministic by construction: input files are
//! pre-sorted by path, node ids follow symbol order, and the JSON export
//! sorts nodes by qualified name — two runs over the same tree are
//! byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::config::Config;
use crate::parser::ParsedFile;
use crate::resolve::{call_sites, CallSite, EdgeKind, Resolution, Resolver};
use crate::rules;

/// Node index into [`CallGraph::nodes`].
pub type NodeId = usize;

/// One function in the workspace.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// `lib::mods…::[Type::]name`.
    pub qname: String,
    /// Defining file (repo-relative).
    pub path: String,
    pub line: u32,
    /// Library name (first qname segment).
    pub lib: String,
    pub is_test: bool,
    pub is_pub: bool,
    /// Direct allocation sites `(line, what)` — same detector as D5.
    pub allocs: Vec<(u32, String)>,
    /// Lock keys this function acquires directly (D10 seed set).
    pub acquires: BTreeSet<String>,
    /// Defining file index (into the analysis input), and fn index within.
    pub file: usize,
    pub fn_idx: usize,
}

/// One resolved call edge.
#[derive(Clone, Debug)]
pub struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    /// Call-site location.
    pub path: String,
    pub line: u32,
    pub kind: EdgeKind,
}

/// A call site that could not be resolved (listed, never dropped).
#[derive(Clone, Debug)]
pub struct UnresolvedSite {
    pub path: String,
    pub line: u32,
    pub callee: String,
    pub reason: String,
}

/// A call made while holding locks (D10 input).
#[derive(Clone, Debug)]
pub struct HeldCall {
    pub from: NodeId,
    /// Lock keys held at the call.
    pub held: Vec<String>,
    /// Edge indices (into [`CallGraph::edges`]) for this site's targets.
    pub edges: Vec<usize>,
}

/// Resolution statistics for one build.
#[derive(Clone, Debug, Default)]
pub struct ResolutionStats {
    /// All syntactic call sites considered.
    pub sites: u64,
    /// Sites resolved to ≥ 1 workspace symbol.
    pub resolved: u64,
    /// Sites with no possible workspace target (std/shim/closure).
    pub external: u64,
    /// Per-tier resolved counts, keyed by [`EdgeKind::as_str`].
    pub by_kind: BTreeMap<String, u64>,
}

impl ResolutionStats {
    /// Resolution rate over workspace-bound sites, in percent. External
    /// sites are excluded from the denominator: `Vec::push` not resolving
    /// to a workspace symbol is correct, not a resolver miss.
    pub fn resolution_pct(&self, unresolved: usize) -> f64 {
        let denom = self.resolved + unresolved as u64;
        if denom == 0 {
            return 100.0;
        }
        self.resolved as f64 * 100.0 / denom as f64
    }
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<Edge>,
    pub unresolved: Vec<UnresolvedSite>,
    pub stats: ResolutionStats,
    /// Calls made while holding locks, for D10.
    pub held_calls: Vec<HeldCall>,
    /// node → outgoing edge indices.
    pub out: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over pre-parsed files (must be sorted by path).
    pub fn build(files: &[ParsedFile], lib_names: &BTreeMap<String, String>) -> CallGraph {
        let resolver = Resolver::new(files, lib_names);
        let mut nodes: Vec<FnNode> = Vec::with_capacity(resolver.symbols.len());

        // symbol index == node id: resolver targets map 1:1 onto nodes.
        for sym in &resolver.symbols {
            let parsed = &files[sym.file];
            let f = &parsed.fns[sym.fn_idx];
            let allocs = f
                .body
                .map(|(lo, hi)| rules::alloc_sites(&parsed.tokens, lo, hi))
                .unwrap_or_default();
            nodes.push(FnNode {
                qname: sym.qname(),
                path: parsed.path.clone(),
                line: f.line,
                lib: sym.segs.first().cloned().unwrap_or_default(),
                is_test: f.is_test,
                is_pub: f.is_pub,
                allocs,
                acquires: BTreeSet::new(),
                file: sym.file,
                fn_idx: sym.fn_idx,
            });
        }

        // Map (file, fn_idx) → node for body attribution.
        let mut node_of: BTreeMap<(usize, usize), NodeId> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            node_of.insert((n.file, n.fn_idx), id);
        }

        let mut edges: Vec<Edge> = Vec::new();
        let mut unresolved: Vec<UnresolvedSite> = Vec::new();
        let mut stats = ResolutionStats::default();
        let mut held_calls: Vec<HeldCall> = Vec::new();

        for (file_idx, parsed) in files.iter().enumerate() {
            // Innermost-fn attribution: a nested fn's tokens belong to it,
            // not to the enclosing fn that textually contains both.
            let owner = |tok: usize| -> Option<usize> {
                parsed
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.body.is_some_and(|(lo, hi)| lo <= tok && tok <= hi))
                    .max_by_key(|(_, f)| f.body.map(|(lo, _)| lo).unwrap_or(0))
                    .map(|(i, _)| i)
            };
            // Lock state per fn for D10: which keys are held at each site.
            let lock_names = rules::lock_container_names(parsed);

            for (fn_idx, f) in parsed.fns.iter().enumerate() {
                let Some((lo, hi)) = f.body else { continue };
                let from = node_of[&(file_idx, fn_idx)];
                let sites = call_sites(&parsed.tokens, lo, hi);
                // Lock activity (direct acquisitions + held-at-call map).
                // Test fns are skipped: D10 reasons over production chains.
                let site_toks: Vec<usize> = sites.iter().map(|s| s.tok).collect();
                let activity = if f.is_test {
                    rules::LockActivity::default()
                } else {
                    rules::lock_activity(parsed, &lock_names, lo, hi, &site_toks)
                };
                nodes[from].acquires = activity.acquires;

                let mut site_edges: Vec<Vec<usize>> = vec![Vec::new(); sites.len()];
                for (si, site) in sites.iter().enumerate() {
                    // Skip sites that belong to a *nested* fn item; the
                    // nested fn's own pass covers them.
                    if owner(site.tok) != Some(fn_idx) {
                        continue;
                    }
                    stats.sites += 1;
                    match resolver.resolve(site, parsed, file_idx, Some(fn_idx)) {
                        Resolution::Resolved { targets, kind } => {
                            stats.resolved += 1;
                            *stats.by_kind.entry(kind.as_str().to_string()).or_insert(0) += 1;
                            for t in targets {
                                site_edges[si].push(edges.len());
                                edges.push(Edge {
                                    from,
                                    to: t,
                                    path: parsed.path.clone(),
                                    line: site.line,
                                    kind,
                                });
                            }
                        }
                        Resolution::External => stats.external += 1,
                        Resolution::Unresolved { reason } => {
                            unresolved.push(UnresolvedSite {
                                path: parsed.path.clone(),
                                line: site.line,
                                callee: render_callee(site),
                                reason,
                            });
                        }
                    }
                }
                for (si, held) in activity.held_at_site {
                    if !site_edges[si].is_empty() && !held.is_empty() {
                        held_calls.push(HeldCall {
                            from,
                            held,
                            edges: site_edges[si].clone(),
                        });
                    }
                }
            }
        }

        let mut out: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            out[e.from].push(i);
        }
        CallGraph { nodes, edges, unresolved, stats, held_calls, out }
    }

    /// Hot-path root nodes per the config manifest.
    pub fn hotpath_roots(&self, cfg: &Config) -> Vec<NodeId> {
        let mut roots: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                cfg.hotpaths.iter().any(|h| {
                    n.path.ends_with(h.path_suffix.as_str())
                        && n.qname.rsplit("::").next() == Some(h.fn_name.as_str())
                })
            })
            .map(|(i, _)| i)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// BFS over non-test edges from `roots`. Returns the predecessor edge
    /// per reached node (for rendering call chains); roots map to `None`.
    pub fn reach(&self, roots: &[NodeId]) -> BTreeMap<NodeId, Option<usize>> {
        let mut pred: BTreeMap<NodeId, Option<usize>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        for &r in roots {
            if !self.nodes[r].is_test {
                pred.insert(r, None);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &ei in &self.out[n] {
                let e = &self.edges[ei];
                let t = e.to;
                if self.nodes[t].is_test || pred.contains_key(&t) {
                    continue;
                }
                pred.insert(t, Some(ei));
                queue.push_back(t);
            }
        }
        pred
    }

    /// Render `root -> … -> node` using the predecessor map from [`reach`].
    pub fn chain(&self, pred: &BTreeMap<NodeId, Option<usize>>, node: NodeId) -> String {
        let mut parts = vec![short_name(&self.nodes[node].qname)];
        let mut cur = node;
        let mut hops = 0;
        while let Some(Some(ei)) = pred.get(&cur) {
            cur = self.edges[*ei].from;
            parts.push(short_name(&self.nodes[cur].qname));
            hops += 1;
            if hops > 64 {
                break; // cycles cannot occur in a BFS tree, but stay safe
            }
        }
        parts.reverse();
        parts.join(" -> ")
    }

    /// Deterministic JSON export (`--graph`): nodes sorted by qualified
    /// name, edges sorted by (from, to, line), unresolved sites included.
    pub fn to_json(&self) -> String {
        let mut order: Vec<NodeId> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (&self.nodes[a].qname, &self.nodes[a].path, self.nodes[a].line).cmp(&(
                &self.nodes[b].qname,
                &self.nodes[b].path,
                self.nodes[b].line,
            ))
        });
        let mut new_id = vec![0usize; self.nodes.len()];
        for (i, &old) in order.iter().enumerate() {
            new_id[old] = i;
        }
        let nodes: Vec<Value> = order
            .iter()
            .map(|&i| {
                let n = &self.nodes[i];
                let mut fields = vec![
                    ("id".to_string(), Value::Number(new_id[i].to_string())),
                    ("qname".to_string(), Value::String(n.qname.clone())),
                    ("path".to_string(), Value::String(n.path.clone())),
                    ("line".to_string(), Value::Number(n.line.to_string())),
                ];
                for (k, v) in [("test", n.is_test), ("pub", n.is_pub)] {
                    if v {
                        fields.push((k.to_string(), Value::Bool(true)));
                    }
                }
                if !n.allocs.is_empty() {
                    fields.push((
                        "allocs".to_string(),
                        Value::Number(n.allocs.len().to_string()),
                    ));
                }
                Value::Object(fields)
            })
            .collect();
        let mut edge_rows: Vec<(usize, usize, u32, &'static str)> = self
            .edges
            .iter()
            .map(|e| (new_id[e.from], new_id[e.to], e.line, e.kind.as_str()))
            .collect();
        edge_rows.sort_unstable();
        edge_rows.dedup();
        let edges: Vec<Value> = edge_rows
            .into_iter()
            .map(|(f, t, line, kind)| {
                Value::Object(vec![
                    ("from".to_string(), Value::Number(f.to_string())),
                    ("to".to_string(), Value::Number(t.to_string())),
                    ("line".to_string(), Value::Number(line.to_string())),
                    ("kind".to_string(), Value::String(kind.to_string())),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("nodes".to_string(), Value::Array(nodes)),
            ("edges".to_string(), Value::Array(edges)),
            ("unresolved".to_string(), Value::Array(self.unresolved_json())),
        ]);
        serde_json::to_string(&root).expect("JSON print is infallible")
    }

    fn unresolved_json(&self) -> Vec<Value> {
        let mut rows = self.unresolved.clone();
        rows.sort_by(|a, b| (&a.path, a.line, &a.callee).cmp(&(&b.path, b.line, &b.callee)));
        rows.iter()
            .map(|u| {
                Value::Object(vec![
                    ("path".to_string(), Value::String(u.path.clone())),
                    ("line".to_string(), Value::Number(u.line.to_string())),
                    ("callee".to_string(), Value::String(u.callee.clone())),
                    ("reason".to_string(), Value::String(u.reason.clone())),
                ])
            })
            .collect()
    }

    /// Resolution statistics as deterministic JSON (`--emit-stats`).
    pub fn stats_json(&self, files_scanned: u64) -> String {
        let pct = self.stats.resolution_pct(self.unresolved.len());
        let by_kind: Vec<Value> = self
            .stats
            .by_kind
            .iter()
            .map(|(k, v)| {
                Value::Object(vec![
                    ("kind".to_string(), Value::String(k.clone())),
                    ("count".to_string(), Value::Number(v.to_string())),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("files".to_string(), Value::Number(files_scanned.to_string())),
            ("nodes".to_string(), Value::Number(self.nodes.len().to_string())),
            ("edges".to_string(), Value::Number(self.edges.len().to_string())),
            ("sites".to_string(), Value::Number(self.stats.sites.to_string())),
            ("resolved".to_string(), Value::Number(self.stats.resolved.to_string())),
            ("external".to_string(), Value::Number(self.stats.external.to_string())),
            (
                "unresolved_count".to_string(),
                Value::Number(self.unresolved.len().to_string()),
            ),
            // Two decimals keep the figure bit-stable across platforms.
            (
                "resolution_pct".to_string(),
                Value::Number(format!("{pct:.2}")),
            ),
            ("resolved_by_kind".to_string(), Value::Array(by_kind)),
            ("unresolved".to_string(), Value::Array(self.unresolved_json())),
        ]);
        serde_json::to_string(&root).expect("JSON print is infallible")
    }
}

/// Last two qname segments (`Type::name` or `mod::name`) — enough to read
/// a chain without drowning in module paths.
fn short_name(qname: &str) -> String {
    let parts: Vec<&str> = qname.rsplit("::").take(2).collect();
    parts.into_iter().rev().collect::<Vec<_>>().join("::")
}

fn render_callee(site: &CallSite) -> String {
    if site.is_method {
        format!(".{}", site.name)
    } else if site.qual.is_empty() {
        site.name.clone()
    } else {
        format!("{}::{}", site.qual.join("::"), site.name)
    }
}
