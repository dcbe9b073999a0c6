//! dpmd-analyze — workspace-wide determinism & safety linter.
//!
//! Self-contained static analysis for this workspace: an own Rust lexer
//! ([`lexer`], raw strings / nested block comments / lifetime-vs-char) and a
//! lightweight item parser ([`parser`]) feed the rules ([`rules`]) that no
//! stock tool checks. D2 and D5 are per-file, D6 merges lock edges
//! globally, and D7 and D10 are interprocedural queries over a workspace
//! call graph built by a symbol-resolution pass ([`resolve`], [`graph`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | D2 | float reductions are chunk-ordered, never scheduling-ordered |
//! | D5 | registered hot-path functions do not allocate |
//! | D6 | the cross-crate lock graph is acyclic |
//! | D7 | nothing *reachable* from a hot path allocates (transitive D5) |
//! | D10 | lock sets accumulated along call chains stay acyclic |
//!
//! The rules rustc and clippy check exactly are theirs: the root
//! `Cargo.toml`'s `[workspace.lints]` forbids `unsafe` outside
//! `dpmd-threads` and `dpmd-simd` and requires a `// SAFETY:` comment on
//! every `unsafe` block (once D9 and D3), and `clippy.toml` bans clock
//! reads outside `#[expect]`-marked readers and `HashMap`/`HashSet` (once
//! D4, D8 and D1). The kept rules keep their numbers.
//!
//! The call graph itself is exportable (`--graph out.json`) along with
//! per-run resolution statistics (`--emit-stats stats.json`); unresolved
//! call sites are listed with reasons, never silently dropped, and
//! `--min-resolution PCT` turns a resolution-rate regression into a CI
//! failure.
//!
//! Findings are typed ([`diag::Finding`]) with `file:line` spans, printed
//! human-readable and as deterministic JSON. A committed baseline
//! ([`baseline`]) ratchets legacy findings down; `--deny` makes any fresh
//! finding fail CI. Inline escape hatch: `// dpmd-allow D<n>: reason`
//! (reason required; D10 has no inline form — bless edges in
//! `d10_blessed_edges` instead).

pub mod baseline;
pub mod config;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use config::Config;
use diag::{sort_findings, Finding, RuleId};
use dpmd_obs::{MetricsRegistry, Unit};
use graph::CallGraph;
use rules::LockEdge;

/// Result of an analysis run, before baseline application.
pub struct Report {
    /// All findings, canonically sorted.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: u64,
    /// The workspace call graph the D7 and D10 rules ran over.
    pub graph: CallGraph,
}

/// Analyze a set of sources together: per-file rules, globally merged lock
/// edges, then the call graph and its D7 and D10 queries. `lib_names` maps
/// crate directory names to library names (empty map: directory-name
/// fallback). Returns the findings and the graph they were derived from.
pub fn analyze_sources(
    sources: &[(String, String)],
    lib_names: &BTreeMap<String, String>,
    cfg: &Config,
) -> (Vec<Finding>, CallGraph) {
    let files: Vec<parser::ParsedFile> =
        sources.iter().map(|(path, src)| parser::parse_file(path, src)).collect();
    let srcs: Vec<String> = sources.iter().map(|(_, src)| src.clone()).collect();

    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for (parsed, src) in files.iter().zip(&srcs) {
        let (file_findings, file_edges) = rules::analyze_file(parsed, src, cfg);
        findings.extend(file_findings);
        edges.extend(file_edges);
    }
    findings.extend(rules::lock_cycles(&edges));

    let g = CallGraph::build(&files, lib_names);
    findings.extend(rules::graph_rules(&g, &files, &srcs, cfg, &edges));

    sort_findings(&mut findings);
    (findings, g)
}

/// Analyze a single source text under a given repo-relative path. The full
/// pipeline runs on the one file, including the graph rules — a fixture
/// whose hot path calls an allocating helper in the same file still trips
/// D7. Tests and tools use this; the workspace run merges across files.
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let sources = vec![(path.to_string(), src.to_string())];
    analyze_sources(&sources, &BTreeMap::new(), cfg).0
}

/// Directories never scanned: build output, VCS internals, and lint
/// fixtures (which contain deliberately bad code).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

/// Collect every workspace `.rs` file under `root`, repo-relative with `/`
/// separators, sorted — the scan order (and therefore the report) is
/// independent of filesystem enumeration order.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("strip_prefix: {e}"))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Map crate directory names to their library names by reading each
/// `crates/*/Cargo.toml` (and `crates/shims/*/Cargo.toml`) under `root`.
/// `-` is normalized to `_` to match what `use` paths spell. Missing or
/// unreadable manifests just fall back to the directory-name rule in
/// [`resolve::module_of`].
pub fn workspace_lib_names(root: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for crates_dir in [root.join("crates"), root.join("crates").join("shims")] {
        let Ok(entries) = fs::read_dir(&crates_dir) else { continue };
        for entry in entries.flatten() {
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else { continue };
            let Some(pkg) = manifest_package_name(&manifest) else { continue };
            let dir_name = entry.file_name().to_string_lossy().into_owned();
            map.insert(dir_name, pkg.replace('-', "_"));
        }
    }
    map
}

/// First `name = "…"` in a manifest (the `[package]` name — workspace
/// manifests here never define `name` earlier than the package table).
fn manifest_package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
        }
    }
    None
}

/// Analyze every `.rs` file under `root`: per-file rules, globally merged
/// lock edges, and the interprocedural D7 and D10 queries over the
/// workspace call graph.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace_files(root)?;
    let lib_names = workspace_lib_names(root);
    let mut sources: Vec<(String, String)> = Vec::new();
    for (rel, path) in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue; // non-UTF-8 or unreadable: not a lintable Rust source
        };
        sources.push((rel.clone(), src));
    }
    let files_scanned = sources.len() as u64;
    let (findings, graph) = analyze_sources(&sources, &lib_names, cfg);
    Ok(Report { findings, files_scanned, graph })
}

/// Record rule hit-counts and scan stats into a metrics registry.
pub fn record_metrics(
    reg: &MetricsRegistry,
    fresh: &[Finding],
    baselined: &[Finding],
    files_scanned: u64,
) {
    reg.counter("analyze.files_scanned", Unit::Count).add(files_scanned);
    reg.counter("analyze.findings.total", Unit::Count)
        .add((fresh.len() + baselined.len()) as u64);
    reg.counter("analyze.findings.suppressed", Unit::Count).add(baselined.len() as u64);
    for rule in RuleId::ALL {
        let n = fresh.iter().chain(baselined).filter(|f| f.rule == rule).count() as u64;
        if n > 0 {
            let name = format!("analyze.rule.{}", rule.as_str().to_lowercase());
            reg.counter(&name, Unit::Count).add(n);
        }
    }
}

/// Record call-graph shape and resolution stats into a metrics registry.
pub fn record_graph_metrics(reg: &MetricsRegistry, g: &CallGraph) {
    reg.counter("analyze.graph.nodes", Unit::Count).add(g.nodes.len() as u64);
    reg.counter("analyze.graph.edges", Unit::Count).add(g.edges.len() as u64);
    reg.counter("analyze.graph.call_sites", Unit::Count).add(g.stats.sites);
    reg.counter("analyze.graph.resolved", Unit::Count).add(g.stats.resolved);
    reg.counter("analyze.graph.external", Unit::Count).add(g.stats.external);
    reg.counter("analyze.graph.unresolved", Unit::Count).add(g.unresolved.len() as u64);
}

/// Parsed CLI options.
struct Opts {
    root: PathBuf,
    deny: bool,
    bless: bool,
    baseline: Option<PathBuf>,
    config: Option<PathBuf>,
    json_out: Option<PathBuf>,
    graph_out: Option<PathBuf>,
    stats_out: Option<PathBuf>,
    min_resolution: Option<f64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        deny: false,
        bless: std::env::var("DPMD_BLESS").is_ok_and(|v| v == "1"),
        baseline: None,
        config: None,
        json_out: None,
        graph_out: None,
        stats_out: None,
        min_resolution: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<PathBuf, String> {
        *i += 1;
        args.get(*i).map(PathBuf::from).ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => opts.deny = true,
            "--bless" => opts.bless = true,
            "--baseline" => opts.baseline = Some(value(&mut i, "--baseline")?),
            "--config" => opts.config = Some(value(&mut i, "--config")?),
            "--root" => opts.root = value(&mut i, "--root")?,
            "--json" => opts.json_out = Some(value(&mut i, "--json")?),
            "--graph" => opts.graph_out = Some(value(&mut i, "--graph")?),
            "--emit-stats" => opts.stats_out = Some(value(&mut i, "--emit-stats")?),
            "--min-resolution" => {
                let raw = value(&mut i, "--min-resolution")?;
                let raw = raw.to_string_lossy();
                let pct: f64 = raw
                    .parse()
                    .map_err(|_| format!("--min-resolution: `{raw}` is not a number"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("--min-resolution: `{raw}` must be in 0..=100"));
                }
                opts.min_resolution = Some(pct);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(opts)
}

const USAGE: &str = "usage: dpmd-analyze [--deny] [--bless] [--root DIR] \
[--baseline PATH] [--config PATH] [--json PATH] [--graph PATH] \
[--emit-stats PATH] [--min-resolution PCT]\n\
  --deny            exit 1 on any finding not covered by the baseline\n\
  --bless           rewrite the baseline to cover current findings (or DPMD_BLESS=1)\n\
  --root            workspace root to scan (default .)\n\
  --baseline        baseline file (default <root>/analyze-baseline.json if present)\n\
  --config          rule config (default <root>/analyze-config.json if present)\n\
  --json            also write findings as deterministic JSON to PATH\n\
  --graph           export the workspace call graph as JSON to PATH\n\
  --emit-stats      write call-edge resolution statistics as JSON to PATH\n\
  --min-resolution  exit 1 if call-edge resolution falls below PCT (0..=100)";

/// Run the analyzer CLI. Returns the process exit code. Shared between the
/// `dpmd-analyze` binary and the `dpmd analyze` subcommand.
pub fn run_cli(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    let config_path =
        opts.config.clone().unwrap_or_else(|| opts.root.join("analyze-config.json"));
    let cfg = if config_path.is_file() {
        match fs::read_to_string(&config_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Config::from_json(&t).map_err(|e| e.to_string()))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dpmd-analyze: {}: {e}", config_path.display());
                return 2;
            }
        }
    } else if opts.config.is_some() {
        eprintln!("dpmd-analyze: config {} not found", config_path.display());
        return 2;
    } else {
        Config::default()
    };

    let report = match analyze_workspace(&opts.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dpmd-analyze: {e}");
            return 2;
        }
    };

    if let Some(graph_path) = &opts.graph_out {
        if let Err(e) = fs::write(graph_path, report.graph.to_json() + "\n") {
            eprintln!("dpmd-analyze: write {}: {e}", graph_path.display());
            return 2;
        }
    }
    if let Some(stats_path) = &opts.stats_out {
        let stats = report.graph.stats_json(report.files_scanned);
        if let Err(e) = fs::write(stats_path, stats + "\n") {
            eprintln!("dpmd-analyze: write {}: {e}", stats_path.display());
            return 2;
        }
    }

    let baseline_path =
        opts.baseline.clone().unwrap_or_else(|| opts.root.join("analyze-baseline.json"));
    if opts.bless {
        let blessed = Baseline::covering(&report.findings);
        if let Err(e) = fs::write(&baseline_path, blessed.to_json() + "\n") {
            eprintln!("dpmd-analyze: write {}: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "dpmd-analyze: blessed {} finding(s) into {}",
            report.findings.len(),
            baseline_path.display()
        );
        return 0;
    }
    let baseline = if baseline_path.is_file() {
        match fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Baseline::from_json(&t))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("dpmd-analyze: {}: {e}", baseline_path.display());
                return 2;
            }
        }
    } else if opts.baseline.is_some() {
        eprintln!("dpmd-analyze: baseline {} not found", baseline_path.display());
        return 2;
    } else {
        Baseline::default()
    };

    let files_scanned = report.files_scanned;
    let (fresh, baselined) = baseline.split(report.findings);

    let reg = MetricsRegistry::new();
    record_metrics(&reg, &fresh, &baselined, files_scanned);
    record_graph_metrics(&reg, &report.graph);

    if let Some(json_path) = &opts.json_out {
        if let Err(e) = fs::write(json_path, diag::to_json(&fresh) + "\n") {
            eprintln!("dpmd-analyze: write {}: {e}", json_path.display());
            return 2;
        }
    }

    for f in &fresh {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule.as_str(), f.message);
        if !f.snippet.is_empty() {
            println!("    {}", f.snippet);
        }
    }
    let resolution = report.graph.stats.resolution_pct(report.graph.unresolved.len());
    println!(
        "dpmd-analyze: {} file(s) scanned, {} finding(s), {} baselined",
        files_scanned,
        fresh.len(),
        baselined.len()
    );
    println!(
        "dpmd-analyze: call graph: {} node(s), {} edge(s), {} unresolved site(s), \
         {resolution:.2}% of workspace call edges resolved",
        report.graph.nodes.len(),
        report.graph.edges.len(),
        report.graph.unresolved.len(),
    );
    for rule in RuleId::ALL {
        let n = fresh.iter().filter(|f| f.rule == rule).count();
        let b = baselined.iter().filter(|f| f.rule == rule).count();
        if n + b > 0 {
            println!("  {}: {n} fresh, {b} baselined — {}", rule.as_str(), rule.summary());
        }
    }

    let mut code = 0;
    if let Some(floor) = opts.min_resolution {
        if resolution < floor {
            for u in &report.graph.unresolved {
                eprintln!("{}:{}: unresolved call `{}` ({})", u.path, u.line, u.callee, u.reason);
            }
            eprintln!(
                "dpmd-analyze: --min-resolution: {resolution:.2}% resolved is below the \
                 {floor:.2}% floor; fix the unresolved sites above or lower the floor"
            );
            code = 1;
        }
    }
    if opts.deny && !fresh.is_empty() {
        eprintln!(
            "dpmd-analyze: --deny: {} unbaselined finding(s); fix them, add an inline \
             `// dpmd-allow <RULE>: reason`, or re-bless the baseline",
            fresh.len()
        );
        code = 1;
    }
    code
}
