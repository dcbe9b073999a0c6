//! Rule implementations.
//!
//! Each rule is a token-level heuristic grounded in this workspace's
//! determinism architecture (chunk-ordered reduction, allocation-free hot
//! loops, one lock order). The heuristics are documented inline; they are
//! deliberately conservative — a linter that cries wolf on blessed
//! patterns gets baselined into silence, which is worse than missing an
//! exotic variant.
//!
//! D2 and D5 are per-file. D6 (lock order) collects acquisition edges per
//! file and the caller runs [`lock_cycles`] over the merged graph, because
//! a deadlock needs two sites that may live in different crates.
//!
//! D7 and D10 are *interprocedural*: they run as reachability queries over
//! the workspace call graph ([`crate::graph::CallGraph`]) via
//! [`graph_rules`] — transitive hot-path allocation (D7) and lock-order
//! cycles lifted to lock sets accumulated along real call chains (D10).

use std::collections::BTreeSet;

use crate::config::Config;
use crate::diag::{Finding, RuleId};
use crate::graph::{CallGraph, NodeId};
use crate::lexer::{Tok, Token};
use crate::parser::{match_paren, FnItem, ParsedFile};

/// One lock-acquired-while-holding-another observation (D6 input).
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Lock held at the time, keyed `crate::name`.
    pub held: String,
    /// Lock being acquired.
    pub acquired: String,
    pub path: String,
    pub line: u32,
    /// Site carries an inline `dpmd-allow D6` justification.
    pub allowed: bool,
}

/// Run rules D2 and D5 on one parsed file and collect its D6 lock edges.
pub fn analyze_file(
    parsed: &ParsedFile,
    src: &str,
    cfg: &Config,
) -> (Vec<Finding>, Vec<LockEdge>) {
    let mut findings = Vec::new();
    rule_d2(parsed, src, cfg, &mut findings);
    rule_d5(parsed, src, cfg, &mut findings);
    let edges = lock_edges(parsed, &lock_container_names(parsed));

    // D2's shared-lock and spawn-region detectors can both hit one line;
    // keep one finding per (rule, line).
    findings.sort_by_key(|f| (f.rule, f.line, f.message.clone()));
    findings.dedup_by_key(|f| (f.rule, f.line));
    (findings, edges)
}

fn finding(parsed: &ParsedFile, src: &str, rule: RuleId, line: u32, message: String) -> Finding {
    Finding {
        rule,
        path: parsed.path.clone(),
        line,
        message,
        snippet: parsed.source_line(src, line).to_string(),
    }
}

/// Extract binding names whose declared type or initializer mentions one of
/// `kinds` (e.g. `Mutex`): `let [mut] name = Kind::new()`, `name: Kind<…>`
/// fields/params, `name: Arc<Mutex<…>>`. `use` paths produce no name (their
/// colons are all `::`). Bindings inside test functions are ignored — a
/// test-only `let lock: Mutex<_>` must not taint a production variable
/// that happens to share the name.
fn container_names(parsed: &ParsedFile, kinds: &[&str]) -> BTreeSet<String> {
    let tokens = &parsed.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !kinds.contains(&id) || in_test_fn(parsed, i) {
            continue;
        }
        let lo = stmt_start(tokens, i);
        let mut name: Option<&str> = None;
        let mut j = lo;
        while j < i {
            if tokens[j].is_ident("let") {
                let mut k = j + 1;
                if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(n) = tokens.get(k).and_then(Token::ident) {
                    name = Some(n);
                }
            }
            // `name :` with a *single* colon (a `::` path separator never
            // binds a name).
            if tokens[j].ident().is_some()
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && !tokens.get(j + 2).is_some_and(|t| t.is_punct(':'))
            {
                name = tokens[j].ident();
            }
            j += 1;
        }
        if let Some(n) = name {
            names.insert(n.to_string());
        }
    }
    names
}

/// Token index just past the previous `;`, `{`, or `}` — the approximate
/// statement start. Backward scans don't track nesting; for the linear
/// code this workspace contains, the nearest boundary is the right one.
fn stmt_start(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j + 1;
        }
    }
    0
}

/// Token index of the `;` ending the statement that token `i` belongs to
/// (exclusive bound for scans). Tracks all three bracket kinds so `;` inside
/// closure bodies doesn't end the statement early; a `}` that closes the
/// enclosing block ends a trailing expression.
fn stmt_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match t.kind {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Tok::Punct(';') if depth <= 0 => return j,
            _ => {}
        }
    }
    tokens.len()
}

/// Is token `i` a compound assignment operator `c=` (e.g. `+=`)? Compound
/// operators arrive as adjacent single-char punct tokens.
fn is_compound_assign(tokens: &[Token], i: usize, c: char) -> bool {
    tokens[i].is_punct(c)
        && tokens.get(i + 1).is_some_and(|t| {
            t.is_punct('=') && t.line == tokens[i].line && t.col == tokens[i].col + 1
        })
        && !tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
}

/// Non-test function bodies, as token ranges.
fn prod_bodies(parsed: &ParsedFile) -> Vec<(&FnItem, usize, usize)> {
    parsed
        .fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| f.body.map(|(a, b)| (f, a, b)))
        .collect()
}

/// Is token `i` inside a test function?
fn in_test_fn(parsed: &ParsedFile, i: usize) -> bool {
    parsed.fns.iter().any(|f| {
        f.is_test && f.body.is_some_and(|(_, close)| f.sig_start <= i && i <= close)
    })
}

// ---------------------------------------------------------------------------
// D2 — unordered float accumulation across parallel chunks.
// ---------------------------------------------------------------------------

/// Float evidence inside `[lo, hi)`: a float literal or an `f32`/`f64`
/// mention. (Pure-identifier accumulators without type evidence are out of
/// reach for a lexical rule — documented limitation.)
fn float_evidence(tokens: &[Token], lo: usize, hi: usize) -> bool {
    tokens[lo..hi.min(tokens.len())].iter().any(|t| match &t.kind {
        Tok::Num { float } => *float,
        Tok::Ident(s) => s.contains("f32") || s.contains("f64"),
        _ => false,
    })
}

fn rule_d2(parsed: &ParsedFile, src: &str, cfg: &Config, out: &mut Vec<Finding>) {
    let tokens = &parsed.tokens;
    for (f, lo, hi) in prod_bodies(parsed) {
        if cfg.blessed_reductions.iter().any(|b| b == &f.name) {
            continue;
        }
        // (a) `*shared.lock() += <float>` — accumulating into a shared cell
        // makes the sum order depend on thread scheduling.
        let mut i = lo;
        while i < hi {
            if is_compound_assign(tokens, i, '+') || is_compound_assign(tokens, i, '-') {
                let s = stmt_start(tokens, i);
                let e = stmt_end(tokens, i);
                let takes_lock = (s..i).any(|k| {
                    tokens[k].is_punct('.')
                        && tokens
                            .get(k + 1)
                            .is_some_and(|t| t.is_ident("lock") || t.is_ident("write"))
                        && tokens.get(k + 2).is_some_and(|t| t.is_punct('('))
                        && tokens.get(k + 3).is_some_and(|t| t.is_punct(')'))
                });
                let line = tokens[i].line;
                if takes_lock && float_evidence(tokens, s, e) && !parsed.allowed("D2", line) {
                    out.push(finding(
                        parsed,
                        src,
                        RuleId::D2,
                        line,
                        "float accumulation through a shared lock — sum order depends on \
                         thread scheduling; use per-chunk buffers merged in chunk order"
                            .to_string(),
                    ));
                }
            }
            i += 1;
        }
        // (b) compound assignment to a captured binding inside a
        // `spawn(…)`/`scope(…)` region.
        let mut i = lo;
        while i < hi {
            if (tokens[i].is_ident("spawn") || tokens[i].is_ident("scope"))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                let close = match_paren(tokens, i + 1);
                d2_spawn_region(parsed, src, tokens, i + 2, close, out);
                i = close;
            }
            i += 1;
        }
    }
}

/// Flag compound assignments inside a spawn region whose target is captured
/// from outside the region (not let-bound, loop-bound, or a closure param).
fn d2_spawn_region(
    parsed: &ParsedFile,
    src: &str,
    tokens: &[Token],
    lo: usize,
    hi: usize,
    out: &mut Vec<Finding>,
) {
    let mut locals: BTreeSet<String> = BTreeSet::new();
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        if t.is_ident("let") || t.is_ident("for") {
            // Bind the next few idents (covers `let (a, b) =` tuples).
            let mut k = i + 1;
            while k < hi && k < i + 8 && !tokens[k].is_punct('=') && !tokens[k].is_ident("in") {
                if let Some(n) = tokens[k].ident() {
                    if n != "mut" {
                        locals.insert(n.to_string());
                    }
                }
                k += 1;
            }
        }
        if t.is_punct('|') {
            // Closure parameter list: idents up to the closing `|`.
            let mut k = i + 1;
            while k < hi && k < i + 16 && !tokens[k].is_punct('|') {
                if let Some(n) = tokens[k].ident() {
                    locals.insert(n.to_string());
                }
                k += 1;
            }
            i = k;
        }
        if is_compound_assign(tokens, i, '+') || is_compound_assign(tokens, i, '-') {
            if let Some(base) = lvalue_base(tokens, i) {
                let line = tokens[i].line;
                if !locals.contains(&base) && !parsed.allowed("D2", line) {
                    out.push(finding(
                        parsed,
                        src,
                        RuleId::D2,
                        line,
                        format!(
                            "`{base}` is accumulated inside a spawn/scope region but bound \
                             outside it — reduction order depends on scheduling; write to a \
                             per-chunk slot and merge in chunk order"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// Head identifier of the lvalue ending just before the operator at `op`:
/// `total` in `total +=`, `self` in `self.total +=`, `buf` in `buf[i] +=`.
fn lvalue_base(tokens: &[Token], op: usize) -> Option<String> {
    let mut j = op;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &tokens[j].kind {
            Tok::Punct(']') => {
                // Jump back over the index expression.
                let mut depth = 1i64;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].kind {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
            }
            Tok::Ident(_) => {
                // Walk the field chain to its head: `a.b.c` → `a`.
                while j >= 2
                    && tokens[j - 1].is_punct('.')
                    && tokens[j - 2].ident().is_some()
                {
                    j -= 2;
                }
                return tokens[j].ident().map(str::to_string);
            }
            Tok::Punct('*') | Tok::Punct(')') => continue,
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// D5 — allocation inside registered hot-path functions.
// ---------------------------------------------------------------------------

const ALLOC_TYPES: &[&str] =
    &["Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String", "Box"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone", "collect"];

/// Allocation evidence at token `i`: an `ALLOC_TYPES::ctor` path, a
/// `vec!`/`format!` macro, or an allocating method call. Returns a human
/// label for the site. Shared by D5 (direct) and D7 (transitive).
fn alloc_hit(tokens: &[Token], i: usize) -> Option<String> {
    let t = &tokens[i];
    if t.ident().is_some_and(|id| ALLOC_TYPES.contains(&id))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens
            .get(i + 3)
            .is_some_and(|t| t.ident().is_some_and(|m| ALLOC_CTORS.contains(&m)))
    {
        return Some(format!(
            "`{}::{}`",
            t.ident().unwrap_or_default(),
            tokens[i + 3].ident().unwrap_or_default()
        ));
    }
    if (t.is_ident("vec") || t.is_ident("format"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
    {
        return Some(format!("`{}!`", t.ident().unwrap_or_default()));
    }
    if t.is_punct('.')
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.ident().is_some_and(|m| ALLOC_METHODS.contains(&m)))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        return Some(format!("`.{}()`", tokens[i + 1].ident().unwrap_or_default()));
    }
    None
}

/// All allocation sites `(line, label)` in the token range `[lo, hi)`.
pub fn alloc_sites(tokens: &[Token], lo: usize, hi: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi.min(tokens.len()) {
        if let Some(what) = alloc_hit(tokens, i) {
            out.push((tokens[i].line, what));
        }
        i += 1;
    }
    out
}

fn rule_d5(parsed: &ParsedFile, src: &str, cfg: &Config, out: &mut Vec<Finding>) {
    let hotpaths = cfg.hotpaths_for(&parsed.path);
    if hotpaths.is_empty() {
        return;
    }
    let tokens = &parsed.tokens;
    for (f, lo, hi) in prod_bodies(parsed) {
        if !hotpaths.iter().any(|h| h.fn_name == f.name) {
            continue;
        }
        let mut i = lo;
        while i < hi {
            if let Some(what) = alloc_hit(tokens, i) {
                let line = tokens[i].line;
                if !parsed.allowed("D5", line) {
                    out.push(finding(
                        parsed,
                        src,
                        RuleId::D5,
                        line,
                        format!(
                            "{what} allocates inside hot path `{}` — hoist into reusable \
                             scratch state",
                            f.name
                        ),
                    ));
                }
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// D6 — lock-order graph and cycle detection.
// ---------------------------------------------------------------------------

/// Crate segment of a repo-relative path (`crates/comm/src/x.rs` → `comm`).
fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        _ => "root",
    }
}

/// Lock bindings (`Mutex`/`RwLock` containers) named in one file — public
/// so the call-graph builder shares D6's binding detection.
pub fn lock_container_names(parsed: &ParsedFile) -> BTreeSet<String> {
    container_names(parsed, &["Mutex", "RwLock"])
}

/// Lock activity of one function body: the held→acquired edges observed
/// inside it (D6 input), the set of keys it acquires at all (the D10
/// `may_acquire` seed), and the held lock set at each requested call site.
#[derive(Debug, Default)]
pub struct LockActivity {
    pub edges: Vec<LockEdge>,
    pub acquires: BTreeSet<String>,
    /// `(index into site_toks, held keys)` per requested site, in order.
    pub held_at_site: Vec<(usize, Vec<String>)>,
}

/// Run the guard-tracking state machine over one body `[lo, hi)`. A guard
/// bound with `let` stays held to the end of its enclosing block (or an
/// explicit `drop`); a statement-temporary guard is released at the `;`.
/// `site_toks` are token indices (ascending) at which to record the held
/// set — the call-graph builder passes its call sites.
pub fn lock_activity(
    parsed: &ParsedFile,
    lock_names: &BTreeSet<String>,
    lo: usize,
    hi: usize,
    site_toks: &[usize],
) -> LockActivity {
    struct Held {
        key: String,
        depth: i64,
        until_semi: bool,
        guard: Option<String>,
    }
    let mut act = LockActivity::default();
    if lock_names.is_empty() {
        return act;
    }
    let tokens = &parsed.tokens;
    let krate = crate_of(&parsed.path).to_string();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i64;
    let mut next_site = 0usize;
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        match t.kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            Tok::Punct(';') => held.retain(|h| !h.until_semi),
            _ => {}
        }
        // `drop(guard)` releases early.
        if t.is_ident("drop") && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(g) = tokens.get(i + 2).and_then(Token::ident) {
                held.retain(|h| h.guard.as_deref() != Some(g));
            }
        }
        while next_site < site_toks.len() && site_toks[next_site] < i {
            next_site += 1;
        }
        if next_site < site_toks.len() && site_toks[next_site] == i {
            act.held_at_site
                .push((next_site, held.iter().map(|h| h.key.clone()).collect()));
            next_site += 1;
        }
        // Acquisition: `name.lock()` / `.read()` / `.write()` (no-arg —
        // distinguishes RwLock::write from io::Write::write).
        let acquires = t.ident().is_some_and(|id| lock_names.contains(id))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|t| {
                t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")
            })
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct(')'));
        if acquires {
            let key = format!("{krate}::{}", t.ident().unwrap_or_default());
            let line = t.line;
            act.acquires.insert(key.clone());
            for h in &held {
                if h.key != key {
                    act.edges.push(LockEdge {
                        held: h.key.clone(),
                        acquired: key.clone(),
                        path: parsed.path.clone(),
                        line,
                        allowed: parsed.allowed("D6", line),
                    });
                }
            }
            // Guard or temporary? `let g = name.lock()…;` holds on.
            let s = stmt_start(tokens, i);
            let is_let = tokens[s..i].iter().any(|t| t.is_ident("let"));
            let guard = if is_let {
                // Last ident before `=` is the bound guard (handles
                // `let g =` and `if let Ok(g) =`).
                let mut name = None;
                for t in &tokens[s..i] {
                    if t.is_punct('=') {
                        break;
                    }
                    if let Some(n) = t.ident() {
                        if !matches!(n, "let" | "mut" | "if" | "while" | "Ok" | "Some") {
                            name = Some(n.to_string());
                        }
                    }
                }
                name
            } else {
                None
            };
            held.push(Held {
                key,
                depth,
                until_semi: !is_let,
                guard,
            });
        }
        i += 1;
    }
    act
}

/// Collect held→acquired edges from one file (all non-test bodies).
fn lock_edges(parsed: &ParsedFile, lock_names: &BTreeSet<String>) -> Vec<LockEdge> {
    let mut edges: Vec<LockEdge> = Vec::new();
    for (_f, lo, hi) in parsed
        .fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| f.body.map(|(a, b)| (f, a, b)))
    {
        edges.extend(lock_activity(parsed, lock_names, lo, hi, &[]).edges);
    }
    edges
}

/// One detected lock-order cycle: its canonical id (sorted member set) and
/// a representative edge to anchor the diagnostic.
struct CycleHit {
    id: String,
    held: String,
    acquired: String,
    path: String,
    line: u32,
}

/// Detect cycles in a lock-order edge set. Returns the unallowed cycles
/// (one per canonical member set) and the full id set *including* allowed
/// cycles — D10 subtracts the latter so an intra-file cycle (reported or
/// blessed as D6) is never re-reported interprocedurally.
fn cycle_hits(edges: &[LockEdge]) -> (Vec<CycleHit>, BTreeSet<String>) {
    // Dedup parallel edges, keep first site.
    let mut uniq: Vec<&LockEdge> = Vec::new();
    for e in edges {
        if !uniq.iter().any(|u| u.held == e.held && u.acquired == e.acquired) {
            uniq.push(e);
        }
    }

    // DFS cycle detection: for each ordered pair (a, b) with an edge a→b,
    // a cycle exists iff b reaches a. Small graphs; quadratic is fine.
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                for e in &uniq {
                    if e.held == n {
                        stack.push(e.acquired.as_str());
                    }
                }
            }
        }
        false
    };

    let mut hits = Vec::new();
    let mut all_ids: BTreeSet<String> = BTreeSet::new();
    for e in &uniq {
        if !reaches(&e.acquired, &e.held) {
            continue;
        }
        // Canonical cycle id: the sorted node set, so each cycle reports once.
        let mut members: Vec<&str> = uniq
            .iter()
            .filter(|x| reaches(&x.acquired, &x.held))
            .flat_map(|x| [x.held.as_str(), x.acquired.as_str()])
            .filter(|n| reaches(n, &e.held) && reaches(&e.held, n))
            .collect();
        members.sort_unstable();
        members.dedup();
        let id = members.join(" -> ");
        if !all_ids.insert(id.clone()) {
            continue;
        }
        let cycle_allowed = uniq.iter().any(|x| {
            x.allowed && members.contains(&x.held.as_str()) && members.contains(&x.acquired.as_str())
        });
        if cycle_allowed {
            continue;
        }
        hits.push(CycleHit {
            id,
            held: e.held.clone(),
            acquired: e.acquired.clone(),
            path: e.path.clone(),
            line: e.line,
        });
    }
    (hits, all_ids)
}

/// Find cycles in the merged lock-order graph; one finding per cycle. Any
/// edge in the cycle carrying a `dpmd-allow D6` justification suppresses it.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let (hits, _) = cycle_hits(edges);
    hits.into_iter()
        .map(|h| Finding {
            rule: RuleId::D6,
            path: h.path,
            line: h.line,
            message: format!(
                "lock-order cycle {{{}}}: `{}` acquired while holding `{}` — a thread \
                 taking them in the opposite order deadlocks",
                h.id, h.acquired, h.held
            ),
            snippet: String::new(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// D7 and D10 — interprocedural rules over the workspace call graph.
// ---------------------------------------------------------------------------

/// Run the call-graph rules. `files` are the parsed inputs the graph was
/// built over (same order), `srcs` the matching source texts (for
/// snippets), `intra` the merged per-file D6 lock edges.
pub fn graph_rules(
    g: &CallGraph,
    files: &[ParsedFile],
    srcs: &[String],
    cfg: &Config,
    intra: &[LockEdge],
) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_d7(g, files, srcs, cfg, &mut out);
    rule_d10(g, cfg, intra, &mut out);
    out
}

fn graph_finding(
    g: &CallGraph,
    files: &[ParsedFile],
    srcs: &[String],
    rule: RuleId,
    node: NodeId,
    line: u32,
    message: String,
) -> Finding {
    let n = &g.nodes[node];
    Finding {
        rule,
        path: n.path.clone(),
        line,
        message,
        snippet: files[n.file].source_line(&srcs[n.file], line).to_string(),
    }
}

/// D7 — transitive hot-path allocation. Every function reachable from a
/// registered hot path (depth ≥ 1; the root itself is D5's) must be
/// allocation-free, unless its file is under a `d7_alloc_allow` prefix or
/// the site carries an inline `dpmd-allow D7`.
fn rule_d7(
    g: &CallGraph,
    files: &[ParsedFile],
    srcs: &[String],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    let roots = g.hotpath_roots(cfg);
    if roots.is_empty() {
        return;
    }
    let root_set: BTreeSet<NodeId> = roots.iter().copied().collect();
    let pred = g.reach(&roots);
    for &n in pred.keys() {
        if root_set.contains(&n) {
            continue;
        }
        let node = &g.nodes[n];
        if node.allocs.is_empty() || cfg.d7_alloc_allowed(&node.path) {
            continue;
        }
        let chain = g.chain(&pred, n);
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (line, what) in &node.allocs {
            if !seen_lines.insert(*line) || files[node.file].allowed("D7", *line) {
                continue;
            }
            out.push(graph_finding(
                g,
                files,
                srcs,
                RuleId::D7,
                n,
                *line,
                format!(
                    "{what} allocates on a hot path reached via {chain} — hoist into \
                     reusable scratch state or allowlist the file in d7_alloc_allow"
                ),
            ));
        }
    }
}

/// D10 — interprocedural lock order. Lifts D6 to lock sets accumulated
/// along real call chains: a lock held across a call edge orders against
/// everything the callee *may* acquire (transitively). Cycles already
/// visible intra-file stay D6's; only the chains the graph adds report
/// here. Escape hatch: `d10_blessed_edges` in the config.
fn rule_d10(g: &CallGraph, cfg: &Config, intra: &[LockEdge], out: &mut Vec<Finding>) {
    if g.held_calls.is_empty() {
        return;
    }
    // may_acquire fixpoint over non-test edges.
    let mut may: Vec<BTreeSet<String>> = g.nodes.iter().map(|n| n.acquires.clone()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for e in &g.edges {
            if g.nodes[e.from].is_test || g.nodes[e.to].is_test {
                continue;
            }
            let add: Vec<String> = may[e.to]
                .iter()
                .filter(|k| !may[e.from].contains(k.as_str()))
                .cloned()
                .collect();
            if !add.is_empty() {
                may[e.from].extend(add);
                changed = true;
            }
        }
    }
    let (_, intra_ids) = cycle_hits(intra);
    let mut combined: Vec<LockEdge> = intra.to_vec();
    for hc in &g.held_calls {
        for &ei in &hc.edges {
            let e = &g.edges[ei];
            for acq in &may[e.to] {
                for h in &hc.held {
                    if h != acq {
                        combined.push(LockEdge {
                            held: h.clone(),
                            acquired: acq.clone(),
                            path: e.path.clone(),
                            line: e.line,
                            allowed: cfg.d10_blessed(h, acq),
                        });
                    }
                }
            }
        }
    }
    let (hits, _) = cycle_hits(&combined);
    for h in hits {
        if intra_ids.contains(&h.id) {
            continue; // D6 (or its inline allow) already owns this cycle
        }
        out.push(Finding {
            rule: RuleId::D10,
            path: h.path,
            line: h.line,
            message: format!(
                "interprocedural lock-order cycle {{{}}}: a callee may acquire `{}` while \
                 `{}` is held across the call — opposite-order chains deadlock; reorder \
                 the acquisitions or bless the edge in d10_blessed_edges",
                h.id, h.acquired, h.held
            ),
            snippet: String::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let parsed = parse_file(path, src);
        let (mut findings, edges) = analyze_file(&parsed, src, &Config::default());
        findings.extend(lock_cycles(&edges));
        findings
    }

    #[test]
    fn container_names_from_lets_fields_and_params() {
        let p = parse_file(
            "crates/x/src/lib.rs",
            "struct S { pairs: Mutex<(usize, usize)> }\n\
             fn f(m: &RwLock<u32>) { let mut seen = Mutex::new(0); }\n\
             use std::sync::Mutex;\n",
        );
        let names = lock_container_names(&p);
        assert!(names.contains("pairs") && names.contains("m") && names.contains("seen"));
        assert!(!names.contains("sync"), "use paths must not bind names");
    }

    #[test]
    fn d2_spawn_capture_fires_and_local_chunk_buffer_does_not() {
        let bad = "fn f(pool: &Pool, total: &mut f64) {\n\
                   pool.scope(|s| { s.spawn(|| { *total += 1.5; }); });\n}";
        let f = run("crates/x/src/lib.rs", bad);
        assert!(f.iter().any(|f| f.rule == RuleId::D2), "{f:?}");
        let good = "fn f(pool: &Pool) {\n\
                    pool.scope(|s| { s.spawn(|| { let mut acc = 0.0; acc += 1.5; }); });\n}";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn d6_reports_ab_ba_cycle_once() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }\n\
                   fn g(&self) { let g = self.b.lock().unwrap(); let h = self.a.lock().unwrap(); }\n\
                   }\n";
        let f = run("crates/x/src/lib.rs", src);
        let d6: Vec<_> = f.iter().filter(|f| f.rule == RuleId::D6).collect();
        assert_eq!(d6.len(), 1, "{d6:?}");
        assert!(d6[0].message.contains("x::a") && d6[0].message.contains("x::b"));
    }

    #[test]
    fn d6_statement_temporary_does_not_hold() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) { *self.a.lock().unwrap() = 1; let h = self.b.lock().unwrap(); }\n\
                   fn g(&self) { *self.b.lock().unwrap() = 1; let h = self.a.lock().unwrap(); }\n\
                   }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }
}
