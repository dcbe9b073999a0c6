//! A lightweight item/block parser over the token stream.
//!
//! The rules don't need full Rust syntax — they need to know, for every
//! file: where each `fn` body starts and ends, which code is test-only
//! (`#[cfg(test)]` modules, `#[test]` functions, `tests/`/`benches/`/
//! `examples/` targets), and how braces nest.
//! This module extracts exactly that, tolerantly: unparseable stretches are
//! skipped, never fatal.

use crate::lexer::{lex, Comment, Lexed, Token};

/// One function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token range of the body block, *excluding* the outer braces
    /// (`None` for trait-method declarations without bodies).
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]`, under `#[test]`, or in a test-like target.
    pub is_test: bool,
    /// Inline `mod` path enclosing the item (outer → inner). The file's own
    /// module path comes from its filesystem location; this is only what
    /// `mod name { … }` blocks add on top.
    pub mod_path: Vec<String>,
    /// Self type of the enclosing `impl` block (`Avx2` for
    /// `impl Kernel for Avx2`), or the trait name for default methods
    /// declared directly inside `trait T { … }`.
    pub impl_type: Option<String>,
    /// Trait being implemented, when the enclosing impl is a trait impl.
    pub trait_name: Option<String>,
    /// Carries a `pub` / `pub(…)` visibility qualifier.
    pub is_pub: bool,
}

/// One `use` import: `alias` names `path` in this file's scope.
/// `use a::b::c;` → alias `c`, path `[a, b, c]`; `use a::b as x;` → alias
/// `x`, path `[a, b]`; groups `use a::{b, c::d}` flatten to one item each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseItem {
    pub path: Vec<String>,
    pub alias: String,
}

/// A parsed source file.
pub struct ParsedFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnItem>,
    /// `use` imports (aliased names in scope), file-wide.
    pub uses: Vec<UseItem>,
    /// Glob import prefixes (`use a::b::*;` → `[a, b]`).
    pub globs: Vec<Vec<String>>,
    /// Whole file is test-like (under `tests/`, `benches/`, `examples/`,
    /// or a `fixtures/` data directory).
    pub file_is_testlike: bool,
}

impl ParsedFile {
    /// Find the token index of the brace matching the opening brace at
    /// `open` (which must be `{`). Returns the index of the closing `}`.
    pub fn match_brace(&self, open: usize) -> usize {
        match_brace(&self.tokens, open)
    }

    /// Is there an inline `// dpmd-allow <rule>: reason` on `line` or the
    /// line above? Requires a non-empty justification after the colon.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let needle = format!("dpmd-allow {rule}");
        self.comments.iter().any(|c| {
            (c.end_line + 1 == line || (c.start_line <= line && line <= c.end_line))
                && c.text
                    .split(&needle)
                    .nth(1)
                    .is_some_and(|rest| {
                        let rest = rest.trim_start();
                        rest.starts_with(':') && rest[1..].trim().len() > 2
                    })
        })
    }

    /// The trimmed source line `line` (1-based), for snippets.
    pub fn source_line<'a>(&self, src: &'a str, line: u32) -> &'a str {
        src.lines().nth(line as usize - 1).unwrap_or("").trim()
    }
}

/// Match a `{` at token index `open` to its closing `}` index. Counts only
/// braces (parens/brackets cannot contain unbalanced braces in valid Rust).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Match a `(` at token index `open` to its closing `)` index, counting all
/// three bracket kinds so nested closures/indexing don't desynchronize.
pub fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            crate::lexer::Tok::Punct('(') => depth += 1,
            crate::lexer::Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parse one file's source.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let Lexed { tokens, comments } = lex(src);
    let file_is_testlike = {
        let p = format!("/{path}");
        ["/tests/", "/benches/", "/examples/", "/fixtures/"].iter().any(|d| p.contains(d))
    };

    let mut fns = Vec::new();

    // Test regions: `#[cfg(test)]` (optionally with more attrs) before a
    // `mod name {` — mark the block's token range.
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            // Scan forward to the next `{` before a `;` — the mod body.
            let mut j = i;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                test_ranges.push((j, match_brace(&tokens, j)));
            }
        }
        i += 1;
    }
    let in_test_range =
        |i: usize| file_is_testlike || test_ranges.iter().any(|&(a, b)| a <= i && i <= b);

    // Enclosing-context regions: inline `mod name { … }` blocks, `impl`
    // blocks (with self type and optional trait), and `trait Name { … }`
    // bodies (default methods resolve as methods of the trait).
    let mod_regions = mod_regions(&tokens);
    let impl_regions = impl_regions(&tokens);

    let mut uses = Vec::new();
    let mut globs = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("use") {
            i = parse_use(&tokens, i, &mut uses, &mut globs);
            continue;
        }
        if t.is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if let Some(name) = name_tok.ident() {
                    // Walk to the body `{` or a `;` (declaration only).
                    // Parens/brackets are skipped wholesale so default
                    // closure arguments can't confuse the scan.
                    let mut j = i + 2;
                    let mut body = None;
                    while j < tokens.len() {
                        if tokens[j].is_punct('(') {
                            j = match_paren(&tokens, j) + 1;
                            continue;
                        }
                        if tokens[j].is_punct('{') {
                            let close = match_brace(&tokens, j);
                            body = Some((j + 1, close));
                            break;
                        }
                        if tokens[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    let is_test = in_test_range(i) || has_test_attr(&tokens, i);
                    let is_pub = is_pub_fn(&tokens, i);
                    let mod_path = mod_regions
                        .iter()
                        .filter(|r| r.open < i && i <= r.close)
                        .map(|r| r.name.clone())
                        .collect();
                    let (impl_type, trait_name) = impl_regions
                        .iter()
                        .rfind(|r| r.open < i && i <= r.close)
                        .map(|r| (Some(r.self_type.clone()), r.trait_name.clone()))
                        .unwrap_or((None, None));
                    fns.push(FnItem {
                        name: name.to_string(),
                        line: t.line,
                        sig_start: i,
                        body,
                        is_test,
                        mod_path,
                        impl_type,
                        trait_name,
                        is_pub,
                    });
                }
            }
        }
        i += 1;
    }

    ParsedFile {
        path: path.to_string(),
        tokens,
        comments,
        fns,
        uses,
        globs,
        file_is_testlike,
    }
}

/// An inline `mod name { … }` region (token indices of the braces).
struct ModRegion {
    name: String,
    open: usize,
    close: usize,
}

fn mod_regions(tokens: &[Token]) -> Vec<ModRegion> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("mod") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else { continue };
        if tokens.get(i + 2).is_some_and(|t| t.is_punct('{')) {
            out.push(ModRegion {
                name: name.to_string(),
                open: i + 2,
                close: match_brace(tokens, i + 2),
            });
        }
    }
    out
}

/// An `impl [Trait for] Type { … }` or `trait Name { … }` region.
struct ImplRegion {
    self_type: String,
    trait_name: Option<String>,
    open: usize,
    close: usize,
}

/// Index of the `>` matching the `<` at `open` (for turbofish scans).
/// Bails at `{`/`;`/`(` so a stray comparison can't run away.
pub fn match_angle(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        } else if t.is_punct('{') || t.is_punct(';') || t.is_punct('(') {
            return open;
        }
    }
    open
}

/// Skip a generic argument list starting at the `<` at `i`; returns the
/// index just past the matching `>`. `>>` arrives as two adjacent puncts,
/// so plain depth counting works.
fn skip_angles(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct('<') {
            depth += 1;
        } else if tokens[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if tokens[j].is_punct('{') || tokens[j].is_punct(';') {
            return j; // malformed; bail at the item boundary
        }
        j += 1;
    }
    j
}

fn impl_regions(tokens: &[Token]) -> Vec<ImplRegion> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let is_impl = tokens[i].is_ident("impl");
        let is_trait = tokens[i].is_ident("trait")
            && !tokens.get(i.wrapping_sub(1)).is_some_and(|t| t.is_ident("impl"));
        if !is_impl && !is_trait {
            continue;
        }
        // Walk the header: remember the last path ident seen; `for` marks
        // everything before it as the trait; generics are skipped whole.
        let mut last: Option<String> = None;
        let mut trait_name: Option<String> = None;
        let mut j = i + 1;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                j = skip_angles(tokens, j);
                continue;
            }
            if t.is_ident("for") {
                trait_name = last.take();
                j += 1;
                continue;
            }
            if t.is_ident("where") {
                // Bounds may contain `{`-free paths only; scan to the body.
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                continue;
            }
            if t.is_punct('{') {
                open = Some(j);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            if let Some(id) = t.ident() {
                last = Some(id.to_string());
            }
            j += 1;
        }
        let (Some(open), Some(self_type)) = (open, last) else { continue };
        if is_trait {
            // Default methods in `trait Name { … }` belong to the trait.
            out.push(ImplRegion {
                self_type,
                trait_name: None,
                open,
                close: match_brace(tokens, open),
            });
        } else {
            out.push(ImplRegion { self_type, trait_name, open, close: match_brace(tokens, open) });
        }
    }
    out
}

/// A `pub` qualifier in the few tokens before a `fn` keyword.
fn is_pub_fn(tokens: &[Token], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    let lo = fn_idx.saturating_sub(10);
    while i > lo {
        i -= 1;
        let t = &tokens[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(']') {
            break;
        }
        if t.is_ident("pub") {
            return true;
        }
    }
    false
}

/// Parse a `use …;` item starting at the `use` keyword at `i`. Appends the
/// flattened imports to `uses`/`globs` and returns the index just past the
/// terminating `;`.
fn parse_use(
    tokens: &[Token],
    i: usize,
    uses: &mut Vec<UseItem>,
    globs: &mut Vec<Vec<String>>,
) -> usize {
    // Find the end of the item first so malformed input can't run away.
    let mut end = i + 1;
    let mut depth = 0i64;
    while end < tokens.len() {
        match tokens[end].kind {
            crate::lexer::Tok::Punct('{') => depth += 1,
            crate::lexer::Tok::Punct('}') => depth -= 1,
            crate::lexer::Tok::Punct(';') if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    let mut prefix = Vec::new();
    parse_use_tree(tokens, i + 1, end, &mut prefix, uses, globs);
    end + 1
}

/// Recursive `use`-tree walk over tokens `[lo, hi)` with the accumulated
/// `prefix`. Handles `a::b`, `a as x`, `a::{b, c::d}`, and `a::*`.
fn parse_use_tree(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    prefix: &mut Vec<String>,
    uses: &mut Vec<UseItem>,
    globs: &mut Vec<Vec<String>>,
) {
    let base_len = prefix.len();
    let mut j = lo;
    fn flush(uses: &mut Vec<UseItem>, base_len: usize, prefix: &[String], alias: Option<String>) {
        if prefix.len() > base_len || alias.is_some() {
            if let Some(last) = prefix.last() {
                let alias = alias.unwrap_or_else(|| last.clone());
                uses.push(UseItem { path: prefix.to_vec(), alias });
            }
        }
    }
    while j < hi {
        let t = &tokens[j];
        if let Some(id) = t.ident() {
            if id == "as" {
                if let Some(alias) = tokens.get(j + 1).and_then(Token::ident) {
                    flush(uses, base_len, prefix, Some(alias.to_string()));
                    prefix.truncate(base_len);
                    j += 2;
                    // Skip to the next `,` at this level.
                    while j < hi && !tokens[j].is_punct(',') {
                        j += 1;
                    }
                    continue;
                }
            }
            prefix.push(id.to_string());
            j += 1;
            continue;
        }
        if t.is_punct(':') {
            j += 1; // both halves of `::`
            continue;
        }
        if t.is_punct('*') {
            if prefix.len() > base_len {
                globs.push(prefix[..prefix.len()].to_vec());
            }
            prefix.truncate(base_len);
            j += 1;
            continue;
        }
        if t.is_punct('{') {
            let close = match_brace(tokens, j);
            parse_use_tree(tokens, j + 1, close.min(hi), prefix, uses, globs);
            prefix.truncate(base_len);
            j = close + 1;
            // A group ends its branch: skip to the next `,`.
            while j < hi && !tokens[j].is_punct(',') {
                j += 1;
            }
            continue;
        }
        if t.is_punct(',') {
            flush(uses, base_len, prefix, None);
            prefix.truncate(base_len);
            j += 1;
            continue;
        }
        j += 1;
    }
    flush(uses, base_len, prefix, None);
    prefix.truncate(base_len);
}

/// Does an `#[cfg(test)]` attribute start at token `i`?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
}

/// Is the `fn` at token index `fn_idx` annotated `#[test]` (or
/// `#[should_panic]`-style companions) in the few tokens before it?
fn has_test_attr(tokens: &[Token], fn_idx: usize) -> bool {
    // Scan back over attributes and modifiers.
    let lo = fn_idx.saturating_sub(24);
    let mut i = fn_idx;
    while i > lo {
        i -= 1;
        let t = &tokens[i];
        if t.is_ident("test") || t.is_ident("should_panic") || t.is_ident("bench") {
            // Part of an attribute? `#[test]` → preceded by `[` preceded by `#`.
            if i >= 2 && tokens[i - 1].is_punct('[') && tokens[i - 2].is_punct('#') {
                return true;
            }
        }
        // Stop scanning at statement/item boundaries.
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_bodies() {
        let p = parse_file(
            "crates/x/src/lib.rs",
            "pub fn a(x: usize) -> usize { x + 1 }\nfn b();\nunsafe fn c() {}\n",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "a");
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[1].body.is_none());
        assert!(p.fns[0].is_pub && !p.fns[2].is_pub);
    }

    #[test]
    fn cfg_test_modules_and_test_attrs_mark_fns() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n";
        let p = parse_file("crates/x/src/lib.rs", src);
        let real = p.fns.iter().find(|f| f.name == "real").unwrap();
        let t = p.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(!real.is_test);
        assert!(t.is_test);
    }

    #[test]
    fn tests_dir_files_are_testlike() {
        let p = parse_file("crates/x/tests/foo.rs", "fn helper() {}");
        assert!(p.file_is_testlike);
        assert!(p.fns[0].is_test);
    }

    #[test]
    fn dpmd_allow_requires_a_reason() {
        let src = "// dpmd-allow D5: scratch reused across rounds\nlet v = Vec::new();\n// dpmd-allow D5:\nlet w = Vec::new();\n";
        let p = parse_file("crates/x/src/lib.rs", src);
        assert!(p.allowed("D5", 2));
        assert!(!p.allowed("D5", 4), "empty justification must not count");
        assert!(!p.allowed("D7", 2), "rule must match");
    }
}
