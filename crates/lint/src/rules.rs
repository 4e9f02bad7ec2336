//! The rule engine: determinism & safety invariants as machine-checked
//! rules over the token stream.
//!
//! Every rule carries a stable ID (`D01`–`D07`), fires span-accurate
//! diagnostics, and honors the allow-comment escape hatch:
//!
//! ```text
//! // cia-lint: allow(D05, population sizes fit u32 by spec validation)
//! ```
//!
//! A trailing allow covers its own line; an allow on a comment-only line
//! covers the next line holding code (stacking across further comment
//! lines). The reason string is **mandatory** — an allow without one is
//! itself a violation (`L00`), and an allow that suppresses nothing is too
//! (`L01`), so stale annotations cannot accumulate.
//!
//! See `crates/lint/README.md` for the full rationale behind each rule.

use crate::lexer::{tokenize, Token, TokenKind};

/// Crates whose output feeds the byte-identical transcript contract. D01
/// (unordered containers) and D07 (float iterator sums) apply only here.
pub const DETERMINISTIC_PATH_CRATES: &[&str] =
    &["core", "federated", "gossip", "models", "scenarios"];

/// Rule IDs in report order, with one-line summaries (mirrored in the
/// README and pinned by the fixture tests).
pub const RULES: &[(&str, &str)] = &[
    ("D01", "unordered container (HashMap/HashSet) in a deterministic-path crate"),
    ("D02", "direct Instant::now()/SystemTime::now() outside the cia-obs clock shim"),
    ("D03", "RNG constructed from OS entropy instead of an explicit seed"),
    ("D04", "unsafe block without a `// SAFETY:` comment on the preceding line"),
    ("D05", "narrowing `as` cast to a small integer type"),
    ("D06", "std::thread::spawn outside the parallel module"),
    ("D07", "float .sum::<f32/f64>() over an iterator in a deterministic-path crate"),
    ("L00", "malformed cia-lint allow comment (missing reason or unknown rule)"),
    ("L01", "allow comment that suppresses no violation"),
];

/// One finding: rule, location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID (`D01`…`D07`, `L00`, `L01`).
    pub rule: &'static str,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// 1-indexed column of the offending token.
    pub col: usize,
    /// What is wrong and what to do about it.
    pub message: String,
    /// The source line, trimmed — enough context to act without opening
    /// the file.
    pub snippet: String,
}

/// How a file relates to the rule set, derived from its workspace-relative
/// path. The engine itself never touches the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass<'a> {
    /// Crate name (`core`, `gossip`, …), `root` for `src/`, or the first
    /// path segment otherwise.
    pub krate: &'a str,
    /// D01/D07 apply.
    pub deterministic_path: bool,
    /// D02 exempt: the detail-gated clock shim lives here.
    pub is_obs: bool,
    /// D06 exempt: the scoped-thread fan-out helper itself.
    pub is_parallel_module: bool,
}

impl<'a> FileClass<'a> {
    /// Classifies a `/`-separated workspace-relative path like
    /// `crates/gossip/src/sim.rs` or `src/lib.rs`.
    #[must_use]
    pub fn of(path: &'a str) -> Self {
        let mut segs = path.split('/');
        let krate = match segs.next() {
            Some("crates") => segs.next().unwrap_or(""),
            Some("src") => "root",
            Some(first) => first,
            None => "",
        };
        FileClass {
            krate,
            deterministic_path: DETERMINISTIC_PATH_CRATES.contains(&krate),
            is_obs: krate == "obs",
            is_parallel_module: path.ends_with("data/src/parallel.rs"),
        }
    }
}

/// A parsed `cia-lint: allow(RULE, reason)` comment.
#[derive(Debug)]
struct Allow {
    rule: String,
    /// The line of code this allow suppresses.
    target_line: usize,
    /// Where the comment itself sits (for L00/L01 diagnostics).
    line: usize,
    col: usize,
    used: std::cell::Cell<bool>,
    malformed: Option<&'static str>,
}

/// Lints one file's source. `path` must be workspace-relative with `/`
/// separators (it selects which rules apply); diagnostics come back sorted
/// by line then rule.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let class = FileClass::of(path);
    let tokens = tokenize(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let comments: Vec<&Token> = tokens.iter().filter(|t| t.is_comment()).collect();
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: usize| -> String {
        lines.get(line.saturating_sub(1)).map_or(String::new(), |l| l.trim().to_string())
    };

    let allows = collect_allows(src, &comments, &code);
    let mut raw = Vec::new();
    check_determinism_rules(&class, src, &code, &mut raw);
    check_safety_comments(&class, src, &code, &comments, &mut raw);

    // Match raw violations against allows; an allow fires for its rule on
    // its target line and may cover several violations there (one comment
    // per line is the granularity).
    let mut out = Vec::new();
    for (rule, line, col, message) in raw {
        let allowed = allows
            .iter()
            .find(|a| a.malformed.is_none() && a.rule == rule && a.target_line == line);
        match allowed {
            Some(a) => a.used.set(true),
            None => out.push(Diagnostic { rule, line, col, message, snippet: snippet(line) }),
        }
    }
    for a in &allows {
        if let Some(why) = a.malformed {
            out.push(Diagnostic {
                rule: "L00",
                line: a.line,
                col: a.col,
                message: format!(
                    "malformed allow comment ({why}); expected `cia-lint: allow(RULE, reason)`"
                ),
                snippet: snippet(a.line),
            });
        } else if !a.used.get() {
            out.push(Diagnostic {
                rule: "L01",
                line: a.line,
                col: a.col,
                message: format!(
                    "allow({}) suppresses nothing on line {} — remove the stale annotation",
                    a.rule, a.target_line
                ),
                snippet: snippet(a.line),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Extracts and validates every allow comment, resolving each to the code
/// line it covers.
fn collect_allows(src: &str, comments: &[&Token], code: &[&Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let text = c.text(src);
        // Doc comments are prose for humans — a directive quoted there
        // (e.g. this module's own docs) is documentation, not an allow.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = text.find("cia-lint:") else { continue };
        let directive = text[pos + "cia-lint:".len()..].trim_start();
        let (rule, malformed) = parse_allow(directive);
        // A comment with code before it on its own line is trailing and
        // covers that line; otherwise it covers the next line holding code.
        let trailing = code.iter().any(|t| t.line == c.line && t.start < c.start);
        let target_line = if trailing {
            c.line
        } else {
            code.iter().map(|t| t.line).filter(|&l| l > c.line_end).min().unwrap_or(c.line_end + 1)
        };
        allows.push(Allow {
            rule,
            target_line,
            line: c.line,
            col: c.col,
            used: std::cell::Cell::new(false),
            malformed,
        });
    }
    allows
}

/// Parses `allow(RULE, reason)` out of a directive body. Returns the rule
/// ID (best-effort on malformed input) and an error description if any.
fn parse_allow(directive: &str) -> (String, Option<&'static str>) {
    let Some(rest) = directive.strip_prefix("allow(") else {
        return (String::new(), Some("directive is not `allow(…)`"));
    };
    // The reason runs to the *last* closing paren, so it may itself
    // mention calls like `len()` without ending the directive early.
    let Some(end) = rest.rfind(')') else {
        return (String::new(), Some("missing closing `)`"));
    };
    let body = &rest[..end];
    let (rule, reason) = match body.split_once(',') {
        Some((r, why)) => (r.trim().to_string(), why.trim()),
        None => (body.trim().to_string(), ""),
    };
    if !RULES.iter().any(|(id, _)| *id == rule) {
        return (rule, Some("unknown rule ID"));
    }
    if reason.is_empty() {
        return (rule, Some("a reason is required"));
    }
    (rule, None)
}

/// Is `code[i]` part of a `use` declaration? D01 anchors on type *usage*;
/// flagging the import line as well would just demand a second annotation
/// for the same fact.
fn in_use_decl(code: &[&Token], src: &str, i: usize) -> bool {
    code[..i]
        .iter()
        .rev()
        .take_while(|t| {
            let txt = t.text(src);
            !(txt == ";" || txt == "}")
        })
        .any(|t| t.text(src) == "use")
}

/// D01–D03 and D05–D07: token-pattern rules.
#[allow(clippy::too_many_lines)]
fn check_determinism_rules(
    class: &FileClass,
    src: &str,
    code: &[&Token],
    out: &mut Vec<(&'static str, usize, usize, String)>,
) {
    const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    const ENTROPY_IDENTS: &[&str] =
        &["from_entropy", "thread_rng", "OsRng", "from_os_rng", "getrandom", "EntropyRng"];
    let text = |i: usize| code.get(i).map_or("", |t| t.text(src));
    let is = |i: usize, s: &str| text(i) == s;
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident && !(tok.kind == TokenKind::Punct && is(i, ".")) {
            continue;
        }
        let t = tok.text(src);
        // D01 — unordered containers anywhere in a deterministic-path
        // crate. Over-approximate on purpose: iteration order escapes
        // through folds too indirect to see lexically, so the *type* is
        // the contraband and every appearance needs a written order-safety
        // argument (or a BTree swap).
        if class.deterministic_path
            && (t == "HashMap" || t == "HashSet")
            && !in_use_decl(code, src, i)
        {
            out.push((
                "D01",
                tok.line,
                tok.col,
                format!(
                    "`{t}` in deterministic-path crate `{}`: unordered iteration can leak into \
                     transcripts — use BTreeMap/BTreeSet or allowlist with an \
                     order-canonicalization reason",
                    class.krate
                ),
            ));
        }
        // D02 — wall-clock reads outside the obs shim.
        if !class.is_obs
            && (t == "Instant" || t == "SystemTime")
            && is(i + 1, ":")
            && is(i + 2, ":")
            && is(i + 3, "now")
        {
            out.push((
                "D02",
                tok.line,
                tok.col,
                format!(
                    "direct `{t}::now()`: route timing through cia-obs's detail-gated clock \
                     (Recorder spans) so `--no-timing` transcripts stay byte-identical"
                ),
            ));
        }
        // D03 — entropy-derived randomness.
        if ENTROPY_IDENTS.contains(&t) {
            out.push((
                "D03",
                tok.line,
                tok.col,
                format!(
                    "`{t}`: every RNG must derive from an explicit seed — OS entropy breaks \
                         transcript reproducibility"
                ),
            ));
        }
        // D05 — narrowing integer casts. The 32-bit checkpoint-hash
        // collision fixed in PR 5 was exactly this: a silent `as u32`
        // truncation of a 64-bit hash.
        if t == "as" && tok.kind == TokenKind::Ident {
            let target = text(i + 1);
            if NARROW_INTS.contains(&target) {
                out.push((
                    "D05",
                    tok.line,
                    tok.col,
                    format!(
                        "narrowing `as {target}` cast: use `{target}::try_from` or allowlist \
                         with the invariant that bounds the source"
                    ),
                ));
            }
        }
        // D06 — unmanaged threads.
        if !class.is_parallel_module
            && t == "thread"
            && is(i + 1, ":")
            && is(i + 2, ":")
            && is(i + 3, "spawn")
        {
            out.push((
                "D06",
                tok.line,
                tok.col,
                "`std::thread::spawn` outside cia-data::parallel: unmanaged threads bypass \
                 the deterministic fan-out helpers"
                    .to_string(),
            ));
        }
        // D07 — float iterator sums on the deterministic path.
        if class.deterministic_path
            && is(i, ".")
            && is(i + 1, "sum")
            && is(i + 2, ":")
            && is(i + 3, ":")
            && is(i + 4, "<")
            && (is(i + 5, "f32") || is(i + 5, "f64"))
        {
            out.push((
                "D07",
                tok.line,
                tok.col,
                format!(
                    "float `.sum::<{}>()` in a deterministic-path crate: allowlist with a note \
                     fixing the reduction order (or restructure into a fixed-order fold)",
                    text(i + 5)
                ),
            ));
        }
    }
}

/// D04 — every `unsafe {` block needs a `// SAFETY:` comment immediately
/// above (or earlier on the same line). A reasoned `allow(D04, …)` works
/// too, but the SAFETY convention is the expected fix.
fn check_safety_comments(
    _class: &FileClass,
    src: &str,
    code: &[&Token],
    comments: &[&Token],
    out: &mut Vec<(&'static str, usize, usize, String)>,
) {
    for (i, tok) in code.iter().enumerate() {
        if tok.text(src) != "unsafe" || tok.kind != TokenKind::Ident {
            continue;
        }
        // Only blocks: `unsafe fn`/`unsafe impl` declare obligations for
        // callers, they don't discharge them.
        if code.get(i + 1).map(|t| t.text(src)) != Some("{") {
            continue;
        }
        // Accept `SAFETY:` anywhere in the contiguous comment run ending
        // on the preceding line (a multi-line `//` block states it once),
        // or earlier on the `unsafe` line itself.
        let mut covered = comments
            .iter()
            .any(|c| c.line == tok.line && c.start < tok.start && c.text(src).contains("SAFETY:"));
        let mut line = tok.line;
        while !covered && line > 1 {
            line -= 1;
            let Some(c) = comments.iter().find(|c| c.line_end == line) else { break };
            covered = c.text(src).contains("SAFETY:");
            // A trailing comment after code ends the run (examine, then stop).
            if code.iter().any(|t| t.line == line) {
                break;
            }
            line = line.saturating_sub(c.line_end - c.line);
        }
        if !covered {
            out.push((
                "D04",
                tok.line,
                tok.col,
                "`unsafe` block without a `// SAFETY:` comment on the preceding line — state \
                 the invariant that makes this sound"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_source(path, src).iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn file_classification() {
        let c = FileClass::of("crates/gossip/src/sim.rs");
        assert!(c.deterministic_path && !c.is_obs && !c.is_parallel_module);
        assert!(FileClass::of("crates/obs/src/lib.rs").is_obs);
        assert!(FileClass::of("crates/data/src/parallel.rs").is_parallel_module);
        assert!(!FileClass::of("src/lib.rs").deterministic_path);
        assert_eq!(FileClass::of("src/lib.rs").krate, "root");
    }

    #[test]
    fn d01_fires_only_on_deterministic_path() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(rules_at("crates/core/src/x.rs", src), [("D01", 1), ("D01", 1)]);
        assert_eq!(rules_at("crates/experiments/src/x.rs", src), []);
    }

    #[test]
    fn d01_skips_use_declarations() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) { m.len(); }";
        assert_eq!(rules_at("crates/gossip/src/x.rs", src), [("D01", 2)]);
    }

    #[test]
    fn d02_exempts_obs() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_at("crates/gossip/src/x.rs", src), [("D02", 1)]);
        assert_eq!(rules_at("crates/obs/src/lib.rs", src), []);
    }

    #[test]
    fn d04_satisfied_by_preceding_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", bad), [("D04", 1)]);
        let good = "// SAFETY: g has no preconditions\nfn f() {\n unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", good), [("D04", 3)]);
        let good2 = "fn f() {\n // SAFETY: g has no preconditions\n unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", good2), []);
    }

    #[test]
    fn d04_accepts_multi_line_comment_runs() {
        let good = "fn f() {\n // SAFETY: the pointer is valid\n // for the whole call.\n unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", good), []);
        let block = "/* SAFETY: sound because\n   reasons span lines */\nfn f() { unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", block), []);
        // An unrelated comment run without the marker still fires.
        let bad = "fn f() {\n // Just a note\n // across two lines.\n unsafe { g() } }";
        assert_eq!(rules_at("crates/data/src/x.rs", bad), [("D04", 4)]);
    }

    #[test]
    fn d04_ignores_unsafe_fn_declarations() {
        assert_eq!(rules_at("crates/data/src/x.rs", "unsafe fn g() {}"), []);
    }

    #[test]
    fn d05_only_narrow_targets() {
        assert_eq!(rules_at("src/lib.rs", "fn f(x: u64) -> u32 { x as u32 }"), [("D05", 1)]);
        assert_eq!(rules_at("src/lib.rs", "fn f(x: u32) -> u64 { x as u64 }"), []);
        assert_eq!(rules_at("src/lib.rs", "fn f(x: u32) -> usize { x as usize }"), []);
    }

    #[test]
    fn d06_exempts_only_the_parallel_module() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_at("crates/federated/src/x.rs", src), [("D06", 1)]);
        assert_eq!(rules_at("crates/scenarios/src/bin/x.rs", src), [("D06", 1)]);
        assert_eq!(rules_at("crates/data/src/parallel.rs", src), []);
    }

    #[test]
    fn d07_needs_deterministic_path() {
        let src = "fn f(v: &[f32]) -> f32 { v.iter().sum::<f32>() }";
        assert_eq!(rules_at("crates/models/src/x.rs", src), [("D07", 1)]);
        assert_eq!(rules_at("crates/data/src/x.rs", src), []);
    }

    #[test]
    fn trailing_allow_suppresses() {
        let src =
            "fn f(x: u64) -> u32 { x as u32 } // cia-lint: allow(D05, hash is 32-bit by design)";
        assert_eq!(rules_at("src/lib.rs", src), []);
    }

    #[test]
    fn preceding_allow_suppresses_across_comment_lines() {
        let src = "// cia-lint: allow(D05, bounded by catalog size)\n// Another note.\nfn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_at("src/lib.rs", src), []);
    }

    #[test]
    fn allow_reason_may_contain_parens() {
        let src = "fn f(x: u64) -> u32 { x as u32 } // cia-lint: allow(D05, bounded by len() at build time)";
        assert_eq!(rules_at("src/lib.rs", src), []);
    }

    #[test]
    fn allow_without_reason_is_l00() {
        let src = "fn f(x: u64) -> u32 { x as u32 } // cia-lint: allow(D05)";
        assert_eq!(rules_at("src/lib.rs", src), [("D05", 1), ("L00", 1)]);
    }

    #[test]
    fn unknown_rule_is_l00() {
        let src = "fn f() {} // cia-lint: allow(D99, no such rule)";
        assert_eq!(rules_at("src/lib.rs", src), [("L00", 1)]);
    }

    #[test]
    fn unused_allow_is_l01() {
        let src = "// cia-lint: allow(D05, nothing here narrows)\nfn f() {}";
        assert_eq!(rules_at("src/lib.rs", src), [("L01", 1)]);
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let src = "// mentions HashMap and Instant::now()\nfn f() -> &'static str { \"x as u32; thread::spawn\" }";
        assert_eq!(rules_at("crates/core/src/x.rs", src), []);
    }

    #[test]
    fn one_allow_covers_all_same_rule_hits_on_its_line() {
        let src = "fn f(x: u64, y: u64) -> (u32, u32) { (x as u32, y as u32) } // cia-lint: allow(D05, both bounded by n < 2^32)";
        assert_eq!(rules_at("src/lib.rs", src), []);
    }
}
