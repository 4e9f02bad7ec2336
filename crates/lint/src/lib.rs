//! **cia-lint** — the repo's determinism & safety static-analysis pass.
//!
//! Every guarantee this reproduction makes — byte-identical transcripts
//! under any `CIA_THREADS` and across kill/resume — is enforced downstream
//! by golden and property tests. This crate enforces the same invariants at
//! the *source* level: a lightweight Rust lexer ([`lexer`]) feeds a rule
//! engine ([`rules`]) that walks every
//! `crates/**/*.rs` and `src/**/*.rs` file and flags the constructs that
//! historically break those guarantees (unordered-map iteration, wall-clock
//! reads, entropy-seeded RNGs, narrowing casts, undocumented `unsafe`,
//! unmanaged threads, unordered float reductions) before they ever reach a
//! transcript.
//!
//! Run it as the workspace binary:
//!
//! ```text
//! cargo run --release -p cia-lint --bin cia-lint -- [--json] [--out FILE] [PATHS…]
//! ```
//!
//! With no `PATHS` the whole workspace is walked (relative to `--root`,
//! default the current directory). Exit status: `0` clean, `1` violations,
//! `2` usage or I/O errors. `scripts/ci.sh` gates on it ahead of clippy.
//!
//! Rule IDs, rationale, and the allow-comment grammar are documented in
//! `crates/lint/README.md`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, Diagnostic, FileClass, DETERMINISTIC_PATH_CRATES, RULES};

use std::path::{Path, PathBuf};

/// Diagnostics for one file, with the path workspace-relative and
/// `/`-separated (stable across platforms, and what [`FileClass`] keys on).
#[derive(Debug)]
pub struct FileReport {
    pub path: String,
    pub diagnostics: Vec<Diagnostic>,
}

/// A whole run: per-file findings plus counts for the summary line.
#[derive(Debug, Default)]
pub struct Report {
    /// Only files with at least one diagnostic appear here, in walk order
    /// (sorted by path).
    pub files: Vec<FileReport>,
    /// Total files scanned.
    pub files_scanned: usize,
    /// Paths that could not be read (reported, and counted as failures).
    pub unreadable: Vec<String>,
}

impl Report {
    /// Total diagnostics across all files.
    #[must_use]
    pub fn total(&self) -> usize {
        self.files.iter().map(|f| f.diagnostics.len()).sum()
    }

    /// Clean means zero diagnostics *and* every target was readable.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total() == 0 && self.unreadable.is_empty()
    }
}

/// The default lint surface under `root`: every `.rs` file beneath
/// `crates/` and `src/`, excluding the lint fixtures (known-bad snippets
/// by design) and anything under `target/`. Sorted for deterministic
/// output.
#[must_use]
pub fn default_targets(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // Fixtures are deliberately violating snippets; target/ is
            // build output.
            if name == "target" || path.ends_with("tests/fixtures") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Lints `paths` (files or directories), reporting each file's diagnostics
/// under its `root`-relative path.
#[must_use]
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> Report {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk(p, &mut files);
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();

    let mut report = Report::default();
    for file in &files {
        let rel = relative_slash_path(root, file);
        match std::fs::read_to_string(file) {
            Ok(src) => {
                report.files_scanned += 1;
                let diagnostics = lint_source(&rel, &src);
                if !diagnostics.is_empty() {
                    report.files.push(FileReport { path: rel, diagnostics });
                }
            }
            Err(e) => report.unreadable.push(format!("{rel}: {e}")),
        }
    }
    report
}

/// `root`-relative, `/`-separated rendering of `path` (falls back to the
/// path as given when it does not live under `root`).
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Human-readable rendering: `path:line:col: [RULE] message` plus the
/// offending line, then a one-line summary.
#[must_use]
pub fn render_human(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.files {
        for d in &f.diagnostics {
            let _ = writeln!(out, "{}:{}:{}: [{}] {}", f.path, d.line, d.col, d.rule, d.message);
            if !d.snippet.is_empty() {
                let _ = writeln!(out, "    {}", d.snippet);
            }
        }
    }
    for u in &report.unreadable {
        let _ = writeln!(out, "error: cannot read {u}");
    }
    let _ = writeln!(
        out,
        "cia-lint: {} violation(s) across {} file(s) ({} scanned)",
        report.total(),
        report.files.len(),
        report.files_scanned
    );
    out
}

/// JSON rendering (the CI artifact): a single object with a `violations`
/// array. Dependency-free by construction — the writer escapes strings
/// itself.
#[must_use]
pub fn render_json(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"cia-lint\",\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"total_violations\": {},", report.total());
    out.push_str("  \"violations\": [");
    let mut first = true;
    for f in &report.files {
        for d in &f.diagnostics {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}, \"snippet\": {}}}",
                json_string(d.rule),
                json_string(&f.path),
                d.line,
                d.col,
                json_string(&d.message),
                json_string(&d.snippet)
            );
        }
    }
    out.push_str("\n  ],\n  \"unreadable\": [");
    let mut first = true;
    for u in &report.unreadable {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    {}", json_string(u));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // cia-lint: allow(D05, char scalar values are at most 21 bits; u32 holds every codepoint)
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                // cia-lint: allow(D05, char scalar values are at most 21 bits; u32 holds every codepoint)
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_round_trips_special_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_summary_counts() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.files.push(FileReport {
            path: "x.rs".to_string(),
            diagnostics: lint_source("crates/core/src/x.rs", "fn f(x: u64) -> u32 { x as u32 }"),
        });
        assert_eq!(r.total(), 1);
        assert!(!r.is_clean());
        assert!(render_human(&r).contains("[D05]"));
        assert!(render_json(&r).contains("\"rule\": \"D05\""));
    }
}
