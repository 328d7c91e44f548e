//! `dta-lint` — in-tree static analysis enforcing the workspace's
//! determinism invariants that clippy cannot check.
//!
//! PR 1 established that parallel and serial Greedy(m,k) runs produce
//! **byte-identical recommendations**. That property is load-bearing —
//! DTA ranks configurations by optimizer-estimated cost, so any
//! nondeterminism in iteration order, float tie-breaking, or thread
//! interleaving silently changes recommendations between runs. This
//! crate encodes the part of that discipline clippy has no lint for as
//! token rules over a hand-rolled lexer (see [`rules::RULES`]): R2
//! (costs compare through `det`), R6 (every `Relaxed` atomic is
//! justified) and R11 (every library `expect` writes down its
//! invariant).
//!
//! The other rules are clippy lints and lists (`crates/clippy.toml` and
//! the crate-level attributes), and lock order is the ranked locks of
//! the `parking_lot` shim (DESIGN.md §8). Everything here is
//! dependency-free, offline, and fast enough to gate CI.
//!
//! ```text
//! cargo run -p dta-lint -- crates/ --deny-warnings   # gate
//! cargo run -p dta-lint -- crates/ --json            # machine report
//! ```
//!
//! Escape hatch: `// dta-lint: allow(<rule>): <justification>` on (or
//! directly above) the offending line. The justification is mandatory,
//! and a pragma that suppresses nothing is itself a finding (P1).

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;

pub use rules::{Finding, Severity};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of linting a set of paths.
#[derive(Debug, Default)]
pub struct LintResult {
    /// Findings that survived suppression, in (path, line, col) order.
    pub findings: Vec<Finding>,
    /// Findings silenced by valid pragmas.
    pub suppressed: usize,
    /// Files inspected.
    pub files: usize,
}

impl LintResult {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }

    /// Whether the run should fail the build.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0)
    }
}

/// Lint a single source text under a (possibly synthetic) relative
/// path with suppression applied, without the stale-pragma check (P1).
/// The path drives rule scoping — `"crates/core/src/greedy.rs"` enables
/// R2 even for an in-memory fixture.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    rules::check_source(rel_path, src).0
}

/// Lint a set of in-memory sources: token rules, suppression, and
/// stale-pragma detection (P1), exactly as [`lint_paths`] does on disk.
pub fn lint_sources(files: &[(&str, &str)]) -> LintResult {
    let mut result = LintResult::default();
    for (rel, src) in files {
        check_file(&rel.replace('\\', "/"), src, &mut result);
    }
    finish(result)
}

/// Lint every in-scope `.rs` file under `paths` (files or directories).
pub fn lint_paths(paths: &[PathBuf]) -> io::Result<LintResult> {
    let mut files = Vec::new();
    for p in paths {
        collect_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut result = LintResult::default();
    for f in &files {
        let rel = workspace_rel(&f.to_string_lossy().replace('\\', "/"));
        if rules::in_scope(&rel) {
            check_file(&rel, &fs::read_to_string(f)?, &mut result);
        }
    }
    Ok(finish(result))
}

/// Normalize an absolute path to its workspace-relative form so that
/// path-scoped rules and pragma sanctions are stable regardless of
/// where the linter was invoked from.
fn workspace_rel(path: &str) -> String {
    match path.find("/crates/") {
        Some(i) => path[i + 1..].to_string(),
        None => path.to_string(),
    }
}

/// One file: apply its pragmas to the token findings, then flag the
/// pragmas that earned their keep nowhere (P1).
fn check_file(rel: &str, src: &str, result: &mut LintResult) {
    let analysis = rules::analyze_tokens(rel, src);
    result.files += 1;
    let mut used = vec![false; analysis.pragmas.len()];
    for f in analysis.findings {
        let by = analysis.pragmas.iter().position(|p| p.suppresses(f.rule, f.line));
        match by {
            Some(pi) if f.rule != "P0" => {
                used[pi] = true;
                result.suppressed += 1;
            }
            _ => result.findings.push(f),
        }
    }
    // stale pragmas (P1): valid, outside test code, suppressed nothing
    let in_test = |line: u32| analysis.test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
    for (p, used) in analysis.pragmas.iter().zip(used) {
        if p.error.is_some() || used || in_test(p.line) {
            continue;
        }
        result.findings.push(Finding {
            rule: "P1",
            severity: Severity::Warning,
            path: rel.to_string(),
            line: p.line,
            col: p.col,
            message: format!(
                "stale pragma: allow({}) suppresses no finding — the violation it \
                 excused is gone; delete it",
                p.rules.join(", ")
            ),
        });
    }
}

/// Findings in (path, line, col, rule) order.
fn finish(mut result: LintResult) -> LintResult {
    result
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    result
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let meta = fs::metadata(path)?;
    if meta.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    // deterministic traversal: sort directory entries by name
    let mut entries: Vec<PathBuf> =
        fs::read_dir(path)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for e in entries {
        let name = e.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || rules::EXCLUDED_COMPONENTS.contains(&name) {
            continue;
        }
        if e.is_dir() {
            collect_files(&e, out)?;
        } else if name.ends_with(".rs") {
            out.push(e);
        }
    }
    Ok(())
}
