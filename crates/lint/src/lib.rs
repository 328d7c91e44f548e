//! `dta-lint` — in-tree static analysis enforcing the workspace's
//! determinism and concurrency invariants.
//!
//! PR 1 established that parallel and serial Greedy(m,k) runs produce
//! **byte-identical recommendations**. That property is load-bearing —
//! DTA ranks configurations by optimizer-estimated cost, so any
//! nondeterminism in iteration order, float tie-breaking, or thread
//! interleaving silently changes recommendations between runs. This
//! crate encodes the part of that discipline clippy cannot check as
//! machine-checked rules (see [`rules::RULES`]) in two layers:
//!
//! * **token rules** R2 and R6 — per-file pattern checks over a
//!   hand-rolled lexer;
//! * **semantic rules** R10–R12 — workspace-level analyses over an AST
//!   ([`ast`], [`parser`]) and a call graph of per-function summaries
//!   ([`callgraph`], [`semantic`]): lock-order cycles, panic
//!   reachability from the public tuning surface, and determinism
//!   taint flowing into `det::` cost comparisons.
//!
//! R1, R3–R5 and R7–R9 are clippy lints and lists (`crates/clippy.toml`,
//! DESIGN.md §8). Everything here is dependency-free, offline, and fast
//! enough to gate CI.
//!
//! ```text
//! cargo run -p dta-lint -- crates/ --deny-warnings   # gate
//! cargo run -p dta-lint -- crates/ --json            # machine report
//! ```
//!
//! Escape hatch: `// dta-lint: allow(<rule>): <justification>` on (or
//! directly above) the offending line. The justification is mandatory,
//! and a pragma that suppresses nothing is itself a finding (P1).

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod semantic;

pub use rules::{Finding, Severity};

use std::collections::BTreeMap;
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
/// path, **token rules only** (R2, R6 and P0), with suppression
/// applied. The path drives rule scoping — `"crates/core/src/greedy.rs"`
/// enables R2 even for an in-memory fixture. For the full pipeline
/// including the semantic rules, use [`lint_sources`].
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    rules::check_source(rel_path, src).0
}

/// Run the **full pipeline** — token rules, parsing (P2), call-graph
/// semantic rules (R10–R12), and stale-pragma detection (P1) — over a
/// set of in-memory sources forming one synthetic workspace. Paths
/// drive rule scoping exactly as on disk.
pub fn lint_sources(files: &[(&str, &str)]) -> LintResult {
    let records: Vec<(String, FileRecord)> = files
        .iter()
        .map(|(rel, src)| {
            let rel = rel.replace('\\', "/");
            let rec = analyze_file(&rel, src);
            (rel, rec)
        })
        .collect();
    assemble(&records)
}

/// Lint every in-scope `.rs` file under `paths` (files or directories).
pub fn lint_paths(paths: &[PathBuf]) -> io::Result<LintResult> {
    let mut files = Vec::new();
    for p in paths {
        collect_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut records: Vec<(String, FileRecord)> = Vec::new();
    for f in &files {
        let rel = workspace_rel(&f.to_string_lossy().replace('\\', "/"));
        if !rules::in_scope(&rel) {
            continue;
        }
        let record = analyze_file(&rel, &fs::read_to_string(f)?);
        records.push((rel, record));
    }

    Ok(assemble(&records))
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

/// Everything the workspace pass needs from one file.
struct FileRecord {
    analysis: rules::TokenAnalysis,
    parse_errors: Vec<ast::ParseError>,
    facts: callgraph::FileFacts,
}

/// Analyze one file from source: token rules, parse, function
/// summaries. Pure in `src`.
fn analyze_file(rel: &str, src: &str) -> FileRecord {
    let analysis = rules::analyze_tokens(rel, src);
    let parsed = parser::parse_source(src);
    let facts = callgraph::summarize_file(rel, &parsed, &analysis.pragmas, &analysis.test_ranges);
    FileRecord { analysis, parse_errors: parsed.errors, facts }
}

/// The workspace pass: apply pragmas to token findings, surface parse
/// errors (P2), run the semantic rules over the merged call graph
/// (R10–R12, suppressible by the same pragmas), then flag pragmas that
/// earned their keep nowhere (P1).
fn assemble(records: &[(String, FileRecord)]) -> LintResult {
    let mut result = LintResult { files: records.len(), ..LintResult::default() };
    // pragma usage, per file then per pragma index
    let mut used: Vec<Vec<bool>> =
        records.iter().map(|(_, r)| vec![false; r.analysis.pragmas.len()]).collect();
    let by_path: BTreeMap<&str, usize> =
        records.iter().enumerate().map(|(i, (rel, _))| (rel.as_str(), i)).collect();

    for (ri, (rel, rec)) in records.iter().enumerate() {
        for f in &rec.analysis.findings {
            if f.rule != "P0" {
                if let Some(pi) =
                    rec.analysis.pragmas.iter().position(|p| p.suppresses(f.rule, f.line))
                {
                    used[ri][pi] = true;
                    result.suppressed += 1;
                    continue;
                }
            }
            result.findings.push(f.clone());
        }
        for e in &rec.parse_errors {
            result.findings.push(Finding {
                rule: "P2",
                severity: Severity::Error,
                path: rel.clone(),
                line: e.line,
                col: e.col,
                message: format!(
                    "file does not parse — the semantic rules cannot see past this \
                     point: {}",
                    e.message
                ),
            });
        }
        // pragmas justifying a panic source (R11) are used even though
        // no finding was ever emitted for the site
        for (pi, p) in rec.analysis.pragmas.iter().enumerate() {
            if p.error.is_none() && rec.facts.used_pragma_lines.contains(&p.line) {
                used[ri][pi] = true;
            }
        }
    }

    // workspace semantic rules over the merged call graph
    let all_fns: Vec<callgraph::FnSummary> =
        records.iter().flat_map(|(_, r)| r.facts.fns.iter().cloned()).collect();
    for f in semantic::analyze(&all_fns) {
        if let Some(&ri) = by_path.get(f.path.as_str()) {
            let (_, rec) = &records[ri];
            if let Some(pi) = rec.analysis.pragmas.iter().position(|p| p.suppresses(f.rule, f.line))
            {
                used[ri][pi] = true;
                result.suppressed += 1;
                continue;
            }
        }
        result.findings.push(f);
    }

    // stale pragmas (P1): valid, outside test code, suppressed nothing
    for (ri, (rel, rec)) in records.iter().enumerate() {
        for (pi, p) in rec.analysis.pragmas.iter().enumerate() {
            if p.error.is_some() || used[ri][pi] {
                continue;
            }
            let in_test = rec.analysis.test_ranges.iter().any(|&(a, b)| p.line >= a && p.line <= b);
            if in_test {
                continue;
            }
            result.findings.push(Finding {
                rule: "P1",
                severity: Severity::Warning,
                path: rel.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "stale pragma: allow({}) suppresses no finding and justifies no \
                     panic source — the violation it excused is gone; delete it",
                    p.rules.join(", ")
                ),
            });
        }
    }

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
