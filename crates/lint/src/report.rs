//! Rendering: rustc-style text diagnostics and a machine-readable
//! `--json` report (hand-rolled writer — the linter is dependency-free).

use crate::rules::{Severity, RULES};
use crate::LintResult;
use std::fmt::Write as _;

/// Render the human-facing text report.
pub fn text(result: &LintResult) -> String {
    let mut out = String::new();
    for f in &result.findings {
        let _ = writeln!(out, "{}[{}]: {}", f.severity.as_str(), f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}:{}", f.path, f.line, f.col);
    }
    let errors = result.count(Severity::Error);
    let warnings = result.count(Severity::Warning);
    let _ = writeln!(
        out,
        "dta-lint: {} file{} checked, {errors} error{}, {warnings} warning{}, {} suppressed",
        result.files,
        plural(result.files),
        plural(errors),
        plural(warnings),
        result.suppressed,
    );
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Render the machine-readable JSON report.
pub fn json(result: &LintResult) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"findings\": [");
    for (i, f) in result.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \
             \"col\": {}, \"message\": {}}}",
            escape(f.rule),
            escape(f.severity.as_str()),
            escape(&f.path),
            f.line,
            f.col,
            escape(&f.message)
        );
    }
    if !result.findings.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"errors\": {},\n  \"warnings\": {},\n  \"suppressed\": {},\n  \"files\": {},\n",
        result.count(Severity::Error),
        result.count(Severity::Warning),
        result.suppressed,
        result.files
    );
    out.push_str("  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {}, \"name\": {}, \"severity\": {}}}",
            escape(r.id),
            escape(r.name),
            escape(r.severity.as_str())
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
