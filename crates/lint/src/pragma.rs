//! Suppression pragmas.
//!
//! A finding is suppressed by a comment of the form
//!
//! ```text
//! // dta-lint: allow(R6): counter only; never orders other memory.
//! ```
//!
//! * `allow(…)` takes one or more comma-separated ids from
//!   [`RULES`]; an unknown id makes the pragma malformed;
//! * the text after the closing `):` is the **justification** and is
//!   mandatory — a pragma without one is itself a finding (`P0`) *and*
//!   suppresses nothing, so the original finding still fires;
//! * a pragma written **on the same line as code** applies to that
//!   line; a pragma on **a line of its own** applies to the next line
//!   of *code*, so the justification may continue over further comment
//!   lines.
//!
//! This mirrors how `#[allow]`/`NOLINT`-style escapes work in
//! production lint stacks: every escape hatch is grep-able, scoped to
//! one line, and carries its reviewer-facing "why".

use crate::lexer::{Token, TokenKind};
use crate::rules::RULES;

/// Minimum number of characters for a justification to count as
/// "written". Filters out `: ok` / `: fine` rubber stamps.
pub const MIN_JUSTIFICATION: usize = 10;

/// One parsed `dta-lint: allow(...)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule ids this pragma suppresses (`["R6"]`).
    pub rules: Vec<String>,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// Column of the comment token.
    pub col: u32,
    /// Lines of code the pragma covers.
    pub covers: (u32, u32),
    /// The justification text (may be too short — see `error`).
    pub justification: String,
    /// `Some(message)` when the pragma is malformed or unjustified; a
    /// malformed pragma suppresses nothing.
    pub error: Option<String>,
}

impl Pragma {
    /// Whether this pragma suppresses `rule` on `line`.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        self.error.is_none()
            && line >= self.covers.0
            && line <= self.covers.1
            && self.rules.iter().any(|r| r == rule)
    }
}

/// Extract every pragma from a token stream (comments included).
pub fn collect(tokens: &[Token]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Comment {
            continue;
        }
        // a pragma is a comment whose content *begins* with the marker;
        // prose that merely mentions `dta-lint:` mid-sentence is not one
        let content = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !content.starts_with("dta-lint:") {
            continue;
        }
        // standalone iff no code token earlier on the same line
        let standalone = !tokens[..i].iter().any(|p| p.is_code() && p.line == t.line);
        // a standalone pragma covers the next line of *code*, so a
        // multi-line justification comment stays one pragma
        let covers = if standalone {
            let next_code = tokens[i + 1..]
                .iter()
                .find(|p| p.is_code() && p.line > t.line)
                .map_or(t.line + 1, |p| p.line);
            (t.line, next_code)
        } else {
            (t.line, t.line)
        };
        out.push(parse(&t.text, t.line, t.col, covers));
    }
    out
}

fn parse(comment: &str, line: u32, col: u32, covers: (u32, u32)) -> Pragma {
    let mut p =
        Pragma { rules: Vec::new(), line, col, covers, justification: String::new(), error: None };
    let Some(after_marker) = comment.split("dta-lint:").nth(1) else {
        p.error = Some("pragma marker without a directive".into());
        return p;
    };
    let body = after_marker.trim_start();
    let Some(after_allow) = body.strip_prefix("allow") else {
        p.error = Some(format!(
            "unknown dta-lint directive {:?}; only `allow(<rules>): <justification>` exists",
            body.split_whitespace().next().unwrap_or("")
        ));
        return p;
    };
    let after_allow = after_allow.trim_start();
    let Some(rest) = after_allow.strip_prefix('(') else {
        p.error = Some("expected `(` after `allow`".into());
        return p;
    };
    let Some(close) = rest.find(')') else {
        p.error = Some("unclosed rule list in `allow(...)`".into());
        return p;
    };
    p.rules =
        rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if p.rules.is_empty() {
        p.error = Some("`allow()` names no rules".into());
        return p;
    }
    if let Some(unknown) = p.rules.iter().find(|r| !RULES.iter().any(|s| s.id == r.as_str())) {
        let known: Vec<&str> = RULES.iter().map(|s| s.id).collect();
        p.error = Some(format!(
            "unknown rule id {unknown:?}: dta-lint checks {} (the other R-rules are \
             clippy lints, DESIGN.md §8)",
            known.join(", ")
        ));
        return p;
    }
    let tail = rest[close + 1..].trim_start();
    let Some(just) = tail.strip_prefix(':') else {
        p.error = Some("missing justification: write `allow(<rules>): <why this is sound>`".into());
        return p;
    };
    p.justification = just.trim().trim_end_matches("*/").trim().to_string();
    if p.justification.len() < MIN_JUSTIFICATION {
        p.error = Some(format!(
            "justification {:?} is too short (< {MIN_JUSTIFICATION} chars): explain why \
             the rule is sound to break here",
            p.justification
        ));
    }
    p
}
