//! The per-file rule engine: the token rules R2, R6 and R11 over the
//! hand-rolled lexer, with per-rule severity and path scoping, plus the
//! P0 meta-rule validating suppression pragmas.
//!
//! Every rule defends a property the paper's cost model assumes (see
//! DESIGN.md §8 for the rule-by-rule rationale, and for the rules that
//! clippy and the ranked locks enforce):
//!
//! | rule | defends |
//! |------|---------|
//! | R2 `raw-cost-compare` | the `(cost, position)` tie-break that makes parallel == serial |
//! | R6 `relaxed-ordering` | every `Relaxed` atomic is a deliberate, justified choice |
//! | R11 `written-invariant` | every library `expect` says which invariant makes it unreachable |
//!
//! The token rules know no types. Inline `#[cfg(test)]` modules are
//! exempt from every rule: test code may assert on raw costs freely.

use crate::lexer::{self, Token, TokenKind};
use crate::pragma;

/// How bad a finding is. `--deny-warnings` promotes warnings to
/// build-failing; errors always fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding at an exact source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`R2`, `R6`, `R11`, or `P0`–`P1`).
    pub rule: &'static str,
    pub severity: Severity,
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub message: String,
}

/// Static description of one rule (for `--json` and docs).
pub struct RuleSpec {
    pub id: &'static str,
    pub name: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "R2",
        name: "raw-cost-compare",
        severity: Severity::Error,
        summary: "no raw f64 </>/min/max on costs in greedy.rs/enumeration.rs; route \
                  through the deterministic (cost, position) helpers in dta_core::det",
    },
    RuleSpec {
        id: "R6",
        name: "relaxed-ordering",
        severity: Severity::Warning,
        summary: "Ordering::Relaxed requires an allow-pragma explaining why relaxed \
                  semantics are sound at this site",
    },
    RuleSpec {
        id: "R11",
        name: "written-invariant",
        severity: Severity::Error,
        summary: "a library `expect(\"…\")` must state the invariant that makes it \
                  unreachable in at least 10 characters; clippy denies every other \
                  panic site in the crates tune() reaches",
    },
    RuleSpec {
        id: "P0",
        name: "invalid-pragma",
        severity: Severity::Error,
        summary: "every `dta-lint: allow(...)` pragma must parse and carry a \
                  justification of at least 10 characters — a malformed or \
                  rubber-stamp pragma suppresses nothing and is itself an error",
    },
    RuleSpec {
        id: "P1",
        name: "stale-pragma",
        severity: Severity::Warning,
        summary: "an allow(...) pragma that suppresses no finding is dead: the \
                  violation it excused is gone — delete the pragma so the escape-hatch \
                  inventory stays honest",
    },
];

pub(crate) fn spec(id: &str) -> &'static RuleSpec {
    RULES.iter().find(|r| r.id == id).expect("rule id registered in RULES")
}

/// Files R2 applies to: where Greedy(m,k) comparisons live.
const R2_FILES: &[&str] = &["greedy.rs", "enumeration.rs"];

/// Crates R11 applies to: the ones `tune()`, `Server` and the baselines
/// reach, whose `lib.rs` denies clippy's panic lints.
pub const R11_CRATES: &[&str] = &[
    "baselines",
    "catalog",
    "core",
    "dta",
    "engine",
    "optimizer",
    "physical",
    "server",
    "sql",
    "stats",
    "storage",
    "workload",
    "xml",
];

/// Path components that mark a file as outside library code. Files
/// under these are skipped entirely (fixtures under `tests/` contain
/// deliberate violations).
pub const EXCLUDED_COMPONENTS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Whether `rel_path` is library code the linter should look at.
pub fn in_scope(rel_path: &str) -> bool {
    let rel = rel_path.replace('\\', "/");
    rel.ends_with(".rs")
        && !rel.split('/').any(|c| EXCLUDED_COMPONENTS.contains(&c) || c.starts_with('.'))
}

/// The pre-suppression output of the token-rule pass over one file:
/// everything needed to apply pragmas and detect stale ones.
#[derive(Debug, Default, Clone)]
pub struct TokenAnalysis {
    /// Token-rule findings (R2, R6, R11 and P0), **before** pragma
    /// suppression, in (line, col, rule) order.
    pub findings: Vec<Finding>,
    /// Every pragma in the file, valid or not.
    pub pragmas: Vec<pragma::Pragma>,
    /// Inclusive line ranges of `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(u32, u32)>,
}

/// Lint one file's source. Returns the surviving findings and the
/// number of findings suppressed by valid pragmas.
pub fn check_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let ta = analyze_tokens(rel_path, src);
    let mut findings = ta.findings;
    let before = findings.len();
    findings.retain(|f| f.rule == "P0" || !ta.pragmas.iter().any(|p| p.suppresses(f.rule, f.line)));
    let suppressed = before - findings.len();
    (findings, suppressed)
}

/// Run the token rules over one file without applying suppression.
pub fn analyze_tokens(rel_path: &str, src: &str) -> TokenAnalysis {
    let rel = rel_path.replace('\\', "/");
    let tokens = lexer::lex(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let test_ranges = test_mod_ranges(&code);
    let pragmas = pragma::collect(&tokens);

    let mut findings = Vec::new();
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let file_name = rel.rsplit('/').next().unwrap_or("");
    if R2_FILES.contains(&file_name) {
        r2_raw_cost_compare(&rel, &code, &mut findings);
    }
    r6_relaxed_ordering(&rel, &code, &mut findings);
    let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
    if krate.is_some_and(|c| R11_CRATES.contains(&c)) {
        r11_written_invariant(&rel, &code, &mut findings);
    }

    // test modules are exempt from every rule
    findings.retain(|f| !in_test(f.line));

    // malformed / unjustified pragmas are findings themselves
    for p in &pragmas {
        if let Some(err) = &p.error {
            findings.push(Finding {
                rule: "P0",
                severity: Severity::Error,
                path: rel.clone(),
                line: p.line,
                col: p.col,
                message: format!("invalid dta-lint pragma: {err}"),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    TokenAnalysis { findings, pragmas, test_ranges }
}

fn push(findings: &mut Vec<Finding>, id: &'static str, rel: &str, t: &Token, message: String) {
    findings.push(Finding {
        rule: id,
        severity: spec(id).severity,
        path: rel.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
fn test_mod_ranges(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        // scan the attribute body for cfg + test (and reject not(test))
        let mut j = i + 2;
        let mut depth = 1u32;
        let (mut has_cfg, mut has_test, mut has_not) = (false, false, false);
        while j < code.len() && depth > 0 {
            match code[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "cfg" => has_cfg = true,
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !(has_cfg && has_test && !has_not) {
            i = j;
            continue;
        }
        // skip any further attributes between #[cfg(test)] and the item
        let mut k = j;
        while code.get(k).is_some_and(|t| t.text == "#")
            && code.get(k + 1).is_some_and(|t| t.text == "[")
        {
            let mut d = 1u32;
            k += 2;
            while k < code.len() && d > 0 {
                match code[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        if code.get(k).is_some_and(|t| t.text == "mod") {
            // mod NAME { … } — find the matching close brace
            let mut b = k;
            while b < code.len() && code[b].text != "{" {
                b += 1;
            }
            if b < code.len() {
                let start_line = code[k].line;
                let mut d = 0i64;
                let mut end = b;
                for (idx, t) in code.iter().enumerate().skip(b) {
                    match t.text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                end = idx;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                out.push((start_line, code[end].line));
                i = end + 1;
                continue;
            }
        }
        i = k.max(i + 1);
    }
    out
}

/// R2: raw float comparisons on cost-like identifiers.
fn r2_raw_cost_compare(rel: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let costish = |t: &Token| {
        // snake_case value names only: `CostEvaluator<'_>` is a generic
        // type argument list, not a comparison
        t.kind == TokenKind::Ident && !t.text.chars().next().is_some_and(|c| c.is_uppercase()) && {
            let l = t.text.to_ascii_lowercase();
            l.contains("cost") || l.contains("benefit")
        }
    };
    let is_cmp = |t: &Token| t.kind == TokenKind::Punct && (t.text == "<" || t.text == ">");
    for i in 0..code.len() {
        // `cost <`, `cost >`
        if costish(code[i]) && code.get(i + 1).is_some_and(|t| is_cmp(t)) {
            push(
                findings,
                "R2",
                rel,
                code[i + 1],
                format!(
                    "raw `{}` comparison on `{}`: float comparisons in the search must \
                     go through dta_core::det ((cost, position) tie-break) or parallel \
                     and serial runs can diverge on ties",
                    code[i + 1].text,
                    code[i].text
                ),
            );
        }
        // `< cost`, `> cost` — but not `-> cost` or `=> cost`
        if is_cmp(code[i])
            && code.get(i + 1).is_some_and(|t| costish(t))
            && !(i > 0 && (code[i - 1].text == "-" || code[i - 1].text == "="))
        {
            push(
                findings,
                "R2",
                rel,
                code[i],
                format!(
                    "raw `{}` comparison against `{}`: float comparisons in the search \
                     must go through dta_core::det ((cost, position) tie-break)",
                    code[i].text,
                    code[i + 1].text
                ),
            );
        }
        // `cost.min(` / `cost.max(` and friends
        if costish(code[i])
            && code.get(i + 1).is_some_and(|t| t.text == ".")
            && code.get(i + 2).is_some_and(|t| {
                matches!(t.text.as_str(), "min" | "max" | "lt" | "gt" | "le" | "ge")
            })
            && code.get(i + 3).is_some_and(|t| t.text == "(")
        {
            push(
                findings,
                "R2",
                rel,
                code[i + 2],
                format!(
                    "`{}.{}(…)` on a cost: NaN-silent float min/max breaks the \
                     deterministic reduction — use dta_core::det",
                    code[i].text,
                    code[i + 2].text
                ),
            );
        }
    }
}

/// R6: `Ordering::Relaxed` without a justification pragma.
fn r6_relaxed_ordering(rel: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if code[i].kind == TokenKind::Ident
            && code[i].text == "Ordering"
            && code.get(i + 1).is_some_and(|t| t.text == ":")
            && code.get(i + 2).is_some_and(|t| t.text == ":")
            && code.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident && t.text == "Relaxed")
        {
            push(
                findings,
                "R6",
                rel,
                code[i + 3],
                "`Ordering::Relaxed` requires a `// dta-lint: allow(R6): <why>` pragma: \
                 state why relaxed semantics cannot reorder anything that matters here"
                    .to_string(),
            );
        }
    }
}

/// Minimum length of an `expect` message for it to count as a written
/// invariant, the same bar a pragma's justification must clear.
const MIN_INVARIANT: usize = pragma::MIN_JUSTIFICATION;

/// R11: `.expect("…")` whose literal message is too short to say why
/// the panic cannot happen.
fn r11_written_invariant(rel: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for w in code.windows(4) {
        let [dot, name, open, arg] = w else { continue };
        if dot.text == "."
            && name.kind == TokenKind::Ident
            && name.text == "expect"
            && open.text == "("
            && arg.kind == TokenKind::Str
        {
            let message = literal_contents(&arg.text);
            if message.chars().count() < MIN_INVARIANT {
                push(
                    findings,
                    "R11",
                    rel,
                    arg,
                    format!(
                        "`expect({})` does not write down an invariant: say in at least \
                         {MIN_INVARIANT} characters why this cannot fail",
                        arg.text
                    ),
                );
            }
        }
    }
}

/// The text between a string literal's quotes (`b`/`r` prefixes and raw
/// `#` fences stripped; escapes left as written).
fn literal_contents(lit: &str) -> &str {
    let body = lit.trim_start_matches(['b', 'r']).trim_matches('#');
    body.strip_prefix('"').and_then(|b| b.strip_suffix('"')).unwrap_or(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_contents_strips_delimiters() {
        assert_eq!(literal_contents("\"abc\""), "abc");
        assert_eq!(literal_contents("r#\"raw body\"#"), "raw body");
        assert_eq!(literal_contents("br\"bytes\""), "bytes");
        assert_eq!(literal_contents("\"\""), "");
    }
}
