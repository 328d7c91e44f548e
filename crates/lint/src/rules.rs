//! The per-file rule engine: the token rules R2 and R6 over the
//! hand-rolled lexer, with per-rule severity and path scoping, plus the
//! P0 meta-rule validating suppression pragmas. The workspace rules
//! R10–R12 run over the parser's AST and a call graph ([`crate::semantic`]).
//!
//! Every rule defends a property the paper's cost model assumes (see
//! DESIGN.md §8 for the rule-by-rule rationale, and for R1, R3–R5 and
//! R7–R9, which clippy enforces):
//!
//! | rule | defends |
//! |------|---------|
//! | R2 `raw-cost-compare` | the `(cost, position)` tie-break that makes parallel == serial |
//! | R6 `relaxed-ordering` | every `Relaxed` atomic is a deliberate, justified choice |
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
    /// Rule id (`R2`, `R6`, `R10`–`R12`, or `P0`–`P2`).
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
        id: "R10",
        name: "lock-order",
        severity: Severity::Error,
        summary: "no lock-order cycles: the workspace-wide lock-acquisition graph \
                  (built from RwLock/Mutex guard scopes and calls made while a guard \
                  is held) must be acyclic — a cycle is a potential deadlock between \
                  concurrent tuning sessions",
    },
    RuleSpec {
        id: "R11",
        name: "panic-reachability",
        severity: Severity::Error,
        summary: "no panic (panic!/unwrap/bare indexing) may be transitively reachable \
                  from the public tuning surface (tune*/Server/SessionSupervisor methods) without a \
                  written invariant (`expect(\"…\")`) or a justifying allow(R11) pragma \
                  at the source site — the anytime guarantee promises a result, not an \
                  unwind",
    },
    RuleSpec {
        id: "R12",
        name: "determinism-taint",
        severity: Severity::Error,
        summary: "no nondeterministic value (wall clock, Ordering::Relaxed load, \
                  hash-map iteration) may flow — through any number of calls — into a \
                  det:: cost comparison; tainted comparisons silently change \
                  recommendations between runs",
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
        summary: "an allow(...) pragma that suppresses no finding and justifies no \
                  panic source is dead: the violation it excused is gone — delete the \
                  pragma so the escape-hatch inventory stays honest",
    },
    RuleSpec {
        id: "P2",
        name: "parse-error",
        severity: Severity::Error,
        summary: "the file does not parse as the item/expression grammar the semantic \
                  rules analyze — an unparsed region is an unanalyzed region, so \
                  structural breakage fails the lint",
    },
];

pub(crate) fn spec(id: &str) -> &'static RuleSpec {
    RULES.iter().find(|r| r.id == id).expect("rule id registered in RULES")
}

/// Files R2 applies to: where Greedy(m,k) comparisons live.
const R2_FILES: &[&str] = &["greedy.rs", "enumeration.rs"];

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
/// everything the workspace pipeline needs to later apply pragmas,
/// detect stale ones, and feed the semantic rules.
#[derive(Debug, Default, Clone)]
pub struct TokenAnalysis {
    /// Token-rule findings (R2, R6 and P0), **before** pragma
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
