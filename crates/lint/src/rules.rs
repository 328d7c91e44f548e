//! The rule engine: R1–R9 token-stream pattern rules with per-rule
//! severity and path scoping, plus the P0 meta-rule validating
//! suppression pragmas.
//!
//! Every rule defends a property PR 1 established and the paper's cost
//! model assumes (see DESIGN.md §8 for the rule-by-rule rationale):
//!
//! | rule | defends |
//! |------|---------|
//! | R1 `hash-iteration` | recommendation byte-identity: hash iteration order is nondeterministic |
//! | R2 `raw-cost-compare` | the `(cost, position)` tie-break that makes parallel == serial |
//! | R3 `interior-mutability` | `Send + Sync` soundness of shared session state |
//! | R4 `unscoped-thread-spawn` | structured concurrency: no detached threads outliving the session |
//! | R5 `library-unwrap` | panic-free library code; invariants must be written down |
//! | R6 `relaxed-ordering` | every `Relaxed` atomic is a deliberate, justified choice |
//! | R7 `library-panic` | the anytime guarantee: no `panic!`/`exit`/`abort` escapes `tune()` |
//! | R8 `library-print` | observability through the observer layer only: no `println!`/`eprintln!`/`dbg!` in library code |
//! | R9 `wall-clock` | determinism quarantine: wall-clock reads (`Instant`/`SystemTime`) live only in `dta_core::obs` |
//!
//! Rules are deliberately *token-stream* checks over the hand-rolled
//! lexer — no parser, no type information. Where a rule needs types
//! (R1), it tracks `name: HashMap<…>` bindings within the file, which
//! is exact for the patterns this workspace uses and degrades to
//! false-negative (never false-positive noise) elsewhere. Inline
//! `#[cfg(test)]` modules are exempt from every rule: test code may
//! assert on raw costs, unwrap, and spawn freely.

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
    /// Rule id (`R1`–`R9`, or `P0` for pragma violations).
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
        id: "R1",
        name: "hash-iteration",
        severity: Severity::Error,
        summary: "no HashMap/HashSet iteration in recommendation-producing crates \
                  (core, optimizer, baselines); iteration order is nondeterministic — \
                  use BTreeMap/BTreeSet or a sorted Vec",
    },
    RuleSpec {
        id: "R2",
        name: "raw-cost-compare",
        severity: Severity::Error,
        summary: "no raw f64 </>/min/max on costs in greedy.rs/enumeration.rs; route \
                  through the deterministic (cost, position) helpers in dta_core::det",
    },
    RuleSpec {
        id: "R3",
        name: "interior-mutability",
        severity: Severity::Error,
        summary: "no Cell/RefCell/UnsafeCell in crates whose public types are shared \
                  across threads (the PR 1 Send+Sync regression class)",
    },
    RuleSpec {
        id: "R4",
        name: "unscoped-thread-spawn",
        severity: Severity::Error,
        summary: "no std::thread::spawn outside the sanctioned parallel modules; use \
                  std::thread::scope so workers cannot outlive the tuning session",
    },
    RuleSpec {
        id: "R5",
        name: "library-unwrap",
        severity: Severity::Warning,
        summary: "no bare unwrap() in library code of core/optimizer/catalog; use \
                  expect(\"<invariant>\") or propagate the Result",
    },
    RuleSpec {
        id: "R6",
        name: "relaxed-ordering",
        severity: Severity::Warning,
        summary: "Ordering::Relaxed requires an allow-pragma explaining why relaxed \
                  semantics are sound at this site",
    },
    RuleSpec {
        id: "R7",
        name: "library-panic",
        severity: Severity::Error,
        summary: "no panic!/std::process::exit/abort in library code of core/server/stats: \
                  the anytime-tuning layer guarantees no panic escapes tune() — return a \
                  typed error or degrade, and justify deliberate panics with a pragma",
    },
    RuleSpec {
        id: "R8",
        name: "library-print",
        severity: Severity::Error,
        summary: "no println!/eprintln!/dbg! in library code of core/server/stats/catalog: \
                  ad-hoc prints bypass the observer layer and corrupt machine-readable \
                  output — emit an observer event or return the data",
    },
    RuleSpec {
        id: "R9",
        name: "wall-clock",
        severity: Severity::Error,
        summary: "no Instant/SystemTime in dta-core outside the observer module: wall-clock \
                  reads on the recommendation path break byte-identical reruns — timings \
                  belong to dta_core::obs, which quarantines them as report-only",
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

/// Crates R1 applies to: the ones that produce or rank recommendations.
const R1_CRATES: &[&str] = &["core", "optimizer", "baselines"];
/// Files R2 applies to: where Greedy(m,k) comparisons live.
const R2_FILES: &[&str] = &["greedy.rs", "enumeration.rs"];
/// Crates R3 applies to: session state shared across worker threads.
const R3_CRATES: &[&str] =
    &["core", "optimizer", "server", "physical", "storage", "stats", "catalog"];
/// Modules sanctioned to contain thread fan-out (R4). Even these use
/// scoped threads today; the list bounds where spawns may ever appear.
const R4_SANCTIONED: &[&str] = &["crates/core/src/greedy.rs", "crates/core/src/candidates.rs"];
/// Crates R5 applies to.
const R5_CRATES: &[&str] = &["core", "optimizer", "catalog"];
/// Crates R7 applies to: everything the session-robustness guarantees of
/// DESIGN.md §9 flow through. A panic anywhere here either escapes
/// `tune()` or silently kills a worker.
const R7_CRATES: &[&str] = &["core", "server", "stats"];
/// Crates R8 applies to: the library layers whose output must stay
/// machine-readable (reports, XML, observer traces). Binaries and the
/// CLI-facing crates may print.
const R8_CRATES: &[&str] = &["core", "server", "stats", "catalog"];
/// Crates R9 applies to: the recommendation-producing core, where any
/// wall-clock read threatens byte-identical reruns.
const R9_CRATES: &[&str] = &["core"];
/// The one module sanctioned to read wall clocks (R9): the observer,
/// whose timings are quarantined as report-only by construction.
const R9_SANCTIONED: &[&str] = &["crates/core/src/obs.rs"];

/// Path components that mark a file as outside library code. Files
/// under these are skipped entirely (fixtures under `tests/` contain
/// deliberate violations).
pub const EXCLUDED_COMPONENTS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Path facts the scoping predicates need.
struct PathInfo {
    rel: String,
    crate_name: Option<String>,
    file_name: String,
}

impl PathInfo {
    fn new(rel_path: &str) -> Self {
        let rel = rel_path.replace('\\', "/");
        let comps: Vec<&str> = rel.split('/').filter(|c| !c.is_empty()).collect();
        let crate_name = comps
            .iter()
            .position(|c| *c == "crates")
            .and_then(|i| comps.get(i + 1))
            .map(|s| s.to_string());
        let file_name = comps.last().copied().unwrap_or("").to_string();
        Self { rel, crate_name, file_name }
    }

    fn in_crate(&self, names: &[&str]) -> bool {
        self.crate_name.as_deref().is_some_and(|c| names.contains(&c))
    }
}

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
    /// Token-rule findings (R1–R9 plus P0), **before** pragma
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
    let info = PathInfo::new(rel_path);
    let tokens = lexer::lex(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let test_ranges = test_mod_ranges(&code);
    let pragmas = pragma::collect(&tokens);

    let mut findings = Vec::new();
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    if info.in_crate(R1_CRATES) {
        r1_hash_iteration(&info, &code, &mut findings);
    }
    if R2_FILES.contains(&info.file_name.as_str()) {
        r2_raw_cost_compare(&info, &code, &mut findings);
    }
    if info.in_crate(R3_CRATES) {
        r3_interior_mutability(&info, &code, &mut findings);
    }
    if !R4_SANCTIONED.contains(&info.rel.as_str()) {
        r4_thread_spawn(&info, &code, &mut findings);
    }
    if info.in_crate(R5_CRATES) {
        r5_library_unwrap(&info, &code, &mut findings);
    }
    r6_relaxed_ordering(&info, &code, &mut findings);
    if info.in_crate(R7_CRATES) {
        r7_library_panic(&info, &code, &mut findings);
    }
    if info.in_crate(R8_CRATES) {
        r8_library_print(&info, &code, &mut findings);
    }
    if info.in_crate(R9_CRATES) && !R9_SANCTIONED.contains(&info.rel.as_str()) {
        r9_wall_clock(&info, &code, &mut findings);
    }

    // test modules are exempt from every rule
    findings.retain(|f| !in_test(f.line));

    // malformed / unjustified pragmas are findings themselves
    for p in &pragmas {
        if let Some(err) = &p.error {
            findings.push(Finding {
                rule: "P0",
                severity: Severity::Error,
                path: info.rel.clone(),
                line: p.line,
                col: p.col,
                message: format!("invalid dta-lint pragma: {err}"),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    TokenAnalysis { findings, pragmas, test_ranges }
}

fn push(
    findings: &mut Vec<Finding>,
    id: &'static str,
    info: &PathInfo,
    t: &Token,
    message: String,
) {
    findings.push(Finding {
        rule: id,
        severity: spec(id).severity,
        path: info.rel.clone(),
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

/// R1: iteration over `HashMap`/`HashSet`-typed bindings.
fn r1_hash_iteration(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "into_keys",
        "into_values",
        "drain",
        "retain",
    ];
    // pass 1: `name : [&|mut|std::collections::…] HashMap<` bindings
    // (lets, fields, params — anything written with a type ascription)
    let mut hash_bound: Vec<String> = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident
            || code.get(i + 1).is_none_or(|t| t.text != ":")
            || code.get(i + 2).is_some_and(|t| t.text == ":")
        {
            continue;
        }
        let mut j = i + 2;
        loop {
            match code.get(j) {
                Some(t) if t.text == "&" || t.text == "mut" || t.kind == TokenKind::Lifetime => {
                    j += 1
                }
                Some(t)
                    if (t.text == "std" || t.text == "collections")
                        && code.get(j + 1).is_some_and(|n| n.text == ":")
                        && code.get(j + 2).is_some_and(|n| n.text == ":") =>
                {
                    j += 3
                }
                _ => break,
            }
        }
        if code.get(j).is_some_and(|t| t.text == "HashMap" || t.text == "HashSet")
            && code.get(j + 1).is_some_and(|t| t.text == "<")
        {
            hash_bound.push(code[i].text.clone());
        }
    }
    if hash_bound.is_empty() {
        return;
    }
    let bound = |name: &str| hash_bound.iter().any(|b| b == name);
    // pass 2a: `name.iter()`-family calls
    for i in 0..code.len() {
        if code[i].kind == TokenKind::Ident
            && bound(&code[i].text)
            && code.get(i + 1).is_some_and(|t| t.text == ".")
            && code.get(i + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str())
            })
            && code.get(i + 3).is_some_and(|t| t.text == "(")
        {
            let m = code[i + 2];
            push(
                findings,
                "R1",
                info,
                m,
                format!(
                    "`{}.{}()` iterates a Hash{{Map,Set}} in a recommendation-producing \
                     crate: iteration order is nondeterministic and can reorder output \
                     or float accumulation — use BTreeMap/BTreeSet or collect + sort \
                     (PR 1 byte-identical-recommendation guarantee)",
                    code[i].text, m.text
                ),
            );
        }
    }
    // pass 2b: `for … in [&][mut] [self.]name {`
    for i in 0..code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "for") {
            continue;
        }
        let Some(inpos) = (i + 1..code.len().min(i + 16))
            .find(|&j| code[j].kind == TokenKind::Ident && code[j].text == "in")
        else {
            continue;
        };
        let mut j = inpos + 1;
        while code.get(j).is_some_and(|t| t.text == "&" || t.text == "mut") {
            j += 1;
        }
        if code.get(j).is_some_and(|t| t.text == "self")
            && code.get(j + 1).is_some_and(|t| t.text == ".")
        {
            j += 2;
        }
        if code.get(j).is_some_and(|t| t.kind == TokenKind::Ident && bound(&t.text))
            && code.get(j + 1).is_some_and(|t| t.text == "{")
        {
            push(
                findings,
                "R1",
                info,
                code[j],
                format!(
                    "`for … in {}` iterates a Hash{{Map,Set}} in a recommendation-producing \
                     crate: iteration order is nondeterministic — use BTreeMap/BTreeSet \
                     or collect + sort (PR 1 byte-identical-recommendation guarantee)",
                    code[j].text
                ),
            );
        }
    }
}

/// R2: raw float comparisons on cost-like identifiers.
fn r2_raw_cost_compare(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
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
                info,
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
                info,
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
                info,
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

/// R3: interior-mutability cells in thread-shared crates.
fn r3_interior_mutability(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for t in code {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "Cell" | "RefCell" | "UnsafeCell" | "OnceCell")
        {
            push(
                findings,
                "R3",
                info,
                t,
                format!(
                    "`{}` in a crate whose types are shared across tuning threads: \
                     interior mutability silently removes Send/Sync (the PR 1 \
                     regression class) — use atomics or parking_lot locks",
                    t.text
                ),
            );
        }
    }
}

/// R4: detached thread spawns.
fn r4_thread_spawn(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if code[i].kind == TokenKind::Ident
            && code[i].text == "thread"
            && code.get(i + 1).is_some_and(|t| t.text == ":")
            && code.get(i + 2).is_some_and(|t| t.text == ":")
            && code.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident && t.text == "spawn")
        {
            push(
                findings,
                "R4",
                info,
                code[i + 3],
                "`std::thread::spawn` outside the sanctioned parallel modules: detached \
                 threads can outlive the tuning session and its borrowed caches — use \
                 `std::thread::scope`"
                    .to_string(),
            );
        }
    }
}

/// R5: bare `unwrap()` in library code.
fn r5_library_unwrap(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if code[i].text == "."
            && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident && t.text == "unwrap")
            && code.get(i + 2).is_some_and(|t| t.text == "(")
            && code.get(i + 3).is_some_and(|t| t.text == ")")
        {
            push(
                findings,
                "R5",
                info,
                code[i + 1],
                "bare `unwrap()` in library code: write the invariant down with \
                 `expect(\"<invariant>\")` or propagate the error"
                    .to_string(),
            );
        }
    }
}

/// R7: `panic!` / `std::process::exit` / `std::process::abort` in
/// library code of the robustness-covered crates.
fn r7_library_panic(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        // `panic!(…)` — macro invocations only, so `catch_unwind` helpers
        // and identifiers merely *named* panic don't fire
        if code[i].kind == TokenKind::Ident
            && code[i].text == "panic"
            && code.get(i + 1).is_some_and(|t| t.text == "!")
        {
            push(
                findings,
                "R7",
                info,
                code[i],
                "`panic!` in library code: the robustness layer guarantees no panic \
                 escapes tune() — return a typed error, degrade the item, or justify a \
                 deliberate invariant/fault-injection panic with a \
                 `// dta-lint: allow(R7): <why>` pragma"
                    .to_string(),
            );
        }
        // `process::exit(…)` / `process::abort(…)` (with or without the
        // leading `std::`)
        if code[i].kind == TokenKind::Ident
            && code[i].text == "process"
            && code.get(i + 1).is_some_and(|t| t.text == ":")
            && code.get(i + 2).is_some_and(|t| t.text == ":")
            && code.get(i + 3).is_some_and(|t| {
                t.kind == TokenKind::Ident && (t.text == "exit" || t.text == "abort")
            })
        {
            push(
                findings,
                "R7",
                info,
                code[i + 3],
                format!(
                    "`std::process::{}` in library code: it kills the whole session — \
                     even a cancelled or budget-exhausted run must return its \
                     best-so-far recommendation",
                    code[i + 3].text
                ),
            );
        }
    }
}

/// R8: `println!` / `eprintln!` / `dbg!` in library code.
fn r8_library_print(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        // macro invocations only, so a function merely *named* println
        // (there are none, but the lexer cannot know) does not fire
        if code[i].kind == TokenKind::Ident
            && matches!(code[i].text.as_str(), "println" | "eprintln" | "dbg")
            && code.get(i + 1).is_some_and(|t| t.text == "!")
        {
            push(
                findings,
                "R8",
                info,
                code[i],
                format!(
                    "`{}!` in library code: ad-hoc prints bypass the observer layer and \
                     corrupt machine-readable output (XML reports, JSON traces) — emit an \
                     observer event, return the data, or justify a deliberate print with \
                     a `// dta-lint: allow(R8): <why>` pragma",
                    code[i].text
                ),
            );
        }
    }
}

/// R9: wall-clock reads (`Instant` / `SystemTime`) outside the observer.
fn r9_wall_clock(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
    for t in code {
        if t.kind == TokenKind::Ident && matches!(t.text.as_str(), "Instant" | "SystemTime") {
            push(
                findings,
                "R9",
                info,
                t,
                format!(
                    "`{}` in dta-core outside the observer module: a wall-clock read on \
                     the recommendation path makes reruns non-reproducible — move the \
                     timing into dta_core::obs (report-only by construction) or justify \
                     with a `// dta-lint: allow(R9): <why>` pragma",
                    t.text
                ),
            );
        }
    }
}

/// R6: `Ordering::Relaxed` without a justification pragma.
fn r6_relaxed_ordering(info: &PathInfo, code: &[&Token], findings: &mut Vec<Finding>) {
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
                info,
                code[i + 3],
                "`Ordering::Relaxed` requires a `// dta-lint: allow(R6): <why>` pragma: \
                 state why relaxed semantics cannot reorder anything that matters here"
                    .to_string(),
            );
        }
    }
}
