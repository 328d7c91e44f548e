//! Semantic-rule tests: R10 lock-order cycles, R11 panic reachability,
//! R12 determinism taint — each asserting exact finding positions and
//! the cross-function property (hazard in a callee, finding at the
//! boundary that owns the guarantee) — plus the meta rules P1 (stale
//! pragma) and P2 (parse error), pragma suppression of semantic
//! findings, and the seeded-violation gate.

use dta_lint::{lint_sources, Finding, Severity};

const R10: &str = include_str!("fixtures/fixture_r10.rs");
const R11: &str = include_str!("fixtures/fixture_r11.rs");
const R12: &str = include_str!("fixtures/fixture_r12.rs");

/// (rule, severity, line, col) projection for position assertions.
fn at(findings: &[Finding]) -> Vec<(&str, Severity, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.severity, f.line, f.col)).collect()
}

#[test]
fn r10_lock_order_cycle_exact_position() {
    let result = lint_sources(&[("crates/server/src/fixture_r10.rs", R10)]);
    // anchored at the earliest witness: `self.grab_b()` called while
    // `Pair.a` is held (line 15) — the `Pair.b` acquisition it reaches
    // lives in another function
    assert_eq!(at(&result.findings), vec![("R10", Severity::Error, 15, 14)], "{result:#?}");
    let msg = &result.findings[0].message;
    assert!(msg.contains("Pair.a -> Pair.b"), "{msg}");
    assert!(msg.contains("Pair.b -> Pair.a"), "{msg}");
}

#[test]
fn r10_consistent_order_is_clean() {
    // same two locks, both paths acquire a before b: no cycle
    let src = R10.replace(
        "    pub fn backward(&self) -> u32 {
        let h = self.b.write();
        let g = self.a.write();",
        "    pub fn backward(&self) -> u32 {
        let g = self.a.write();
        let h = self.b.write();",
    );
    let result = lint_sources(&[("crates/server/src/fixture_r10.rs", &src)]);
    assert!(result.findings.iter().all(|f| f.rule != "R10"), "{result:#?}");
}

#[test]
fn r11_cross_function_panic_anchored_at_surface() {
    let result = lint_sources(&[("crates/core/src/fixture_r11.rs", R11)]);
    // the R11 error sits on `tune` (line 4), not on the unwrap three
    // frames down
    assert_eq!(at(&result.findings), vec![("R11", Severity::Error, 4, 8)], "{result:#?}");
    let msg = &result.findings[0].message;
    assert!(msg.contains("via tune"), "witness chain missing: {msg}");
    assert!(msg.contains("-> middle"), "witness chain missing: {msg}");
    assert!(msg.contains("in `deep`"), "leaf attribution missing: {msg}");
    assert!(msg.contains("fixture_r11.rs:13:7"), "source position missing: {msg}");
}

/// The prepared what-if entry points are `pub` `Server` methods, so
/// they are R11 surface: a panic in the optimizer's preparing code or in
/// its planning code is reported at the `Server` method that reaches it.
#[test]
fn r11_prepared_whatif_entry_points_are_surface() {
    let server = "\
pub struct Server;
impl Server {
    pub fn prepare(&self, opt: &WhatIfOptimizer) -> u32 {
        WhatIfOptimizer::prepare(opt)
    }
    pub fn whatif_prepared(&self, prep: u32) -> u32 {
        optimize_prepared(prep)
    }
}
";
    let optimizer = "\
pub struct WhatIfOptimizer;
impl WhatIfOptimizer {
    pub fn prepare(&self) -> u32 {
        let slots: Vec<u32> = Vec::new();
        slots[0]
    }
}
pub fn optimize_prepared(prep: u32) -> u32 {
    plan_joins(prep)
}
fn plan_joins(prep: u32) -> u32 {
    let leaves: Vec<u32> = Vec::new();
    leaves[prep as usize]
}
";
    let sources =
        [("crates/server/src/server.rs", server), ("crates/optimizer/src/whatif.rs", optimizer)];
    let result = lint_sources(&sources);
    let r11: Vec<&Finding> = result.findings.iter().filter(|f| f.rule == "R11").collect();
    assert_eq!(
        r11.iter().map(|f| (f.path.as_str(), f.line)).collect::<Vec<_>>(),
        vec![("crates/server/src/server.rs", 3), ("crates/server/src/server.rs", 6)],
        "{result:#?}"
    );
    assert!(r11[0].message.contains("public surface `prepare`"), "{}", r11[0].message);
    assert!(r11[1].message.contains("public surface `whatif_prepared`"), "{}", r11[1].message);
    assert!(r11[1].message.contains("in `plan_joins`"), "{}", r11[1].message);

    // a plain method call `opt.prepare()` from `Server::prepare` resolves,
    // by name, to `Server::prepare` itself and the optimizer's panic goes
    // unseen — which is why the real call is path-qualified
    let by_method = server.replace("WhatIfOptimizer::prepare(opt)", "opt.prepare()");
    let sources = [
        ("crates/server/src/server.rs", by_method.as_str()),
        ("crates/optimizer/src/whatif.rs", optimizer),
    ];
    let result = lint_sources(&sources);
    assert!(
        !result.findings.iter().any(|f| f.rule == "R11" && f.message.contains("`prepare`")),
        "{result:#?}"
    );
}

#[test]
fn r11_written_invariant_clears_the_path() {
    // expect() with a real justification is a written invariant, not a
    // panic hazard — the whole chain goes quiet
    let src = R11.replace("x.unwrap()", "x.expect(\"caller checked Some above\")");
    let result = lint_sources(&[("crates/core/src/fixture_r11.rs", &src)]);
    assert!(result.findings.is_empty(), "{result:#?}");
}

#[test]
fn r11_pragma_at_source_site_justifies_and_counts() {
    let src = R11.replace(
        "    x.unwrap()",
        "    // dta-lint: allow(R11): fixture-sanctioned deliberate panic here.\n    \
         x.unwrap() + N.load(Ordering::Relaxed) as u32",
    );
    let result = lint_sources(&[("crates/core/src/fixture_r11.rs", &src)]);
    // R11 justified at the source; R6 suppressed by the same pragma? No —
    // the pragma names R11 only, so the R6 warning on its line survives,
    // and the pragma is *used* (no P1).
    assert!(result.findings.iter().all(|f| f.rule != "R11" && f.rule != "P1"), "{result:#?}");
    assert!(result.findings.iter().any(|f| f.rule == "R6"), "{result:#?}");
}

#[test]
fn r12_taint_reaches_sink_across_functions() {
    let result = lint_sources(&[("crates/stats/src/fixture_r12.rs", R12)]);
    // finding at the det:: sink call in `pick` (line 14); the
    // wall-clock source lives in `sampled_cost` (line 8)
    assert_eq!(at(&result.findings), vec![("R12", Severity::Error, 14, 5)], "{result:#?}");
    let msg = &result.findings[0].message;
    assert!(msg.contains("det::improves"), "{msg}");
    assert!(msg.contains("Instant::now()"), "{msg}");
    assert!(msg.contains("fixture_r12.rs:8:13"), "source position missing: {msg}");
}

#[test]
fn r12_deterministic_input_is_clean() {
    let src = R12.replace(
        "fn sampled_cost() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}",
        "fn sampled_cost() -> f64 {
    42.0
}",
    );
    let result = lint_sources(&[("crates/stats/src/fixture_r12.rs", &src)]);
    assert!(result.findings.iter().all(|f| f.rule != "R12"), "{result:#?}");
}

#[test]
fn p1_stale_pragma_is_flagged() {
    let src = "\
pub fn fine(x: u32) -> u32 {
    // dta-lint: allow(R6): this load was Relaxed once, long ago.
    x + 1
}
";
    let result = lint_sources(&[("crates/core/src/x.rs", src)]);
    assert_eq!(at(&result.findings), vec![("P1", Severity::Warning, 2, 5)], "{result:#?}");
    assert!(result.findings[0].message.contains("stale pragma"), "{result:#?}");
}

#[test]
fn p1_exempts_test_modules() {
    let src = "\
pub fn fine(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod tests {
    // dta-lint: allow(R6): tests load freely; this pragma is noise
    // but test modules are exempt from staleness policing.
    fn helper() {}
}
";
    let result = lint_sources(&[("crates/core/src/x.rs", src)]);
    assert!(result.findings.is_empty(), "{result:#?}");
}

#[test]
fn p2_parse_error_is_reported() {
    let src = "pub fn broken(x: u32 -> u32 { x }\n";
    let result = lint_sources(&[("crates/core/src/x.rs", src)]);
    assert!(
        result.findings.iter().any(|f| f.rule == "P2" && f.severity == Severity::Error),
        "{result:#?}"
    );
}

#[test]
fn semantic_findings_respect_pragmas_at_the_anchor() {
    let src = R10.replace(
        "        let g = self.a.read();\n        self.grab_b()",
        "        let g = self.a.read();\n        // dta-lint: allow(R10): fixture sanctions this interleaving.\n        self.grab_b()",
    );
    let result = lint_sources(&[("crates/server/src/fixture_r10.rs", &src)]);
    assert!(result.findings.iter().all(|f| f.rule != "R10"), "{result:#?}");
    assert!(result.suppressed > 0, "{result:#?}");
}

/// The acceptance gate: each semantic rule's fixture must fail the run
/// both with and without `--deny-warnings` (they are all errors).
#[test]
fn any_seeded_semantic_violation_fails_the_gate() {
    let seeded: &[(&str, &str, &str)] = &[
        ("R10", "crates/server/src/fixture_r10.rs", R10),
        ("R11", "crates/core/src/fixture_r11.rs", R11),
        ("R12", "crates/stats/src/fixture_r12.rs", R12),
    ];
    for (rule, path, src) in seeded {
        let result = lint_sources(&[(path, src)]);
        assert!(
            result.findings.iter().any(|f| &f.rule == rule),
            "fixture for {rule} produced {:#?}",
            result.findings
        );
        assert!(result.fails(true), "{rule} violation must fail --deny-warnings");
        assert!(result.fails(false), "{rule} violation must fail unconditionally");
    }
}
