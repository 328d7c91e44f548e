//! Token-rule tests: one fixture per rule asserting exact finding
//! positions, scoping, test-module exemption, suppression accounting,
//! stale pragmas, the seeded-violation gate, and a self-check over the
//! real tree.

use dta_lint::rules::{check_source, in_scope};
use dta_lint::{lint_source, lint_sources, Finding, LintResult, Severity};

const R2: &str = include_str!("fixtures/fixture_r2.rs");
const R6: &str = include_str!("fixtures/fixture_r6.rs");
const CLEAN: &str = include_str!("fixtures/fixture_clean.rs");

/// R11 fixture: a library `expect` whose message names no invariant.
const R11: &str = "\
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().expect(\"nonempty\")
}
";

/// (rule, severity, line, col) projection for position assertions.
fn at(findings: &[Finding]) -> Vec<(&str, Severity, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.severity, f.line, f.col)).collect()
}

#[test]
fn r2_raw_cost_compare_exact_positions() {
    // R2 is file-scoped: the fixture is linted under the greedy.rs name
    let found = lint_source("crates/core/src/greedy.rs", R2);
    assert_eq!(
        at(&found),
        vec![
            ("R2", Severity::Error, 4, 13),  // cost < 100.0
            ("R2", Severity::Error, 7, 12),  // 0.0 > benefit
            ("R2", Severity::Error, 10, 15), // best_cost.min(cost)
        ],
        "{found:#?}"
    );
}

#[test]
fn r6_relaxed_ordering_exact_position() {
    let found = lint_source("crates/core/src/fixture_r6.rs", R6);
    assert_eq!(at(&found), vec![("R6", Severity::Warning, 6, 28)], "{found:#?}");
}

#[test]
fn r11_short_expect_exact_position() {
    let found = lint_source("crates/core/src/fixture_r11.rs", R11);
    assert_eq!(at(&found), vec![("R11", Severity::Error, 2, 24)], "{found:#?}");
    assert!(found[0].message.contains("expect(\"nonempty\")"), "{found:#?}");
}

#[test]
fn r11_written_invariant_and_non_literal_messages_are_clean() {
    let written = R11.replace("\"nonempty\"", "\"callers pass a nonempty slice\"");
    assert!(lint_source("crates/core/src/x.rs", &written).is_empty());
    // ten characters is enough, counted in chars, not bytes
    let ten = R11.replace("\"nonempty\"", "\"é123456789\"");
    assert!(lint_source("crates/core/src/x.rs", &ten).is_empty());
    let raw = R11.replace("\"nonempty\"", "r#\"nonempty\"#");
    assert_eq!(lint_source("crates/core/src/x.rs", &raw).len(), 1);
    // a message built at run time is not a literal the rule can read
    let built = R11.replace("\"nonempty\"", "&msg");
    assert!(lint_source("crates/core/src/x.rs", &built).is_empty());
    // a method named `expect` is only a call after a dot
    assert!(lint_source("crates/core/src/x.rs", "fn expect(s: &str) {}\n").is_empty());
}

#[test]
fn r11_exempts_cfg_test_modules() {
    let src =
        format!("{R11}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ x.expect(\"ok\"); }}\n}}\n");
    let found = lint_source("crates/core/src/x.rs", &src);
    // only the library expect on line 2 fires
    assert_eq!(at(&found), vec![("R11", Severity::Error, 2, 24)], "{found:#?}");
}

#[test]
fn r11_is_scoped_to_the_crates_tune_reaches() {
    for krate in ["core", "optimizer", "sql", "xml", "workload", "dta"] {
        let path = format!("crates/{krate}/src/x.rs");
        assert!(!lint_source(&path, R11).is_empty(), "{krate}");
    }
    for krate in ["bench", "lint", "criterion"] {
        let path = format!("crates/{krate}/src/x.rs");
        assert!(lint_source(&path, R11).is_empty(), "{krate}");
    }
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
    assert!(result.fails(true) && !result.fails(false));
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
fn justified_pragma_suppresses_and_is_counted() {
    let (findings, suppressed) = check_source("crates/core/src/fixture_clean.rs", CLEAN);
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn unjustified_pragma_is_p0_and_the_original_finding_survives() {
    let src = "\
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn read(c: &AtomicUsize) -> usize {
    // dta-lint: allow(R6)
    c.load(Ordering::Relaxed)
}
";
    let (findings, suppressed) = check_source("crates/core/src/x.rs", src);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["P0", "R6"], "{findings:#?}");
    assert_eq!(suppressed, 0);
    assert_eq!(findings[0].severity, Severity::Error);
}

#[test]
fn pragma_for_the_wrong_rule_suppresses_nothing() {
    let src = "\
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn read(c: &AtomicUsize) -> usize {
    // dta-lint: allow(R2): suppressing the wrong rule on purpose.
    c.load(Ordering::Relaxed)
}
";
    let (findings, suppressed) = check_source("crates/core/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "R6");
    assert_eq!(suppressed, 0);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let src = "\
pub fn lib(c: &AtomicUsize) -> usize {
    c.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    fn helper(c: &AtomicUsize) -> usize {
        c.load(Ordering::Relaxed)
    }
}
";
    let found = lint_source("crates/core/src/x.rs", src);
    // only the library load on line 2 fires; the test-mod one is exempt
    assert_eq!(at(&found), vec![("R6", Severity::Warning, 2, 22)], "{found:#?}");
}

#[test]
fn cfg_not_test_modules_are_not_exempt() {
    let src = "\
#[cfg(not(test))]
mod imp {
    fn f(c: &AtomicUsize) -> usize {
        c.load(Ordering::Relaxed)
    }
}
";
    let found = lint_source("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].rule, "R6");
}

#[test]
fn rules_scope_by_crate_and_file() {
    // R2 only fires in greedy.rs / enumeration.rs
    assert!(lint_source("crates/core/src/cost.rs", R2).is_empty());
    assert!(!lint_source("crates/core/src/enumeration.rs", R2).is_empty());
    // R6 fires in every crate
    assert!(!lint_source("crates/workload/src/x.rs", R6).is_empty());
}

#[test]
fn non_library_paths_are_out_of_scope() {
    assert!(in_scope("crates/core/src/cost.rs"));
    assert!(!in_scope("crates/core/tests/integration.rs"));
    assert!(!in_scope("crates/core/benches/bench.rs"));
    assert!(!in_scope("crates/lint/tests/fixtures/fixture_r6.rs"));
    assert!(!in_scope("crates/core/src/data.txt"));
    assert!(!in_scope("crates/core/.hidden/x.rs"));
}

/// The acceptance gate: seeding an R2, R6 or R11 violation into a core path
/// must make `dta-lint --deny-warnings` fail (non-zero exit). Exit
/// status is `LintResult::fails` — the binary maps it 1:1. CI's seeded
/// clippy step is the same gate for the rules clippy enforces.
#[test]
fn any_seeded_violation_fails_the_gate() {
    let seeded: &[(&str, &str, &str)] = &[
        ("R2", "crates/core/src/greedy.rs", R2),
        ("R6", "crates/core/src/seeded.rs", R6),
        ("R11", "crates/core/src/seeded.rs", R11),
    ];
    for (rule, path, src) in seeded {
        let findings = lint_source(path, src);
        assert!(
            findings.iter().any(|f| &f.rule == rule),
            "fixture for {rule} produced {findings:#?}"
        );
        let result = LintResult { findings, suppressed: 0, files: 1 };
        assert!(result.fails(true), "{rule} violation must fail --deny-warnings");
    }
    // the hard-error rule fails even without --deny-warnings
    let (_, path, src) = seeded[0];
    let result = LintResult { findings: lint_source(path, src), suppressed: 0, files: 1 };
    assert!(result.fails(false), "R2 violation must fail unconditionally");
}

/// Self-check: the workspace's own crates lint clean under the same
/// flags CI uses. This is the in-repo proof behind the CI gate.
#[test]
fn workspace_tree_is_clean_under_deny_warnings() {
    let root = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .expect("workspace root resolves");
    let result = dta_lint::lint_paths(&[root.join("crates")]).expect("lint run succeeds");
    assert!(result.files > 50, "walked only {} files", result.files);
    assert!(result.suppressed > 0, "the workspace's own pragmas should be exercised");
    assert!(
        !result.fails(true),
        "workspace must lint clean under --deny-warnings: {:#?}",
        result.findings
    );
}

#[test]
fn json_report_includes_findings_and_rules() {
    let findings = lint_source("crates/core/src/fixture_r6.rs", R6);
    let result = LintResult { findings, suppressed: 0, files: 1 };
    let json = dta_lint::report::json(&result);
    assert!(json.contains("\"findings\""), "{json}");
    assert!(json.contains("\"R6\""), "{json}");
    assert!(json.contains("fixture_r6.rs"), "{json}");
    // the rule table rides along for report consumers
    for spec in dta_lint::rules::RULES {
        assert!(json.contains(spec.id), "missing {} in {json}", spec.id);
    }
}
