//! Rule-engine tests: one fixture per rule asserting exact finding
//! positions, scoping, test-module exemption, suppression accounting,
//! the seeded-violation gate, and a self-check over the real tree.

use dta_lint::rules::{check_source, in_scope};
use dta_lint::{lint_source, Finding, LintResult, Severity};

const R1: &str = include_str!("fixtures/fixture_r1.rs");
const R2: &str = include_str!("fixtures/fixture_r2.rs");
const R3: &str = include_str!("fixtures/fixture_r3.rs");
const R4: &str = include_str!("fixtures/fixture_r4.rs");
const R5: &str = include_str!("fixtures/fixture_r5.rs");
const R6: &str = include_str!("fixtures/fixture_r6.rs");
const R7: &str = include_str!("fixtures/fixture_r7.rs");
const R8: &str = include_str!("fixtures/fixture_r8.rs");
const R9: &str = include_str!("fixtures/fixture_r9.rs");
const CLEAN: &str = include_str!("fixtures/fixture_clean.rs");

/// (rule, severity, line, col) projection for position assertions.
fn at(findings: &[Finding]) -> Vec<(&str, Severity, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.severity, f.line, f.col)).collect()
}

#[test]
fn r1_hash_iteration_exact_positions() {
    let found = lint_source("crates/core/src/fixture_r1.rs", R1);
    assert_eq!(
        at(&found),
        vec![
            ("R1", Severity::Error, 7, 32),  // costs.iter()
            ("R1", Severity::Error, 14, 15), // for id in pool {
        ],
        "{found:#?}"
    );
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
fn r3_interior_mutability_exact_positions() {
    let found = lint_source("crates/core/src/fixture_r3.rs", R3);
    assert_eq!(
        at(&found),
        vec![
            ("R3", Severity::Error, 3, 16), // use std::cell::RefCell;
            ("R3", Severity::Error, 6, 13), // buffer: RefCell<…>
        ],
        "{found:#?}"
    );
}

#[test]
fn r4_thread_spawn_exact_position() {
    let found = lint_source("crates/core/src/fixture_r4.rs", R4);
    assert_eq!(at(&found), vec![("R4", Severity::Error, 4, 18)], "{found:#?}");
}

#[test]
fn r5_bare_unwrap_exact_position() {
    let found = lint_source("crates/core/src/fixture_r5.rs", R5);
    assert_eq!(at(&found), vec![("R5", Severity::Warning, 4, 17)], "{found:#?}");
}

#[test]
fn r6_relaxed_ordering_exact_position() {
    let found = lint_source("crates/core/src/fixture_r6.rs", R6);
    assert_eq!(at(&found), vec![("R6", Severity::Warning, 6, 28)], "{found:#?}");
}

#[test]
fn r7_library_panic_exact_positions() {
    let found = lint_source("crates/core/src/fixture_r7.rs", R7);
    assert_eq!(
        at(&found),
        vec![
            ("R7", Severity::Error, 5, 9),   // panic!(…)
            ("R7", Severity::Error, 11, 19), // std::process::exit(2)
            ("R7", Severity::Error, 15, 19), // std::process::abort()
        ],
        "{found:#?}"
    );
}

#[test]
fn r8_library_print_exact_positions() {
    let found = lint_source("crates/core/src/fixture_r8.rs", R8);
    assert_eq!(
        at(&found),
        vec![
            ("R8", Severity::Error, 4, 5), // println!
            ("R8", Severity::Error, 5, 5), // eprintln!
            ("R8", Severity::Error, 6, 5), // dbg!
        ],
        "{found:#?}"
    );
}

#[test]
fn r9_wall_clock_exact_positions() {
    let found = lint_source("crates/core/src/fixture_r9.rs", R9);
    assert_eq!(
        at(&found),
        vec![
            ("R9", Severity::Error, 3, 16), // use std::time::Instant;
            ("R9", Severity::Error, 6, 19), // Instant::now()
            ("R9", Severity::Error, 7, 24), // SystemTime::now()
        ],
        "{found:#?}"
    );
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
    // dta-lint: allow(R5): suppressing the wrong rule on purpose.
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
pub fn lib(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    fn helper(x: Option<u32>) -> u32 {
        x.unwrap()
    }
}
";
    let found = lint_source("crates/core/src/x.rs", src);
    // only the library unwrap on line 2 fires; the test-mod one is exempt
    assert_eq!(at(&found), vec![("R5", Severity::Warning, 2, 7)], "{found:#?}");
}

#[test]
fn cfg_not_test_modules_are_not_exempt() {
    let src = "\
#[cfg(not(test))]
mod imp {
    fn f(x: Option<u32>) -> u32 {
        x.unwrap()
    }
}
";
    let found = lint_source("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].rule, "R5");
}

#[test]
fn rules_scope_by_crate_and_file() {
    // R1 only fires in recommendation-producing crates
    assert!(lint_source("crates/workload/src/x.rs", R1).is_empty());
    // R2 only fires in greedy.rs / enumeration.rs
    assert!(lint_source("crates/core/src/cost.rs", R2).is_empty());
    // R4's sanctioned modules may mention thread::spawn
    assert!(lint_source("crates/core/src/greedy.rs", R4).is_empty());
    // …but the same code elsewhere in the workspace may not
    assert!(!lint_source("crates/sql/src/lex.rs", R4).is_empty());
    // R7 only guards the tune()-reachable crates (core/server/stats)
    assert!(lint_source("crates/sql/src/lex.rs", R7).is_empty());
    assert!(!lint_source("crates/server/src/seeded.rs", R7).is_empty());
    // R8 guards the library layers; CLI-facing crates may print
    assert!(lint_source("crates/bench/src/x.rs", R8).is_empty());
    assert!(!lint_source("crates/catalog/src/seeded.rs", R8).is_empty());
    // R9 is core-only, and the observer module itself is sanctioned
    assert!(lint_source("crates/server/src/seeded.rs", R9).is_empty());
    assert!(lint_source("crates/core/src/obs.rs", R9).is_empty());
    assert!(!lint_source("crates/core/src/seeded.rs", R9).is_empty());
}

#[test]
fn non_library_paths_are_out_of_scope() {
    assert!(in_scope("crates/core/src/cost.rs"));
    assert!(!in_scope("crates/core/tests/integration.rs"));
    assert!(!in_scope("crates/core/benches/bench.rs"));
    assert!(!in_scope("crates/lint/tests/fixtures/fixture_r5.rs"));
    assert!(!in_scope("crates/core/src/data.txt"));
    assert!(!in_scope("crates/core/.hidden/x.rs"));
}

/// The acceptance gate: seeding any R1–R9 violation into a core path
/// must make `dta-lint --deny-warnings` fail (non-zero exit). Exit
/// status is `LintResult::fails` — the binary maps it 1:1.
#[test]
fn any_seeded_violation_fails_the_gate() {
    let seeded: &[(&str, &str, &str)] = &[
        ("R1", "crates/core/src/seeded.rs", R1),
        ("R2", "crates/core/src/greedy.rs", R2),
        ("R3", "crates/core/src/seeded.rs", R3),
        ("R4", "crates/core/src/seeded.rs", R4),
        ("R7", "crates/core/src/seeded.rs", R7),
        ("R8", "crates/core/src/seeded.rs", R8),
        ("R9", "crates/core/src/seeded.rs", R9),
        ("R5", "crates/core/src/seeded.rs", R5),
        ("R6", "crates/core/src/seeded.rs", R6),
    ];
    for (rule, path, src) in seeded {
        let findings = lint_source(path, src);
        assert!(
            findings.iter().any(|f| &f.rule == rule),
            "fixture for {rule} produced {findings:#?}"
        );
        let result = LintResult { findings, suppressed: 0, files: 1, baselined: 0 };
        assert!(result.fails(true), "{rule} violation must fail --deny-warnings");
    }
    // the hard-error rules fail even without --deny-warnings
    for (rule, path, src) in &seeded[..7] {
        let result =
            LintResult { findings: lint_source(path, src), suppressed: 0, files: 1, baselined: 0 };
        assert!(result.fails(false), "{rule} violation must fail unconditionally");
    }
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
    let findings = lint_source("crates/core/src/fixture_r5.rs", R5);
    let result = LintResult { findings, suppressed: 0, files: 1, baselined: 0 };
    let json = dta_lint::report::json(&result);
    assert!(json.contains("\"findings\""), "{json}");
    assert!(json.contains("\"R5\""), "{json}");
    assert!(json.contains("fixture_r5.rs"), "{json}");
    // the rule table rides along for report consumers
    for spec in dta_lint::rules::RULES {
        assert!(json.contains(spec.id), "missing {} in {json}", spec.id);
    }
}
