//! Suppression-pragma semantics: coverage, justification policy, and
//! malformed-pragma handling.

use dta_lint::lexer::lex;
use dta_lint::pragma::{collect, Pragma};

fn pragmas(src: &str) -> Vec<Pragma> {
    collect(&lex(src))
}

#[test]
fn trailing_pragma_covers_its_own_line_only() {
    let src = "let x = c.load(Ordering::Relaxed); // dta-lint: allow(R6): counter never orders other memory\nlet y = 1;";
    let ps = pragmas(src);
    assert_eq!(ps.len(), 1);
    let p = &ps[0];
    assert_eq!(p.error, None, "{:?}", p.error);
    assert_eq!(p.rules, vec!["R6"]);
    assert_eq!(p.covers, (1, 1));
    assert!(p.suppresses("R6", 1));
    assert!(!p.suppresses("R6", 2));
    assert!(!p.suppresses("R2", 1), "only the named rule is allowed");
}

#[test]
fn standalone_pragma_covers_through_next_code_line() {
    let src = "\
fn f() {
    // dta-lint: allow(R6): the justification continues onto a
    // second comment line before the code it covers.
    c.load(Ordering::Relaxed);
}";
    let ps = pragmas(src);
    assert_eq!(ps.len(), 1);
    let p = &ps[0];
    assert_eq!(p.error, None, "{:?}", p.error);
    assert_eq!(p.covers, (2, 4), "covers from the pragma through the next code line");
    assert!(p.suppresses("R6", 4));
    assert!(!p.suppresses("R6", 5));
}

#[test]
fn missing_justification_is_an_error_and_suppresses_nothing() {
    let ps = pragmas("// dta-lint: allow(R6)\nx();");
    assert_eq!(ps.len(), 1);
    assert!(ps[0].error.is_some());
    assert!(!ps[0].suppresses("R6", 2));
}

#[test]
fn rubber_stamp_justification_is_rejected() {
    let ps = pragmas("// dta-lint: allow(R6): ok\nx();");
    assert_eq!(ps.len(), 1);
    let err = ps[0].error.as_deref().expect("short justification rejected");
    assert!(err.contains("too short"), "{err}");
    assert!(!ps[0].suppresses("R6", 2));
}

#[test]
fn unknown_directive_is_an_error() {
    let ps = pragmas("// dta-lint: deny(R6): no such directive in this linter\nx();");
    assert_eq!(ps.len(), 1);
    let err = ps[0].error.as_deref().expect("unknown directive rejected");
    assert!(err.contains("unknown"), "{err}");
}

#[test]
fn empty_rule_list_is_an_error() {
    let ps = pragmas("// dta-lint: allow(): a justification that is long enough\nx();");
    assert_eq!(ps.len(), 1);
    assert!(ps[0].error.is_some());
}

#[test]
fn multiple_rules_in_one_pragma() {
    let ps = pragmas("// dta-lint: allow(R2, R6): both are sound here for reasons.\nx();");
    assert_eq!(ps.len(), 1);
    assert_eq!(ps[0].error, None, "{:?}", ps[0].error);
    assert_eq!(ps[0].rules, vec!["R2", "R6"]);
    assert!(ps[0].suppresses("R2", 2));
    assert!(ps[0].suppresses("R6", 2));
}

#[test]
fn unknown_rule_id_is_an_error_and_suppresses_nothing() {
    // R99 never existed; R5 and R7 are clippy lints, not dta-lint rules
    for ids in ["R6, R99", "R5, R6", "R7, R11"] {
        let ps = pragmas(&format!("// dta-lint: allow({ids}): a justification long enough\nx();"));
        assert_eq!(ps.len(), 1);
        let err = ps[0].error.as_deref().expect("unknown rule id rejected");
        assert!(err.contains("unknown rule id"), "{err}");
        assert!(!ps[0].suppresses("R6", 2));
        assert!(!ps[0].suppresses("R11", 2));
    }
}

#[test]
fn prose_mentioning_the_marker_is_not_a_pragma() {
    // doc comments *about* pragmas must not parse as pragmas
    let ps = pragmas("/// Write a `dta-lint: allow(R6)` comment to suppress.\nx();");
    assert!(ps.is_empty(), "{ps:?}");
}

#[test]
fn block_comment_pragma_works() {
    let ps = pragmas("/* dta-lint: allow(R2): ties are impossible on this path */\npick();");
    assert_eq!(ps.len(), 1);
    assert_eq!(ps[0].error, None, "{:?}", ps[0].error);
    assert_eq!(ps[0].rules, vec!["R2"]);
    assert!(ps[0].suppresses("R2", 2));
}

#[test]
fn pragma_position_is_recorded() {
    let ps = pragmas("    // dta-lint: allow(R6): positioned pragma with a reason\nx();");
    assert_eq!(ps.len(), 1);
    assert_eq!((ps[0].line, ps[0].col), (1, 5));
}
