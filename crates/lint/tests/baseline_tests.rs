//! Baseline test. The contract under test: a committed baseline accepts
//! exactly its recorded findings and nothing else.

use dta_lint::{lint_paths_with, LintOptions};
use std::fs;
use std::path::{Path, PathBuf};

/// Fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dta-lint-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn write(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("file paths have parents")).expect("mkdir");
    fs::write(path, src).expect("fixture writes");
}

const VIOLATING: &str = "\
pub fn risky(x: Option<u32>) -> u32 {
    x.unwrap()
}
";

#[test]
fn baseline_accepts_recorded_findings_and_nothing_else() {
    let dir = scratch("baseline");
    write(&dir, "crates/core/src/old.rs", VIOLATING);
    let baseline = dir.join("lint-baseline.txt");
    let paths = [dir.join("crates")];

    // no baseline file: nothing is accepted
    let opts = LintOptions { baseline_path: Some(baseline.clone()), ..LintOptions::default() };
    let unfiltered = lint_paths_with(&paths, &opts).expect("run succeeds");
    assert!(unfiltered.findings.iter().any(|f| f.rule == "R5"), "{:#?}", unfiltered.findings);
    assert_eq!(unfiltered.baselined, 0);

    // record the current findings as the accepted debt
    let write_opts = LintOptions { baseline_path: Some(baseline.clone()), write_baseline: true };
    lint_paths_with(&paths, &write_opts).expect("baseline write succeeds");
    assert!(baseline.exists());

    // same tree: everything is accepted, the run is clean
    let filtered = lint_paths_with(&paths, &opts).expect("filtered run succeeds");
    assert!(filtered.findings.is_empty(), "{:#?}", filtered.findings);
    assert!(filtered.baselined > 0);
    assert!(!filtered.fails(true));

    // a NEW violation on a different line is not covered
    write(
        &dir,
        "crates/core/src/old.rs",
        "pub fn risky(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\npub fn worse(y: Option<u32>) -> u32 {\n    y.unwrap()\n}\n",
    );
    let regressed = lint_paths_with(&paths, &opts).expect("regression run succeeds");
    assert_eq!(regressed.findings.len(), 1, "{:#?}", regressed.findings);
    assert_eq!(regressed.findings[0].line, 5);
    assert!(regressed.fails(true), "new findings must fail despite the baseline");
    let _ = fs::remove_dir_all(&dir);
}
