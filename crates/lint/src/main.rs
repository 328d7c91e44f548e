//! CLI for `dta-lint`.
//!
//! ```text
//! dta-lint [PATHS…] [--json] [--deny-warnings]
//! ```
//!
//! Exit codes: 0 clean (warnings allowed unless `--deny-warnings`),
//! 1 findings, 2 usage or I/O failure.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Write to stdout, ignoring a closed pipe (`dta-lint … | head` must
/// not panic).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

const USAGE: &str = "\
dta-lint — determinism invariant checker for the DTA workspace
(rules R2, R6, R11 and P0–P1; the other R-rules are clippy lints, run
`cargo clippy --all-targets -- -D warnings`, and ranked locks)

USAGE:
    dta-lint [PATHS…] [--json] [--deny-warnings]

ARGS:
    PATHS…            files or directories to lint (default: crates/)

OPTIONS:
    --json            machine-readable report on stdout
    --deny-warnings   non-zero exit on warnings, not just errors
    --help            this text

Suppression: `// dta-lint: allow(<rules>): <justification>` on or directly
above the offending line. The justification is mandatory.";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut deny_warnings = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                emit(USAGE);
                emit("\n");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    let result = match dta_lint::lint_paths(&paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dta-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        emit(&dta_lint::report::json(&result));
    } else {
        emit(&dta_lint::report::text(&result));
    }
    if result.fails(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
