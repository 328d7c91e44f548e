//! CLI for `dta-lint`.
//!
//! ```text
//! dta-lint [PATHS…] [--json] [--deny-warnings] [--baseline FILE]
//!          [--write-baseline]
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
dta-lint — determinism & concurrency invariant checker for the DTA workspace

USAGE:
    dta-lint [PATHS…] [--json] [--deny-warnings] [--baseline FILE]
             [--write-baseline]

ARGS:
    PATHS…            files or directories to lint (default: crates/)

OPTIONS:
    --json            machine-readable report on stdout
    --deny-warnings   non-zero exit on warnings, not just errors
    --baseline FILE   drop findings recorded in FILE (rule|path|line keys);
                      anything not in the baseline still fails the run
    --write-baseline  regenerate the --baseline file from this run's
                      findings instead of filtering by it
    --help            this text

Suppression: `// dta-lint: allow(<rules>): <justification>` on or directly
above the offending line. The justification is mandatory.";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut deny_warnings = false;
    let mut opts = dta_lint::LintOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--baseline" => match args.next() {
                Some(p) => opts.baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a file path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => opts.write_baseline = true,
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
    if opts.write_baseline && opts.baseline_path.is_none() {
        eprintln!("--write-baseline requires --baseline FILE\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    let result = match dta_lint::lint_paths_with(&paths, &opts) {
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
