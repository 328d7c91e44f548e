//! The source rules clippy has no lint for (DESIGN.md §8), over the
//! library sources under `crates/`: **R2**, no cost- or benefit-named
//! value next to `<`/`>` or calling `.min(`/`.max(` in `greedy.rs` and
//! `enumeration.rs`, which compare costs through `dta_core::det`; **R6**,
//! no `Relaxed` atomic ordering at all; **R11**, in the crates whose
//! `lib.rs` denies clippy's panic lints, no `.expect("…")` message under
//! 10 characters. The rules read code only: comments, literal contents
//! and each `#[cfg(test)] mod` are blanked first. A finding prints as
//! `[<rule>] <path>:<line>: …`.

use std::fs;
use std::path::Path;

const CRATES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Path components that put a file outside library code.
const SKIPPED: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Files R2 applies to: where Greedy(m,k) compares costs.
const R2_FILES: &[&str] = &["greedy.rs", "enumeration.rs"];

/// The shortest `expect` message that counts as a written invariant.
const MIN_INVARIANT: usize = 10;

/// Whether `rel`, a path under `crates/`, is library code.
fn in_scope(rel: &str) -> bool {
    rel.ends_with(".rs") && !rel.split('/').any(|c| c.starts_with('.') || SKIPPED.contains(&c))
}

/// The names in the directory `rel` under `crates/`, sorted.
fn list(rel: &str) -> Vec<String> {
    let entries = fs::read_dir(Path::new(CRATES).join(rel)).expect("a crates directory lists");
    let mut names: Vec<String> = entries
        .map(|e| e.expect("a directory entry reads").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every library file under `rel`, as a path under `crates/`.
fn walk(rel: &str, out: &mut Vec<String>) {
    for name in list(rel) {
        let rel = if rel.is_empty() { name } else { format!("{rel}/{name}") };
        if Path::new(CRATES).join(&rel).is_dir() {
            walk(&rel, out);
        } else if in_scope(&rel) {
            out.push(rel);
        }
    }
}

/// The R11 crates, each with its `#![deny(…)]` block: the crates whose
/// `lib.rs` denies `clippy::panic`.
fn r11_blocks() -> Vec<(String, String)> {
    let block = |name: &str| {
        let lib = fs::read_to_string(Path::new(CRATES).join(name).join("src/lib.rs")).ok()?;
        lib.match_indices("#![deny(").find_map(|(at, _)| {
            let rest = &lib[at..];
            Some(rest[..rest.find(")]")? + 2].to_string()).filter(|b| b.contains("clippy::panic"))
        })
    };
    list("").into_iter().filter_map(|name| block(&name).map(|b| (name, b))).collect()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn find(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    (from..hay.len()).find(|&j| hay[j..].starts_with(needle))
}

/// `src` with comments, the contents of string and char literals, and
/// each `#[cfg(test)] mod` blanked to spaces byte for byte, newlines
/// kept: the code the rules read, at the offsets of `src`.
fn code_of(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let at = |j: usize| b.get(j).copied().unwrap_or(0);
    let mut code = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        // (the span to blank, where scanning resumes)
        let (blank, next) = match at(i) {
            b'/' if at(i + 1) == b'/' => {
                let end = find(b, i, b"\n").unwrap_or(b.len());
                (i..end, end)
            }
            b'/' if at(i + 1) == b'*' => {
                let (mut j, mut depth) = (i + 2, 1);
                while depth > 0 && j < b.len() {
                    match (at(j), at(j + 1)) {
                        (b'/', b'*') => (depth, j) = (depth + 1, j + 2),
                        (b'*', b'/') => (depth, j) = (depth - 1, j + 2),
                        _ => j += 1,
                    }
                }
                (i..j.min(b.len()), j)
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && at(j) != b'"' {
                    j += if at(j) == b'\\' { 2 } else { 1 };
                }
                (i + 1..j.min(b.len()), j + 1)
            }
            b'\'' => {
                let width =
                    src.get(i + 1..).and_then(|s| s.chars().next()).map_or(1, char::len_utf8);
                if at(i + 1) == b'\\' {
                    let end = find(b, i + 3, b"'").unwrap_or(b.len());
                    (i + 1..end.max(i + 1), end + 1)
                } else if at(i + 1 + width) == b'\'' {
                    (i + 1..i + 1 + width, i + 2 + width)
                } else {
                    (i..i, i + 1) // a lifetime or a label
                }
            }
            c if is_ident(c) => {
                let end = (i..b.len()).find(|&j| !is_ident(at(j))).unwrap_or(b.len());
                if !(matches!(&b[i..end], b"r" | b"br") && matches!(at(end), b'"' | b'#')) {
                    i = end;
                    continue;
                }
                let hashes = (end..b.len()).take_while(|&j| at(j) == b'#').count();
                let fence = [&b"\""[..], &vec![b'#'; hashes]].concat();
                let open = (end + hashes + 1).min(b.len());
                let close = find(b, open, &fence).unwrap_or(b.len());
                (open..close, close + fence.len())
            }
            _ => (i..i, i + 1),
        };
        code[blank].iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
        i = next;
    }
    let mut from = 0;
    while let Some(start) = find(&code, from, b"#[cfg(test)]") {
        from = start + "#[cfg(test)]".len();
        let item = (from..code.len()).find(|&j| !code[j].is_ascii_whitespace()).unwrap_or(from);
        let is_mod = code[item..].starts_with(b"mod ");
        let Some(open) = find(&code, item, b"{").filter(|_| is_mod) else { continue };
        let mut depth = 0;
        let close = (open..code.len())
            .find(|&j| {
                depth += i32::from(code[j] == b'{') - i32::from(code[j] == b'}');
                depth == 0
            })
            .unwrap_or(code.len() - 1);
        code[start..=close].iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
    }
    code
}

/// The findings of R2, R6 and (where `r11` holds) R11 in one source
/// file, `rel` being its path under `crates/`.
fn check(rel: &str, src: &str, r11: bool) -> Vec<String> {
    let code = code_of(src);
    let text = |r: std::ops::Range<usize>| src.get(r).unwrap_or("");
    let next = |j: usize| (j..code.len()).find(|&k| !code[k].is_ascii_whitespace());
    let next = |j: usize| next(j).unwrap_or(code.len());
    let prev = |j: usize| (0..j).rev().find(|&k| !code[k].is_ascii_whitespace());
    let word_end = |j: usize| (j..code.len()).find(|&k| !is_ident(code[k])).unwrap_or(code.len());
    let r2 = R2_FILES.contains(&rel.rsplit('/').next().unwrap_or(""));
    let mut found = Vec::new();
    let mut flag = |rule: &str, pos: usize, message: String| {
        let line = 1 + code[..pos].iter().filter(|&&c| c == b'\n').count();
        found.push(format!("[{rule}] {rel}:{line}: {message}"));
    };
    let mut i = 0;
    while i < code.len() {
        if !is_ident(code[i]) || code[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let end = word_end(i);
        let (word, after) = (text(i..end), next(end));
        // snake_case values only: `CostEvaluator<'_>` is a type
        let lower = word.to_ascii_lowercase();
        let costish = !word.starts_with(|c: char| c.is_ascii_uppercase())
            && (lower.contains("cost") || lower.contains("benefit"));
        // `< cost` and `> cost`, but not `-> cost` or `=> cost`
        let before = prev(i).filter(|&k| matches!(code[k], b'<' | b'>'));
        let compared = matches!(code.get(after), Some(b'<' | b'>'))
            || before.is_some_and(|k| !prev(k).is_some_and(|k| matches!(code[k], b'-' | b'=')));
        // what follows `word.` or `word(`
        let (arg, called) = (next(after + 1), word_end(next(after + 1)));
        let reduced = code.get(after) == Some(&b'.')
            && matches!(&code[arg..called], b"min" | b"max" | b"lt" | b"gt" | b"le" | b"ge")
            && code.get(next(called)) == Some(&b'(');
        if r2 && costish && (compared || reduced) {
            flag("R2", i, format!("raw comparison on `{word}`: use dta_core::det"));
        }
        if word == "Relaxed" {
            flag("R6", i, "a `Relaxed` atomic ordering: use `SeqCst`".to_string());
        }
        let quote =
            arg + code[arg..].iter().take_while(|c| matches!(c, b'b' | b'r' | b'#')).count();
        if r11
            && word == "expect"
            && prev(i).is_some_and(|k| code[k] == b'.')
            && code.get(after) == Some(&b'(')
            && code.get(quote) == Some(&b'"')
        {
            let message = text(quote + 1..find(&code, quote + 1, b"\"").unwrap_or(code.len()));
            if message.chars().count() < MIN_INVARIANT {
                let why = format!("say in {MIN_INVARIANT} characters or more why it cannot fail");
                flag("R11", i, format!("`expect(\"{message}\")` writes no invariant: {why}"));
            }
        }
        i = end;
    }
    found
}

/// Whether one of `found` is `rule`'s, at `line`.
fn at(found: &[String], rule: &str, line: usize) -> bool {
    found.iter().any(|f| f.starts_with(&format!("[{rule}] ")) && f.contains(&format!(":{line}: ")))
}

#[test]
fn library_sources_keep_the_rules() {
    let r11: Vec<String> = r11_blocks().into_iter().map(|(name, _)| name).collect();
    let mut files = Vec::new();
    walk("", &mut files);
    assert!(files.len() > 80, "walked only {} library files", files.len());
    let mut findings = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(Path::new(CRATES).join(rel))
            .expect("a library source reads as UTF-8");
        let krate = rel.split('/').next().unwrap_or("");
        findings.extend(check(rel, &src, r11.iter().any(|c| c == krate)));
    }
    assert!(findings.is_empty(), "source rules broken:\n{}", findings.join("\n"));
}

/// R11's scope is written once, as the clippy block in each R11
/// crate's `lib.rs`: every block must be the same.
#[test]
fn r11_clippy_blocks_stand_in_exactly_the_r11_crates() {
    let blocks = r11_blocks();
    let names: Vec<&str> = blocks.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(blocks.len(), 13, "crates denying clippy::panic: {names:?}");
    let (first, block) = &blocks[0];
    for (name, other) in &blocks {
        assert_eq!(other, block, "{name}'s R11 block differs from {first}'s");
    }
}

/// The crates `dta tune` reaches carry the R11 block; the benchmark
/// harness and the vendored criterion do not, and R11 skips them.
#[test]
fn r11_is_scoped_to_the_crates_tune_reaches() {
    let names: Vec<String> = r11_blocks().into_iter().map(|(name, _)| name).collect();
    for krate in ["core", "optimizer", "sql", "xml", "workload", "dta"] {
        assert!(names.iter().any(|n| n == krate), "{krate} is outside R11: {names:?}");
    }
    for krate in ["bench", "criterion"] {
        assert!(!names.iter().any(|n| n == krate), "{krate} is inside R11: {names:?}");
        assert!(check(&format!("{krate}/src/x.rs"), R11, false).is_empty(), "{krate}");
    }
}

const R2: &str = "fn pick(best_cost: f64, cost: f64, benefit: f64) -> f64 {
    if cost < 1.0 { return cost; }
    if 0.0 > benefit { return 0.0; }
    best_cost.min(cost)
}
";
const R6: &str = "fn read(c: &AtomicUsize) -> usize {\n    c.load(Ordering::Relaxed)\n}\n";
const R11: &str = "fn head(xs: &[u32]) -> u32 {\n    *xs.first().expect(\"nonempty\")\n}\n";

#[test]
fn r2_raw_cost_compare_exact_positions() {
    let found = check("core/src/greedy.rs", R2, false);
    assert!(found.len() == 3 && (2..=4).all(|line| at(&found, "R2", line)), "{found:#?}");
    // `-> f64`, `=> cost` and generic types are not comparisons
    let clean = "fn f(c: CostEvaluator<'_>) -> Option<f64> { match c { _ => cost } }\n";
    assert!(check("core/src/greedy.rs", clean, false).is_empty());
}

#[test]
fn r6_relaxed_ordering_exact_position() {
    let found = check("workload/src/x.rs", R6, false);
    assert!(found.len() == 1 && at(&found, "R6", 2), "{found:#?}");
}

#[test]
fn r11_short_expect_exact_position() {
    let found = check("core/src/x.rs", R11, true);
    assert!(found.len() == 1 && at(&found, "R11", 2), "{found:#?}");
    assert!(found[0].contains("expect(\"nonempty\")"), "{found:#?}");
}

/// A violation of each rule, seeded where the rule reads, is a finding,
/// so `library_sources_keep_the_rules` fails on it.
#[test]
fn any_seeded_violation_fails_the_gate() {
    let seeded = [
        ("R2", "core/src/greedy.rs", R2),
        ("R6", "core/src/x.rs", R6),
        ("R11", "core/src/x.rs", R11),
    ];
    for (rule, rel, src) in seeded {
        let found = check(rel, src, true);
        assert!(found.iter().any(|f| f.starts_with(&format!("[{rule}] "))), "{rule}: {found:#?}");
    }
}

#[test]
fn r11_written_invariant_and_non_literal_messages_are_clean() {
    let with = |message: &str| check("core/src/x.rs", &R11.replace("\"nonempty\"", message), true);
    assert!(with("\"callers pass a nonempty slice\"").is_empty());
    // ten characters is enough, counted in chars, not bytes
    assert!(with("\"é123456789\"").is_empty());
    assert_eq!(with("r#\"nonempty\"#").len(), 1);
    // a message built at run time is not a literal the rule can read
    assert!(with("&msg").is_empty());
    // a function named `expect` is only the method after a dot
    assert!(check("core/src/x.rs", "fn expect(s: &str) {}\nexpect(\"ok\");\n", true).is_empty());
}

/// Literals and comments never leak into code, and lines still count
/// through them: only the two code `Relaxed`s fire, on lines 3 and 5.
#[test]
fn literals_and_comments_are_not_code() {
    let src = "let s = \"a \\\" cost < 1\"; /* a /* nested */ cost < 1 */ // cost < 1 Relaxed
let r = r#\"cost \"< 1\"#; let c = ('<', '\\'', 'é', b\"<\", br\"cost<\", r##\"\"#\"##);
fn f<'a>(cost: &'a str) -> &'static str { Relaxed; \"two
lines\" }
Ordering::Relaxed
";
    let found = check("core/src/greedy.rs", src, true);
    assert!(found.len() == 2 && at(&found, "R6", 3) && at(&found, "R6", 5), "{found:#?}");
    // an unterminated literal or comment ends the file, not the scan
    for src in ["\"never closed", "/* never closed", "r#\"never closed", "r#", "'", "b'", "'\\"] {
        assert_eq!(code_of(src).len(), src.len());
    }
}

const TEST_MOD: &str =
    "#[cfg(test)]\nmod tests {\n    fn t() { c.load(Ordering::Relaxed); x.expect(\"\"); }\n}\n";

#[test]
fn cfg_test_modules_are_exempt() {
    let found = check("core/src/x.rs", &format!("{R6}{TEST_MOD}"), true);
    assert!(found.len() == 1 && at(&found, "R6", 2), "only the library's fires: {found:#?}");
    // a test helper outside a test module is library code
    let helper = "#[cfg(test)]\npub(crate) fn t() { c.load(Ordering::Relaxed); }\n";
    assert_eq!(check("core/src/x.rs", helper, true).len(), 1);
}

#[test]
fn cfg_not_test_modules_are_not_exempt() {
    let not =
        "#[cfg(not(test))]\nmod imp {\n    fn f() -> usize { c.load(Ordering::Relaxed) }\n}\n";
    let found = check("core/src/x.rs", not, true);
    assert!(found.len() == 1 && at(&found, "R6", 3), "{found:#?}");
}

#[test]
fn r11_exempts_cfg_test_modules() {
    let found = check("core/src/x.rs", &format!("{R11}{TEST_MOD}"), true);
    assert!(found.len() == 1 && at(&found, "R11", 2), "only the library's fires: {found:#?}");
}

#[test]
fn rules_scope_by_crate_and_file() {
    // R2 only reads greedy.rs and enumeration.rs
    assert!(check("core/src/cost.rs", R2, false).is_empty());
    assert_eq!(check("core/src/enumeration.rs", R2, false).len(), 3);
    // R6 reads every crate
    assert_eq!(check("criterion/src/x.rs", R6, false).len(), 1);
}

/// No file under tests/, benches/, fixtures/ or a hidden directory,
/// and no file but Rust source, is library code.
#[test]
fn non_library_paths_are_out_of_scope() {
    assert!(in_scope("core/src/cost.rs") && in_scope("bench/src/bin/dta-bench-snap.rs"));
    for rel in ["core/tests/x.rs", "bench/benches/x.rs", "core/tests/fixtures/clippy/x.rs"] {
        assert!(!in_scope(rel), "{rel}");
    }
    assert!(!in_scope("core/src/data.txt") && !in_scope("core/.hidden/x.rs"));
}
