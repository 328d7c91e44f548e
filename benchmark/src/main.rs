//! The benchmark of the tuning pipeline: five workloads, six end-to-end
//! metrics, and a per-layer ladder timed from outside. See `README.md`
//! beside this crate for the tables and how to read them.
//!
//! ```text
//! dta-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}} with the
//!     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
//! dta-benchmark [--seed N] [--seconds S] [--quick] [--out FILE]
//!     every workload, each in a process of its own; prints every metric
//!     and writes FILE (default benchmark/out/results.json)
//! dta-benchmark --compare OLD.json NEW.json
//!     old, new, ratio, bound and verdict per (workload, metric);
//!     exits 1 if any metric is worse
//! dta-benchmark --declaration
//!     BENCHMARK.json, as the tables in this crate define it
//! ```
//!
//! Run from the repository root: `BENCHMARK.json` is read from, and
//! `benchmark/out/` written under, the current directory.

mod compare;
mod json;
mod ladder;
mod metrics;
mod run;
mod schema;
mod session;
mod trace;
mod workloads;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, ExitCode};

const DECLARATION: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 42;
/// The `command`, `paths` and `run_seconds` of `BENCHMARK.json`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["benchmark"];
const RUN_SECONDS: u32 = 15;
const DEFAULT_SECONDS: f64 = RUN_SECONDS as f64;
/// `--quick`: fewer sessions and no traced runs.
const QUICK_SECONDS: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dta-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    declaration: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
        declaration: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            "--declaration" => parsed.declaration = true,
            other => return Err(format!("unknown argument {other}; see benchmark/README.md")),
        }
    }
    Ok(parsed)
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    if let Some((old, new)) = &args.compare {
        return compare_files(old, new);
    }
    if args.declaration {
        println!("{}", pretty(&schema::declaration(&COMMAND, &PATHS, RUN_SECONDS)));
        return Ok(ExitCode::SUCCESS);
    }
    let bench =
        read_json(DECLARATION).map_err(|e| format!("{e} (run from the repository root)"))?;
    let problems = schema::check_declaration(&bench);
    if !problems.is_empty() {
        return Err(format!("{DECLARATION} is not sound:\n  {}", problems.join("\n  ")));
    }
    match &args.workload {
        Some(workload) => one_run(&bench, workload, &args),
        None => every_workload(&bench, &args),
    }
}

/// `BENCHMARK.json`'s layout: one top-level key per line, one list entry
/// per line.
fn pretty(declaration: &Json) -> String {
    let members: Vec<String> = declaration
        .members()
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                let rows: Vec<String> =
                    items.iter().map(|i| format!("    {}", i.render())).collect();
                format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
            }
            other => format!("  \"{key}\": {}", other.render()),
        })
        .collect();
    format!("{{\n{}\n}}", members.join(",\n"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Write under [`OUT_DIR`]. The files are for people; a run that cannot
/// write them still reports.
fn write_out(name: &str, value: &Json) {
    let path = Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, value.render() + "\n"));
    if let Err(e) = written {
        eprintln!("dta-benchmark: cannot write {}: {e}", path.display());
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The section of `BENCHMARK.json` a run reports, and its metric table.
fn section(trace: bool) -> (&'static str, &'static [Metric]) {
    if trace {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    }
}

/// One run of one workload, as the driver invokes it.
fn one_run(bench: &Json, workload: &str, args: &Args) -> Result<ExitCode, String> {
    if workloads::spec(workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let needed = run::threads_needed(workload, args.trace);
    if needed > nproc() {
        return Err(format!(
            "{workload} would run {needed} threads on {} processor(s); refusing to measure",
            nproc()
        ));
    }
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let outcome = run::run(workload, args.seed, seconds, args.trace);

    let (section, table) = section(args.trace);
    let metrics = outcome.values.to_json(table);
    // the self-check: what is about to be printed, against the declaration
    let mut failures = outcome.failures;
    failures.extend(schema::missing_metrics(bench, section, &metrics));
    for failure in &failures {
        eprintln!("dta-benchmark: {workload}: {failure}");
    }
    let attempted = outcome.attempted.max(1);
    let result = Json::obj([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len().min(attempted) as f64)),
        ("metrics", metrics),
    ]);

    let mut file = result.members().to_vec();
    file.push(("seed".into(), Json::Num(args.seed as f64)));
    file.push(("seconds".into(), Json::Num(seconds)));
    file.push(("details".into(), outcome.details));
    write_out(&format!("{workload}-{section}.json"), &Json::Obj(file));
    if args.trace {
        write_out(&format!("trace-{workload}.json"), &trace::to_json(&outcome.spans));
    }
    println!("{}", result.render());
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, each re-executed in a process of its own so that
/// `peak_rss_mb` is that workload's alone.
fn every_workload(bench: &Json, args: &Args) -> Result<ExitCode, String> {
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { DEFAULT_SECONDS });
    let modes: &[bool] = if args.quick { &[false] } else { &[false, true] };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut problems: Vec<String> = Vec::new();
    let mut workloads_json: Vec<(String, Json)> = Vec::new();
    for spec in &workloads::SPECS {
        let mut sections: Vec<(String, Json)> = Vec::new();
        for &trace in modes {
            let (section, _) = section(trace);
            eprintln!("dta-benchmark: {} ({section}) …", spec.name);
            // the child writes this file; a stale one must not stand in
            // for a child that died before writing
            let file = format!("{OUT_DIR}/{}-{section}.json", spec.name);
            let _ = std::fs::remove_file(&file);
            let status = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
            if !status.success() {
                problems.push(format!("{} ({section}): the run failed ({status})", spec.name));
            }
            match read_json(&file) {
                Ok(run) => {
                    let metrics = run.get("metrics").cloned().unwrap_or(Json::Null);
                    problems.extend(
                        schema::missing_metrics(bench, section, &metrics)
                            .into_iter()
                            .map(|p| format!("{}: {p}", spec.name)),
                    );
                    sections.push((section.into(), run));
                }
                Err(e) => problems.push(format!("{} ({section}): {e}", spec.name)),
            }
        }
        workloads_json.push((spec.name.into(), Json::Obj(sections)));
    }

    let meta = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ]);
    let results = Json::obj([
        ("schema", Json::Str("dta-benchmark/v1".into())),
        ("meta", meta),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| format!("{OUT_DIR}/results.json"));
    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, results.render() + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    print!("{}", render_results(&results));
    println!("results: {out}");
    for problem in &problems {
        eprintln!("dta-benchmark: {problem}");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every metric by name, with its unit, one workload per column.
fn render_results(results: &Json) -> String {
    let workloads = results.get("workloads").map(Json::members).unwrap_or(&[]);
    let mut out = String::new();
    for section in ["end_to_end", "per_layer"] {
        let runs: Vec<(&str, &Json)> = workloads
            .iter()
            .filter_map(|(name, w)| Some((name.as_str(), w.get(section)?)))
            .collect();
        if runs.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{:<30} {:<6}", section, "unit"));
        for (name, _) in &runs {
            out.push_str(&format!(" {name:>14}"));
        }
        out.push('\n');
        let first = runs[0].1.get("metrics").map(Json::members).unwrap_or(&[]);
        for (metric, entry) in first {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push_str(&format!("{metric:<30} {unit:<6}"));
            for (_, run) in &runs {
                let value = run
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                match value {
                    Some(v) => out.push_str(&format!(" {v:>14.3}")),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<37}", "failed/attempted"));
        for (_, run) in &runs {
            let count = |key| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            out.push_str(&format!(
                " {:>14}",
                format!("{}/{}", count("failed"), count("attempted"))
            ));
        }
        out.push('\n');
    }
    out
}

fn compare_files(old: &str, new: &str) -> Result<ExitCode, String> {
    let rows = compare::compare(&read_json(old)?, &read_json(new)?);
    if rows.is_empty() {
        return Err(format!("{old} and {new} share no workload with end-to-end metrics"));
    }
    print!("{}", compare::render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == compare::Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == compare::Verdict::Unresolved).count();
    println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
