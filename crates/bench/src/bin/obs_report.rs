//! `dta-obs-report` — run one seed workload under a recording observer
//! and dump the session trace (stage spans, counters, per-shard cache
//! statistics, event log).
//!
//! ```text
//! dta-obs-report                  # human-readable trace for tpch
//! dta-obs-report --workload psoft # pick a seed workload
//! dta-obs-report --json           # stable-schema JSON (dta-obs/v1)
//! ```

use dta::advisor::{tune_with_observer, Counter, RecordingObserver, TuningOptions};
use dta::prelude::*;
use dta::workload::{psoft, synt1, tpch};
use dta_bench::snapshot::SNAP_WORKLOADS;

fn usage() -> ! {
    eprintln!("usage: dta-obs-report [--workload tpch|psoft|synt1] [--json]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload_name = "tpch".to_string();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                workload_name = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--json" => json = true,
            _ => usage(),
        }
        i += 1;
    }
    if !SNAP_WORKLOADS.contains(&workload_name.as_str()) {
        usage();
    }

    let (server, workload) = match workload_name.as_str() {
        "tpch" => (tpch::build_server(tpch::TpchScale::new(0.002, 1.0), 42), tpch::workload()),
        "psoft" => {
            let b = psoft::build(0.02, 42);
            (b.server, b.workload)
        }
        _ => {
            // smoke size — full-scale SYNT1 tuning is seed-slow (PR 1)
            let b = synt1::build(0.006, 42);
            (b.server, b.workload)
        }
    };
    let target = TuningTarget::Single(&server);
    let obs = RecordingObserver::new();
    let result = tune_with_observer(&target, &workload, &TuningOptions::default(), &obs)
        .expect("seed workload tunes");
    let summary = result.observer.as_ref().expect("recording observer yields a summary");
    if json {
        println!("{}", summary.to_json());
    } else {
        println!("session trace: {workload_name}");
        print!("{summary}");
        println!(
            "robustness: {} worker restarts · {} what-if retries · {} backoff units · \
             {} degraded statements",
            result.worker_restarts,
            result.whatif_retries,
            result.retry_backoff_units,
            result.degraded_statements.len(),
        );
        println!(
            "enumeration: {} evaluations · {} Phase-1 sets pruned by bound",
            result.evaluations,
            summary.counter(Counter::PrunedSets),
        );
        println!(
            "recommendation: cost {:.1} -> {:.1} ({:.1}% improvement)",
            result.base_cost,
            result.recommended_cost,
            result.expected_improvement() * 100.0,
        );
    }
}
