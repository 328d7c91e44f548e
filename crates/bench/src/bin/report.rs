//! `report` — regenerate every table and figure of the paper's §7.
//!
//! Usage:
//!   report [--quick] [all|table1|table2|tpch|figure3|table3|stats|itw|staged|alignment]
//!
//! An argument that is neither exits 2 with the usage line.
//!
//! Prints each experiment with the paper's published numbers alongside
//! the reproduction's measurements (simulated work units; shapes are the
//! comparison, per DESIGN.md).

use dta_bench::*;

const EXPERIMENTS: [&str; 10] =
    ["all", "table1", "table2", "tpch", "figure3", "table3", "stats", "itw", "staged", "alignment"];

/// Whether `--quick` was given, and the experiments named (none means
/// all). `Err` carries the first argument that is neither.
fn parse_args(args: &[String]) -> Result<(bool, Vec<&str>), &str> {
    let mut quick = false;
    let mut which = Vec::new();
    for arg in args.iter().map(String::as_str) {
        match arg {
            "--quick" => quick = true,
            name if EXPERIMENTS.contains(&name) => which.push(name),
            unknown => return Err(unknown),
        }
    }
    Ok((quick, which))
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, which) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(unknown) => {
            eprintln!(
                "report: unknown argument {unknown:?}\nusage: report [--quick] [{}]",
                EXPERIMENTS.join("|")
            );
            return std::process::ExitCode::from(2);
        }
    };
    let scale = if quick { RunScale::quick() } else { RunScale::standard() };
    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    println!(
        "=== DTA reproduction report (events x{}, TPC-H SF {}) ===",
        scale.events_fraction, scale.tpch_sf
    );

    if want("table1") {
        println!("\n--- Table 1: customer databases (ours vs paper) ---");
        println!(
            "{:<7} {:>9} {:>9} | {:>6} {:>6} | {:>7} {:>7}",
            "name", "size GB", "paper GB", "#DBs", "paper", "#tables", "paper"
        );
        for r in table1(scale) {
            println!(
                "{:<7} {:>9.1} {:>9.1} | {:>6} {:>6} | {:>7} {:>7}",
                r.name,
                r.size_gb,
                r.paper_size_gb,
                r.databases,
                r.paper_databases,
                r.tables,
                r.paper_tables
            );
        }
    }

    if want("table2") {
        println!("\n--- Table 2: quality of DTA vs hand-tuned design ---");
        println!(
            "{:<7} {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>12}",
            "name", "hand %", "paper %", "DTA %", "paper %", "#events", "tuning units"
        );
        for r in table2(scale) {
            println!(
                "{:<7} {:>10.1} {:>10.1} | {:>10.1} {:>10.1} | {:>10.0} {:>12.0}",
                r.name,
                pct(r.quality_hand),
                pct(r.paper_quality_hand),
                pct(r.quality_dta),
                pct(r.paper_quality_dta),
                r.events_tuned,
                r.tuning_work_units
            );
        }
    }

    if want("tpch") {
        println!("\n--- §7.2: TPC-H estimated vs actual improvement (3x storage) ---");
        let r = tpch_quality(scale);
        println!(
            "expected: {:>5.1}% (paper {:>4.1}%)   actual: {:>5.1}% (paper {:>4.1}%)",
            pct(r.expected_improvement),
            pct(r.paper_expected),
            pct(r.actual_improvement),
            pct(r.paper_actual)
        );
        println!(
            "storage: used {:.1} MB of {:.1} MB bound",
            r.storage_used_bytes as f64 / (1 << 20) as f64,
            r.storage_bound_bytes as f64 / (1 << 20) as f64
        );
    }

    if want("figure3") {
        println!("\n--- Figure 3: reduction in production-server overhead ---");
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>10}",
            "workload", "direct", "via test", "reduction", "paper"
        );
        for r in figure3(scale) {
            println!(
                "{:<10} {:>12.0} {:>12.0} {:>11.0}% {:>9.0}%",
                r.label,
                r.direct_overhead,
                r.prodtest_overhead,
                pct(r.reduction),
                pct(r.paper_reduction)
            );
        }
    }

    if want("table3") {
        println!("\n--- Table 3: workload compression ---");
        println!(
            "{:<7} {:>12} {:>12} | {:>10} {:>10} | {:>9} {:>9}",
            "name", "stmts full", "compressed", "qual loss", "paper", "speedup", "paper"
        );
        table3(scale, |r| {
            println!(
                "{:<7} {:>12} {:>12} | {:>9.1}% {:>9.1}% | {:>8.1}x {:>8.1}x",
                r.name,
                r.statements_full,
                r.statements_compressed,
                pct(r.quality_loss),
                pct(r.paper_quality_loss),
                r.speedup,
                r.paper_speedup
            );
        });
    }

    if want("stats") {
        println!("\n--- §7.5: reduced statistics creation ---");
        println!(
            "{:<7} {:>8} {:>8} {:>11} {:>8} | {:>10} {:>8} | {:>7}",
            "name", "naive#", "reduced#", "count red.", "paper", "time red.", "paper", "Δqual"
        );
        for r in stats_reduction(scale) {
            println!(
                "{:<7} {:>8} {:>8} {:>10.0}% {:>7.0}% | {:>9.0}% {:>7.0}% | {:>6.2}%",
                r.name,
                r.created_naive,
                r.created_reduced,
                pct(r.count_reduction()),
                pct(r.paper_count_reduction),
                pct(r.time_reduction()),
                pct(r.paper_time_reduction),
                pct(r.quality_delta)
            );
        }
    }

    if want("itw") {
        println!("\n--- Figures 4 & 5: DTA vs Index Tuning Wizard (SS2K) ---");
        println!(
            "{:<7} {:>10} {:>10} | {:>12} {:>12} {:>14}",
            "name", "DTA qual", "ITW qual", "DTA units", "ITW units", "DTA time frac"
        );
        dta_vs_itw(scale, |r| {
            println!(
                "{:<7} {:>9.1}% {:>9.1}% | {:>12.0} {:>12.0} {:>13.0}%",
                r.name,
                pct(r.dta_quality),
                pct(r.itw_quality),
                r.dta_work_units,
                r.itw_work_units,
                pct(r.dta_time_fraction())
            );
        });
        println!(
            "(paper: quality comparable with DTA slightly better; DTA far faster on PSOFT/SYNT1)"
        );
    }

    if want("staged") {
        println!("\n--- §3 ablation: integrated vs staged feature selection ---");
        let r = staged_vs_integrated(scale);
        println!(
            "integrated quality: {:.1}%   staged (indexes then partitioning): {:.1}%",
            pct(r.integrated_quality),
            pct(r.staged_quality)
        );
    }

    if want("alignment") {
        println!("\n--- §4 ablation: lazy vs eager alignment candidates ---");
        let r = alignment_ablation(scale);
        println!(
            "lazy : pool {:>5}, {:>10.0} units, quality {:>5.1}%",
            r.lazy_pool,
            r.lazy_work_units,
            pct(r.lazy_quality)
        );
        println!(
            "eager: pool {:>5}, {:>10.0} units, quality {:>5.1}%",
            r.eager_pool,
            r.eager_work_units,
            pct(r.eager_quality)
        );
    }

    println!("\ndone.");
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_experiment_names_are_rejected() {
        assert_eq!(parse_args(&args("")), Ok((false, vec![])));
        assert_eq!(parse_args(&args("--quick tpch stats")), Ok((true, vec!["tpch", "stats"])));
        assert_eq!(parse_args(&args("all")), Ok((false, vec!["all"])));
        assert_eq!(parse_args(&args("--quick tpcc")), Err("tpcc"));
        assert_eq!(parse_args(&args("table1 --fast")), Err("--fast"));
    }
}
