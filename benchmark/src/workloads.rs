//! The five workloads: what each one is, why it exists, and how its
//! inputs are generated from a seed.

use dta::prelude::*;
use dta::workload::{cust, psoft, synt1, tpch};

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layer this workload loads.
    pub why: &'static str,
    /// Wall time of one timed region on the reference sandbox (2 cores,
    /// release build). Only used to turn `--seconds` into a session
    /// count that does not depend on how fast this run happens to be.
    pub nominal_s: f64,
    /// Fewest timed regions a run may have. The fleet gets two: one fleet
    /// run is one draw of tpch22's bimodal work, which no seed-to-seed
    /// bound survives.
    pub min_sessions: usize,
}

pub const TPCH22: &str = "tpch22";
pub const PSOFT: &str = "psoft";
pub const CUST1: &str = "cust1";
pub const SYNT1_ANYTIME: &str = "synt1_anytime";
pub const FLEET3: &str = "fleet3";

/// The work budget that ends `synt1_anytime` in enumeration.
pub const ANYTIME_BUDGET: u64 = 12_000;

/// The tenants of `fleet3`, in admission order; the tenant ids are these
/// names. (Fleet reports list tenants in id order: look tenants up by id.)
pub const FLEET_TENANTS: [&str; 3] = [TPCH22, PSOFT, CUST1];

pub const SPECS: [Spec; 5] = [
    Spec {
        name: TPCH22,
        why: "22 join/aggregate queries: ~45-56k what-if calls at ~90 us each, so dta-optimizer (join ordering, view matching) is ~90% of wall; cost cache hits only 65%",
        nominal_s: 5.0,
        min_sessions: 1,
    },
    Spec {
        name: PSOFT,
        why: "6000 statements, 38% DML, compressed to ~300: the only load on dta-xml/dta-sql parsing, signatures, compression and DML maintenance costing; 97% cache hits",
        nominal_s: 1.45,
        min_sessions: 1,
    },
    Spec {
        name: CUST1,
        why: "580 tables in 2 databases, 580-index raw configuration: ~2k what-if calls yet seconds of wall, all in the cost-cache hit path (fingerprint, is_relevant) over a wide configuration",
        nominal_s: 4.7,
        min_sessions: 1,
    },
    Spec {
        name: SYNT1_ANYTIME,
        why: "50 single-table statements under a 12000-unit work budget: ~450k what-if calls at 0.02% hit rate, so the cache miss path and the greedy loop do the work; the only anytime run",
        nominal_s: 4.6,
        min_sessions: 1,
    },
    Spec {
        name: FLEET3,
        why: "tpch22+psoft+cust1 as three SessionSupervisor tenants at quantum 64: ~220 preempt/park/resume slices, so per-slice cost (evaluator set-up, cache import, checkpoints) is ~19% of wall",
        nominal_s: 13.0,
        min_sessions: 2,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Timed regions in a run of `seconds`: as many as fit at the nominal
/// time, at least `min_sessions`. Fixed by `--seconds` alone, so that two
/// runs of one seed tune exactly the same databases.
pub fn session_count(spec: &Spec, seconds: f64) -> usize {
    ((seconds / spec.nominal_s).round() as usize).max(spec.min_sessions)
}

/// The seed of session `index` of a run. Session 0 uses the run's seed
/// itself; later sessions mix the index in, so that runs on neighbouring
/// seeds share no database.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    // SplitMix64 finalizer over (seed, index)
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning options of every session: the defaults, with one worker. On
/// the 2-core sandbox one worker repeats within ±4% where two swing ±20%.
pub fn options(workload: &str) -> TuningOptions {
    let mut options = TuningOptions { parallel_workers: 1, ..TuningOptions::default() };
    if workload == SYNT1_ANYTIME {
        options.work_budget_units = Some(ANYTIME_BUDGET);
    }
    options
}

/// How a session of `workload` must end.
pub fn expected_completion(workload: &str) -> Completion {
    if workload == SYNT1_ANYTIME {
        Completion::BudgetExhausted { stage: Stage::Enumeration }
    } else {
        Completion::Complete
    }
}

/// Generate the server (schema, data) and the workload of a solo
/// workload. The seed goes to the `dta::workload` generators and nowhere
/// else: the tuner sees generated inputs, never the seed.
pub fn generate(workload: &str, seed: u64) -> (Server, Workload) {
    match workload {
        TPCH22 => (tpch::build_server(tpch::TpchScale::new(0.002, 1.0), seed), tpch::workload()),
        PSOFT => {
            let b = psoft::build(1.0, seed);
            (b.server, b.workload)
        }
        CUST1 => {
            let b = cust::build(cust::CustId::Cust1, 0.02, seed);
            (b.server, b.workload)
        }
        SYNT1_ANYTIME => {
            let b = synt1::build(0.002, seed);
            (b.server, b.workload)
        }
        other => panic!("no generator for workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_counts_follow_seconds() {
        let count = |name, s| session_count(spec(name).unwrap(), s);
        assert_eq!(count(TPCH22, 15.0), 3);
        assert_eq!(count(PSOFT, 15.0), 10);
        assert_eq!(count(FLEET3, 15.0), 2);
        assert_eq!(count(FLEET3, 40.0), 3);
        assert_eq!(count(TPCH22, 1.0), 1);
    }

    #[test]
    fn sub_seeds_differ_across_sessions_and_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..=20 {
            for index in 0..12 {
                assert!(seen.insert(sub_seed(seed, index)));
            }
        }
        assert_eq!(sub_seed(42, 0), 42);
    }

    #[test]
    fn whys_fit_the_contract() {
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }
}
