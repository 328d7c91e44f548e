//! Acceptance tests for the anytime-tuning robustness layer: work-budget
//! deadlines, cooperative cancellation, fault-injected what-if calls,
//! panic isolation, and checkpoint/resume.
//!
//! The properties under test (DESIGN.md §9):
//!
//! * **anytime** — at *every* budget, `tune` returns a valid,
//!   storage-bounded configuration never worse than the raw one, with a
//!   truthful [`Completion`], and the same budget produces byte-identical
//!   output on every run and at every worker count;
//! * **resume** — a budget-exhausted session continued through its
//!   checkpoint ends byte-identical (recommendation *and* report) to an
//!   uninterrupted run;
//! * **faults** — transient server faults are absorbed by retry and the
//!   session converges to the no-fault recommendation; permanent faults
//!   degrade the affected statements instead of aborting; injected
//!   worker panics are isolated and do not change the recommendation.

use std::sync::Arc;

use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_core::{
    tune, tune_resume, tune_with_control, Completion, Counter, SessionCheckpoint, SessionControl,
    SessionSupervisor, SliceContext, Stage, StopReason, SupervisorPolicy, TenantSpec, TenantStatus,
    TuningOptions, TuningResult,
};
use dta_server::{FaultPolicy, Server, TuningTarget};
use dta_sql::parse_statement;
use dta_workload::{Workload, WorkloadItem};
use dta_xml::{manifest_from_xml, manifest_to_xml, result_to_xml};

/// A compact server: big enough that tuning finds real winners, small
/// enough that a sweep of full sessions stays fast.
fn make_server() -> Server {
    let mut server = Server::new("prod");
    let mut db = Database::new("d");
    db.add_table(
        Table::new(
            "fact",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("g", ColumnType::Int),
                Column::new("m", ColumnType::Int),
                Column::new("val", ColumnType::Float),
                Column::new("pad", ColumnType::Str(60)),
            ],
        )
        .with_primary_key(&["k"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "dim",
            vec![Column::new("dk", ColumnType::Int), Column::new("dname", ColumnType::Str(20))],
        )
        .with_primary_key(&["dk"]),
    )
    .unwrap();
    server.create_database(db).unwrap();
    {
        let t = server.table_data_mut("d", "fact").unwrap();
        for i in 0..20_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i % 800),
                Value::Int(i % 25),
                Value::Int(i % 12),
                Value::Float((i % 997) as f64),
                Value::Str(format!("{:=<60}", i)),
            ]);
        }
        t.set_scale(30.0);
    }
    {
        let t = server.table_data_mut("d", "dim").unwrap();
        for i in 0..800i64 {
            t.push_row(vec![Value::Int(i), Value::Str(format!("dim{i}"))]);
        }
    }
    server
}

fn sel(sql: &str) -> WorkloadItem {
    WorkloadItem::new("d", parse_statement(sql).unwrap())
}

fn read_workload() -> Workload {
    let mut items = Vec::new();
    for i in 0..12 {
        items.push(sel(&format!("SELECT pad FROM fact WHERE a = {}", i * 13 % 800)));
    }
    for i in 0..8 {
        items.push(sel(&format!(
            "SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g",
            i % 12
        )));
    }
    for i in 0..6 {
        items.push(sel(&format!(
            "SELECT dname FROM fact, dim WHERE fact.a = dim.dk AND fact.k = {}",
            i * 100
        )));
    }
    Workload::from_items(items)
}

const STORAGE_MB: u64 = 60;

fn options(workers: usize) -> TuningOptions {
    // compression off: with it, the 26-statement fixture shrinks to a
    // handful of representatives and the whole selection stage becomes a
    // single budget block — the sweep needs stage-level granularity
    TuningOptions { parallel_workers: workers, compress: false, ..Default::default() }
        .with_storage_mb(STORAGE_MB)
}

fn budgeted(workers: usize, budget: u64) -> TuningOptions {
    TuningOptions { work_budget_units: Some(budget), ..options(workers) }
}

/// The anytime invariant every run must satisfy, whatever the cut.
fn assert_anytime(result: &TuningResult, server: &Server, label: &str) {
    let errors = result.recommendation.validate(server.catalog());
    assert!(errors.is_empty(), "{label}: invalid recommendation: {errors:?}");
    assert!(
        result.storage_bytes <= STORAGE_MB << 20,
        "{label}: storage {} over the {STORAGE_MB} MB bound",
        result.storage_bytes
    );
    assert!(
        result.recommended_cost <= result.base_cost,
        "{label}: recommendation worse than raw: {} > {}",
        result.recommended_cost,
        result.base_cost
    );
    assert!(result.expected_improvement() >= 0.0, "{label}");
}

/// Total work units an uninterrupted session consumes — the yardstick
/// for picking budgets that cut mid-stage.
fn total_units(workload: &Workload) -> u64 {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let control = SessionControl::unlimited();
    tune_with_control(&target, workload, &options(1), &control).unwrap();
    control.consumed()
}

#[test]
fn anytime_budget_sweep_returns_valid_best_so_far() {
    let workload = read_workload();
    let total = total_units(&workload);
    assert!(total > 100, "fixture too small to sweep: {total} units");

    // budgets from "no work at all" through mid-stage cuts to "more than
    // enough"; every one must satisfy the anytime invariant
    let budgets =
        [0, 1, total / 20, total / 5, total / 2, (total * 4) / 5, total - 1, total, total * 2];
    let mut stages_seen = std::collections::BTreeSet::new();
    for &budget in &budgets {
        let server = make_server();
        let target = TuningTarget::Single(&server);
        let result = tune(&target, &workload, &budgeted(1, budget)).unwrap();
        let label = format!("budget {budget}");
        assert_anytime(&result, &server, &label);
        match result.completion {
            Completion::Complete => {
                assert!(budget >= total, "{label}: completed under the yardstick total");
                assert!(result.checkpoint.is_none(), "{label}: complete run carries a checkpoint");
            }
            Completion::BudgetExhausted { stage } => {
                assert!(budget < total, "{label}: exhausted with budget >= {total}");
                let cp = result.checkpoint.as_ref().expect("exhausted run carries a checkpoint");
                assert_eq!(cp.stage, stage, "{label}");
                // the stop poll fires once consumed >= budget (block
                // charging may record a small overshoot, never a shortfall)
                assert!(cp.consumed_units >= budget, "{label}: stopped under budget");
                stages_seen.insert(stage);
            }
            Completion::Cancelled { .. } => panic!("{label}: nothing cancelled this run"),
        }
    }
    // a zero budget cuts before any work; the sweep covers several stages
    assert!(stages_seen.contains(&Stage::PreCosting), "{stages_seen:?}");
    assert!(stages_seen.len() >= 3, "sweep cut too few distinct stages: {stages_seen:?}");
}

#[test]
fn same_budget_is_byte_identical_across_runs_and_worker_counts() {
    let workload = read_workload();
    let total = total_units(&workload);
    for &budget in &[total / 5, (total * 2) / 3] {
        let run = |workers: usize| {
            let server = make_server();
            let target = TuningTarget::Single(&server);
            tune(&target, &workload, &budgeted(workers, budget)).unwrap()
        };
        let first = run(1);
        let again = run(1);
        let wide = run(4);
        for (label, other) in [("rerun", &again), ("workers=4", &wide)] {
            assert_eq!(
                first.recommendation.to_string(),
                other.recommendation.to_string(),
                "budget {budget}: {label} diverged"
            );
            assert_eq!(
                first.recommended_cost.to_bits(),
                other.recommended_cost.to_bits(),
                "budget {budget}: {label} cost bits diverged"
            );
            assert_eq!(first.completion, other.completion, "budget {budget}: {label}");
            assert_eq!(
                first.checkpoint.as_ref().map(|c| (c.stage, c.consumed_units)),
                other.checkpoint.as_ref().map(|c| (c.stage, c.consumed_units)),
                "budget {budget}: {label} checkpoints cut differently"
            );
        }
    }
}

#[test]
fn resume_is_byte_identical_to_uninterrupted_run() {
    let workload = read_workload();
    let total = total_units(&workload);

    // the uninterrupted reference (workers=1 so the what-if tally in the
    // report is schedule-independent)
    let ref_server = make_server();
    let ref_target = TuningTarget::Single(&ref_server);
    let uninterrupted = tune(&ref_target, &workload, &options(1)).unwrap();

    // cut at several depths — early, mid, late — and resume each to
    // convergence on the same server that took the partial session
    for &budget in &[total / 10, total / 3, (total * 3) / 4] {
        let server = make_server();
        let target = TuningTarget::Single(&server);
        let partial = tune(&target, &workload, &budgeted(1, budget)).unwrap();
        let cp = partial
            .checkpoint
            .as_ref()
            .unwrap_or_else(|| panic!("budget {budget} of {total} should exhaust"));
        let resumed = tune_resume(&target, cp, None).unwrap();

        assert_eq!(resumed.completion, Completion::Complete, "budget {budget}");
        // byte-identical recommendation…
        assert_eq!(
            resumed.recommendation.to_string(),
            uninterrupted.recommendation.to_string(),
            "budget {budget}: resumed recommendation diverged"
        );
        assert_eq!(resumed.recommended_cost.to_bits(), uninterrupted.recommended_cost.to_bits());
        assert_eq!(resumed.base_cost.to_bits(), uninterrupted.base_cost.to_bits());
        // …and byte-identical report: the rendered report is the user-
        // facing artifact, so compare it whole
        assert_eq!(
            resumed.to_string(),
            uninterrupted.to_string(),
            "budget {budget}: resumed report diverged"
        );
        assert_eq!(resumed.whatif_calls, uninterrupted.whatif_calls, "budget {budget}");
        assert_eq!(resumed.evaluations, uninterrupted.evaluations, "budget {budget}");
        assert_eq!(resumed.storage_bytes, uninterrupted.storage_bytes, "budget {budget}");
    }
}

#[test]
fn resume_in_small_increments_converges_to_the_same_answer() {
    let workload = read_workload();
    let server = make_server();
    let target = TuningTarget::Single(&server);

    let mut result = tune(&target, &workload, &budgeted(1, 20)).unwrap();
    let mut steps = 0;
    while let Some(cp) = result.checkpoint.take() {
        steps += 1;
        assert!(steps < 200, "resume chain failed to converge");
        result = tune_resume(&target, &cp, Some(30)).unwrap();
    }
    assert!(steps > 2, "fixture should take several increments, took {steps}");
    assert_eq!(result.completion, Completion::Complete);

    let ref_server = make_server();
    let ref_target = TuningTarget::Single(&ref_server);
    let uninterrupted = tune(&ref_target, &workload, &options(1)).unwrap();
    assert_eq!(result.recommendation.to_string(), uninterrupted.recommendation.to_string());
    assert_eq!(result.recommended_cost.to_bits(), uninterrupted.recommended_cost.to_bits());
    assert_eq!(result.to_string(), uninterrupted.to_string(), "chained report diverged");
}

#[test]
fn precancelled_session_returns_the_base_configuration() {
    let workload = read_workload();
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let control = SessionControl::unlimited();
    control.cancel_handle().cancel();
    let result = tune_with_control(&target, &workload, &options(1), &control).unwrap();
    assert_eq!(result.completion, Completion::Cancelled { stage: Stage::PreCosting });
    assert_anytime(&result, &server, "pre-cancelled");
    assert_eq!(result.recommendation.to_string(), server.raw_configuration().to_string());
    assert_eq!(result.recommended_cost.to_bits(), result.base_cost.to_bits());
    // a cancelled session parks a checkpoint too — that is what lets a
    // supervisor preempt a tenant and resume it later without losing work
    let cp = result.checkpoint.as_ref().expect("cancelled run parks a checkpoint");
    assert_eq!(cp.stage, Stage::PreCosting);
    assert_eq!(cp.consumed_units, 0, "pre-cancelled session did no work");
}

#[test]
#[allow(clippy::disallowed_methods, reason = "the canceller thread is joined below")]
fn midrun_cancellation_is_graceful() {
    let workload = read_workload();
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let control = SessionControl::unlimited();
    let handle = control.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.cancel();
    });
    let result = tune_with_control(&target, &workload, &options(2), &control).unwrap();
    canceller.join().unwrap();
    // wherever the cancel landed (possibly after convergence on a fast
    // machine), the anytime invariant holds and nothing panicked
    assert_anytime(&result, &server, "mid-run cancel");
    if let Completion::BudgetExhausted { .. } = result.completion {
        panic!("no budget was set: {:?}", result.completion);
    }
}

#[test]
fn transient_faults_converge_to_the_no_fault_recommendation() {
    let workload = read_workload();
    let clean_server = make_server();
    let clean_target = TuningTarget::Single(&clean_server);
    let clean = tune(&clean_target, &workload, &options(1)).unwrap();

    let server = make_server();
    server.set_fault_policy(Some(FaultPolicy {
        seed: 7,
        whatif_transient_rate: 0.4,
        stats_transient_rate: 0.4,
        ..FaultPolicy::default()
    }));
    let target = TuningTarget::Single(&server);
    let faulted = tune(&target, &workload, &options(1)).unwrap();

    assert!(faulted.whatif_retries > 0, "schedule injected no transient faults");
    assert!(faulted.retry_backoff_units > 0);
    assert!(faulted.degraded_statements.is_empty(), "{:?}", faulted.degraded_statements);
    assert_eq!(faulted.completion, Completion::Complete);
    assert_eq!(
        faulted.recommendation.to_string(),
        clean.recommendation.to_string(),
        "retries must converge to the no-fault recommendation"
    );
    assert_eq!(faulted.recommended_cost.to_bits(), clean.recommended_cost.to_bits());
    // every retried call re-issues the what-if, so the faulted run works
    // strictly harder — but answers the same questions
    assert!(faulted.whatif_calls > clean.whatif_calls);
}

/// Where a statement falls in a what-if fault schedule, by the server's
/// documented rule: the schedule's seed hashed with the fault domain
/// (`"whatif"` for transient and permanent faults, `"whatif-panic"` for
/// panics) and the hash of `(database, statement text)`, mapped to
/// `[0, 1)`. A statement whose roll is under the domain's rate faults.
fn whatif_fault_roll(seed: u64, domain: &str, item: &WorkloadItem) -> f64 {
    use std::hash::{Hash, Hasher};
    fn hash_of(value: impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }
    let text = item.statement.to_string();
    let classify = hash_of((item.database.as_str(), text.as_str()));
    (hash_of((seed, domain, classify)) % 1_000_000) as f64 / 1_000_000.0
}

#[test]
fn permanent_faults_degrade_statements_instead_of_aborting() {
    let workload = read_workload();
    let server = make_server();
    server.set_fault_policy(Some(FaultPolicy {
        seed: 3,
        whatif_permanent_rate: 0.25,
        ..FaultPolicy::default()
    }));
    let target = TuningTarget::Single(&server);
    let result = tune(&target, &workload, &options(2)).unwrap();

    assert!(
        !result.degraded_statements.is_empty(),
        "schedule with rate 0.25 over {} statements degraded none",
        workload.len()
    );
    assert!(result.degraded_statements.len() < workload.len(), "everything degraded");
    // the fault sites are keyed on the statement text and its hash, which
    // a prepared statement carries: exactly the statements the schedule
    // classifies as permanent degrade, whatever prepared them
    let scheduled: Vec<String> = workload
        .items
        .iter()
        .filter(|i| whatif_fault_roll(3, "whatif", i) < 0.25)
        .map(|i| i.statement.to_string())
        .collect();
    assert_eq!(result.degraded_statements, scheduled);
    assert_eq!(result.completion, Completion::Complete);
    assert_anytime(&result, &server, "permanent faults");
    // the surviving statements still get tuned
    assert!(result.expected_improvement() > 0.1, "{}", result.expected_improvement());
    // and the report names the casualties
    let text = result.to_string();
    assert!(text.contains("degraded statements"), "{text}");
}

#[test]
fn injected_worker_panics_are_isolated_and_do_not_change_the_answer() {
    let workload = read_workload();
    for workers in [1, 4] {
        let clean_server = make_server();
        let clean_target = TuningTarget::Single(&clean_server);
        let clean = tune(&clean_target, &workload, &options(workers)).unwrap();
        assert_eq!(clean.worker_restarts, 0);

        let server = make_server();
        server.set_fault_policy(Some(FaultPolicy {
            seed: 11,
            whatif_panic_rate: 0.3,
            ..FaultPolicy::default()
        }));
        let target = TuningTarget::Single(&server);
        let result = tune(&target, &workload, &options(workers)).unwrap();

        assert!(result.worker_restarts > 0, "schedule injected no panics");
        assert_eq!(result.completion, Completion::Complete);
        // what-if call counts differ (the panicked calls are re-issued), but
        // the recommendation and its cost are byte-identical
        assert_eq!(
            result.recommendation.to_string(),
            clean.recommendation.to_string(),
            "worker restarts changed the recommendation"
        );
        assert_eq!(result.recommended_cost.to_bits(), clean.recommended_cost.to_bits());
        assert_eq!(result.base_cost.to_bits(), clean.base_cost.to_bits());
        // every injected panic is one extra call, and every one is reported
        // — candidate selection's as well as enumeration's
        assert_eq!(
            result.worker_restarts,
            result.whatif_calls - clean.whatif_calls,
            "workers={workers}"
        );
    }
}

/// CI's `fault-matrix` job sweeps this test over a grid of seeds and
/// failure rates via `DTA_FAULT_SEEDS` / `DTA_FAULT_RATES` (comma-
/// separated); the in-repo defaults keep a plain `cargo test` fast.
#[test]
fn fault_matrix_schedules_all_converge() {
    let seeds: Vec<u64> = std::env::var("DTA_FAULT_SEEDS")
        .map(|s| s.split(',').map(|t| t.trim().parse().expect("seed")).collect())
        .unwrap_or_else(|_| vec![1, 2]);
    let rates: Vec<f64> = std::env::var("DTA_FAULT_RATES")
        .map(|s| s.split(',').map(|t| t.trim().parse().expect("rate")).collect())
        .unwrap_or_else(|_| vec![0.3]);

    // (seed, rate) → what-if calls, retries, backoff units of the default
    // grid's sessions. A transient schedule is keyed on the statement
    // text, its hash and the configuration priced — the projection onto
    // what the statement can see — so these move if a preparation faults
    // any call the per-call path did not, or misses one, whenever the
    // cost cache's relevance rule changes which structures a call sees,
    // and whenever it prices a miss without a call (a derived cost: no
    // schedule sees it; (1015, 328, 426) and (1035, 352, 452) before any
    // was derived, (878, 283, 369) and (907, 316, 404) before joins were,
    // (707, 226, 293) and (717, 240, 309) before statements under a heap
    // partitioning or an added view were).
    let recorded = |seed: u64, rate: f64| match (seed, rate) {
        (1, 0.3) => Some((473, 148, 191)),
        (2, 0.3) => Some((471, 150, 195)),
        _ => None,
    };

    let workload = read_workload();
    let clean_server = make_server();
    let clean_target = TuningTarget::Single(&clean_server);
    let clean = tune(&clean_target, &workload, &options(1)).unwrap();
    let clean_report = clean.to_string();

    for &seed in &seeds {
        for &rate in &rates {
            let server = make_server();
            server.set_fault_policy(Some(FaultPolicy {
                seed,
                whatif_transient_rate: rate,
                stats_transient_rate: rate,
                ..FaultPolicy::default()
            }));
            let target = TuningTarget::Single(&server);
            let faulted = tune(&target, &workload, &options(1)).unwrap();
            assert_eq!(
                faulted.recommendation.to_string(),
                clean.recommendation.to_string(),
                "seed {seed} rate {rate} diverged"
            );
            assert_eq!(
                faulted.recommended_cost.to_bits(),
                clean.recommended_cost.to_bits(),
                "seed {seed} rate {rate} cost bits diverged"
            );
            assert_eq!(faulted.completion, Completion::Complete, "seed {seed} rate {rate}");

            // the ledger: every attempt arrives at the server, a rejected
            // one charges nothing, so the meter ends where the clean run's does
            assert_eq!(server.whatif_invocations(), faulted.whatif_calls as u64);
            assert_eq!(server.overhead_units(), clean_server.overhead_units());
            assert_eq!(faulted.tuning_work_units, clean.tuning_work_units);
            if let Some(ledger) = recorded(seed, rate) {
                assert_eq!(
                    (faulted.whatif_calls, faulted.whatif_retries, faulted.retry_backoff_units),
                    ledger,
                    "seed {seed} rate {rate}: the schedule fired on different calls"
                );
            }
            // the report: the clean one but for the calls and the retries
            let calls = |r: &TuningResult| format!("{} what-if calls", r.whatif_calls);
            let report: String = faulted
                .to_string()
                .replace(&calls(&faulted), &calls(&clean))
                .lines()
                .filter(|l| !l.trim_start().starts_with("transient faults retried:"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(report, clean_report, "seed {seed} rate {rate}");
        }
    }
}

// ---------------------------------------------------------------------
// Multi-tenant session supervision (DESIGN.md §11)
// ---------------------------------------------------------------------

/// A small per-tenant workload: distinct enough per `salt` that every
/// tenant converges to its own recommendation, small enough that a
/// fleet of full sessions stays fast.
fn tenant_workload(salt: usize) -> Workload {
    let mut items = Vec::new();
    for i in 0..5 {
        items.push(sel(&format!("SELECT pad FROM fact WHERE a = {}", (salt * 37 + i * 13) % 800)));
    }
    for i in 0..3 {
        items.push(sel(&format!(
            "SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g",
            (salt + i) % 12
        )));
    }
    Workload::from_items(items)
}

/// The yardstick every supervised tenant is judged against: a solo,
/// unlimited-budget, undisturbed session on a fresh copy of the same
/// server.
struct Solo {
    result: TuningResult,
    /// Work units the session consumed.
    units: u64,
    /// Its cache misses: the configurations it had to price.
    cache_misses: u64,
}

fn solo_reference(salt: usize) -> Solo {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let control = SessionControl::unlimited();
    let result = tune_with_control(&target, &tenant_workload(salt), &options(1), &control).unwrap();
    assert_eq!(result.completion, Completion::Complete);
    Solo {
        result,
        units: control.consumed(),
        cache_misses: control.counters().get(Counter::CacheMisses),
    }
}

/// Assert a supervised tenant — none of whose slices failed — finished
/// byte-identical to its solo run, and that its counter totals are what
/// the session did: however it was sliced, preempted or recovered, it
/// priced what the solo session priced, once, and its totals add up to
/// its own report.
fn assert_matches_solo(report: &dta_core::FleetReport, tenant: &str, solo: &Solo, label: &str) {
    let row = report.tenant(tenant).unwrap_or_else(|| panic!("{label}: {tenant} not in report"));
    assert_eq!(row.status, TenantStatus::Completed, "{label}: {tenant} did not complete");
    let fin = row.finished.as_ref().expect("completed tenant carries a recommendation");
    assert_eq!(
        fin.recommendation.to_string(),
        solo.result.recommendation.to_string(),
        "{label}: {tenant} recommendation diverged from the solo run"
    );
    assert_eq!(
        fin.recommended_cost.to_bits(),
        solo.result.recommended_cost.to_bits(),
        "{label}: {tenant} cost bits diverged"
    );
    assert_eq!(fin.base_cost.to_bits(), solo.result.base_cost.to_bits(), "{label}: {tenant}");
    assert_eq!(
        row.counters.get(Counter::CacheMisses),
        solo.cache_misses,
        "{label}: {tenant} cache misses"
    );
    // the full result is there when the session finished in this process
    if let Some(result) = fin.result.as_deref() {
        assert_eq!(
            row.counters.get(Counter::WhatIfCalls),
            result.whatif_calls as u64,
            "{label}: {tenant} what-if calls"
        );
        assert_eq!(
            row.counters.get(Counter::CandidatesGenerated),
            result.candidates_generated as u64,
            "{label}: {tenant} candidates generated"
        );
        assert_eq!(result.whatif_calls, solo.result.whatif_calls, "{label}: {tenant}");
        assert_eq!(result.to_string(), solo.result.to_string(), "{label}: {tenant} report");
    }
}

#[test]
fn supervised_fleet_matches_solo_runs_and_is_deterministic_across_workers() {
    let ids = ["t-alpha", "t-bravo", "t-charlie", "t-delta"];
    let solo: Vec<Solo> = (0..ids.len()).map(solo_reference).collect();
    let min_total = solo.iter().map(|s| s.units).min().unwrap();
    // a quantum well under the smallest session forces every tenant to
    // park at least once — real time-sliced interleaving
    let quantum = (min_total / 4).max(1);

    let run_fleet = |workers: usize| {
        let servers: Vec<Server> = ids.iter().map(|_| make_server()).collect();
        let mut sup = SessionSupervisor::new(SupervisorPolicy {
            quantum,
            workers,
            ..SupervisorPolicy::default()
        })
        .unwrap();
        // admit out of id order: the queue is seeded in id order anyway
        for &i in &[2usize, 0, 3, 1] {
            sup.admit(TenantSpec::new(ids[i], &servers[i], tenant_workload(i), options(1)))
                .unwrap();
        }
        sup.run()
    };

    let first = run_fleet(1);
    assert!(first.stopped.is_none(), "{:?}", first.stopped);
    assert_eq!(first.completed(), ids.len());
    for t in &first.tenants {
        assert!(t.slices >= 2, "{}: quantum {quantum} never preempted it", t.id);
    }
    for (i, id) in ids.iter().enumerate() {
        assert_matches_solo(&first, id, &solo[i], "workers=1");
    }
    // fair share: no tenant consumed wildly more than its solo total
    for (i, id) in ids.iter().enumerate() {
        let row = first.tenant(id).unwrap();
        assert!(
            row.consumed <= solo[i].units + quantum,
            "{id}: supervised run consumed {} vs {} solo",
            row.consumed,
            solo[i].units
        );
    }

    // byte-identical across repetitions (the whole rendered report)…
    let again = run_fleet(1);
    assert_eq!(first.to_string(), again.to_string(), "fleet rerun diverged");

    // …and across worker counts: rounds differ (3 slices per turn), but
    // every observable per-tenant fact and the fleet ledger match
    let wide = run_fleet(3);
    assert_eq!(first.fleet_consumed, wide.fleet_consumed, "workers=3 ledger diverged");
    for (a, b) in first.tenants.iter().zip(&wide.tenants) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.status, b.status, "{}", a.id);
        assert_eq!(a.consumed, b.consumed, "{}: workers=3 consumption diverged", a.id);
        assert_eq!(a.slices, b.slices, "{}: workers=3 slice count diverged", a.id);
        assert_eq!(a.counters, b.counters, "{}: workers=3 counter totals diverged", a.id);
        let (fa, fb) = (a.finished.as_ref().unwrap(), b.finished.as_ref().unwrap());
        assert_eq!(fa.recommendation.to_string(), fb.recommendation.to_string(), "{}", a.id);
        assert_eq!(fa.recommended_cost.to_bits(), fb.recommended_cost.to_bits(), "{}", a.id);
    }
}

#[test]
fn preempted_tenant_parks_and_resumes_byte_identically() {
    let solo_calm = solo_reference(0);
    let solo_preempt = solo_reference(1);

    let calm_server = make_server();
    let busy_server = make_server();
    let mut sup = SessionSupervisor::new(SupervisorPolicy {
        quantum: 1_000_000, // generous: only the preemption cuts a slice
        ..SupervisorPolicy::default()
    })
    .unwrap();
    sup.admit(TenantSpec::new("t-calm", &calm_server, tenant_workload(0), options(1))).unwrap();
    sup.admit(TenantSpec::new("t-preempt", &busy_server, tenant_workload(1), options(1))).unwrap();
    // deterministic preemption: cancel t-preempt's first slice at birth
    // (keyed on (tenant, slice), so any interleaving injects the same)
    sup.set_chaos_hook(Arc::new(|ctx: &SliceContext<'_>| {
        if ctx.tenant == "t-preempt" && ctx.slice == 0 {
            ctx.cancel.cancel();
        }
    }));
    let report = sup.run();

    assert!(report.stopped.is_none());
    assert_eq!(report.completed(), 2);
    let preempted = report.tenant("t-preempt").unwrap();
    assert!(preempted.slices >= 2, "preemption should cost an extra slice");
    assert_matches_solo(&report, "t-calm", &solo_calm, "preemption");
    assert_matches_solo(&report, "t-preempt", &solo_preempt, "preemption");
}

#[test]
fn faulty_tenant_is_quarantined_without_disturbing_siblings() {
    let solo_healthy = solo_reference(0);

    let run_fleet = || {
        let healthy = make_server();
        let sick = make_server();
        // panic on every what-if, for longer than the session layer's
        // own isolation retries: the tenant can never make progress
        sick.set_fault_policy(Some(FaultPolicy {
            seed: 5,
            whatif_panic_rate: 1.0,
            whatif_panic_repeats: 200,
            ..FaultPolicy::default()
        }));
        let mut sup = SessionSupervisor::new(SupervisorPolicy::default()).unwrap();
        sup.admit(TenantSpec::new("t-healthy", &healthy, tenant_workload(0), options(1))).unwrap();
        sup.admit(TenantSpec::new("t-sick", &sick, tenant_workload(1), options(1))).unwrap();
        sup.run()
    };
    let report = run_fleet();

    assert!(report.stopped.is_none());
    let sick_row = report.tenant("t-sick").unwrap();
    assert_eq!(sick_row.status, TenantStatus::Quarantined);
    let reason = sick_row.quarantine_reason.as_deref().expect("quarantine carries a reason");
    assert!(reason.contains("panic"), "unexpected reason: {reason}");
    // bounded retries: first slice + max_session_retries more, no livelock
    let policy = SupervisorPolicy::default();
    assert_eq!(sick_row.slices, 1 + policy.max_session_retries as u64);
    // the audit trail shows the containment work the supervisor absorbed
    assert!(sick_row.panic_rescues() > 0, "no panic rescues recorded");
    // the sibling never noticed
    assert_eq!(report.quarantined(), 1);
    assert_matches_solo(&report, "t-healthy", &solo_healthy, "quarantine");
    // and the whole outcome — backoff schedule included — is deterministic
    assert_eq!(report.to_string(), run_fleet().to_string(), "quarantine rerun diverged");
}

#[test]
fn unit_capped_tenant_parks_until_the_cap_is_lifted_by_recovery() {
    let solo_a = solo_reference(0);
    let solo_b = solo_reference(1);

    fn specs<'a>(sa: &'a Server, sb: &'a Server) -> Vec<TenantSpec<'a>> {
        vec![
            TenantSpec::new("t-able", sa, tenant_workload(0), options(1)),
            TenantSpec::new("t-baker", sb, tenant_workload(1), options(1)),
        ]
    }
    let server_a = make_server();
    let server_b = make_server();
    // a cap far under either session total: both tenants park as noisy
    // neighbors after a couple of slices
    let cap = (solo_a.units / 4).max(1);
    let mut sup = SessionSupervisor::new(SupervisorPolicy {
        quantum: (cap / 2).max(1),
        tenant_unit_cap: Some(cap),
        ..SupervisorPolicy::default()
    })
    .unwrap();
    for spec in specs(&server_a, &server_b) {
        sup.admit(spec).unwrap();
    }
    let report = sup.run();
    assert!(report.stopped.is_none(), "a capped fleet drains its queue and stops cleanly");
    assert_eq!(report.completed(), 0, "{report}");
    for row in &report.tenants {
        assert_eq!(row.status, TenantStatus::Parked, "{}", row.id);
        assert!(row.capped, "{}: parked but not marked capped", row.id);
        assert!(row.consumed >= cap, "{}: capped under the cap", row.id);
    }

    // lift the cap through a manifest round-trip: the capped tenants are
    // out of the captured queue and must re-enter in id order
    let manifest = sup.manifest();
    assert!(manifest.queue.is_empty(), "capped tenants left in the queue: {:?}", manifest.queue);
    drop(sup);
    let mut recovered = SessionSupervisor::recover(
        SupervisorPolicy { tenant_unit_cap: None, ..SupervisorPolicy::default() },
        &manifest,
        specs(&server_a, &server_b),
    )
    .unwrap();
    let report = recovered.run();
    assert_eq!(report.completed(), 2, "{report}");
    assert_matches_solo(&report, "t-able", &solo_a, "cap lifted");
    assert_matches_solo(&report, "t-baker", &solo_b, "cap lifted");
}

#[test]
fn a_cancelled_fleet_refuses_grants_and_parks_everything() {
    let server = make_server();
    let mut sup = SessionSupervisor::new(SupervisorPolicy::default()).unwrap();
    sup.admit(TenantSpec::new("t-solo", &server, tenant_workload(0), options(1))).unwrap();
    sup.handle().cancel_fleet();
    let report = sup.run();
    assert_eq!(report.stopped, Some(StopReason::Cancelled));
    let row = report.tenant("t-solo").unwrap();
    assert_eq!(row.status, TenantStatus::Queued);
    assert_eq!(row.slices, 0, "a cancelled fleet must not start new slices");
    assert_eq!(report.fleet_consumed, 0);
}

/// The chaos acceptance test (ISSUE 10 satellite): a 4-tenant fleet with
/// deterministic preemption, a permanently faulty tenant, a fleet-budget
/// exhaustion, a manifest persisted through the public XML schema, a
/// simulated process crash, and a recovery that runs to convergence —
/// every surviving tenant byte-identical to its solo undisturbed run.
///
/// CI's `chaos-matrix` job sweeps the faulty tenant's schedule via
/// `DTA_CHAOS_SEEDS` (comma-separated) and collects the persisted
/// manifests from `DTA_CHAOS_MANIFEST_DIR` when set.
#[test]
fn chaos_fleet_survives_crash_and_recovers_byte_identically() {
    let seeds: Vec<u64> = std::env::var("DTA_CHAOS_SEEDS")
        .map(|s| s.split(',').map(|t| t.trim().parse().expect("seed")).collect())
        .unwrap_or_else(|_| vec![5]);
    for &seed in &seeds {
        chaos_cycle(seed);
    }
}

const CHAOS_CRASHED_LEDGER: &str = "\
fleet: 4 tenants · 0 completed · 3 parked · 0 quarantined · 2 rounds
budget: 585/447 units consumed
stopped early: fleet budget exhausted
  t-alpha      parked           195 units · 1 slices · 0 rescues · parked in merging
  t-bravo      parked           195 units · 1 slices · 0 rescues · parked in merging
  t-chaos      queued             0 units · 1 slices · 65 rescues
  t-delta      parked           195 units · 1 slices · 0 rescues · parked in merging
";

const CHAOS_RECOVERED_LEDGER: &str = "\
fleet: 4 tenants · 3 completed · 0 parked · 1 quarantined · 8 rounds
budget: 784 units consumed (unbounded)
  t-alpha      completed        199 units · 2 slices · 0 rescues · 38.0% improvement
  t-bravo      completed        386 units · 4 slices · 0 rescues · 38.0% improvement
  t-chaos      quarantined        0 units · 3 slices · 195 rescues · session failed: server error: \
permanent fault: pre-costing what-if panicked past the retry bound
  t-delta      completed        199 units · 2 slices · 0 rescues · 38.0% improvement
";

const CHAOS_IDS: [&str; 4] = ["t-alpha", "t-bravo", "t-chaos", "t-delta"];
const CHAOS_SALTS: [usize; 4] = [0, 1, 2, 3];

/// One spec per chaos tenant, re-attachable to the same servers after
/// the simulated crash.
fn chaos_specs(servers: &[Server]) -> Vec<TenantSpec<'_>> {
    CHAOS_IDS
        .iter()
        .zip(CHAOS_SALTS)
        .zip(servers)
        .map(|((&id, salt), server)| TenantSpec::new(id, server, tenant_workload(salt), options(1)))
        .collect()
}

fn chaos_cycle(seed: u64) {
    let label = format!("chaos seed {seed}");
    let ids = CHAOS_IDS;
    let salts = CHAOS_SALTS;
    // solo references for the healthy tenants (t-chaos never finishes)
    let solo: Vec<Option<Solo>> = ids
        .iter()
        .zip(salts)
        .map(|(&id, salt)| if id == "t-chaos" { None } else { Some(solo_reference(salt)) })
        .collect();
    let healthy_total: u64 = solo.iter().flatten().map(|s| s.units).sum();

    let servers: Vec<Server> = ids.iter().map(|_| make_server()).collect();
    servers[2].set_fault_policy(Some(FaultPolicy {
        seed,
        whatif_panic_rate: 1.0,
        whatif_panic_repeats: 200,
        ..FaultPolicy::default()
    }));
    // phase 1: three quarters of the budget the healthy tenants need,
    // so the fleet exhausts mid-run with real progress parked
    let phase1_budget = (healthy_total * 3) / 4;
    let policy = SupervisorPolicy {
        quantum: (healthy_total / 16).max(1),
        fleet_budget: Some(phase1_budget),
        workers: 2,
        ..SupervisorPolicy::default()
    };
    // deterministic preemption: keyed on (tenant, slice), so it fires
    // identically whichever side of the crash that slice lands on
    let preempt_bravo: dta_core::ChaosHook = Arc::new(|ctx: &SliceContext<'_>| {
        if ctx.tenant == "t-bravo" && ctx.slice == 1 {
            ctx.cancel.cancel();
        }
    });
    let mut sup = SessionSupervisor::new(policy).unwrap();
    for spec in chaos_specs(&servers) {
        sup.admit(spec).unwrap();
    }
    sup.set_chaos_hook(Arc::clone(&preempt_bravo));
    let crashed = sup.run();
    assert_eq!(crashed.stopped, Some(StopReason::BudgetExhausted), "{label}: {crashed}");
    assert!(crashed.fleet_consumed >= phase1_budget, "{label}");

    // persist the fleet through the public XML schema — and prove the
    // round trip is byte-identical before trusting it for recovery
    let manifest = sup.manifest();
    let xml = manifest_to_xml(&manifest);
    if let Ok(dir) = std::env::var("DTA_CHAOS_MANIFEST_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(format!("{dir}/fleet_manifest_seed{seed}.xml"), &xml);
    }
    let mut restored = manifest_from_xml(&xml).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(manifest_to_xml(&restored), xml, "{label}: manifest round trip not byte-identical");
    drop(sup); // the simulated advisor crash — only the XML survives

    // phase 2: the operator lifts the fleet budget in the manifest and
    // recovery re-attaches to the same (still running) servers
    restored.fleet_budget = None;
    let mut recovered = SessionSupervisor::recover(
        SupervisorPolicy { workers: 2, ..SupervisorPolicy::default() },
        &restored,
        chaos_specs(&servers),
    )
    .unwrap_or_else(|e| panic!("{label}: recover failed: {e}"));
    assert_eq!(recovered.policy().quantum, (healthy_total / 16).max(1), "{label}");
    // the chaos hook is config, not state: the operator reinstalls it
    recovered.set_chaos_hook(preempt_bravo);
    let report = recovered.run();

    if seed == 5 {
        // the default seed's ledgers, as recorded before what-if calls
        // went through prepared statements: the panicking tenant's fault
        // sites (statement text, its hash, the configuration) fire on the
        // same calls, so the same slices, units and rescues are booked on
        // either side of the crash
        assert_eq!(crashed.to_string(), CHAOS_CRASHED_LEDGER, "{label}");
        assert_eq!(report.to_string(), CHAOS_RECOVERED_LEDGER, "{label}");
        // the healthy tenants' arrivals, as recorded once the cost cache
        // projected each statement onto the indexes it can read and the
        // views that can answer it, and priced misses from recorded access
        // paths where it could, reading each table's paths from the
        // records that differ from the base on that table alone (139 each
        // before, 171 at table-level relevance, 144 before views were
        // filtered, 104 while only sets of plain indexes were derived);
        // the panicking tenant's all fail in pre-costing, which prices the
        // base configuration as before
        let arrivals: Vec<u64> = servers.iter().map(Server::whatif_invocations).collect();
        assert_eq!(arrivals, [86, 86, 195, 86], "{label}: what-if calls per server");
        assert_eq!(servers[2].overhead_units(), 0.0, "{label}: a panicking call charges nothing");
    }
    assert!(report.stopped.is_none(), "{label}: {:?}", report.stopped);
    assert_eq!(report.completed(), 3, "{label}: {report}");
    assert_eq!(report.quarantined(), 1, "{label}: {report}");
    for ((&id, _), reference) in ids.iter().zip(salts).zip(&solo) {
        match reference {
            Some(solo) => assert_matches_solo(&report, id, solo, &label),
            None => {
                let row = report.tenant(id).unwrap();
                assert_eq!(row.status, TenantStatus::Quarantined, "{label}");
                let reason = row.quarantine_reason.as_deref().unwrap_or("");
                assert!(reason.contains("panic"), "{label}: unexpected reason: {reason}");
            }
        }
    }
    // the preempted tenant paid for its cancelled slice but lost no work
    let preempted = report.tenant("t-bravo").unwrap();
    assert!(
        preempted.slices >= 3,
        "{label}: preemption left no trace\n{report}\ncrashed:\n{crashed}"
    );
    // total work is conserved across the crash: the recovered ledger
    // carries phase 1's consumption forward
    assert!(report.fleet_consumed > crashed.fleet_consumed, "{label}");
}

/// A failed slice is a transaction: what it priced, degraded and
/// progressed is discarded, and the retry starts from the tenant's last
/// good state. One statement's what-if call panics once more than the
/// isolation layer absorbs, *after* earlier statements of the same slice
/// were priced; the tenant must end exactly where the same schedule ends
/// when the slices are run by hand, each a budgeted session of its own
/// chained through checkpoints, and the failed one is thrown away whole.
/// Twice: the tenant's first slice fails (its last good state is
/// nothing), and a later one does (its last good state is a parked
/// session that the failed slice had already added to).
#[test]
fn supervised_failed_slice_leaves_no_trace() {
    // eight statements on `fact` and, in the middle, one on `dim` alone —
    // the only one the schedule below makes panic. Nothing else reads
    // `dim`, so once its pre-costing call comes back the victim disturbs
    // its own candidate selection and nothing more.
    const VICTIM: usize = 4;
    let mut items = tenant_workload(0).items;
    items.insert(VICTIM, sel("SELECT dname FROM dim WHERE dk = 7"));
    let workload = Workload::from_items(items);
    let rate = 0.1;
    let seed = (0u64..10_000)
        .find(|&seed| {
            workload.items.iter().enumerate().all(|(i, item)| {
                (whatif_fault_roll(seed, "whatif-panic", item) < rate) == (i == VICTIM)
            })
        })
        .expect("some seed singles out the victim");
    // the isolation layer tries a call 65 times; a site that panics 66
    // times fails the slice that first meets it and costs the next one a
    // single rescue
    let policy = FaultPolicy {
        seed,
        whatif_panic_rate: rate,
        whatif_panic_repeats: 66,
        ..FaultPolicy::default()
    };

    // (quantum, the slice the schedule starts with): at 40 units the
    // first slice reaches the victim; at 3 it prices three statements and
    // parks, and the second one prices a fourth before it meets it
    for (quantum, faulty_slice) in [(40, 0), (3, 1)] {
        let label = format!("quantum {quantum}");

        // by hand: the failed slice dropped, the rest chained
        let server = make_server();
        let target = TuningTarget::Single(&server);
        let mut parked: Option<Box<SessionCheckpoint>> = None;
        let (mut slices, mut failures) = (0u64, 0);
        let chained = loop {
            if slices == faulty_slice {
                server.set_fault_policy(Some(policy));
            }
            let arrivals = server.whatif_invocations();
            let slice = match &parked {
                None => {
                    let control = SessionControl::with_budget(quantum);
                    tune_with_control(&target, &workload, &options(1), &control)
                }
                Some(cp) => tune_resume(&target, cp, Some(quantum)),
            };
            slices += 1;
            match slice {
                Ok(mut result) => match result.checkpoint.take() {
                    Some(cp) => parked = Some(cp),
                    None => break result,
                },
                Err(e) => {
                    failures += 1;
                    assert_eq!(slices - 1, faulty_slice, "{label}: {e}");
                    assert!(
                        e.to_string().contains("panicked past the retry bound"),
                        "{label}: {e}"
                    );
                    assert!(
                        server.whatif_invocations() - arrivals > 65,
                        "{label}: statements before the victim were priced in the failed slice"
                    );
                }
            }
        };
        assert_eq!(failures, 1, "{label}");
        assert_eq!(chained.completion, Completion::Complete, "{label}");
        assert_eq!(chained.worker_restarts, 1, "{label}: the retry rescued one panic");
        assert!(chained.expected_improvement() > 0.1, "{label}");

        // supervised: the same schedule, the same slices
        let server = Arc::new(make_server());
        let mut sup =
            SessionSupervisor::new(SupervisorPolicy { quantum, ..SupervisorPolicy::default() })
                .unwrap();
        sup.admit(TenantSpec::new("t-flaky", &server, workload.clone(), options(1))).unwrap();
        let hooked = Arc::clone(&server);
        sup.set_chaos_hook(Arc::new(move |ctx: &SliceContext<'_>| {
            if ctx.slice == faulty_slice {
                hooked.set_fault_policy(Some(policy));
            }
        }));
        let report = sup.run();
        let row = report.tenant("t-flaky").unwrap();
        assert_eq!(row.status, TenantStatus::Completed, "{label}: {report}");
        assert_eq!((row.slices, row.retries), (slices, 0), "{label}: {report}");
        assert_eq!(row.panic_rescues(), 66, "{label}: the failed slice stays in the audit trail");
        let result = row.finished.as_ref().and_then(|f| f.result.as_deref()).expect("full result");
        assert_eq!(result.recommendation.to_string(), chained.recommendation.to_string());
        assert_eq!(result.whatif_calls, chained.whatif_calls, "{label}");
        assert_eq!(result.evaluations, chained.evaluations, "{label}");
        assert_eq!(result.to_string(), chained.to_string(), "{label}");
    }
}

/// What a fleet's tenants reported when they finished, by tenant id. A
/// full result lives only in the process its session completed in, so it
/// is collected after every run.
type Finished = std::collections::BTreeMap<String, (String, usize, usize, u64)>;

fn collect_finished(report: &dta_core::FleetReport, into: &mut Finished) {
    for row in &report.tenants {
        if let Some(result) = row.finished.as_ref().and_then(|f| f.result.as_deref()) {
            let facts = (
                result_to_xml(result),
                result.whatif_calls,
                result.evaluations,
                result.tuning_work_units.to_bits(),
            );
            into.insert(row.id.clone(), facts);
        }
    }
}

/// Live ≡ cold, at every cut. A parked session stays where it is between
/// slices, and between runs of its supervisor; a checkpoint is only its
/// serialized form. So a fleet whose sessions were never serialized and
/// a fleet that was killed at every stop — every session in it rebuilt
/// from XML, every time — must be indistinguishable: the same manifest,
/// byte for byte, at every stop, and the same end.
#[test]
fn supervised_live_sessions_equal_sessions_rebuilt_from_xml_at_every_stop() {
    const IDS: [&str; 3] = ["t-ash", "t-birch", "t-cedar"];
    fn specs(servers: &[Server]) -> Vec<TenantSpec<'_>> {
        IDS.iter()
            .zip(servers)
            .enumerate()
            .map(|(salt, (&id, server))| {
                TenantSpec::new(id, server, tenant_workload(salt), options(1))
            })
            .collect()
    }
    for quantum in [1, 7, 64, u64::MAX] {
        // the fleet budget stops both fleets at every multiple of the
        // quantum the ledger crosses (an unbounded quantum: at none)
        let first_stop = (quantum != u64::MAX).then_some(quantum);
        let policy =
            SupervisorPolicy { quantum, fleet_budget: first_stop, ..SupervisorPolicy::default() };
        let live_servers: Vec<Server> = IDS.iter().map(|_| make_server()).collect();
        let cold_servers: Vec<Server> = IDS.iter().map(|_| make_server()).collect();
        let mut live = SessionSupervisor::new(policy.clone()).unwrap();
        let mut cold = SessionSupervisor::new(policy).unwrap();
        for (l, c) in specs(&live_servers).into_iter().zip(specs(&cold_servers)) {
            live.admit(l).unwrap();
            cold.admit(c).unwrap();
        }
        let (mut live_finished, mut cold_finished) = (Finished::new(), Finished::new());
        let mut stops = 0;
        loop {
            let label = format!("quantum {quantum}, stop {stops}");
            let live_report = live.run();
            let cold_report = cold.run();
            collect_finished(&live_report, &mut live_finished);
            collect_finished(&cold_report, &mut cold_finished);
            let xml = manifest_to_xml(&cold.manifest());
            assert_eq!(manifest_to_xml(&live.manifest()), xml, "{label}");
            assert_eq!(live_report.to_string(), cold_report.to_string(), "{label}");
            if live_report.stopped.is_none() {
                assert_eq!(live_report.completed(), IDS.len(), "{label}: {live_report}");
                break;
            }
            assert_eq!(live_report.stopped, Some(StopReason::BudgetExhausted), "{label}");
            stops += 1;
            let budget = (live_report.fleet_consumed / quantum + 1) * quantum;
            // the live fleet has its budget raised where it stands …
            live.set_fleet_budget(Some(budget)).unwrap();
            // … the cold one dies, and only its XML goes on
            let mut manifest = manifest_from_xml(&xml).unwrap_or_else(|e| panic!("{label}: {e}"));
            manifest.fleet_budget = Some(budget);
            cold = SessionSupervisor::recover(
                SupervisorPolicy::default(),
                &manifest,
                specs(&cold_servers),
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        if quantum != u64::MAX {
            assert!(stops >= 3, "quantum {quantum}: only {stops} stops");
        }
        assert_eq!(live_finished.len(), IDS.len(), "quantum {quantum}");
        assert_eq!(live_finished, cold_finished, "quantum {quantum}");
        let arrivals = |servers: &[Server]| -> Vec<u64> {
            servers.iter().map(Server::whatif_invocations).collect()
        };
        assert_eq!(arrivals(&live_servers), arrivals(&cold_servers), "quantum {quantum}");
    }
}
