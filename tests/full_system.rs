//! Whole-system integration: generate TPC-H, tune it, implement the
//! recommendation, and verify with real execution that the improvement
//! is real — the paper's §7.2 loop at test scale.

use dta::advisor::{tune, TuningOptions};
use dta::prelude::*;
use dta::workload::tpch;

#[test]
fn tpch_tune_deploy_execute() {
    let server = tpch::build_server(tpch::TpchScale::tiny(), 99);
    let workload = tpch::workload();
    let target = TuningTarget::Single(&server);

    let storage = server.total_data_bytes() * 3;
    let options =
        TuningOptions { storage_bytes: Some(storage), parallel_workers: 2, ..Default::default() };
    let result = tune(&target, &workload, &options).expect("TPC-H tunes");

    assert!(
        result.expected_improvement() > 0.4,
        "expected >40% improvement on TPC-H, got {:.1}%",
        result.expected_improvement() * 100.0
    );
    assert!(result.storage_bytes <= storage, "storage bound violated");

    // implement and execute everything under both configurations
    let mut raw_work = 0.0;
    let mut tuned_work = 0.0;
    let mut raw_rows = Vec::new();
    let mut tuned_rows = Vec::new();
    server.deploy(server.raw_configuration());
    for item in &workload.items {
        let res = server.execute(&item.database, &item.statement).expect("raw run");
        raw_work += res.work.work_units();
        raw_rows.push(res.rows.len());
    }
    server.deploy(result.recommendation.clone());
    for item in &workload.items {
        let res = server.execute(&item.database, &item.statement).expect("tuned run");
        tuned_work += res.work.work_units();
        tuned_rows.push(res.rows.len());
    }

    // 1) answers must not change with physical design
    assert_eq!(raw_rows, tuned_rows, "physical design changed query answers!");

    // 2) the actual improvement is substantial and within shouting
    //    distance of the estimate (§7.2: 88% estimated vs 83% actual)
    let actual = 1.0 - tuned_work / raw_work;
    assert!(actual > 0.25, "actual improvement only {:.1}%", actual * 100.0);
    let gap = (result.expected_improvement() - actual).abs();
    assert!(gap < 0.45, "estimate/actual gap too wide: {gap:.2}");
}

#[test]
fn multi_database_tuning() {
    // DTA tunes workloads spanning several databases simultaneously (§2.1)
    let mut server = Server::new("multi");
    for dbname in ["db1", "db2"] {
        let mut db = Database::new(dbname);
        db.add_table(
            Table::new(
                "t",
                vec![
                    Column::new("k", ColumnType::BigInt),
                    Column::new("a", ColumnType::Int),
                    Column::new("pad", ColumnType::Str(50)),
                ],
            )
            .with_primary_key(&["k"]),
        )
        .unwrap();
        server.create_database(db).unwrap();
        let data = server.table_data_mut(dbname, "t").unwrap();
        for i in 0..20_000i64 {
            data.push_row(vec![Value::Int(i), Value::Int(i % 500), Value::Str(format!("{i:050}"))]);
        }
        data.set_scale(20.0);
    }
    let mut items = Vec::new();
    for i in 0..10 {
        items.push(WorkloadItem::new(
            "db1",
            parse_statement(&format!("SELECT pad FROM t WHERE a = {}", i * 7)).unwrap(),
        ));
        items.push(WorkloadItem::new(
            "db2",
            parse_statement(&format!("SELECT pad FROM t WHERE a = {}", i * 13)).unwrap(),
        ));
    }
    let workload = Workload::from_items(items);
    let target = TuningTarget::Single(&server);
    let result = tune(&target, &workload, &TuningOptions::default()).unwrap();
    // structures recommended in BOTH databases
    let dbs: std::collections::BTreeSet<&str> = result
        .recommendation
        .difference(&server.raw_configuration())
        .iter()
        .map(|s| s.database())
        .collect();
    assert!(dbs.contains("db1") && dbs.contains("db2"), "{dbs:?}");
    assert!(result.expected_improvement() > 0.5);
}

// Figure 4/5 at test scale. `events_fraction`/`max_items` size the
// SYNT1 statement pool; `quality_slack` is how far DTA's improvement
// may trail ITW's (small pools are noisier). The "DTA does less tuning
// work than ITW" shape is scale-dependent — ITW's per-query tuning
// overtakes DTA's pool enumeration only as the statement count grows —
// so `assert_work` is on for the full pool and off for the smoke.
fn itw_vs_dta_shapes(
    events_fraction: f64,
    max_items: usize,
    quality_slack: f64,
    assert_work: bool,
) {
    let mut bench = dta::workload::synt1::build(events_fraction, 3);
    bench.workload.items.truncate(max_items);
    let target = TuningTarget::Single(&bench.server);
    bench.server.reset_overhead();
    let dta_result =
        tune(&target, &bench.workload, &TuningOptions { ..Default::default() }).unwrap();
    let itw_result = dta::baselines::tune_itw(&target, &bench.workload, None).unwrap();

    if assert_work {
        assert!(
            dta_result.tuning_work_units < itw_result.tuning_work_units,
            "DTA {} !< ITW {}",
            dta_result.tuning_work_units,
            itw_result.tuning_work_units
        );
    }
    // quality on the full workload within a few points of each other,
    // and both tuners must find real improvements
    let base = bench.server.raw_configuration();
    let base_cost = dta::advisor::workload_cost(&target, &bench.workload, &base).unwrap();
    let q = |cfg: &Configuration| {
        1.0 - dta::advisor::workload_cost(&target, &bench.workload, cfg).unwrap() / base_cost
    };
    let dq = q(&dta_result.recommendation);
    let iq = q(&itw_result.recommendation);
    assert!(dq > 0.2, "DTA improvement only {dq:.3}");
    assert!(iq > 0.2, "ITW improvement only {iq:.3}");
    assert!(dq >= iq - quality_slack, "DTA quality {dq:.3} fell too far below ITW {iq:.3}");
}

#[test]
#[ignore = "run time: the full 640-statement pool takes 43 s in release on 2 cores at 0.21 GB \
            peak RSS (DTA 7.80e5 units, 58,696 what-if calls; ITW 1.86e6, 143,546); \
            itw_vs_dta_shapes_smoke covers the quality shape in CI time"]
fn itw_vs_dta_shapes_hold() {
    itw_vs_dta_shapes(0.08, usize::MAX, 0.08, true); // 640 statements
}

#[test]
fn itw_vs_dta_shapes_smoke() {
    // trimmed pool: 24 of the 0.01-fraction statements. Quality shapes
    // only — at this scale DTA's pool enumeration costs more than ITW's
    // per-query tuning, so the Figure 4 work comparison stays in the
    // (ignored) full-pool test above.
    itw_vs_dta_shapes(0.01, 24, 0.10, false);
}
