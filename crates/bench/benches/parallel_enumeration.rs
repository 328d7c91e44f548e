//! Parallel enumeration: wall-clock and what-if call counts at 1, 2 and
//! 4 workers over the same candidate pool.
//!
//! The pool is built once (selection phase); each sample then runs
//! enumeration from a cold cost cache so every worker count performs the
//! same search. Results are byte-identical across worker counts by
//! construction — the bench asserts it — so the only thing that varies
//! is wall-clock. Speedup requires actual cores; on a single-core host
//! the worker counts tie (thread overhead aside).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta::advisor::candidates::{assemble_pool, select_candidates};
use dta::advisor::colgroups::interesting_column_groups;
use dta::advisor::cost::CostEvaluator;
use dta::advisor::enumeration::{enumerate, enumeration_pool};
use dta::advisor::merging::merge_candidates;
use dta::advisor::{SessionControl, TuningOptions};
use dta::prelude::*;
use dta::stats::StatKey;
use std::collections::BTreeSet;

fn make_server() -> Server {
    let mut server = Server::new("bench");
    let mut db = Database::new("d");
    db.add_table(
        Table::new(
            "fact",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
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
    db.add_table(
        Table::new(
            "events",
            vec![
                Column::new("eid", ColumnType::BigInt),
                Column::new("etype", ColumnType::Int),
                Column::new("eday", ColumnType::Int),
                Column::new("amount", ColumnType::Float),
            ],
        )
        .with_primary_key(&["eid"]),
    )
    .unwrap();
    server.create_database(db).unwrap();
    {
        let t = server.table_data_mut("d", "fact").unwrap();
        for i in 0..30_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i % 1500),
                Value::Int(i % 700),
                Value::Int(i % 25),
                Value::Int(i % 12),
                Value::Float((i % 997) as f64),
                Value::Str(format!("{:=<60}", i)),
            ]);
        }
        t.set_scale(20.0);
    }
    {
        let t = server.table_data_mut("d", "dim").unwrap();
        for i in 0..1500i64 {
            t.push_row(vec![Value::Int(i), Value::Str(format!("dim{i}"))]);
        }
    }
    {
        let t = server.table_data_mut("d", "events").unwrap();
        for i in 0..20_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i % 40),
                Value::Int(i % 365),
                Value::Float((i % 113) as f64),
            ]);
        }
        t.set_scale(10.0);
    }
    server
}

fn make_workload() -> Workload {
    let mut items = Vec::new();
    let mut sel = |sql: String| items.push(WorkloadItem::new("d", parse_statement(&sql).unwrap()));
    for i in 0..12 {
        sel(format!("SELECT pad FROM fact WHERE a = {}", i * 13 % 1500));
        sel(format!("SELECT val FROM fact WHERE b = {}", i * 7 % 700));
    }
    for i in 0..8 {
        sel(format!("SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g", i % 12));
        sel(format!(
            "SELECT etype, SUM(amount) FROM events WHERE eday < {} GROUP BY etype",
            30 + i
        ));
    }
    for i in 0..6 {
        sel(format!("SELECT dname FROM fact, dim WHERE fact.a = dim.dk AND fact.k = {}", i * 500));
        sel(format!("SELECT amount FROM events WHERE etype = {} ORDER BY eday", i % 40));
    }
    // diverse shapes so per-query winners differ (wider candidate pool)
    for i in 0..6 {
        sel(format!("SELECT val FROM fact WHERE a = {} AND b = {}", i * 11 % 1500, i * 5 % 700));
        sel(format!("SELECT pad FROM fact WHERE g = {} AND m = {}", i % 25, i % 12));
        sel(format!("SELECT k FROM fact WHERE b = {} ORDER BY a", i * 31 % 700));
        sel(format!("SELECT a, SUM(val) FROM fact WHERE g = {} GROUP BY a", i % 25));
        sel(format!("SELECT m, COUNT(*) FROM fact WHERE b < {} GROUP BY m", 50 + i * 10));
        sel(format!("SELECT eid FROM events WHERE eday = {} AND etype = {}", i * 30, i % 40));
        sel(format!("SELECT eday, MIN(amount) FROM events WHERE etype = {} GROUP BY eday", i % 40));
        sel(format!("SELECT b, MAX(val) FROM fact WHERE m = {} GROUP BY b", i % 12));
    }
    Workload::from_items(items)
}

fn bench(c: &mut Criterion) {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = make_workload();
    let items = &workload.items;
    let base = server.raw_configuration();
    let options = TuningOptions { parallel_workers: 1, compress: false, ..Default::default() };

    // build the candidate pool once (selection is not what's measured)
    let pre_eval = CostEvaluator::new(&target, items);
    let pre_costs: Vec<f64> =
        (0..items.len()).map(|i| pre_eval.item_cost(i, &base).unwrap()).collect();
    let groups = interesting_column_groups(
        target.catalog(),
        items,
        &pre_costs,
        options.colgroup_cost_threshold,
    );
    let mut required: Vec<StatKey> = Vec::new();
    let mut table_keys: BTreeSet<(String, String)> = BTreeSet::new();
    for item in items.iter() {
        for t in item.statement.referenced_tables() {
            table_keys.insert((item.database.clone(), t.to_string()));
        }
    }
    for (db, table) in &table_keys {
        for group in groups.for_table(db, table) {
            let cols: Vec<String> = group.iter().cloned().collect();
            required.push(StatKey { database: db.clone(), table: table.clone(), columns: cols });
        }
    }
    target.ensure_statistics(&required, options.reduce_statistics);
    let sel_eval = CostEvaluator::new(&target, items);
    let mut selections = Vec::new();
    let unlimited = SessionControl::unlimited();
    select_candidates(&sel_eval, &base, &groups, &options, &unlimited, &mut selections);
    let mut pool = assemble_pool(&selections);
    merge_candidates(&mut pool);
    assert!(
        pool.candidates.len() >= 20,
        "pool too small for a meaningful bench: {}",
        pool.candidates.len()
    );

    // reference run per worker count: what-if calls + identical output
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let opts = TuningOptions { parallel_workers: workers, ..options.clone() };
        let eval = CostEvaluator::new(&target, items);
        let r = enumerate(
            &eval,
            &base,
            &enumeration_pool(&pool.candidates, &opts),
            &server,
            &opts,
            &SessionControl::unlimited(),
            None,
            &NoopObserver,
        )
        .result;
        println!(
            "--- enumeration over {} candidates, workers={}: {} what-if calls, {} evaluations ---",
            pool.candidates.len(),
            workers,
            eval.whatif_calls(),
            r.evaluations
        );
        let rendered = format!("{:.6} {}", r.cost, r.configuration);
        match &reference {
            None => reference = Some(rendered),
            Some(expect) => assert_eq!(expect, &rendered, "workers={workers} diverged"),
        }
    }

    let mut g = c.benchmark_group("parallel_enumeration");
    g.sample_size(10);
    for workers in [1usize, 2, 4] {
        let opts = TuningOptions { parallel_workers: workers, ..options.clone() };
        let ordered = enumeration_pool(&pool.candidates, &opts);
        g.bench_function(&format!("workers={workers}"), |bench| {
            bench.iter(|| {
                // cold cache each sample so every run does the same work
                let eval = CostEvaluator::new(&target, items);
                black_box(enumerate(
                    &eval,
                    &base,
                    &ordered,
                    &server,
                    &opts,
                    &SessionControl::unlimited(),
                    None,
                    &NoopObserver,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
