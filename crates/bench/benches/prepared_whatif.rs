//! Prepare once, plan many: what preparing a statement costs, what one
//! what-if optimization of the preparation costs, and what the one-call
//! entry point (prepare + plan per call) costs — per statement class,
//! under the raw configuration and under a tuned one.
//!
//! The server is TPC-H after a `tune()` session, so the statistics are
//! those a session plans with and the tuned configuration is its
//! recommendation plus one grouped view that answers the aggregate
//! class. A session pays `prepare` once per statement per estimate
//! epoch and `optimize_prepared` once per cache miss; `optimize` is what
//! every miss cost before statements were prepared, plus nothing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta::optimizer::optimize_prepared;
use dta::physical::ViewAggregate;
use dta::prelude::*;
use dta::workload::tpch::{self, TpchScale};

/// Operations per sample (the shim times one closure call per sample).
const BATCH: usize = 100;

/// TPC-H Q8's join graph with both `nation` roles: eight table bindings.
const JOIN_8: &str = "SELECT o_orderdate, SUM(l_extendedprice) \
     FROM part, supplier, lineitem, orders, customer, nation AS n1, nation AS n2, region \
     WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
     AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey \
     AND n1.n_regionkey = r_regionkey AND s_nationkey = n2.n_nationkey \
     AND r_name = 'AMERICA' AND p_type = 'ECONOMY ANODIZED STEEL' GROUP BY o_orderdate";
const VIEW_QUERY: &str = "SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem \
                          WHERE l_returnflag = 'R' GROUP BY l_returnflag, l_linestatus";
const UPDATE: &str = "UPDATE lineitem SET l_discount = 0.05 WHERE l_orderkey = 7";

fn statement_classes() -> Vec<(&'static str, Statement)> {
    let queries: Vec<Statement> = tpch::workload().items.into_iter().map(|i| i.statement).collect();
    let with_tables = |n: usize| {
        queries
            .iter()
            .find(|q| q.referenced_tables().len() == n)
            .unwrap_or_else(|| panic!("TPC-H has a query over {n} tables"))
            .clone()
    };
    vec![
        ("single_table", with_tables(1)),
        ("join_2", with_tables(2)),
        ("join_8", parse_statement(JOIN_8).expect("valid SQL")),
        ("aggregate_over_view", parse_statement(VIEW_QUERY).expect("valid SQL")),
        ("update", parse_statement(UPDATE).expect("valid SQL")),
    ]
}

fn prepared_whatif(c: &mut Criterion) {
    let server = tpch::build_server(TpchScale::new(0.002, 1.0), 42);
    let target = TuningTarget::Single(&server);
    let options = TuningOptions { parallel_workers: 1, ..Default::default() };
    let result = tune(&target, &tpch::workload(), &options).expect("TPC-H tunes");
    let mut tuned = result.recommendation.clone();
    tuned.add(PhysicalStructure::View(MaterializedView::grouped(
        tpch::DB,
        &["lineitem"],
        Vec::new(),
        vec![
            QualifiedColumn::new("lineitem", "l_returnflag"),
            QualifiedColumn::new("lineitem", "l_linestatus"),
        ],
        vec![ViewAggregate::count_star()],
    )));
    let raw = server.raw_configuration();

    let mut group = c.benchmark_group("prepared_whatif");
    group.sample_size(30);
    server.with_statistics(|stats| {
        let optimizer = WhatIfOptimizer::new(server.catalog(), stats, &server, server.hardware());
        for (class, stmt) in statement_classes() {
            group.bench_function(&format!("{class}/prepare_x{BATCH}"), |b| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        black_box(optimizer.prepare(tpch::DB, black_box(&stmt)));
                    }
                })
            });
            let prep = optimizer.prepare(tpch::DB, &stmt);
            for (name, config) in [("raw", &raw), ("tuned", &tuned)] {
                let planned = optimize_prepared(&prep, config).expect("the class binds");
                let one_call = optimizer.optimize(tpch::DB, &stmt, config).expect("binds");
                assert_eq!(planned, one_call, "{class}/{name}: one planner behind both entries");
                if class == "aggregate_over_view" && name == "tuned" {
                    assert!(planned.to_string().contains("ViewScan"), "{planned}");
                }
                group.bench_function(&format!("{class}/{name}/optimize_prepared_x{BATCH}"), |b| {
                    b.iter(|| {
                        for _ in 0..BATCH {
                            black_box(optimize_prepared(black_box(&prep), config))
                                .expect("the class binds");
                        }
                    })
                });
                group.bench_function(&format!("{class}/{name}/optimize_x{BATCH}"), |b| {
                    b.iter(|| {
                        for _ in 0..BATCH {
                            black_box(optimizer.optimize(tpch::DB, black_box(&stmt), config))
                                .expect("the class binds");
                        }
                    })
                });
            }
        }
    });
    group.finish();
}

criterion_group!(benches, prepared_whatif);
criterion_main!(benches);
