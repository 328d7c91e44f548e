//! One greedy evaluation — assemble `base ∪ set`, then price the
//! workload under it with a warm cost cache — at base widths 8, 64 and
//! 580 structures.
//!
//! The workload and the candidate set are the same at every width: eight
//! statements over the first eight tables and three candidate indexes on
//! three of them. Only the number of tables, and with it the number of
//! constraint indexes in the base configuration, grows. What is measured
//! is therefore what a wider existing design costs a session per
//! configuration it considers; the optimizer is not called (every lookup
//! hits the cache). The 580-wide base is the shape of the `cust1`
//! workload in `benchmark/`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta::advisor::cost::CostEvaluator;
use dta::advisor::enumeration::Assembler;
use dta::advisor::TuningOptions;
use dta::physical::StructureHandle;
use dta::prelude::*;

/// Evaluations per sample (the shim times one closure call per sample).
const BATCH: usize = 50;
/// Tables the workload references, at every width.
const HOT_TABLES: usize = 8;

fn make_server(width: usize) -> Server {
    let mut server = Server::new("bench");
    let mut db = Database::new("d");
    for i in 0..width {
        db.add_table(
            Table::new(
                format!("t{i}"),
                vec![
                    Column::new("k", ColumnType::BigInt),
                    Column::new("a", ColumnType::Int),
                    Column::new("pad", ColumnType::Str(40)),
                ],
            )
            .with_primary_key(&["k"]),
        )
        .expect("fresh table");
    }
    server.create_database(db).expect("fresh database");
    for i in 0..HOT_TABLES {
        let t = server.table_data_mut("d", &format!("t{i}")).expect("table exists");
        for row in 0..2_000i64 {
            t.push_row(vec![
                Value::Int(row),
                Value::Int(row % 100),
                Value::Str(format!("{row:=<40}")),
            ]);
        }
    }
    server
}

fn one_greedy_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("wide_configuration");
    group.sample_size(30);
    for width in [8, 64, 580] {
        let server = make_server(width);
        let target = TuningTarget::Single(&server);
        let items: Vec<WorkloadItem> = (0..HOT_TABLES)
            .map(|i| {
                let sql = format!("SELECT pad FROM t{i} WHERE a = {}", 7 * i);
                WorkloadItem::new("d", parse_statement(&sql).expect("valid SQL"))
            })
            .collect();
        let base = server.raw_configuration();
        assert_eq!(base.len(), width, "one constraint index per table");
        let set: Vec<StructureHandle> = (0..3)
            .map(|i| {
                let ix = Index::non_clustered("d", &format!("t{i}"), &["a"], &["pad"]);
                StructureHandle::new(PhysicalStructure::Index(ix))
            })
            .collect();
        let set: Vec<&StructureHandle> = set.iter().collect();

        let options = TuningOptions { storage_bytes: Some(u64::MAX), ..Default::default() };
        let assembler = Assembler::new(&base, &options, &server);
        let eval = CostEvaluator::new(&target, &items);
        let evaluate = || {
            let (cfg, _) = assembler.assemble(&set);
            eval.workload_cost(&cfg.expect("the set is feasible")).expect("costing succeeds")
        };
        let cold = evaluate();
        let calls = eval.whatif_calls();
        group.bench_function(&format!("width_{width}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(evaluate());
                }
            })
        });
        assert_eq!(evaluate().to_bits(), cold.to_bits());
        assert_eq!(eval.whatif_calls(), calls, "the measured evaluations all hit the cache");
    }
    group.finish();
}

criterion_group!(benches, one_greedy_evaluation);
criterion_main!(benches);
