//! End-to-end tests of the full tuning pipeline.

use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_core::{tune, workload_cost, AlignmentMode, FeatureSet, TuningOptions};
use dta_physical::{Configuration, Index, PhysicalStructure, RangePartitioning};
use dta_server::{Server, TuningTarget};
use dta_sql::parse_statement;
use dta_workload::{Workload, WorkloadItem};

/// A medium table with selective columns and a wide pad.
fn make_server() -> Server {
    server_with_fact_extras(&[])
}

/// [`make_server`] with more integer columns on `fact`, named `extras`.
fn server_with_fact_extras(extras: &[&str]) -> Server {
    let mut server = Server::new("prod");
    let mut db = Database::new("d");
    let mut fact_columns = vec![
        Column::new("k", ColumnType::BigInt),
        Column::new("a", ColumnType::Int),
        Column::new("g", ColumnType::Int),
        Column::new("m", ColumnType::Int),
        Column::new("val", ColumnType::Float),
        Column::new("pad", ColumnType::Str(80)),
    ];
    fact_columns.extend(extras.iter().map(|&c| Column::new(c, ColumnType::Int)));
    db.add_table(Table::new("fact", fact_columns).with_primary_key(&["k"])).unwrap();
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
        for i in 0..60_000i64 {
            let mut row = vec![
                Value::Int(i),
                Value::Int(i % 2000),
                Value::Int(i % 25),
                Value::Int(i % 12),
                Value::Float((i % 997) as f64),
                Value::Str(format!("{:=<80}", i)),
            ];
            row.extend((0..extras.len() as i64).map(|x| Value::Int(i % (31 + x))));
            t.push_row(row);
        }
        t.set_scale(50.0);
    }
    {
        let t = server.table_data_mut("d", "dim").unwrap();
        for i in 0..2000i64 {
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
    // templatized point queries
    for i in 0..40 {
        items.push(sel(&format!("SELECT pad FROM fact WHERE a = {}", i * 13 % 2000)));
    }
    // grouped reports with a month filter
    for i in 0..20 {
        items.push(sel(&format!(
            "SELECT g, COUNT(*), SUM(val) FROM fact WHERE m = {} GROUP BY g",
            i % 12
        )));
    }
    // join lookups
    for i in 0..15 {
        items.push(sel(&format!(
            "SELECT dname FROM fact, dim WHERE fact.a = dim.dk AND fact.k = {}",
            i * 100
        )));
    }
    Workload::from_items(items)
}

#[test]
fn tuning_improves_read_workload() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    let options = TuningOptions { parallel_workers: 2, ..Default::default() };
    let result = tune(&target, &workload, &options).expect("tuning succeeds");

    assert!(
        result.expected_improvement() > 0.5,
        "expected >50%% improvement, got {:.1}%\n{result}",
        result.expected_improvement() * 100.0
    );
    assert!(!result.recommendation.difference(&server.raw_configuration()).is_empty());
    assert!(result.whatif_calls > 0);
    assert!(result.stats_created <= result.stats_requested);

    // the improvement holds on the full workload, not just internally
    let base = server.raw_configuration();
    let full_base = workload_cost(&target, &workload, &base).unwrap();
    let full_rec = workload_cost(&target, &workload, &result.recommendation).unwrap();
    assert!(full_rec < full_base * 0.6, "full-workload check: {full_rec} !< 0.6 * {full_base}");
}

#[test]
fn storage_bound_respected_and_quality_degrades_gracefully() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();

    let unbounded =
        tune(&target, &workload, &TuningOptions { parallel_workers: 1, ..Default::default() })
            .unwrap();
    let tight = tune(
        &target,
        &workload,
        &TuningOptions { parallel_workers: 1, ..Default::default() }.with_storage_mb(40),
    )
    .unwrap();

    assert!(tight.storage_bytes <= 40 << 20, "storage {} over bound", tight.storage_bytes);
    assert!(unbounded.storage_bytes >= tight.storage_bytes);
    assert!(unbounded.expected_improvement() >= tight.expected_improvement() - 1e-9);
    // even bounded, something useful gets recommended
    assert!(tight.expected_improvement() > 0.1, "{}", tight.expected_improvement());
}

#[test]
fn update_heavy_workload_gets_no_new_structures() {
    // the CUST3 effect (§7.1): when updates dominate, DTA correctly
    // recommends nothing beyond the constraint indexes
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let mut items = Vec::new();
    for i in 0..80 {
        items.push(WorkloadItem::new(
            "d",
            parse_statement(&format!("UPDATE fact SET val = {} WHERE k = {}", i, i * 31 % 60_000))
                .unwrap(),
        ));
    }
    // a couple of cheap PK lookups
    for i in 0..5 {
        items.push(sel(&format!("SELECT val FROM fact WHERE k = {}", i * 7)));
    }
    let workload = Workload::from_items(items);
    let result =
        tune(&target, &workload, &TuningOptions { parallel_workers: 1, ..Default::default() })
            .unwrap();
    let added = result.recommendation.difference(&server.raw_configuration()).len();
    assert_eq!(added, 0, "expected no new structures:\n{}", result.recommendation);
}

#[test]
fn user_specified_configuration_is_honored() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    // the DBA insists fact is partitioned by month
    let user = Configuration::from_structures([PhysicalStructure::TablePartitioning {
        database: "d".into(),
        table: "fact".into(),
        scheme: RangePartitioning::new("m", (1..12).map(Value::Int).collect()),
    }]);
    let options = TuningOptions {
        parallel_workers: 1,
        user_specified: Some(user.clone()),
        ..Default::default()
    };
    let result = tune(&target, &workload, &options).unwrap();
    for s in user.iter() {
        assert!(
            result.recommendation.contains(s),
            "user-specified structure missing:\n{}",
            result.recommendation
        );
    }
}

#[test]
fn invalid_user_configuration_rejected() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    // two clusterings on one table: the paper's own invalid example
    let user = Configuration::from_structures([
        PhysicalStructure::Index(Index::clustered("d", "fact", &["a"])),
        PhysicalStructure::Index(Index::clustered("d", "fact", &["g"])),
    ]);
    let options = TuningOptions { user_specified: Some(user), ..Default::default() };
    let err = tune(&target, &workload, &options);
    assert!(matches!(err, Err(dta_core::session::TuneError::InvalidUserConfiguration(_))));
}

#[test]
fn alignment_produces_aligned_recommendation() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    let options =
        TuningOptions { parallel_workers: 1, alignment: AlignmentMode::Lazy, ..Default::default() };
    let result = tune(&target, &workload, &options).unwrap();
    assert!(
        result.recommendation.is_aligned(),
        "recommendation not aligned:\n{}",
        result.recommendation
    );
    // alignment is a constraint: quality should be in the same ballpark
    // as unconstrained tuning (greedy search is not strictly monotone, so
    // allow wiggle in both directions)
    let free =
        tune(&target, &workload, &TuningOptions { parallel_workers: 1, ..Default::default() })
            .unwrap();
    assert!(result.expected_improvement() > 0.3);
    assert!((free.expected_improvement() - result.expected_improvement()).abs() < 0.25);
}

#[test]
fn feature_subsets_restrict_recommendation() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    let options = TuningOptions {
        parallel_workers: 1,
        features: FeatureSet::indexes_only(),
        ..Default::default()
    };
    let result = tune(&target, &workload, &options).unwrap();
    for s in result.recommendation.iter() {
        assert!(
            matches!(s, PhysicalStructure::Index(_)),
            "non-index structure recommended with indexes-only: {s:?}"
        );
    }
}

#[test]
fn compression_preserves_quality_and_cuts_work() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();

    let with = tune(
        &target,
        &workload,
        &TuningOptions { parallel_workers: 1, compress: true, ..Default::default() },
    )
    .unwrap();
    let without = tune(
        &target,
        &workload,
        &TuningOptions { parallel_workers: 1, compress: false, ..Default::default() },
    )
    .unwrap();

    assert!(with.statements_tuned < without.statements_tuned);

    // quality measured on the full workload is nearly identical
    let base = server.raw_configuration();
    let base_cost = workload_cost(&target, &workload, &base).unwrap();
    let q_with = 1.0 - workload_cost(&target, &workload, &with.recommendation).unwrap() / base_cost;
    let q_without =
        1.0 - workload_cost(&target, &workload, &without.recommendation).unwrap() / base_cost;
    assert!(
        q_without - q_with < 0.05,
        "compression lost too much quality: {q_with:.3} vs {q_without:.3}"
    );
}

#[test]
fn work_budget_limits_work() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    let unbounded =
        tune(&target, &workload, &TuningOptions { parallel_workers: 1, ..Default::default() })
            .unwrap();
    let tiny_budget =
        TuningOptions { parallel_workers: 1, work_budget_units: Some(200), ..Default::default() };
    let result = tune(&target, &workload, &tiny_budget).unwrap();
    // the budgeted run stops early: strictly less overhead than the full
    // run, and the interruption is reported
    assert!(
        result.tuning_work_units < unbounded.tuning_work_units,
        "budgeted {} !< unbounded {}",
        result.tuning_work_units,
        unbounded.tuning_work_units
    );
    assert!(
        matches!(result.completion, dta_core::Completion::BudgetExhausted { .. }),
        "{:?}",
        result.completion
    );
    assert!(result.checkpoint.is_some(), "budget-exhausted run carries a checkpoint");
}

#[test]
fn evaluate_mode_reports_changes() {
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let workload = read_workload();
    let current = server.raw_configuration();
    let proposed = current.union(&Configuration::from_structures([PhysicalStructure::Index(
        Index::non_clustered("d", "fact", &["a"], &["pad"]),
    )]));
    let report = dta_core::evaluate_configuration(&target, &workload, &current, &proposed).unwrap();
    assert!(report.change_percent() < -10.0, "change {}", report.change_percent());
    assert_eq!(report.statements.len(), workload.len());
    let usage = report.structure_usage();
    assert!(usage.iter().any(|(name, n)| name.contains("idx_fact_a") && *n > 0), "{usage:?}");
}

#[test]
fn parallel_enumeration_matches_serial() {
    // the tentpole guarantee: parallel and serial tuning produce
    // byte-identical recommendations. Fresh servers per run so statistics
    // creation cannot leak state between the two.
    let workload = read_workload();
    let run = |workers: usize| {
        let server = make_server();
        let target = TuningTarget::Single(&server);
        tune(&target, &workload, &TuningOptions { parallel_workers: workers, ..Default::default() })
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(
        serial.recommendation.to_string(),
        parallel.recommendation.to_string(),
        "recommendations differ between 1 and 4 workers"
    );
    assert_eq!(serial.base_cost.to_bits(), parallel.base_cost.to_bits());
    assert_eq!(
        serial.recommended_cost.to_bits(),
        parallel.recommended_cost.to_bits(),
        "costs differ: {} vs {}",
        serial.recommended_cost,
        parallel.recommended_cost
    );
    assert_eq!(serial.storage_bytes, parallel.storage_bytes);
    assert_eq!(serial.whatif_calls, parallel.whatif_calls);
    assert_eq!(serial.evaluations, parallel.evaluations);
    assert_eq!(serial.candidates_selected, parallel.candidates_selected);
}

#[test]
fn shared_cache_reduces_whatif_calls() {
    use dta_core::candidates::{assemble_pool, select_candidates};
    use dta_core::colgroups::interesting_column_groups;
    use dta_core::cost::CostEvaluator;
    use dta_core::enumeration::{enumerate, enumeration_pool};
    use dta_core::merging::merge_candidates;
    use dta_core::SessionControl;
    use dta_stats::StatKey;
    use std::collections::BTreeSet;

    // compression off so the tuned items equal the workload items and the
    // replay below walks the identical pipeline
    let options = TuningOptions { parallel_workers: 1, compress: false, ..Default::default() };
    let workload = read_workload();

    // the session under test: one shared evaluator end to end
    let shared_server = make_server();
    let shared_target = TuningTarget::Single(&shared_server);
    let shared = tune(&shared_target, &workload, &options).unwrap();

    // replay of the pre-refactor layout on an identical fresh server:
    // three independent evaluators (pre-costs, selection, enumeration),
    // each with its own cold cache
    let server = make_server();
    let target = TuningTarget::Single(&server);
    let items = &workload.items;
    let base = server.raw_configuration();

    let pre_eval = CostEvaluator::new(&target, items);
    let mut pre_costs = Vec::with_capacity(items.len());
    for i in 0..items.len() {
        pre_costs.push(pre_eval.item_cost(i, &base).unwrap());
    }
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

    let enum_eval = CostEvaluator::new(&target, items);
    enum_eval.workload_cost(&base).unwrap();
    let enumeration = enumerate(
        &enum_eval,
        &base,
        &enumeration_pool(&pool.candidates, &options),
        &server,
        &options,
        &SessionControl::unlimited(),
        None,
        &dta_core::NoopObserver,
    )
    .result;

    let seed_layout_calls =
        pre_eval.whatif_calls() + sel_eval.whatif_calls() + enum_eval.whatif_calls();

    // both pipelines make the same decisions...
    assert_eq!(shared.recommendation.to_string(), enumeration.configuration.to_string());
    // ...but the shared cache answers strictly more of the questions
    assert!(
        shared.whatif_calls < seed_layout_calls,
        "shared {} !< three-evaluator layout {}",
        shared.whatif_calls,
        seed_layout_calls
    );
}

/// A session's cost must not depend on how wide its base configuration
/// is, only on the structures its statements can see: 500 user-specified
/// indexes on tables no statement references leave every deterministic
/// tally — and the recommendation, padding aside — where they were.
#[test]
fn padding_the_base_with_irrelevant_indexes_changes_nothing() {
    use dta_core::{tune_with_observer, Counter, RecordingObserver};

    let padded_server = || {
        let mut server = make_server();
        let mut db = Database::new("attic");
        for i in 0..500 {
            db.add_table(Table::new(format!("pad{i}"), vec![Column::new("k", ColumnType::Int)]))
                .unwrap();
        }
        server.create_database(db).unwrap();
        server
    };
    let padding: Vec<PhysicalStructure> = (0..500)
        .map(|i| {
            PhysicalStructure::Index(Index::non_clustered("attic", &format!("pad{i}"), &["k"], &[]))
        })
        .collect();
    let workload = read_workload();
    let tune_with = |user_specified: Option<Configuration>| {
        let server = padded_server();
        let options = TuningOptions {
            parallel_workers: 1,
            storage_bytes: Some(200_000_000),
            user_specified,
            ..Default::default()
        }
        .with_alignment();
        let obs = RecordingObserver::new();
        tune_with_observer(&TuningTarget::Single(&server), &workload, &options, &obs).unwrap()
    };

    let narrow = tune_with(None);
    let wide = tune_with(Some(Configuration::from_structures(padding.clone())));

    let unpadded: Configuration =
        wide.recommendation.iter().filter(|s| !padding.contains(s)).cloned().collect();
    assert_eq!(wide.recommendation.len(), unpadded.len() + 500, "the padding is kept");
    assert_eq!(unpadded, narrow.recommendation);
    assert!(narrow.recommendation.len() > 3, "the session recommends something");
    assert_eq!(wide.recommended_cost.to_bits(), narrow.recommended_cost.to_bits());
    assert_eq!(wide.whatif_calls, narrow.whatif_calls);
    assert_eq!(wide.evaluations, narrow.evaluations);
    assert_eq!(wide.lazy_variants, narrow.lazy_variants);
    assert_eq!(wide.tuning_work_units.to_bits(), narrow.tuning_work_units.to_bits());
    let (wide_obs, narrow_obs) = (wide.observer.unwrap(), narrow.observer.unwrap());
    for counter in [Counter::CacheHits, Counter::CacheMisses, Counter::WhatIfCalls] {
        assert_eq!(wide_obs.counter(counter), narrow_obs.counter(counter), "{counter:?}");
    }
    assert_eq!(wide_obs.shards, narrow_obs.shards);
}

/// The column-level twin: hundreds of user-specified non-clustered
/// indexes on `fact` itself — a table every statement reads — over
/// columns no statement names. None can lead a seek or probe, cover a
/// binding or need maintaining, so none is in any statement's projection:
/// the session makes the same calls, hits and misses as without them, and
/// pricing a configuration with them added is a cache hit throughout.
#[test]
fn padding_read_tables_with_indexes_on_unnamed_columns_changes_nothing() {
    use dta_core::cost::CostEvaluator;
    use dta_core::{tune_with_observer, Counter, RecordingObserver};

    // no name here shares a `ColumnMask` bit with a column a statement
    // names on `fact` (`x7` would, with `m`): a shared bit keeps an index
    // relevant, which costs calls but never a different answer
    let extras = ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x9"];
    let on_fact = |keys: &[&str], included: &[&str]| {
        PhysicalStructure::Index(Index::non_clustered("d", "fact", keys, included))
    };
    let mut padding: Vec<PhysicalStructure> = Vec::new();
    for (i, first) in extras.iter().enumerate() {
        for (j, second) in extras.iter().enumerate().filter(|(j, _)| *j != i) {
            padding.push(on_fact(&[first, second], &[]));
            for (_, third) in extras.iter().enumerate().filter(|(k, _)| *k != i && *k != j) {
                padding.push(on_fact(&[first, second], &[third]));
            }
        }
    }
    assert_eq!(padding.len(), 8 * 7 * 7);
    let workload = read_workload();
    let tune_with = |user_specified: Option<Configuration>| {
        let server = server_with_fact_extras(&extras);
        let options = TuningOptions {
            parallel_workers: 1,
            storage_bytes: Some(200_000_000),
            user_specified,
            ..Default::default()
        };
        let obs = RecordingObserver::new();
        tune_with_observer(&TuningTarget::Single(&server), &workload, &options, &obs).unwrap()
    };

    let narrow = tune_with(None);
    let wide = tune_with(Some(Configuration::from_structures(padding.clone())));

    let unpadded: Configuration =
        wide.recommendation.iter().filter(|s| !padding.contains(s)).cloned().collect();
    assert_eq!(wide.recommendation.len(), unpadded.len() + padding.len(), "the padding is kept");
    assert_eq!(unpadded, narrow.recommendation);
    assert!(narrow.recommendation.len() > 3, "the session recommends something");
    assert_eq!(wide.recommended_cost.to_bits(), narrow.recommended_cost.to_bits());
    assert_eq!(wide.whatif_calls, narrow.whatif_calls);
    assert_eq!(wide.evaluations, narrow.evaluations);
    assert_eq!(wide.tuning_work_units.to_bits(), narrow.tuning_work_units.to_bits());
    let (wide_obs, narrow_obs) = (wide.observer.unwrap(), narrow.observer.unwrap());
    for counter in [Counter::CacheHits, Counter::CacheMisses, Counter::WhatIfCalls] {
        assert_eq!(wide_obs.counter(counter), narrow_obs.counter(counter), "{counter:?}");
    }
    assert_eq!(wide_obs.shards, narrow_obs.shards);

    // the padding is in no fingerprint: adding it to what was priced hits
    let server = server_with_fact_extras(&extras);
    let target = TuningTarget::Single(&server);
    let eval = CostEvaluator::new(&target, &workload.items);
    let cost = eval.workload_cost(&narrow.recommendation).unwrap();
    let calls = eval.whatif_calls();
    let padded = narrow.recommendation.union(&Configuration::from_structures(padding));
    assert_eq!(eval.workload_cost(&padded).unwrap().to_bits(), cost.to_bits());
    assert_eq!(eval.whatif_calls(), calls, "every statement hit");
}
