//! `optimize_prepared` against the planner it replaced.
//!
//! [`oracle`] is the per-call planner as it stood: it binds on every
//! call, looks every estimate up by name and builds a node per join
//! candidate. Over every statement of the tpch / psoft / synt1 / cust1
//! seed workloads (plus aliased, self-joined and twice-listed tables),
//! under seeded random configurations — indexes, clusterings,
//! partitionings, matching and non-matching views — before and after
//! statistics are created, a preparation must plan to the same cost bit
//! for bit, the same plan and the same used structures.
//!
//! The same sweep holds the cost cache's relevance rule to the planner:
//! the configuration projected by [`PreparedStatement::column_use`] and
//! [`PreparedStatement::view_use`] must plan exactly as the whole
//! configuration. The views are aimed at each statement and most are off
//! by one thing the match rule tests, so the rule is held to both of its
//! sides. Named cases pin the shapes where an index sharing no column
//! with a binding, or a view the statement cannot read, still matters.

mod oracle;

use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_optimizer::query::{bind, canonical_agg_arg, BoundDml, BoundSelect, BoundStatement};
use dta_optimizer::{optimize_prepared, HardwareParams, PreparedStatement, WhatIfOptimizer};
use dta_physical::{
    table_key, ColumnUse, Configuration, Index, JoinPair, MaterializedView, PhysicalStructure,
    QualifiedColumn, RangePartitioning, StructureHandle, ViewAggregate,
};
use dta_server::Server;
use dta_sql::{parse_statement, AggFunc, Statement};
use dta_stats::{StatKey, StatisticsManager};
use dta_workload::cust::{self, CustId};
use dta_workload::tpch::{self, TpchScale};
use dta_workload::{psoft, synt1, WorkloadItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configurations priced per statement, per statistics state.
const CONFIGS: usize = 6;
/// Statements taken from the larger workloads.
const MAX_STATEMENTS: usize = 60;

struct Case {
    name: &'static str,
    server: Server,
    items: Vec<WorkloadItem>,
}

/// Aliases, self-joins (by alias and by listing a table twice), a cross
/// join, cross-table residuals: binder shapes the seed workloads are
/// thin on, over the TPC-H schema.
const TPCH_EXTRAS: &[&str] = &[
    "SELECT n1.n_name, n2.n_name FROM nation AS n1, nation AS n2 \
     WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_name = 'FRANCE'",
    "SELECT l.l_orderkey, SUM(l.l_extendedprice) FROM lineitem AS l, orders AS o \
     WHERE l.l_orderkey = o.o_orderkey AND o.o_orderdate < '1995-03-15' GROUP BY l.l_orderkey",
    "SELECT nation.n_name FROM nation, nation WHERE nation.n_regionkey = 1",
    "SELECT c_name FROM customer, region WHERE r_name = 'ASIA'",
    "SELECT s.s_name FROM supplier AS s, nation AS n, supplier AS s2 \
     WHERE s.s_nationkey = n.n_nationkey AND s2.s_nationkey = n.n_nationkey \
     AND s.s_acctbal > s2.s_acctbal",
    "SELECT o_orderpriority, COUNT(*) FROM orders AS o WHERE o.o_totalprice > 1000 \
     GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT TOP 5 p_brand FROM part AS p JOIN partsupp ON p.p_partkey = ps_partkey \
     WHERE ps_supplycost + 1 > p.p_retailprice ORDER BY p_brand",
    // bindings that name no column, and DML: where an index sharing no
    // column with the statement still changes its plan
    "SELECT COUNT(*) FROM supplier",
    "SELECT COUNT(*) FROM nation AS n1, nation AS n2 WHERE n1.n_regionkey = 2",
    "INSERT INTO nation VALUES (99, 'ATLANTIS', 1)",
    "DELETE FROM supplier WHERE s_acctbal < 0",
    "UPDATE supplier SET s_nationkey = 3 WHERE s_suppkey = 7",
];

fn cases() -> Vec<Case> {
    let first = |items: &[WorkloadItem]| items.iter().take(MAX_STATEMENTS).cloned().collect();
    let mut tpch_items = tpch::workload().items;
    for sql in TPCH_EXTRAS {
        let stmt = parse_statement(sql).expect("handwritten SQL parses");
        tpch_items.push(WorkloadItem::new(tpch::DB, stmt));
    }
    let psoft = psoft::build(0.05, 5);
    let synt1 = synt1::build(0.01, 5);
    let cust1 = cust::build(CustId::Cust1, 0.02, 5);
    vec![
        Case {
            name: "tpch",
            server: tpch::build_server(TpchScale::new(0.002, 1.0), 5),
            items: tpch_items,
        },
        Case { name: "psoft", items: first(&psoft.workload.items), server: psoft.server },
        Case { name: "synt1", items: first(&synt1.workload.items), server: synt1.server },
        Case { name: "cust1", items: first(&cust1.workload.items), server: cust1.server },
    ]
}

/// A copy of the server's statistics, so the optimizers read them
/// without holding the server's lock.
fn statistics(server: &Server) -> StatisticsManager {
    let mut stats = StatisticsManager::new();
    for db in server.catalog().databases() {
        stats.import(server.export_statistics(&db.name));
    }
    stats
}

fn pick<'x, T>(rng: &mut StdRng, from: &'x [T]) -> &'x T {
    &from[rng.gen_range(0..from.len())]
}

/// A few partition boundaries drawn from the column's stored values.
fn partitioning(
    rng: &mut StdRng,
    server: &Server,
    db: &str,
    table: &str,
    col: &str,
) -> RangePartitioning {
    let values: Vec<Value> = server
        .store()
        .table(db, table)
        .and_then(|d| d.column_by_name(col))
        .filter(|v| !v.is_empty())
        .map(|v| (0..rng.gen_range(1..5)).map(|_| pick(rng, v).clone()).collect())
        .unwrap_or_else(|| vec![Value::Int(10), Value::Int(1000)]);
    RangePartitioning::new(col, values)
}

/// What a statement reads, for aiming structures at it.
struct Shape {
    /// `(table, columns the statement references on it)`.
    tables: Vec<(String, Vec<String>)>,
    select: Option<BoundSelect>,
}

fn shape(server: &Server, db: &str, stmt: &Statement) -> Shape {
    match bind(server.catalog(), db, stmt) {
        Ok(BoundStatement::Select(s)) => Shape {
            tables: s
                .tables
                .iter()
                .map(|t| (t.table.clone(), s.referenced_for(&t.binding)))
                .collect(),
            select: Some(s),
        },
        Ok(BoundStatement::Dml(d)) => {
            let (table, cols) = match d {
                BoundDml::Insert { table, .. } => (table, Vec::new()),
                BoundDml::Update { table, set_columns, filter, .. } => (
                    table,
                    filter.referenced.into_iter().chain(set_columns.iter().cloned()).collect(),
                ),
                BoundDml::Delete { table, filter, .. } => {
                    (table, filter.referenced.into_iter().collect())
                }
            };
            Shape { tables: vec![(table, cols)], select: None }
        }
        Err(_) => Shape { tables: Vec::new(), select: None },
    }
}

/// One to three columns of `table`, leaning towards the ones the
/// statement reads (so that seeks, covering and index joins happen).
fn some_columns(rng: &mut StdRng, table: &Table, read: &[String], max: usize) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..max + 1) {
        let c = if !read.is_empty() && rng.gen_bool(0.7) {
            pick(rng, read).clone()
        } else {
            pick(rng, &table.columns).name.clone()
        };
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// Views over the statement's own join graph: grouped ones that answer
/// its grouping exactly or more finely, and a join view of what it reads.
fn matching_views(
    rng: &mut StdRng,
    server: &Server,
    db: &str,
    s: &BoundSelect,
    out: &mut Vec<PhysicalStructure>,
) {
    let qualify =
        |binding: &str, column: &str| s.table_of(binding).map(|t| QualifiedColumn::new(t, column));
    let tables: Vec<&str> = s.tables.iter().map(|t| t.table.as_str()).collect();
    let pairs: Vec<JoinPair> = s
        .joins
        .iter()
        .filter_map(|j| {
            Some(JoinPair::new(
                qualify(&j.left.binding, &j.left.column)?,
                qualify(&j.right.binding, &j.right.column)?,
            ))
        })
        .collect();
    let filtered: Vec<QualifiedColumn> =
        s.sargs.iter().filter_map(|g| qualify(&g.column.binding, &g.column.column)).collect();
    if s.is_aggregate() && rng.gen_bool(0.7) {
        let mut group_by: Vec<QualifiedColumn> =
            s.group_by.iter().filter_map(|g| qualify(&g.binding, &g.column)).collect();
        if rng.gen_bool(0.8) {
            group_by.extend(filtered.iter().cloned());
        }
        let mut aggregates = vec![ViewAggregate::count_star()];
        for a in &s.aggregates {
            if let Some((text, cols)) = a.arg_expr.as_ref().and_then(|e| canonical_agg_arg(s, e)) {
                let cols = cols.iter().filter_map(|c| qualify(&c.binding, &c.column)).collect();
                aggregates.push(ViewAggregate::expr(a.func, text, cols));
            }
        }
        let mut view = MaterializedView::grouped(db, &tables, pairs.clone(), group_by, aggregates);
        if !view.group_by.is_empty() && rng.gen_bool(0.3) {
            let on = pick(rng, &view.group_by).clone();
            view = view.partitioned(partitioning(rng, server, db, &on.table, &on.column));
        }
        out.push(PhysicalStructure::View(view));
    }
    if rng.gen_bool(0.4) {
        let projected = s
            .referenced
            .iter()
            .flat_map(|(b, cols)| cols.iter().filter_map(|c| qualify(b, c)))
            .collect();
        out.push(PhysicalStructure::View(MaterializedView::join_view(
            db, &tables, pairs, projected,
        )));
    }
}

/// A view aimed at the statement and, most of the time, off by one thing
/// the full-match rule tests. For a SELECT: its join graph less a pair or
/// a table, or plus a pair; a group-by finer than its grouping (which
/// needs re-aggregation) or missing a grouping or sarg column; aggregates
/// left out or stored under another function; an ungrouped view missing a
/// referenced column. For DML: a view of its table, perhaps joined to
/// another, which it maintains whatever the view holds.
fn near_view(
    rng: &mut StdRng,
    database: &Database,
    shape: &Shape,
    out: &mut Vec<PhysicalStructure>,
) {
    let db = database.name.as_str();
    let Some((first, _)) = shape.tables.first() else { return };
    let column_of = |rng: &mut StdRng, table: &str| {
        let name = database.table(table).map(|t| pick(rng, &t.columns).name.clone());
        QualifiedColumn::new(table, &name.unwrap_or_else(|| "missing".into()))
    };
    let Some(s) = &shape.select else {
        let joined = column_of(rng, first);
        let view = match rng.gen_range(0..3) {
            0 => MaterializedView::join_view(db, &[first], Vec::new(), vec![joined]),
            1 => MaterializedView::grouped(
                db,
                &[first],
                Vec::new(),
                vec![joined],
                vec![ViewAggregate::count_star()],
            ),
            _ => {
                let other = database.tables().nth(rng.gen_range(0..database.table_count()));
                let Some(other) = other.map(|t| t.name.as_str()) else { return };
                let pair = JoinPair::new(joined.clone(), column_of(rng, other));
                let sum = ViewAggregate::column(AggFunc::Sum, column_of(rng, first));
                MaterializedView::grouped(db, &[first, other], vec![pair], vec![joined], vec![sum])
            }
        };
        out.push(PhysicalStructure::View(view));
        return;
    };
    let qualify =
        |binding: &str, column: &str| s.table_of(binding).map(|t| QualifiedColumn::new(t, column));
    let mut tables: Vec<&str> = s.tables.iter().map(|t| t.table.as_str()).collect();
    let mut pairs: Vec<JoinPair> = s
        .joins
        .iter()
        .filter_map(|j| {
            Some(JoinPair::new(
                qualify(&j.left.binding, &j.left.column)?,
                qualify(&j.right.binding, &j.right.column)?,
            ))
        })
        .collect();
    match rng.gen_range(0..6) {
        0 if !pairs.is_empty() => {
            pairs.remove(rng.gen_range(0..pairs.len()));
        }
        1 if tables.len() > 1 => {
            tables.truncate(1);
            pairs.retain(|p| p.left.table == tables[0] && p.right.table == tables[0]);
        }
        2 => {
            let (l, r) = (*pick(rng, &tables), *pick(rng, &tables));
            pairs.push(JoinPair::new(column_of(rng, l), column_of(rng, r)));
        }
        _ => {}
    }
    let qualified = |columns: &mut dyn Iterator<Item = (&str, &str)>| -> Vec<QualifiedColumn> {
        columns.filter_map(|(b, c)| qualify(b, c)).collect()
    };
    let view = if s.is_aggregate() && rng.gen_bool(0.7) {
        let mut group_by =
            qualified(&mut s.group_by.iter().map(|g| (g.binding.as_str(), g.column.as_str())));
        if rng.gen_bool(0.7) {
            group_by.extend(qualified(
                &mut s.sargs.iter().map(|g| (g.column.binding.as_str(), g.column.column.as_str())),
            ));
        }
        if rng.gen_bool(0.4) {
            let finer = *pick(rng, &tables);
            let finer = column_of(rng, finer);
            group_by.push(finer);
        }
        if !group_by.is_empty() && rng.gen_bool(0.25) {
            group_by.remove(rng.gen_range(0..group_by.len()));
        }
        let mut aggregates = Vec::new();
        if rng.gen_bool(0.7) {
            aggregates.push(ViewAggregate::count_star());
        }
        for a in &s.aggregates {
            let Some((text, cols)) = a.arg_expr.as_ref().and_then(|e| canonical_agg_arg(s, e))
            else {
                continue;
            };
            let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count, AggFunc::Avg];
            let func = if rng.gen_bool(0.2) { *pick(rng, &funcs) } else { a.func };
            if rng.gen_bool(0.85) {
                let cols = cols.iter().filter_map(|c| qualify(&c.binding, &c.column)).collect();
                aggregates.push(ViewAggregate::expr(func, text, cols));
            }
        }
        MaterializedView::grouped(db, &tables, pairs, group_by, aggregates)
    } else {
        let mut projected = qualified(
            &mut s
                .referenced
                .iter()
                .flat_map(|(b, cols)| cols.iter().map(|c| (b.as_str(), c.as_str()))),
        );
        if !projected.is_empty() && rng.gen_bool(0.3) {
            projected.remove(rng.gen_range(0..projected.len()));
        }
        if rng.gen_bool(0.3) {
            let extra = *pick(rng, &tables);
            let extra = column_of(rng, extra);
            projected.push(extra);
        }
        MaterializedView::join_view(db, &tables, pairs, projected)
    };
    out.push(PhysicalStructure::View(view));
}

fn random_configuration(
    rng: &mut StdRng,
    server: &Server,
    db: &str,
    shape: &Shape,
) -> Configuration {
    let mut structures: Vec<PhysicalStructure> = Vec::new();
    let Some(database) = server.catalog().database(db) else { return Configuration::new() };
    for (name, read) in &shape.tables {
        let Some(table) = database.table(name) else { continue };
        if rng.gen_bool(0.35) {
            let keys = some_columns(rng, table, read, 2);
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let mut ix = Index::clustered(db, name, &keys);
            if rng.gen_bool(0.3) {
                let on = pick(rng, &table.columns).name.clone();
                ix = ix.partitioned(partitioning(rng, server, db, name, &on));
            }
            structures.push(PhysicalStructure::Index(ix));
        }
        for _ in 0..rng.gen_range(0..4) {
            let keys = some_columns(rng, table, read, 3);
            let included: Vec<String> = some_columns(rng, table, read, 3)
                .into_iter()
                .filter(|c| rng.gen_bool(0.6) && !keys.contains(c))
                .collect();
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let included: Vec<&str> = included.iter().map(String::as_str).collect();
            let mut ix = Index::non_clustered(db, name, &keys, &included);
            if rng.gen_bool(0.25) {
                let on = some_columns(rng, table, read, 1).remove(0);
                ix = ix.partitioned(partitioning(rng, server, db, name, &on));
            }
            structures.push(PhysicalStructure::Index(ix));
        }
        // an index leaning to columns the statement does not read,
        // perhaps partitioned on one it does: what the cost cache's
        // relevance rule is there to project away
        let unread: Vec<String> =
            table.columns.iter().map(|c| c.name.clone()).filter(|c| !read.contains(c)).collect();
        if !unread.is_empty() && rng.gen_bool(0.6) {
            let keys = some_columns(rng, table, &unread, 2);
            let included: Vec<String> = some_columns(rng, table, &unread, 2)
                .into_iter()
                .filter(|c| unread.contains(c) && !keys.contains(c))
                .collect();
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let included: Vec<&str> = included.iter().map(String::as_str).collect();
            let mut ix = Index::non_clustered(db, name, &keys, &included);
            if rng.gen_bool(0.25) {
                let on = pick(rng, &table.columns).name.clone();
                ix = ix.partitioned(partitioning(rng, server, db, name, &on));
            }
            structures.push(PhysicalStructure::Index(ix));
        }
        if rng.gen_bool(0.25) {
            let on = some_columns(rng, table, read, 1).remove(0);
            structures.push(PhysicalStructure::TablePartitioning {
                database: db.to_string(),
                table: name.clone(),
                scheme: partitioning(rng, server, db, name, &on),
            });
        }
    }
    if let Some(s) = &shape.select {
        matching_views(rng, server, db, s, &mut structures);
    }
    for _ in 0..rng.gen_range(0..4) {
        near_view(rng, database, shape, &mut structures);
    }
    // and something on a table the statement does not read
    if let Some(other) = database.tables().nth(rng.gen_range(0..database.table_count())) {
        let key = pick(rng, &other.columns).name.clone();
        structures.push(PhysicalStructure::Index(Index::non_clustered(
            db,
            &other.name,
            &[&key],
            &[],
        )));
    }
    Configuration::from_structures(structures)
}

/// Single- and multi-column statistics on what the statements read.
fn statistics_to_create(rng: &mut StdRng, shapes: &[(String, Shape)]) -> Vec<StatKey> {
    let mut keys: Vec<StatKey> = Vec::new();
    for (db, shape) in shapes {
        for (table, read) in &shape.tables {
            for c in read {
                if rng.gen_bool(0.6) {
                    keys.push(StatKey::new(db, table, &[c]));
                }
            }
            if read.len() > 1 && rng.gen_bool(0.5) {
                let (a, b) = (pick(rng, read), pick(rng, read));
                if a != b {
                    keys.push(StatKey::new(db, table, &[a, b]));
                }
            }
        }
        if let Some(s) = &shape.select {
            // what a group-count estimate looks for
            let table_of_all = s.group_by.first().and_then(|g| s.table_of(&g.binding));
            if let Some(t) = table_of_all.filter(|_| rng.gen_bool(0.5)) {
                let cols: Vec<&str> = s
                    .group_by
                    .iter()
                    .filter(|g| s.table_of(&g.binding) == Some(t))
                    .map(|g| g.column.as_str())
                    .collect();
                keys.push(StatKey::new(db, t, &cols));
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Plan `prep` under `config` projected as the cost cache projects it —
/// on the statement's tables, what [`PreparedStatement::column_use`]
/// says may serve it; of the views joining them, those
/// [`PreparedStatement::view_use`] accepts — and under the whole
/// configuration: the two must plan alike, to the bit. Returns how many
/// structures the column rule dropped (of those on the statement's
/// tables, [`ColumnUse::ALL`] each) and the projection.
fn projection_plans_alike(
    prep: &PreparedStatement,
    stmt: &Statement,
    config: &Configuration,
    context: &str,
) -> (usize, Configuration) {
    let mut keys: Vec<u64> =
        stmt.referenced_tables().into_iter().map(|t| table_key(prep.database(), t)).collect();
    keys.sort_unstable();
    keys.dedup();
    let uses: Vec<(u64, ColumnUse)> = keys.iter().map(|&k| (k, prep.column_use(k))).collect();
    let by_table: Vec<(u64, ColumnUse)> = keys.iter().map(|&k| (k, ColumnUse::ALL)).collect();
    let on_tables = |uses: &[(u64, ColumnUse)]| {
        let kept = |h: &&StructureHandle| {
            !matches!(h.structure(), PhysicalStructure::View(_)) && h.relevant_to(uses)
        };
        config.handles().iter().filter(kept).count()
    };
    let column_dropped = on_tables(&by_table) - on_tables(&uses);
    let views = prep.view_use();
    let narrow = config.project(|h| {
        h.relevant_to(&uses)
            && match h.structure() {
                PhysicalStructure::View(v) => views.admits(v),
                _ => true,
            }
    });
    match (optimize_prepared(prep, config), optimize_prepared(prep, &narrow)) {
        (Ok(w), Ok(n)) => {
            assert_eq!(n.cost.to_bits(), w.cost.to_bits(), "projected cost of {context}");
            assert_eq!(n.est_rows.to_bits(), w.est_rows.to_bits(), "rows of {context}");
            assert_eq!(n.to_string(), w.to_string(), "projected plan of {context}");
            assert_eq!(n.used_structures(), w.used_structures(), "{context}");
        }
        (Err(w), Err(n)) => assert_eq!(n, w, "{context}"),
        (w, n) => panic!("{context}: {w:?} vs {n:?}"),
    }
    (column_dropped, narrow)
}

/// What [`compare_all`] saw the planners and the relevance rule do.
#[derive(Default, Clone, Copy)]
struct Seen {
    /// Plans that scan a view, re-aggregate one, join by index nested
    /// loops, or read a non-clustered index.
    views: usize,
    reaggregated: usize,
    index_joins: usize,
    indexes: usize,
    /// Structures on the statement's tables the column rule dropped,
    /// views the view rule dropped; views it kept for a SELECT and for
    /// DML.
    dropped_indexes: usize,
    dropped_views: usize,
    kept_views: usize,
    maintained_views: usize,
}

/// Price every item under fresh random configurations with both
/// planners, and with the relevant projection against the whole
/// configuration.
fn compare_all(case: &Case, shapes: &[(String, Shape)], rng: &mut StdRng, seen: &mut Seen) {
    let stats = statistics(&case.server);
    let hardware = HardwareParams { cpus: 4, memory_bytes: 8 << 20 };
    let catalog = case.server.catalog();
    let prepared = WhatIfOptimizer::new(catalog, &stats, &case.server, hardware);
    let per_call = oracle::PerCallOptimizer::new(catalog, &stats, &case.server, hardware);
    for (item, (db, shape)) in case.items.iter().zip(shapes) {
        let prep = prepared.prepare(db, &item.statement);
        for c in 0..CONFIGS {
            let config = match c {
                0 => case.server.raw_configuration(),
                _ => random_configuration(rng, &case.server, db, shape),
            };
            let expect = per_call.optimize(db, &item.statement, &config);
            let got = optimize_prepared(&prep, &config);
            let context = format!("{}: `{}` under {config}", case.name, item.statement);
            let (column_dropped, narrow) =
                projection_plans_alike(&prep, &item.statement, &config, &context);
            let views = |c: &Configuration| {
                c.iter().filter(|s| matches!(s, PhysicalStructure::View(_))).count()
            };
            let (all_views, kept_views) = (views(&config), views(&narrow));
            seen.dropped_views += all_views - kept_views;
            seen.dropped_indexes += column_dropped;
            match shape.select {
                Some(_) => seen.kept_views += kept_views,
                None => seen.maintained_views += kept_views,
            }
            match (expect, got) {
                (Ok(expect), Ok(got)) => {
                    assert_eq!(got.cost.to_bits(), expect.cost.to_bits(), "cost of {context}");
                    assert_eq!(got.est_rows.to_bits(), expect.est_rows.to_bits(), "{context}");
                    assert_eq!(got.to_string(), expect.to_string(), "plan of {context}");
                    assert_eq!(got.used_structures(), expect.used_structures(), "{context}");
                    assert_eq!(got, expect, "plan tree of {context}");
                    // and the one-call entry point is the same planner
                    let one_call = prepared.optimize(db, &item.statement, &config);
                    assert_eq!(one_call.as_ref(), Ok(&got), "{context}");
                    let text = got.to_string();
                    seen.views += usize::from(text.contains("ViewScan"));
                    seen.reaggregated +=
                        usize::from(text.contains("ViewScan") && text.contains("HashAggregate"));
                    seen.index_joins += usize::from(text.contains("IndexNLJoin"));
                    seen.indexes +=
                        usize::from(text.contains("Seek") || text.contains("CoveringScan"));
                }
                (Err(expect), Err(got)) => assert_eq!(got, expect, "{context}"),
                (expect, got) => panic!("{context}: {expect:?} vs {got:?}"),
            }
        }
    }
}

#[test]
fn prepared_plans_equal_per_call_plans() {
    let mut rng = StdRng::seed_from_u64(0xD7A);
    for case in cases() {
        let shapes: Vec<(String, Shape)> = case
            .items
            .iter()
            .map(|i| (i.database.clone(), shape(&case.server, &i.database, &i.statement)))
            .collect();
        let mut seen = Seen::default();
        compare_all(&case, &shapes, &mut rng, &mut seen);
        let created = case.server.create_statistics(&statistics_to_create(&mut rng, &shapes));
        assert!(created.created > 0, "{}: statistics were created", case.name);
        compare_all(&case, &shapes, &mut rng, &mut seen);
        // the configurations reach the planner's branches and both sides
        // of the rule
        let Seen { views, reaggregated, index_joins, indexes, .. } = seen;
        let Seen { dropped_indexes, dropped_views, kept_views, maintained_views, .. } = seen;
        let name = case.name;
        assert!(indexes > 20, "{name}: {indexes} plans used an index");
        assert!(
            views > 10 && reaggregated > 5,
            "{name}: {views} views, {reaggregated} re-aggregated"
        );
        assert!(dropped_indexes > 100, "{name}: {dropped_indexes} indexes dropped");
        assert!(dropped_views > 100 && kept_views > 20, "{name}: {dropped_views} views dropped");
        if name == "tpch" || name == "psoft" {
            assert!(maintained_views > 10, "{name}: DML kept {maintained_views} views");
        }
        if name == "tpch" {
            assert!(index_joins > 10, "tpch: {index_joins} INL");
        }
    }
}

#[test]
fn sizing_estimates_equal_per_call_estimates() {
    let mut rng = StdRng::seed_from_u64(0x51E);
    let case = cases().swap_remove(0);
    let shapes: Vec<(String, Shape)> = case
        .items
        .iter()
        .map(|i| (i.database.clone(), shape(&case.server, &i.database, &i.statement)))
        .collect();
    case.server.create_statistics(&statistics_to_create(&mut rng, &shapes));
    let stats = statistics(&case.server);
    let hardware = HardwareParams::default();
    let catalog = case.server.catalog();
    let prepared = WhatIfOptimizer::new(catalog, &stats, &case.server, hardware);
    let per_call = oracle::PerCallOptimizer::new(catalog, &stats, &case.server, hardware);
    let mut views = Vec::new();
    for (db, shape) in &shapes {
        if let Some(s) = &shape.select {
            for _ in 0..4 {
                matching_views(&mut rng, &case.server, db, s, &mut views);
            }
        }
    }
    assert!(views.len() > 40);
    for v in &views {
        let PhysicalStructure::View(v) = v else { continue };
        assert_eq!(prepared.view_rows(v), per_call.view_rows(v), "rows of {}", v.name());
    }
}

/// `t(a, b, c, z, pad)` — rows wide enough that a narrow index covering
/// them is worth scanning — and `u(k, v)`, filled, in database `db`.
fn small_server() -> Server {
    let mut server = Server::new("small");
    let mut db = Database::new("db");
    let columns = |names: &[&str]| names.iter().map(|&c| Column::new(c, ColumnType::Int)).collect();
    let mut t_columns: Vec<Column> = columns(&["a", "b", "c", "z"]);
    t_columns.push(Column::new("pad", ColumnType::Str(200)));
    db.add_table(Table::new("t", t_columns)).unwrap();
    db.add_table(Table::new("u", columns(&["k", "v"]))).unwrap();
    server.create_database(db).unwrap();
    let t = server.table_data_mut("db", "t").unwrap();
    for i in 0..4000i64 {
        let mut row = [i % 50, i, i % 7, i % 13].map(Value::Int).to_vec();
        row.push(Value::Str(format!("{i:-<200}")));
        t.push_row(row);
    }
    let u = server.table_data_mut("db", "u").unwrap();
    for i in 0..200i64 {
        u.push_row([i, i % 9].map(Value::Int).to_vec());
    }
    server
}

/// The shapes the column rule must get right, each with the indexes it
/// must keep and those it may drop: a dropped index the planner would
/// have read fails the plan comparison, a kept one is checked by name.
#[test]
fn column_relevance_keeps_every_index_the_planner_reads() {
    let nc = |keys: &[&str], included: &[&str]| Index::non_clustered("db", "t", keys, included);
    let split_on = |column: &str| RangePartitioning::new(column, vec![Value::Int(3)]);
    let cases: &[(&str, &str, Vec<Index>, &[usize])] = &[
        // nothing required: every index covers
        ("count(*)", "SELECT COUNT(*) FROM t", vec![nc(&["z"], &[])], &[0]),
        (
            "self-join, one binding naming no column",
            "SELECT p.a FROM t AS p, t AS q WHERE p.b = 3",
            vec![nc(&["z"], &[]), nc(&["b"], &["a"])],
            &[0, 1],
        ),
        ("INSERT target", "INSERT INTO t VALUES (1, 2, 3, 4)", vec![nc(&["z"], &[])], &[0]),
        ("DELETE target", "DELETE FROM t WHERE a = 3", vec![nc(&["z"], &[])], &[0]),
        (
            "UPDATE of an index's partitioning column",
            "UPDATE t SET c = 1 WHERE a = 3",
            vec![nc(&["z"], &[]).partitioned(split_on("c")), nc(&["z"], &[])],
            &[0],
        ),
        (
            "INL inner index led by the join column",
            "SELECT t.b FROM u, t WHERE t.z = u.k AND u.v = 1",
            vec![nc(&["z"], &[]), nc(&["c", "z"], &[]), nc(&["a"], &["b", "z"])],
            &[0, 2],
        ),
        ("unbindable", "SELECT zzz FROM t", vec![nc(&["z"], &[])], &[0]),
    ];
    let server = small_server();
    for (name, sql, indexes, kept) in cases {
        let stmt = parse_statement(sql).expect("handwritten SQL parses");
        let prep = server.prepare("db", &stmt);
        let config =
            Configuration::from_structures(indexes.iter().cloned().map(PhysicalStructure::Index));
        let (_, narrow) = projection_plans_alike(&prep, &stmt, &config, name);
        let kept: Vec<&Index> = kept.iter().map(|&i| &indexes[i]).collect();
        let narrow: Vec<&Index> = narrow.indexes_on("db", "t").collect();
        assert_eq!(narrow, kept, "{name}: what the column rule keeps");
    }
}

/// The shapes the view rule must get right, each with the views it must
/// keep: a SELECT keeps exactly the views that answer it, DML and an
/// unbindable statement keep every view joining their table.
#[test]
fn view_relevance_keeps_every_view_the_planner_reads() {
    let qc = |c: &str| QualifiedColumn::new("t", c);
    let grouped = |by: &[&str], aggregates: Vec<ViewAggregate>| {
        MaterializedView::grouped(
            "db",
            &["t"],
            Vec::new(),
            by.iter().map(|c| qc(c)).collect(),
            aggregates,
        )
    };
    let count = ViewAggregate::count_star;
    let views = [
        // 0: groups more finely than `GROUP BY a` and produces `b`
        grouped(&["a", "b"], vec![count()]),
        // 1: lacks the sarg column `b`
        grouped(&["a"], vec![count()]),
        // 2: no COUNT(*) to re-aggregate
        grouped(&["a", "b"], vec![ViewAggregate::column(AggFunc::Sum, qc("c"))]),
        // 3: the raw rows of what the statements read
        MaterializedView::join_view("db", &["t"], Vec::new(), vec![qc("a"), qc("b")]),
        // 4: another join graph
        MaterializedView::grouped(
            "db",
            &["t", "u"],
            vec![JoinPair::new(qc("a"), QualifiedColumn::new("u", "k"))],
            vec![qc("a"), qc("b")],
            vec![count()],
        ),
    ];
    let cases: &[(&str, &str, &[usize])] = &[
        ("grouped", "SELECT a, COUNT(*) FROM t WHERE b = 3 GROUP BY a", &[0, 3]),
        ("ungrouped", "SELECT a FROM t WHERE b = 3", &[3]),
        ("self-join", "SELECT p.a FROM t AS p, t AS q WHERE p.b = 3", &[]),
        ("INSERT target", "INSERT INTO t VALUES (1, 2, 3, 4)", &[0, 1, 2, 3, 4]),
        ("DELETE target", "DELETE FROM t WHERE a = 3", &[0, 1, 2, 3, 4]),
        ("UPDATE of no view's column", "UPDATE t SET z = 1 WHERE a = 3", &[0, 1, 2, 3, 4]),
        ("unbindable", "SELECT zzz FROM t", &[0, 1, 2, 3, 4]),
    ];
    let server = small_server();
    let config = Configuration::from_structures(views.iter().cloned().map(PhysicalStructure::View));
    for (name, sql, kept) in cases {
        let stmt = parse_statement(sql).expect("handwritten SQL parses");
        let prep = server.prepare("db", &stmt);
        let (_, narrow) = projection_plans_alike(&prep, &stmt, &config, name);
        let kept: Vec<&MaterializedView> = kept.iter().map(|&i| &views[i]).collect();
        let narrow: Vec<&MaterializedView> = narrow.views("db").collect();
        assert_eq!(narrow, kept, "{name}: what the view rule keeps");
    }
}
