//! The what-if optimization facade.
//!
//! `optimize(database, statement, configuration)` returns the estimated
//! best plan *as if* the configuration were materialized — no structure
//! needs to exist physically. This is the interface DTA calls for every
//! (query, configuration) evaluation, and the hardware parameters are
//! explicit so a test server can impersonate a production server (§5.3).
//!
//! Optimizing is *prepare, then plan*: [`WhatIfOptimizer::prepare`] binds
//! the statement and resolves every estimate no configuration can change
//! (see [`crate::prepared`]); [`optimize_prepared`] plans a preparation
//! under one configuration. A caller pricing one statement under many
//! configurations prepares once; `optimize` does both for a single call.

use crate::access::{
    best_access, recorded_access, AccessChoice, KeyOrder, Partitioned, Picks, PlanContext,
    Recording, CPU_W,
};
use crate::dml::plan_dml;
use crate::hardware::HardwareParams;
use crate::join::{plan_joins, JoinResult};
use crate::plan::{Plan, PlanNode};
use crate::prepared::{
    standalone_view_rows, Prepared, PreparedSelect, PreparedStatement, PreparedTable, Sources,
};
use crate::provider::TableStatsProvider;
use crate::query::{BindError, BoundSelect};
use crate::views::view_plans;
use dta_catalog::Catalog;
use dta_physical::{Configuration, MaterializedView};
use dta_sql::Statement;
use dta_stats::StatisticsManager;
use dta_storage::PAGE_SIZE;
use std::sync::Arc;

/// The what-if optimizer: stateless over borrowed server state.
pub struct WhatIfOptimizer<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a StatisticsManager,
    pub sizes: &'a dyn TableStatsProvider,
    pub hardware: HardwareParams,
}

impl<'a> WhatIfOptimizer<'a> {
    /// Construct over server state.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a StatisticsManager,
        sizes: &'a dyn TableStatsProvider,
        hardware: HardwareParams,
    ) -> Self {
        Self { catalog, stats, sizes, hardware }
    }

    fn sources<'s>(&'s self, database: &'s str) -> Sources<'s> {
        Sources { catalog: self.catalog, stats: self.stats, sizes: self.sizes, database }
    }

    /// Bind a statement and estimate everything about it that depends on
    /// this optimizer's catalog, statistics, sizes and hardware only. The
    /// result stays valid until one of those changes.
    pub fn prepare(&self, database: &str, stmt: &Statement) -> PreparedStatement {
        PreparedStatement::new(&self.sources(database), self.hardware, stmt)
    }

    /// Optimize a statement under a hypothetical configuration.
    pub fn optimize(
        &self,
        database: &str,
        stmt: &Statement,
        config: &Configuration,
    ) -> Result<Plan, BindError> {
        optimize_prepared(&self.prepare(database, stmt), config)
    }

    /// Estimated logical row count of a materialized view (used for
    /// storage sizing of hypothetical views).
    pub fn view_rows(&self, view: &MaterializedView) -> u64 {
        standalone_view_rows(&self.sources(&view.database), view) as u64
    }
}

/// Plan a prepared statement under a hypothetical configuration: the
/// estimated best plan as if the configuration were materialized. The
/// plan records the path it picked for each table binding
/// ([`Plan::picks`]).
pub fn optimize_prepared(
    prep: &PreparedStatement,
    config: &Configuration,
) -> Result<Plan, BindError> {
    let ctx = prep.context(config);
    Ok(plan_body(&ctx, prep.body()?, |t| best_access(&ctx, t)))
}

/// Plan a statement under `config` as [`optimize_prepared`] does, but read
/// each table binding by the path [`best_access`] would pick when the
/// recorded paths hold every path it could: the first of the cheapest
/// recorded paths in configuration order. A binding's recorded paths are
/// its pick in `base` and the position under `config` of each index in
/// `wins` whose binding mask holds it (bit `b` for the `b`-th binding, in
/// the order [`crate::Picks`] records them). Only the recorded paths are
/// costed; the rest of the plan — join order, hash and index-nested-loop
/// costing with their probes, grouping, order, TOP and view rewrites, or
/// the maintenance sum — is the planner's own. An INSERT, which picks no
/// path, is its maintenance sum under `config`. `None` when the statement
/// does not bind, when `base` records another number of bindings, or when
/// a recorded path is not one `config` offers.
pub fn derive_prepared(
    prep: &PreparedStatement,
    config: &Configuration,
    base: Picks,
    wins: impl Iterator<Item = (u8, u8)> + Clone,
) -> Option<Plan> {
    let ctx = prep.context(config);
    let body = prep.body().ok()?;
    if body.bindings().len() != base.as_slice().len() {
        return None;
    }
    // the planner picks once per binding, in binding order
    let mut first = base.as_slice().iter().enumerate();
    let mut offered = true;
    let plan = plan_body(&ctx, body, |t| {
        let (b, &first) = first.next().expect("one recorded pick per binding");
        let won = wins.clone().filter(move |&(_, mask)| mask >> b & 1 == 1);
        recorded_access(&ctx, t, first, won.map(|(p, _)| p)).unwrap_or_else(|| {
            // a recorded path the configuration does not offer
            offered = false;
            best_access(&ctx, t)
        })
    });
    offered.then_some(plan)
}

/// Plan `body`, reading each table binding by the path `pick` chooses
/// for it, and record what it chose.
fn plan_body<'a>(
    ctx: &PlanContext<'a>,
    body: &'a Prepared,
    mut pick: impl FnMut(&PreparedTable) -> AccessChoice<'a>,
) -> Plan {
    let mut picks = Recording::default();
    let mut recorded = |t: &PreparedTable| {
        let choice = pick(t);
        picks.push(choice.position);
        choice
    };
    let root = match body {
        Prepared::Select(q) => plan_select(ctx, q, plan_joins(ctx, q, &mut recorded)),
        Prepared::Dml(d) => plan_dml(ctx, d, &mut recorded),
    };
    Plan::picked(root, picks.finish())
}

/// Plan a SELECT end to end from its base plan — the join of its tables
/// — considering view rewrites.
fn plan_select<'a>(
    ctx: &PlanContext<'a>,
    q: &'a PreparedSelect,
    state: JoinResult<'a>,
) -> PlanNode {
    let bound = &q.bound;
    let base = finish_select(ctx, q, state.node, state.order, state.partitioned_on, state.width);

    let mut best = base;
    for vp in view_plans(ctx, q) {
        let width = vp.width as f64;
        let candidate = if bound.is_aggregate() && !vp.answers_grouping {
            // re-aggregate over the finer-grained view
            let scan_rows = vp.scan.est_rows();
            let scan_cost = vp.scan.est_cost();
            let groups = q.groups.count(scan_rows);
            let agg = PlanNode::HashAggregate {
                input: Box::new(vp.scan),
                group_by: Arc::clone(&bound.group_by),
                est_rows: groups,
                est_cost: scan_cost + (scan_rows * 1.5 + groups) * CPU_W,
            };
            finish_order_top(ctx, bound, agg, KeyOrder::default(), groups * 24.0)
        } else if bound.is_aggregate() {
            // the view already answers the grouping
            finish_order_top(ctx, bound, vp.scan, KeyOrder::default(), width)
        } else {
            // ungrouped join view feeding a possibly-distinct/sorted query
            finish_select(ctx, q, vp.scan, KeyOrder::default(), None, width)
        };
        if candidate.est_cost() < best.est_cost() {
            best = candidate;
        }
    }
    best
}

/// Add grouping, distinct, order and top over a join result.
fn finish_select(
    ctx: &PlanContext<'_>,
    q: &PreparedSelect,
    node: PlanNode,
    order: KeyOrder<'_>,
    partitioned_on: Option<Partitioned<'_>>,
    width: f64,
) -> PlanNode {
    let bound = &q.bound;
    let mut node = node;
    let mut order = order;
    let mut width = width;

    if bound.is_aggregate() {
        let input_rows = node.est_rows();
        let input_cost = node.est_cost();
        if bound.group_by.is_empty() {
            // scalar aggregate (the group-by list is empty)
            node = PlanNode::StreamAggregate {
                input: Box::new(node),
                group_by: Arc::clone(&bound.group_by),
                est_rows: 1.0,
                est_cost: input_cost + input_rows * CPU_W,
            };
            order = KeyOrder::default();
            width = 8.0 * (bound.aggregates.len().max(1)) as f64;
        } else {
            let groups = q.groups.count(input_rows);
            let out_width =
                bound.group_by.len() as f64 * 8.0 + bound.aggregates.len() as f64 * 8.0 + 9.0;
            let stream_ok = order.covers_set(&bound.group_by);
            if stream_ok {
                node = PlanNode::StreamAggregate {
                    input: Box::new(node),
                    group_by: Arc::clone(&bound.group_by),
                    est_rows: groups,
                    est_cost: input_cost + input_rows * CPU_W,
                };
                order = order.truncated(bound.group_by.len());
            } else {
                // hash aggregation, with partition-wise memory relief when
                // the input is partitioned on one of the grouping columns
                let mut mem = ctx.hardware.memory_bytes as f64;
                if let Some(p) = partitioned_on {
                    if bound.group_by.iter().any(|g| p.is_on(g)) {
                        mem *= p.scheme.partition_count() as f64;
                    }
                }
                let bytes = groups * out_width;
                let mut cost = input_cost + (input_rows * 1.5 + groups) * CPU_W;
                if bytes > mem {
                    cost += 2.0 * bytes / PAGE_SIZE as f64;
                }
                node = PlanNode::HashAggregate {
                    input: Box::new(node),
                    group_by: Arc::clone(&bound.group_by),
                    est_rows: groups,
                    est_cost: cost,
                };
                order = KeyOrder::default();
            }
            width = out_width;
        }
    } else if bound.distinct {
        let input_rows = node.est_rows();
        let input_cost = node.est_cost();
        let groups = (input_rows * 0.5).max(1.0);
        // (a DISTINCT query that does not aggregate groups by nothing)
        node = PlanNode::HashAggregate {
            input: Box::new(node),
            group_by: Arc::clone(&bound.group_by),
            est_rows: groups,
            est_cost: input_cost + (input_rows * 1.5 + groups) * CPU_W,
        };
        order = KeyOrder::default();
    }

    finish_order_top(ctx, bound, node, order, width)
}

/// Add ORDER BY / TOP handling over a (possibly aggregated) stream.
fn finish_order_top(
    ctx: &PlanContext<'_>,
    bound: &BoundSelect,
    node: PlanNode,
    order: KeyOrder<'_>,
    width: f64,
) -> PlanNode {
    let mut node = node;
    if !bound.order_by.is_empty() && !order.satisfies(&bound.order_by) {
        let n = node.est_rows();
        let input_cost = node.est_cost();
        let limit = bound.top.map(|t| t as f64).unwrap_or(n);
        let cmp_target = limit.max(2.0);
        let cpu = n * cmp_target.log2().max(1.0);
        let bytes = n * width;
        let mut cost = input_cost + cpu * CPU_W;
        if bound.top.is_none() && bytes > ctx.hardware.memory_bytes as f64 {
            cost += 2.0 * bytes / PAGE_SIZE as f64;
        }
        node = PlanNode::Sort {
            input: Box::new(node),
            keys: Arc::clone(&bound.order_by),
            est_rows: n,
            est_cost: cost,
        };
    }
    if let Some(t) = bound.top {
        let rows = node.est_rows().min(t as f64);
        let cost = node.est_cost();
        node = PlanNode::Top { input: Box::new(node), n: t, est_rows: rows, est_cost: cost };
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FixedSizes;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};
    use dta_physical::{
        Index, PhysicalStructure, QualifiedColumn, RangePartitioning, StructureHandle,
        ViewAggregate,
    };
    use dta_sql::parse_statement;
    use dta_stats::histogram::Histogram;
    use dta_stats::{StatKey, Statistic};

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("x", ColumnType::Int),
                Column::new("pad", ColumnType::Str(80)),
            ],
        ))
        .unwrap();
        db.add_table(Table::new(
            "u",
            vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Int)],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn stats() -> StatisticsManager {
        let mut m = StatisticsManager::new();
        // x uniform over 0..1000 (1M rows); a has 100 distinct values
        m.add(Statistic {
            key: StatKey::new("db", "t", &["x"]),
            histogram: Histogram::build((0..1000).map(Value::Int).collect()),
            densities: vec![0.001],
            row_count: 1_000_000,
            sample_rows: 1000,
        });
        m.add(Statistic {
            key: StatKey::new("db", "t", &["a"]),
            histogram: Histogram::build((0..1000).map(|i| Value::Int(i % 100)).collect()),
            densities: vec![0.01],
            row_count: 1_000_000,
            sample_rows: 1000,
        });
        m
    }

    fn sizes() -> FixedSizes {
        FixedSizes::default().with_table("db", "t", 1_000_000, 96).with_table("db", "u", 10_000, 8)
    }

    fn cost(sql: &str, config: &Configuration) -> f64 {
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        opt.optimize("db", &parse_statement(sql).unwrap(), config).unwrap().cost
    }

    const Q: &str = "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a";

    #[test]
    fn paper_example_1_all_structures_help() {
        // §3 Example 1: each alternative structure reduces the query's cost
        let raw = cost(Q, &Configuration::new());

        let clustered_x = Configuration::from_structures([PhysicalStructure::Index(
            Index::clustered("db", "t", &["x"]),
        )]);
        let part_x = Configuration::from_structures([PhysicalStructure::TablePartitioning {
            database: "db".into(),
            table: "t".into(),
            scheme: RangePartitioning::new("x", (1..100).map(|i| Value::Int(i * 10)).collect()),
        }]);
        let covering = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["x", "a"], &[]),
        )]);
        let mv =
            Configuration::from_structures([PhysicalStructure::View(MaterializedView::grouped(
                "db",
                &["t"],
                vec![],
                vec![QualifiedColumn::new("t", "a"), QualifiedColumn::new("t", "x")],
                vec![ViewAggregate::count_star()],
            ))]);

        for (name, cfg) in [
            ("clustered(x)", &clustered_x),
            ("partition(x)", &part_x),
            ("covering(x,a)", &covering),
            ("mv", &mv),
        ] {
            let c = cost(Q, cfg);
            assert!(c < raw, "{name}: {c} !< raw {raw}");
        }

        // the covering index should beat plain partitioning for this query
        assert!(cost(Q, &covering) < cost(Q, &part_x));
    }

    #[test]
    fn view_exact_grouping_is_cheapest() {
        // without a selective filter, a view that answers the grouping
        // exactly (100 tiny rows) beats even a covering index (which must
        // scan all 1M leaf entries)
        let q = "SELECT a, COUNT(*) FROM t GROUP BY a";
        let exact_mv =
            Configuration::from_structures([PhysicalStructure::View(MaterializedView::grouped(
                "db",
                &["t"],
                vec![],
                vec![QualifiedColumn::new("t", "a")],
                vec![ViewAggregate::count_star()],
            ))]);
        let covering = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["a"], &[]),
        )]);
        assert!(cost(q, &exact_mv) < cost(q, &covering));

        // with the selective x filter, a covering (x, a) seek reads ~1% of
        // a narrow index and beats a finer-grained (a, x) view that must
        // be re-aggregated
        let fine_mv =
            Configuration::from_structures([PhysicalStructure::View(MaterializedView::grouped(
                "db",
                &["t"],
                vec![],
                vec![QualifiedColumn::new("t", "a"), QualifiedColumn::new("t", "x")],
                vec![ViewAggregate::count_star()],
            ))]);
        let covering_seek = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["x", "a"], &[]),
        )]);
        assert!(cost(Q, &covering_seek) < cost(Q, &fine_mv));
        // but the fine-grained view still beats raw
        assert!(cost(Q, &fine_mv) < cost(Q, &Configuration::new()));
    }

    #[test]
    fn join_query_planned() {
        let raw = cost("SELECT v FROM t, u WHERE t.x = u.k AND a = 5", &Configuration::new());
        let cfg = Configuration::from_structures([
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &["x"])),
            PhysicalStructure::Index(Index::non_clustered("db", "u", &["k"], &["v"])),
        ]);
        let tuned = cost("SELECT v FROM t, u WHERE t.x = u.k AND a = 5", &cfg);
        assert!(tuned < raw * 0.2, "tuned={tuned} raw={raw}");
    }

    #[test]
    fn order_by_sort_avoided_by_index() {
        let sql = "SELECT x FROM t WHERE a = 5 ORDER BY x";
        let unordered = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["a"], &["x"]),
        )]);
        let _ = unordered;
        // clustered index on x provides the order but requires a full-ish
        // scan; a covering seek on (a, x) needs a sort but reads little.
        // Both should beat raw.
        let raw = cost(sql, &Configuration::new());
        let c1 = cost(
            sql,
            &Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
                "db",
                "t",
                &["a", "x"],
                &[],
            ))]),
        );
        assert!(c1 < raw);
    }

    #[test]
    fn top_reduces_rows() {
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        let plan = opt
            .optimize(
                "db",
                &parse_statement("SELECT TOP 10 a FROM t ORDER BY a").unwrap(),
                &Configuration::new(),
            )
            .unwrap();
        assert!(plan.est_rows <= 10.0);
        assert!(matches!(plan.root, PlanNode::Top { .. }));
    }

    #[test]
    fn scalar_aggregate_returns_one_row() {
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        let plan = opt
            .optimize(
                "db",
                &parse_statement("SELECT COUNT(*) FROM t WHERE x < 10").unwrap(),
                &Configuration::new(),
            )
            .unwrap();
        assert_eq!(plan.est_rows, 1.0);
    }

    #[test]
    fn memory_affects_costs() {
        // what-if under different hardware produces different costs (§5.3)
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let sql = parse_statement("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a").unwrap();
        let big =
            WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams { cpus: 8, memory_bytes: 1 << 30 })
                .optimize("db", &sql, &Configuration::new())
                .unwrap()
                .cost;
        let small =
            WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams { cpus: 1, memory_bytes: 1 << 20 })
                .optimize("db", &sql, &Configuration::new())
                .unwrap()
                .cost;
        assert!(small > big, "small={small} big={big}");
    }

    #[test]
    fn used_structures_reported() {
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        let ix = Index::non_clustered("db", "t", &["x", "a"], &[]);
        let cfg = Configuration::from_structures([PhysicalStructure::Index(ix.clone())]);
        let plan = opt.optimize("db", &parse_statement(Q).unwrap(), &cfg).unwrap();
        assert!(plan.used_structures().contains(&ix.name()));
    }

    #[test]
    fn bind_errors_propagate() {
        let cat = catalog();
        let st = stats();
        let sz = sizes();
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        let err = opt.optimize(
            "db",
            &parse_statement("SELECT zzz FROM t").unwrap(),
            &Configuration::new(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn recorded_picks_are_each_bindings_best_access() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (cat, st, sz) = (catalog(), stats(), sizes());
        let opt = WhatIfOptimizer::new(&cat, &st, &sz, HardwareParams::default());
        let statements = [
            "SELECT a FROM t WHERE x < 10",
            "SELECT t.a, u.v FROM t, u WHERE t.x = u.k AND t.a = 5",
            "SELECT p.a FROM t p, t q WHERE p.x = q.a AND q.x < 3",
            "SELECT u.v FROM t, u WHERE t.a = u.k AND t.x = 7 AND t.a = 3",
            "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
            "UPDATE t SET a = 1 WHERE x = 4",
            "DELETE FROM u WHERE k = 3",
            "INSERT INTO u VALUES (1, 2)",
        ]
        .map(|sql| opt.prepare("db", &parse_statement(sql).unwrap()));
        let scheme = || RangePartitioning::new("x", (1..10).map(|i| Value::Int(i * 100)).collect());
        let mut rng = StdRng::seed_from_u64(0x91c5);
        // outcomes seen: index picks of a join, plans that hide a pick
        let (mut joined_indexes, mut hidden) = (0, 0);
        for round in 0..300 {
            let mut config = Configuration::new();
            for _ in 0..rng.gen_range(0..6) {
                let (table, columns) = [("t", ["a", "x"]), ("u", ["k", "v"])][rng.gen_range(0..2)];
                let key = [columns[rng.gen_range(0..2)]];
                let structure = match rng.gen_range(0..10) {
                    0..=5 => {
                        let included = &columns[..rng.gen_range(0..2)];
                        PhysicalStructure::Index(Index::non_clustered("db", table, &key, included))
                    }
                    6 => PhysicalStructure::Index(Index::clustered("db", table, &key)),
                    7 => PhysicalStructure::TablePartitioning {
                        database: "db".into(),
                        table: "t".into(),
                        scheme: scheme(),
                    },
                    8 => PhysicalStructure::Index(
                        Index::non_clustered("db", "t", &["x"], &["a"]).partitioned(scheme()),
                    ),
                    _ => PhysicalStructure::View(MaterializedView::grouped(
                        "db",
                        &["t"],
                        vec![],
                        vec![QualifiedColumn::new("t", "a")],
                        vec![ViewAggregate::count_star()],
                    )),
                };
                config.extend([StructureHandle::new(structure)]);
            }
            for prep in &statements {
                let plan = optimize_prepared(prep, &config).unwrap();
                let ctx = prep.context(&config);
                let bindings = prep.body().unwrap().bindings();
                let best: Vec<u8> =
                    bindings.iter().map(|t| best_access(&ctx, t).position).collect();
                let context = format!("round {round}: {config}{plan}");
                assert_eq!(plan.picks().as_slice(), &best[..], "{context}");
                if bindings.len() > 1 {
                    joined_indexes += best.iter().filter(|&&p| p != Picks::SCAN).count();
                }
                let text = plan.to_string();
                hidden += usize::from(text.contains("ViewScan") || text.contains("IndexNLJoin"));
                // the plan finished from the picks alone is the plan, the
                // INSERT's, which picks none, included
                let derived = derive_prepared(prep, &config, plan.picks(), std::iter::empty())
                    .unwrap_or_else(|| panic!("not derived: {context}"));
                assert_eq!(derived.cost.to_bits(), plan.cost.to_bits(), "{context}");
                assert_eq!(derived.to_string(), text, "{context}");
                assert_eq!(derived.picks(), plan.picks(), "{context}");
            }
        }
        assert!(joined_indexes > 100 && hidden > 100, "{joined_indexes} {hidden}");
    }
}
