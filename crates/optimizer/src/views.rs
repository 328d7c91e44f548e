//! Materialized-view matching.
//!
//! A view is usable for a query when the query's entire join graph is the
//! view's join graph (full-match): same table set, same equi-join pairs,
//! and the view produces every column the query still needs. Grouped
//! views additionally require the view's group-by to subsume the query's
//! group-by plus all filter columns, and the query's aggregates to be
//! derivable from the view's (directly, or by re-aggregation for
//! SUM/COUNT/MIN/MAX when the view groups more finely).
//!
//! The query's side of the match — its join graph, its table-qualified
//! columns, the cardinality of its join — is a [`ViewMatch`] prepared
//! once; only what a particular view adds is worked out per call. The
//! test itself is one predicate, [`full_match`]: the planner runs it
//! before costing a view, and the cost cache runs it (through
//! [`crate::ViewUse`]) to leave out of a
//! statement's projection every view that cannot answer it.

use crate::access::{elimination_fraction, PlanContext, CPU_W};
use crate::plan::PlanNode;
use crate::prepared::{view_row_width, view_rows, PreparedSelect, ViewMatch};
use dta_physical::{MaterializedView, QualifiedColumn};
use dta_sql::AggFunc;
use dta_storage::pages_for;
use std::sync::Arc;

/// A usable view rewrite.
pub(crate) struct ViewPlan {
    /// The `ViewScan` node (cost/cardinality filled in).
    pub scan: PlanNode,
    /// Whether the view already answers the query's grouping exactly
    /// (no re-aggregation needed). Meaningless for non-aggregate queries.
    pub answers_grouping: bool,
    /// Materialized width in bytes of one view row.
    pub width: u32,
}

/// Can `agg` be answered from the view's aggregate list, possibly with
/// re-aggregation over coarser groups? `arg` is the canonical
/// table-qualified argument text (None = COUNT(*)).
fn aggregate_available(
    view: &MaterializedView,
    func: AggFunc,
    arg: &Option<String>,
    need_reaggregation: bool,
    distinct: bool,
) -> bool {
    if distinct {
        // DISTINCT aggregates are only valid without re-aggregation and
        // are not stored in our views
        return false;
    }
    let direct = view.aggregates.iter().any(|va| va.func == func && va.arg == *arg);
    if !need_reaggregation {
        return direct
            || (func == AggFunc::Count
                && view.aggregates.iter().any(|va| va.func == AggFunc::Count && va.arg.is_none()));
    }
    // re-aggregation: SUM of SUMs, MIN of MINs, MAX of MAXs, SUM of COUNTs
    match func {
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => direct,
        AggFunc::Count => {
            view.aggregates.iter().any(|va| va.func == AggFunc::Count && va.arg.is_none())
        }
        AggFunc::Avg => false,
    }
}

/// Whether `view` can answer the query `m` describes — the full-match
/// test every use of a view goes through: the planner's ([`view_plans`])
/// and, by way of [`crate::ViewUse::admits`], the cost cache's relevance
/// rule. `Some(answers_grouping)` when it can: whether the view already
/// answers the query's grouping exactly (no re-aggregation needed;
/// meaningless for non-aggregate queries).
pub(crate) fn full_match(m: &ViewMatch, view: &MaterializedView) -> Option<bool> {
    // --- full-match join graph ------------------------------------
    if view.tables != m.tables || view.join_pairs != m.pairs {
        return None;
    }

    let produced: &[QualifiedColumn] =
        if view.is_grouped() { &view.group_by } else { &view.projected };
    let produces = |qc: &QualifiedColumn| produced.iter().any(|p| p == qc);

    // every sarg column must be produced by the view
    if !m.sarg_columns.iter().all(produces) {
        return None;
    }

    if view.is_grouped() {
        if !m.aggregate {
            return None; // a grouped view cannot recover raw rows
        }
        // view group-by must subsume the query's group-by
        if !m.groups.iter().all(|g| view.group_by.contains(g)) {
            return None;
        }
        let exact = m.groups.len() == view.group_by.len();
        // aggregates must be derivable (by canonical argument text)
        let derivable =
            m.aggregates.as_ref()?.iter().all(|(func, arg, distinct)| {
                aggregate_available(view, *func, arg, !exact, *distinct)
            });
        derivable.then_some(exact)
    } else {
        // ungrouped view: must produce every referenced column
        m.referenced.iter().all(produces).then_some(false)
    }
}

/// Try to match every view in the configuration against the query;
/// returns all usable rewrites.
pub(crate) fn view_plans(ctx: &PlanContext<'_>, q: &PreparedSelect) -> Vec<ViewPlan> {
    let Some(m) = &q.views else { return Vec::new() };
    let bound = &q.bound;

    let mut out = Vec::new();
    for (handle, view) in ctx.config.view_handles_in(ctx.database_key) {
        let Some(answers_grouping) = full_match(m, view) else { continue };
        let v_rows = view_rows(view, m.join_rows, |t| q.facts_of(t));
        let est_rows = (v_rows * m.sarg_sel).max(0.0);

        // scan cost over the materialized view
        let width = view_row_width(view, |t| q.facts_of(t));
        let pages = pages_for(v_rows.max(1.0) as u64, width) as f64;
        let elim =
            view.partitioning.as_ref().map_or(1.0, |p| elimination_fraction(p, &bound.sargs));
        let io = (pages * elim).max(1.0);
        let cpu = v_rows * elim / ctx.hardware.parallel_factor(io);
        let cost = io + cpu * CPU_W;

        out.push(ViewPlan {
            scan: PlanNode::ViewScan {
                view: handle.clone(),
                replaced: Arc::clone(&m.bindings),
                sargs: Arc::clone(&bound.sargs),
                answers_grouping,
                est_rows,
                est_cost: cost,
            },
            answers_grouping,
            width,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::testing::prepare;
    use crate::provider::FixedSizes;
    use crate::WhatIfOptimizer;
    use dta_catalog::{Catalog, Column, ColumnType, Database, Table};
    use dta_physical::{Configuration, JoinPair, PhysicalStructure, ViewAggregate};
    use dta_stats::StatisticsManager;

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "orders",
            vec![
                Column::new("o_orderkey", ColumnType::BigInt),
                Column::new("o_date", ColumnType::Date),
            ],
        ))
        .unwrap();
        db.add_table(Table::new(
            "lineitem",
            vec![
                Column::new("l_orderkey", ColumnType::BigInt),
                Column::new("l_price", ColumnType::Float),
            ],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn the_view() -> MaterializedView {
        MaterializedView::grouped(
            "db",
            &["lineitem", "orders"],
            vec![JoinPair::new(
                QualifiedColumn::new("lineitem", "l_orderkey"),
                QualifiedColumn::new("orders", "o_orderkey"),
            )],
            vec![QualifiedColumn::new("orders", "o_date")],
            vec![
                ViewAggregate::column(AggFunc::Sum, QualifiedColumn::new("lineitem", "l_price")),
                ViewAggregate::count_star(),
            ],
        )
    }

    fn sizes() -> FixedSizes {
        FixedSizes::default()
            .with_table("db", "orders", 150_000, 16)
            .with_table("db", "lineitem", 600_000, 16)
    }

    fn plans(cat: &Catalog, sql: &str, config: &Configuration) -> usize {
        let prep = prepare(cat, &StatisticsManager::new(), &sizes(), sql);
        view_plans(&prep.context(config), prep.select()).len()
    }

    #[test]
    fn exact_match_found() {
        let cat = catalog();
        let config = Configuration::from_structures([PhysicalStructure::View(the_view())]);
        let n = plans(
            &cat,
            "SELECT o_date, SUM(l_price), COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_date",
            &config,
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn no_match_on_different_joins_or_groups() {
        let cat = catalog();
        let config = Configuration::from_structures([PhysicalStructure::View(the_view())]);
        // missing join predicate
        assert_eq!(
            plans(&cat, "SELECT o_date, COUNT(*) FROM lineitem, orders GROUP BY o_date", &config),
            0
        );
        // grouping by a column the view does not produce
        assert_eq!(
            plans(
                &cat,
                "SELECT l_orderkey, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_orderkey",
                &config
            ),
            0
        );
        // aggregate not derivable (AVG)
        assert_eq!(
            plans(
                &cat,
                "SELECT o_date, AVG(l_price) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_date",
                &config
            ),
            0
        );
    }

    #[test]
    fn filter_on_group_column_ok_others_rejected() {
        let cat = catalog();
        let config = Configuration::from_structures([PhysicalStructure::View(the_view())]);
        assert_eq!(
            plans(
                &cat,
                "SELECT o_date, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_date < '1995-01-01' GROUP BY o_date",
                &config
            ),
            1
        );
        // filter on a non-produced column
        assert_eq!(
            plans(
                &cat,
                "SELECT o_date, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_price > 5 GROUP BY o_date",
                &config
            ),
            0
        );
    }

    #[test]
    fn grouped_view_cannot_answer_raw_query() {
        let cat = catalog();
        let config = Configuration::from_structures([PhysicalStructure::View(the_view())]);
        assert_eq!(
            plans(
                &cat,
                "SELECT o_date FROM lineitem, orders WHERE l_orderkey = o_orderkey",
                &config
            ),
            0
        );
    }

    #[test]
    fn view_row_estimates() {
        let (cat, stats, sizes) = (catalog(), StatisticsManager::new(), sizes());
        let opt = WhatIfOptimizer::new(&cat, &stats, &sizes, Default::default());
        let rows = opt.view_rows(&the_view());
        // grouped by o_date: bounded by the join cardinality, far less
        // than the cross product
        assert!(rows >= 1);
        assert!(rows < 600_000 * 150_000);
        let prep = opt.prepare(
            "db",
            &dta_sql::parse_statement(
                "SELECT o_date FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            )
            .unwrap(),
        );
        assert!(view_row_width(&the_view(), |t| prep.select().facts_of(t)) > 8);
    }
}
