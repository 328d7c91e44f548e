//! DML costing: updates pay for maintaining the physical design.
//!
//! This is the other half of the integrated-tuning trade-off (§3): for a
//! workload containing updates, every extra index and materialized view
//! has a maintenance price, which is what makes DTA correctly recommend
//! *nothing* for the update-dominated CUST3 workload (§7.1).

use crate::access::{AccessChoice, PlanContext, CPU_W};
use crate::plan::PlanNode;
use crate::prepared::{PreparedDml, PreparedTable};
use crate::query::BoundDml;
use dta_physical::IndexKind;
use std::sync::Arc;

/// Page writes charged per modified row per affected index.
pub const INDEX_MAINT_PAGES: f64 = 1.5;

/// Page writes charged per modified row per affected materialized view,
/// scaled by the number of tables the view joins (maintaining a join view
/// requires looking up the other side(s)).
pub const VIEW_MAINT_PAGES_PER_TABLE: f64 = 2.0;

/// Plan (and cost) a DML statement under a configuration. An INSERT or
/// DELETE maintains every non-clustered index on its table, an UPDATE
/// only those holding a SET column (what
/// `PreparedStatement::column_use` states). The plan lists the handles
/// of what it maintains. An UPDATE or DELETE locates its rows by the path
/// `pick` chooses.
pub(crate) fn plan_dml<'a>(
    ctx: &PlanContext<'a>,
    d: &PreparedDml,
    pick: &mut impl FnMut(&PreparedTable) -> AccessChoice<'a>,
) -> PlanNode {
    let key = d.target.facts.key;
    match &d.dml {
        BoundDml::Insert { table, rows, .. } => {
            let rows_f = *rows as f64;
            let mut cost = 1.0 + rows_f * CPU_W;
            let mut maintained = Vec::new();
            for (h, ix) in ctx.config.index_handles_on_key(key) {
                let per_row = match ix.kind {
                    IndexKind::Clustered => 1.0,
                    IndexKind::NonClustered => INDEX_MAINT_PAGES,
                };
                cost += rows_f * per_row;
                maintained.push(h.clone());
            }
            for (h, v) in ctx.config.view_handles_in(ctx.database_key) {
                if v.tables.iter().any(|t| t == table) {
                    cost += rows_f * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(h.clone());
                }
            }
            PlanNode::Insert {
                database: Arc::clone(ctx.database),
                table: Arc::clone(&d.target.facts.table),
                rows: *rows,
                maintained,
                est_cost: cost,
            }
        }
        BoundDml::Update { table, set_columns, .. } => {
            let (access, affected) = locate(ctx, &d.target, pick);
            let mut cost = access.est_cost() + affected * 1.0; // base row writes
            let mut maintained = Vec::new();
            for (h, ix) in ctx.config.index_handles_on_key(key) {
                let touches = ix.leaf_columns().any(|c| set_columns.iter().any(|sc| sc == c))
                    || ix.partitioning.as_ref().is_some_and(|p| set_columns.contains(&p.column));
                if touches {
                    cost += affected * 2.0 * INDEX_MAINT_PAGES; // delete + insert entry
                    maintained.push(h.clone());
                }
            }
            for (h, v) in ctx.config.view_handles_in(ctx.database_key) {
                let touches = v.tables.iter().any(|t| t == table)
                    && view_references_columns(v, table, set_columns);
                if touches {
                    cost += affected * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(h.clone());
                }
            }
            PlanNode::Update {
                access: Box::new(access),
                set_columns: Arc::clone(set_columns),
                maintained,
                est_rows: affected,
                est_cost: cost,
            }
        }
        BoundDml::Delete { table, .. } => {
            let (access, affected) = locate(ctx, &d.target, pick);
            let mut cost = access.est_cost() + affected * 1.0;
            let mut maintained = Vec::new();
            for (h, ix) in ctx.config.index_handles_on_key(key) {
                if ix.kind == IndexKind::NonClustered {
                    cost += affected * INDEX_MAINT_PAGES;
                    maintained.push(h.clone());
                }
            }
            for (h, v) in ctx.config.view_handles_in(ctx.database_key) {
                if v.tables.iter().any(|t| t == table) {
                    cost += affected * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(h.clone());
                }
            }
            PlanNode::Delete {
                access: Box::new(access),
                maintained,
                est_rows: affected,
                est_cost: cost,
            }
        }
    }
}

/// Does the view read any of `columns` of `table` (join keys, group-by,
/// projections, aggregates)?
fn view_references_columns(
    v: &dta_physical::MaterializedView,
    table: &str,
    columns: &[String],
) -> bool {
    let hit =
        |qc: &dta_physical::QualifiedColumn| qc.table == table && columns.contains(&qc.column);
    v.group_by.iter().any(hit)
        || v.projected.iter().any(hit)
        || v.aggregates.iter().any(|a| a.arg_columns.iter().any(&hit))
        || v.join_pairs.iter().any(|j| hit(&j.left) || hit(&j.right))
}

/// The access path `pick` chooses to locate the affected rows, and how
/// many there are.
fn locate<'a>(
    ctx: &PlanContext<'a>,
    target: &PreparedTable,
    pick: &mut impl FnMut(&PreparedTable) -> AccessChoice<'a>,
) -> (PlanNode, f64) {
    let access = pick(target).materialize(ctx, target);
    let rows = access.est_rows;
    (PlanNode::Access(access), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::testing::prepare;
    use crate::provider::FixedSizes;
    use dta_catalog::{Catalog, Column, ColumnType, Database, Table};
    use dta_physical::{Configuration, Index, PhysicalStructure};
    use dta_stats::StatisticsManager;

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn plan(
        cat: &Catalog,
        stats: &StatisticsManager,
        sql: &str,
        config: &Configuration,
    ) -> PlanNode {
        let sizes = FixedSizes::default().with_table("db", "t", 100_000, 16);
        let prep = prepare(cat, stats, &sizes, sql);
        let ctx = prep.context(config);
        plan_dml(&ctx, prep.dml(), &mut |t| crate::access::best_access(&ctx, t))
    }

    fn cost_under(cat: &Catalog, sql: &str, config: &Configuration) -> f64 {
        plan(cat, &StatisticsManager::new(), sql, config).est_cost()
    }

    #[test]
    fn inserts_pay_for_indexes() {
        let cat = catalog();
        let bare = cost_under(&cat, "INSERT INTO t VALUES (1, 2, 3)", &Configuration::new());
        let with_ix = cost_under(
            &cat,
            "INSERT INTO t VALUES (1, 2, 3)",
            &Configuration::from_structures([
                PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[])),
                PhysicalStructure::Index(Index::non_clustered("db", "t", &["b"], &[])),
            ]),
        );
        assert!(with_ix > bare, "with_ix={with_ix} bare={bare}");
    }

    #[test]
    fn updates_pay_only_for_affected_indexes() {
        let cat = catalog();
        let cfg_a = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["a"], &[]),
        )]);
        let cfg_b = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["b"], &[]),
        )]);
        // update sets a — index on a is maintained, index on b is not;
        // but the index on b is also useless for the k predicate, so both
        // configs locate rows by scan.
        let on_a = cost_under(&cat, "UPDATE t SET a = 1 WHERE k = 5", &cfg_a);
        let on_b = cost_under(&cat, "UPDATE t SET a = 1 WHERE k = 5", &cfg_b);
        assert!(on_a > on_b, "on_a={on_a} on_b={on_b}");
    }

    #[test]
    fn update_uses_index_to_locate() {
        // with a statistic showing k is (nearly) unique, the index seek
        // locates the single affected row far cheaper than a scan
        let cat = catalog();
        let mut stats = StatisticsManager::new();
        stats.add(dta_stats::Statistic {
            key: dta_stats::StatKey::new("db", "t", &["k"]),
            histogram: dta_stats::Histogram::build(
                (0..1000).map(dta_catalog::Value::Int).collect(),
            ),
            densities: vec![1.0 / 100_000.0],
            row_count: 100_000,
            sample_rows: 1000,
        });
        let run = |config: &Configuration| {
            plan(&cat, &stats, "UPDATE t SET a = 1 WHERE k = 5", config).est_cost()
        };
        let cfg = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "db",
            "t",
            &["k"],
            &[],
        ))]);
        let with_ix = run(&cfg);
        let without = run(&Configuration::new());
        assert!(with_ix < without, "with={with_ix} without={without}");
    }

    #[test]
    fn deletes_pay_for_views() {
        let cat = catalog();
        let view = dta_physical::MaterializedView::grouped(
            "db",
            &["t"],
            vec![],
            vec![dta_physical::QualifiedColumn::new("t", "a")],
            vec![dta_physical::ViewAggregate::count_star()],
        );
        let cfg = Configuration::from_structures([PhysicalStructure::View(view)]);
        let with_view = cost_under(&cat, "DELETE FROM t WHERE a = 3", &cfg);
        let without = cost_under(&cat, "DELETE FROM t WHERE a = 3", &Configuration::new());
        assert!(with_view > without);
    }

    #[test]
    fn maintenance_lists_populated() {
        let cat = catalog();
        let cfg = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "db",
            "t",
            &["a"],
            &[],
        ))]);
        match plan(&cat, &StatisticsManager::new(), "INSERT INTO t VALUES (1,2,3)", &cfg) {
            PlanNode::Insert { maintained, .. } => assert_eq!(maintained.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
