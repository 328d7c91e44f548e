//! Greedy join ordering with hash and index-nested-loop joins.
//!
//! Each step costs every remaining table as a hash-join and as an
//! index-nested-loop candidate in plain numbers — rows, cost, width, and
//! references to what gives the stream its order and partitioning — and
//! builds plan nodes only for the candidate it keeps, moving the tree
//! built so far into the new join instead of copying it per candidate.
//! The predicates connecting a candidate are a set of positions in the
//! statement's predicate list, which the kept join then shares.

use crate::access::{
    best_access, leaf_width, AccessChoice, KeyOrder, Partitioned, PlanContext, CPU_W,
    SEEK_DESCENT_PAGES,
};
use crate::hardware::HardwareParams;
use crate::plan::{AccessMethod, JoinPairs, PlanNode, PredSet, TableAccess};
use crate::prepared::{PreparedSelect, PreparedTable};
use crate::query::JoinPred;
use dta_physical::{Index, IndexKind, StructureHandle};
use dta_storage::PAGE_SIZE;
use std::sync::Arc;

/// The numbers join costing needs about a (partial) join result.
#[derive(Debug, Clone, Copy)]
struct Stream<'a> {
    rows: f64,
    /// Cumulative cost of the subtree.
    cost: f64,
    /// Estimated row width in bytes.
    width: f64,
    /// The binding and index whose key order the rows have, if any.
    ordered_by: Option<(&'a str, &'a Index)>,
    /// Partitioning the stream retains.
    partitioned_on: Option<Partitioned<'a>>,
}

/// One index an index-nested-loop join could probe a table through,
/// costed per probe. Nothing here depends on the outer side.
#[derive(Debug, Clone, Copy)]
struct InlProbe<'a> {
    handle: &'a StructureHandle,
    index: &'a Index,
    /// Leading key column: a join column of the table.
    first_key: &'a str,
    covering: bool,
    cost_per_probe: f64,
    rows_per_probe: f64,
}

/// A table not joined yet.
struct Leaf<'a> {
    table: &'a PreparedTable,
    /// Slot of the first table with this binding name: what join
    /// predicates on the name resolve to.
    slot: usize,
    /// Its cheapest access path, and the stream that path yields.
    access: AccessChoice<'a>,
    stream: Stream<'a>,
    /// Filled the first time the table is costed as an inner side.
    probes: Option<Vec<InlProbe<'a>>>,
}

/// How the winning candidate of a step joins.
#[derive(Clone, Copy)]
enum JoinKind<'a> {
    Hash { partition_wise: bool },
    IndexNL(InlProbe<'a>),
}

/// The planned join of all tables of a statement.
pub(crate) struct JoinResult<'a> {
    pub node: PlanNode,
    /// Sort order the stream has.
    pub order: KeyOrder<'a>,
    /// Partitioning the stream retains.
    pub partitioned_on: Option<Partitioned<'a>>,
    /// Estimated row width of the stream in bytes.
    pub width: f64,
}

/// Hash-join cost of combining `a` (as one side) and `b`, picking the
/// smaller side as build. Returns `(incremental_cost, partition_wise)`.
fn hash_join_cost<'p>(
    hardware: HardwareParams,
    a: &Stream<'_>,
    b: &Stream<'_>,
    mut preds: impl Iterator<Item = &'p JoinPred>,
    out_rows: f64,
) -> (f64, bool) {
    let (build, probe) = if a.rows <= b.rows { (a, b) } else { (b, a) };
    let build_bytes = build.rows * build.width;
    let probe_bytes = probe.rows * probe.width;

    // co-partitioned inputs on the join keys let each partition's hash
    // table fit in a fraction of the memory
    let partition_wise = match (&a.partitioned_on, &b.partitioned_on) {
        (Some(pa), Some(pb)) => {
            pa.scheme.boundaries == pb.scheme.boundaries
                && preds.any(|p| {
                    (pa.is_on(&p.left) && pb.is_on(&p.right))
                        || (pb.is_on(&p.left) && pa.is_on(&p.right))
                })
        }
        _ => false,
    };
    let mem = hardware.memory_bytes as f64
        * if partition_wise {
            match &a.partitioned_on {
                Some(p) => p.scheme.partition_count() as f64,
                None => 1.0,
            }
        } else {
            1.0
        };

    let mut cpu = 2.0 * build.rows + probe.rows + out_rows;
    let total_pages = (build_bytes + probe_bytes) / PAGE_SIZE as f64;
    cpu /= hardware.parallel_factor(total_pages);
    let mut io = 0.0;
    if build_bytes > mem {
        // grace hash join: write and re-read both inputs
        io += 2.0 * (build_bytes + probe_bytes) / PAGE_SIZE as f64;
    }
    (io + cpu * CPU_W, partition_wise)
}

/// Every index whose leading key is a join column of `t`, costed as the
/// inner side of an index-nested-loop join, in configuration order (what
/// `PreparedStatement::column_use` states as `leading`).
fn inl_probes<'a>(ctx: &PlanContext<'a>, t: &'a PreparedTable) -> Vec<InlProbe<'a>> {
    let inner_rows = t.facts.rows;
    let mut probes = Vec::new();
    for (handle, ix) in ctx.config.index_handles_on_key(t.facts.key) {
        let Some(first_key) = ix.key_columns.first() else { continue };
        let Some((_, distinct)) = t.join_distinct.iter().find(|(c, _)| c == first_key) else {
            continue;
        };
        let covering = ix.kind == IndexKind::Clustered || ix.covers(&t.required);
        let matched_per_probe = (inner_rows / distinct).max(0.0);
        let leaf_pages = t.facts.leaf_pages(if ix.kind == IndexKind::Clustered {
            t.facts.row_width
        } else {
            leaf_width(t, ix)
        });
        let leaf_per_probe = (leaf_pages / distinct).min(matched_per_probe).max(0.06);
        let lookups = if covering { 0.0 } else { matched_per_probe * t.out_sel };
        probes.push(InlProbe {
            handle,
            index: ix,
            first_key,
            covering,
            cost_per_probe: SEEK_DESCENT_PAGES * 0.5 // upper levels cache well under repeated probes
                + leaf_per_probe
                + lookups
                + matched_per_probe * CPU_W,
            rows_per_probe: matched_per_probe * t.out_sel,
        });
    }
    probes
}

impl InlProbe<'_> {
    /// The inner access node of the join.
    fn materialize(&self, ctx: &PlanContext<'_>, t: &PreparedTable) -> TableAccess {
        TableAccess {
            database: Arc::clone(ctx.database),
            table: Arc::clone(&t.facts.table),
            binding: Arc::clone(&t.binding),
            method: if self.index.kind == IndexKind::Clustered {
                AccessMethod::ClusteredSeek { index: self.handle.clone(), seek_len: 1 }
            } else {
                AccessMethod::IndexSeek {
                    index: self.handle.clone(),
                    seek_len: 1,
                    covering: self.covering,
                }
            },
            sargs: Arc::clone(&t.sargs),
            residuals: t.residuals,
            partition_fraction: 1.0,
            est_rows: self.rows_per_probe,
            est_cost: self.cost_per_probe,
        }
    }
}

/// Index-nested-loop cost: probe `inner` once per outer row via an index
/// whose leading key is a join column of `preds`. Returns the cheapest
/// probe (the first of equally cheap ones) and the cost of all probes.
fn inl_join<'a, 'p>(
    outer_rows: f64,
    inner: &str,
    probes: &[InlProbe<'a>],
    preds: impl Iterator<Item = &'p JoinPred> + Clone,
) -> Option<(InlProbe<'a>, f64)> {
    let mut best: Option<(InlProbe<'a>, f64)> = None;
    for probe in probes {
        let on_join_column =
            preds.clone().filter_map(|p| p.side_for(inner)).any(|c| c.column == probe.first_key);
        if !on_join_column {
            continue;
        }
        let total = outer_rows * probe.cost_per_probe;
        if best.as_ref().is_none_or(|(_, c)| total < *c) {
            best = Some((*probe, total));
        }
    }
    best
}

/// The predicates of `joins` at the positions in `set`.
fn picked<'j>(
    joins: &'j [JoinPred],
    set: &'j PredSet,
) -> impl Iterator<Item = &'j JoinPred> + Clone + 'j {
    set.iter().filter_map(|i| joins.get(i))
}

/// Plan the join of all tables of `q`.
pub(crate) fn plan_joins<'a>(ctx: &PlanContext<'a>, q: &'a PreparedSelect) -> JoinResult<'a> {
    let mut leaves: Vec<Leaf<'a>> = q
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let access = best_access(ctx, t);
            Leaf {
                table: t,
                slot: q.tables.iter().position(|first| first.binding == t.binding).unwrap_or(i),
                access,
                stream: Stream {
                    rows: t.out_rows,
                    cost: access.cost,
                    width: t.required_width,
                    ordered_by: access.ordered_by.map(|ix| (&*t.binding, ix)),
                    partitioned_on: access
                        .partitioned_on
                        .map(|scheme| Partitioned { binding: &t.binding, scheme }),
                },
                probes: None,
            }
        })
        .collect();

    // start from the smallest estimated leaf
    let start = leaves
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.stream.rows.total_cmp(&b.stream.rows))
        .map(|(i, _)| i)
        .expect("at least one table");
    let first = leaves.swap_remove(start);
    let mut cur = first.stream;
    let mut node = PlanNode::Access(first.access.materialize(ctx, first.table));
    // by slot: whether a table of that binding name is in the tree
    let mut joined = vec![false; q.tables.len()];
    mark_joined(&mut joined, first.slot);

    // the statement's join predicates, and the positions among them of
    // those connecting the joined set to the best candidate so far
    let joins: &[JoinPred] = &q.bound.joins;
    let mut best_preds = PredSet::default();
    while !leaves.is_empty() {
        // candidates connected by a join predicate, or everything if none
        let mut best: Option<(usize, f64, f64, JoinKind<'a>)> = None;
        for (i, cand) in leaves.iter_mut().enumerate() {
            let is_joined = |slot: usize| joined.get(slot).copied().unwrap_or(false);
            let mut preds = PredSet::default();
            let mut sel = 1.0;
            for (p, pj) in q.joins.iter().enumerate() {
                if (is_joined(pj.left) && pj.right == cand.slot)
                    || (is_joined(pj.right) && pj.left == cand.slot)
                {
                    preds.insert(p);
                    sel *= pj.sel;
                }
            }
            let out_rows = (cur.rows * cand.stream.rows * sel).max(0.0);

            // hash join option
            let (hj_incr, partition_wise) =
                hash_join_cost(ctx.hardware, &cur, &cand.stream, picked(joins, &preds), out_rows);
            let hj_total = cur.cost
                + cand.stream.cost
                + hj_incr
                + if preds.is_empty() {
                    // discourage cross joins strongly
                    cur.rows * cand.stream.rows * CPU_W * 10.0
                } else {
                    0.0
                };
            let mut choice_cost = hj_total;
            let mut choice = JoinKind::Hash { partition_wise };

            // index-nested-loop option (candidate as inner)
            if !preds.is_empty() {
                let table = cand.table;
                let probes = cand.probes.get_or_insert_with(|| inl_probes(ctx, table));
                if let Some((probe, probe_cost)) =
                    inl_join(cur.rows, &table.binding, probes, picked(joins, &preds))
                {
                    let inl_total = cur.cost + probe_cost + out_rows * CPU_W;
                    if inl_total < choice_cost {
                        choice_cost = inl_total;
                        choice = JoinKind::IndexNL(probe);
                    }
                }
            }

            if best.as_ref().is_none_or(|(_, c, _, _)| choice_cost < *c) {
                best = Some((i, choice_cost, out_rows, choice));
                best_preds = preds;
            }
        }
        let (idx, est_cost, est_rows, kind) = best.expect("non-empty leaves");
        let leaf = leaves.swap_remove(idx);
        let pairs = JoinPairs::new(Arc::clone(&q.bound.joins), std::mem::take(&mut best_preds));
        let width = cur.width + leaf.stream.width;
        match kind {
            JoinKind::Hash { partition_wise } => {
                node = PlanNode::HashJoin {
                    left: Box::new(node),
                    right: Box::new(PlanNode::Access(leaf.access.materialize(ctx, leaf.table))),
                    pairs,
                    partition_wise,
                    est_rows,
                    est_cost,
                };
                cur = Stream {
                    rows: est_rows,
                    cost: est_cost,
                    width,
                    ordered_by: None, // hash join destroys order
                    partitioned_on: if partition_wise { cur.partitioned_on } else { None },
                };
            }
            JoinKind::IndexNL(probe) => {
                node = PlanNode::IndexNLJoin {
                    outer: Box::new(node),
                    inner: probe.materialize(ctx, leaf.table),
                    pairs,
                    est_rows,
                    est_cost,
                };
                cur = Stream {
                    rows: est_rows,
                    cost: est_cost,
                    width,
                    ordered_by: cur.ordered_by, // outer order preserved
                    partitioned_on: None,
                };
            }
        }
        mark_joined(&mut joined, leaf.slot);
    }

    // cross-table residuals reduce output cardinality
    if q.bound.cross_residuals > 0 {
        scale_rows(&mut node, q.cross_residual_factor);
    }
    JoinResult {
        node,
        order: cur.ordered_by.map(|(binding, ix)| KeyOrder::of(binding, ix)).unwrap_or_default(),
        partitioned_on: cur.partitioned_on,
        width: cur.width,
    }
}

fn mark_joined(joined: &mut [bool], slot: usize) {
    if let Some(j) = joined.get_mut(slot) {
        *j = true;
    }
}

fn scale_rows(node: &mut PlanNode, factor: f64) {
    match node {
        PlanNode::Access(a) => a.est_rows *= factor,
        PlanNode::ViewScan { est_rows, .. }
        | PlanNode::HashJoin { est_rows, .. }
        | PlanNode::IndexNLJoin { est_rows, .. }
        | PlanNode::HashAggregate { est_rows, .. }
        | PlanNode::StreamAggregate { est_rows, .. }
        | PlanNode::Sort { est_rows, .. }
        | PlanNode::Top { est_rows, .. }
        | PlanNode::Update { est_rows, .. }
        | PlanNode::Delete { est_rows, .. } => *est_rows *= factor,
        PlanNode::Insert { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::testing::prepare;
    use crate::provider::FixedSizes;
    use dta_catalog::{Catalog, Column, ColumnType, Database, Table};
    use dta_physical::{Configuration, PhysicalStructure};
    use dta_stats::StatisticsManager;

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "orders",
            vec![
                Column::new("o_orderkey", ColumnType::BigInt),
                Column::new("o_custkey", ColumnType::BigInt),
                Column::new("o_date", ColumnType::Date),
            ],
        ))
        .unwrap();
        db.add_table(Table::new(
            "lineitem",
            vec![
                Column::new("l_orderkey", ColumnType::BigInt),
                Column::new("l_qty", ColumnType::Float),
            ],
        ))
        .unwrap();
        db.add_table(Table::new(
            "customer",
            vec![
                Column::new("c_custkey", ColumnType::BigInt),
                Column::new("c_name", ColumnType::Str(25)),
            ],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    /// The join tree of `sql` under `config`.
    fn joined(sql: &str, config: &Configuration) -> PlanNode {
        let (cat, stats) = (catalog(), StatisticsManager::new());
        let sizes = FixedSizes::default()
            .with_table("db", "orders", 150_000, 24)
            .with_table("db", "lineitem", 600_000, 16)
            .with_table("db", "customer", 15_000, 33);
        let prep = prepare(&cat, &stats, &sizes, sql);
        plan_joins(&prep.context(config), prep.select()).node
    }

    fn accesses(node: &PlanNode) -> usize {
        match node {
            PlanNode::Access(_) => 1,
            PlanNode::HashJoin { left, right, .. } => accesses(left) + accesses(right),
            PlanNode::IndexNLJoin { outer, .. } => accesses(outer) + 1,
            other => panic!("not a join tree: {other}"),
        }
    }

    #[test]
    fn two_table_hash_join() {
        let node = joined(
            "SELECT o_date FROM orders, lineitem WHERE o_orderkey = l_orderkey",
            &Configuration::new(),
        );
        assert_eq!(accesses(&node), 2);
        assert!(matches!(node, PlanNode::HashJoin { .. }));
        assert!(node.est_cost() > 0.0);
    }

    #[test]
    fn index_enables_nested_loop() {
        // selective predicate on customer + index on orders join column
        let config = Configuration::from_structures([
            PhysicalStructure::Index(Index::non_clustered("db", "customer", &["c_name"], &[])),
            PhysicalStructure::Index(Index::non_clustered(
                "db",
                "orders",
                &["o_custkey"],
                &["o_date"],
            )),
        ]);
        let node = joined(
            "SELECT o_date FROM customer, orders WHERE c_custkey = o_custkey AND c_name = 'Customer#1'",
            &config,
        );
        assert!(matches!(node, PlanNode::IndexNLJoin { .. }), "expected INL, got:\n{node}");
    }

    #[test]
    fn three_table_join_covers_all_bindings() {
        let node = joined(
            "SELECT c_name FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
            &Configuration::new(),
        );
        assert_eq!(accesses(&node), 3);
    }

    #[test]
    fn cross_join_fallback() {
        let node = joined("SELECT c_name FROM customer, lineitem", &Configuration::new());
        assert_eq!(accesses(&node), 2);
        // the cross join is very expensive
        assert!(node.est_cost() > 1000.0);
    }
}
