//! The per-call planner as it stood before statements were prepared,
//! kept as the reference `optimize_prepared` is compared against: it
//! binds the statement on every call, looks every estimate up by name
//! (`Estimator` over the statistics manager, `TableStatsProvider` for
//! sizes) and builds a plan node for every join candidate. Test-only;
//! nothing outside `tests/` compiles it.

#![allow(dead_code)]

use dta_catalog::{Catalog, Value};
use dta_optimizer::plan::{AccessMethod, Plan, PlanNode, TableAccess};
use dta_optimizer::query::{
    bind, BindError, BoundColumn, BoundDml, BoundSelect, BoundStatement, JoinPred, Sarg, SargOp,
    SingleTableFilter,
};
use dta_optimizer::selectivity::{prefix_range, MIN_SEL, RESIDUAL_SEL};
use dta_optimizer::{HardwareParams, TableStatsProvider};
use dta_physical::{
    Configuration, Index, IndexKind, JoinPair, MaterializedView, QualifiedColumn,
    RangePartitioning, StructureHandle,
};
use dta_sql::{AggFunc, Statement};
use dta_stats::histogram::fallback;
use dta_stats::StatisticsManager;
use dta_storage::{pages_for, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The handle `config` holds `index` in: what a plan names it by.
fn index_handle(config: &Configuration, index: &Index) -> StructureHandle {
    let held = config.handles().iter().find(|h| h.as_index() == Some(index));
    held.expect("the planner reads only indexes of the configuration").clone()
}

/// The handle `config` holds `view` in.
fn view_handle(config: &Configuration, view: &MaterializedView) -> StructureHandle {
    let held = config.handles().iter().find(|h| h.as_view() == Some(view));
    held.expect("the planner reads only views of the configuration").clone()
}

// ---- selectivity ----------------------------------------------------------

/// Estimator over a statistics manager. `binding → table` resolution is
/// the caller's job; all methods take catalog table names.
pub struct Estimator<'a> {
    pub stats: &'a StatisticsManager,
    pub database: &'a str,
}

impl<'a> Estimator<'a> {
    /// New estimator for one database.
    pub fn new(stats: &'a StatisticsManager, database: &'a str) -> Self {
        Self { stats, database }
    }

    /// Selectivity of a single sargable predicate on `table`.
    pub fn sarg_selectivity(&self, table: &str, sarg: &Sarg) -> f64 {
        let col = &sarg.column.column;
        let hist = self.stats.histogram(self.database, table, col);
        let sel = match (&sarg.op, hist) {
            (SargOp::Eq(v), Some(h)) => h.selectivity_eq(v),
            (SargOp::Eq(_), None) => self.eq_from_density(table, col).unwrap_or(fallback::EQ),
            (SargOp::NotEq(v), Some(h)) => 1.0 - h.selectivity_eq(v),
            (SargOp::NotEq(_), None) => 1.0 - fallback::EQ,
            (SargOp::Range { low, high }, Some(h)) => match (low, high) {
                (Some((lo, lo_inc)), Some((hi, _hi_inc))) => {
                    // between-style: inclusive bounds dominate at our precision
                    let _ = lo_inc;
                    h.selectivity_between(lo, hi)
                }
                (Some((lo, inc)), None) => h.selectivity_gt(lo, *inc),
                (None, Some((hi, inc))) => h.selectivity_lt(hi, *inc),
                (None, None) => 1.0,
            },
            (SargOp::Range { .. }, None) => fallback::RANGE,
            (SargOp::In(vs), Some(h)) => {
                vs.iter().map(|v| h.selectivity_eq(v)).sum::<f64>().min(1.0)
            }
            (SargOp::In(vs), None) => (vs.len() as f64
                * self.eq_from_density(table, col).unwrap_or(fallback::EQ))
            .min(1.0),
            (SargOp::LikePrefix(p), Some(h)) => {
                let (lo, hi) = prefix_range(p);
                h.selectivity_between(&lo, &hi)
            }
            (SargOp::LikePrefix(_), None) => fallback::LIKE,
        };
        sel.clamp(MIN_SEL, 1.0)
    }

    fn eq_from_density(&self, table: &str, col: &str) -> Option<f64> {
        self.stats
            .scaled_distinct(self.database, table, &[col.to_string()])
            .map(|d| 1.0 / d.max(1.0))
    }

    /// Combined selectivity of several sargs plus residual conjuncts on
    /// one table (independence assumption).
    pub fn table_selectivity(&self, table: &str, sargs: &[&Sarg], residuals: usize) -> f64 {
        let mut sel = 1.0;
        for s in sargs {
            sel *= self.sarg_selectivity(table, s);
        }
        sel *= RESIDUAL_SEL.powi(residuals as i32);
        sel.clamp(MIN_SEL, 1.0)
    }

    /// Estimated distinct count of one column, given the table's row
    /// count as a cap.
    pub fn distinct_count(&self, table: &str, column: &str, table_rows: f64) -> f64 {
        if let Some(d) = self.stats.scaled_distinct(self.database, table, &[column.to_string()]) {
            return d.clamp(1.0, table_rows.max(1.0));
        }
        if let Some(h) = self.stats.histogram(self.database, table, column) {
            if !h.is_empty() {
                return h.distinct_count().clamp(1.0, table_rows.max(1.0));
            }
        }
        // textbook default: 10% of rows are distinct
        (table_rows * 0.1).max(1.0)
    }

    /// Join selectivity of `lt.lc = rt.rc`: `1 / max(d_l, d_r)`.
    pub fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        left_rows: f64,
        right_table: &str,
        right_col: &str,
        right_rows: f64,
    ) -> f64 {
        let dl = self.distinct_count(left_table, left_col, left_rows);
        let dr = self.distinct_count(right_table, right_col, right_rows);
        (1.0 / dl.max(dr)).clamp(MIN_SEL, 1.0)
    }

    /// Estimated number of groups for a GROUP BY over `columns`
    /// (`(table, column)` pairs), given the input cardinality.
    ///
    /// Uses a multi-column density when one statistic covers the whole
    /// set on a single table, otherwise the product of per-column
    /// distincts, always capped by the input cardinality.
    pub fn group_count(&self, columns: &[(String, BoundColumn)], input_rows: f64) -> f64 {
        if columns.is_empty() {
            return 1.0;
        }
        // single-table group set: try exact density
        let Some((first_table, _)) = columns.first() else { return 1.0 };
        if columns.iter().all(|(t, _)| t == first_table) {
            let cols: Vec<String> = columns.iter().map(|(_, c)| c.column.clone()).collect();
            if let Some(d) = self.stats.scaled_distinct(self.database, first_table, &cols) {
                return d.clamp(1.0, input_rows.max(1.0));
            }
        }
        let mut groups = 1.0;
        for (t, c) in columns {
            groups *= self.distinct_count(t, &c.column, input_rows);
            if groups > input_rows {
                break;
            }
        }
        groups.clamp(1.0, input_rows.max(1.0))
    }
}

// ---- access ----------------------------------------------------------------

/// Pages charged for descending a B-tree to its leaf level.
pub const SEEK_DESCENT_PAGES: f64 = 2.0;

/// Work units per CPU row operation (mirrors the storage crate's meter).
pub const CPU_W: f64 = dta_storage::work::CPU_OP_WEIGHT;

/// Everything the planner carries around while costing one statement.
pub struct PlanContext<'a> {
    pub estimator: Estimator<'a>,
    pub config: &'a Configuration,
    pub sizes: &'a dyn TableStatsProvider,
    pub hardware: HardwareParams,
    pub database: &'a str,
}

/// One costed way to read a table.
#[derive(Debug, Clone)]
pub struct AccessOption {
    /// Ready-to-use plan node.
    pub access: TableAccess,
    /// Sort order delivered (empty = none).
    pub order: Vec<BoundColumn>,
    /// Partitioning the output stream retains, if any.
    pub partitioned_on: Option<(BoundColumn, RangePartitioning)>,
}

/// Combined `(low, high)` value bounds that sargs impose on `column`.
pub fn sarg_bounds<'s>(sargs: &[&'s Sarg], column: &str) -> (Option<&'s Value>, Option<&'s Value>) {
    let mut lo: Option<&Value> = None;
    let mut hi: Option<&Value> = None;
    for s in sargs.iter().filter(|s| s.column.column == column) {
        let (l, h) = s.value_range();
        if let Some(l) = l {
            lo = Some(match lo {
                Some(cur) if cur >= l => cur,
                _ => l,
            });
        }
        if let Some(h) = h {
            hi = Some(match hi {
                Some(cur) if cur <= h => cur,
                _ => h,
            });
        }
    }
    (lo, hi)
}

/// Partition-elimination fraction a partitioning scheme yields under the
/// given sargs (1.0 when no sarg restricts the partitioning column).
pub fn elimination_fraction(scheme: &RangePartitioning, sargs: &[&Sarg]) -> f64 {
    let (lo, hi) = sarg_bounds(sargs, &scheme.column);
    if lo.is_none() && hi.is_none() {
        return 1.0;
    }
    scheme.elimination_fraction(lo, hi)
}

/// The length of the seekable key prefix and its combined selectivity.
/// Standard B-tree rule: equality predicates extend the prefix; the first
/// range/IN/prefix predicate is used and then the prefix stops.
fn seek_prefix(ctx: &PlanContext<'_>, table: &str, index: &Index, sargs: &[&Sarg]) -> (usize, f64) {
    let mut len = 0usize;
    let mut sel = 1.0;
    for key in &index.key_columns {
        let Some(s) = sargs.iter().find(|s| s.column.column == *key && s.is_seekable()) else {
            break;
        };
        sel *= ctx.estimator.sarg_selectivity(table, s);
        len += 1;
        if !matches!(s.op, SargOp::Eq(_)) {
            break;
        }
    }
    (len, sel)
}

/// Selectivity of sargs evaluable at the index leaf (columns present in
/// the leaf but not part of the seek prefix).
fn leaf_filter_sel(
    ctx: &PlanContext<'_>,
    table: &str,
    index: &Index,
    sargs: &[&Sarg],
    seek_len: usize,
) -> f64 {
    let seek_cols: Vec<&String> = index.key_columns.iter().take(seek_len).collect();
    let mut sel = 1.0;
    for s in sargs {
        if seek_cols.iter().any(|k| **k == s.column.column) {
            continue;
        }
        if index.leaf_columns().any(|c| *c == s.column.column) {
            sel *= ctx.estimator.sarg_selectivity(table, s);
        }
    }
    sel
}

/// Enumerate all access options for one table reference.
///
/// `required` is the set of columns the plan must produce for this table
/// (drives covering checks); `extra_seek_sargs` lets the join planner add
/// equality sargs on join columns when costing the inner side of an
/// index nested-loop join.
pub fn access_options(
    ctx: &PlanContext<'_>,
    binding: &str,
    table: &str,
    sargs: &[&Sarg],
    residuals: usize,
    required: &[String],
) -> Vec<AccessOption> {
    let rows = ctx.sizes.rows(ctx.database, table) as f64;
    let width = ctx.sizes.row_width(ctx.database, table);
    let heap_pages = pages_for(rows as u64, width) as f64;
    let out_sel = ctx.estimator.table_selectivity(table, sargs, residuals);
    let out_rows = (rows * out_sel).max(0.0);

    let owned_sargs: Arc<[Sarg]> = sargs.iter().map(|s| (*s).clone()).collect();
    let mut options = Vec::new();

    let clustered = ctx.config.clustered_index(ctx.database, table);
    let table_part = ctx.config.effective_table_partitioning(ctx.database, table);

    // --- heap / clustered scan ------------------------------------------
    {
        let fraction = table_part.map_or(1.0, |p| elimination_fraction(p, sargs));
        let io = (heap_pages * fraction).max(1.0);
        let cpu = rows * fraction / ctx.hardware.parallel_factor(io);
        let cost = io + cpu * CPU_W;
        let order = match (clustered, table_part) {
            (Some(ci), None) => {
                ci.key_columns.iter().map(|c| BoundColumn::new(binding, c)).collect()
            }
            _ => Vec::new(), // partitioned scans deliver no global order
        };
        options.push(AccessOption {
            access: TableAccess {
                database: ctx.database.into(),
                table: table.into(),
                binding: binding.into(),
                method: AccessMethod::HeapScan,
                sargs: owned_sargs.clone(),
                residuals,
                partition_fraction: fraction,
                est_rows: out_rows,
                est_cost: cost,
            },
            order,
            partitioned_on: table_part.map(|p| (BoundColumn::new(binding, &p.column), p.clone())),
        });
    }

    // --- clustered index seek -------------------------------------------
    if let Some(ci) = clustered {
        let (seek_len, seek_sel) = seek_prefix(ctx, table, ci, sargs);
        if seek_len > 0 {
            let mut descent = SEEK_DESCENT_PAGES;
            if let Some(p) = &ci.partitioning {
                let (lo, hi) = sarg_bounds(sargs, &p.column);
                descent *= p.partitions_touched(lo, hi) as f64;
            }
            let io = descent + (heap_pages * seek_sel).max(1.0);
            let scanned = rows * seek_sel;
            let cost = io + scanned * CPU_W;
            options.push(AccessOption {
                access: TableAccess {
                    database: ctx.database.into(),
                    table: table.into(),
                    binding: binding.into(),
                    method: AccessMethod::ClusteredSeek {
                        index: index_handle(ctx.config, ci),
                        seek_len,
                    },
                    sargs: owned_sargs.clone(),
                    residuals,
                    partition_fraction: 1.0,
                    est_rows: out_rows,
                    est_cost: cost,
                },
                order: if ci.partitioning.is_none() {
                    ci.key_columns.iter().map(|c| BoundColumn::new(binding, c)).collect()
                } else {
                    Vec::new()
                },
                partitioned_on: ci
                    .partitioning
                    .as_ref()
                    .map(|p| (BoundColumn::new(binding, &p.column), p.clone())),
            });
        }
    }

    // --- non-clustered indexes ------------------------------------------
    for ix in ctx.config.indexes_on(ctx.database, table) {
        if ix.kind != IndexKind::NonClustered {
            continue;
        }
        let leaf_width: u32 =
            ix.leaf_columns().map(|c| ctx.sizes.column_width(ctx.database, table, c)).sum::<u32>()
                + dta_physical::sizing::ROW_LOCATOR_BYTES
                + dta_physical::sizing::ROW_OVERHEAD_BYTES;
        let leaf_pages = pages_for(rows as u64, leaf_width) as f64;
        let covering = ix.covers(required);
        let (seek_len, seek_sel) = seek_prefix(ctx, table, ix, sargs);

        // partitioned-index descent multiplier and leaf elimination
        let mut descent = SEEK_DESCENT_PAGES;
        let mut leaf_elim = 1.0;
        if let Some(p) = &ix.partitioning {
            let (lo, hi) = sarg_bounds(sargs, &p.column);
            let touched = p.partitions_touched(lo, hi) as f64;
            descent *= touched;
            // leaf elimination only helps when the partitioning column is
            // not already the seek column
            if ix.key_columns.first() != Some(&p.column) {
                leaf_elim = touched / p.partition_count() as f64;
            }
        }

        if seek_len > 0 {
            let matched = rows * seek_sel;
            let after_leaf = matched * leaf_filter_sel(ctx, table, ix, sargs, seek_len);
            let lookup_pages = if covering { 0.0 } else { after_leaf };
            let io = descent + (leaf_pages * seek_sel * leaf_elim).max(1.0) + lookup_pages;
            let cost = io + matched * CPU_W;
            options.push(AccessOption {
                access: TableAccess {
                    database: ctx.database.into(),
                    table: table.into(),
                    binding: binding.into(),
                    method: AccessMethod::IndexSeek {
                        index: index_handle(ctx.config, ix),
                        seek_len,
                        covering,
                    },
                    sargs: owned_sargs.clone(),
                    residuals,
                    partition_fraction: 1.0,
                    est_rows: out_rows,
                    est_cost: cost,
                },
                order: if ix.partitioning.is_none() && covering {
                    ix.key_columns.iter().map(|c| BoundColumn::new(binding, c)).collect()
                } else {
                    Vec::new()
                },
                partitioned_on: ix
                    .partitioning
                    .as_ref()
                    .map(|p| (BoundColumn::new(binding, &p.column), p.clone())),
            });
        } else if covering {
            // covering scan of a narrower structure
            let io = (leaf_pages * leaf_elim).max(1.0);
            let cpu = rows * leaf_elim / ctx.hardware.parallel_factor(io);
            let cost = io + cpu * CPU_W;
            options.push(AccessOption {
                access: TableAccess {
                    database: ctx.database.into(),
                    table: table.into(),
                    binding: binding.into(),
                    method: AccessMethod::CoveringScan { index: index_handle(ctx.config, ix) },
                    sargs: owned_sargs.clone(),
                    residuals,
                    partition_fraction: leaf_elim,
                    est_rows: out_rows,
                    est_cost: cost,
                },
                order: if ix.partitioning.is_none() {
                    ix.key_columns.iter().map(|c| BoundColumn::new(binding, c)).collect()
                } else {
                    Vec::new()
                },
                partitioned_on: ix
                    .partitioning
                    .as_ref()
                    .map(|p| (BoundColumn::new(binding, &p.column), p.clone())),
            });
        }
    }

    options
}

/// The cheapest option, optionally requiring a sort order prefix.
pub fn best_option(
    options: Vec<AccessOption>,
    order_prefix: Option<&[BoundColumn]>,
) -> Option<AccessOption> {
    options
        .into_iter()
        .filter(|o| match order_prefix {
            None => true,
            Some(prefix) => o.order.get(..prefix.len()).is_some_and(|head| head == prefix),
        })
        .min_by(|a, b| a.access.est_cost.total_cmp(&b.access.est_cost))
}

// ---- join ------------------------------------------------------------------

/// An in-progress join tree.
pub struct JoinState {
    pub node: PlanNode,
    pub bindings: BTreeSet<String>,
    /// Sort order the stream currently has.
    pub order: Vec<BoundColumn>,
    /// Partitioning the stream retains.
    pub partitioned_on: Option<(BoundColumn, RangePartitioning)>,
    /// Estimated row width of the stream in bytes.
    pub width: f64,
}

impl JoinState {
    fn rows(&self) -> f64 {
        self.node.est_rows()
    }

    fn cost(&self) -> f64 {
        self.node.est_cost()
    }
}

fn leaf_state(ctx: &PlanContext<'_>, bound: &BoundSelect, binding: &str) -> JoinState {
    let table = bound.table_of(binding).expect("bound binding");
    let sargs = bound.sargs_for(binding);
    let residuals = bound.residuals.get(binding).copied().unwrap_or(0);
    let required = bound.referenced_for(binding);
    let opts = access_options(ctx, binding, table, &sargs, residuals, &required);
    let best = best_option(opts, None).expect("heap scan always available");
    let width: f64 = required
        .iter()
        .map(|c| ctx.sizes.column_width(ctx.database, table, c) as f64)
        .sum::<f64>()
        .max(8.0);
    JoinState {
        node: PlanNode::Access(best.access),
        bindings: BTreeSet::from([binding.to_string()]),
        order: best.order,
        partitioned_on: best.partitioned_on,
        width,
    }
}

/// Join predicates connecting the current set to `binding`.
fn connecting<'p>(
    preds: &'p [JoinPred],
    set: &BTreeSet<String>,
    binding: &str,
) -> Vec<&'p JoinPred> {
    preds
        .iter()
        .filter(|p| {
            (set.contains(&p.left.binding) && p.right.binding == binding)
                || (set.contains(&p.right.binding) && p.left.binding == binding)
        })
        .collect()
}

/// Combined selectivity of a set of join predicates.
fn join_sel(ctx: &PlanContext<'_>, bound: &BoundSelect, preds: &[&JoinPred]) -> f64 {
    let mut sel = 1.0;
    for p in preds {
        let lt = bound.table_of(&p.left.binding).expect("join predicates reference bound tables");
        let rt = bound.table_of(&p.right.binding).expect("join predicates reference bound tables");
        let lr = ctx.sizes.rows(ctx.database, lt) as f64;
        let rr = ctx.sizes.rows(ctx.database, rt) as f64;
        sel *= ctx.estimator.join_selectivity(lt, &p.left.column, lr, rt, &p.right.column, rr);
    }
    sel
}

/// Hash-join cost of combining `a` (as one side) and `b`, picking the
/// smaller side as build. Returns `(incremental_cost, partition_wise)`.
fn hash_join_cost(
    ctx: &PlanContext<'_>,
    a: &JoinState,
    b: &JoinState,
    preds: &[&JoinPred],
    out_rows: f64,
) -> (f64, bool) {
    let (build, probe) = if a.rows() <= b.rows() { (a, b) } else { (b, a) };
    let build_bytes = build.rows() * build.width;
    let probe_bytes = probe.rows() * probe.width;

    // co-partitioned inputs on the join keys let each partition's hash
    // table fit in a fraction of the memory
    let partition_wise = match (&a.partitioned_on, &b.partitioned_on) {
        (Some((ca, pa)), Some((cb, pb))) => {
            pa.boundaries == pb.boundaries
                && preds
                    .iter()
                    .any(|p| (p.left == *ca && p.right == *cb) || (p.left == *cb && p.right == *ca))
        }
        _ => false,
    };
    let mem = ctx.hardware.memory_bytes as f64
        * if partition_wise {
            match &a.partitioned_on {
                Some((_, p)) => p.partition_count() as f64,
                None => 1.0,
            }
        } else {
            1.0
        };

    let mut cpu = 2.0 * build.rows() + probe.rows() + out_rows;
    let total_pages = (build_bytes + probe_bytes) / PAGE_SIZE as f64;
    cpu /= ctx.hardware.parallel_factor(total_pages);
    let mut io = 0.0;
    if build_bytes > mem {
        // grace hash join: write and re-read both inputs
        io += 2.0 * (build_bytes + probe_bytes) / PAGE_SIZE as f64;
    }
    (io + cpu * CPU_W, partition_wise)
}

/// Index-nested-loop cost: probe `inner` once per outer row via an index
/// whose leading key is the join column. Returns the inner access spec
/// and the incremental cost, if any suitable index exists.
fn inl_join(
    ctx: &PlanContext<'_>,
    bound: &BoundSelect,
    outer: &JoinState,
    inner_binding: &str,
    preds: &[&JoinPred],
) -> Option<(TableAccess, f64)> {
    let inner_table = bound.table_of(inner_binding)?;
    let inner_rows = ctx.sizes.rows(ctx.database, inner_table) as f64;
    let required = bound.referenced_for(inner_binding);
    let inner_sargs = bound.sargs_for(inner_binding);
    let inner_residuals = bound.residuals.get(inner_binding).copied().unwrap_or(0);
    let local_sel = ctx.estimator.table_selectivity(inner_table, &inner_sargs, inner_residuals);

    // join columns on the inner side
    let join_cols: Vec<&str> =
        preds.iter().filter_map(|p| p.side_for(inner_binding).map(|c| c.column.as_str())).collect();

    let mut best: Option<(TableAccess, f64)> = None;
    for ix in ctx.config.indexes_on(ctx.database, inner_table) {
        let Some(first_key) = ix.key_columns.first() else { continue };
        if !join_cols.contains(&first_key.as_str()) {
            continue;
        }
        let covering = ix.kind == IndexKind::Clustered || ix.covers(&required);
        let distinct = ctx.estimator.distinct_count(inner_table, first_key, inner_rows.max(1.0));
        let matched_per_probe = (inner_rows / distinct).max(0.0);
        let leaf_width: u32 = if ix.kind == IndexKind::Clustered {
            ctx.sizes.row_width(ctx.database, inner_table)
        } else {
            ix.leaf_columns()
                .map(|c| ctx.sizes.column_width(ctx.database, inner_table, c))
                .sum::<u32>()
                + dta_physical::sizing::ROW_LOCATOR_BYTES
                + dta_physical::sizing::ROW_OVERHEAD_BYTES
        };
        let leaf_pages = pages_for(inner_rows as u64, leaf_width) as f64;
        let leaf_per_probe = (leaf_pages / distinct).min(matched_per_probe).max(0.06);
        let lookups = if covering { 0.0 } else { matched_per_probe * local_sel };
        let per_probe = SEEK_DESCENT_PAGES * 0.5 // upper levels cache well under repeated probes
            + leaf_per_probe
            + lookups
            + matched_per_probe * CPU_W;
        let out_per_probe = matched_per_probe * local_sel;
        let cost_per_probe = per_probe;
        let access = TableAccess {
            database: ctx.database.into(),
            table: inner_table.into(),
            binding: inner_binding.into(),
            method: if ix.kind == IndexKind::Clustered {
                AccessMethod::ClusteredSeek { index: index_handle(ctx.config, ix), seek_len: 1 }
            } else {
                AccessMethod::IndexSeek {
                    index: index_handle(ctx.config, ix),
                    seek_len: 1,
                    covering,
                }
            },
            sargs: inner_sargs.iter().map(|s| (*s).clone()).collect(),
            residuals: inner_residuals,
            partition_fraction: 1.0,
            est_rows: out_per_probe,
            est_cost: cost_per_probe,
        };
        let total = outer.rows() * cost_per_probe;
        if best.as_ref().is_none_or(|(_, c)| total < *c) {
            best = Some((access, total));
        }
    }
    best
}

/// Plan the join of all tables in `bound`, returning the resulting state.
pub fn plan_joins(ctx: &PlanContext<'_>, bound: &BoundSelect) -> JoinState {
    let mut leaves: Vec<JoinState> =
        bound.tables.iter().map(|t| leaf_state(ctx, bound, &t.binding)).collect();

    // start from the smallest estimated leaf
    let start = leaves
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.rows().total_cmp(&b.rows()))
        .map(|(i, _)| i)
        .expect("at least one table");
    let mut cur = leaves.swap_remove(start);

    while !leaves.is_empty() {
        // candidates connected by a join predicate, or everything if none
        let mut best: Option<(usize, f64, JoinState)> = None;
        for (i, cand) in leaves.iter().enumerate() {
            let binding = cand.bindings.iter().next().expect("leaf has one binding").clone();
            let preds = connecting(&bound.joins, &cur.bindings, &binding);
            let sel = if preds.is_empty() { 1.0 } else { join_sel(ctx, bound, &preds) };
            let out_rows = (cur.rows() * cand.rows() * sel).max(0.0);

            // hash join option
            let (hj_incr, partition_wise) = hash_join_cost(ctx, &cur, cand, &preds, out_rows);
            let hj_total = cur.cost()
                + cand.cost()
                + hj_incr
                + if preds.is_empty() {
                    // discourage cross joins strongly
                    cur.rows() * cand.rows() * CPU_W * 10.0
                } else {
                    0.0
                };
            let mut choice_cost = hj_total;
            let mut choice = JoinState {
                node: PlanNode::HashJoin {
                    left: Box::new(cur.node.clone()),
                    right: Box::new(cand.node.clone()),
                    pairs: preds.iter().map(|p| (*p).clone()).collect(),
                    partition_wise,
                    est_rows: out_rows,
                    est_cost: hj_total,
                },
                bindings: cur.bindings.union(&cand.bindings).cloned().collect(),
                order: Vec::new(), // hash join destroys order
                partitioned_on: if partition_wise { cur.partitioned_on.clone() } else { None },
                width: cur.width + cand.width,
            };

            // index-nested-loop option (candidate as inner)
            if !preds.is_empty() {
                if let Some((inner_access, probe_cost)) =
                    inl_join(ctx, bound, &cur, &binding, &preds)
                {
                    let inl_total = cur.cost() + probe_cost + out_rows * CPU_W;
                    if inl_total < choice_cost {
                        choice_cost = inl_total;
                        choice = JoinState {
                            node: PlanNode::IndexNLJoin {
                                outer: Box::new(cur.node.clone()),
                                inner: inner_access,
                                pairs: preds.iter().map(|p| (*p).clone()).collect(),
                                est_rows: out_rows,
                                est_cost: inl_total,
                            },
                            bindings: cur.bindings.union(&cand.bindings).cloned().collect(),
                            order: cur.order.clone(), // outer order preserved
                            partitioned_on: None,
                            width: cur.width + cand.width,
                        };
                    }
                }
            }

            if best.as_ref().is_none_or(|(_, c, _)| choice_cost < *c) {
                best = Some((i, choice_cost, choice));
            }
        }
        let (idx, _, state) = best.expect("non-empty leaves");
        leaves.swap_remove(idx);
        cur = state;
    }

    // cross-table residuals reduce output cardinality
    if bound.cross_residuals > 0 {
        let factor = RESIDUAL_SEL.powi(bound.cross_residuals as i32);
        scale_rows(&mut cur.node, factor);
    }
    cur
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

// ---- views -----------------------------------------------------------------

/// A usable view rewrite.
pub struct ViewPlan {
    /// The `ViewScan` node (cost/cardinality filled in).
    pub scan: PlanNode,
    /// Whether the view already answers the query's grouping exactly
    /// (no re-aggregation needed). Meaningless for non-aggregate queries.
    pub answers_grouping: bool,
}

/// Estimated row count of a materialized view (group count for grouped
/// views, join cardinality otherwise).
pub fn estimate_view_rows(ctx: &PlanContext<'_>, view: &MaterializedView) -> f64 {
    // join cardinality of the view's FROM
    let mut rows = 1.0;
    for t in &view.tables {
        rows *= (ctx.sizes.rows(ctx.database, t) as f64).max(1.0);
    }
    for jp in &view.join_pairs {
        let lr = ctx.sizes.rows(ctx.database, &jp.left.table) as f64;
        let rr = ctx.sizes.rows(ctx.database, &jp.right.table) as f64;
        rows *= ctx.estimator.join_selectivity(
            &jp.left.table,
            &jp.left.column,
            lr,
            &jp.right.table,
            &jp.right.column,
            rr,
        );
    }
    if !view.is_grouped() {
        return rows.max(1.0);
    }
    let cols: Vec<(String, BoundColumn)> = view
        .group_by
        .iter()
        .map(|qc| (qc.table.clone(), BoundColumn::new(&qc.table, &qc.column)))
        .collect();
    ctx.estimator.group_count(&cols, rows).max(1.0)
}

/// Materialized width in bytes of one view row.
pub fn view_row_width(ctx: &PlanContext<'_>, view: &MaterializedView) -> u32 {
    let produced = if view.is_grouped() { &view.group_by } else { &view.projected };
    let mut w: u32 =
        produced.iter().map(|c| ctx.sizes.column_width(ctx.database, &c.table, &c.column)).sum();
    w += 8 * view.aggregates.len() as u32;
    w + dta_physical::sizing::ROW_OVERHEAD_BYTES
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

/// Try to match every view in the configuration against the query;
/// returns all usable rewrites.
pub fn view_plans(ctx: &PlanContext<'_>, bound: &BoundSelect) -> Vec<ViewPlan> {
    // self-joins make binding→table translation ambiguous; skip
    let mut table_to_binding: BTreeMap<&str, &str> = BTreeMap::new();
    for t in &bound.tables {
        if table_to_binding.insert(t.table.as_str(), t.binding.as_str()).is_some() {
            return Vec::new();
        }
    }
    let to_table = |bc: &BoundColumn| -> Option<QualifiedColumn> {
        bound.table_of(&bc.binding).map(|t| QualifiedColumn::new(t, &bc.column))
    };

    // the query's join pairs in table-qualified normalized form
    let mut q_pairs: Vec<JoinPair> = Vec::new();
    for jp in bound.joins.iter() {
        let (Some(l), Some(r)) = (to_table(&jp.left), to_table(&jp.right)) else {
            return Vec::new();
        };
        q_pairs.push(JoinPair::new(l, r));
    }
    q_pairs.sort();
    q_pairs.dedup();

    let mut q_tables: Vec<&str> = bound.tables.iter().map(|t| t.table.as_str()).collect();
    q_tables.sort_unstable();

    let mut out = Vec::new();
    'views: for view in ctx.config.views(ctx.database) {
        // --- full-match join graph ------------------------------------
        let v_tables: Vec<&str> = view.tables.iter().map(String::as_str).collect();
        if v_tables != q_tables {
            continue;
        }
        if view.join_pairs != q_pairs {
            continue;
        }
        // residual predicates cannot be evaluated against a view that may
        // not produce their columns; be conservative
        if bound.cross_residuals > 0 || !bound.residuals.is_empty() {
            continue;
        }

        let q_groups: Vec<QualifiedColumn> =
            match bound.group_by.iter().map(to_table).collect::<Option<Vec<_>>>() {
                Some(g) => g,
                None => continue,
            };

        let produced: &[QualifiedColumn] =
            if view.is_grouped() { &view.group_by } else { &view.projected };
        let produces = |qc: &QualifiedColumn| produced.iter().any(|p| p == qc);

        // every sarg column must be produced by the view
        let mut view_sargs: Vec<Sarg> = Vec::new();
        for s in bound.sargs.iter() {
            let Some(qc) = to_table(&s.column) else { continue 'views };
            if !produces(&qc) {
                continue 'views;
            }
            view_sargs.push(s.clone());
        }

        let (answers_grouping, est_rows);
        let v_rows = estimate_view_rows(ctx, view);
        if view.is_grouped() {
            if !bound.is_aggregate() {
                continue; // a grouped view cannot recover raw rows
            }
            // view group-by must subsume the query's group-by
            if !q_groups.iter().all(|g| view.group_by.contains(g)) {
                continue;
            }
            let exact = q_groups.len() == view.group_by.len();
            // aggregates must be derivable (by canonical argument text)
            for a in &bound.aggregates {
                let arg = match &a.arg_expr {
                    Some(e) => match dta_optimizer::query::canonical_agg_arg(bound, e) {
                        Some((text, _)) => Some(text),
                        None => continue 'views,
                    },
                    None => None,
                };
                if !aggregate_available(view, a.func, &arg, !exact, a.distinct) {
                    continue 'views;
                }
            }
            answers_grouping = exact;
            let sel = sarg_selectivity_on_view(ctx, view, &view_sargs);
            est_rows = (v_rows * sel).max(0.0);
        } else {
            // ungrouped view: must produce every referenced column
            for (binding, cols) in &bound.referenced {
                let Some(table) = bound.table_of(binding) else { continue 'views };
                for c in cols {
                    if !produces(&QualifiedColumn::new(table, c)) {
                        continue 'views;
                    }
                }
            }
            answers_grouping = false;
            let sel = sarg_selectivity_on_view(ctx, view, &view_sargs);
            est_rows = (v_rows * sel).max(0.0);
        }

        // scan cost over the materialized view
        let width = view_row_width(ctx, view);
        let pages = pages_for(v_rows.max(1.0) as u64, width) as f64;
        let elim = view.partitioning.as_ref().map_or(1.0, |p| {
            let refs: Vec<&Sarg> = view_sargs.iter().collect();
            elimination_fraction(p, &refs)
        });
        let io = (pages * elim).max(1.0);
        let cpu = v_rows * elim / ctx.hardware.parallel_factor(io);
        let cost = io + cpu * CPU_W;

        out.push(ViewPlan {
            scan: PlanNode::ViewScan {
                view: view_handle(ctx.config, view),
                replaced: bound.tables.iter().map(|t| t.binding.clone()).collect(),
                sargs: view_sargs.into(),
                answers_grouping,
                est_rows,
                est_cost: cost,
            },
            answers_grouping,
        });
    }
    out
}

/// Selectivity of sargs evaluated against view output. Histograms are on
/// base-table columns, which is exactly what the view's group-by columns
/// carry (modulo group skew — acceptable for costing).
fn sarg_selectivity_on_view(
    ctx: &PlanContext<'_>,
    _view: &MaterializedView,
    sargs: &[Sarg],
) -> f64 {
    let mut sel = 1.0;
    for s in sargs {
        // the sarg's binding maps to a base table in the same database
        sel *= ctx.estimator.sarg_selectivity(&table_of_sarg(s), s);
    }
    sel
}

fn table_of_sarg(s: &Sarg) -> String {
    // by construction view sargs keep their original binding == table
    // when bindings are unaliased; for aliased bindings histogram lookup
    // simply misses and falls back, which is acceptable
    s.column.binding.clone()
}

// ---- dml -------------------------------------------------------------------

/// Page writes charged per modified row per affected index.
pub const INDEX_MAINT_PAGES: f64 = 1.5;

/// Page writes charged per modified row per affected materialized view,
/// scaled by the number of tables the view joins (maintaining a join view
/// requires looking up the other side(s)).
pub const VIEW_MAINT_PAGES_PER_TABLE: f64 = 2.0;

/// Plan (and cost) a DML statement under a configuration.
pub fn plan_dml(ctx: &PlanContext<'_>, dml: &BoundDml) -> PlanNode {
    match dml {
        BoundDml::Insert { database, table, rows } => {
            let rows_f = *rows as f64;
            let mut cost = 1.0 + rows_f * CPU_W;
            let mut maintained = Vec::new();
            for ix in ctx.config.indexes_on(database, table) {
                let per_row = match ix.kind {
                    IndexKind::Clustered => 1.0,
                    IndexKind::NonClustered => INDEX_MAINT_PAGES,
                };
                cost += rows_f * per_row;
                maintained.push(index_handle(ctx.config, ix));
            }
            for v in ctx.config.views(database) {
                if v.tables.iter().any(|t| t == table) {
                    cost += rows_f * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(view_handle(ctx.config, v));
                }
            }
            PlanNode::Insert {
                database: database.as_str().into(),
                table: table.as_str().into(),
                rows: *rows,
                maintained,
                est_cost: cost,
            }
        }
        BoundDml::Update { database, table, set_columns, filter } => {
            let (access, affected) = locate(ctx, database, table, filter, set_columns);
            let mut cost = access.est_cost() + affected * 1.0; // base row writes
            let mut maintained = Vec::new();
            for ix in ctx.config.indexes_on(database, table) {
                let touches = ix.leaf_columns().any(|c| set_columns.iter().any(|sc| sc == c))
                    || ix.partitioning.as_ref().is_some_and(|p| set_columns.contains(&p.column));
                if touches {
                    cost += affected * 2.0 * INDEX_MAINT_PAGES; // delete + insert entry
                    maintained.push(index_handle(ctx.config, ix));
                }
            }
            for v in ctx.config.views(database) {
                let touches = v.tables.iter().any(|t| t == table)
                    && view_references_columns(v, table, set_columns);
                if touches {
                    cost += affected * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(view_handle(ctx.config, v));
                }
            }
            PlanNode::Update {
                access: Box::new(access),
                set_columns: set_columns.clone(),
                maintained,
                est_rows: affected,
                est_cost: cost,
            }
        }
        BoundDml::Delete { database, table, filter } => {
            let (access, affected) = locate(ctx, database, table, filter, &[]);
            let mut cost = access.est_cost() + affected * 1.0;
            let mut maintained = Vec::new();
            for ix in ctx.config.indexes_on(database, table) {
                if ix.kind == IndexKind::NonClustered {
                    cost += affected * INDEX_MAINT_PAGES;
                    maintained.push(index_handle(ctx.config, ix));
                }
            }
            for v in ctx.config.views(database) {
                if v.tables.iter().any(|t| t == table) {
                    cost += affected * VIEW_MAINT_PAGES_PER_TABLE * v.tables.len() as f64;
                    maintained.push(view_handle(ctx.config, v));
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

/// Best access path to locate the affected rows.
fn locate(
    ctx: &PlanContext<'_>,
    database: &str,
    table: &str,
    filter: &SingleTableFilter,
    set_columns: &[String],
) -> (PlanNode, f64) {
    debug_assert_eq!(database, ctx.database);
    let sargs: Vec<&Sarg> = filter.sargs.iter().collect();
    let mut required: Vec<String> = filter.referenced.iter().cloned().collect();
    for c in set_columns {
        if !required.contains(c) {
            required.push(c.clone());
        }
    }
    let opts = access_options(ctx, table, table, &sargs, filter.residuals, &required);
    let best = best_option(opts, None).expect("heap scan always available");
    let rows = best.access.est_rows;
    (PlanNode::Access(best.access), rows)
}

// ---- whatif ----------------------------------------------------------------

/// The per-call what-if optimizer: stateless over borrowed server state.
pub struct PerCallOptimizer<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a StatisticsManager,
    pub sizes: &'a dyn TableStatsProvider,
    pub hardware: HardwareParams,
}

impl<'a> PerCallOptimizer<'a> {
    /// Construct over server state.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a StatisticsManager,
        sizes: &'a dyn TableStatsProvider,
        hardware: HardwareParams,
    ) -> Self {
        Self { catalog, stats, sizes, hardware }
    }

    /// Optimize a statement under a hypothetical configuration.
    pub fn optimize(
        &self,
        database: &str,
        stmt: &Statement,
        config: &Configuration,
    ) -> Result<Plan, BindError> {
        let bound = bind(self.catalog, database, stmt)?;
        let ctx = PlanContext {
            estimator: Estimator::new(self.stats, database),
            config,
            sizes: self.sizes,
            hardware: self.hardware,
            database,
        };
        let root = match &bound {
            BoundStatement::Select(b) => plan_select(&ctx, b),
            BoundStatement::Dml(d) => plan_dml(&ctx, d),
        };
        Ok(Plan::new(root))
    }

    /// Estimated logical row count of a materialized view (used for
    /// storage sizing of hypothetical views).
    pub fn view_rows(&self, view: &MaterializedView) -> u64 {
        let config = Configuration::new();
        let ctx = PlanContext {
            estimator: Estimator::new(self.stats, &view.database),
            config: &config,
            sizes: self.sizes,
            hardware: self.hardware,
            database: &view.database,
        };
        estimate_view_rows(&ctx, view) as u64
    }
}

/// Does `order` (a delivered sort order) cover `set` as a leading prefix
/// in any permutation? That is what stream aggregation needs.
fn order_covers_set(order: &[BoundColumn], set: &[BoundColumn]) -> bool {
    !set.is_empty()
        && order.get(..set.len()).is_some_and(|head| head.iter().all(|c| set.contains(c)))
}

/// Does `order` satisfy an ORDER BY list exactly (directions ignored —
/// reverse scans are free)?
fn order_satisfies(order: &[BoundColumn], wanted: &[(BoundColumn, bool)]) -> bool {
    wanted.len() <= order.len() && wanted.iter().zip(order.iter()).all(|((c, _), o)| c == o)
}

/// Plan a SELECT end to end, considering base plans and view rewrites.
pub fn plan_select(ctx: &PlanContext<'_>, bound: &BoundSelect) -> PlanNode {
    // base plan: join tree over base tables
    let state = plan_joins(ctx, bound);
    let base = finish_select(
        ctx,
        bound,
        state.node,
        &state.order,
        state.partitioned_on.as_ref(),
        state.width,
    );

    let mut best = base;
    for vp in view_plans(ctx, bound) {
        let width = match &vp.scan {
            PlanNode::ViewScan { view, .. } => {
                view_row_width(ctx, view.as_view().expect("a view scan reads a view")) as f64
            }
            _ => 64.0,
        };
        let candidate = if bound.is_aggregate() && !vp.answers_grouping {
            // re-aggregate over the finer-grained view
            let scan_rows = vp.scan.est_rows();
            let scan_cost = vp.scan.est_cost();
            let cols: Vec<(String, BoundColumn)> = bound
                .group_by
                .iter()
                .filter_map(|g| bound.table_of(&g.binding).map(|t| (t.to_string(), g.clone())))
                .collect();
            let groups = ctx.estimator.group_count(&cols, scan_rows);
            let agg = PlanNode::HashAggregate {
                input: Box::new(vp.scan),
                group_by: bound.group_by.clone(),
                est_rows: groups,
                est_cost: scan_cost + (scan_rows * 1.5 + groups) * CPU_W,
            };
            finish_order_top(ctx, bound, agg, &[], groups * 24.0)
        } else if bound.is_aggregate() {
            // the view already answers the grouping
            finish_order_top(ctx, bound, vp.scan, &[], width)
        } else {
            // ungrouped join view feeding a possibly-distinct/sorted query
            finish_select(ctx, bound, vp.scan, &[], None, width)
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
    bound: &BoundSelect,
    node: PlanNode,
    order: &[BoundColumn],
    partitioned_on: Option<&(BoundColumn, RangePartitioning)>,
    width: f64,
) -> PlanNode {
    let mut node = node;
    let mut order: Vec<BoundColumn> = order.to_vec();
    let mut width = width;

    if bound.is_aggregate() {
        let input_rows = node.est_rows();
        let input_cost = node.est_cost();
        if bound.group_by.is_empty() {
            // scalar aggregate
            node = PlanNode::StreamAggregate {
                input: Box::new(node),
                group_by: Arc::default(),
                est_rows: 1.0,
                est_cost: input_cost + input_rows * CPU_W,
            };
            order = Vec::new();
            width = 8.0 * (bound.aggregates.len().max(1)) as f64;
        } else {
            let cols: Vec<(String, BoundColumn)> = bound
                .group_by
                .iter()
                .filter_map(|g| bound.table_of(&g.binding).map(|t| (t.to_string(), g.clone())))
                .collect();
            let groups = ctx.estimator.group_count(&cols, input_rows);
            let out_width =
                bound.group_by.len() as f64 * 8.0 + bound.aggregates.len() as f64 * 8.0 + 9.0;
            let stream_ok = order_covers_set(&order, &bound.group_by);
            if stream_ok {
                node = PlanNode::StreamAggregate {
                    input: Box::new(node),
                    group_by: bound.group_by.clone(),
                    est_rows: groups,
                    est_cost: input_cost + input_rows * CPU_W,
                };
                order.truncate(bound.group_by.len());
            } else {
                // hash aggregation, with partition-wise memory relief when
                // the input is partitioned on one of the grouping columns
                let mut mem = ctx.hardware.memory_bytes as f64;
                if let Some((pc, scheme)) = partitioned_on {
                    if bound.group_by.contains(pc) {
                        mem *= scheme.partition_count() as f64;
                    }
                }
                let bytes = groups * out_width;
                let mut cost = input_cost + (input_rows * 1.5 + groups) * CPU_W;
                if bytes > mem {
                    cost += 2.0 * bytes / PAGE_SIZE as f64;
                }
                node = PlanNode::HashAggregate {
                    input: Box::new(node),
                    group_by: bound.group_by.clone(),
                    est_rows: groups,
                    est_cost: cost,
                };
                order = Vec::new();
            }
            width = out_width;
        }
    } else if bound.distinct {
        let input_rows = node.est_rows();
        let input_cost = node.est_cost();
        let groups = (input_rows * 0.5).max(1.0);
        node = PlanNode::HashAggregate {
            input: Box::new(node),
            group_by: Arc::default(),
            est_rows: groups,
            est_cost: input_cost + (input_rows * 1.5 + groups) * CPU_W,
        };
        order = Vec::new();
    }

    finish_order_top(ctx, bound, node, &order, width)
}

/// Add ORDER BY / TOP handling over a (possibly aggregated) stream.
fn finish_order_top(
    ctx: &PlanContext<'_>,
    bound: &BoundSelect,
    node: PlanNode,
    order: &[BoundColumn],
    width: f64,
) -> PlanNode {
    let mut node = node;
    if !bound.order_by.is_empty() && !order_satisfies(order, &bound.order_by) {
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
            keys: bound.order_by.clone(),
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
