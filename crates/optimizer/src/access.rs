//! Single-table access-path selection.
//!
//! Costs every access path the configuration makes available for one
//! table binding — heap scan (with partition elimination), clustered
//! seek, non-clustered seeks (with or without lookups), covering scans —
//! each with its cost, delivered sort order and retained partitioning.
//! A path is costed as plain numbers over borrowed structures; only the
//! path the planner keeps is turned into a [`TableAccess`] node, which
//! shares the configuration's index handle and the preparation's names
//! and sargs.

use crate::hardware::HardwareParams;
use crate::plan::{AccessMethod, TableAccess};
use crate::prepared::PreparedTable;
use crate::query::{BoundColumn, Sarg, SargOp};
use dta_catalog::Value;
use dta_physical::{Configuration, Index, IndexKind, RangePartitioning, StructureHandle};
use std::cmp::Ordering;
use std::sync::Arc;

/// Pages charged for descending a B-tree to its leaf level.
pub const SEEK_DESCENT_PAGES: f64 = 2.0;

/// Work units per CPU row operation (mirrors the storage crate's meter).
pub const CPU_W: f64 = dta_storage::work::CPU_OP_WEIGHT;

/// What planning one prepared statement under one configuration reads
/// besides the preparation itself.
pub(crate) struct PlanContext<'a> {
    pub config: &'a Configuration,
    pub hardware: HardwareParams,
    pub database: &'a Arc<str>,
    /// [`dta_physical::database_key`] of `database`.
    pub database_key: u64,
}

/// How a costed path reads its table: the index by the handle the
/// configuration holds it in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AccessPath<'a> {
    HeapScan,
    ClusteredSeek { index: &'a StructureHandle, seek_len: usize },
    IndexSeek { index: &'a StructureHandle, seek_len: usize, covering: bool },
    CoveringScan { index: &'a StructureHandle },
}

/// The range partitioning a stream retains, on a column of `binding`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partitioned<'a> {
    pub binding: &'a str,
    pub scheme: &'a RangePartitioning,
}

impl Partitioned<'_> {
    /// Whether `column` is the partitioning column.
    pub(crate) fn is_on(&self, column: &BoundColumn) -> bool {
        column.binding == self.binding && column.column == self.scheme.column
    }
}

/// The sort order a stream has: a binding's rows in the order of a
/// leading part of an index's key. Borrowed from the configuration, so
/// following an order through a plan copies no column.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyOrder<'a> {
    binding: &'a str,
    keys: &'a [String],
}

impl<'a> KeyOrder<'a> {
    /// The order `index`'s keys give rows of `binding`.
    pub(crate) fn of(binding: &'a str, index: &'a Index) -> Self {
        Self { binding, keys: &index.key_columns }
    }

    /// Number of columns the order sorts on.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Column `i` of the order, if it has one.
    fn column(&self, i: usize) -> Option<(&'a str, &'a str)> {
        self.keys.get(i).map(|k| (self.binding, k.as_str()))
    }

    /// The order's first `n` columns.
    pub(crate) fn truncated(self, n: usize) -> Self {
        Self { keys: self.keys.get(..n).unwrap_or(self.keys), ..self }
    }

    /// Whether the order covers `set` as a leading prefix in any
    /// permutation: what stream aggregation needs.
    pub(crate) fn covers_set(&self, set: &[BoundColumn]) -> bool {
        !set.is_empty()
            && set.len() <= self.len()
            && (0..set.len()).all(|i| {
                self.column(i)
                    .is_some_and(|(b, c)| set.iter().any(|s| s.binding == b && s.column == c))
            })
    }

    /// Whether the order satisfies an ORDER BY list exactly (directions
    /// ignored: reverse scans are free).
    pub(crate) fn satisfies(&self, wanted: &[(BoundColumn, bool)]) -> bool {
        wanted.len() <= self.len()
            && wanted.iter().enumerate().all(|(i, (c, _))| {
                self.column(i).is_some_and(|(b, k)| c.binding == b && c.column == k)
            })
    }
}

/// One costed way to read a table binding. Its output rows are the
/// binding's [`PreparedTable::out_rows`] whatever the path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessChoice<'a> {
    pub path: AccessPath<'a>,
    /// Fraction of partitions read (1.0 when none is eliminated).
    pub partition_fraction: f64,
    pub cost: f64,
    /// The index whose key order the output has, if any.
    pub ordered_by: Option<&'a Index>,
    /// Partitioning the output retains, if any.
    pub partitioned_on: Option<&'a RangePartitioning>,
}

impl AccessChoice<'_> {
    /// The plan node for this path.
    pub(crate) fn materialize(&self, ctx: &PlanContext<'_>, t: &PreparedTable) -> TableAccess {
        TableAccess {
            database: Arc::clone(ctx.database),
            table: Arc::clone(&t.facts.table),
            binding: Arc::clone(&t.binding),
            method: match self.path {
                AccessPath::HeapScan => AccessMethod::HeapScan,
                AccessPath::ClusteredSeek { index, seek_len } => {
                    AccessMethod::ClusteredSeek { index: index.clone(), seek_len }
                }
                AccessPath::IndexSeek { index, seek_len, covering } => {
                    AccessMethod::IndexSeek { index: index.clone(), seek_len, covering }
                }
                AccessPath::CoveringScan { index } => {
                    AccessMethod::CoveringScan { index: index.clone() }
                }
            },
            sargs: Arc::clone(&t.sargs),
            residuals: t.residuals,
            partition_fraction: self.partition_fraction,
            est_rows: t.out_rows,
            est_cost: self.cost,
        }
    }
}

/// Combined `(low, high)` value bounds that sargs impose on `column`.
pub fn sarg_bounds<'s>(sargs: &'s [Sarg], column: &str) -> (Option<&'s Value>, Option<&'s Value>) {
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
pub fn elimination_fraction(scheme: &RangePartitioning, sargs: &[Sarg]) -> f64 {
    let (lo, hi) = sarg_bounds(sargs, &scheme.column);
    if lo.is_none() && hi.is_none() {
        return 1.0;
    }
    scheme.elimination_fraction(lo, hi)
}

/// The length of the seekable key prefix and its combined selectivity.
/// Standard B-tree rule: equality predicates extend the prefix; the first
/// range/IN/prefix predicate is used and then the prefix stops.
fn seek_prefix(t: &PreparedTable, index: &Index) -> (usize, f64) {
    let mut len = 0usize;
    let mut sel = 1.0;
    for key in &index.key_columns {
        let Some((s, s_sel)) =
            t.sargs_with_sel().find(|(s, _)| s.column.column == *key && s.is_seekable())
        else {
            break;
        };
        sel *= s_sel;
        len += 1;
        if !matches!(s.op, SargOp::Eq(_)) {
            break;
        }
    }
    (len, sel)
}

/// Selectivity of sargs evaluable at the index leaf (columns present in
/// the leaf but not part of the seek prefix).
fn leaf_filter_sel(t: &PreparedTable, index: &Index, seek_len: usize) -> f64 {
    let mut sel = 1.0;
    for (s, s_sel) in t.sargs_with_sel() {
        if index.key_columns.iter().take(seek_len).any(|k| *k == s.column.column) {
            continue;
        }
        if index.leaf_columns().any(|c| *c == s.column.column) {
            sel *= s_sel;
        }
    }
    sel
}

/// Leaf-row width of a non-clustered index on `t`'s table.
pub(crate) fn leaf_width(t: &PreparedTable, index: &Index) -> u32 {
    index.leaf_columns().map(|c| t.facts.column_width(c)).sum::<u32>()
        + dta_physical::sizing::ROW_LOCATOR_BYTES
        + dta_physical::sizing::ROW_OVERHEAD_BYTES
}

/// Cost every access path of one table binding, in a fixed order: the
/// heap (or clustered) scan, the clustered seek, then each non-clustered
/// index in configuration order.
pub(crate) fn for_each_access<'a>(
    ctx: &PlanContext<'a>,
    t: &PreparedTable,
    mut visit: impl FnMut(AccessChoice<'a>),
) {
    let rows = t.facts.rows;
    let heap_pages = t.facts.heap_pages;
    let clustered =
        ctx.config.index_handles_on_key(t.facts.key).find(|(_, i)| i.kind == IndexKind::Clustered);
    let table_part = ctx.config.effective_table_partitioning_key(t.facts.key);

    // --- heap / clustered scan ------------------------------------------
    {
        let fraction = table_part.map_or(1.0, |p| elimination_fraction(p, &t.sargs));
        let io = (heap_pages * fraction).max(1.0);
        let cpu = rows * fraction / ctx.hardware.parallel_factor(io);
        visit(AccessChoice {
            path: AccessPath::HeapScan,
            partition_fraction: fraction,
            cost: io + cpu * CPU_W,
            // partitioned scans deliver no global order
            ordered_by: if table_part.is_none() { clustered.map(|(_, ci)| ci) } else { None },
            partitioned_on: table_part,
        });
    }

    // --- clustered index seek -------------------------------------------
    if let Some((handle, ci)) = clustered {
        let (seek_len, seek_sel) = seek_prefix(t, ci);
        if seek_len > 0 {
            let mut descent = SEEK_DESCENT_PAGES;
            if let Some(p) = &ci.partitioning {
                let (lo, hi) = sarg_bounds(&t.sargs, &p.column);
                descent *= p.partitions_touched(lo, hi) as f64;
            }
            let io = descent + (heap_pages * seek_sel).max(1.0);
            let scanned = rows * seek_sel;
            visit(AccessChoice {
                path: AccessPath::ClusteredSeek { index: handle, seek_len },
                partition_fraction: 1.0,
                cost: io + scanned * CPU_W,
                ordered_by: if ci.partitioning.is_none() { Some(ci) } else { None },
                partitioned_on: ci.partitioning.as_ref(),
            });
        }
    }

    // --- non-clustered indexes ------------------------------------------
    for (handle, ix) in ctx.config.index_handles_on_key(t.facts.key) {
        if ix.kind != IndexKind::NonClustered {
            continue;
        }
        let covering = ix.covers(&t.required);
        let (seek_len, seek_sel) = seek_prefix(t, ix);
        if seek_len == 0 && !covering {
            // neither seekable nor a narrower scan (what
            // `PreparedStatement::column_use` states for the cost cache)
            continue;
        }
        let leaf_pages = t.facts.leaf_pages(leaf_width(t, ix));

        // partitioned-index descent multiplier and leaf elimination
        let mut descent = SEEK_DESCENT_PAGES;
        let mut leaf_elim = 1.0;
        if let Some(p) = &ix.partitioning {
            let (lo, hi) = sarg_bounds(&t.sargs, &p.column);
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
            let after_leaf = matched * leaf_filter_sel(t, ix, seek_len);
            let lookup_pages = if covering { 0.0 } else { after_leaf };
            let io = descent + (leaf_pages * seek_sel * leaf_elim).max(1.0) + lookup_pages;
            visit(AccessChoice {
                path: AccessPath::IndexSeek { index: handle, seek_len, covering },
                partition_fraction: 1.0,
                cost: io + matched * CPU_W,
                ordered_by: if ix.partitioning.is_none() && covering { Some(ix) } else { None },
                partitioned_on: ix.partitioning.as_ref(),
            });
        } else {
            // covering scan of a narrower structure
            let io = (leaf_pages * leaf_elim).max(1.0);
            let cpu = rows * leaf_elim / ctx.hardware.parallel_factor(io);
            visit(AccessChoice {
                path: AccessPath::CoveringScan { index: handle },
                partition_fraction: leaf_elim,
                cost: io + cpu * CPU_W,
                ordered_by: if ix.partitioning.is_none() { Some(ix) } else { None },
                partitioned_on: ix.partitioning.as_ref(),
            });
        }
    }
}

/// The cheapest access path of one table binding (the first of equally
/// cheap ones). The heap scan is always available.
pub(crate) fn best_access<'a>(ctx: &PlanContext<'a>, t: &PreparedTable) -> AccessChoice<'a> {
    let mut best: Option<AccessChoice<'a>> = None;
    for_each_access(ctx, t, |choice| {
        if best.as_ref().is_none_or(|b| b.cost.total_cmp(&choice.cost) == Ordering::Greater) {
            best = Some(choice);
        }
    });
    best.expect("the heap scan is always among the access paths")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::testing::prepare;
    use crate::provider::FixedSizes;
    use dta_catalog::{Catalog, Column, ColumnType, Database, Table};
    use dta_physical::PhysicalStructure;
    use dta_stats::StatisticsManager;

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        let cols = ["a", "b", "c", "d", "z"].map(|c| Column::new(c, ColumnType::Int));
        db.add_table(Table::new("t", cols.to_vec())).unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    /// Every access path of `sql`'s one table under `config`, with the
    /// delivered order's length and whether partitioning is retained.
    fn paths(sql: &str, config: &Configuration, row_width: u32) -> Vec<(TableAccess, usize, bool)> {
        let (cat, stats) = (catalog(), StatisticsManager::new());
        let sizes = FixedSizes::default().with_table("db", "t", 1_000_000, row_width);
        let prep = prepare(&cat, &stats, &sizes, sql);
        let (ctx, t) = (prep.context(config), &prep.select().tables[0]);
        let mut out = Vec::new();
        for_each_access(&ctx, t, |c| {
            let order = c.ordered_by.map_or(0, |ix| KeyOrder::of(&t.binding, ix).len());
            out.push((c.materialize(&ctx, t), order, c.partitioned_on.is_some()));
        });
        // the planner's pick is the cheapest of them
        let best = best_access(&ctx, t).materialize(&ctx, t);
        assert!(out.iter().all(|(a, _, _)| best.est_cost <= a.est_cost));
        out
    }

    fn cheapest(paths: Vec<(TableAccess, usize, bool)>) -> TableAccess {
        paths.into_iter().map(|p| p.0).min_by(|a, b| a.est_cost.total_cmp(&b.est_cost)).unwrap()
    }

    fn nc_index(keys: &[&str], included: &[&str]) -> Configuration {
        Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "db", "t", keys, included,
        ))])
    }

    #[test]
    fn heap_scan_always_available() {
        let opts = paths("SELECT a FROM t", &Configuration::new(), 100);
        assert_eq!(opts.len(), 1);
        assert!(matches!(opts[0].0.method, AccessMethod::HeapScan));
        assert!(opts[0].0.est_cost > 10_000.0); // ~12k pages
    }

    #[test]
    fn index_seek_beats_scan_for_selective_predicates() {
        let best = cheapest(paths("SELECT a FROM t WHERE a = 5", &nc_index(&["a"], &[]), 100));
        assert!(matches!(best.method, AccessMethod::IndexSeek { covering: true, .. }));
        // and it is far cheaper than the scan
        assert!(best.est_cost < 10_000.0);
    }

    #[test]
    fn non_covering_seek_charges_lookups() {
        let config = nc_index(&["a"], &[]);
        let seek_cost = |sql: &str| {
            paths(sql, &config, 100)
                .into_iter()
                .find(|o| matches!(o.0.method, AccessMethod::IndexSeek { .. }))
                .unwrap()
                .0
                .est_cost
        };
        assert!(
            seek_cost("SELECT a, b FROM t WHERE a = 5") > seek_cost("SELECT a FROM t WHERE a = 5")
        );
    }

    #[test]
    fn partition_elimination_reduces_scan_cost() {
        let scheme = RangePartitioning::new("d", (1..10).map(|i| Value::Int(i * 100)).collect());
        let config = Configuration::from_structures([PhysicalStructure::TablePartitioning {
            database: "db".into(),
            table: "t".into(),
            scheme,
        }]);
        let full_cost = paths("SELECT a FROM t", &config, 100)[0].0.est_cost;
        let filtered = paths("SELECT a FROM t WHERE d BETWEEN 150 AND 250", &config, 100);
        let elim_cost = filtered[0].0.est_cost;
        assert!(elim_cost < full_cost * 0.35, "elim={elim_cost} full={full_cost}");
        assert!(filtered[0].0.partition_fraction <= 0.25);
        assert!(filtered[0].2, "the scan retains the table's partitioning");
    }

    #[test]
    fn covering_scan_cheaper_than_heap_for_narrow_set() {
        // wide rows: 400 bytes; index leaf is ~33 bytes
        let best = cheapest(paths("SELECT a, b FROM t", &nc_index(&["a"], &["b"]), 400));
        assert!(matches!(best.method, AccessMethod::CoveringScan { .. }));
    }

    #[test]
    fn clustered_seek_available_and_ordered() {
        let config = Configuration::from_structures([PhysicalStructure::Index(Index::clustered(
            "db",
            "t",
            &["a", "b"],
        ))]);
        let opts = paths("SELECT a, b, z FROM t WHERE a = 5", &config, 100);
        let seek =
            opts.iter().find(|o| matches!(o.0.method, AccessMethod::ClusteredSeek { .. })).unwrap();
        assert_eq!(seek.1, 2, "rows come in (a, b) order");
    }

    #[test]
    fn seek_prefix_stops_at_range() {
        let (cat, stats) = (catalog(), StatisticsManager::new());
        let sizes = FixedSizes::default().with_table("db", "t", 1000, 100);
        let prep = prepare(
            &cat,
            &stats,
            &sizes,
            "SELECT a FROM t WHERE a = 1 AND b BETWEEN 0 AND 5 AND c = 2",
        );
        let ix = Index::non_clustered("db", "t", &["a", "b", "c"], &[]);
        let (len, _) = seek_prefix(&prep.select().tables[0], &ix);
        assert_eq!(len, 2, "range on b terminates the prefix; c not seekable");
    }

    #[test]
    fn sarg_bounds_intersect() {
        let range = |lo: i64, hi: i64| Sarg {
            column: BoundColumn::new("t", "d"),
            op: SargOp::Range {
                low: Some((Value::Int(lo), true)),
                high: Some((Value::Int(hi), true)),
            },
        };
        let sargs = [range(0, 100), range(50, 200)];
        let (lo, hi) = sarg_bounds(&sargs, "d");
        assert_eq!(lo, Some(&Value::Int(50)));
        assert_eq!(hi, Some(&Value::Int(100)));
    }
}
