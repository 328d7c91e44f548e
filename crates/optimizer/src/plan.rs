//! Physical plan trees.
//!
//! Every node carries its estimated output rows and the *cumulative*
//! estimated cost of its subtree, in the same work units the execution
//! engine meters (pages + weighted CPU operations). Plans are
//! self-contained enough for the engine to interpret.
//!
//! A plan *shares* what its planning read rather than copying it: an
//! index or view is the configuration's [`StructureHandle`] (a pointer
//! copy), and names, predicates, join pairs and sort keys are the
//! reference-counted strings and slices the statement's preparation
//! owns. Building a plan allocates its nodes and little else.

use crate::query::{BoundColumn, JoinPred, Sarg};
use dta_physical::{Index, StructureHandle};
use std::fmt;
use std::sync::Arc;

/// How a base table is read. An index is held as the handle of the
/// configuration that was planned.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessMethod {
    /// Full scan of the heap (or of the clustered index).
    HeapScan,
    /// Seek on a leading prefix of the clustered index key.
    ClusteredSeek { index: StructureHandle, seek_len: usize },
    /// Seek on a leading prefix of a non-clustered index key; `covering`
    /// records whether row lookups are avoided.
    IndexSeek { index: StructureHandle, seek_len: usize, covering: bool },
    /// Full scan of a covering non-clustered index (narrower than the
    /// heap).
    CoveringScan { index: StructureHandle },
}

impl AccessMethod {
    /// The handle of the index used, if any.
    pub fn handle(&self) -> Option<&StructureHandle> {
        match self {
            AccessMethod::HeapScan => None,
            AccessMethod::ClusteredSeek { index, .. }
            | AccessMethod::IndexSeek { index, .. }
            | AccessMethod::CoveringScan { index } => Some(index),
        }
    }

    /// The index used, if any.
    pub fn index(&self) -> Option<&Index> {
        self.handle().and_then(StructureHandle::as_index)
    }

    /// Short tag for EXPLAIN output.
    pub fn tag(&self) -> &'static str {
        match self {
            AccessMethod::HeapScan => "HeapScan",
            AccessMethod::ClusteredSeek { .. } => "ClusteredSeek",
            AccessMethod::IndexSeek { covering: true, .. } => "IndexSeek(covering)",
            AccessMethod::IndexSeek { .. } => "IndexSeek+Lookup",
            AccessMethod::CoveringScan { .. } => "CoveringScan",
        }
    }
}

/// A set of positions in a statement's join-predicate list: one word
/// inline, more only for a statement with over 64 predicates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PredSet {
    low: u64,
    high: Vec<u64>,
}

impl PredSet {
    pub(crate) fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let Some(high) = word.checked_sub(1) else {
            self.low |= bit;
            return;
        };
        if self.high.len() <= high {
            self.high.resize(high + 1, 0);
        }
        if let Some(w) = self.high.get_mut(high) {
            *w |= bit;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|w| *w == 0)
    }

    /// The positions, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        std::iter::once(self.low).chain(self.high.iter().copied()).enumerate().flat_map(
            |(word, mut bits)| {
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        word * 64 + bit
                    })
                })
            },
        )
    }
}

/// The equi-join predicates one join applies: some of its statement's,
/// in the statement's order. The statement's list is shared with the
/// preparation that planned the join; the join holds which of them it
/// applies. Two values are equal when they apply equal predicates.
#[derive(Clone)]
pub struct JoinPairs {
    all: Arc<[JoinPred]>,
    picked: PredSet,
}

impl JoinPairs {
    /// The predicates at the positions `picked` of `all`.
    pub(crate) fn new(all: Arc<[JoinPred]>, picked: PredSet) -> Self {
        Self { all, picked }
    }

    /// The predicates, in statement order.
    pub fn iter(&self) -> impl Iterator<Item = &JoinPred> + '_ {
        self.picked.iter().filter_map(|i| self.all.get(i))
    }

    /// True for a cross join.
    pub fn is_empty(&self) -> bool {
        self.picked.is_empty()
    }
}

/// Every predicate of the list, in order.
impl FromIterator<JoinPred> for JoinPairs {
    fn from_iter<T: IntoIterator<Item = JoinPred>>(iter: T) -> Self {
        let all: Arc<[JoinPred]> = iter.into_iter().collect();
        let mut picked = PredSet::default();
        (0..all.len()).for_each(|i| picked.insert(i));
        Self { all, picked }
    }
}

impl PartialEq for JoinPairs {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for JoinPairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A single-table access operator.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAccess {
    pub database: Arc<str>,
    pub table: Arc<str>,
    pub binding: Arc<str>,
    pub method: AccessMethod,
    /// All sargable predicates on this table (engine applies them all).
    pub sargs: Arc<[Sarg]>,
    /// Count of residual conjuncts applied after access.
    pub residuals: usize,
    /// Fraction of partitions scanned (1.0 when unpartitioned or no
    /// elimination applies).
    pub partition_fraction: f64,
    pub est_rows: f64,
    pub est_cost: f64,
}

/// A plan operator; `est_cost` is cumulative over the subtree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Base-table access.
    Access(TableAccess),
    /// Scan of a materialized view standing in for `replaced` bindings.
    ViewScan {
        /// A materialized view's handle.
        view: StructureHandle,
        /// Query bindings the view replaces.
        replaced: Arc<[String]>,
        /// Sargs evaluated against view output columns.
        sargs: Arc<[Sarg]>,
        /// Whether the query's aggregation is already answered by the view
        /// (no re-aggregation needed).
        answers_grouping: bool,
        est_rows: f64,
        est_cost: f64,
    },
    /// Hash join (build = left, probe = right).
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        pairs: JoinPairs,
        /// True when both inputs were co-partitioned on the join keys.
        partition_wise: bool,
        est_rows: f64,
        est_cost: f64,
    },
    /// Index nested-loop join: for each outer row, seek `inner`.
    IndexNLJoin {
        outer: Box<PlanNode>,
        inner: TableAccess,
        pairs: JoinPairs,
        est_rows: f64,
        est_cost: f64,
    },
    /// Hash aggregation.
    HashAggregate {
        input: Box<PlanNode>,
        group_by: Arc<[BoundColumn]>,
        est_rows: f64,
        est_cost: f64,
    },
    /// Stream aggregation over already-ordered input.
    StreamAggregate {
        input: Box<PlanNode>,
        group_by: Arc<[BoundColumn]>,
        est_rows: f64,
        est_cost: f64,
    },
    /// Explicit sort.
    Sort { input: Box<PlanNode>, keys: Arc<[(BoundColumn, bool)]>, est_rows: f64, est_cost: f64 },
    /// TOP n truncation.
    Top { input: Box<PlanNode>, n: u64, est_rows: f64, est_cost: f64 },
    /// INSERT with structure maintenance.
    Insert {
        database: Arc<str>,
        table: Arc<str>,
        rows: u64,
        /// Handles of the structures maintained by this statement.
        maintained: Vec<StructureHandle>,
        est_cost: f64,
    },
    /// UPDATE: locate rows via `access`, write, maintain structures.
    Update {
        access: Box<PlanNode>,
        set_columns: Arc<[String]>,
        maintained: Vec<StructureHandle>,
        est_rows: f64,
        est_cost: f64,
    },
    /// DELETE: locate rows via `access`, remove, maintain structures.
    Delete { access: Box<PlanNode>, maintained: Vec<StructureHandle>, est_rows: f64, est_cost: f64 },
}

impl PlanNode {
    /// Estimated output rows.
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanNode::Access(a) => a.est_rows,
            PlanNode::ViewScan { est_rows, .. }
            | PlanNode::HashJoin { est_rows, .. }
            | PlanNode::IndexNLJoin { est_rows, .. }
            | PlanNode::HashAggregate { est_rows, .. }
            | PlanNode::StreamAggregate { est_rows, .. }
            | PlanNode::Sort { est_rows, .. }
            | PlanNode::Top { est_rows, .. }
            | PlanNode::Update { est_rows, .. }
            | PlanNode::Delete { est_rows, .. } => *est_rows,
            PlanNode::Insert { rows, .. } => *rows as f64,
        }
    }

    /// Cumulative estimated cost of the subtree.
    pub fn est_cost(&self) -> f64 {
        match self {
            PlanNode::Access(a) => a.est_cost,
            PlanNode::ViewScan { est_cost, .. }
            | PlanNode::HashJoin { est_cost, .. }
            | PlanNode::IndexNLJoin { est_cost, .. }
            | PlanNode::HashAggregate { est_cost, .. }
            | PlanNode::StreamAggregate { est_cost, .. }
            | PlanNode::Sort { est_cost, .. }
            | PlanNode::Top { est_cost, .. }
            | PlanNode::Insert { est_cost, .. }
            | PlanNode::Update { est_cost, .. }
            | PlanNode::Delete { est_cost, .. } => *est_cost,
        }
    }

    /// Names of all physical structures (indexes, views) this subtree
    /// uses for *access* (maintenance targets are not included).
    pub fn used_structures(&self) -> Vec<String> {
        self.used_names().iter().map(|n| n.to_string()).collect()
    }

    /// [`Self::used_structures`] as shared names, sorted and without
    /// repeats: the handles' memoized names, copied as pointers. The
    /// list is sized before it is filled, so it costs one allocation
    /// (none when nothing is used), besides naming a partition
    /// elimination.
    pub fn used_names(&self) -> Box<[Arc<str>]> {
        let mut count = 0;
        self.for_each_used(&mut |_| count += 1);
        let mut out = Vec::with_capacity(count);
        self.for_each_used(&mut |used| {
            out.push(match used {
                Used::Structure(h) => Arc::clone(h.name()),
                Used::PartitionElimination(table) => {
                    Arc::from(format!("partition_elimination({table})"))
                }
            })
        });
        out.sort_unstable();
        out.dedup();
        out.into_boxed_slice()
    }

    fn for_each_used<'a>(&'a self, f: &mut impl FnMut(Used<'a>)) {
        match self {
            PlanNode::Access(a) => {
                if let Some(ix) = a.method.handle() {
                    f(Used::Structure(ix));
                }
                if a.partition_fraction < 1.0 {
                    f(Used::PartitionElimination(&a.table));
                }
            }
            PlanNode::ViewScan { view, .. } => f(Used::Structure(view)),
            PlanNode::HashJoin { left, right, .. } => {
                left.for_each_used(f);
                right.for_each_used(f);
            }
            PlanNode::IndexNLJoin { outer, inner, .. } => {
                outer.for_each_used(f);
                if let Some(ix) = inner.method.handle() {
                    f(Used::Structure(ix));
                }
            }
            PlanNode::HashAggregate { input, .. }
            | PlanNode::StreamAggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Top { input, .. } => input.for_each_used(f),
            PlanNode::Insert { .. } => {}
            PlanNode::Update { access, .. } | PlanNode::Delete { access, .. } => {
                access.for_each_used(f)
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::Access(a) => writeln!(
                f,
                "{pad}{} {}.{} [rows={:.0} cost={:.1}{}]",
                a.method.tag(),
                a.table,
                a.binding,
                a.est_rows,
                a.est_cost,
                if a.partition_fraction < 1.0 {
                    format!(" partitions={:.0}%", a.partition_fraction * 100.0)
                } else {
                    String::new()
                }
            ),
            PlanNode::ViewScan { view, est_rows, est_cost, answers_grouping, .. } => writeln!(
                f,
                "{pad}ViewScan {} [rows={est_rows:.0} cost={est_cost:.1} answers_grouping={answers_grouping}]",
                view.name()
            ),
            PlanNode::HashJoin { left, right, est_rows, est_cost, partition_wise, .. } => {
                writeln!(
                    f,
                    "{pad}HashJoin{} [rows={est_rows:.0} cost={est_cost:.1}]",
                    if *partition_wise { "(partition-wise)" } else { "" }
                )?;
                left.fmt_indent(f, depth + 1)?;
                right.fmt_indent(f, depth + 1)
            }
            PlanNode::IndexNLJoin { outer, inner, est_rows, est_cost, .. } => {
                writeln!(f, "{pad}IndexNLJoin [rows={est_rows:.0} cost={est_cost:.1}]")?;
                outer.fmt_indent(f, depth + 1)?;
                writeln!(
                    f,
                    "{}Inner: {} {} [rows/probe={:.1}]",
                    "  ".repeat(depth + 1),
                    inner.method.tag(),
                    inner.table,
                    inner.est_rows
                )
            }
            PlanNode::HashAggregate { input, group_by, est_rows, est_cost } => {
                writeln!(
                    f,
                    "{pad}HashAggregate groups={} [rows={est_rows:.0} cost={est_cost:.1}]",
                    group_by.len()
                )?;
                input.fmt_indent(f, depth + 1)
            }
            PlanNode::StreamAggregate { input, group_by, est_rows, est_cost } => {
                writeln!(
                    f,
                    "{pad}StreamAggregate groups={} [rows={est_rows:.0} cost={est_cost:.1}]",
                    group_by.len()
                )?;
                input.fmt_indent(f, depth + 1)
            }
            PlanNode::Sort { input, keys, est_rows, est_cost } => {
                writeln!(f, "{pad}Sort keys={} [rows={est_rows:.0} cost={est_cost:.1}]", keys.len())?;
                input.fmt_indent(f, depth + 1)
            }
            PlanNode::Top { input, n, est_rows, est_cost } => {
                writeln!(f, "{pad}Top {n} [rows={est_rows:.0} cost={est_cost:.1}]")?;
                input.fmt_indent(f, depth + 1)
            }
            PlanNode::Insert { table, rows, maintained, est_cost, .. } => writeln!(
                f,
                "{pad}Insert {table} rows={rows} maintains={} [cost={est_cost:.1}]",
                maintained.len()
            ),
            PlanNode::Update { access, set_columns, maintained, est_rows, est_cost } => {
                writeln!(
                    f,
                    "{pad}Update set={} maintains={} [rows={est_rows:.0} cost={est_cost:.1}]",
                    set_columns.len(),
                    maintained.len()
                )?;
                access.fmt_indent(f, depth + 1)
            }
            PlanNode::Delete { access, maintained, est_rows, est_cost } => {
                writeln!(
                    f,
                    "{pad}Delete maintains={} [rows={est_rows:.0} cost={est_cost:.1}]",
                    maintained.len()
                )?;
                access.fmt_indent(f, depth + 1)
            }
        }
    }
}

/// What [`PlanNode::used_names`] reports one of.
enum Used<'a> {
    Structure(&'a StructureHandle),
    /// A scan of this table reads only some of its partitions.
    PartitionElimination(&'a str),
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// A complete plan for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub root: PlanNode,
    /// Total estimated cost in work units.
    pub cost: f64,
    /// Estimated output (or affected) rows.
    pub est_rows: f64,
}

impl Plan {
    /// Wrap a root node.
    pub fn new(root: PlanNode) -> Self {
        let cost = root.est_cost();
        let est_rows = root.est_rows();
        Self { root, cost, est_rows }
    }

    /// Names of structures the plan uses.
    pub fn used_structures(&self) -> Vec<String> {
        self.root.used_structures()
    }

    /// [`Self::used_structures`] as shared names.
    pub fn used_names(&self) -> Box<[Arc<str>]> {
        self.root.used_names()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(cost: f64, rows: f64) -> TableAccess {
        TableAccess {
            database: "db".into(),
            table: "t".into(),
            binding: "t".into(),
            method: AccessMethod::HeapScan,
            sargs: Arc::default(),
            residuals: 0,
            partition_fraction: 1.0,
            est_rows: rows,
            est_cost: cost,
        }
    }

    #[test]
    fn cumulative_costs() {
        let join = PlanNode::HashJoin {
            left: Box::new(PlanNode::Access(access(10.0, 100.0))),
            right: Box::new(PlanNode::Access(access(20.0, 200.0))),
            pairs: JoinPairs::from_iter([]),
            partition_wise: false,
            est_rows: 300.0,
            est_cost: 50.0,
        };
        let plan = Plan::new(join);
        assert_eq!(plan.cost, 50.0);
        assert_eq!(plan.est_rows, 300.0);
    }

    #[test]
    fn used_structures_collects_indexes_and_views() {
        let ix = dta_physical::Index::non_clustered("db", "t", &["a"], &[]);
        let index = StructureHandle::new(dta_physical::PhysicalStructure::Index(ix.clone()));
        let mut a = access(5.0, 10.0);
        a.method = AccessMethod::IndexSeek { index, seek_len: 1, covering: true };
        let node = PlanNode::Access(a);
        assert_eq!(node.used_structures(), vec![ix.name()]);
    }

    #[test]
    fn pred_sets_hold_positions_past_the_inline_word() {
        let mut set = PredSet::default();
        assert!(set.is_empty());
        for i in [130, 0, 64, 63, 130] {
            set.insert(i);
        }
        assert!(!set.is_empty());
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 130]);
    }

    #[test]
    fn join_pairs_compare_by_the_predicates_they_apply() {
        let pred =
            |l: &str, r: &str| JoinPred::new(BoundColumn::new("a", l), BoundColumn::new("b", r));
        let all: Arc<[JoinPred]> = vec![pred("x", "x"), pred("y", "y"), pred("z", "z")].into();
        let mut picked = PredSet::default();
        picked.insert(2);
        picked.insert(0);
        let shared = JoinPairs::new(Arc::clone(&all), picked);
        assert_eq!(shared.iter().collect::<Vec<_>>(), [&all[0], &all[2]]);
        // a list of its own with the same predicates is equal
        assert_eq!(shared, [pred("x", "x"), pred("z", "z")].into_iter().collect());
        assert_ne!(shared, [pred("x", "x")].into_iter().collect());
        assert!(JoinPairs::from_iter([]).is_empty());
    }

    #[test]
    fn partition_elimination_reported() {
        let mut a = access(5.0, 10.0);
        a.partition_fraction = 0.25;
        let used = PlanNode::Access(a).used_structures();
        assert!(used.iter().any(|s| s.starts_with("partition_elimination")));
    }

    #[test]
    fn display_renders_tree() {
        let agg = PlanNode::HashAggregate {
            input: Box::new(PlanNode::Access(access(10.0, 100.0))),
            group_by: Arc::default(),
            est_rows: 5.0,
            est_cost: 12.0,
        };
        let text = agg.to_string();
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("HeapScan"));
    }
}
