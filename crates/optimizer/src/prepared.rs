//! Prepared statements: everything about one statement that no
//! configuration can change, computed once.
//!
//! A what-if call prices one statement under one hypothetical
//! configuration, and a tuning session issues tens of thousands of them
//! for a few dozen statements. Binding, table sizes, predicate and join
//! selectivities, distinct counts and column widths depend on the
//! catalog, the statistics and the hardware only, so
//! [`crate::WhatIfOptimizer::prepare`] resolves them once into slots —
//! one [`PreparedTable`] per table binding, one [`PreparedJoin`] per join
//! predicate — and [`crate::optimize_prepared`] plans over the slots: no
//! name is resolved, no statistic looked up and no lock taken per call.
//!
//! Every estimate is computed with the operations, in the order, the
//! per-call planner used, so costs are bit-equal to planning from the
//! AST each time.

use crate::access::PlanContext;
use crate::hardware::HardwareParams;
use crate::provider::TableStatsProvider;
use crate::query::{
    bind, canonical_agg_arg, BindError, BoundDml, BoundSelect, BoundStatement, Sarg,
};
use crate::selectivity::{Estimator, MIN_SEL, RESIDUAL_SEL};
use crate::views::full_match;
use dta_catalog::Catalog;
use dta_physical::{
    database_key, table_key, ColumnMask, ColumnUse, Configuration, JoinPair, MaterializedView,
    QualifiedColumn,
};
use dta_sql::{AggFunc, Statement};
use dta_stats::{StatisticsManager, TableDistincts};
use dta_storage::pages_for;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Width assumed for a column the catalog does not list — what every
/// [`TableStatsProvider`] answers for one.
const UNKNOWN_COLUMN_WIDTH: u32 = 8;

/// The server state a preparation reads.
pub(crate) struct Sources<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a StatisticsManager,
    pub sizes: &'a dyn TableStatsProvider,
    pub database: &'a str,
}

/// What catalog, statistics and sizes say about one base table.
#[derive(Debug, Clone)]
pub(crate) struct TableFacts {
    /// The table's name, shared with the plans that access it.
    pub table: Arc<str>,
    /// [`table_key`] of the table, for configuration lookups.
    pub key: u64,
    pub rows: f64,
    pub row_width: u32,
    /// Pages of the heap (or of the clustered index's leaf level).
    pub heap_pages: f64,
    /// Width of every column the catalog lists.
    column_widths: Vec<(String, u32)>,
    /// Distinct counts of the table's statistics, as they stood when the
    /// facts were gathered.
    distincts: Option<Arc<TableDistincts>>,
}

impl TableFacts {
    pub(crate) fn gather(src: &Sources<'_>, table: &str) -> Self {
        let rows = src.sizes.rows(src.database, table) as f64;
        let row_width = src.sizes.row_width(src.database, table);
        let column_widths = src
            .catalog
            .database(src.database)
            .and_then(|d| d.table(table))
            .map(|t| {
                t.columns
                    .iter()
                    .map(|c| (c.name.clone(), src.sizes.column_width(src.database, table, &c.name)))
                    .collect()
            })
            .unwrap_or_default();
        Self {
            table: Arc::from(table),
            key: table_key(src.database, table),
            rows,
            row_width,
            heap_pages: pages_for(rows as u64, row_width) as f64,
            column_widths,
            distincts: src.stats.distincts(src.database, table),
        }
    }

    /// Average width of one column in bytes.
    pub(crate) fn column_width(&self, column: &str) -> u32 {
        self.column_widths
            .iter()
            .find(|(c, _)| c == column)
            .map_or(UNKNOWN_COLUMN_WIDTH, |(_, w)| *w)
    }

    /// Pages of an index leaf level `leaf_width` bytes wide.
    pub(crate) fn leaf_pages(&self, leaf_width: u32) -> f64 {
        pages_for(self.rows as u64, leaf_width) as f64
    }

    /// Population-scale distinct count of a column *set*
    /// (order-independent), if a statistic gives one.
    fn scaled_distinct(&self, columns: &[&str]) -> Option<f64> {
        self.distincts.as_ref()?.scaled_distinct(columns)
    }
}

/// Distinct count of one column under a row cap: the statistics' count
/// when there is one (`None` = the textbook 10% of rows). A histogram
/// alone never decides it: a statistic that has one on the column also
/// has the column's density.
fn capped_distinct(known: Option<f64>, cap_rows: f64) -> f64 {
    match known {
        Some(d) => d.clamp(1.0, cap_rows.max(1.0)),
        None => (cap_rows * 0.1).max(1.0),
    }
}

/// Join selectivity of `l.lc = r.rc`: `1 / max(d_l, d_r)`.
fn join_selectivity(l: &TableFacts, lc: &str, r: &TableFacts, rc: &str) -> f64 {
    let dl = capped_distinct(l.scaled_distinct(&[lc]), l.rows);
    let dr = capped_distinct(r.scaled_distinct(&[rc]), r.rows);
    (1.0 / dl.max(dr)).clamp(MIN_SEL, 1.0)
}

/// The configuration-independent inputs of a group-count estimate over
/// one column list: a multi-column density when one statistic covers the
/// whole set on a single table, and each column's own distinct count.
#[derive(Debug, Clone)]
pub(crate) struct GroupEstimate {
    joint: Option<f64>,
    columns: Vec<Option<f64>>,
}

impl GroupEstimate {
    /// For `(table facts, column)` pairs; a column whose table has no
    /// facts here (`None`) is a column without statistics.
    pub(crate) fn new(columns: &[(Option<&TableFacts>, &str)]) -> Self {
        let joint = match columns.first() {
            Some((Some(first), _))
                if columns.iter().all(|(t, _)| t.is_some_and(|t| t.table == first.table)) =>
            {
                let names: Vec<&str> = columns.iter().map(|(_, c)| *c).collect();
                first.scaled_distinct(&names)
            }
            _ => None,
        };
        let columns = if joint.is_some() {
            Vec::new()
        } else {
            columns.iter().map(|(t, c)| t.and_then(|t| t.scaled_distinct(&[*c]))).collect()
        };
        Self { joint, columns }
    }

    /// Estimated number of groups given the input cardinality: the joint
    /// density if there is one, else the product of per-column distincts,
    /// always capped by the input cardinality.
    pub(crate) fn count(&self, input_rows: f64) -> f64 {
        if let Some(d) = self.joint {
            return d.clamp(1.0, input_rows.max(1.0));
        }
        let mut groups = 1.0;
        for known in &self.columns {
            groups *= capped_distinct(*known, input_rows);
            if groups > input_rows {
                break;
            }
        }
        groups.clamp(1.0, input_rows.max(1.0))
    }
}

/// One table binding of a statement, with every estimate about it that
/// does not depend on the configuration.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTable {
    /// The name the table goes by in the statement.
    pub binding: Arc<str>,
    pub facts: TableFacts,
    /// The binding's sargable predicates and, in step, their
    /// selectivities. Every plan node accessing the binding shares them.
    pub sargs: Arc<[Sarg]>,
    pub sarg_sel: Vec<f64>,
    /// Residual (non-sargable) conjuncts on the binding.
    pub residuals: usize,
    /// Columns a plan must produce for the binding, and their summed
    /// width (the row width a join carries for it).
    pub required: Vec<String>,
    pub required_width: f64,
    /// Combined selectivity of sargs and residuals, and the rows left.
    pub out_sel: f64,
    pub out_rows: f64,
    /// Distinct count (capped by the table's rows) of every column a join
    /// predicate touches on this binding.
    pub join_distinct: Vec<(String, f64)>,
}

impl PreparedTable {
    fn new(
        src: &Sources<'_>,
        binding: &str,
        table: &str,
        sargs: Arc<[Sarg]>,
        residuals: usize,
        required: Vec<String>,
        join_columns: &[&str],
    ) -> Self {
        let est = Estimator::new(src.stats, src.database);
        let facts = TableFacts::gather(src, table);
        let sarg_sel: Vec<f64> = sargs.iter().map(|s| est.sarg_selectivity(table, s)).collect();
        // sargs and residual conjuncts combine under independence
        let mut out_sel = 1.0;
        for sel in &sarg_sel {
            out_sel *= sel;
        }
        out_sel *= RESIDUAL_SEL.powi(residuals as i32);
        let out_sel = out_sel.clamp(MIN_SEL, 1.0);
        let required_width =
            required.iter().map(|c| facts.column_width(c) as f64).sum::<f64>().max(8.0);
        let mut join_distinct: Vec<(String, f64)> = Vec::new();
        for c in join_columns {
            if !join_distinct.iter().any(|(seen, _)| seen == c) {
                let d = capped_distinct(facts.scaled_distinct(&[*c]), facts.rows.max(1.0));
                join_distinct.push((c.to_string(), d));
            }
        }
        Self {
            binding: Arc::from(binding),
            out_rows: (facts.rows * out_sel).max(0.0),
            facts,
            sargs,
            sarg_sel,
            residuals,
            required,
            required_width,
            out_sel,
            join_distinct,
        }
    }

    /// The binding's sargs with their selectivities.
    pub(crate) fn sargs_with_sel(&self) -> impl Iterator<Item = (&Sarg, f64)> {
        self.sargs.iter().zip(self.sarg_sel.iter().copied())
    }

    /// How the binding uses its table: `access::for_each_access` seeks a
    /// non-clustered index only when a seekable sarg column leads it and
    /// scans it only when it covers `required` (every index does, when
    /// `required` is empty); `join::inl_probes` probes it only when a join
    /// column leads it.
    fn column_use(&self) -> ColumnUse {
        let seekable = self.sargs.iter().filter(|s| s.is_seekable()).map(|s| &s.column.column);
        let joined = self.join_distinct.iter().map(|(c, _)| c);
        ColumnUse {
            leading: ColumnMask::of(seekable.chain(joined)),
            covering: ColumnMask::of(&self.required),
            maintained: ColumnMask::NONE,
        }
    }
}

/// One equi-join predicate (`bound.joins[i]`), resolved to table slots.
#[derive(Debug, Clone)]
pub(crate) struct PreparedJoin {
    /// Slots (indexes into [`PreparedSelect::tables`]) of the two sides.
    /// A binding name used twice resolves to its first slot, as name
    /// lookup does.
    pub left: usize,
    pub right: usize,
    pub sel: f64,
}

/// The statement's side of materialized-view matching: a view is usable
/// only if its join graph is exactly this one.
#[derive(Debug, Clone)]
pub(crate) struct ViewMatch {
    /// The statement's tables, sorted, and its join pairs in
    /// table-qualified normalized form.
    pub tables: Vec<String>,
    /// The statement's bindings: what a view scan answering it replaces.
    pub bindings: Arc<[String]>,
    pub pairs: Vec<JoinPair>,
    /// Cardinality of that join — the rows of an ungrouped view over it.
    pub join_rows: f64,
    /// Group-by and sarg columns, table-qualified.
    pub groups: Vec<QualifiedColumn>,
    pub sarg_columns: Vec<QualifiedColumn>,
    /// Combined selectivity of the sargs evaluated against view output.
    pub sarg_sel: f64,
    /// Whether the statement groups or aggregates.
    pub aggregate: bool,
    /// Per aggregate: its function, canonical argument text (`None` =
    /// `COUNT(*)`) and whether it is DISTINCT. `None` when some argument
    /// cannot be canonicalized: no grouped view can then answer the
    /// statement.
    pub aggregates: Option<Vec<(AggFunc, Option<String>, bool)>>,
    /// Every referenced column, table-qualified.
    pub referenced: Vec<QualifiedColumn>,
}

/// A prepared SELECT.
#[derive(Debug, Clone)]
pub(crate) struct PreparedSelect {
    pub bound: BoundSelect,
    /// In step with `bound.tables`.
    pub tables: Vec<PreparedTable>,
    /// In step with `bound.joins`.
    pub joins: Vec<PreparedJoin>,
    /// Group-count inputs of `bound.group_by`.
    pub groups: GroupEstimate,
    /// Row factor of the cross-table residual conjuncts.
    pub cross_residual_factor: f64,
    /// `None` when no view can match (self-join, residual predicates).
    pub views: Option<Arc<ViewMatch>>,
}

impl PreparedSelect {
    fn new(src: &Sources<'_>, bound: BoundSelect) -> Self {
        let tables: Vec<PreparedTable> = bound
            .tables
            .iter()
            .map(|bt| {
                let join_columns: Vec<&str> = bound
                    .joins
                    .iter()
                    .filter_map(|p| p.side_for(&bt.binding).map(|c| c.column.as_str()))
                    .collect();
                PreparedTable::new(
                    src,
                    &bt.binding,
                    &bt.table,
                    bound.sargs_for(&bt.binding).into_iter().cloned().collect(),
                    bound.residuals.get(&bt.binding).copied().unwrap_or(0),
                    bound.referenced_for(&bt.binding),
                    &join_columns,
                )
            })
            .collect();
        let slot = |binding: &str| {
            tables
                .iter()
                .enumerate()
                .find(|(_, t)| *t.binding == *binding)
                .expect("the binder resolves every predicate column to a bound table")
        };
        let joins = bound
            .joins
            .iter()
            .map(|p| {
                let ((left, l), (right, r)) = (slot(&p.left.binding), slot(&p.right.binding));
                let sel = join_selectivity(&l.facts, &p.left.column, &r.facts, &p.right.column);
                PreparedJoin { left, right, sel }
            })
            .collect();
        let facts = |binding: &str| Some(&slot(binding).1.facts);
        let group_columns: Vec<(Option<&TableFacts>, &str)> =
            bound.group_by.iter().map(|g| (facts(&g.binding), g.column.as_str())).collect();
        let groups = GroupEstimate::new(&group_columns);
        let views = ViewMatch::new(src, &bound, &tables).map(Arc::new);
        let cross_residual_factor = RESIDUAL_SEL.powi(bound.cross_residuals as i32);
        Self { bound, tables, joins, groups, cross_residual_factor, views }
    }

    /// Facts of a base table the statement reads, by table name.
    pub(crate) fn facts_of(&self, table: &str) -> Option<&TableFacts> {
        self.tables.iter().map(|t| &t.facts).find(|f| *f.table == *table)
    }
}

/// Cardinality of the join of `tables` on `pairs`: the cross product of
/// the row counts times every pair's selectivity.
fn join_rows(tables: &[&TableFacts], pairs: &[JoinPair]) -> f64 {
    let facts = |name: &str| tables.iter().find(|f| *f.table == *name);
    let mut rows = 1.0;
    for t in tables {
        rows *= t.rows.max(1.0);
    }
    for jp in pairs {
        if let (Some(l), Some(r)) = (facts(&jp.left.table), facts(&jp.right.table)) {
            rows *= join_selectivity(l, &jp.left.column, r, &jp.right.column);
        }
    }
    rows
}

impl ViewMatch {
    fn new(src: &Sources<'_>, bound: &BoundSelect, prepared: &[PreparedTable]) -> Option<Self> {
        // residual predicates cannot be evaluated against a view that may
        // not produce their columns; be conservative
        if bound.cross_residuals > 0 || !bound.residuals.is_empty() {
            return None;
        }
        // self-joins make binding→table translation ambiguous; skip
        let mut tables: Vec<&TableFacts> = prepared.iter().map(|t| &t.facts).collect();
        tables.sort_by(|a, b| a.table.cmp(&b.table));
        if tables.windows(2).any(|w| matches!(w, [a, b] if a.table == b.table)) {
            return None;
        }
        let to_table = |bc: &crate::query::BoundColumn| {
            bound.table_of(&bc.binding).map(|t| QualifiedColumn::new(t, &bc.column))
        };
        let mut pairs: Vec<JoinPair> = bound
            .joins
            .iter()
            .map(|jp| Some(JoinPair::new(to_table(&jp.left)?, to_table(&jp.right)?)))
            .collect::<Option<_>>()?;
        pairs.sort();
        pairs.dedup();
        // histograms are looked up under the sarg's *binding*: they are on
        // base-table columns, which is what a view's output carries when
        // the binding is unaliased; an aliased one falls back to defaults
        let est = Estimator::new(src.stats, src.database);
        let mut sarg_sel = 1.0;
        for s in bound.sargs.iter() {
            let unaliased = prepared
                .iter()
                .find(|t| *t.binding == *s.column.binding && t.facts.table == t.binding)
                .and_then(|t| t.sargs_with_sel().find(|(own, _)| *own == s));
            sarg_sel *= match unaliased {
                Some((_, sel)) => sel,
                None => est.sarg_selectivity(&s.column.binding, s),
            };
        }
        let aggregates = bound
            .aggregates
            .iter()
            .map(|a| {
                let arg = match &a.arg_expr {
                    Some(e) => Some(canonical_agg_arg(bound, e)?.0),
                    None => None,
                };
                Some((a.func, arg, a.distinct))
            })
            .collect();
        let referenced = bound
            .referenced
            .iter()
            .map(|(binding, cols)| {
                let table = bound.table_of(binding)?;
                Some(cols.iter().map(move |c| QualifiedColumn::new(table, c)))
            })
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .flatten()
            .collect();
        Some(Self {
            join_rows: join_rows(&tables, &pairs),
            tables: tables.iter().map(|f| f.table.to_string()).collect(),
            bindings: bound.tables.iter().map(|t| t.binding.clone()).collect(),
            pairs,
            groups: bound.group_by.iter().map(to_table).collect::<Option<_>>()?,
            sarg_columns: bound.sargs.iter().map(|s| to_table(&s.column)).collect::<Option<_>>()?,
            sarg_sel,
            aggregate: bound.is_aggregate(),
            aggregates,
            referenced,
        })
    }
}

/// Estimated row count of a materialized view whose join produces
/// `join_rows` rows (group count for grouped views, join cardinality
/// otherwise). `facts` finds the facts of a table the view joins.
pub(crate) fn view_rows<'f>(
    view: &MaterializedView,
    join_rows: f64,
    facts: impl Fn(&str) -> Option<&'f TableFacts>,
) -> f64 {
    if !view.is_grouped() {
        return join_rows.max(1.0);
    }
    let columns: Vec<(Option<&TableFacts>, &str)> =
        view.group_by.iter().map(|qc| (facts(&qc.table), qc.column.as_str())).collect();
    GroupEstimate::new(&columns).count(join_rows).max(1.0)
}

/// Materialized width in bytes of one view row.
pub(crate) fn view_row_width<'f>(
    view: &MaterializedView,
    facts: impl Fn(&str) -> Option<&'f TableFacts>,
) -> u32 {
    let produced = if view.is_grouped() { &view.group_by } else { &view.projected };
    let mut w: u32 = produced
        .iter()
        .map(|c| facts(&c.table).map_or(UNKNOWN_COLUMN_WIDTH, |f| f.column_width(&c.column)))
        .sum();
    w += 8 * view.aggregates.len() as u32;
    w + dta_physical::sizing::ROW_OVERHEAD_BYTES
}

/// Estimated row count of a view that no statement has been prepared
/// for (storage sizing of hypothetical views).
pub(crate) fn standalone_view_rows(src: &Sources<'_>, view: &MaterializedView) -> f64 {
    let tables: Vec<TableFacts> = view.tables.iter().map(|t| TableFacts::gather(src, t)).collect();
    let refs: Vec<&TableFacts> = tables.iter().collect();
    view_rows(view, join_rows(&refs, &view.join_pairs), |name| {
        tables.iter().find(|f| *f.table == *name)
    })
}

/// A prepared UPDATE / DELETE / INSERT: the bound statement and its one
/// table (an INSERT's carries no predicates).
#[derive(Debug, Clone)]
pub(crate) struct PreparedDml {
    pub dml: BoundDml,
    pub target: PreparedTable,
}

impl PreparedDml {
    fn new(src: &Sources<'_>, dml: BoundDml) -> Self {
        let (table, filter, set_columns): (&str, _, &[String]) = match &dml {
            BoundDml::Insert { table, .. } => (table.as_str(), None, &[]),
            BoundDml::Update { table, filter, set_columns, .. } => {
                (table.as_str(), Some(filter), &**set_columns)
            }
            BoundDml::Delete { table, filter, .. } => (table.as_str(), Some(filter), &[]),
        };
        // locating the affected rows must produce what the filter reads
        // and what the statement sets
        let mut required: Vec<String> =
            filter.map(|f| f.referenced.iter().cloned().collect()).unwrap_or_default();
        for c in set_columns {
            if !required.contains(c) {
                required.push(c.clone());
            }
        }
        let target = PreparedTable::new(
            src,
            table,
            table,
            filter.map(|f| f.sargs.as_slice().into()).unwrap_or_default(),
            filter.map_or(0, |f| f.residuals),
            required,
            &[],
        );
        Self { dml, target }
    }
}

/// Which materialized views a statement can use
/// ([`PreparedStatement::view_use`]). It holds the statement's side of
/// view matching and nothing else of the preparation, so keeping it
/// keeps no estimate alive.
#[derive(Debug, Clone)]
pub struct ViewUse(Readable);

#[derive(Debug, Clone)]
enum Readable {
    /// Every view joining the statement's tables.
    Every,
    /// The views that answer the statement; none when it has no
    /// [`ViewMatch`].
    Answering(Option<Arc<ViewMatch>>),
}

impl ViewUse {
    /// Whether the statement can use `view`, a view of its database
    /// joining one of its tables.
    pub fn admits(&self, view: &MaterializedView) -> bool {
        match &self.0 {
            Readable::Every => true,
            Readable::Answering(m) => m.as_deref().is_some_and(|m| full_match(m, view).is_some()),
        }
    }
}

pub(crate) enum Prepared {
    Select(PreparedSelect),
    Dml(PreparedDml),
}

impl Prepared {
    /// The table bindings the planner picks an access path for, in the
    /// order it picks them ([`crate::Picks`]): a SELECT's tables as bound,
    /// an UPDATE's or DELETE's target; none for an INSERT, whose plan is
    /// its maintenance sum alone.
    pub(crate) fn bindings(&self) -> &[PreparedTable] {
        match self {
            Prepared::Select(q) => &q.tables,
            Prepared::Dml(d) => match d.dml {
                BoundDml::Update { .. } | BoundDml::Delete { .. } => {
                    std::slice::from_ref(&d.target)
                }
                BoundDml::Insert { .. } => &[],
            },
        }
    }
}

/// One statement, bound and estimated against one state of a server's
/// catalog, statistics and hardware: the input of
/// [`crate::optimize_prepared`], reusable for any number of
/// configurations until that state changes.
///
/// Preparing never fails: a statement that does not bind is prepared as
/// its [`BindError`], which every planning call then returns — after the
/// hosting server has counted and charged the call as it always did.
pub struct PreparedStatement {
    /// Shared with the plans' table accesses.
    database: Arc<str>,
    database_key: u64,
    text: String,
    classify: u64,
    table_refs: usize,
    epoch: u64,
    hardware: HardwareParams,
    body: Result<Prepared, BindError>,
}

impl PreparedStatement {
    pub(crate) fn new(
        src: &Sources<'_>,
        hardware: HardwareParams,
        stmt: &Statement,
    ) -> PreparedStatement {
        let text = stmt.to_string();
        let classify = {
            let mut h = DefaultHasher::new();
            (src.database, text.as_str()).hash(&mut h);
            h.finish()
        };
        let body = bind(src.catalog, src.database, stmt).map(|bound| match bound {
            BoundStatement::Select(s) => Prepared::Select(PreparedSelect::new(src, s)),
            BoundStatement::Dml(d) => Prepared::Dml(PreparedDml::new(src, d)),
        });
        PreparedStatement {
            database: Arc::from(src.database),
            database_key: database_key(src.database),
            text,
            classify,
            table_refs: stmt.referenced_tables().len(),
            epoch: 0,
            hardware,
            body,
        }
    }

    /// The database the statement runs in.
    pub fn database(&self) -> &str {
        &self.database
    }

    /// The statement's SQL text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// `DefaultHasher` hash of `(database, text)`: what identifies the
    /// statement to a server's fault-injection schedule.
    pub fn classify(&self) -> u64 {
        self.classify
    }

    /// Table references in the statement (a server's per-call charge
    /// grows with their square).
    pub fn table_refs(&self) -> usize {
        self.table_refs
    }

    /// The estimate epoch of the server state this was prepared against
    /// (0 unless a server stamped it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamp with the hosting server's estimate epoch.
    pub fn stamped(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The binding failure every planning call will return, if any.
    pub fn bind_error(&self) -> Option<&BindError> {
        self.body.as_ref().err()
    }

    /// How this statement uses the table with [`table_key`] `key`: the
    /// only ways a non-clustered index on it can change the plan. One
    /// that [`ColumnUse`] says can serve none of them is skipped by every
    /// planning loop, so planning without it gives the same cost, rows,
    /// plan and used structures. Over every binding of the table: the
    /// seekable sarg and join columns that may lead a seek or probe, the
    /// columns an index must hold to cover a binding, and an UPDATE's SET
    /// columns (it maintains each index holding one). [`ColumnUse::ALL`]
    /// — every index on the table matters — when the statement does not
    /// bind, inserts into or deletes from the table (which maintains
    /// every index) or does not read it. Derived from the binding alone:
    /// no statistic moves it.
    pub fn column_use(&self, key: u64) -> ColumnUse {
        match &self.body {
            Ok(Prepared::Select(q)) => q
                .tables
                .iter()
                .filter(|t| t.facts.key == key)
                .map(PreparedTable::column_use)
                .reduce(ColumnUse::and)
                .unwrap_or(ColumnUse::ALL),
            Ok(Prepared::Dml(d)) if d.target.facts.key == key => match &d.dml {
                BoundDml::Update { set_columns, .. } => ColumnUse {
                    maintained: ColumnMask::of(set_columns.iter()),
                    ..d.target.column_use()
                },
                BoundDml::Insert { .. } | BoundDml::Delete { .. } => ColumnUse::ALL,
            },
            Ok(Prepared::Dml(_)) | Err(_) => ColumnUse::ALL,
        }
    }

    /// The [`table_key`] of each table binding the planner picks an access
    /// path for, in the order [`crate::Picks`] records them: what
    /// [`crate::derive_prepared`] plans from. Empty for an INSERT, which
    /// picks none; `None` for a statement that does not bind.
    pub fn binding_keys(&self) -> Option<Vec<u64>> {
        let bindings = self.body.as_ref().ok()?.bindings();
        Some(bindings.iter().map(|t| t.facts.key).collect())
    }

    /// Which materialized views can change the statement's plan, of those
    /// of its database joining a table it references. A SELECT reads a
    /// view only through a rewrite, and only a view that answers it (the
    /// full-match test the planner runs before costing a view: its join
    /// graph, every sarg column produced, a group-by subsuming the
    /// query's with derivable aggregates, or every referenced column of
    /// an ungrouped view). DML maintains every view joining its table, and
    /// a statement that does not bind keeps every view. Planning without
    /// a view this rejects gives the same cost, rows, plan and used
    /// structures. Derived from the binding alone: no statistic moves it.
    pub fn view_use(&self) -> ViewUse {
        match &self.body {
            Ok(Prepared::Select(q)) => ViewUse(Readable::Answering(q.views.clone())),
            Ok(Prepared::Dml(_)) | Err(_) => ViewUse(Readable::Every),
        }
    }

    /// What planning this statement under `config` reads besides the
    /// preparation.
    pub(crate) fn context<'a>(&'a self, config: &'a Configuration) -> PlanContext<'a> {
        PlanContext {
            config,
            hardware: self.hardware,
            database: &self.database,
            database_key: self.database_key,
        }
    }

    pub(crate) fn body(&self) -> Result<&Prepared, BindError> {
        self.body.as_ref().map_err(Clone::clone)
    }
}

/// Shared by the planner modules' unit tests: statements over database
/// `db`, prepared from SQL.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::provider::FixedSizes;
    use crate::WhatIfOptimizer;

    /// Prepare `sql` in database `db` on default hardware.
    pub(crate) fn prepare(
        catalog: &Catalog,
        stats: &StatisticsManager,
        sizes: &FixedSizes,
        sql: &str,
    ) -> PreparedStatement {
        let stmt = dta_sql::parse_statement(sql).expect("test SQL parses");
        WhatIfOptimizer::new(catalog, stats, sizes, HardwareParams::default()).prepare("db", &stmt)
    }

    impl PreparedStatement {
        pub(crate) fn select(&self) -> &PreparedSelect {
            match self.body() {
                Ok(Prepared::Select(q)) => q,
                _ => panic!("`{}` is not a bound SELECT", self.text()),
            }
        }

        pub(crate) fn dml(&self) -> &PreparedDml {
            match self.body() {
                Ok(Prepared::Dml(d)) => d,
                _ => panic!("`{}` is not bound DML", self.text()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FixedSizes;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};
    use dta_stats::histogram::Histogram;
    use dta_stats::{StatKey, Statistic};

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("g", ColumnType::Int),
                Column::new("s", ColumnType::Str(20)),
            ],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn stats() -> StatisticsManager {
        let mut m = StatisticsManager::new();
        // column a: uniform ints 0..1000
        m.add(Statistic {
            key: StatKey::new("db", "t", &["a"]),
            histogram: Histogram::build((0..1000).map(Value::Int).collect()),
            densities: vec![1.0 / 1000.0],
            row_count: 1000,
            sample_rows: 1000,
        });
        // column g: 10 distinct
        m.add(Statistic {
            key: StatKey::new("db", "t", &["g", "a"]),
            histogram: Histogram::build((0..1000).map(|i| Value::Int(i % 10)).collect()),
            densities: vec![0.1, 1.0 / 1000.0],
            row_count: 1000,
            sample_rows: 1000,
        });
        m
    }

    fn facts() -> TableFacts {
        let (cat, stats) = (catalog(), stats());
        let sizes = FixedSizes::default().with_table("db", "t", 1000, 28);
        TableFacts::gather(
            &Sources { catalog: &cat, stats: &stats, sizes: &sizes, database: "db" },
            "t",
        )
    }

    #[test]
    fn facts_carry_sizes_widths_and_distincts() {
        let f = facts();
        assert_eq!((f.rows, f.row_width), (1000.0, 28));
        assert_eq!(f.heap_pages, pages_for(1000, 28) as f64);
        assert_eq!(f.column_width("s"), 8, "FixedSizes answers its default for every column");
        assert_eq!(f.column_width("not_a_column"), UNKNOWN_COLUMN_WIDTH);
        assert_eq!(f.key, table_key("db", "t"));
        assert!((f.scaled_distinct(&["g"]).unwrap() - 10.0).abs() < 1e-6);
        // order-independent, like the manager's lookup
        assert_eq!(f.scaled_distinct(&["a", "g"]), f.scaled_distinct(&["g", "a"]));
        assert_eq!(f.scaled_distinct(&["s"]), None);
    }

    #[test]
    fn distinct_counts_cap_and_default() {
        let f = facts();
        assert!((capped_distinct(f.scaled_distinct(&["g"]), 1000.0) - 10.0).abs() < 1e-6);
        assert!((capped_distinct(f.scaled_distinct(&["a"]), 1000.0) - 1000.0).abs() < 1e-6);
        assert!(capped_distinct(f.scaled_distinct(&["a"]), 50.0) <= 50.0);
        // unknown column: 10% default
        assert!((capped_distinct(f.scaled_distinct(&["zzz"]), 1000.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn join_selectivity_uses_max_distinct() {
        let f = facts();
        assert!((join_selectivity(&f, "a", &f, "g") - 0.001).abs() < 1e-6);
    }

    #[test]
    fn group_counts() {
        let f = facts();
        let one = GroupEstimate::new(&[(Some(&f), "g")]);
        assert!((one.count(1000.0) - 10.0).abs() < 1e-6);
        // multi-column with exact density for (g, a)
        let both = GroupEstimate::new(&[(Some(&f), "g"), (Some(&f), "a")]);
        assert!((both.count(1000.0) - 1000.0).abs() < 1e-6);
        // capped by input rows
        assert!(GroupEstimate::new(&[(Some(&f), "a")]).count(50.0) <= 50.0);
        // no columns: one group; a column without facts: the 10% default
        assert_eq!(GroupEstimate::new(&[]).count(1000.0), 1.0);
        assert!((GroupEstimate::new(&[(None, "x")]).count(1000.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn select_slots_follow_the_bound_statement() {
        let (cat, stats) = (catalog(), stats());
        let sizes = FixedSizes::default().with_table("db", "t", 1000, 28);
        let prep = testing::prepare(
            &cat,
            &stats,
            &sizes,
            "SELECT p.a FROM t AS p, t AS q WHERE p.a = q.g AND p.g = 3 AND q.a < 100",
        );
        assert_eq!(prep.table_refs(), 2);
        assert!(prep.bind_error().is_none());
        let q = prep.select();
        assert_eq!(q.tables.len(), 2);
        let (p, r) = (&q.tables[0], &q.tables[1]);
        assert_eq!((&*p.binding, &*p.facts.table), ("p", "t"));
        assert_eq!(p.sargs.len(), 1);
        assert!((p.out_sel - 0.1).abs() < 0.03, "{}", p.out_sel);
        assert!((r.out_rows - 100.0).abs() < 30.0, "{}", r.out_rows);
        assert_eq!(p.join_distinct.len(), 1);
        assert_eq!(p.join_distinct[0].0, "a");
        assert_eq!(r.join_distinct[0].0, "g");
        assert_eq!((q.joins[0].left, q.joins[0].right), (0, 1));
        assert!((q.joins[0].sel - 0.001).abs() < 1e-6);
        assert!(q.views.is_none(), "a self-join matches no view");
    }

    #[test]
    fn sargs_and_residuals_combine() {
        let (cat, stats) = (catalog(), stats());
        let sizes = FixedSizes::default().with_table("db", "t", 1000, 28);
        let prep =
            testing::prepare(&cat, &stats, &sizes, "SELECT a FROM t WHERE g = 3 AND a + g > 5");
        let t = &prep.select().tables[0];
        assert_eq!((t.sargs.len(), t.residuals), (1, 1));
        assert!((t.out_sel - 0.1 * RESIDUAL_SEL).abs() < 0.02, "{}", t.out_sel);
        assert_eq!(t.out_rows, 1000.0 * t.out_sel);
    }

    #[test]
    fn an_unbindable_statement_prepares_as_its_error() {
        let (cat, stats) = (catalog(), stats());
        let sizes = FixedSizes::default();
        let prep = testing::prepare(&cat, &stats, &sizes, "SELECT zzz FROM t, t AS u");
        assert!(matches!(prep.bind_error(), Some(BindError::UnknownColumn(_))));
        // the constants a hosting server needs are there all the same
        assert_eq!(prep.table_refs(), 2);
        assert_eq!(prep.text(), "SELECT zzz FROM t, t AS u");
        assert!(crate::optimize_prepared(&prep, &Default::default()).is_err());
    }
}
