//! The binder: turns parsed statements into analyzed, catalog-resolved
//! query descriptions the planner consumes.

use dta_catalog::{Catalog, Value};
use dta_sql::{AggFunc, BinaryOp, ColumnRef, Expr, Literal, SelectStatement, Statement};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Binding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    UnknownDatabase(String),
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    Unsupported(String),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::UnknownDatabase(s) => write!(f, "unknown database '{s}'"),
            BindError::UnknownTable(s) => write!(f, "unknown table '{s}'"),
            BindError::UnknownColumn(s) => write!(f, "unknown column '{s}'"),
            BindError::AmbiguousColumn(s) => write!(f, "ambiguous column '{s}'"),
            BindError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
        }
    }
}

impl std::error::Error for BindError {}

/// A `(binding, column)` pair: `binding` is the alias (or table name)
/// used in the query, resolved against the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundColumn {
    pub binding: String,
    pub column: String,
}

impl BoundColumn {
    pub fn new(binding: &str, column: &str) -> Self {
        Self { binding: binding.to_string(), column: column.to_string() }
    }
}

/// A table reference bound to a catalog table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// The name this table goes by in the query (alias or table name).
    pub binding: String,
    /// The underlying catalog table.
    pub table: String,
}

/// A sargable single-column predicate shape.
#[derive(Debug, Clone, PartialEq)]
pub enum SargOp {
    /// `col = v`
    Eq(Value),
    /// `col <> v` — sargable only in the sense of being estimable.
    NotEq(Value),
    /// A (half-)open range; bounds carry their inclusivity.
    Range { low: Option<(Value, bool)>, high: Option<(Value, bool)> },
    /// `col IN (v1 .. vk)`
    In(Vec<Value>),
    /// `col LIKE 'prefix%'`
    LikePrefix(String),
}

/// A sargable predicate on one bound column.
#[derive(Debug, Clone, PartialEq)]
pub struct Sarg {
    pub column: BoundColumn,
    pub op: SargOp,
}

impl Sarg {
    /// True if an index with this column as a key prefix can seek on it
    /// (equality and ranges can; `<>` cannot).
    pub fn is_seekable(&self) -> bool {
        !matches!(self.op, SargOp::NotEq(_))
    }

    /// The range this predicate restricts the column to, for partition
    /// elimination: `(low, high)` bounds, either possibly unbounded.
    pub fn value_range(&self) -> (Option<&Value>, Option<&Value>) {
        match &self.op {
            SargOp::Eq(v) => (Some(v), Some(v)),
            SargOp::NotEq(_) => (None, None),
            SargOp::Range { low, high } => {
                (low.as_ref().map(|(v, _)| v), high.as_ref().map(|(v, _)| v))
            }
            SargOp::In(vs) => (vs.iter().min(), vs.iter().max()),
            SargOp::LikePrefix(_) => (None, None),
        }
    }
}

/// An equi-join predicate between two bound columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinPred {
    pub left: BoundColumn,
    pub right: BoundColumn,
}

impl JoinPred {
    /// Normalized constructor (sorted endpoints).
    pub fn new(a: BoundColumn, b: BoundColumn) -> Self {
        if a <= b {
            Self { left: a, right: b }
        } else {
            Self { left: b, right: a }
        }
    }

    /// The side of the join touching `binding`, if any.
    pub fn side_for(&self, binding: &str) -> Option<&BoundColumn> {
        if self.left.binding == binding {
            Some(&self.left)
        } else if self.right.binding == binding {
            Some(&self.right)
        } else {
            None
        }
    }

    /// The opposite side from `binding`.
    pub fn other_side(&self, binding: &str) -> Option<&BoundColumn> {
        if self.left.binding == binding {
            Some(&self.right)
        } else if self.right.binding == binding {
            Some(&self.left)
        } else {
            None
        }
    }
}

/// A bound aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAggregate {
    pub func: AggFunc,
    /// First column the argument references (width/statistics proxy);
    /// `None` = `COUNT(*)` or a column-free argument.
    pub arg: Option<BoundColumn>,
    pub distinct: bool,
    /// The raw argument expression, kept for canonicalization.
    pub arg_expr: Option<Expr>,
}

/// Canonical table-qualified text of an aggregate argument, plus the
/// bound columns it references. Every column reference is rewritten to
/// `table.column` (catalog table names, not aliases), so the same
/// expression written against a view definition and against a query
/// compares equal. Returns `None` when the expression cannot be
/// canonicalized unambiguously (self-joins, unresolvable columns).
pub fn canonical_agg_arg(bound: &BoundSelect, arg: &Expr) -> Option<(String, Vec<BoundColumn>)> {
    // binding → table must be injective (no self-joins)
    let mut tables: Vec<&str> = bound.tables.iter().map(|t| t.table.as_str()).collect();
    tables.sort_unstable();
    let n = tables.len();
    tables.dedup();
    if tables.len() != n {
        return None;
    }
    let mut rewritten = arg.clone();
    let mut cols: Vec<BoundColumn> = Vec::new();
    let mut ok = true;
    dta_sql::visit::rewrite_columns(&mut rewritten, &mut |c: &mut ColumnRef| {
        let binding = match &c.table {
            Some(q) => bound.tables.iter().find(|t| t.binding == *q).map(|t| t.binding.clone()),
            None => {
                // unique binding whose referenced columns contain it
                let mut hits = bound
                    .referenced
                    .iter()
                    .filter(|(_, set)| set.contains(&c.column))
                    .map(|(b, _)| b.clone());
                let first = hits.next();
                if hits.next().is_some() {
                    None
                } else {
                    first
                }
            }
        };
        match binding.and_then(|b| bound.table_of(&b).map(|t| (b, t.to_string()))) {
            Some((b, table)) => {
                cols.push(BoundColumn::new(&b, &c.column));
                c.table = Some(table);
            }
            None => ok = false,
        }
    });
    if !ok {
        return None;
    }
    cols.sort();
    cols.dedup();
    Some((rewritten.to_string(), cols))
}

/// A fully analyzed SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelect {
    pub database: String,
    pub tables: Vec<BoundTable>,
    /// Sargable single-table predicates.
    pub sargs: Arc<[Sarg]>,
    /// Equi-join predicates.
    pub joins: Arc<[JoinPred]>,
    /// Residual (non-sargable) conjunct count per binding.
    pub residuals: BTreeMap<String, usize>,
    /// Residual conjuncts spanning multiple tables.
    pub cross_residuals: usize,
    /// The residual conjuncts themselves (binding they are attributable
    /// to, or `None` for cross-table), kept for the execution engine.
    pub residual_exprs: Vec<(Option<String>, Expr)>,
    /// Group-by columns.
    pub group_by: Arc<[BoundColumn]>,
    /// Aggregates in the select list.
    pub aggregates: Vec<BoundAggregate>,
    /// Order-by columns with descending flags.
    pub order_by: Arc<[(BoundColumn, bool)]>,
    /// Columns referenced anywhere, per binding — what an index must
    /// carry to be covering.
    pub referenced: BTreeMap<String, BTreeSet<String>>,
    pub distinct: bool,
    pub top: Option<u64>,
}

impl BoundSelect {
    /// Catalog table behind a binding.
    pub fn table_of(&self, binding: &str) -> Option<&str> {
        self.tables.iter().find(|t| t.binding == binding).map(|t| t.table.as_str())
    }

    /// Sargs restricted to one binding.
    pub fn sargs_for(&self, binding: &str) -> Vec<&Sarg> {
        self.sargs.iter().filter(|s| s.column.binding == binding).collect()
    }

    /// Columns the plan must produce for one binding.
    pub fn referenced_for(&self, binding: &str) -> Vec<String> {
        self.referenced.get(binding).map(|s| s.iter().cloned().collect()).unwrap_or_default()
    }

    /// True if the query computes aggregates.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty() || !self.aggregates.is_empty()
    }
}

/// A bound DML statement (single-table by construction of the dialect).
#[derive(Debug, Clone, PartialEq)]
pub enum BoundDml {
    Insert {
        database: String,
        table: String,
        rows: u64,
    },
    Update {
        database: String,
        table: String,
        set_columns: Arc<[String]>,
        filter: SingleTableFilter,
    },
    Delete {
        database: String,
        table: String,
        filter: SingleTableFilter,
    },
}

/// Predicate information for locating affected rows of a DML statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SingleTableFilter {
    pub sargs: Vec<Sarg>,
    pub residuals: usize,
    /// Residual conjunct expressions, kept for the execution engine.
    pub residual_exprs: Vec<Expr>,
    /// Columns the filter references (for covering checks).
    pub referenced: BTreeSet<String>,
}

/// Any bound statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    Select(BoundSelect),
    Dml(BoundDml),
}

/// Bind a statement against `catalog` in the context of `database`.
pub fn bind(
    catalog: &Catalog,
    database: &str,
    stmt: &Statement,
) -> Result<BoundStatement, BindError> {
    match stmt {
        Statement::Select(s) => bind_select(catalog, database, s).map(BoundStatement::Select),
        Statement::Insert(i) => Ok(BoundStatement::Dml(BoundDml::Insert {
            database: database.to_string(),
            table: resolve_table(catalog, database, &i.table)?,
            rows: i.rows.len() as u64,
        })),
        Statement::Update(u) => {
            let table = resolve_table(catalog, database, &u.table)?;
            let binder = SingleBinder::new(catalog, database, &table)?;
            let mut filter = binder.bind_filter(u.predicate.as_ref())?;
            for (_, e) in &u.assignments {
                binder.collect_refs(e, &mut filter.referenced);
            }
            Ok(BoundStatement::Dml(BoundDml::Update {
                database: database.to_string(),
                table,
                set_columns: u.assignments.iter().map(|(c, _)| c.clone()).collect(),
                filter,
            }))
        }
        Statement::Delete(d) => {
            let table = resolve_table(catalog, database, &d.table)?;
            let binder = SingleBinder::new(catalog, database, &table)?;
            let filter = binder.bind_filter(d.predicate.as_ref())?;
            Ok(BoundStatement::Dml(BoundDml::Delete {
                database: database.to_string(),
                table,
                filter,
            }))
        }
    }
}

fn resolve_table(catalog: &Catalog, database: &str, table: &str) -> Result<String, BindError> {
    let db = catalog
        .database(database)
        .ok_or_else(|| BindError::UnknownDatabase(database.to_string()))?;
    db.table(table)
        .map(|t| t.name.clone())
        .ok_or_else(|| BindError::UnknownTable(table.to_string()))
}

/// Helper for binding single-table filters (UPDATE/DELETE).
struct SingleBinder<'a> {
    catalog: &'a Catalog,
    database: String,
    table: String,
}

impl<'a> SingleBinder<'a> {
    fn new(catalog: &'a Catalog, database: &str, table: &str) -> Result<Self, BindError> {
        Ok(Self { catalog, database: database.to_string(), table: table.to_string() })
    }

    fn has_column(&self, col: &str) -> bool {
        self.catalog
            .database(&self.database)
            .and_then(|d| d.table(&self.table))
            .is_some_and(|t| t.has_column(col))
    }

    fn bind_filter(&self, predicate: Option<&Expr>) -> Result<SingleTableFilter, BindError> {
        let mut out = SingleTableFilter::default();
        let Some(pred) = predicate else { return Ok(out) };
        for conjunct in pred.conjuncts() {
            match classify_conjunct(conjunct) {
                Classified::Sarg { column, op } => {
                    if !self.has_column(&column.column) {
                        return Err(BindError::UnknownColumn(column.column));
                    }
                    out.referenced.insert(column.column.clone());
                    out.sargs
                        .push(Sarg { column: BoundColumn::new(&self.table, &column.column), op });
                }
                _ => {
                    out.residuals += 1;
                    out.residual_exprs.push(conjunct.clone());
                    collect_columns(conjunct, &mut |c| {
                        out.referenced.insert(c.column.clone());
                    });
                }
            }
        }
        Ok(out)
    }

    fn collect_refs(&self, e: &Expr, into: &mut BTreeSet<String>) {
        collect_columns(e, &mut |c| {
            into.insert(c.column.clone());
        });
    }
}

fn collect_columns(e: &Expr, f: &mut impl FnMut(&ColumnRef)) {
    dta_sql::visit::walk_expr(e, &mut |node| {
        if let Expr::Column(c) = node {
            f(c);
        }
    });
}

/// What a WHERE conjunct turned out to be.
enum Classified {
    Sarg { column: ColumnRef, op: SargOp },
    Join { left: ColumnRef, right: ColumnRef },
    Residual,
}

fn literal_value(l: &Literal) -> Option<Value> {
    Some(match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    })
}

fn classify_conjunct(e: &Expr) -> Classified {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(l)) => classify_cmp(c, *op, l),
            (Expr::Literal(l), Expr::Column(c)) => classify_cmp(c, op.flip(), l),
            (Expr::Column(a), Expr::Column(b)) if *op == BinaryOp::Eq => {
                Classified::Join { left: a.clone(), right: b.clone() }
            }
            _ => Classified::Residual,
        },
        Expr::Between { expr, negated: false, low, high } => {
            if let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                (&**expr, &**low, &**high)
            {
                if let (Some(lo), Some(hi)) = (literal_value(lo), literal_value(hi)) {
                    return Classified::Sarg {
                        column: c.clone(),
                        op: SargOp::Range { low: Some((lo, true)), high: Some((hi, true)) },
                    };
                }
            }
            Classified::Residual
        }
        Expr::InList { expr, negated: false, list } => {
            if let Expr::Column(c) = &**expr {
                let vals: Option<Vec<Value>> = list
                    .iter()
                    .map(|e| match e {
                        Expr::Literal(l) => literal_value(l),
                        _ => None,
                    })
                    .collect();
                if let Some(vals) = vals {
                    return Classified::Sarg { column: c.clone(), op: SargOp::In(vals) };
                }
            }
            Classified::Residual
        }
        Expr::Like { expr, negated: false, pattern } => {
            if let (Expr::Column(c), Expr::Literal(Literal::Str(p))) = (&**expr, &**pattern) {
                // 'abc%' (a single trailing wildcard) is a seekable prefix
                if let Some(prefix) = p.strip_suffix('%') {
                    if !prefix.is_empty() && !prefix.contains('%') && !prefix.contains('_') {
                        return Classified::Sarg {
                            column: c.clone(),
                            op: SargOp::LikePrefix(prefix.to_string()),
                        };
                    }
                }
            }
            Classified::Residual
        }
        _ => Classified::Residual,
    }
}

fn classify_cmp(c: &ColumnRef, op: BinaryOp, l: &Literal) -> Classified {
    let Some(v) = literal_value(l) else { return Classified::Residual };
    let op = match op {
        BinaryOp::Eq => SargOp::Eq(v),
        BinaryOp::NotEq => SargOp::NotEq(v),
        BinaryOp::Lt => SargOp::Range { low: None, high: Some((v, false)) },
        BinaryOp::LtEq => SargOp::Range { low: None, high: Some((v, true)) },
        BinaryOp::Gt => SargOp::Range { low: Some((v, false)), high: None },
        BinaryOp::GtEq => SargOp::Range { low: Some((v, true)), high: None },
        _ => return Classified::Residual,
    };
    Classified::Sarg { column: c.clone(), op }
}

/// Binds a SELECT statement.
fn bind_select(
    catalog: &Catalog,
    database: &str,
    s: &SelectStatement,
) -> Result<BoundSelect, BindError> {
    let db = catalog
        .database(database)
        .ok_or_else(|| BindError::UnknownDatabase(database.to_string()))?;

    // resolve FROM
    let mut tables: Vec<BoundTable> = Vec::new();
    let mut join_exprs: Vec<Expr> = Vec::new();
    for twj in &s.from {
        for tref in twj.tables() {
            let t =
                db.table(&tref.name).ok_or_else(|| BindError::UnknownTable(tref.name.clone()))?;
            tables.push(BoundTable {
                binding: tref.binding_name().to_string(),
                table: t.name.clone(),
            });
        }
        for j in &twj.joins {
            join_exprs.push(j.on.clone());
        }
    }
    if tables.is_empty() {
        return Err(BindError::Unsupported("SELECT without FROM".into()));
    }

    // column resolution against the bound tables
    let resolve = |c: &ColumnRef| -> Result<BoundColumn, BindError> {
        if let Some(q) = &c.table {
            let bt = tables
                .iter()
                .find(|t| t.binding == *q)
                .ok_or_else(|| BindError::UnknownTable(q.clone()))?;
            let t = db.table(&bt.table).expect("bound table exists");
            if !t.has_column(&c.column) {
                return Err(BindError::UnknownColumn(format!("{q}.{}", c.column)));
            }
            Ok(BoundColumn::new(&bt.binding, &c.column))
        } else {
            let mut hits = tables
                .iter()
                .filter(|bt| db.table(&bt.table).is_some_and(|t| t.has_column(&c.column)));
            let first = hits.next().ok_or_else(|| BindError::UnknownColumn(c.column.clone()))?;
            if hits.next().is_some() {
                return Err(BindError::AmbiguousColumn(c.column.clone()));
            }
            Ok(BoundColumn::new(&first.binding, &c.column))
        }
    };

    let mut bound = BoundSelect {
        database: database.to_string(),
        tables: tables.clone(),
        sargs: Arc::default(),
        joins: Arc::default(),
        residuals: BTreeMap::new(),
        cross_residuals: 0,
        residual_exprs: Vec::new(),
        group_by: Arc::default(),
        aggregates: Vec::new(),
        order_by: Arc::default(),
        referenced: BTreeMap::new(),
        distinct: s.distinct,
        top: s.top,
    };

    let note_ref = |bc: &BoundColumn, bound: &mut BoundSelect| {
        bound.referenced.entry(bc.binding.clone()).or_default().insert(bc.column.clone());
    };

    // what becomes the shared slices of `bound`
    let (mut sargs, mut joins, mut group_by, mut order_by) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    // conjuncts from WHERE and JOIN ... ON, treated uniformly
    let mut conjuncts: Vec<Expr> = Vec::new();
    for je in &join_exprs {
        conjuncts.extend(je.conjuncts().into_iter().cloned());
    }
    if let Some(p) = &s.predicate {
        conjuncts.extend(p.conjuncts().into_iter().cloned());
    }

    for conjunct in &conjuncts {
        match classify_conjunct(conjunct) {
            Classified::Sarg { column, op } => {
                let bc = resolve(&column)?;
                note_ref(&bc, &mut bound);
                sargs.push(Sarg { column: bc, op });
            }
            Classified::Join { left, right } => {
                let l = resolve(&left)?;
                let r = resolve(&right)?;
                note_ref(&l, &mut bound);
                note_ref(&r, &mut bound);
                if l.binding == r.binding {
                    // same-table column equality: residual
                    *bound.residuals.entry(l.binding.clone()).or_default() += 1;
                    bound.residual_exprs.push((Some(l.binding.clone()), conjunct.clone()));
                } else {
                    joins.push(JoinPred::new(l, r));
                }
            }
            Classified::Residual => {
                // attribute to a single table if possible
                let mut bindings: BTreeSet<String> = BTreeSet::new();
                let mut err = None;
                collect_columns(conjunct, &mut |c| match resolve(c) {
                    Ok(bc) => {
                        bindings.insert(bc.binding.clone());
                        bound
                            .referenced
                            .entry(bc.binding.clone())
                            .or_default()
                            .insert(bc.column.clone());
                    }
                    Err(e) => err = Some(e),
                });
                if let Some(e) = err {
                    return Err(e);
                }
                if bindings.len() == 1 {
                    let b = bindings.into_iter().next().expect("one binding");
                    *bound.residuals.entry(b.clone()).or_default() += 1;
                    bound.residual_exprs.push((Some(b), conjunct.clone()));
                } else {
                    bound.cross_residuals += 1;
                    bound.residual_exprs.push((None, conjunct.clone()));
                }
            }
        }
    }

    // projections
    for item in &s.projections {
        bind_expr_refs(&item.expr, &resolve, &mut bound)?;
        collect_aggregates(&item.expr, &resolve, &mut bound.aggregates)?;
    }
    // HAVING contributes aggregates and references too
    if let Some(h) = &s.having {
        bind_expr_refs(h, &resolve, &mut bound)?;
        collect_aggregates(h, &resolve, &mut bound.aggregates)?;
    }

    // group by
    for g in &s.group_by {
        match g {
            Expr::Column(c) => {
                let bc = resolve(c)?;
                note_ref(&bc, &mut bound);
                group_by.push(bc);
            }
            _ => return Err(BindError::Unsupported("non-column GROUP BY expression".into())),
        }
    }

    // order by (only column sort keys participate in interesting orders)
    for o in &s.order_by {
        if let Expr::Column(c) = &o.expr {
            let bc = resolve(c)?;
            note_ref(&bc, &mut bound);
            order_by.push((bc, o.desc));
        } else {
            bind_expr_refs(&o.expr, &resolve, &mut bound)?;
        }
    }

    // SELECT * pulls every column of every table
    if s.projections.is_empty() {
        for bt in &tables {
            let t = db.table(&bt.table).expect("binding resolved against this table above");
            let entry = bound.referenced.entry(bt.binding.clone()).or_default();
            for c in &t.columns {
                entry.insert(c.name.clone());
            }
        }
    }

    bound.sargs = sargs.into();
    bound.joins = joins.into();
    bound.group_by = group_by.into();
    bound.order_by = order_by.into();
    Ok(bound)
}

fn bind_expr_refs(
    e: &Expr,
    resolve: &impl Fn(&ColumnRef) -> Result<BoundColumn, BindError>,
    bound: &mut BoundSelect,
) -> Result<(), BindError> {
    let mut err = None;
    collect_columns(e, &mut |c| match resolve(c) {
        Ok(bc) => {
            bound.referenced.entry(bc.binding.clone()).or_default().insert(bc.column.clone());
        }
        Err(e) => err = Some(e),
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn collect_aggregates(
    e: &Expr,
    resolve: &impl Fn(&ColumnRef) -> Result<BoundColumn, BindError>,
    out: &mut Vec<BoundAggregate>,
) -> Result<(), BindError> {
    let mut err = None;
    dta_sql::visit::walk_expr(e, &mut |node| {
        if let Expr::Aggregate { func, distinct, arg } = node {
            let bound_arg = match arg {
                Some(a) => match &**a {
                    Expr::Column(c) => match resolve(c) {
                        Ok(bc) => Some(bc),
                        Err(e) => {
                            err = Some(e);
                            None
                        }
                    },
                    other => {
                        // aggregate over an expression: record its columns
                        // via the first column reference (cost-relevant
                        // width only)
                        let mut first = None;
                        collect_columns(other, &mut |c| {
                            if first.is_none() {
                                first = Some(c.clone());
                            }
                        });
                        match first.map(|c| resolve(&c)).transpose() {
                            Ok(v) => v,
                            Err(e) => {
                                err = Some(e);
                                None
                            }
                        }
                    }
                },
                None => None,
            };
            out.push(BoundAggregate {
                func: *func,
                arg: bound_arg,
                distinct: *distinct,
                arg_expr: arg.as_deref().cloned(),
            });
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table};
    use dta_sql::parse_statement;

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("x", ColumnType::Int),
                Column::new("s", ColumnType::Str(20)),
            ],
        ))
        .unwrap();
        db.add_table(Table::new(
            "u",
            vec![Column::new("k", ColumnType::Int), Column::new("b", ColumnType::Int)],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn bind_sel(sql: &str) -> BoundSelect {
        match bind(&catalog(), "db", &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn binds_paper_example_1() {
        let b = bind_sel("SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a");
        assert_eq!(b.tables.len(), 1);
        assert_eq!(b.sargs.len(), 1);
        assert!(matches!(b.sargs[0].op, SargOp::Range { .. }));
        assert_eq!(*b.group_by, [BoundColumn::new("t", "a")]);
        assert_eq!(b.aggregates.len(), 1);
        assert!(b.is_aggregate());
        let refs = b.referenced_for("t");
        assert!(refs.contains(&"a".to_string()) && refs.contains(&"x".to_string()));
    }

    #[test]
    fn join_extraction_from_where_and_on() {
        let b1 = bind_sel("SELECT a FROM t, u WHERE t.x = u.k AND a > 5");
        assert_eq!(b1.joins.len(), 1);
        let b2 = bind_sel("SELECT a FROM t JOIN u ON t.x = u.k WHERE a > 5");
        assert_eq!(b2.joins, b1.joins);
        assert_eq!(b2.sargs.len(), 1);
    }

    #[test]
    fn sarg_classification() {
        let b = bind_sel(
            "SELECT a FROM t WHERE a = 1 AND x BETWEEN 2 AND 9 AND s LIKE 'ab%' AND s IN ('p', 'q') AND a <> 4",
        );
        assert_eq!(b.sargs.len(), 5);
        assert!(matches!(b.sargs[0].op, SargOp::Eq(_)));
        assert!(matches!(b.sargs[1].op, SargOp::Range { .. }));
        assert!(matches!(b.sargs[2].op, SargOp::LikePrefix(_)));
        assert!(matches!(b.sargs[3].op, SargOp::In(_)));
        assert!(matches!(b.sargs[4].op, SargOp::NotEq(_)));
        assert!(!b.sargs[4].is_seekable());
    }

    #[test]
    fn residuals_counted_per_table() {
        let b = bind_sel("SELECT a FROM t, u WHERE a + x > 5 AND (a = 1 OR x = 2) AND t.a > u.b");
        assert_eq!(b.residuals.get("t"), Some(&2));
        assert_eq!(b.cross_residuals, 1);
    }

    #[test]
    fn flipped_comparison_normalized() {
        let b = bind_sel("SELECT a FROM t WHERE 10 > x");
        match &b.sargs[0].op {
            SargOp::Range { low: None, high: Some((Value::Int(10), false)) } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aliases_resolve() {
        let b = bind_sel("SELECT p.a FROM t AS p JOIN u ON p.x = u.k");
        assert_eq!(b.tables[0].binding, "p");
        assert_eq!(b.tables[0].table, "t");
        assert_eq!(b.table_of("p"), Some("t"));
    }

    #[test]
    fn ambiguity_and_unknowns_error() {
        let cat = catalog();
        let err = |sql: &str| bind(&cat, "db", &parse_statement(sql).unwrap()).unwrap_err();
        assert!(matches!(err("SELECT zzz FROM t"), BindError::UnknownColumn(_)));
        assert!(matches!(err("SELECT a FROM missing"), BindError::UnknownTable(_)));
        assert!(matches!(
            bind(&cat, "nodb", &parse_statement("SELECT a FROM t").unwrap()).unwrap_err(),
            BindError::UnknownDatabase(_)
        ));
        // same table twice: bare column unique per binding set? "a" exists
        // only in t but both bindings expose it -> ambiguous
        assert!(matches!(
            err("SELECT a FROM t, t AS t2 WHERE t.x = t2.x"),
            BindError::AmbiguousColumn(_)
        ));
    }

    #[test]
    fn select_star_references_all_columns() {
        let b = bind_sel("SELECT * FROM t WHERE a = 1");
        assert_eq!(b.referenced_for("t").len(), 3);
    }

    #[test]
    fn dml_binding() {
        let cat = catalog();
        let upd = bind(&cat, "db", &parse_statement("UPDATE t SET a = x + 1 WHERE x < 5").unwrap())
            .unwrap();
        match upd {
            BoundStatement::Dml(BoundDml::Update { set_columns, filter, .. }) => {
                assert_eq!(set_columns.to_vec(), vec!["a"]);
                assert_eq!(filter.sargs.len(), 1);
                assert!(filter.referenced.contains("x"));
            }
            other => panic!("{other:?}"),
        }
        let ins = bind(
            &cat,
            "db",
            &parse_statement("INSERT INTO t VALUES (1, 2, 'x'), (3, 4, 'y')").unwrap(),
        )
        .unwrap();
        match ins {
            BoundStatement::Dml(BoundDml::Insert { rows, .. }) => assert_eq!(rows, 2),
            other => panic!("{other:?}"),
        }
        let del = bind(&cat, "db", &parse_statement("DELETE FROM t WHERE a = 3").unwrap()).unwrap();
        assert!(matches!(del, BoundStatement::Dml(BoundDml::Delete { .. })));
    }

    #[test]
    fn value_ranges_for_partition_elimination() {
        let b = bind_sel("SELECT a FROM t WHERE x BETWEEN 5 AND 9");
        let (lo, hi) = b.sargs[0].value_range();
        assert_eq!(lo, Some(&Value::Int(5)));
        assert_eq!(hi, Some(&Value::Int(9)));
        let b = bind_sel("SELECT a FROM t WHERE x IN (3, 7, 5)");
        let (lo, hi) = b.sargs[0].value_range();
        assert_eq!(lo, Some(&Value::Int(3)));
        assert_eq!(hi, Some(&Value::Int(7)));
    }

    #[test]
    fn order_by_and_top() {
        let b = bind_sel("SELECT TOP 10 a FROM t ORDER BY x DESC");
        assert_eq!(b.top, Some(10));
        assert_eq!(b.order_by.len(), 1);
        assert!(b.order_by[0].1);
    }
}
