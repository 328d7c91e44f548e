//! The plan interpreter.

use crate::eval::{agg_key, eval, eval_predicate, like_match, Accumulator};
use crate::relation::{ColId, Relation};
use crate::ExecError;
use dta_catalog::{Catalog, Value};
use dta_optimizer::hardware::HardwareParams;
use dta_optimizer::plan::{AccessMethod, JoinPairs, Plan, PlanNode, TableAccess};
use dta_optimizer::query::{bind, BoundSelect, BoundStatement, JoinPred, Sarg, SargOp};
use dta_physical::{Index, MaterializedView, StructureHandle};
use dta_sql::{Expr, SelectStatement, Statement};
use dta_storage::{pages_for, Store, TableData};

/// The hash join and group-by tables. Grouped rows come out in the
/// table's order, which SQL leaves unspecified.
#[expect(clippy::disallowed_types, reason = "SQL leaves the order of grouped rows unspecified")]
type HashMap<K, V> = std::collections::HashMap<K, V>;

/// Actual work metered during execution, in the optimizer's units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActualWork {
    pub io_pages: f64,
    pub cpu_ops: f64,
}

impl ActualWork {
    /// Scalar work units (same formula as estimated costs).
    pub fn work_units(&self) -> f64 {
        self.io_pages + self.cpu_ops * dta_storage::work::CPU_OP_WEIGHT
    }
}

/// The rows a query produced plus the work it took.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Metered work.
    pub work: ActualWork,
}

/// The execution engine.
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    pub store: &'a Store,
    pub hardware: HardwareParams,
}

struct Exec<'a> {
    engine: &'a Engine<'a>,
    database: &'a str,
    select: &'a SelectStatement,
    bound: &'a BoundSelect,
    work: ActualWork,
}

impl<'a> Engine<'a> {
    /// Construct an engine over a catalog and store.
    pub fn new(catalog: &'a Catalog, store: &'a Store, hardware: HardwareParams) -> Self {
        Self { catalog, store, hardware }
    }

    /// Execute a SELECT plan, returning rows and actual work.
    pub fn execute_select(
        &self,
        database: &str,
        stmt: &Statement,
        plan: &Plan,
    ) -> Result<QueryResult, ExecError> {
        let Statement::Select(select) = stmt else {
            return Err(ExecError::BadPlan("execute_select needs a SELECT".into()));
        };
        let bound = match bind(self.catalog, database, stmt) {
            Ok(BoundStatement::Select(b)) => b,
            Ok(_) => return Err(ExecError::BadPlan("statement is not a SELECT".into())),
            Err(e) => return Err(ExecError::BadPlan(e.to_string())),
        };
        let mut exec =
            Exec { engine: self, database, select, bound: &bound, work: ActualWork::default() };
        let rel = exec.run(&plan.root)?;
        let (columns, rows) = exec.project(rel)?;
        Ok(QueryResult { columns, rows, work: exec.work })
    }
}

/// Element at a position that was resolved against this relation's
/// header. Rows and column lists are header-width by construction, so an
/// out-of-range position is an executor bug worth a loud panic.
fn at<T>(xs: &[T], p: usize) -> &T {
    xs.get(p).expect("resolved positions are in range for this relation")
}

/// Evaluate a sarg against a concrete value.
pub fn sarg_matches(op: &SargOp, v: &Value) -> bool {
    match op {
        SargOp::Eq(x) => !v.is_null() && v == x,
        SargOp::NotEq(x) => !v.is_null() && v != x,
        SargOp::Range { low, high } => {
            if v.is_null() {
                return false;
            }
            if let Some((lo, inc)) = low {
                if v < lo || (!inc && v == lo) {
                    return false;
                }
            }
            if let Some((hi, inc)) = high {
                if v > hi || (!inc && v == hi) {
                    return false;
                }
            }
            true
        }
        SargOp::In(vals) => vals.iter().any(|x| x == v),
        SargOp::LikePrefix(p) => match v {
            Value::Str(s) => like_match(s, &format!("{p}%")),
            _ => false,
        },
    }
}

/// The index a plan's access method reads, through its handle.
fn index_of(handle: &StructureHandle) -> Result<&Index, ExecError> {
    handle.as_index().ok_or_else(|| ExecError::BadPlan("index access to a non-index".into()))
}

impl<'a> Exec<'a> {
    fn table_data(&self, table: &str) -> Result<&'a TableData, ExecError> {
        self.engine
            .store
            .table(self.database, table)
            .ok_or_else(|| ExecError::MissingData(table.to_string()))
    }

    fn run(&mut self, node: &PlanNode) -> Result<Relation, ExecError> {
        match node {
            PlanNode::Access(a) => self.run_access(a),
            PlanNode::ViewScan { view, sargs, .. } => {
                let view = view
                    .as_view()
                    .ok_or_else(|| ExecError::BadPlan("view scan of a non-view".into()))?;
                self.run_view_scan(view, sargs)
            }
            PlanNode::HashJoin { left, right, pairs, .. } => {
                let l = self.run(left)?;
                let r = self.run(right)?;
                self.hash_join(l, r, pairs)
            }
            PlanNode::IndexNLJoin { outer, inner, pairs, .. } => {
                let o = self.run(outer)?;
                self.inl_join(o, inner, pairs)
            }
            PlanNode::HashAggregate { input, .. } | PlanNode::StreamAggregate { input, .. } => {
                let rel = self.run(input)?;
                let from_view = matches!(**input, PlanNode::ViewScan { .. });
                if self.bound.is_aggregate() {
                    self.aggregate(rel, from_view)
                } else {
                    // DISTINCT dedup
                    self.distinct(rel)
                }
            }
            PlanNode::Sort { input, keys, .. } => {
                let mut rel = self.run(input)?;
                let n = rel.len() as f64;
                self.work.cpu_ops += n * (n.max(2.0)).log2();
                let positions: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|(c, desc)| {
                        rel.position(Some(&c.binding), &c.column)
                            .or_else(|| rel.position(None, &c.column))
                            .map(|p| (p, *desc))
                            .ok_or_else(|| {
                                ExecError::Eval(format!("sort key {} missing", c.column))
                            })
                    })
                    .collect::<Result<_, _>>()?;
                rel.rows.sort_by(|a, b| {
                    for (p, desc) in &positions {
                        let ord = at(a, *p).cmp(at(b, *p));
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(rel)
            }
            PlanNode::Top { input, n, .. } => {
                let mut rel = self.run(input)?;
                rel.rows.truncate(*n as usize);
                Ok(rel)
            }
            PlanNode::Insert { .. } | PlanNode::Update { .. } | PlanNode::Delete { .. } => {
                Err(ExecError::BadPlan("DML plans are not executed by execute_select".into()))
            }
        }
    }

    // ---- table access ----------------------------------------------------

    fn run_access(&mut self, a: &TableAccess) -> Result<Relation, ExecError> {
        let data = self.table_data(&a.table)?;
        let total_rows = data.rows();
        let mat_pages = data.materialized_pages() as f64;

        // candidate row set + work accounting by method
        let candidates: Vec<usize> = match &a.method {
            AccessMethod::HeapScan => {
                self.work.io_pages += (mat_pages * a.partition_fraction).max(1.0);
                self.work.cpu_ops += total_rows as f64 * a.partition_fraction;
                (0..total_rows).collect()
            }
            AccessMethod::ClusteredSeek { index, seek_len } => {
                let index = index_of(index)?;
                let matched = self.seek_rows(data, index, *seek_len, &a.sargs);
                let sel = matched.len() as f64 / total_rows.max(1) as f64;
                self.work.io_pages += 2.0 + (mat_pages * sel).max(1.0);
                self.work.cpu_ops += matched.len() as f64;
                matched
            }
            AccessMethod::IndexSeek { index, seek_len, covering } => {
                let index = index_of(index)?;
                let matched = self.seek_rows(data, index, *seek_len, &a.sargs);
                let sel = matched.len() as f64 / total_rows.max(1) as f64;
                let leaf_pages = self.index_leaf_pages(data, index);
                self.work.io_pages += 2.0 + (leaf_pages * sel).max(1.0);
                self.work.cpu_ops += matched.len() as f64;
                if !covering {
                    // lookups for rows surviving leaf-resident predicates
                    let survivors = matched
                        .iter()
                        .filter(|&&r| self.leaf_sargs_match(data, index, r, &a.sargs))
                        .count();
                    self.work.io_pages += survivors as f64;
                }
                matched
            }
            AccessMethod::CoveringScan { index } => {
                let index = index_of(index)?;
                let leaf_pages = self.index_leaf_pages(data, index);
                self.work.io_pages += (leaf_pages * a.partition_fraction).max(1.0);
                self.work.cpu_ops += total_rows as f64 * a.partition_fraction;
                (0..total_rows).collect()
            }
        };

        // materialize + filter by all sargs and residual predicates
        let cols: Vec<ColId> =
            data.column_names().iter().map(|c| ColId::new(&a.binding, c)).collect();
        let mut rel = Relation::new(cols);
        let col_count = data.column_names().len();
        let sarg_positions: Vec<(usize, &SargOp)> = a
            .sargs
            .iter()
            .filter_map(|s| data.column_index(&s.column.column).map(|i| (i, &s.op)))
            .collect();

        let residuals: Vec<&Expr> = self
            .bound
            .residual_exprs
            .iter()
            .filter(|(b, _)| b.as_deref() == Some(&*a.binding))
            .map(|(_, e)| e)
            .collect();

        'rows: for r in candidates {
            for (ci, op) in &sarg_positions {
                if !sarg_matches(op, data.cell(r, *ci)) {
                    continue 'rows;
                }
            }
            let row: Vec<Value> = (0..col_count).map(|c| data.cell(r, c).clone()).collect();
            for e in &residuals {
                if !eval_predicate(e, &rel, &row)? {
                    continue 'rows;
                }
            }
            rel.rows.push(row);
        }
        Ok(rel)
    }

    /// Rows matching the seek-prefix sargs of an index.
    fn seek_rows(
        &self,
        data: &TableData,
        index: &Index,
        seek_len: usize,
        sargs: &[Sarg],
    ) -> Vec<usize> {
        let mut preds: Vec<(usize, &SargOp)> = Vec::new();
        for key in index.key_columns.iter().take(seek_len) {
            if let Some(s) = sargs.iter().find(|s| s.column.column == *key && s.is_seekable()) {
                if let Some(ci) = data.column_index(key) {
                    preds.push((ci, &s.op));
                }
            }
        }
        (0..data.rows())
            .filter(|&r| preds.iter().all(|(ci, op)| sarg_matches(op, data.cell(r, *ci))))
            .collect()
    }

    fn leaf_sargs_match(
        &self,
        data: &TableData,
        index: &Index,
        row: usize,
        sargs: &[Sarg],
    ) -> bool {
        for s in sargs {
            if index.leaf_columns().any(|c| *c == s.column.column) {
                if let Some(ci) = data.column_index(&s.column.column) {
                    if !sarg_matches(&s.op, data.cell(row, ci)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn index_leaf_pages(&self, data: &TableData, index: &Index) -> f64 {
        let width: u32 =
            index.leaf_columns().filter_map(|c| data.column_index(c)).map(|_| 8u32).sum::<u32>()
                + 17;
        pages_for(data.rows() as u64, width) as f64
    }

    // ---- joins -------------------------------------------------------------

    fn join_positions(
        &self,
        rel: &Relation,
        pairs: &JoinPairs,
        other: &Relation,
    ) -> Result<(Vec<usize>, Vec<usize>), ExecError> {
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        for p in pairs.iter() {
            let (a, b) = (&p.left, &p.right);
            let (me, them) =
                if rel.position(Some(&a.binding), &a.column).is_some() { (a, b) } else { (b, a) };
            let mp = rel
                .position(Some(&me.binding), &me.column)
                .ok_or_else(|| ExecError::Eval(format!("join column {} missing", me.column)))?;
            let tp = other
                .position(Some(&them.binding), &them.column)
                .ok_or_else(|| ExecError::Eval(format!("join column {} missing", them.column)))?;
            mine.push(mp);
            theirs.push(tp);
        }
        Ok((mine, theirs))
    }

    fn hash_join(
        &mut self,
        left: Relation,
        right: Relation,
        pairs: &JoinPairs,
    ) -> Result<Relation, ExecError> {
        let schema = Relation::concat_schema(&left, &right);
        let mut out = Relation::new(schema);

        if pairs.is_empty() {
            // cross join
            self.work.cpu_ops += (left.len() * right.len()) as f64;
            for l in &left.rows {
                for r in &right.rows {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    out.rows.push(row);
                }
            }
            return Ok(out);
        }

        let (lpos, rpos) = self.join_positions(&left, pairs, &right)?;
        // build on the smaller input
        let (build, probe, bpos, ppos, build_is_left) = if left.len() <= right.len() {
            (&left, &right, &lpos, &rpos, true)
        } else {
            (&right, &left, &rpos, &lpos, false)
        };
        self.work.cpu_ops += 2.0 * build.len() as f64 + probe.len() as f64;

        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.len());
        for (i, row) in build.rows.iter().enumerate() {
            let key: Vec<Value> = bpos.iter().map(|&p| at(row, p).clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        for prow in &probe.rows {
            let key: Vec<Value> = ppos.iter().map(|&p| at(prow, p).clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                self.work.cpu_ops += matches.len() as f64;
                for &bi in matches {
                    let brow = build.rows.get(bi).expect("hash table entries index the build rows");
                    let mut row = if build_is_left { brow.clone() } else { prow.clone() };
                    if build_is_left {
                        row.extend(prow.iter().cloned());
                    } else {
                        row.extend(brow.iter().cloned());
                    }
                    out.rows.push(row);
                }
            }
        }

        // spill accounting mirrors the cost model
        let build_bytes = build.len() as f64 * build.cols.len() as f64 * 8.0;
        if build_bytes > self.engine.hardware.memory_bytes as f64 {
            let probe_bytes = probe.len() as f64 * probe.cols.len() as f64 * 8.0;
            self.work.io_pages += 2.0 * (build_bytes + probe_bytes) / dta_storage::PAGE_SIZE as f64;
        }
        Ok(out)
    }

    fn inl_join(
        &mut self,
        outer: Relation,
        inner: &TableAccess,
        pairs: &JoinPairs,
    ) -> Result<Relation, ExecError> {
        let data = self.table_data(&inner.table)?;
        let index = inner
            .method
            .index()
            .ok_or_else(|| ExecError::BadPlan("INL inner without index".into()))?;
        let covering = matches!(inner.method, AccessMethod::IndexSeek { covering: true, .. })
            || matches!(inner.method, AccessMethod::ClusteredSeek { .. });

        // inner join column (the index's leading key)
        let key_col = index.key_columns.first().expect("well-formed index");
        let key_ci = data
            .column_index(key_col)
            .ok_or_else(|| ExecError::Eval(format!("inner key {key_col} missing")))?;
        // outer side of the pair on the index key
        let pair = pairs
            .iter()
            .find(|p| {
                p.side_for(&inner.binding).map(|c| c.column.as_str()) == Some(key_col.as_str())
            })
            .ok_or_else(|| ExecError::BadPlan("no join pair on inner index key".into()))?;
        let outer_col = pair
            .other_side(&inner.binding)
            .ok_or_else(|| ExecError::BadPlan("join pair missing outer side".into()))?;
        let opos = outer
            .position(Some(&outer_col.binding), &outer_col.column)
            .ok_or_else(|| ExecError::Eval(format!("outer key {} missing", outer_col.column)))?;

        // build the probe map once: this stands in for the B-tree
        let mut map: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(data.rows());
        for r in 0..data.rows() {
            map.entry(data.cell(r, key_ci)).or_default().push(r);
        }

        // secondary join pairs evaluated as residual equalities
        let extra_pairs: Vec<&JoinPred> = pairs.iter().filter(|p| *p != pair).collect();

        let inner_cols: Vec<ColId> =
            data.column_names().iter().map(|c| ColId::new(&inner.binding, c)).collect();
        let mut out =
            Relation::new(outer.cols.iter().cloned().chain(inner_cols.iter().cloned()).collect());

        let leaf_pages = self.index_leaf_pages(data, index);
        let total = data.rows().max(1) as f64;
        let sarg_positions: Vec<(usize, &SargOp)> = inner
            .sargs
            .iter()
            .filter_map(|s| data.column_index(&s.column.column).map(|i| (i, &s.op)))
            .collect();
        let residuals: Vec<&Expr> = self
            .bound
            .residual_exprs
            .iter()
            .filter(|(b, _)| b.as_deref() == Some(&*inner.binding))
            .map(|(_, e)| e)
            .collect();

        for orow in &outer.rows {
            let key = at(orow, opos);
            self.work.io_pages += 1.0; // descent (upper levels cached)
            let matches = map.get(key).map(Vec::as_slice).unwrap_or(&[]);
            self.work.io_pages += (leaf_pages * matches.len() as f64 / total).max(0.06);
            self.work.cpu_ops += matches.len() as f64 + 1.0;
            'inner_rows: for &ri in matches {
                for (ci, op) in &sarg_positions {
                    if !sarg_matches(op, data.cell(ri, *ci)) {
                        continue 'inner_rows;
                    }
                }
                if !covering {
                    self.work.io_pages += 1.0;
                }
                let mut row = orow.clone();
                row.extend((0..data.column_names().len()).map(|c| data.cell(ri, c).clone()));
                // secondary equi-join conditions
                for p in &extra_pairs {
                    let a = out
                        .position(Some(&p.left.binding), &p.left.column)
                        .ok_or_else(|| ExecError::Eval("extra pair column".into()))?;
                    let b = out
                        .position(Some(&p.right.binding), &p.right.column)
                        .ok_or_else(|| ExecError::Eval("extra pair column".into()))?;
                    if at(&row, a) != at(&row, b) {
                        continue 'inner_rows;
                    }
                }
                for e in &residuals {
                    if !eval_predicate(e, &out, &row)? {
                        continue 'inner_rows;
                    }
                }
                out.rows.push(row);
            }
        }
        Ok(out)
    }

    // ---- views ---------------------------------------------------------

    /// Materialize a view's content (cost-free: the view exists on disk)
    /// and charge only for scanning it.
    fn run_view_scan(
        &mut self,
        view: &MaterializedView,
        sargs: &[Sarg],
    ) -> Result<Relation, ExecError> {
        let content = self.materialize_view(view)?;

        // charge a scan of the materialized content
        let width = content.cols.len() as u64 * 8;
        let pages = pages_for(content.len() as u64, width as u32) as f64;
        self.work.io_pages += pages.max(1.0);
        self.work.cpu_ops += content.len() as f64;

        // filter by the pushed-down sargs
        let mut out = Relation::new(content.cols.clone());
        let positions: Vec<(usize, &SargOp)> = sargs
            .iter()
            .filter_map(|s| {
                content
                    .position(Some(&s.column.binding), &s.column.column)
                    .or_else(|| content.position(None, &s.column.column))
                    .map(|p| (p, &s.op))
            })
            .collect();
        'rows: for row in content.rows {
            for (p, op) in &positions {
                let cell = row.get(*p).expect("positions were resolved against this header");
                if !sarg_matches(op, cell) {
                    continue 'rows;
                }
            }
            out.rows.push(row);
        }
        self.expose_view_aggs(&mut out);
        Ok(out)
    }

    /// Append alias columns so that the statement's aggregate keys (as
    /// printed from the AST, e.g. `SUM(o_price)`) resolve against a view
    /// relation whose aggregate columns are canonically table-qualified
    /// (e.g. `SUM(orders.o_price)`).
    fn expose_view_aggs(&self, rel: &mut Relation) {
        let mut stmt_aggs: Vec<(dta_sql::AggFunc, Option<Box<Expr>>, bool)> = Vec::new();
        let mut collect = |e: &Expr| {
            dta_sql::visit::walk_expr(e, &mut |n| {
                if let Expr::Aggregate { func, distinct, arg } = n {
                    if !stmt_aggs.iter().any(|(f, a, d)| f == func && a == arg && d == distinct) {
                        stmt_aggs.push((*func, arg.clone(), *distinct));
                    }
                }
            });
        };
        for p in &self.select.projections {
            collect(&p.expr);
        }
        if let Some(h) = &self.select.having {
            collect(&h.clone());
        }
        for (func, arg, distinct) in stmt_aggs {
            let stmt_key = agg_key(func, &arg, distinct);
            if rel.cols.iter().any(|c| c.binding == "#agg" && c.column == stmt_key) {
                continue;
            }
            let canonical = stmt_agg_canonical_key(self.bound, func, &arg);
            let source =
                rel.cols.iter().position(|c| c.binding == "#agg" && c.column == canonical).or_else(
                    || {
                        (func == dta_sql::AggFunc::Count)
                            .then(|| {
                                rel.cols.iter().position(|c| {
                                    c.binding == "#agg" && c.column.starts_with("COUNT")
                                })
                            })
                            .flatten()
                    },
                );
            if let Some(src) = source {
                rel.cols.push(ColId::new("#agg", &stmt_key));
                for row in &mut rel.rows {
                    let v = at(row, src).clone();
                    row.push(v);
                }
            }
        }
    }

    /// Compute a view's rows from base data. Columns are named with the
    /// *query binding* that corresponds to each base table so downstream
    /// operators resolve references naturally; aggregate columns use the
    /// canonical `#agg` binding keyed by a table-qualified signature.
    fn materialize_view(&mut self, view: &MaterializedView) -> Result<Relation, ExecError> {
        // binding for each view table (from the query)
        let binding_of = |table: &str| -> String {
            self.bound
                .tables
                .iter()
                .find(|t| t.table == table)
                .map(|t| t.binding.clone())
                .unwrap_or_else(|| table.to_string())
        };

        // join all base tables (no work charged: the view is materialized)
        let mut joined: Option<Relation> = None;
        for t in &view.tables {
            let data = self.table_data(t)?;
            let b = binding_of(t);
            let cols: Vec<ColId> = data.column_names().iter().map(|c| ColId::new(&b, c)).collect();
            let mut rel = Relation::new(cols);
            for r in 0..data.rows() {
                rel.rows.push(
                    (0..data.column_names().len()).map(|c| data.cell(r, c).clone()).collect(),
                );
            }
            joined = Some(match joined {
                None => rel,
                Some(acc) => {
                    // find join pairs connecting acc tables to t
                    let pairs: JoinPairs = view
                        .join_pairs
                        .iter()
                        .filter_map(|jp| {
                            let lb = binding_of(&jp.left.table);
                            let rb = binding_of(&jp.right.table);
                            let l = dta_optimizer::query::BoundColumn::new(&lb, &jp.left.column);
                            let r = dta_optimizer::query::BoundColumn::new(&rb, &jp.right.column);
                            let connects = (acc.position(Some(&lb), &jp.left.column).is_some()
                                && rel.position(Some(&rb), &jp.right.column).is_some())
                                || (acc.position(Some(&rb), &jp.right.column).is_some()
                                    && rel.position(Some(&lb), &jp.left.column).is_some());
                            connects.then(|| JoinPred::new(l, r))
                        })
                        .collect();
                    let before = self.work;
                    let j = self.hash_join(acc, rel, &pairs)?;
                    self.work = before; // materialization is not query work
                    j
                }
            });
        }
        let joined = joined.ok_or_else(|| ExecError::BadPlan("view with no tables".into()))?;

        if !view.is_grouped() {
            // project to the view's column list
            let positions: Vec<usize> = view
                .projected
                .iter()
                .map(|qc| {
                    let b = binding_of(&qc.table);
                    joined
                        .position(Some(&b), &qc.column)
                        .ok_or_else(|| ExecError::Eval(format!("view column {qc} missing")))
                })
                .collect::<Result<_, _>>()?;
            let cols: Vec<ColId> = positions.iter().map(|&p| at(&joined.cols, p).clone()).collect();
            let mut out = Relation::new(cols);
            for row in &joined.rows {
                out.rows.push(positions.iter().map(|&p| at(row, p).clone()).collect());
            }
            return Ok(out);
        }

        // group and aggregate
        let group_pos: Vec<usize> = view
            .group_by
            .iter()
            .map(|qc| {
                let b = binding_of(&qc.table);
                joined
                    .position(Some(&b), &qc.column)
                    .ok_or_else(|| ExecError::Eval(format!("view group column {qc} missing")))
            })
            .collect::<Result<_, _>>()?;
        enum ViewAggInput {
            CountStar,
            Expr(Expr),
        }
        let agg_inputs: Vec<ViewAggInput> = view
            .aggregates
            .iter()
            .map(|va| match &va.arg {
                None => Ok(ViewAggInput::CountStar),
                Some(text) => {
                    let mut e = dta_sql::parse_expression(text).map_err(|err| {
                        ExecError::Eval(format!("view aggregate '{text}': {err}"))
                    })?;
                    // the canonical text is table-qualified; the joined
                    // relation's columns are binding-qualified
                    dta_sql::visit::rewrite_columns(&mut e, &mut |c| {
                        if let Some(t) = &c.table {
                            c.table = Some(binding_of(t));
                        }
                    });
                    Ok(ViewAggInput::Expr(e))
                }
            })
            .collect::<Result<_, _>>()?;

        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for row in &joined.rows {
            let key: Vec<Value> = group_pos.iter().map(|&p| at(row, p).clone()).collect();
            let accs = groups.entry(key).or_insert_with(|| {
                view.aggregates.iter().map(|va| Accumulator::new(va.func, false)).collect()
            });
            for (acc, input) in accs.iter_mut().zip(&agg_inputs) {
                match input {
                    ViewAggInput::CountStar => acc.push(None),
                    ViewAggInput::Expr(e) => {
                        let v = eval(e, &joined, row, None)?;
                        acc.push(Some(&v));
                    }
                }
            }
        }

        let mut cols: Vec<ColId> =
            view.group_by.iter().map(|qc| ColId::new(&binding_of(&qc.table), &qc.column)).collect();
        for va in &view.aggregates {
            cols.push(ColId::new("#agg", &view_agg_canonical_key(va)));
        }
        let mut out = Relation::new(cols);
        for (key, accs) in groups {
            let mut row = key;
            row.extend(accs.iter().map(Accumulator::finish));
            out.rows.push(row);
        }
        Ok(out)
    }

    // ---- aggregation ------------------------------------------------------

    fn distinct(&mut self, rel: Relation) -> Result<Relation, ExecError> {
        self.work.cpu_ops += rel.len() as f64 * 1.5;
        // DISTINCT applies to the *projected* values; keep one full input
        // row per distinct projection so final projection still works
        #[expect(clippy::disallowed_types, reason = "a membership probe, never iterated")]
        let mut seen = std::collections::HashSet::new();
        let mut out = Relation::new(rel.cols.clone());
        for row in &rel.rows {
            let key: Vec<Value> = if self.select.projections.is_empty() {
                row.clone()
            } else {
                self.select
                    .projections
                    .iter()
                    .map(|p| eval(&p.expr, &rel, row, None))
                    .collect::<Result<_, _>>()?
            };
            if seen.insert(key) {
                out.rows.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Group `rel` by the statement's GROUP BY and compute the
    /// statement's aggregates. `from_view` switches argument resolution
    /// to the view's precomputed aggregate columns (re-aggregation).
    fn aggregate(&mut self, rel: Relation, from_view: bool) -> Result<Relation, ExecError> {
        self.work.cpu_ops += rel.len() as f64 * 1.5;

        let group_pos: Vec<usize> = self
            .bound
            .group_by
            .iter()
            .map(|g| {
                rel.position(Some(&g.binding), &g.column)
                    .or_else(|| rel.position(None, &g.column))
                    .ok_or_else(|| ExecError::Eval(format!("group column {} missing", g.column)))
            })
            .collect::<Result<_, _>>()?;

        // gather the statement's aggregate occurrences (AST level so the
        // output can be matched back during projection)
        let mut stmt_aggs: Vec<(dta_sql::AggFunc, Option<Box<Expr>>, bool)> = Vec::new();
        let mut push_aggs = |e: &Expr| {
            dta_sql::visit::walk_expr(e, &mut |n| {
                if let Expr::Aggregate { func, distinct, arg } = n {
                    let key = (func, arg, distinct);
                    let _ = key;
                    if !stmt_aggs.iter().any(|(f, a, d)| f == func && a == arg && d == distinct) {
                        stmt_aggs.push((*func, arg.clone(), *distinct));
                    }
                }
            });
        };
        for p in &self.select.projections {
            push_aggs(&p.expr);
        }
        if let Some(h) = &self.select.having {
            push_aggs(h);
        }

        // resolve each aggregate's input
        enum AggInput {
            /// evaluate this expression per input row
            Expr(Option<Box<Expr>>),
            /// fold this relation column (re-aggregation from a view)
            Column(usize, bool /* sum-of-counts */),
        }
        let inputs: Vec<(dta_sql::AggFunc, bool, AggInput)> = stmt_aggs
            .iter()
            .map(|(func, arg, distinct)| {
                if from_view {
                    let key = stmt_agg_canonical_key(self.bound, *func, arg);
                    let pos = rel
                        .cols
                        .iter()
                        .position(|c| c.binding == "#agg" && c.column == key)
                        .or_else(|| {
                            // COUNT(col)/COUNT(*) fall back to the view's COUNT(*)
                            (*func == dta_sql::AggFunc::Count)
                                .then(|| {
                                    rel.cols.iter().position(|c| {
                                        c.binding == "#agg" && c.column.starts_with("COUNT")
                                    })
                                })
                                .flatten()
                        })
                        .ok_or_else(|| {
                            ExecError::Eval(format!("view lacks aggregate for {}", key))
                        })?;
                    let sum_of_counts = *func == dta_sql::AggFunc::Count;
                    Ok((*func, *distinct, AggInput::Column(pos, sum_of_counts)))
                } else {
                    Ok((*func, *distinct, AggInput::Expr(arg.clone())))
                }
            })
            .collect::<Result<_, ExecError>>()?;

        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for row in &rel.rows {
            let key: Vec<Value> = group_pos.iter().map(|&p| at(row, p).clone()).collect();
            let accs = groups.entry(key).or_insert_with(|| {
                inputs
                    .iter()
                    .map(|(func, distinct, input)| match input {
                        // re-aggregated COUNT is a SUM of partial counts
                        AggInput::Column(_, true) => Accumulator::new(dta_sql::AggFunc::Sum, false),
                        _ => Accumulator::new(*func, *distinct),
                    })
                    .collect()
            });
            for (acc, (_, _, input)) in accs.iter_mut().zip(&inputs) {
                match input {
                    AggInput::Expr(None) => acc.push(None),
                    AggInput::Expr(Some(e)) => {
                        let v = eval(e, &rel, row, None)?;
                        acc.push(Some(&v));
                    }
                    AggInput::Column(p, _) => acc.push(Some(at(row, *p))),
                }
            }
        }
        // a scalar aggregate over no rows still yields one (empty) group
        if groups.is_empty() && group_pos.is_empty() {
            groups.insert(
                Vec::new(),
                inputs
                    .iter()
                    .map(|(func, distinct, input)| match input {
                        AggInput::Column(_, true) => Accumulator::new(dta_sql::AggFunc::Sum, false),
                        _ => Accumulator::new(*func, *distinct),
                    })
                    .collect(),
            );
        }

        let mut cols: Vec<ColId> =
            self.bound.group_by.iter().map(|g| ColId::new(&g.binding, &g.column)).collect();
        for (func, arg, distinct) in &stmt_aggs {
            cols.push(ColId::new("#agg", &agg_key(*func, arg, *distinct)));
        }
        let mut out = Relation::new(cols);
        'groups: for (key, accs) in groups {
            let mut row = key;
            for acc in &accs {
                let mut v = acc.finish();
                // SUM of counts produces a float; normalize back to int
                if let Value::Float(f) = v {
                    if f.fract() == 0.0 && matches!(acc, Accumulator::Sum(..)) {
                        // keep floats for SUM; counts are handled below
                        let _ = f;
                    }
                }
                if let Value::Null = v {
                    v = Value::Null;
                }
                row.push(v);
            }
            // HAVING filter, evaluated with aggregate values available
            if let Some(h) = &self.select.having {
                let agg_map = self.agg_map(&out, &row);
                let v = eval(h, &out, &row, Some(&agg_map))
                    .map_err(|e| ExecError::Eval(format!("HAVING: {e}")))?;
                let keep = match v {
                    Value::Int(i) => i != 0,
                    Value::Float(f) => f != 0.0,
                    _ => false,
                };
                if !keep {
                    continue 'groups;
                }
            }
            out.rows.push(row);
        }
        Ok(out)
    }

    /// Map from aggregate key to value for one aggregated row.
    fn agg_map(&self, rel: &Relation, row: &[Value]) -> HashMap<String, Value> {
        rel.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.binding == "#agg")
            .map(|(i, c)| (c.column.clone(), at(row, i).clone()))
            .collect()
    }

    // ---- final projection ---------------------------------------------

    fn project(&mut self, rel: Relation) -> Result<(Vec<String>, Vec<Vec<Value>>), ExecError> {
        if self.select.projections.is_empty() {
            // SELECT *
            let columns = rel.cols.iter().map(|c| c.column.clone()).collect();
            return Ok((columns, rel.rows));
        }
        let columns: Vec<String> = self
            .select
            .projections
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.alias.clone().unwrap_or_else(|| match &p.expr {
                    Expr::Column(c) => c.column.clone(),
                    other => {
                        let _ = other;
                        format!("col{i}")
                    }
                })
            })
            .collect();
        let mut rows = Vec::with_capacity(rel.len());
        let has_aggs = self.bound.is_aggregate();
        for row in &rel.rows {
            let agg_map = if has_aggs { Some(self.agg_map(&rel, row)) } else { None };
            let mut out_row = Vec::with_capacity(self.select.projections.len());
            for p in &self.select.projections {
                out_row.push(eval(&p.expr, &rel, row, agg_map.as_ref())?);
            }
            rows.push(out_row);
        }
        self.work.cpu_ops += rows.len() as f64;
        Ok((columns, rows))
    }
}

/// Canonical key for a view aggregate: the stored table-qualified text.
fn view_agg_canonical_key(va: &dta_physical::ViewAggregate) -> String {
    match &va.arg {
        Some(text) => format!("{}({text})", va.func.name()),
        None => format!("{}(*)", va.func.name()),
    }
}

/// Canonical key for a statement aggregate in the same (table-qualified)
/// namespace, via the optimizer's canonicalization.
fn stmt_agg_canonical_key(
    bound: &BoundSelect,
    func: dta_sql::AggFunc,
    arg: &Option<Box<Expr>>,
) -> String {
    match arg {
        Some(a) => match dta_optimizer::query::canonical_agg_arg(bound, a) {
            Some((text, _)) => format!("{}({text})", func.name()),
            None => format!("{}(?)", func.name()),
        },
        None => format!("{}(*)", func.name()),
    }
}
