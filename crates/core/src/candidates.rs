//! Candidate Selection (§2.2): per-query candidate generation plus
//! Greedy(m, k) selection of the best configuration *for each query*.
//!
//! A structure that belongs to some query's best configuration becomes a
//! *candidate* for the whole workload. Generation is restricted to
//! interesting column-groups, and all costing goes through the what-if
//! interface.

use crate::colgroups::ColumnGroups;
use crate::control::{SessionControl, StopReason};
use crate::cost::CostEvaluator;
use crate::greedy::{greedy_mk, strided};
use crate::obs::NOOP;
use crate::options::TuningOptions;
use crate::overlay::{Indexed, Overlay};
use dta_catalog::Value;
use dta_optimizer::query::{bind, BoundSelect, BoundStatement, SargOp};
use dta_physical::{
    Configuration, Index, JoinPair, MaterializedView, PhysicalStructure, QualifiedColumn,
    RangePartitioning, StructureHandle, ViewAggregate,
};
use dta_server::{Server, TuningTarget};
use dta_workload::WorkloadItem;
use std::collections::{BTreeMap, BTreeSet};
use std::iter::StepBy;
use std::ops::Range;

/// Default number of range partitions for generated partitioning schemes.
pub const DEFAULT_PARTITIONS: usize = 12;

/// A candidate structure with bookkeeping from candidate selection.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub structure: PhysicalStructure,
    /// Summed per-query benefit (base cost − selected cost, apportioned).
    pub benefit: f64,
    /// How many queries selected it.
    pub selected_by: usize,
}

/// The output of candidate selection.
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    pub candidates: Vec<Candidate>,
    /// Structures generated across all queries (pre-selection).
    pub generated: usize,
    /// Greedy evaluations performed.
    pub evaluations: usize,
}

impl CandidatePool {
    /// Add a selected structure, merging duplicates.
    pub fn add(&mut self, structure: PhysicalStructure, benefit: f64) {
        if let Some(c) = self.candidates.iter_mut().find(|c| c.structure == structure) {
            c.benefit += benefit;
            c.selected_by += 1;
        } else {
            self.candidates.push(Candidate { structure, benefit, selected_by: 1 });
        }
    }

    /// Just the structures.
    pub fn structures(&self) -> Vec<PhysicalStructure> {
        self.candidates.iter().map(|c| c.structure.clone()).collect()
    }
}

/// Derive `n`-way range-partitioning boundaries for a column from its
/// histogram (if the server has one).
pub fn partition_boundaries(
    server: &Server,
    database: &str,
    table: &str,
    column: &str,
    n: usize,
) -> Option<Vec<Value>> {
    server.with_statistics(|stats| {
        let h = stats.histogram(database, table, column)?;
        if h.is_empty() || h.bucket_count() < 2 {
            return None;
        }
        let want = n.saturating_sub(1).max(1);
        let mut out: Vec<Value> = Vec::with_capacity(want);
        for i in 1..=want {
            if let Some(b) = h.quantile(i as f64 / (want + 1) as f64) {
                out.push(b.clone());
            }
        }
        out.sort();
        out.dedup();
        // drop a boundary equal to the max (it would create an empty tail)
        if let Some(max) = h.max_value() {
            out.retain(|b| b < max);
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    })
}

/// Everything generated for one query.
pub fn generate_for_item(
    target: &TuningTarget<'_>,
    groups: &ColumnGroups,
    options: &TuningOptions,
    item: &WorkloadItem,
) -> Vec<PhysicalStructure> {
    let catalog = target.catalog();
    let Ok(bound) = bind(catalog, &item.database, &item.statement) else {
        return Vec::new();
    };
    let mut out: Vec<PhysicalStructure> = Vec::new();
    match &bound {
        BoundStatement::Select(sel) => {
            generate_for_select(target, groups, options, &item.database, sel, &mut out)
        }
        BoundStatement::Dml(dml) => {
            use dta_optimizer::query::BoundDml;
            if let BoundDml::Update { database, table, filter, .. }
            | BoundDml::Delete { database, table, filter } = dml
            {
                if options.features.indexes {
                    for s in &filter.sargs {
                        let set: BTreeSet<String> = [s.column.column.clone()].into();
                        if groups.is_interesting(database, table, &set) {
                            push_unique(
                                &mut out,
                                PhysicalStructure::Index(Index::non_clustered(
                                    database,
                                    table,
                                    &[s.column.column.as_str()],
                                    &[],
                                )),
                            );
                        }
                    }
                }
            }
        }
    }
    out.truncate(options.max_candidates_per_query);
    out
}

fn push_unique(out: &mut Vec<PhysicalStructure>, s: PhysicalStructure) {
    if !out.contains(&s) {
        out.push(s);
    }
}

fn generate_for_select(
    target: &TuningTarget<'_>,
    groups: &ColumnGroups,
    options: &TuningOptions,
    database: &str,
    sel: &BoundSelect,
    out: &mut Vec<PhysicalStructure>,
) {
    let features = options.features;
    // per binding analysis
    for bt in &sel.tables {
        let table = bt.table.as_str();
        let binding = bt.binding.as_str();
        let interesting = |cols: &[&str]| -> bool {
            let set: BTreeSet<String> = cols.iter().map(|c| c.to_string()).collect();
            groups.is_interesting(database, table, &set)
        };

        let sargs = sel.sargs_for(binding);
        let eq_cols: Vec<&str> = sargs
            .iter()
            .filter(|s| matches!(s.op, SargOp::Eq(_) | SargOp::In(_)))
            .map(|s| s.column.column.as_str())
            .collect();
        let range_cols: Vec<&str> = sargs
            .iter()
            .filter(|s| matches!(s.op, SargOp::Range { .. } | SargOp::LikePrefix(_)))
            .map(|s| s.column.column.as_str())
            .collect();
        let group_cols: Vec<&str> = sel
            .group_by
            .iter()
            .filter(|g| g.binding == binding)
            .map(|g| g.column.as_str())
            .collect();
        let order_cols: Vec<&str> = sel
            .order_by
            .iter()
            .filter(|(o, _)| o.binding == binding)
            .map(|(o, _)| o.column.as_str())
            .collect();
        let join_cols: Vec<&str> = sel
            .joins
            .iter()
            .filter_map(|j| j.side_for(binding).map(|c| c.column.as_str()))
            .collect();
        let referenced = sel.referenced_for(binding);

        // key sequences worth trying
        let mut key_seqs: Vec<Vec<&'_ str>> = Vec::new();
        fn push_seq_impl<'x>(
            seq: Vec<&'x str>,
            key_seqs: &mut Vec<Vec<&'x str>>,
            interesting: &dyn Fn(&[&str]) -> bool,
        ) {
            if seq.is_empty() || seq.len() > 3 {
                return;
            }
            let mut dedup = Vec::new();
            for c in seq {
                if !dedup.contains(&c) {
                    dedup.push(c);
                }
            }
            if interesting(&dedup) && !key_seqs.contains(&dedup) {
                key_seqs.push(dedup);
            }
        }
        for &c in eq_cols.iter().chain(&range_cols) {
            push_seq_impl(vec![c], &mut key_seqs, &interesting);
        }
        for &e in &eq_cols {
            for &r in range_cols.iter().chain(&group_cols) {
                if e != r {
                    push_seq_impl(vec![e, r], &mut key_seqs, &interesting);
                }
            }
        }
        if !group_cols.is_empty() {
            push_seq_impl(group_cols.clone(), &mut key_seqs, &interesting);
            // sargable prefix then grouping
            if let Some(&e) = eq_cols.first() {
                let mut seq = vec![e];
                seq.extend(group_cols.iter().copied());
                seq.truncate(3);
                push_seq_impl(seq, &mut key_seqs, &interesting);
            }
            if let Some(&r) = range_cols.first() {
                let mut seq = vec![r];
                seq.extend(group_cols.iter().copied());
                seq.truncate(3);
                push_seq_impl(seq, &mut key_seqs, &interesting);
            }
        }
        if !order_cols.is_empty() {
            push_seq_impl(order_cols.clone(), &mut key_seqs, &interesting);
        }
        for &j in &join_cols {
            push_seq_impl(vec![j], &mut key_seqs, &interesting);
        }

        if features.indexes {
            for seq in &key_seqs {
                push_unique(
                    out,
                    PhysicalStructure::Index(Index::non_clustered(database, table, seq, &[])),
                );
                // covering variant
                let includes: Vec<&str> =
                    referenced.iter().map(String::as_str).filter(|c| !seq.contains(c)).collect();
                if !includes.is_empty() && includes.len() <= 8 {
                    push_unique(
                        out,
                        PhysicalStructure::Index(Index::non_clustered(
                            database, table, seq, &includes,
                        )),
                    );
                }
            }
            // a clustered candidate on the dominant range/group column
            if let Some(&c) = range_cols.first().or_else(|| group_cols.first()) {
                if interesting(&[c]) {
                    push_unique(
                        out,
                        PhysicalStructure::Index(Index::clustered(database, table, &[c])),
                    );
                }
            }
        }

        if features.partitioning {
            for &c in range_cols.iter().chain(&group_cols).chain(&join_cols) {
                if !interesting(&[c]) {
                    continue;
                }
                if let Some(boundaries) = partition_boundaries(
                    target.whatif_server(),
                    database,
                    table,
                    c,
                    DEFAULT_PARTITIONS,
                ) {
                    push_unique(
                        out,
                        PhysicalStructure::TablePartitioning {
                            database: database.to_string(),
                            table: table.to_string(),
                            scheme: RangePartitioning::new(c, boundaries),
                        },
                    );
                }
            }
        }
    }

    // view candidate: the whole query's join + grouping, when clean
    if features.views && sel.residuals.is_empty() && sel.cross_residuals == 0 {
        if let Some(view) = view_candidate(sel) {
            if view.is_well_formed() {
                push_unique(out, PhysicalStructure::View(view));
            }
        }
    }
}

/// Build the exact-match view for a select, if representable.
fn view_candidate(sel: &BoundSelect) -> Option<MaterializedView> {
    // binding → table must be unique (no self joins)
    let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
    for t in &sel.tables {
        if seen.insert(t.table.as_str(), ()).is_some() {
            return None;
        }
    }
    let qc = |binding: &str, column: &str| -> Option<QualifiedColumn> {
        sel.table_of(binding).map(|t| QualifiedColumn::new(t, column))
    };
    let tables: Vec<&str> = sel.tables.iter().map(|t| t.table.as_str()).collect();
    let mut join_pairs = Vec::new();
    for j in sel.joins.iter() {
        join_pairs.push(JoinPair::new(
            qc(&j.left.binding, &j.left.column)?,
            qc(&j.right.binding, &j.right.column)?,
        ));
    }

    if sel.is_aggregate() {
        // group by the query's grouping plus every filtered column, so the
        // view can be filtered at query time
        let mut group_by: Vec<QualifiedColumn> = Vec::new();
        for g in sel.group_by.iter() {
            group_by.push(qc(&g.binding, &g.column)?);
        }
        for s in sel.sargs.iter() {
            group_by.push(qc(&s.column.binding, &s.column.column)?);
        }
        group_by.sort();
        group_by.dedup();
        if group_by.len() > 6 {
            return None; // too fine-grained to be worth materializing
        }
        let mut aggregates = vec![ViewAggregate::count_star()];
        for a in &sel.aggregates {
            if a.distinct {
                return None;
            }
            match &a.arg_expr {
                Some(e) => {
                    // canonical table-qualified argument text; views cannot
                    // capture what cannot be canonicalized
                    let (text, cols) = dta_optimizer::query::canonical_agg_arg(sel, e)?;
                    let arg_columns = cols
                        .iter()
                        .map(|bc| qc(&bc.binding, &bc.column))
                        .collect::<Option<Vec<_>>>()?;
                    aggregates.push(ViewAggregate::expr(a.func, text, arg_columns));
                }
                None => aggregates.push(ViewAggregate::count_star()),
            }
        }
        Some(MaterializedView::grouped(&sel.database, &tables, join_pairs, group_by, aggregates))
    } else if tables.len() >= 2 {
        // join view projecting everything the query touches
        let mut projected = Vec::new();
        for (binding, cols) in &sel.referenced {
            for c in cols {
                projected.push(qc(binding, c)?);
            }
        }
        if projected.len() > 10 {
            return None;
        }
        Some(MaterializedView::join_view(&sel.database, &tables, join_pairs, projected))
    } else {
        None
    }
}

/// What per-query selection decided for one workload item. Public so a
/// [`crate::SessionCheckpoint`] can persist the completed prefix and a
/// resumed session can replay it verbatim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemSelection {
    /// Structures generated for the item (pre-selection).
    pub generated: usize,
    /// Greedy evaluations the item's selection performed.
    pub evaluations: usize,
    /// The item's best configuration — its candidate contributions.
    pub chosen: Vec<PhysicalStructure>,
    /// Benefit apportioned to each chosen structure.
    pub benefit: f64,
}

/// Items per budget block: the budget is charged (and checked) serially
/// at block boundaries, so a given budget cuts selection at the same
/// item at any worker count.
pub const SELECTION_BLOCK: usize = 8;

/// Run candidate selection over all items, costing through the shared
/// session-wide evaluator.
///
/// Items are processed in [`SELECTION_BLOCK`]-sized blocks. Within a
/// block the per-item work fans out over `options.parallel_workers`
/// threads (every thread prices through the same shared cache); at each
/// block boundary the block's work — one unit per item plus its greedy
/// evaluations, all deterministic — is charged against `control`'s
/// budget serially. Interruption therefore only happens between blocks,
/// and the same budget cuts at the same item regardless of thread count.
/// Nothing here catches a panic: a what-if call that panics is re-issued
/// where it is made (`CostEvaluator::call`), and any other reaches the
/// caller.
///
/// `done` is the completed prefix — empty for a fresh run, a resumed
/// session's otherwise — and is extended in place, a block at a time, so
/// that a caller can take back a failed run's items by truncating it.
/// Returns `Some` when the budget or a cancellation cut the stage short.
/// Per-item outcomes are collected and assembled in workload order
/// afterwards, so per-structure benefits accumulate in exactly the serial
/// order — floating-point sums (and hence everything downstream that
/// sorts on them) are bit-identical at any worker count.
pub fn select_candidates(
    eval: &CostEvaluator<'_>,
    base: &Configuration,
    groups: &ColumnGroups,
    options: &TuningOptions,
    control: &SessionControl,
    done: &mut Vec<ItemSelection>,
) -> Option<StopReason> {
    let items = eval.items();
    done.truncate(items.len());
    let workers = options.parallel_workers.max(1);
    let base = &Indexed::new(base, None);
    while done.len() < items.len() {
        if let Some(reason) = control.stop() {
            return Some(reason);
        }
        let start = done.len();
        let end = (start + SELECTION_BLOCK).min(items.len());
        let select = |js: StepBy<Range<usize>>| -> Vec<(usize, ItemSelection)> {
            js.map(|j| (j, select_item(eval, start + j, base, groups, options, control))).collect()
        };
        let mut block: Vec<_> =
            strided(end - start, workers, &select).into_iter().flatten().collect();
        // back in workload order, whichever worker took each item
        block.sort_by_key(|&(j, _)| j);
        // serial coordination point: charge the block's (deterministic)
        // work — one unit per item plus its greedy evaluations
        let units: u64 = block.iter().map(|(_, s)| 1 + s.evaluations as u64).sum();
        control.charge(units);
        done.extend(block.into_iter().map(|(_, sel)| sel));
    }
    None
}

/// Assemble per-item selections into a [`CandidatePool`], in workload
/// order (deterministic regardless of which thread produced each item).
pub fn assemble_pool(selections: &[ItemSelection]) -> CandidatePool {
    let mut pool = CandidatePool::default();
    for sel in selections {
        pool.generated += sel.generated;
        pool.evaluations += sel.evaluations;
        for s in &sel.chosen {
            pool.add(s.clone(), sel.benefit);
        }
    }
    pool
}

fn select_item(
    eval: &CostEvaluator<'_>,
    i: usize,
    base: &Indexed,
    groups: &ColumnGroups,
    options: &TuningOptions,
    control: &SessionControl,
) -> ItemSelection {
    let mut sel = ItemSelection::default();
    let Some(item) = eval.items().get(i) else { return sel };
    let generated = generate_for_item(eval.target(), groups, options, item);
    sel.generated = generated.len();
    if generated.is_empty() {
        return sel;
    }
    // the statement's own search starts: a derived cost reads what it
    // priced before its latest serial point
    eval.item_serial_point(i, 0);
    let Ok(base_cost) = eval.price(i, &Overlay::of(base)) else { return sel };
    // wrapped once: every evaluation below shares these, and overlays the
    // indexed base instead of copying it
    let pool: Vec<StructureHandle> = generated.into_iter().map(StructureHandle::new).collect();
    // it prices every set, whatever the ceiling
    let eval_fn = |set: &[&StructureHandle], _: Option<f64>| -> Option<f64> {
        eval.price(i, &Overlay::union(base, set)).ok()
    };
    // each item's greedy search runs serially (workers = 1); the
    // session-level fan-out is across the block's items. The budget is
    // charged at block boundaries, so the search runs under a detached
    // control: mid-item the only stop is a cancel, and an item cut short
    // by one keeps its best-so-far selection.
    let outcome = greedy_mk(
        &pool,
        base_cost,
        options.greedy_m,
        options.greedy_k,
        1,
        &eval_fn,
        &|point| eval.item_serial_point(i, point.ordinal()),
        &control.detached(),
        None,
        &NOOP,
    )
    .outcome;
    sel.evaluations = outcome.evaluations;
    if !outcome.chosen.is_empty() {
        sel.benefit =
            (base_cost - outcome.cost).max(0.0) * item.weight / outcome.chosen.len() as f64;
        sel.chosen = outcome.chosen.iter().map(|h| h.structure().clone()).collect();
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colgroups::interesting_column_groups;
    use dta_catalog::{Column, ColumnType, Database, Table};
    use dta_sql::parse_statement;
    use dta_stats::StatKey;

    fn server() -> Server {
        let mut s = Server::new("s");
        let mut db = Database::new("d");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
                Column::new("g", ColumnType::Int),
                Column::new("pad", ColumnType::Str(60)),
            ],
        ))
        .expect("fresh table");
        db.add_table(Table::new(
            "u",
            vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Int)],
        ))
        .expect("fresh table");
        s.create_database(db).expect("fresh database");
        for i in 0..20_000i64 {
            s.table_data_mut("d", "t").expect("table exists").push_row(vec![
                Value::Int(i % 500),
                Value::Int(i),
                Value::Int(i % 10),
                Value::Str(format!("pad{i:057}")),
            ]);
        }
        for i in 0..2_000i64 {
            s.table_data_mut("d", "u")
                .expect("table exists")
                .push_row(vec![Value::Int(i % 500), Value::Int(i)]);
        }
        s
    }

    fn items() -> Vec<WorkloadItem> {
        [
            "SELECT pad FROM t WHERE a = 7",
            "SELECT g, COUNT(*) FROM t WHERE a BETWEEN 5 AND 50 GROUP BY g",
            "SELECT v FROM t, u WHERE t.a = u.k AND b < 100",
        ]
        .iter()
        .map(|sql| WorkloadItem::new("d", parse_statement(sql).expect("valid SQL")))
        .collect()
    }

    fn groups_for(server: &Server, items: &[WorkloadItem]) -> ColumnGroups {
        let costs = vec![100.0; items.len()];
        interesting_column_groups(server.catalog(), items, &costs, 0.01)
    }

    /// Selection run to completion from an empty configuration, assembled.
    fn select_all(
        eval: &CostEvaluator<'_>,
        groups: &ColumnGroups,
        options: &TuningOptions,
    ) -> CandidatePool {
        let mut done = Vec::new();
        let cut = select_candidates(
            eval,
            &Configuration::new(),
            groups,
            options,
            &SessionControl::unlimited(),
            &mut done,
        );
        assert_eq!(cut, None);
        assemble_pool(&done)
    }

    #[test]
    fn generation_produces_relevant_structures() {
        let s = server();
        s.create_statistics(&[StatKey::new("d", "t", &["a"])]);
        let target = TuningTarget::Single(&s);
        let its = items();
        let groups = groups_for(&s, &its);
        let opts = TuningOptions::default();

        let g0 = generate_for_item(&target, &groups, &opts, &its[0]);
        assert!(
            g0.iter()
                .any(|st| matches!(st, PhysicalStructure::Index(ix) if ix.key_columns == ["a"])),
            "{g0:?}"
        );
        // covering variant includes pad
        assert!(g0.iter().any(|st| matches!(st, PhysicalStructure::Index(ix)
            if ix.key_columns == ["a"] && ix.included_columns.contains(&"pad".to_string()))));

        let g1 = generate_for_item(&target, &groups, &opts, &its[1]);
        assert!(
            g1.iter().any(|st| matches!(st, PhysicalStructure::View(_))),
            "aggregate query should yield a view candidate: {g1:?}"
        );
        assert!(
            g1.iter().any(|st| matches!(st, PhysicalStructure::TablePartitioning { .. })),
            "range predicate should yield partitioning (stats exist): {g1:?}"
        );
        assert!(g1.iter().any(|st| matches!(st, PhysicalStructure::Index(ix)
            if ix.kind == dta_physical::IndexKind::Clustered)));

        let g2 = generate_for_item(&target, &groups, &opts, &its[2]);
        assert!(g2.iter().any(|st| matches!(st, PhysicalStructure::Index(ix)
            if ix.table == "u" && ix.key_columns == ["k"])));
    }

    #[test]
    fn feature_set_respected() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let its = items();
        let groups = groups_for(&s, &its);
        let opts = TuningOptions::default().with_features(crate::FeatureSet::indexes_only());
        for it in &its {
            for st in generate_for_item(&target, &groups, &opts, it) {
                assert!(matches!(st, PhysicalStructure::Index(_)), "{st:?}");
            }
        }
    }

    #[test]
    fn selection_picks_beneficial_structures() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let its = items();
        let groups = groups_for(&s, &its);
        let opts = TuningOptions { parallel_workers: 1, ..Default::default() };
        let eval = CostEvaluator::new(&target, &its);
        let pool = select_all(&eval, &groups, &opts);
        assert!(!pool.candidates.is_empty());
        assert!(pool.evaluations > 0);
        for c in &pool.candidates {
            assert!(c.benefit >= 0.0);
            assert!(c.selected_by >= 1);
        }
        // the point query's index should be among the winners
        assert!(pool.candidates.iter().any(
            |c| matches!(&c.structure, PhysicalStructure::Index(ix) if ix.key_columns[0] == "a")
        ));
    }

    #[test]
    fn parallel_selection_matches_serial_structures() {
        let s = server();
        let target = TuningTarget::Single(&s);
        // enough items to trigger the parallel path
        let mut its = Vec::new();
        for _ in 0..4 {
            its.extend(items());
        }
        let groups = groups_for(&s, &its);
        let eval_serial = CostEvaluator::new(&target, &its);
        let serial = select_all(
            &eval_serial,
            &groups,
            &TuningOptions { parallel_workers: 1, ..Default::default() },
        );
        let eval_parallel = CostEvaluator::new(&target, &its);
        let parallel = select_all(
            &eval_parallel,
            &groups,
            &TuningOptions { parallel_workers: 4, ..Default::default() },
        );
        // not just the same structures: the same order, benefits (to the
        // bit), selection counts, and cache-miss counts
        assert_eq!(serial.candidates.len(), parallel.candidates.len());
        for (a, b) in serial.candidates.iter().zip(&parallel.candidates) {
            assert_eq!(a.structure, b.structure);
            assert_eq!(a.benefit.to_bits(), b.benefit.to_bits(), "{}", a.structure.name());
            assert_eq!(a.selected_by, b.selected_by);
        }
        assert_eq!(serial.generated, parallel.generated);
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(eval_serial.whatif_calls(), eval_parallel.whatif_calls());
    }

    #[test]
    fn budgeted_selection_cuts_deterministically_and_resumes() {
        let s = server();
        let target = TuningTarget::Single(&s);
        // several blocks' worth of items
        let mut its = Vec::new();
        for _ in 0..6 {
            its.extend(items());
        }
        let groups = groups_for(&s, &its);
        let base = Configuration::new();

        // the uninterrupted run, and the total work it charges
        let eval = CostEvaluator::new(&target, &its);
        let unlimited = SessionControl::unlimited();
        let opts1 = TuningOptions { parallel_workers: 1, ..Default::default() };
        let mut full = Vec::new();
        let interrupted = select_candidates(&eval, &base, &groups, &opts1, &unlimited, &mut full);
        assert!(interrupted.is_none());
        let total = unlimited.consumed();
        assert!(total > 0);

        // a mid-stage budget cuts at a block boundary — at the same item
        // and with the same ledger at any worker count
        let cut_at = |workers: usize| {
            let eval = CostEvaluator::new(&target, &its);
            let control = SessionControl::with_budget(total / 2);
            let opts = TuningOptions { parallel_workers: workers, ..Default::default() };
            let mut done = Vec::new();
            let interrupted = select_candidates(&eval, &base, &groups, &opts, &control, &mut done);
            assert_eq!(interrupted, Some(StopReason::BudgetExhausted));
            (done, control.consumed())
        };
        let (serial, consumed_serial) = cut_at(1);
        let (parallel, consumed_parallel) = cut_at(4);
        assert_eq!(serial, parallel);
        assert_eq!(consumed_serial, consumed_parallel);
        assert!(serial.len() < its.len(), "the cut is mid-stage");
        assert_eq!(serial.len() % SELECTION_BLOCK, 0, "cuts on block boundaries");

        // resuming the prefix with fresh budget reproduces the full run
        let eval = CostEvaluator::new(&target, &its);
        let control =
            SessionControl::resumed(consumed_serial, None).expect("unbudgeted resume is valid");
        let opts4 = TuningOptions { parallel_workers: 4, ..Default::default() };
        let mut resumed = serial.clone();
        let interrupted = select_candidates(&eval, &base, &groups, &opts4, &control, &mut resumed);
        assert!(interrupted.is_none());
        assert_eq!(resumed, full);
        assert_eq!(control.consumed(), total, "the resumed ledger lands on the same total");

        // assembly is a pure fold: identical pools either way
        let a = assemble_pool(&full);
        let b = assemble_pool(&resumed);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.structure, y.structure);
            assert_eq!(x.benefit.to_bits(), y.benefit.to_bits());
        }
    }

    #[test]
    fn zero_budget_selects_nothing_but_does_not_fail() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let its = items();
        let groups = groups_for(&s, &its);
        let eval = CostEvaluator::new(&target, &its);
        let control = SessionControl::with_budget(0);
        let mut done = Vec::new();
        let interrupted = select_candidates(
            &eval,
            &Configuration::new(),
            &groups,
            &TuningOptions::default(),
            &control,
            &mut done,
        );
        assert_eq!(interrupted, Some(StopReason::BudgetExhausted));
        assert!(done.is_empty());
        assert_eq!(eval.whatif_calls(), 0, "no budget, no server work");
    }

    #[test]
    fn update_statements_yield_locator_indexes() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let item = WorkloadItem::new(
            "d",
            parse_statement("UPDATE t SET g = 1 WHERE b = 55").expect("valid SQL"),
        );
        let groups = groups_for(&s, std::slice::from_ref(&item));
        let gs = generate_for_item(&target, &groups, &TuningOptions::default(), &item);
        assert!(gs
            .iter()
            .any(|st| matches!(st, PhysicalStructure::Index(ix) if ix.key_columns == ["b"])));
    }
}
