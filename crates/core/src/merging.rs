//! Merging (§2.2): derive structures that serve *multiple* queries from
//! the per-query candidates.
//!
//! Candidate selection optimizes one query at a time, so under a storage
//! bound or an update-heavy workload its output is over-specialized.
//! Merging adds:
//!
//! * **index merging** [8] — two indexes on the same table combine into
//!   one whose keys are the first's keys followed by the second's
//!   unclaimed keys, with the union of included columns;
//! * **view merging** [3] — views over the same join graph combine by
//!   unioning group-by columns and aggregates;
//! * **partitioned merging** [4] — merged structures inherit each
//!   parent's partitioning as variants, which is what makes merging
//!   "a lot harder with the inclusion of partitioning".

use crate::candidates::CandidatePool;
use dta_physical::{Index, IndexKind, MaterializedView, PhysicalStructure};

/// Cap on merged-index key+include width (columns) to avoid degenerate
/// kitchen-sink indexes.
pub const MAX_MERGED_COLUMNS: usize = 10;

/// Merge two non-clustered indexes on the same table.
pub fn merge_indexes(a: &Index, b: &Index) -> Option<Index> {
    if a.database != b.database || a.table != b.table {
        return None;
    }
    if a.kind != IndexKind::NonClustered || b.kind != IndexKind::NonClustered {
        return None;
    }
    // keys: a's keys, then b's keys not already present
    let mut keys: Vec<String> = a.key_columns.clone();
    for k in &b.key_columns {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    // includes: union of both includes minus keys
    let mut includes: Vec<String> = Vec::new();
    for c in a.included_columns.iter().chain(b.included_columns.iter()) {
        if !keys.contains(c) && !includes.contains(c) {
            includes.push(c.clone());
        }
    }
    if keys.len() + includes.len() > MAX_MERGED_COLUMNS {
        return None;
    }
    let merged = Index {
        database: a.database.clone(),
        table: a.table.clone(),
        kind: IndexKind::NonClustered,
        key_columns: keys,
        included_columns: includes,
        partitioning: None,
        enforces_constraint: false,
    };
    if merged == *a || merged == *b {
        return None; // nothing new
    }
    Some(merged)
}

/// Merge two views over the same join graph.
pub fn merge_views(a: &MaterializedView, b: &MaterializedView) -> Option<MaterializedView> {
    if a.database != b.database || a.tables != b.tables || a.join_pairs != b.join_pairs {
        return None;
    }
    if !a.is_grouped() || !b.is_grouped() {
        return None; // join-view merging adds no value over the wider one
    }
    let mut merged = a.clone();
    merged.group_by.extend(b.group_by.iter().cloned());
    merged.aggregates.extend(b.aggregates.iter().cloned());
    merged.partitioning = None;
    merged.normalize();
    if merged.group_by.len() > 8 {
        return None;
    }
    if merged == *a || merged == *b {
        return None;
    }
    Some(merged)
}

/// Augment a candidate pool with merged structures (one round of pairwise
/// merging, as in the paper's Merging step). Returns how many structures
/// were added.
pub fn merge_candidates(pool: &mut CandidatePool) -> usize {
    let structures = pool.structures();
    let mut added = 0;
    // add `s` unless the pool, as it grows, holds it already
    let mut add_new = |pool: &mut CandidatePool, s: PhysicalStructure| {
        if !pool.candidates.iter().any(|c| c.structure == s) {
            pool.add(s, 0.0);
            added += 1;
            true
        } else {
            false
        }
    };

    // indexes grouped by (db, table)
    for (i, sa) in structures.iter().enumerate() {
        for sb in structures.iter().skip(i + 1) {
            match (sa, sb) {
                (PhysicalStructure::Index(a), PhysicalStructure::Index(b)) => {
                    let Some(m) = merge_indexes(a, b) else { continue };
                    if add_new(pool, PhysicalStructure::Index(m.clone())) {
                        // partitioned variants from either parent
                        for p in
                            [a, b].into_iter().filter_map(|parent| parent.partitioning.as_ref())
                        {
                            add_new(
                                pool,
                                PhysicalStructure::Index(m.clone().partitioned(p.clone())),
                            );
                        }
                    }
                }
                (PhysicalStructure::View(a), PhysicalStructure::View(b)) => {
                    if let Some(m) = merge_views(a, b) {
                        add_new(pool, PhysicalStructure::View(m));
                    }
                }
                _ => {}
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_physical::{JoinPair, QualifiedColumn, RangePartitioning, ViewAggregate};
    use dta_sql::AggFunc;

    #[test]
    fn index_merge_combines_keys_and_includes() {
        let a = Index::non_clustered("db", "t", &["a"], &["x"]);
        let b = Index::non_clustered("db", "t", &["b", "a"], &["y"]);
        let m = merge_indexes(&a, &b).unwrap();
        assert_eq!(m.key_columns, vec!["a", "b"]);
        let mut incl = m.included_columns.clone();
        incl.sort();
        assert_eq!(incl, vec!["x", "y"]);
    }

    #[test]
    fn index_merge_refuses_cross_table_and_clustered() {
        let a = Index::non_clustered("db", "t", &["a"], &[]);
        let b = Index::non_clustered("db", "u", &["a"], &[]);
        assert!(merge_indexes(&a, &b).is_none());
        let c = Index::clustered("db", "t", &["a"]);
        assert!(merge_indexes(&a, &c).is_none());
    }

    #[test]
    fn index_merge_refuses_no_op() {
        let a = Index::non_clustered("db", "t", &["a", "b"], &[]);
        let b = Index::non_clustered("db", "t", &["a"], &[]);
        // merging b into a yields a again
        assert!(merge_indexes(&a, &b).is_none());
    }

    #[test]
    fn index_merge_respects_width_cap() {
        let a = Index::non_clustered("db", "t", &["a", "b", "c"], &["i1", "i2", "i3"]);
        let b = Index::non_clustered("db", "t", &["d", "e"], &["i4", "i5", "i6"]);
        assert!(merge_indexes(&a, &b).is_none());
    }

    fn view(groups: &[(&str, &str)], aggs: &[AggFunc]) -> MaterializedView {
        MaterializedView::grouped(
            "db",
            &["l", "o"],
            vec![JoinPair::new(QualifiedColumn::new("l", "lk"), QualifiedColumn::new("o", "ok"))],
            groups.iter().map(|(t, c)| QualifiedColumn::new(t, c)).collect(),
            aggs.iter()
                .map(|f| ViewAggregate::column(*f, QualifiedColumn::new("l", "price")))
                .collect(),
        )
    }

    #[test]
    fn view_merge_unions_grouping() {
        let a = view(&[("o", "date")], &[AggFunc::Sum]);
        let b = view(&[("o", "status")], &[AggFunc::Min]);
        let m = merge_views(&a, &b).unwrap();
        assert_eq!(m.group_by.len(), 2);
        assert_eq!(m.aggregates.len(), 2);
    }

    #[test]
    fn view_merge_requires_same_join_graph() {
        let a = view(&[("o", "date")], &[AggFunc::Sum]);
        let mut b = view(&[("o", "status")], &[AggFunc::Sum]);
        b.join_pairs.clear();
        assert!(merge_views(&a, &b).is_none());
    }

    /// A pool whose merges collide — with a candidate already there, with
    /// an earlier pair's merge, and with a parent — merges to exactly
    /// this pool, in this order.
    #[test]
    fn colliding_merges_give_a_pinned_pool() {
        let p = RangePartitioning::new("a", vec![dta_catalog::Value::Int(10)]);
        let ix = |keys: &[&str], incl: &[&str]| Index::non_clustered("db", "t", keys, incl);
        let mut pool = CandidatePool::default();
        for (s, benefit) in [
            (PhysicalStructure::Index(ix(&["a"], &[]).partitioned(p)), 5.0),
            (PhysicalStructure::Index(ix(&["b"], &[])), 3.0),
            (PhysicalStructure::Index(ix(&["a"], &["c"])), 2.0),
            (PhysicalStructure::Index(ix(&["b"], &["c"])), 1.0),
            (PhysicalStructure::View(view(&[("o", "date")], &[AggFunc::Sum])), 4.0),
            (PhysicalStructure::View(view(&[("o", "status")], &[AggFunc::Min])), 2.5),
            (
                PhysicalStructure::View(view(
                    &[("o", "date"), ("o", "status")],
                    &[AggFunc::Min, AggFunc::Sum],
                )),
                1.5,
            ),
        ] {
            pool.add(s, benefit);
        }
        assert_eq!(merge_candidates(&mut pool), 5);
        let got: Vec<String> = pool
            .candidates
            .iter()
            .map(|c| {
                let name = match &c.structure {
                    PhysicalStructure::View(v) => v.definition_sql(),
                    s => s.name(),
                };
                format!("{name} {} {}", c.benefit, c.selected_by)
            })
            .collect();
        let sql = "FROM l, o WHERE l.lk = o.ok GROUP BY";
        assert_eq!(
            got,
            [
                "idx_t_a_pa 5 1".to_string(),
                "idx_t_b 3 1".into(),
                "idx_t_a_incl_c 2 1".into(),
                "idx_t_b_incl_c 1 1".into(),
                format!("SELECT o.date, SUM(l.price) {sql} o.date 4 1"),
                format!("SELECT o.status, MIN(l.price) {sql} o.status 2.5 1"),
                format!(
                    "SELECT o.date, o.status, SUM(l.price), MIN(l.price) {sql} o.date, o.status 1.5 1"
                ),
                "idx_t_a_b 0 1".into(),
                "idx_t_a_b_pa 0 1".into(),
                "idx_t_a_b_incl_c 0 1".into(),
                "idx_t_a_b_incl_c_pa 0 1".into(),
                "idx_t_b_a_incl_c 0 1".into(),
            ]
        );
    }

    #[test]
    fn pool_merging_adds_and_tracks_partitioned_variants() {
        let mut pool = CandidatePool::default();
        let p = RangePartitioning::new("a", vec![dta_catalog::Value::Int(10)]);
        pool.add(
            PhysicalStructure::Index(
                Index::non_clustered("db", "t", &["a"], &[]).partitioned(p.clone()),
            ),
            5.0,
        );
        pool.add(PhysicalStructure::Index(Index::non_clustered("db", "t", &["b"], &[])), 3.0);
        let added = merge_candidates(&mut pool);
        assert!(added >= 2, "merged + partitioned variant, got {added}");
        let names: Vec<String> = pool.structures().iter().map(|s| s.name()).collect();
        assert!(names.iter().any(|n| n.contains("a_b") || n.contains("b_a")), "{names:?}");
        // one of the merged variants is partitioned on a
        assert!(
            pool.structures().iter().any(|s| matches!(s, PhysicalStructure::Index(ix)
            if ix.key_columns.len() == 2 && ix.partitioning.is_some())),
            "{names:?}"
        );
    }
}
