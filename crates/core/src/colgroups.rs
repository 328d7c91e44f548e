//! Column-group restriction (§2.2).
//!
//! The space of indexes/partitionings explodes with the number of
//! column-groups that are in principle relevant. This pre-processing step
//! mines *interesting* column-groups bottom-up in the style of frequent
//! itemsets [5]: a group is interesting only if the statements it is
//! relevant to account for at least a fraction of the total workload
//! cost, and (for multi-column groups) all of its subsets are interesting
//! too. Candidate generation then only considers interesting groups.

use dta_catalog::Catalog;
use dta_optimizer::query::{bind, BoundStatement};
use dta_workload::WorkloadItem;
use std::collections::{BTreeMap, BTreeSet};

/// Maximum column-group size considered (index keys beyond 3 columns
/// rarely pay for themselves and blow up the space).
pub const MAX_GROUP_SIZE: usize = 3;

/// The interesting column-groups of a workload.
#[derive(Debug, Clone, Default)]
pub struct ColumnGroups {
    /// `(database, table) → interesting groups`.
    groups: BTreeMap<(String, String), Vec<BTreeSet<String>>>,
}

impl ColumnGroups {
    /// Is `set` an interesting group on this table?
    pub fn is_interesting(&self, database: &str, table: &str, set: &BTreeSet<String>) -> bool {
        self.groups
            .get(&(database.to_string(), table.to_string()))
            .is_some_and(|gs| gs.contains(set))
    }

    /// All interesting groups on a table.
    pub fn for_table(&self, database: &str, table: &str) -> &[BTreeSet<String>] {
        self.groups
            .get(&(database.to_string(), table.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of groups.
    pub fn len(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// True if no groups survived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interesting single columns of a table.
    pub fn single_columns(&self, database: &str, table: &str) -> Vec<String> {
        self.for_table(database, table)
            .iter()
            .filter(|g| g.len() == 1)
            .filter_map(|g| g.iter().next().cloned())
            .collect()
    }
}

/// The per-table columns a statement makes index-relevant.
fn relevant_columns(
    catalog: &Catalog,
    item: &WorkloadItem,
) -> BTreeMap<(String, String), BTreeSet<String>> {
    let mut out: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let Ok(bound) = bind(catalog, &item.database, &item.statement) else {
        return out;
    };
    match bound {
        BoundStatement::Select(s) => {
            let note = |binding: &str, column: &str, out: &mut BTreeMap<_, BTreeSet<String>>| {
                if let Some(table) = s.table_of(binding) {
                    out.entry((item.database.clone(), table.to_string()))
                        .or_default()
                        .insert(column.to_string());
                }
            };
            for sarg in s.sargs.iter() {
                note(&sarg.column.binding, &sarg.column.column, &mut out);
            }
            for j in s.joins.iter() {
                note(&j.left.binding, &j.left.column, &mut out);
                note(&j.right.binding, &j.right.column, &mut out);
            }
            for g in s.group_by.iter() {
                note(&g.binding, &g.column, &mut out);
            }
            for (o, _) in s.order_by.iter() {
                note(&o.binding, &o.column, &mut out);
            }
        }
        BoundStatement::Dml(dml) => {
            use dta_optimizer::query::BoundDml;
            match dml {
                BoundDml::Update { database, table, filter, .. }
                | BoundDml::Delete { database, table, filter } => {
                    let entry = out.entry((database, table)).or_default();
                    for s in &filter.sargs {
                        entry.insert(s.column.column.clone());
                    }
                }
                BoundDml::Insert { .. } => {}
            }
        }
    }
    out
}

/// Mine the interesting column-groups of a workload.
///
/// `costs[i]` is the current (base-configuration) cost of item `i`;
/// groups relevant to statements whose summed weighted cost is below
/// `threshold × total` are pruned.
pub fn interesting_column_groups(
    catalog: &Catalog,
    items: &[WorkloadItem],
    costs: &[f64],
    threshold: f64,
) -> ColumnGroups {
    assert_eq!(items.len(), costs.len());
    let total: f64 = items.iter().zip(costs).map(|(i, c)| i.weight * c).sum();
    let min_cost = total * threshold.clamp(0.0, 1.0);

    // per-item relevant columns per table
    let per_item: Vec<BTreeMap<(String, String), BTreeSet<String>>> =
        items.iter().map(|i| relevant_columns(catalog, i)).collect();

    // level 1: single columns with enough cost behind them
    let mut group_cost: BTreeMap<(String, String, Vec<String>), f64> = BTreeMap::new();
    for ((item, &cost), tables) in items.iter().zip(costs).zip(&per_item) {
        let w = item.weight * cost;
        for ((db, table), cols) in tables {
            for c in cols {
                *group_cost.entry((db.clone(), table.clone(), vec![c.clone()])).or_default() += w;
            }
        }
    }
    let mut interesting: BTreeMap<(String, String), Vec<BTreeSet<String>>> = BTreeMap::new();
    let mut frontier: Vec<(String, String, BTreeSet<String>)> = Vec::new();
    for ((db, table, cols), cost) in &group_cost {
        if *cost >= min_cost {
            let set: BTreeSet<String> = cols.iter().cloned().collect();
            interesting.entry((db.clone(), table.clone())).or_default().push(set.clone());
            frontier.push((db.clone(), table.clone(), set));
        }
    }

    // levels 2..=MAX_GROUP_SIZE: extend groups by one interesting column,
    // keeping only extensions with enough cost support
    for _level in 2..=MAX_GROUP_SIZE {
        let mut next_cost: BTreeMap<(String, String, Vec<String>), f64> = BTreeMap::new();
        for ((item, &cost), tables) in items.iter().zip(costs).zip(&per_item) {
            let w = item.weight * cost;
            for ((db, table), cols) in tables {
                // extensions of frontier groups contained in this item
                for (fdb, ftable, fset) in &frontier {
                    if fdb != db || ftable != table || !fset.is_subset(cols) {
                        continue;
                    }
                    for c in cols {
                        if fset.contains(c) {
                            continue;
                        }
                        let mut ext: Vec<String> = fset.iter().cloned().collect();
                        ext.push(c.clone());
                        ext.sort();
                        *next_cost.entry((db.clone(), table.clone(), ext)).or_default() += w;
                    }
                }
            }
        }
        let mut new_frontier = Vec::new();
        for ((db, table, cols), cost) in next_cost {
            // extensions are generated once per (parent, new column); the
            // same set can arrive via different parents — dedup
            let set: BTreeSet<String> = cols.into_iter().collect();
            if cost >= min_cost * set.len() as f64 / 2.0 {
                let entry = interesting.entry((db.clone(), table.clone())).or_default();
                if !entry.contains(&set) {
                    entry.push(set.clone());
                    new_frontier.push((db, table, set));
                }
            }
        }
        if new_frontier.is_empty() {
            break;
        }
        frontier = new_frontier;
    }

    ColumnGroups { groups: interesting }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table};
    use dta_sql::parse_statement;
    use dta_workload::WorkloadItem;

    fn catalog() -> Catalog {
        let mut db = Database::new("d");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("rare", ColumnType::Int),
            ],
        ))
        .expect("fresh table");
        let mut cat = Catalog::new();
        cat.add_database(db).expect("fresh database");
        cat
    }

    fn item(sql: &str, weight: f64) -> WorkloadItem {
        WorkloadItem::weighted("d", parse_statement(sql).expect("valid SQL"), weight)
    }

    #[test]
    fn frequent_groups_survive_rare_pruned() {
        let cat = catalog();
        let items = vec![
            item("SELECT c FROM t WHERE a = 1 AND b = 2", 100.0),
            item("SELECT c FROM t WHERE a = 3", 100.0),
            item("SELECT c FROM t WHERE rare = 9", 1.0),
        ];
        let costs = vec![10.0, 10.0, 10.0];
        let groups = interesting_column_groups(&cat, &items, &costs, 0.05);
        let a: BTreeSet<String> = ["a".to_string()].into();
        let ab: BTreeSet<String> = ["a".to_string(), "b".to_string()].into();
        let rare: BTreeSet<String> = ["rare".to_string()].into();
        assert!(groups.is_interesting("d", "t", &a));
        assert!(groups.is_interesting("d", "t", &ab));
        assert!(!groups.is_interesting("d", "t", &rare), "rare column pruned");
    }

    #[test]
    fn group_by_and_join_columns_count() {
        let mut cat = catalog();
        let mut db2 = Database::new("d2");
        db2.add_table(Table::new(
            "u",
            vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Int)],
        ))
        .expect("fresh table");
        // second table in same db instead
        let _ = db2;
        let mut db = Database::new("dd");
        db.add_table(Table::new(
            "t",
            vec![Column::new("a", ColumnType::Int), Column::new("k", ColumnType::Int)],
        ))
        .expect("fresh table");
        db.add_table(Table::new(
            "u",
            vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Int)],
        ))
        .expect("fresh table");
        cat.add_database(db).expect("fresh database");
        let items = vec![WorkloadItem::new(
            "dd",
            parse_statement("SELECT v FROM t, u WHERE t.k = u.k GROUP BY v").expect("valid SQL"),
        )];
        let groups = interesting_column_groups(&cat, &items, &[10.0], 0.01);
        let k: BTreeSet<String> = ["k".to_string()].into();
        let v: BTreeSet<String> = ["v".to_string()].into();
        assert!(groups.is_interesting("dd", "t", &k));
        assert!(groups.is_interesting("dd", "u", &k));
        assert!(groups.is_interesting("dd", "u", &v));
    }

    #[test]
    fn dml_filter_columns_count() {
        let cat = catalog();
        let items = vec![item("UPDATE t SET c = 1 WHERE b = 2", 50.0)];
        let groups = interesting_column_groups(&cat, &items, &[5.0], 0.01);
        let b: BTreeSet<String> = ["b".to_string()].into();
        assert!(groups.is_interesting("d", "t", &b));
        // assignment targets are not index-relevant
        let c: BTreeSet<String> = ["c".to_string()].into();
        assert!(!groups.is_interesting("d", "t", &c));
    }

    #[test]
    fn empty_workload() {
        let cat = catalog();
        let groups = interesting_column_groups(&cat, &[], &[], 0.1);
        assert!(groups.is_empty());
    }

    #[test]
    fn single_columns_listing() {
        let cat = catalog();
        let items = vec![item("SELECT c FROM t WHERE a = 1 AND b < 5", 10.0)];
        let groups = interesting_column_groups(&cat, &items, &[10.0], 0.01);
        let mut singles = groups.single_columns("d", "t");
        singles.sort();
        assert_eq!(singles, vec!["a", "b"]);
    }
}
