//! Indexes: clustered, non-clustered, covering, optionally partitioned.

use crate::partitioning::RangePartitioning;

/// Whether an index is the table's clustering order or a secondary
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The table's rows are stored in key order; at most one per table;
    /// occupies no storage beyond the base data.
    Clustered,
    /// A separate B-tree of (key columns, included columns, row locator).
    NonClustered,
}

/// An index on a base table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Index {
    pub database: String,
    pub table: String,
    pub kind: IndexKind,
    /// Key columns in order; seeks use a leading prefix of these.
    pub key_columns: Vec<String>,
    /// Non-key columns carried in the leaf level (covering payload).
    /// Always empty for clustered indexes, which carry every column.
    pub included_columns: Vec<String>,
    /// Range partitioning of the index, if any.
    pub partitioning: Option<RangePartitioning>,
    /// Whether the index enforces a uniqueness/RI constraint — such
    /// indexes survive in the "raw" configuration and are never dropped.
    pub enforces_constraint: bool,
}

impl Index {
    /// A clustered index.
    pub fn clustered(database: &str, table: &str, keys: &[&str]) -> Self {
        Self {
            database: database.to_ascii_lowercase(),
            table: table.to_ascii_lowercase(),
            kind: IndexKind::Clustered,
            key_columns: keys.iter().map(|c| c.to_ascii_lowercase()).collect(),
            included_columns: Vec::new(),
            partitioning: None,
            enforces_constraint: false,
        }
    }

    /// A non-clustered index with optional included columns.
    pub fn non_clustered(database: &str, table: &str, keys: &[&str], included: &[&str]) -> Self {
        Self {
            database: database.to_ascii_lowercase(),
            table: table.to_ascii_lowercase(),
            kind: IndexKind::NonClustered,
            key_columns: keys.iter().map(|c| c.to_ascii_lowercase()).collect(),
            included_columns: included.iter().map(|c| c.to_ascii_lowercase()).collect(),
            partitioning: None,
            enforces_constraint: false,
        }
    }

    /// Builder-style: attach partitioning.
    pub fn partitioned(mut self, scheme: RangePartitioning) -> Self {
        self.partitioning = Some(scheme);
        self
    }

    /// Builder-style: mark as constraint-enforcing.
    pub fn constraint(mut self) -> Self {
        self.enforces_constraint = true;
        self
    }

    /// All columns materialized at the leaf (keys then includes).
    pub fn leaf_columns(&self) -> impl Iterator<Item = &String> {
        self.key_columns.iter().chain(self.included_columns.iter())
    }

    /// True if the index's leaf level contains every column in `needed`
    /// (i.e. the index *covers* a query touching only those columns).
    /// Clustered indexes cover everything.
    pub fn covers(&self, needed: &[String]) -> bool {
        if self.kind == IndexKind::Clustered {
            return true;
        }
        needed.iter().all(|n| self.leaf_columns().any(|c| c == n))
    }

    /// Length of the longest prefix of the key columns found (as a set
    /// prefix) among `sargable`: how many leading keys a seek can use.
    pub fn seekable_prefix_len(&self, sargable: &[String]) -> usize {
        self.key_columns.iter().take_while(|k| sargable.iter().any(|s| s == *k)).count()
    }

    /// Descriptive, deterministic name.
    pub fn name(&self) -> String {
        let kind = match self.kind {
            IndexKind::Clustered => "cidx",
            IndexKind::NonClustered => "idx",
        };
        let mut n = format!("{kind}_{}_{}", self.table, self.key_columns.join("_"));
        if !self.included_columns.is_empty() {
            n.push_str("_incl_");
            n.push_str(&self.included_columns.join("_"));
        }
        if let Some(p) = &self.partitioning {
            n.push_str(&format!("_p{}", p.column));
        }
        n
    }

    /// Structural validity: non-empty distinct keys, includes disjoint
    /// from keys, clustered indexes carry no includes.
    pub fn is_well_formed(&self) -> bool {
        if self.key_columns.is_empty() {
            return false;
        }
        #[expect(clippy::disallowed_types, reason = "a membership probe, never iterated")]
        let mut seen = std::collections::HashSet::new();
        for k in &self.key_columns {
            if !seen.insert(k) {
                return false;
            }
        }
        for i in &self.included_columns {
            if !seen.insert(i) {
                return false;
            }
        }
        if self.kind == IndexKind::Clustered && !self.included_columns.is_empty() {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::Value;

    #[test]
    fn covering() {
        let idx = Index::non_clustered("db", "t", &["x"], &["a"]);
        assert!(idx.covers(&["x".into(), "a".into()]));
        assert!(!idx.covers(&["x".into(), "b".into()]));
        let cidx = Index::clustered("db", "t", &["x"]);
        assert!(cidx.covers(&["anything".into()]));
    }

    #[test]
    fn seekable_prefix() {
        let idx = Index::non_clustered("db", "t", &["a", "b", "c"], &[]);
        assert_eq!(idx.seekable_prefix_len(&["a".into(), "b".into()]), 2);
        assert_eq!(idx.seekable_prefix_len(&["b".into(), "c".into()]), 0);
        assert_eq!(idx.seekable_prefix_len(&["a".into(), "c".into()]), 1);
    }

    #[test]
    fn well_formedness() {
        assert!(Index::non_clustered("db", "t", &["a"], &["b"]).is_well_formed());
        assert!(!Index::non_clustered("db", "t", &[], &[]).is_well_formed());
        assert!(!Index::non_clustered("db", "t", &["a", "a"], &[]).is_well_formed());
        assert!(!Index::non_clustered("db", "t", &["a"], &["a"]).is_well_formed());
        let mut bad_clustered = Index::clustered("db", "t", &["a"]);
        bad_clustered.included_columns.push("b".into());
        assert!(!bad_clustered.is_well_formed());
    }

    #[test]
    fn names_are_descriptive_and_distinct() {
        let a = Index::non_clustered("db", "t", &["x"], &["a"]);
        let b = Index::non_clustered("db", "t", &["x"], &[]);
        let c = Index::non_clustered("db", "t", &["x"], &[])
            .partitioned(RangePartitioning::new("x", vec![Value::Int(5)]));
        assert_ne!(a.name(), b.name());
        assert_ne!(b.name(), c.name());
    }
}
