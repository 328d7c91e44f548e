//! Physical design structures and configurations.
//!
//! This crate defines the vocabulary DTA reasons about (§2.1, §3, §4 of
//! the paper):
//!
//! * [`Index`] — clustered and non-clustered (optionally *covering* via
//!   included columns), optionally range-partitioned;
//! * [`MaterializedView`] — select-project-join views with optional
//!   grouping/aggregation, optionally range-partitioned;
//! * [`RangePartitioning`] — single-column range partitioning (what SQL
//!   Server 2005 supports) for tables, indexes, and views;
//! * [`Configuration`] — a set of structures, with validity checking
//!   (§6.2: a *valid* user-specified configuration), the **alignment**
//!   predicate (§4: a table and all of its indexes partitioned
//!   identically), and storage estimation against a [`SizingInfo`];
//! * [`ColumnMask`] and [`ColumnUse`] — fixed-size sets of column names
//!   and how a statement uses a table's columns: what the cost cache
//!   decides by whether a non-clustered index can matter to a statement.

// R11: no panic site in library code but an `expect("<invariant>")`
// or a reasoned `#[expect]` (DESIGN.md §8). The same block stands in
// every crate `tune()`, `Server` and the baselines reach.
#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod config;
pub mod index;
pub mod partitioning;
pub mod sizing;
pub mod view;

pub use config::{
    database_key, table_key, ColumnMask, ColumnUse, Configuration, StructureHandle, ValidityError,
};
pub use index::{Index, IndexKind};
pub use partitioning::RangePartitioning;
pub use sizing::SizingInfo;
pub use view::{JoinPair, MaterializedView, QualifiedColumn, ViewAggregate};

/// Any physical design structure DTA can recommend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhysicalStructure {
    /// An index on a base table.
    Index(Index),
    /// A materialized view.
    View(MaterializedView),
    /// Range partitioning of a base table's heap.
    TablePartitioning { database: String, table: String, scheme: RangePartitioning },
}

impl PhysicalStructure {
    /// The database the structure lives in.
    pub fn database(&self) -> &str {
        match self {
            PhysicalStructure::Index(i) => &i.database,
            PhysicalStructure::View(v) => &v.database,
            PhysicalStructure::TablePartitioning { database, .. } => database,
        }
    }

    /// The base table the structure is attached to, if it is table-scoped.
    pub fn table(&self) -> Option<&str> {
        match self {
            PhysicalStructure::Index(i) => Some(&i.table),
            PhysicalStructure::View(_) => None,
            PhysicalStructure::TablePartitioning { table, .. } => Some(table),
        }
    }

    /// A stable descriptive name (derived, not stored).
    pub fn name(&self) -> String {
        match self {
            PhysicalStructure::Index(i) => i.name(),
            PhysicalStructure::View(v) => v.name(),
            PhysicalStructure::TablePartitioning { table, scheme, .. } => {
                format!("part_{table}_{}", scheme.column)
            }
        }
    }

    /// True for structures that occupy essentially no storage beyond the
    /// base data (clustered indexes, table partitioning) — the
    /// "non-redundant structures" of §3.
    pub fn is_non_redundant(&self) -> bool {
        match self {
            PhysicalStructure::Index(i) => i.kind == IndexKind::Clustered,
            PhysicalStructure::View(_) => false,
            PhysicalStructure::TablePartitioning { .. } => true,
        }
    }
}

impl std::fmt::Display for PhysicalStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_redundancy() {
        let clustered = PhysicalStructure::Index(Index::clustered("db", "t", &["a"]));
        let nc = PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[]));
        let part = PhysicalStructure::TablePartitioning {
            database: "db".into(),
            table: "t".into(),
            scheme: RangePartitioning::new("a", vec![dta_catalog::Value::Int(10)]),
        };
        assert!(clustered.is_non_redundant());
        assert!(!nc.is_non_redundant());
        assert!(part.is_non_redundant());
    }

    #[test]
    fn accessors() {
        let i = PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &["b"]));
        assert_eq!(i.database(), "db");
        assert_eq!(i.table(), Some("t"));
        assert!(i.name().contains('t'));
    }
}
