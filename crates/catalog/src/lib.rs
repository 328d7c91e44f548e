//! Logical schema metadata for the DTA reproduction.
//!
//! The catalog is the part of a database that the production/test-server
//! scenario (§5.3 of the paper) copies *without any data*: databases,
//! tables, columns, types, and the referential-integrity constraints whose
//! enforcing indexes survive in the "raw" configuration of the
//! experiments. [`script::MetadataScript`] is the scripting facility that
//! exports and re-imports this metadata.

// Library-code rule R8 (DESIGN.md §8); the workspace-wide method and
// type lists are in crates/clippy.toml.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
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

pub mod schema;
pub mod script;
pub mod types;

pub use schema::{Catalog, Column, Database, ForeignKey, Table};
pub use types::{ColumnType, Value};

/// Errors raised when manipulating catalogs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Referenced database does not exist.
    UnknownDatabase(String),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not exist in the table.
    UnknownColumn { table: String, column: String },
    /// Attempt to create an object that already exists.
    AlreadyExists(String),
    /// A constraint definition is inconsistent (e.g. FK arity mismatch).
    InvalidConstraint(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownDatabase(d) => write!(f, "unknown database '{d}'"),
            CatalogError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            CatalogError::AlreadyExists(o) => write!(f, "object '{o}' already exists"),
            CatalogError::InvalidConstraint(m) => write!(f, "invalid constraint: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Result alias for catalog operations.
pub type Result<T> = std::result::Result<T, CatalogError>;
