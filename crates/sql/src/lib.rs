//! SQL front-end for the DTA reproduction.
//!
//! This crate implements the SQL dialect that workloads are expressed in:
//! a lexer, a recursive-descent parser, the abstract syntax tree, a
//! pretty-printer (round-trip guaranteed by property tests), and
//! *statement signatures* — the templatization used by workload
//! compression (two statements share a signature iff they are identical in
//! all respects except the constants they reference; §5.1 of the paper).
//!
//! The dialect covers what the paper's workloads need: `SELECT` with
//! multi-table `FROM` (comma joins and `JOIN ... ON`), `WHERE`, `GROUP BY`,
//! `HAVING`, `ORDER BY`, `TOP`, aggregates, and the DML statements
//! `INSERT`, `UPDATE`, `DELETE`.
//!
//! # Example
//!
//! ```
//! use dta_sql::parse_statement;
//! let stmt = parse_statement(
//!     "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a").unwrap();
//! assert_eq!(stmt.to_string(), "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a");
//! ```

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

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod signature;
pub mod visit;

pub use ast::*;
pub use error::{ParseError, Result};
pub use parser::{parse_expression, parse_script, parse_statement};
pub use signature::{signature, signature_hash, Signature};
