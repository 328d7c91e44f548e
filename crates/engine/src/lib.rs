//! Execution engine: runs optimizer plans over stored data and meters
//! the *actual* work done.
//!
//! §7.2 of the paper compares DTA's optimizer-estimated improvement (88%
//! on TPC-H 10 GB) against the measured improvement in execution time
//! (83%). This engine is the measurement side of that comparison: it
//! interprets [`dta_optimizer::Plan`] trees against the columnar store,
//! with true cardinalities and real group counts, charging page and CPU
//! work in the same units the optimizer estimates. Estimated and actual
//! improvements then diverge only through estimation error — exactly the
//! effect the paper observes.

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

pub mod eval;
pub mod exec;
pub mod relation;

pub use exec::{ActualWork, Engine, QueryResult};
pub use relation::Relation;

/// Errors during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A referenced table has no stored data.
    MissingData(String),
    /// An expression could not be evaluated.
    Eval(String),
    /// The plan shape was inconsistent with the statement.
    BadPlan(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingData(t) => write!(f, "no data stored for table '{t}'"),
            ExecError::Eval(m) => write!(f, "evaluation error: {m}"),
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}
