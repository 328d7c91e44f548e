//! Statistics subsystem.
//!
//! Mirrors the statistical machinery DTA relies on (§5.2 of the paper):
//! when SQL Server creates a statistic on columns `(A, B, C)` it builds a
//! **histogram on the leading column only** and **density information for
//! each leading prefix** (`(A)`, `(A,B)`, `(A,B,C)`), where density is
//! order-independent (`Density(A,B) = Density(B,A)`). Statistics are
//! created by sampling pages of the table, so creation cost is dominated
//! by table size, not by how many columns the statistic has — the two
//! facts the paper's *reduced statistics creation* algorithm exploits.
//!
//! This crate provides:
//! * [`histogram::Histogram`] — equi-depth histograms with range/equality
//!   selectivity estimation;
//! * [`statistic::Statistic`] — a multi-column statistic (histogram +
//!   density vector), built by page sampling with work accounting;
//! * [`manager::StatisticsManager`] — the per-server statistics cache with
//!   prefix-aware lookup;
//! * [`reduction`] — the §5.2 greedy H-List/D-List covering algorithm.

// Library-code rules R7 and R8 (DESIGN.md §8); the workspace-wide
// method and type lists are in crates/clippy.toml.
#![deny(clippy::exit)]
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

pub mod histogram;
pub mod manager;
pub mod reduction;
pub mod retry;
pub mod statistic;

pub use histogram::Histogram;
pub use manager::{StatisticsManager, TableDistincts};
pub use reduction::{reduce_statistics, ReductionOutcome};
pub use retry::RetryPolicy;
pub use statistic::{build_statistic, StatKey, Statistic, DEFAULT_SAMPLE_FRACTION};
