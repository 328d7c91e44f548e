//! Workloads: the statements DTA tunes, workload compression, and the
//! generators for every database/workload the paper evaluates on.
//!
//! * [`model`] — weighted statements, profiler-style traces, SQL-file
//!   loading (§2.1 "a workload can be obtained by using SQL Server
//!   Profiler ... or a SQL file");
//! * [`compression`] — §5.1 workload compression: partition by statement
//!   signature (templatization) and pick weighted representatives per
//!   partition with a clustering-based method, plus the two strawmen the
//!   paper argues against (uniform random sampling, top-k by cost);
//! * [`tpch`] — the TPC-H schema, a `dbgen`-like data generator with a
//!   scale-factor knob, and the 22 benchmark queries (rewritten into the
//!   reproduction's SQL dialect where the original uses subqueries);
//! * [`cust`] — synthetic stand-ins for the paper's four customer
//!   workloads CUST1–CUST4 (Table 1), including each DBA's hand-tuned
//!   configuration;
//! * [`psoft`] — a PeopleSoft-like OLTP mix (~6 000 statements, few
//!   templates, updates included);
//! * [`synt1`] — a SetQuery-style synthetic workload (8 000 SPJ queries
//!   with grouping/aggregation from ~100 templates).

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

pub mod compression;
pub mod cust;
pub mod gen_util;
pub mod model;
pub mod psoft;
pub mod synt1;
pub mod tpch;

pub use compression::{compress, CompressionOptions, CompressionOutcome};
pub use model::{Workload, WorkloadItem};

/// A generated benchmark: a loaded server, the workload to tune, and
/// (for the customer workloads) the DBA's hand-tuned configuration.
pub struct Benchmark {
    pub name: String,
    pub server: dta_server::Server,
    pub workload: Workload,
    /// The manually tuned physical design the paper compares against
    /// (§7.1); `None` for benchmarks without one.
    pub hand_tuned: Option<dta_physical::Configuration>,
    pub databases: Vec<String>,
}
