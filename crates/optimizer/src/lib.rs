//! Cost-based query optimizer with **what-if** interfaces.
//!
//! DTA's cost model *is* the query optimizer (§2.2 "DTA's Cost Model"):
//! for a query `Q` and a hypothetical configuration `C`, DTA obtains the
//! optimizer-estimated cost of `Q` as if `C` were materialized, and
//! recommends the configuration with the lowest estimated workload cost.
//! This crate is the substrate standing in for SQL Server's optimizer and
//! its what-if plumbing ([9] in the paper):
//!
//! * [`query`] — the binder, producing analyzed single/multi-table query
//!   descriptions (sargable predicates, equi-joins, grouping, required
//!   columns);
//! * [`selectivity`] — cardinality estimation from histograms and
//!   densities;
//! * [`plan`] — physical plan trees with per-node estimated rows/cost,
//!   interpretable by the execution engine;
//! * [`access`] — single-table access-path selection (heap scan,
//!   clustered/non-clustered seek, covering scan, partition elimination);
//! * [`join`] — greedy join ordering with hash and index-nested-loop
//!   joins;
//! * [`views`] — materialized-view matching;
//! * [`dml`] — update/insert/delete costing including index and view
//!   maintenance;
//! * [`prepared`] — a statement bound and estimated once, for any number
//!   of configurations ([`PreparedStatement`]);
//! * [`whatif`] — the [`WhatIfOptimizer`] facade: `optimize(query,
//!   configuration)` returns a [`plan::Plan`] whose estimated cost is in
//!   the same work units the execution engine meters, and whose
//!   hardware parameters (CPUs, memory) can be overridden to simulate a
//!   production server on a test server (§5.3).

// Library-code rule R1 (DESIGN.md §8); the workspace-wide method and
// type lists are in crates/clippy.toml.
#![deny(clippy::iter_over_hash_type)]
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

pub mod access;
pub mod dml;
pub mod hardware;
pub mod join;
pub mod plan;
pub mod prepared;
pub mod provider;
pub mod query;
pub mod selectivity;
pub mod views;
pub mod whatif;

pub use access::Picks;
pub use hardware::HardwareParams;
pub use plan::{Plan, PlanNode};
pub use prepared::{PreparedStatement, ViewUse};
pub use provider::TableStatsProvider;
pub use query::{BindError, BoundSelect, Sarg, SargOp};
pub use whatif::{derive_prepared, optimize_prepared, WhatIfOptimizer};
