//! Baselines DTA is compared against in the paper's evaluation.
//!
//! * [`itw`] — the Index Tuning Wizard for SQL Server 2000 (§7.6): the
//!   previous-generation tool DTA builds on. It tunes indexes and
//!   materialized views only, has no workload compression, no
//!   column-group restriction, no reduced statistics creation, and a
//!   plain greedy search — which is exactly why Figure 5 shows DTA
//!   dramatically faster on large workloads while Figure 4 shows
//!   comparable (slightly worse) quality.
//! * [`staged`] — staged feature selection (§3, Example 2): tune one
//!   feature class at a time, feeding each stage's choices into the next
//!   as a fixed user-specified configuration. The ablation shows why
//!   integrated selection matters.

// Library-code rule R1 (DESIGN.md §8); the workspace-wide
// method and type lists are in crates/clippy.toml.
#![deny(clippy::iter_over_hash_type)]

pub mod itw;
pub mod staged;

pub use itw::tune_itw;
pub use staged::{tune_staged, StagePlan};
