//! The Database Tuning Advisor — the paper's primary contribution.
//!
//! Pipeline (Figure 1):
//!
//! ```text
//! workload ──► compression (§5.1)
//!          ──► column-group restriction (§2.2, frequent itemsets)
//!          ──► reduced statistics creation (§5.2, via the server layer)
//!          ──► candidate selection (per query, Greedy(m,k), §2.2)
//!          ──► merging (indexes, views, partitioned variants, §2.2)
//!          ──► enumeration (Greedy(m,k), storage bound, lazy alignment, §2.2/§4)
//!          ──► recommendation + analysis reports (§6.3)
//! ```
//!
//! Every cost consulted anywhere in the pipeline is an optimizer
//! estimate obtained through what-if calls on the tuning target (§2.2
//! "DTA's Cost Model"), so the recommendation is exactly what the
//! optimizer would use if implemented.

// Library-code rules R1, R7 and R8 (DESIGN.md §8); the workspace-wide
// method and type lists are in crates/clippy.toml.
#![deny(clippy::iter_over_hash_type)]
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

pub mod candidates;
pub mod checkpoint;
pub mod colgroups;
pub mod control;
pub mod cost;
pub mod det;
pub mod enumeration;
pub mod greedy;
pub mod invariants;
pub mod merging;
pub mod obs;
pub mod options;
pub mod overlay;
pub mod report;
pub mod session;
pub mod supervisor;

pub use checkpoint::{SessionCheckpoint, StatsProgress};
pub use control::{CancelHandle, Completion, ControlError, SessionControl, Stage, StopReason};
pub use obs::{
    Counter, CounterSet, CounterTotals, NoopObserver, ObserverSummary, RecordingObserver,
    SessionObserver, ShardSnapshot, SpanName,
};
pub use options::{AlignmentMode, FeatureSet, TuningOptions};
pub use report::{EvaluationReport, StatementReport, TuningResult};
pub use session::{
    evaluate_configuration, tune, tune_resume, tune_with_control, tune_with_observer,
    workload_cost, TuneError,
};
pub use supervisor::{
    ChaosHook, FinishedSession, FleetManifest, FleetReport, SessionSupervisor, SliceContext,
    SupervisorError, SupervisorHandle, SupervisorPolicy, TenantManifest, TenantOutcome, TenantSpec,
    TenantStatus,
};
