//! # dta — Database Tuning Advisor, reproduced in Rust
//!
//! A from-scratch reproduction of *"Database Tuning Advisor for Microsoft
//! SQL Server 2005"* (Agrawal, Chaudhuri, Kollar, Marathe, Narasayya,
//! Syamala — VLDB 2004): an automated physical database design tool that
//! gives **integrated recommendations for indexes, materialized views and
//! range partitioning**, supports **manageability (alignment) constraints**
//! and **user-specified partial configurations**, and scales via
//! **workload compression**, **reduced statistics creation**, and
//! **production/test-server tuning**.
//!
//! This facade re-exports the whole system:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sql`] | `dta-sql` | SQL dialect: parser, AST, signatures |
//! | [`catalog`] | `dta-catalog` | schema metadata, metadata scripting |
//! | [`storage`] | `dta-storage` | columnar store, page model, work meter |
//! | [`stats`] | `dta-stats` | histograms, densities, reduced statistics creation |
//! | [`physical`] | `dta-physical` | indexes, views, partitioning, configurations |
//! | [`optimizer`] | `dta-optimizer` | cost-based what-if optimizer |
//! | [`engine`] | `dta-engine` | plan executor with actual-work metering |
//! | [`server`] | `dta-server` | server facade, production/test tuning |
//! | [`workload`] | `dta-workload` | workloads, compression, benchmark generators |
//! | [`advisor`] | `dta-core` | the tuning advisor itself |
//! | [`xml`] | `dta-xml` | the public XML schema |
//! | [`baselines`] | `dta-baselines` | ITW and staged-tuning baselines |
//!
//! # Quickstart
//!
//! ```
//! use dta::prelude::*;
//!
//! // 1. a server with a table and some data
//! let mut server = Server::new("prod");
//! let mut db = Database::new("shop");
//! db.add_table(
//!     Table::new("item", vec![
//!         Column::new("id", ColumnType::BigInt),
//!         Column::new("cat", ColumnType::Int),
//!         Column::new("price", ColumnType::Float),
//!     ]).with_primary_key(&["id"]),
//! ).unwrap();
//! server.create_database(db).unwrap();
//! let data = server.table_data_mut("shop", "item").unwrap();
//! for i in 0..20_000i64 {
//!     data.push_row(vec![Value::Int(i), Value::Int(i % 100), Value::Float(i as f64)]);
//! }
//!
//! // 2. a workload
//! let workload = Workload::from_sql_file(
//!     "shop",
//!     "SELECT price FROM item WHERE cat = 7;
//!      SELECT cat, COUNT(*) FROM item GROUP BY cat;",
//! ).unwrap();
//!
//! // 3. tune
//! let target = TuningTarget::Single(&server);
//! let result = tune(&target, &workload, &TuningOptions::default()).unwrap();
//! assert!(result.expected_improvement() > 0.0);
//! println!("{result}");
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

pub use dta_baselines as baselines;
pub use dta_catalog as catalog;
pub use dta_core as advisor;
pub use dta_engine as engine;
pub use dta_optimizer as optimizer;
pub use dta_physical as physical;
pub use dta_server as server;
pub use dta_sql as sql;
pub use dta_stats as stats;
pub use dta_storage as storage;
pub use dta_workload as workload;
pub use dta_xml as xml;

/// Everything most users need, in one import.
pub mod prelude {
    pub use dta_catalog::{Catalog, Column, ColumnType, Database, Table, Value};
    pub use dta_core::{
        evaluate_configuration, tune, tune_resume, tune_with_control, tune_with_observer,
        workload_cost, AlignmentMode, CancelHandle, Completion, ControlError, Counter, CounterSet,
        CounterTotals, FeatureSet, FleetManifest, FleetReport, NoopObserver, ObserverSummary,
        RecordingObserver, SessionCheckpoint, SessionControl, SessionObserver, SessionSupervisor,
        Stage, SupervisorPolicy, TenantSpec, TenantStatus, TuningOptions, TuningResult,
    };
    pub use dta_engine::{Engine, QueryResult};
    pub use dta_optimizer::{HardwareParams, WhatIfOptimizer};
    pub use dta_physical::{
        Configuration, Index, IndexKind, MaterializedView, PhysicalStructure, QualifiedColumn,
        RangePartitioning,
    };
    pub use dta_server::{prepare_test_server, Server, TuningTarget};
    pub use dta_sql::{parse_script, parse_statement, Statement};
    pub use dta_workload::{compress, CompressionOptions, Workload, WorkloadItem};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // touching a symbol from each re-export keeps the facade honest
        let _ = crate::prelude::TuningOptions::default();
        let _ = crate::prelude::SupervisorPolicy::default();
        let _ = crate::sql::parse_statement("SELECT a FROM t");
        let _ = crate::physical::Configuration::new();
        let _ = crate::storage::PAGE_SIZE;
        let _ = crate::stats::DEFAULT_SAMPLE_FRACTION;
    }
}
