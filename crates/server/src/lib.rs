//! Server facade: the "Microsoft SQL Server" of the reproduction.
//!
//! A [`Server`] owns a catalog, a data store, a statistics cache, a
//! deployed physical configuration, and hardware parameters. It exposes
//! exactly the surface DTA consumes:
//!
//! * **what-if optimization** ([`Server::whatif`]) — every call is charged
//!   to the server's overhead meter, which is how Figure 3's "overhead on
//!   the production server" is measured;
//! * **statistics creation** ([`Server::create_statistics`]) — sampled
//!   from the stored data, charging sampling I/O;
//! * **metadata and statistics export/import** — the §5.3 production/
//!   test-server plumbing (no data is ever copied);
//! * **deployment and execution** — implement a recommendation and run
//!   statements against it with actual-work metering.
//!
//! [`TuningTarget`] wraps either a single server or a production+test
//! pair, routing what-if calls to the test server and statistics
//! creation to the production server, exactly as §5.3 prescribes.

// Library-code rules R7 and R8 (DESIGN.md §8); the workspace-wide
// method and type lists are in crates/clippy.toml.
#![deny(clippy::panic, clippy::exit)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod server;
pub mod target;

pub use server::{
    FaultPolicy, Server, StatsCreationReport, WHATIF_BASE_UNITS, WHATIF_PER_TABLE_UNITS,
};
pub use target::{prepare_test_server, TuningTarget};

/// How an injected fault behaves (see [`FaultPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fails a bounded number of attempts, then succeeds — a retry
    /// should absorb it.
    Transient,
    /// Fails every attempt — the caller must degrade gracefully.
    Permanent,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Permanent => write!(f, "permanent"),
        }
    }
}

/// Errors from server operations.
#[derive(Debug)]
pub enum ServerError {
    Catalog(dta_catalog::CatalogError),
    Bind(dta_optimizer::BindError),
    Exec(dta_engine::ExecError),
    /// A deterministically injected fault (see [`FaultPolicy`]).
    Fault {
        /// Transient (retryable) or permanent.
        kind: FaultKind,
        /// What failed, for reports.
        what: String,
    },
    /// A [`dta_optimizer::PreparedStatement`] was presented to a server
    /// whose estimate epoch has moved since it was prepared (see
    /// [`Server::estimate_epoch`]): prepare again.
    StalePreparation,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Catalog(e) => write!(f, "catalog: {e}"),
            ServerError::Bind(e) => write!(f, "bind: {e}"),
            ServerError::Exec(e) => write!(f, "exec: {e}"),
            ServerError::Fault { kind, what } => write!(f, "{kind} fault: {what}"),
            ServerError::StalePreparation => {
                write!(f, "statement was prepared in an earlier estimate epoch")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<dta_catalog::CatalogError> for ServerError {
    fn from(e: dta_catalog::CatalogError) -> Self {
        ServerError::Catalog(e)
    }
}

impl From<dta_optimizer::BindError> for ServerError {
    fn from(e: dta_optimizer::BindError) -> Self {
        ServerError::Bind(e)
    }
}

impl From<dta_engine::ExecError> for ServerError {
    fn from(e: dta_engine::ExecError) -> Self {
        ServerError::Exec(e)
    }
}
