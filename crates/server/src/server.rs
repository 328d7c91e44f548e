//! The server itself.

use crate::{FaultKind, ServerError};
use dta_catalog::script::MetadataScript;
use dta_catalog::{Catalog, Database};
use dta_engine::{Engine, QueryResult};
use dta_optimizer::{
    optimize_prepared, HardwareParams, Plan, PreparedStatement, TableStatsProvider, WhatIfOptimizer,
};
use dta_physical::{Configuration, Index, MaterializedView, PhysicalStructure, SizingInfo};
use dta_sql::Statement;
use dta_stats::{
    build_statistic, RetryPolicy, StatKey, Statistic, StatisticsManager, DEFAULT_SAMPLE_FRACTION,
};
use dta_storage::{Store, TableData, WorkCounter};
use parking_lot::{Mutex, Rank, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Work units charged per what-if optimizer call, base.
pub const WHATIF_BASE_UNITS: f64 = 4.0;

/// Extra work units per table referenced by the optimized statement
/// (join optimization is superlinear; squared below).
pub const WHATIF_PER_TABLE_UNITS: f64 = 4.0;

/// Result of a batch statistics-creation request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsCreationReport {
    /// Statistics actually created.
    pub created: usize,
    /// Statistics requested.
    pub requested: usize,
    /// Work units spent creating them (sampling I/O).
    pub work_units: f64,
    /// Requests abandoned after a permanent fault (or exhausted retries).
    pub failed: usize,
    /// Transient faults absorbed by retry.
    pub retries: usize,
    /// Deterministic backoff units accounted across those retries.
    pub backoff_units: u64,
}

/// Deterministic fault-injection policy for testing the robustness
/// layer.
///
/// Whether a given call faults is decided by hashing the *content* of
/// the call (statement, statistic key) with `seed` — never by global
/// call order or wall-clock — so a schedule is independent of thread
/// count and cache warmth, and re-running the same session reproduces
/// the same faults. What-if faults classify per *statement*, so a
/// permanently-faulted statement fails for every configuration (the
/// evaluator degrades it to a constant fallback, which then cancels out
/// of configuration comparisons deterministically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Seed decorrelating schedules from one another.
    pub seed: u64,
    /// Fraction of statements whose what-if calls fail transiently.
    pub whatif_transient_rate: f64,
    /// Fraction of statements whose what-if calls fail permanently.
    pub whatif_permanent_rate: f64,
    /// Fraction of statistics whose creation fails transiently.
    pub stats_transient_rate: f64,
    /// Fraction of statistics whose creation fails permanently.
    pub stats_permanent_rate: f64,
    /// Fraction of statements whose what-if calls *panic*
    /// (`whatif_panic_repeats` times per call site, then succeed) —
    /// exercises the caller's panic guard: the call that panics is
    /// re-issued and answers, so the session converges to the no-panic
    /// recommendation.
    pub whatif_panic_rate: f64,
    /// How many times a panicking call site panics before succeeding
    /// (default 1). Set past the caller's re-issue bound (64) to
    /// make the site *permanently* panic — the quarantine path of the
    /// session supervisor.
    pub whatif_panic_repeats: u32,
    /// A transient schedule fails the first `1..=max_transient_failures`
    /// attempts of each call site (the exact count is hash-derived).
    pub max_transient_failures: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            seed: 0,
            whatif_transient_rate: 0.0,
            whatif_permanent_rate: 0.0,
            stats_transient_rate: 0.0,
            stats_permanent_rate: 0.0,
            whatif_panic_rate: 0.0,
            whatif_panic_repeats: 1,
            max_transient_failures: 2,
        }
    }
}

/// Attempt counters by call-site hash: probed by key, never iterated.
#[expect(clippy::disallowed_types, reason = "probed by key, never iterated")]
type HashMap<K, V> = std::collections::HashMap<K, V>;

/// Live fault state: the policy plus per-call-site attempt counters for
/// transient schedules.
struct FaultState {
    policy: FaultPolicy,
    attempts: HashMap<u64, u32>,
}

/// Rank of the sampling RNG's lock, held while a new statistic is added
/// (DESIGN.md §8). The server's other locks are leaves.
const RNG: Rank = Rank::outer(1);

/// A database server instance.
pub struct Server {
    /// Server name, for reports.
    pub name: String,
    catalog: Catalog,
    store: Store,
    stats: RwLock<StatisticsManager>,
    deployed: RwLock<Configuration>,
    hardware: RwLock<HardwareParams>,
    work: WorkCounter,
    whatif_invocations: AtomicU64,
    /// Bumped by everything that can change an optimizer estimate (see
    /// [`Server::estimate_epoch`]).
    estimate_epoch: AtomicU64,
    rng: Mutex<StdRng>,
    fault: Mutex<Option<FaultState>>,
}

impl Server {
    /// New empty server with production-default hardware.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            catalog: Catalog::new(),
            store: Store::new(),
            stats: RwLock::new(StatisticsManager::new()),
            deployed: RwLock::new(Configuration::new()),
            hardware: RwLock::new(HardwareParams::production_default()),
            work: WorkCounter::default(),
            whatif_invocations: AtomicU64::new(0),
            estimate_epoch: AtomicU64::new(0),
            rng: Mutex::ranked(StdRng::seed_from_u64(0x5EED), RNG),
            fault: Mutex::new(None),
        }
    }

    /// Builder-style hardware override.
    pub fn with_hardware(self, hw: HardwareParams) -> Self {
        self.simulate_hardware(hw);
        self
    }

    // ---- fault injection -------------------------------------------------

    /// Install (or clear) a deterministic fault-injection policy.
    pub fn set_fault_policy(&self, policy: Option<FaultPolicy>) {
        *self.fault.lock() = policy.map(|policy| FaultState { policy, attempts: HashMap::new() });
    }

    /// Builder-style fault-policy override.
    pub fn with_fault_policy(self, policy: FaultPolicy) -> Self {
        self.set_fault_policy(Some(policy));
        self
    }

    /// The installed fault policy, if any.
    pub fn fault_policy(&self) -> Option<FaultPolicy> {
        self.fault.lock().as_ref().map(|s| s.policy)
    }

    /// Decide whether this call faults. `classify` identifies the fault
    /// *domain member* (a statement, a statistic) — hashed with the seed
    /// it classifies the member as clean / transient / permanent, fixed
    /// for the whole session. `site` identifies the retryable call site
    /// (e.g. statement + configuration) whose attempt counter a
    /// transient schedule counts down on.
    fn fault_check(
        &self,
        domain: &str,
        classify: u64,
        site: u64,
        transient_rate: f64,
        permanent_rate: f64,
        what: &str,
    ) -> Result<(), ServerError> {
        let mut guard = self.fault.lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let mut h = DefaultHasher::new();
        (state.policy.seed, domain, classify).hash(&mut h);
        let roll = h.finish();
        let u = (roll % 1_000_000) as f64 / 1_000_000.0;
        if u < permanent_rate {
            return Err(ServerError::Fault { kind: FaultKind::Permanent, what: what.to_string() });
        }
        if u < permanent_rate + transient_rate {
            let max = state.policy.max_transient_failures.max(1);
            let failures = 1 + ((roll >> 32) % max as u64) as u32;
            let mut hs = DefaultHasher::new();
            (state.policy.seed, domain, site).hash(&mut hs);
            let seen = state.attempts.entry(hs.finish()).or_insert(0);
            if *seen < failures {
                *seen += 1;
                return Err(ServerError::Fault {
                    kind: FaultKind::Transient,
                    what: what.to_string(),
                });
            }
        }
        Ok(())
    }

    // ---- catalog & data -------------------------------------------------

    /// Create a database (schema only).
    pub fn create_database(&mut self, db: Database) -> Result<(), ServerError> {
        db.validate()?;
        for t in db.tables() {
            self.store.create_table(&db.name, t);
        }
        self.catalog.add_database(db)?;
        self.bump_estimate_epoch();
        Ok(())
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The data store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable table data (bulk loading).
    pub fn table_data_mut(&mut self, database: &str, table: &str) -> Option<&mut TableData> {
        // the caller may load rows, which changes table sizes
        self.bump_estimate_epoch();
        self.store.table_mut(database, table)
    }

    /// Total logical data size in bytes across all databases.
    pub fn total_data_bytes(&self) -> u64 {
        self.store.total_logical_bytes()
    }

    // ---- overhead metering ----------------------------------------------

    /// The overhead meter: all work this server performed on behalf of
    /// clients (what-if calls, statistics creation, execution).
    pub fn work(&self) -> &WorkCounter {
        &self.work
    }

    /// Work units accumulated so far.
    pub fn overhead_units(&self) -> f64 {
        self.work.work_units()
    }

    /// Reset the overhead meter.
    pub fn reset_overhead(&self) {
        self.work.reset();
    }

    /// What-if optimizer invocations observed at the server, including
    /// attempts rejected by an injected fault before any work was
    /// charged. This is the server's own ground-truth tally; the tuning
    /// layer counts the what-if calls it issues: misses not derived, one
    /// per attempt.
    pub fn whatif_invocations(&self) -> u64 {
        self.whatif_invocations.load(Ordering::SeqCst)
    }

    fn charge_units(&self, units: f64) {
        // encode scalar units as CPU ops so the counter stays integral
        self.work.cpu((units / dta_storage::work::CPU_OP_WEIGHT) as u64);
    }

    // ---- hardware ---------------------------------------------------------

    /// The hardware parameters what-if calls currently model.
    pub fn hardware(&self) -> HardwareParams {
        *self.hardware.read()
    }

    /// Override the modeled hardware — used on a test server to simulate
    /// the production server's CPUs and memory (§5.3).
    pub fn simulate_hardware(&self, hw: HardwareParams) {
        *self.hardware.write() = hw;
        self.bump_estimate_epoch();
    }

    // ---- configuration -----------------------------------------------------

    /// The currently deployed physical design.
    pub fn deployed(&self) -> Configuration {
        self.deployed.read().clone()
    }

    /// Implement a physical design (the `CREATE INDEX`/`CREATE VIEW` step
    /// after tuning). Validity is the caller's responsibility to check.
    pub fn deploy(&self, config: Configuration) {
        *self.deployed.write() = config;
    }

    /// The *raw* configuration of §7.1: only indexes that enforce
    /// referential-integrity constraints (primary keys) survive.
    pub fn raw_configuration(&self) -> Configuration {
        let mut cfg = Configuration::new();
        for db in self.catalog.databases() {
            for t in db.tables() {
                if !t.primary_key.is_empty() {
                    let keys: Vec<&str> = t.primary_key.iter().map(String::as_str).collect();
                    cfg.add(PhysicalStructure::Index(
                        Index::non_clustered(&db.name, &t.name, &keys, &[]).constraint(),
                    ));
                }
            }
        }
        cfg
    }

    // ---- what-if interface ---------------------------------------------

    /// The server's estimate epoch: a counter that moves whenever
    /// something an optimizer estimate depends on does — a statistic is
    /// created or imported, the simulated hardware changes, a database
    /// is created or table data handed out for loading. A
    /// [`PreparedStatement`] is stamped with the epoch it was prepared
    /// in and is good for exactly that epoch.
    pub fn estimate_epoch(&self) -> u64 {
        self.estimate_epoch.load(Ordering::SeqCst)
    }

    /// Writers bump *after* changing what estimates read, preparing
    /// reads the epoch *before* it reads any of it: a preparation can
    /// carry an older stamp than its contents (and be re-made once more
    /// than needed) but never a newer one.
    fn bump_estimate_epoch(&self) {
        self.estimate_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Table sizes resolved through a statistics guard the caller holds.
    fn sizes<'a>(&'a self, stats: &'a StatisticsManager) -> ServerSizes<'a> {
        ServerSizes { catalog: &self.catalog, store: &self.store, stats }
    }

    /// Run `f` over a what-if optimizer on this server's state, under one
    /// statistics read guard (table sizes resolve through it too).
    fn with_optimizer<R>(&self, f: impl FnOnce(&WhatIfOptimizer<'_>) -> R) -> R {
        let hardware = self.hardware();
        let stats = self.stats.read();
        let sizes = self.sizes(&stats);
        f(&WhatIfOptimizer::new(&self.catalog, &stats, &sizes, hardware))
    }

    /// Bind `stmt` and resolve every estimate about it that does not
    /// depend on a configuration (see [`PreparedStatement`]), stamped
    /// with the current [`Self::estimate_epoch`]. Preparing is not a
    /// what-if call: it charges no work and counts nothing.
    pub fn prepare(&self, database: &str, stmt: &Statement) -> PreparedStatement {
        let epoch = self.estimate_epoch();
        self.with_optimizer(|opt| opt.prepare(database, stmt)).stamped(epoch)
    }

    /// A what-if optimizer call: the estimated best plan for `stmt` as if
    /// `config` were materialized. Charges optimization work to the
    /// overhead meter. One call prepares and prices; to price a
    /// statement under many configurations, [`Self::prepare`] it once
    /// and call [`Self::whatif_prepared`].
    pub fn whatif(
        &self,
        database: &str,
        stmt: &Statement,
        config: &Configuration,
    ) -> Result<Plan, ServerError> {
        self.price(&self.prepare(database, stmt), config)
    }

    /// [`Self::whatif`] for a statement prepared on this server. A
    /// preparation from another estimate epoch is refused
    /// ([`ServerError::StalePreparation`]) before the call is counted:
    /// prepare again and retry.
    pub fn whatif_prepared(
        &self,
        prep: &PreparedStatement,
        config: &Configuration,
    ) -> Result<Plan, ServerError> {
        if prep.epoch() != self.estimate_epoch() {
            return Err(ServerError::StalePreparation);
        }
        self.price(prep, config)
    }

    /// Count, fault, charge and plan one what-if call.
    fn price(&self, prep: &PreparedStatement, config: &Configuration) -> Result<Plan, ServerError> {
        // server-side invocation tally: every arrival counts, including
        // attempts an injected fault rejects before any work is charged
        // (the client-side counter counts the what-if calls it issues:
        // misses not derived, one per attempt)
        self.whatif_invocations.fetch_add(1, Ordering::SeqCst);
        // injected faults are decided before work is charged: a failed
        // attempt spends no server work, so a transient schedule that
        // retry absorbs leaves the overhead meter exactly where a
        // no-fault run would
        if let Some(policy) = self.fault_policy() {
            let (database, stmt_text, classify) = (prep.database(), prep.text(), prep.classify());
            let site = {
                // order-independent combine over the configuration so the
                // site key is stable however the structures are listed
                let (mut sum, mut xor) = (0u64, 0u64);
                for s in config.handles() {
                    let v = s.content_hash();
                    sum = sum.wrapping_add(v);
                    xor ^= v;
                }
                let mut h = DefaultHasher::new();
                (classify, sum, xor).hash(&mut h);
                h.finish()
            };
            self.fault_check(
                "whatif",
                classify,
                site,
                policy.whatif_transient_rate,
                policy.whatif_permanent_rate,
                &format!("what-if optimization of `{stmt_text}` on {database}"),
            )?;
            if policy.whatif_panic_rate > 0.0 {
                // decide-and-count under the fault lock, panic after it is
                // dropped and before any work is charged: the rescued
                // retry of the same site succeeds, and every meter ends
                // exactly where a no-panic run would
                let should_panic = {
                    let mut guard = self.fault.lock();
                    match guard.as_mut() {
                        Some(state) => {
                            let mut h = DefaultHasher::new();
                            (state.policy.seed, "whatif-panic", classify).hash(&mut h);
                            let u = (h.finish() % 1_000_000) as f64 / 1_000_000.0;
                            if u < state.policy.whatif_panic_rate {
                                let mut hs = DefaultHasher::new();
                                (state.policy.seed, "whatif-panic", site).hash(&mut hs);
                                let repeats = state.policy.whatif_panic_repeats.max(1);
                                let seen = state.attempts.entry(hs.finish()).or_insert(0);
                                if *seen < repeats {
                                    *seen += 1;
                                    true
                                } else {
                                    false
                                }
                            } else {
                                false
                            }
                        }
                        None => false,
                    }
                };
                #[expect(
                    clippy::panic,
                    reason = "deliberate fault injection — the caller's panic guard under \
                              test must catch this"
                )]
                if should_panic {
                    panic!("injected what-if panic for `{stmt_text}` on {database}");
                }
            }
        }
        let tables = prep.table_refs() as f64;
        self.charge_units(WHATIF_BASE_UNITS + WHATIF_PER_TABLE_UNITS * tables * tables);
        Ok(optimize_prepared(prep, config)?)
    }

    /// Estimated row count of a hypothetical materialized view.
    pub fn view_rows_estimate(&self, view: &MaterializedView) -> u64 {
        self.with_optimizer(|opt| opt.view_rows(view))
    }

    // ---- statistics -----------------------------------------------------

    /// Does the server already hold equivalent statistical information?
    pub fn statistics_cover(&self, key: &StatKey) -> bool {
        self.stats.read().covers(key)
    }

    /// Number of statistics held.
    pub fn statistics_count(&self) -> usize {
        self.stats.read().count()
    }

    /// Create one statistic by sampling stored data, charging the
    /// sampling I/O. Returns false when the table has no data here.
    pub fn create_statistic(&self, key: StatKey) -> bool {
        let Some(data) = self.store.table(&key.database, &key.table) else {
            return false;
        };
        if data.rows() == 0 {
            return false;
        }
        let mut rng = self.rng.lock();
        let stat = build_statistic(key, data, DEFAULT_SAMPLE_FRACTION, &mut *rng, &self.work);
        self.stats.write().add(stat);
        self.bump_estimate_epoch();
        true
    }

    /// Decide whether creating `key` faults under the installed policy.
    fn stat_fault_check(&self, key: &StatKey) -> Result<(), ServerError> {
        let Some(policy) = self.fault_policy() else {
            return Ok(());
        };
        let classify = {
            let mut h = DefaultHasher::new();
            (key.database.as_str(), key.table.as_str(), &key.columns).hash(&mut h);
            h.finish()
        };
        self.fault_check(
            "stats",
            classify,
            classify,
            policy.stats_transient_rate,
            policy.stats_permanent_rate,
            &format!("statistics creation on {}.{} {:?}", key.database, key.table, key.columns),
        )
    }

    /// Create a batch of statistics, reporting how much work it took.
    ///
    /// Transient injected faults are absorbed by bounded retry with
    /// deterministic backoff accounting; a permanent fault (or exhausted
    /// retries) abandons that one statistic — it is counted in `failed`
    /// and the optimizer simply keeps its default estimates for those
    /// columns, which is a graceful degradation, not an error.
    pub fn create_statistics(&self, keys: &[StatKey]) -> StatsCreationReport {
        let before = self.work.snapshot();
        let retry = RetryPolicy::default();
        let mut created = 0;
        let mut failed = 0;
        let mut retries = 0;
        let mut backoff_units = 0u64;
        for key in keys {
            let mut attempt: u32 = 0;
            let ok = loop {
                match self.stat_fault_check(key) {
                    Ok(()) => break true,
                    Err(ServerError::Fault { kind: FaultKind::Transient, .. })
                        if retry.allows_retry(attempt) =>
                    {
                        retries += 1;
                        backoff_units = backoff_units.saturating_add(retry.backoff_units(attempt));
                        attempt += 1;
                    }
                    Err(_) => break false,
                }
            };
            if !ok {
                failed += 1;
                continue;
            }
            if self.create_statistic(key.clone()) {
                created += 1;
            }
        }
        let delta = self.work.snapshot().since(before);
        StatsCreationReport {
            created,
            requested: keys.len(),
            work_units: delta.work_units(),
            failed,
            retries,
            backoff_units,
        }
    }

    /// Direct read access to the statistics manager.
    pub fn with_statistics<R>(&self, f: impl FnOnce(&StatisticsManager) -> R) -> R {
        f(&self.stats.read())
    }

    /// Export all statistics of one database (ships summaries, not data).
    pub fn export_statistics(&self, database: &str) -> Vec<Statistic> {
        self.stats.read().export_database(database)
    }

    /// Import previously exported statistics (test-server side of §5.3).
    pub fn import_statistics(&self, stats: Vec<Statistic>) {
        self.stats.write().import(stats);
        self.bump_estimate_epoch();
    }

    // ---- metadata scripting ------------------------------------------------

    /// Script out one database's metadata (no data). Logical row counts
    /// ride along so an importing test server costs queries as production
    /// would (§5.3).
    pub fn export_metadata(&self, database: &str) -> Result<MetadataScript, ServerError> {
        let mut db = self.catalog.database_required(database)?.clone();
        for t in db.tables_mut() {
            t.rows = self.store.table(database, &t.name).map_or(0, |d| d.logical_rows());
        }
        Ok(MetadataScript::export(&db))
    }

    /// Import a scripted database. Creates empty tables only.
    pub fn import_metadata(&mut self, script: &MetadataScript) -> Result<(), ServerError> {
        let db = script.import()?;
        self.create_database(db)
    }

    // ---- execution -------------------------------------------------------

    /// Optimize under the deployed configuration and execute, charging
    /// actual work to the overhead meter. SELECT only.
    pub fn execute(&self, database: &str, stmt: &Statement) -> Result<QueryResult, ServerError> {
        let deployed = self.deployed();
        let plan = self.with_optimizer(|opt| opt.optimize(database, stmt, &deployed))?;
        let engine = Engine::new(&self.catalog, &self.store, self.hardware());
        let result = engine.execute_select(database, stmt, &plan)?;
        self.work.read_pages(result.work.io_pages as u64);
        self.work.cpu(result.work.cpu_ops as u64);
        Ok(result)
    }

    /// Estimated cost of a statement under the deployed configuration,
    /// without charging what-if overhead (for reporting).
    pub fn estimated_cost_deployed(
        &self,
        database: &str,
        stmt: &Statement,
    ) -> Result<f64, ServerError> {
        let deployed = self.deployed();
        Ok(self.with_optimizer(|opt| opt.optimize(database, stmt, &deployed))?.cost)
    }
}

/// Row width of a catalog table (64 if unknown).
fn row_width(catalog: &Catalog, database: &str, table: &str) -> u32 {
    catalog.database(database).and_then(|d| d.table(table)).map_or(64, |t| t.row_width())
}

/// Width of a catalog column (8 if unknown).
fn column_width(catalog: &Catalog, database: &str, table: &str, column: &str) -> u32 {
    catalog
        .database(database)
        .and_then(|d| d.table(table))
        .and_then(|t| t.column(column))
        .map_or(8, |c| c.ty.width())
}

/// Table sizes over borrowed server state: what [`Server`]'s own
/// optimizer calls hand the optimizer, so that row counts resolve
/// through the statistics guard the call already holds instead of taking
/// the lock a second time (a recursive read deadlocks once a writer
/// queues between the two).
struct ServerSizes<'a> {
    catalog: &'a Catalog,
    store: &'a Store,
    stats: &'a StatisticsManager,
}

impl TableStatsProvider for ServerSizes<'_> {
    fn rows(&self, database: &str, table: &str) -> u64 {
        // data if we have it; otherwise imported statistics, then scripted
        // metadata row counts (metadata-only test servers, §5.3)
        if let Some(d) = self.store.table(database, table) {
            if d.rows() > 0 {
                return d.logical_rows();
            }
        }
        if let Some(n) = self.stats.for_table(database, table).iter().map(|s| s.row_count).max() {
            return n;
        }
        self.catalog.database(database).and_then(|d| d.table(table)).map_or(0, |t| t.rows)
    }

    fn row_width(&self, database: &str, table: &str) -> u32 {
        row_width(self.catalog, database, table)
    }

    fn column_width(&self, database: &str, table: &str, column: &str) -> u32 {
        column_width(self.catalog, database, table, column)
    }
}

/// For callers outside the server, which hold no statistics guard:
/// `rows` takes the statistics read lock itself.
impl TableStatsProvider for Server {
    fn rows(&self, database: &str, table: &str) -> u64 {
        self.sizes(&self.stats.read()).rows(database, table)
    }

    fn row_width(&self, database: &str, table: &str) -> u32 {
        row_width(&self.catalog, database, table)
    }

    fn column_width(&self, database: &str, table: &str, column: &str) -> u32 {
        column_width(&self.catalog, database, table, column)
    }
}

impl SizingInfo for Server {
    fn table_rows(&self, database: &str, table: &str) -> u64 {
        TableStatsProvider::rows(self, database, table)
    }

    fn column_width(&self, database: &str, table: &str, column: &str) -> u32 {
        TableStatsProvider::column_width(self, database, table, column)
    }

    fn view_rows(&self, view: &MaterializedView) -> u64 {
        self.view_rows_estimate(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Table, Value};
    use dta_sql::parse_statement;

    fn make_server() -> Server {
        let mut server = Server::new("prod");
        let mut db = Database::new("shop");
        db.add_table(
            Table::new(
                "item",
                vec![
                    Column::new("id", ColumnType::BigInt),
                    Column::new("cat", ColumnType::Int),
                    Column::new("price", ColumnType::Float),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        server.create_database(db).unwrap();
        let data = server.table_data_mut("shop", "item").unwrap();
        for i in 0..5000i64 {
            data.push_row(vec![Value::Int(i), Value::Int(i % 50), Value::Float(i as f64)]);
        }
        server
    }

    #[test]
    fn whatif_charges_overhead() {
        let server = make_server();
        assert_eq!(server.overhead_units(), 0.0);
        assert_eq!(server.whatif_invocations(), 0);
        let stmt = parse_statement("SELECT price FROM item WHERE cat = 3").unwrap();
        let plan = server.whatif("shop", &stmt, &Configuration::new()).unwrap();
        assert!(plan.cost > 0.0);
        assert!(server.overhead_units() >= WHATIF_BASE_UNITS);
        assert_eq!(server.whatif_invocations(), 1);
        server.reset_overhead();
        assert_eq!(server.whatif_invocations(), 1, "invocation tally survives meter resets");
    }

    #[test]
    fn statistics_creation_and_coverage() {
        let server = make_server();
        let key = StatKey::new("shop", "item", &["cat", "price"]);
        assert!(!server.statistics_cover(&key));
        let report = server.create_statistics(std::slice::from_ref(&key));
        assert_eq!(report.created, 1);
        assert!(report.work_units > 0.0);
        assert!(server.statistics_cover(&key));
        assert!(server.statistics_cover(&StatKey::new("shop", "item", &["cat"])));
    }

    #[test]
    fn stats_improve_estimates() {
        let server = make_server();
        let stmt = parse_statement("SELECT price FROM item WHERE cat = 3").unwrap();
        let before = server.whatif("shop", &stmt, &Configuration::new()).unwrap();
        server.create_statistics(&[StatKey::new("shop", "item", &["cat"])]);
        let after = server.whatif("shop", &stmt, &Configuration::new()).unwrap();
        // 50 categories: with stats the estimate should move toward 2%
        assert!((after.est_rows - 100.0).abs() < 50.0, "rows={}", after.est_rows);
        let _ = before;
    }

    #[test]
    fn raw_configuration_has_pk_indexes() {
        let server = make_server();
        let raw = server.raw_configuration();
        assert_eq!(raw.len(), 1);
        let s = raw.iter().next().unwrap();
        match s {
            PhysicalStructure::Index(ix) => {
                assert!(ix.enforces_constraint);
                assert_eq!(ix.key_columns, vec!["id"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deploy_and_execute() {
        let server = make_server();
        let stmt = parse_statement("SELECT COUNT(*) FROM item WHERE cat = 7").unwrap();
        server.deploy(Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("shop", "item", &["cat"], &[]),
        )]));
        let res = server.execute("shop", &stmt).unwrap();
        assert_eq!(res.rows[0][0], Value::Int(100));
        assert!(server.overhead_units() > 0.0);
    }

    #[test]
    fn metadata_roundtrip_between_servers() {
        let prod = make_server();
        let script = prod.export_metadata("shop").unwrap();
        let mut test = Server::new("test");
        test.import_metadata(&script).unwrap();
        assert!(test.catalog().database("shop").is_some());
        // no data came across
        assert_eq!(test.store().table("shop", "item").unwrap().rows(), 0);
        // but after importing statistics the test server knows row counts
        prod.create_statistics(&[StatKey::new("shop", "item", &["cat"])]);
        test.import_statistics(prod.export_statistics("shop"));
        assert_eq!(TableStatsProvider::rows(&test, "shop", "item"), 5000);
    }

    #[test]
    fn hardware_simulation() {
        let server = make_server();
        let small = HardwareParams::test_default();
        server.simulate_hardware(small);
        assert_eq!(server.hardware(), small);
    }

    #[test]
    fn overhead_reset() {
        let server = make_server();
        let stmt = parse_statement("SELECT id FROM item").unwrap();
        server.whatif("shop", &stmt, &Configuration::new()).unwrap();
        assert!(server.overhead_units() > 0.0);
        server.reset_overhead();
        assert_eq!(server.overhead_units(), 0.0);
    }

    #[test]
    fn prepare_charges_and_counts_nothing() {
        let server = make_server();
        let stmt = parse_statement("SELECT price FROM item WHERE cat = 3").unwrap();
        let prep = server.prepare("shop", &stmt);
        assert_eq!((server.whatif_invocations(), server.overhead_units()), (0, 0.0));
        assert_eq!(prep.epoch(), server.estimate_epoch());
        // pricing the preparation is the what-if call: same plan, same
        // charge, one invocation each
        let cfg = server.raw_configuration();
        let prepared = server.whatif_prepared(&prep, &cfg).unwrap();
        let charged = server.overhead_units();
        assert_eq!(server.whatif_invocations(), 1);
        assert_eq!(server.whatif("shop", &stmt, &cfg).unwrap(), prepared);
        assert_eq!(server.whatif_invocations(), 2);
        assert_eq!(server.overhead_units(), 2.0 * charged);
    }

    #[test]
    fn a_stale_preparation_is_refused_before_it_is_counted() {
        let server = make_server();
        let stmt = parse_statement("SELECT price FROM item WHERE cat = 3").unwrap();
        let cfg = Configuration::new();
        type Change<'c> = (&'c str, &'c dyn Fn(&Server));
        let changes: [Change<'_>; 3] = [
            ("create_statistic", &|s| {
                assert!(s.create_statistic(StatKey::new("shop", "item", &["cat"])));
            }),
            ("import_statistics", &|s| s.import_statistics(s.export_statistics("shop"))),
            ("simulate_hardware", &|s| s.simulate_hardware(HardwareParams::test_default())),
        ];
        for (what, change) in changes {
            let prep = server.prepare("shop", &stmt);
            let before = server.whatif_prepared(&prep, &cfg).unwrap();
            let (invocations, units) = (server.whatif_invocations(), server.overhead_units());
            change(&server);
            assert_ne!(prep.epoch(), server.estimate_epoch(), "{what} moves the epoch");
            assert!(
                matches!(server.whatif_prepared(&prep, &cfg), Err(ServerError::StalePreparation)),
                "{what}"
            );
            // refused: not counted, not charged (statistics creation
            // charges its own sampling, so compare after the change)
            assert_eq!(server.whatif_invocations(), invocations, "{what}");
            if what != "create_statistic" {
                assert_eq!(server.overhead_units(), units, "{what}");
            }
            // preparing again prices against the new state
            let again = server.whatif_prepared(&server.prepare("shop", &stmt), &cfg).unwrap();
            assert_eq!(again, server.whatif("shop", &stmt, &cfg).unwrap(), "{what}");
            if what == "create_statistic" {
                assert_ne!(again.est_rows, before.est_rows, "the statistic moved the estimate");
            }
        }
        // an unbindable statement prepares; the call fails as it always did
        let bad = parse_statement("SELECT nope FROM item").unwrap();
        let prep = server.prepare("shop", &bad);
        let invocations = server.whatif_invocations();
        assert!(matches!(server.whatif_prepared(&prep, &cfg), Err(ServerError::Bind(_))));
        assert_eq!(server.whatif_invocations(), invocations + 1, "counted before it fails");
    }

    /// `whatif` used to hold the statistics read guard and take it again
    /// for the size of every table without stored rows (their row counts
    /// come from statistics); with a writer queued between the two reads,
    /// neither side can proceed. A watchdog bounds the test: the workers
    /// report over a channel and are joined only once both have.
    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the two threads are joined before the test returns"
    )]
    fn whatif_and_statistics_creation_do_not_deadlock() {
        use std::sync::{mpsc, Arc, Barrier};
        use std::time::Duration;

        let mut server = Server::new("test");
        let mut db = Database::new("shop");
        for name in ["item", "archive"] {
            db.add_table(Table::new(
                name,
                vec![Column::new("id", ColumnType::BigInt), Column::new("cat", ColumnType::Int)],
            ))
            .unwrap();
        }
        server.create_database(db).unwrap();
        // `item` has rows to sample statistics from; `archive` has none
        let data = server.table_data_mut("shop", "item").unwrap();
        for i in 0..2000i64 {
            data.push_row(vec![Value::Int(i), Value::Int(i % 50)]);
        }

        let server = Arc::new(server);
        let start = Arc::new(Barrier::new(2));
        let (done, finished) = mpsc::channel();
        let reader = {
            let (server, start, done) = (Arc::clone(&server), Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                let stmt = parse_statement(
                    "SELECT a.cat FROM archive AS a, archive AS b, item WHERE a.id = b.cat \
                     AND b.id = item.id AND item.cat = 3",
                )
                .unwrap();
                let cfg = server.raw_configuration();
                start.wait();
                for _ in 0..2000 {
                    server.whatif("shop", &stmt, &cfg).unwrap();
                }
                done.send("what-if calls").unwrap();
            })
        };
        let writer = {
            let (server, start) = (Arc::clone(&server), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..200 {
                    let column = ["id", "cat"][i % 2];
                    assert!(server.create_statistic(StatKey::new("shop", "item", &[column])));
                }
                done.send("statistics creation").unwrap();
            })
        };
        for _ in 0..2 {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("what-if calls and statistics creation deadlocked");
        }
        reader.join().unwrap();
        writer.join().unwrap();
    }
}
