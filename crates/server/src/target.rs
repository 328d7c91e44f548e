//! Tuning targets: single-server and production/test-server tuning.
//!
//! §5.3: DTA can exploit a test server to tune a production database
//! *without copying the data*. Metadata and statistics are imported into
//! the test server; the test server simulates the production hardware;
//! what-if calls run on the test server; only statistics creation (which
//! needs the actual data) touches the production server.

use crate::server::{Server, StatsCreationReport};
use crate::ServerError;
use dta_catalog::Catalog;
use dta_optimizer::{Plan, PreparedStatement};
use dta_physical::{Configuration, MaterializedView};
use dta_sql::Statement;
use dta_stats::{reduce_statistics, StatKey};

/// Where DTA's server interactions go.
pub enum TuningTarget<'a> {
    /// Everything runs on one server.
    Single(&'a Server),
    /// What-if calls on `test`, statistics creation on `production`.
    ProdTest { production: &'a Server, test: &'a Server },
}

impl<'a> TuningTarget<'a> {
    /// The server what-if calls and catalog reads go to.
    pub fn whatif_server(&self) -> &'a Server {
        match self {
            TuningTarget::Single(s) => s,
            TuningTarget::ProdTest { test, .. } => test,
        }
    }

    /// The server holding the actual data.
    pub fn data_server(&self) -> &'a Server {
        match self {
            TuningTarget::Single(s) => s,
            TuningTarget::ProdTest { production, .. } => production,
        }
    }

    /// Catalog the advisor tunes against.
    pub fn catalog(&self) -> &'a Catalog {
        self.whatif_server().catalog()
    }

    /// A what-if optimizer call.
    pub fn whatif(
        &self,
        database: &str,
        stmt: &Statement,
        config: &Configuration,
    ) -> Result<Plan, ServerError> {
        self.whatif_server().whatif(database, stmt, config)
    }

    /// Prepare a statement on the what-if server (see
    /// [`Server::prepare`]).
    pub fn prepare(&self, database: &str, stmt: &Statement) -> PreparedStatement {
        self.whatif_server().prepare(database, stmt)
    }

    /// A what-if optimizer call for a prepared statement.
    pub fn whatif_prepared(
        &self,
        prep: &PreparedStatement,
        config: &Configuration,
    ) -> Result<Plan, ServerError> {
        self.whatif_server().whatif_prepared(prep, config)
    }

    /// Estimate epoch of the what-if server: preparations made in
    /// another epoch are stale.
    pub fn estimate_epoch(&self) -> u64 {
        self.whatif_server().estimate_epoch()
    }

    /// Estimated row count of a hypothetical view.
    pub fn view_rows_estimate(&self, view: &MaterializedView) -> u64 {
        self.whatif_server().view_rows_estimate(view)
    }

    /// Ensure the statistics `required` (by the indexes/views under
    /// consideration) exist where what-if calls run.
    ///
    /// With `use_reduction` the §5.2 greedy covering first eliminates
    /// redundant statistics; without it, every non-covered statistic is
    /// created (the naïve strategy, kept for the §7.5 experiment).
    ///
    /// Creation always happens on the data server (sampling needs data);
    /// in the production/test scenario the new statistics are then
    /// imported into the test server.
    pub fn ensure_statistics(
        &self,
        required: &[StatKey],
        use_reduction: bool,
    ) -> StatsCreationReport {
        let whatif_server = self.whatif_server();
        let to_create: Vec<StatKey> = if use_reduction {
            whatif_server.with_statistics(|existing| reduce_statistics(required, existing)).chosen
        } else {
            let mut uncovered: Vec<StatKey> = Vec::new();
            for k in required {
                if !whatif_server.statistics_cover(k) && !uncovered.contains(k) {
                    uncovered.push(k.clone());
                }
            }
            uncovered
        };
        let report = self.data_server().create_statistics(&to_create);
        if let TuningTarget::ProdTest { production, test } = self {
            // ship only the statistics for affected databases
            let mut dbs: Vec<&str> = to_create.iter().map(|k| k.database.as_str()).collect();
            dbs.sort_unstable();
            dbs.dedup();
            for db in dbs {
                test.import_statistics(production.export_statistics(db));
            }
        }
        StatsCreationReport { requested: required.len(), ..report }
    }
}

/// Set up a test server for tuning a production server (§5.3 Step 1):
/// import metadata of every database (no data), copy existing statistics,
/// and simulate the production hardware.
pub fn prepare_test_server(production: &Server, test: &mut Server) -> Result<(), ServerError> {
    let dbs: Vec<String> = production.catalog().databases().map(|d| d.name.clone()).collect();
    for db in &dbs {
        let script = production.export_metadata(db)?;
        test.import_metadata(&script)?;
        test.import_statistics(production.export_statistics(db));
    }
    test.simulate_hardware(production.hardware());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};
    use dta_sql::parse_statement;

    fn production() -> Server {
        let mut server = Server::new("prod");
        let mut db = Database::new("d");
        db.add_table(Table::new(
            "t",
            vec![Column::new("a", ColumnType::Int), Column::new("b", ColumnType::Int)],
        ))
        .unwrap();
        server.create_database(db).unwrap();
        let data = server.table_data_mut("d", "t").unwrap();
        for i in 0..10_000i64 {
            data.push_row(vec![Value::Int(i % 100), Value::Int(i)]);
        }
        server
    }

    #[test]
    fn prod_test_routing() {
        let prod = production();
        let mut test = Server::new("test");
        prepare_test_server(&prod, &mut test).unwrap();
        let target = TuningTarget::ProdTest { production: &prod, test: &test };

        prod.reset_overhead();
        test.reset_overhead();

        // stats creation lands on production
        let report = target.ensure_statistics(&[StatKey::new("d", "t", &["a"])], true);
        assert_eq!(report.created, 1);
        assert!(prod.overhead_units() > 0.0, "stats sampling runs on production");

        let prod_after_stats = prod.overhead_units();

        // what-if calls land on the test server only
        let stmt = parse_statement("SELECT b FROM t WHERE a = 5").unwrap();
        for _ in 0..10 {
            target.whatif("d", &stmt, &Configuration::new()).unwrap();
        }
        assert_eq!(prod.overhead_units(), prod_after_stats);
        assert!(test.overhead_units() > 0.0);
    }

    #[test]
    fn test_server_estimates_match_production() {
        // §5.3's premise: with metadata + statistics + hardware simulation,
        // the test server produces the same plans/costs as production would
        let prod = production();
        prod.create_statistics(&[StatKey::new("d", "t", &["a"]), StatKey::new("d", "t", &["b"])]);
        let mut test = Server::new("test");
        prepare_test_server(&prod, &mut test).unwrap();

        let stmt = parse_statement("SELECT b FROM t WHERE a = 5").unwrap();
        let cfg = Configuration::from_structures([dta_physical::PhysicalStructure::Index(
            dta_physical::Index::non_clustered("d", "t", &["a"], &["b"]),
        )]);
        let on_prod = prod.whatif("d", &stmt, &cfg).unwrap();
        let on_test = test.whatif("d", &stmt, &cfg).unwrap();
        assert!(
            (on_prod.cost - on_test.cost).abs() < 1e-9,
            "prod {} vs test {}",
            on_prod.cost,
            on_test.cost
        );
        assert_eq!(on_prod.used_structures(), on_test.used_structures());
    }

    #[test]
    fn reduction_creates_fewer_statistics() {
        let prod = production();
        let target = TuningTarget::Single(&prod);
        let required = vec![
            StatKey::new("d", "t", &["a"]),
            StatKey::new("d", "t", &["a", "b"]),
            StatKey::new("d", "t", &["b", "a"]),
            StatKey::new("d", "t", &["b"]),
        ];
        let report = target.ensure_statistics(&required, true);
        assert!(report.created < required.len(), "created={}", report.created);
        // everything is covered afterwards
        for k in &required {
            assert!(prod.statistics_cover(k), "{k:?} not covered");
        }
    }

    #[test]
    fn naive_creates_all_uncovered() {
        let prod = production();
        let target = TuningTarget::Single(&prod);
        let required = vec![StatKey::new("d", "t", &["a"]), StatKey::new("d", "t", &["a", "b"])];
        let report = target.ensure_statistics(&required, false);
        assert_eq!(report.created, 2);
    }
}
