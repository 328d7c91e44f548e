//! The §7 experiments.

use dta::advisor::{tune, workload_cost, AlignmentMode, FeatureSet, TuningOptions};
use dta::baselines::{tune_itw, tune_staged, StagePlan};
use dta::prelude::*;
use dta::workload::cust::{build as build_cust, CustId};
use dta::workload::{psoft, synt1, tpch};

/// Fraction of the paper's event counts to generate for the customer /
/// PSOFT / SYNT1 workloads. 1.0 reproduces full scale; smaller runs are
/// proportionally faster with the same shapes.
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    pub events_fraction: f64,
    pub tpch_sf: f64,
}

impl RunScale {
    /// Quick: minutes, shapes intact.
    pub fn quick() -> Self {
        Self { events_fraction: 0.02, tpch_sf: 0.002 }
    }

    /// Default report scale.
    pub fn standard() -> Self {
        Self { events_fraction: 0.05, tpch_sf: 0.005 }
    }
}

/// Quality of a configuration relative to raw: `(C_raw − C_cfg) / C_raw`.
pub fn quality(
    target: &TuningTarget<'_>,
    workload: &Workload,
    raw: &Configuration,
    cfg: &Configuration,
) -> f64 {
    let c_raw = workload_cost(target, workload, raw).expect("raw cost");
    let c_cfg = workload_cost(target, workload, cfg).expect("cfg cost");
    if c_raw <= 0.0 {
        return 0.0;
    }
    1.0 - c_cfg / c_raw
}

// ---- Table 1 -------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub name: &'static str,
    pub size_gb: f64,
    pub databases: usize,
    pub tables: usize,
    pub paper_size_gb: f64,
    pub paper_databases: usize,
    pub paper_tables: usize,
}

/// Regenerate Table 1: the customer database profiles.
pub fn table1(scale: RunScale) -> Vec<Table1Row> {
    CustId::all()
        .into_iter()
        .map(|id| {
            let b = build_cust(id, scale.events_fraction.min(0.01), 42);
            let (paper_gb, paper_dbs, paper_tables) = id.paper_profile();
            Table1Row {
                name: id.name(),
                size_gb: b.server.total_data_bytes() as f64 / (1u64 << 30) as f64,
                databases: b.databases.len(),
                tables: b.server.catalog().total_table_count(),
                paper_size_gb: paper_gb,
                paper_databases: paper_dbs,
                paper_tables,
            }
        })
        .collect()
}

// ---- Table 2 -------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub name: &'static str,
    pub quality_hand: f64,
    pub quality_dta: f64,
    pub events_tuned: f64,
    pub tuning_work_units: f64,
    pub paper_quality_hand: f64,
    pub paper_quality_dta: f64,
}

/// Regenerate Table 2: DTA vs hand-tuned design on CUST1–4.
pub fn table2(scale: RunScale) -> Vec<Table2Row> {
    let paper = [(0.82, 0.87), (0.06, 0.41), (-0.05, 0.0), (0.0, 0.50)];
    CustId::all()
        .into_iter()
        .zip(paper)
        .map(|(id, (ph, pd))| {
            let b = build_cust(id, scale.events_fraction, 42);
            let target = TuningTarget::Single(&b.server);
            let raw = b.server.raw_configuration();
            let hand = b.hand_tuned.clone().expect("customer benchmarks have hand tuning");
            let result = tune(&target, &b.workload, &TuningOptions::default())
                .expect("customer workload tunes");
            Table2Row {
                name: id.name(),
                quality_hand: quality(&target, &b.workload, &raw, &hand),
                quality_dta: quality(&target, &b.workload, &raw, &result.recommendation),
                events_tuned: b.workload.total_events(),
                tuning_work_units: result.tuning_work_units,
                paper_quality_hand: ph,
                paper_quality_dta: pd,
            }
        })
        .collect()
}

// ---- §7.2 TPC-H ------------------------------------------------------------

/// The §7.2 result.
#[derive(Debug, Clone)]
pub struct TpchQuality {
    pub expected_improvement: f64,
    pub actual_improvement: f64,
    pub storage_bound_bytes: u64,
    pub storage_used_bytes: u64,
    /// Paper: 88% expected, 83% actual.
    pub paper_expected: f64,
    pub paper_actual: f64,
}

/// Regenerate §7.2: estimated vs actual improvement on TPC-H with a 3×
/// storage bound.
pub fn tpch_quality(scale: RunScale) -> TpchQuality {
    let server = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 10.0), 42);
    let workload = tpch::workload();
    let target = TuningTarget::Single(&server);
    let storage = server.total_data_bytes() * 3;
    let result = tune(
        &target,
        &workload,
        &TuningOptions { storage_bytes: Some(storage), ..Default::default() },
    )
    .expect("TPC-H tunes");

    let mut raw_work = 0.0;
    let mut tuned_work = 0.0;
    server.deploy(server.raw_configuration());
    for item in &workload.items {
        raw_work +=
            server.execute(&item.database, &item.statement).expect("raw run").work.work_units();
    }
    server.deploy(result.recommendation.clone());
    for item in &workload.items {
        tuned_work +=
            server.execute(&item.database, &item.statement).expect("tuned run").work.work_units();
    }
    TpchQuality {
        expected_improvement: result.expected_improvement(),
        actual_improvement: 1.0 - tuned_work / raw_work,
        storage_bound_bytes: storage,
        storage_used_bytes: result.storage_bytes,
        paper_expected: 0.88,
        paper_actual: 0.83,
    }
}

// ---- Figure 3 -------------------------------------------------------------

/// One bar of Figure 3.
#[derive(Debug, Clone)]
pub struct Figure3Row {
    pub label: &'static str,
    pub direct_overhead: f64,
    pub prodtest_overhead: f64,
    pub reduction: f64,
    pub paper_reduction: f64,
}

/// Regenerate Figure 3: reduction in production-server overhead when a
/// test server is exploited, for Q1/all-22 × indexes-only/all-features.
pub fn figure3(scale: RunScale) -> Vec<Figure3Row> {
    let full = tpch::workload();
    let q1 = Workload::from_items(vec![full.items[0].clone()]);
    let cases: [(&'static str, &Workload, FeatureSet, f64); 4] = [
        ("TPCHQ1-I", &q1, FeatureSet::indexes_only(), 0.60),
        ("TPCHQ1-A", &q1, FeatureSet::indexes_and_views(), 0.70),
        ("TPCH22-I", &full, FeatureSet::indexes_only(), 0.85),
        ("TPCH22-A", &full, FeatureSet::indexes_and_views(), 0.90),
    ];
    cases
        .into_iter()
        .map(|(label, workload, features, paper)| {
            let options = TuningOptions { features, parallel_workers: 1, ..Default::default() };

            // direct: everything on the production server
            let production = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
            production.reset_overhead();
            tune(&TuningTarget::Single(&production), workload, &options).expect("tunes");
            let direct = production.overhead_units();

            // via test server: production pays only for statistics
            let production = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
            let mut test = Server::new("test");
            prepare_test_server(&production, &mut test).expect("prep");
            production.reset_overhead();
            test.reset_overhead();
            tune(
                &TuningTarget::ProdTest { production: &production, test: &test },
                workload,
                &options,
            )
            .expect("tunes");
            let prodtest = production.overhead_units();

            Figure3Row {
                label,
                direct_overhead: direct,
                prodtest_overhead: prodtest,
                reduction: 1.0 - prodtest / direct.max(1e-9),
                paper_reduction: paper,
            }
        })
        .collect()
}

// ---- Table 3 -------------------------------------------------------------

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub name: &'static str,
    pub quality_loss: f64,
    pub speedup: f64,
    pub statements_full: usize,
    pub statements_compressed: usize,
    pub paper_quality_loss: f64,
    pub paper_speedup: f64,
}

fn compression_case(
    name: &'static str,
    server: &Server,
    workload: &Workload,
    paper_loss: f64,
    paper_speedup: f64,
) -> Table3Row {
    let target = TuningTarget::Single(server);
    let raw = server.raw_configuration();

    server.reset_overhead();
    let with = tune(&target, workload, &TuningOptions { compress: true, ..Default::default() })
        .expect("tunes");
    let with_units = with.tuning_work_units;

    server.reset_overhead();
    let without = tune(&target, workload, &TuningOptions { compress: false, ..Default::default() })
        .expect("tunes");
    let without_units = without.tuning_work_units;

    let q_with = quality(&target, workload, &raw, &with.recommendation);
    let q_without = quality(&target, workload, &raw, &without.recommendation);
    Table3Row {
        name,
        quality_loss: (q_without - q_with).max(0.0),
        speedup: without_units / with_units.max(1e-9),
        statements_full: without.statements_tuned,
        statements_compressed: with.statements_tuned,
        paper_quality_loss: paper_loss,
        paper_speedup,
    }
}

/// Regenerate Table 3: workload compression on TPCH22, PSOFT, SYNT1.
/// `each` sees every row as soon as it is measured, so a run cut short
/// keeps the rows before the cut.
pub fn table3(scale: RunScale, mut each: impl FnMut(&Table3Row)) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    let mut done = |row: Table3Row| {
        each(&row);
        rows.push(row);
    };
    {
        let server = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
        done(compression_case("TPCH22", &server, &tpch::workload(), 0.01, 1.0));
    }
    {
        let b = psoft::build(scale.events_fraction * 10.0, 42);
        done(compression_case("PSOFT", &b.server, &b.workload, 0.005, 5.8));
    }
    {
        let b = synt1::build(scale.events_fraction * 10.0, 42);
        done(compression_case("SYNT1", &b.server, &b.workload, 0.01, 43.0));
    }
    rows
}

// ---- §7.5 reduced statistics creation ---------------------------------------

/// One row of the §7.5 experiment.
#[derive(Debug, Clone)]
pub struct StatsReductionRow {
    pub name: &'static str,
    pub created_naive: usize,
    pub created_reduced: usize,
    pub time_naive: f64,
    pub time_reduced: f64,
    pub quality_delta: f64,
    pub paper_count_reduction: f64,
    pub paper_time_reduction: f64,
}

impl StatsReductionRow {
    pub fn count_reduction(&self) -> f64 {
        1.0 - self.created_reduced as f64 / self.created_naive.max(1) as f64
    }

    pub fn time_reduction(&self) -> f64 {
        1.0 - self.time_reduced / self.time_naive.max(1e-9)
    }
}

fn stats_case<F>(
    name: &'static str,
    build: F,
    workload: &Workload,
    paper_count: f64,
    paper_time: f64,
) -> StatsReductionRow
where
    F: Fn() -> Server,
{
    let run = |reduce: bool| {
        let server = build();
        let target = TuningTarget::Single(&server);
        let result = tune(
            &target,
            workload,
            &TuningOptions { reduce_statistics: reduce, ..Default::default() },
        )
        .expect("tunes");
        let raw = server.raw_configuration();
        let q = quality(&target, workload, &raw, &result.recommendation);
        (result.stats_created, result.stats_work_units, q)
    };
    let (created_naive, time_naive, q_naive) = run(false);
    let (created_reduced, time_reduced, q_reduced) = run(true);
    StatsReductionRow {
        name,
        created_naive,
        created_reduced,
        time_naive,
        time_reduced,
        quality_delta: (q_naive - q_reduced).abs(),
        paper_count_reduction: paper_count,
        paper_time_reduction: paper_time,
    }
}

/// Regenerate §7.5: reduced statistics creation on TPC-H and PSOFT.
pub fn stats_reduction(scale: RunScale) -> Vec<StatsReductionRow> {
    let tpch_workload = tpch::workload();
    let psoft_bench = psoft::build(scale.events_fraction * 4.0, 42);
    let psoft_workload = psoft_bench.workload.clone();
    vec![
        stats_case(
            "TPC-H",
            || tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 10.0), 42),
            &tpch_workload,
            0.55,
            0.62,
        ),
        stats_case(
            "PSOFT",
            || psoft::build(scale.events_fraction * 4.0, 42).server,
            &psoft_workload,
            0.24,
            0.31,
        ),
    ]
}

// ---- Figures 4 & 5 ----------------------------------------------------------

/// One bar pair of Figures 4 and 5.
#[derive(Debug, Clone)]
pub struct ItwComparisonRow {
    pub name: &'static str,
    pub dta_quality: f64,
    pub itw_quality: f64,
    pub dta_work_units: f64,
    pub itw_work_units: f64,
}

impl ItwComparisonRow {
    /// Figure 5's y-axis: DTA running time as a fraction of ITW's.
    pub fn dta_time_fraction(&self) -> f64 {
        self.dta_work_units / self.itw_work_units.max(1e-9)
    }
}

/// Regenerate Figures 4 and 5: DTA vs ITW on TPCH22, PSOFT, SYNT1
/// (indexes + views only, for fairness — ITW cannot partition). `each`
/// sees every row as soon as it is measured, so a run cut short keeps the
/// rows before the cut.
pub fn dta_vs_itw(
    scale: RunScale,
    mut each: impl FnMut(&ItwComparisonRow),
) -> Vec<ItwComparisonRow> {
    let mut rows = Vec::new();
    let mut run = |name: &'static str, server: &Server, workload: &Workload| {
        let target = TuningTarget::Single(server);
        let raw = server.raw_configuration();
        server.reset_overhead();
        let dta_result = tune(
            &target,
            workload,
            &TuningOptions { features: FeatureSet::indexes_and_views(), ..Default::default() },
        )
        .expect("DTA tunes");
        let itw_result = tune_itw(&target, workload, None).expect("ITW tunes");
        let row = ItwComparisonRow {
            name,
            dta_quality: quality(&target, workload, &raw, &dta_result.recommendation),
            itw_quality: quality(&target, workload, &raw, &itw_result.recommendation),
            dta_work_units: dta_result.tuning_work_units,
            itw_work_units: itw_result.tuning_work_units,
        };
        each(&row);
        rows.push(row);
    };
    {
        let server = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
        run("TPCH22", &server, &tpch::workload());
    }
    {
        let b = psoft::build(scale.events_fraction * 10.0, 42);
        run("PSOFT", &b.server, &b.workload);
    }
    {
        let b = synt1::build(scale.events_fraction * 10.0, 42);
        run("SYNT1", &b.server, &b.workload);
    }
    rows
}

// ---- §3 staged-vs-integrated ablation ---------------------------------------

/// Outcome of the staged-vs-integrated ablation.
#[derive(Debug, Clone)]
pub struct StagedAblation {
    pub integrated_quality: f64,
    pub staged_quality: f64,
}

/// Regenerate the Example-2 ablation on TPC-H (indexes + partitioning).
pub fn staged_vs_integrated(scale: RunScale) -> StagedAblation {
    let server = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
    let workload = tpch::workload();
    let target = TuningTarget::Single(&server);
    let raw = server.raw_configuration();
    let base = TuningOptions {
        features: FeatureSet { indexes: true, views: false, partitioning: true },
        ..Default::default()
    };
    let integrated = tune(&target, &workload, &base).expect("integrated tunes");
    let staged = tune_staged(
        &target,
        &workload,
        &[
            StagePlan { features: FeatureSet::indexes_only(), storage_bytes: None },
            StagePlan {
                features: FeatureSet { indexes: false, views: false, partitioning: true },
                storage_bytes: None,
            },
        ],
        &base,
    )
    .expect("staged tunes");
    StagedAblation {
        integrated_quality: quality(&target, &workload, &raw, &integrated.recommendation),
        staged_quality: quality(&target, &workload, &raw, &staged.recommendation),
    }
}

// ---- §4 lazy-vs-eager alignment ablation -------------------------------------

/// Outcome of the alignment ablation.
#[derive(Debug, Clone)]
pub struct AlignmentAblation {
    pub lazy_pool: usize,
    pub eager_pool: usize,
    pub lazy_work_units: f64,
    pub eager_work_units: f64,
    pub lazy_quality: f64,
    pub eager_quality: f64,
}

/// Regenerate the §4 ablation: lazy vs eager introduction of aligned
/// candidates during enumeration.
pub fn alignment_ablation(scale: RunScale) -> AlignmentAblation {
    let workload = tpch::workload();
    let run = |mode: AlignmentMode| {
        let server = tpch::build_server(tpch::TpchScale::new(scale.tpch_sf, 1.0), 42);
        let target = TuningTarget::Single(&server);
        let raw = server.raw_configuration();
        server.reset_overhead();
        let result =
            tune(&target, &workload, &TuningOptions { alignment: mode, ..Default::default() })
                .expect("tunes");
        assert!(result.recommendation.is_aligned());
        (
            result.pool_size,
            result.tuning_work_units,
            quality(&target, &workload, &raw, &result.recommendation),
        )
    };
    let (lazy_pool, lazy_units, lazy_q) = run(AlignmentMode::Lazy);
    let (eager_pool, eager_units, eager_q) = run(AlignmentMode::Eager);
    AlignmentAblation {
        lazy_pool,
        eager_pool,
        lazy_work_units: lazy_units,
        eager_work_units: eager_units,
        lazy_quality: lazy_q,
        eager_quality: eager_q,
    }
}
