//! The per-layer ladder: after a traced session, replay workload
//! statements through each layer's public functions, one rung per layer,
//! under the raw configuration and under the session's recommendation.
//! Each rung is the median over [`REPS`] passes of nanoseconds per
//! statement.

use crate::metrics::{median, Values};
use dta::advisor::cost::CostEvaluator;
use dta::optimizer::query::bind;
use dta::prelude::*;
use dta::sql::signature;
use std::hint::black_box;
use std::time::Instant;

/// Passes per rung.
pub const REPS: usize = 9;
/// Statements replayed, over all parts.
pub const MAX_STATEMENTS: usize = 200;

/// One (server, statements, recommendation) the ladder replays: a solo
/// workload has one part, the fleet one per tenant. The server is the one
/// the session tuned, so its statistics are those the session created.
#[derive(Clone, Copy)]
pub struct Part<'a> {
    pub server: &'a Server,
    pub items: &'a [WorkloadItem],
    pub recommendation: &'a Configuration,
}

/// Median over [`REPS`] passes of `pass`'s time, per operation.
fn rung(ops: usize, mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&times)
}

/// Run every rung and record it in `values`.
pub fn run(parts: &[Part<'_>], values: &mut Values) {
    let per_part = MAX_STATEMENTS / parts.len().max(1);
    let parts: Vec<Part<'_>> = parts
        .iter()
        .map(|p| Part { items: &p.items[..p.items.len().min(per_part)], ..*p })
        .collect();
    let ops: usize = parts.iter().map(|p| p.items.len()).sum();
    if ops == 0 {
        return;
    }
    let raws: Vec<Configuration> = parts.iter().map(|p| p.server.raw_configuration()).collect();

    // dta-sql
    let texts: Vec<Vec<String>> =
        parts.iter().map(|p| p.items.iter().map(|i| i.statement.to_string()).collect()).collect();
    values.set(
        "sql.parse_ns",
        rung(ops, || {
            for text in texts.iter().flatten() {
                black_box(parse_statement(black_box(text)).expect("printed statements parse"));
            }
        }),
    );
    values.set(
        "sql.signature_ns",
        rung(ops, || {
            for item in parts.iter().flat_map(|p| p.items) {
                black_box(signature(black_box(&item.statement)));
            }
        }),
    );

    // dta-optimizer: binding alone, then a whole optimization
    values.set(
        "optimizer.bind_ns",
        rung(ops, || {
            for p in &parts {
                for item in p.items {
                    black_box(
                        bind(p.server.catalog(), &item.database, &item.statement)
                            .expect("workload statements bind"),
                    );
                }
            }
        }),
    );
    let optimize = |configs: &[&Configuration]| {
        rung(ops, || {
            for (p, config) in parts.iter().zip(configs) {
                p.server.with_statistics(|stats| {
                    let optimizer = WhatIfOptimizer::new(
                        p.server.catalog(),
                        stats,
                        p.server,
                        p.server.hardware(),
                    );
                    for item in p.items {
                        black_box(
                            optimizer
                                .optimize(&item.database, &item.statement, config)
                                .expect("workload statements optimize"),
                        );
                    }
                });
            }
        })
    };
    let raw_refs: Vec<&Configuration> = raws.iter().collect();
    let rec_refs: Vec<&Configuration> = parts.iter().map(|p| p.recommendation).collect();
    values.set("optimizer.optimize_raw_ns", optimize(&raw_refs));
    values.set("optimizer.optimize_rec_ns", optimize(&rec_refs));

    // dta-server: the same optimization through `Server::whatif`, which
    // adds the statistics lock, work metering and `referenced_tables()`
    let whatif = |configs: &[&Configuration]| {
        rung(ops, || {
            for (p, config) in parts.iter().zip(configs) {
                for item in p.items {
                    black_box(
                        p.server
                            .whatif(&item.database, &item.statement, config)
                            .expect("workload statements price"),
                    );
                }
            }
        })
    };
    values.set("server.whatif_raw_ns", whatif(&raw_refs));
    values.set("server.whatif_rec_ns", whatif(&rec_refs));

    // dta-core::cost: a fresh evaluator per pass; its first pricing of
    // each statement is a miss, its second a hit
    let targets: Vec<TuningTarget<'_>> =
        parts.iter().map(|p| TuningTarget::Single(p.server)).collect();
    let mut miss = Vec::with_capacity(REPS);
    let mut hit = Vec::with_capacity(REPS);
    let mut workload_cost = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let evaluators: Vec<CostEvaluator<'_>> =
            parts.iter().zip(&targets).map(|(p, t)| CostEvaluator::new(t, p.items)).collect();
        let price_all = || {
            let start = Instant::now();
            for (p, evaluator) in parts.iter().zip(&evaluators) {
                for i in 0..p.items.len() {
                    black_box(evaluator.item_cost(i, p.recommendation).expect("workload prices"));
                }
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        };
        miss.push(price_all());
        hit.push(price_all());
        let start = Instant::now();
        for (p, evaluator) in parts.iter().zip(&evaluators) {
            black_box(evaluator.workload_cost(p.recommendation).expect("workload prices"));
        }
        workload_cost.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    values.set("cost.miss_ns", median(&miss));
    values.set("cost.hit_ns", median(&hit));
    values.set("cost.workload_cost_us", median(&workload_cost));
}
