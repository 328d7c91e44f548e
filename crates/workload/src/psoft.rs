//! PSOFT: a PeopleSoft-application-like workload (§7.4).
//!
//! The paper describes it as a customer database of ~0.75 GB whose
//! workload contains about 6 000 queries, inserts, updates and deletes,
//! heavily templatized (DTA's compression ends up tuning ~10% of it).

// A benchmark generator over fixed, known-good schemas and SQL: `tune()`
// never calls it, so R11's panic lints do not apply.
#![allow(clippy::indexing_slicing, reason = "a benchmark generator: tune() never calls it")]

use crate::gen_util::{build_database, rand_a, TableSpec};
use crate::model::{Workload, WorkloadItem};
use crate::Benchmark;
use dta_server::Server;
use dta_sql::parse_statement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parameterized statement generator.
type Template = Box<dyn Fn(&mut StdRng) -> String>;

/// Database name.
pub const DB: &str = "psoft";

/// Number of statements in the full workload.
pub const EVENTS: usize = 6_000;

/// Build the PSOFT benchmark. `events_fraction` scales the 6 000-event
/// workload.
pub fn build(events_fraction: f64, seed: u64) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = Server::new("PSOFT");

    // ~40 tables, a handful hot; ~0.75 GB presented
    let mut specs = Vec::new();
    for t in 0..40 {
        let name = format!("ps_rec{:02}", t);
        let spec = if t < 8 {
            TableSpec::new(&name, 15_000).scale(40.0).distincts(400, 25)
        } else {
            TableSpec::new(&name, 500).distincts(50, 5).pad(60)
        };
        specs.push(spec);
    }
    build_database(&mut server, DB, &specs, &mut rng);

    // ~55 templates over the hot tables: the stored-procedure feel
    let hot: Vec<&TableSpec> = specs.iter().take(8).collect();
    let mut templates: Vec<Template> = Vec::new();
    for (i, spec) in hot.iter().enumerate() {
        let t = spec.name.clone();
        let rows = spec.rows as i64;
        let spec_a = spec.distinct_a;
        // point select by key
        templates.push(Box::new({
            let t = t.clone();
            move |rng| format!("SELECT a, c, pad FROM {t} WHERE k = {}", rng.gen_range(0..rows))
        }));
        // select by category
        templates.push(Box::new({
            let t = t.clone();
            move |rng| format!("SELECT k, pad FROM {t} WHERE a = {}", rng.gen_range(0..spec_a))
        }));
        // grouped report
        templates.push(Box::new({
            let t = t.clone();
            move |rng| {
                let lo = rng.gen_range(0..spec_a.max(2) - 1);
                format!(
                    "SELECT b, COUNT(*), AVG(c) FROM {t} WHERE a BETWEEN {lo} AND {} GROUP BY b",
                    lo + spec_a / 10 + 1
                )
            }
        }));
        // update by key
        templates.push(Box::new({
            let t = t.clone();
            move |rng| {
                format!(
                    "UPDATE {t} SET c = {}, d = {} WHERE k = {}",
                    rng.gen_range(0..1000),
                    rng.gen_range(0..100),
                    rng.gen_range(0..rows)
                )
            }
        }));
        // insert
        templates.push(Box::new({
            let t = t.clone();
            move |rng| {
                format!(
                    "INSERT INTO {t} VALUES ({}, {}, {}, {}, {}, 'newrow')",
                    rows + rng.gen_range(0..100_000),
                    rng.gen_range(0..spec_a),
                    rng.gen_range(0..25),
                    rng.gen_range(0..1000),
                    rng.gen_range(0..100),
                )
            }
        }));
        // delete (only for a few tables)
        if i < 3 {
            templates.push(Box::new({
                let t = t.clone();
                move |rng| format!("DELETE FROM {t} WHERE k = {}", rng.gen_range(0..rows))
            }));
        }
        // join to the next hot table
        if i + 1 < hot.len() {
            let t2 = hot[i + 1].name.clone();
            templates.push(Box::new({
                let t = t.clone();
                move |rng| {
                    format!(
                        "SELECT {t}.pad FROM {t}, {t2} WHERE {t}.k = {t2}.k AND {t2}.a = {}",
                        rng.gen_range(0..spec_a)
                    )
                }
            }));
        }
    }

    let total = ((EVENTS as f64 * events_fraction).round() as usize).max(50);
    let mut items = Vec::with_capacity(total);
    for _ in 0..total {
        let sql = templates[rng.gen_range(0..templates.len())](&mut rng);
        items.push(WorkloadItem::new(DB, parse_statement(&sql).expect("generated SQL parses")));
    }

    let databases = vec![DB.to_string()];
    let _ = rand_a; // referenced for symmetry with other generators
    Benchmark {
        name: "PSOFT".to_string(),
        server,
        workload: Workload::from_items(items),
        hand_tuned: None,
        databases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::{compress, CompressionOptions};

    #[test]
    fn shape_matches_paper() {
        let b = build(0.05, 11);
        assert_eq!(b.workload.len(), 300);
        let frac = b.workload.update_fraction();
        assert!(frac > 0.2 && frac < 0.75, "update fraction {frac}");
        let gb = b.server.total_data_bytes() as f64 / (1u64 << 30) as f64;
        assert!(gb > 0.2 && gb < 3.0, "presents {gb} GB");
    }

    #[test]
    fn compresses_well() {
        let b = build(0.5, 11); // 3000 events
        let out = compress(&b.workload, CompressionOptions::default());
        // few distinct templates: strong compression expected
        assert!(
            out.compression_ratio() > 4.0,
            "ratio {} partitions {}",
            out.compression_ratio(),
            out.partitions
        );
    }

    #[test]
    fn statements_bind() {
        let b = build(0.02, 3);
        let raw = b.server.raw_configuration();
        for item in &b.workload.items {
            assert!(b.server.whatif(DB, &item.statement, &raw).is_ok());
        }
    }
}
