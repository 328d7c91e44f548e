//! The metric tables — the one place every metric's name, unit,
//! direction and regression bound is written down — and the few
//! statistics the benchmark reports. `BENCHMARK.json` repeats these
//! tables; the schema self-check fails when the two disagree.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. An end-to-end metric — one a user of the tuner would see —
/// has a `bound`: the share of the parent's value by which it may worsen
/// before a change is a regression. A per-layer metric has none: it
/// explains, it does not gate.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

// Why every bound is the widest the driver's contract allows: a bound must
// exceed the spread between runs on different seeds, every session of a run
// tunes a database generated from its own sub-seed, and what-if calls, work
// units and wall time per database differ by ±15% (tpch22 is bimodal: one
// more greedy round or not). Averaging a run's 2–10 databases leaves 1–9%
// between seeds on counts and 3–12% on wall (the sandbox adds ±5% of its
// own); see the README. Two runs on the SAME seed agree far more closely
// (counts exactly, wall within a few per cent) — `--compare` pairs their
// sessions to use that.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("tune_wall_s", "s", Better::Lower, 0.25),
    gated("whatif_calls", "count", Better::Lower, 0.25),
    gated("tuning_work_units", "units", Better::Lower, 0.25),
    gated("improvement_pct", "%", Better::Higher, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
];

pub const PER_LAYER: [Metric; 47] = [
    // dta-xml
    layer("xml.workload_parse_ms", "ms", Better::Lower),
    layer("xml.result_write_ms", "ms", Better::Lower),
    layer("xml.checkpoint_roundtrip_ms", "ms", Better::Lower),
    layer("xml.checkpoint_bytes", "bytes", Better::Lower),
    layer("xml.manifest_roundtrip_ms", "ms", Better::Lower),
    // dta-sql
    layer("sql.parse_ns", "ns", Better::Lower),
    layer("sql.signature_ns", "ns", Better::Lower),
    // dta-workload
    layer("workload.compress_ms", "ms", Better::Lower),
    layer("workload.statements_in", "count", Better::Lower),
    layer("workload.statements_tuned", "count", Better::Lower),
    // dta-stats, through the session's statistics stage
    layer("stats.stage_ms", "ms", Better::Lower),
    layer("stats.requested", "count", Better::Lower),
    layer("stats.created", "count", Better::Lower),
    layer("stats.work_units", "units", Better::Lower),
    // dta-optimizer
    layer("optimizer.bind_ns", "ns", Better::Lower),
    layer("optimizer.optimize_raw_ns", "ns", Better::Lower),
    layer("optimizer.optimize_rec_ns", "ns", Better::Lower),
    // dta-server
    layer("server.whatif_raw_ns", "ns", Better::Lower),
    layer("server.whatif_rec_ns", "ns", Better::Lower),
    layer("server.whatif_invocations", "count", Better::Lower),
    // dta-core::cost
    layer("cost.miss_ns", "ns", Better::Lower),
    layer("cost.hit_ns", "ns", Better::Lower),
    layer("cost.workload_cost_us", "us", Better::Lower),
    layer("cost.cache_hits", "count", Better::Higher),
    layer("cost.cache_misses", "count", Better::Lower),
    layer("cost.hit_rate", "ratio", Better::Higher),
    // dta-core::candidates / colgroups / merging
    layer("candidates.stage_ms", "ms", Better::Lower),
    layer("candidates.generated", "count", Better::Lower),
    layer("candidates.pruned", "count", Better::Higher),
    layer("colgroups.stage_ms", "ms", Better::Lower),
    layer("merging.stage_ms", "ms", Better::Lower),
    layer("merging.peak_pool_size", "count", Better::Lower),
    // dta-core::enumeration / greedy
    layer("enumeration.stage_ms", "ms", Better::Lower),
    layer("enumeration.phase1_ms", "ms", Better::Lower),
    layer("enumeration.phase2_ms", "ms", Better::Lower),
    layer("enumeration.evaluations", "count", Better::Lower),
    layer("enumeration.us_per_evaluation", "us", Better::Lower),
    layer("enumeration.par2_speedup", "x", Better::Higher),
    // dta-core::session / control
    layer("session.precosting_ms", "ms", Better::Lower),
    layer("session.epilogue_ms", "ms", Better::Lower),
    layer("session.self_ms", "ms", Better::Lower),
    layer("session.trace_overhead_pct", "%", Better::Lower),
    layer("control.work_units", "units", Better::Lower),
    // dta-core::supervisor
    layer("supervisor.slices", "count", Better::Lower),
    layer("supervisor.rounds", "count", Better::Lower),
    layer("supervisor.work_units", "units", Better::Lower),
    layer("supervisor.slice_overhead_ms", "ms", Better::Lower),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Set `name`, replacing what it was set to before.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = value + 0.0; // an empty sum is -0.0; report it as 0
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order. A layer the workload does not exercise reads 0 —
    /// see the README's per-layer table.
    pub fn to_json(&self, table: &[Metric]) -> Json {
        Json::obj(table.iter().map(|m| {
            let value = self.get(m.name).unwrap_or(0.0);
            (m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(m.unit.into()))]))
        }))
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method); needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `{n, min, q1, median, q3, max, samples}` of a sample, for the result
/// files (the quartiles need two samples or more).
pub fn summary(values: &[f64]) -> Json {
    let v = sorted(values);
    let (q1, q3) = if v.len() >= 2 { quartiles(&v) } else { (v[0], v[0]) };
    Json::obj([
        ("n", Json::Num(v.len() as f64)),
        ("min", Json::Num(v[0])),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(median(&v))),
        ("q3", Json::Num(q3)),
        ("max", Json::Num(v[v.len() - 1])),
        ("samples", Json::nums(values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| crate::schema::valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
