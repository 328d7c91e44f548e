//! Cardinality estimation from statistics.

use crate::query::{Sarg, SargOp};
use dta_catalog::Value;
use dta_stats::histogram::fallback;
use dta_stats::StatisticsManager;

/// Selectivity applied per residual (non-sargable) conjunct.
pub const RESIDUAL_SEL: f64 = 0.33;

/// Floor applied to every estimate so costs stay well-behaved.
pub const MIN_SEL: f64 = 1e-7;

/// Predicate-selectivity estimator over a statistics manager, used when
/// a statement is prepared (distinct counts and join selectivities are
/// estimated there, over the facts gathered per table).
/// `binding → table` resolution is the caller's job; all methods take
/// catalog table names.
pub struct Estimator<'a> {
    pub stats: &'a StatisticsManager,
    pub database: &'a str,
}

impl<'a> Estimator<'a> {
    /// New estimator for one database.
    pub fn new(stats: &'a StatisticsManager, database: &'a str) -> Self {
        Self { stats, database }
    }

    /// Selectivity of a single sargable predicate on `table`.
    pub fn sarg_selectivity(&self, table: &str, sarg: &Sarg) -> f64 {
        let col = &sarg.column.column;
        let hist = self.stats.histogram(self.database, table, col);
        let sel = match (&sarg.op, hist) {
            (SargOp::Eq(v), Some(h)) => h.selectivity_eq(v),
            (SargOp::Eq(_), None) => self.eq_from_density(table, col).unwrap_or(fallback::EQ),
            (SargOp::NotEq(v), Some(h)) => 1.0 - h.selectivity_eq(v),
            (SargOp::NotEq(_), None) => 1.0 - fallback::EQ,
            (SargOp::Range { low, high }, Some(h)) => match (low, high) {
                (Some((lo, lo_inc)), Some((hi, _hi_inc))) => {
                    // between-style: inclusive bounds dominate at our precision
                    let _ = lo_inc;
                    h.selectivity_between(lo, hi)
                }
                (Some((lo, inc)), None) => h.selectivity_gt(lo, *inc),
                (None, Some((hi, inc))) => h.selectivity_lt(hi, *inc),
                (None, None) => 1.0,
            },
            (SargOp::Range { .. }, None) => fallback::RANGE,
            (SargOp::In(vs), Some(h)) => {
                vs.iter().map(|v| h.selectivity_eq(v)).sum::<f64>().min(1.0)
            }
            (SargOp::In(vs), None) => (vs.len() as f64
                * self.eq_from_density(table, col).unwrap_or(fallback::EQ))
            .min(1.0),
            (SargOp::LikePrefix(p), Some(h)) => {
                let (lo, hi) = prefix_range(p);
                h.selectivity_between(&lo, &hi)
            }
            (SargOp::LikePrefix(_), None) => fallback::LIKE,
        };
        sel.clamp(MIN_SEL, 1.0)
    }

    fn eq_from_density(&self, table: &str, col: &str) -> Option<f64> {
        self.stats.scaled_distinct(self.database, table, &[col]).map(|d| 1.0 / d.max(1.0))
    }
}

/// Lower/upper bound values of a string prefix match `LIKE 'p%'`.
pub fn prefix_range(prefix: &str) -> (Value, Value) {
    let lo = Value::Str(prefix.to_string());
    let mut hi_bytes: Vec<u8> = prefix.as_bytes().to_vec();
    // increment the last byte; saturate by appending a high sentinel
    match hi_bytes.last_mut() {
        Some(b) if *b < 0xff => *b += 1,
        _ => hi_bytes.push(0xff),
    }
    let hi = Value::Str(String::from_utf8_lossy(&hi_bytes).into_owned());
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_stats::histogram::Histogram;
    use dta_stats::{StatKey, Statistic};

    fn stats() -> StatisticsManager {
        let mut m = StatisticsManager::new();
        // column a: uniform ints 0..1000
        m.add(Statistic {
            key: StatKey::new("db", "t", &["a"]),
            histogram: Histogram::build((0..1000).map(Value::Int).collect()),
            densities: vec![1.0 / 1000.0],
            row_count: 1000,
            sample_rows: 1000,
        });
        // column g: 10 distinct
        m.add(Statistic {
            key: StatKey::new("db", "t", &["g", "a"]),
            histogram: Histogram::build((0..1000).map(|i| Value::Int(i % 10)).collect()),
            densities: vec![0.1, 1.0 / 1000.0],
            row_count: 1000,
            sample_rows: 1000,
        });
        m
    }

    fn sarg(col: &str, op: SargOp) -> Sarg {
        Sarg { column: crate::query::BoundColumn::new("t", col), op }
    }

    #[test]
    fn range_and_eq() {
        let m = stats();
        let e = Estimator::new(&m, "db");
        let s = e.sarg_selectivity(
            "t",
            &sarg("a", SargOp::Range { low: None, high: Some((Value::Int(100), false)) }),
        );
        assert!((s - 0.1).abs() < 0.03, "{s}");
        let s = e.sarg_selectivity("t", &sarg("a", SargOp::Eq(Value::Int(5))));
        assert!(s < 0.01, "{s}");
        let s = e.sarg_selectivity("t", &sarg("g", SargOp::Eq(Value::Int(3))));
        assert!((s - 0.1).abs() < 0.03, "{s}");
    }

    #[test]
    fn fallbacks_without_stats() {
        let m = StatisticsManager::new();
        let e = Estimator::new(&m, "db");
        assert_eq!(e.sarg_selectivity("t", &sarg("z", SargOp::Eq(Value::Int(1)))), fallback::EQ);
        assert_eq!(
            e.sarg_selectivity(
                "t",
                &sarg("z", SargOp::Range { low: Some((Value::Int(0), true)), high: None })
            ),
            fallback::RANGE
        );
        assert_eq!(
            e.sarg_selectivity("t", &sarg("z", SargOp::LikePrefix("ab".into()))),
            fallback::LIKE
        );
    }

    #[test]
    fn in_list_sums() {
        let m = stats();
        let e = Estimator::new(&m, "db");
        let one = e.sarg_selectivity("t", &sarg("g", SargOp::Eq(Value::Int(3))));
        let three = e.sarg_selectivity(
            "t",
            &sarg("g", SargOp::In(vec![Value::Int(1), Value::Int(2), Value::Int(3)])),
        );
        assert!((three - 3.0 * one).abs() < 0.02, "one={one} three={three}");
    }

    #[test]
    fn prefix_ranges() {
        let (lo, hi) = prefix_range("ab");
        assert_eq!(lo, Value::Str("ab".into()));
        assert_eq!(hi, Value::Str("ac".into()));
        let (_, hi) = prefix_range("a\u{7f}");
        assert!(matches!(hi, Value::Str(_)));
    }
}
