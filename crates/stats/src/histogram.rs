//! Equi-depth histograms with selectivity estimation.

use dta_catalog::Value;

/// Maximum number of buckets, matching SQL Server's ~200-step histograms.
pub const MAX_BUCKETS: usize = 200;

/// One histogram bucket: values in `(lower, upper]` where `lower` is the
/// previous bucket's `upper` (the first bucket's lower bound is the
/// column minimum, inclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive upper bound of the bucket.
    pub upper: Value,
    /// Fraction of non-null rows that fall in the bucket.
    pub fraction: f64,
    /// Estimated number of distinct values in the bucket.
    pub distinct: f64,
    /// Fraction of non-null rows exactly equal to `upper` (SQL Server's
    /// EQ_ROWS), which keeps heavy hitters accurate.
    pub upper_fraction: f64,
}

/// An equi-depth histogram over the non-null values of one column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Minimum non-null value (inclusive lower bound of the first bucket).
    min: Option<Value>,
    buckets: Vec<Bucket>,
    /// Fraction of rows that are NULL.
    null_fraction: f64,
}

impl Histogram {
    /// Build an equi-depth histogram from a sample of values. The values
    /// need not be sorted. NULLs are counted into `null_fraction` and
    /// excluded from the buckets.
    pub fn build(mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        let sorted: Vec<&Value> = values.iter().collect();
        Self::from_sorted(&sorted)
    }

    /// Build an equi-depth histogram from a sample sorted ascending
    /// (NULLs first, as `Value`'s order puts them). Only the bucket
    /// bounds and the minimum are cloned.
    pub(crate) fn from_sorted(sorted: &[&Value]) -> Self {
        let total = sorted.len();
        if total == 0 {
            return Self::default();
        }
        let nulls = sorted.iter().take_while(|v| v.is_null()).count();
        let non_null = sorted.get(nulls..).unwrap_or(&[]);
        let null_fraction = nulls as f64 / total as f64;
        if non_null.is_empty() {
            return Self { min: None, buckets: Vec::new(), null_fraction };
        }
        let n = non_null.len();
        let n_buckets = n.min(MAX_BUCKETS);
        let per_bucket = n as f64 / n_buckets as f64;
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut start = 0usize;
        for b in 0..n_buckets {
            if start >= n {
                break;
            }
            let mut end = (((b + 1) as f64) * per_bucket).round() as usize;
            end = end.clamp(start + 1, n);
            // extend the bucket so equal values never straddle a boundary
            while end < n && non_null.get(end) == non_null.get(end - 1) {
                end += 1;
            }
            let Some(slice) = non_null.get(start..end) else { break };
            let mut distinct = 1usize;
            for w in slice.windows(2) {
                if w.first() != w.get(1) {
                    distinct += 1;
                }
            }
            let upper: &Value = slice.last().expect("bucket slices are non-empty by clamp");
            let upper_count = slice.iter().rev().take_while(|v| **v == upper).count();
            buckets.push(Bucket {
                upper: upper.clone(),
                fraction: slice.len() as f64 / n as f64,
                distinct: distinct as f64,
                upper_fraction: upper_count as f64 / n as f64,
            });
            start = end;
            if start >= n {
                break;
            }
        }
        Self { min: non_null.first().map(|&v| v.clone()), buckets, null_fraction }
    }

    /// True if the histogram carries no value information.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The buckets, in ascending order of their upper bounds.
    #[cfg(test)]
    pub(crate) fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Fraction of rows that are NULL.
    pub fn null_fraction(&self) -> f64 {
        self.null_fraction
    }

    /// Estimated total number of distinct non-null values.
    pub fn distinct_count(&self) -> f64 {
        self.buckets.iter().map(|b| b.distinct).sum::<f64>().max(1.0)
    }

    /// Minimum non-null value.
    pub fn min_value(&self) -> Option<&Value> {
        self.min.as_ref()
    }

    /// Maximum non-null value.
    pub fn max_value(&self) -> Option<&Value> {
        self.buckets.last().map(|b| &b.upper)
    }

    /// Selectivity of `column = v` among all rows.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        if self.is_empty() {
            return fallback::EQ;
        }
        if v.is_null() {
            return self.null_fraction;
        }
        let non_null = 1.0 - self.null_fraction;
        match self.bucket_of(v) {
            Some(i) => non_null * self.raw_eq(i, v),
            None => 0.0,
        }
    }

    /// Fraction of *non-null* rows equal to `v`, given `v` falls in bucket
    /// `i`. Exact for bucket boundary values, uniform over the interior.
    fn raw_eq(&self, i: usize, v: &Value) -> f64 {
        let Some(b) = self.buckets.get(i) else { return 0.0 };
        if *v == b.upper {
            b.upper_fraction
        } else {
            (b.fraction - b.upper_fraction).max(0.0) / (b.distinct - 1.0).max(1.0)
        }
    }

    /// Selectivity of `column < v` (or `<=` when `inclusive`).
    pub fn selectivity_lt(&self, v: &Value, inclusive: bool) -> f64 {
        if self.is_empty() {
            return fallback::RANGE;
        }
        if v.is_null() {
            return 0.0;
        }
        let non_null = 1.0 - self.null_fraction;
        let min = self.min.as_ref().expect("non-empty histogram has min");
        if v < min {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut lower = min;
        for (i, b) in self.buckets.iter().enumerate() {
            if *v > b.upper {
                acc += b.fraction;
                lower = &b.upper;
                continue;
            }
            // v falls inside this bucket: interpolate over the interior
            if *v == b.upper {
                acc += b.fraction - b.upper_fraction;
            } else {
                let within = interpolate(lower, &b.upper, v);
                acc += (b.fraction - b.upper_fraction).max(0.0) * within;
            }
            if inclusive {
                acc += self.raw_eq(i, v);
            }
            return (acc * non_null).clamp(0.0, 1.0);
        }
        // v beyond the max
        (acc * non_null).clamp(0.0, 1.0)
    }

    /// Selectivity of `column > v` (or `>=` when `inclusive`).
    pub fn selectivity_gt(&self, v: &Value, inclusive: bool) -> f64 {
        if self.is_empty() {
            return fallback::RANGE;
        }
        if v.is_null() {
            return 0.0;
        }
        let non_null = 1.0 - self.null_fraction;
        let le = self.selectivity_lt(v, true);
        let gt = (non_null - le).max(0.0);
        if inclusive {
            (gt + self.selectivity_eq(v)).clamp(0.0, 1.0)
        } else {
            gt.clamp(0.0, 1.0)
        }
    }

    /// Selectivity of `low <= column <= high` style ranges.
    pub fn selectivity_between(&self, low: &Value, high: &Value) -> f64 {
        if self.is_empty() {
            return fallback::RANGE;
        }
        let le_high = self.selectivity_lt(high, true);
        let lt_low = self.selectivity_lt(low, false);
        (le_high - lt_low).clamp(0.0, 1.0)
    }

    /// Approximate quantile: the smallest bucket upper bound at or above
    /// cumulative non-null fraction `q` (clamped to `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<&Value> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for b in &self.buckets {
            acc += b.fraction;
            if acc >= q {
                return Some(&b.upper);
            }
        }
        self.max_value()
    }

    /// Index of the bucket containing `v`, if any: the first whose upper
    /// bound is at least `v`. Upper bounds strictly increase (equal values
    /// never straddle a boundary), so a binary search finds it.
    fn bucket_of(&self, v: &Value) -> Option<usize> {
        let min = self.min.as_ref()?;
        if v < min {
            return None;
        }
        let i = self.buckets.partition_point(|b| b.upper < *v);
        (i < self.buckets.len()).then_some(i)
    }
}

/// Linear interpolation of `v`'s position within `(lower, upper]`.
/// Numeric values interpolate proportionally; other types assume the
/// midpoint.
fn interpolate(lower: &Value, upper: &Value, v: &Value) -> f64 {
    match (lower.as_f64(), upper.as_f64(), v.as_f64()) {
        (Some(lo), Some(hi), Some(x)) if hi > lo => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
        _ => {
            if let (Value::Str(lo), Value::Str(hi), Value::Str(x)) = (lower, upper, v) {
                // crude lexicographic interpolation on the first differing byte
                let key = |s: &str| s.bytes().next().unwrap_or(0) as f64;
                let (lo, hi, x) = (key(lo), key(hi), key(x));
                if hi > lo {
                    return ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                }
            }
            0.5
        }
    }
}

/// Selectivity fallbacks used when no histogram information is available,
/// mirroring the magic constants classic optimizers use.
pub mod fallback {
    /// Equality predicate without statistics.
    pub const EQ: f64 = 0.05;
    /// Range predicate without statistics.
    pub const RANGE: f64 = 0.33;
    /// LIKE predicate without statistics.
    pub const LIKE: f64 = 0.10;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: impl IntoIterator<Item = i64>) -> Vec<Value> {
        vals.into_iter().map(Value::Int).collect()
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::build(vec![]);
        assert!(h.is_empty());
        assert_eq!(h.selectivity_eq(&Value::Int(1)), fallback::EQ);
        assert_eq!(h.selectivity_lt(&Value::Int(1), false), fallback::RANGE);
    }

    #[test]
    fn uniform_range_estimates() {
        // 0..1000 uniform
        let h = Histogram::build(ints(0..1000));
        let s = h.selectivity_lt(&Value::Int(500), false);
        assert!((s - 0.5).abs() < 0.05, "sel={s}");
        let s = h.selectivity_between(&Value::Int(250), &Value::Int(750));
        assert!((s - 0.5).abs() < 0.05, "sel={s}");
        let s = h.selectivity_gt(&Value::Int(900), false);
        assert!((s - 0.1).abs() < 0.05, "sel={s}");
    }

    #[test]
    fn equality_estimates() {
        let h = Histogram::build(ints((0..100).flat_map(|i| std::iter::repeat_n(i, 10))));
        // 1000 rows, 100 distinct -> eq sel ~ 1/100
        let s = h.selectivity_eq(&Value::Int(42));
        assert!((s - 0.01).abs() < 0.01, "sel={s}");
    }

    #[test]
    fn out_of_range_values() {
        let h = Histogram::build(ints(10..20));
        assert_eq!(h.selectivity_eq(&Value::Int(5)), 0.0);
        assert_eq!(h.selectivity_lt(&Value::Int(5), false), 0.0);
        assert!(h.selectivity_gt(&Value::Int(25), false).abs() < 1e-9);
        assert!((h.selectivity_lt(&Value::Int(100), false) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nulls_tracked() {
        let mut vals = ints(0..90);
        vals.extend(std::iter::repeat_n(Value::Null, 10));
        let h = Histogram::build(vals);
        assert!((h.null_fraction() - 0.1).abs() < 1e-9);
        assert!((h.selectivity_eq(&Value::Null) - 0.1).abs() < 1e-9);
        // all non-null rows are < 100
        assert!((h.selectivity_lt(&Value::Int(100), false) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn skewed_data_distinct_counts() {
        // one heavy value + tail
        let mut vals = ints(std::iter::repeat_n(7, 900));
        vals.extend(ints(0..100));
        let h = Histogram::build(vals);
        let heavy = h.selectivity_eq(&Value::Int(7));
        assert!(heavy > 0.3, "heavy={heavy}");
        assert!(h.distinct_count() >= 90.0);
    }

    #[test]
    fn bucket_cap_respected() {
        let h = Histogram::build(ints(0..10_000));
        assert!(h.bucket_count() <= MAX_BUCKETS);
        assert!(h.bucket_count() >= MAX_BUCKETS / 2);
    }

    #[test]
    fn string_histograms() {
        let vals: Vec<Value> = ["apple", "banana", "cherry", "date", "fig", "grape"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let h = Histogram::build(vals);
        let s = h.selectivity_lt(&Value::Str("d".into()), false);
        assert!(s > 0.2 && s < 0.9, "sel={s}");
        assert_eq!(h.max_value(), Some(&Value::Str("grape".into())));
    }

    #[test]
    fn fractions_sum_to_one() {
        let h = Histogram::build(ints((0..5000).map(|i| i % 937)));
        let sum: f64 = (0..h.bucket_count()).map(|i| h.buckets[i].fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicates_do_not_straddle_buckets() {
        // a value with huge frequency must land in a single bucket
        let mut vals = ints(0..300);
        vals.extend(ints(std::iter::repeat_n(150, 500)));
        let h = Histogram::build(vals);
        let s = h.selectivity_eq(&Value::Int(150));
        assert!(s > 0.4, "sel={s}");
    }
}
