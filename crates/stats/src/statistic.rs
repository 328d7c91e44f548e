//! Multi-column statistics built by page sampling.

use crate::histogram::Histogram;
use dta_catalog::Value;
use dta_storage::{TableData, WorkCounter};
use std::cmp::Ordering;

/// Default sampling fraction for `CREATE STATISTICS ... WITH SAMPLE`.
pub const DEFAULT_SAMPLE_FRACTION: f64 = 0.10;

/// Identity of a statistic: which database/table/column sequence it is on.
///
/// Column *order* matters for the histogram (leading column) but density
/// lookups are order-independent, which is exactly the structure §5.2's
/// reduction algorithm exploits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatKey {
    pub database: String,
    pub table: String,
    pub columns: Vec<String>,
}

impl StatKey {
    /// Construct a key.
    pub fn new(database: &str, table: &str, columns: &[impl AsRef<str>]) -> Self {
        Self {
            database: database.to_string(),
            table: table.to_string(),
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
        }
    }
}

/// A statistic: histogram on the leading column + densities per prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Statistic {
    pub key: StatKey,
    /// Histogram over the leading column.
    pub histogram: Histogram,
    /// `densities[i]` is the density of the prefix `columns[..=i]`:
    /// `1 / distinct-count` of that column set (SQL Server's definition —
    /// the average fraction of duplicates).
    pub densities: Vec<f64>,
    /// Logical row count of the table when the statistic was built.
    pub row_count: u64,
    /// Number of rows in the sample the statistic was built from.
    pub sample_rows: u64,
}

impl Statistic {
    /// Density (1/distinct) for the full column sequence, at sample scale.
    pub fn full_density(&self) -> f64 {
        *self.densities.last().unwrap_or(&1.0)
    }

    /// Estimated distinct count of the prefix `columns[..=i]` at
    /// *population* scale: the sample-level count is extrapolated.
    pub fn distinct_of_prefix(&self, i: usize) -> f64 {
        let d = self.densities.get(i).copied().unwrap_or(1.0);
        let d_sample = (1.0 / d.max(1e-12)).max(1.0);
        extrapolate_distinct(d_sample, self.sample_rows, self.row_count)
    }
}

/// Extrapolate a distinct count observed in a sample to the population.
///
/// The two regimes with a smooth blend between them:
/// * nearly every sampled value distinct (`f = d/n → 1`) — the column is
///   key-like, so distincts grow linearly with the table: `d ≈ f·N`;
/// * few distinct values (`f → 0`) — the domain is saturated (a
///   categorical column): the sample already saw everything, `d` stays.
pub fn extrapolate_distinct(d_sample: f64, sample_rows: u64, population: u64) -> f64 {
    let n = sample_rows as f64;
    let big_n = population as f64;
    if n <= 0.0 || big_n <= n {
        return d_sample.clamp(1.0, big_n.max(1.0));
    }
    let f = (d_sample / n).clamp(0.0, 1.0);
    // blend exponent: 0 at f<=0.05 (no scaling), 1 at f>=0.5 (full linear)
    let t = ((f - 0.05) / 0.45).clamp(0.0, 1.0);
    let scaled = d_sample * (big_n / n).powf(t);
    scaled.clamp(1.0, big_n)
}

/// Build a statistic on `columns` of `data` by sampling pages.
///
/// Page reads are charged to `work`, making statistic creation cost
/// proportional to table size — the property that makes picking the
/// *largest remaining* statistic the right greedy move in §5.2.
///
/// The sample is sorted once, lexicographically over the key columns the
/// table has (up to the first it lacks). The histogram reads the sorted
/// leading column, and one pass over adjacent sorted rows counts the
/// distinct values of every prefix at once.
pub fn build_statistic(
    key: StatKey,
    data: &TableData,
    sample_fraction: f64,
    rng: &mut impl rand::Rng,
    work: &WorkCounter,
) -> Statistic {
    let (rows, pages) = data.sample_rows_by_page(sample_fraction, rng);
    work.read_pages(pages);
    work.cpu(rows.len() as u64);

    // a prefix holding a column the table lacks has density 1, and so
    // does every longer prefix: only the resolved leading run is sorted
    let resolved: Vec<&[Value]> =
        key.columns.iter().map_while(|c| data.column_by_name(c)).collect();
    let columns: Vec<SortColumn> = resolved.iter().map(|c| SortColumn::gather(c, &rows)).collect();
    // sample positions, each with its leading key where that is an integer
    // (it decides most comparisons without reaching the columns)
    let leading_key = |p: usize| match columns.first() {
        Some(SortColumn::Int(keys)) => keys.get(p).copied().unwrap_or(0),
        _ => 0,
    };
    let mut order: Vec<(u64, usize)> = (0..rows.len()).map(|p| (leading_key(p), p)).collect();
    order.sort_unstable_by(|&(ka, a), &(kb, b)| {
        ka.cmp(&kb)
            .then_with(|| first_difference(&columns, a, b).map_or(Ordering::Equal, |(_, ord)| ord))
    });

    let histogram = match resolved.first() {
        Some(leading) => {
            let mut sorted: Vec<&Value> = Vec::with_capacity(order.len());
            sorted.extend(
                order.iter().filter_map(|&(_, p)| rows.get(p).and_then(|&r| leading.get(r))),
            );
            Histogram::from_sorted(&sorted)
        }
        None => Histogram::default(),
    };

    // breaks[c]: adjacent sorted rows whose first differing column is c,
    // so the prefix of length p has 1 + breaks[..p] distinct values
    let mut breaks = vec![0usize; columns.len()];
    for pair in order.windows(2) {
        if let [(_, a), (_, b)] = *pair {
            let first = first_difference(&columns, a, b);
            if let Some(slot) = first.and_then(|(c, _)| breaks.get_mut(c)) {
                *slot += 1;
            }
        }
    }
    let mut densities = Vec::with_capacity(key.columns.len());
    let mut distinct = 1usize;
    for p in 0..key.columns.len() {
        match breaks.get(p) {
            Some(b) if !rows.is_empty() => {
                distinct += b;
                densities.push(1.0 / distinct as f64);
            }
            _ => densities.push(1.0),
        }
    }

    Statistic {
        key,
        histogram,
        densities,
        row_count: data.logical_rows(),
        sample_rows: rows.len() as u64,
    }
}

/// One key column's sampled values, in sample order.
enum SortColumn<'a> {
    /// Every sampled value is an integer: its order-preserving `u64`.
    Int(Vec<u64>),
    /// Any other mix of values, borrowed from the table.
    Any(Vec<&'a Value>),
}

impl<'a> SortColumn<'a> {
    fn gather(column: &'a [Value], rows: &[usize]) -> Self {
        let cells = || rows.iter().filter_map(|&r| column.get(r));
        if cells().all(|v| matches!(v, Value::Int(_))) {
            let mut keys = Vec::with_capacity(rows.len());
            keys.extend(cells().filter_map(|v| match v {
                Value::Int(i) => Some(*i as u64 ^ 1 << 63),
                _ => None,
            }));
            SortColumn::Int(keys)
        } else {
            let mut values = Vec::with_capacity(rows.len());
            values.extend(cells());
            SortColumn::Any(values)
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            SortColumn::Int(keys) => keys.get(a).cmp(&keys.get(b)),
            SortColumn::Any(values) => values.get(a).cmp(&values.get(b)),
        }
    }
}

/// The first key column on which sample positions `a` and `b` differ,
/// and their order there.
fn first_difference(columns: &[SortColumn], a: usize, b: usize) -> Option<(usize, Ordering)> {
    columns.iter().enumerate().find_map(|(c, column)| match column.cmp(a, b) {
        Ordering::Equal => None,
        ord => Some((c, ord)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    #[expect(clippy::disallowed_types, reason = "the reference build probes, never iterates")]
    type HashSet<T> = std::collections::HashSet<T>;

    fn data() -> TableData {
        let t = Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
                Column::new("c", ColumnType::Str(10)),
            ],
        );
        let mut d = TableData::new(&t);
        for i in 0..2000i64 {
            d.push_row(vec![
                Value::Int(i % 100),               // 100 distinct
                Value::Int(i % 10),                // 10 distinct
                Value::Str(format!("s{}", i % 4)), // 4 distinct
            ]);
        }
        d
    }

    /// `build_statistic` as first written: the leading values cloned into
    /// `Histogram::build`, and each prefix's distinct count from a hash set
    /// of per-row value vectors. The one-sort build must agree bit for bit.
    fn build_statistic_reference(
        key: StatKey,
        data: &TableData,
        sample_fraction: f64,
        rng: &mut impl rand::Rng,
        work: &WorkCounter,
    ) -> Statistic {
        let col_idx: Vec<Option<usize>> =
            key.columns.iter().map(|c| data.column_index(c)).collect();
        let (rows, pages) = data.sample_rows_by_page(sample_fraction, rng);
        work.read_pages(pages);
        work.cpu(rows.len() as u64);
        let leading_values: Vec<Value> = match col_idx.first().copied().flatten() {
            Some(ci) => rows.iter().map(|&r| data.cell(r, ci).clone()).collect(),
            None => Vec::new(),
        };
        let histogram = Histogram::build(leading_values);
        let mut densities = Vec::with_capacity(key.columns.len());
        for prefix_len in 1..=key.columns.len() {
            let idxs: Vec<usize> = col_idx.iter().take(prefix_len).filter_map(|o| *o).collect();
            if idxs.len() < prefix_len || rows.is_empty() {
                densities.push(1.0);
                continue;
            }
            let mut seen: HashSet<Vec<&Value>> = HashSet::with_capacity(rows.len());
            for &r in &rows {
                seen.insert(idxs.iter().map(|&c| data.cell(r, c)).collect());
            }
            densities.push(1.0 / seen.len().max(1) as f64);
        }
        Statistic {
            key,
            histogram,
            densities,
            row_count: data.logical_rows(),
            sample_rows: rows.len() as u64,
        }
    }

    /// Columns of [`random_table`]; `missing` names none of them.
    const RANDOM_COLUMNS: [&str; 7] = ["i", "f", "s", "n", "x", "z", "missing"];

    /// `rows` rows over small domains (heavy duplicates): ints, floats
    /// (signed zeros included), strings, ints with NULLs, a column mixing
    /// `Int(2)` with `Float(2.0)`, and an all-NULL column.
    fn random_table(rows: usize, rng: &mut StdRng) -> TableData {
        let t = Table::new(
            "r",
            vec![
                Column::new("i", ColumnType::Int),
                Column::new("f", ColumnType::Float),
                Column::new("s", ColumnType::Str(6)),
                Column::new("n", ColumnType::Int),
                Column::new("x", ColumnType::Float),
                Column::new("z", ColumnType::Int),
            ],
        );
        let domain = rng.gen_range(1..400i64);
        let mut d = TableData::new(&t);
        for _ in 0..rows {
            let small = rng.gen_range(0..6i64);
            d.push_row(vec![
                Value::Int(rng.gen_range(-domain..domain)),
                Value::Float(
                    [0.0, -0.0, 1.5, -2.25, 1e9].get(small as usize % 5).copied().unwrap_or(0.0),
                ),
                Value::Str(format!("s{}", rng.gen_range(0..domain) % 37)),
                if small == 0 { Value::Null } else { Value::Int(rng.gen_range(0..domain) * 1000) },
                match small {
                    0 => Value::Int(2),
                    1 => Value::Float(2.0),
                    2 => Value::Int(1),
                    3 => Value::Float(1.5),
                    _ => Value::Null,
                },
                Value::Null,
            ]);
        }
        d
    }

    fn assert_same_statistic(got: &Statistic, want: &Statistic) {
        let context = format!("{:?}", got.key.columns);
        assert_eq!(got.histogram, want.histogram, "{context}");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.densities), bits(&want.densities), "{context}");
        let buckets = |s: &Statistic| {
            s.histogram
                .buckets()
                .iter()
                .map(|b| (b.fraction.to_bits(), b.distinct.to_bits(), b.upper_fraction.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(buckets(got), buckets(want), "{context}");
        assert_eq!(
            got.histogram.null_fraction().to_bits(),
            want.histogram.null_fraction().to_bits(),
            "{context}"
        );
        assert_eq!((got.row_count, got.sample_rows), (want.row_count, want.sample_rows));
    }

    #[test]
    fn one_sort_build_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(37);
        for (case, rows) in [0, 1, 2, 7, 150, 2400, 2400, 5000].into_iter().enumerate() {
            let data = random_table(rows, &mut rng);
            for _ in 0..40 {
                let width = rng.gen_range(1..5usize);
                let columns: Vec<&str> = (0..width)
                    .filter_map(|_| RANDOM_COLUMNS.get(rng.gen_range(0..RANDOM_COLUMNS.len())))
                    .copied()
                    .collect();
                let key = StatKey::new("db", "r", &columns);
                let fraction = if rng.gen_bool(0.5) { 1.0 } else { rng.gen_range(0.01..1.0) };
                let draws = rng.next_u64();
                let (w_got, w_want) = (WorkCounter::default(), WorkCounter::default());
                let mut r = StdRng::seed_from_u64(draws);
                let got = build_statistic(key.clone(), &data, fraction, &mut r, &w_got);
                let mut r = StdRng::seed_from_u64(draws);
                let want = build_statistic_reference(key, &data, fraction, &mut r, &w_want);
                assert_same_statistic(&got, &want);
                assert_eq!(w_got.snapshot(), w_want.snapshot(), "case {case}");
            }
        }
    }

    #[test]
    fn densities_reflect_distincts() {
        let d = data();
        let w = WorkCounter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let s = build_statistic(
            StatKey::new("db", "t", &["a", "b"]),
            &d,
            1.0, // full scan for exactness
            &mut rng,
            &w,
        );
        assert_eq!(s.densities.len(), 2);
        assert!((s.distinct_of_prefix(0) - 100.0).abs() < 1.0);
        // (a, b) pairs: lcm structure gives 100 distinct pairs
        assert!((s.distinct_of_prefix(1) - 100.0).abs() < 1.0);
        assert_eq!(s.row_count, 2000);
    }

    #[test]
    fn sampling_charges_io() {
        let d = data();
        let w = WorkCounter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let before = w.snapshot();
        build_statistic(StatKey::new("db", "t", &["a"]), &d, 0.2, &mut rng, &w);
        let delta = w.snapshot().since(before);
        assert!(delta.pages_read >= 1);
        assert!(delta.pages_read <= d.materialized_pages());
    }

    #[test]
    fn sampled_histogram_close_to_truth() {
        let d = data();
        let w = WorkCounter::default();
        let mut rng = StdRng::seed_from_u64(42);
        let s = build_statistic(StatKey::new("db", "t", &["a"]), &d, 0.3, &mut rng, &w);
        // a is uniform over 0..100; P(a < 50) should be ~0.5
        let sel = s.histogram.selectivity_lt(&Value::Int(50), false);
        assert!((sel - 0.5).abs() < 0.12, "sel={sel}");
    }

    #[test]
    fn missing_column_produces_degenerate_stat() {
        let d = data();
        let w = WorkCounter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let s = build_statistic(StatKey::new("db", "t", &["zzz"]), &d, 0.5, &mut rng, &w);
        assert!(s.histogram.is_empty());
        assert_eq!(s.densities, vec![1.0]);
    }

    #[test]
    fn stat_key_identity() {
        let k1 = StatKey::new("db", "t", &["a", "b"]);
        let k2 = StatKey::new("db", "t", &["b", "a"]);
        assert_ne!(k1, k2, "column order is part of the key");
    }
}
