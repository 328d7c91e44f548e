//! The per-server statistics cache.

use crate::histogram::Histogram;
use crate::statistic::{StatKey, Statistic};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Holds all statistics a server has created, with the two lookups the
/// optimizer needs: *histogram by leading column* and *density by column
/// set* (order-independent). Every lookup borrows its arguments: none
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct StatisticsManager {
    /// Statistics by database, then table.
    by_table: BTreeMap<String, BTreeMap<String, TableStatistics>>,
    total: usize,
}

/// The statistics on one table, in creation order, and their distinct
/// counts summarized (rebuilt whenever a statistic is added).
#[derive(Debug, Clone, Default)]
struct TableStatistics {
    all: Vec<Statistic>,
    distincts: Arc<TableDistincts>,
}

/// The distinct counts one table's statistics give: per statistic, its
/// column sequence and the population-scale distinct count of every
/// leading prefix. Handed out shared, so an optimizer can keep a table's
/// summary past the lock it read the manager under; a statistic added
/// later makes a new summary and leaves this one as it was.
#[derive(Debug, Default)]
pub struct TableDistincts {
    by_statistic: Vec<(Vec<String>, Vec<f64>)>,
}

impl TableDistincts {
    fn of(statistics: &[Statistic]) -> Self {
        let by_statistic = statistics
            .iter()
            .map(|s| {
                let prefixes = (0..s.key.columns.len()).map(|i| s.distinct_of_prefix(i));
                (s.key.columns.clone(), prefixes.collect())
            })
            .collect();
        Self { by_statistic }
    }

    /// Population-scale distinct count of a column *set*
    /// (order-independent), extrapolated from the sample: any statistic
    /// with a leading prefix whose set of columns equals `columns`
    /// provides it.
    pub fn scaled_distinct<S: AsRef<str>>(&self, columns: &[S]) -> Option<f64> {
        self.by_statistic.iter().find_map(|(key, distinct)| {
            matching_prefix(key, columns).and_then(|i| distinct.get(i).copied())
        })
    }
}

/// Whether `column` occurs among the first `n` of `columns`.
fn seen_before<S: AsRef<str>>(columns: &[S], n: usize, column: &str) -> bool {
    columns.iter().take(n).any(|c| c.as_ref() == column)
}

/// The leading prefix of `key_columns` whose column *set* is `want`'s
/// (order-independent, duplicates ignored): `Some(i)` when
/// `key_columns[..=i]` is that prefix. Compares in place — no set is
/// built.
fn matching_prefix<S: AsRef<str>>(key_columns: &[String], want: &[S]) -> Option<usize> {
    let wanted =
        want.iter().enumerate().filter(|(j, c)| !seen_before(want, *j, c.as_ref())).count();
    let mut seen = 0;
    for (i, col) in key_columns.iter().enumerate() {
        if !seen_before(want, want.len(), col) {
            // the prefix only grows: it can no longer equal the set
            return None;
        }
        if !seen_before(key_columns, i, col) {
            seen += 1;
        }
        if seen == wanted {
            return Some(i);
        }
    }
    None
}

impl StatisticsManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of statistics held.
    pub fn count(&self) -> usize {
        self.total
    }

    /// Add (or replace) a statistic.
    pub fn add(&mut self, stat: Statistic) {
        let slot = self
            .by_table
            .entry(stat.key.database.clone())
            .or_default()
            .entry(stat.key.table.clone())
            .or_default();
        if let Some(existing) = slot.all.iter_mut().find(|s| s.key == stat.key) {
            *existing = stat;
        } else {
            slot.all.push(stat);
            self.total += 1;
        }
        slot.distincts = Arc::new(TableDistincts::of(&slot.all));
    }

    /// Exact-key lookup.
    pub fn get(&self, key: &StatKey) -> Option<&Statistic> {
        self.for_table(&key.database, &key.table).iter().find(|s| s.key == *key)
    }

    /// All statistics on one table.
    pub fn for_table(&self, database: &str, table: &str) -> &[Statistic] {
        self.table(database, table).map_or(&[], |t| t.all.as_slice())
    }

    fn table(&self, database: &str, table: &str) -> Option<&TableStatistics> {
        self.by_table.get(database).and_then(|db| db.get(table))
    }

    /// The distinct counts of one table's statistics, shared (`None` if
    /// the table has no statistics).
    pub fn distincts(&self, database: &str, table: &str) -> Option<Arc<TableDistincts>> {
        self.table(database, table).map(|t| Arc::clone(&t.distincts))
    }

    /// A histogram over `column`: any statistic whose *leading* column is
    /// `column` provides one.
    pub fn histogram(&self, database: &str, table: &str, column: &str) -> Option<&Histogram> {
        self.for_table(database, table)
            .iter()
            .find(|s| s.key.columns.first().map(String::as_str) == Some(column))
            .map(|s| &s.histogram)
    }

    /// Density of a column *set* (order-independent): any statistic with a
    /// leading prefix whose set of columns equals `columns` provides it.
    pub fn density<S: AsRef<str>>(
        &self,
        database: &str,
        table: &str,
        columns: &[S],
    ) -> Option<f64> {
        let (s, i) = self
            .for_table(database, table)
            .iter()
            .find_map(|s| matching_prefix(&s.key.columns, columns).map(|i| (s, i)))?;
        s.densities.get(i).copied()
    }

    /// Population-scale distinct count of a column *set*
    /// (order-independent), extrapolated from the sample.
    pub fn scaled_distinct<S: AsRef<str>>(
        &self,
        database: &str,
        table: &str,
        columns: &[S],
    ) -> Option<f64> {
        self.table(database, table)?.distincts.scaled_distinct(columns)
    }

    /// Whether a histogram on this column already exists.
    pub fn has_histogram(&self, database: &str, table: &str, column: &str) -> bool {
        self.histogram(database, table, column).is_some()
    }

    /// Whether density information for this column set already exists.
    pub fn has_density<S: AsRef<str>>(&self, database: &str, table: &str, columns: &[S]) -> bool {
        self.density(database, table, columns).is_some()
    }

    /// True if creating `key` would add no statistical information that is
    /// not already held — used to skip redundant what-if statistics.
    pub fn covers(&self, key: &StatKey) -> bool {
        let Some(first) = key.columns.first() else {
            return true;
        };
        if !self.has_histogram(&key.database, &key.table, first) {
            return false;
        }
        (1..=key.columns.len()).all(|n| {
            key.columns.get(..n).is_some_and(|p| self.has_density(&key.database, &key.table, p))
        })
    }

    /// Export all statistics of one database (production → test server
    /// import, §5.3). This ships *no data*, just summaries.
    pub fn export_database(&self, database: &str) -> Vec<Statistic> {
        let tables = self.by_table.get(database).into_iter().flat_map(BTreeMap::values);
        tables.flat_map(|t| t.all.iter().cloned()).collect()
    }

    /// Import previously exported statistics.
    pub fn import(&mut self, stats: Vec<Statistic>) {
        for s in stats {
            self.add(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(cols: &[&str], densities: &[f64]) -> Statistic {
        Statistic {
            key: StatKey::new("db", "t", cols),
            histogram: Histogram::build((0..10).map(dta_catalog::Value::Int).collect()),
            densities: densities.to_vec(),
            row_count: 10,
            sample_rows: 10,
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut m = StatisticsManager::new();
        m.add(stat(&["a", "b", "c"], &[0.1, 0.01, 0.001]));
        assert_eq!(m.count(), 1);
        assert!(m.has_histogram("db", "t", "a"));
        assert!(!m.has_histogram("db", "t", "b"));
        assert_eq!(m.density("db", "t", &["a"]), Some(0.1));
        assert_eq!(m.density("db", "t", &["a", "b"]), Some(0.01));
        // order-independence: Density(B,A) = Density(A,B)
        assert_eq!(m.density("db", "t", &["b", "a"]), Some(0.01));
        assert_eq!(m.density("db", "t", &["b"]), None);
    }

    #[test]
    fn covers_detects_redundant_stats() {
        let mut m = StatisticsManager::new();
        m.add(stat(&["a", "b", "c"], &[0.1, 0.01, 0.001]));
        m.add(stat(&["b"], &[0.2]));
        // paper's Example 3: after creating (A,B,C) and (B), the stats
        // (A), (B,A) and (A,B) are all redundant
        assert!(m.covers(&StatKey::new("db", "t", &["a"])));
        assert!(m.covers(&StatKey::new("db", "t", &["a", "b"])));
        assert!(m.covers(&StatKey::new("db", "t", &["b", "a"])));
        assert!(m.covers(&StatKey::new("db", "t", &["a", "b", "c"])));
        // but (C) is not covered: no histogram on c
        assert!(!m.covers(&StatKey::new("db", "t", &["c"])));
        // and (B,C) is not: density {b,c} unknown
        assert!(!m.covers(&StatKey::new("db", "t", &["b", "c"])));
    }

    #[test]
    fn replace_same_key() {
        let mut m = StatisticsManager::new();
        m.add(stat(&["a"], &[0.5]));
        m.add(stat(&["a"], &[0.25]));
        assert_eq!(m.count(), 1);
        assert_eq!(m.density("db", "t", &["a"]), Some(0.25));
    }

    #[test]
    fn export_import() {
        let mut m = StatisticsManager::new();
        m.add(stat(&["a"], &[0.5]));
        let exported = m.export_database("db");
        assert_eq!(exported.len(), 1);
        assert!(m.export_database("other").is_empty());
        let mut m2 = StatisticsManager::new();
        m2.import(exported);
        assert!(m2.has_histogram("db", "t", "a"));
    }

    /// The lookups as they were before they stopped allocating: a
    /// `BTreeSet` per wanted set and per statistic prefix.
    fn reference_prefix<'m>(
        m: &'m StatisticsManager,
        table: &str,
        columns: &[&str],
    ) -> Option<(&'m Statistic, usize)> {
        use std::collections::BTreeSet;
        let want: BTreeSet<&str> = columns.iter().copied().collect();
        for s in m.for_table("db", table) {
            let mut prefix: BTreeSet<&str> = BTreeSet::new();
            for (i, col) in s.key.columns.iter().enumerate() {
                prefix.insert(col.as_str());
                if prefix == want {
                    return Some((s, i));
                }
                if prefix.len() > want.len() {
                    break;
                }
            }
        }
        None
    }

    #[test]
    fn borrowed_lookups_answer_as_the_set_building_ones_did() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let names = ["a", "b", "c", "d"];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            // a few statistics per table, keys with repeated columns and
            // density vectors shorter than their keys included
            let mut m = StatisticsManager::new();
            for _ in 0..rng.gen_range(0..5) {
                let table = ["t", "u"][rng.gen_range(0..2)];
                let cols: Vec<&str> =
                    (0..rng.gen_range(1..5)).map(|_| names[rng.gen_range(0..4)]).collect();
                let densities: Vec<f64> = (0..rng.gen_range(0..cols.len() + 1))
                    .map(|i| 1.0 / (2.0 + i as f64 + rng.gen_range(0..50) as f64))
                    .collect();
                let mut s = stat(&cols, &densities);
                s.key.table = table.to_string();
                s.row_count = rng.gen_range(10..10_000);
                m.add(s);
            }
            for _ in 0..40 {
                let table = ["t", "u", "missing"][rng.gen_range(0..3)];
                let want: Vec<&str> =
                    (0..rng.gen_range(0..4)).map(|_| names[rng.gen_range(0..4)]).collect();
                let expect = reference_prefix(&m, table, &want);
                assert_eq!(
                    m.density("db", table, &want),
                    expect.and_then(|(s, i)| s.densities.get(i).copied()),
                    "density of {want:?} on {table} in {m:?}"
                );
                assert_eq!(
                    m.scaled_distinct("db", table, &want).map(f64::to_bits),
                    expect.map(|(s, i)| s.distinct_of_prefix(i).to_bits()),
                    "distinct of {want:?} on {table} in {m:?}"
                );
                // Density(A,B) = Density(B,A)
                let reversed: Vec<&str> = want.iter().rev().copied().collect();
                assert_eq!(m.density("db", table, &reversed), m.density("db", table, &want));
                assert_eq!(
                    m.has_density("db", "t", &want),
                    reference_prefix(&m, "t", &want).is_some_and(|(s, i)| i < s.densities.len())
                );
            }
            for s in m.export_database("db") {
                assert_eq!(m.get(&s.key), Some(&s));
                let lead = s.key.columns.first().expect("generated keys are non-empty");
                assert!(m.has_histogram("db", &s.key.table, lead));
            }
            assert!(m.get(&StatKey::new("other", "t", &["a"])).is_none());
            assert!(m.for_table("other", "t").is_empty() && m.for_table("db", "w").is_empty());
        }
    }
}
