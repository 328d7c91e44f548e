//! Reduced statistics creation — the greedy H-List/D-List covering
//! algorithm of §5.2.
//!
//! Problem: given a set of statistics `S = {s₁ … sₙ}` that tuning needs
//! (each sᵢ a column sequence providing a histogram on its leading column
//! and densities on each leading prefix), find a smallest-cardinality
//! subset `S′ ⊆ S` that contains the same histogram and density
//! information as `S`.
//!
//! The algorithm (paper's Steps 1–4):
//! 1. Build the **H-List** (columns needing a histogram) and the
//!    **D-List** (column *sets* needing density) from `S`, skipping
//!    anything an existing statistics cache already covers.
//! 2. Pick the remaining statistic covering the most uncovered
//!    H-List/D-List entries.
//! 3. Remove what it covers; remove it from `S`.
//! 4. Repeat until both lists are empty.
//!
//! Creation cost is dominated by sampling I/O on the table, so minimizing
//! *cardinality* per table is the right proxy for minimizing time.

use crate::manager::StatisticsManager;
use crate::statistic::StatKey;
use std::collections::{BTreeMap, BTreeSet};

/// Result of a reduction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionOutcome {
    /// The statistics actually worth creating, in greedy pick order.
    pub chosen: Vec<StatKey>,
    /// How many were requested (after de-duplication).
    pub requested: usize,
}

impl ReductionOutcome {
    /// Fraction of requested statistics eliminated.
    pub fn reduction_fraction(&self) -> f64 {
        if self.requested == 0 {
            return 0.0;
        }
        1.0 - self.chosen.len() as f64 / self.requested as f64
    }
}

/// One H-List or D-List requirement, borrowed from the requests.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry<'a> {
    /// A histogram on (db, table, leading column).
    Histogram(&'a str, &'a str, &'a str),
    /// Density on (db, table, column set), the set sorted and deduplicated.
    Density(&'a str, &'a str, Vec<&'a str>),
}

impl Entry<'_> {
    fn held_by(&self, existing: &StatisticsManager) -> bool {
        match self {
            Entry::Histogram(db, table, column) => existing.has_histogram(db, table, column),
            Entry::Density(db, table, columns) => existing.has_density(db, table, columns),
        }
    }
}

/// The requirements `key` provides: the histogram on its leading column,
/// then the density of each leading prefix (a repeated column gives the
/// same density entry twice).
fn entries(key: &StatKey) -> Vec<Entry<'_>> {
    let (db, table) = (key.database.as_str(), key.table.as_str());
    let mut out: Vec<Entry> =
        key.columns.first().map(|c| Entry::Histogram(db, table, c)).into_iter().collect();
    let mut prefix: Vec<&str> = Vec::with_capacity(key.columns.len());
    for c in &key.columns {
        if let Err(at) = prefix.binary_search(&c.as_str()) {
            prefix.insert(at, c);
        }
        out.push(Entry::Density(db, table, prefix.clone()));
    }
    out
}

/// A request still in the running, with the ids of the requirements it
/// provides.
struct Candidate<'a> {
    key: &'a StatKey,
    entries: Vec<usize>,
}

/// Run the §5.2 greedy reduction over `required`, consulting `existing`
/// so that statistics whose information the server already holds are not
/// re-created at all.
pub fn reduce_statistics(required: &[StatKey], existing: &StatisticsManager) -> ReductionOutcome {
    // de-duplicate requests while preserving order
    let mut seen: BTreeSet<&StatKey> = BTreeSet::new();
    let requested: Vec<&StatKey> = required.iter().filter(|k| seen.insert(k)).collect();

    // Step 1: intern every H-List and D-List entry once; `open[id]` holds
    // while the entry is uncovered (neither held already nor picked).
    let mut ids: BTreeMap<Entry, usize> = BTreeMap::new();
    let mut open: Vec<bool> = Vec::new();
    let mut remaining: Vec<Candidate> = requested
        .iter()
        .map(|&key| {
            let entries = entries(key)
                .into_iter()
                .map(|entry| {
                    let next = ids.len();
                    *ids.entry(entry).or_insert_with_key(|entry| {
                        open.push(!entry.held_by(existing));
                        next
                    })
                })
                .collect();
            Candidate { key, entries }
        })
        .collect();
    let mut uncovered = open.iter().filter(|&&o| o).count();

    // Steps 2–4: greedy covering.
    let mut chosen = Vec::new();
    while uncovered > 0 {
        let (best_idx, best_cover) = remaining
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let cover = c.entries.iter().filter(|&&id| open.get(id) == Some(&true)).count();
                (i, cover, c.key.columns.len())
            })
            .max_by_key(|&(i, cover, width)| {
                // break ties toward *narrower* statistics (equal information
                // for less creation work — matches the paper's Example 3
                // choosing (B) over (B,A)), then toward the lowest position
                // in `remaining` — which `swap_remove` reorders after every
                // pick, so for requests [a], [b], [c], [d] the order is
                // a, d, c, b. Creation order decides which sampling draws
                // each statistic gets, so this order is kept as it is.
                (cover, std::cmp::Reverse(width), std::cmp::Reverse(i))
            })
            .map(|(i, cover, _)| (i, cover))
            .expect("uncovered entries imply a remaining candidate");
        if best_cover == 0 {
            // cannot happen if entries were built from `remaining`, but keep
            // the loop total in the face of future changes
            break;
        }
        let picked = remaining.swap_remove(best_idx);
        for &id in &picked.entries {
            if let Some(o) = open.get_mut(id).filter(|o| **o) {
                *o = false;
                uncovered -= 1;
            }
        }
        chosen.push(picked.key.clone());
    }

    ReductionOutcome { chosen, requested: requested.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::statistic::Statistic;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn key(cols: &[&str]) -> StatKey {
        StatKey::new("db", "t", cols)
    }

    /// Histogram requirement: (db, table, leading column).
    type HEntry = (String, String, String);
    /// Density requirement: (db, table, column set).
    type DEntry = (String, String, BTreeSet<String>);

    fn h_entries(key: &StatKey) -> Vec<HEntry> {
        match key.columns.first() {
            Some(c) => vec![(key.database.clone(), key.table.clone(), c.clone())],
            None => vec![],
        }
    }

    fn d_entries(key: &StatKey) -> Vec<DEntry> {
        let mut prefix: BTreeSet<String> = BTreeSet::new();
        key.columns
            .iter()
            .map(|c| {
                prefix.insert(c.clone());
                (key.database.clone(), key.table.clone(), prefix.clone())
            })
            .collect()
    }

    /// The reduction as first written: every round rebuilds every
    /// candidate's entries and looks them up in the H-List and D-List.
    /// `reduce_statistics` must pick exactly as it does.
    fn reduce_statistics_reference(
        required: &[StatKey],
        existing: &StatisticsManager,
    ) -> ReductionOutcome {
        let mut requested: Vec<StatKey> = Vec::new();
        for k in required {
            if !requested.contains(k) {
                requested.push(k.clone());
            }
        }
        let mut h_list: BTreeSet<HEntry> = BTreeSet::new();
        let mut d_list: BTreeSet<DEntry> = BTreeSet::new();
        for key in &requested {
            for h in h_entries(key) {
                if !existing.has_histogram(&h.0, &h.1, &h.2) {
                    h_list.insert(h);
                }
            }
            for d in d_entries(key) {
                let cols: Vec<String> = d.2.iter().cloned().collect();
                if !existing.has_density(&d.0, &d.1, &cols) {
                    d_list.insert(d);
                }
            }
        }
        let mut remaining: Vec<StatKey> = requested.clone();
        let mut chosen = Vec::new();
        while !(h_list.is_empty() && d_list.is_empty()) {
            let (best_idx, best_cover) = remaining
                .iter()
                .enumerate()
                .map(|(i, key)| {
                    let hc = h_entries(key).iter().filter(|h| h_list.contains(*h)).count();
                    let dc = d_entries(key).iter().filter(|d| d_list.contains(*d)).count();
                    (i, hc + dc, key.columns.len())
                })
                .max_by_key(|&(i, cover, width)| {
                    (cover, std::cmp::Reverse(width), std::cmp::Reverse(i))
                })
                .map(|(i, cover, _)| (i, cover))
                .expect("non-empty requirement lists imply a remaining candidate");
            if best_cover == 0 {
                break;
            }
            let key = remaining.swap_remove(best_idx);
            for h in h_entries(&key) {
                h_list.remove(&h);
            }
            for d in d_entries(&key) {
                d_list.remove(&d);
            }
            chosen.push(key);
        }
        ReductionOutcome { chosen, requested: requested.len() }
    }

    /// A random key on one of two tables over columns a–d (repeats and
    /// the empty key included).
    fn random_key(rng: &mut StdRng) -> StatKey {
        const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];
        let table = if rng.gen_bool(0.7) { "t1" } else { "t2" };
        let width = rng.gen_range(0..5usize);
        let cols: Vec<&str> = (0..width)
            .filter_map(|_| COLUMNS.get(rng.gen_range(0..COLUMNS.len())).copied())
            .collect();
        StatKey::new("db", table, &cols)
    }

    #[test]
    fn interned_reduction_picks_as_the_reference_does() {
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..500 {
            let mut existing = StatisticsManager::new();
            for _ in 0..rng.gen_range(0..3) {
                let key = random_key(&mut rng);
                let densities = vec![0.5; key.columns.len()];
                existing.add(Statistic {
                    key,
                    histogram: Histogram::build((0..5).map(dta_catalog::Value::Int).collect()),
                    densities,
                    row_count: 5,
                    sample_rows: 5,
                });
            }
            let required: Vec<StatKey> =
                (0..rng.gen_range(0..14)).map(|_| random_key(&mut rng)).collect();
            let reference = reduce_statistics_reference(&required, &existing);
            assert_eq!(reduce_statistics(&required, &existing), reference, "{required:?}");
        }
    }

    #[test]
    fn ties_go_to_the_lowest_current_position() {
        // every request covers as much as the others: the first pick is
        // the first request, then `swap_remove` moves the last into its place
        let required = vec![key(&["a"]), key(&["b"]), key(&["c"]), key(&["d"])];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        assert_eq!(out.chosen, vec![key(&["a"]), key(&["d"]), key(&["c"]), key(&["b"])]);
    }

    #[test]
    fn paper_example_3() {
        // Indexes on (A), (B), (A,B), (B,A), (A,B,C): creating only
        // (A,B,C) and (B) yields the same information.
        let required = vec![
            key(&["a"]),
            key(&["b"]),
            key(&["a", "b"]),
            key(&["b", "a"]),
            key(&["a", "b", "c"]),
        ];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        assert_eq!(out.requested, 5);
        let mut chosen = out.chosen.clone();
        chosen.sort();
        assert_eq!(chosen, vec![key(&["a", "b", "c"]), key(&["b"])]);
        assert!((out.reduction_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn greedy_picks_largest_first() {
        let required = vec![key(&["a", "b", "c"]), key(&["a"]), key(&["a", "b"])];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        assert_eq!(out.chosen, vec![key(&["a", "b", "c"])]);
    }

    #[test]
    fn existing_stats_suppress_creation() {
        let mut mgr = StatisticsManager::new();
        mgr.add(Statistic {
            key: key(&["a", "b", "c"]),
            histogram: Histogram::build((0..5).map(dta_catalog::Value::Int).collect()),
            densities: vec![0.2, 0.1, 0.05],
            row_count: 5,
            sample_rows: 5,
        });
        // (a) and (a,b) are fully covered by the existing (a,b,c) stat
        let required = vec![key(&["a"]), key(&["a", "b"])];
        let out = reduce_statistics(&required, &mgr);
        assert!(out.chosen.is_empty(), "everything already covered: {:?}", out.chosen);

        // (b,a) still needs a *histogram on b* even though its densities
        // are all covered, so it must be created
        let out = reduce_statistics(&[key(&["b", "a"])], &mgr);
        assert_eq!(out.chosen, vec![key(&["b", "a"])]);
    }

    #[test]
    fn distinct_tables_do_not_interfere() {
        let required = vec![StatKey::new("db", "t1", &["a"]), StatKey::new("db", "t2", &["a"])];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        assert_eq!(out.chosen.len(), 2);
    }

    #[test]
    fn duplicates_deduplicated() {
        let required = vec![key(&["a"]), key(&["a"]), key(&["a"])];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        assert_eq!(out.requested, 1);
        assert_eq!(out.chosen.len(), 1);
    }

    #[test]
    fn empty_request() {
        let out = reduce_statistics(&[], &StatisticsManager::new());
        assert!(out.chosen.is_empty());
        assert_eq!(out.reduction_fraction(), 0.0);
    }

    #[test]
    fn chosen_covers_everything() {
        // property: whatever is chosen must cover every requirement
        let required =
            vec![key(&["a", "b"]), key(&["b", "c"]), key(&["c"]), key(&["d", "a"]), key(&["b"])];
        let out = reduce_statistics(&required, &StatisticsManager::new());
        let mut h: BTreeSet<_> = BTreeSet::new();
        let mut d: BTreeSet<_> = BTreeSet::new();
        for k in &out.chosen {
            h.extend(h_entries(k));
            d.extend(d_entries(k));
        }
        for k in &required {
            for e in h_entries(k) {
                assert!(h.contains(&e), "histogram {e:?} uncovered");
            }
            for e in d_entries(k) {
                assert!(d.contains(&e), "density {e:?} uncovered");
            }
        }
    }
}
