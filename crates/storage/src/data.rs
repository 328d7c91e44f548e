//! Columnar table data and the store.

use crate::{pages_for, PAGE_SIZE};
use dta_catalog::{Table, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Materialized rows of one table, stored column-major.
///
/// A table also carries a *logical scale*: `logical_rows = rows * scale`.
/// Statistics built from the materialized rows (histogram bucket
/// fractions, densities as duplicate ratios) are scale-invariant, while
/// page counts and storage sizes are reported at the logical scale, which
/// lets a 10⁵-row materialization stand in for the paper's 10 GB TPC-H
/// database.
#[derive(Debug, Clone)]
pub struct TableData {
    column_names: Vec<String>,
    columns: Vec<Vec<Value>>,
    row_width: u32,
    scale: f64,
}

impl TableData {
    /// Empty data for a table definition.
    pub fn new(table: &Table) -> Self {
        Self {
            column_names: table.columns.iter().map(|c| c.name.clone()).collect(),
            columns: vec![Vec::new(); table.columns.len()],
            row_width: table.row_width(),
            scale: 1.0,
        }
    }

    /// Set the logical scale factor (≥ 1.0).
    pub fn set_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "scale must be >= 1.0");
        self.scale = scale;
    }

    /// The logical scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Make room for `rows` more rows in every column.
    pub fn reserve(&mut self, rows: usize) {
        for col in &mut self.columns {
            col.reserve_exact(rows);
        }
    }

    /// Append one row. Panics if the arity does not match.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Number of materialized rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Logical row count (materialized rows × scale).
    pub fn logical_rows(&self) -> u64 {
        (self.rows() as f64 * self.scale).round() as u64
    }

    /// Average row width in bytes.
    pub fn row_width(&self) -> u32 {
        self.row_width
    }

    /// Pages occupied at logical scale (heap, no indexes).
    pub fn logical_pages(&self) -> u64 {
        pages_for(self.logical_rows(), self.row_width)
    }

    /// Pages occupied by the materialized rows.
    pub fn materialized_pages(&self) -> u64 {
        pages_for(self.rows() as u64, self.row_width)
    }

    /// Logical size in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_rows() * self.row_width as u64
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.column_names.iter().position(|c| c == name)
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Values of one column.
    ///
    /// Panics if `idx` is out of range — column indices come from this
    /// table's own enumeration.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx comes from this table's own column enumeration by contract; an \
                  out-of-range access is a caller bug worth a loud panic, not a silent default"
    )]
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// Values of one column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&[Value]> {
        self.column_index(name).map(|i| self.column(i))
    }

    /// One cell. Callers must pass a row and column obtained from this
    /// table's own dimensions.
    #[expect(
        clippy::indexing_slicing,
        reason = "indices come from this table's own enumeration by contract; an \
                  out-of-range access is a caller bug worth a loud panic, not a silent default"
    )]
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Materialize one row as a vector (allocates).
    #[expect(clippy::indexing_slicing, reason = "row indexes come from this table's rows()")]
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[idx].clone()).collect()
    }

    /// Delete rows by index set (sorted or not); used by the DML engine.
    pub fn delete_rows(&mut self, mut indexes: Vec<usize>) {
        indexes.sort_unstable();
        indexes.dedup();
        for col in &mut self.columns {
            let mut keep = Vec::with_capacity(col.len() - indexes.len());
            let mut del_iter = indexes.iter().peekable();
            for (i, v) in col.drain(..).enumerate() {
                if del_iter.peek() == Some(&&i) {
                    del_iter.next();
                } else {
                    keep.push(v);
                }
            }
            *col = keep;
        }
    }

    /// Overwrite one cell; used by the DML engine.
    #[expect(
        clippy::indexing_slicing,
        reason = "the DML engine passes a row and column of this table, as cell() requires"
    )]
    pub fn set_cell(&mut self, row: usize, col: usize, value: Value) {
        self.columns[col][row] = value;
    }

    /// Rows per page in the page model.
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE / self.row_width.max(1) as u64).max(1)
    }

    /// Sample row indexes by *page*: picks a fraction of the pages and
    /// returns the indexes of all rows on those pages, mirroring how
    /// `CREATE STATISTICS ... WITH SAMPLE` reads whole pages. Returns the
    /// number of pages touched alongside the row indexes.
    pub fn sample_rows_by_page<R: Rng>(&self, fraction: f64, rng: &mut R) -> (Vec<usize>, u64) {
        let rows = self.rows();
        if rows == 0 {
            return (Vec::new(), 0);
        }
        let rpp = self.rows_per_page() as usize;
        let n_pages = rows.div_ceil(rpp);
        let target_pages = ((n_pages as f64 * fraction).ceil() as usize).clamp(1, n_pages);
        let mut pages: Vec<usize> = (0..n_pages).collect();
        pages.shuffle(rng);
        pages.truncate(target_pages);
        let mut out = Vec::with_capacity(target_pages * rpp);
        for p in pages {
            let start = p * rpp;
            let end = ((p + 1) * rpp).min(rows);
            out.extend(start..end);
        }
        (out, target_pages as u64)
    }
}

/// The store: table data keyed by `(database, table)`.
#[derive(Debug, Clone, Default)]
pub struct Store {
    tables: BTreeMap<(String, String), TableData>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (empty) data for a table. Replaces any existing data.
    pub fn create_table(&mut self, db: &str, table: &Table) {
        self.tables.insert((db.to_string(), table.name.clone()), TableData::new(table));
    }

    /// Access a table's data.
    pub fn table(&self, db: &str, table: &str) -> Option<&TableData> {
        self.tables.get(&(db.to_string(), table.to_string()))
    }

    /// Mutable access to a table's data.
    pub fn table_mut(&mut self, db: &str, table: &str) -> Option<&mut TableData> {
        self.tables.get_mut(&(db.to_string(), table.to_string()))
    }

    /// Iterate `(db, table)` keys.
    pub fn keys(&self) -> impl Iterator<Item = &(String, String)> {
        self.tables.keys()
    }

    /// Total logical bytes across all tables (the "database size" of
    /// Table 1).
    pub fn total_logical_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.logical_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Table {
        Table::new(
            "t",
            vec![Column::new("a", ColumnType::Int), Column::new("b", ColumnType::Str(20))],
        )
    }

    fn filled(n: usize) -> TableData {
        let mut d = TableData::new(&table());
        for i in 0..n {
            d.push_row(vec![Value::Int(i as i64), Value::Str(format!("s{i}"))]);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = filled(10);
        assert_eq!(d.rows(), 10);
        assert_eq!(d.cell(3, 0), &Value::Int(3));
        assert_eq!(d.row(2), vec![Value::Int(2), Value::Str("s2".into())]);
        assert_eq!(d.column_by_name("a").unwrap().len(), 10);
        assert!(d.column_by_name("zzz").is_none());
    }

    #[test]
    fn scale_affects_logical_not_materialized() {
        let mut d = filled(100);
        assert_eq!(d.logical_rows(), 100);
        d.set_scale(1000.0);
        assert_eq!(d.rows(), 100);
        assert_eq!(d.logical_rows(), 100_000);
        assert_eq!(d.logical_bytes(), 100_000 * 24);
        assert!(d.logical_pages() > d.materialized_pages());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut d = filled(1);
        d.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn delete_rows_removes_correct_rows() {
        let mut d = filled(5);
        d.delete_rows(vec![3, 1, 3]);
        assert_eq!(d.rows(), 3);
        let a: Vec<_> = d.column(0).to_vec();
        assert_eq!(a, vec![Value::Int(0), Value::Int(2), Value::Int(4)]);
    }

    #[test]
    fn set_cell_updates() {
        let mut d = filled(3);
        d.set_cell(1, 0, Value::Int(99));
        assert_eq!(d.cell(1, 0), &Value::Int(99));
    }

    #[test]
    fn page_sampling_touches_whole_pages() {
        let d = filled(3000); // 24B rows -> 341 rows/page -> 9 pages
        let mut rng = StdRng::seed_from_u64(7);
        let (rows, pages) = d.sample_rows_by_page(0.3, &mut rng);
        assert!((1..=9).contains(&pages), "pages={pages}");
        assert!(!rows.is_empty());
        // all sampled indexes valid & unique
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rows.len());
        assert!(*sorted.last().unwrap() < 3000);
    }

    #[test]
    fn sampling_empty_table() {
        let d = TableData::new(&table());
        let mut rng = StdRng::seed_from_u64(7);
        let (rows, pages) = d.sample_rows_by_page(0.5, &mut rng);
        assert!(rows.is_empty());
        assert_eq!(pages, 0);
    }

    #[test]
    fn store_roundtrip() {
        let mut s = Store::new();
        let t = table();
        s.create_table("db1", &t);
        s.table_mut("db1", "t").unwrap().push_row(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(s.table("db1", "t").unwrap().rows(), 1);
        assert!(s.table("db2", "t").is_none());
        assert_eq!(s.total_logical_bytes(), 24);
    }
}
