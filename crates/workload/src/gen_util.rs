//! Shared machinery for the synthetic customer-workload generators.

use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_server::Server;
use rand::rngs::StdRng;
use rand::Rng;

/// Specification of one synthetic table.
///
/// Every synthetic table has the same shape — `k` (unique key, PK),
/// `a`/`b` (skewed categorical columns queries filter and group on),
/// `c`/`d` (update-target / random columns), and `pad` (a filler string
/// that gives rows realistic width) — with per-table cardinalities.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    /// Materialized rows.
    pub rows: usize,
    /// Logical scale multiplier (presented size = rows × scale).
    pub scale: f64,
    /// Distinct values of `a`.
    pub distinct_a: i64,
    /// Distinct values of `b`.
    pub distinct_b: i64,
    /// Width of the `pad` column in bytes.
    pub pad_width: u16,
}

impl TableSpec {
    /// A spec with sane defaults.
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        Self {
            name: name.into(),
            rows,
            scale: 1.0,
            distinct_a: 1000,
            distinct_b: 20,
            pad_width: 80,
        }
    }

    /// Builder-style overrides.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    pub fn distincts(mut self, a: i64, b: i64) -> Self {
        self.distinct_a = a.max(1);
        self.distinct_b = b.max(1);
        self
    }

    pub fn pad(mut self, width: u16) -> Self {
        self.pad_width = width;
        self
    }

    /// The catalog table definition.
    pub fn table(&self) -> Table {
        Table::new(
            &self.name,
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("d", ColumnType::Int),
                Column::new("pad", ColumnType::Str(self.pad_width)),
            ],
        )
        .with_primary_key(&["k"])
    }
}

/// Build a database from table specs and load it into a fresh server.
pub fn build_database(server: &mut Server, db_name: &str, specs: &[TableSpec], rng: &mut StdRng) {
    let mut db = Database::new(db_name);
    for spec in specs {
        db.add_table(spec.table()).expect("unique table names");
    }
    server.create_database(db).expect("valid synthetic schema");
    for spec in specs {
        let data = server.table_data_mut(db_name, &spec.name).expect("table created");
        data.reserve(spec.rows);
        for k in 0..spec.rows as i64 {
            data.push_row(vec![
                Value::Int(k),
                Value::Int(k % spec.distinct_a),
                Value::Int(k % spec.distinct_b),
                Value::Int(rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..100)),
                Value::Str(pad_string(spec.pad_width as usize, k)),
            ]);
        }
        if spec.scale > 1.0 {
            data.set_scale(spec.scale);
        }
    }
}

/// Deterministic filler text: `width` lowercase letters, written as
/// bytes.
fn pad_string(width: usize, seed: i64) -> String {
    let mut x = seed as u64 ^ 0x9E37_79B9;
    let bytes = (0..width)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b'a' + (x >> 57) as u8 % 26
        })
        .collect();
    String::from_utf8(bytes).expect("lowercase ASCII letters are UTF-8")
}

/// Random constant for predicates on column `a` of a spec.
pub fn rand_a(spec: &TableSpec, rng: &mut StdRng) -> i64 {
    rng.gen_range(0..spec.distinct_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builds_and_loads() {
        let mut server = Server::new("s");
        let mut rng = StdRng::seed_from_u64(1);
        let specs =
            vec![TableSpec::new("t1", 100).distincts(10, 2), TableSpec::new("t2", 50).scale(100.0)];
        build_database(&mut server, "db", &specs, &mut rng);
        let t1 = server.store().table("db", "t1").unwrap();
        assert_eq!(t1.rows(), 100);
        let a = t1.column_by_name("a").unwrap();
        let distinct: std::collections::BTreeSet<_> = a.iter().cloned().collect();
        assert_eq!(distinct.len(), 10);
        let t2 = server.store().table("db", "t2").unwrap();
        assert_eq!(t2.logical_rows(), 5000);
    }

    /// FNV-1a over `pad_string(width, k)` for widths 40, 60 and 80 and
    /// every `k` below 1000, each string's length first.
    fn pad_hash() -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for width in [40, 60, 80] {
            for k in 0..1000 {
                let s = pad_string(width, k);
                for b in (s.len() as u64).to_le_bytes().iter().chain(s.as_bytes()) {
                    hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn pad_strings_are_the_bytes_the_char_by_char_build_gave() {
        // recorded from the build that pushed one `char` at a time
        assert_eq!(pad_hash(), 0x64ce_17ae_0801_5019, "{:#x}", pad_hash());
    }

    #[test]
    fn pad_deterministic() {
        assert_eq!(pad_string(16, 5), pad_string(16, 5));
        assert_ne!(pad_string(16, 5), pad_string(16, 6));
        assert_eq!(pad_string(16, 5).len(), 16);
    }
}
