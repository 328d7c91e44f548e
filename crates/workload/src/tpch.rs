//! TPC-H: schema, `dbgen`-style data generation, and the 22 benchmark
//! queries in the reproduction's SQL dialect.
//!
//! The paper evaluates DTA on TPC-H 10 GB (§7.2) and 1 GB (§7.3). We
//! materialize a small scale factor and set each table's *logical scale*
//! so that page counts and storage bounds correspond to the target
//! gigabytes, while histograms and selectivities (built from the
//! materialized rows) remain faithful.
//!
//! Queries that use constructs outside the dialect (correlated
//! subqueries, outer joins, `EXTRACT`) are rewritten to join/aggregate
//! forms that reference the same tables, predicates and columns — the
//! physical-design signal DTA consumes is preserved.

// A benchmark generator over fixed, known-good schemas and SQL: `tune()`
// never calls it, so R11's panic lints do not apply.
#![allow(
    clippy::panic,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    reason = "a benchmark generator: tune() never calls it"
)]

use crate::model::{Workload, WorkloadItem};
use dta_catalog::{Column, ColumnType, Database, Table, Value};
use dta_server::Server;
use dta_sql::parse_statement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    /// Materialized scale factor (rows actually generated).
    pub sf: f64,
    /// Scale factor the database *presents* (page counts, storage).
    pub logical_sf: f64,
}

impl TpchScale {
    /// Materialize `sf`, present `logical_sf`.
    pub fn new(sf: f64, logical_sf: f64) -> Self {
        assert!(sf > 0.0 && logical_sf >= sf);
        Self { sf, logical_sf }
    }

    /// Small smoke-test scale.
    pub fn tiny() -> Self {
        Self::new(0.002, 0.002)
    }

    /// The §7.2 stand-in: materialize SF 0.01, present 10 GB.
    pub fn ten_gb() -> Self {
        Self::new(0.01, 10.0)
    }

    /// The §7.3 stand-in: materialize SF 0.01, present 1 GB.
    pub fn one_gb() -> Self {
        Self::new(0.01, 1.0)
    }

    fn rows(&self, base: u64) -> u64 {
        ((base as f64 * self.sf).round() as u64).max(1)
    }

    fn scale_multiplier(&self) -> f64 {
        (self.logical_sf / self.sf).max(1.0)
    }
}

/// The TPC-H database name used throughout.
pub const DB: &str = "tpch";

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const TYPE_A: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_B: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_C: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONT_A: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
const CONT_B: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 10] =
    ["green", "blue", "red", "yellow", "ivory", "azure", "black", "coral", "misty", "plum"];

/// Days-since-1992-01-01 → ISO date string (proleptic Gregorian).
pub fn date_string(days_since_1992: i64) -> String {
    let mut year = 1992i64;
    let mut d = days_since_1992;
    loop {
        let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
        let ylen = if leap { 366 } else { 365 };
        if d < ylen {
            break;
        }
        d -= ylen;
        year += 1;
    }
    let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    let months = [31, if leap { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut month = 0usize;
    while d >= months[month] {
        d -= months[month];
        month += 1;
    }
    format!("{year:04}-{:02}-{:02}", month + 1, d + 1)
}

/// Build the TPC-H schema.
pub fn schema() -> Database {
    let mut db = Database::new(DB);
    db.add_table(
        Table::new(
            "region",
            vec![
                Column::new("r_regionkey", ColumnType::Int),
                Column::new("r_name", ColumnType::Str(12)),
            ],
        )
        .with_primary_key(&["r_regionkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "nation",
            vec![
                Column::new("n_nationkey", ColumnType::Int),
                Column::new("n_name", ColumnType::Str(16)),
                Column::new("n_regionkey", ColumnType::Int),
            ],
        )
        .with_primary_key(&["n_nationkey"])
        .with_foreign_key(&["n_regionkey"], "region", &["r_regionkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "supplier",
            vec![
                Column::new("s_suppkey", ColumnType::BigInt),
                Column::new("s_name", ColumnType::Str(18)),
                Column::new("s_nationkey", ColumnType::Int),
                Column::new("s_acctbal", ColumnType::Float),
            ],
        )
        .with_primary_key(&["s_suppkey"])
        .with_foreign_key(&["s_nationkey"], "nation", &["n_nationkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "customer",
            vec![
                Column::new("c_custkey", ColumnType::BigInt),
                Column::new("c_name", ColumnType::Str(18)),
                Column::new("c_nationkey", ColumnType::Int),
                Column::new("c_mktsegment", ColumnType::Str(10)),
                Column::new("c_acctbal", ColumnType::Float),
            ],
        )
        .with_primary_key(&["c_custkey"])
        .with_foreign_key(&["c_nationkey"], "nation", &["n_nationkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "part",
            vec![
                Column::new("p_partkey", ColumnType::BigInt),
                Column::new("p_name", ColumnType::Str(32)),
                Column::new("p_brand", ColumnType::Str(10)),
                Column::new("p_type", ColumnType::Str(25)),
                Column::new("p_size", ColumnType::Int),
                Column::new("p_container", ColumnType::Str(10)),
                Column::new("p_retailprice", ColumnType::Float),
            ],
        )
        .with_primary_key(&["p_partkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "partsupp",
            vec![
                Column::new("ps_partkey", ColumnType::BigInt),
                Column::new("ps_suppkey", ColumnType::BigInt),
                Column::new("ps_availqty", ColumnType::Int),
                Column::new("ps_supplycost", ColumnType::Float),
            ],
        )
        .with_primary_key(&["ps_partkey", "ps_suppkey"])
        .with_foreign_key(&["ps_partkey"], "part", &["p_partkey"])
        .with_foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "orders",
            vec![
                Column::new("o_orderkey", ColumnType::BigInt),
                Column::new("o_custkey", ColumnType::BigInt),
                Column::new("o_orderstatus", ColumnType::Str(1)),
                Column::new("o_totalprice", ColumnType::Float),
                Column::new("o_orderdate", ColumnType::Date),
                Column::new("o_orderpriority", ColumnType::Str(15)),
                Column::new("o_shippriority", ColumnType::Int),
            ],
        )
        .with_primary_key(&["o_orderkey"])
        .with_foreign_key(&["o_custkey"], "customer", &["c_custkey"]),
    )
    .unwrap();
    db.add_table(
        Table::new(
            "lineitem",
            vec![
                Column::new("l_orderkey", ColumnType::BigInt),
                Column::new("l_partkey", ColumnType::BigInt),
                Column::new("l_suppkey", ColumnType::BigInt),
                Column::new("l_linenumber", ColumnType::Int),
                Column::new("l_quantity", ColumnType::Float),
                Column::new("l_extendedprice", ColumnType::Float),
                Column::new("l_discount", ColumnType::Float),
                Column::new("l_tax", ColumnType::Float),
                Column::new("l_returnflag", ColumnType::Str(1)),
                Column::new("l_linestatus", ColumnType::Str(1)),
                Column::new("l_shipdate", ColumnType::Date),
                Column::new("l_commitdate", ColumnType::Date),
                Column::new("l_receiptdate", ColumnType::Date),
                Column::new("l_shipmode", ColumnType::Str(10)),
                Column::new("l_shipinstruct", ColumnType::Str(25)),
            ],
        )
        .with_primary_key(&["l_orderkey", "l_linenumber"])
        .with_foreign_key(&["l_orderkey"], "orders", &["o_orderkey"])
        .with_foreign_key(&["l_partkey"], "part", &["p_partkey"])
        .with_foreign_key(&["l_suppkey"], "supplier", &["s_suppkey"]),
    )
    .unwrap();
    db
}

/// Generate a server loaded with TPC-H data at `scale`.
pub fn build_server(scale: TpchScale, seed: u64) -> Server {
    let mut server = Server::new("tpch-server");
    server.create_database(schema()).expect("tpch schema is valid");
    let mut rng = StdRng::seed_from_u64(seed);

    let n_supplier = scale.rows(10_000) as i64;
    let n_customer = scale.rows(150_000) as i64;
    let n_part = scale.rows(200_000) as i64;
    let n_orders = scale.rows(1_500_000) as i64;
    let mult = scale.scale_multiplier();

    {
        let t = server.table_data_mut(DB, "region").unwrap();
        for (i, name) in REGIONS.iter().enumerate() {
            t.push_row(vec![Value::Int(i as i64), Value::Str(name.to_string())]);
        }
    }
    {
        let t = server.table_data_mut(DB, "nation").unwrap();
        for (i, (name, region)) in NATIONS.iter().enumerate() {
            t.push_row(vec![
                Value::Int(i as i64),
                Value::Str(name.to_string()),
                Value::Int(*region as i64),
            ]);
        }
    }
    {
        let t = server.table_data_mut(DB, "supplier").unwrap();
        for i in 0..n_supplier {
            t.push_row(vec![
                Value::Int(i),
                Value::Str(format!("Supplier#{i:09}")),
                Value::Int(rng.gen_range(0..25)),
                Value::Float((rng.gen_range(-99999..999999) as f64) / 100.0),
            ]);
        }
        t.set_scale(mult);
    }
    {
        let t = server.table_data_mut(DB, "customer").unwrap();
        for i in 0..n_customer {
            t.push_row(vec![
                Value::Int(i),
                Value::Str(format!("Customer#{i:09}")),
                Value::Int(rng.gen_range(0..25)),
                Value::Str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string()),
                Value::Float((rng.gen_range(-99999..999999) as f64) / 100.0),
            ]);
        }
        t.set_scale(mult);
    }
    {
        let t = server.table_data_mut(DB, "part").unwrap();
        for i in 0..n_part {
            let ty = format!(
                "{} {} {}",
                TYPE_A[rng.gen_range(0..TYPE_A.len())],
                TYPE_B[rng.gen_range(0..TYPE_B.len())],
                TYPE_C[rng.gen_range(0..TYPE_C.len())]
            );
            let container = format!(
                "{} {}",
                CONT_A[rng.gen_range(0..CONT_A.len())],
                CONT_B[rng.gen_range(0..CONT_B.len())]
            );
            let name = format!(
                "{} {}",
                COLORS[rng.gen_range(0..COLORS.len())],
                COLORS[rng.gen_range(0..COLORS.len())]
            );
            t.push_row(vec![
                Value::Int(i),
                Value::Str(name),
                Value::Str(format!("Brand#{}{}", rng.gen_range(1..6), rng.gen_range(1..6))),
                Value::Str(ty),
                Value::Int(rng.gen_range(1..51)),
                Value::Str(container),
                Value::Float(900.0 + (i % 1000) as f64 / 10.0),
            ]);
        }
        t.set_scale(mult);
    }
    {
        let t = server.table_data_mut(DB, "partsupp").unwrap();
        for p in 0..n_part {
            for s in 0..4 {
                t.push_row(vec![
                    Value::Int(p),
                    Value::Int((p + s * (n_supplier / 4).max(1)) % n_supplier.max(1)),
                    Value::Int(rng.gen_range(1..10_000)),
                    Value::Float(rng.gen_range(100..100_000) as f64 / 100.0),
                ]);
            }
        }
        t.set_scale(mult);
    }
    // orders + lineitem together so FKs line up
    {
        let mut orders_rows = Vec::new();
        let mut lineitem_rows = Vec::new();
        for o in 0..n_orders {
            let odate = rng.gen_range(0..2405i64); // 1992-01-01 .. 1998-08-02
            let lines = rng.gen_range(1..8);
            let mut total = 0.0;
            for ln in 0..lines {
                let qty = rng.gen_range(1..51) as f64;
                let price = qty * (900.0 + rng.gen_range(0..100_000) as f64 / 100.0) / 10.0;
                total += price;
                let ship = odate + rng.gen_range(1..122);
                let commit = odate + rng.gen_range(30..91);
                let receipt = ship + rng.gen_range(1..31);
                let returnflag = if receipt < 1263 {
                    // before 1995-06-17: R or A
                    if rng.gen_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                lineitem_rows.push(vec![
                    Value::Int(o),
                    Value::Int(rng.gen_range(0..n_part.max(1))),
                    Value::Int(rng.gen_range(0..n_supplier.max(1))),
                    Value::Int(ln),
                    Value::Float(qty),
                    Value::Float(price),
                    Value::Float(rng.gen_range(0..11) as f64 / 100.0),
                    Value::Float(rng.gen_range(0..9) as f64 / 100.0),
                    Value::Str(returnflag.to_string()),
                    Value::Str(if ship > 1263 { "O" } else { "F" }.to_string()),
                    Value::Str(date_string(ship)),
                    Value::Str(date_string(commit)),
                    Value::Str(date_string(receipt)),
                    Value::Str(SHIPMODES[rng.gen_range(0..SHIPMODES.len())].to_string()),
                    Value::Str(INSTRUCTS[rng.gen_range(0..INSTRUCTS.len())].to_string()),
                ]);
            }
            orders_rows.push(vec![
                Value::Int(o),
                Value::Int(rng.gen_range(0..n_customer.max(1))),
                Value::Str(if odate > 1263 { "O" } else { "F" }.to_string()),
                Value::Float(total),
                Value::Str(date_string(odate)),
                Value::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string()),
                Value::Int(0),
            ]);
        }
        let t = server.table_data_mut(DB, "orders").unwrap();
        for r in orders_rows {
            t.push_row(r);
        }
        t.set_scale(mult);
        let t = server.table_data_mut(DB, "lineitem").unwrap();
        for r in lineitem_rows {
            t.push_row(r);
        }
        t.set_scale(mult);
    }
    server
}

/// The 22 TPC-H queries in the reproduction's dialect.
pub fn queries() -> Vec<&'static str> {
    vec![
        // Q1
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), SUM(l_extendedprice * (1 - l_discount)), AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
        // Q2 (min-cost subquery dropped; same join graph and predicates)
        "SELECT s_acctbal, s_name, n_name, p_partkey FROM part, supplier, partsupp, nation, region WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 AND p_type = 'LARGE BRUSHED BRASS' AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE' ORDER BY s_acctbal DESC",
        // Q3
        "SELECT TOP 10 l_orderkey, SUM(l_extendedprice * (1 - l_discount)), o_orderdate, o_shippriority FROM customer, orders, lineitem WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15' GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY o_orderdate",
        // Q4 (EXISTS rewritten as join)
        "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01' AND l_commitdate < l_receiptdate GROUP BY o_orderpriority ORDER BY o_orderpriority",
        // Q5
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) FROM customer, orders, lineitem, supplier, nation, region WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'ASIA' AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01' GROUP BY n_name ORDER BY n_name",
        // Q6
        "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        // Q7 (year extraction folded into the date range)
        "SELECT n1.n_name, n2.n_name, SUM(l_extendedprice * (1 - l_discount)) FROM supplier, lineitem, orders, customer, nation AS n1, nation AS n2 WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey AND n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY' AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31' GROUP BY n1.n_name, n2.n_name",
        // Q8 (market-share numerator join graph)
        "SELECT o_orderdate, SUM(l_extendedprice * (1 - l_discount)) FROM part, supplier, lineitem, orders, customer, nation, region WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'AMERICA' AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31' AND p_type = 'ECONOMY ANODIZED STEEL' GROUP BY o_orderdate",
        // Q9
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) FROM part, supplier, lineitem, partsupp, orders, nation WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey AND p_name LIKE 'green%' GROUP BY n_name ORDER BY n_name",
        // Q10
        "SELECT TOP 20 c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)), c_acctbal, n_name FROM customer, orders, lineitem, nation WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01' AND l_returnflag = 'R' AND c_nationkey = n_nationkey GROUP BY c_custkey, c_name, c_acctbal, n_name ORDER BY c_custkey",
        // Q11 (HAVING-fraction subquery dropped)
        "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) FROM partsupp, supplier, nation WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY' GROUP BY ps_partkey ORDER BY ps_partkey",
        // Q12
        "SELECT l_shipmode, COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01' GROUP BY l_shipmode ORDER BY l_shipmode",
        // Q13 (outer join approximated by inner join)
        "SELECT c_custkey, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey GROUP BY c_custkey",
        // Q14
        "SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem, part WHERE l_partkey = p_partkey AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'",
        // Q15 (revenue view inlined)
        "SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) FROM lineitem WHERE l_shipdate >= '1996-01-01' AND l_shipdate < '1996-04-01' GROUP BY l_suppkey ORDER BY l_suppkey",
        // Q16 (NOT IN supplier subquery dropped)
        "SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) FROM partsupp, part WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45' AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9) GROUP BY p_brand, p_type, p_size ORDER BY p_brand",
        // Q17 (avg-quantity subquery replaced by its typical value)
        "SELECT SUM(l_extendedprice) FROM lineitem, part WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX' AND l_quantity < 5",
        // Q18 (IN-subquery folded into the aggregate + filter)
        "SELECT TOP 100 c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) FROM customer, orders, lineitem WHERE o_totalprice > 400000.0 AND c_custkey = o_custkey AND o_orderkey = l_orderkey GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice ORDER BY o_totalprice DESC",
        // Q19 (one branch of the disjunction)
        "SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem, part WHERE p_partkey = l_partkey AND p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5 AND l_shipmode IN ('AIR', 'REG AIR')",
        // Q20 (nested subqueries dropped; same driving tables)
        "SELECT s_name, s_acctbal FROM supplier, nation WHERE s_nationkey = n_nationkey AND n_name = 'CANADA' AND s_acctbal > 0.0 ORDER BY s_name",
        // Q21 (EXISTS/NOT EXISTS dropped)
        "SELECT TOP 100 s_name, COUNT(*) FROM supplier, lineitem, orders, nation WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND o_orderstatus = 'F' AND l_receiptdate > l_commitdate AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA' GROUP BY s_name ORDER BY s_name",
        // Q22 (substring country-code matching simplified to nation key)
        "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > 7500.0 GROUP BY c_nationkey ORDER BY c_nationkey",
    ]
}

/// The 22-query workload.
pub fn workload() -> Workload {
    Workload::from_items(
        queries()
            .into_iter()
            .map(|q| {
                WorkloadItem::new(
                    DB,
                    parse_statement(q)
                        .unwrap_or_else(|e| panic!("TPC-H query failed to parse: {e}\n{q}")),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_parse() {
        assert_eq!(workload().len(), 22);
    }

    #[test]
    fn date_strings() {
        assert_eq!(date_string(0), "1992-01-01");
        assert_eq!(date_string(31), "1992-02-01");
        assert_eq!(date_string(60), "1992-03-01"); // 1992 is a leap year
        assert_eq!(date_string(366), "1993-01-01");
        assert_eq!(date_string(1263), "1995-06-17");
    }

    #[test]
    fn server_builds_at_tiny_scale() {
        let server = build_server(TpchScale::tiny(), 1);
        let li = server.store().table(DB, "lineitem").unwrap();
        assert!(li.rows() > 5000, "lineitem rows = {}", li.rows());
        let orders = server.store().table(DB, "orders").unwrap();
        assert!(orders.rows() >= 2900, "orders rows = {}", orders.rows());
        assert_eq!(server.store().table(DB, "nation").unwrap().rows(), 25);
        // referential integrity of generated keys
        let ok = orders.column_by_name("o_custkey").unwrap();
        let n_cust = server.store().table(DB, "customer").unwrap().rows() as i64;
        assert!(ok.iter().all(|v| matches!(v, Value::Int(k) if *k < n_cust)));
    }

    #[test]
    fn logical_scaling_presents_target_size() {
        let server = build_server(TpchScale::new(0.002, 1.0), 2);
        let bytes = server.total_data_bytes();
        // ~1 GB raw-ish data (row widths are narrower than real TPC-H,
        // so accept a broad band)
        assert!(bytes > 200 << 20, "bytes = {bytes}");
        assert!(bytes < (4u64) << 30, "bytes = {bytes}");
    }

    #[test]
    fn queries_bind_against_schema() {
        let server = build_server(TpchScale::tiny(), 3);
        for (i, item) in workload().items.iter().enumerate() {
            let plan = server.whatif(DB, &item.statement, &server.raw_configuration());
            assert!(plan.is_ok(), "Q{} failed: {:?}", i + 1, plan.err());
        }
    }

    #[test]
    fn queries_execute_and_return_rows() {
        let server = build_server(TpchScale::tiny(), 4);
        server.deploy(server.raw_configuration());
        let mut non_empty = 0;
        for (i, item) in workload().items.iter().enumerate() {
            let res = server.execute(DB, &item.statement);
            let res = res.unwrap_or_else(|e| panic!("Q{} failed: {e}", i + 1));
            if !res.rows.is_empty() {
                non_empty += 1;
            }
        }
        // most queries should return data on generated rows
        assert!(non_empty >= 16, "only {non_empty} queries returned rows");
    }
}
