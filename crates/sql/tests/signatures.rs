//! Signatures printed in the printer's template mode against the way
//! they used to be made: a copy of the statement with its literals
//! blanked, printed. That copy-and-blank is kept here only as the
//! oracle.

use dta_sql::ast::*;
use dta_sql::{parse_statement, signature, Signature};
use dta_workload::cust::{self, CustId};
use dta_workload::{psoft, synt1, tpch};

/// The placeholder literal of a blanked copy.
fn placeholder() -> Expr {
    Expr::Function { name: "?".into(), args: vec![] }
}

fn blank_expr(e: &mut Expr) {
    match e {
        Expr::Literal(_) => *e = placeholder(),
        Expr::Column(_) => {}
        Expr::Binary { left, right, .. } => {
            blank_expr(left);
            blank_expr(right);
        }
        Expr::Unary { expr, .. } => blank_expr(expr),
        Expr::Between { expr, low, high, .. } => {
            blank_expr(expr);
            blank_expr(low);
            blank_expr(high);
        }
        Expr::InList { expr, list, .. } => {
            blank_expr(expr);
            // IN lists of different lengths share a template: the whole
            // list is one placeholder
            list.clear();
            list.push(placeholder());
        }
        Expr::Like { expr, pattern, .. } => {
            blank_expr(expr);
            blank_expr(pattern);
        }
        Expr::IsNull { expr, .. } => blank_expr(expr),
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                blank_expr(a);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                blank_expr(a);
            }
        }
    }
}

fn blank_statement(stmt: &mut Statement) {
    match stmt {
        Statement::Select(s) => {
            for p in &mut s.projections {
                blank_expr(&mut p.expr);
            }
            for twj in &mut s.from {
                for j in &mut twj.joins {
                    blank_expr(&mut j.on);
                }
            }
            if let Some(p) = &mut s.predicate {
                blank_expr(p);
            }
            for g in &mut s.group_by {
                blank_expr(g);
            }
            if let Some(h) = &mut s.having {
                blank_expr(h);
            }
            for o in &mut s.order_by {
                blank_expr(&mut o.expr);
            }
        }
        Statement::Insert(i) => {
            // all VALUES tuples share a template, however many there are
            i.rows.truncate(1);
            for row in &mut i.rows {
                for e in row {
                    blank_expr(e);
                }
            }
        }
        Statement::Update(u) => {
            for (_, e) in &mut u.assignments {
                blank_expr(e);
            }
            if let Some(p) = &mut u.predicate {
                blank_expr(p);
            }
        }
        Statement::Delete(d) => {
            if let Some(p) = &mut d.predicate {
                blank_expr(p);
            }
        }
    }
}

/// The oracle: a blanked copy of the statement, printed.
fn blanked_copy(stmt: &Statement) -> Signature {
    let mut templated = stmt.clone();
    blank_statement(&mut templated);
    Signature(templated.to_string())
}

#[test]
fn printed_templates_equal_blanked_copies() {
    for sql in [
        "SELECT a, COUNT(*) FROM t WHERE x < 10 AND s = 'it''s' GROUP BY a HAVING SUM(b) > 5",
        "SELECT DISTINCT TOP 3 a + 1 AS p FROM t AS q JOIN u ON q.k = u.k ORDER BY a DESC",
        "SELECT a FROM t WHERE b NOT IN (1, 2, c) AND d BETWEEN -1 AND 2.5 AND e LIKE 'x%'",
        "SELECT substring(a, 1, 2) FROM t WHERE f IS NOT NULL OR NOT g = NULL",
        "SELECT * FROM t, u WHERE -(t.a) > u.b * 3",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
        "INSERT INTO t VALUES (3)",
        "UPDATE t SET a = a * 2, b = 'y' WHERE k = 4",
        "DELETE FROM t WHERE k < 100",
        "DELETE FROM t",
    ] {
        let stmt = parse_statement(sql).unwrap();
        assert_eq!(signature(&stmt), blanked_copy(&stmt), "{sql}");
    }
}

/// Every statement of the seed workloads' generators: PSOFT's 6,000,
/// TPC-H's 22, SYNT1's full pool and CUST1–4 at 2% of their events.
#[test]
fn seed_workload_signatures_equal_blanked_copies() {
    let mut workloads = vec![psoft::build(1.0, 42).workload, tpch::workload()];
    workloads.push(synt1::build(0.08, 3).workload);
    for id in [CustId::Cust1, CustId::Cust2, CustId::Cust3, CustId::Cust4] {
        workloads.push(cust::build(id, 0.02, 42).workload);
    }
    let mut compared = 0;
    for workload in &workloads {
        for item in &workload.items {
            assert_eq!(signature(&item.statement), blanked_copy(&item.statement));
            compared += 1;
        }
    }
    assert_eq!(compared, 15_702);
}
