//! Pretty-printer: `Display` implementations that emit parseable SQL.
//!
//! The printer always parenthesizes nested binary operations whose
//! precedence could be ambiguous, which keeps the parse→print→parse
//! round-trip exact (verified by property tests in the crate's test
//! suite).

use crate::ast::*;
use std::fmt;

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    // keep a decimal point so the literal re-parses as a float
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

fn precedence(op: BinaryOp) -> u8 {
    use BinaryOp::*;
    match op {
        Or => 1,
        And => 2,
        Eq | NotEq | Lt | LtEq | Gt | GtEq => 3,
        Add | Sub => 4,
        Mul | Div => 5,
    }
}

/// Writes statements and expressions as SQL: the text `Display` gives
/// or, in template mode, the text of their signature
/// ([`crate::signature`]), in which every literal is the placeholder
/// `?()`, every IN list one placeholder and an INSERT its first row.
/// One printer for both, so a template is the statement's own text but
/// for its constants.
pub(crate) struct Printer<'w, W> {
    out: &'w mut W,
    template: bool,
}

impl<'w, W: fmt::Write> Printer<'w, W> {
    /// A printer of SQL text.
    fn plain(out: &'w mut W) -> Self {
        Self { out, template: false }
    }

    /// A printer of signature templates.
    pub(crate) fn template(out: &'w mut W) -> Self {
        Self { out, template: true }
    }

    fn literal(&mut self, l: &Literal) -> fmt::Result {
        if self.template {
            self.out.write_str("?()")
        } else {
            write!(self.out, "{l}")
        }
    }

    /// Expressions separated by `, `.
    fn list(&mut self, exprs: &[Expr]) -> fmt::Result {
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            self.expr(e, 0)?;
        }
        Ok(())
    }

    fn expr(&mut self, expr: &Expr, parent_prec: u8) -> fmt::Result {
        match expr {
            Expr::Literal(l) => self.literal(l),
            Expr::Column(c) => write!(self.out, "{c}"),
            Expr::Binary { left, op, right } => {
                let prec = precedence(*op);
                let needs_parens = prec < parent_prec;
                if needs_parens {
                    self.out.write_char('(')?;
                }
                self.expr(left, prec)?;
                write!(self.out, " {} ", op.symbol())?;
                // right side binds one tighter to preserve left-associativity
                self.expr(right, prec + 1)?;
                if needs_parens {
                    self.out.write_char(')')?;
                }
                Ok(())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => {
                    self.out.write_str("NOT ")?;
                    self.expr(expr, 3)
                }
                UnaryOp::Neg => {
                    self.out.write_str("-")?;
                    self.expr(expr, 6)
                }
            },
            Expr::Between { expr, negated, low, high } => {
                self.expr(expr, 4)?;
                if *negated {
                    self.out.write_str(" NOT")?;
                }
                self.out.write_str(" BETWEEN ")?;
                self.expr(low, 4)?;
                self.out.write_str(" AND ")?;
                self.expr(high, 4)
            }
            Expr::InList { expr, negated, list } => {
                self.expr(expr, 4)?;
                if *negated {
                    self.out.write_str(" NOT")?;
                }
                self.out.write_str(" IN (")?;
                if self.template {
                    // IN lists of different lengths share a template
                    self.out.write_str("?()")?;
                } else {
                    self.list(list)?;
                }
                self.out.write_str(")")
            }
            Expr::Like { expr, negated, pattern } => {
                self.expr(expr, 4)?;
                if *negated {
                    self.out.write_str(" NOT")?;
                }
                self.out.write_str(" LIKE ")?;
                self.expr(pattern, 4)
            }
            Expr::IsNull { expr, negated } => {
                self.expr(expr, 4)?;
                if *negated {
                    self.out.write_str(" IS NOT NULL")
                } else {
                    self.out.write_str(" IS NULL")
                }
            }
            Expr::Aggregate { func, distinct, arg } => {
                write!(self.out, "{}(", func.name())?;
                if *distinct {
                    self.out.write_str("DISTINCT ")?;
                }
                match arg {
                    Some(a) => self.expr(a, 0)?,
                    None => self.out.write_str("*")?,
                }
                self.out.write_str(")")
            }
            Expr::Function { name, args } => {
                write!(self.out, "{name}(")?;
                self.list(args)?;
                self.out.write_str(")")
            }
        }
    }

    fn select(&mut self, s: &SelectStatement) -> fmt::Result {
        self.out.write_str("SELECT ")?;
        if s.distinct {
            self.out.write_str("DISTINCT ")?;
        }
        if let Some(n) = s.top {
            write!(self.out, "TOP {n} ")?;
        }
        if s.projections.is_empty() {
            self.out.write_str("*")?;
        } else {
            for (i, p) in s.projections.iter().enumerate() {
                if i > 0 {
                    self.out.write_str(", ")?;
                }
                self.expr(&p.expr, 0)?;
                if let Some(a) = &p.alias {
                    write!(self.out, " AS {a}")?;
                }
            }
        }
        if !s.from.is_empty() {
            self.out.write_str(" FROM ")?;
            for (i, twj) in s.from.iter().enumerate() {
                if i > 0 {
                    self.out.write_str(", ")?;
                }
                write!(self.out, "{}", twj.base)?;
                for j in &twj.joins {
                    write!(self.out, " JOIN {} ON ", j.table)?;
                    self.expr(&j.on, 0)?;
                }
            }
        }
        if let Some(p) = &s.predicate {
            self.out.write_str(" WHERE ")?;
            self.expr(p, 0)?;
        }
        if !s.group_by.is_empty() {
            self.out.write_str(" GROUP BY ")?;
            self.list(&s.group_by)?;
        }
        if let Some(h) = &s.having {
            self.out.write_str(" HAVING ")?;
            self.expr(h, 0)?;
        }
        if !s.order_by.is_empty() {
            self.out.write_str(" ORDER BY ")?;
            for (i, o) in s.order_by.iter().enumerate() {
                if i > 0 {
                    self.out.write_str(", ")?;
                }
                self.expr(&o.expr, 0)?;
                if o.desc {
                    self.out.write_str(" DESC")?;
                }
            }
        }
        Ok(())
    }

    fn insert(&mut self, s: &InsertStatement) -> fmt::Result {
        write!(self.out, "INSERT INTO {}", s.table)?;
        if !s.columns.is_empty() {
            self.out.write_str(" (")?;
            for (i, c) in s.columns.iter().enumerate() {
                if i > 0 {
                    self.out.write_str(", ")?;
                }
                self.out.write_str(c)?;
            }
            self.out.write_str(")")?;
        }
        self.out.write_str(" VALUES ")?;
        // all VALUES tuples share a template, however many there are
        let rows = if self.template { s.rows.len().min(1) } else { s.rows.len() };
        for (i, row) in s.rows.iter().take(rows).enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            self.out.write_str("(")?;
            self.list(row)?;
            self.out.write_str(")")?;
        }
        Ok(())
    }

    fn update(&mut self, s: &UpdateStatement) -> fmt::Result {
        write!(self.out, "UPDATE {} SET ", s.table)?;
        for (i, (col, e)) in s.assignments.iter().enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            write!(self.out, "{col} = ")?;
            self.expr(e, 0)?;
        }
        if let Some(p) = &s.predicate {
            self.out.write_str(" WHERE ")?;
            self.expr(p, 0)?;
        }
        Ok(())
    }

    fn delete(&mut self, s: &DeleteStatement) -> fmt::Result {
        write!(self.out, "DELETE FROM {}", s.table)?;
        if let Some(p) = &s.predicate {
            self.out.write_str(" WHERE ")?;
            self.expr(p, 0)?;
        }
        Ok(())
    }

    pub(crate) fn statement(&mut self, s: &Statement) -> fmt::Result {
        match s {
            Statement::Select(s) => self.select(s),
            Statement::Insert(s) => self.insert(s),
            Statement::Update(s) => self.update(s),
            Statement::Delete(s) => self.delete(s),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).expr(self, 0)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(a) = &self.alias {
            write!(f, " AS {a}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).select(self)
    }
}

impl fmt::Display for InsertStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).insert(self)
    }
}

impl fmt::Display for UpdateStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).update(self)
    }
}

impl fmt::Display for DeleteStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).delete(self)
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).statement(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_statement;

    fn roundtrip(sql: &str) {
        let stmt = parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
        assert_eq!(stmt, reparsed, "roundtrip mismatch for {sql}");
    }

    #[test]
    fn roundtrips() {
        for sql in [
            "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
            "SELECT * FROM t",
            "SELECT DISTINCT a FROM t",
            "SELECT TOP 5 a FROM t ORDER BY a DESC",
            "SELECT a AS x, b y FROM t AS q",
            "SELECT l.a FROM lineitem AS l JOIN orders AS o ON l.k = o.k WHERE o.d < '1995-01-01'",
            "SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3",
            "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT IN (1, 2) AND c LIKE 'x' AND d IS NULL",
            "SELECT a + b * c - d / e FROM t",
            "SELECT SUM(a * (1 - b)) FROM t",
            "SELECT COUNT(DISTINCT a) FROM t",
            "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)",
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "DELETE FROM t WHERE k < 100",
            "SELECT a FROM t WHERE NOT x = 1",
            "SELECT substring(a, 1, 2) FROM t",
            "SELECT a FROM t WHERE x > -5 AND y < -2.5",
            "SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) > 100 ORDER BY a",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn canonical_spacing() {
        let stmt = parse_statement("select   a from  t where x<10").unwrap();
        assert_eq!(stmt.to_string(), "SELECT a FROM t WHERE x < 10");
    }

    #[test]
    fn parenthesization_preserves_structure() {
        // (1 + 2) * 3 must not print as 1 + 2 * 3
        let stmt = parse_statement("SELECT (a + b) * c FROM t").unwrap();
        assert_eq!(stmt.to_string(), "SELECT (a + b) * c FROM t");
    }

    #[test]
    fn left_associativity_preserved() {
        // a - b - c is (a-b)-c; naive printing without right-side +1 would
        // reparse a - (b - c).
        roundtrip("SELECT a - b - c FROM t");
        roundtrip("SELECT a / b / c FROM t");
    }
}
