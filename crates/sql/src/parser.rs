//! Recursive-descent parser for the DTA SQL dialect.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::{tokenize, Kw, Token, TokenKind};

/// Parse a single statement; trailing semicolon is allowed.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input)?;
    let stmt = p.statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a standalone scalar/boolean expression (used by the engine to
/// evaluate canonical aggregate arguments stored in view definitions).
pub fn parse_expression(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a script of `;`-separated statements (a workload file).
pub fn parse_script(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
        if !p.at_eof() && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("';' between statements"));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self> {
        Ok(Self { tokens: tokenize(input)?, pos: 0 })
    }

    /// The token at `pos`, which never moves past the closing `Eof`.
    fn current(&self) -> &Token {
        self.tokens.get(self.pos).expect("pos stops at the Eof that ends every stream")
    }

    fn peek(&self) -> &TokenKind {
        &self.current().kind
    }

    fn peek2(&self) -> &TokenKind {
        self.tokens.get(self.pos + 1).map_or(self.peek(), |t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.current().offset
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.current().kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn check_kw(&self, kw: Kw) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw:?}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::new(
            format!("expected {wanted}, found {}", self.peek().describe()),
            self.offset(),
        )
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(Kw::Select) => Ok(Statement::Select(self.select()?)),
            TokenKind::Keyword(Kw::Insert) => Ok(Statement::Insert(self.insert()?)),
            TokenKind::Keyword(Kw::Update) => Ok(Statement::Update(self.update()?)),
            TokenKind::Keyword(Kw::Delete) => Ok(Statement::Delete(self.delete()?)),
            _ => Err(self.unexpected("SELECT, INSERT, UPDATE or DELETE")),
        }
    }

    fn select(&mut self) -> Result<SelectStatement> {
        self.expect_kw(Kw::Select)?;
        let mut stmt =
            SelectStatement { distinct: self.eat_kw(Kw::Distinct), ..Default::default() };
        if self.eat_kw(Kw::Top) {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => stmt.top = Some(n as u64),
                _ => return Err(self.unexpected("non-negative integer after TOP")),
            }
        }
        // select list: `*` or comma-separated items
        if self.eat(&TokenKind::Star) {
            // empty projections = SELECT *
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_kw(Kw::As) || matches!(self.peek(), TokenKind::Ident(_)) {
                    Some(self.ident()?)
                } else {
                    None
                };
                stmt.projections.push(SelectItem { expr, alias });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::From) {
            loop {
                stmt.from.push(self.table_with_joins()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Where) {
            stmt.predicate = Some(self.expr()?);
        }
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Having) {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw(Kw::Desc) {
                    true
                } else {
                    self.eat_kw(Kw::Asc);
                    false
                };
                stmt.order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(stmt)
    }

    fn table_with_joins(&mut self) -> Result<TableWithJoins> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.check_kw(Kw::Inner);
            if inner && !matches!(self.peek2(), TokenKind::Keyword(Kw::Join)) {
                return Err(self.unexpected("JOIN after INNER"));
            }
            if inner {
                self.advance();
            }
            if !self.eat_kw(Kw::Join) {
                break;
            }
            let table = self.table_ref()?;
            self.expect_kw(Kw::On)?;
            let on = self.expr()?;
            joins.push(Join { table, on });
        }
        Ok(TableWithJoins { base, joins })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw(Kw::As) || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn insert(&mut self) -> Result<InsertStatement> {
        self.expect_kw(Kw::Insert)?;
        self.expect_kw(Kw::Into)?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw(Kw::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(InsertStatement { table, columns, rows })
    }

    fn update(&mut self) -> Result<UpdateStatement> {
        self.expect_kw(Kw::Update)?;
        let table = self.ident()?;
        self.expect_kw(Kw::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let predicate = if self.eat_kw(Kw::Where) { Some(self.expr()?) } else { None };
        Ok(UpdateStatement { table, assignments, predicate })
    }

    fn delete(&mut self) -> Result<DeleteStatement> {
        self.expect_kw(Kw::Delete)?;
        self.expect_kw(Kw::From)?;
        let table = self.ident()?;
        let predicate = if self.eat_kw(Kw::Where) { Some(self.expr()?) } else { None };
        Ok(DeleteStatement { table, predicate })
    }

    // ---- expressions ----------------------------------------------------
    //
    // Precedence (low to high): OR, AND, NOT, comparison/BETWEEN/IN/LIKE/IS,
    // +/-, */÷, unary minus, primary.

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw(Kw::Or) {
            let right = self.and_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw(Kw::And) {
            let right = self.not_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Kw::Not) {
            let inner = self.not_expr()?;
            Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // NOT BETWEEN / NOT IN / NOT LIKE
        let negated = if self.check_kw(Kw::Not)
            && matches!(
                self.peek2(),
                TokenKind::Keyword(Kw::Between)
                    | TokenKind::Keyword(Kw::In)
                    | TokenKind::Keyword(Kw::Like)
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Kw::Between) {
            let low = self.additive()?;
            self.expect_kw(Kw::And)?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if self.eat_kw(Kw::In) {
            self.expect(&TokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), negated, list });
        }
        if self.eat_kw(Kw::Like) {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(left), negated, pattern: Box::new(pattern) });
        }
        if negated {
            return Err(self.unexpected("BETWEEN, IN or LIKE after NOT"));
        }
        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            self.expect_kw(Kw::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.additive()?;
            return Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            // constant-fold negated numeric literals so that `-1` is a literal
            match self.peek() {
                TokenKind::Int(v) => {
                    let v = -*v;
                    self.advance();
                    return Ok(Expr::Literal(Literal::Int(v)));
                }
                TokenKind::Float(v) => {
                    let v = -*v;
                    self.advance();
                    return Ok(Expr::Literal(Literal::Float(v)));
                }
                _ => {
                    let inner = self.unary()?;
                    return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
                }
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Keyword(Kw::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.advance();
                if self.check(&TokenKind::LParen) {
                    self.advance();
                    return self.call(name);
                }
                if self.eat(&TokenKind::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column(ColumnRef { table: Some(name), column }));
                }
                Ok(Expr::Column(ColumnRef { table: None, column: name }))
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    /// Finishes a function call after the opening paren has been consumed.
    fn call(&mut self, name: String) -> Result<Expr> {
        if let Some(func) = AggFunc::from_name(&name) {
            // COUNT(*) special case
            if func == AggFunc::Count && self.eat(&TokenKind::Star) {
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Aggregate { func, distinct: false, arg: None });
            }
            let distinct = self.eat_kw(Kw::Distinct);
            let arg = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Aggregate { func, distinct, arg: Some(Box::new(arg)) });
        }
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::Function { name, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(input: &str) -> SelectStatement {
        match parse_statement(input).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn non_ascii_literal_round_trips() {
        let sql = "SELECT name FROM cafes WHERE city = 'Zürich' AND name <> 'café'";
        let stmt = parse_statement(sql).unwrap();
        assert_eq!(stmt.to_string(), sql);
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].base.name, "t");
    }

    #[test]
    fn select_star() {
        let s = sel("SELECT * FROM t WHERE a = 1");
        assert!(s.projections.is_empty());
        assert!(s.predicate.is_some());
    }

    #[test]
    fn paper_example_1() {
        // Example 1 from the paper.
        let s = sel("SELECT A, COUNT(*) FROM T WHERE X < 10 GROUP BY A");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.is_aggregate());
        let pred = s.predicate.unwrap();
        assert_eq!(pred, Expr::col("x").cmp(BinaryOp::Lt, Expr::int(10)));
    }

    #[test]
    fn aliases_and_joins() {
        let s = sel(
            "SELECT l.a FROM lineitem AS l JOIN orders o ON l.okey = o.okey WHERE o.d < '1995-01-01'",
        );
        assert_eq!(s.from[0].base.alias.as_deref(), Some("l"));
        assert_eq!(s.from[0].joins.len(), 1);
        assert_eq!(s.from[0].joins[0].table.binding_name(), "o");
    }

    #[test]
    fn comma_joins() {
        let s = sel("SELECT a FROM t1, t2, t3 WHERE t1.x = t2.x AND t2.y = t3.y");
        assert_eq!(s.from.len(), 3);
    }

    #[test]
    fn inner_join() {
        let s = sel("SELECT a FROM t1 INNER JOIN t2 ON t1.x = t2.x");
        assert_eq!(s.from[0].joins.len(), 1);
    }

    #[test]
    fn between_in_like() {
        let s = sel("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) AND c LIKE 'abc'");
        let conj: Vec<_> = s.predicate.as_ref().unwrap().conjuncts().into_iter().cloned().collect();
        assert_eq!(conj.len(), 3);
        assert!(matches!(conj[0], Expr::Between { .. }));
        assert!(matches!(conj[1], Expr::InList { .. }));
        assert!(matches!(conj[2], Expr::Like { .. }));
    }

    #[test]
    fn negated_predicates() {
        let s = sel("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT IN (5) AND c NOT LIKE 'x' AND d IS NOT NULL");
        let conj = s.predicate.unwrap();
        let parts = conj.conjuncts().into_iter().cloned().collect::<Vec<_>>();
        assert!(matches!(parts[0], Expr::Between { negated: true, .. }));
        assert!(matches!(parts[1], Expr::InList { negated: true, .. }));
        assert!(matches!(parts[2], Expr::Like { negated: true, .. }));
        assert!(matches!(parts[3], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(w), COUNT(DISTINCT v) FROM t");
        assert_eq!(s.projections.len(), 6);
        assert!(matches!(s.projections[5].expr, Expr::Aggregate { distinct: true, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT a + b * c FROM t");
        match &s.projections[0].expr {
            Expr::Binary { op: BinaryOp::Add, right, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_or_precedence() {
        let s = sel("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
        match s.predicate.unwrap() {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_by_top() {
        let s = sel("SELECT TOP 10 a FROM t ORDER BY a DESC, b");
        assert_eq!(s.top, Some(10));
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
    }

    #[test]
    fn group_by_having() {
        let s = sel("SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) > 100");
        assert!(s.having.is_some());
    }

    #[test]
    fn insert_forms() {
        let i = match parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        assert_eq!(i.columns, vec!["a", "b"]);
        assert_eq!(i.rows.len(), 2);

        let i2 = match parse_statement("INSERT INTO t VALUES (1, 2)").unwrap() {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        assert!(i2.columns.is_empty());
    }

    #[test]
    fn update_statement() {
        let u = match parse_statement("UPDATE t SET a = a + 1, b = 'z' WHERE k = 5").unwrap() {
            Statement::Update(u) => u,
            other => panic!("{other:?}"),
        };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.predicate.is_some());
    }

    #[test]
    fn delete_statement() {
        let d = match parse_statement("DELETE FROM t WHERE k < 100").unwrap() {
            Statement::Delete(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(d.table, "t");
        assert!(d.predicate.is_some());
    }

    #[test]
    fn negative_literals_folded() {
        let s = sel("SELECT a FROM t WHERE x > -5 AND y < -2.5");
        let parts: Vec<Expr> = s.predicate.unwrap().conjuncts().into_iter().cloned().collect();
        assert_eq!(parts[0], Expr::col("x").cmp(BinaryOp::Gt, Expr::int(-5)));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script(
            "SELECT a FROM t; UPDATE t SET a = 1 WHERE b = 2;\n-- comment\nDELETE FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn script_without_separator_fails() {
        assert!(parse_script("SELECT a FROM t SELECT b FROM u").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("FROBNICATE").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE a NOT 5").is_err());
        assert!(parse_statement("SELECT TOP x a FROM t").is_err());
        assert!(parse_statement("SELECT a FROM t1 INNER t2").is_err());
    }
}
