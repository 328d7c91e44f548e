//! Expression evaluation over relation rows.

use crate::relation::Relation;
use crate::ExecError;
use dta_catalog::Value;
use dta_sql::{AggFunc, BinaryOp, Expr, Literal, UnaryOp};

/// Per-group aggregate values by canonical key, and the values a
/// `COUNT(DISTINCT …)` has seen.
#[expect(clippy::disallowed_types, reason = "probed by key, never iterated")]
type HashMap<K, V> = std::collections::HashMap<K, V>;
#[expect(clippy::disallowed_types, reason = "only counted, never iterated")]
type HashSet<T> = std::collections::HashSet<T>;

/// A canonical key identifying an aggregate occurrence, used to look up
/// precomputed per-group aggregate values during final projection.
pub fn agg_key(func: AggFunc, arg: &Option<Box<Expr>>, distinct: bool) -> String {
    let arg_s = arg.as_ref().map(|a| a.to_string()).unwrap_or_else(|| "*".into());
    format!("{}({}{})", func.name(), if distinct { "DISTINCT " } else { "" }, arg_s)
}

/// Evaluate `expr` against one row of `rel`. `aggs` supplies values for
/// aggregate sub-expressions (keyed by [`agg_key`]) when evaluating
/// post-aggregation projections.
pub fn eval(
    expr: &Expr,
    rel: &Relation,
    row: &[Value],
    aggs: Option<&HashMap<String, Value>>,
) -> Result<Value, ExecError> {
    match expr {
        Expr::Literal(l) => Ok(literal(l)),
        Expr::Column(c) => {
            let pos = rel
                .position(c.table.as_deref(), &c.column)
                .ok_or_else(|| ExecError::Eval(format!("unknown column {c}")))?;
            row.get(pos).cloned().ok_or_else(|| ExecError::Eval(format!("short row at {c}")))
        }
        Expr::Binary { left, op, right } => {
            let l = eval(left, rel, row, aggs)?;
            let r = eval(right, rel, row, aggs)?;
            binary(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, rel, row, aggs)?;
            match op {
                UnaryOp::Not => Ok(Value::Int(if !truthy(&v) { 1 } else { 0 })),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(ExecError::Eval(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Between { expr, negated, low, high } => {
            let v = eval(expr, rel, row, aggs)?;
            let lo = eval(low, rel, row, aggs)?;
            let hi = eval(high, rel, row, aggs)?;
            let hit = !v.is_null() && v >= lo && v <= hi;
            Ok(bool_val(hit != *negated))
        }
        Expr::InList { expr, negated, list } => {
            let v = eval(expr, rel, row, aggs)?;
            let mut hit = false;
            for e in list {
                if eval(e, rel, row, aggs)? == v {
                    hit = true;
                    break;
                }
            }
            Ok(bool_val(hit != *negated))
        }
        Expr::Like { expr, negated, pattern } => {
            let v = eval(expr, rel, row, aggs)?;
            let p = eval(pattern, rel, row, aggs)?;
            let hit = match (&v, &p) {
                (Value::Str(s), Value::Str(pat)) => like_match(s, pat),
                _ => false,
            };
            Ok(bool_val(hit != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, rel, row, aggs)?;
            Ok(bool_val(v.is_null() != *negated))
        }
        Expr::Aggregate { func, distinct, arg } => {
            let key = agg_key(*func, arg, *distinct);
            aggs.and_then(|m| m.get(&key))
                .cloned()
                .ok_or_else(|| ExecError::Eval(format!("aggregate {key} outside GROUP context")))
        }
        Expr::Function { name, args } => {
            // the only scalar functions the dialect needs: substring and
            // numeric helpers; unknown functions evaluate their first arg
            match (name.as_str(), args.first()) {
                ("substring", Some(first)) => {
                    let v = eval(first, rel, row, aggs)?;
                    let start = args
                        .get(1)
                        .map(|a| eval(a, rel, row, aggs))
                        .transpose()?
                        .and_then(|v| v.as_f64())
                        .unwrap_or(1.0) as usize;
                    let len = args
                        .get(2)
                        .map(|a| eval(a, rel, row, aggs))
                        .transpose()?
                        .and_then(|v| v.as_f64())
                        .unwrap_or(f64::MAX);
                    match v {
                        Value::Str(s) => {
                            let start = start.saturating_sub(1).min(s.len());
                            let end = if len == f64::MAX {
                                s.len()
                            } else {
                                (start + len as usize).min(s.len())
                            };
                            // get() also refuses to split a multi-byte
                            // character, which a bare slice would panic on
                            Ok(Value::Str(s.get(start..end).unwrap_or_default().to_string()))
                        }
                        other => Ok(other),
                    }
                }
                (_, Some(first)) => eval(first, rel, row, aggs),
                _ => Ok(Value::Null),
            }
        }
    }
}

/// Evaluate a predicate expression to a boolean.
pub fn eval_predicate(expr: &Expr, rel: &Relation, row: &[Value]) -> Result<bool, ExecError> {
    Ok(truthy(&eval(expr, rel, row, None)?))
}

fn literal(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    }
}

fn bool_val(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Str(s) => !s.is_empty(),
    }
}

fn binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    use BinaryOp::*;
    match op {
        And => return Ok(bool_val(truthy(l) && truthy(r))),
        Or => return Ok(bool_val(truthy(l) || truthy(r))),
        Eq => return Ok(bool_val(!l.is_null() && !r.is_null() && l == r)),
        NotEq => return Ok(bool_val(!l.is_null() && !r.is_null() && l != r)),
        Lt => return Ok(bool_val(!l.is_null() && !r.is_null() && l < r)),
        LtEq => return Ok(bool_val(!l.is_null() && !r.is_null() && l <= r)),
        Gt => return Ok(bool_val(!l.is_null() && !r.is_null() && l > r)),
        GtEq => return Ok(bool_val(!l.is_null() && !r.is_null() && l >= r)),
        _ => {}
    }
    // arithmetic
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            Add => Value::Int(a + b),
            Sub => Value::Int(a - b),
            Mul => Value::Int(a * b),
            Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "comparison operators were dispatched before this match; only \
                          arithmetic operators can reach it"
            )]
            _ => unreachable!("comparisons handled above"),
        }),
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(ExecError::Eval(format!("arithmetic on {l} and {r}")));
            };
            Ok(match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                #[expect(
                    clippy::unreachable,
                    reason = "comparison operators were dispatched before this match; only \
                              arithmetic operators can reach it"
                )]
                _ => unreachable!("comparisons handled above"),
            })
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match (p.split_first(), s.split_first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some((b'%', p_rest)), _) => {
                // match zero or more characters
                if rec(s, p_rest) {
                    return true;
                }
                match s.split_first() {
                    Some((_, s_rest)) => rec(s_rest, p),
                    None => false,
                }
            }
            (Some((b'_', p_rest)), Some((_, s_rest))) => rec(s_rest, p_rest),
            (Some((c, p_rest)), Some((d, s_rest))) if c == d => rec(s_rest, p_rest),
            _ => false,
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

/// An incremental aggregate accumulator.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Count(u64),
    Sum(f64, bool),
    Avg { sum: f64, count: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
    CountDistinct(HashSet<Value>),
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        match (func, distinct) {
            (AggFunc::Count, true) => Accumulator::CountDistinct(Default::default()),
            (AggFunc::Count, false) => Accumulator::Count(0),
            (AggFunc::Sum, _) => Accumulator::Sum(0.0, false),
            (AggFunc::Avg, _) => Accumulator::Avg { sum: 0.0, count: 0 },
            (AggFunc::Min, _) => Accumulator::Min(None),
            (AggFunc::Max, _) => Accumulator::Max(None),
        }
    }

    /// Fold one value in (`None` = `COUNT(*)` with no argument).
    pub fn push(&mut self, v: Option<&Value>) {
        match self {
            Accumulator::Count(c) => {
                if v.is_none_or(|v| !v.is_null()) {
                    *c += 1;
                }
            }
            Accumulator::CountDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set.insert(v.clone());
                    }
                }
            }
            Accumulator::Sum(s, seen) => {
                if let Some(x) = v.and_then(|v| v.as_f64()) {
                    *s += x;
                    *seen = true;
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(x) = v.and_then(|v| v.as_f64()) {
                    *sum += x;
                    *count += 1;
                }
            }
            Accumulator::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            Accumulator::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
    }

    /// Final value.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int(*c as i64),
            Accumulator::CountDistinct(set) => Value::Int(set.len() as i64),
            Accumulator::Sum(s, seen) => {
                if *seen {
                    Value::Float(*s)
                } else {
                    Value::Null
                }
            }
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{ColId, Relation};
    use dta_sql::parse_statement;

    fn rel() -> (Relation, Vec<Value>) {
        let r = Relation::new(vec![ColId::new("t", "a"), ColId::new("t", "s")]);
        (r, vec![Value::Int(7), Value::Str("hello".into())])
    }

    fn pred(sql_where: &str) -> Expr {
        let stmt = parse_statement(&format!("SELECT a FROM t WHERE {sql_where}")).unwrap();
        match stmt {
            dta_sql::Statement::Select(s) => s.predicate.unwrap(),
            other => panic!("expected a SELECT, got {other:?}"),
        }
    }

    #[test]
    fn predicates() {
        let (r, row) = rel();
        for (p, want) in [
            ("a = 7", true),
            ("a <> 7", false),
            ("a BETWEEN 5 AND 9", true),
            ("a NOT BETWEEN 5 AND 9", false),
            ("a IN (1, 7)", true),
            ("a IN (1, 2)", false),
            ("s LIKE 'he%'", true),
            ("s LIKE '%ell%'", true),
            ("s LIKE 'h_llo'", true),
            ("s LIKE 'x%'", false),
            ("s IS NULL", false),
            ("s IS NOT NULL", true),
            ("a = 7 AND s LIKE 'h%'", true),
            ("a = 1 OR s = 'hello'", true),
            ("NOT a = 7", false),
            ("a + 1 = 8", true),
            ("a * 2 > 13", true),
            ("a / 2 = 3.5", true),
        ] {
            assert_eq!(eval_predicate(&pred(p), &r, &row).unwrap(), want, "{p}");
        }
    }

    #[test]
    fn null_comparisons_false() {
        let r = Relation::new(vec![ColId::new("t", "a")]);
        let row = vec![Value::Null];
        assert!(!eval_predicate(&pred("a = 1"), &r, &row).unwrap());
        assert!(!eval_predicate(&pred("a <> 1"), &r, &row).unwrap());
        assert!(eval_predicate(&pred("a IS NULL"), &r, &row).unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let (r, row) = rel();
        assert!(eval_predicate(&pred("zzz = 1"), &r, &row).is_err());
    }

    #[test]
    fn accumulators() {
        let vals = [Value::Int(3), Value::Int(1), Value::Int(3), Value::Null];
        let mut cases = vec![
            (Accumulator::new(AggFunc::Count, false), Value::Int(3)),
            (Accumulator::new(AggFunc::Sum, false), Value::Float(7.0)),
            (Accumulator::new(AggFunc::Avg, false), Value::Float(7.0 / 3.0)),
            (Accumulator::new(AggFunc::Min, false), Value::Int(1)),
            (Accumulator::new(AggFunc::Max, false), Value::Int(3)),
            (Accumulator::new(AggFunc::Count, true), Value::Int(2)),
        ];
        for (acc, want) in &mut cases {
            for v in &vals {
                acc.push(Some(v));
            }
            assert_eq!(acc.finish(), *want);
        }
        // COUNT(*) counts nulls too
        let mut star = Accumulator::new(AggFunc::Count, false);
        for _ in &vals {
            star.push(None);
        }
        assert_eq!(star.finish(), Value::Int(4));
    }

    #[test]
    fn empty_accumulators() {
        assert_eq!(Accumulator::new(AggFunc::Sum, false).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Min, false).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Count, false).finish(), Value::Int(0));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("abcdef", "abc%"));
        assert!(like_match("abcdef", "%def"));
        assert!(like_match("abcdef", "a%f"));
        assert!(like_match("abcdef", "______"));
        assert!(!like_match("abcdef", "_____"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }
}
