//! Statement signatures — the templatization relation from §5.1.
//!
//! Two statements have the same *signature* iff they are identical in all
//! respects except the constants they reference. Workload compression
//! partitions a workload by signature and then tunes only representatives
//! from each partition.
//!
//! The signature is the statement printed in the printer's template mode:
//! every literal as the placeholder `?()`, every IN list as one
//! placeholder and an INSERT's rows as its first, so that statements
//! differing only in constants share it. No copy of the statement is
//! made. Alongside the signature we extract the *parameter
//! vector* (the literals in occurrence order), which the compression
//! clustering uses as a crude distance signal.

use crate::ast::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The template text of a statement with literals replaced by `?`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub String);

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Compute the signature of a statement.
pub fn signature(stmt: &Statement) -> Signature {
    // room for most statements' templates, so that one allocation holds it
    let mut text = String::with_capacity(256);
    // writing to a String cannot fail
    let _ = crate::printer::Printer::template(&mut text).statement(stmt);
    Signature(text)
}

/// A 64-bit hash of the signature, for cheap grouping.
pub fn signature_hash(stmt: &Statement) -> u64 {
    let mut h = DefaultHasher::new();
    signature(stmt).0.hash(&mut h);
    h.finish()
}

/// Extract the literals of a statement in occurrence order, as f64 features
/// (strings hash to a stable numeric value). Used by workload-compression
/// clustering.
pub fn parameter_vector(stmt: &Statement) -> Vec<f64> {
    let mut out = Vec::new();
    crate::visit::walk_statement_exprs(stmt, &mut |e| {
        if let Expr::Literal(l) = e {
            out.push(literal_feature(l));
        }
    });
    out
}

fn literal_feature(l: &Literal) -> f64 {
    match l {
        Literal::Int(v) => *v as f64,
        Literal::Float(v) => *v,
        Literal::Str(s) => {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            // map onto a bounded range so distances stay comparable
            (h.finish() % 100_000) as f64
        }
        Literal::Null => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn sig(sql: &str) -> Signature {
        signature(&parse_statement(sql).unwrap())
    }

    #[test]
    fn same_template_same_signature() {
        assert_eq!(sig("SELECT a FROM t WHERE x < 10"), sig("SELECT a FROM t WHERE x < 99"));
        assert_eq!(sig("SELECT a FROM t WHERE s = 'foo'"), sig("SELECT a FROM t WHERE s = 'bar'"));
    }

    #[test]
    fn different_structure_different_signature() {
        assert_ne!(sig("SELECT a FROM t WHERE x < 10"), sig("SELECT a FROM t WHERE x > 10"));
        assert_ne!(sig("SELECT a FROM t WHERE x < 10"), sig("SELECT b FROM t WHERE x < 10"));
        assert_ne!(sig("SELECT a FROM t"), sig("SELECT a FROM u"));
    }

    #[test]
    fn in_lists_collapse() {
        assert_eq!(
            sig("SELECT a FROM t WHERE b IN (1, 2, 3)"),
            sig("SELECT a FROM t WHERE b IN (7)")
        );
    }

    #[test]
    fn insert_rows_collapse() {
        assert_eq!(sig("INSERT INTO t VALUES (1, 2)"), sig("INSERT INTO t VALUES (3, 4), (5, 6)"));
    }

    #[test]
    fn dml_signatures() {
        assert_eq!(sig("UPDATE t SET a = 5 WHERE k = 1"), sig("UPDATE t SET a = 9 WHERE k = 3"));
        assert_ne!(sig("UPDATE t SET a = 5 WHERE k = 1"), sig("UPDATE t SET b = 5 WHERE k = 1"));
    }

    #[test]
    fn parameter_vectors() {
        let stmt = parse_statement("SELECT a FROM t WHERE x < 10 AND y = 2.5").unwrap();
        assert_eq!(parameter_vector(&stmt), vec![10.0, 2.5]);
    }

    #[test]
    fn hash_consistency() {
        let a = parse_statement("SELECT a FROM t WHERE x < 10").unwrap();
        let b = parse_statement("SELECT a FROM t WHERE x < 42").unwrap();
        assert_eq!(signature_hash(&a), signature_hash(&b));
    }
}
