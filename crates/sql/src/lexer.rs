//! Hand-written SQL lexer.
//!
//! Identifiers and keywords are case-insensitive; identifiers are
//! normalized to lower case so that the rest of the system can compare
//! names directly.

use crate::error::{ParseError, Result};

/// SQL keywords recognised by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kw {
    /// `SELECT` — opens a query's projection list.
    Select,
    /// `DISTINCT` — deduplicates the projected rows.
    Distinct,
    /// `TOP` — limits the result to the first *n* rows.
    Top,
    /// `FROM` — introduces the table sources.
    From,
    /// `WHERE` — filters rows by a predicate.
    Where,
    /// `GROUP` — first half of `GROUP BY`.
    Group,
    /// `ORDER` — first half of `ORDER BY`.
    Order,
    /// `BY` — second half of `GROUP BY` / `ORDER BY`.
    By,
    /// `HAVING` — filters groups after aggregation.
    Having,
    /// `AS` — aliases a column or table.
    As,
    /// `AND` — boolean conjunction.
    And,
    /// `OR` — boolean disjunction.
    Or,
    /// `NOT` — boolean negation; also `NOT IN` / `NOT LIKE` / `NOT BETWEEN`.
    Not,
    /// `BETWEEN` — inclusive range predicate.
    Between,
    /// `IN` — membership in a literal list.
    In,
    /// `LIKE` — string pattern match (`%` / `_` wildcards).
    Like,
    /// `IS` — as in `IS [NOT] NULL`.
    Is,
    /// `NULL` — the null literal.
    Null,
    /// `JOIN` — table join clause.
    Join,
    /// `INNER` — join qualifier (the only kind the dialect supports).
    Inner,
    /// `ON` — join condition.
    On,
    /// `INSERT` — opens an insert statement.
    Insert,
    /// `INTO` — as in `INSERT INTO`.
    Into,
    /// `VALUES` — the inserted tuples.
    Values,
    /// `UPDATE` — opens an update statement.
    Update,
    /// `SET` — the update assignment list.
    Set,
    /// `DELETE` — opens a delete statement.
    Delete,
    /// `ASC` — ascending sort direction.
    Asc,
    /// `DESC` — descending sort direction.
    Desc,
}

/// Every keyword, as the dialect spells it.
const KEYWORDS: [(&str, Kw); 29] = [
    ("select", Kw::Select),
    ("distinct", Kw::Distinct),
    ("top", Kw::Top),
    ("from", Kw::From),
    ("where", Kw::Where),
    ("group", Kw::Group),
    ("order", Kw::Order),
    ("by", Kw::By),
    ("having", Kw::Having),
    ("as", Kw::As),
    ("and", Kw::And),
    ("or", Kw::Or),
    ("not", Kw::Not),
    ("between", Kw::Between),
    ("in", Kw::In),
    ("like", Kw::Like),
    ("is", Kw::Is),
    ("null", Kw::Null),
    ("join", Kw::Join),
    ("inner", Kw::Inner),
    ("on", Kw::On),
    ("insert", Kw::Insert),
    ("into", Kw::Into),
    ("values", Kw::Values),
    ("update", Kw::Update),
    ("set", Kw::Set),
    ("delete", Kw::Delete),
    ("asc", Kw::Asc),
    ("desc", Kw::Desc),
];

impl Kw {
    /// The keyword `word` spells in any case, if any: decided without
    /// lower-casing a copy.
    fn from_word(word: &str) -> Option<Kw> {
        KEYWORDS.iter().find(|(k, _)| k.eq_ignore_ascii_case(word)).map(|&(_, kw)| kw)
    }
}

/// A lexical token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Keyword(Kw),
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    Plus,
    Minus,
    Star,
    Slash,
    Comma,
    Dot,
    LParen,
    RParen,
    Semicolon,
    /// End of input (always the final token).
    Eof,
}

impl TokenKind {
    /// Short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => format!("keyword {k:?}"),
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("{other:?}"),
        }
    }
}

/// Tokenize `input` into a vector ending with an `Eof` token.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let at = |j: usize| bytes.get(j).copied();
    // an ASCII run starts and ends on char boundaries
    let ascii = |from: usize, to: usize| input.get(from..to).expect("ASCII runs are whole chars");
    let mut out = Vec::with_capacity(input.len() / 4 + 4);
    let mut i = 0;
    while let Some(c) = at(i) {
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if at(i + 1) == Some(b'-') => {
                // line comment
                while at(i).is_some_and(|b| b != b'\n') {
                    i += 1;
                }
            }
            b'\'' => {
                let start = i;
                let mut s = String::new();
                // `i` is at a quote: copy the text up to the next one whole,
                // so multi-byte characters survive; '' escapes a quote
                loop {
                    let rest = input.get(i + 1..).unwrap_or_default();
                    let Some((run, _)) = rest.split_once('\'') else {
                        return Err(ParseError::new("unterminated string literal", start));
                    };
                    s.push_str(run);
                    i += run.len() + 2;
                    if at(i) != Some(b'\'') {
                        break;
                    }
                    s.push('\'');
                }
                out.push(Token { kind: TokenKind::Str(s), offset: start });
            }
            b'0'..=b'9' => {
                let start = i;
                while at(i).is_some_and(|b| b.is_ascii_digit()) {
                    i += 1;
                }
                let mut is_float = false;
                if at(i) == Some(b'.') && at(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    is_float = true;
                    i += 1;
                    while at(i).is_some_and(|b| b.is_ascii_digit()) {
                        i += 1;
                    }
                }
                let text = ascii(start, i);
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid float literal '{text}'"), start)
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid integer literal '{text}'"), start)
                    })?)
                };
                out.push(Token { kind, offset: start });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while at(i).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
                    i += 1;
                }
                let word = ascii(start, i);
                let kind = match Kw::from_word(word) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(word.to_ascii_lowercase()),
                };
                out.push(Token { kind, offset: start });
            }
            _ => {
                let start = i;
                let kind = match c {
                    b'=' => {
                        i += 1;
                        TokenKind::Eq
                    }
                    b'<' => {
                        i += 1;
                        if at(i) == Some(b'=') {
                            i += 1;
                            TokenKind::LtEq
                        } else if at(i) == Some(b'>') {
                            i += 1;
                            TokenKind::NotEq
                        } else {
                            TokenKind::Lt
                        }
                    }
                    b'>' => {
                        i += 1;
                        if at(i) == Some(b'=') {
                            i += 1;
                            TokenKind::GtEq
                        } else {
                            TokenKind::Gt
                        }
                    }
                    b'!' => {
                        i += 1;
                        if at(i) == Some(b'=') {
                            i += 1;
                            TokenKind::NotEq
                        } else {
                            return Err(ParseError::new("expected '=' after '!'", start));
                        }
                    }
                    b'+' => {
                        i += 1;
                        TokenKind::Plus
                    }
                    b'-' => {
                        i += 1;
                        TokenKind::Minus
                    }
                    b'*' => {
                        i += 1;
                        TokenKind::Star
                    }
                    b'/' => {
                        i += 1;
                        TokenKind::Slash
                    }
                    b',' => {
                        i += 1;
                        TokenKind::Comma
                    }
                    b'.' => {
                        i += 1;
                        TokenKind::Dot
                    }
                    b'(' => {
                        i += 1;
                        TokenKind::LParen
                    }
                    b')' => {
                        i += 1;
                        TokenKind::RParen
                    }
                    b';' => {
                        i += 1;
                        TokenKind::Semicolon
                    }
                    other => {
                        return Err(ParseError::new(
                            format!("unexpected character '{}'", other as char),
                            start,
                        ))
                    }
                };
                out.push(Token { kind, offset: start });
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, offset: input.len() });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("SELECT foo FROM Bar");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Kw::Select),
                TokenKind::Ident("foo".into()),
                TokenKind::Keyword(Kw::From),
                TokenKind::Ident("bar".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 007"),
            vec![TokenKind::Int(1), TokenKind::Float(2.5), TokenKind::Int(7), TokenKind::Eof]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into()), TokenKind::Eof]);
    }

    #[test]
    fn non_ascii_string_literals_keep_their_characters() {
        assert_eq!(kinds("'café'"), vec![TokenKind::Str("café".into()), TokenKind::Eof]);
        assert_eq!(
            kinds("'naïve''s 東京' 'x'"),
            vec![TokenKind::Str("naïve's 東京".into()), TokenKind::Str("x".into()), TokenKind::Eof]
        );
        assert_eq!(kinds("''''"), vec![TokenKind::Str("'".into()), TokenKind::Eof]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("'é''").is_err());
        assert!(tokenize("'").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("< <= <> != >= > ="),
            vec![
                TokenKind::Lt,
                TokenKind::LtEq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::GtEq,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_comments_skipped() {
        assert_eq!(
            kinds("1 -- comment here\n 2"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("a  b").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }

    #[test]
    fn bad_character_errors() {
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("a ! b").is_err());
    }
}
