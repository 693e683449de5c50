//! Hand-written SQL tokenizer.

use crate::error::{Error, Result};

/// A lexical token with its starting byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds. Keywords are not distinguished here — the parser matches
/// identifiers case-insensitively, which keeps the keyword set open-ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (case preserved).
    Ident(String),
    /// Numeric literal, unparsed text.
    Number(String),
    /// Single-quoted string literal with `''` escapes resolved.
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
}

/// Tokenizes `sql`, skipping whitespace and `--` line comments.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let offset = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LParen, offset });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RParen, offset });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, offset });
                i += 1;
            }
            '.' => {
                tokens.push(Token { kind: TokenKind::Dot, offset });
                i += 1;
            }
            '*' => {
                tokens.push(Token { kind: TokenKind::Star, offset });
                i += 1;
            }
            '+' => {
                tokens.push(Token { kind: TokenKind::Plus, offset });
                i += 1;
            }
            '-' => {
                tokens.push(Token { kind: TokenKind::Minus, offset });
                i += 1;
            }
            '/' => {
                tokens.push(Token { kind: TokenKind::Slash, offset });
                i += 1;
            }
            '%' => {
                tokens.push(Token { kind: TokenKind::Percent, offset });
                i += 1;
            }
            ';' => {
                tokens.push(Token { kind: TokenKind::Semicolon, offset });
                i += 1;
            }
            '=' => {
                tokens.push(Token { kind: TokenKind::Eq, offset });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token { kind: TokenKind::NotEq, offset });
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::LtEq, offset });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { kind: TokenKind::NotEq, offset });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Lt, offset });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::GtEq, offset });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Gt, offset });
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::Parse {
                            message: "unterminated string literal".into(),
                            offset,
                        });
                    }
                    if bytes[i] == b'\'' {
                        if bytes.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                }
                tokens.push(Token { kind: TokenKind::Str(s), offset });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    // Stop at "1." followed by a non-digit (e.g. "1..2" never
                    // appears in this dialect, but "t1.c" must not eat the dot).
                    if bytes[i] == b'.' && !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    i += 1;
                }
                // Exponent suffix.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                tokens.push(Token { kind: TokenKind::Number(sql[start..i].to_string()), offset });
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident(sql[start..i].to_string()), offset });
            }
            other => {
                return Err(Error::Parse {
                    message: format!("unexpected character '{other}'"),
                    offset,
                })
            }
        }
    }
    Ok(tokens)
}

/// Whether `sql` begins with the keywords `kws` (in any case), read as
/// [`tokenize`] reads them, without tokenizing the rest.
pub(crate) fn starts_with_keywords(sql: &str, kws: &[&str]) -> bool {
    let mut rest = sql;
    kws.iter().all(|kw| {
        loop {
            rest = rest.trim_start_matches([' ', '\t', '\r', '\n']);
            match rest.strip_prefix("--") {
                Some(comment) => rest = comment.find('\n').map_or("", |i| &comment[i..]),
                None => break,
            }
        }
        let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_').unwrap_or(rest.len());
        let (word, tail) = rest.split_at(end);
        rest = tail;
        word.eq_ignore_ascii_case(kw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_a_paper_query_fragment() {
        let ks = kinds("SELECT sum(meter) FROM FABRIC F WHERE F.printdate > '2021-1-31'");
        assert!(ks.contains(&TokenKind::Ident("SELECT".into())));
        assert!(ks.contains(&TokenKind::Str("2021-1-31".into())));
        assert!(ks.contains(&TokenKind::Gt));
        assert!(ks.contains(&TokenKind::Dot));
    }

    #[test]
    fn numbers_including_floats_and_exponents() {
        assert_eq!(
            kinds("1 2.5 0.00005 1e3 1.5e-2"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Number("2.5".into()),
                TokenKind::Number("0.00005".into()),
                TokenKind::Number("1e3".into()),
                TokenKind::Number("1.5e-2".into()),
            ]
        );
    }

    #[test]
    fn qualified_column_is_three_tokens() {
        assert_eq!(
            kinds("t1.c"),
            vec![TokenKind::Ident("t1".into()), TokenKind::Dot, TokenKind::Ident("c".into()),]
        );
    }

    #[test]
    fn comparison_operator_variants() {
        assert_eq!(kinds("a != b"), kinds("a <> b"));
        assert_eq!(kinds("<=")[0], TokenKind::LtEq);
        assert_eq!(kinds(">=")[0], TokenKind::GtEq);
    }

    #[test]
    fn string_escapes_and_errors() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn leading_keywords_read_like_tokens() {
        let ea = ["explain", "analyze"];
        assert!(starts_with_keywords("EXPLAIN ANALYZE SELECT 1", &ea));
        assert!(starts_with_keywords("  -- why\n explain\n\tAnalyze(SELECT 1)", &ea));
        assert!(!starts_with_keywords("EXPLAIN SELECT 1", &ea));
        assert!(!starts_with_keywords("EXPLAINANALYZE SELECT 1", &ea));
        assert!(!starts_with_keywords("SELECT 'explain analyze'", &ea));
        assert!(!starts_with_keywords("-- EXPLAIN ANALYZE", &ea));
    }

    #[test]
    fn line_comments_are_skipped() {
        assert_eq!(
            kinds("1 -- comment\n2"),
            vec![TokenKind::Number("1".into()), TokenKind::Number("2".into())]
        );
    }
}
