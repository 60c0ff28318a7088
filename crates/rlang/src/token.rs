//! Lexer for the R subset.
//!
//! R terminates statements at newlines *unless* the expression is
//! syntactically incomplete; we reproduce the practical rule: newlines
//! are suppressed inside parentheses/brackets and after tokens that
//! cannot end an expression (operators, commas, `{`).

use crate::value::RError;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Num(f64),
    Str(String),
    Ident(String),
    // keywords
    Function,
    If,
    Else,
    For,
    While,
    In,
    Break,
    Next,
    Return,
    True,
    False,
    Null,
    // punctuation / operators
    Assign, // <-  (and `=` in statement position)
    Eq,     // =
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Colon,
    MatMul, // %*%
    Modulo, // %%
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    Not,
    And,
    Or,
    And2,
    Or2,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Newline,
    Eof,
}

impl Tok {
    /// Tokens after which a newline cannot terminate a statement.
    fn suppresses_newline(&self) -> bool {
        matches!(
            self,
            Tok::Assign
                | Tok::Eq
                | Tok::Plus
                | Tok::Minus
                | Tok::Star
                | Tok::Slash
                | Tok::Caret
                | Tok::Colon
                | Tok::MatMul
                | Tok::Modulo
                | Tok::Lt
                | Tok::Gt
                | Tok::Le
                | Tok::Ge
                | Tok::EqEq
                | Tok::NotEq
                | Tok::Not
                | Tok::And
                | Tok::Or
                | Tok::And2
                | Tok::Or2
                | Tok::Comma
                | Tok::LBrace
                | Tok::LParen
                | Tok::LBracket
                | Tok::Semi
                | Tok::Else
                | Tok::In
                | Tok::Function
        )
    }
}

/// Tokenize `src`.
pub fn lex(src: &str) -> Result<Vec<Tok>, RError> {
    let mut out: Vec<Tok> = Vec::new();
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut depth = 0usize; // () and [] nesting
    let n = b.len();

    let err = |msg: String| Err(RError::Syntax(msg));

    while i < n {
        let c = b[i];
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '\n' => {
                i += 1;
                if depth == 0 {
                    let suppress = out.last().map(|t| t.suppresses_newline()).unwrap_or(true)
                        || matches!(out.last(), Some(Tok::Newline) | None);
                    if !suppress {
                        out.push(Tok::Newline);
                    }
                }
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '(' => {
                depth += 1;
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                depth = depth.saturating_sub(1);
                out.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                depth += 1;
                out.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                depth = depth.saturating_sub(1);
                out.push(Tok::RBracket);
                i += 1;
            }
            '{' => {
                out.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Tok::RBrace);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '^' => {
                out.push(Tok::Caret);
                i += 1;
            }
            ':' => {
                out.push(Tok::Colon);
                i += 1;
            }
            '%' => {
                if i + 2 < n && b[i + 1] == '*' && b[i + 2] == '%' {
                    out.push(Tok::MatMul);
                    i += 3;
                } else if i + 1 < n && b[i + 1] == '%' {
                    out.push(Tok::Modulo);
                    i += 2;
                } else {
                    return err(format!("unknown %-operator at char {i}"));
                }
            }
            '<' => {
                if i + 1 < n && b[i + 1] == '-' {
                    out.push(Tok::Assign);
                    i += 2;
                } else if i + 1 < n && b[i + 1] == '=' {
                    out.push(Tok::Le);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && b[i + 1] == '=' {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && b[i + 1] == '=' {
                    out.push(Tok::EqEq);
                    i += 2;
                } else {
                    out.push(Tok::Eq);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < n && b[i + 1] == '=' {
                    out.push(Tok::NotEq);
                    i += 2;
                } else {
                    out.push(Tok::Not);
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < n && b[i + 1] == '&' {
                    out.push(Tok::And2);
                    i += 2;
                } else {
                    out.push(Tok::And);
                    i += 1;
                }
            }
            '|' => {
                if i + 1 < n && b[i + 1] == '|' {
                    out.push(Tok::Or2);
                    i += 2;
                } else {
                    out.push(Tok::Or);
                    i += 1;
                }
            }
            '"' | '\'' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                while i < n && b[i] != quote {
                    if b[i] == '\\' && i + 1 < n {
                        i += 1;
                        s.push(match b[i] {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                    } else {
                        s.push(b[i]);
                    }
                    i += 1;
                }
                if i >= n {
                    return err("unterminated string".into());
                }
                i += 1;
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || (c == '.' && i + 1 < n && b[i + 1].is_ascii_digit()) => {
                let start = i;
                while i < n
                    && (b[i].is_ascii_digit()
                        || b[i] == '.'
                        || b[i] == 'e'
                        || b[i] == 'E'
                        || ((b[i] == '+' || b[i] == '-')
                            && i > start
                            && (b[i - 1] == 'e' || b[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                // R integer literals like 1L.
                let text = text.trim_end_matches('L').to_string();
                match text.parse::<f64>() {
                    Ok(v) => out.push(Tok::Num(v)),
                    Err(_) => return err(format!("bad number '{text}'")),
                }
                if i < n && b[i] == 'L' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '.' || c == '_' => {
                let start = i;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '.' || b[i] == '_') {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                out.push(match word.as_str() {
                    "function" => Tok::Function,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "for" => Tok::For,
                    "while" => Tok::While,
                    "in" => Tok::In,
                    "break" => Tok::Break,
                    "next" => Tok::Next,
                    "return" => Tok::Return,
                    "TRUE" | "T" => Tok::True,
                    "FALSE" | "F" => Tok::False,
                    "NULL" => Tok::Null,
                    "Inf" => Tok::Num(f64::INFINITY),
                    "NaN" => Tok::Num(f64::NAN),
                    _ => Tok::Ident(word),
                });
            }
            other => return err(format!("unexpected character '{other}'")),
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let t = lex("x <- 1 + 2.5e1").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Num(1.0),
                Tok::Plus,
                Tok::Num(25.0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn percent_operators() {
        let t = lex("A %*% B %% C").unwrap();
        assert!(t.contains(&Tok::MatMul));
        assert!(t.contains(&Tok::Modulo));
    }

    #[test]
    fn dotted_identifiers_and_keywords() {
        let t = lex("logistic.regression <- function(X) NULL").unwrap();
        assert_eq!(t[0], Tok::Ident("logistic.regression".into()));
        assert_eq!(t[2], Tok::Function);
        assert!(t.contains(&Tok::Null));
    }

    #[test]
    fn comments_are_skipped() {
        let t = lex("x <- 1 # a comment\ny <- 2").unwrap();
        assert!(t.iter().all(|tok| !matches!(tok, Tok::Str(_))));
        assert!(t.contains(&Tok::Newline));
    }

    #[test]
    fn newline_suppression_inside_parens_and_after_ops() {
        let t = lex("f(1,\n   2)").unwrap();
        assert!(!t.contains(&Tok::Newline), "newline inside call must vanish: {t:?}");
        let t = lex("x <- 1 +\n 2").unwrap();
        assert!(!t.contains(&Tok::Newline), "newline after + must vanish");
        let t = lex("x <- 1\ny <- 2").unwrap();
        assert_eq!(t.iter().filter(|x| **x == Tok::Newline).count(), 1);
    }

    #[test]
    fn strings_with_escapes() {
        let t = lex(r#"s <- "a\nb""#).unwrap();
        assert_eq!(t[2], Tok::Str("a\nb".into()));
    }

    #[test]
    fn integer_literal_suffix() {
        let t = lex("rep(0L, 5L)").unwrap();
        assert!(t.contains(&Tok::Num(0.0)));
        assert!(t.contains(&Tok::Num(5.0)));
    }

    #[test]
    fn comparison_cluster() {
        let t = lex("a <= b >= c != d == e < f > g").unwrap();
        for needle in [Tok::Le, Tok::Ge, Tok::NotEq, Tok::EqEq, Tok::Lt, Tok::Gt] {
            assert!(t.contains(&needle));
        }
    }
}
