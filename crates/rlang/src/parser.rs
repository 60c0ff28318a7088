//! Recursive-descent parser with R's operator precedence.

use crate::ast::{Arg, BinOp, Expr, UnOp};
use crate::token::{lex, Tok};
use crate::value::RError;

/// Parse a whole program into a sequence of expressions.
pub fn parse_program(src: &str) -> Result<Vec<Expr>, RError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    p.skip_separators();
    while !p.at(&Tok::Eof) {
        out.push(p.expr()?);
        p.expect_separator()?;
        p.skip_separators();
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if !matches!(t, Tok::Eof) {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), RError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(RError::Syntax(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn skip_separators(&mut self) {
        while matches!(self.peek(), Tok::Newline | Tok::Semi) {
            self.bump();
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn expect_separator(&mut self) -> Result<(), RError> {
        match self.peek() {
            Tok::Newline | Tok::Semi => {
                self.bump();
                Ok(())
            }
            Tok::Eof | Tok::RBrace => Ok(()),
            other => Err(RError::Syntax(format!("expected end of statement, found {other:?}"))),
        }
    }

    /// Full expression: assignment is lowest (right-associative).
    fn expr(&mut self) -> Result<Expr, RError> {
        let lhs = self.or_expr()?;
        if self.eat(&Tok::Assign) || (self.assignable(&lhs) && self.eat(&Tok::Eq)) {
            self.skip_newlines();
            let rhs = self.expr()?;
            return Ok(Expr::Assign(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn assignable(&self, e: &Expr) -> bool {
        matches!(e, Expr::Ident(_) | Expr::Index { .. })
    }

    fn or_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Tok::Or | Tok::Or2) {
            self.bump();
            self.skip_newlines();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.not_expr()?;
        while matches!(self.peek(), Tok::And | Tok::And2) {
            self.bump();
            self.skip_newlines();
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, RError> {
        if self.eat(&Tok::Not) {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, RError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Gt => BinOp::Gt,
            Tok::Le => BinOp::Le,
            Tok::Ge => BinOp::Ge,
            Tok::EqEq => BinOp::Eq,
            Tok::NotEq => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        self.skip_newlines();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.special_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let rhs = self.special_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// `%*%` and `%%` bind tighter than `*`.
    fn special_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.range_expr()?;
        loop {
            let op = match self.peek() {
                Tok::MatMul => BinOp::MatMul,
                Tok::Modulo => BinOp::Mod,
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let rhs = self.range_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn range_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.unary_expr()?;
        while self.eat(&Tok::Colon) {
            self.skip_newlines();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(BinOp::Range, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, RError> {
        if self.eat(&Tok::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnOp::Neg, Box::new(inner)));
        }
        if self.eat(&Tok::Plus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnOp::Plus, Box::new(inner)));
        }
        self.pow_expr()
    }

    /// `^` is right-associative and binds tighter than unary minus on the
    /// right operand (R: `-2^2 == -4`).
    fn pow_expr(&mut self) -> Result<Expr, RError> {
        let base = self.postfix_expr()?;
        if self.eat(&Tok::Caret) {
            self.skip_newlines();
            let exp = self.unary_expr()?;
            return Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    /// Calls `f(...)` and indexing `x[...]`, left-associative chains.
    fn postfix_expr(&mut self) -> Result<Expr, RError> {
        let mut e = self.primary()?;
        loop {
            if self.at(&Tok::LParen) {
                self.bump();
                let args = self.arg_list(&Tok::RParen, false)?;
                self.expect(&Tok::RParen)?;
                e = Expr::Call { callee: Box::new(e), args };
            } else if self.at(&Tok::LBracket) {
                self.bump();
                let args = self.arg_list(&Tok::RBracket, true)?;
                self.expect(&Tok::RBracket)?;
                e = Expr::Index { object: Box::new(e), args };
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// Comma-separated arguments; `allow_empty` permits `x[, 2]` slots.
    fn arg_list(&mut self, end: &Tok, allow_empty: bool) -> Result<Vec<Arg>, RError> {
        let mut args = Vec::new();
        self.skip_newlines();
        if self.at(end) {
            return Ok(args);
        }
        loop {
            self.skip_newlines();
            if allow_empty && (self.at(&Tok::Comma) || self.at(end)) {
                args.push(Arg { name: None, value: None });
            } else {
                // Named argument? ident '=' (but not '==').
                let name = if let Tok::Ident(id) = self.peek().clone() {
                    if self.toks.get(self.pos + 1) == Some(&Tok::Eq) {
                        self.bump();
                        self.bump();
                        Some(id)
                    } else {
                        None
                    }
                } else {
                    None
                };
                let value = self.expr()?;
                args.push(Arg { name, value: Some(value) });
            }
            self.skip_newlines();
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, RError> {
        match self.bump() {
            Tok::Num(v) => Ok(Expr::Num(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::Ident(id) => Ok(Expr::Ident(id)),
            Tok::LParen => {
                self.skip_newlines();
                let e = self.expr()?;
                self.skip_newlines();
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => {
                let mut body = Vec::new();
                self.skip_separators();
                while !self.at(&Tok::RBrace) {
                    body.push(self.expr()?);
                    if !self.at(&Tok::RBrace) {
                        self.expect_separator()?;
                        self.skip_separators();
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(Expr::Block(body))
            }
            Tok::Function => {
                self.expect(&Tok::LParen)?;
                let mut params = Vec::new();
                self.skip_newlines();
                if !self.at(&Tok::RParen) {
                    loop {
                        self.skip_newlines();
                        let name = match self.bump() {
                            Tok::Ident(id) => id,
                            other => {
                                return Err(RError::Syntax(format!(
                                    "expected parameter name, found {other:?}"
                                )))
                            }
                        };
                        let default = if self.eat(&Tok::Eq) {
                            Some(self.expr()?)
                        } else {
                            None
                        };
                        params.push((name, default));
                        self.skip_newlines();
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::Function { params, body: Box::new(body) })
            }
            Tok::If => {
                self.expect(&Tok::LParen)?;
                self.skip_newlines();
                let cond = self.expr()?;
                self.skip_newlines();
                self.expect(&Tok::RParen)?;
                self.skip_newlines();
                let then = self.expr()?;
                // `else` may sit after a newline when `then` was a block.
                let checkpoint = self.pos;
                self.skip_separators();
                let alt = if self.eat(&Tok::Else) {
                    self.skip_newlines();
                    Some(Box::new(self.expr()?))
                } else {
                    self.pos = checkpoint;
                    None
                };
                Ok(Expr::If { cond: Box::new(cond), then: Box::new(then), alt })
            }
            Tok::For => {
                self.expect(&Tok::LParen)?;
                let var = match self.bump() {
                    Tok::Ident(id) => id,
                    other => {
                        return Err(RError::Syntax(format!("expected loop variable, found {other:?}")))
                    }
                };
                self.expect(&Tok::In)?;
                self.skip_newlines();
                let seq = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::For { var, seq: Box::new(seq), body: Box::new(body) })
            }
            Tok::While => {
                self.expect(&Tok::LParen)?;
                self.skip_newlines();
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::While { cond: Box::new(cond), body: Box::new(body) })
            }
            Tok::Break => Ok(Expr::Break),
            Tok::Next => Ok(Expr::Next),
            Tok::Return => {
                if self.eat(&Tok::LParen) {
                    if self.eat(&Tok::RParen) {
                        Ok(Expr::Return(None))
                    } else {
                        let e = self.expr()?;
                        self.expect(&Tok::RParen)?;
                        Ok(Expr::Return(Some(Box::new(e))))
                    }
                } else {
                    Ok(Expr::Return(None))
                }
            }
            other => Err(RError::Syntax(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Expr {
        let mut prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1, "expected one statement in {src:?}");
        prog.pop().unwrap()
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = one("1 + 2 * 3");
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matmul_binds_tighter_than_divide() {
        // t(X) %*% y / n   parses as   (t(X) %*% y) / n
        let e = one("t(X) %*% y / n");
        assert!(matches!(e, Expr::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn unary_minus_with_pow() {
        // R: -2^2 == -(2^2)
        let e = one("-2^2");
        match e {
            Expr::Unary(UnOp::Neg, inner) => {
                assert!(matches!(*inner, Expr::Binary(BinOp::Pow, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_chains_right() {
        let e = one("a <- b <- 3");
        match e {
            Expr::Assign(_, rhs) => assert!(matches!(*rhs, Expr::Assign(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_definition_and_call() {
        let e = one("f <- function(x, y = 2) x + y");
        match e {
            Expr::Assign(_, rhs) => match *rhs {
                Expr::Function { params, .. } => {
                    assert_eq!(params.len(), 2);
                    assert!(params[1].1.is_some());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let call = one("f(1, y = 3)");
        match call {
            Expr::Call { args, .. } => {
                assert_eq!(args[1].name.as_deref(), Some("y"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_index_slots() {
        let e = one("X[, 2]");
        match e {
            Expr::Index { args, .. } => {
                assert!(args[0].value.is_none());
                assert!(args[1].value.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_else_across_newlines() {
        let prog = parse_program("if (x > 0) {\n  1\n} else {\n  2\n}\n").unwrap();
        assert_eq!(prog.len(), 1);
        assert!(matches!(prog[0], Expr::If { alt: Some(_), .. }));
    }

    #[test]
    fn if_without_else_does_not_eat_next_statement() {
        let prog = parse_program("if (x) y <- 1\nz <- 2").unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn for_and_while() {
        let e = one("for (i in 1:max.iters) { s <- s + i }");
        assert!(matches!(e, Expr::For { .. }));
        let e = one("while (num.moves > 0) num.moves <- num.moves - 1");
        assert!(matches!(e, Expr::While { .. }));
    }

    #[test]
    fn paper_figure2_parses() {
        let src = r#"
logistic.regression <- function(X, y) {
  grad <- function(X, y, w)
    (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
  cost <- function(X, y, w)
    sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
  theta <- matrix(rep(0, num.features), nrow=1)
  for (i in 1:max.iters) {
    g <- grad(X, y, theta)
    l <- cost(X, y, theta)
    eta <- 1
    delta <- 0.5 * (-g) %*% t(g)
    l2 <- as.vector(cost(X, y, theta+eta*(-g)))
    while (l2 < as.vector(l)+delta*eta)
      eta <- eta * 0.2
    theta <- theta + (-g) * eta
  }
}
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn paper_figure3_parses() {
        let src = r#"
kmeans <- function(X, C) {
  I <- NULL
  num.moves <- nrow(X)
  while (num.moves > 0) {
    D <- inner.prod(X, t(C), "euclidean", "+")
    old.I <- I
    I <- agg.row(D, "which.min")
    I <- set.cache(I, TRUE)
    CNT <- groupby.row(rep.int(1, nrow(I)), I, "+")
    C <- sweep(groupby.row(X, I, "+"), 1, CNT, "/")
    if (!is.null(old.I))
      num.moves <- as.vector(sum(old.I != I))
  }
  C
}
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1);
    }
}
