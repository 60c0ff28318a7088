//! Property tests: random programs round-trip through the lexer, parser
//! and evaluator and match a direct Rust evaluation — including when the
//! same computation is pushed through the FlashR engine as a matrix.

use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_rlang::{Interp, Value};
use flashr_testkit::{cases, Rng};

const CASES: usize = 64;

/// A tiny arithmetic AST we can both print as R and evaluate directly.
#[derive(Debug, Clone)]
enum E {
    Lit(f64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Lit(v) => {
                if *v < 0.0 {
                    format!("({v})")
                } else {
                    format!("{v}")
                }
            }
            E::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            E::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            E::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            E::Div(a, b) => format!("({} / {})", a.render(), b.render()),
            E::Neg(a) => format!("(-{})", a.render()),
        }
    }

    fn eval(&self) -> f64 {
        match self {
            E::Lit(v) => *v,
            E::Add(a, b) => a.eval() + b.eval(),
            E::Sub(a, b) => a.eval() - b.eval(),
            E::Mul(a, b) => a.eval() * b.eval(),
            E::Div(a, b) => a.eval() / b.eval(),
            E::Neg(a) => -a.eval(),
        }
    }
}

/// A random expression at most `depth` operators deep (the suite uses 4).
fn arb_expr(rng: &mut Rng, depth: usize) -> E {
    if depth == 0 || rng.below(3) == 0 {
        return E::Lit(rng.f64(-50.0..50.0));
    }
    let kind = rng.below(5);
    let mut sub = || Box::new(arb_expr(rng, depth - 1));
    match kind {
        0 => E::Add(sub(), sub()),
        1 => E::Sub(sub(), sub()),
        2 => E::Mul(sub(), sub()),
        3 => E::Div(sub(), sub()),
        _ => E::Neg(sub()),
    }
}

fn interp() -> Interp {
    Interp::new(FlashCtx::with_config(CtxConfig { rows_per_part: 64, ..Default::default() }, None))
}

fn close(a: f64, b: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn scalar_expressions_match_reference() {
    cases(CASES, |rng, _| {
        let e = arb_expr(rng, 4);
        let mut r = interp();
        let got = r.eval_str(&e.render()).unwrap();
        let want = e.eval();
        match got {
            Value::Num(v) => assert!(close(v, want), "{} => {v} vs {want}", e.render()),
            other => panic!("non-numeric result {other:?}"),
        }
    });
}

#[test]
fn expressions_match_through_the_engine() {
    cases(CASES, |rng, _| {
        let e = arb_expr(rng, 4);
        let n = rng.u64(1..300);
        // Evaluate `expr + 0·X` as a matrix expression: every element of
        // the result must equal the scalar value.
        let mut r = interp();
        let src = format!(
            "X <- runif.matrix({n}, 2, seed = 7)\nas.vector(max(({expr}) + X * 0)) - as.vector(min(({expr}) + X * 0))",
            expr = e.render()
        );
        let want = e.eval();
        if !want.is_finite() {
            return; // NaN/Inf propagate; covered by the scalar test
        }
        let spread = r.eval_str(&src).unwrap();
        match spread {
            Value::Num(v) => assert!(v.abs() < 1e-9, "constant matrix has spread {v}"),
            other => panic!("unexpected {other:?}"),
        }
        let through = r
            .eval_str(&format!("as.vector(sum(({expr}) + X * 0)) / (2 * {n})", expr = e.render()))
            .unwrap();
        match through {
            Value::Num(v) => assert!(close(v, want), "engine mean {v} vs {want}"),
            other => panic!("unexpected {other:?}"),
        }
    });
}

#[test]
fn vector_sums_match() {
    cases(CASES, |rng, _| {
        let len = rng.usize(1..20);
        let vals = rng.vec_f64(len, -100.0..100.0);
        let mut r = interp();
        let src = format!(
            "sum(c({}))",
            vals.iter().map(|v| format!("({v})")).collect::<Vec<_>>().join(", ")
        );
        let got = r.eval_str(&src).unwrap();
        let want: f64 = vals.iter().sum();
        match got {
            Value::Num(v) => assert!(close(v, want)),
            other => panic!("unexpected {other:?}"),
        }
    });
}

#[test]
fn parser_never_panics_on_random_text() {
    cases(CASES, |rng, _| {
        // Up to 80 characters of printable ASCII and newlines.
        let s: String = (0..rng.usize(0..81))
            .map(|_| match rng.below(96) {
                95 => '\n',
                c => (b' ' + c as u8) as char,
            })
            .collect();
        // Arbitrary printable text must produce Ok or Err, never a panic.
        let _ = flashr_rlang::parse_program(&s);
    });
}

#[test]
fn ranges_match_reference() {
    cases(CASES, |rng, _| {
        let a = rng.below(40) as i64 - 20;
        let b = rng.below(40) as i64 - 20;
        let mut r = interp();
        let got = r.eval_str(&format!("sum(({a}):({b}))")).unwrap();
        let want: f64 =
            if a <= b { (a..=b).sum::<i64>() as f64 } else { (b..=a).sum::<i64>() as f64 };
        match got {
            Value::Num(v) => assert!(close(v, want), "{a}:{b} sum {v} vs {want}"),
            other => panic!("unexpected {other:?}"),
        }
    });
}
