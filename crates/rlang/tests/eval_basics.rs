//! Interpreter semantics: scalars, vectors, control flow, closures, and
//! matrix laziness.

use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_rlang::{Interp, Value};

fn interp() -> Interp {
    Interp::new(FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None))
}

fn num(r: &mut Interp, src: &str) -> f64 {
    match r.eval_str(src).unwrap() {
        Value::Num(v) => v,
        Value::Bool(b) => f64::from(b),
        Value::Vec(v) if v.len() == 1 => v[0],
        Value::Matrix(m) => {
            let f = r.force_fm(&m);
            assert_eq!(f.len(), 1, "expected scalar result");
            f.get(r.ctx(), 0, 0)
        }
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_precedence() {
    let mut r = interp();
    assert_eq!(num(&mut r, "1 + 2 * 3"), 7.0);
    assert_eq!(num(&mut r, "(1 + 2) * 3"), 9.0);
    assert_eq!(num(&mut r, "2^10"), 1024.0);
    assert_eq!(num(&mut r, "-2^2"), -4.0);
    assert_eq!(num(&mut r, "7 %% 3"), 1.0);
    assert_eq!(num(&mut r, "-7 %% 3"), 2.0); // R's sign convention
    assert_eq!(num(&mut r, "10 / 4"), 2.5);
}

#[test]
fn variables_and_blocks() {
    let mut r = interp();
    assert_eq!(num(&mut r, "x <- 3; y <- x * 2; x + y"), 9.0);
    assert_eq!(num(&mut r, "{ a <- 1; a <- a + 1; a }"), 2.0);
}

#[test]
fn vectors_and_recycling() {
    let mut r = interp();
    assert_eq!(num(&mut r, "sum(1:10)"), 55.0);
    assert_eq!(num(&mut r, "sum(c(1, 2, 3) * 2)"), 12.0);
    assert_eq!(num(&mut r, "sum(c(1, 2, 3, 4) * c(10, 100))"), 10.0 + 200.0 + 30.0 + 400.0);
    assert_eq!(num(&mut r, "length(5:1)"), 5.0);
    assert_eq!(num(&mut r, "c(5, 4, 9)[2]"), 4.0);
    assert_eq!(num(&mut r, "which.min(c(3, 1, 2))"), 2.0);
}

#[test]
fn control_flow() {
    let mut r = interp();
    assert_eq!(num(&mut r, "if (3 > 2) 10 else 20"), 10.0);
    assert_eq!(num(&mut r, "if (FALSE) 10 else 20"), 20.0);
    assert_eq!(num(&mut r, "s <- 0\nfor (i in 1:100) s <- s + i\ns"), 5050.0);
    assert_eq!(num(&mut r, "n <- 0\nwhile (n < 10) n <- n + 3\nn"), 12.0);
    assert_eq!(num(&mut r, "s <- 0\nfor (i in 1:10) { if (i == 4) break; s <- s + i }\ns"), 6.0);
}

#[test]
fn closures_capture_and_default_args() {
    let mut r = interp();
    let src = r#"
make.adder <- function(k) function(x) x + k
add5 <- make.adder(5)
add5(10)
"#;
    assert_eq!(num(&mut r, src), 15.0);
    assert_eq!(num(&mut r, "f <- function(x, y = 3) x * y\nf(4)"), 12.0);
    assert_eq!(num(&mut r, "f(4, y = 5)"), 20.0);
}

#[test]
fn recursion_works() {
    let mut r = interp();
    let src = r#"
fact <- function(n) if (n <= 1) 1 else n * fact(n - 1)
fact(10)
"#;
    assert_eq!(num(&mut r, src), 3628800.0);
}

#[test]
fn matrices_are_lazy_until_extracted() {
    let mut r = interp();
    r.eval_str("X <- rnorm.matrix(10000, 4, seed = 1)").unwrap();
    let passes_before = r.ctx().stats().snapshot().passes;
    r.eval_str("Y <- sqrt(abs(X)) * 2").unwrap();
    assert_eq!(r.ctx().stats().snapshot().passes, passes_before, "building a DAG must not execute");
    let v = num(&mut r, "as.vector(sum(Y)) / length(Y)");
    assert!(v > 1.0 && v < 2.0, "E[2·sqrt(|z|)] ≈ 1.59, got {v}");
    assert_eq!(r.ctx().stats().snapshot().passes, passes_before + 1, "one fused pass");
}

#[test]
fn matrix_scalar_mixing_and_comparison() {
    let mut r = interp();
    r.eval_str("X <- runif.matrix(5000, 2, seed = 9)").unwrap();
    let frac = num(&mut r, "as.vector(sum(X > 0.5)) / length(X)");
    assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    // 1/(1+exp(-X)) — the paper's sigmoid composition.
    let m = num(&mut r, "as.vector(mean(1/(1+exp(-X))))");
    assert!((m - 0.622).abs() < 0.01, "mean sigmoid of U(0,1) ≈ 0.622, got {m}");
}

#[test]
fn matmul_shapes() {
    let mut r = interp();
    r.eval_str("X <- rnorm.matrix(2000, 3, seed = 2)").unwrap();
    // Tall × small.
    r.eval_str("w <- matrix(c(1, 2, 3), nrow = 1)").unwrap();
    let v = num(&mut r, "nrow(X %*% t(w))");
    assert_eq!(v, 2000.0);
    // Gramian: t(X) %*% X is 3×3.
    assert_eq!(num(&mut r, "nrow(t(X) %*% X)"), 3.0);
    assert_eq!(num(&mut r, "ncol(t(X) %*% X)"), 3.0);
    // Small × small.
    assert_eq!(num(&mut r, "as.vector(w %*% t(w))"), 14.0);
}

#[test]
fn aggregates_and_dims() {
    let mut r = interp();
    r.eval_str("X <- matrix(1:6, nrow = 2)").unwrap(); // cols (1,2),(3,4),(5,6)
    assert_eq!(num(&mut r, "sum(X)"), 21.0);
    assert_eq!(num(&mut r, "nrow(X)"), 2.0);
    assert_eq!(num(&mut r, "ncol(X)"), 3.0);
    assert_eq!(num(&mut r, "X[2, 3]"), 6.0);
    assert_eq!(num(&mut r, "sum(rowSums(X))"), 21.0);
    assert_eq!(num(&mut r, "sum(colMeans(X))"), 1.5 + 3.5 + 5.5);
}

#[test]
fn index_assignment() {
    let mut r = interp();
    assert_eq!(num(&mut r, "v <- c(1, 2, 3)\nv[2] <- 10\nsum(v)"), 14.0);
    assert_eq!(num(&mut r, "M <- matrix(0, nrow = 2, ncol = 2)\nM[1, 2] <- 7\nsum(M)"), 7.0);
}

#[test]
fn errors_are_reported() {
    let mut r = interp();
    assert!(r.eval_str("undefined.variable").is_err());
    assert!(r.eval_str("1 +").is_err());
    assert!(r.eval_str("f <- function(x) x\nf(1, 2)").is_err());
    assert!(r.eval_str("stopifnot(1 > 2)").is_err());
    assert!(r.eval_str("stopifnot(2 > 1)").is_ok());
}

#[test]
fn strings_and_null() {
    let mut r = interp();
    assert!(matches!(r.eval_str("\"hi\"").unwrap(), Value::Str(s) if s == "hi"));
    assert_eq!(num(&mut r, "is.null(NULL)"), 1.0);
    assert_eq!(num(&mut r, "is.null(3)"), 0.0);
    assert_eq!(num(&mut r, "\"a\" == \"a\""), 1.0);
    assert_eq!(num(&mut r, "\"a\" != \"b\""), 1.0);
}

#[test]
fn inf_and_nan_are_base_constants() {
    let mut r = interp();
    assert_eq!(num(&mut r, "Inf"), f64::INFINITY);
    assert_eq!(num(&mut r, "-Inf"), f64::NEG_INFINITY);
    assert!(num(&mut r, "NaN").is_nan());
    assert_eq!(num(&mut r, "1 / Inf"), 0.0);
    // Inf · 0 is NaN inside a product, as in R.
    r.eval_str("P <- matrix(c(Inf, 1, 1, 1), nrow = 2) %*% matrix(c(0, 1), nrow = 2)").unwrap();
    assert!(num(&mut r, "P[1, 1]").is_nan());
    assert_eq!(num(&mut r, "P[2, 1]"), 1.0);
}
