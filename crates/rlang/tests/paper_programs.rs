//! The paper's R listings, executed on the FlashR engine.
//!
//! Figure 2 (logistic regression with gradient descent + line search) and
//! Figure 3 (k-means) run as printed, up to two documented repairs of the
//! listings' own typos:
//!
//! * Fig. 2 computes `l2` once *before* the line-search loop and tests
//!   `l2 < bound`, which as printed either no-ops or loops forever; we
//!   recompute `l2` inside the loop and test `>` (textbook Armijo).
//! * Fig. 3's line 4 reads `num.moves > nrow(X)` where an assignment is
//!   clearly meant, and its `sweep(..., 2, CNT, "/")` divides the k×p
//!   center sums by the k-vector of counts, which is margin 1.

use flashr_core::ops::simd::SimdLevel;
use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_core::TraceLevel;
use flashr_rlang::{Interp, Value};

fn interp() -> Interp {
    Interp::new(FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, ..Default::default() },
        None,
    ))
}

#[test]
fn figure2_logistic_regression_runs_and_learns() {
    let mut r = interp();

    // Synthetic classification data with a known direction.
    r.eval_str(
        r#"
num.features <- 4
max.iters <- 12
X <- rnorm.matrix(20000, num.features, seed = 1)
truth <- matrix(c(1.5, -1, 0.5, 2), nrow = 1)
y <- sigmoid(X %*% t(truth)) > runif.matrix(20000, 1, seed = 2)
"#,
    )
    .unwrap();

    // The paper's Figure 2, with the line-search repair (see module docs).
    let program = r#"
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
    while (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta)
      eta <- eta * 0.2
    theta <- theta + (-g) * eta
  }
  theta
}
theta <- logistic.regression(X, y)
"#;
    r.eval_str(program).unwrap();

    // The learned weights point the right way.
    let check = r
        .eval_str(
            r#"
final.cost <- as.vector(sum(y*(-X%*%t(theta))+log(1+exp(X%*%t(theta))))/length(y))
chance.cost <- log(2)
c(final.cost, chance.cost, theta[1, 1] > 0, theta[1, 2] < 0, theta[1, 4] > theta[1, 3])
"#,
        )
        .unwrap();
    let v = match check {
        Value::Vec(v) => v,
        other => panic!("{other:?}"),
    };
    assert!(v[0] < 0.45, "final logloss {} not below chance {}", v[0], v[1]);
    assert_eq!(&v[2..], &[1.0, 1.0, 1.0], "weight signs wrong: {v:?}");
}

#[test]
fn figure3_kmeans_runs_and_converges() {
    let mut r = interp();

    // Two obvious 1-D blobs at 0 and 10, initial centers 1 and 9.
    r.eval_str(
        r#"
n <- 10000
X <- rnorm.matrix(n, 1, sd = 0.5, seed = 3) + (runif.matrix(n, 1, seed = 4) > 0.5) * 10
C0 <- matrix(c(1, 9), nrow = 2)
"#,
    )
    .unwrap();

    // The paper's Figure 3 with the two listed repairs.
    let program = r#"
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
C <- kmeans(X, C0)
"#;
    r.eval_str(program).unwrap();

    let centers = match r.eval_str("c(min(C), max(C))").unwrap() {
        Value::Vec(v) => v,
        other => panic!("{other:?}"),
    };
    assert!(centers[0].abs() < 0.1, "low center {}", centers[0]);
    assert!((centers[1] - 10.0).abs() < 0.1, "high center {}", centers[1]);

    // Balanced assignment: blob membership was a fair coin.
    let frac = r
        .eval_str("as.vector(sum(agg.row(inner.prod(X, t(C), \"euclidean\", \"+\"), \"which.min\") == 1)) / nrow(X)")
        .unwrap();
    let frac = match frac {
        Value::Num(v) => v,
        other => panic!("{other:?}"),
    };
    assert!((frac - 0.5).abs() < 0.05, "assignment fraction {frac}");
}

#[test]
fn figure3_kmeans_multidimensional() {
    let mut r = interp();
    r.eval_str(
        r#"
n <- 6000
shift <- (runif.matrix(n, 1, seed = 7) > 0.5) * 6
X <- cbind(rnorm.matrix(n, 1, sd = 0.4, seed = 5) + shift,
           rnorm.matrix(n, 1, sd = 0.4, seed = 6) + shift)
C0 <- matrix(c(1, 5, 1, 5), nrow = 2)
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
C <- kmeans(X, C0)
stopifnot(abs(min(C)) < 0.2, abs(max(C) - 6) < 0.2)
"#,
    )
    .unwrap();
}

#[test]
fn r_pca_script_matches_native_pca() {
    // PCA the way the paper describes it (§4.1): eigen on the Gramian —
    // here just the Gramian/covariance assembly in R, checked against
    // the native implementation.
    let ctx = FlashCtx::with_config(CtxConfig { rows_per_part: 1024, ..Default::default() }, None);
    let mut r = Interp::new(ctx.clone());
    r.eval_str(
        r#"
n <- 30000
X <- rnorm.matrix(n, 3, seed = 11) * 2 + 1
mu <- colSums(X) / n
G <- t(X) %*% X
COV <- (G - n * (t(mu) %*% mu)) / (n - 1)
total.var <- sum(diag(COV))
"#,
    )
    .unwrap();
    let total = match r.eval_str("total.var").unwrap() {
        Value::Num(v) => v,
        Value::Vec(v) => v[0],
        other => panic!("{other:?}"),
    };
    // Three columns of variance 4 each.
    assert!((total - 12.0).abs() < 0.3, "total variance {total}");
}

#[test]
fn iteration_stays_one_pass_per_round() {
    // The Figure 3 loop body is one engine pass (fusion working through
    // the interpreter).
    let mut r = interp();
    r.eval_str("X <- materialize(rnorm.matrix(20000, 2, seed = 21))").unwrap();
    r.eval_str("C <- matrix(c(0, 1, 0, 1), nrow = 2)").unwrap();
    let before = r.ctx().stats().snapshot().passes;
    r.eval_str(
        r#"
D <- inner.prod(X, t(C), "euclidean", "+")
I <- agg.row(D, "which.min")
S <- groupby.row(X, I, "+")
"#,
    )
    .unwrap();
    let used = r.ctx().stats().snapshot().passes - before;
    // `which.min`'s labels have a static range, so `groupby.row` needs no
    // range pass; the groupby sink waits until `eval_str` hands `S` back:
    // 1 pass for the whole body (vs. one per *operation* without fusion).
    assert_eq!(used, 1, "interpreted loop body used {used} passes");
}

/// The Figure 3 loop body, run once per `eval_str` at the top level;
/// `cache` keeps or drops its `set.cache` line.
fn figure3_iteration(cache: bool) -> String {
    let set_cache = if cache { "I <- set.cache(I, TRUE)" } else { "" };
    format!(
        r#"
D <- inner.prod(X, t(C), "euclidean", "+")
old.I <- I
I <- agg.row(D, "which.min")
{set_cache}
CNT <- groupby.row(rep.int(1, nrow(I)), I, "+")
C <- sweep(groupby.row(X, I, "+"), 1, CNT, "/")
if (!is.null(old.I))
  num.moves <- as.vector(sum(old.I != I))
"#
    )
}

/// `iters` Figure 3 iterations from fixed data: the final centres, and
/// per iteration the engine passes and the `inner.prod` evaluations.
fn figure3_fixed_iterations(cache: bool, iters: usize) -> (Vec<f64>, Vec<(u64, usize)>) {
    let ctx = FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, trace: TraceLevel::Pass, ..Default::default() },
        None,
    );
    let mut r = Interp::new(ctx.clone());
    r.eval_str(
        r#"
n <- 5000
shift <- (runif.matrix(n, 1, seed = 31) > 0.5) * 6
X <- materialize(rnorm.matrix(n, 3, sd = 0.4, seed = 32) + shift)
C <- matrix(c(1, 5), nrow = 2, ncol = 3)
I <- NULL
"#,
    )
    .unwrap();
    let body = figure3_iteration(cache);
    let per_iter = (0..iters)
        .map(|_| {
            let (passes, traced) = (ctx.stats().snapshot().passes, ctx.tracer().passes().len());
            r.eval_str(&body).unwrap();
            let products = ctx.tracer().passes()[traced..]
                .iter()
                .flat_map(|p| &p.ops)
                .filter(|op| op.label == "inner.prod")
                .count();
            (ctx.stats().snapshot().passes - passes, products)
        })
        .collect();
    let centres = match r.eval_str("c(C)").unwrap() {
        Value::Vec(v) => v.as_ref().clone(),
        other => panic!("{other:?}"),
    };
    (centres, per_iter)
}

#[test]
fn figure3_set_cache_computes_each_distance_product_once() {
    // With `I` cached, an iteration is one pass with one distance
    // product: `as.vector(sum(old.I != I))` forces the move count, both
    // groupbys and the labels (kept as a byproduct) together. The first
    // iteration, which has no `old.I`, forces nothing; its groupbys wait
    // for the second iteration's `t(C)`, one pass more there.
    let (cached, per_iter) = figure3_fixed_iterations(true, 6);
    assert_eq!(per_iter[..2], [(0, 0), (2, 2)], "first two iterations: {per_iter:?}");
    for (i, &it) in per_iter.iter().enumerate().skip(2) {
        assert_eq!(it, (1, 1), "iteration {}: {per_iter:?}", i + 1);
    }
    // Caching changes what is recomputed, never a value.
    let (uncached, _) = figure3_fixed_iterations(false, 6);
    assert_eq!(cached.len(), 6);
    assert_eq!(
        cached.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        uncached.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        "set.cache changed the centres"
    );
}

#[test]
fn figure3_kmeans_runs_out_of_core() {
    // The same R program, out-of-core: identical centers as in memory.
    let dir = flashr_testkit::TempDir::new("rlang-em");
    let safs = flashr_safs::Safs::open(flashr_safs::SafsConfig::striped_under(&dir, 2)).unwrap();
    let em = FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 1024,
            storage: flashr_core::session::StorageClass::Em,
            ..Default::default()
        },
        Some(safs),
    );
    let program = r#"
n <- 4000
X <- materialize(rnorm.matrix(n, 1, sd = 0.5, seed = 3) + (runif.matrix(n, 1, seed = 4) > 0.5) * 10)
C0 <- matrix(c(1, 9), nrow = 2)
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
C <- kmeans(X, C0)
c(min(C), max(C))
"#;
    let run = |ctx: FlashCtx| -> Vec<f64> {
        let mut r = Interp::new(ctx);
        match r.eval_str(program).unwrap() {
            Value::Vec(v) => v.as_ref().clone(),
            other => panic!("{other:?}"),
        }
    };
    let em_centers = run(em);
    let im_centers =
        run(FlashCtx::with_config(CtxConfig { rows_per_part: 1024, ..Default::default() }, None));
    assert!((em_centers[0] - im_centers[0]).abs() < 1e-9);
    assert!((em_centers[1] - im_centers[1]).abs() < 1e-9);
}

#[test]
fn groupby_col_and_agg_col_work_from_r() {
    let mut r = interp();
    r.eval_str(
        r#"
X <- cbind(rep(1, 500), rep(2, 500), rep(3, 500), rep(4, 500))
G <- groupby.col(X, c(1, 2, 1, 2), "+")
stopifnot(ncol(G) == 2)
stopifnot(as.vector(sum(G[, 1])) == 500 * 4)   # cols 1+3
stopifnot(as.vector(sum(G[, 2])) == 500 * 6)   # cols 2+4
CS <- agg.col(X, "+")
stopifnot(as.vector(sum(CS)) == 500 * 10)
"#,
    )
    .unwrap();
}

#[test]
fn figure2_iteration_is_one_pass_plus_one_per_line_search_trial() {
    // The gradient and the cost share one pass, forced by the first
    // trial's `X %*% t(w)`; each trial's cost is one pass more. The first
    // step is 50 rather than the listing's 1, so the line search runs.
    let mut r = interp();
    r.eval_str(
        r#"
num.features <- 4
X <- materialize(rnorm.matrix(5000, num.features, seed = 1))
truth <- matrix(c(1.5, -1, 0.5, 2), nrow = 1)
y <- materialize(sigmoid(X %*% t(truth)) > runif.matrix(5000, 1, seed = 2))
grad <- function(X, y, w)
  (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
cost <- function(X, y, w)
  sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
theta <- matrix(rep(0, num.features), nrow=1)
"#,
    )
    .unwrap();
    let iteration = r#"
g <- grad(X, y, theta)
l <- cost(X, y, theta)
eta <- 50
delta <- 0.5 * (-g) %*% t(g)
trials <- 1
while (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta) {
  eta <- eta * 0.2
  trials <- trials + 1
}
theta <- theta + (-g) * eta
trials
"#;
    let mut total_trials = 0.0;
    for i in 0..6 {
        let before = r.ctx().stats().snapshot().passes;
        let trials = match r.eval_str(iteration).unwrap() {
            Value::Num(t) => t,
            other => panic!("{other:?}"),
        };
        let used = r.ctx().stats().snapshot().passes - before;
        assert_eq!(used as f64, 1.0 + trials, "iteration {}: {trials} trials", i + 1);
        total_trials += trials;
    }
    assert!(total_trials > 6.0, "the line search never shortened a step");
}

/// The benchmark's set-up for the two listings: one partition of 4 096
/// rows, 8 features, two blobs for k-means.
const LISTING_DATA: &str = r#"
n <- 4096
seed <- 29
num.features <- 8
truth <- matrix(c(1.5, -1, 0.5, 2, -0.5, 0.25, 1, -1.5), nrow = 1)
X <- materialize(rnorm.matrix(n, num.features, seed = seed))
y <- materialize(sigmoid(X %*% t(truth)) > runif.matrix(n, 1, seed = seed + 1))
shift <- (runif.matrix(n, 1, seed = seed + 2) > 0.5) * 6
Z <- materialize(rnorm.matrix(n, num.features, sd = 0.4, seed = seed + 3) + shift)
C0 <- matrix(c(1, 5), nrow = 2, ncol = num.features)
"#;

/// Figure 2 with a fixed number of steps, as the benchmark runs it, and
/// the final log-loss.
const FIXED_STEP_FIGURE2: &str = r#"
logistic.regression <- function(X, y) {
  grad <- function(X, y, w)
    (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
  cost <- function(X, y, w)
    sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
  theta <- matrix(rep(0, num.features), nrow=1)
  for (i in 1:4) {
    g <- grad(X, y, theta)
    l <- cost(X, y, theta)
    eta <- 1
    delta <- 0.5 * (-g) %*% t(g)
    for (j in 1:3)
      if (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta)
        eta <- eta * 0.2
    theta <- theta + (-g) * eta
  }
  theta
}
theta <- logistic.regression(X, y)
final.cost <- as.vector(sum(y*(-X%*%t(theta))+log(1+exp(X%*%t(theta))))/length(y))
truth.cost <- as.vector(sum(y*(-X%*%t(truth))+log(1+exp(X%*%t(truth))))/length(y))
"#;

/// Figure 3 with a fixed number of iterations.
const FIXED_STEP_FIGURE3: &str = r#"
kmeans <- function(X, C) {
  I <- NULL
  for (i in 1:4) {
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
C <- kmeans(Z, C0)
"#;

fn vec_of(v: Value) -> Vec<f64> {
    match v {
        Value::Vec(v) => v.as_ref().clone(),
        Value::Num(x) => vec![x],
        other => panic!("{other:?}"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn figure2_line_search_reads_x_once_in_one_product() {
    // R parses `-X%*%t(w)` as `(-X) %*% t(w)`. The analyzer folds the
    // negation into the small operand and merges the two products of `X`
    // into one, which reads `X` where it lies: a line-search pass (the
    // cost alone, one sink) is one two-column product, with no negated
    // copy of `X` and no chunk copied out of it.
    let ctx =
        FlashCtx::with_config(CtxConfig { trace: TraceLevel::Pass, ..Default::default() }, None);
    let mut r = Interp::new(ctx.clone());
    r.eval_str(LISTING_DATA).unwrap();
    ctx.tracer().clear();
    r.eval_str(FIXED_STEP_FIGURE2).unwrap();
    let passes = ctx.tracer().passes();
    let line_search: Vec<_> = passes.iter().filter(|p| p.sinks == 1).collect();
    // Four iterations of three trials, and the final and true costs.
    assert_eq!(line_search.len(), 14, "{} passes in all", passes.len());
    for p in line_search {
        let labels: Vec<&str> = p.ops.iter().map(|op| op.label.as_str()).collect();
        let products = labels.iter().filter(|l| **l == "matmul").count();
        assert_eq!(products, 1, "pass {}: {labels:?}", p.pass_id);
        assert!(
            !labels.iter().any(|l| l.contains("sapply:Neg") || *l == "leaf"),
            "pass {}: {labels:?}",
            p.pass_id
        );
    }

    // The rewrites are exact: the bits of the program as written, run
    // with a negated copy of `X` and two products. The product tile is
    // fused at `Avx2` only, which moves one weight by an ulp.
    let theta = vec_of(r.eval_str("c(theta)").unwrap());
    let costs = vec_of(r.eval_str("c(final.cost, truth.cost)").unwrap());
    let want = if SimdLevel::active().vex() { THETA_BITS_FUSED } else { THETA_BITS_SCALAR };
    assert_eq!(bits(&theta), want, "theta");
    assert_eq!(bits(&costs), [0x3fdd3d442978e4d6, 0x3fd5b11cb90e142a], "log-losses");
}

const THETA_BITS_FUSED: [u64; 8] = [
    0x3fdbd6334509ca2a,
    0xbfd405556b6033ce,
    0x3fc64b8f229fd618,
    0x3fe2f6d74c9d2af8,
    0xbfc18da0f68946b6,
    0x3fb811bf9fc6bdfc,
    0x3fd3c37154aeb54a,
    0xbfdc70e4493657ef,
];
const THETA_BITS_SCALAR: [u64; 8] = [
    0x3fdbd6334509ca29,
    0xbfd405556b6033ce,
    0x3fc64b8f229fd618,
    0x3fe2f6d74c9d2af8,
    0xbfc18da0f68946b6,
    0x3fb811bf9fc6bdfc,
    0x3fd3c37154aeb54a,
    0xbfdc70e4493657ef,
];

#[test]
fn figure3_centres_keep_their_bits() {
    let mut r = interp();
    r.eval_str(LISTING_DATA).unwrap();
    r.eval_str(FIXED_STEP_FIGURE3).unwrap();
    let centres = vec_of(r.eval_str("c(C)").unwrap());
    assert_eq!(bits(&centres), CENTRE_BITS);
}

/// Figure 3's centres, column-major, at both SIMD levels.
const CENTRE_BITS: [u64; 16] = [
    0x3f517143fd3ee084,
    0x4017f11aca56192b,
    0xbf920f2d4c924789,
    0x4017ff1801f9ad29,
    0x3f844a9ef9dc03a5,
    0x4017fa586890dfbb,
    0x3f8b85c3b6557fe9,
    0x4017f9eea16addf7,
    0x3f66475fb9afce89,
    0x40180efd2316bfa6,
    0x3f86b5e4c860172b,
    0x4018085e0aa1cae4,
    0x3f8cacd3ae1e3d60,
    0x4018021c2e9e0142,
    0x3f7483fa7ba5064d,
    0x4017f4546d30108f,
];
