//! Deferred forcing: a program gives the bits it gives with
//! `materialize()` after every statement, for the paper's two listings
//! and for drawn programs over sinks, small ops on them and conditions.
//! Also the `groupby.row` empty-group rule and where a deferred error
//! surfaces.

use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_rlang::ast::{Arg, Expr};
use flashr_rlang::{parse_program, Interp, Value};
use flashr_testkit::{cases, Rng};

fn interp() -> Interp {
    // A Pcache budget of about a hundred rows: a pass reads a partition in
    // chunks whose height depends on what shares the pass.
    let cfg = CtxConfig { rows_per_part: 512, pcache_bytes: 12 << 10, ..Default::default() };
    Interp::new(FlashCtx::with_config(cfg, None))
}

/// `e` with the value of every assignment in it wrapped in
/// `materialize(...)`: the program with each statement's value forced
/// where it stands.
fn forced(e: &Expr) -> Expr {
    let b = |e: &Expr| Box::new(forced(e));
    match e {
        Expr::Assign(target, value) => Expr::Assign(
            target.clone(),
            Box::new(Expr::Call {
                callee: Box::new(Expr::Ident("materialize".into())),
                args: vec![Arg { name: None, value: Some(forced(value)) }],
            }),
        ),
        Expr::Unary(op, x) => Expr::Unary(*op, b(x)),
        Expr::Binary(op, l, r) => Expr::Binary(*op, b(l), b(r)),
        Expr::Call { callee, args } => Expr::Call {
            callee: b(callee),
            args: args
                .iter()
                .map(|a| Arg { name: a.name.clone(), value: a.value.as_ref().map(forced) })
                .collect(),
        },
        Expr::Function { params, body } => Expr::Function { params: params.clone(), body: b(body) },
        Expr::If { cond, then, alt } => {
            Expr::If { cond: b(cond), then: b(then), alt: alt.as_deref().map(b) }
        }
        Expr::For { var, seq, body } => Expr::For { var: var.clone(), seq: b(seq), body: b(body) },
        Expr::While { cond, body } => Expr::While { cond: b(cond), body: b(body) },
        Expr::Block(stmts) => Expr::Block(stmts.iter().map(forced).collect()),
        Expr::Return(v) => Expr::Return(v.as_deref().map(b)),
        other => other.clone(),
    }
}

/// The bits of a numeric result.
fn bits(v: &Value) -> Vec<u64> {
    match v {
        Value::Num(x) => vec![x.to_bits()],
        Value::Vec(xs) => xs.iter().map(|x| x.to_bits()).collect(),
        other => panic!("expected numbers, got {other:?}"),
    }
}

/// Run `src` as written and with every statement forced, each in a
/// fresh interpreter; both must give the same bits. Returns the passes
/// each made.
fn same_bits_as_forced(src: &str) -> (u64, u64) {
    let prog = parse_program(src).unwrap();
    let eager: Vec<Expr> = prog.iter().map(forced).collect();
    let run = |prog: &[Expr]| {
        let mut r = interp();
        let out = r.eval_program(prog).unwrap_or_else(|e| panic!("{e}\n{src}"));
        (bits(&out), r.ctx().stats().snapshot().passes)
    };
    let (lazy, lazy_passes) = run(&prog);
    let (want, eager_passes) = run(&eager);
    assert_eq!(lazy, want, "deferred and forced programs differ:\n{src}");
    (lazy_passes, eager_passes)
}

#[test]
fn the_paper_listings_give_the_bits_of_forcing_every_statement() {
    let fig2 = r#"
num.features <- 4
max.iters <- 4
X <- materialize(rnorm.matrix(3000, num.features, seed = 1))
truth <- matrix(c(1.5, -1, 0.5, 2), nrow = 1)
y <- materialize(sigmoid(X %*% t(truth)) > runif.matrix(3000, 1, seed = 2))
logistic.regression <- function(X, y) {
  grad <- function(X, y, w)
    (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
  cost <- function(X, y, w)
    sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
  theta <- matrix(rep(0, num.features), nrow=1)
  for (i in 1:max.iters) {
    g <- grad(X, y, theta)
    l <- cost(X, y, theta)
    eta <- 8
    delta <- 0.5 * (-g) %*% t(g)
    while (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta)
      eta <- eta * 0.2
    theta <- theta + (-g) * eta
  }
  theta
}
theta <- logistic.regression(X, y)
c(as.vector(theta), as.vector(sum(y*(-X%*%t(theta))+log(1+exp(X%*%t(theta))))/length(y)))
"#;
    let (lazy, eager) = same_bits_as_forced(fig2);
    assert!(lazy < eager, "Figure 2: {lazy} passes deferred, {eager} forced");

    let fig3 = r#"
n <- 3000
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
c(as.vector(C))
"#;
    let (lazy, eager) = same_bits_as_forced(fig3);
    assert!(lazy < eager, "Figure 3: {lazy} passes deferred, {eager} forced");
}

/// A drawn program: sinks of tall expressions, small ops on them,
/// conditions that force them, and tall ops with deferred small
/// operands; its value is every variable it made, flattened.
fn draw_program(rng: &mut Rng) -> String {
    let (n, p, k) = (rng.u64(600..1600), rng.usize(1..5), rng.usize(2..4));
    let mut src = format!(
        "X <- materialize(rnorm.matrix({n}, {p}, seed = {}))\n\
         L <- materialize(floor(runif.matrix({n}, 1, seed = {}) * 3) + 1)\n\
         C <- matrix(c({}), nrow = {k})\n\
         I <- agg.row(inner.prod(X, t(C), \"euclidean\", \"+\"), \"which.min\")\n",
        rng.below(1000),
        rng.below(1000),
        (0..k * p).map(|i| format!("{}", (i as f64 * 0.7).sin())).collect::<Vec<_>>().join(", "),
    );
    // Each variable with its shape.
    let mut vars: Vec<(String, (usize, usize))> = Vec::new();
    let tall = |rng: &mut Rng| -> (String, usize) {
        let a = rng.f64(0.5..2.0);
        match rng.below(5) {
            0 => ("X".into(), p),
            1 => (format!("(X * {a} + 0.25)"), p),
            2 => ("abs(X)".into(), p),
            3 => (format!("exp(X * {})", a * 0.1), p),
            _ => (format!("X[, {}]", rng.usize(1..p + 1)), 1),
        }
    };
    for v in 0..rng.usize(4..10) {
        let name = format!("v{v}");
        let pick = |rng: &mut Rng, vars: &[(String, (usize, usize))]| {
            vars[rng.usize(0..vars.len())].clone()
        };
        let kind = if vars.is_empty() { rng.below(6) } else { rng.below(11) };
        let (expr, shape) = match kind {
            0 => (format!("sum({})", tall(rng).0), (1, 1)),
            1 => {
                let (t, w) = tall(rng);
                let f = if rng.bool() { "colSums" } else { "colMeans" };
                (format!("{f}({t})"), (1, w))
            }
            2 => {
                let ((a, wa), (b, wb)) = (tall(rng), tall(rng));
                (format!("t({a}) %*% {b}"), (wa, wb))
            }
            3 => {
                let (t, w) = tall(rng);
                (format!("crossprod({t})"), (w, w))
            }
            4 => {
                let (t, w) = tall(rng);
                (format!("groupby.row({t}, I, \"+\")"), (k, w))
            }
            5 => {
                let (t, w) = tall(rng);
                (format!("groupby.row({t}, L, \"+\")"), (3, w))
            }
            6 => {
                let (m, shape) = pick(rng, &vars);
                let ops = ["-{m}", "sqrt(abs({m}))", "{m} * 1.5 + 2", "2 / (1 + abs({m}))"];
                (ops[rng.usize(0..ops.len())].replace("{m}", &m), shape)
            }
            7 => {
                let (m, (r, c)) = pick(rng, &vars);
                if rng.bool() {
                    (format!("t({m})"), (c, r))
                } else {
                    (format!("sum({m})"), (1, 1))
                }
            }
            8 => {
                let (m, shape) = pick(rng, &vars);
                let same: Vec<_> = vars.iter().filter(|(_, s)| *s == shape).collect();
                let (o, _) = same[rng.usize(0..same.len())];
                (format!("{m} + {o} * 0.5"), shape)
            }
            9 => {
                let (m, shape) = pick(rng, &vars);
                let cond = match rng.below(3) {
                    0 => format!("as.vector(sum({m})) > 0"),
                    1 => format!("{m}[1, 1] < 0.5"),
                    _ => format!("sum({m}) > 1"),
                };
                let stmt = format!("if ({cond}) {name} <- {m} * 2 else {name} <- {m} - 1\n");
                src.push_str(&stmt);
                vars.push((name, shape));
                continue;
            }
            _ => {
                // A deferred 1 × p value as the small operand of a tall op.
                let Some((m, _)) = vars.iter().find(|(_, s)| *s == (1, p)).cloned() else {
                    continue;
                };
                (format!("sum(X %*% t({m}))"), (1, 1))
            }
        };
        src.push_str(&format!("{name} <- {expr}\n"));
        vars.push((name, shape));
    }
    let all: Vec<String> = vars.iter().map(|(v, _)| format!("as.vector({v})")).collect();
    src.push_str(&format!("c({})\n", all.join(", ")));
    src
}

#[test]
fn drawn_programs_give_the_bits_of_forcing_every_statement() {
    cases(24, |rng, _| {
        let src = draw_program(rng);
        let (lazy, eager) = same_bits_as_forced(&src);
        assert!(lazy <= eager, "{lazy} passes deferred, {eager} forced:\n{src}");
    });
}

#[test]
fn a_static_label_range_gives_an_empty_edge_group_a_zero_count_row() {
    let mut r = interp();
    r.eval_str(
        r#"
X <- materialize(runif.matrix(2000, 1, seed = 3))
C <- matrix(c(0.2, 0.8, 100), nrow = 3)
I <- agg.row(inner.prod(X, t(C), "euclidean", "+"), "which.min")
"#,
    )
    .unwrap();
    // `which.min` over three centres: three groups whatever the data, and
    // no pass to find out. No point is nearest to the third centre.
    let before = r.ctx().stats().snapshot().passes;
    r.eval_str(
        r#"
CNT <- groupby.row(rep.int(1, nrow(I)), I, "+")
S <- groupby.row(X, I, "+")
C2 <- sweep(S, 1, CNT, "/")
"#,
    )
    .unwrap();
    assert_eq!(r.ctx().stats().snapshot().passes - before, 1, "one pass, at the hand-back");
    r.eval_str(
        r#"
stopifnot(nrow(CNT) == 3, CNT[1, 1] + CNT[2, 1] == 2000, CNT[3, 1] == 0, S[3, 1] == 0)
stopifnot(C2[3, 1] != C2[3, 1])   # 0 / 0: the empty centre is NaN
"#,
    )
    .unwrap();
    // The same labels materialized have no static range: the groups are
    // the values' range, and the empty edge group is no row.
    let rows = r.eval_str("nrow(groupby.row(X, materialize(I), \"+\"))").unwrap();
    assert!(matches!(rows, Value::Num(n) if n == 2.0), "{rows:?}");
}

#[test]
fn an_error_inside_a_deferred_value_surfaces_at_the_force_point() {
    let mut r = interp();
    r.eval_str("X <- materialize(rnorm.matrix(1500, 2, seed = 4))").unwrap();
    // `-` is no `inner.prod` combiner: the analyzer rejects the plan, but
    // only when the sink is forced. A good sink over the same rows, pending
    // beside it, still computes.
    r.eval_str(
        r#"
bad <- sum(inner.prod(X, matrix(c(1, 2), nrow = 2), "*", "-"))
good <- sum(X)
0
"#,
    )
    .unwrap();
    let good = r.eval_str("as.vector(good)").unwrap();
    assert!(matches!(good, Value::Num(x) if x.is_finite()), "{good:?}");
    let err = r.eval_str("as.vector(bad)").unwrap_err().to_string();
    assert!(err.contains("inner.prod"), "{err}");
    // A small op on a pending sink fails where it is forced, not where it
    // is written.
    r.eval_str("w <- sum(X) + c(1, 2, 3)").unwrap_err();
    r.eval_str("w <- sum(X) + c(1, 2, 3)\nok <- 1").unwrap();
    let err = r.eval_str("as.vector(w)").unwrap_err().to_string();
    assert!(err.contains("does not recycle"), "{err}");
}

#[test]
fn a_deferred_value_assigned_into_an_element_is_forced() {
    let mut r = interp();
    let v = r
        .eval_str("X <- rnorm.matrix(1000, 2, seed = 8)\nv <- c(0, 0)\nv[2] <- sum(X * 0 + 1)\nv")
        .unwrap();
    assert!(matches!(v, Value::Vec(v) if v[..] == [0.0, 2000.0]));
}
