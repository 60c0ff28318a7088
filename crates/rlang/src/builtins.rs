//! The overridden `base` functions (paper Tables 2–3) plus the GenOps
//! exposed to R (`inner.prod`, `agg.row`, `groupby.row`, `set.cache`,
//! `materialize`, ...). Every matrix-valued builtin dispatches to the
//! lazy [`FM`] API, so R programs extend the engine's DAG exactly like
//! native Rust callers. A builtin that is a small op on small values
//! (`t`, the element functions, the aggregates, `crossprod`, `sweep`)
//! called on deferred values and no tall matrix stays deferred; every
//! other builtin forces its arguments (see [`crate::interp`]).

use crate::interp::Interp;
use crate::value::{RError, Value};
use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_linalg::Dense;
use std::rc::Rc;

/// All builtin names, used for identifier resolution.
#[rustfmt::skip]
const NAMES: &[&str] = &[
    "matrix", "rep", "rep.int", "c", "length", "dim", "nrow", "ncol", "t", "cbind", "rbind",
    "diag", "runif.matrix", "rnorm.matrix", "exp", "log", "log2", "log10", "log1p", "sqrt",
    "abs", "floor", "ceiling", "round", "sign", "sigmoid", "sum", "mean", "min", "max", "any",
    "all", "rowSums", "colSums", "rowMeans", "colMeans", "pmin", "pmax", "inner.prod", "agg.row",
    "groupby.row", "groupby.col", "agg.col", "sweep", "set.cache", "materialize", "as.vector",
    "as.matrix", "unique", "is.null", "print", "cat", "crossprod", "solve", "which.min",
    "which.max", "seq_len", "stopifnot", "numeric",
];

/// The builtins that are small ops on small values.
#[rustfmt::skip]
const SMALL_OPS: &[&str] = &[
    "t", "exp", "log", "log2", "log10", "log1p", "sqrt", "abs", "floor", "ceiling", "round",
    "sign", "sigmoid", "pmin", "pmax", "sum", "mean", "min", "max", "any", "all", "rowSums",
    "colSums", "rowMeans", "colMeans", "crossprod", "sweep",
];

/// Resolve a builtin by name.
pub fn lookup(name: &str) -> Option<&'static str> {
    NAMES.iter().copied().find(|n| *n == name)
}

/// Positional/named argument unpacking.
struct Args {
    positional: Vec<Value>,
    named: Vec<(String, Value)>,
}

impl Args {
    fn new(raw: Vec<(Option<String>, Value)>) -> Args {
        let mut positional = Vec::new();
        let mut named = Vec::new();
        for (n, v) in raw {
            match n {
                Some(n) => named.push((n, v)),
                None => positional.push(v),
            }
        }
        Args { positional, named }
    }

    fn pos(&self, i: usize, what: &str) -> Result<&Value, RError> {
        self.positional
            .get(i)
            .ok_or_else(|| RError::Eval(format!("missing argument {} to {what}", i + 1)))
    }

    fn named(&self, name: &str) -> Option<&Value> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Named first, then positional index.
    fn get(&self, name: &str, i: usize) -> Option<&Value> {
        self.named(name).or_else(|| self.positional.get(i))
    }
}

fn fm_of(interp: &Interp, v: &Value) -> Result<FM, RError> {
    match v {
        Value::Matrix(m) => Ok(m.clone()),
        Value::Vec(xs) => Ok(interp.vec_to_fm(xs)),
        Value::Num(x) => Ok(FM::from_dense(Dense::from_vec(1, 1, vec![*x]))),
        other => Err(RError::Eval(format!("expected a matrix, got {other:?}"))),
    }
}

fn small_vec_of(interp: &Interp, v: &Value) -> Result<Vec<f64>, RError> {
    match v {
        Value::Vec(xs) => Ok(xs.as_ref().clone()),
        Value::Num(x) => Ok(vec![*x]),
        Value::Bool(b) => Ok(vec![f64::from(*b)]),
        Value::Matrix(m) => {
            if m.len() > 4_000_000 {
                return Err(RError::Eval("matrix too large to convert to a vector".into()));
            }
            Ok(m.to_vec(interp.ctx()))
        }
        other => Err(RError::Eval(format!("cannot coerce {other:?} to a vector"))),
    }
}

fn binop_of(name: &str) -> Result<BinaryOp, RError> {
    Ok(match name {
        "+" => BinaryOp::Add,
        "-" => BinaryOp::Sub,
        "*" => BinaryOp::Mul,
        "/" => BinaryOp::Div,
        "min" | "pmin" => BinaryOp::Min,
        "max" | "pmax" => BinaryOp::Max,
        "euclidean" => BinaryOp::EuclidSq,
        other => return Err(RError::Eval(format!("unknown element function '{other}'"))),
    })
}

/// An element-wise function of a number, a vector or a matrix. Numbers
/// and vectors are evaluated by the engine's own [`UnaryOp::eval_f64`],
/// so a number and a 1 × 1 matrix cannot differ: `round` rounds half to
/// even (`round(2.5)` is 2) and `sign(0)` is 0, as in R.
fn unary_elementwise(v: &Value, op: UnaryOp) -> Result<Value, RError> {
    let f = |x: f64| op.eval_f64(x);
    match v {
        Value::Num(x) => Ok(Value::Num(f(*x))),
        Value::Bool(b) => Ok(Value::Num(f(f64::from(*b)))),
        Value::Vec(xs) => Ok(Value::Vec(Rc::new(xs.iter().map(|&x| f(x)).collect()))),
        Value::Matrix(m) => Ok(Value::Matrix(m.unary(op))),
        other => Err(RError::Eval(format!("non-numeric argument: {other:?}"))),
    }
}

fn agg_value(v: &Value, op: AggOp, what: &str) -> Result<Value, RError> {
    match v {
        Value::Num(x) => Ok(Value::Num(match op {
            AggOp::Any | AggOp::All => f64::from(*x != 0.0),
            _ => *x,
        })),
        Value::Bool(b) => Ok(Value::Num(f64::from(*b))),
        Value::Vec(xs) => {
            let mut acc = op.identity();
            for &x in xs.iter() {
                acc = op.fold(acc, x);
            }
            if op == AggOp::Mean {
                acc /= xs.len().max(1) as f64;
            }
            Ok(Value::Num(acc))
        }
        // Lazy: the sink becomes a deferred value.
        Value::Matrix(m) => Ok(Value::Matrix(match op {
            AggOp::Sum => m.sum(),
            AggOp::Mean => m.mean_all(),
            AggOp::Min => m.min_all(),
            AggOp::Max => m.max_all(),
            AggOp::Any => m.any_nz(),
            AggOp::All => m.all_nz(),
            _ => return Err(RError::Eval(format!("bad aggregate for {what}"))),
        })),
        other => Err(RError::Eval(format!("non-numeric argument to {what}: {other:?}"))),
    }
}

/// Invoke builtin `name`.
pub fn call(
    interp: &Interp,
    name: &'static str,
    raw: Vec<(Option<String>, Value)>,
) -> Result<Value, RError> {
    // `is.null` reads no value.
    if name != "is.null" && raw.iter().any(|(_, v)| matches!(v, Value::Deferred(_))) {
        let tall = raw.iter().any(|(_, v)| matches!(v, Value::Matrix(m) if !m.is_small()));
        if SMALL_OPS.contains(&name) && !tall {
            let (names, args): (Vec<Option<String>>, Vec<Value>) = raw.into_iter().unzip();
            return interp.defer_op(args, move |interp, args| {
                call(interp, name, names.iter().cloned().zip(args).collect())
            });
        }
        let raw = raw
            .into_iter()
            .map(|(n, v)| Ok((n, interp.force(&v)?)))
            .collect::<Result<_, RError>>()?;
        return call(interp, name, raw);
    }
    call_forced(interp, name, raw).map(|v| interp.settle(v))
}

/// [`call`] on arguments none of which is deferred.
fn call_forced(
    interp: &Interp,
    name: &str,
    raw: Vec<(Option<String>, Value)>,
) -> Result<Value, RError> {
    let a = Args::new(raw);
    let ctx = interp.ctx();
    match name {
        // ----------------------------------------------------- structure
        "matrix" => {
            let data = small_vec_of(interp, a.pos(0, "matrix")?)?;
            let nrow = a.get("nrow", 1).map(|v| v.as_num()).transpose()?.map(|v| v as usize);
            let ncol = a.get("ncol", 2).map(|v| v.as_num()).transpose()?.map(|v| v as usize);
            let (r, c) = match (nrow, ncol) {
                (Some(r), Some(c)) => (r, c),
                (Some(r), None) => (r, data.len().div_ceil(r.max(1))),
                (None, Some(c)) => (data.len().div_ceil(c.max(1)), c),
                (None, None) => (data.len(), 1),
            };
            if r * c == 0 {
                return Err(RError::Eval("matrix with zero extent".into()));
            }
            // Column-major fill with recycling, like R.
            let d = Dense::from_fn(r, c, |i, j| data[(j * r + i) % data.len().max(1)]);
            Ok(Value::Matrix(FM::from_dense(d)))
        }
        "numeric" => {
            let n = a.pos(0, "numeric")?.as_num()? as usize;
            Ok(Value::Vec(Rc::new(vec![0.0; n])))
        }
        "rep" | "rep.int" => {
            let times = a.pos(1, name)?.as_num()? as u64;
            match a.pos(0, name)? {
                Value::Num(x) => {
                    if times > 100_000 {
                        // Large replications become lazy tall columns.
                        Ok(Value::Matrix(FM::constant(times, 1, *x)))
                    } else {
                        Ok(Value::Vec(Rc::new(vec![*x; times as usize])))
                    }
                }
                Value::Vec(xs) => {
                    let mut out = Vec::with_capacity(xs.len() * times as usize);
                    for _ in 0..times {
                        out.extend_from_slice(xs);
                    }
                    Ok(Value::Vec(Rc::new(out)))
                }
                other => Err(RError::Eval(format!("cannot rep {other:?}"))),
            }
        }
        "c" => {
            let mut out = Vec::new();
            for v in &a.positional {
                out.extend(small_vec_of(interp, v)?);
            }
            Ok(Value::Vec(Rc::new(out)))
        }
        "seq_len" => {
            let n = a.pos(0, "seq_len")?.as_num()? as usize;
            Ok(Value::Vec(Rc::new((1..=n).map(|i| i as f64).collect())))
        }
        "length" => Ok(Value::Num(match a.pos(0, "length")? {
            Value::Vec(v) => v.len() as f64,
            Value::Matrix(m) => m.len() as f64,
            Value::Null => 0.0,
            _ => 1.0,
        })),
        "dim" => match a.pos(0, "dim")? {
            Value::Matrix(m) => Ok(Value::Vec(Rc::new(vec![m.nrow() as f64, m.ncol() as f64]))),
            _ => Ok(Value::Null),
        },
        "nrow" => match a.pos(0, "nrow")? {
            Value::Matrix(m) => Ok(Value::Num(m.nrow() as f64)),
            _ => Ok(Value::Null),
        },
        "ncol" => match a.pos(0, "ncol")? {
            Value::Matrix(m) => Ok(Value::Num(m.ncol() as f64)),
            _ => Ok(Value::Null),
        },
        "t" => match a.pos(0, "t")? {
            Value::Matrix(m) => Ok(Value::Matrix(m.t())),
            Value::Vec(v) => {
                Ok(Value::Matrix(FM::from_dense(Dense::from_vec(1, v.len(), v.as_ref().clone()))))
            }
            Value::Num(x) => Ok(Value::Matrix(FM::from_dense(Dense::from_vec(1, 1, vec![*x])))),
            other => Err(RError::Eval(format!("cannot transpose {other:?}"))),
        },
        "cbind" => {
            let fms: Vec<FM> =
                a.positional.iter().map(|v| fm_of(interp, v)).collect::<Result<_, _>>()?;
            if fms.iter().all(|m| m.is_small()) {
                // Small-world cbind.
                let rows = fms[0].nrow() as usize;
                let total: usize = fms.iter().map(|m| m.ncol() as usize).sum();
                let mut d = Dense::zeros(rows, total);
                let mut at = 0;
                for m in &fms {
                    let dm = m.to_dense(ctx);
                    for r in 0..rows {
                        for c in 0..dm.cols() {
                            d.set(r, at + c, dm.at(r, c));
                        }
                    }
                    at += dm.cols();
                }
                return Ok(Value::Matrix(FM::from_dense(d)));
            }
            let refs: Vec<&FM> = fms.iter().collect();
            Ok(Value::Matrix(FM::cbind(&refs)))
        }
        "rbind" => {
            let fms: Vec<FM> =
                a.positional.iter().map(|v| fm_of(interp, v)).collect::<Result<_, _>>()?;
            let mut acc = fms[0].clone();
            for m in &fms[1..] {
                acc = FM::rbind(ctx, &acc, m);
            }
            Ok(Value::Matrix(acc))
        }
        "diag" => match a.pos(0, "diag")? {
            Value::Num(n) => Ok(Value::Matrix(FM::from_dense(Dense::eye(*n as usize)))),
            Value::Vec(v) => {
                let n = v.len();
                let mut d = Dense::zeros(n, n);
                for (i, &x) in v.iter().enumerate() {
                    d.set(i, i, x);
                }
                Ok(Value::Matrix(FM::from_dense(d)))
            }
            Value::Matrix(m) => {
                let d = m.to_dense(ctx);
                let n = d.rows().min(d.cols());
                Ok(Value::Vec(Rc::new((0..n).map(|i| d.at(i, i)).collect())))
            }
            other => Err(RError::Eval(format!("bad diag argument {other:?}"))),
        },
        "runif.matrix" => {
            let n = a.pos(0, "runif.matrix")?.as_num()? as u64;
            let p = a.pos(1, "runif.matrix")?.as_num()? as usize;
            let lo = a.get("min", 2).map(|v| v.as_num()).transpose()?.unwrap_or(0.0);
            let hi = a.get("max", 3).map(|v| v.as_num()).transpose()?.unwrap_or(1.0);
            let seed = a
                .named("seed")
                .map(|v| v.as_num())
                .transpose()?
                .map(|v| v as u64)
                .unwrap_or_else(|| interp.next_seed());
            Ok(Value::Matrix(FM::runif(ctx, n, p, lo, hi, seed)))
        }
        "rnorm.matrix" => {
            let n = a.pos(0, "rnorm.matrix")?.as_num()? as u64;
            let p = a.pos(1, "rnorm.matrix")?.as_num()? as usize;
            let mean = a.get("mean", 2).map(|v| v.as_num()).transpose()?.unwrap_or(0.0);
            let sd = a.get("sd", 3).map(|v| v.as_num()).transpose()?.unwrap_or(1.0);
            let seed = a
                .named("seed")
                .map(|v| v.as_num())
                .transpose()?
                .map(|v| v as u64)
                .unwrap_or_else(|| interp.next_seed());
            Ok(Value::Matrix(FM::rnorm(ctx, n, p, mean, sd, seed)))
        }

        // ------------------------------------------------- element-wise
        "exp" => unary_elementwise(a.pos(0, name)?, UnaryOp::Exp),
        "log" => unary_elementwise(a.pos(0, name)?, UnaryOp::Ln),
        "log2" => unary_elementwise(a.pos(0, name)?, UnaryOp::Log2),
        "log10" => unary_elementwise(a.pos(0, name)?, UnaryOp::Log10),
        "log1p" => unary_elementwise(a.pos(0, name)?, UnaryOp::Log1p),
        "sqrt" => unary_elementwise(a.pos(0, name)?, UnaryOp::Sqrt),
        "abs" => unary_elementwise(a.pos(0, name)?, UnaryOp::Abs),
        "floor" => unary_elementwise(a.pos(0, name)?, UnaryOp::Floor),
        "ceiling" => unary_elementwise(a.pos(0, name)?, UnaryOp::Ceil),
        "round" => unary_elementwise(a.pos(0, name)?, UnaryOp::Round),
        "sign" => unary_elementwise(a.pos(0, name)?, UnaryOp::Sign),
        "sigmoid" => unary_elementwise(a.pos(0, name)?, UnaryOp::Sigmoid),
        "pmin" | "pmax" => {
            let op = if name == "pmin" { BinaryOp::Min } else { BinaryOp::Max };
            let l = a.pos(0, name)?;
            let r = a.pos(1, name)?;
            match (l, r) {
                (Value::Matrix(m), other) | (other, Value::Matrix(m)) => match other {
                    Value::Num(x) => Ok(Value::Matrix(m.binary_scalar(op, *x, false))),
                    Value::Matrix(o) => Ok(Value::Matrix(m.binary(op, o, false))),
                    Value::Vec(v) if v.len() == 1 => {
                        Ok(Value::Matrix(m.binary_scalar(op, v[0], false)))
                    }
                    other => Err(RError::Eval(format!("bad {name} operand {other:?}"))),
                },
                _ => {
                    let lv = small_vec_of(interp, l)?;
                    let rv = small_vec_of(interp, r)?;
                    let n = lv.len().max(rv.len());
                    let out: Vec<f64> = (0..n)
                        .map(|i| {
                            let x = lv[i % lv.len()];
                            let y = rv[i % rv.len()];
                            if name == "pmin" {
                                x.min(y)
                            } else {
                                x.max(y)
                            }
                        })
                        .collect();
                    Ok(Value::Vec(Rc::new(out)))
                }
            }
        }

        // -------------------------------------------------- aggregation
        "sum" => {
            // R sums all arguments together.
            if a.positional.len() == 1 {
                agg_value(a.pos(0, "sum")?, AggOp::Sum, "sum")
            } else {
                let mut total = 0.0;
                for v in &a.positional {
                    let s = agg_value(v, AggOp::Sum, "sum")?;
                    total += match s {
                        Value::Num(x) => x,
                        Value::Matrix(m) => m.value(ctx),
                        _ => 0.0,
                    };
                }
                Ok(Value::Num(total))
            }
        }
        "mean" => agg_value(a.pos(0, "mean")?, AggOp::Mean, "mean"),
        "min" => agg_value(a.pos(0, "min")?, AggOp::Min, "min"),
        "max" => agg_value(a.pos(0, "max")?, AggOp::Max, "max"),
        "any" => agg_value(a.pos(0, "any")?, AggOp::Any, "any"),
        "all" => agg_value(a.pos(0, "all")?, AggOp::All, "all"),
        "rowSums" | "rowMeans" | "colSums" | "colMeans" => {
            let m = fm_of(interp, a.pos(0, name)?)?;
            let out = match name {
                "rowSums" => m.row_sums(),
                "rowMeans" => m.row_means(),
                "colSums" => m.col_sums(),
                _ => m.col_means(),
            };
            Ok(Value::Matrix(out))
        }
        "crossprod" => {
            let x = fm_of(interp, a.pos(0, "crossprod")?)?;
            match a.positional.get(1) {
                None => Ok(Value::Matrix(x.crossprod())),
                Some(yv) => {
                    let y = fm_of(interp, yv)?;
                    Ok(Value::Matrix(x.crossprod_with(&y)))
                }
            }
        }

        // ------------------------------------------------------- GenOps
        "inner.prod" => {
            let x = fm_of(interp, a.pos(0, "inner.prod")?)?;
            let b = a.pos(1, "inner.prod")?.as_matrix()?.to_dense(ctx);
            let f1 = binop_of(a.pos(2, "inner.prod")?.as_str()?)?;
            let f2 = binop_of(a.pos(3, "inner.prod")?.as_str()?)?;
            if x.is_small() {
                // Small-world generalized product.
                let xd = x.to_dense(ctx);
                let mut out = Dense::zeros(xd.rows(), b.cols());
                for i in 0..xd.rows() {
                    for j in 0..b.cols() {
                        let mut acc = None;
                        for k in 0..xd.cols() {
                            let e = apply_binop(f1, xd.at(i, k), b.at(k, j));
                            acc = Some(match acc {
                                None => e,
                                Some(prev) => apply_binop(f2, prev, e),
                            });
                        }
                        out.set(i, j, acc.unwrap_or(0.0));
                    }
                }
                Ok(Value::Matrix(FM::from_dense(out)))
            } else {
                Ok(Value::Matrix(x.inner_prod(b, f1, f2)))
            }
        }
        "agg.row" => {
            let m = fm_of(interp, a.pos(0, "agg.row")?)?;
            let f = a.pos(1, "agg.row")?.as_str()?;
            let out = match f {
                // R's which.min is 1-based.
                "which.min" => &m.row_which_min() + 1.0,
                "which.max" => &m.row_which_max() + 1.0,
                "+" => m.row_sums(),
                "min" => m.row_min(),
                "max" => m.row_max(),
                other => return Err(RError::Eval(format!("unknown agg function '{other}'"))),
            };
            Ok(Value::Matrix(out))
        }
        "groupby.row" => {
            let data = fm_of(interp, a.pos(0, "groupby.row")?)?;
            let labels = fm_of(interp, a.pos(1, "groupby.row")?)?;
            let f = a.pos(2, "groupby.row")?.as_str()?;
            let op = match f {
                "+" => AggOp::Sum,
                "count" => AggOp::Count,
                "min" => AggOp::Min,
                "max" => AggOp::Max,
                "mean" => AggOp::Mean,
                other => return Err(RError::Eval(format!("unknown group function '{other}'"))),
            };
            // Output size depends on the label values (paper §3.4). Labels
            // with a static range (`agg.row(D, "which.min")` over k
            // columns is 1..k, as an R factor carries its levels) size it
            // with no pass, so a group no row falls in is a zero-count
            // row. Other labels materialize (cheap n×1) with their range
            // in one fused pass — only the range when `set.cache` already
            // holds them — and are sized by the values they hold.
            let (labels, lo, hi) = match labels.int_range() {
                Some((lo, hi)) => (labels, lo as f64, hi as f64),
                None => {
                    let got = FM::materialize_multi(
                        ctx,
                        &[&labels, &labels.min_all(), &labels.max_all()],
                    );
                    (got[0].clone(), got[1].value(ctx), got[2].value(ctx))
                }
            };
            let ngroups = (hi - lo) as usize + 1;
            let shifted =
                labels.binary_scalar(BinaryOp::Sub, lo, false).cast(flashr_core::DType::I64);
            Ok(Value::Matrix(data.groupby_row(&shifted, op, ngroups)))
        }
        "agg.col" => {
            let m = fm_of(interp, a.pos(0, "agg.col")?)?;
            let f = a.pos(1, "agg.col")?.as_str()?;
            let out = match f {
                "+" => m.col_sums(),
                "min" => m.col_min(),
                "max" => m.col_max(),
                "mean" => m.col_means(),
                other => return Err(RError::Eval(format!("unknown agg function '{other}'"))),
            };
            Ok(Value::Matrix(out))
        }
        "groupby.col" => {
            let data = fm_of(interp, a.pos(0, "groupby.col")?)?;
            let labels = small_vec_of(interp, a.pos(1, "groupby.col")?)?;
            let f = a.pos(2, "groupby.col")?.as_str()?;
            let op = match f {
                "+" => AggOp::Sum,
                "count" => AggOp::Count,
                "min" => AggOp::Min,
                "max" => AggOp::Max,
                "mean" => AggOp::Mean,
                other => return Err(RError::Eval(format!("unknown group function '{other}'"))),
            };
            // R labels are 1-based; shift to dense 0-based groups.
            let lo = labels.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = labels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if !lo.is_finite() || !hi.is_finite() {
                return Err(RError::Eval("bad column labels".into()));
            }
            let ngroups = (hi - lo) as usize + 1;
            let idx: Vec<usize> = labels.iter().map(|&v| (v - lo) as usize).collect();
            Ok(Value::Matrix(data.groupby_col(&idx, op, ngroups)))
        }
        "sweep" => {
            let x = fm_of(interp, a.pos(0, "sweep")?)?;
            let margin = a.pos(1, "sweep")?.as_num()? as usize;
            let stats = small_vec_of(interp, a.pos(2, "sweep")?)?;
            let f = a.get("FUN", 3).map(|v| v.as_str().map(|s| s.to_string())).transpose()?;
            let op = binop_of(f.as_deref().unwrap_or("-"))?;
            match margin {
                2 => {
                    if x.is_small() {
                        let d = x.to_dense(ctx);
                        let out = Dense::from_fn(d.rows(), d.cols(), |r, c| {
                            apply_binop(op, d.at(r, c), stats[c % stats.len()])
                        });
                        Ok(Value::Matrix(FM::from_dense(out)))
                    } else {
                        Ok(Value::Matrix(x.sweep_cols(&stats, op)))
                    }
                }
                1 => {
                    if x.is_small() {
                        let d = x.to_dense(ctx);
                        let out = Dense::from_fn(d.rows(), d.cols(), |r, c| {
                            apply_binop(op, d.at(r, c), stats[r % stats.len()])
                        });
                        Ok(Value::Matrix(FM::from_dense(out)))
                    } else {
                        // Per-row stats as a broadcast column.
                        let col = interp.vec_to_fm(&stats);
                        Ok(Value::Matrix(x.binary(op, &col, false)))
                    }
                }
                other => Err(RError::Eval(format!("sweep margin must be 1 or 2, got {other}"))),
            }
        }

        // ----------------------------------------------- engine control
        "set.cache" => {
            let m = a.pos(0, "set.cache")?.as_matrix()?;
            let flag = interp.truthy(a.pos(1, "set.cache")?)?;
            m.set_cache(flag);
            Ok(Value::Matrix(m.clone()))
        }
        "materialize" => match a.pos(0, "materialize")? {
            Value::Matrix(m) => Ok(Value::Matrix(m.materialize(ctx))),
            other => Ok(other.clone()),
        },
        "as.vector" => match a.pos(0, "as.vector")? {
            Value::Matrix(m) => {
                if m.len() == 1 {
                    Ok(Value::Num(m.get(ctx, 0, 0)))
                } else {
                    Ok(Value::Vec(Rc::new(small_vec_of(interp, &Value::Matrix(m.clone()))?)))
                }
            }
            other => Ok(other.clone()),
        },
        "as.matrix" => {
            let m = fm_of(interp, a.pos(0, "as.matrix")?)?;
            if m.len() > 4_000_000 {
                return Err(RError::Eval("matrix too large for as.matrix".into()));
            }
            Ok(Value::Matrix(FM::from_dense(m.to_dense(ctx))))
        }
        "unique" => {
            let m = fm_of(interp, a.pos(0, "unique")?)?;
            Ok(Value::Vec(Rc::new(m.unique(ctx))))
        }

        // --------------------------------------------------------- misc
        "is.null" => Ok(Value::Bool(a.pos(0, "is.null")?.is_null())),
        "print" => {
            let v = a.pos(0, "print")?.clone();
            match &v {
                Value::Matrix(m) => println!("{m:?}"),
                other => println!("{other:?}"),
            }
            Ok(v)
        }
        "cat" => {
            let mut out = String::new();
            for v in &a.positional {
                match v {
                    Value::Str(s) => out.push_str(s),
                    Value::Num(x) => out.push_str(&x.to_string()),
                    Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
                    Value::Vec(xs) => {
                        out.push_str(
                            &xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" "),
                        );
                    }
                    Value::Matrix(m) => {
                        if m.len() == 1 {
                            out.push_str(&m.get(ctx, 0, 0).to_string());
                        } else {
                            out.push_str(&format!("{m:?}"));
                        }
                    }
                    other => out.push_str(&format!("{other:?}")),
                }
                out.push(' ');
            }
            print!("{}", out.trim_end_matches(' '));
            Ok(Value::Null)
        }
        "solve" => {
            let m = a.pos(0, "solve")?.as_matrix()?.to_dense(ctx);
            let factors = flashr_linalg::lu_factor(&m)
                .ok_or_else(|| RError::Eval("matrix is singular".into()))?;
            let rhs = match a.positional.get(1) {
                Some(v) => v.as_matrix()?.to_dense(ctx),
                None => Dense::eye(m.rows()),
            };
            Ok(Value::Matrix(FM::from_dense(flashr_linalg::lu_solve(&factors, &rhs))))
        }
        "which.min" | "which.max" => {
            let xs = small_vec_of(interp, a.pos(0, name)?)?;
            let mut best = 0usize;
            for (i, &x) in xs.iter().enumerate() {
                let better = if name == "which.min" { x < xs[best] } else { x > xs[best] };
                if better {
                    best = i;
                }
            }
            Ok(Value::Num(best as f64 + 1.0))
        }
        "stopifnot" => {
            for (i, v) in a.positional.iter().enumerate() {
                if !interp.truthy(v)? {
                    return Err(RError::Eval(format!("stopifnot: condition {} failed", i + 1)));
                }
            }
            Ok(Value::Null)
        }
        other => Err(RError::Eval(format!("builtin '{other}' is not implemented"))),
    }
}

fn apply_binop(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        BinaryOp::Min => a.min(b),
        BinaryOp::Max => a.max(b),
        BinaryOp::EuclidSq => (a - b) * (a - b),
        _ => f64::NAN,
    }
}
