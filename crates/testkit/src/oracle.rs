//! The reference every engine configuration is checked against: a naive
//! evaluator for `FM` programs that shares nothing with the engine but
//! the *names* of its operations.
//!
//! A [`Mat`] is a dense row-major `Vec<f64>` plus a dtype tag. Every
//! operation allocates its whole result, reads its operands element by
//! element and folds strictly left to right: no partitions, no chunks,
//! no laziness, no SIMD, no threads. `UnaryOp`, `BinaryOp`, `AggOp` and
//! `DType` are imported so a test can hand the same value to the engine
//! and to the oracle; none of their methods is called here — promotion,
//! result dtypes, broadcasting, wrapping and saturation are written out
//! below, which is what makes a disagreement with the engine mean
//! something.
//!
//! Integer matrices hold their values exactly as `f64`, so an `I64`
//! value must stay below 2⁵³ in magnitude; [`Mat::in_domain`] says
//! whether a result still does, and generators discard an operation
//! whose result does not.

use flashr_core::dtype::DType;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};

/// A dense reference matrix: row-major values and a dtype tag. Values of
/// an integer dtype are integers in that dtype's range; values of `F32`
/// are exactly representable in `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub dtype: DType,
    data: Vec<f64>,
}

fn is_float(dt: DType) -> bool {
    matches!(dt, DType::F32 | DType::F64)
}

/// `U8 < I32 < I64 < F32 < F64`: the wider of two dtypes.
fn promote(a: DType, b: DType) -> DType {
    let rank = |dt| match dt {
        DType::U8 => 0,
        DType::I32 => 1,
        DType::I64 => 2,
        DType::F32 => 3,
        DType::F64 => 4,
    };
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

/// Two's-complement wrap of an exact integer into `dt`'s width.
fn wrap(dt: DType, v: i64) -> f64 {
    wrap_int(dt, v) as f64
}

fn wrap_int(dt: DType, v: i64) -> i64 {
    match dt {
        DType::U8 => i64::from(v as u8),
        DType::I32 => i64::from(v as i32),
        DType::I64 => v,
        DType::F32 | DType::F64 => unreachable!("wrap is for integer dtypes"),
    }
}

/// One arithmetic element on exact integers of dtype `dt`, other than
/// `Pow` (which goes through `f64`).
fn int_arith(dt: DType, op: BinaryOp, x: i64, y: i64) -> i64 {
    let w = |v| wrap_int(dt, v);
    match op {
        BinaryOp::Add => w(x.wrapping_add(y)),
        BinaryOp::Sub => w(x.wrapping_sub(y)),
        BinaryOp::Mul => w(x.wrapping_mul(y)),
        // Integer division and remainder by zero are 0, not a trap.
        BinaryOp::Div => w(if y == 0 { 0 } else { x.wrapping_div(y) }),
        BinaryOp::Rem => w(if y == 0 { 0 } else { x.wrapping_rem(y) }),
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        BinaryOp::EuclidSq => {
            let d = w(x.wrapping_sub(y));
            w(d.wrapping_mul(d))
        }
        _ => unreachable!("predicates go through `pred`, `Pow` through `f64`"),
    }
}

/// Float → `dt`: rounding to `f32`, or truncation toward zero saturating
/// at the integer range with NaN → 0.
fn from_f64(dt: DType, x: f64) -> f64 {
    match dt {
        DType::F64 => x,
        DType::F32 => f64::from(x as f32),
        DType::U8 => f64::from(x as u8),
        DType::I32 => f64::from(x as i32),
        DType::I64 => (x as i64) as f64,
    }
}

/// The generators' counter uniform on [0, 1): the top 53 bits of the
/// splitmix64 finalizer of a key mixing seed, row, column and stream.
fn unit(seed: u64, row: usize, col: usize, stream: u64) -> f64 {
    let mut z = seed
        ^ (row as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn is_predicate(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge | And | Or)
}

fn unary_f64(op: UnaryOp, x: f64) -> f64 {
    match op {
        UnaryOp::Neg => -x,
        UnaryOp::Abs => x.abs(),
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Exp => x.exp(),
        UnaryOp::Ln => x.ln(),
        UnaryOp::Log2 => x.log2(),
        UnaryOp::Log10 => x.log10(),
        UnaryOp::Log1p => x.ln_1p(),
        UnaryOp::Floor => x.floor(),
        UnaryOp::Ceil => x.ceil(),
        // Half away from zero (not R's half-to-even).
        UnaryOp::Round => x.round(),
        // NaN has no sign: 0.
        UnaryOp::Sign => f64::from(i8::from(x > 0.0) - i8::from(x < 0.0)),
        UnaryOp::Recip => 1.0 / x,
        UnaryOp::Square => x * x,
        UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        UnaryOp::Not => f64::from(u8::from(x == 0.0)),
    }
}

/// One arithmetic element in dtype `dt` (operands already of that dtype).
fn arith(dt: DType, op: BinaryOp, a: f64, b: f64) -> f64 {
    match dt {
        DType::F64 => match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Rem => a % b,
            BinaryOp::Pow => a.powf(b),
            // NaN loses to a number; the sign of a zero result is not
            // specified (IEEE minNum/maxNum).
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::EuclidSq => (a - b) * (a - b),
            _ => unreachable!("predicates go through `pred`"),
        },
        DType::F32 => {
            let (a, b) = (a as f32, b as f32);
            f64::from(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => a / b,
                BinaryOp::Rem => a % b,
                BinaryOp::Pow => a.powf(b),
                BinaryOp::Min => a.min(b),
                BinaryOp::Max => a.max(b),
                BinaryOp::EuclidSq => (a - b) * (a - b),
                _ => unreachable!("predicates go through `pred`"),
            })
        }
        DType::U8 | DType::I32 | DType::I64 => match op {
            BinaryOp::Pow => from_f64(dt, a.powf(b)),
            _ => int_arith(dt, op, a as i64, b as i64) as f64,
        },
    }
}

/// One predicate element; `And`/`Or` read "non-zero" (NaN is non-zero).
fn pred(op: BinaryOp, a: f64, b: f64) -> f64 {
    f64::from(u8::from(match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        BinaryOp::Lt => a < b,
        BinaryOp::Le => a <= b,
        BinaryOp::Gt => a > b,
        BinaryOp::Ge => a >= b,
        BinaryOp::And => a != 0.0 && b != 0.0,
        BinaryOp::Or => a != 0.0 || b != 0.0,
        _ => unreachable!("arithmetic goes through `arith`"),
    }))
}

impl Mat {
    /// An `F64` matrix from row-major values.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        assert_eq!(data.len(), rows * cols, "oracle: data length");
        Mat { rows, cols, dtype: DType::F64, data }
    }

    /// `runif.matrix` with seed `seed`: element (r, c) is `lo + (hi − lo)·u`
    /// with `u` the counter uniform of `(seed, r, c)` on stream 0.
    pub fn runif(rows: usize, cols: usize, seed: u64, lo: f64, hi: f64) -> Mat {
        Mat::from_fn(rows, cols, DType::F64, |r, c| lo + (hi - lo) * unit(seed, r, c, 0))
    }

    /// `rnorm.matrix` with seed `seed`, by Box–Muller one element at a
    /// time: rows 2k and 2k + 1 share the uniforms of `(seed, k, c)` on
    /// streams 1 and 2; the even row is `r·cos θ`, the odd row `r·sin θ`.
    pub fn rnorm(rows: usize, cols: usize, seed: u64, mean: f64, sd: f64) -> Mat {
        Mat::from_fn(rows, cols, DType::F64, |r, c| {
            let u1 = unit(seed, r / 2, c, 1).max(f64::MIN_POSITIVE);
            let theta = std::f64::consts::TAU * unit(seed, r / 2, c, 2);
            let radius = (-2.0 * u1.ln()).sqrt();
            let z = if r % 2 == 0 { radius * theta.cos() } else { radius * theta.sin() };
            mean + sd * z
        })
    }

    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// The values in column-major order, as `FM::to_vec` returns them.
    pub fn col_major(&self) -> Vec<f64> {
        (0..self.cols).flat_map(|c| (0..self.rows).map(move |r| self.at(r, c))).collect()
    }

    /// Σ|x| — the scale of a reduction's rounding bound.
    pub fn abs_sum(&self) -> f64 {
        self.data.iter().fold(0.0, |s, v| s + v.abs())
    }

    /// |x| element-wise, as `F64`: run a product or a grouped sum over
    /// this to get the scale of each of its entries' bounds.
    pub fn abs(&self) -> Mat {
        self.map(DType::F64, f64::abs)
    }

    /// Whether every value is one this representation holds exactly (the
    /// only way out is an `I64` at or beyond 2⁵³).
    pub fn in_domain(&self) -> bool {
        self.dtype != DType::I64 || self.data.iter().all(|v| v.abs() < 9_007_199_254_740_992.0)
    }

    fn map(&self, dtype: DType, f: impl Fn(f64) -> f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            dtype,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    fn from_fn(rows: usize, cols: usize, dtype: DType, f: impl Fn(usize, usize) -> f64) -> Mat {
        let data = (0..rows * cols).map(|i| f(i / cols.max(1), i % cols.max(1))).collect();
        Mat { rows, cols, dtype, data }
    }

    /// dtype conversion: float sources round (to `f32`) or truncate and
    /// saturate (to integers, NaN → 0); integer sources wrap into a
    /// narrower integer and round into a float.
    pub fn cast(&self, to: DType) -> Mat {
        if is_float(self.dtype) || is_float(to) {
            self.map(to, |v| from_f64(to, v))
        } else {
            self.map(to, |v| wrap(to, v as i64))
        }
    }

    /// `sapply`. The eight functions defined on reals only see an integer
    /// matrix as `F64`; `Not` yields `U8`; everything else keeps the
    /// dtype — `Neg`/`Abs`/`Square` in the dtype's own arithmetic
    /// (wrapping for integers), the rest through `f64` and back.
    pub fn unary(&self, op: UnaryOp) -> Mat {
        use UnaryOp::*;
        let real_only = matches!(op, Sqrt | Exp | Ln | Log2 | Log10 | Log1p | Recip | Sigmoid);
        if real_only && !is_float(self.dtype) {
            return self.cast(DType::F64).unary(op);
        }
        let dt = self.dtype;
        match op {
            Not => self.map(DType::U8, |v| unary_f64(Not, v)),
            Neg | Abs | Square if !is_float(dt) => self.map(dt, |v| {
                let x = v as i64;
                match op {
                    Neg => wrap(dt, 0i64.wrapping_sub(x)),
                    Abs if x < 0 => wrap(dt, 0i64.wrapping_sub(x)),
                    Abs => v,
                    _ => wrap(dt, x.wrapping_mul(x)),
                }
            }),
            Square if dt == DType::F32 => self.map(dt, |v| f64::from(v as f32 * v as f32)),
            _ => self.map(dt, |v| from_f64(dt, unary_f64(op, v))),
        }
    }

    /// `mapply` against another matrix of the same height: same width, or
    /// one column recycled across ours. Both sides convert to the wider
    /// dtype first; `swapped` computes `op(rhs, self)`.
    pub fn binary(&self, op: BinaryOp, rhs: &Mat, swapped: bool) -> Mat {
        assert_eq!(self.rows, rhs.rows, "oracle: mapply rows");
        assert!(rhs.cols == self.cols || rhs.cols == 1, "oracle: mapply cols");
        let dt = promote(self.dtype, rhs.dtype);
        let (a, b) = (self.cast(dt), rhs.cast(dt));
        let out = if is_predicate(op) { DType::U8 } else { dt };
        Mat::from_fn(self.rows, self.cols, out, |r, c| {
            let (x, y) = (a.at(r, c), b.at(r, if b.cols == 1 { 0 } else { c }));
            let (x, y) = if swapped { (y, x) } else { (x, y) };
            if is_predicate(op) {
                pred(op, x, y)
            } else {
                arith(dt, op, x, y)
            }
        })
    }

    /// `mapply` against an `f64` scalar (the matrix converts to `F64`).
    pub fn binary_scalar(&self, op: BinaryOp, s: f64, swapped: bool) -> Mat {
        self.sweep(op, &vec![s; self.cols], swapped)
    }

    /// `sweep(x, 2, stats, op)`: column `c` against `stats[c]`.
    pub fn sweep_cols(&self, stats: &[f64], op: BinaryOp) -> Mat {
        self.sweep(op, stats, false)
    }

    fn sweep(&self, op: BinaryOp, per_col: &[f64], swapped: bool) -> Mat {
        assert_eq!(per_col.len(), self.cols, "oracle: one constant per column");
        let a = self.cast(DType::F64);
        let out = if is_predicate(op) { DType::U8 } else { DType::F64 };
        Mat::from_fn(self.rows, self.cols, out, |r, c| {
            let (x, y) = if swapped { (per_col[c], a.at(r, c)) } else { (a.at(r, c), per_col[c]) };
            if is_predicate(op) {
                pred(op, x, y)
            } else {
                arith(DType::F64, op, x, y)
            }
        })
    }

    /// `x[, idx]`; indices may repeat, reorder or be empty.
    pub fn cols(&self, idx: &[usize]) -> Mat {
        Mat::from_fn(self.rows, idx.len(), self.dtype, |r, c| self.at(r, idx[c]))
    }

    /// `cbind`: every part converts to the widest dtype among them.
    pub fn cbind(parts: &[&Mat]) -> Mat {
        let dt = parts.iter().fold(parts[0].dtype, |dt, p| promote(dt, p.dtype));
        let parts: Vec<Mat> = parts.iter().map(|p| p.cast(dt)).collect();
        let rows = parts[0].rows;
        let mut data = Vec::new();
        for r in 0..rows {
            for p in &parts {
                assert_eq!(p.rows, rows, "oracle: cbind rows");
                data.extend((0..p.cols).map(|c| p.at(r, c)));
            }
        }
        Mat { rows, cols: parts.iter().map(|p| p.cols).sum(), dtype: dt, data }
    }

    /// `self %*% b` in `F64`, each entry one left-to-right dot product.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "oracle: matmul inner dimension");
        let a = self.cast(DType::F64);
        Mat::from_fn(self.rows, b.cols, DType::F64, |r, c| {
            (0..a.cols).fold(0.0, |s, k| s + a.at(r, k) * b.at(k, c))
        })
    }

    /// `inner.prod(self, b, f1, f2)` in the matrix's own dtype, `b` an
    /// `F64` matrix whose values convert to that dtype as a cast does:
    /// entry (r, j) is `f1(x[r, 0], b[0, j])`, then `f2(acc, f1(x[r, k],
    /// b[k, j]))` for `k` ascending. Integers fold exactly, in `i64`, so an
    /// intermediate beyond 2⁵³ cannot round.
    pub fn inner_prod(&self, b: &Mat, f1: BinaryOp, f2: BinaryOp) -> Mat {
        assert_eq!(self.cols, b.rows, "oracle: inner.prod inner dimension");
        assert!(self.cols > 0, "oracle: inner.prod over no columns");
        let dt = self.dtype;
        Mat::from_fn(self.rows, b.cols, dt, |r, j| {
            let (x, y) = (|k| self.at(r, k), |k| from_f64(dt, b.at(k, j)));
            if is_float(dt) {
                let term = |k| arith(dt, f1, x(k), y(k));
                (1..self.cols).fold(term(0), |acc, k| arith(dt, f2, acc, term(k)))
            } else {
                let term = |k| int_arith(dt, f1, x(k) as i64, y(k) as i64);
                (1..self.cols).fold(term(0), |acc, k| int_arith(dt, f2, acc, term(k))) as f64
            }
        })
    }

    /// Running sum down each column, in the matrix's own dtype.
    pub fn cumsum_col(&self) -> Mat {
        let mut out = self.clone();
        for r in 1..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] =
                    arith(self.dtype, BinaryOp::Add, out.at(r - 1, c), self.at(r, c));
            }
        }
        out
    }

    /// `t(self)`, for the reference side of a Gramian.
    pub fn t(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, self.dtype, |r, c| self.at(c, r))
    }

    /// One fold over `vals` in order, as every aggregation defines it:
    /// sums and counts start from +0.0 and products from 1; `Min`/`Max`
    /// start from ±∞ and skip NaN, so a run with no number in it yields
    /// the infinity; `Any` is 1 once a value is non-zero (NaN is), `All`
    /// 0 once one is zero, and 0 and 1 on an empty run; `Mean` divides
    /// the sum by the count.
    fn fold(op: AggOp, vals: impl Iterator<Item = f64>) -> f64 {
        let mut n = 0usize;
        let acc = vals.fold(
            match op {
                AggOp::Min => f64::INFINITY,
                AggOp::Max => f64::NEG_INFINITY,
                AggOp::Prod | AggOp::All => 1.0,
                _ => 0.0,
            },
            |acc, v| {
                n += 1;
                match op {
                    AggOp::Sum | AggOp::Mean => acc + v,
                    AggOp::Prod => acc * v,
                    AggOp::Min => acc.min(v),
                    AggOp::Max => acc.max(v),
                    AggOp::Count => acc + 1.0,
                    AggOp::Any if v != 0.0 => 1.0,
                    AggOp::All if v == 0.0 => 0.0,
                    AggOp::Any | AggOp::All => acc,
                    _ => panic!("oracle: aggregation {op:?} has no reference semantics here"),
                }
            },
        );
        if op == AggOp::Mean {
            acc / n.max(1) as f64
        } else {
            acc
        }
    }

    /// Per-row aggregation over the columns → one column. `Sum` widens
    /// (integers to `I64`, floats to `F64`), `Min`/`Max` keep the dtype,
    /// `WhichMin` is the `I64` index of the first column holding the
    /// row's smallest number — 0 when the row has none.
    pub fn agg_rows(&self, op: AggOp) -> Mat {
        let row = |r: usize| (0..self.cols).map(move |c| self.at(r, c));
        match op {
            AggOp::WhichMin | AggOp::WhichMax => {
                // Nothing beats the dtype's largest (smallest) value, so a
                // row of nothing but that (or, for floats, of NaN and ±∞)
                // is 0.
                let min = op == AggOp::WhichMin;
                let start = match (self.dtype, min) {
                    (DType::U8, true) => f64::from(u8::MAX),
                    (DType::U8, false) => 0.0,
                    (DType::I32, true) => f64::from(i32::MAX),
                    (DType::I32, false) => f64::from(i32::MIN),
                    (DType::I64, true) => i64::MAX as f64,
                    (DType::I64, false) => i64::MIN as f64,
                    (DType::F32 | DType::F64, true) => f64::INFINITY,
                    (DType::F32 | DType::F64, false) => f64::NEG_INFINITY,
                };
                Mat::from_fn(self.rows, 1, DType::I64, |r, _| {
                    let first_better = |(at, best): (usize, f64), (c, v)| {
                        if (min && v < best) || (!min && v > best) {
                            (c, v)
                        } else {
                            (at, best)
                        }
                    };
                    row(r).enumerate().fold((0, start), first_better).0 as f64
                })
            }
            _ => {
                let out = match op {
                    AggOp::Sum if is_float(self.dtype) => DType::F64,
                    AggOp::Sum => DType::I64,
                    AggOp::Min | AggOp::Max => self.dtype,
                    AggOp::Mean => DType::F64,
                    _ => panic!("oracle: per-row {op:?} has no reference semantics here"),
                };
                Mat::from_fn(self.rows, 1, out, |r, _| from_f64(out, Mat::fold(op, row(r))))
            }
        }
    }

    /// Per-column aggregation over the rows → 1 × cols, `F64`.
    pub fn agg_cols(&self, op: AggOp) -> Mat {
        Mat::from_fn(1, self.cols, DType::F64, |_, c| {
            Mat::fold(op, (0..self.rows).map(|r| self.at(r, c)))
        })
    }

    /// Aggregation over every element (row-major order) → a number.
    pub fn agg_all(&self, op: AggOp) -> f64 {
        Mat::fold(op, self.data.iter().copied())
    }

    /// `t(self) %*% other` in `F64`.
    pub fn crossprod(&self, other: &Mat) -> Mat {
        self.t().matmul(&other.cast(DType::F64))
    }

    /// `groupby.row`: rows of `self` reduced by their label (an n × 1
    /// matrix of integers in `[0, ngroups)`) → ngroups × cols, `F64`. A
    /// group no row belongs to folds nothing.
    pub fn groupby_row(&self, labels: &Mat, op: AggOp, ngroups: usize) -> Mat {
        assert_eq!((labels.rows, labels.cols), (self.rows, 1), "oracle: groupby labels");
        Mat::from_fn(ngroups, self.cols, DType::F64, |g, c| {
            let members = (0..self.rows).filter(|&r| labels.at(r, 0) == g as f64);
            Mat::fold(op, members.map(|r| self.at(r, c)))
        })
    }
}

/// Element-wise agreement with the oracle: the same bits, any NaN for a
/// NaN (payloads are not part of the contract), and — with
/// `zero_sign_free`, for values that went through `min`/`max` — a zero of
/// either sign for a zero.
#[track_caller]
pub fn assert_same(got: &[f64], want: &Mat, zero_sign_free: bool, what: &str) {
    let want = want.col_major();
    assert_eq!(got.len(), want.len(), "{what}: element count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let same = g.to_bits() == w.to_bits()
            || (g.is_nan() && w.is_nan())
            || (zero_sign_free && *g == 0.0 && *w == 0.0);
        assert!(same, "{what}: element {i} (column-major): engine {g:?}, oracle {w:?}");
    }
}

/// Agreement of a reassociated reduction with the oracle's left-to-right
/// one: within `n·ε·Σ|x|` of a finite value (`scale` = Σ|x| over the `n`
/// terms), exactly an infinite one, NaN for NaN.
#[track_caller]
pub fn assert_close(got: f64, want: f64, n: usize, scale: f64, what: &str) {
    let ok = if want.is_nan() {
        got.is_nan()
    } else if want.is_infinite() {
        got == want
    } else {
        (got - want).abs() <= n as f64 * f64::EPSILON * scale
    };
    assert!(ok, "{what}: engine {got:?}, oracle {want:?} (n = {n}, Σ|x| = {scale:e})");
}
