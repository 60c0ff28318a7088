//! Aggregation GenOps: `agg`, `agg.row`, `agg.col` (paper Table 1).
//!
//! `agg.row` on a tall matrix is partition-local (each output row depends
//! only on its input row) and lives here as a chunk kernel. Full and
//! per-column aggregations cross partitions and are accumulated by the
//! executor's sink accumulators (`crate::exec::accum`), which also use the
//! per-op identities and combine rules defined here.

use crate::chunk::{BufPool, Chunk};
use crate::dtype::DType;
use crate::element::Element;
use crate::ops::simd::{pick, versioned, SimdLevel};

/// Predefined aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Sum,
    Prod,
    Min,
    Max,
    Mean,
    /// Logical any (`|` in the paper's Table 2).
    Any,
    /// Logical all (`&`).
    All,
    /// Number of elements aggregated (R's `length`/`count` per group).
    Count,
    /// Index of the minimum (R's `which.min`, 0-based here).
    WhichMin,
    /// Index of the maximum.
    WhichMax,
}

impl AggOp {
    /// Every op, in declaration order (`op as u8` indexes it).
    const ALL: [AggOp; 10] = [
        AggOp::Sum,
        AggOp::Prod,
        AggOp::Min,
        AggOp::Max,
        AggOp::Mean,
        AggOp::Any,
        AggOp::All,
        AggOp::Count,
        AggOp::WhichMin,
        AggOp::WhichMax,
    ];

    /// The op a kernel's `OP` const generic names (`op as u8`).
    #[inline(always)]
    fn from_u8(v: u8) -> AggOp {
        AggOp::ALL[v as usize]
    }

    /// Output dtype of aggregating an `input`-typed matrix.
    pub fn out_dtype(self, input: DType) -> DType {
        match self {
            AggOp::Sum | AggOp::Prod => input.sum_dtype(),
            AggOp::Min | AggOp::Max => input,
            AggOp::Mean => DType::F64,
            AggOp::Any | AggOp::All => DType::U8,
            AggOp::Count | AggOp::WhichMin | AggOp::WhichMax => DType::I64,
        }
    }

    /// Identity element for f64 accumulation.
    pub fn identity(self) -> f64 {
        match self {
            AggOp::Sum | AggOp::Count => 0.0,
            AggOp::Prod => 1.0,
            AggOp::Min | AggOp::WhichMin => f64::INFINITY,
            AggOp::Max | AggOp::WhichMax => f64::NEG_INFINITY,
            AggOp::Mean => 0.0,
            AggOp::Any => 0.0,
            AggOp::All => 1.0,
        }
    }

    /// Fold a value into an f64 accumulator (value-only ops).
    #[inline(always)]
    pub fn fold(self, acc: f64, v: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => acc + v,
            AggOp::Prod => acc * v,
            AggOp::Min => acc.min(v),
            AggOp::Max => acc.max(v),
            AggOp::Count => acc + 1.0,
            AggOp::Any => {
                if v != 0.0 {
                    1.0
                } else {
                    acc
                }
            }
            AggOp::All => {
                if v == 0.0 {
                    0.0
                } else {
                    acc
                }
            }
            AggOp::WhichMin | AggOp::WhichMax => {
                unreachable!("which.min/which.max need positional folding")
            }
        }
    }

    /// Combine two partial f64 accumulators (value-only ops).
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean | AggOp::Count => a + b,
            AggOp::Prod => a * b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
            AggOp::Any => {
                if a != 0.0 || b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            AggOp::All => {
                if a != 0.0 && b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            AggOp::WhichMin | AggOp::WhichMax => {
                unreachable!("which.min/which.max need positional combining")
            }
        }
    }

    /// Whether this op needs a positional (value, index) accumulator.
    pub fn is_positional(self) -> bool {
        matches!(self, AggOp::WhichMin | AggOp::WhichMax)
    }
}

/// `agg.row`: per-row aggregation over the columns of a chunk, producing
/// a one-column chunk, compiled for `level` (both give the same bits).
///
/// Every row folds its columns in ascending order from the op's identity,
/// in `f64` (so `Min`/`Max` cast back to the input dtype and integer sums
/// to `I64`); `which.min`/`which.max` keep the first column of a tie and
/// never pick a `NaN`. The folds write into the output when it is `f64`
/// and into a pooled buffer otherwise: nothing but the output stays
/// allocated.
pub fn agg_row(level: SimdLevel, op: AggOp, input: &Chunk, pool: &mut BufPool) -> Chunk {
    let rows = input.rows();
    let vex = level.vex();
    if op == AggOp::Count || rows == 0 {
        let mut out = Chunk::alloc(op.out_dtype(input.dtype()), rows, 1, pool);
        if op == AggOp::Count {
            out.slice_mut::<i64>().fill(input.cols() as i64);
        }
        return out;
    }
    crate::dispatch!(input.dtype(), T, {
        let x = input.slice::<T>();
        if op.is_positional() {
            let mut out = Chunk::alloc(DType::I64, rows, 1, pool);
            let mut best = Chunk::alloc(T::DTYPE, rows, 1, pool);
            let kernel = if op == AggOp::WhichMin {
                pick!(vex, which_rows::<T, true>)
            } else {
                pick!(vex, which_rows::<T, false>)
            };
            kernel(x, rows, best.slice_mut::<T>(), out.slice_mut::<i64>());
            best.recycle(pool);
            return out;
        }
        let kernel = fold_fn::<T>(op, vex);
        let out_dtype = op.out_dtype(T::DTYPE);
        let mut out = Chunk::alloc(out_dtype, rows, 1, pool);
        if out_dtype == DType::F64 {
            kernel(x, rows, out.slice_mut::<f64>());
        } else {
            let mut acc = Chunk::alloc(DType::F64, rows, 1, pool);
            kernel(x, rows, acc.slice_mut::<f64>());
            crate::dispatch!(out_dtype, O, {
                for (d, a) in out.slice_mut::<O>().iter_mut().zip(acc.slice::<f64>()) {
                    *d = O::from_f64(*a);
                }
            });
            acc.recycle(pool);
        }
        out
    })
}

type RowFoldFn<T> = fn(&[T], usize, &mut [f64]);

/// The row fold for a value-only `op`, compiled for AVX2 (`vex`) or the
/// baseline.
fn fold_fn<T: Element>(op: AggOp, vex: bool) -> RowFoldFn<T> {
    macro_rules! ops {
        ($($op:ident),*) => {
            $(if op == AggOp::$op {
                return pick!(vex, fold_rows::<T, { AggOp::$op as u8 }>);
            })*
        };
    }
    ops!(Sum, Prod, Min, Max, Mean, Any, All);
    unreachable!("{op:?} is not a value fold")
}

/// `acc[r] = fold over the columns of x of row r`, one column at a time
/// across all rows, with `OP` a const so the fold compiles to its bare
/// element function; `Mean` then divides by the column count.
fn fold_rows<T: Element, const OP: u8, const VEX: bool>(x: &[T], rows: usize, acc: &mut [f64]) {
    versioned::<VEX, _>(
        #[inline(always)]
        || {
            let op = AggOp::from_u8(OP);
            acc.fill(op.identity());
            for col in x.chunks_exact(rows) {
                for (a, v) in acc.iter_mut().zip(col) {
                    *a = op.fold(*a, v.to_f64());
                }
            }
            if op == AggOp::Mean {
                let cols = (x.len() / rows) as f64;
                for a in acc.iter_mut() {
                    *a /= cols;
                }
            }
        },
    );
}

/// `which.min` (`MIN`) or `which.max` per row: a compare and two selects
/// per element, so a column folds across all rows without a branch. Only
/// a strictly better value moves the index, so ties keep the first
/// column and `NaN` never wins.
fn which_rows<T: Element, const MIN: bool, const VEX: bool>(
    x: &[T],
    rows: usize,
    best: &mut [T],
    idx: &mut [i64],
) {
    versioned::<VEX, _>(
        #[inline(always)]
        || {
            best.fill(if MIN { T::max_value() } else { T::min_value() });
            idx.fill(0);
            for (c, col) in x.chunks_exact(rows).enumerate() {
                let c = c as i64;
                for ((b, i), &v) in best.iter_mut().zip(idx.iter_mut()).zip(col) {
                    let better = if MIN { v < *b } else { v > *b };
                    *b = if better { v } else { *b };
                    *i = if better { c } else { *i };
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_sums_and_means() {
        let mut pool = BufPool::new();
        // 2x3 col-major: rows are [1,3,5] and [2,4,6]
        let c = Chunk::from_slice::<f64>(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = agg_row(SimdLevel::Scalar, AggOp::Sum, &c, &mut pool);
        assert_eq!(s.slice::<f64>(), &[9.0, 12.0]);
        let m = agg_row(SimdLevel::Scalar, AggOp::Mean, &c, &mut pool);
        assert_eq!(m.slice::<f64>(), &[3.0, 4.0]);
    }

    #[test]
    fn row_min_max_keep_input_dtype() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<i32>(2, 3, &[5, -1, 2, 8, -3, 0]);
        let mn = agg_row(SimdLevel::Scalar, AggOp::Min, &c, &mut pool);
        assert_eq!(mn.dtype(), DType::I32);
        assert_eq!(mn.slice::<i32>(), &[-3, -1]);
        let mx = agg_row(SimdLevel::Scalar, AggOp::Max, &c, &mut pool);
        assert_eq!(mx.slice::<i32>(), &[5, 8]);
    }

    #[test]
    fn which_min_per_row() {
        let mut pool = BufPool::new();
        // rows: [3,1,2] and [0,5,-2]
        let c = Chunk::from_slice::<f64>(2, 3, &[3.0, 0.0, 1.0, 5.0, 2.0, -2.0]);
        let w = agg_row(SimdLevel::Scalar, AggOp::WhichMin, &c, &mut pool);
        assert_eq!(w.dtype(), DType::I64);
        assert_eq!(w.slice::<i64>(), &[1, 2]);
        let w = agg_row(SimdLevel::Scalar, AggOp::WhichMax, &c, &mut pool);
        assert_eq!(w.slice::<i64>(), &[0, 1]);
    }

    #[test]
    fn which_min_ties_pick_first() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(1, 3, &[1.0, 1.0, 1.0]);
        let w = agg_row(SimdLevel::Scalar, AggOp::WhichMin, &c, &mut pool);
        assert_eq!(w.slice::<i64>(), &[0]);
    }

    #[test]
    fn any_all_count() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<u8>(2, 2, &[0, 1, 0, 1]);
        assert_eq!(agg_row(SimdLevel::Scalar, AggOp::Any, &c, &mut pool).slice::<u8>(), &[0, 1]);
        assert_eq!(agg_row(SimdLevel::Scalar, AggOp::All, &c, &mut pool).slice::<u8>(), &[0, 1]);
        assert_eq!(agg_row(SimdLevel::Scalar, AggOp::Count, &c, &mut pool).slice::<i64>(), &[2, 2]);
    }

    #[test]
    fn sum_widens_integers() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<u8>(1, 3, &[200, 200, 200]);
        let s = agg_row(SimdLevel::Scalar, AggOp::Sum, &c, &mut pool);
        assert_eq!(s.dtype(), DType::I64);
        assert_eq!(s.slice::<i64>(), &[600]);
    }

    /// The per-row fold `agg_row` must reproduce bit for bit: each row
    /// from the identity over its columns in ascending order, in `f64`;
    /// `which.*` moving only on a strictly better value.
    fn textbook(op: AggOp, x: &Chunk) -> Chunk {
        let (rows, cols) = (x.rows(), x.cols());
        let out_dtype = op.out_dtype(x.dtype());
        let mut out = Chunk::zeroed(out_dtype, rows, 1);
        crate::dispatch!(x.dtype(), T, {
            for r in 0..rows {
                let row = (0..cols).map(|c| x.col::<T>(c)[r]);
                let v = match op {
                    AggOp::Count => cols as f64,
                    AggOp::WhichMin | AggOp::WhichMax => {
                        let min = op == AggOp::WhichMin;
                        let start = if min {
                            <T as Element>::max_value()
                        } else {
                            <T as Element>::min_value()
                        };
                        let pick = |(at, b): (usize, T), (c, v): (usize, T)| {
                            if (min && v < b) || (!min && v > b) {
                                (c, v)
                            } else {
                                (at, b)
                            }
                        };
                        row.enumerate().fold((0, start), pick).0 as f64
                    }
                    AggOp::Mean => {
                        row.fold(op.identity(), |a, v| op.fold(a, v.to_f64())) / cols as f64
                    }
                    _ => row.fold(op.identity(), |a, v| op.fold(a, v.to_f64())),
                };
                crate::dispatch!(out_dtype, O, { out.slice_mut::<O>()[r] = O::from_f64(v) });
            }
        });
        out
    }

    #[test]
    fn every_op_and_dtype_is_the_textbook_fold_at_every_level() {
        let ops = AggOp::ALL;
        let special = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0];
        let mut rng = flashr_testkit::Rng::new(0xa66);
        let mut pool = BufPool::new();
        for rows in [0usize, 1, 7, 8, 9, 33, 436] {
            for cols in [0usize, 1, 2, 5, 10] {
                let vals: Vec<f64> = (0..rows * cols)
                    .map(|i| if i % 5 == 0 { special[i / 5 % 7] } else { rng.f64(-9.0..9.0) })
                    .collect();
                for dtype in [DType::U8, DType::I32, DType::I64, DType::F32, DType::F64] {
                    crate::dispatch!(dtype, T, {
                        let v: Vec<T> = vals.iter().map(|&x| T::from_f64(x * 20.0)).collect();
                        let x = Chunk::from_slice::<T>(rows, cols, &v);
                        for op in ops {
                            let want = textbook(op, &x);
                            for level in SimdLevel::available() {
                                let got = agg_row(level, op, &x, &mut pool);
                                assert!(
                                    got.dtype() == want.dtype()
                                        && got.as_bytes() == want.as_bytes(),
                                    "{op:?} over {rows} x {cols} {dtype:?} at {}",
                                    level.name()
                                );
                            }
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn identities_and_combine() {
        assert_eq!(AggOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(AggOp::Prod.combine(2.0, 3.0), 6.0);
        assert_eq!(AggOp::Min.combine(2.0, 3.0), 2.0);
        assert_eq!(AggOp::Max.identity(), f64::NEG_INFINITY);
        assert_eq!(AggOp::All.combine(1.0, 0.0), 0.0);
        assert_eq!(AggOp::Any.combine(0.0, 1.0), 1.0);
    }
}
