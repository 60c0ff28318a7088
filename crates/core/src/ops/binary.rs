//! Element-wise binary operations (`mapply` GenOp) with broadcasting.
//!
//! Broadcast forms mirror what the R overrides need:
//! * chunk ⊕ chunk of the same shape,
//! * chunk ⊕ one-column chunk (the column is recycled across columns —
//!   R's vector recycling for `X * y` with `y` a column),
//! * chunk ⊕ scalar,
//! * chunk ⊕ row vector (R's `sweep(X, 2, stats, op)`).
//!
//! Mixed dtypes never reach these kernels: the FM layer inserts casts so
//! both operands share a dtype.

use crate::chunk::{BufPool, Chunk};
use crate::dtype::{DType, Scalar};
use crate::element::Element;

/// Predefined binary element functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// `(a - b)²` — the `euclidean` function the paper passes to
    /// `inner.prod` for k-means distances.
    EuclidSq,
}

impl BinaryOp {
    /// Every variant in declaration (discriminant) order; keeps
    /// [`BinaryOp::from_u8`] in sync with `as u8` casts.
    pub(crate) const ALL: [BinaryOp; 17] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Rem,
        BinaryOp::Pow,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::EuclidSq,
    ];

    /// Inverse of `op as u8`. Used by the monomorphized column kernels:
    /// with `OP` a const generic, the match below constant-folds and the
    /// inner loops compile down to the bare element function.
    #[inline(always)]
    pub(crate) fn from_u8(v: u8) -> BinaryOp {
        BinaryOp::ALL[v as usize]
    }

    /// Whether the op returns a logical (U8) result.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::And
                | BinaryOp::Or
        )
    }

    /// Output dtype given the (already promoted) operand dtype.
    pub fn out_dtype(self, operand: DType) -> DType {
        if self.is_predicate() {
            DType::U8
        } else {
            operand
        }
    }

    #[inline(always)]
    pub(crate) fn eval<T: Element>(self, a: T, b: T) -> T {
        match self {
            BinaryOp::Add => a.add(b),
            BinaryOp::Sub => a.sub(b),
            BinaryOp::Mul => a.mul(b),
            BinaryOp::Div => a.div(b),
            BinaryOp::Rem => a.rem(b),
            BinaryOp::Pow => a.pow(b),
            BinaryOp::Min => a.minv(b),
            BinaryOp::Max => a.maxv(b),
            BinaryOp::EuclidSq => {
                let d = a.sub(b);
                d.mul(d)
            }
            _ => unreachable!("predicate ops use eval_pred"),
        }
    }

    #[inline(always)]
    pub(crate) fn eval_pred<T: Element>(self, a: T, b: T) -> u8 {
        let t = T::zero();
        match self {
            BinaryOp::Eq => u8::from(a == b),
            BinaryOp::Ne => u8::from(a != b),
            BinaryOp::Lt => u8::from(a < b),
            BinaryOp::Le => u8::from(a <= b),
            BinaryOp::Gt => u8::from(a > b),
            BinaryOp::Ge => u8::from(a >= b),
            BinaryOp::And => u8::from(a != t && b != t),
            BinaryOp::Or => u8::from(a != t || b != t),
            _ => unreachable!("arithmetic ops use eval"),
        }
    }
}

/// The right-hand operand of a broadcasting binary op.
#[derive(Debug, Clone, Copy)]
pub enum BinOperand<'a> {
    /// Another chunk: same shape, or a single column recycled.
    Chunk(&'a Chunk),
    /// A scalar constant.
    Scalar(Scalar),
    /// A per-column constant (length = `a.cols()`).
    RowVec(&'a [f64]),
}

/// One column's worth of right-hand operand, resolved to either a
/// slice (chunk operand) or a per-column constant (scalar / row vector).
pub(crate) enum ColSrc<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

fn col_src<'a, T: Element>(b: &BinOperand<'a>, col: usize, a_rows: usize) -> ColSrc<'a, T> {
    match b {
        BinOperand::Chunk(ch) => {
            assert_eq!(ch.rows(), a_rows, "binary operand row mismatch");
            let c = if ch.cols() == 1 { 0 } else { col };
            ColSrc::Slice(ch.col::<T>(c))
        }
        BinOperand::Scalar(s) => ColSrc::Const(T::from_scalar(*s)),
        BinOperand::RowVec(v) => ColSrc::Const(T::from_f64(v[col])),
    }
}

/// One whole arithmetic column, monomorphized over `(OP, T)`: the
/// `BinaryOp::from_u8` match constant-folds under the const generic, so
/// the `for` loops contain zero enum dispatch. The `swapped` branch is
/// resolved once per column, outside the element loop.
pub(crate) fn arith_col<T: Element, const OP: u8>(
    dst: &mut [T],
    a: &[T],
    b: ColSrc<'_, T>,
    swapped: bool,
) {
    let op = BinaryOp::from_u8(OP);
    match b {
        ColSrc::Slice(bcol) => {
            if swapped {
                for ((d, &av), &bv) in dst.iter_mut().zip(a).zip(bcol) {
                    *d = op.eval(bv, av);
                }
            } else {
                for ((d, &av), &bv) in dst.iter_mut().zip(a).zip(bcol) {
                    *d = op.eval(av, bv);
                }
            }
        }
        ColSrc::Const(bv) => {
            if swapped {
                for (d, &av) in dst.iter_mut().zip(a) {
                    *d = op.eval(bv, av);
                }
            } else {
                for (d, &av) in dst.iter_mut().zip(a) {
                    *d = op.eval(av, bv);
                }
            }
        }
    }
}

/// Predicate twin of [`arith_col`]: writes the logical (U8) column.
pub(crate) fn pred_col<T: Element, const OP: u8>(
    dst: &mut [u8],
    a: &[T],
    b: ColSrc<'_, T>,
    swapped: bool,
) {
    let op = BinaryOp::from_u8(OP);
    match b {
        ColSrc::Slice(bcol) => {
            if swapped {
                for ((d, &av), &bv) in dst.iter_mut().zip(a).zip(bcol) {
                    *d = op.eval_pred(bv, av);
                }
            } else {
                for ((d, &av), &bv) in dst.iter_mut().zip(a).zip(bcol) {
                    *d = op.eval_pred(av, bv);
                }
            }
        }
        ColSrc::Const(bv) => {
            if swapped {
                for (d, &av) in dst.iter_mut().zip(a) {
                    *d = op.eval_pred(bv, av);
                }
            } else {
                for (d, &av) in dst.iter_mut().zip(a) {
                    *d = op.eval_pred(av, bv);
                }
            }
        }
    }
}

/// AVX2 variant-column twin of [`arith_col`]: same signature, same
/// results bit-for-bit (the SIMD layer only implements exactly-rounded
/// ops), but the strip body runs 4/8 elements per instruction.
pub(crate) fn arith_col_simd<T: Element, const OP: u8>(
    dst: &mut [T],
    a: &[T],
    b: ColSrc<'_, T>,
    swapped: bool,
) {
    crate::ops::simd::arith_simd::<T>(BinaryOp::from_u8(OP), dst, a, b, swapped);
}

pub(crate) type ArithColFn<T> = fn(&mut [T], &[T], ColSrc<'_, T>, bool);
pub(crate) type PredColFn<T> = fn(&mut [u8], &[T], ColSrc<'_, T>, bool);

/// Resolve an arithmetic op to its monomorphized column kernel once, so
/// callers dispatch per column (or per strip) instead of per element.
pub(crate) fn arith_col_fn<T: Element>(op: BinaryOp) -> ArithColFn<T> {
    macro_rules! arm {
        ($v:ident) => {
            arith_col::<T, { BinaryOp::$v as u8 }>
        };
    }
    match op {
        BinaryOp::Add => arm!(Add),
        BinaryOp::Sub => arm!(Sub),
        BinaryOp::Mul => arm!(Mul),
        BinaryOp::Div => arm!(Div),
        BinaryOp::Rem => arm!(Rem),
        BinaryOp::Pow => arm!(Pow),
        BinaryOp::Min => arm!(Min),
        BinaryOp::Max => arm!(Max),
        BinaryOp::EuclidSq => arm!(EuclidSq),
        _ => unreachable!("predicate ops use pred_col_fn"),
    }
}

/// [`arith_col_fn`] with the per-ISA variant column: ops whose AVX2
/// kernels exist (and are exactly rounded) resolve to them when `level`
/// allows, everything else falls back to the portable kernel. Resolved
/// once per chunk/strip — the returned pointer is still a bare fn.
pub(crate) fn arith_col_fn_level<T: Element>(
    op: BinaryOp,
    level: crate::ops::simd::SimdLevel,
) -> ArithColFn<T> {
    if level >= crate::ops::simd::SimdLevel::Avx2
        && crate::ops::simd::SimdLevel::avx2_supported()
        && crate::ops::simd::arith_simd_available(op, T::DTYPE)
    {
        macro_rules! arm {
            ($v:ident) => {
                arith_col_simd::<T, { BinaryOp::$v as u8 }>
            };
        }
        return match op {
            BinaryOp::Add => arm!(Add),
            BinaryOp::Sub => arm!(Sub),
            BinaryOp::Mul => arm!(Mul),
            BinaryOp::Div => arm!(Div),
            BinaryOp::EuclidSq => arm!(EuclidSq),
            _ => unreachable!("arith_simd_available admitted {op:?}"),
        };
    }
    arith_col_fn::<T>(op)
}

/// Predicate twin of [`arith_col_fn`].
pub(crate) fn pred_col_fn<T: Element>(op: BinaryOp) -> PredColFn<T> {
    macro_rules! arm {
        ($v:ident) => {
            pred_col::<T, { BinaryOp::$v as u8 }>
        };
    }
    match op {
        BinaryOp::Eq => arm!(Eq),
        BinaryOp::Ne => arm!(Ne),
        BinaryOp::Lt => arm!(Lt),
        BinaryOp::Le => arm!(Le),
        BinaryOp::Gt => arm!(Gt),
        BinaryOp::Ge => arm!(Ge),
        BinaryOp::And => arm!(And),
        BinaryOp::Or => arm!(Or),
        _ => unreachable!("arithmetic ops use arith_col_fn"),
    }
}

/// Apply `op(a, b)` (or `op(b, a)` when `swapped`) over a chunk with
/// broadcasting; returns a fresh chunk.
pub fn apply_binary(
    op: BinaryOp,
    a: &Chunk,
    b: BinOperand<'_>,
    swapped: bool,
    pool: &mut BufPool,
) -> Chunk {
    let rows = a.rows();
    let cols = a.cols();
    if let BinOperand::Chunk(ch) = &b {
        assert!(
            ch.cols() == cols || ch.cols() == 1,
            "binary operand col mismatch: {} vs {}",
            ch.cols(),
            cols
        );
        assert_eq!(ch.dtype(), a.dtype(), "binary operands must share a dtype");
    }
    if let BinOperand::RowVec(v) = &b {
        assert_eq!(v.len(), cols, "row-vector operand length mismatch");
    }

    if op.is_predicate() {
        let mut out = Chunk::alloc(DType::U8, rows, cols, pool);
        crate::dispatch!(a.dtype(), T, {
            let f = pred_col_fn::<T>(op);
            for c in 0..cols {
                let acol = a.col::<T>(c);
                let dst_all = out.slice_mut::<u8>();
                f(&mut dst_all[c * rows..(c + 1) * rows], acol, col_src::<T>(&b, c, rows), swapped);
            }
        });
        return out;
    }

    let mut out = Chunk::alloc(a.dtype(), rows, cols, pool);
    let level = crate::ops::simd::SimdLevel::active();
    crate::dispatch!(a.dtype(), T, {
        let f = arith_col_fn_level::<T>(op, level);
        for c in 0..cols {
            let acol = a.col::<T>(c);
            let dst_all = out.slice_mut::<T>();
            f(&mut dst_all[c * rows..(c + 1) * rows], acol, col_src::<T>(&b, c, rows), swapped);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c_f64(rows: usize, cols: usize, vals: &[f64]) -> Chunk {
        Chunk::from_slice::<f64>(rows, cols, vals)
    }

    #[test]
    fn same_shape_arithmetic() {
        let mut pool = BufPool::new();
        let a = c_f64(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = c_f64(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let s = apply_binary(BinaryOp::Add, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(s.slice::<f64>(), &[11.0, 22.0, 33.0, 44.0]);
        let d = apply_binary(BinaryOp::Sub, &a, BinOperand::Chunk(&b), true, &mut pool);
        assert_eq!(d.slice::<f64>(), &[9.0, 18.0, 27.0, 36.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let mut pool = BufPool::new();
        let a = c_f64(3, 1, &[1.0, 2.0, 3.0]);
        let m =
            apply_binary(BinaryOp::Mul, &a, BinOperand::Scalar(Scalar::F64(2.0)), false, &mut pool);
        assert_eq!(m.slice::<f64>(), &[2.0, 4.0, 6.0]);
        // swapped: 10 / a
        let q =
            apply_binary(BinaryOp::Div, &a, BinOperand::Scalar(Scalar::F64(6.0)), true, &mut pool);
        assert_eq!(q.slice::<f64>(), &[6.0, 3.0, 2.0]);
    }

    #[test]
    fn column_recycling() {
        let mut pool = BufPool::new();
        let a = c_f64(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = c_f64(2, 1, &[10.0, 100.0]);
        let s = apply_binary(BinaryOp::Add, &a, BinOperand::Chunk(&y), false, &mut pool);
        assert_eq!(s.slice::<f64>(), &[11.0, 102.0, 13.0, 104.0, 15.0, 106.0]);
    }

    #[test]
    fn row_vector_sweep() {
        let mut pool = BufPool::new();
        let a = c_f64(2, 2, &[2.0, 4.0, 9.0, 12.0]);
        let stats = [2.0, 3.0];
        let s = apply_binary(BinaryOp::Div, &a, BinOperand::RowVec(&stats), false, &mut pool);
        assert_eq!(s.slice::<f64>(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn predicates_output_u8() {
        let mut pool = BufPool::new();
        let a = Chunk::from_slice::<i64>(3, 1, &[1, 5, 3]);
        let b = Chunk::from_slice::<i64>(3, 1, &[2, 5, 1]);
        let lt = apply_binary(BinaryOp::Lt, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(lt.dtype(), DType::U8);
        assert_eq!(lt.slice::<u8>(), &[1, 0, 0]);
        let eq = apply_binary(BinaryOp::Eq, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(eq.slice::<u8>(), &[0, 1, 0]);
    }

    #[test]
    fn logical_ops_on_nonzero_semantics() {
        let mut pool = BufPool::new();
        let a = Chunk::from_slice::<u8>(4, 1, &[0, 1, 0, 1]);
        let b = Chunk::from_slice::<u8>(4, 1, &[0, 0, 1, 1]);
        let and = apply_binary(BinaryOp::And, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(and.slice::<u8>(), &[0, 0, 0, 1]);
        let or = apply_binary(BinaryOp::Or, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(or.slice::<u8>(), &[0, 1, 1, 1]);
    }

    #[test]
    fn euclid_sq() {
        let mut pool = BufPool::new();
        let a = c_f64(2, 1, &[3.0, -1.0]);
        let e = apply_binary(
            BinaryOp::EuclidSq,
            &a,
            BinOperand::Scalar(Scalar::F64(1.0)),
            false,
            &mut pool,
        );
        assert_eq!(e.slice::<f64>(), &[4.0, 4.0]);
    }

    #[test]
    fn min_max_pmin_pmax() {
        let mut pool = BufPool::new();
        let a = c_f64(3, 1, &[1.0, 5.0, 3.0]);
        let b = c_f64(3, 1, &[2.0, 4.0, 3.0]);
        let mn = apply_binary(BinaryOp::Min, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(mn.slice::<f64>(), &[1.0, 4.0, 3.0]);
        let mx = apply_binary(BinaryOp::Max, &a, BinOperand::Chunk(&b), false, &mut pool);
        assert_eq!(mx.slice::<f64>(), &[2.0, 5.0, 3.0]);
    }

    #[test]
    fn integer_pow_and_rem() {
        let mut pool = BufPool::new();
        let a = Chunk::from_slice::<i32>(3, 1, &[2, 3, 7]);
        let p =
            apply_binary(BinaryOp::Pow, &a, BinOperand::Scalar(Scalar::I32(2)), false, &mut pool);
        assert_eq!(p.slice::<i32>(), &[4, 9, 49]);
        let r =
            apply_binary(BinaryOp::Rem, &a, BinOperand::Scalar(Scalar::I32(3)), false, &mut pool);
        assert_eq!(r.slice::<i32>(), &[2, 0, 1]);
    }
}
