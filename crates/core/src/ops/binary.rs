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

use crate::dtype::DType;
use crate::element::Element;
use crate::ops::simd::{pick, versioned, SimdLevel};

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
    pub const ALL: [BinaryOp; 17] = [
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

/// One column's worth of right-hand operand, resolved to either a
/// slice (chunk operand) or a per-column constant (scalar / row vector).
pub(crate) enum ColSrc<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

/// One whole arithmetic column, monomorphized over `(OP, T)`: the
/// `BinaryOp::from_u8` match constant-folds under the const generic, so
/// the `for` loops contain zero enum dispatch. The `swapped` branch is
/// resolved once per column, outside the element loop. Inlined into the
/// monomorphic shim that names `OP` (and into its AVX2 compilation), or
/// the match would run per element.
#[inline(always)]
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
#[inline(always)]
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

pub(crate) type ArithColFn<T> = fn(&mut [T], &[T], ColSrc<'_, T>, bool);

/// [`arith_col`] as compiled for AVX2 (`VEX`) or for the baseline.
pub(crate) fn arith_col_at<T: Element, const OP: u8, const VEX: bool>(
    dst: &mut [T],
    a: &[T],
    b: ColSrc<'_, T>,
    swapped: bool,
) {
    versioned::<VEX, _>(
        #[inline(always)]
        || arith_col::<T, OP>(dst, a, b, swapped),
    );
}

/// Resolve an arithmetic op to its monomorphized column kernel once, so
/// callers dispatch per column instead of per element; the AVX2
/// compilation is handed out only when `level` runs it on this host.
pub(crate) fn arith_col_fn_level<T: Element>(op: BinaryOp, level: SimdLevel) -> ArithColFn<T> {
    let vex = level.vex();
    macro_rules! arm {
        ($v:ident) => {
            pick!(vex, arith_col_at::<T, { BinaryOp::$v as u8 }>)
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
        _ => unreachable!("predicates have no arithmetic column kernel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::dtype::Scalar;
    use crate::ops::fused_map::one_link::{binary, Rhs};

    fn c_f64(rows: usize, cols: usize, vals: &[f64]) -> Chunk {
        Chunk::from_slice::<f64>(rows, cols, vals)
    }

    #[test]
    fn same_shape_arithmetic() {
        let a = c_f64(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = c_f64(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let s = binary(BinaryOp::Add, &a, Rhs::Chunk(&b), false);
        assert_eq!(s.slice::<f64>(), &[11.0, 22.0, 33.0, 44.0]);
        let d = binary(BinaryOp::Sub, &a, Rhs::Chunk(&b), true);
        assert_eq!(d.slice::<f64>(), &[9.0, 18.0, 27.0, 36.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = c_f64(3, 1, &[1.0, 2.0, 3.0]);
        let m = binary(BinaryOp::Mul, &a, Rhs::Scalar(Scalar::F64(2.0)), false);
        assert_eq!(m.slice::<f64>(), &[2.0, 4.0, 6.0]);
        // swapped: 10 / a
        let q = binary(BinaryOp::Div, &a, Rhs::Scalar(Scalar::F64(6.0)), true);
        assert_eq!(q.slice::<f64>(), &[6.0, 3.0, 2.0]);
    }

    #[test]
    fn column_recycling() {
        let a = c_f64(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = c_f64(2, 1, &[10.0, 100.0]);
        let s = binary(BinaryOp::Add, &a, Rhs::Chunk(&y), false);
        assert_eq!(s.slice::<f64>(), &[11.0, 102.0, 13.0, 104.0, 15.0, 106.0]);
    }

    #[test]
    fn row_vector_sweep() {
        let a = c_f64(2, 2, &[2.0, 4.0, 9.0, 12.0]);
        let stats = [2.0, 3.0];
        let s = binary(BinaryOp::Div, &a, Rhs::RowVec(&stats), false);
        assert_eq!(s.slice::<f64>(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn predicates_output_u8() {
        let a = Chunk::from_slice::<i64>(3, 1, &[1, 5, 3]);
        let b = Chunk::from_slice::<i64>(3, 1, &[2, 5, 1]);
        let lt = binary(BinaryOp::Lt, &a, Rhs::Chunk(&b), false);
        assert_eq!(lt.dtype(), DType::U8);
        assert_eq!(lt.slice::<u8>(), &[1, 0, 0]);
        let eq = binary(BinaryOp::Eq, &a, Rhs::Chunk(&b), false);
        assert_eq!(eq.slice::<u8>(), &[0, 1, 0]);
    }

    #[test]
    fn logical_ops_on_nonzero_semantics() {
        let a = Chunk::from_slice::<u8>(4, 1, &[0, 1, 0, 1]);
        let b = Chunk::from_slice::<u8>(4, 1, &[0, 0, 1, 1]);
        let and = binary(BinaryOp::And, &a, Rhs::Chunk(&b), false);
        assert_eq!(and.slice::<u8>(), &[0, 0, 0, 1]);
        let or = binary(BinaryOp::Or, &a, Rhs::Chunk(&b), false);
        assert_eq!(or.slice::<u8>(), &[0, 1, 1, 1]);
    }

    #[test]
    fn euclid_sq() {
        let a = c_f64(2, 1, &[3.0, -1.0]);
        let e = binary(BinaryOp::EuclidSq, &a, Rhs::Scalar(Scalar::F64(1.0)), false);
        assert_eq!(e.slice::<f64>(), &[4.0, 4.0]);
    }

    #[test]
    fn min_max_pmin_pmax() {
        let a = c_f64(3, 1, &[1.0, 5.0, 3.0]);
        let b = c_f64(3, 1, &[2.0, 4.0, 3.0]);
        let mn = binary(BinaryOp::Min, &a, Rhs::Chunk(&b), false);
        assert_eq!(mn.slice::<f64>(), &[1.0, 4.0, 3.0]);
        let mx = binary(BinaryOp::Max, &a, Rhs::Chunk(&b), false);
        assert_eq!(mx.slice::<f64>(), &[2.0, 5.0, 3.0]);
    }

    #[test]
    fn integer_pow_and_rem() {
        let a = Chunk::from_slice::<i32>(3, 1, &[2, 3, 7]);
        let p = binary(BinaryOp::Pow, &a, Rhs::Scalar(Scalar::I32(2)), false);
        assert_eq!(p.slice::<i32>(), &[4, 9, 49]);
        let r = binary(BinaryOp::Rem, &a, Rhs::Scalar(Scalar::I32(3)), false);
        assert_eq!(r.slice::<i32>(), &[2, 0, 1]);
    }
}
