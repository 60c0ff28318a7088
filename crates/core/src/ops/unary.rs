//! Element-wise unary operations (`sapply` GenOp).

use crate::dtype::DType;
use crate::element::Element;
use flashr_linalg::math;

/// Predefined unary element functions (the paper predefines all GenOp
/// input functions; user closures never cross the engine boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Ln,
    Log2,
    Log10,
    Log1p,
    Floor,
    Ceil,
    Round,
    Sign,
    Recip,
    Square,
    /// `1 / (1 + e^-x)` — predefined because logistic-style models use it
    /// in every iteration.
    Sigmoid,
    /// Logical not: `x == 0`.
    Not,
}

impl UnaryOp {
    /// Every variant in declaration (discriminant) order; keeps
    /// `UnaryOp::from_u8` in sync with `as u8` casts.
    pub const ALL: [UnaryOp; 16] = [
        UnaryOp::Neg,
        UnaryOp::Abs,
        UnaryOp::Sqrt,
        UnaryOp::Exp,
        UnaryOp::Ln,
        UnaryOp::Log2,
        UnaryOp::Log10,
        UnaryOp::Log1p,
        UnaryOp::Floor,
        UnaryOp::Ceil,
        UnaryOp::Round,
        UnaryOp::Sign,
        UnaryOp::Recip,
        UnaryOp::Square,
        UnaryOp::Sigmoid,
        UnaryOp::Not,
    ];

    /// Inverse of `op as u8`; constant-folds when `v` is a const generic
    /// (the fused map kernels monomorphize their strip loops over it).
    #[inline(always)]
    pub(crate) fn from_u8(v: u8) -> UnaryOp {
        UnaryOp::ALL[v as usize]
    }

    /// Whether the mathematical definition requires float input; the FM
    /// layer casts integer inputs to `f64` first (R promotion).
    pub fn needs_float(self) -> bool {
        matches!(
            self,
            UnaryOp::Sqrt
                | UnaryOp::Exp
                | UnaryOp::Ln
                | UnaryOp::Log2
                | UnaryOp::Log10
                | UnaryOp::Log1p
                | UnaryOp::Recip
                | UnaryOp::Sigmoid
        )
    }

    /// Output dtype for a given input dtype.
    pub fn out_dtype(self, input: DType) -> DType {
        match self {
            UnaryOp::Not => DType::U8,
            _ => input,
        }
    }

    /// The op on one `f64`: the one definition behind every map kernel
    /// and every scalar the R front-end evaluates. `exp`, `ln`, `log1p`
    /// and `sigmoid` go through [`flashr_linalg::math`], so their bits do
    /// not depend on the host's libm.
    #[inline(always)]
    pub fn eval_f64(self, x: f64) -> f64 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Abs => x.abs(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Exp => math::exp(x),
            UnaryOp::Ln => math::ln(x),
            UnaryOp::Log2 => x.log2(),
            UnaryOp::Log10 => x.log10(),
            UnaryOp::Log1p => math::ln_1p(x),
            UnaryOp::Floor => x.floor(),
            UnaryOp::Ceil => x.ceil(),
            // Half to even, as R rounds.
            UnaryOp::Round => x.round_ties_even(),
            UnaryOp::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Square => x * x,
            UnaryOp::Sigmoid => 1.0 / (1.0 + math::exp(-x)),
            UnaryOp::Not => f64::from(u8::from(x == 0.0)),
        }
    }
}

/// One strip of a unary op. Inlined into the monomorphic step that names
/// `op` as a const (and into its AVX2 compilation): out of line, `op` is
/// a run-time argument and `eval_f64` dispatches per element.
#[inline(always)]
pub(crate) fn unary_typed<T: Element>(op: UnaryOp, src: &[T], dst: &mut [T]) {
    match op {
        // Ops with exact native implementations stay in T.
        UnaryOp::Neg => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.neg();
            }
        }
        UnaryOp::Abs => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.abs();
            }
        }
        UnaryOp::Square => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.mul(*s);
            }
        }
        // Everything else evaluates through f64 (exact for float chunks,
        // R-promoted semantics for integer chunks).
        _ => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = T::from_f64(op.eval_f64(s.to_f64()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::ops::fused_map::one_link::unary;

    fn chunk_f64(vals: &[f64]) -> Chunk {
        Chunk::from_slice::<f64>(vals.len(), 1, vals)
    }

    #[test]
    fn float_ops() {
        let c = chunk_f64(&[4.0, 9.0, 0.25]);
        let s = unary(UnaryOp::Sqrt, &c);
        assert_eq!(s.slice::<f64>(), &[2.0, 3.0, 0.5]);

        let e = unary(UnaryOp::Exp, &chunk_f64(&[0.0, 1.0]));
        assert!((e.get_f64(1, 0) - std::f64::consts::E).abs() < 1e-15);

        let sig = unary(UnaryOp::Sigmoid, &chunk_f64(&[0.0]));
        assert_eq!(sig.get_f64(0, 0), 0.5);
    }

    #[test]
    fn neg_abs_square_native_on_ints() {
        let c = Chunk::from_slice::<i64>(4, 1, &[-3, 0, 5, -7]);
        let n = unary(UnaryOp::Neg, &c);
        assert_eq!(n.slice::<i64>(), &[3, 0, -5, 7]);
        let a = unary(UnaryOp::Abs, &c);
        assert_eq!(a.slice::<i64>(), &[3, 0, 5, 7]);
        let q = unary(UnaryOp::Square, &c);
        assert_eq!(q.slice::<i64>(), &[9, 0, 25, 49]);
    }

    #[test]
    fn sign_and_round_family() {
        let c = chunk_f64(&[-2.7, 0.0, 1.2]);
        assert_eq!(unary(UnaryOp::Sign, &c).slice::<f64>(), &[-1.0, 0.0, 1.0]);
        assert_eq!(unary(UnaryOp::Floor, &c).slice::<f64>(), &[-3.0, 0.0, 1.0]);
        assert_eq!(unary(UnaryOp::Ceil, &c).slice::<f64>(), &[-2.0, 0.0, 2.0]);
        assert_eq!(unary(UnaryOp::Round, &c).slice::<f64>(), &[-3.0, 0.0, 1.0]);
    }

    #[test]
    fn not_outputs_u8() {
        let c = Chunk::from_slice::<i32>(3, 1, &[0, 2, -1]);
        let n = unary(UnaryOp::Not, &c);
        assert_eq!(n.dtype(), DType::U8);
        assert_eq!(n.slice::<u8>(), &[1, 0, 0]);
    }

    #[test]
    fn out_dtype_rules() {
        assert_eq!(UnaryOp::Sqrt.out_dtype(DType::F32), DType::F32);
        assert_eq!(UnaryOp::Not.out_dtype(DType::F64), DType::U8);
        assert!(UnaryOp::Ln.needs_float());
        assert!(!UnaryOp::Neg.needs_float());
    }
}
