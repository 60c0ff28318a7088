//! SIMD kernel layer for the element-wise and reduction micro-ops.
//!
//! The dispatch model mirrors PR 4's monomorphization discipline: every
//! `(op, dtype)` pair resolves to a bare function pointer **once at
//! kernel-compile time**, and this module adds a per-ISA *variant column*
//! to that resolution. The [`SimdLevel`] (re-exported from
//! `flashr_linalg::simd`, where the env parsing and CPUID detection
//! live) selects which column the resolvers hand out:
//!
//! * `Off` — the historic serial loops, bit-for-bit the pre-SIMD engine.
//! * `Scalar` — portable fixed-width lane kernels written to
//!   autovectorize. Element-wise results are bit-identical to `Off`;
//!   reductions reassociate into eight `f64` lane partials (two blocks
//!   of four, matching the AVX2 kernels' two-accumulator layout).
//! * `Avx2` — explicit `std::arch` AVX2 kernels behind
//!   `is_x86_feature_detected!`, used **only** for operations whose
//!   vector instructions are exactly rounded (add/sub/mul/div/sqrt,
//!   sign-bit ops, floor/ceil), so element-wise AVX2 results are
//!   bit-identical to the scalar loops by construction — the kernel-vs-
//!   oracle bit-identity tests hold at every level. `f32` sqrt and
//!   reciprocal match the engine's promote-to-`f64` scalar path by the
//!   2p+2 double-rounding theorem (53 ≥ 2·24+2). Sum reductions use the
//!   same lane association as `Scalar` (bit-identical Scalar↔Avx2;
//!   `Off`↔`Scalar` differs by reassociation within an n·ε bound).
//!
//! Operations whose vector forms are *not* exactly rounded (`Round`,
//! transcendentals, `Pow`, `Sign`, predicates, casts, `min`/`max` — the
//! legacy `vminpd` NaN asymmetry) never get an AVX2 column; they run the
//! portable loops at every level, so enabling SIMD cannot change them.

use crate::dtype::DType;
use crate::element::Element;
use crate::ops::agg::AggOp;
use crate::ops::binary::{BinaryOp, ColSrc};
use crate::ops::unary::UnaryOp;

pub use flashr_linalg::simd::SimdLevel;

// ------------------------------------------------------------ availability

/// Whether `(op, dtype)` has an exact AVX2 element-wise unary kernel.
pub(crate) fn unary_simd_available(op: UnaryOp, dtype: DType) -> bool {
    cfg!(any(target_arch = "x86", target_arch = "x86_64"))
        && matches!(dtype, DType::F64 | DType::F32)
        && matches!(
            op,
            UnaryOp::Neg
                | UnaryOp::Abs
                | UnaryOp::Square
                | UnaryOp::Sqrt
                | UnaryOp::Recip
                | UnaryOp::Floor
                | UnaryOp::Ceil
        )
}

/// Whether `(op, dtype)` has an exact AVX2 element-wise binary kernel.
pub(crate) fn arith_simd_available(op: BinaryOp, dtype: DType) -> bool {
    cfg!(any(target_arch = "x86", target_arch = "x86_64"))
        && matches!(dtype, DType::F64 | DType::F32)
        && matches!(
            op,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::EuclidSq
        )
}

/// Whether `(op, dtype)` folds through the lane-partial reduction kernels
/// at `Scalar` and above.
pub(crate) fn fold_simd_available(op: AggOp, dtype: DType) -> bool {
    matches!(dtype, DType::F64 | DType::F32)
        && matches!(op, AggOp::Sum | AggOp::Mean | AggOp::Min | AggOp::Max)
}

// ----------------------------------------------------- slice reinterpret

/// View a `&[T]` whose `T::DTYPE` is statically matched as its concrete
/// float type. Sound because the caller only reaches these after a
/// `T::DTYPE` match, which pins `T` to exactly that type.
#[inline(always)]
fn as_typed<T: Element, U: Element>(s: &[T]) -> &[U] {
    debug_assert_eq!(T::DTYPE, U::DTYPE);
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const U, s.len()) }
}

#[inline(always)]
fn as_typed_mut<T: Element, U: Element>(s: &mut [T]) -> &mut [U] {
    debug_assert_eq!(T::DTYPE, U::DTYPE);
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut U, s.len()) }
}

// -------------------------------------------------------------- unary

/// Apply an AVX2 unary kernel. Callers must have checked
/// [`unary_simd_available`] and that the AVX2 level is supported; the
/// resolvers in `unary.rs`/`fused_map.rs` only select this path then.
#[inline]
pub(crate) fn unary_simd<T: Element>(op: UnaryOp, src: &[T], dst: &mut [T]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        debug_assert!(SimdLevel::avx2_supported());
        match T::DTYPE {
            DType::F64 => {
                let (s, d) = (as_typed::<T, f64>(src), as_typed_mut::<T, f64>(dst));
                unsafe {
                    match op {
                        UnaryOp::Neg => x86::un_f64_neg(s, d),
                        UnaryOp::Abs => x86::un_f64_abs(s, d),
                        UnaryOp::Square => x86::un_f64_square(s, d),
                        UnaryOp::Sqrt => x86::un_f64_sqrt(s, d),
                        UnaryOp::Recip => x86::un_f64_recip(s, d),
                        UnaryOp::Floor => x86::un_f64_floor(s, d),
                        UnaryOp::Ceil => x86::un_f64_ceil(s, d),
                        _ => unreachable!("no AVX2 unary kernel for {op:?}"),
                    }
                }
            }
            DType::F32 => {
                let (s, d) = (as_typed::<T, f32>(src), as_typed_mut::<T, f32>(dst));
                unsafe {
                    match op {
                        UnaryOp::Neg => x86::un_f32_neg(s, d),
                        UnaryOp::Abs => x86::un_f32_abs(s, d),
                        UnaryOp::Square => x86::un_f32_square(s, d),
                        UnaryOp::Sqrt => x86::un_f32_sqrt(s, d),
                        UnaryOp::Recip => x86::un_f32_recip(s, d),
                        UnaryOp::Floor => x86::un_f32_floor(s, d),
                        UnaryOp::Ceil => x86::un_f32_ceil(s, d),
                        _ => unreachable!("no AVX2 unary kernel for {op:?}"),
                    }
                }
            }
            _ => unreachable!("no AVX2 unary kernels for {:?}", T::DTYPE),
        }
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        let _ = (op, src, dst);
        unreachable!("AVX2 kernels unavailable on this architecture");
    }
}

// -------------------------------------------------------------- binary

/// Apply an AVX2 binary-arithmetic kernel with the portable column
/// kernel's operand semantics (`swapped` puts the column on the right-hand side).
#[inline]
pub(crate) fn arith_simd<T: Element>(
    op: BinaryOp,
    dst: &mut [T],
    a: &[T],
    b: ColSrc<'_, T>,
    swapped: bool,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        debug_assert!(SimdLevel::avx2_supported());
        match T::DTYPE {
            DType::F64 => {
                let d = as_typed_mut::<T, f64>(dst);
                let a = as_typed::<T, f64>(a);
                match b {
                    ColSrc::Slice(bs) => {
                        let bs = as_typed::<T, f64>(bs);
                        let (x, y) = if swapped { (bs, a) } else { (a, bs) };
                        unsafe {
                            match op {
                                BinaryOp::Add => x86::bin_f64_add_ss(d, x, y),
                                BinaryOp::Sub => x86::bin_f64_sub_ss(d, x, y),
                                BinaryOp::Mul => x86::bin_f64_mul_ss(d, x, y),
                                BinaryOp::Div => x86::bin_f64_div_ss(d, x, y),
                                BinaryOp::EuclidSq => x86::bin_f64_euclid_ss(d, x, y),
                                _ => unreachable!("no AVX2 binary kernel for {op:?}"),
                            }
                        }
                    }
                    ColSrc::Const(c) => {
                        let c = c.to_f64();
                        unsafe {
                            match (op, swapped) {
                                (BinaryOp::Add, false) => x86::bin_f64_add_sc(d, a, c),
                                (BinaryOp::Add, true) => x86::bin_f64_add_cs(d, c, a),
                                (BinaryOp::Sub, false) => x86::bin_f64_sub_sc(d, a, c),
                                (BinaryOp::Sub, true) => x86::bin_f64_sub_cs(d, c, a),
                                (BinaryOp::Mul, false) => x86::bin_f64_mul_sc(d, a, c),
                                (BinaryOp::Mul, true) => x86::bin_f64_mul_cs(d, c, a),
                                (BinaryOp::Div, false) => x86::bin_f64_div_sc(d, a, c),
                                (BinaryOp::Div, true) => x86::bin_f64_div_cs(d, c, a),
                                (BinaryOp::EuclidSq, false) => x86::bin_f64_euclid_sc(d, a, c),
                                (BinaryOp::EuclidSq, true) => x86::bin_f64_euclid_cs(d, c, a),
                                _ => unreachable!("no AVX2 binary kernel for {op:?}"),
                            }
                        }
                    }
                }
            }
            DType::F32 => {
                let d = as_typed_mut::<T, f32>(dst);
                let a = as_typed::<T, f32>(a);
                match b {
                    ColSrc::Slice(bs) => {
                        let bs = as_typed::<T, f32>(bs);
                        let (x, y) = if swapped { (bs, a) } else { (a, bs) };
                        unsafe {
                            match op {
                                BinaryOp::Add => x86::bin_f32_add_ss(d, x, y),
                                BinaryOp::Sub => x86::bin_f32_sub_ss(d, x, y),
                                BinaryOp::Mul => x86::bin_f32_mul_ss(d, x, y),
                                BinaryOp::Div => x86::bin_f32_div_ss(d, x, y),
                                BinaryOp::EuclidSq => x86::bin_f32_euclid_ss(d, x, y),
                                _ => unreachable!("no AVX2 binary kernel for {op:?}"),
                            }
                        }
                    }
                    ColSrc::Const(c) => {
                        let c = c.to_f64() as f32;
                        unsafe {
                            match (op, swapped) {
                                (BinaryOp::Add, false) => x86::bin_f32_add_sc(d, a, c),
                                (BinaryOp::Add, true) => x86::bin_f32_add_cs(d, c, a),
                                (BinaryOp::Sub, false) => x86::bin_f32_sub_sc(d, a, c),
                                (BinaryOp::Sub, true) => x86::bin_f32_sub_cs(d, c, a),
                                (BinaryOp::Mul, false) => x86::bin_f32_mul_sc(d, a, c),
                                (BinaryOp::Mul, true) => x86::bin_f32_mul_cs(d, c, a),
                                (BinaryOp::Div, false) => x86::bin_f32_div_sc(d, a, c),
                                (BinaryOp::Div, true) => x86::bin_f32_div_cs(d, c, a),
                                (BinaryOp::EuclidSq, false) => x86::bin_f32_euclid_sc(d, a, c),
                                (BinaryOp::EuclidSq, true) => x86::bin_f32_euclid_cs(d, c, a),
                                _ => unreachable!("no AVX2 binary kernel for {op:?}"),
                            }
                        }
                    }
                }
            }
            _ => unreachable!("no AVX2 binary kernels for {:?}", T::DTYPE),
        }
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        let _ = (op, dst, a, b, swapped);
        unreachable!("AVX2 kernels unavailable on this architecture");
    }
}

// ---------------------------------------------------------- reductions

/// Fold one column into an `f64` accumulator at the given dispatch level.
///
/// `Off` is the historic strictly-serial fold. `Scalar` and `Avx2` use
/// eight `f64` lane partials for `Sum`/`Mean` — laid out as two blocks of
/// four so the scalar kernel's association is *identical* to the AVX2
/// kernel's two-`ymm`-accumulator association (Scalar↔Avx2 bit-identical;
/// either differs from `Off` only by reassociation). `Min`/`Max` use the
/// portable lane kernel at both SIMD levels: `f64::min`'s NaN-skipping
/// semantics differ from `vminpd`, and min/max are associative, so the
/// portable kernel is exact at every level. Everything else stays serial.
pub fn fold_col<T: Element>(level: SimdLevel, op: AggOp, acc: f64, col: &[T]) -> f64 {
    if level >= SimdLevel::Scalar && fold_simd_available(op, T::DTYPE) {
        match op {
            AggOp::Sum | AggOp::Mean => {
                let total = match T::DTYPE {
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    DType::F64 if level >= SimdLevel::Avx2 => unsafe {
                        x86::sum_f64(as_typed::<T, f64>(col))
                    },
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    DType::F32 if level >= SimdLevel::Avx2 => unsafe {
                        x86::sum_f32(as_typed::<T, f32>(col))
                    },
                    _ => sum_lanes(col),
                };
                return acc + total;
            }
            AggOp::Min => return minmax_lanes::<T, true>(acc, col),
            AggOp::Max => return minmax_lanes::<T, false>(acc, col),
            _ => {}
        }
    }
    let mut a = acc;
    for v in col {
        a = op.fold(a, v.to_f64());
    }
    a
}

/// Portable eight-lane sum. The lane layout (two blocks of four) and the
/// fixed sequential horizontal fold mirror [`x86::sum_f64`] exactly.
fn sum_lanes<T: Element>(col: &[T]) -> f64 {
    let n = col.len();
    let mut lanes = [0.0f64; 8];
    let mut i = 0;
    while i + 8 <= n {
        for (j, l) in lanes.iter_mut().enumerate() {
            *l += col[i + j].to_f64();
        }
        i += 8;
    }
    let mut total = 0.0;
    for l in lanes {
        total += l;
    }
    while i < n {
        total += col[i].to_f64();
        i += 1;
    }
    total
}

/// Portable eight-lane min/max fold; exact (and therefore level-
/// independent) because min/max never round.
fn minmax_lanes<T: Element, const MIN: bool>(acc: f64, col: &[T]) -> f64 {
    let ident = if MIN { f64::INFINITY } else { f64::NEG_INFINITY };
    let pick = |a: f64, b: f64| if MIN { a.min(b) } else { a.max(b) };
    let n = col.len();
    let mut lanes = [ident; 8];
    let mut i = 0;
    while i + 8 <= n {
        for (j, l) in lanes.iter_mut().enumerate() {
            *l = pick(*l, col[i + j].to_f64());
        }
        i += 8;
    }
    let mut total = ident;
    for l in lanes {
        total = pick(total, l);
    }
    while i < n {
        total = pick(total, col[i].to_f64());
        i += 1;
    }
    pick(acc, total)
}

// -------------------------------------------------------- AVX2 kernels

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    // The macros expand the vector expression and the scalar-tail
    // expression inline, so the generated functions contain no closures
    // and no per-element dispatch. Scalar tails reproduce the engine's
    // reference element functions exactly (including the f32 ops that
    // route through f64 — equal to the vector result by 2p+2).

    macro_rules! un_f64 {
        ($name:ident, |$v:ident| $vec:expr, |$x:ident| $scl:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(src: &[f64], dst: &mut [f64]) {
                let n = src.len().min(dst.len());
                let mut i = 0;
                while i + 4 <= n {
                    let $v = _mm256_loadu_pd(src.as_ptr().add(i));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(i), $vec);
                    i += 4;
                }
                while i < n {
                    let $x = *src.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
        };
    }

    un_f64!(un_f64_neg, |v| _mm256_xor_pd(v, _mm256_set1_pd(-0.0)), |x| -x);
    un_f64!(un_f64_abs, |v| _mm256_andnot_pd(_mm256_set1_pd(-0.0), v), |x| x.abs());
    un_f64!(un_f64_square, |v| _mm256_mul_pd(v, v), |x| x * x);
    un_f64!(un_f64_sqrt, |v| _mm256_sqrt_pd(v), |x| x.sqrt());
    un_f64!(un_f64_recip, |v| _mm256_div_pd(_mm256_set1_pd(1.0), v), |x| 1.0 / x);
    un_f64!(un_f64_floor, |v| _mm256_floor_pd(v), |x| x.floor());
    un_f64!(un_f64_ceil, |v| _mm256_ceil_pd(v), |x| x.ceil());

    macro_rules! un_f32 {
        ($name:ident, |$v:ident| $vec:expr, |$x:ident| $scl:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(src: &[f32], dst: &mut [f32]) {
                let n = src.len().min(dst.len());
                let mut i = 0;
                while i + 8 <= n {
                    let $v = _mm256_loadu_ps(src.as_ptr().add(i));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vec);
                    i += 8;
                }
                while i < n {
                    let $x = *src.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
        };
    }

    un_f32!(un_f32_neg, |v| _mm256_xor_ps(v, _mm256_set1_ps(-0.0)), |x| -x);
    un_f32!(un_f32_abs, |v| _mm256_andnot_ps(_mm256_set1_ps(-0.0), v), |x| x.abs());
    un_f32!(un_f32_square, |v| _mm256_mul_ps(v, v), |x| x * x);
    un_f32!(un_f32_sqrt, |v| _mm256_sqrt_ps(v), |x| ((x as f64).sqrt()) as f32);
    un_f32!(un_f32_recip, |v| _mm256_div_ps(_mm256_set1_ps(1.0), v), |x| (1.0 / (x as f64)) as f32);
    un_f32!(un_f32_floor, |v| _mm256_floor_ps(v), |x| ((x as f64).floor()) as f32);
    un_f32!(un_f32_ceil, |v| _mm256_ceil_ps(v), |x| ((x as f64).ceil()) as f32);

    /// One binary op in three operand shapes: slice⊕slice, slice⊕const
    /// and const⊕slice (the latter two cover `swapped` for the
    /// non-commutative ops).
    macro_rules! bin_f64 {
        ($ss:ident, $sc:ident, $cs:ident, |$a:ident, $b:ident| $vec:expr, |$x:ident, $y:ident| $scl:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $ss(dst: &mut [f64], xs: &[f64], ys: &[f64]) {
                let n = dst.len().min(xs.len()).min(ys.len());
                let mut i = 0;
                while i + 4 <= n {
                    let $a = _mm256_loadu_pd(xs.as_ptr().add(i));
                    let $b = _mm256_loadu_pd(ys.as_ptr().add(i));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(i), $vec);
                    i += 4;
                }
                while i < n {
                    let $x = *xs.get_unchecked(i);
                    let $y = *ys.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $sc(dst: &mut [f64], xs: &[f64], c: f64) {
                let n = dst.len().min(xs.len());
                let $b = _mm256_set1_pd(c);
                let mut i = 0;
                while i + 4 <= n {
                    let $a = _mm256_loadu_pd(xs.as_ptr().add(i));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(i), $vec);
                    i += 4;
                }
                while i < n {
                    let $x = *xs.get_unchecked(i);
                    let $y = c;
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $cs(dst: &mut [f64], c: f64, ys: &[f64]) {
                let n = dst.len().min(ys.len());
                let $a = _mm256_set1_pd(c);
                let mut i = 0;
                while i + 4 <= n {
                    let $b = _mm256_loadu_pd(ys.as_ptr().add(i));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(i), $vec);
                    i += 4;
                }
                while i < n {
                    let $x = c;
                    let $y = *ys.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
        };
    }

    bin_f64!(bin_f64_add_ss, bin_f64_add_sc, bin_f64_add_cs, |a, b| _mm256_add_pd(a, b), |x, y| x
        + y);
    bin_f64!(bin_f64_sub_ss, bin_f64_sub_sc, bin_f64_sub_cs, |a, b| _mm256_sub_pd(a, b), |x, y| x
        - y);
    bin_f64!(bin_f64_mul_ss, bin_f64_mul_sc, bin_f64_mul_cs, |a, b| _mm256_mul_pd(a, b), |x, y| x
        * y);
    bin_f64!(bin_f64_div_ss, bin_f64_div_sc, bin_f64_div_cs, |a, b| _mm256_div_pd(a, b), |x, y| x
        / y);
    bin_f64!(
        bin_f64_euclid_ss,
        bin_f64_euclid_sc,
        bin_f64_euclid_cs,
        |a, b| {
            let d = _mm256_sub_pd(a, b);
            _mm256_mul_pd(d, d)
        },
        |x, y| {
            let d = x - y;
            d * d
        }
    );

    macro_rules! bin_f32 {
        ($ss:ident, $sc:ident, $cs:ident, |$a:ident, $b:ident| $vec:expr, |$x:ident, $y:ident| $scl:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $ss(dst: &mut [f32], xs: &[f32], ys: &[f32]) {
                let n = dst.len().min(xs.len()).min(ys.len());
                let mut i = 0;
                while i + 8 <= n {
                    let $a = _mm256_loadu_ps(xs.as_ptr().add(i));
                    let $b = _mm256_loadu_ps(ys.as_ptr().add(i));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vec);
                    i += 8;
                }
                while i < n {
                    let $x = *xs.get_unchecked(i);
                    let $y = *ys.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $sc(dst: &mut [f32], xs: &[f32], c: f32) {
                let n = dst.len().min(xs.len());
                let $b = _mm256_set1_ps(c);
                let mut i = 0;
                while i + 8 <= n {
                    let $a = _mm256_loadu_ps(xs.as_ptr().add(i));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vec);
                    i += 8;
                }
                while i < n {
                    let $x = *xs.get_unchecked(i);
                    let $y = c;
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $cs(dst: &mut [f32], c: f32, ys: &[f32]) {
                let n = dst.len().min(ys.len());
                let $a = _mm256_set1_ps(c);
                let mut i = 0;
                while i + 8 <= n {
                    let $b = _mm256_loadu_ps(ys.as_ptr().add(i));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vec);
                    i += 8;
                }
                while i < n {
                    let $x = c;
                    let $y = *ys.get_unchecked(i);
                    *dst.get_unchecked_mut(i) = $scl;
                    i += 1;
                }
            }
        };
    }

    bin_f32!(bin_f32_add_ss, bin_f32_add_sc, bin_f32_add_cs, |a, b| _mm256_add_ps(a, b), |x, y| x
        + y);
    bin_f32!(bin_f32_sub_ss, bin_f32_sub_sc, bin_f32_sub_cs, |a, b| _mm256_sub_ps(a, b), |x, y| x
        - y);
    bin_f32!(bin_f32_mul_ss, bin_f32_mul_sc, bin_f32_mul_cs, |a, b| _mm256_mul_ps(a, b), |x, y| x
        * y);
    bin_f32!(bin_f32_div_ss, bin_f32_div_sc, bin_f32_div_cs, |a, b| _mm256_div_ps(a, b), |x, y| x
        / y);
    bin_f32!(
        bin_f32_euclid_ss,
        bin_f32_euclid_sc,
        bin_f32_euclid_cs,
        |a, b| {
            let d = _mm256_sub_ps(a, b);
            _mm256_mul_ps(d, d)
        },
        |x, y| {
            let d = x - y;
            d * d
        }
    );

    /// Two-accumulator vector sum. Lane `j` of `acc0` (j < 4) and lane
    /// `j-4` of `acc1` see exactly the elements `super::sum_lanes` folds
    /// into its lane `j`; the spill-and-fold order matches its horizontal
    /// fold, so Scalar and Avx2 sums are bit-identical.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_f64(col: &[f64]) -> f64 {
        let n = col.len();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(col.as_ptr().add(i)));
            acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(col.as_ptr().add(i + 4)));
            i += 8;
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
        let mut total = 0.0;
        for l in lanes {
            total += l;
        }
        while i < n {
            total += *col.get_unchecked(i);
            i += 1;
        }
        total
    }

    /// f32 twin of [`sum_f64`]: widen each 8-lane block to two f64
    /// vectors, preserving the same lane association as the portable
    /// kernel (lane j accumulates elements `i + j` as f64).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_f32(col: &[f32]) -> f64 {
        let n = col.len();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(col.as_ptr().add(i));
            acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
            acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
            i += 8;
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
        let mut total = 0.0;
        for l in lanes {
            total += l;
        }
        while i < n {
            total += *col.get_unchecked(i) as f64;
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        flashr_testkit::Rng::new(seed).vec_f64(n, -1.0..1.0)
    }

    fn avx2() -> bool {
        SimdLevel::avx2_supported()
    }

    #[test]
    fn unary_avx2_bit_identical_to_scalar_f64() {
        if !avx2() {
            return;
        }
        let src = pseudo(1037, 3);
        for op in [
            UnaryOp::Neg,
            UnaryOp::Abs,
            UnaryOp::Square,
            UnaryOp::Sqrt,
            UnaryOp::Recip,
            UnaryOp::Floor,
            UnaryOp::Ceil,
        ] {
            let mut want = vec![0.0f64; src.len()];
            crate::ops::unary::unary_typed::<f64>(op, &src, &mut want);
            let mut got = vec![0.0f64; src.len()];
            unary_simd::<f64>(op, &src, &mut got);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "op={op:?} i={i} w={w} g={g}");
            }
        }
    }

    #[test]
    fn unary_avx2_bit_identical_to_scalar_f32() {
        if !avx2() {
            return;
        }
        let src: Vec<f32> = pseudo(517, 5).iter().map(|&v| (v * 7.5) as f32).collect();
        for op in [
            UnaryOp::Neg,
            UnaryOp::Abs,
            UnaryOp::Square,
            UnaryOp::Sqrt,
            UnaryOp::Recip,
            UnaryOp::Floor,
            UnaryOp::Ceil,
        ] {
            let mut want = vec![0.0f32; src.len()];
            crate::ops::unary::unary_typed::<f32>(op, &src, &mut want);
            let mut got = vec![0.0f32; src.len()];
            unary_simd::<f32>(op, &src, &mut got);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "op={op:?} i={i} w={w} g={g}");
            }
        }
    }

    #[test]
    fn arith_avx2_bit_identical_all_shapes() {
        if !avx2() {
            return;
        }
        let a = pseudo(709, 11);
        let b = pseudo(709, 13);
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div, BinaryOp::EuclidSq] {
            let reference = crate::ops::binary::arith_col_fn::<f64>(op);
            for swapped in [false, true] {
                // slice operand
                let mut want = vec![0.0f64; a.len()];
                reference(&mut want, &a, ColSrc::Slice(&b), swapped);
                let mut got = vec![0.0f64; a.len()];
                arith_simd::<f64>(op, &mut got, &a, ColSrc::Slice(&b), swapped);
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.to_bits(), g.to_bits(), "op={op:?} swapped={swapped} slice");
                }
                // const operand
                let mut want = vec![0.0f64; a.len()];
                reference(&mut want, &a, ColSrc::Const(0.37), swapped);
                let mut got = vec![0.0f64; a.len()];
                arith_simd::<f64>(op, &mut got, &a, ColSrc::Const(0.37), swapped);
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.to_bits(), g.to_bits(), "op={op:?} swapped={swapped} const");
                }
            }
        }
    }

    #[test]
    fn sum_scalar_and_avx2_bit_identical() {
        // The lane association contract: Scalar and Avx2 sums must agree
        // to the bit because their partials fold in the same order.
        if !avx2() {
            return;
        }
        for n in [0usize, 1, 7, 8, 9, 64, 1000, 1023] {
            let v = pseudo(n, 17);
            let scalar = fold_col::<f64>(SimdLevel::Scalar, AggOp::Sum, 0.25, &v);
            let vex = fold_col::<f64>(SimdLevel::Avx2, AggOp::Sum, 0.25, &v);
            assert_eq!(scalar.to_bits(), vex.to_bits(), "n={n}");
            let vf: Vec<f32> = v.iter().map(|&x| x as f32).collect();
            let scalar = fold_col::<f32>(SimdLevel::Scalar, AggOp::Sum, 0.25, &vf);
            let vex = fold_col::<f32>(SimdLevel::Avx2, AggOp::Sum, 0.25, &vf);
            assert_eq!(scalar.to_bits(), vex.to_bits(), "f32 n={n}");
        }
    }

    #[test]
    fn sum_off_vs_lanes_within_reassociation_bound() {
        // |serial - lanewise| <= n * eps * sum(|x_i|): each of the O(n)
        // reassociated partial sums carries at most half an ulp of the
        // magnitude bound.
        for n in [3usize, 10, 100, 2048] {
            let v = pseudo(n, 23);
            let off = fold_col::<f64>(SimdLevel::Off, AggOp::Sum, 0.0, &v);
            let lanes = fold_col::<f64>(SimdLevel::Scalar, AggOp::Sum, 0.0, &v);
            let mag: f64 = v.iter().map(|x| x.abs()).sum();
            let bound = n as f64 * f64::EPSILON * mag + f64::MIN_POSITIVE;
            assert!((off - lanes).abs() <= bound, "n={n} off={off} lanes={lanes}");
        }
    }

    #[test]
    fn minmax_exact_at_every_level() {
        let v = pseudo(777, 29);
        for op in [AggOp::Min, AggOp::Max] {
            let off = fold_col::<f64>(SimdLevel::Off, op, op.identity(), &v);
            for lvl in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let got = fold_col::<f64>(lvl, op, op.identity(), &v);
                assert_eq!(off.to_bits(), got.to_bits(), "{op:?} at {}", lvl.name());
            }
        }
    }

    #[test]
    fn fold_handles_nan_like_the_serial_path() {
        let mut v = pseudo(100, 31);
        v[17] = f64::NAN;
        v[63] = f64::NAN;
        for op in [AggOp::Min, AggOp::Max] {
            let off = fold_col::<f64>(SimdLevel::Off, op, op.identity(), &v);
            let lanes = fold_col::<f64>(SimdLevel::Scalar, op, op.identity(), &v);
            assert_eq!(off.to_bits(), lanes.to_bits(), "{op:?}");
        }
        // Sum propagates NaN at every level.
        for lvl in SimdLevel::available() {
            assert!(fold_col::<f64>(lvl, AggOp::Sum, 0.0, &v).is_nan());
        }
    }

    #[test]
    fn integer_folds_are_level_independent() {
        let v: Vec<i64> = (0..501).map(|i| (i * 7 % 1000) - 500).collect();
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Prod] {
            let off = fold_col::<i64>(SimdLevel::Off, op, op.identity(), &v[..16]);
            for lvl in SimdLevel::available() {
                let got = fold_col::<i64>(lvl, op, op.identity(), &v[..16]);
                assert_eq!(off.to_bits(), got.to_bits(), "{op:?} at {}", lvl.name());
            }
        }
    }

    #[test]
    fn availability_tables() {
        assert!(!unary_simd_available(UnaryOp::Round, DType::F64), "Round is not exactly rounded");
        assert!(!unary_simd_available(UnaryOp::Exp, DType::F64));
        assert!(!unary_simd_available(UnaryOp::Neg, DType::I64), "no integer AVX2 column");
        assert!(!arith_simd_available(BinaryOp::Min, DType::F64), "vminpd NaN asymmetry");
        assert!(!arith_simd_available(BinaryOp::Pow, DType::F64));
        assert!(!arith_simd_available(BinaryOp::Add, DType::I32));
        assert!(!fold_simd_available(AggOp::Prod, DType::F64));
        assert!(!fold_simd_available(AggOp::Sum, DType::I64));
    }
}
