//! The `Element`-generic reduction folds, and the engine's view of the
//! SIMD dispatch level.
//!
//! Every element-wise and reduction kernel in this crate exists once, as
//! a portable, const-generic, `Element`-typed loop. The [`SimdLevel`]
//! (defined in `flashr_linalg::simd`, with the env parsing and the CPU
//! detection) selects which *compilation* of it runs: the resolvers in
//! `fused_map.rs` and `binary.rs` hand out, once at kernel-compile
//! time, either the plain monomorphic function or the same function
//! wrapped in `versioned`, which inlines it into a
//! `#[target_feature(enable = "avx2,fma")]` frame
//! ([`flashr_linalg::simd::as_avx2`]). Both are the same Rust, and Rust
//! never fuses a multiply with an add on its own, so every op × dtype —
//! floats, integers, predicates, casts — produces the same bits at both
//! levels, by construction.
//!
//! The folds here are the part `flashr_linalg` (f64-only, no `Element`)
//! cannot host. `sum` and `mean` reassociate into eight `f64` lane
//! partials (within `n·ε·Σ|x|` of a left-to-right fold); `min` and `max`
//! never round; everything else, and every integer column, folds
//! serially.

use crate::dtype::DType;
use crate::element::Element;
use crate::ops::agg::AggOp;
use flashr_linalg::simd::{as_avx2, at_level};

pub use flashr_linalg::simd::SimdLevel;

/// Run a kernel body as the compilation a resolver chose for it: `VEX`
/// is the last const generic of the function-pointer shims (`StepFn`,
/// `ArithColFn`) the resolvers hand out through [`pick!`].
#[inline(always)]
pub(crate) fn versioned<const VEX: bool, R>(body: impl FnOnce() -> R) -> R {
    if VEX {
        debug_assert!(SimdLevel::avx2_supported());
        // SAFETY: `pick!` below is the only place a `VEX = true` shim is
        // named, on the branch where its caller's `level.vex()` — hence
        // `SimdLevel::avx2_supported()` — held.
        unsafe { as_avx2(body) }
    } else {
        body()
    }
}

/// `$shim::<…, true>` when `$vex` (a resolver's `level.vex()`), else
/// `$shim::<…, false>`.
macro_rules! pick {
    ($vex:expr, $shim:ident::<$($arg:tt),+>) => {
        if $vex {
            $shim::<$($arg),+, true>
        } else {
            $shim::<$($arg),+, false>
        }
    };
}
pub(crate) use pick;

/// Whether `(op, dtype)` folds through the lane-partial reduction
/// kernels (the sums through [`sum_lanes_run`] in a sink).
pub(crate) fn has_lane_fold(op: AggOp, dtype: DType) -> bool {
    matches!(dtype, DType::F64 | DType::F32)
        && matches!(op, AggOp::Sum | AggOp::Mean | AggOp::Min | AggOp::Max)
}

/// Fold one column into an `f64` accumulator at the given dispatch level.
///
/// Float `Sum`/`Mean` use eight `f64` lane partials and `Min`/`Max` an
/// eight-lane fold, compiled for `level`; the association is the same at
/// both levels, so the result is too. Everything else folds serially.
pub fn fold_col<T: Element>(level: SimdLevel, op: AggOp, acc: f64, col: &[T]) -> f64 {
    if has_lane_fold(op, T::DTYPE) {
        return at_level(
            level,
            #[inline(always)]
            || match op {
                AggOp::Min => minmax_lanes::<T, true>(acc, col),
                AggOp::Max => minmax_lanes::<T, false>(acc, col),
                _ => acc + sum_lanes(col),
            },
        );
    }
    let mut a = acc;
    for v in col {
        a = op.fold(a, v.to_f64());
    }
    a
}

/// Eight-lane sum: lane `j` accumulates elements `8i + j`, the lanes
/// fold left to right, then the tail.
#[inline(always)]
fn sum_lanes<T: Element>(col: &[T]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let full = col.len() / 8 * 8;
    add_sum_lanes(&mut lanes, &col[..full]);
    fold_sum_lanes(lanes, &col[full..])
}

/// [`sum_lanes`] over a run of chunks (a partition read in Pcache
/// ranges), carrying the lanes from chunk to chunk. Every chunk but the
/// last is a whole number of 8-element blocks; the `last` one folds the
/// lanes and its tail and returns the run's sum, the bits of one
/// [`sum_lanes`] over the whole run.
pub(crate) fn sum_lanes_run<T: Element>(
    level: SimdLevel,
    lanes: &mut [f64; 8],
    col: &[T],
    last: bool,
) -> Option<f64> {
    let full = col.len() / 8 * 8;
    assert!(last || full == col.len(), "only the last chunk of a run has a tail");
    at_level(
        level,
        #[inline(always)]
        || add_sum_lanes(lanes, &col[..full]),
    );
    last.then(|| fold_sum_lanes(std::mem::take(lanes), &col[full..]))
}

/// Lane `j` adds elements `8i + j` of `col`, a whole number of blocks,
/// in registers.
#[inline(always)]
fn add_sum_lanes<T: Element>(lanes: &mut [f64; 8], col: &[T]) {
    let mut acc = *lanes;
    for block in col.chunks_exact(8) {
        for (l, v) in acc.iter_mut().zip(block) {
            *l += v.to_f64();
        }
    }
    *lanes = acc;
}

/// `+0.0`, then lanes 0 to 7 in order, then the tail.
#[inline(always)]
fn fold_sum_lanes<T: Element>(lanes: [f64; 8], tail: &[T]) -> f64 {
    let mut total = 0.0;
    for l in lanes {
        total += l;
    }
    for v in tail {
        total += v.to_f64();
    }
    total
}

/// Eight-lane min/max fold; exact (and therefore level-independent)
/// because min/max never round.
#[inline(always)]
fn minmax_lanes<T: Element, const MIN: bool>(acc: f64, col: &[T]) -> f64 {
    let ident = if MIN { f64::INFINITY } else { f64::NEG_INFINITY };
    let pick = |a: f64, b: f64| if MIN { a.min(b) } else { a.max(b) };
    let mut lanes = [ident; 8];
    let mut blocks = col.chunks_exact(8);
    for block in blocks.by_ref() {
        for (l, v) in lanes.iter_mut().zip(block) {
            *l = pick(*l, v.to_f64());
        }
    }
    let mut total = ident;
    for l in lanes {
        total = pick(total, l);
    }
    for v in blocks.remainder() {
        total = pick(total, v.to_f64());
    }
    pick(acc, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        flashr_testkit::Rng::new(seed).vec_f64(n, -1.0..1.0)
    }

    /// The strict left-to-right fold the lane kernels are measured
    /// against (and the path integers and `Prod` take).
    fn serial<T: Element>(op: AggOp, acc: f64, col: &[T]) -> f64 {
        col.iter().fold(acc, |a, v| op.fold(a, v.to_f64()))
    }

    /// (Named for the retired `Off` level, whose fold was this serial
    /// one.)
    #[test]
    fn sum_off_vs_lanes_within_reassociation_bound() {
        // |serial - lanewise| <= n * eps * sum(|x_i|): each of the O(n)
        // reassociated partial sums carries at most half an ulp of the
        // magnitude bound.
        for n in [3usize, 10, 100, 2048] {
            let v = pseudo(n, 23);
            let off = serial(AggOp::Sum, 0.0, &v);
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
            let want = serial(op, op.identity(), &v);
            for lvl in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let got = fold_col::<f64>(lvl, op, op.identity(), &v);
                assert_eq!(want.to_bits(), got.to_bits(), "{op:?} at {}", lvl.name());
            }
        }
    }

    #[test]
    fn fold_handles_nan_like_the_serial_path() {
        let mut v = pseudo(100, 31);
        v[17] = f64::NAN;
        v[63] = f64::NAN;
        for op in [AggOp::Min, AggOp::Max] {
            let want = serial(op, op.identity(), &v);
            let lanes = fold_col::<f64>(SimdLevel::Scalar, op, op.identity(), &v);
            assert_eq!(want.to_bits(), lanes.to_bits(), "{op:?}");
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
            let want = serial(op, op.identity(), &v[..16]);
            for lvl in SimdLevel::available() {
                let got = fold_col::<i64>(lvl, op, op.identity(), &v[..16]);
                assert_eq!(want.to_bits(), got.to_bits(), "{op:?} at {}", lvl.name());
            }
        }
    }

    #[test]
    fn availability_tables() {
        assert!(has_lane_fold(AggOp::Sum, DType::F32));
        assert!(has_lane_fold(AggOp::Max, DType::F64));
        assert!(!has_lane_fold(AggOp::Prod, DType::F64));
        assert!(!has_lane_fold(AggOp::Sum, DType::I64));
    }
}
