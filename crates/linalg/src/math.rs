//! `exp`, `ln`, `ln_1p` and `sin_cos`, written once as lane code.
//!
//! The generators (`rnorm`'s radius and angle), the `exp`/`ln`/`log1p`/
//! `sigmoid` maps and the test oracle all call these instead of the
//! platform libm, so a program gives the same bits on every host, under
//! any libm and at both [`SimdLevel`](crate::simd::SimdLevel)s.
//!
//! Each function is fdlibm's algorithm (Sun Microsystems, 1993, as kept
//! in FreeBSD and musl) with its coefficients, rewritten so that LLVM can
//! vectorize a loop that calls it:
//!
//! * no branch depends on the argument: special values and range edges
//!   are computed on every lane and chosen by selects, one condition
//!   each (LLVM declines to vectorize a loop over an `else if` chain);
//! * rounding to an integer is an add and a subtract of 1.5 · 2⁵², and
//!   the exponent field is read and written with integer shifts, so there
//!   is no float-to-integer conversion;
//! * no `mul_add`: Rust never contracts `a * b + c` on its own, so the
//!   baseline and the AVX2+FMA compilations give the same bits.
//!
//! Over the swept ranges of the tests each result is within 1 ulp of the
//! platform's (correctly rounded or nearly so) libm, and every special
//! value (±0, ±∞, NaN, subnormals, the overflow and underflow edges of
//! `exp`) gives what the libm gives. `sin_cos` reduces its argument
//! without a multi-word 2/π, so it serves `|x| ≤` [`SIN_COS_MAX`] (the
//! generator's angles are in `[0, 2π)`) and is NaN beyond. `sqrt` is
//! IEEE-exact and needs no twin here; `log2` and `log10` stay on std.

/// 1.5 · 2⁵²: for |x| < 2⁵¹, `(x + SHIFT) − SHIFT` is `x` rounded to an
/// integer (ties to even), and the low bits of `x + SHIFT` hold that
/// integer in two's complement.
const SHIFT: f64 = 6_755_399_441_055_744.0;
const TWO52: f64 = 4_503_599_627_370_496.0;
const TWO54: f64 = 18_014_398_509_481_984.0;

const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `x` rounded to the nearest integer, for |x| < 2⁵¹.
#[inline(always)]
fn round_int(x: f64) -> f64 {
    (x + SHIFT) - SHIFT
}

/// 2ᵏ for an integer-valued `k` in `[-1022, 1023]`: the biased exponent
/// `k + 1023` lands in the low bits of `k + 1023 + 2⁵²`, and a shift
/// moves it to the exponent field.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits((k + (TWO52 + 1023.0)).to_bits() << 52)
}

/// A `u64` below 2⁵² as `f64`, without an integer-to-float conversion.
#[inline(always)]
fn small_u64_to_f64(v: u64) -> f64 {
    f64::from_bits(v | TWO52.to_bits()) - TWO52
}

// ------------------------------------------------------------------ exp

const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const EXP_P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const EXP_P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const EXP_P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const EXP_P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const EXP_P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);
/// Above this `exp` overflows to +∞.
const EXP_OVERFLOW: f64 = f64::from_bits(0x4086_2e42_fefa_39ef);
/// Below this `exp` underflows to +0.
const EXP_UNDERFLOW: f64 = f64::from_bits(0xc087_4910_d52d_3051);

/// eˣ. With `k = round(x / ln 2)` and `r = x − k·ln 2` (ln 2 in two
/// parts), a rational approximation on `|r| ≤ ln 2 / 2` gives `eʳ`, and
/// `2ᵏ` is applied as two exact powers of two, so a subnormal result is
/// rounded once.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Past either edge `k` is out of range and the lane's value is
    // garbage (never a trap): the selects at the end replace it.
    let k = round_int(x * INV_LN2);
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (EXP_P1 + rr * (EXP_P2 + rr * (EXP_P3 + rr * (EXP_P4 + rr * EXP_P5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // k ∈ [-1077, 1024]: both halves are in `pow2`'s range, and `y · 2ᵏ¹`
    // is exact.
    let k1 = round_int(k * 0.5);
    let y = y * pow2(k1) * pow2(k - k1);
    let y = if x > EXP_OVERFLOW { f64::INFINITY } else { y };
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        y
    }
}

// ------------------------------------------------------------ ln, ln_1p

const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// Added to the bits of `x` so that the exponent field carries into the
/// next power of two exactly when the mantissa is at least √2.
const SQRT2_CARRY: u64 = (0x3ff0_0000 - 0x3fe6_a09e) << 32;
/// The exponent and high mantissa bits of √2/2.
const SQRT2_HALF_HI: u64 = 0x3fe6_a09e << 32;
const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;

/// For `bits` of a positive normal `u` (plus [`SQRT2_CARRY`]): `(k, m)`
/// with `u = 2ᵏ·m` and `m ∈ [√2/2, √2)`. `k` still carries the bias.
#[inline(always)]
fn split(carried: u64) -> (f64, f64) {
    let k = small_u64_to_f64(carried >> 52);
    let m = f64::from_bits((carried & MANTISSA) + SQRT2_HALF_HI);
    (k, m)
}

/// `ln(1 + f)` for `1 + f ∈ [√2/2, √2)` plus `k·ln 2` plus the correction
/// `c`: with `s = f / (2 + f)`, a polynomial in `s²` gives the remainder
/// of `2·atanh(s)` past `f − f²/2`.
#[inline(always)]
fn log_kernel(f: f64, k: f64, c: f64) -> f64 {
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + (t2 + t1)) + (k * LN2_LO + c) - hfsq + f + k * LN2_HI
}

/// The natural logarithm. A subnormal `x` is scaled by 2⁵⁴ first.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    let sub = x < f64::MIN_POSITIVE;
    let xs = if sub { x * TWO54 } else { x };
    let (k, m) = split(xs.to_bits().wrapping_add(SQRT2_CARRY));
    let k = k - if sub { 1023.0 + 54.0 } else { 1023.0 };
    let y = log_kernel(m - 1.0, k, 0.0);
    let y = if x == f64::INFINITY { x } else { y };
    let y = if x >= 0.0 { y } else { f64::NAN };
    if x == 0.0 {
        f64::NEG_INFINITY
    } else {
        y
    }
}

/// Bounds of the range where `1 + x` is already in `[√2/2, √2)` and `x`
/// itself is taken as `f`, without rounding it into `1 + x`.
const LOG1P_LO: f64 = -f64::from_bits(0x3fd2_bec5_0000_0000);
const LOG1P_HI: f64 = f64::from_bits(0x3fda_827a_0000_0000);

/// `ln(1 + x)`, accurate for small `x`: near 0, `f = x` directly; else
/// `u = 1 + x` is split as for [`ln`], and the rounding error of the add
/// goes back in as `c ≈ (x − (u − 1)) / u`.
#[inline(always)]
pub fn ln_1p(x: f64) -> f64 {
    let u = 1.0 + x;
    let (k, m) = split(u.to_bits().wrapping_add(SQRT2_CARRY));
    let k = k - 1023.0;
    // Exact when `k < 54`; beyond, `x` has no bits below `u`'s last.
    let c = (if k >= 2.0 { 1.0 - (u - x) } else { x - (u - 1.0) }) / u;
    let c = if k < 54.0 { c } else { 0.0 };
    let near = (x > LOG1P_LO) & (x < LOG1P_HI);
    let (f, k, c) = if near { (x, 0.0, 0.0) } else { (m - 1.0, k, c) };
    let y = log_kernel(f, k, c);
    let y = if x == f64::INFINITY { x } else { y };
    let y = if x >= -1.0 { y } else { f64::NAN };
    let y = if x == -1.0 { f64::NEG_INFINITY } else { y };
    if x == 0.0 {
        x
    } else {
        y
    }
}

// -------------------------------------------------------------- sin_cos

const FRAC_2_PI: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
// π/2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T, the first three of at most
// 32 significant bits: `n · PIO2_i` is exact for |n| ≤ 2²⁰.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);
/// 2²⁰ · π/2: the largest |x| whose reduction above is exact.
pub const SIN_COS_MAX: f64 = 1_647_099.0;

const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// `(sin x, cos x)`. `x` is reduced to `y₀ + y₁ ∈ [−π/4, π/4]` by `n`
/// quarter turns (π/2 in fdlibm's three parts plus a tail, the first
/// two subtracted exactly), the two kernels run on it, and `n mod 4`
/// swaps and negates them. Accurate for `|x| ≤` [`SIN_COS_MAX`]; beyond
/// it, and at ±∞ and NaN, both are NaN.
#[inline(always)]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let n = round_int(x * FRAC_2_PI);
    let a = x - n * PIO2_1;
    // `a − n·PIO2_2` as a sum `s + e` (Knuth's two-sum): no bit is lost
    // whether or not the subtraction cancels.
    let b = -(n * PIO2_2);
    let s = a + b;
    let bv = s - a;
    let e = (a - (s - bv)) + (b - bv);
    let tail = (e - n * PIO2_3) - n * PIO2_3T;
    let y0 = s + tail;
    let y1 = (s - y0) + tail;

    let z = y0 * y0;
    let zz = z * z;
    let sr = S2 + z * (S3 + z * S4) + z * zz * (S5 + z * S6);
    let v = z * y0;
    let sin = y0 - ((z * (0.5 * y1 - v * sr) - y1) - v * S1);
    let cr = z * (C1 + z * (C2 + z * C3)) + zz * zz * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let hw = 1.0 - hz;
    let cos = hw + (((1.0 - hw) - hz) + (z * cr - y0 * y1));

    // Quadrant n mod 4: odd swaps the two; sin is negated in quadrants
    // 2 and 3, cos in 1 and 2.
    let q = (n + SHIFT).to_bits();
    let odd = (q & 1).wrapping_neg();
    let (sb, cb) = (sin.to_bits(), cos.to_bits());
    let s = ((sb & !odd) | (cb & odd)) ^ ((q & 2) << 62);
    let c = ((cb & !odd) | (sb & odd)) ^ ((q.wrapping_add(1) & 2) << 62);
    let (s, c) = (f64::from_bits(s), f64::from_bits(c));
    let s = if x == 0.0 { x } else { s };
    let inside = x.abs() <= SIN_COS_MAX;
    (if inside { s } else { f64::NAN }, if inside { c } else { f64::NAN })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_testkit::Rng;

    /// Distance in ulps between two finite values of the same sign (or
    /// either zero): their bit patterns as a signed, ordered integer.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let b = v.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Largest ulp distance of `ours` from `std` over `xs`; a special
    /// value (NaN, ±∞) must match exactly.
    fn worst(
        what: &str,
        xs: impl Iterator<Item = f64>,
        ours: impl Fn(f64) -> f64,
        std: impl Fn(f64) -> f64,
    ) -> u64 {
        let mut worst = 0;
        for x in xs {
            let (got, want) = (ours(x), std(x));
            if want.is_nan() || want.is_infinite() {
                assert!(
                    got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                    "{what}({x:e}): {got:e}, std {want:e}"
                );
                continue;
            }
            let d = ulps(got, want);
            assert!(
                d <= 1,
                "{what}({x:e} = {:#018x}): {got:e}, std {want:e}: {d} ulps",
                x.to_bits()
            );
            worst = worst.max(d);
        }
        worst
    }

    /// `n` evenly spaced points of `[lo, hi]`.
    fn sweep(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| lo + (hi - lo) * (i as f64 / n as f64))
    }

    /// `n` values with random bit patterns: every exponent, subnormals
    /// included, of the given sign.
    fn random_bits(seed: u64, n: usize, negative: bool) -> impl Iterator<Item = f64> {
        let mut rng = Rng::new(seed);
        let sign = u64::from(negative) << 63;
        (0..n).map(move |_| f64::from_bits(rng.next_u64() >> 1 | sign))
    }

    #[test]
    fn exp_is_within_one_ulp_of_std() {
        let xs = sweep(-745.2, 709.9, 200_000)
            .chain(sweep(-1.0, 1.0, 100_000))
            .chain(sweep(-1e-6, 1e-6, 10_000))
            .chain(random_bits(1, 50_000, false).map(|v| v.min(1e3)))
            .chain(random_bits(2, 50_000, true).map(|v| v.max(-1e3)));
        worst("exp", xs, exp, f64::exp);
    }

    #[test]
    fn ln_is_within_one_ulp_of_std() {
        let xs = sweep(0.25, 4.0, 200_000)
            .chain(sweep(1.0 - 1e-6, 1.0 + 1e-6, 20_000))
            .chain(random_bits(3, 200_000, false));
        worst("ln", xs, ln, f64::ln);
    }

    #[test]
    fn ln_1p_is_within_one_ulp_of_std() {
        let xs = sweep(-1.0, 2.0, 200_000)
            .chain(sweep(-1e-4, 1e-4, 20_000))
            .chain(sweep(-1.0, -0.999, 20_000))
            .chain(random_bits(4, 100_000, false))
            .chain(random_bits(5, 100_000, true).filter(|v| *v > -1.0));
        worst("ln_1p", xs, ln_1p, f64::ln_1p);
    }

    #[test]
    fn sin_cos_is_within_one_ulp_of_std() {
        let quarter = std::f64::consts::FRAC_PI_2;
        // Near every multiple of π/2 up to 2π the reduction cancels most.
        let near = (0..=8).flat_map(|q| {
            let at = q as f64 * quarter;
            (-500..=500).map(move |i| f64::from_bits((at.to_bits() as i64 + i) as u64))
        });
        let xs = sweep(0.0, std::f64::consts::TAU, 400_000)
            .chain(sweep(-30.0, 30.0, 100_000))
            .chain(sweep(-SIN_COS_MAX, SIN_COS_MAX, 100_000))
            .chain(sweep(-1e-6, 1e-6, 10_000))
            .chain(near.filter(|v| *v > 0.0));
        let xs: Vec<f64> = xs.collect();
        worst("sin", xs.iter().copied(), |x| sin_cos(x).0, f64::sin);
        worst("cos", xs.iter().copied(), |x| sin_cos(x).1, f64::cos);
    }

    #[test]
    fn special_values_match_std() {
        let same = |what: &str, x: f64, got: f64, want: f64| {
            let ok = if want.is_nan() { got.is_nan() } else { got.to_bits() == want.to_bits() };
            assert!(ok, "{what}({x:e}): {got:e}, std {want:e}");
        };
        for x in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            same("exp", x, exp(x), x.exp());
            same("ln", x, ln(x), x.ln());
            same("ln_1p", x, ln_1p(x), x.ln_1p());
            same("sin", x, sin_cos(x).0, x.sin());
            same("cos", x, sin_cos(x).1, x.cos());
        }
        same("ln", 1.0, ln(1.0), 0.0);
        same("ln_1p", -1.0, ln_1p(-1.0), f64::NEG_INFINITY);
        // Subnormals and the ends of the normal range: within 1 ulp, or
        // exact where std gives a special value.
        let tiny = f64::from_bits(1);
        let edges = [
            tiny,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for x in edges.into_iter().flat_map(|v| [v, -v]) {
            worst("exp", [x].into_iter(), exp, f64::exp);
            worst("ln", [x].into_iter(), ln, f64::ln);
            worst("ln_1p", [x].into_iter(), ln_1p, f64::ln_1p);
            if x.abs() <= SIN_COS_MAX {
                same("sin", x, sin_cos(x).0, x.sin());
                same("cos", x, sin_cos(x).1, x.cos());
            }
        }
        // The generator's smallest u1.
        same("ln", f64::MIN_POSITIVE, ln(f64::MIN_POSITIVE), f64::MIN_POSITIVE.ln());
        // exp's edges: the last finite value and the first +∞, a subnormal
        // result, the last non-zero one and the first zero.
        let next = |v: f64| f64::from_bits(v.to_bits() + 1);
        let over = EXP_OVERFLOW;
        assert!(exp(over).is_finite() && ulps(exp(over), over.exp()) <= 1);
        assert!(exp(next(over)).is_infinite() && next(over).exp().is_infinite());
        worst("exp", sweep(-745.2, -708.0, 10_000), exp, f64::exp);
        assert!(exp(-740.0) > 0.0 && exp(-740.0) < f64::MIN_POSITIVE);
        let under = EXP_UNDERFLOW;
        assert_eq!(exp(under).to_bits(), under.exp().to_bits());
        assert_eq!(exp(next(under)), 0.0);
        // Past `sin_cos`'s range: NaN, never a wrong number.
        let (s, c) = sin_cos(2.0 * SIN_COS_MAX);
        assert!(s.is_nan() && c.is_nan());
    }
}
