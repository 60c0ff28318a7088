//! The SIMD dispatch level and the one way a kernel gets compiled for it.
//!
//! A kernel in this workspace is written once, as a portable loop over
//! fixed-width lane blocks that LLVM vectorizes. [`SimdLevel`] — chosen
//! once per process from `FLASHR_SIMD` and the CPU — says which
//! *compilation* of that loop runs: the baseline x86-64 one (`Scalar`,
//! SSE2 registers) or a second one with AVX2 and FMA enabled (`Avx2`).
//! [`as_avx2`] is the whole mechanism: a `#[target_feature(enable =
//! "avx2,fma")]` function the body it is given inlines into, reached
//! through [`at_level`] (which checks the CPU per call) or through a
//! function pointer resolved after that check. Nothing else in the
//! workspace names an ISA, with two measured exceptions below.
//!
//! Numerics policy (documented once, relied on everywhere):
//!
//! * Element-wise kernels, the lane folds behind `sum`/`min`/`max` and
//!   the dot product are the same Rust at both levels. Rust never
//!   contracts `a * b + c` into a fused multiply-add on its own, so the
//!   two compilations produce the same bits.
//! * Reductions carry eight independent `f64` lane partials folded in a
//!   fixed order: deterministic, and within `n·ε·Σ|x|` of a strict
//!   left-to-right fold.
//! * The packed gemm micro-kernel and axpy are the exception. At `Avx2`
//!   they are hand-written FMA bodies (`avx2::mk_4x8`, a 4×8 register
//!   tile, and `avx2::axpy`), so `%*%` and `syrk` differ between the
//!   levels within that same bound.
//!
//! Every kernel takes the level as an explicit argument so tests and
//! benches can compare levels inside one process; production call sites
//! read [`SimdLevel::active`].

use std::sync::OnceLock;

/// Which compilation of the portable kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// The baseline compilation: whatever every x86-64 has (SSE2).
    Scalar = 1,
    /// The same kernels compiled with AVX2+FMA enabled, and the
    /// hand-written gemm and axpy micro-kernels.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name, stamped into pass profiles, the bench
    /// `host` section, and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Whether this host can execute the AVX2+FMA kernels.
    pub fn avx2_supported() -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            false
        }
    }

    /// Whether a kernel at this level runs its AVX2+FMA compilation on
    /// this host — the one test every resolver and [`at_level`] make.
    pub fn vex(self) -> bool {
        self == SimdLevel::Avx2 && SimdLevel::avx2_supported()
    }

    /// Every level runnable on this host, lowest first.
    pub fn available() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar];
        if SimdLevel::avx2_supported() {
            v.push(SimdLevel::Avx2);
        }
        v
    }

    /// The level a `FLASHR_SIMD` value (`scalar|avx2|auto`; unset =
    /// `auto`) selects on a host that has (`avx2`) or lacks AVX2+FMA.
    /// `off`, `none` and `0` — the retired third level — mean `scalar`.
    /// Forcing `avx2` on a host without it warns and falls back to
    /// `scalar` rather than executing illegal instructions.
    fn parse(value: Option<&str>, avx2: bool) -> SimdLevel {
        let detected = if avx2 { SimdLevel::Avx2 } else { SimdLevel::Scalar };
        match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            None | Some("auto" | "") => detected,
            Some("scalar" | "off" | "none" | "0") => SimdLevel::Scalar,
            Some("avx2") => {
                if !avx2 {
                    eprintln!(
                        "flashr: FLASHR_SIMD=avx2 requested but the CPU lacks avx2+fma; \
                         falling back to scalar"
                    );
                }
                detected
            }
            Some(other) => {
                eprintln!("flashr: unknown FLASHR_SIMD value {other:?}; using auto");
                detected
            }
        }
    }

    /// Process-wide level, resolved from `FLASHR_SIMD` once on first use.
    pub fn active() -> SimdLevel {
        static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let value = std::env::var("FLASHR_SIMD").ok();
            SimdLevel::parse(value.as_deref(), SimdLevel::avx2_supported())
        })
    }
}

/// Run `body` as compiled with AVX2 and FMA enabled.
///
/// `body` is a closure around an `#[inline(always)]` portable kernel:
/// inlined here, LLVM vectorizes the very same loop over `ymm`
/// registers. Mark the closure `#[inline(always)]` too — a body left out
/// of line is compiled for the baseline whatever calls it.
///
/// # Safety
/// The CPU must have avx2 and fma: call only after
/// [`SimdLevel::avx2_supported`] (or [`SimdLevel::vex`]) returned true.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), target_feature(enable = "avx2,fma"))]
pub unsafe fn as_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Run `body` as compiled for `level`: through [`as_avx2`] at `Avx2` on
/// a CPU that has it, inlined into the caller otherwise.
#[inline(always)]
pub fn at_level<R>(level: SimdLevel, body: impl FnOnce() -> R) -> R {
    if level.vex() {
        // SAFETY: `vex()` on the line above saw `SimdLevel::avx2_supported()`.
        unsafe { as_avx2(body) }
    } else {
        body()
    }
}

// ------------------------------------------------------------------ dot

/// `sum_i a[i] * b[i]` over `min(len)` elements: eight lane partials
/// break the FP-add dependency chain, folded in a fixed order.
pub fn dot_f64(level: SimdLevel, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    at_level(
        level,
        #[inline(always)]
        || dot_lanes(&a[..n], &b[..n]),
    )
}

#[inline(always)]
fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..8 {
            lanes[i] += xa[i] * xb[i];
        }
    }
    let mut s = 0.0;
    for l in lanes {
        s += l;
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

// ----------------------------------------------------------------- axpy

/// `dst[i] += alpha * src[i]`, element-wise: two roundings at `Scalar`,
/// one (a fused multiply-add, `avx2::axpy`) at `Avx2`.
pub fn axpy_f64(level: SimdLevel, dst: &mut [f64], src: &[f64], alpha: f64) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if level.vex() {
        // SAFETY: `vex()` on the line above saw `SimdLevel::avx2_supported()`;
        // both slices are `n` long.
        unsafe { avx2::axpy(dst, src, alpha) };
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

// -------------------------------------------------- packed gemm kernel

/// Register tile height (rows of A per micro-kernel).
pub const MR: usize = 4;
/// Register tile width (columns of B per micro-kernel).
pub const NR: usize = 8;
/// k-panel depth kept resident in the packed buffers.
const KC: usize = 256;
/// Row-panel height packed per A block (L2-resident: 64×256×8 B).
const MC: usize = 64;
/// Column-panel width packed per B block (256×512×8 B).
const NC: usize = 512;

thread_local! {
    /// Packing scratch (A panel, B panel), reused across calls.
    static PACK: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// `C += alpha * A * B` over strided views, via packed panels and a
/// `MR`×`NR` register-blocked micro-kernel. Caller applies beta first.
///
/// Strides follow the BLIS convention: element `(i, j)` of a matrix `X`
/// lives at `x[i * rsx + j * csx]`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_f64(
    level: SimdLevel,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    rsa: usize,
    csa: usize,
    b: &[f64],
    rsb: usize,
    csb: usize,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let use_avx2 = level.vex();
    PACK.with(|p| {
        let (apack, bpack) = &mut *p.borrow_mut();
        apack.resize(MC * KC, 0.0);
        bpack.resize(KC * NC, 0.0);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let mut j0 = 0;
            while j0 < n {
                let nc = NC.min(n - j0);
                let nblk = nc.div_ceil(NR);
                // Pack B[k0..k0+kc, j0..j0+nc] into NR-wide column panels,
                // zero-padding the ragged rightmost panel.
                for jb in 0..nblk {
                    let panel = &mut bpack[jb * kc * NR..(jb + 1) * kc * NR];
                    for kk in 0..kc {
                        for jj in 0..NR {
                            let j = j0 + jb * NR + jj;
                            panel[kk * NR + jj] =
                                if j < j0 + nc { b[(k0 + kk) * rsb + j * csb] } else { 0.0 };
                        }
                    }
                }
                let mut i0 = 0;
                while i0 < m {
                    let mc = MC.min(m - i0);
                    let mblk = mc.div_ceil(MR);
                    // Pack A[i0..i0+mc, k0..k0+kc] into MR-tall row panels.
                    for ib in 0..mblk {
                        let panel = &mut apack[ib * kc * MR..(ib + 1) * kc * MR];
                        for kk in 0..kc {
                            for ii in 0..MR {
                                let i = i0 + ib * MR + ii;
                                panel[kk * MR + ii] =
                                    if i < i0 + mc { a[i * rsa + (k0 + kk) * csa] } else { 0.0 };
                            }
                        }
                    }
                    for jb in 0..nblk {
                        let nr = NR.min(nc - jb * NR);
                        let bp = &bpack[jb * kc * NR..];
                        for ib in 0..mblk {
                            let mr = MR.min(mc - ib * MR);
                            let ap = &apack[ib * kc * MR..];
                            let coff = (i0 + ib * MR) * rsc + (j0 + jb * NR) * csc;
                            if use_avx2 {
                                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                                // SAFETY: `use_avx2` is `level.vex()`, which
                                // checked `SimdLevel::avx2_supported()`; the
                                // packed panels hold `kc` full-width steps and
                                // coff + strides stay inside `c` for the real
                                // (mr, nr) tile.
                                unsafe {
                                    avx2::mk_4x8(
                                        kc,
                                        ap.as_ptr(),
                                        bp.as_ptr(),
                                        alpha,
                                        c.as_mut_ptr().add(coff),
                                        rsc,
                                        csc,
                                        mr,
                                        nr,
                                    );
                                }
                            } else {
                                mk_4x8_lanes(kc, ap, bp, alpha, &mut c[coff..], rsc, csc, mr, nr);
                            }
                        }
                    }
                    i0 += mc;
                }
                j0 += nc;
            }
            k0 += kc;
        }
    });
}

/// Portable micro-kernel: same `MR`×`NR` accumulator tile as the AVX2
/// one, plain mul+add.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)]
fn mk_4x8_lanes(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    alpha: f64,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for kk in 0..kc {
        let bk = &bp[kk * NR..kk * NR + NR];
        let ak = &ap[kk * MR..kk * MR + MR];
        for i in 0..MR {
            let av = ak[i];
            for j in 0..NR {
                acc[i][j] += av * bk[j];
            }
        }
    }
    for i in 0..mr {
        for j in 0..nr {
            c[i * rsc + j * csc] += alpha * acc[i][j];
        }
    }
}

// ------------------------------------------- the hand-written exception

// The only `std::arch` in the workspace: the two kernels where a
// measurement says the hand-written body pays. On a 256³ product
// `mk_4x8_lanes` compiled under `avx2,fma` reaches 9–13 GFLOP/s as
// written and 7.6–7.7 with `f64::mul_add` (LLVM emits 32 scalar
// `vfmadd231sd` per k-step and spills the accumulators), against 18–26
// for `mk_4x8`; the plain axpy loop compiled the same way runs `syrk` on
// a 16 384×40 panel at 0.82× of `axpy` (7.5 against 9.1 GFLOP/s, medians
// of ten alternating runs, lower in every one).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `dst[i] = fma(alpha, src[i], dst[i])`.
    ///
    /// # Safety
    /// The CPU has avx2 and fma; `src` is at least as long as `dst`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(dst: &mut [f64], src: &[f64], alpha: f64) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let d0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(sp.add(i)), _mm256_loadu_pd(dp.add(i)));
            let d1 =
                _mm256_fmadd_pd(va, _mm256_loadu_pd(sp.add(i + 4)), _mm256_loadu_pd(dp.add(i + 4)));
            _mm256_storeu_pd(dp.add(i), d0);
            _mm256_storeu_pd(dp.add(i + 4), d1);
            i += 8;
        }
        while i + 4 <= n {
            let d = _mm256_fmadd_pd(va, _mm256_loadu_pd(sp.add(i)), _mm256_loadu_pd(dp.add(i)));
            _mm256_storeu_pd(dp.add(i), d);
            i += 4;
        }
        while i < n {
            *dp.add(i) = alpha.mul_add(*sp.add(i), *dp.add(i));
            i += 1;
        }
    }

    /// 4×8 register tile: eight `__m256d` accumulators (4 rows × 2
    /// column vectors), 8 FMAs per k step. Packed panels: `ap` holds
    /// `MR` A values per k, `bp` holds `NR` B values per k, both
    /// zero-padded so the kernel is always full-width; the writeback
    /// masks to the real `(mr, nr)` tile.
    ///
    /// # Safety
    /// The CPU has avx2 and fma; `ap` and `bp` point at `kc` steps of 4
    /// and 8 values; `c + i * rsc + j * csc` is in bounds for every
    /// `i < mr`, `j < nr`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mk_4x8(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        alpha: f64,
        c: *mut f64,
        rsc: usize,
        csc: usize,
        mr: usize,
        nr: usize,
    ) {
        let mut acc: [[__m256d; 2]; 4] = [[_mm256_setzero_pd(); 2]; 4];
        for kk in 0..kc {
            let b0 = _mm256_loadu_pd(bp.add(kk * 8));
            let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
            let ak = ap.add(kk * 4);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*ak.add(i));
                row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
                row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
            }
        }
        let mut t = [0.0f64; 8];
        for (i, row) in acc.iter().enumerate().take(mr) {
            _mm256_storeu_pd(t.as_mut_ptr(), row[0]);
            _mm256_storeu_pd(t.as_mut_ptr().add(4), row[1]);
            for (j, &v) in t.iter().enumerate().take(nr) {
                let p = c.add(i * rsc + j * csc);
                *p += alpha * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        flashr_testkit::Rng::new(seed).vec_f64(n, -1.0..1.0)
    }

    #[test]
    fn level_names_and_order() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        let avail = SimdLevel::available();
        assert_eq!(avail[0], SimdLevel::Scalar);
        assert_eq!(avail.contains(&SimdLevel::Avx2), SimdLevel::avx2_supported());
        assert_eq!(SimdLevel::Avx2.vex(), SimdLevel::avx2_supported());
        assert!(!SimdLevel::Scalar.vex());
    }

    #[test]
    fn flashr_simd_values_parse() {
        use SimdLevel::{Avx2, Scalar};
        // (value, level on a host with AVX2+FMA, level on one without)
        let table = [
            (None, Avx2, Scalar),
            (Some("auto"), Avx2, Scalar),
            (Some(""), Avx2, Scalar),
            (Some("  AUTO "), Avx2, Scalar),
            (Some("scalar"), Scalar, Scalar),
            (Some("Scalar\n"), Scalar, Scalar),
            // The retired third level asked for less, never for more.
            (Some("off"), Scalar, Scalar),
            (Some("none"), Scalar, Scalar),
            (Some("0"), Scalar, Scalar),
            // Forced AVX2 falls back (with a note) where it cannot run.
            (Some("avx2"), Avx2, Scalar),
            // Garbage is `auto` (with a note).
            (Some("sse9"), Avx2, Scalar),
            (Some("1"), Avx2, Scalar),
        ];
        for (value, with, without) in table {
            assert_eq!(SimdLevel::parse(value, true), with, "{value:?} with avx2");
            assert_eq!(SimdLevel::parse(value, false), without, "{value:?} without avx2");
        }
    }

    #[test]
    fn dot_matches_serial_within_bound() {
        // Reassociation bound: |Δ| ≤ n · ε · Σ|aᵢbᵢ| (conservative; see
        // the numerics policy in the module docs). The levels share one
        // body, so between themselves they agree to the bit.
        for n in [0usize, 1, 3, 7, 8, 15, 16, 17, 63, 64, 1000, 4097] {
            let a = pseudo(n, 3);
            let b = pseudo(n, 5);
            let want = a.iter().zip(&b).fold(0.0, |s, (x, y)| s + x * y);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let bound = (n.max(1) as f64) * f64::EPSILON * mag + f64::MIN_POSITIVE;
            let scalar = dot_f64(SimdLevel::Scalar, &a, &b);
            assert!((scalar - want).abs() <= bound, "n={n} got={scalar} want={want}");
            let avx2 = dot_f64(SimdLevel::Avx2, &a, &b);
            assert_eq!(avx2.to_bits(), scalar.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_scalar_is_the_unfused_loop() {
        let alpha = 1.37;
        let src = pseudo(1001, 7);
        let orig = pseudo(1001, 9);
        let mut d = orig.clone();
        axpy_f64(SimdLevel::Scalar, &mut d, &src, alpha);
        for i in 0..src.len() {
            assert_eq!(d[i].to_bits(), (orig[i] + alpha * src[i]).to_bits(), "i={i}");
        }
    }

    #[test]
    fn axpy_avx2_within_input_rounding_per_element() {
        if !SimdLevel::avx2_supported() {
            return;
        }
        let alpha = -0.73;
        let src = pseudo(517, 11);
        let orig = pseudo(517, 13);
        let mut d0 = orig.clone();
        let mut d1 = orig.clone();
        axpy_f64(SimdLevel::Scalar, &mut d0, &src, alpha);
        axpy_f64(SimdLevel::Avx2, &mut d1, &src, alpha);
        for i in 0..src.len() {
            // One fused rounding vs two: the absolute gap is bounded by a
            // rounding of the product `alpha*src` plus a rounding of the
            // result. (A per-result ULP bound would be wrong: when
            // `d ≈ -alpha*s` cancellation shrinks the result, not the gap.)
            let p = (alpha * src[i]).abs();
            let bound = f64::EPSILON * (p + d0[i].abs()) + f64::MIN_POSITIVE;
            assert!((d0[i] - d1[i]).abs() <= bound, "i={i} x={} y={}", d0[i], d1[i]);
        }
    }

    #[test]
    fn packed_gemm_matches_naive_edge_sizes() {
        // Exercise ragged tiles in both dimensions and multi-panel k.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (4, 8, 16),
            (5, 9, 17),
            (67, 130, 70),
            (12, 12, 300), // crosses the KC=256 panel boundary
        ] {
            let a = pseudo(m * k, 21);
            let b = pseudo(k * n, 22);
            let mut want = vec![0.0f64; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0;
                    for kk in 0..k {
                        s += a[i * k + kk] * b[kk * n + j];
                    }
                    want[i * n + j] = s;
                }
            }
            let mag: f64 = a.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
            for lvl in SimdLevel::available() {
                let mut c = vec![0.0f64; m * n];
                gemm_packed_f64(lvl, m, n, k, 1.0, &a, k, 1, &b, n, 1, &mut c, n, 1);
                for (got, w) in c.iter().zip(&want) {
                    assert!(
                        (got - w).abs() <= (k as f64) * f64::EPSILON * mag,
                        "m={m} n={n} k={k} level={} got={got} want={w}",
                        lvl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn packed_gemm_strided_column_major_output() {
        let (m, n, k) = (10usize, 11usize, 6usize);
        let a = pseudo(m * k, 31); // row-major m×k
        let b = pseudo(k * n, 32); // row-major k×n
        for lvl in SimdLevel::available() {
            let mut c = vec![0.0f64; m * n]; // column-major: (i,j) at j*m+i
            gemm_packed_f64(lvl, m, n, k, 2.0, &a, k, 1, &b, n, 1, &mut c, 1, m);
            for i in 0..m {
                for j in 0..n {
                    let want: f64 =
                        2.0 * (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum::<f64>();
                    assert!((c[j * m + i] - want).abs() < 1e-12, "({i},{j}) level={}", lvl.name());
                }
            }
        }
    }
}
