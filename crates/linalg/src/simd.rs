//! Runtime-dispatched SIMD micro-kernels for dense f64 math.
//!
//! This is the lowest layer of the SIMD kernel stack: the dispatch
//! *level* ([`SimdLevel`], selected once per process from `FLASHR_SIMD`
//! and CPU feature detection) plus the f64 micro-kernels the linalg
//! crate and the FlashR executor share — a multi-accumulator FMA dot
//! product, a fused-multiply-add axpy, and a register-blocked packed
//! GEMM micro-kernel (4×8 f64 tile, eight `__m256d` accumulators).
//!
//! Numerics policy (documented once, relied on everywhere):
//!
//! * `Off` reproduces the pre-SIMD serial loops bit-for-bit — the
//!   reference behavior for A/B and regression hunting.
//! * `Scalar` uses fixed-width lane blocks written to autovectorize on
//!   any target. Reductions carry eight independent f64 lane partials
//!   (folded in a fixed sequential order), so results are *deterministic
//!   per level* but differ from `Off` by reassociation.
//! * `Avx2` uses explicit `std::arch` AVX2+FMA paths. Element-wise
//!   kernels only use exactly-rounded instructions and are therefore
//!   bit-identical to the scalar loops; dot/gemm use FMA and multiple
//!   accumulators, which changes rounding within a documented ULP bound
//!   (see the property tests in `flashr-core/tests/simd_levels.rs`).
//!
//! Every kernel takes the level as an explicit argument so tests and
//! benches can compare levels inside one process; production call sites
//! resolve [`SimdLevel::active`] once at kernel-compile time.

use std::sync::OnceLock;

/// SIMD dispatch level for the compute kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Historic serial loops; the bit-exact reference.
    Off = 0,
    /// Portable fixed-width lane kernels (autovectorized).
    Scalar = 1,
    /// Explicit AVX2+FMA intrinsics.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name, stamped into pass profiles, the bench
    /// `host` section, and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
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

    /// Best level this host supports.
    pub fn detect() -> SimdLevel {
        if SimdLevel::avx2_supported() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }

    /// Every level runnable on this host, lowest first.
    pub fn available() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Off, SimdLevel::Scalar];
        if SimdLevel::avx2_supported() {
            v.push(SimdLevel::Avx2);
        }
        v
    }

    /// Resolve `FLASHR_SIMD` (`off|scalar|avx2|auto`; unset = `auto`).
    /// Forcing `avx2` on a host without it warns once and falls back to
    /// `scalar` rather than executing illegal instructions.
    pub fn from_env() -> SimdLevel {
        match std::env::var("FLASHR_SIMD") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "off" | "none" | "0" => SimdLevel::Off,
                "scalar" => SimdLevel::Scalar,
                "avx2" => {
                    if SimdLevel::avx2_supported() {
                        SimdLevel::Avx2
                    } else {
                        eprintln!(
                            "flashr: FLASHR_SIMD=avx2 requested but the CPU lacks avx2+fma; \
                             falling back to scalar"
                        );
                        SimdLevel::Scalar
                    }
                }
                "auto" | "" => SimdLevel::detect(),
                other => {
                    eprintln!("flashr: unknown FLASHR_SIMD value {other:?}; using auto");
                    SimdLevel::detect()
                }
            },
            Err(_) => SimdLevel::detect(),
        }
    }

    /// Process-wide level, resolved once on first use.
    pub fn active() -> SimdLevel {
        static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
        *ACTIVE.get_or_init(SimdLevel::from_env)
    }
}

// ------------------------------------------------------------------ dot

/// `sum_i a[i] * b[i]` over `min(len)` elements.
///
/// `Off` is the serial fold the Gramian sink historically used; `Scalar`
/// breaks the FP-add dependency chain with 8 lane partials; `Avx2` runs
/// four independent FMA accumulators (16 elements in flight).
pub fn dot_f64(level: SimdLevel, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    match level {
        SimdLevel::Off => {
            let mut s = 0.0;
            for (x, y) in a.iter().zip(b) {
                s += x * y;
            }
            s
        }
        SimdLevel::Scalar => dot_lanes(a, b),
        SimdLevel::Avx2 => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if SimdLevel::avx2_supported() {
                // SAFETY: avx2+fma presence checked above.
                return unsafe { avx2::dot(a, b) };
            }
            dot_lanes(a, b)
        }
    }
}

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

/// `dst[i] += alpha * src[i]`. Element-wise (no reassociation): `Off`
/// and `Scalar` are bit-identical; `Avx2` fuses the multiply-add.
pub fn axpy_f64(level: SimdLevel, dst: &mut [f64], src: &[f64], alpha: f64) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    if level == SimdLevel::Avx2 {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if SimdLevel::avx2_supported() {
            // SAFETY: avx2+fma presence checked above.
            unsafe { avx2::axpy(dst, src, alpha) };
            return;
        }
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
    let use_avx2 = level == SimdLevel::Avx2 && SimdLevel::avx2_supported();
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
                            panel[kk * NR + jj] = if j < j0 + nc {
                                b[(k0 + kk) * rsb + j * csb]
                            } else {
                                0.0
                            };
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
                                panel[kk * MR + ii] = if i < i0 + mc {
                                    a[i * rsa + (k0 + kk) * csa]
                                } else {
                                    0.0
                                };
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
                                // SAFETY: avx2+fma checked when computing
                                // `use_avx2`; coff + strides stay inside
                                // `c` for the real (mr, nr) tile.
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
/// path, plain mul+add (autovectorizes; no FMA so `Scalar` rounding is
/// independent of FMA availability).
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

// --------------------------------------------------------- avx2 kernels

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Four independent FMA accumulators; fixed combine order so the
    /// result is deterministic for a given length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let mut t = [0.0f64; 4];
        _mm256_storeu_pd(t.as_mut_ptr(), acc);
        let mut s = ((t[0] + t[1]) + t[2]) + t[3];
        while i < n {
            s += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(dst: &mut [f64], src: &[f64], alpha: f64) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let d0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(sp.add(i)), _mm256_loadu_pd(dp.add(i)));
            let d1 = _mm256_fmadd_pd(
                va,
                _mm256_loadu_pd(sp.add(i + 4)),
                _mm256_loadu_pd(dp.add(i + 4)),
            );
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
        assert_eq!(SimdLevel::Off.name(), "off");
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert!(SimdLevel::Off < SimdLevel::Scalar && SimdLevel::Scalar < SimdLevel::Avx2);
        let avail = SimdLevel::available();
        assert!(avail.contains(&SimdLevel::Off) && avail.contains(&SimdLevel::Scalar));
        assert_eq!(avail.contains(&SimdLevel::Avx2), SimdLevel::avx2_supported());
    }

    #[test]
    fn dot_matches_serial_within_bound() {
        // Reassociation bound: |Δ| ≤ n · ε · Σ|aᵢbᵢ| (conservative; see
        // the numerics policy in the module docs).
        for n in [0usize, 1, 3, 7, 8, 15, 16, 17, 63, 64, 1000, 4097] {
            let a = pseudo(n, 3);
            let b = pseudo(n, 5);
            let want = dot_f64(SimdLevel::Off, &a, &b);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let bound = (n.max(1) as f64) * f64::EPSILON * mag + f64::MIN_POSITIVE;
            for lvl in SimdLevel::available() {
                let got = dot_f64(lvl, &a, &b);
                assert!(
                    (got - want).abs() <= bound,
                    "n={n} level={} got={got} want={want}",
                    lvl.name()
                );
            }
        }
    }

    #[test]
    fn axpy_off_and_scalar_bit_identical() {
        let src = pseudo(1001, 7);
        let mut d0 = pseudo(1001, 9);
        let mut d1 = d0.clone();
        axpy_f64(SimdLevel::Off, &mut d0, &src, 1.37);
        axpy_f64(SimdLevel::Scalar, &mut d1, &src, 1.37);
        for (x, y) in d0.iter().zip(&d1) {
            assert_eq!(x.to_bits(), y.to_bits());
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
        axpy_f64(SimdLevel::Off, &mut d0, &src, alpha);
        axpy_f64(SimdLevel::Avx2, &mut d1, &src, alpha);
        for i in 0..src.len() {
            // One fused rounding vs two: the absolute gap is bounded by a
            // rounding of the product `alpha*src` plus a rounding of the
            // result. (A per-result ULP bound would be wrong: when
            // `d ≈ -alpha*s` cancellation shrinks the result, not the gap.)
            let p = (alpha * src[i]).abs();
            let bound = f64::EPSILON * (p + d0[i].abs()) + f64::MIN_POSITIVE;
            assert!(
                (d0[i] - d1[i]).abs() <= bound,
                "i={i} x={} y={}",
                d0[i],
                d1[i]
            );
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
                if lvl == SimdLevel::Off {
                    continue; // packed path is only entered at >= Scalar
                }
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
        for lvl in SimdLevel::available().into_iter().filter(|&l| l != SimdLevel::Off) {
            let mut c = vec![0.0f64; m * n]; // column-major: (i,j) at j*m+i
            gemm_packed_f64(lvl, m, n, k, 2.0, &a, k, 1, &b, n, 1, &mut c, 1, m);
            for i in 0..m {
                for j in 0..n {
                    let want: f64 = 2.0 * (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum::<f64>();
                    assert!((c[j * m + i] - want).abs() < 1e-12, "({i},{j}) level={}", lvl.name());
                }
            }
        }
    }
}
