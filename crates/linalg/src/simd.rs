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
//! * The Gramian sink's 2 × 2 register tile (`avx2::tile_2x2`) is
//!   hand-written at `Avx2` but keeps that rule: a product is rounded,
//!   then added — never an FMA — and every output folds its lanes as
//!   [`dot_f64`] does, so `crossprod` gives the same bits at both levels.
//! * The gemm tile is the exception. At `Avx2` it is a hand-written FMA
//!   body (`avx2::tall`, the 8-row × 4-output tile behind `syrk` and
//!   every `%*%` but small row-major ones), so those differ between the
//!   levels within that same bound. It keeps one chain per output from `+0.0` per k-panel and
//!   stores it once as `c += alpha · s`, so at one level a product gets
//!   the same bits whichever layout or operand order reaches the tile.
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
    /// hand-written gemm and Gramian micro-kernels.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name, stamped into pass profiles and the bench
    /// `host` section.
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

// ------------------------------------------------------ dot and Gramian

/// `sum_i a[i] * b[i]` over `min(len)` elements: eight lane partials
/// break the FP-add dependency chain, folded in a fixed order. The 1 × 1
/// instance of [`gramian_f64`]'s fold.
pub fn dot_f64(level: SimdLevel, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    at_level(
        level,
        #[inline(always)]
        || dot_lanes(&a[..n], &b[..n]),
    )
}

/// `acc += Aᵀ B` over one column-major block of `rows` rows: `a` holds
/// `p` columns, `b` holds `k` (`None`: `b` is `a`, and only the upper
/// triangle is computed, each off-diagonal value added at `(i, j)` and
/// `(j, i)`). `acc` is `p × k`, row-major.
///
/// At `Avx2` outputs are computed in 2 × 2 tiles (`avx2::tile_2x2`), a
/// ragged last row or column of them one at a time; at `Scalar` every
/// output is one at a time, row by row (SSE2's 16 registers cannot hold
/// a tile's 32 lane partials). Every output `(i, j)` folds exactly as
/// [`dot_f64`] of columns `i` and `j` does, then `acc[i·k + j] += s`: the
/// same bits at both levels and for any block height.
pub fn gramian_f64(level: SimdLevel, rows: usize, a: &[f64], b: Option<&[f64]>, acc: &mut [f64]) {
    if rows == 0 {
        return;
    }
    let p = a.len() / rows;
    let (b, k, sym) = match b {
        Some(b) => (b, b.len() / rows, false),
        None => (a, p, true),
    };
    assert_eq!(acc.len(), p * k, "gramian accumulator is not p × k");
    let vex = level.vex();
    let tile = if vex { 2 } else { 1 };
    let col = |c: usize| c * rows..(c + 1) * rows;
    let mut add = |i: usize, j: usize, s: f64| {
        // A diagonal tile's `(i + 1, i)` is the mirror of its `(i, i + 1)`.
        if !sym || i <= j {
            acc[i * k + j] += s;
            if sym && i != j {
                acc[j * k + i] += s;
            }
        }
    };
    at_level(
        level,
        #[inline(always)]
        || {
            for i in (0..p).step_by(tile) {
                let mi = tile.min(p - i);
                let mut j = if sym { i } else { 0 };
                while j < k {
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    if vex && mi == 2 && j + 2 <= k {
                        // SAFETY: `vex` is `level.vex()`, which saw
                        // `SimdLevel::avx2_supported()`; all four columns
                        // are `rows` long.
                        let s = unsafe {
                            avx2::tile_2x2(
                                [&a[col(i)], &a[col(i + 1)]],
                                [&b[col(j)], &b[col(j + 1)]],
                            )
                        };
                        for (di, row) in s.iter().enumerate() {
                            for (dj, &v) in row.iter().enumerate() {
                                add(i + di, j + dj, v);
                            }
                        }
                        j += 2;
                        continue;
                    }
                    for ii in i..i + mi {
                        add(ii, j, dot_lanes(&a[col(ii)], &b[col(j)]));
                    }
                    j += 1;
                }
            }
        },
    );
}

/// The portable lane body, one output: `lanes[l] += a[8c + l] * b[8c + l]`
/// over the full 8-row blocks — each product rounded, then the add;
/// never a fused multiply-add — then [`fold_lanes`].
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
    fold_lanes(lanes, ca.remainder(), cb.remainder())
}

/// Finish one output: `s = +0.0`, add lanes 0 to 7 in order, then the
/// tail rows' products in ascending order. Every Gramian output and
/// every [`dot_f64`] ends here.
#[inline(always)]
fn fold_lanes(lanes: [f64; 8], a_tail: &[f64], b_tail: &[f64]) -> f64 {
    let mut s = 0.0;
    for l in lanes {
        s += l;
    }
    for (x, y) in a_tail.iter().zip(b_tail) {
        s += x * y;
    }
    s
}

// ------------------------------------------------ tall-by-small product

/// k-panel depth of the gemm tile: each output's chain restarts at
/// `+0.0` every `KC` terms and is added into `C` per panel.
const KC: usize = 256;

/// A column-major `m × k` view `A` (`(i, kk)` at `a[i + kk·csa]`) and a
/// strided `k × n` view `B` (`(kk, j)` at `b[kk·rsb + j·csb]`), narrowed
/// to one k-panel by [`gemm_tall_f64`].
struct Tall<'a> {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &'a [f64],
    csa: usize,
    b: &'a [f64],
    rsb: usize,
    csb: usize,
}

impl Tall<'_> {
    /// `B(kk, j)`, unchecked: a bounds check per broadcast costs the
    /// tiles a third of their speed.
    ///
    /// # Safety
    /// `kk < k` and `j < n`; [`gemm_tall_f64`] asserted that `b` spans
    /// `k × n`.
    #[inline(always)]
    unsafe fn b(&self, kk: usize, j: usize) -> f64 {
        *self.b.get_unchecked(kk * self.rsb + j * self.csb)
    }
}

/// `C += alpha · A · B` for a column-major `A` (`m × k`, `(i, kk)` at
/// `a[i + kk·csa]`) and `C` (`m × n`, `(i, j)` at `c[i + j·csc]`) and any
/// strided `B` (`(kk, j)` at `b[kk·rsb + j·csb]`): the tall-by-small
/// product the executor runs on every Pcache chunk, reading `A` where it
/// lies (no packing). A row-major product comes here as its transpose.
///
/// Per `KC`-deep k-panel, every output `(i, j)` is one chain from `+0.0`,
/// `s += A(i, kk) · B(kk, j)` for `kk` ascending — fused at `Avx2`
/// (`avx2::tall`, 8-row × 4-output register tiles), mul then add at
/// `Scalar` — and is stored once as `c += alpha · s`, so a product gives
/// the same bits whichever tile shape computes it, and its transpose the
/// same bits as it. Every term is included, so `Inf · 0` is `NaN` as in
/// R.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tall_f64(
    level: SimdLevel,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    csa: usize,
    b: &[f64],
    rsb: usize,
    csb: usize,
    c: &mut [f64],
    csc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    // The AVX2 tiles read and write through raw pointers: these bound
    // every address they form.
    assert!((k - 1) * csa + m <= a.len(), "A is shorter than m × k");
    assert!((k - 1) * rsb + (n - 1) * csb < b.len(), "B is shorter than k × n");
    assert!((n - 1) * csc + m <= c.len(), "C is shorter than m × n");
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let panel =
            Tall { m, n, k: kc, alpha, a: &a[k0 * csa..], csa, b: &b[k0 * rsb..], rsb, csb };
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if level.vex() {
            // SAFETY: `vex()` on the line above saw
            // `SimdLevel::avx2_supported()`; the asserts above bound every
            // element of the panel and of `C` the tiles touch.
            unsafe { avx2::tall(&panel, c.as_mut_ptr(), csc) };
            k0 += kc;
            continue;
        }
        tall_lanes(&panel, c, csc);
        k0 += kc;
    }
}

/// The portable route for one k-panel, sized for SSE2's sixteen
/// registers: 4-row × 4-output tiles, then the `n % 4` outputs in 8-row
/// strips, each ragged edge one element at a time.
fn tall_lanes(t: &Tall, c: &mut [f64], csc: usize) {
    let (body_m, body_n) = (t.m - t.m % 4, t.n - t.n % 4);
    for r0 in (0..body_m).step_by(4) {
        for j0 in (0..body_n).step_by(4) {
            tall_tile::<4, 4>(t, (r0, j0), c, csc);
        }
    }
    for r in body_m..t.m {
        for j in 0..body_n {
            tall_tile::<1, 1>(t, (r, j), c, csc);
        }
    }
    let strip_m = t.m - t.m % 8;
    for j in body_n..t.n {
        for r0 in (0..strip_m).step_by(8) {
            tall_tile::<8, 1>(t, (r0, j), c, csc);
        }
        for r in strip_m..t.m {
            tall_tile::<1, 1>(t, (r, j), c, csc);
        }
    }
}

/// One `M`-row × `N`-output portable tile: `M · N` chains in registers
/// across the panel, each product rounded, then added; `C` written once.
#[inline(always)]
fn tall_tile<const M: usize, const N: usize>(
    t: &Tall,
    (r0, j0): (usize, usize),
    c: &mut [f64],
    csc: usize,
) {
    let mut acc = [[0.0f64; M]; N];
    for kk in 0..t.k {
        let x: &[f64; M] = t.a[kk * t.csa + r0..][..M].try_into().expect("M rows");
        for (jj, s) in acc.iter_mut().enumerate() {
            // SAFETY: the callers in `tall_lanes` keep `j0 + jj < n`.
            let bv = unsafe { t.b(kk, j0 + jj) };
            for (s, xv) in s.iter_mut().zip(x) {
                *s += xv * bv;
            }
        }
    }
    for (jj, s) in acc.iter().enumerate() {
        for (cv, s) in c[(j0 + jj) * csc + r0..][..M].iter_mut().zip(s) {
            *cv += t.alpha * s;
        }
    }
}

// ------------------------------------------- the hand-written exception

// The only `std::arch` in the workspace: the two kernels where a
// measurement says the hand-written body pays. A portable 8 × 4 tall
// tile with `f64::mul_add` compiled under `avx2,fma` runs GMM's
// 436 × 32 · 32 × 32 chunk at 9–11 GFLOP/s, against 17–20 for `tall`
// (one core of a 2-CPU x86-64 host, medians of five). A portable 2 × 2 Gramian
// tile (a const-generic `[[[f64; 8]; 2]; 2]` lane body) compiled under
// `avx2` runs the 819-row 40 × 40 crossprod chunk at 6.2–6.5 GFLOP/s of
// computed flops, slower than one `dot_f64` per output (7.5–8.0 in the
// same runs). `tile_2x2` holds its eight lane vectors in `ymm` registers
// and reaches a median of 16.2 against 8.0 (14.1–17.6 against 6.0–9.9;
// one core of a 2-CPU x86-64 host, five runs).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The 2 × 2 Gramian tile: outputs `(i, j)` of `a_i · b_j` for
    /// `i, j < 2`, eight lane partials each in two `__m256d` halves, so
    /// eight independent add chains. A product is rounded, then added
    /// (`mul` then `add`, never an FMA): lane for lane the portable
    /// `dot_lanes`, finished by the same `fold_lanes`.
    ///
    /// # Safety
    /// The CPU has avx2; the four columns have one length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_2x2(a: [&[f64]; 2], b: [&[f64]; 2]) -> [[f64; 2]; 2] {
        let full = a[0].len() / 8 * 8;
        let (pa, pb) = (a.map(<[f64]>::as_ptr), b.map(<[f64]>::as_ptr));
        let mut acc = [[[_mm256_setzero_pd(); 2]; 2]; 2];
        let mut r = 0;
        while r < full {
            let load = |p: *const f64| [_mm256_loadu_pd(p.add(r)), _mm256_loadu_pd(p.add(r + 4))];
            let (xa, xb) = (pa.map(load), pb.map(load));
            for (acc_i, xa_i) in acc.iter_mut().zip(&xa) {
                for (acc_ij, xb_j) in acc_i.iter_mut().zip(&xb) {
                    for h in 0..2 {
                        acc_ij[h] = _mm256_add_pd(acc_ij[h], _mm256_mul_pd(xa_i[h], xb_j[h]));
                    }
                }
            }
            r += 8;
        }
        let mut out = [[0.0f64; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                let mut lanes = [0.0f64; 8];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc[i][j][0]);
                _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc[i][j][1]);
                out[i][j] = super::fold_lanes(lanes, &a[i][full..], &b[j][full..]);
            }
        }
        out
    }

    /// [`super::gemm_tall_f64`]'s AVX2 route for one k-panel: 8-row ×
    /// 4-output tiles (eight `__m256d` chains, one FMA each per k step),
    /// the `n % 4` outputs in 32-row then 4-row strips of one output, the
    /// ragged rows one element at a time with `mul_add`.
    ///
    /// # Safety
    /// The CPU has avx2 and fma; `c + i + j·csc` is in bounds for every
    /// `i < t.m`, `j < t.n`, and the panel's `a` and `b` for every
    /// element of `A` and `B` it spans.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tall(t: &super::Tall, c: *mut f64, csc: usize) {
        let (body_m, body_n) = (t.m - t.m % 8, t.n - t.n % 4);
        for r0 in (0..body_m).step_by(8) {
            for j0 in (0..body_n).step_by(4) {
                tile::<2, 4>(t, (r0, j0), c, csc);
            }
        }
        for r in body_m..t.m {
            for j in 0..body_n {
                one(t, (r, j), c, csc);
            }
        }
        let (strip_m, quad_m) = (t.m - t.m % 32, t.m - t.m % 4);
        for j in body_n..t.n {
            for r0 in (0..strip_m).step_by(32) {
                tile::<8, 1>(t, (r0, j), c, csc);
            }
            for r0 in (strip_m..quad_m).step_by(4) {
                tile::<1, 1>(t, (r0, j), c, csc);
            }
            for r in quad_m..t.m {
                one(t, (r, j), c, csc);
            }
        }
    }

    /// `4·V` rows × `N` outputs: `V · N` `__m256d` chains from `+0.0`,
    /// `s = fma(A(i, kk), B(kk, j), s)` for `kk` ascending, then each
    /// output column stored once as `c + alpha · s` (mul, then add, as
    /// the portable tile and `one` store).
    ///
    /// # Safety
    /// As [`tall`], for rows `r0..r0 + 4·V` and outputs `j0..j0 + N`,
    /// which must lie inside the panel's `m × n`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile<const V: usize, const N: usize>(
        t: &super::Tall,
        (r0, j0): (usize, usize),
        c: *mut f64,
        csc: usize,
    ) {
        let (csa, rsb, csb) = (t.csa, t.rsb, t.csb);
        let a = t.a.as_ptr().add(r0);
        let b = t.b.as_ptr().add(j0 * csb);
        let mut acc = [[_mm256_setzero_pd(); V]; N];
        for kk in 0..t.k {
            let (col, bk) = (a.add(kk * csa), b.add(kk * rsb));
            let mut x = [_mm256_setzero_pd(); V];
            for (v, x) in x.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(col.add(4 * v));
            }
            for (jj, s) in acc.iter_mut().enumerate() {
                let bv = _mm256_broadcast_sd(&*bk.add(jj * csb));
                for (s, &xv) in s.iter_mut().zip(&x) {
                    *s = _mm256_fmadd_pd(xv, bv, *s);
                }
            }
        }
        let va = _mm256_set1_pd(t.alpha);
        for (jj, s) in acc.iter().enumerate() {
            let cj = c.add((j0 + jj) * csc + r0);
            for (v, &s) in s.iter().enumerate() {
                let p = cj.add(4 * v);
                _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(va, s)));
            }
        }
    }

    /// One output element: the same chain as a tile lane, as `mul_add`.
    ///
    /// # Safety
    /// As [`tall`], for an element `(r, j)` inside the panel's `m × n`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn one(t: &super::Tall, (r, j): (usize, usize), c: *mut f64, csc: usize) {
        let mut s = 0.0f64;
        for kk in 0..t.k {
            s = t.a[r + kk * t.csa].mul_add(t.b(kk, j), s);
        }
        *c.add(j * csc + r) += t.alpha * s;
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

    /// The Gramian's contract, written out per output: eight lane
    /// partials over full 8-row blocks, mul then add, lanes folded in
    /// order from `+0.0`, then the tail rows.
    fn textbook_dot(a: &[f64], b: &[f64]) -> f64 {
        let full = a.len() / 8 * 8;
        let mut lanes = [0.0f64; 8];
        for r in 0..full {
            lanes[r % 8] += a[r] * b[r];
        }
        let mut s = 0.0;
        for l in lanes {
            s += l;
        }
        for r in full..a.len() {
            s += a[r] * b[r];
        }
        s
    }

    #[test]
    fn gramian_tile_is_the_per_output_dot_bit_for_bit() {
        let shapes = [
            (1, 1, false),
            (2, 2, false),
            (3, 5, false),
            (10, 32, false),
            (40, 1, false),
            (40, 40, true),
            (33, 33, true),
        ];
        for rows in [0usize, 1, 7, 8, 9, 17, 819] {
            for (p, k, sym) in shapes {
                let a = pseudo(rows * p, 41);
                let b = if sym { a.clone() } else { pseudo(rows * k, 43) };
                let start = pseudo(p * k, 47);
                let col = |x: &[f64], c: usize| x[c * rows..(c + 1) * rows].to_vec();
                let want: Vec<u64> = (0..p * k)
                    .map(|o| (start[o] + textbook_dot(&col(&a, o / k), &col(&b, o % k))).to_bits())
                    .collect();
                for lvl in SimdLevel::available() {
                    let mut acc = start.clone();
                    gramian_f64(lvl, rows, &a, (!sym).then_some(&b[..]), &mut acc);
                    let got: Vec<u64> = acc.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "rows={rows} p={p} k={k} sym={sym} level={}", lvl.name());
                }
            }
        }
    }

    /// `gemm_tall_f64`'s contract, written out per output: per `KC`
    /// panel one chain from `+0.0`, fused at `Avx2`, mul then add at
    /// `Scalar`, then `c += alpha · s`.
    #[allow(clippy::too_many_arguments)]
    fn textbook_tall(
        vex: bool,
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        for j in 0..n {
            for i in 0..m {
                for k0 in (0..k).step_by(KC) {
                    let mut s = 0.0f64;
                    for kk in k0..(k0 + KC).min(k) {
                        let (x, y) = (a[i + kk * m], b[kk * n + j]);
                        s = if vex { x.mul_add(y, s) } else { s + x * y };
                    }
                    c[i + j * m] += alpha * s;
                }
            }
        }
    }

    /// Every row count either side of the 4-, 8- and 32-row blocks, every
    /// output count either side of the 4-output tile, and depths up to
    /// one across a `KC` panel. Every pair of a rows, an outputs and a
    /// depth value meets; the triples above 2²² products, which only
    /// repeat blocks, are skipped to keep the unoptimized build quick.
    #[test]
    fn tall_tile_is_the_textbook_fold_bit_for_bit() {
        let mut rng = flashr_testkit::Rng::new(0x7a11);
        for m in [0usize, 1, 7, 8, 9, 17, 436, 4097] {
            for p in [1usize, 2, 8, 32, 40, 256, 300] {
                let a = rng.vec_f64(m * p, -2.0..2.0);
                for n in [1usize, 3, 4, 5, 8, 9, 32, 33] {
                    if m * p * n > 1 << 22 {
                        continue;
                    }
                    // B row-major, as the executor hands it over.
                    let b = rng.vec_f64(p * n, -2.0..2.0);
                    let start = rng.vec_f64(m * n, -1.0..1.0);
                    let alpha = if n % 2 == 0 { 1.0 } else { -0.75 };
                    for lvl in SimdLevel::available() {
                        let mut want = start.clone();
                        textbook_tall(lvl.vex(), (m, n, p), alpha, &a, &b, &mut want);
                        let mut got = start.clone();
                        gemm_tall_f64(lvl, m, n, p, alpha, &a, m, &b, n, 1, &mut got, m);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert!(bits(&got) == bits(&want), "{m}x{p} by {p}x{n} at {}", lvl.name());
                    }
                }
            }
        }
    }
}
