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
//! workspace names an ISA, with four measured exceptions below.
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
//! * The gemm kernels and axpy are the exception. At `Avx2` they are
//!   hand-written FMA bodies (`avx2::tall`, the 8-row × 4-output tile
//!   behind every column-major `%*%`; `avx2::mk_4x8`, the packed route's
//!   4×8 tile; `avx2::axpy`), so `%*%` and `syrk` differ between the
//!   levels within that same bound. Both gemm routes keep one chain per
//!   output from `+0.0` per k-panel and store it once as
//!   `c += alpha · s`, so at one level they give the same bits.
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
    /// hand-written gemm, axpy and Gramian micro-kernels.
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

// ------------------------------------------------ tall-by-small product

/// k-panel depth of both gemm routes: each output's chain restarts at
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
/// lies (no packing).
///
/// Per `KC`-deep k-panel, every output `(i, j)` is one chain from `+0.0`,
/// `s += A(i, kk) · B(kk, j)` for `kk` ascending — fused at `Avx2`
/// (`avx2::tall`, 8-row × 4-output register tiles), mul then add at
/// `Scalar` — and is stored once as `c += alpha · s`: the association of
/// the packed route, so a product gives the same bits whichever route
/// or tile shape computes it. Every term is included, so `Inf · 0` is
/// `NaN` as in R.
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

// -------------------------------------------------- packed gemm kernel

/// Register tile height (rows of A per micro-kernel).
pub const MR: usize = 4;
/// Register tile width (columns of B per micro-kernel).
pub const NR: usize = 8;
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

// The only `std::arch` in the workspace: the four kernels where a
// measurement says the hand-written body pays. A portable 8 × 4 tall
// tile with `f64::mul_add` compiled under `avx2,fma` runs GMM's
// 436 × 32 · 32 × 32 chunk at 9–11 GFLOP/s, against 17–20 for `tall`
// (one core of a 2-CPU x86-64 host, medians of five). On a 256³ product
// `mk_4x8_lanes` compiled under `avx2,fma` reaches 9–13 GFLOP/s as
// written and 7.6–7.7 with `f64::mul_add` (LLVM emits 32 scalar
// `vfmadd231sd` per k-step and spills the accumulators), against 18–26
// for `mk_4x8`; the plain axpy loop compiled the same way runs `syrk` on
// a 16 384×40 panel at 0.82× of `axpy` (7.5 against 9.1 GFLOP/s, medians
// of ten alternating runs, lower in every one). A portable 2 × 2 Gramian
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
    /// output column stored once as `c + alpha · s` (mul, then add — the
    /// packed route's writeback).
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
