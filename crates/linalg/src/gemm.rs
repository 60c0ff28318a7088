//! Cache-blocked general matrix multiplication.
//!
//! Two entry points:
//!
//! * [`gemm`] / [`matmul`] on [`Dense`] — parallel over row panels ([`par`]);
//!   used for in-memory p×p and p×k work (the role ATLAS plays in the
//!   paper).
//! * [`gemm_strided`] on raw strided buffers — single-threaded, used inside
//!   the FlashR executor where parallelism already comes from dispatching
//!   I/O partitions to threads; the strides let it consume partition
//!   buffers in either row- or column-major layout without copies.

use crate::dense::Dense;
use crate::par;
use crate::simd::{self, SimdLevel};

/// Panel size along the k dimension; 64×8-byte elements keep a k-panel of
/// A and B inside L1.
const KC: usize = 256;
/// Row-panel height processed per [`par`] chunk.
const MC: usize = 64;

/// `C = alpha * op(A) * op(B) + beta * C` where `op` is optional transpose.
pub fn gemm(alpha: f64, a: &Dense, ta: bool, b: &Dense, tb: bool, beta: f64, c: &mut Dense) {
    let (m, ka) = if ta { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
    let (kb, n) = if tb { (b.cols(), b.rows()) } else { (b.rows(), b.cols()) };
    assert_eq!(ka, kb, "inner dimensions disagree: {ka} vs {kb}");
    assert_eq!(c.rows(), m, "C row count mismatch");
    assert_eq!(c.cols(), n, "C col count mismatch");
    let k = ka;

    // Strides for op(A) and op(B) over the row-major storage.
    let (rsa, csa) = if ta { (1, a.cols()) } else { (a.cols(), 1) };
    let (rsb, csb) = if tb { (1, b.cols()) } else { (b.cols(), 1) };
    let adata = a.as_slice();
    let bdata = b.as_slice();
    let ncols = c.cols();

    par::for_each_chunk_mut(c.as_mut_slice(), MC * ncols, |chunk_idx, cchunk| {
        let r0 = chunk_idx * MC;
        let rows_here = cchunk.len() / ncols;
        gemm_strided(
            rows_here,
            n,
            k,
            alpha,
            &adata[r0 * rsa..],
            rsa,
            csa,
            bdata,
            rsb,
            csb,
            beta,
            cchunk,
            ncols,
            1,
        );
    });
}

/// `A * B` as a fresh matrix.
pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    let mut c = Dense::zeros(a.rows(), b.cols());
    gemm(1.0, a, false, b, false, 0.0, &mut c);
    c
}

/// Strided single-threaded GEMM:
/// `C[i*rsc + j*csc] = alpha * sum_k A[i*rsa + k*csa] * B[k*rsb + j*csb] + beta * C[..]`.
///
/// `m`, `n`, `k` are the logical dimensions. Buffers must be large enough
/// for the strided access pattern; this is checked with debug assertions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided(
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
    beta: f64,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    gemm_strided_level(
        SimdLevel::active(),
        m,
        n,
        k,
        alpha,
        a,
        rsa,
        csa,
        b,
        rsb,
        csb,
        beta,
        c,
        rsc,
        csc,
    );
}

/// [`gemm_strided`] with an explicit SIMD dispatch level — the entry
/// point the kernel-bandwidth probe and the cross-level property tests
/// use to compare levels within one process.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided_level(
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
    beta: f64,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(m == 0 || n == 0 || (m - 1) * rsc + (n - 1) * csc < c.len());

    // Scale C by beta first.
    if beta == 0.0 {
        for i in 0..m {
            for j in 0..n {
                c[i * rsc + j * csc] = 0.0;
            }
        }
    } else if beta != 1.0 {
        for i in 0..m {
            for j in 0..n {
                c[i * rsc + j * csc] *= beta;
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }

    // Big-enough problems go through the packed register-blocked
    // micro-kernel: packing makes the inner loops stride-oblivious, so
    // the column-major partition buffers the executor hands us are as
    // fast as row-major ones.
    if m >= simd::MR && n >= simd::NR {
        simd::gemm_packed_f64(level, m, n, k, alpha, a, rsa, csa, b, rsb, csb, c, rsc, csc);
        return;
    }

    // Tall-and-skinny (n < NR) with column-major A and C: axpy whole A
    // columns into C columns — contiguous streams.
    if rsa == 1 && rsc == 1 {
        for j in 0..n {
            let cj = j * csc;
            for kk in 0..k {
                let bv = alpha * b[kk * rsb + j * csb];
                if bv == 0.0 {
                    continue;
                }
                simd::axpy_f64(level, &mut c[cj..cj + m], &a[kk * csa..kk * csa + m], bv);
            }
        }
        return;
    }

    // Small shapes: contiguous C rows and contiguous B rows get a
    // vectorizable inner loop over j.
    let fast = csc == 1 && csb == 1;
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        for i in 0..m {
            let arow = i * rsa + k0 * csa;
            if fast {
                let crow = &mut c[i * rsc..i * rsc + n];
                for kk in 0..kb {
                    let aval = alpha * a[arow + kk * csa];
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &b[(k0 + kk) * rsb..(k0 + kk) * rsb + n];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aval * bv;
                    }
                }
            } else {
                for kk in 0..kb {
                    let aval = alpha * a[arow + kk * csa];
                    if aval == 0.0 {
                        continue;
                    }
                    let boff = (k0 + kk) * rsb;
                    for j in 0..n {
                        c[i * rsc + j * csc] += aval * b[boff + j * csb];
                    }
                }
            }
        }
        k0 += kb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Dense, ta: bool, b: &Dense, tb: bool) -> Dense {
        let get_a = |i: usize, k: usize| if ta { a.at(k, i) } else { a.at(i, k) };
        let get_b = |k: usize, j: usize| if tb { b.at(j, k) } else { b.at(k, j) };
        let m = if ta { a.cols() } else { a.rows() };
        let k = if ta { a.rows() } else { a.cols() };
        let n = if tb { b.rows() } else { b.cols() };
        Dense::from_fn(m, n, |i, j| (0..k).map(|kk| get_a(i, kk) * get_b(kk, j)).sum())
    }

    fn pseudo(r: usize, c: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        Dense::from_fn(r, c, |_, _| rng.f64(-1.0..1.0))
    }

    #[test]
    fn matches_naive_all_transpose_combos() {
        // (3, 2, 0): a zero-width product is an m × 0 result, not a panic.
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 2), (17, 9, 13), (70, 33, 41), (3, 2, 0)]
        {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = if ta { pseudo(k, m, 7) } else { pseudo(m, k, 7) };
                let b = if tb { pseudo(n, k, 11) } else { pseudo(k, n, 11) };
                let mut c = Dense::zeros(m, n);
                gemm(1.0, &a, ta, &b, tb, 0.0, &mut c);
                let want = naive(&a, ta, &b, tb);
                assert!(
                    c.max_abs_diff(&want) < 1e-10,
                    "mismatch m={m} k={k} n={n} ta={ta} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = pseudo(8, 6, 3);
        let b = pseudo(6, 5, 4);
        let c0 = pseudo(8, 5, 5);
        let mut c = c0.clone();
        gemm(2.0, &a, false, &b, false, 0.5, &mut c);
        let ab = naive(&a, false, &b, false);
        let want = Dense::from_fn(8, 5, |i, j| 2.0 * ab.at(i, j) + 0.5 * c0.at(i, j));
        assert!(c.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn strided_column_major_inputs() {
        // Treat buffers as column-major: element (i,j) at j*rows + i.
        let m = 7;
        let k = 4;
        let n = 3;
        let a = pseudo(m, k, 9);
        let b = pseudo(k, n, 10);
        // Column-major copies.
        let acm: Vec<f64> = (0..m * k).map(|idx| a.at(idx % m, idx / m)).collect();
        let bcm: Vec<f64> = (0..k * n).map(|idx| b.at(idx % k, idx / k)).collect();
        let mut c = vec![0.0; m * n];
        gemm_strided(m, n, k, 1.0, &acm, 1, m, &bcm, 1, k, 0.0, &mut c, n, 1);
        let want = naive(&a, false, &b, false);
        for i in 0..m {
            for j in 0..n {
                assert!((c[i * n + j] - want.at(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn large_k_crosses_panel_boundary() {
        let a = pseudo(5, KC * 2 + 7, 21);
        let b = pseudo(KC * 2 + 7, 4, 22);
        let mut c = Dense::zeros(5, 4);
        gemm(1.0, &a, false, &b, false, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive(&a, false, &b, false)) < 1e-9);
    }

    #[test]
    fn matmul_shapes() {
        let a = pseudo(4, 6, 1);
        let b = pseudo(6, 2, 2);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (4, 2));
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Dense::zeros(3, 4);
        let b = Dense::zeros(5, 2);
        let mut c = Dense::zeros(3, 2);
        gemm(1.0, &a, false, &b, false, 0.0, &mut c);
    }
}
