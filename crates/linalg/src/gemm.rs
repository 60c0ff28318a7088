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
//!
//! Both run one register tile, `simd::gemm_tall_f64`: column-major A and
//! C as they lie, row-major B and C as the column-major `Cᵀ = Bᵀ·Aᵀ`.

use crate::dense::Dense;
use crate::par;
use crate::simd::{self, SimdLevel};

/// Panel size along the k dimension; 64×8-byte elements keep a k-panel of
/// A and B inside L1.
const KC: usize = 256;
/// Row-panel height processed per [`par`] chunk.
const MC: usize = 64;
/// The smallest row-major product (`m × n`) the register tile takes.
/// Smaller ones run the strided loop, which folds `alpha` into every term
/// and adds each term to `C` — not the tile's association — so moving
/// this bound changes the bits of every product it moves.
const TILE_MIN: (usize, usize) = (4, 8);

/// `C = alpha * op(A) * op(B) + beta * C` where `op` is optional transpose.
pub fn gemm(alpha: f64, a: &Dense, ta: bool, b: &Dense, tb: bool, beta: f64, c: &mut Dense) {
    let (m, ka) = if ta { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
    let (kb, n) = if tb { (b.cols(), b.rows()) } else { (b.rows(), b.cols()) };
    assert_eq!(ka, kb, "inner dimensions disagree: {ka} vs {kb}");
    assert_eq!(c.rows(), m, "C row count mismatch");
    assert_eq!(c.cols(), n, "C col count mismatch");
    let k = ka;

    // A row-major op(B) puts every product of `TILE_MIN` or more on the
    // tile; a transposed B is copied once to get one.
    let bt = tb.then(|| b.transpose());
    let b = bt.as_ref().unwrap_or(b);
    // Strides for op(A) and B over the row-major storage.
    let (rsa, csa) = if ta { (1, a.cols()) } else { (a.cols(), 1) };
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
            n,
            1,
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

    // Scale C by beta first, walking the shorter stride innermost: a
    // column-major C written row by row touches `n` cache lines per row.
    if beta != 1.0 {
        let (outer, inner, so, si) = if rsc <= csc { (n, m, csc, rsc) } else { (m, n, rsc, csc) };
        for o in 0..outer {
            for i in 0..inner {
                let cv = &mut c[o * so + i * si];
                *cv = if beta == 0.0 { 0.0 } else { *cv * beta };
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }

    // Column-major A and C — every chunk the executor multiplies — take
    // the tall-by-small register tile, which reads A where it lies.
    if rsa == 1 && rsc == 1 {
        simd::gemm_tall_f64(level, m, n, k, alpha, a, csa, b, rsb, csb, c, csc);
        return;
    }
    // Row-major B and C — every `Dense` product — are the column-major
    // `Cᵀ = Bᵀ·Aᵀ`: the same tile with the operands swapped. A product
    // or an FMA does not depend on its operands' order, so each output
    // gets the bits the column-major route would give it.
    if csb == 1 && csc == 1 && m >= TILE_MIN.0 && n >= TILE_MIN.1 {
        simd::gemm_tall_f64(level, n, m, k, alpha, b, rsb, a, csa, rsa, c, rsc);
        return;
    }

    // Row-major products under `TILE_MIN`, and layouts with no unit-stride
    // pair: contiguous C rows and contiguous B rows get a vectorizable
    // inner loop over j.
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
                    let brow = &b[(k0 + kk) * rsb..(k0 + kk) * rsb + n];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aval * bv;
                    }
                }
            } else {
                for kk in 0..kb {
                    let aval = alpha * a[arow + kk * csa];
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
    fn inf_times_zero_is_nan_whatever_the_shape() {
        // An 8 × 2 column-major chunk with Inf at (0, 0), times a B whose
        // first row is 0: every output of row 0 is Inf · 0 + 1 = NaN, as
        // in R, at every output width and level.
        let (m, k) = (8usize, 2usize);
        let mut a = vec![1.0f64; m * k];
        a[0] = f64::INFINITY;
        for n in [1usize, 4, 8] {
            let mut b = vec![1.0f64; k * n];
            b[..n].fill(0.0);
            for level in SimdLevel::available() {
                let mut c = vec![7.0f64; m * n];
                gemm_strided_level(level, m, n, k, 1.0, &a, 1, m, &b, n, 1, 0.0, &mut c, 1, m);
                for j in 0..n {
                    assert!(c[j * m].is_nan(), "n={n} j={j} at {}", level.name());
                    assert_eq!(c[j * m + 1], 1.0, "n={n} j={j} at {}", level.name());
                }
            }
        }
    }

    #[test]
    fn inf_times_zero_is_nan_in_the_row_major_route() {
        // Row-major `Dense` A with a 0 where B holds Inf: the small-shape
        // route includes the term, so the output is NaN.
        let a = Dense::from_vec(2, 2, vec![0.0, 1.0, 1.0, 1.0]);
        let b = Dense::from_vec(2, 1, vec![f64::INFINITY, 1.0]);
        let c = matmul(&a, &b);
        assert!(c.at(0, 0).is_nan());
        assert_eq!(c.at(1, 0), f64::INFINITY);
    }

    /// Each route's contract for one output, on any strided layout, after
    /// `C` is scaled by `beta`. The tile: per `KC` panel one chain from
    /// `+0.0`, fused at `Avx2` (`vex`), mul then add at `Scalar`, then
    /// `c += alpha · s`. The strided loop: `c += (alpha · a) · b` per term.
    #[allow(clippy::too_many_arguments)]
    fn textbook(
        (tile, vex): (bool, bool),
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        (a, rsa, csa): (&[f64], usize, usize),
        (b, rsb, csb): (&[f64], usize, usize),
        beta: f64,
        (c, rsc, csc): (&mut [f64], usize, usize),
    ) {
        for i in 0..m {
            for j in 0..n {
                let cv = &mut c[i * rsc + j * csc];
                if beta != 1.0 {
                    *cv = if beta == 0.0 { 0.0 } else { *cv * beta };
                }
                let term = |kk: usize| (a[i * rsa + kk * csa], b[kk * rsb + j * csb]);
                if !tile {
                    for (x, y) in (0..k).map(term) {
                        *cv += alpha * x * y;
                    }
                    continue;
                }
                for k0 in (0..k).step_by(KC) {
                    let mut s = 0.0f64;
                    for (x, y) in (k0..(k0 + KC).min(k)).map(term) {
                        s = if vex { x.mul_add(y, s) } else { s + x * y };
                    }
                    *cv += alpha * s;
                }
            }
        }
    }

    #[test]
    fn every_route_matches_naive_edge_sizes() {
        // Ragged tiles in both dimensions, both sides of `TILE_MIN`, and
        // k across the `KC` panel boundary, in the executor's column-major
        // layout and the row-major one `gemm` passes: within the
        // reassociation bound of a left-to-right fold, and with the bits
        // of the textbook fold of the route that `TILE_MIN` picks.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (3, 8, 5),
            (4, 7, 5),
            (4, 8, 16),
            (5, 9, 17),
            (67, 130, 70),
            (12, 12, 300),
            (9, 33, 513),
        ] {
            let a = pseudo(m, k, 21).into_vec();
            let b = pseudo(k, n, 22).into_vec();
            let c0 = pseudo(m, n, 23).into_vec();
            let want = naive(
                &Dense::from_vec(m, k, a.clone()),
                false,
                &Dense::from_vec(k, n, b.clone()),
                false,
            );
            let mag: f64 = a.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
            // Column-major copies: (i, kk) at i + kk·m.
            let acm: Vec<f64> = (0..m * k).map(|x| a[(x % m) * k + x / m]).collect();
            // (name, A, rsa, csa, rsc, csc, tile route?): 4 × 8 spelled out,
            // so moving `TILE_MIN` fails here, not only in a bit diff.
            let layouts = [
                ("column-major", &acm, 1, m, 1, m, true),
                ("row-major", &a, k, 1, n, 1, m >= 4 && n >= 8),
            ];
            for (name, a, rsa, csa, rsc, csc, tile) in layouts {
                for level in SimdLevel::available() {
                    for (alpha, beta) in [(1.0, 0.0), (-0.3, 0.5)] {
                        let what = format!("{m}x{k}x{n} {name} a={alpha} at {}", level.name());
                        let mut c = vec![0.0f64; m * n];
                        for i in 0..m {
                            for j in 0..n {
                                c[i * rsc + j * csc] = c0[i * n + j];
                            }
                        }
                        let mut got = c.clone();
                        #[rustfmt::skip]
                        gemm_strided_level(
                            level, m, n, k, alpha, a, rsa, csa, &b, n, 1, beta, &mut got, rsc, csc,
                        );
                        for i in 0..m {
                            for j in 0..n {
                                let w = alpha * want.at(i, j) + beta * c0[i * n + j];
                                let g = got[i * rsc + j * csc];
                                let bound = (k as f64 + 2.0) * f64::EPSILON * (mag + 1.0);
                                assert!((g - w).abs() <= bound, "{what} ({i}, {j}): {g} vs {w}");
                            }
                        }
                        let route = (tile, level.vex());
                        #[rustfmt::skip]
                        textbook(
                            route, (m, n, k), alpha, (a, rsa, csa), (&b, n, 1), beta,
                            (&mut c, rsc, csc),
                        );
                        assert!(bits(&got) == bits(&c), "{what}: not its route's fold");
                    }
                }
            }
        }
    }

    #[test]
    fn row_major_inputs_column_major_output() {
        // No unit-stride pair for either tile route: the strided loop.
        let (m, n, k) = (10usize, 11usize, 6usize);
        let a = pseudo(m, k, 31).into_vec(); // row-major m×k
        let b = pseudo(k, n, 32).into_vec(); // row-major k×n
        for lvl in SimdLevel::available() {
            let mut c = vec![0.0f64; m * n]; // column-major: (i,j) at j*m+i
            gemm_strided_level(lvl, m, n, k, 2.0, &a, k, 1, &b, n, 1, 0.0, &mut c, 1, m);
            for i in 0..m {
                for j in 0..n {
                    let want: f64 =
                        2.0 * (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum::<f64>();
                    assert!((c[j * m + i] - want).abs() < 1e-12, "({i},{j}) level={}", lvl.name());
                }
            }
        }
    }

    #[test]
    fn transposed_b_gets_the_bits_of_its_copy() {
        for &(m, k, n) in &[(3usize, 5usize, 7usize), (4, 9, 8), (70, 33, 41), (65, 300, 12)] {
            for ta in [false, true] {
                let a = if ta { pseudo(k, m, 41) } else { pseudo(m, k, 41) };
                let bt = pseudo(n, k, 42);
                let c0 = pseudo(m, n, 43);
                let (mut got, mut want) = (c0.clone(), c0.clone());
                gemm(-0.3, &a, ta, &bt, true, 0.5, &mut got);
                gemm(-0.3, &a, ta, &bt.transpose(), false, 0.5, &mut want);
                let bits = |d: &Dense| d.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(&got) == bits(&want), "{m}x{k}x{n} ta={ta}");
            }
        }
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
