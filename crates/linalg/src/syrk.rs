//! Symmetric rank-k update: the `crossprod` kernel.

use crate::dense::Dense;
use crate::par;
use crate::simd::{axpy_f64, SimdLevel};

/// `C = A^T A` for a (possibly tall) row-major `A`, exploiting symmetry.
///
/// This is the in-memory reference kernel; the FlashR engine computes the
/// same quantity out-of-core as an aggregation sink across I/O partitions
/// and only uses this for per-partition panels.
pub fn syrk(a: &Dense) -> Dense {
    let n = a.cols();
    let m = a.rows();
    // Accumulate per row-panel in parallel, then reduce.
    let level = SimdLevel::active();
    let panel = 512usize;
    let partials: Vec<Vec<f64>> = par::map_range(m.div_ceil(panel), |p| {
        let r0 = p * panel;
        let r1 = (r0 + panel).min(m);
        let mut acc = vec![0.0f64; n * n];
        for r in r0..r1 {
            let row = a.row(r);
            for i in 0..n {
                let v = row[i];
                if v == 0.0 {
                    continue;
                }
                let dst = &mut acc[i * n..(i + 1) * n];
                // Upper triangle only: dst[i..n] += v * row[i..n].
                axpy_f64(level, &mut dst[i..], &row[i..], v);
            }
        }
        acc
    });
    let mut c = vec![0.0f64; n * n];
    for part in partials {
        for (cv, pv) in c.iter_mut().zip(part) {
            *cv += pv;
        }
    }
    // Mirror to the lower triangle.
    for i in 0..n {
        for j in 0..i {
            c[i * n + j] = c[j * n + i];
        }
    }
    Dense::from_vec(n, n, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn pseudo(r: usize, c: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        Dense::from_fn(r, c, |_, _| rng.f64(-1.0..1.0))
    }

    #[test]
    fn matches_gemm() {
        for &(m, n) in &[(1usize, 1usize), (10, 3), (700, 17), (1025, 8)] {
            let a = pseudo(m, n, 5);
            let s = syrk(&a);
            let mut want = Dense::zeros(n, n);
            gemm(1.0, &a, true, &a, false, 0.0, &mut want);
            assert!(s.max_abs_diff(&want) < 1e-9, "m={m} n={n}");
        }
    }

    #[test]
    fn result_is_symmetric_and_psd_diag() {
        let a = pseudo(200, 6, 77);
        let s = syrk(&a);
        for i in 0..6 {
            assert!(s.at(i, i) >= 0.0);
            for j in 0..6 {
                assert_eq!(s.at(i, j), s.at(j, i));
            }
        }
    }
}
