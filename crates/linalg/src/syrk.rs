//! Symmetric rank-k update: the `crossprod` kernel.

use crate::dense::Dense;
use crate::gemm::gemm;

/// `C = A^T A` for a (possibly tall) row-major `A`: [`gemm`] of `Aᵀ` and
/// `A`, so every term is included and `Inf · 0` is `NaN`, as in R's
/// `crossprod`.
///
/// This is the in-memory reference kernel; the FlashR engine computes the
/// same quantity out-of-core as an aggregation sink across I/O partitions.
pub fn syrk(a: &Dense) -> Dense {
    let p = a.cols();
    let mut c = Dense::zeros(p, p);
    gemm(1.0, a, true, a, false, 0.0, &mut c);
    // `(i, j)` and `(j, i)` are one fold when one route computes both, but
    // a row panel of fewer than four rows takes `gemm`'s strided loop:
    // mirror the upper triangle so the result is symmetric to the bit.
    for i in 0..p {
        for j in 0..i {
            c.set(i, j, c.at(j, i));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(r: usize, c: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        Dense::from_fn(r, c, |_, _| rng.f64(-1.0..1.0))
    }

    #[test]
    fn matches_gemm() {
        // Within the reassociation bound `m · ε · Σ|a_ri · a_rj|` of a
        // left-to-right fold, and the very bits of `gemm` above the
        // diagonal.
        for &(m, n) in &[(1usize, 1usize), (10, 3), (700, 17), (1025, 8), (300, 67)] {
            let a = &pseudo(m, n, 5);
            let s = syrk(a);
            let mut g = Dense::zeros(n, n);
            gemm(1.0, a, true, a, false, 0.0, &mut g);
            let col = |c: usize| (0..m).map(move |r| a.at(r, c));
            for i in 0..n {
                for j in i..n {
                    let want = col(i).zip(col(j)).fold(0.0, |acc, (x, y)| acc + x * y);
                    let mag: f64 = col(i).zip(col(j)).map(|(x, y)| (x * y).abs()).sum();
                    let bound = m as f64 * f64::EPSILON * mag;
                    assert!((s.at(i, j) - want).abs() <= bound, "m={m} n={n} ({i}, {j})");
                    assert_eq!(
                        s.at(i, j).to_bits(),
                        g.at(i, j).to_bits(),
                        "m={m} n={n} ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn result_is_symmetric_and_psd_diag() {
        // 40 columns run the tile; 67 leave `gemm` a 3-row panel for its
        // strided loop.
        for (m, p) in [(200usize, 6usize), (700, 40), (300, 67)] {
            let a = pseudo(m, p, 77);
            let s = syrk(&a);
            for i in 0..p {
                assert!(s.at(i, i) >= 0.0);
                for j in 0..p {
                    assert_eq!(s.at(i, j).to_bits(), s.at(j, i).to_bits(), "p={p} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn inf_times_zero_is_nan() {
        // As R's `crossprod(matrix(c(0, 1, Inf, 1), 2))`: column 0 meets
        // Inf in row 0 with a 0, so that term is NaN.
        let a = Dense::from_vec(2, 2, vec![0.0, f64::INFINITY, 1.0, 1.0]);
        let s = syrk(&a);
        assert_eq!(s.at(0, 0), 1.0);
        assert!(s.at(0, 1).is_nan() && s.at(1, 0).is_nan());
        assert_eq!(s.at(1, 1), f64::INFINITY);
    }
}
