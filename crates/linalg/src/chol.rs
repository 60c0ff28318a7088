//! Cholesky factorization and SPD solves.
//!
//! Used by `mvrnorm` (sampling), GMM (per-component precision and
//! log-determinant) and LDA (whitening by the pooled covariance).

use crate::dense::Dense;
use crate::tri::{solve_lower, solve_lower_transpose};

/// Lower-triangular Cholesky factor `L` with `L L^T = A`.
///
/// Returns `None` when `A` is not (numerically) positive definite.
pub fn cholesky(a: &Dense) -> Option<Dense> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    let mut l = Dense::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.at(i, j);
            for k in 0..j {
                sum -= l.at(i, k) * l.at(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l.set(i, i, sum.sqrt());
            } else {
                l.set(i, j, sum / l.at(j, j));
            }
        }
    }
    Some(l)
}

/// Solve `A X = B` for SPD `A` via its Cholesky factor.
pub fn chol_solve(l: &Dense, b: &Dense) -> Dense {
    let y = solve_lower(l, b);
    solve_lower_transpose(l, &y)
}

/// Inverse of SPD `A` from its Cholesky factor.
pub fn chol_inverse(l: &Dense) -> Dense {
    chol_solve(l, &Dense::eye(l.rows()))
}

/// `log det A` from the Cholesky factor of `A`.
pub fn chol_logdet(l: &Dense) -> f64 {
    (0..l.rows()).map(|i| l.at(i, i).ln()).sum::<f64>() * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, matmul};
    use crate::syrk::syrk;

    fn spd(n: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        let b = Dense::from_fn(n + 3, n, |_, _| rng.f64(-1.0..1.0));
        let mut g = syrk(&b);
        for i in 0..n {
            let v = g.at(i, i);
            g.set(i, i, v + 0.5);
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1usize, 2, 5, 20, 64] {
            let a = spd(n, n as u64);
            let l = cholesky(&a).expect("SPD must factor");
            let mut llt = Dense::zeros(n, n);
            gemm(1.0, &l, false, &l, true, 0.0, &mut llt);
            assert!(llt.max_abs_diff(&a) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn solve_and_inverse() {
        let a = spd(8, 9);
        let l = cholesky(&a).unwrap();
        let x0 = Dense::from_fn(8, 2, |r, c| (r as f64 + 1.0) * (c as f64 - 0.5));
        let b = matmul(&a, &x0);
        let x = chol_solve(&l, &b);
        assert!(x.max_abs_diff(&x0) < 1e-8);

        let inv = chol_inverse(&l);
        let prod = matmul(&a, &inv);
        assert!(prod.max_abs_diff(&Dense::eye(8)) < 1e-8);
    }

    #[test]
    fn logdet_matches_lu() {
        let a = spd(6, 17);
        let l = cholesky(&a).unwrap();
        let (lu, _, sign) = crate::lu::lu_factor(&a).unwrap();
        let det: f64 = sign * (0..6).map(|i| lu.at(i, i)).product::<f64>();
        assert!((chol_logdet(&l) - det.ln()).abs() < 1e-8);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Dense::eye(3);
        a.set(2, 2, -1.0);
        assert!(cholesky(&a).is_none());
    }
}
