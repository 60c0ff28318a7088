//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA in the paper is "eigenvalues on the Gramian matrix AᵀA" (§4.1); the
//! Gramian is p×p (small), so a robust O(p³)-per-sweep Jacobi is the right
//! tool. MASS's `mvrnorm` also draws samples through an eigendecomposition
//! of the covariance, which is why this lives in the shared kernel crate.

use crate::dense::Dense;

/// Result of [`eigen_sym`]: eigenvalues in descending order with matching
/// eigenvector columns.
#[derive(Debug, Clone)]
pub struct EigenSym {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Column `i` of `vectors` is the eigenvector for `values[i]`.
    pub vectors: Dense,
}

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
///
/// Converges quadratically; we sweep until the off-diagonal Frobenius mass
/// falls below `1e-12 * ||A||_F` or 64 sweeps, whichever first.
pub fn eigen_sym(a: &Dense) -> EigenSym {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    let mut m = a.clone();
    // Symmetrize defensively (callers pass Gramians that may carry
    // rounding asymmetry from parallel reductions).
    for i in 0..n {
        for j in 0..i {
            let s = 0.5 * (m.at(i, j) + m.at(j, i));
            m.set(i, j, s);
            m.set(j, i, s);
        }
    }
    let mut v = Dense::eye(n);

    let norm: f64 = m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
    let tol = (norm * 1e-14).max(f64::MIN_POSITIVE);

    for _sweep in 0..64 {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m.at(i, j) * m.at(i, j);
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.at(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.at(p, p);
                let aqq = m.at(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation to rows/cols p and q of M.
                for k in 0..n {
                    let mkp = m.at(k, p);
                    let mkq = m.at(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.at(p, k);
                    let mqk = m.at(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate the eigenvectors.
                for k in 0..n {
                    let vkp = v.at(k, p);
                    let vkq = v.at(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    // Sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m.at(j, j).partial_cmp(&m.at(i, i)).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| m.at(i, i)).collect();
    let vectors = Dense::from_fn(n, n, |r, c| v.at(r, order[c]));
    EigenSym { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, matmul};
    use crate::syrk::syrk;

    fn sym(n: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        let b = Dense::from_fn(n, n, |_, _| rng.f64(-1.0..1.0));
        Dense::from_fn(n, n, |r, c| 0.5 * (b.at(r, c) + b.at(c, r)))
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let mut a = Dense::zeros(3, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, -1.0);
        a.set(2, 2, 7.0);
        let e = eigen_sym(&a);
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_holds() {
        for n in [2usize, 5, 17, 40] {
            let a = sym(n, n as u64 * 3 + 1);
            let e = eigen_sym(&a);
            // V diag(w) V^T == A
            let mut vd = e.vectors.clone();
            for r in 0..n {
                for c in 0..n {
                    let v = vd.at(r, c) * e.values[c];
                    vd.set(r, c, v);
                }
            }
            let mut rec = Dense::zeros(n, n);
            gemm(1.0, &vd, false, &e.vectors, true, 0.0, &mut rec);
            assert!(rec.max_abs_diff(&a) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn vectors_are_orthonormal() {
        let a = sym(12, 99);
        let e = eigen_sym(&a);
        let mut vtv = Dense::zeros(12, 12);
        gemm(1.0, &e.vectors, true, &e.vectors, false, 0.0, &mut vtv);
        assert!(vtv.max_abs_diff(&Dense::eye(12)) < 1e-9);
    }

    #[test]
    fn gramian_eigenvalues_are_nonnegative_and_sorted() {
        let mut rng = flashr_testkit::Rng::new(5);
        let b = Dense::from_fn(50, 8, |_, _| rng.f64(-1.0..1.0));
        let g = syrk(&b);
        let e = eigen_sym(&g);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
        assert!(*e.values.last().unwrap() > -1e-9);
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let a = sym(6, 31);
        let e = eigen_sym(&a);
        // A v_0 == w_0 v_0
        let v0 = Dense::from_fn(6, 1, |r, _| e.vectors.at(r, 0));
        let av = matmul(&a, &v0);
        for r in 0..6 {
            assert!((av.at(r, 0) - e.values[0] * v0.at(r, 0)).abs() < 1e-8);
        }
    }
}
