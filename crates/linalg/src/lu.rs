//! LU factorization with partial pivoting, general solves and determinants.

use crate::dense::Dense;

/// Packed LU factors plus the pivot vector; see [`lu_factor`].
pub type LuFactors = (Dense, Vec<usize>, f64);

/// Factor `A = P L U`, returning the packed factors (unit-lower L below
/// the diagonal, U on and above), the pivot permutation and the sign of
/// the permutation. Returns `None` for singular matrices.
pub fn lu_factor(a: &Dense) -> Option<LuFactors> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    for col in 0..n {
        // Pick the pivot.
        let mut best = col;
        let mut best_val = lu.at(col, col).abs();
        for r in col + 1..n {
            let v = lu.at(r, col).abs();
            if v > best_val {
                best = r;
                best_val = v;
            }
        }
        if best_val == 0.0 || !best_val.is_finite() {
            return None;
        }
        if best != col {
            for c in 0..n {
                let tmp = lu.at(col, c);
                lu.set(col, c, lu.at(best, c));
                lu.set(best, c, tmp);
            }
            piv.swap(col, best);
            sign = -sign;
        }
        let pivot = lu.at(col, col);
        for r in col + 1..n {
            let factor = lu.at(r, col) / pivot;
            lu.set(r, col, factor);
            if factor == 0.0 {
                continue;
            }
            for c in col + 1..n {
                let v = lu.at(r, c) - factor * lu.at(col, c);
                lu.set(r, c, v);
            }
        }
    }
    Some((lu, piv, sign))
}

/// Solve `A X = B` given the packed factors from [`lu_factor`].
pub fn lu_solve(factors: &LuFactors, b: &Dense) -> Dense {
    let (lu, piv, _) = factors;
    let n = lu.rows();
    assert_eq!(b.rows(), n, "rhs row mismatch");
    let m = b.cols();
    // Apply the permutation to B.
    let mut x = Dense::zeros(n, m);
    for (dst, &src) in piv.iter().enumerate() {
        for j in 0..m {
            x.set(dst, j, b.at(src, j));
        }
    }
    // Forward solve with unit-lower L.
    for i in 0..n {
        for k in 0..i {
            let lik = lu.at(i, k);
            if lik == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = x.at(i, j) - lik * x.at(k, j);
                x.set(i, j, v);
            }
        }
    }
    // Back solve with U.
    for i in (0..n).rev() {
        for k in i + 1..n {
            let uik = lu.at(i, k);
            if uik == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = x.at(i, j) - uik * x.at(k, j);
                x.set(i, j, v);
            }
        }
        let d = lu.at(i, i);
        for j in 0..m {
            let v = x.at(i, j) / d;
            x.set(i, j, v);
        }
    }
    x
}

/// Determinant via LU. Returns 0 for singular matrices.
pub fn lu_det(a: &Dense) -> f64 {
    match lu_factor(a) {
        Some((lu, _, sign)) => sign * (0..a.rows()).map(|i| lu.at(i, i)).product::<f64>(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn pseudo(n: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        Dense::from_fn(n, n, |_, _| rng.f64(-1.0..1.0))
    }

    #[test]
    fn solve_roundtrip() {
        for n in [1usize, 3, 8, 25] {
            let a = pseudo(n, n as u64 + 100);
            let x0 = Dense::from_fn(n, 2, |r, c| r as f64 * 0.3 - c as f64);
            let b = matmul(&a, &x0);
            let f = lu_factor(&a).expect("random matrix should be nonsingular");
            let x = lu_solve(&f, &b);
            assert!(x.max_abs_diff(&x0) < 1e-7, "n={n}");
        }
    }

    #[test]
    fn det_of_known_matrices() {
        assert!((lu_det(&Dense::eye(4)) - 1.0).abs() < 1e-12);
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((lu_det(&m) + 2.0).abs() < 1e-12);
        let sing = Dense::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(lu_det(&sing), 0.0);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Dense::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = lu_factor(&a).unwrap();
        let b = Dense::from_vec(2, 1, vec![3.0, 5.0]);
        let x = lu_solve(&f, &b);
        assert!((x.at(0, 0) - 5.0).abs() < 1e-12);
        assert!((x.at(1, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let sing = Dense::from_vec(3, 3, vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 1.0, 1.0]);
        assert!(lu_factor(&sing).is_none());
    }
}
