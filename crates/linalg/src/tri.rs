//! Triangular solves against multiple right-hand sides.

use crate::dense::Dense;

/// Solve `L X = B` for lower-triangular `L` (forward substitution).
pub fn solve_lower(l: &Dense, b: &Dense) -> Dense {
    let n = l.rows();
    assert_eq!(l.cols(), n, "L must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    let m = b.cols();
    let mut x = b.clone();
    for i in 0..n {
        let (above, below) = x.as_mut_slice().split_at_mut(i * m);
        let xrow = &mut below[..m];
        for k in 0..i {
            let lik = l.at(i, k);
            if lik == 0.0 {
                continue;
            }
            let xk = &above[k * m..(k + 1) * m];
            for j in 0..m {
                xrow[j] -= lik * xk[j];
            }
        }
        let d = l.at(i, i);
        assert!(d != 0.0, "singular triangular matrix at {i}");
        for v in xrow.iter_mut() {
            *v /= d;
        }
    }
    x
}

/// Solve `L^T X = B` for lower-triangular `L` (back substitution on Lᵀ).
pub fn solve_lower_transpose(l: &Dense, b: &Dense) -> Dense {
    let n = l.rows();
    assert_eq!(l.cols(), n, "L must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    let m = b.cols();
    let mut x = b.clone();
    for i in (0..n).rev() {
        // Row i of L^T is column i of L: entries l[k][i] for k >= i.
        for k in i + 1..n {
            let lki = l.at(k, i);
            if lki == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = x.at(k, j);
                let cur = x.at(i, j);
                x.set(i, j, cur - lki * v);
            }
        }
        let d = l.at(i, i);
        assert!(d != 0.0, "singular triangular matrix at {i}");
        for j in 0..m {
            let cur = x.at(i, j);
            x.set(i, j, cur / d);
        }
    }
    x
}

/// Solve `U X = B` for upper-triangular `U` (back substitution).
pub fn solve_upper(u: &Dense, b: &Dense) -> Dense {
    let n = u.rows();
    assert_eq!(u.cols(), n, "U must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    let m = b.cols();
    let mut x = b.clone();
    for i in (0..n).rev() {
        for k in i + 1..n {
            let uik = u.at(i, k);
            if uik == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = x.at(k, j);
                let cur = x.at(i, j);
                x.set(i, j, cur - uik * v);
            }
        }
        let d = u.at(i, i);
        assert!(d != 0.0, "singular triangular matrix at {i}");
        for j in 0..m {
            let cur = x.at(i, j);
            x.set(i, j, cur / d);
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn lower(n: usize, seed: u64) -> Dense {
        let mut rng = flashr_testkit::Rng::new(seed);
        Dense::from_fn(n, n, |r, c| {
            let v = rng.f64(-1.0..1.0);
            if r == c {
                2.0 + v.abs()
            } else if r > c {
                v
            } else {
                0.0
            }
        })
    }

    #[test]
    fn forward_substitution_roundtrip() {
        let l = lower(6, 1);
        let x0 = Dense::from_fn(6, 3, |r, c| (r + 2 * c) as f64 * 0.25 - 1.0);
        let b = matmul(&l, &x0);
        let x = solve_lower(&l, &b);
        assert!(x.max_abs_diff(&x0) < 1e-10);
    }

    #[test]
    fn transpose_substitution_roundtrip() {
        let l = lower(5, 2);
        let x0 = Dense::from_fn(5, 2, |r, c| (r as f64 - c as f64) * 0.5);
        let b = matmul(&l.transpose(), &x0);
        let x = solve_lower_transpose(&l, &b);
        assert!(x.max_abs_diff(&x0) < 1e-10);
    }

    #[test]
    fn upper_substitution_roundtrip() {
        let u = lower(7, 3).transpose();
        let x0 = Dense::from_fn(7, 1, |r, _| r as f64 + 0.5);
        let b = matmul(&u, &x0);
        let x = solve_upper(&u, &b);
        assert!(x.max_abs_diff(&x0) < 1e-10);
    }

    #[test]
    #[should_panic]
    fn singular_panics() {
        let mut l = lower(3, 4);
        l.set(1, 1, 0.0);
        let b = Dense::zeros(3, 1);
        let _ = solve_lower(&l, &b);
    }
}
