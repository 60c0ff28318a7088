//! In-memory parallel sparse × dense multiplication.

use crate::csr::CsrMatrix;
use flashr_linalg::{par, Dense};

/// `C = A · B` with sparse `A` (n×m) and dense `B` (m×k), parallel over
/// row panels of `A` (row results are disjoint, so no synchronization).
pub fn spmm(a: &CsrMatrix, b: &Dense) -> Dense {
    assert_eq!(a.ncols(), b.rows(), "inner dimension mismatch");
    let n = a.nrows();
    let k = b.cols();
    let mut c = Dense::zeros(n, k);
    par::for_each_chunk_mut(c.as_mut_slice(), k, |r, crow| {
        let (cols, vals) = a.row(r);
        for (&col, &v) in cols.iter().zip(vals) {
            let brow = b.row(col as usize);
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += v * bv;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_linalg::matmul;

    #[test]
    fn matches_dense_reference() {
        let a = CsrMatrix::random(200, 150, 6, 5);
        // k = 0: a zero-width product is a 200 × 0 result, not a panic.
        for k in [4, 0] {
            let b = Dense::from_fn(150, k, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
            let got = spmm(&a, &b);
            assert_eq!((got.rows(), got.cols()), (200, k));
            let want = matmul(&a.to_dense(), &b);
            assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }

    #[test]
    fn identity_sparse_is_noop() {
        let triplets: Vec<(usize, usize, f64)> = (0..10).map(|i| (i, i, 1.0)).collect();
        let i = CsrMatrix::from_triplets(10, 10, &triplets);
        let b = Dense::from_fn(10, 3, |r, c| (r + c) as f64);
        let c = spmm(&i, &b);
        assert_eq!(c.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn empty_rows_produce_zeros() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0)]);
        let b = Dense::filled(3, 2, 1.0);
        let c = spmm(&a, &b);
        assert_eq!(c.at(0, 0), 2.0);
        assert_eq!(c.at(1, 0), 0.0);
        assert_eq!(c.at(2, 1), 0.0);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::random(5, 5, 2, 1);
        let b = Dense::zeros(6, 2);
        let _ = spmm(&a, &b);
    }
}
