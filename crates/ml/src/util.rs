//! Shared helpers for the ML algorithms.

use flashr_core::fm::FM;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// Fraction of rows where `pred == truth` (both n×1).
pub fn accuracy(ctx: &FlashCtx, pred: &FM, truth: &FM) -> f64 {
    assert_eq!(pred.nrow(), truth.nrow(), "prediction/label length mismatch");
    let eq = pred.cast(flashr_core::DType::F64).eq(&truth.cast(flashr_core::DType::F64));
    eq.cast(flashr_core::DType::F64).mean_all().value(ctx)
}

/// Column `c` of a dense matrix as an owned vector.
pub fn dense_col(d: &Dense, c: usize) -> Vec<f64> {
    (0..d.rows()).map(|r| d.at(r, c)).collect()
}

/// Row `r` of a dense matrix as an owned vector.
pub fn dense_row(d: &Dense, r: usize) -> Vec<f64> {
    d.row(r).to_vec()
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Pick `k` initial centers by farthest-first traversal over a hashed
/// candidate sample of rows (a cheap kmeans++-style init that avoids the
/// worst local optima of Lloyd/EM). Shared by k-means and GMM.
pub fn farthest_first_init(ctx: &FlashCtx, x: &FM, k: usize, seed: u64) -> Dense {
    let n = x.nrow();
    let p = x.ncol() as usize;
    let ncand = (k * 8).min(n as usize).max(k);
    let stride = (n / ncand as u64).max(1);
    let mut rows = Vec::with_capacity(ncand);
    for g in 0..ncand {
        let mut h = seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        rows.push((g as u64 * stride + h % stride).min(n - 1));
    }
    let sample = x.gather_rows(ctx, &rows);
    let cands: Vec<&[f64]> = (0..sample.rows()).map(|i| sample.row(i)).collect();
    let mut chosen: Vec<usize> = vec![0];
    let mut dist: Vec<f64> = cands
        .iter()
        .map(|c| c.iter().zip(cands[0]).map(|(a, b)| (a - b) * (a - b)).sum())
        .collect();
    while chosen.len() < k {
        let (next, _) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("candidates non-empty");
        chosen.push(next);
        for (i, c) in cands.iter().enumerate() {
            let d: f64 = c.iter().zip(cands[next]).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }
    Dense::from_fn(k, p, |g, j| cands[chosen[g]][j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_core::session::CtxConfig;

    #[test]
    fn accuracy_counts_matches() {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 64, ..Default::default() }, None);
        let a = FM::from_vec(&ctx, &[1.0, 0.0, 1.0, 1.0]);
        let b = FM::from_vec(&ctx, &[1.0, 1.0, 1.0, 0.0]);
        assert_eq!(accuracy(&ctx, &a, &b), 0.5);
        assert_eq!(accuracy(&ctx, &a, &a), 1.0);
    }

    #[test]
    fn small_vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        let d = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dense_col(&d, 1), vec![2.0, 4.0]);
        assert_eq!(dense_row(&d, 1), vec![3.0, 4.0]);
    }
}
