//! Shared helpers for the ML algorithms.

use flashr_core::fm::FM;
use flashr_core::mat::ReadAhead;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;
use std::collections::BTreeMap;

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

/// Extract a set of rows as dense vectors, reading each I/O partition at
/// most once when the matrix is materialized: the touched partitions are
/// read in partition order through a [`ReadAhead`] window, so an
/// external-memory matrix keeps `dispatch_batch` reads in flight (and as
/// many partitions resident) instead of one.
pub fn sample_rows(ctx: &FlashCtx, x: &FM, rows: &[u64]) -> Vec<Vec<f64>> {
    let p = x.ncol() as usize;
    if let Some(mat) = x.leaf_mat_opt() {
        let parter = mat.parter();
        let mut by_part: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, &r) in rows.iter().enumerate() {
            by_part.entry(r / parter.rows_per_part()).or_default().push(i);
        }
        let mut out = vec![Vec::new(); rows.len()];
        let mut pool = flashr_core::chunk::BufPool::new();
        let depth = ctx.safs().map_or(0, |s| s.dispatch_batch().saturating_sub(1));
        let mut window = ReadAhead::new(by_part.keys().copied(), depth);
        while let Some((part, fetch)) = window.claim(|part| mat.fetch_part(part)) {
            let buf = fetch.try_wait().unwrap_or_else(|e| {
                panic!("read of partition {part} for row sampling failed: {e}")
            });
            let part_rows = parter.part_rows(part, mat.nrows());
            let chunk = mat.pcache_chunk(&buf, part, 0, part_rows, &mut pool);
            for &i in &by_part[&part] {
                let local = (rows[i] - part * parter.rows_per_part()) as usize;
                out[i] = (0..p).map(|j| chunk.get_f64(local, j)).collect();
            }
        }
        out
    } else {
        rows.iter().map(|&r| (0..p).map(|j| x.get(ctx, r, j as u64)).collect()).collect()
    }
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
    let cands = sample_rows(ctx, x, &rows);
    let mut chosen: Vec<usize> = vec![0];
    let mut dist: Vec<f64> = cands
        .iter()
        .map(|c| c.iter().zip(&cands[0]).map(|(a, b)| (a - b) * (a - b)).sum())
        .collect();
    while chosen.len() < k {
        let (next, _) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("candidates non-empty");
        chosen.push(next);
        for (i, c) in cands.iter().enumerate() {
            let d: f64 = c.iter().zip(&cands[next]).map(|(a, b)| (a - b) * (a - b)).sum();
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
