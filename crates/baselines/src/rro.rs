//! "Revolution R Open-like" execution (paper §4.3, Figure 8).
//!
//! Revolution R Open parallelizes matrix multiplication through Intel MKL
//! and *nothing else*; all other R evaluation stays single-threaded. This
//! module reimplements the Figure 8 computations in that model: dense
//! in-memory matrices, single-threaded element-wise/aggregation loops,
//! and parallel GEMM (our `linalg::par` kernel standing in for MKL).

use flashr_core::chunk::BufPool;
use flashr_core::gen::GenSpec;
use flashr_linalg::{chol_solve, cholesky, eigen_sym, gemm, Dense, SimdLevel};

/// Parallel-BLAS `t(X) %*% X` (the one operation RRO parallelizes).
pub fn rro_crossprod(x: &Dense) -> Dense {
    let mut g = Dense::zeros(x.cols(), x.cols());
    gemm(1.0, x, true, x, false, 0.0, &mut g);
    g
}

/// Single-threaded standard-normal matrix (R's `rnorm` is sequential),
/// generated column-major in one chunk and laid out row-major.
pub fn rro_rnorm(n: usize, p: usize, seed: u64) -> Dense {
    let spec = GenSpec::Rnorm { seed, mean: 0.0, sd: 1.0 };
    let chunk = spec.fill_chunk(SimdLevel::active(), 0, n, p, &mut BufPool::new());
    let z = chunk.slice::<f64>();
    Dense::from_fn(n, p, |r, c| z[c * n + r])
}

/// MASS `mvrnorm` in the RRO model: sequential rnorm + eigen, parallel
/// GEMM for the p×p transform.
pub fn rro_mvrnorm(n: usize, mu: &[f64], sigma: &Dense, seed: u64) -> Dense {
    let p = mu.len();
    let eig = eigen_sym(sigma);
    let mut vd = eig.vectors.clone();
    for r in 0..p {
        for c in 0..p {
            let v = vd.at(r, c) * eig.values[c].max(0.0).sqrt();
            vd.set(r, c, v);
        }
    }
    let mut b = Dense::zeros(p, p);
    gemm(1.0, &vd, false, &eig.vectors, true, 0.0, &mut b);
    let z = rro_rnorm(n, p, seed);
    let mut x = Dense::zeros(n, p);
    gemm(1.0, &z, false, &b, false, 0.0, &mut x);
    // Single-threaded mean shift (element-wise stays sequential in RRO).
    for chunk in x.as_mut_slice().chunks_mut(p) {
        for (v, m) in chunk.iter_mut().zip(mu) {
            *v += m;
        }
    }
    x
}

/// Pearson correlation in the RRO model: BLAS Gramian, sequential rest.
pub fn rro_correlation(x: &Dense) -> Dense {
    let n = x.rows() as f64;
    let p = x.cols();
    let gram = rro_crossprod(x);
    let mut mu = vec![0.0; p];
    for r in 0..x.rows() {
        for (m, v) in mu.iter_mut().zip(x.row(r)) {
            *m += v;
        }
    }
    for m in &mut mu {
        *m /= n;
    }
    let sd: Vec<f64> =
        (0..p).map(|j| (gram.at(j, j) / n - mu[j] * mu[j]).max(0.0).sqrt()).collect();
    Dense::from_fn(p, p, |i, j| {
        if sd[i] == 0.0 || sd[j] == 0.0 {
            if i == j {
                1.0
            } else {
                f64::NAN
            }
        } else {
            ((gram.at(i, j) / n - mu[i] * mu[j]) / (sd[i] * sd[j])).clamp(-1.0, 1.0)
        }
    })
}

/// Fitted RRO-model LDA (same quantities as `flashr_ml::lda`).
pub struct RroLda {
    pub means: Dense,
    pub priors: Vec<f64>,
    pub cov: Dense,
    pub coef: Dense,
    pub intercepts: Vec<f64>,
}

/// MASS `lda` in the RRO model: sequential groupby, BLAS Gramian.
pub fn rro_lda(x: &Dense, y: &[f64], k: usize) -> RroLda {
    let n = x.rows();
    let p = x.cols();
    assert_eq!(y.len(), n);
    let gram = rro_crossprod(x);

    // Sequential per-class sums and counts.
    let mut sums = Dense::zeros(k, p);
    let mut counts = vec![0.0f64; k];
    for (r, &label) in y.iter().enumerate().take(n) {
        let g = label as usize;
        counts[g] += 1.0;
        for (j, v) in x.row(r).iter().enumerate() {
            let cur = sums.at(g, j);
            sums.set(g, j, cur + v);
        }
    }
    let means = Dense::from_fn(k, p, |g, j| sums.at(g, j) / counts[g].max(1.0));
    let priors: Vec<f64> = counts.iter().map(|c| c / n as f64).collect();

    let mut cov = gram;
    for (g, &count) in counts.iter().enumerate() {
        for i in 0..p {
            for j in 0..p {
                let v = cov.at(i, j) - count * means.at(g, i) * means.at(g, j);
                cov.set(i, j, v);
            }
        }
    }
    let denom = (n as f64 - k as f64).max(1.0);
    for i in 0..p {
        for j in 0..p {
            let v = cov.at(i, j) / denom + if i == j { 1e-9 } else { 0.0 };
            cov.set(i, j, v);
        }
    }
    let l = cholesky(&cov).expect("within covariance must be PD");
    let coef = chol_solve(&l, &means.transpose());
    let intercepts: Vec<f64> = (0..k)
        .map(|g| {
            let mut quad = 0.0;
            for j in 0..p {
                quad += means.at(g, j) * coef.at(j, g);
            }
            -0.5 * quad + priors[g].max(1e-300).ln()
        })
        .collect();
    RroLda { means, priors, cov, coef, intercepts }
}

impl RroLda {
    /// Sequential prediction (scores via BLAS, argmax sequential).
    pub fn predict(&self, x: &Dense) -> Vec<f64> {
        let k = self.intercepts.len();
        let mut scores = Dense::zeros(x.rows(), k);
        gemm(1.0, x, false, &self.coef, false, 0.0, &mut scores);
        (0..x.rows())
            .map(|r| {
                let mut best = 0usize;
                let mut best_v = f64::NEG_INFINITY;
                for c in 0..k {
                    let v = scores.at(r, c) + self.intercepts[c];
                    if v > best_v {
                        best_v = v;
                        best = c;
                    }
                }
                best as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_core::fm::FM;
    use flashr_core::session::{CtxConfig, FlashCtx};

    fn ctx() -> FlashCtx {
        FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None)
    }

    #[test]
    fn rro_crossprod_matches_fm() {
        let ctx = ctx();
        let xf = FM::rnorm(&ctx, 1000, 3, 0.0, 1.0, 4);
        let xd = xf.to_dense(&ctx);
        let a = rro_crossprod(&xd);
        let b = xf.crossprod().to_dense(&ctx);
        assert!(a.max_abs_diff(&b) < 1e-8);
    }

    #[test]
    fn rro_correlation_matches_fm() {
        let ctx = ctx();
        let xf = FM::rnorm(&ctx, 2000, 3, 2.0, 1.5, 9);
        let xd = xf.to_dense(&ctx);
        let a = rro_correlation(&xd);
        let b = flashr_ml::correlation(&ctx, &xf);
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn rro_mvrnorm_matches_fm_mvrnorm_exactly() {
        let ctx = ctx();
        let sigma = Dense::from_vec(2, 2, vec![2.0, 0.5, 0.5, 1.0]);
        let mu = [1.0, -1.0];
        // Same seed and same counter-based generator → identical samples.
        let a = rro_mvrnorm(500, &mu, &sigma, 11);
        let b = flashr_ml::mvrnorm(&ctx, 500, &mu, &sigma, 11).to_dense(&ctx);
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn rro_lda_matches_fm_lda() {
        let ctx = ctx();
        let n = 4000u64;
        let labels =
            FM::seq(n, 0.0, 1.0).binary_scalar(flashr_core::ops::BinaryOp::Rem, 2.0, false);
        let x = FM::rnorm(&ctx, n, 3, 0.0, 1.0, 19).binary(
            flashr_core::ops::BinaryOp::Add,
            &(&labels.cast(flashr_core::DType::F64) * 4.0),
            false,
        );
        let fm_model = flashr_ml::lda(&ctx, &x, &labels, 2);
        let rro_model = rro_lda(&x.to_dense(&ctx), &labels.to_vec(&ctx), 2);
        assert!(fm_model.means.max_abs_diff(&rro_model.means) < 1e-9);
        assert!(fm_model.cov.max_abs_diff(&rro_model.cov) < 1e-7);
        assert!(fm_model.coef.max_abs_diff(&rro_model.coef) < 1e-7);
    }
}
