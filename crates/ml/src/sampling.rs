//! `mvrnorm` — multivariate normal sampling, MASS-style (paper §4.1 runs
//! the MASS implementation through FlashR).
//!
//! MASS draws through an eigendecomposition of the covariance:
//! `X = μ + Z V diag(√λ) Vᵀ` with `Z ~ N(0, I)`. The tall part is a lazy
//! `rnorm` followed by one tall×small multiply, so the whole sample is a
//! DAG that materializes in a single pass.

use flashr_core::fm::FM;
use flashr_core::ops::BinaryOp;
use flashr_core::session::FlashCtx;
use flashr_linalg::{eigen_sym, gemm, Dense};

/// Draw `n` samples from `N(mu, sigma)` as a lazy n×p matrix.
pub fn mvrnorm(ctx: &FlashCtx, n: u64, mu: &[f64], sigma: &Dense, seed: u64) -> FM {
    let p = mu.len();
    assert_eq!(sigma.rows(), p, "covariance shape mismatch");
    assert_eq!(sigma.cols(), p, "covariance must be square");
    let eig = eigen_sym(sigma);
    for &v in &eig.values {
        assert!(v > -1e-8 * eig.values[0].abs().max(1.0), "covariance is not PSD");
    }
    // B = V diag(√λ) Vᵀ (the symmetric square root, as MASS composes it).
    let mut vd = eig.vectors.clone();
    for r in 0..p {
        for c in 0..p {
            let v = vd.at(r, c) * eig.values[c].max(0.0).sqrt();
            vd.set(r, c, v);
        }
    }
    let mut b = Dense::zeros(p, p);
    gemm(1.0, &vd, false, &eig.vectors, true, 0.0, &mut b);

    let z = FM::rnorm(ctx, n, p, 0.0, 1.0, seed);
    z.matmul(&FM::from_dense(b)).sweep_cols(mu, BinaryOp::Add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 1024, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    #[test]
    fn marginal_moments_match() {
        let ctx = ctx();
        let sigma = Dense::from_vec(2, 2, vec![4.0, 1.5, 1.5, 1.0]);
        let mu = [10.0, -5.0];
        let x = mvrnorm(&ctx, 60_000, &mu, &sigma, 42);
        let means = x.col_means().to_vec(&ctx);
        assert!((means[0] - 10.0).abs() < 0.05, "mean0 {}", means[0]);
        assert!((means[1] + 5.0).abs() < 0.03, "mean1 {}", means[1]);
    }

    #[test]
    fn covariance_structure_matches() {
        let ctx = ctx();
        let sigma = Dense::from_vec(2, 2, vec![4.0, 1.5, 1.5, 1.0]);
        let x = mvrnorm(&ctx, 80_000, &[0.0, 0.0], &sigma, 7);
        let n = 80_000.0;
        let out = FM::materialize_multi(&ctx, &[&x.crossprod(), &x.col_sums()]);
        let g = out[0].to_dense(&ctx);
        let s = out[1].to_dense(&ctx);
        for i in 0..2 {
            for j in 0..2 {
                let cov = g.at(i, j) / n - s.at(0, i) / n * (s.at(0, j) / n);
                assert!((cov - sigma.at(i, j)).abs() < 0.06, "cov({i},{j}) = {cov}");
            }
        }
    }

    #[test]
    fn degenerate_covariance_collapses_direction() {
        let ctx = ctx();
        // Rank-1 covariance: all mass along (1, 1).
        let sigma = Dense::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let x = mvrnorm(&ctx, 10_000, &[0.0, 0.0], &sigma, 3);
        // x0 − x1 must be (numerically) zero for every sample.
        let diff = x.col(0).binary(BinaryOp::Sub, &x.col(1), false).abs().max_all().value(&ctx);
        assert!(diff < 1e-9, "rank-1 structure broken: {diff}");
    }

    #[test]
    fn sampling_is_lazy_until_materialized() {
        let ctx = ctx();
        let sigma = Dense::eye(3);
        let before = ctx.stats().snapshot();
        let x = mvrnorm(&ctx, 5000, &[0.0; 3], &sigma, 1);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 0, "must be lazy");
        let _ = x.col_means().to_vec(&ctx);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_non_psd() {
        let ctx = ctx();
        let sigma = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, -1.0]);
        let _ = mvrnorm(&ctx, 10, &[0.0, 0.0], &sigma, 1);
    }
}
