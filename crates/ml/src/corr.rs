//! Pairwise Pearson correlation (paper §4.1) in one fused pass.

use flashr_core::fm::FM;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// Pearson correlation matrix of the columns of `x` (population
/// covariance normalization, like the paper's one-pass formulation).
///
/// A single fused pass computes the column sums and the Gramian `XᵀX`;
/// the p×p reduction then happens in memory:
/// `corr[i][j] = (G/n − μμᵀ)[i][j] / (σᵢ σⱼ)`.
pub fn correlation(ctx: &FlashCtx, x: &FM) -> Dense {
    let n = x.nrow() as f64;
    let p = x.ncol() as usize;
    let sums = x.col_sums();
    let gram = x.crossprod();
    let out = FM::materialize_multi(ctx, &[&sums, &gram]);
    let sums = out[0].to_dense(ctx);
    let gram = out[1].to_dense(ctx);

    let mu: Vec<f64> = (0..p).map(|j| sums.at(0, j) / n).collect();
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
            let cov = gram.at(i, j) / n - mu[i] * mu[j];
            (cov / (sd[i] * sd[j])).clamp(-1.0, 1.0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 128, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    #[test]
    fn diagonal_is_one() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 3000, 4, 1.0, 2.0, 3);
        let c = correlation(&ctx, &x);
        for i in 0..4 {
            assert!((c.at(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn independent_columns_are_uncorrelated() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 50_000, 3, 0.0, 1.0, 11);
        let c = correlation(&ctx, &x);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(c.at(i, j).abs() < 0.03, "corr({i},{j})={}", c.at(i, j));
                }
            }
        }
    }

    #[test]
    fn perfectly_correlated_columns() {
        let ctx = ctx();
        let a = FM::seq(1000, 0.0, 1.0);
        let b = &(&a * 2.0) + 3.0; // perfectly correlated
        let c = &(&a * -1.0) + 5.0; // perfectly anti-correlated
        let x = FM::cbind(&[&a, &b, &c]);
        let m = correlation(&ctx, &x);
        assert!((m.at(0, 1) - 1.0).abs() < 1e-9);
        assert!((m.at(0, 2) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn matches_naive_computation() {
        let ctx = ctx();
        let x = FM::runif(&ctx, 500, 3, -1.0, 1.0, 9);
        let c = correlation(&ctx, &x);
        let d = x.to_dense(&ctx);
        let n = 500.0;
        for i in 0..3 {
            for j in 0..3 {
                let (mut si, mut sj, mut sij, mut sii, mut sjj) = (0.0, 0.0, 0.0, 0.0, 0.0);
                for r in 0..500 {
                    let a = d.at(r, i);
                    let b = d.at(r, j);
                    si += a;
                    sj += b;
                    sij += a * b;
                    sii += a * a;
                    sjj += b * b;
                }
                let cov = sij / n - si / n * (sj / n);
                let sd = ((sii / n - (si / n) * (si / n)) * (sjj / n - (sj / n) * (sj / n))).sqrt();
                assert!((c.at(i, j) - cov / sd).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn single_pass_execution() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 2000, 4, 0.0, 1.0, 1);
        let before = ctx.stats().snapshot();
        let _ = correlation(&ctx, &x);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    }
}
