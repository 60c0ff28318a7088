//! Linear regression with an optional ridge penalty, via the normal
//! equations: one fused pass builds `XᵀX` and `Xᵀy`; the p×p solve is
//! in-memory Cholesky — the same Gramian-sink pattern as PCA (§4.1).

use flashr_core::fm::FM;
use flashr_core::session::FlashCtx;
use flashr_linalg::{chol_solve, cholesky, Dense};

/// Fitted linear model.
#[derive(Debug, Clone)]
pub struct RidgeModel {
    /// Feature weights (length p).
    pub weights: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// The penalty used.
    pub lambda: f64,
}

/// Fit `y ≈ X w + b` minimizing `‖y − Xw − b‖² + λ‖w‖²`.
///
/// One fused pass computes `XᵀX`, `Xᵀy`, `colSums(X)` and `sum(y)`; the
/// centered normal equations are then p×p work in memory.
pub fn ridge_regression(ctx: &FlashCtx, x: &FM, y: &FM, lambda: f64) -> RidgeModel {
    assert!(lambda >= 0.0, "lambda must be nonnegative");
    let n = x.nrow() as f64;
    let p = x.ncol() as usize;
    let out = FM::materialize_multi(
        ctx,
        &[&x.crossprod(), &x.crossprod_with(y), &x.col_sums(), &y.sum()],
    );
    let xtx = out[0].to_dense(ctx);
    let xty = out[1].to_dense(ctx);
    let xs = out[2].to_dense(ctx);
    let ys = out[3].value(ctx);

    let xbar: Vec<f64> = (0..p).map(|j| xs.at(0, j) / n).collect();
    let ybar = ys / n;
    // Centered system: (XᵀX − n x̄x̄ᵀ + λI) w = Xᵀy − n x̄ ȳ.
    let a = Dense::from_fn(p, p, |i, j| {
        xtx.at(i, j) - n * xbar[i] * xbar[j] + if i == j { lambda } else { 0.0 }
    });
    let b = Dense::from_fn(p, 1, |i, _| xty.at(i, 0) - n * xbar[i] * ybar);
    let l = cholesky(&a).expect("ridge system must be positive definite (raise lambda)");
    let w = chol_solve(&l, &b);
    let weights: Vec<f64> = (0..p).map(|i| w.at(i, 0)).collect();
    let intercept = ybar - weights.iter().zip(&xbar).map(|(wi, xi)| wi * xi).sum::<f64>();
    RidgeModel { weights, intercept, lambda }
}

impl RidgeModel {
    /// Predictions (lazy n×1).
    pub fn predict(&self, x: &FM) -> FM {
        let w = Dense::from_vec(self.weights.len(), 1, self.weights.clone());
        &x.matmul(&FM::from_dense(w)) + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r_squared, rmse};
    use flashr_core::ops::BinaryOp;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 512, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    fn linear_data(ctx: &FlashCtx, n: u64, noise: f64) -> (FM, FM) {
        let x = FM::rnorm(ctx, n, 3, 0.0, 1.0, 5);
        let w = Dense::from_vec(3, 1, vec![2.0, -1.0, 0.5]);
        let y = &x.matmul(&FM::from_dense(w)) + 4.0;
        let y = y.binary(BinaryOp::Add, &FM::rnorm(ctx, n, 1, 0.0, noise, 6), false);
        (x, y)
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let ctx = ctx();
        let (x, y) = linear_data(&ctx, 5000, 0.0);
        let m = ridge_regression(&ctx, &x, &y, 0.0);
        assert!((m.weights[0] - 2.0).abs() < 1e-8);
        assert!((m.weights[1] + 1.0).abs() < 1e-8);
        assert!((m.weights[2] - 0.5).abs() < 1e-8);
        assert!((m.intercept - 4.0).abs() < 1e-8);
        assert!(rmse(&ctx, &y, &m.predict(&x)) < 1e-8);
    }

    #[test]
    fn noisy_fit_is_near_truth_with_high_r2() {
        let ctx = ctx();
        let (x, y) = linear_data(&ctx, 20_000, 0.5);
        let m = ridge_regression(&ctx, &x, &y, 1e-6);
        assert!((m.weights[0] - 2.0).abs() < 0.02);
        let r2 = r_squared(&ctx, &y, &m.predict(&x));
        assert!(r2 > 0.94, "r2={r2}");
    }

    #[test]
    fn lambda_shrinks_weights() {
        let ctx = ctx();
        let (x, y) = linear_data(&ctx, 4000, 0.2);
        let free = ridge_regression(&ctx, &x, &y, 0.0);
        let tight = ridge_regression(&ctx, &x, &y, 1e5);
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm(&tight.weights) < 0.1 * norm(&free.weights));
    }

    #[test]
    fn training_is_single_pass() {
        let ctx = ctx();
        let (x, y) = linear_data(&ctx, 4000, 0.1);
        let (x, y) = (x.materialize(&ctx), y.materialize(&ctx));
        let before = ctx.stats().snapshot();
        let _ = ridge_regression(&ctx, &x, &y, 0.1);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    }
}
