//! Principal component analysis via the Gramian (paper §4.1: "We
//! implement PCA by computing eigenvalues on the Gramian matrix AᵀA").

use flashr_core::fm::FM;
use flashr_core::session::FlashCtx;
use flashr_linalg::{eigen_sym, Dense};

/// PCA result.
#[derive(Debug, Clone)]
pub struct PcaResult {
    /// Column means used for centering (length p).
    pub center: Vec<f64>,
    /// Standard deviations of the principal components (descending).
    pub sdev: Vec<f64>,
    /// p×k rotation (loadings); column `i` is the i-th component.
    pub rotation: Dense,
}

impl PcaResult {
    /// Project a tall matrix onto the first k components (lazy).
    pub fn project(&self, x: &FM) -> FM {
        x.sweep_cols(&self.center, flashr_core::ops::BinaryOp::Sub)
            .matmul(&FM::from_dense(self.rotation.clone()))
    }
}

/// PCA of the columns of `x`, keeping `ncomp` components.
///
/// One fused pass produces column sums and the Gramian; the covariance
/// `C = (XᵀX − n μμᵀ)/(n−1)` and its eigendecomposition are p×p work in
/// memory.
pub fn pca(ctx: &FlashCtx, x: &FM, ncomp: usize) -> PcaResult {
    let n = x.nrow() as f64;
    let p = x.ncol() as usize;
    assert!(ncomp >= 1 && ncomp <= p, "ncomp out of range");
    let out = FM::materialize_multi(ctx, &[&x.col_sums(), &x.crossprod()]);
    let sums = out[0].to_dense(ctx);
    let gram = out[1].to_dense(ctx);

    let center: Vec<f64> = (0..p).map(|j| sums.at(0, j) / n).collect();
    let cov = Dense::from_fn(p, p, |i, j| (gram.at(i, j) - n * center[i] * center[j]) / (n - 1.0));
    let eig = eigen_sym(&cov);

    let sdev: Vec<f64> = eig.values.iter().take(ncomp).map(|&v| v.max(0.0).sqrt()).collect();
    let rotation = Dense::from_fn(p, ncomp, |r, c| eig.vectors.at(r, c));
    PcaResult { center, sdev, rotation }
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
    fn recovers_dominant_direction() {
        let ctx = ctx();
        // Data along the (1,1)/√2 direction with small orthogonal noise.
        let t = FM::rnorm(&ctx, 5000, 1, 0.0, 3.0, 1);
        let noise = FM::rnorm(&ctx, 5000, 1, 0.0, 0.1, 2);
        let x = FM::cbind(&[&(&t + &noise), &(&t - &noise)]);
        let r = pca(&ctx, &x, 2);
        let v0 = [r.rotation.at(0, 0), r.rotation.at(1, 0)];
        let inv_sqrt2 = 1.0 / 2.0f64.sqrt();
        assert!(
            (v0[0].abs() - inv_sqrt2).abs() < 0.02 && (v0[1].abs() - inv_sqrt2).abs() < 0.02,
            "first component {v0:?} not along the diagonal"
        );
        assert!(r.sdev[0] > 10.0 * r.sdev[1], "variance not concentrated");
    }

    #[test]
    fn sdev_matches_column_variance_for_axis_aligned_data() {
        let ctx = ctx();
        let a = FM::rnorm(&ctx, 20_000, 1, 0.0, 5.0, 3);
        let b = FM::rnorm(&ctx, 20_000, 1, 0.0, 1.0, 4);
        let x = FM::cbind(&[&a, &b]);
        let r = pca(&ctx, &x, 2);
        assert!((r.sdev[0] - 5.0).abs() < 0.15, "sdev0={}", r.sdev[0]);
        assert!((r.sdev[1] - 1.0).abs() < 0.05, "sdev1={}", r.sdev[1]);
    }

    #[test]
    fn projection_decorrelates() {
        let ctx = ctx();
        let t = FM::rnorm(&ctx, 8000, 1, 2.0, 2.0, 7);
        let u = FM::rnorm(&ctx, 8000, 1, -1.0, 1.0, 8);
        let x = FM::cbind(&[&(&t + &u), &t]);
        let r = pca(&ctx, &x, 2);
        let proj = r.project(&x);
        let c = crate::corr::correlation(&ctx, &proj);
        assert!(c.at(0, 1).abs() < 0.02, "components still correlated: {}", c.at(0, 1));
    }

    #[test]
    fn centering_vector_is_column_means() {
        let ctx = ctx();
        let x = &FM::rnorm(&ctx, 4000, 3, 0.0, 1.0, 5) + 10.0;
        let r = pca(&ctx, &x, 1);
        for m in &r.center {
            assert!((m - 10.0).abs() < 0.1);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_ncomp() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 100, 2, 0.0, 1.0, 1);
        let _ = pca(&ctx, &x, 3);
    }
}
