//! Linear discriminant analysis, MASS-style (paper §4.1: "the normal
//! distribution with a different mean for each class but sharing the same
//! covariance matrix").
//!
//! Training is one fused pass: the total Gramian, per-class sums and
//! counts. The pooled within-class covariance follows from
//! `W = XᵀX − Σ_c n_c μ_c μ_cᵀ`, and classification uses the linear
//! discriminants `δ_c(x) = x·Σ⁻¹μ_c − ½ μ_cᵀΣ⁻¹μ_c + ln π_c`.

use flashr_core::fm::FM;
use flashr_core::ops::AggOp;
use flashr_core::session::FlashCtx;
use flashr_linalg::{chol_solve, cholesky, Dense};

/// Fitted LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    /// k×p class means.
    pub means: Dense,
    /// Class priors.
    pub priors: Vec<f64>,
    /// Pooled within-class covariance (p×p).
    pub cov: Dense,
    /// p×k discriminant coefficients `Σ⁻¹ μ_c`.
    pub coef: Dense,
    /// Per-class intercepts `−½ μᵀΣ⁻¹μ + ln π`.
    pub intercepts: Vec<f64>,
    /// Number of classes.
    pub k: usize,
}

/// Train LDA on `x` (n×p) with integer labels `y` in `[0, k)`.
pub fn lda(ctx: &FlashCtx, x: &FM, y: &FM, k: usize) -> LdaModel {
    let n = x.nrow() as f64;
    let p = x.ncol() as usize;
    let labels = y.cast(flashr_core::DType::I64);
    labels.set_cache(true);

    let out = FM::materialize_multi(
        ctx,
        &[
            &x.crossprod(),
            &x.groupby_row(&labels, AggOp::Sum, k),
            &FM::ones(x.nrow(), 1).groupby_row(&labels, AggOp::Sum, k),
        ],
    );
    let gram = out[0].to_dense(ctx);
    let sums = out[1].to_dense(ctx);
    let counts = out[2].to_dense(ctx);

    let means = Dense::from_fn(k, p, |g, j| sums.at(g, j) / counts.at(g, 0).max(1.0));
    let priors: Vec<f64> = (0..k).map(|g| counts.at(g, 0) / n).collect();

    // Pooled within-class covariance.
    let mut w = gram.clone();
    for g in 0..k {
        let ng = counts.at(g, 0);
        for i in 0..p {
            for j in 0..p {
                let v = w.at(i, j) - ng * means.at(g, i) * means.at(g, j);
                w.set(i, j, v);
            }
        }
    }
    let denom = (n - k as f64).max(1.0);
    let mut cov = w;
    for i in 0..p {
        for j in 0..p {
            let v = cov.at(i, j) / denom + if i == j { 1e-9 } else { 0.0 };
            cov.set(i, j, v);
        }
    }

    let l = cholesky(&cov).expect("within-class covariance must be positive definite");
    let coef = chol_solve(&l, &means.transpose()); // p×k: Σ⁻¹ μ_c per column
    let intercepts: Vec<f64> = (0..k)
        .map(|g| {
            let mut quad = 0.0;
            for j in 0..p {
                quad += means.at(g, j) * coef.at(j, g);
            }
            -0.5 * quad + priors[g].max(1e-300).ln()
        })
        .collect();

    LdaModel { means, priors, cov, coef, intercepts, k }
}

impl LdaModel {
    /// Predicted class per row (lazy n×1).
    pub fn predict(&self, x: &FM) -> FM {
        let consts = Dense::from_vec(1, self.k, self.intercepts.clone());
        x.matmul(&FM::from_dense(self.coef.clone()))
            .binary(flashr_core::ops::BinaryOp::Add, &FM::from_dense(consts), false)
            .row_which_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::accuracy;
    use flashr_core::ops::BinaryOp;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    fn shifted_classes(ctx: &FlashCtx, n: u64, k: usize, shift: f64) -> (FM, FM) {
        let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, k as f64, false);
        let base = FM::rnorm(ctx, n, 3, 0.0, 1.0, 19);
        let x = base.binary(BinaryOp::Add, &(&labels.cast(flashr_core::DType::F64) * shift), false);
        (x, labels)
    }

    #[test]
    fn recovers_class_means_and_priors() {
        let ctx = ctx();
        let (x, y) = shifted_classes(&ctx, 12_000, 2, 5.0);
        let m = lda(&ctx, &x, &y, 2);
        assert!((m.priors[0] - 0.5).abs() < 0.01);
        for j in 0..3 {
            assert!(m.means.at(0, j).abs() < 0.06);
            assert!((m.means.at(1, j) - 5.0).abs() < 0.06);
        }
    }

    #[test]
    fn pooled_covariance_is_identityish() {
        let ctx = ctx();
        let (x, y) = shifted_classes(&ctx, 20_000, 2, 4.0);
        let m = lda(&ctx, &x, &y, 2);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((m.cov.at(i, j) - want).abs() < 0.06, "cov({i},{j})={}", m.cov.at(i, j));
            }
        }
    }

    #[test]
    fn classifies_separated_classes() {
        let ctx = ctx();
        let (x, y) = shifted_classes(&ctx, 8000, 3, 6.0);
        let m = lda(&ctx, &x, &y, 3);
        let acc = accuracy(&ctx, &m.predict(&x), &y);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn training_is_single_pass() {
        let ctx = ctx();
        let (x, y) = shifted_classes(&ctx, 4000, 2, 4.0);
        let before = ctx.stats().snapshot();
        let _ = lda(&ctx, &x, &y, 2);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    }

    #[test]
    fn overlapping_classes_degrade_gracefully() {
        let ctx = ctx();
        let (x, y) = shifted_classes(&ctx, 8000, 2, 1.0);
        let m = lda(&ctx, &x, &y, 2);
        let acc = accuracy(&ctx, &m.predict(&x), &y);
        // d' per dim is 1σ over 3 dims → Bayes accuracy ≈ Φ(√3/2) ≈ 0.80.
        assert!(acc > 0.72 && acc < 0.88, "accuracy {acc}");
    }
}
