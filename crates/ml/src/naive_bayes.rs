//! Gaussian naive Bayes (paper §4.1: "assumes data follows the normal
//! distribution").
//!
//! Training is one fused pass: per-class sums, sums of squares and counts
//! come from three groupby sinks over the same cached label column.
//! Prediction is one fused pass too: the per-class log posterior
//! `Σⱼ −(xⱼ−μ)²/(2σ²) − ln σ + ln π` expands into
//! `X² B₂ + X B₁ + const`, two tall×small multiplies and an argmax.

use flashr_core::fm::FM;
use flashr_core::ops::AggOp;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// Trained Gaussian naive Bayes model.
#[derive(Debug, Clone)]
pub struct NaiveBayesModel {
    /// k×p per-class feature means.
    pub means: Dense,
    /// k×p per-class feature variances.
    pub vars: Dense,
    /// Class priors (length k).
    pub priors: Vec<f64>,
    /// Number of classes.
    pub k: usize,
}

/// Train on `x` (n×p) with integer class labels `y` (n×1, values in
/// `[0, k)`).
pub fn naive_bayes(ctx: &FlashCtx, x: &FM, y: &FM, k: usize) -> NaiveBayesModel {
    let n = x.nrow() as f64;
    let p = x.ncol() as usize;
    let labels = y.cast(flashr_core::DType::I64);
    labels.set_cache(true);

    let sums = x.groupby_row(&labels, AggOp::Sum, k);
    let sq_sums = x.square().groupby_row(&labels, AggOp::Sum, k);
    let counts = FM::ones(x.nrow(), 1).groupby_row(&labels, AggOp::Sum, k);
    let out = FM::materialize_multi(ctx, &[&sums, &sq_sums, &counts]);
    let sums = out[0].to_dense(ctx);
    let sq_sums = out[1].to_dense(ctx);
    let counts = out[2].to_dense(ctx);

    let means = Dense::from_fn(k, p, |g, j| sums.at(g, j) / counts.at(g, 0).max(1.0));
    let vars = Dense::from_fn(k, p, |g, j| {
        let m = means.at(g, j);
        // Variance floor keeps degenerate features usable (sklearn-style).
        (sq_sums.at(g, j) / counts.at(g, 0).max(1.0) - m * m).max(1e-9)
    });
    let priors: Vec<f64> = (0..k).map(|g| counts.at(g, 0) / n).collect();
    NaiveBayesModel { means, vars, priors, k }
}

impl NaiveBayesModel {
    /// Predicted class per row (lazy tall n×1; one fused pass when
    /// materialized).
    pub fn predict(&self, x: &FM) -> FM {
        let p = self.means.cols();
        let k = self.k;
        // score_c(x) = Σⱼ x²·(−1/2σ²) + x·(μ/σ²) + (−μ²/2σ² − ½ln σ² + ln π)
        let b2 = Dense::from_fn(p, k, |j, c| -0.5 / self.vars.at(c, j));
        let b1 = Dense::from_fn(p, k, |j, c| self.means.at(c, j) / self.vars.at(c, j));
        let consts = Dense::from_fn(1, k, |_, c| {
            let mut acc = self.priors[c].max(1e-300).ln();
            for j in 0..p {
                let v = self.vars.at(c, j);
                acc += -0.5 * self.means.at(c, j) * self.means.at(c, j) / v - 0.5 * v.ln();
            }
            acc
        });
        let scores = x
            .square()
            .matmul(&FM::from_dense(b2))
            .binary(flashr_core::ops::BinaryOp::Add, &x.matmul(&FM::from_dense(b1)), false)
            .binary(flashr_core::ops::BinaryOp::Add, &FM::from_dense(consts), false);
        scores.row_which_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::accuracy;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    /// Two well-separated Gaussian classes.
    fn two_class(ctx: &FlashCtx, n: u64) -> (FM, FM) {
        let labels =
            FM::seq(n, 0.0, 1.0).binary_scalar(flashr_core::ops::BinaryOp::Rem, 2.0, false);
        let base = FM::rnorm(ctx, n, 3, 0.0, 1.0, 21);
        // Class 1 shifted by +4 in every dimension.
        let shift = &labels.cast(flashr_core::DType::F64) * 4.0;
        let x = base.binary(flashr_core::ops::BinaryOp::Add, &shift, false);
        (x, labels)
    }

    #[test]
    fn recovers_class_parameters() {
        let ctx = ctx();
        let (x, y) = two_class(&ctx, 20_000);
        let m = naive_bayes(&ctx, &x, &y, 2);
        assert!((m.priors[0] - 0.5).abs() < 0.01);
        for j in 0..3 {
            assert!(m.means.at(0, j).abs() < 0.05, "class0 mean {}", m.means.at(0, j));
            assert!((m.means.at(1, j) - 4.0).abs() < 0.05);
            assert!((m.vars.at(0, j) - 1.0).abs() < 0.1);
        }
    }

    #[test]
    fn predicts_separated_classes_accurately() {
        let ctx = ctx();
        let (x, y) = two_class(&ctx, 10_000);
        let m = naive_bayes(&ctx, &x, &y, 2);
        let pred = m.predict(&x);
        let acc = accuracy(&ctx, &pred, &y);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn three_class_problem() {
        let ctx = ctx();
        let n = 9000u64;
        let labels =
            FM::seq(n, 0.0, 1.0).binary_scalar(flashr_core::ops::BinaryOp::Rem, 3.0, false);
        let base = FM::rnorm(&ctx, n, 2, 0.0, 0.5, 33);
        let shift = &labels.cast(flashr_core::DType::F64) * 5.0;
        let x = base.binary(flashr_core::ops::BinaryOp::Add, &shift, false);
        let m = naive_bayes(&ctx, &x, &labels, 3);
        let acc = accuracy(&ctx, &m.predict(&x), &labels);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn training_is_single_pass() {
        let ctx = ctx();
        let (x, y) = two_class(&ctx, 4000);
        let before = ctx.stats().snapshot();
        let _ = naive_bayes(&ctx, &x, &y, 2);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    }

    #[test]
    fn unbalanced_priors() {
        let ctx = ctx();
        let n = 10_000u64;
        // 90/10 split: label = 1 when seq % 10 == 0.
        let labels = FM::seq(n, 0.0, 1.0)
            .binary_scalar(flashr_core::ops::BinaryOp::Rem, 10.0, false)
            .eq(&FM::zeros(n, 1))
            .cast(flashr_core::DType::F64);
        let x = FM::rnorm(&ctx, n, 2, 0.0, 1.0, 8).binary(
            flashr_core::ops::BinaryOp::Add,
            &(&labels * 6.0),
            false,
        );
        let m = naive_bayes(&ctx, &x, &labels, 2);
        assert!((m.priors[0] - 0.9).abs() < 0.01);
        assert!((m.priors[1] - 0.1).abs() < 0.01);
    }
}
