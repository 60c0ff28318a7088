//! Evaluation metrics, computed with fused engine passes where the data
//! is tall: confusion matrices (via `groupby.row` on a combined label),
//! log-loss, RMSE/R², and the adjusted Rand index for clusterings.

use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp};
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// k×k confusion matrix: `counts[truth][pred]`. One fused pass — the
/// pair (truth, pred) is encoded as `truth·k + pred` and counted with a
/// single groupby.
pub fn confusion_matrix(ctx: &FlashCtx, truth: &FM, pred: &FM, k: usize) -> Dense {
    assert_eq!(truth.nrow(), pred.nrow(), "label length mismatch");
    let combined = truth
        .cast(flashr_core::DType::F64)
        .binary_scalar(BinaryOp::Mul, k as f64, false)
        .binary(BinaryOp::Add, &pred.cast(flashr_core::DType::F64), false)
        .cast(flashr_core::DType::I64);
    let counts = FM::ones(truth.nrow(), 1).groupby_row(&combined, AggOp::Sum, k * k).to_dense(ctx);
    Dense::from_fn(k, k, |t, p| counts.at(t * k + p, 0))
}

/// Binary log-loss of probabilities `p` against 0/1 labels `y`
/// (clamped for numerical safety). One fused pass.
pub fn log_loss(ctx: &FlashCtx, y: &FM, p: &FM) -> f64 {
    let n = y.nrow() as f64;
    let eps = 1e-12;
    let p =
        p.binary_scalar(BinaryOp::Max, eps, false).binary_scalar(BinaryOp::Min, 1.0 - eps, false);
    // −[y ln p + (1−y) ln(1−p)]
    let yl = y.binary(BinaryOp::Mul, &p.ln(), false);
    let nyl = (1.0 - y).binary(BinaryOp::Mul, &(1.0 - &p).ln(), false);
    -(yl.binary(BinaryOp::Add, &nyl, false).sum().value(ctx)) / n
}

/// Root-mean-square error between two columns. One fused pass.
pub fn rmse(ctx: &FlashCtx, truth: &FM, pred: &FM) -> f64 {
    let n = truth.nrow() as f64;
    (truth.binary(BinaryOp::Sub, pred, false).square().sum().value(ctx) / n).sqrt()
}

/// Coefficient of determination R². Two sinks, one fused pass.
pub fn r_squared(ctx: &FlashCtx, truth: &FM, pred: &FM) -> f64 {
    let n = truth.nrow() as f64;
    let resid = truth.binary(BinaryOp::Sub, pred, false).square().sum();
    let sum = truth.sum();
    let sumsq = truth.square().sum();
    let out = FM::materialize_multi(ctx, &[&resid, &sum, &sumsq]);
    let ss_res = out[0].value(ctx);
    let mean = out[1].value(ctx) / n;
    let ss_tot = out[2].value(ctx) - n * mean * mean;
    1.0 - ss_res / ss_tot.max(1e-300)
}

/// Adjusted Rand index between two clusterings (labels in `[0, k)`),
/// from the confusion matrix — 1.0 for identical partitions (up to
/// label permutation this is *not* invariant; ARI handles that), ≈0 for
/// random agreement.
pub fn adjusted_rand_index(ctx: &FlashCtx, a: &FM, b: &FM, k: usize) -> f64 {
    let m = confusion_matrix(ctx, a, b, k);
    let n: f64 = (0..k).map(|i| (0..k).map(|j| m.at(i, j)).sum::<f64>()).sum();
    let comb2 = |x: f64| x * (x - 1.0) / 2.0;
    let sum_ij: f64 =
        (0..k).flat_map(|i| (0..k).map(move |j| (i, j))).map(|(i, j)| comb2(m.at(i, j))).sum();
    let sum_a: f64 = (0..k).map(|i| comb2((0..k).map(|j| m.at(i, j)).sum())).sum();
    let sum_b: f64 = (0..k).map(|j| comb2((0..k).map(|i| m.at(i, j)).sum())).sum();
    let expected = sum_a * sum_b / comb2(n).max(1e-300);
    let max_index = 0.5 * (sum_a + sum_b);
    (sum_ij - expected) / (max_index - expected).max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    #[test]
    fn confusion_matrix_counts() {
        let ctx = ctx();
        let truth = FM::from_vec(&ctx, &[0.0, 0.0, 1.0, 1.0, 1.0]);
        let pred = FM::from_vec(&ctx, &[0.0, 1.0, 1.0, 1.0, 0.0]);
        let m = confusion_matrix(&ctx, &truth, &pred, 2);
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(0, 1), 1.0);
        assert_eq!(m.at(1, 0), 1.0);
        assert_eq!(m.at(1, 1), 2.0);
    }

    #[test]
    fn log_loss_behaviour() {
        let ctx = ctx();
        let y = FM::from_vec(&ctx, &[1.0, 0.0, 1.0, 0.0]);
        let perfect = FM::from_vec(&ctx, &[1.0, 0.0, 1.0, 0.0]);
        assert!(log_loss(&ctx, &y, &perfect) < 1e-10);
        let chance = FM::constant(4, 1, 0.5);
        assert!((log_loss(&ctx, &y, &chance) - std::f64::consts::LN_2).abs() < 1e-12);
        let wrong = FM::from_vec(&ctx, &[0.0, 1.0, 0.0, 1.0]);
        assert!(log_loss(&ctx, &y, &wrong) > 10.0);
    }

    #[test]
    fn rmse_and_r2() {
        let ctx = ctx();
        let truth = FM::seq(100, 0.0, 1.0);
        assert_eq!(rmse(&ctx, &truth, &truth), 0.0);
        assert!((r_squared(&ctx, &truth, &truth) - 1.0).abs() < 1e-12);
        let off = &truth + 2.0;
        assert!((rmse(&ctx, &truth, &off) - 2.0).abs() < 1e-12);
        // Constant predictor → R² ≈ 0.
        let mean_pred = FM::constant(100, 1, 49.5);
        assert!(r_squared(&ctx, &truth, &mean_pred).abs() < 1e-9);
    }

    #[test]
    fn ari_identical_permuted_and_random() {
        let ctx = ctx();
        let n = 600u64;
        let a = FM::seq(n, 0.0, 1.0)
            .binary_scalar(BinaryOp::Rem, 3.0, false)
            .cast(flashr_core::DType::I64);
        // Identical partition.
        assert!((adjusted_rand_index(&ctx, &a, &a, 3) - 1.0).abs() < 1e-12);
        // Same partition with permuted label names → still 1.
        let permuted = a
            .cast(flashr_core::DType::F64)
            .binary_scalar(BinaryOp::Add, 1.0, false)
            .binary_scalar(BinaryOp::Rem, 3.0, false)
            .cast(flashr_core::DType::I64);
        assert!((adjusted_rand_index(&ctx, &a, &permuted, 3) - 1.0).abs() < 1e-12);
        // An unrelated partition (blocks of 200 vs residues mod 3) → ≈0.
        let unrelated = FM::seq(n, 0.0, 1.0)
            .binary_scalar(BinaryOp::Div, 200.0, false)
            .floor()
            .binary_scalar(BinaryOp::Rem, 3.0, false)
            .cast(flashr_core::DType::I64);
        let ari = adjusted_rand_index(&ctx, &a, &unrelated, 3);
        assert!(ari.abs() < 0.05, "ari {ari}");
    }
}
