//! Logistic regression (paper §4.1): L-BFGS by default (what the paper
//! benchmarks) plus the gradient-descent-with-line-search variant of the
//! paper's Figure 2 example.
//!
//! Every point either driver visits — the start and each line-search
//! trial — costs exactly one fused pass over `X`, computing the loss and
//! the gradient together from the shared margin `X w`: an accepted trial
//! already holds the gradient the next iteration starts from, so a run
//! makes `1 + iterations` passes plus one per rejected step.

use crate::util::{dot, norm2};
use flashr_core::fm::FM;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// Options for logistic-regression training.
#[derive(Debug, Clone)]
pub struct LogRegOptions {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Convergence threshold on `logloss_{i-1} − logloss_i`
    /// (paper: 1e-6).
    pub tol: f64,
    /// L-BFGS history length.
    pub history: usize,
}

impl Default for LogRegOptions {
    fn default() -> Self {
        LogRegOptions { max_iters: 100, tol: 1e-6, history: 5 }
    }
}

/// Trained model.
#[derive(Debug, Clone)]
pub struct LogRegModel {
    /// Feature weights (length p).
    pub weights: Vec<f64>,
    /// Final training log-loss.
    pub loss: f64,
    /// Iterations actually run.
    pub iterations: usize,
}

impl LogRegModel {
    /// Class probabilities (lazy n×1).
    pub fn predict_proba(&self, x: &FM) -> FM {
        let w = Dense::from_vec(self.weights.len(), 1, self.weights.clone());
        x.matmul(&FM::from_dense(w)).sigmoid()
    }

    /// Hard 0/1 predictions (lazy n×1).
    pub fn predict(&self, x: &FM) -> FM {
        self.predict_proba(&x.clone())
            .gt(&FM::constant(x.nrow(), 1, 0.5))
            .cast(flashr_core::DType::F64)
    }
}

/// Numerically stable softplus of a tall column: `ln(1 + e^m)`.
fn softplus(m: &FM) -> FM {
    let zeros = FM::zeros(m.nrow(), 1);
    m.pmax(&zeros).binary(flashr_core::ops::BinaryOp::Add, &(-&m.abs()).exp().log1p(), false)
}

/// The lazy margin `X w` and the log-loss sink `Σ softplus(m) − y·m` over it.
fn margin_and_loss(x: &FM, y: &FM, w: &[f64]) -> (FM, FM) {
    let wd = Dense::from_vec(w.len(), 1, w.to_vec());
    let margin = x.matmul(&FM::from_dense(wd));
    let loss_sink = softplus(&margin)
        .binary(
            flashr_core::ops::BinaryOp::Sub,
            &y.binary(flashr_core::ops::BinaryOp::Mul, &margin, false),
            false,
        )
        .sum();
    (margin, loss_sink)
}

/// One fused pass: the mean log-loss and its gradient at `w`, from the
/// margin `X w` shared by both. `flashr_testkit::steps` holds the
/// reference it is tested against.
pub fn loss_and_grad(ctx: &FlashCtx, x: &FM, y: &FM, w: &[f64]) -> (f64, Vec<f64>) {
    let n = x.nrow() as f64;
    // grad = Xᵀ (σ(m) − y), over the same DAG as the loss.
    let (margin, loss_sink) = margin_and_loss(x, y, w);
    let resid = margin.sigmoid().binary(flashr_core::ops::BinaryOp::Sub, y, false);
    let grad_sink = x.crossprod_with(&resid);
    let out = FM::materialize_multi(ctx, &[&loss_sink, &grad_sink]);
    let loss = out[0].value(ctx) / n;
    let g = out[1].to_dense(ctx);
    let grad: Vec<f64> = (0..w.len()).map(|j| g.at(j, 0) / n).collect();
    (loss, grad)
}

/// Loss-only pass: the reference the tests hold [`loss_and_grad`] to.
#[cfg(test)]
fn loss_at(ctx: &FlashCtx, x: &FM, y: &FM, w: &[f64]) -> f64 {
    margin_and_loss(x, y, w).1.value(ctx) / x.nrow() as f64
}

/// L-BFGS training (the configuration the paper benchmarks).
pub fn logistic_regression(ctx: &FlashCtx, x: &FM, y: &FM, opts: &LogRegOptions) -> LogRegModel {
    let p = x.ncol() as usize;
    let mut w = vec![0.0; p];
    let (mut loss, mut grad) = loss_and_grad(ctx, x, y, &w);
    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut iterations = 0;

    for _ in 0..opts.max_iters {
        iterations += 1;
        // Two-loop recursion for the search direction d = −H g.
        let mut q = grad.clone();
        let mut alphas = Vec::with_capacity(s_hist.len());
        for (s, yv) in s_hist.iter().zip(&y_hist).rev() {
            let rho = 1.0 / dot(yv, s);
            let alpha = rho * dot(s, &q);
            for (qi, yi) in q.iter_mut().zip(yv) {
                *qi -= alpha * yi;
            }
            alphas.push((rho, alpha));
        }
        if let (Some(s), Some(yv)) = (s_hist.last(), y_hist.last()) {
            let gamma = dot(s, yv) / dot(yv, yv).max(1e-300);
            for qi in q.iter_mut() {
                *qi *= gamma;
            }
        }
        for ((s, yv), (rho, alpha)) in s_hist.iter().zip(&y_hist).zip(alphas.into_iter().rev()) {
            let beta = rho * dot(yv, &q);
            for (qi, si) in q.iter_mut().zip(s) {
                *qi += (alpha - beta) * si;
            }
        }
        let dir: Vec<f64> = q.iter().map(|v| -v).collect();

        // Armijo backtracking; the accepted trial's gradient is the next
        // iteration's.
        let dg = dot(&dir, &grad);
        let mut step = 1.0;
        let mut new_w;
        let mut new_loss;
        let mut new_grad;
        loop {
            new_w = w.iter().zip(&dir).map(|(wi, di)| wi + step * di).collect::<Vec<f64>>();
            (new_loss, new_grad) = loss_and_grad(ctx, x, y, &new_w);
            if new_loss <= loss + 1e-4 * step * dg || step < 1e-12 {
                break;
            }
            step *= 0.5;
        }

        let s: Vec<f64> = new_w.iter().zip(&w).map(|(a, b)| a - b).collect();
        let yv: Vec<f64> = new_grad.iter().zip(&grad).map(|(a, b)| a - b).collect();
        if dot(&s, &yv) > 1e-12 {
            s_hist.push(s);
            y_hist.push(yv);
            if s_hist.len() > opts.history {
                s_hist.remove(0);
                y_hist.remove(0);
            }
        }
        let improvement = loss - new_loss;
        w = new_w;
        grad = new_grad;
        loss = new_loss;
        if improvement.abs() < opts.tol || norm2(&grad) < 1e-10 {
            break;
        }
    }
    LogRegModel { weights: w, loss, iterations }
}

/// Gradient descent with backtracking line search — the structure of the
/// paper's Figure 2 example.
pub fn logistic_regression_gd(ctx: &FlashCtx, x: &FM, y: &FM, opts: &LogRegOptions) -> LogRegModel {
    let p = x.ncol() as usize;
    let mut w = vec![0.0; p];
    let (mut loss, mut grad) = loss_and_grad(ctx, x, y, &w);
    let mut iterations = 0;
    for _ in 0..opts.max_iters {
        iterations += 1;
        let delta = -0.5 * dot(&grad, &grad);
        let mut eta = 1.0;
        let mut new_w;
        let mut new_loss;
        let mut new_grad;
        loop {
            new_w = w.iter().zip(&grad).map(|(wi, gi)| wi - eta * gi).collect::<Vec<f64>>();
            (new_loss, new_grad) = loss_and_grad(ctx, x, y, &new_w);
            if new_loss <= loss + delta * eta || eta < 1e-12 {
                break;
            }
            eta *= 0.2; // the paper's shrink factor
        }
        let improvement = loss - new_loss;
        w = new_w;
        loss = new_loss;
        grad = new_grad;
        if improvement.abs() < opts.tol {
            break;
        }
    }
    LogRegModel { weights: w, loss, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::accuracy;
    use flashr_core::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 512, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    fn dataset(ctx: &FlashCtx, n: u64, p: usize) -> (FM, FM, Vec<f64>) {
        let d = flashr_data_like(ctx, n, p);
        (d.0, d.1, d.2)
    }

    /// Local logistic ground-truth generator (avoids a circular crate
    /// dependency on flashr-data).
    fn flashr_data_like(ctx: &FlashCtx, n: u64, p: usize) -> (FM, FM, Vec<f64>) {
        let x = FM::rnorm(ctx, n, p, 0.0, 1.0, 7);
        let truth: Vec<f64> = (0..p).map(|j| if j % 2 == 0 { 1.0 } else { -0.5 }).collect();
        let w = Dense::from_vec(p, 1, truth.clone());
        let prob = x.matmul(&FM::from_dense(w)).sigmoid();
        let noise = FM::runif(ctx, n, 1, 0.0, 1.0, 99);
        let y = prob.gt(&noise).cast(flashr_core::DType::F64);
        (x, y, truth)
    }

    #[test]
    fn lbfgs_reduces_loss_below_chance() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 5000, 4);
        let m = logistic_regression(
            &ctx,
            &x,
            &y,
            &LogRegOptions { max_iters: 30, ..Default::default() },
        );
        assert!(m.loss < 0.6, "loss {}", m.loss); // ln 2 ≈ 0.693 is chance
        assert!(m.iterations >= 2);
    }

    #[test]
    fn recovers_weight_signs_and_magnitudes() {
        let ctx = ctx();
        let (x, y, truth) = dataset(&ctx, 20_000, 4);
        let m = logistic_regression(&ctx, &x, &y, &LogRegOptions::default());
        for (w, t) in m.weights.iter().zip(&truth) {
            assert!((w - t).abs() < 0.15, "weight {w} vs truth {t}");
        }
    }

    #[test]
    fn predictions_beat_chance_substantially() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 10_000, 4);
        let m = logistic_regression(&ctx, &x, &y, &LogRegOptions::default());
        let acc = accuracy(&ctx, &m.predict(&x), &y);
        // Labels carry irreducible sigmoid noise; the Bayes rate for this
        // weight vector is ≈0.76.
        assert!(acc > 0.72, "accuracy {acc}");
    }

    #[test]
    fn gd_variant_converges_to_similar_loss() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 5000, 3);
        let lbfgs = logistic_regression(&ctx, &x, &y, &LogRegOptions::default());
        let gd = logistic_regression_gd(
            &ctx,
            &x,
            &y,
            &LogRegOptions { max_iters: 200, tol: 1e-8, ..Default::default() },
        );
        assert!((gd.loss - lbfgs.loss).abs() < 5e-3, "gd {} vs lbfgs {}", gd.loss, lbfgs.loss);
    }

    #[test]
    fn loss_and_grad_agree_with_finite_differences() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 2000, 3);
        let w = vec![0.3, -0.2, 0.1];
        let (_, grad) = loss_and_grad(&ctx, &x, &y, &w);
        let eps = 1e-5;
        for j in 0..3 {
            let mut wp = w.clone();
            wp[j] += eps;
            let mut wm = w.clone();
            wm[j] -= eps;
            let fd = (loss_at(&ctx, &x, &y, &wp) - loss_at(&ctx, &x, &y, &wm)) / (2.0 * eps);
            assert!((fd - grad[j]).abs() < 1e-5, "grad[{j}]: fd {fd} vs {g}", g = grad[j]);
        }
    }

    /// The trial loss a line search reads out of the loss-and-gradient
    /// pass is, bit for bit, the loss-only probe's: the sink is the same
    /// DAG and partials fold in partition order. Every trial point, every
    /// acceptance test and every gradient is therefore what the
    /// probe-then-gradient drivers computed, rejected steps included.
    #[test]
    fn trial_loss_is_bitwise_the_probe_loss() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 3000, 3);
        for w in [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-4.0, 7.5, 0.25]] {
            let (loss, _) = loss_and_grad(&ctx, &x, &y, &w);
            assert_eq!(loss.to_bits(), loss_at(&ctx, &x, &y, &w).to_bits(), "w = {w:?}");
        }
    }

    fn passes_of(ctx: &FlashCtx, run: impl FnOnce() -> LogRegModel) -> (u64, LogRegModel) {
        let before = ctx.stats().snapshot();
        let model = run();
        (before.delta(&ctx.stats().snapshot()).passes, model)
    }

    /// Steps the first line search from `w = 0` rejects, replayed with
    /// loss-only probes: both drivers start down `−grad`.
    fn first_search_rejections(ctx: &FlashCtx, x: &FM, y: &FM, shrink: f64, armijo: f64) -> u64 {
        let w0 = vec![0.0; x.ncol() as usize];
        let (loss, grad) = loss_and_grad(ctx, x, y, &w0);
        let slope = -dot(&grad, &grad);
        let mut step = 1.0;
        let mut rejected = 0;
        loop {
            let trial: Vec<f64> = grad.iter().map(|g| -step * g).collect();
            if loss_at(ctx, x, y, &trial) <= loss + armijo * step * slope {
                return rejected;
            }
            rejected += 1;
            step *= shrink;
        }
    }

    /// One pass per point visited: the start, then one per trial — so
    /// `1 + iterations` when every step is accepted at full length and
    /// one more per rejection. The probe-then-gradient drivers made
    /// `1 + 2·iterations + rejections` (L-BFGS) and one more still (GD).
    #[test]
    fn drivers_make_one_pass_per_point_visited() {
        let ctx = ctx();
        let (x, y, _) = dataset(&ctx, 3000, 3);
        let one = LogRegOptions { max_iters: 1, tol: 0.0, ..Default::default() };
        // Unit-scale features accept the full first step; features scaled
        // by 40 overshoot and back off.
        for (scale, rejects) in [(1.0, false), (40.0, true)] {
            let xs = (&x * scale).materialize(&ctx);
            let k = first_search_rejections(&ctx, &xs, &y, 0.5, 1e-4);
            assert_eq!(k > 0, rejects, "L-BFGS, scale {scale}: {k} rejections");
            let (passes, m) = passes_of(&ctx, || logistic_regression(&ctx, &xs, &y, &one));
            assert_eq!((passes, m.iterations), (2 + k, 1), "L-BFGS, scale {scale}");

            let k = first_search_rejections(&ctx, &xs, &y, 0.2, 0.5);
            assert_eq!(k > 0, rejects, "GD, scale {scale}: {k} rejections");
            let (passes, m) = passes_of(&ctx, || logistic_regression_gd(&ctx, &xs, &y, &one));
            assert_eq!((passes, m.iterations), (2 + k, 1), "GD, scale {scale}");
        }
        // Several iterations: an iteration costs at least one pass, so
        // equality says no step was rejected and none cost two.
        let five = LogRegOptions { max_iters: 5, tol: 0.0, ..Default::default() };
        let (passes, m) = passes_of(&ctx, || logistic_regression(&ctx, &x, &y, &five));
        assert_eq!((passes, m.iterations), (6, 5), "L-BFGS");
        let (passes, m) = passes_of(&ctx, || logistic_regression_gd(&ctx, &x, &y, &five));
        assert_eq!((passes, m.iterations), (6, 5), "GD");
    }

    #[test]
    fn softplus_is_stable_for_large_margins() {
        let ctx = ctx();
        let m = FM::from_vec(&ctx, &[-800.0, 0.0, 800.0]);
        let s = softplus(&m).to_vec(&ctx);
        assert!(s[0].abs() < 1e-12);
        assert!((s[1] - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((s[2] - 800.0).abs() < 1e-9);
        assert!(s.iter().all(|v| v.is_finite()));
    }
}
