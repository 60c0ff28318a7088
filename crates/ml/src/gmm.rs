//! Gaussian mixture models via EM (paper §4.1), full covariance.
//!
//! Each EM iteration is a single fused pass: the responsibilities
//! (including the log-sum-exp normalizer) form one DAG whose sinks are
//! the log-likelihood, the component masses `Nₖ = colSums(R)`, the
//! weighted means `Rᵀ X`, and one weighted Gramian per component —
//! exactly the O(n·p²·k) computation / O(n·p + n·k) I/O profile of the
//! paper's Table 4.

use flashr_core::fm::FM;
use flashr_core::ops::BinaryOp;
use flashr_core::session::FlashCtx;
use flashr_linalg::{chol_logdet, cholesky, solve_lower, Dense};

/// Options for [`gmm`].
#[derive(Debug, Clone)]
pub struct GmmOptions {
    /// Mixture components.
    pub k: usize,
    /// EM iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on the change of mean log-likelihood
    /// (paper: 1e-2).
    pub tol: f64,
    /// Covariance ridge keeping components positive definite.
    pub reg: f64,
    /// Seed for initial means (sampled rows).
    pub seed: u64,
}

impl Default for GmmOptions {
    fn default() -> Self {
        GmmOptions { k: 10, max_iters: 100, tol: 1e-2, reg: 1e-6, seed: 1 }
    }
}

/// Fitted mixture.
#[derive(Debug, Clone)]
pub struct GmmModel {
    /// Component weights (length k).
    pub weights: Vec<f64>,
    /// k×p component means.
    pub means: Dense,
    /// Per-component p×p covariance matrices.
    pub covs: Vec<Dense>,
    /// Final mean log-likelihood.
    pub loglike: f64,
    /// EM iterations run.
    pub iterations: usize,
}

/// Per-component log-density columns (lazy n×1 each):
/// `−½‖L⁻¹(x−μ)‖² − ½ ln|Σ| − (p/2) ln 2π + ln w`.
fn log_density_cols(x: &FM, model_means: &Dense, covs: &[Dense], weights: &[f64]) -> Vec<FM> {
    let p = x.ncol() as usize;
    let k = weights.len();
    let mut cols = Vec::with_capacity(k);
    for c in 0..k {
        let l = cholesky(&covs[c]).expect("component covariance must stay positive definite");
        // M = (L⁻¹)ᵀ so that Z = (X−μ) M has rows L⁻¹(x−μ).
        let linv = solve_lower(&l, &Dense::eye(p));
        let m = linv.transpose();
        let mu: Vec<f64> = (0..p).map(|j| model_means.at(c, j)).collect();
        let xc = x.sweep_cols(&mu, BinaryOp::Sub);
        let maha = xc.matmul(&FM::from_dense(m)).square().row_sums();
        let konst = -0.5 * chol_logdet(&l) - 0.5 * p as f64 * (2.0 * std::f64::consts::PI).ln()
            + weights[c].max(1e-300).ln();
        cols.push(&(&maha * -0.5) + konst);
    }
    cols
}

/// Fit a full-covariance Gaussian mixture with EM.
pub fn gmm(ctx: &FlashCtx, x: &FM, opts: &GmmOptions) -> GmmModel {
    let n = x.nrow();
    let p = x.ncol() as usize;
    let k = opts.k;
    assert!(k >= 1 && (k as u64) <= n);

    // Init: farthest-first over a hashed row sample (shared with k-means).
    let mut means = crate::util::farthest_first_init(ctx, x, k, opts.seed);
    let var0 = {
        let out = FM::materialize_multi(ctx, &[&x.col_sums(), &x.square().col_sums()]);
        let s = out[0].to_dense(ctx);
        let s2 = out[1].to_dense(ctx);
        let nn = n as f64;
        (0..p)
            .map(|j| (s2.at(0, j) / nn - (s.at(0, j) / nn).powi(2)).max(1e-6))
            .collect::<Vec<f64>>()
    };
    let mut covs: Vec<Dense> =
        (0..k).map(|_| Dense::from_fn(p, p, |i, j| if i == j { var0[i] } else { 0.0 })).collect();
    let mut weights = vec![1.0 / k as f64; k];

    let mut prev_ll = f64::NEG_INFINITY;
    let mut loglike = prev_ll;
    let mut iterations = 0;

    for _ in 0..opts.max_iters {
        iterations += 1;

        // E step (lazy): responsibilities through log-sum-exp.
        let logd_cols = log_density_cols(x, &means, &covs, &weights);
        let refs: Vec<&FM> = logd_cols.iter().collect();
        let logd = FM::cbind(&refs); // n×k
        let rowmax = logd.row_max(); // n×1
        let shifted = logd.binary(BinaryOp::Sub, &rowmax, false);
        let lse = &rowmax + &shifted.exp().row_sums().ln(); // n×1
        let resp =
            shifted.binary(BinaryOp::Sub, &lse.binary(BinaryOp::Sub, &rowmax, false), false).exp(); // n×k

        // Sinks: log-likelihood, masses, weighted means, weighted Gramians.
        let ll_sink = lse.sum();
        let nk_sink = resp.col_sums();
        let wmean_sink = resp.crossprod_with(x); // k×p
        let gram_sinks: Vec<FM> = (0..k)
            .map(|c| {
                let wsqrt = resp.col(c).sqrt(); // n×1
                x.binary(BinaryOp::Mul, &wsqrt, false).crossprod()
            })
            .collect();
        let mut targets: Vec<&FM> = vec![&ll_sink, &nk_sink, &wmean_sink];
        targets.extend(gram_sinks.iter());
        let out = FM::materialize_multi(ctx, &targets);

        loglike = out[0].value(ctx) / n as f64;
        let nk = out[1].to_dense(ctx);
        let wmean = out[2].to_dense(ctx);

        // M step.
        for c in 0..k {
            let mass = nk.at(0, c).max(1e-12);
            weights[c] = mass / n as f64;
            for j in 0..p {
                means.set(c, j, wmean.at(c, j) / mass);
            }
            let g = out[3 + c].to_dense(ctx);
            covs[c] = Dense::from_fn(p, p, |i, j| {
                let v = g.at(i, j) / mass - means.at(c, i) * means.at(c, j);
                if i == j {
                    v + opts.reg
                } else {
                    v
                }
            });
        }

        if (loglike - prev_ll).abs() < opts.tol {
            break;
        }
        prev_ll = loglike;
    }

    GmmModel { weights, means, covs, loglike, iterations }
}

impl GmmModel {
    /// Hard component assignment per row (lazy n×1).
    pub fn predict(&self, x: &FM) -> FM {
        let cols = log_density_cols(x, &self.means, &self.covs, &self.weights);
        let refs: Vec<&FM> = cols.iter().collect();
        FM::cbind(&refs).row_which_max()
    }
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

    fn two_blobs(ctx: &FlashCtx, n: u64) -> FM {
        let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false);
        let base = FM::rnorm(ctx, n, 2, 0.0, 0.7, 13);
        base.binary(BinaryOp::Add, &(&labels.cast(flashr_core::DType::F64) * 8.0), false)
    }

    #[test]
    fn recovers_two_components() {
        let ctx = ctx();
        let x = two_blobs(&ctx, 3000);
        let m = gmm(&ctx, &x, &GmmOptions { k: 2, max_iters: 50, seed: 2, ..Default::default() });
        let mut m0: Vec<f64> = (0..2).map(|c| m.means.at(c, 0)).collect();
        m0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(m0[0].abs() < 0.4, "mean {}", m0[0]);
        assert!((m0[1] - 8.0).abs() < 0.4, "mean {}", m0[1]);
        assert!((m.weights[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn covariance_is_recovered() {
        let ctx = ctx();
        let x = two_blobs(&ctx, 6000);
        let m = gmm(&ctx, &x, &GmmOptions { k: 2, max_iters: 60, seed: 1, ..Default::default() });
        for c in 0..2 {
            // True per-component covariance is 0.49 I.
            assert!((m.covs[c].at(0, 0) - 0.49).abs() < 0.12, "var {}", m.covs[c].at(0, 0));
            assert!(m.covs[c].at(0, 1).abs() < 0.1);
        }
    }

    #[test]
    fn loglike_is_monotone_enough_and_converges() {
        let ctx = ctx();
        let x = two_blobs(&ctx, 2000);
        let m = gmm(&ctx, &x, &GmmOptions { k: 2, max_iters: 80, seed: 4, ..Default::default() });
        assert!(m.iterations < 80, "did not converge");
        assert!(m.loglike.is_finite());
    }

    #[test]
    fn predict_separates_blobs() {
        let ctx = ctx();
        let x = two_blobs(&ctx, 2000);
        let m = gmm(&ctx, &x, &GmmOptions { k: 2, max_iters: 50, seed: 2, ..Default::default() });
        let pred = m.predict(&x).to_vec(&ctx);
        // Points alternate blob membership (row % 2); predictions must be
        // consistent with that partition up to label swap.
        let mut agree = 0;
        for (r, v) in pred.iter().enumerate() {
            if (*v as usize) == (r % 2) {
                agree += 1;
            }
        }
        let frac = agree.max(2000 - agree) as f64 / 2000.0;
        assert!(frac > 0.99, "separation {frac}");
    }

    #[test]
    fn single_component_matches_moments() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 8000, 2, 3.0, 2.0, 6);
        let m = gmm(&ctx, &x, &GmmOptions { k: 1, max_iters: 10, ..Default::default() });
        assert!((m.means.at(0, 0) - 3.0).abs() < 0.1);
        assert!((m.covs[0].at(0, 0) - 4.0).abs() < 0.25);
        assert!((m.weights[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_fused_pass_per_iteration() {
        let ctx = ctx();
        let x = two_blobs(&ctx, 1000).materialize(&ctx);
        let before = ctx.stats().snapshot();
        let m = gmm(&ctx, &x, &GmmOptions { k: 2, max_iters: 10, seed: 1, ..Default::default() });
        let passes = before.delta(&ctx.stats().snapshot()).passes;
        // One init pass (column moments) + one pass per EM iteration.
        assert_eq!(passes as usize, m.iterations + 1, "passes {passes}");
    }
}
