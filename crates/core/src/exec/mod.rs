//! DAG materialization (paper §3.5).
//!
//! `materialize` evaluates a set of targets — sink results and/or tall
//! virtual matrices — over one or more parallel passes, depending on the
//! context's [`crate::session::ExecMode`]:
//!
//! * `CacheFuse` / `MemFuse`: one fused pass over the I/O partitions for
//!   the whole DAG (all targets share the pass);
//! * `Eager`: one pass per operation, Spark-style (the "base" engine of
//!   the paper's Figure 10 ablation).

mod accum;
mod eager;
mod fused;
mod inorder;
mod plan;

pub use accum::SinkAcc;
pub use plan::{Plan, TallOut};

use crate::analysis::PlanError;
use crate::dag::Node;
use crate::mat::TasMat;
use crate::session::{ExecMode, FlashCtx};
use flashr_linalg::Dense;
use std::sync::Arc;

/// Storage request for a tall target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetStorage {
    /// Use the context's default.
    Default,
    /// Force in-memory.
    InMem,
    /// Force the SSD array.
    Em,
}

/// One thing a materialization pass must produce.
#[derive(Clone)]
pub enum Target {
    /// A sink node; yields a small dense matrix.
    Sink(Arc<Node>),
    /// A tall node; yields a materialized [`TasMat`].
    Tall { node: Arc<Node>, storage: TargetStorage },
}

/// What a target produced.
#[derive(Debug, Clone)]
pub enum TargetResult {
    Dense(Dense),
    Mat(TasMat),
}

impl TargetResult {
    /// Unwrap a sink result.
    pub fn into_dense(self) -> Dense {
        match self {
            TargetResult::Dense(d) => d,
            TargetResult::Mat(_) => panic!("expected a sink result, got a tall matrix"),
        }
    }

    /// Unwrap a tall result.
    pub fn into_mat(self) -> TasMat {
        match self {
            TargetResult::Mat(m) => m,
            TargetResult::Dense(_) => panic!("expected a tall matrix, got a sink result"),
        }
    }
}

/// Materialize the targets under the context's engine mode.
///
/// Every plan first goes through the static analyzer
/// ([`crate::analysis::analyze`]): an inconsistent DAG comes back here as
/// a [`PlanError`], before any partition is read, and what runs is the
/// analyzer's rewritten plan (CSE, cast/cbind collapsing).
pub fn materialize(ctx: &FlashCtx, targets: &[Target]) -> Result<Vec<TargetResult>, PlanError> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    let analysis = crate::analysis::analyze(ctx, targets)?;
    crate::analysis::deny_gate(&analysis.report.lints)?;

    let results = match ctx.cfg().mode {
        ExecMode::Eager => eager::run(ctx, &analysis.targets),
        ExecMode::MemFuse | ExecMode::CacheFuse => {
            fused::run(ctx, &analysis.targets, analysis.report.nodes_before)
        }
    };

    // `set.cache` requests on merged originals were honoured on their
    // canonical representatives; copy the installed caches back so the
    // user's handles become effective leaves too.
    for (orig, canon) in &analysis.cache_pairs {
        if let Some(m) = canon.cached() {
            orig.install_cache(m.clone());
        }
    }
    Ok(results)
}

/// Many-branch DAGs the planner's and the executor's tests share.
#[cfg(test)]
pub(crate) mod test_dags {
    use crate::fm::FM;
    use crate::ops::BinaryOp;
    use flashr_linalg::Dense;

    /// The sinks of one GMM E-step over `x` (n × p) with `k` components,
    /// built as `ml::gmm` builds them: per component sweep → `%*%` →
    /// square → `rowSums`, then `cbind` → log-sum-exp responsibilities
    /// → the log-likelihood, the masses, the weighted means and one
    /// `x * sqrt(r_c)` Gramian per component.
    pub fn gmm_e_step(x: &FM, k: usize) -> Vec<FM> {
        let p = x.ncol() as usize;
        let logd: Vec<FM> = (0..k)
            .map(|c| {
                let mu: Vec<f64> = (0..p).map(|j| (c + j) as f64 * 0.01).collect();
                let m =
                    Dense::from_fn(p, p, |i, j| if i == j { 1.0 + c as f64 * 0.1 } else { 0.01 });
                let maha =
                    x.sweep_cols(&mu, BinaryOp::Sub).matmul(&FM::from_dense(m)).square().row_sums();
                &(&maha * -0.5) + (c as f64 * 0.1 - 3.0)
            })
            .collect();
        let logd = FM::cbind(&logd.iter().collect::<Vec<_>>());
        let rowmax = logd.row_max();
        let shifted = logd.binary(BinaryOp::Sub, &rowmax, false);
        let lse = &rowmax + &shifted.exp().row_sums().ln();
        let resp =
            shifted.binary(BinaryOp::Sub, &lse.binary(BinaryOp::Sub, &rowmax, false), false).exp();
        let mut sinks = vec![lse.sum(), resp.col_sums(), resp.crossprod_with(x)];
        sinks.extend(
            (0..k).map(|c| x.binary(BinaryOp::Mul, &resp.col(c).sqrt(), false).crossprod()),
        );
        sinks
    }

    /// `n` branches over `x`, each its own sink, and the `cbind` of the
    /// branches beside them: `[sum(b_0), …, sum(b_{n-1}), cbind(b)]`,
    /// where `b_i` is sweep → column selection → square → `rowSums`.
    pub fn branches(x: &FM, n: usize) -> Vec<FM> {
        let p = x.ncol() as usize;
        let b: Vec<FM> = (0..n)
            .map(|i| {
                let mu: Vec<f64> = (0..p).map(|j| (i * p + j) as f64 * 0.1).collect();
                let idx: Vec<usize> = (0..p).map(|j| (i + j) % p).collect();
                x.sweep_cols(&mu, BinaryOp::Sub).cols(&idx).square().row_sums()
            })
            .collect();
        let mut out: Vec<FM> = b.iter().map(FM::sum).collect();
        out.push(FM::cbind(&b.iter().collect::<Vec<_>>()));
        out
    }
}
