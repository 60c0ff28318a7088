//! k-means clustering — the paper's Figure 3 program, verbatim in FM
//! terms: Euclidean distances through the generalized `inner.prod`
//! GenOp, assignment via `agg.row(which.min)` (cached with `set.cache`),
//! counts and new centers via `groupby.row`, convergence when no point
//! moves. Each iteration is a single fused pass.

use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp};
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;

/// Options for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KmeansOptions {
    /// Number of clusters (the paper defaults to 10).
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Seed for the initial centers (sampled rows).
    pub seed: u64,
}

impl Default for KmeansOptions {
    fn default() -> Self {
        KmeansOptions { k: 10, max_iters: 50, seed: 1 }
    }
}

/// Result of [`kmeans`].
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// k×p cluster centers.
    pub centers: Dense,
    /// Final assignments (n×1, cached leaf).
    pub assignments: FM,
    /// Iterations run until convergence (or the cap).
    pub iterations: usize,
    /// Points that changed cluster at each iteration.
    pub moves: Vec<u64>,
}

/// Initial centers by farthest-first traversal over a hashed candidate
/// sample (a cheap kmeans++-style init that avoids Lloyd's worst local
/// optima). Shared with GMM via `util`.
fn init_centers(ctx: &FlashCtx, x: &FM, k: usize, seed: u64) -> Dense {
    crate::util::farthest_first_init(ctx, x, k, seed)
}

/// Lloyd's k-means on the rows of `x`.
pub fn kmeans(ctx: &FlashCtx, x: &FM, opts: &KmeansOptions) -> KmeansResult {
    let k = opts.k;
    let n = x.nrow();
    let p = x.ncol() as usize;
    assert!(k >= 1 && (k as u64) <= n, "bad cluster count");

    let mut centers = init_centers(ctx, x, k, opts.seed);
    let mut old_assign: Option<FM> = None;
    let mut moves_hist = Vec::new();
    let mut iterations = 0;

    for _ in 0..opts.max_iters {
        iterations += 1;
        // D[i, c] = Σⱼ (x[i,j] − centers[c,j])² via inner.prod with the
        // "euclidean" element function (paper Fig. 3).
        let centers_t = centers.transpose(); // p×k
        let d = x.inner_prod(centers_t, BinaryOp::EuclidSq, BinaryOp::Add);
        let assign = d.row_which_min();
        assign.set_cache(true); // paper: set.cache(I, TRUE)

        let counts = FM::ones(n, 1).groupby_row(&assign, AggOp::Sum, k);
        let sums = x.groupby_row(&assign, AggOp::Sum, k);

        let (counts_d, sums_d, moved) = match &old_assign {
            None => {
                let out = FM::materialize_multi(ctx, &[&counts, &sums]);
                (out[0].to_dense(ctx), out[1].to_dense(ctx), n)
            }
            Some(old) => {
                let moves_sink = assign.ne(old).cast(flashr_core::DType::F64).sum();
                let out = FM::materialize_multi(ctx, &[&counts, &sums, &moves_sink]);
                (out[0].to_dense(ctx), out[1].to_dense(ctx), out[2].value(ctx) as u64)
            }
        };
        moves_hist.push(moved);

        // New centers = groupby sums / counts; empty clusters keep their
        // previous center.
        let mut new_centers = Dense::zeros(k, p);
        for g in 0..k {
            let c = counts_d.at(g, 0);
            for j in 0..p {
                let v = if c > 0.0 { sums_d.at(g, j) / c } else { centers.at(g, j) };
                new_centers.set(g, j, v);
            }
        }
        centers = new_centers;

        let converged = moved == 0;
        old_assign = Some(assign);
        if converged {
            break;
        }
    }

    KmeansResult {
        centers,
        assignments: old_assign.expect("at least one iteration"),
        iterations,
        moves: moves_hist,
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

    /// Two tight blobs at 0 and at 10 (1-D).
    fn blobs(ctx: &FlashCtx, n: u64) -> FM {
        let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false);
        let base = FM::rnorm(ctx, n, 1, 0.0, 0.3, 5);
        base.binary(BinaryOp::Add, &(&labels.cast(flashr_core::DType::F64) * 10.0), false)
    }

    #[test]
    fn separates_two_blobs() {
        let ctx = ctx();
        let x = blobs(&ctx, 2000);
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 2, max_iters: 20, seed: 3 });
        let mut centers = [r.centers.at(0, 0), r.centers.at(1, 0)];
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(centers[0].abs() < 0.2, "center {}", centers[0]);
        assert!((centers[1] - 10.0).abs() < 0.2, "center {}", centers[1]);
    }

    #[test]
    fn converges_with_zero_moves() {
        let ctx = ctx();
        let x = blobs(&ctx, 1000);
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 2, max_iters: 30, seed: 1 });
        assert_eq!(*r.moves.last().unwrap(), 0, "did not converge: {:?}", r.moves);
        assert!(r.iterations < 30);
    }

    #[test]
    fn assignments_are_balanced_on_balanced_blobs() {
        let ctx = ctx();
        let x = blobs(&ctx, 2000);
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 2, max_iters: 20, seed: 1 });
        let a = r.assignments.to_vec(&ctx);
        let ones: f64 = a.iter().sum();
        assert!((ones - 1000.0).abs() < 1.0, "unbalanced assignment: {ones}");
    }

    #[test]
    fn one_pass_per_iteration() {
        let ctx = ctx();
        let x = blobs(&ctx, 1000).materialize(&ctx);
        let before = ctx.stats().snapshot();
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 2, max_iters: 20, seed: 1 });
        let passes = before.delta(&ctx.stats().snapshot()).passes;
        // One fused pass per iteration (the k init-center probes read
        // partitions directly without an engine pass).
        assert_eq!(passes as usize, r.iterations, "passes {passes} vs iters {}", r.iterations);
    }

    #[test]
    fn multi_dimensional_clusters() {
        let ctx = ctx();
        let n = 3000u64;
        let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 3.0, false);
        let base = FM::rnorm(&ctx, n, 4, 0.0, 0.5, 9);
        let x = base.binary(BinaryOp::Add, &(&labels.cast(flashr_core::DType::F64) * 8.0), false);
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 3, max_iters: 30, seed: 2 });
        let mut c0: Vec<f64> = (0..3).map(|g| r.centers.at(g, 0)).collect();
        c0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            c0[0].abs() < 0.5 && (c0[1] - 8.0).abs() < 0.5 && (c0[2] - 16.0).abs() < 0.5,
            "centers {c0:?}"
        );
    }

    #[test]
    fn k_equals_one_gives_the_mean() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 4000, 2, 3.0, 1.0, 4);
        let r = kmeans(&ctx, &x, &KmeansOptions { k: 1, max_iters: 5, seed: 1 });
        assert!((r.centers.at(0, 0) - 3.0).abs() < 0.1);
        assert!((r.centers.at(0, 1) - 3.0).abs() < 0.1);
        assert_eq!(*r.moves.last().unwrap(), 0);
    }
}
