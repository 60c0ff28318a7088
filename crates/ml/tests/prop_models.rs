//! Property tests for the model layer: exact recovery guarantees that
//! must hold for *any* problem size and seed — ridge solves noiseless
//! linear systems, correlation matrices stay valid, k-means partitions
//! and centers stay mutually consistent.

use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp};
use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_linalg::Dense;
use flashr_ml::*;
use flashr_testkit::cases;

const CASES: usize = 12;

fn ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None)
}

#[test]
fn ridge_recovers_noiseless_weights() {
    cases(CASES, |rng, _| {
        let p = rng.usize(1..6);
        let seed = rng.u64(0..1000);
        let nweights = rng.usize(1..6);
        let weights = rng.vec_f64(nweights, -3.0..3.0);
        let intercept = rng.f64(-5.0..5.0);
        let p = p.min(weights.len());
        let w = &weights[..p];
        let ctx = ctx();
        let n = 2000u64;
        let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, seed);
        let wd = Dense::from_vec(p, 1, w.to_vec());
        let y = &x.matmul(&FM::from_dense(wd)) + intercept;
        let m = ridge_regression(&ctx, &x, &y, 0.0);
        for (got, want) in m.weights.iter().zip(w) {
            assert!((got - want).abs() < 1e-7, "weight {got} vs {want}");
        }
        assert!((m.intercept - intercept).abs() < 1e-7);
    });
}

#[test]
fn correlation_matrix_is_always_valid() {
    cases(CASES, |rng, _| {
        let p = rng.usize(2..6);
        let seed = rng.u64(0..1000);
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 3000, p, 1.0, 2.0, seed);
        let c = correlation(&ctx, &x);
        for i in 0..p {
            assert!((c.at(i, i) - 1.0).abs() < 1e-9);
            for j in 0..p {
                assert!(c.at(i, j) >= -1.0 - 1e-12 && c.at(i, j) <= 1.0 + 1e-12);
                assert!((c.at(i, j) - c.at(j, i)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn kmeans_centers_are_the_means_of_their_clusters() {
    cases(CASES, |rng, _| {
        let k = rng.usize(1..4);
        let seed = rng.u64(0..500);
        let ctx = ctx();
        let n = 1500u64;
        let x = FM::runif(&ctx, n, 2, -10.0, 10.0, seed).materialize(&ctx);
        let r = kmeans(&ctx, &x, &KmeansOptions { k, max_iters: 15, seed: seed ^ 7 });
        // Recompute the centroid of every cluster from the assignments;
        // after the final update they must coincide with r.centers when
        // converged, and be *self-consistent* regardless.
        let sums = x.groupby_row(&r.assignments, AggOp::Sum, k).to_dense(&ctx);
        let counts = FM::ones(n, 1).groupby_row(&r.assignments, AggOp::Sum, k).to_dense(&ctx);
        if *r.moves.last().unwrap() == 0 {
            for g in 0..k {
                let cnt = counts.at(g, 0);
                if cnt == 0.0 {
                    continue;
                }
                for j in 0..2 {
                    let centroid = sums.at(g, j) / cnt;
                    assert!(
                        (centroid - r.centers.at(g, j)).abs() < 1e-9,
                        "cluster {g} center not the centroid"
                    );
                }
            }
        }
        // Assignments must be nearest-center (Lloyd invariant).
        let d = x.inner_prod(r.centers.transpose(), BinaryOp::EuclidSq, BinaryOp::Add);
        let nearest = d.row_which_min();
        let disagree = nearest
            .ne(&r.assignments)
            .cast(flashr_core::DType::F64)
            .sum()
            .value(&ctx);
        if *r.moves.last().unwrap() == 0 {
            assert_eq!(disagree, 0.0, "assignments are not nearest-center");
        }
    });
}

#[test]
fn naive_bayes_priors_sum_to_one() {
    cases(CASES, |rng, _| {
        let k = rng.usize(2..5);
        let seed = rng.u64(0..500);
        let ctx = ctx();
        let n = 3000u64;
        let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, k as f64, false);
        let x = FM::rnorm(&ctx, n, 2, 0.0, 1.0, seed);
        let m = naive_bayes(&ctx, &x, &labels, k);
        let total: f64 = m.priors.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for v in 0..k {
            for j in 0..2 {
                assert!(m.vars.at(v, j) > 0.0, "variance must stay positive");
            }
        }
    });
}
