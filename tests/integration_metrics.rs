//! Model-quality integration: the metrics module scoring real models on
//! the synthetic evaluation datasets, in memory and out-of-core.

use flashr::data::{criteo_like, pagegraph_like};
use flashr::ml::*;
use flashr::prelude::*;
use flashr_testkit::TempDir;

fn ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 1024, ..Default::default() }, None)
}

#[test]
fn logistic_probabilities_beat_chance_log_loss() {
    let ctx = ctx();
    let d = criteo_like(&ctx, 15_000, 8, 2);
    let (x, y) = (d.x.materialize(&ctx), d.y.materialize(&ctx));
    let m =
        logistic_regression(&ctx, &x, &y, &LogRegOptions { max_iters: 25, ..Default::default() });
    let ll = log_loss(&ctx, &y, &m.predict_proba(&x));
    // The p=8 criteo-like ground truth has modest signal; its Bayes
    // log-loss is ≈0.56. Chance is ln 2 ≈ 0.693.
    assert!(ll < 0.62, "log loss {ll}");
    // The reported training loss and the metric agree.
    assert!((ll - m.loss).abs() < 1e-9, "metric {ll} vs optimizer {l}", l = m.loss);
}

#[test]
fn kmeans_recovers_planted_partition_by_ari() {
    let ctx = ctx();
    let k = 4;
    let d = pagegraph_like(&ctx, 20_000, 8, k, 6);
    let x = d.x.materialize(&ctx);
    // Ground truth: row r belongs to component r % k.
    let truth = FM::seq(x.nrow(), 0.0, 1.0)
        .binary_scalar(BinaryOp::Rem, k as f64, false)
        .cast(DType::I64)
        .materialize(&ctx);
    let r = kmeans(&ctx, &x, &KmeansOptions { k, max_iters: 40, seed: 3 });
    let ari = adjusted_rand_index(&ctx, &truth, &r.assignments, k);
    assert!(ari > 0.98, "ARI {ari} on well-separated clusters");
}

#[test]
fn gmm_and_kmeans_agree_by_ari_on_separated_data() {
    let ctx = ctx();
    let k = 3;
    let d = pagegraph_like(&ctx, 9_000, 6, k, 8);
    let x = d.x.materialize(&ctx);
    let km = kmeans(&ctx, &x, &KmeansOptions { k, max_iters: 40, seed: 1 });
    let gm = gmm(&ctx, &x, &GmmOptions { k, max_iters: 40, seed: 2, ..Default::default() });
    let gm_assign = gm.predict(&x).materialize(&ctx);
    let ari = adjusted_rand_index(&ctx, &km.assignments, &gm_assign, k);
    assert!(ari > 0.97, "k-means and GMM disagree: ARI {ari}");
}

#[test]
fn confusion_matrix_diagonal_dominates_for_good_classifiers() {
    let ctx = ctx();
    let n = 12_000u64;
    let labels = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 3.0, false).materialize(&ctx);
    let x = FM::rnorm(&ctx, n, 3, 0.0, 1.0, 4)
        .binary(BinaryOp::Add, &(&labels.cast(DType::F64) * 5.0), false)
        .materialize(&ctx);
    let m = lda(&ctx, &x, &labels, 3);
    let pred = m.predict(&x).materialize(&ctx);
    let cm = confusion_matrix(&ctx, &labels, &pred, 3);
    let mut diag = 0.0;
    let mut total = 0.0;
    for i in 0..3 {
        for j in 0..3 {
            total += cm.at(i, j);
            if i == j {
                diag += cm.at(i, j);
            }
        }
    }
    assert_eq!(total, n as f64, "confusion matrix must count every row");
    assert!(diag / total > 0.99, "diagonal fraction {}", diag / total);
}

#[test]
fn ridge_r2_on_em_matches_im() {
    let dir = TempDir::new("metrics-em");
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let em = FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, storage: StorageClass::Em, ..Default::default() },
        Some(safs),
    );
    let im = ctx();

    let run = |c: &FlashCtx| -> (Vec<f64>, f64) {
        let x = FM::rnorm(c, 8000, 3, 0.0, 1.0, 9).materialize(c);
        let w = Dense::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let y = x
            .matmul(&FM::from_dense(w))
            .binary(BinaryOp::Add, &FM::rnorm(c, 8000, 1, 0.0, 0.3, 10), false)
            .materialize(c);
        let m = ridge_regression(c, &x, &y, 1e-8);
        let r2 = r_squared(c, &y, &m.predict(&x));
        (m.weights, r2)
    };
    let (w_im, r2_im) = run(&im);
    let (w_em, r2_em) = run(&em);
    for (a, b) in w_im.iter().zip(&w_em) {
        assert!((a - b).abs() < 1e-9, "EM and IM ridge weights diverge");
    }
    assert!((r2_im - r2_em).abs() < 1e-9);
    assert!(r2_im > 0.95, "r2 {r2_im}");
}
