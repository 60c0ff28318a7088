//! Table 4: computation and I/O complexity of the benchmark algorithms —
//! verified empirically.
//!
//! For each algorithm we measure runtime while doubling one parameter and
//! report the observed scaling exponent (log₂ of the runtime ratio).
//! Expected: correlation/PCA ≈ 2 in p; NaiveBayes/logreg ≈ 1 in p;
//! k-means ≈ 1 in k; everything ≈ 1 in n. I/O bytes (via the engine's
//! counters) scale linearly in n·p for all of them.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin table4 [-- --full]
//! ```

use flashr::data::pagegraph_like;
use flashr::ml::*;
use flashr::prelude::*;
use flashr_bench::*;

fn exponent(t_small: f64, t_big: f64) -> f64 {
    (t_big / t_small).log2()
}

fn main() {
    let scale = Scale::from_args();
    let n = scale.rows(200_000, 2_000_000);
    println!("Table 4 — empirical complexity exponents (n = {n})\n");
    let mut report = Report::new();

    // Scaling in p (double 64 → 128), iteration counts pinned.
    let (p1, p2) = (64usize, 128usize);
    let ctx = im_ctx();
    let x1 = FM::rnorm(&ctx, n, p1, 0.0, 1.0, 3).materialize(&ctx);
    let x2 = FM::rnorm(&ctx, n, p2, 0.0, 1.0, 3).materialize(&ctx);
    let y = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false).materialize(&ctx);

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>16}",
        "algorithm", "axis", "t(small) s", "t(2x) s", "observed exp"
    );

    let mut measure = |name: &str, axis: &str, expected: f64, ts: f64, tb: f64| {
        let e = exponent(ts, tb);
        println!("{name:<22} {axis:>10} {ts:>12.3} {tb:>12.3} {e:>10.2} (paper: {expected:.0})");
        report.push_extra("table4", name, axis, &format!("expected={expected}"), tb, e);
    };

    let (_, t1) = time(|| correlation(&ctx, &x1));
    let (_, t2) = time(|| correlation(&ctx, &x2));
    measure("correlation", "p", 2.0, t1.as_secs_f64(), t2.as_secs_f64());

    let (_, t1) = time(|| pca(&ctx, &x1, 4));
    let (_, t2) = time(|| pca(&ctx, &x2, 4));
    measure("pca", "p", 2.0, t1.as_secs_f64(), t2.as_secs_f64());

    let (_, t1) = time(|| naive_bayes(&ctx, &x1, &y, 2));
    let (_, t2) = time(|| naive_bayes(&ctx, &x2, &y, 2));
    measure("naive-bayes", "p", 1.0, t1.as_secs_f64(), t2.as_secs_f64());

    let lr = LogRegOptions { max_iters: 5, tol: 0.0, ..Default::default() };
    let (_, t1) = time(|| logistic_regression(&ctx, &x1, &y, &lr));
    let (_, t2) = time(|| logistic_regression(&ctx, &x2, &y, &lr));
    measure("logistic-regression", "p", 1.0, t1.as_secs_f64(), t2.as_secs_f64());

    // k-means in k (double 8 → 16) at fixed p.
    let xk = pagegraph_like(&ctx, n, 32, 8, 5).x.materialize(&ctx);
    let (_, t1) = time(|| kmeans(&ctx, &xk, &KmeansOptions { k: 8, max_iters: 3, seed: 1 }));
    let (_, t2) = time(|| kmeans(&ctx, &xk, &KmeansOptions { k: 16, max_iters: 3, seed: 1 }));
    measure("kmeans", "k", 1.0, t1.as_secs_f64(), t2.as_secs_f64());

    // GMM in k (double 2 → 4).
    let (_, t1) = time(|| gmm(&ctx, &xk, &GmmOptions { k: 2, max_iters: 2, ..Default::default() }));
    let (_, t2) = time(|| gmm(&ctx, &xk, &GmmOptions { k: 4, max_iters: 2, ..Default::default() }));
    measure("gmm", "k", 1.0, t1.as_secs_f64(), t2.as_secs_f64());

    // Scaling in n (half the rows) for one cheap and one expensive algo.
    let xh = FM::rnorm(&ctx, n / 2, p1, 0.0, 1.0, 3).materialize(&ctx);
    let (_, th) = time(|| correlation(&ctx, &xh));
    let (_, tf) = time(|| correlation(&ctx, &x1));
    measure("correlation", "n", 1.0, th.as_secs_f64(), tf.as_secs_f64());

    // I/O linearity in n·p, via an EM context's byte counters.
    println!("\nI/O bytes per pass (EM context; paper: O(n·p) for all):");
    let em = em_ctx_raw("table4");
    for p in [16usize, 32, 64] {
        let x = FM::rnorm(&em, n / 4, p, 0.0, 1.0, 1).materialize(&em);
        let before = em.safs().unwrap().stats_snapshot();
        let _ = correlation(&em, &x);
        let io = before.delta(&em.safs().unwrap().stats_snapshot());
        let expect = (n / 4) * p as u64 * 8;
        println!(
            "  p={p:<4} read {:>12} bytes (data size {expect:>12}, ratio {:.2})",
            io.read_bytes,
            io.read_bytes as f64 / expect as f64
        );
    }
    print_critical_path("table4-im", &ctx.profile_report());
    print_critical_path("table4-em", &em.profile_report());
    maybe_export_trace(&[("table4-im", &ctx), ("table4-em", &em)]);
    report.save_json("table4");
}
