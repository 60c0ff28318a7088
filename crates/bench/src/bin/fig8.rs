//! Figure 8: FlashR-IM and FlashR-EM vs "Revolution R Open"-style
//! execution (single-threaded everything except BLAS) on the MASS-package
//! computations: `crossprod`, `correlation`, `mvrnorm` and `lda`.
//!
//! The paper uses n = 1M, p = 1000 on the 48-core server; quick mode
//! scales to n = 200k, p = 128 so the Jacobi eigensolver stays fast.
//!
//! Expected shape (paper): FlashR beats RRO by >10× on mvrnorm/LDA and
//! slightly on plain crossprod — parallelizing only the BLAS call is not
//! enough once the rest of the algorithm touches the data too.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin fig8 [-- --full]
//! ```

use flashr::baselines::rro;
use flashr::ml::{correlation, lda, mvrnorm};
use flashr::prelude::*;
use flashr_bench::*;

fn main() {
    let scale = Scale::from_args();
    let n = scale.rows(200_000, 1_000_000);
    let p = if scale == Scale::Quick { 128usize } else { 512 };
    let params = format!("n={n}, p={p}");
    println!("Figure 8 — FlashR vs Revolution-R-Open-style execution ({params})\n");

    let mut report = Report::new();

    // Shared inputs: a covariance for mvrnorm, labeled data for lda.
    let sigma = Dense::from_fn(p, p, |i, j| {
        if i == j {
            2.0
        } else {
            0.8f64.powi((i as i32 - j as i32).abs()) * 0.5
        }
    });
    let mu = vec![0.0; p];

    let mut traced: Vec<(String, FlashCtx)> = Vec::new();
    for (system, em) in [("FlashR-IM", false), ("FlashR-EM", true)] {
        let ctx = if em { em_ctx_local(&format!("fig8-{system}")) } else { im_ctx() };
        let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 11).materialize(&ctx);
        let labels =
            FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false).materialize(&ctx);
        let xl =
            x.binary(BinaryOp::Add, &(&labels.cast(DType::F64) * 3.0), false).materialize(&ctx);

        let (_, t) = time(|| x.crossprod().to_dense(&ctx));
        report.push("fig8", "crossprod", system, &params, t.as_secs_f64());
        println!("  {system:<12} crossprod  {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| correlation(&ctx, &x));
        report.push("fig8", "correlation", system, &params, t.as_secs_f64());
        println!("  {system:<12} corr       {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| mvrnorm(&ctx, n, &mu, &sigma, 3).col_sums().to_vec(&ctx));
        report.push("fig8", "mvrnorm", system, &params, t.as_secs_f64());
        println!("  {system:<12} mvrnorm    {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| lda(&ctx, &xl, &labels, 2));
        report.push("fig8", "lda", system, &params, t.as_secs_f64());
        println!("  {system:<12} lda        {:>8.2}s", t.as_secs_f64());
        traced.push((system.to_string(), ctx));
    }

    // RRO model: dense in-memory, sequential except GEMM.
    {
        let ctx = im_ctx();
        let system = "RRO-like";
        let xf = FM::rnorm(&ctx, n, p, 0.0, 1.0, 11);
        let xd = xf.to_dense(&ctx);
        let labels: Vec<f64> = (0..n).map(|r| (r % 2) as f64).collect();
        let mut xld = xd.clone();
        for (r, &label) in labels.iter().enumerate() {
            if label > 0.5 {
                for v in xld.row_mut(r) {
                    *v += 3.0;
                }
            }
        }

        let (_, t) = time(|| rro::rro_crossprod(&xd));
        report.push("fig8", "crossprod", system, &params, t.as_secs_f64());
        println!("  {system:<12} crossprod  {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| rro::rro_correlation(&xd));
        report.push("fig8", "correlation", system, &params, t.as_secs_f64());
        println!("  {system:<12} corr       {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| rro::rro_mvrnorm(n as usize, &mu, &sigma, 3));
        report.push("fig8", "mvrnorm", system, &params, t.as_secs_f64());
        println!("  {system:<12} mvrnorm    {:>8.2}s", t.as_secs_f64());

        let (_, t) = time(|| rro::rro_lda(&xld, &labels, 2));
        report.push("fig8", "lda", system, &params, t.as_secs_f64());
        println!("  {system:<12} lda        {:>8.2}s", t.as_secs_f64());
    }

    println!("\nnormalized runtime (relative to FlashR-IM; paper Fig. 8):");
    report.print_normalized("FlashR-IM");
    for (name, ctx) in &traced {
        print_critical_path(name, &ctx.profile_report());
    }
    let parts: Vec<(&str, &FlashCtx)> = traced.iter().map(|(n, c)| (n.as_str(), c)).collect();
    maybe_export_trace(&parts);
    report.save_json("fig8");
}
