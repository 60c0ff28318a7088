//! Figure 7: normalized runtime of FlashR in memory (FlashR-IM) and on
//! SSDs (FlashR-EM) compared with per-operation-materializing execution
//! ("MLlib-like" — our Spark/H2O stand-in, same algorithms, eager
//! engine).
//!
//! The paper runs correlation, PCA, NaiveBayes and logistic regression on
//! Criteo-sub and k-means and GMM on PageGraph-32ev-sub. Profiles:
//!
//! * `--profile local` — the 48-core server with the SATA-SSD array
//!   throttle (Fig. 7a);
//! * `--profile ec2`   — the i3.16xlarge NVMe throttle (Fig. 7b).
//!
//! Expected shape (paper): FlashR-IM fastest; FlashR-EM within ~2× of IM
//! (closer under the NVMe profile); the eager comparator 3–20× slower.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin fig7 -- --profile local [--full]
//! ```

use flashr::baselines::eagerml;
use flashr::data::{criteo_like, pagegraph_like};
use flashr::ml::*;
use flashr::prelude::*;
use flashr_bench::*;

fn datasets(ctx: &FlashCtx, n_criteo: u64, n_page: u64) -> (FM, FM, FM) {
    let d = criteo_like(ctx, n_criteo, 40, 7);
    let x = d.x.materialize(ctx);
    let y = d.y.materialize(ctx);
    let pg = pagegraph_like(ctx, n_page, 32, 10, 5).x.materialize(ctx);
    (x, y, pg)
}

fn run_all(
    report: &mut Report,
    system: &str,
    ctx: &FlashCtx,
    n_criteo: u64,
    n_page: u64,
    eager: bool,
) {
    let (x, y, pg) = datasets(ctx, n_criteo, n_page);
    let params = format!("criteo n={n_criteo}, pagegraph n={n_page}");
    let lr_opts = LogRegOptions { max_iters: 10, tol: 1e-6, ..Default::default() };
    let km_opts = KmeansOptions { k: 10, max_iters: 8, seed: 1 };
    let gm_opts = GmmOptions { k: 10, max_iters: 4, tol: 1e-2, ..Default::default() };

    let (_, t) =
        time(|| if eager { eagerml::correlation_eager(ctx, &x) } else { correlation(ctx, &x) });
    report.push("fig7", "correlation", system, &params, t.as_secs_f64());
    println!("  {system:<14} correlation      {:>8.2}s", t.as_secs_f64());

    let (_, t) = time(|| if eager { eagerml::pca_eager(ctx, &x, 10) } else { pca(ctx, &x, 10) });
    report.push("fig7", "pca", system, &params, t.as_secs_f64());
    println!("  {system:<14} pca              {:>8.2}s", t.as_secs_f64());

    let (_, t) = time(|| {
        if eager {
            eagerml::naive_bayes_eager(ctx, &x, &y, 2)
        } else {
            naive_bayes(ctx, &x, &y, 2)
        }
    });
    report.push("fig7", "naive-bayes", system, &params, t.as_secs_f64());
    println!("  {system:<14} naive-bayes      {:>8.2}s", t.as_secs_f64());

    let (_, t) = time(|| {
        if eager {
            eagerml::logistic_regression_eager(ctx, &x, &y, &lr_opts)
        } else {
            logistic_regression(ctx, &x, &y, &lr_opts)
        }
    });
    report.push("fig7", "logistic-regression", system, &params, t.as_secs_f64());
    println!("  {system:<14} logreg           {:>8.2}s", t.as_secs_f64());

    let (_, t) = time(|| {
        if eager {
            eagerml::kmeans_eager(ctx, &pg, &km_opts)
        } else {
            kmeans(ctx, &pg, &km_opts)
        }
    });
    report.push("fig7", "kmeans", system, &params, t.as_secs_f64());
    println!("  {system:<14} kmeans           {:>8.2}s", t.as_secs_f64());

    let (_, t) =
        time(
            || if eager { eagerml::gmm_eager(ctx, &pg, &gm_opts) } else { gmm(ctx, &pg, &gm_opts) },
        );
    report.push("fig7", "gmm", system, &params, t.as_secs_f64());
    println!("  {system:<14} gmm              {:>8.2}s", t.as_secs_f64());
}

fn main() {
    let scale = Scale::from_args();
    let profile = profile_arg();
    let n_criteo = scale.rows(200_000, 4_000_000);
    let n_page = scale.rows(100_000, 2_000_000);

    println!(
        "Figure 7{} — comparative performance ({profile} profile, {scale:?} scale)\n",
        if profile == "ec2" { "b" } else { "a" }
    );

    let mut report = Report::new();

    println!("FlashR-IM:");
    let im = im_ctx();
    run_all(&mut report, "FlashR-IM", &im, n_criteo, n_page, false);

    println!("FlashR-EM:");
    let em = if profile == "ec2" { em_ctx_ec2("fig7") } else { em_ctx_local("fig7") };
    run_all(&mut report, "FlashR-EM", &em, n_criteo, n_page, false);

    println!("MLlib-like (eager per-op materialization, in memory):");
    let eager = im_ctx().with_mode(ExecMode::Eager);
    run_all(&mut report, "MLlib-like", &eager, n_criteo, n_page, true);

    println!("\nnormalized runtime (relative to FlashR-IM; paper Fig. 7):");
    report.print_normalized("FlashR-IM");
    print_critical_path("FlashR-IM", &im.profile_report());
    print_critical_path("FlashR-EM", &em.profile_report());
    print_critical_path("MLlib-like", &eager.profile_report());
    maybe_export_trace(&[("FlashR-IM", &im), ("FlashR-EM", &em), ("MLlib-like", &eager)]);
    report.save_json(&format!("fig7-{profile}"));
}
