//! Table 6: runtime and peak memory of FlashR on the billion-scale
//! datasets, out-of-core.
//!
//! The paper runs Criteo (4.3 B × 40) and PageGraph-32ev (3.5 B × 32) on
//! a 1 TB machine and reports minutes of runtime with single-digit-GB
//! memory footprints. Scaled here (quick: 1 M rows; full: 50 M rows), the
//! property under test is the paper's: *memory consumption is a tiny,
//! size-independent fraction of the dataset* because only sink matrices
//! are ever materialized in RAM.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin table6 [-- --full]
//! ```

use flashr::data::{criteo_like, pagegraph_like};
use flashr::ml::*;

use flashr_bench::*;

fn gib(b: u64) -> f64 {
    b as f64 / (1u64 << 30) as f64
}

fn main() {
    let scale = Scale::from_env();
    let n_criteo = scale.rows(1_000_000, 50_000_000);
    let n_page = scale.rows(500_000, 25_000_000);
    println!("Table 6 — out-of-core runtime and peak memory (criteo n={n_criteo}, pagegraph n={n_page})\n");

    let mut report = Report::new();
    let em = em_ctx_raw("table6");

    let d = criteo_like(&em, n_criteo, 40, 7);
    let x = d.x.materialize(&em);
    let y = d.y.materialize(&em);
    let pg = pagegraph_like(&em, n_page, 32, 10, 5).x.materialize(&em);
    let criteo_bytes = n_criteo * 40 * 8;
    let page_bytes = n_page * 32 * 8;
    println!(
        "datasets on the array: criteo {:.2} GiB, pagegraph {:.2} GiB\n",
        gib(criteo_bytes),
        gib(page_bytes)
    );
    let baseline_rss = peak_rss_bytes();

    println!("{:<22} {:>12} {:>18}", "algorithm", "runtime (s)", "peak RSS (GiB)");
    let mut run = |name: &str, f: &mut dyn FnMut()| {
        let (_, t) = time(&mut *f);
        let rss = peak_rss_bytes();
        println!("{name:<22} {:>12.2} {:>18.2}", t.as_secs_f64(), gib(rss));
        report.push_extra("table6", name, "FlashR-EM", "", t.as_secs_f64(), gib(rss));
    };

    run("correlation", &mut || {
        correlation(&em, &x);
    });
    run("pca", &mut || {
        pca(&em, &x, 10);
    });
    run("naive-bayes", &mut || {
        naive_bayes(&em, &x, &y, 2);
    });
    run("lda", &mut || {
        lda(&em, &x, &y, 2);
    });
    run("logistic-regression", &mut || {
        logistic_regression(&em, &x, &y, &LogRegOptions { max_iters: 10, ..Default::default() });
    });
    run("kmeans", &mut || {
        kmeans(&em, &pg, &KmeansOptions { k: 10, max_iters: 10, seed: 1 });
    });
    run("gmm", &mut || {
        gmm(&em, &pg, &GmmOptions { k: 4, max_iters: 4, ..Default::default() });
    });

    let final_rss = peak_rss_bytes();
    println!(
        "\npeak RSS {:.2} GiB vs dataset {:.2} GiB → footprint ratio {:.3}",
        gib(final_rss),
        gib(criteo_bytes + page_bytes),
        final_rss as f64 / (criteo_bytes + page_bytes) as f64
    );
    println!(
        "(RSS before the algorithm loop: {:.2} GiB — includes generator buffers)",
        gib(baseline_rss)
    );
    if let Some(io) = em.profile_report().counters.io {
        println!("{}", io_summary_line(&io));
    }
    report.save_json("table6");
}
