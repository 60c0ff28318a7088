//! Figure 9: relative runtime of FlashR in memory vs on SSDs while
//! varying the computation-to-I/O ratio.
//!
//! Left plot (paper): correlation and Naive Bayes on n = 100M with
//! p ∈ {8..512}. Right plot: k-means on n = 100M, p = 32 with
//! k ∈ {2..64}. Expected shape: the EM/IM ratio starts well above 1 at
//! small p (I/O bound: Naive Bayes, whose computation is O(n·p), never
//! closes the gap) and approaches 1 as p or k grows for correlation and
//! k-means, whose computation grows faster than their I/O.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin fig9 [-- --full]
//! ```

use flashr::data::pagegraph_like;
use flashr::ml::*;
use flashr::prelude::*;
use flashr_bench::*;

fn main() {
    let scale = Scale::from_args();
    let n = scale.rows(100_000, 2_000_000);
    println!("Figure 9 — IM vs EM ratio vs computation/I-O balance (n = {n})\n");

    let mut report = Report::new();
    let mut traced: Vec<(String, FlashCtx)> = Vec::new();
    let p_values: &[usize] =
        if scale == Scale::Quick { &[8, 32, 128, 256] } else { &[8, 32, 128, 512] };
    let k_values: &[usize] = &[2, 8, 32, 64];

    println!("{:<14} {:>6} {:>10} {:>10} {:>8}", "algorithm", "param", "IM (s)", "EM (s)", "EM/IM");

    for &p in p_values {
        let im = im_ctx();
        let em = em_ctx_local(&format!("fig9-p{p}"));
        let xi = FM::rnorm(&im, n, p, 0.0, 1.0, 7).materialize(&im);
        let xe = FM::rnorm(&em, n, p, 0.0, 1.0, 7).materialize(&em);
        let yi = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false).materialize(&im);
        let ye = FM::seq(n, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 2.0, false).materialize(&em);

        let (_, ti) = time(|| correlation(&im, &xi));
        let (_, te) = time(|| correlation(&em, &xe));
        report.push_extra(
            "fig9",
            "correlation",
            "EM/IM",
            &format!("p={p}"),
            te.as_secs_f64(),
            ti.as_secs_f64(),
        );
        println!(
            "{:<14} p={:<4} {:>10.2} {:>10.2} {:>8.2}",
            "correlation",
            p,
            ti.as_secs_f64(),
            te.as_secs_f64(),
            te.as_secs_f64() / ti.as_secs_f64()
        );

        let (_, ti) = time(|| naive_bayes(&im, &xi, &yi, 2));
        let (_, te) = time(|| naive_bayes(&em, &xe, &ye, 2));
        report.push_extra(
            "fig9",
            "naive-bayes",
            "EM/IM",
            &format!("p={p}"),
            te.as_secs_f64(),
            ti.as_secs_f64(),
        );
        println!(
            "{:<14} p={:<4} {:>10.2} {:>10.2} {:>8.2}",
            "naive-bayes",
            p,
            ti.as_secs_f64(),
            te.as_secs_f64(),
            te.as_secs_f64() / ti.as_secs_f64()
        );
        traced.push((format!("IM-p{p}"), im));
        traced.push((format!("EM-p{p}"), em));
    }

    println!();
    let p = 32usize;
    for &k in k_values {
        let im = im_ctx();
        let em = em_ctx_local(&format!("fig9-k{k}"));
        let xi = pagegraph_like(&im, n, p, k.max(2), 3).x.materialize(&im);
        let xe = pagegraph_like(&em, n, p, k.max(2), 3).x.materialize(&em);
        let opts = KmeansOptions { k, max_iters: 4, seed: 1 };

        let (_, ti) = time(|| kmeans(&im, &xi, &opts));
        let (_, te) = time(|| kmeans(&em, &xe, &opts));
        report.push_extra(
            "fig9",
            "kmeans",
            "EM/IM",
            &format!("k={k}"),
            te.as_secs_f64(),
            ti.as_secs_f64(),
        );
        println!(
            "{:<14} k={:<4} {:>10.2} {:>10.2} {:>8.2}",
            "kmeans",
            k,
            ti.as_secs_f64(),
            te.as_secs_f64(),
            te.as_secs_f64() / ti.as_secs_f64()
        );
        traced.push((format!("IM-k{k}"), im));
        traced.push((format!("EM-k{k}"), em));
    }

    // Per-context critical-path tables only for the EM side (the IM runs
    // are the denominators; their breakdowns are all-compute).
    for (name, ctx) in traced.iter().filter(|(n, _)| n.starts_with("EM")) {
        print_critical_path(name, &ctx.profile_report());
    }
    let parts: Vec<(&str, &FlashCtx)> = traced.iter().map(|(n, c)| (n.as_str(), c)).collect();
    maybe_export_trace(&parts);

    println!("\n(extra column of the JSON rows holds the IM seconds)");
    report.save_json("fig9");
}
