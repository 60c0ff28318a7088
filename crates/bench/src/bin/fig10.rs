//! Figure 10: the optimization ablation, on SSDs.
//!
//! Three engine configurations, applied cumulatively over the "base"
//! implementation that materializes every matrix operation separately:
//!
//! * base        → `ExecMode::Eager` (per-op passes, intermediates on SSD)
//! * +mem-fuse   → `ExecMode::MemFuse` (one pass, whole-partition chain)
//! * +cache-fuse → `ExecMode::CacheFuse` (one pass, Pcache chain)
//!
//! The printed speedups are relative to base, matching the paper's bars.
//! Expected shape: mem-fuse gives the large win on every algorithm (it
//! removes the SSD round-trips); cache-fuse adds more on the algorithms
//! that are memory-bandwidth bound once I/O is gone.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin fig10 [-- --full]
//! ```

use flashr::data::{criteo_like, pagegraph_like};
use flashr::ml::*;
use flashr::prelude::*;
use flashr_bench::*;

fn main() {
    let scale = Scale::from_env();
    let n_criteo = scale.rows(100_000, 1_000_000);
    let n_page = scale.rows(50_000, 500_000);
    println!(
        "Figure 10 — engine ablation on SSDs (criteo n={n_criteo}, pagegraph n={n_page})\n"
    );

    let mut report = Report::new();
    let mut traced: Vec<(String, FlashCtx)> = Vec::new();
    let modes: [(&str, ExecMode); 3] = [
        ("base", ExecMode::Eager),
        ("mem-fuse", ExecMode::MemFuse),
        ("cache-fuse", ExecMode::CacheFuse),
    ];

    for (mode_name, mode) in modes {
        // A page cache sized over the widest leaf, so the eager
        // baseline's re-scans hit RAM (and W004 stays quiet under CI's
        // `FLASHR_DENY_LINTS=W004` gate).
        let cache_bytes = 2 * n_criteo * 40 * 8;
        let em = em_ctx_local_cached(&format!("fig10-{mode_name}"), cache_bytes).with_mode(mode);
        let d = criteo_like(&em, n_criteo, 40, 7);
        let x = d.x.materialize(&em);
        let y = d.y.materialize(&em);
        let pg = pagegraph_like(&em, n_page, 32, 10, 5).x.materialize(&em);
        let params = format!("mode={mode_name}");

        let (_, t) = time(|| correlation(&em, &x));
        report.push("fig10", "correlation", mode_name, &params, t.as_secs_f64());

        let (_, t) = time(|| pca(&em, &x, 10));
        report.push("fig10", "pca", mode_name, &params, t.as_secs_f64());

        let (_, t) = time(|| naive_bayes(&em, &x, &y, 2));
        report.push("fig10", "naive-bayes", mode_name, &params, t.as_secs_f64());

        let (_, t) = time(|| {
            logistic_regression(&em, &x, &y, &LogRegOptions { max_iters: 5, ..Default::default() })
        });
        report.push("fig10", "logistic-regression", mode_name, &params, t.as_secs_f64());

        let (_, t) = time(|| kmeans(&em, &pg, &KmeansOptions { k: 10, max_iters: 4, seed: 1 }));
        report.push("fig10", "kmeans", mode_name, &params, t.as_secs_f64());

        let (_, t) = time(|| {
            gmm(&em, &pg, &GmmOptions { k: 4, max_iters: 3, ..Default::default() })
        });
        report.push("fig10", "gmm", mode_name, &params, t.as_secs_f64());

        println!("{mode_name} done.");
        // Same per-pass critical-path table as perf_probe — the Fig. 10
        // story in wall-clock attribution: base is io-wait/write-stall
        // bound, the fused modes shift toward compute.
        print_critical_path(mode_name, &em.profile_report());
        traced.push((format!("fig10-{mode_name}"), em));
    }

    // Speedup over base per algorithm (the paper's bar heights).
    println!("\nspeedup over the base (per-op materializing) engine:");
    println!("{:<22} {:>12} {:>12}", "algorithm", "+mem-fuse", "+cache-fuse");
    let algos = ["correlation", "pca", "naive-bayes", "logistic-regression", "kmeans", "gmm"];
    for a in algos {
        let get = |sys: &str| {
            report
                .rows
                .iter()
                .find(|r| r.algorithm == a && r.system == sys)
                .map(|r| r.seconds)
                .unwrap_or(f64::NAN)
        };
        let base = get("base");
        println!(
            "{:<22} {:>11.2}x {:>11.2}x",
            a,
            base / get("mem-fuse"),
            base / get("cache-fuse")
        );
    }
    let parts: Vec<(&str, &FlashCtx)> = traced.iter().map(|(n, c)| (n.as_str(), c)).collect();
    maybe_export_trace(&parts);
    report.save_json("fig10");
}
