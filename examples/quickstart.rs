//! Quickstart: lazy matrices, one-pass fusion, and out-of-core execution.
//!
//! ```sh
//! cargo run --release -p flashr --example quickstart
//! ```

use flashr::prelude::*;
use std::time::Instant;

fn main() {
    // ---------------------------------------------------------------
    // 1. In-memory: build a DAG, materialize it in one fused pass.
    // ---------------------------------------------------------------
    let ctx = FlashCtx::in_memory();
    let n = 2_000_000u64;
    let p = 16usize;

    // Lazy: no data exists yet.
    let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 42);
    let y = &(&x * 2.0) + 1.0; // still lazy

    let t = Instant::now();
    let results = FM::materialize_multi(
        &ctx,
        &[
            &y.col_means(), // agg.col sink
            &y.crossprod(), // Gramian sink
            &y.abs().sum(), // full-agg sink over a second elementwise op
        ],
    );
    let took = t.elapsed();

    let means = results[0].to_vec(&ctx);
    let gram = results[1].to_dense(&ctx);
    let abs_sum = results[2].value(&ctx);
    println!("== in-memory ==");
    println!("n = {n}, p = {p}; three sinks in one fused pass: {took:?}");
    println!("col mean[0]   = {:.4}  (expect ≈ 1.0)", means[0]);
    println!("gram[0][0]/n  = {:.4}  (expect ≈ E[(2z+1)²] = 5)", gram.at(0, 0) / n as f64);
    println!("mean |y|      = {:.4}", abs_sum / (n * p as u64) as f64);

    let s = ctx.stats().snapshot();
    println!(
        "engine: {} passes, {} partitions, {} pcache chunks",
        s.passes, s.parts, s.pcache_chunks
    );

    // ---------------------------------------------------------------
    // 2. Out-of-core: same program, matrices on an SSD-array substrate.
    // ---------------------------------------------------------------
    let dir = std::env::temp_dir().join("flashr-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let em = FlashCtx::on_ssds(SafsConfig::striped_under(&dir, 4)).expect("SAFS open");

    let x_em = FM::rnorm(&em, n, p, 0.0, 1.0, 42).materialize(&em); // writes to "SSDs"
    let y_em = &(&x_em * 2.0) + 1.0; // same lazy program as above
    let t = Instant::now();
    let mean_em = y_em.col_means().to_vec(&em);
    let took_em = t.elapsed();

    let io = em.safs().unwrap().stats_snapshot();
    println!("\n== out-of-core ==");
    println!("same reduction over SSD-resident data: {took_em:?}");
    println!("col mean[0] = {:.4} (same value, different storage)", mean_em[0]);
    println!(
        "I/O: {:.1} MiB written, {:.1} MiB read across {} requests",
        io.write_bytes as f64 / (1 << 20) as f64,
        io.read_bytes as f64 / (1 << 20) as f64,
        io.read_reqs + io.write_reqs
    );
    let _ = std::fs::remove_dir_all(&dir);
}
