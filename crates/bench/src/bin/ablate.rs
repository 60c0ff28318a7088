//! Engine-parameter ablations beyond the paper's Figure 10: sensitivity
//! of the cache-fuse engine to the Pcache budget, the I/O partition
//! height, and the worker thread count. These are the design constants
//! DESIGN.md fixes (256 KiB Pcache budget, 16384-row partitions); this
//! harness regenerates the evidence for those choices.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin ablate [-- --full]
//! ```

use flashr::prelude::*;
use flashr_bench::*;

/// A deep per-iteration DAG (elementwise chain + Gramian + two sinks),
/// the workload class where cache residency matters.
fn workload(ctx: &FlashCtx, x: &FM) -> f64 {
    let y = &(&(x + 1.0) * 0.5).abs().sqrt() - 0.25;
    let out = FM::materialize_multi(ctx, &[&y.crossprod(), &y.sum(), &y.square().col_sums()]);
    out[1].value(ctx)
}

fn main() {
    let scale = Scale::from_args();
    let n = scale.rows(1_000_000, 8_000_000);
    let p = 16usize;
    println!("Engine ablations (n = {n}, p = {p})\n");
    let mut report = Report::new();

    // ---------------------------------------------------- Pcache budget
    println!("Pcache budget sweep (CacheFuse):");
    println!("{:>12} {:>10}", "budget", "seconds");
    for kib in [16usize, 64, 256, 1024, 4096, 16384] {
        let ctx = FlashCtx::with_config(
            CtxConfig { pcache_bytes: kib * 1024, ..Default::default() },
            None,
        );
        let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 3).materialize(&ctx);
        workload(&ctx, &x); // warm
        let (_, t) = time(|| workload(&ctx, &x));
        println!("{:>9}KiB {:>10.3}", kib, t.as_secs_f64());
        report.push("ablate", "pcache-budget", &format!("{kib}KiB"), "", t.as_secs_f64());
    }

    // ------------------------------------------------- partition height
    println!("\nI/O partition height sweep:");
    println!("{:>12} {:>10}", "rows/part", "seconds");
    for rows in [1024u64, 4096, 16384, 65536, 262144] {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: rows, ..Default::default() }, None);
        let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 3).materialize(&ctx);
        workload(&ctx, &x);
        let (_, t) = time(|| workload(&ctx, &x));
        println!("{rows:>12} {:>10.3}", t.as_secs_f64());
        report.push("ablate", "rows-per-part", &format!("{rows}"), "", t.as_secs_f64());
    }

    // ----------------------------------------------------- thread count
    let max_threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    println!("\nworker thread sweep (host has {max_threads} CPUs):");
    println!("{:>12} {:>10} {:>10}", "threads", "seconds", "speedup");
    let mut base = None;
    let mut t_count = 1usize;
    while t_count <= max_threads * 2 {
        let ctx =
            FlashCtx::with_config(CtxConfig { nthreads: t_count, ..Default::default() }, None);
        let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 3).materialize(&ctx);
        workload(&ctx, &x);
        let (_, t) = time(|| workload(&ctx, &x));
        let secs = t.as_secs_f64();
        let b = *base.get_or_insert(secs);
        println!("{t_count:>12} {secs:>10.3} {:>9.2}x", b / secs);
        report.push("ablate", "threads", &format!("{t_count}"), "", secs);
        t_count *= 2;
    }

    // ---------------------------------------------- map-chain length sweep
    // Chains of 1/4/16 alternating scalar ops feeding a sum, under the
    // fused engine and the eager one (one pass and one whole matrix per
    // op): the intermediate traffic fusion removes grows with the chain.
    println!("\nmap-chain fusion sweep (alternating +0.5 / *0.99 ops):");
    println!("{:>12} {:>10} {:>11} {:>9}", "chain len", "fused s", "eager s", "speedup");
    for len in [1usize, 4, 16] {
        let build = |x: &FM| {
            let mut cur = x.clone();
            for i in 0..len {
                cur = if i % 2 == 0 { &cur + 0.5 } else { &cur * 0.99 };
            }
            cur
        };
        let mut secs = [0.0f64; 2];
        for (i, mode) in [ExecMode::CacheFuse, ExecMode::Eager].into_iter().enumerate() {
            let ctx = FlashCtx::with_config(CtxConfig { mode, ..Default::default() }, None);
            let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 3).materialize(&ctx);
            build(&x).sum().value(&ctx); // warm
            let (_, t) = time(|| build(&x).sum().value(&ctx));
            secs[i] = t.as_secs_f64();
            let label = format!("{len}-{}", if i == 0 { "fused" } else { "eager" });
            report.push("ablate", "chain-len", &label, "", secs[i]);
        }
        println!("{len:>12} {:>10.3} {:>11.3} {:>8.2}x", secs[0], secs[1], secs[1] / secs[0]);
    }

    // ------------------------------------------------ SA-cache size sweep
    // A 5-iteration KMeans-shaped workload (every iteration re-reads the
    // EM input in full). Cache size 0 is today's behavior — every
    // iteration pays full device I/O; a cache that holds the input makes
    // warm iterations near-zero device reads (ISSUE 3 acceptance).
    let n_em = scale.rows(100_000, 1_000_000);
    let data_bytes = n_em * p as u64 * 8;
    println!("\nSA-cache size sweep (5-iteration EM re-scan, input {data_bytes} bytes):");
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>9}",
        "cache", "seconds", "dev reads", "dev bytes", "hit rate"
    );
    for (label, cache_bytes) in
        [("0", 0u64), ("half-input", data_bytes / 2), ("2x-input", data_bytes * 2)]
    {
        let dir = scratch_dir(&format!("ablate-cache-{label}"));
        let mut safs_cfg = SafsConfig::striped_under(&dir, 4);
        if cache_bytes > 0 {
            safs_cfg = safs_cfg.with_cache(CacheCfg::with_capacity(cache_bytes));
        }
        let safs = Safs::open(safs_cfg).expect("SAFS open failed");
        let ctx = FlashCtx::with_config(
            CtxConfig { storage: StorageClass::Em, ..Default::default() },
            Some(safs),
        );
        let x = FM::rnorm(&ctx, n_em, p, 0.0, 1.0, 3).materialize(&ctx);
        workload(&ctx, &x); // cold iteration warms the cache
        let before = ctx.safs().unwrap().stats_snapshot();
        let (_, t) = time(|| {
            for _ in 0..5 {
                workload(&ctx, &x);
            }
        });
        let io = before.delta(&ctx.safs().unwrap().stats_snapshot());
        let lookups = io.cache.hits + io.cache.misses + io.cache.coalesced;
        let hit_rate =
            if lookups > 0 { io.cache.hits as f64 / lookups as f64 * 100.0 } else { 0.0 };
        println!(
            "{label:>12} {:>10.3} {:>12} {:>12} {hit_rate:>8.1}%",
            t.as_secs_f64(),
            io.read_reqs,
            io.read_bytes
        );
        report.push("ablate", "cache-size", label, "", t.as_secs_f64());
        report.push("ablate", "cache-size-reads", label, "", io.read_reqs as f64);
    }

    // --------------------------------------------- buffer-recycle check
    // Same DAG evaluated twice: the second run reuses pooled buffers; the
    // ratio is a proxy for allocator pressure the recycler removes.
    println!("\nrepeated-run stability (buffer recycling):");
    let ctx = FlashCtx::in_memory();
    let x = FM::rnorm(&ctx, n, p, 0.0, 1.0, 3).materialize(&ctx);
    let (_, cold) = time(|| workload(&ctx, &x));
    let (_, warm) = time(|| workload(&ctx, &x));
    println!("cold {:.3}s, warm {:.3}s", cold.as_secs_f64(), warm.as_secs_f64());
    report.push("ablate", "repeat", "cold", "", cold.as_secs_f64());
    report.push("ablate", "repeat", "warm", "", warm.as_secs_f64());

    report.save_json("ablate");

    // Same host stamp perf_probe and shard_sweep embed in their
    // artifacts (one helper, no drift), so ablation rows can be matched
    // to the host/backend/simd they ran on. The in-memory context is the
    // honest default here: most sweeps above run without SAFS.
    let host = host_section_json(&FlashCtx::in_memory());
    println!("\nhost: {host}");
    let _ = std::fs::create_dir_all("target/flashr-results");
    if let Err(e) = std::fs::write("target/flashr-results/ablate-host.json", &host) {
        eprintln!("warning: could not write ablate-host.json: {e}");
    }
}
