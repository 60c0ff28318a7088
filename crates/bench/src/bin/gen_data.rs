//! Table 5: the benchmark datasets. Prints the paper's dataset table
//! alongside the scaled synthetic equivalents this reproduction
//! generates, and materializes the scaled ones onto the emulated array
//! to report their on-SSD footprint.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin gen_data [-- --full]
//! ```

use flashr::data::{criteo_like, pagegraph_like, table5_shapes};

use flashr_bench::*;

fn main() {
    let scale = Scale::from_args();
    println!("Table 5 — benchmark datasets\n");
    println!("paper datasets:");
    println!("{:<24} {:>14} {:>8}", "dataset", "#rows", "#cols");
    for (name, rows, cols) in table5_shapes() {
        println!("{name:<24} {rows:>14} {cols:>8}");
    }

    let n_criteo = scale.rows(1_000_000, 100_000_000);
    let n_page = scale.rows(1_000_000, 80_000_000);
    println!("\nscaled synthetic equivalents ({scale:?} scale):");

    let em = em_ctx_raw("gen-data");
    let before = em.safs().unwrap().stats_snapshot();

    let (d, t) = time(|| {
        let d = criteo_like(&em, n_criteo, 40, 7);
        (d.x.materialize(&em), d.y.materialize(&em))
    });
    println!(
        "criteo-like          {n_criteo:>14} {:>8}   generated+written in {:.1}s",
        d.0.ncol(),
        t.as_secs_f64()
    );

    let (pg, t) = time(|| pagegraph_like(&em, n_page, 32, 10, 5).x.materialize(&em));
    println!(
        "pagegraph-like       {n_page:>14} {:>8}   generated+written in {:.1}s",
        pg.ncol(),
        t.as_secs_f64()
    );

    let io = before.delta(&em.safs().unwrap().stats_snapshot());
    println!(
        "\non-array footprint: {:.2} GiB written across {} requests",
        io.write_bytes as f64 / (1u64 << 30) as f64,
        io.write_reqs
    );
    println!("labels present in criteo-like: y ∈ {{0,1}}, balanced by the logistic ground truth");
}
