//! Run the paper's own R listings (Figures 2 and 3) on the FlashR
//! engine through the bundled R interpreter — the paper's core promise:
//! existing R code, parallelized and scaled with little/no modification.
//!
//! Each listing reports its time and the engine passes it made. A listing
//! with a distance product (`inner.prod`, one per k-means iteration) also
//! reports the passes from each product to the next: the passes one
//! iteration makes.
//!
//! ```sh
//! cargo run --release -p flashr --example paper_r_code
//! ```

use flashr::core::session::FlashCtx;
use flashr::core::TraceLevel;
use flashr::rlang::Interp;
use std::time::Instant;

fn run_script(title: &str, path: &str) {
    println!("=== {title} ({path}) ===");
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the repo root)"));
    let ctx = FlashCtx::in_memory().with_trace(TraceLevel::Pass);
    let mut interp = Interp::new(ctx.clone());
    let (t, before) = (Instant::now(), ctx.stats().snapshot());
    if let Err(e) = interp.eval_str(&src) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let passes = before.delta(&ctx.stats().snapshot()).passes;
    println!("--- completed in {:?}, {passes} engine passes", t.elapsed());
    // Passes from each distance product to the next.
    let mut per_iter: Vec<usize> = Vec::new();
    for pass in ctx.tracer().passes() {
        if pass.ops.iter().any(|op| op.label == "inner.prod") {
            per_iter.push(0);
        }
        if let Some(n) = per_iter.last_mut() {
            *n += 1;
        }
    }
    if !per_iter.is_empty() {
        let counts: Vec<String> = per_iter.iter().map(usize::to_string).collect();
        println!("--- passes per iteration: {}", counts.join(" "));
    }
    println!();
}

fn main() {
    run_script("Paper Figure 2 — logistic regression", "scripts/paper_fig2_logreg.R");
    run_script("Paper Figure 3 — k-means", "scripts/paper_fig3_kmeans.R");
    println!("Both of the paper's R programs executed on the FlashR engine.");
}
