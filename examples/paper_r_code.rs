//! Run the paper's own R listings (Figures 2 and 3) on the FlashR
//! engine through the bundled R interpreter — the paper's core promise:
//! existing R code, parallelized and scaled with little/no modification.
//!
//! ```sh
//! cargo run --release -p flashr --example paper_r_code
//! ```

use flashr::core::session::FlashCtx;
use flashr::rlang::Interp;
use std::time::Instant;

fn run_script(title: &str, path: &str) {
    println!("=== {title} ({path}) ===");
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the repo root)"));
    let mut interp = Interp::new(FlashCtx::in_memory());
    let t = Instant::now();
    match interp.eval_str(&src) {
        Ok(_) => println!("--- completed in {:?}\n", t.elapsed()),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    run_script("Paper Figure 2 — logistic regression", "scripts/paper_fig2_logreg.R");
    run_script("Paper Figure 3 — k-means", "scripts/paper_fig3_kmeans.R");
    println!("Both of the paper's R programs executed on the FlashR engine.");
}
