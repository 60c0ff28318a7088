//! Wide tall matrices — the paper's block matrices (§3.2.2) — as one
//! [`FM`] against the external-memory store. The live-set Pcache step
//! keeps a wide matrix's chunk in cache, so there is no column-block
//! path: these check that a plain `FM` past 32 columns computes what
//! memory and a dense reference compute, in one pass per call.

use flashr_core::fm::FM;
use flashr_core::ops::{BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, FlashCtx, StorageClass};
use flashr_linalg::Dense;
use flashr_safs::SafsConfig;

fn em_ctx(tag: &str) -> FlashCtx {
    let dir = std::env::temp_dir().join(format!("flashr-blockem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(dir, 3)).unwrap();
    FlashCtx::with_config(
        CtxConfig { rows_per_part: 256, storage: StorageClass::Em, ..Default::default() },
        Some(safs),
    )
}

fn im_ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None)
}

/// `colSums` and `crossprod` of a 70-column matrix on the array match
/// the same matrix in memory.
#[test]
fn block_matrix_on_ssds_matches_memory() {
    let em = em_ctx("basic");
    let im = im_ctx();
    let n = 2000u64;
    let p = 70usize; // past two 32-column blocks

    let x_em = FM::runif(&em, n, p, 0.0, 1.0, 9).materialize(&em);
    let x_im = FM::runif(&im, n, p, 0.0, 1.0, 9).materialize(&im);

    let cs_em = x_em.col_sums().to_vec(&em);
    let cs_im = x_im.col_sums().to_vec(&im);
    assert_eq!(cs_em.len(), p);
    for (a, b) in cs_em.iter().zip(&cs_im) {
        assert!((a - b).abs() < 1e-9, "EM and IM colSums disagree");
    }

    let g_em = x_em.crossprod().to_dense(&em);
    let g_im = x_im.crossprod().to_dense(&im);
    assert!(g_em.max_abs_diff(&g_im) < 1e-8);
}

/// `colSums` of a 64-column matrix is one pass, and so is its whole
/// 64 × 64 Gramian.
#[test]
fn block_pipeline_stays_fused_per_block_group() {
    let ctx = im_ctx();
    let x = FM::rnorm(&ctx, 3000, 64, 0.0, 1.0, 3).materialize(&ctx);
    let before = ctx.stats().snapshot();
    let _ = x.col_sums().to_vec(&ctx);
    assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    let before = ctx.stats().snapshot();
    let _ = x.crossprod().to_dense(&ctx);
    assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
}

/// An element-wise chain over a 40-column matrix on the array.
#[test]
fn block_elementwise_chain_on_em() {
    let em = em_ctx("chain");
    let x = FM::runif(&em, 1500, 40, 0.0, 1.0, 4).materialize(&em);
    let total = x.unary(UnaryOp::Square).binary_scalar(BinaryOp::Add, 1.0, false).sum().value(&em);
    // E[u²] + 1 per element = 4/3.
    let mean = total / (1500.0 * 40.0);
    assert!((mean - 4.0 / 3.0).abs() < 0.01, "mean {mean}");
}

/// `%*%` of an 80-column matrix by a small dense matrix matches the
/// product of the dense copies.
#[test]
fn wide_matrix_matmul_through_blocks() {
    let ctx = im_ctx();
    let p = 80usize;
    let x = FM::rnorm(&ctx, 1000, p, 0.0, 1.0, 5);
    let b = Dense::from_fn(p, 3, |r, c| ((r + c) % 7) as f64 - 3.0);
    let got = x.matmul(&FM::from_dense(b.clone())).to_dense(&ctx);
    let want = flashr_linalg::matmul(&x.to_dense(&ctx), &b);
    assert!(got.max_abs_diff(&want) < 1e-9);
}

/// `rowSums` of a 50-column matrix on the array matches the row sums of
/// its dense copy.
#[test]
fn block_row_sums_on_em_match_whole() {
    let em = em_ctx("rowsums");
    let x = FM::runif(&em, 1200, 50, -1.0, 1.0, 8).materialize(&em);
    let got = x.row_sums().to_vec(&em);
    let dense = x.to_dense(&em);
    assert_eq!(got.len(), dense.rows());
    for (r, got) in got.iter().enumerate() {
        let want: f64 = dense.row(r).iter().sum();
        assert!((got - want).abs() < 1e-9, "row {r}");
    }
}
