//! Cross-crate engine integration: the FM programming surface driving the
//! fused executor and I/O, through the `flashr` facade.

use flashr::prelude::*;

fn ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 256, ..Default::default() }, None)
}

#[test]
fn paper_table2_overrides_behave_like_r() {
    let ctx = ctx();
    let a = FM::seq(1000, 1.0, 1.0); // 1..=1000
    let b = FM::constant(1000, 1, 2.0);

    // C = A + B
    assert_eq!((&a + &b).sum().value(&ctx), 500500.0 + 2000.0);
    // C = pmin(A, B)
    assert_eq!(a.pmin(&b).sum().value(&ctx), 1.0 + 2.0 * 999.0);
    // C = sqrt(A)
    assert!(
        (a.sqrt().sum().value(&ctx) - (1..=1000).map(|v| (v as f64).sqrt()).sum::<f64>()).abs()
            < 1e-9
    );
    // c = sum(A)
    assert_eq!(a.sum().value(&ctx), 500500.0);
    // c = any(A > 999), all(A > 0)
    assert_eq!(a.gt(&FM::constant(1000, 1, 999.0)).any_nz().value(&ctx), 1.0);
    assert_eq!(a.gt(&FM::zeros(1000, 1)).all_nz().value(&ctx), 1.0);
    // C = rowSums(cbind(A, B))
    let rs = FM::cbind(&[&a, &b]).row_sums();
    assert_eq!(rs.get(&ctx, 9, 0), 12.0);
    // unique / table on a small-alphabet column
    let m3 = a.binary_scalar(BinaryOp::Rem, 3.0, false);
    assert_eq!(m3.unique(&ctx), vec![0.0, 1.0, 2.0]);
}

#[test]
fn dag_fusion_counts_one_pass_for_logistic_cost_and_grad() {
    // The paper's Figure 2 inner loop: cost and gradient share the margin
    // computation and must evaluate in one pass.
    let ctx = ctx();
    let x = FM::rnorm(&ctx, 20_000, 8, 0.0, 1.0, 1).materialize(&ctx);
    let y = FM::runif(&ctx, 20_000, 1, 0.0, 1.0, 2)
        .gt(&FM::constant(20_000, 1, 0.5))
        .cast(DType::F64)
        .materialize(&ctx);
    let w = Dense::from_vec(8, 1, vec![0.1; 8]);

    let before = ctx.stats().snapshot();
    let margin = x.matmul(&FM::from_dense(w));
    let cost = margin.pmax(&FM::zeros(20_000, 1)).sum();
    let grad = x.crossprod_with(&margin.sigmoid().binary(BinaryOp::Sub, &y, false));
    let out = FM::materialize_multi(&ctx, &[&cost, &grad]);
    assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
    assert!(out[0].value(&ctx).is_finite());
    assert_eq!(out[1].to_dense(&ctx).rows(), 8);
}

#[test]
fn csv_io_feeds_the_engine() {
    let ctx = ctx();
    let path = std::env::temp_dir().join(format!("flashr-int-io-{}.csv", std::process::id()));
    let x = FM::runif(&ctx, 300, 4, -1.0, 1.0, 5);
    flashr::core::io::write_csv(&ctx, &x, &path, ',').unwrap();
    let y = flashr::core::io::read_csv(&ctx, &path, ',').unwrap();
    // Loaded data is row-major; results must match the generated matrix.
    let diff = (&x - &y).abs().max_all().value(&ctx);
    assert!(diff < 1e-12);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn sparse_semi_external_composes_with_dense_results() {
    let dir = std::env::temp_dir().join(format!("flashr-int-sem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let a = flashr::sparse::CsrMatrix::random(300, 300, 6, 9);
    let b = Dense::from_fn(300, 4, |r, c| ((r * 2 + c) % 11) as f64 - 5.0);
    let sem = flashr::sparse::SemCsr::store(&safs, "adj", &a, 64);
    let got = sem.spmm(&b);
    let want = flashr::sparse::spmm(&a, &b);
    assert!(got.max_abs_diff(&want) < 1e-10);
}

#[test]
fn cumulative_ops_cross_partitions_and_modes() {
    let base = ctx();
    let x = FM::seq(1000, 1.0, 1.0);
    let want_last = 500500.0;
    for mode in [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse] {
        let c = base.with_mode(mode);
        let cs = x.cumsum_col().materialize(&c);
        assert_eq!(cs.get(&c, 999, 0), want_last, "mode {mode:?}");
        assert_eq!(cs.get(&c, 255, 0), (256 * 257 / 2) as f64, "partition boundary, {mode:?}");
    }
}

#[test]
fn mixed_dtype_promotion_through_the_stack() {
    let ctx = ctx();
    let ints = FM::seq(100, 0.0, 1.0).cast(DType::I32);
    let floats = FM::constant(100, 1, 0.5);
    let sum = ints.binary(BinaryOp::Add, &floats, false);
    assert_eq!(sum.dtype(), DType::F64);
    assert_eq!(sum.get(&ctx, 10, 0), 10.5);
    // Integer aggregation widens.
    let s = ints.sum();
    assert_eq!(s.value(&ctx), 4950.0);
    // Predicates give logical matrices.
    let flags = ints.lt(&FM::constant(100, 1, 50.0).cast(DType::I32));
    assert_eq!(flags.dtype(), DType::U8);
    assert_eq!(flags.sum().value(&ctx), 50.0);
}
