//! Engine-level tests: external memory, engine-mode equivalence and pass
//! accounting.

use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_safs::SafsConfig;
use flashr_testkit::TempDir;

/// Every context of this file dumps its flight recorder under the test's
/// thread, never in the temporary directory: some tests panic on purpose.
fn quiet(ctx: FlashCtx) -> FlashCtx {
    ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
    ctx
}

fn im_ctx(threads: usize) -> FlashCtx {
    quiet(FlashCtx::with_config(
        CtxConfig { rows_per_part: 128, nthreads: threads, ..Default::default() },
        None,
    ))
}

/// An EM context on a four-shard array under the returned directory,
/// which goes when the guard drops.
fn em_ctx(tag: &str, threads: usize) -> (TempDir, FlashCtx) {
    let dir = TempDir::new(&format!("engine-test-{tag}"));
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(&dir, 4)).unwrap();
    let ctx = quiet(FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 128,
            nthreads: threads,
            storage: StorageClass::Em,
            ..Default::default()
        },
        Some(safs),
    ));
    (dir, ctx)
}

/// A deterministic workload touching map, matmul, agg.row, sinks.
fn workload(ctx: &FlashCtx, n: u64) -> (f64, Vec<f64>, Vec<f64>) {
    let x = FM::runif(ctx, n, 4, 0.0, 1.0, 99);
    let y = (&(&x * 2.0) + 0.5).sqrt().materialize(ctx);
    let total = y.sum().value(ctx);
    let col_sums = y.col_sums().to_vec(ctx);
    let row_sums_head: Vec<f64> = y.row_sums().to_vec(ctx)[..8].to_vec();
    (total, col_sums, row_sums_head)
}

#[test]
fn em_matches_im_results() {
    let im = im_ctx(4);
    let (_dir, em) = em_ctx("em-vs-im", 4);
    let (t1, c1, r1) = workload(&im, 1000);
    let (t2, c2, r2) = workload(&em, 1000);
    assert!((t1 - t2).abs() < 1e-9);
    for (a, b) in c1.iter().zip(&c2) {
        assert!((a - b).abs() < 1e-9);
    }
    assert_eq!(r1, r2);
}

#[test]
fn em_materialization_actually_hits_the_ssds() {
    let (_dir, em) = em_ctx("traffic", 2);
    let before = em.safs().unwrap().stats_snapshot();
    let x = FM::runif(&em, 2000, 2, 0.0, 1.0, 1);
    let m = x.materialize(&em);
    let mid = em.safs().unwrap().stats_snapshot();
    assert!(before.delta(&mid).write_bytes >= 2000 * 2 * 8, "materialize must write to SSDs");
    let s = m.sum().value(&em);
    let after = em.safs().unwrap().stats_snapshot();
    assert!(mid.delta(&after).read_bytes >= 2000 * 2 * 8, "sum must read from SSDs");
    assert!(s > 0.0);
}

#[test]
fn all_three_engine_modes_agree() {
    let base = im_ctx(4);
    let x = FM::rnorm(&base, 3000, 3, 1.0, 2.0, 42);
    let mut results = Vec::new();
    for mode in [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse] {
        let ctx = base.with_mode(mode);
        // A DAG with shared subexpressions and multiple sinks.
        let centered = &x - 1.0;
        let sq = centered.square();
        let s1 = sq.sum().value(&ctx);
        let s2 = centered.crossprod().to_dense(&ctx);
        let s3 = centered.abs().col_sums().to_vec(&ctx);
        results.push((s1, s2, s3));
    }
    let (e, m, c) = (&results[0], &results[1], &results[2]);
    assert!((e.0 - m.0).abs() < 1e-6 && (m.0 - c.0).abs() < 1e-6);
    assert!(e.1.max_abs_diff(&m.1) < 1e-6 && m.1.max_abs_diff(&c.1) < 1e-6);
    for i in 0..3 {
        assert!((e.2[i] - m.2[i]).abs() < 1e-6 && (m.2[i] - c.2[i]).abs() < 1e-6);
    }
}

#[test]
fn eager_mode_runs_one_pass_per_op() {
    let fused = im_ctx(2);
    let eager = fused.with_mode(ExecMode::Eager);
    let x = FM::runif(&fused, 1000, 2, 0.0, 1.0, 7);

    let before = fused.stats().snapshot();
    ((&(&x + 1.0) * 2.0).sqrt()).sum().value(&fused);
    let fused_passes = before.delta(&fused.stats().snapshot()).passes;
    assert_eq!(fused_passes, 1, "cache-fuse must evaluate the whole DAG in one pass");

    let before = eager.stats().snapshot();
    ((&(&x + 1.0) * 2.0).sqrt()).sum().value(&eager);
    let eager_passes = before.delta(&eager.stats().snapshot()).passes;
    // +1, *2, sqrt → three op passes, plus the sink pass.
    assert!(eager_passes >= 4, "eager must materialize every op separately, got {eager_passes}");
}

#[test]
fn eager_em_mode_spills_intermediates_to_ssds() {
    let (_dir, em) = em_ctx("eager-spill", 2);
    let em = em.with_mode(ExecMode::Eager);
    let x = FM::runif(&em, 2000, 2, 0.0, 1.0, 3).materialize(&em);
    let before = em.safs().unwrap().stats_snapshot();
    ((&(&x + 1.0) * 2.0).sqrt()).sum().value(&em);
    let d = before.delta(&em.safs().unwrap().stats_snapshot());
    // Three intermediates of 2000×2×8 bytes written + read back.
    let op_bytes = 2000 * 2 * 8;
    assert!(
        d.write_bytes >= 3 * op_bytes as u64,
        "eager EM must write intermediates (wrote {})",
        d.write_bytes
    );
}

#[test]
fn cache_fuse_em_moves_only_input_bytes() {
    let (_dir, em) = em_ctx("fuse-traffic", 2);
    let x = FM::runif(&em, 2000, 2, 0.0, 1.0, 3).materialize(&em);
    let before = em.safs().unwrap().stats_snapshot();
    ((&(&x + 1.0) * 2.0).sqrt()).sum().value(&em);
    let d = before.delta(&em.safs().unwrap().stats_snapshot());
    let input_bytes = 2000 * 2 * 8u64;
    assert_eq!(d.write_bytes, 0, "fused pass must not write intermediates");
    assert!(d.read_bytes >= input_bytes && d.read_bytes <= input_bytes * 2);
}

#[test]
fn cumsum_em_single_pass() {
    let (_dir, em) = em_ctx("cum", 4);
    let x = FM::constant(1000, 2, 1.0).materialize(&em);
    let before = em.stats().snapshot();
    let c = x.cumsum_col().materialize(&em);
    let d = before.delta(&em.stats().snapshot());
    assert_eq!(d.passes, 1, "cum.col must complete in a single pass");
    assert_eq!(c.get(&em, 999, 0), 1000.0);
    assert_eq!(c.get(&em, 500, 1), 501.0);
}

#[test]
fn groupby_and_kmeans_style_fusion_on_em() {
    let (_dir, em) = em_ctx("kmeans-ish", 4);
    // Points at 0 and 10; centers at 1 and 9.
    let half = 500u64;
    let x = FM::rbind(&em, &FM::constant(half, 1, 0.0), &FM::constant(half, 1, 10.0));
    let centers = flashr_linalg::Dense::from_vec(1, 2, vec![1.0, 9.0]);
    let d = x.inner_prod(centers, BinaryOp::EuclidSq, BinaryOp::Add);
    let assign = d.row_which_min();
    assign.set_cache(true);
    let counts = FM::ones(x.nrow(), 1).groupby_row(&assign, AggOp::Sum, 2);
    let sums = x.groupby_row(&assign, AggOp::Sum, 2);
    let out = FM::materialize_multi(&em, &[&counts, &sums]);
    let cnt = out[0].to_dense(&em);
    let sm = out[1].to_dense(&em);
    assert_eq!(cnt.at(0, 0), half as f64);
    assert_eq!(cnt.at(1, 0), half as f64);
    assert_eq!(sm.at(0, 0), 0.0);
    assert_eq!(sm.at(1, 0), 10.0 * half as f64);
}

#[test]
fn single_threaded_and_parallel_agree() {
    let c1 = im_ctx(1);
    let c8 = im_ctx(8);
    let (t1, s1, r1) = workload(&c1, 5000);
    let (t8, s8, r8) = workload(&c8, 5000);
    assert!((t1 - t8).abs() < 1e-7, "thread count must not change results");
    for (a, b) in s1.iter().zip(&s8) {
        assert!((a - b).abs() < 1e-7);
    }
    assert_eq!(r1, r8);
}

#[test]
fn set_cache_can_target_the_ssds() {
    let dir = TempDir::new("engine-cachestore");
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let ctx = quiet(FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 128,
            storage: StorageClass::InMem,
            cache_storage: StorageClass::Em,
            ..Default::default()
        },
        Some(safs),
    ));
    let x = FM::runif(&ctx, 1000, 2, 0.0, 1.0, 9);
    let y = &x * 2.0;
    y.set_cache(true);
    let before = ctx.safs().unwrap().stats_snapshot();
    let s1 = y.sum().value(&ctx);
    let wrote = before.delta(&ctx.safs().unwrap().stats_snapshot()).write_bytes;
    assert!(wrote >= 1000 * 2 * 8, "cache must have been written to the array ({wrote} bytes)");
    // Second use reads the cache back from the SSDs.
    let s2 = y.sum().value(&ctx);
    assert!((s1 - s2).abs() < 1e-9);
    match &y {
        FM::Tall { node, .. } => {
            assert!(node.cached().unwrap().is_em(), "cache should live on SSDs");
        }
        _ => unreachable!(),
    }
}

#[test]
#[should_panic(expected = "share the partition dimension")]
fn mixing_dag_heights_in_one_pass_panics() {
    let ctx = im_ctx(2);
    let a = FM::runif(&ctx, 1000, 1, 0.0, 1.0, 1);
    let b = FM::runif(&ctx, 500, 1, 0.0, 1.0, 2);
    let _ = FM::materialize_multi(&ctx, &[&a.sum(), &b.sum()]);
}

#[test]
fn single_row_matrices_work() {
    let ctx = im_ctx(4);
    let x = FM::from_col_major(&ctx, 1, 3, &[1.0, 2.0, 3.0]);
    assert_eq!(x.sum().value(&ctx), 6.0);
    assert_eq!(x.row_sums().to_vec(&ctx), vec![6.0]);
    let g = x.crossprod().to_dense(&ctx);
    assert_eq!(g.at(0, 1), 2.0);
    assert_eq!(x.cumsum_col().to_vec(&ctx), vec![1.0, 2.0, 3.0]);
}

#[test]
fn more_threads_than_partitions_is_fine() {
    let ctx = quiet(FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, nthreads: 32, ..Default::default() },
        None,
    ));
    let x = FM::seq(100, 1.0, 1.0); // one partition, 32 workers
    assert_eq!(x.sum().value(&ctx), 5050.0);
}

#[test]
fn a_worker_panic_reaches_the_caller_with_its_message() {
    // A label outside the declared groups is bad data, found by a worker
    // mid-pass. The caller must see that message, not the scope's "a
    // scoped thread panicked".
    for mode in [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse] {
        let ctx = im_ctx(3).with_mode(mode);
        let x = FM::runif(&ctx, 1000, 2, 0.0, 1.0, 5);
        let labels = FM::constant(1000, 1, 5.0);
        let sums = x.groupby_row(&labels, AggOp::Sum, 2);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sums.to_dense(&ctx)))
                .expect_err("a label of 5 in 2 groups must fail");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("group label 5 outside [0, 2)"), "{mode:?}: {msg}");
    }
}
