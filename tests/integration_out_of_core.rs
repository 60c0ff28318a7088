//! Out-of-core end-to-end runs: whole algorithms against the SSD-array
//! substrate, compared bit-for-bit-deterministic against in-memory runs,
//! plus memory-footprint and I/O-volume properties the paper claims.

use flashr::data::{criteo_like, pagegraph_like};
use flashr::ml::*;
use flashr::prelude::*;
use flashr_testkit::TempDir;

/// An EM context on a four-shard array under the returned directory,
/// which goes when the guard drops.
fn em_ctx(tag: &str) -> (TempDir, FlashCtx) {
    let dir = TempDir::new(&format!("ooc-{tag}"));
    let safs = Safs::open(SafsConfig::striped_under(&dir, 4)).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, storage: StorageClass::Em, ..Default::default() },
        Some(safs),
    );
    (dir, ctx)
}

fn im_ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 1024, ..Default::default() }, None)
}

#[test]
fn correlation_em_equals_im() {
    let im = im_ctx();
    let (_dir, em) = em_ctx("corr");
    let a = correlation(&im, &criteo_like(&im, 20_000, 8, 3).x.materialize(&im));
    let b = correlation(&em, &criteo_like(&em, 20_000, 8, 3).x.materialize(&em));
    assert!(a.max_abs_diff(&b) < 1e-12, "EM and IM disagree");
}

#[test]
fn logistic_regression_em_equals_im() {
    let im = im_ctx();
    let (_dir, em) = em_ctx("logreg");
    let opts = LogRegOptions { max_iters: 10, ..Default::default() };

    let di = criteo_like(&im, 10_000, 6, 5);
    let (xi, yi) = (di.x.materialize(&im), di.y.materialize(&im));
    let mi = logistic_regression(&im, &xi, &yi, &opts);

    let de = criteo_like(&em, 10_000, 6, 5);
    let (xe, ye) = (de.x.materialize(&em), de.y.materialize(&em));
    let me = logistic_regression(&em, &xe, &ye, &opts);

    assert_eq!(mi.iterations, me.iterations);
    for (a, b) in mi.weights.iter().zip(&me.weights) {
        assert!((a - b).abs() < 1e-9, "weights diverge: {a} vs {b}");
    }
}

#[test]
fn kmeans_em_equals_im() {
    let im = im_ctx();
    let (_dir, em) = em_ctx("kmeans");
    let opts = KmeansOptions { k: 4, max_iters: 25, seed: 3 };

    let xi = pagegraph_like(&im, 20_000, 8, 4, 11).x.materialize(&im);
    let ri = kmeans(&im, &xi, &opts);
    let xe = pagegraph_like(&em, 20_000, 8, 4, 11).x.materialize(&em);
    let re = kmeans(&em, &xe, &opts);

    assert_eq!(ri.iterations, re.iterations);
    assert_eq!(ri.moves, re.moves);
    assert!(ri.centers.max_abs_diff(&re.centers) < 1e-9);
}

#[test]
fn em_iterative_io_scales_with_iterations_not_memory() {
    // The paper's Table 6 claim: out-of-core execution touches the SSDs
    // once per iteration and keeps only sink results in memory.
    let (_dir, em) = em_ctx("io-scale");
    let n = 50_000u64;
    let p = 8usize;
    let x = pagegraph_like(&em, n, p, 4, 1).x.materialize(&em);
    let data_bytes = n * p as u64 * 8;

    let before = em.safs().unwrap().stats_snapshot();
    let r = kmeans(&em, &x, &KmeansOptions { k: 4, max_iters: 20, seed: 1 });
    let io = before.delta(&em.safs().unwrap().stats_snapshot());

    // Reads ≈ iterations × data (cached assignments add an n×8-byte
    // column per iteration); nothing is written back except the tiny
    // cached assignment column (kept in memory → zero writes).
    let max_expected = (r.iterations as u64 + 1) * (data_bytes + n * 8) * 2;
    assert!(io.read_bytes >= r.iterations as u64 * data_bytes, "too few reads");
    assert!(
        io.read_bytes <= max_expected,
        "read amplification: {} vs {}",
        io.read_bytes,
        max_expected
    );
    assert_eq!(io.write_bytes, 0, "fused k-means must not write intermediates");
}

#[test]
fn gmm_em_equals_im() {
    let im = im_ctx();
    let (_dir, em) = em_ctx("gmm");
    let opts = GmmOptions { k: 2, max_iters: 15, seed: 7, ..Default::default() };
    let xi = pagegraph_like(&im, 6000, 4, 2, 9).x.materialize(&im);
    let xe = pagegraph_like(&em, 6000, 4, 2, 9).x.materialize(&em);
    let mi = gmm(&im, &xi, &opts);
    let me = gmm(&em, &xe, &opts);
    assert_eq!(mi.iterations, me.iterations);
    assert!(mi.means.max_abs_diff(&me.means) < 1e-8);
    assert!((mi.loglike - me.loglike).abs() < 1e-10);
}

#[test]
fn throttled_array_still_produces_identical_results() {
    // Bandwidth emulation slows the run but must never change results.
    let dir = TempDir::new("ooc-throttle");
    let cfg = SafsConfig::striped_under(&dir, 2)
        .with_throttle(ThrottleCfg { bytes_per_sec: 50.0 * 1024.0 * 1024.0, latency_us: 50.0 });
    let safs = Safs::open(cfg).unwrap();
    let em = FlashCtx::with_config(
        CtxConfig { rows_per_part: 1024, storage: StorageClass::Em, ..Default::default() },
        Some(safs),
    );
    let im = im_ctx();

    let a = correlation(&im, &FM::rnorm(&im, 8000, 4, 0.0, 1.0, 2).materialize(&im));
    let b = correlation(&em, &FM::rnorm(&em, 8000, 4, 0.0, 1.0, 2).materialize(&em));
    assert!(a.max_abs_diff(&b) < 1e-12);
}
