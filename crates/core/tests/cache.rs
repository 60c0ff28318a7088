//! The SA-cache + memory governor across the engine: warm scans of an EM
//! leaf hit the page cache instead of the device, over-budget `set.cache`
//! matrices spill to SAFS temporaries and round-trip bit-identically, a
//! zero-size cache reproduces the uncached read counts exactly, a
//! `set.cache` node keeps its data whichever call materializes it, and a
//! spill streams its writes.

use flashr_core::fm::FM;
use flashr_core::mat::{Store, MAX_PENDING_WRITES};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, MemBudget, StorageClass};
use flashr_safs::{CacheCfg, Safs, SafsConfig, ThrottleCfg};
use flashr_testkit::TempDir;

/// An EM context on a two-shard array under the returned directory,
/// which goes when the guard drops.
fn em_ctx(tag: &str, budget: Option<MemBudget>) -> (TempDir, FlashCtx) {
    let dir = TempDir::new(&format!("cachetest-{tag}"));
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 256,
            storage: StorageClass::Em,
            mem_budget: budget,
            ..Default::default()
        },
        Some(safs),
    );
    (dir, ctx)
}

#[test]
fn warm_rescan_of_em_leaf_reads_no_device() {
    // Budget holds the whole input: after the cold pass, re-reads are
    // pure cache hits (the ISSUE's acceptance bar for iterative EM
    // workloads).
    let (_dir, ctx) = em_ctx("warm", Some(MemBudget::new(64 * 1024 * 1024)));
    let x = FM::runif(&ctx, 2048, 8, -1.0, 1.0, 42).materialize(&ctx);

    // Cold scan populates the cache.
    let cold_before = ctx.safs().unwrap().stats_snapshot();
    let first = x.col_sums().to_dense(&ctx);
    let cold = cold_before.delta(&ctx.safs().unwrap().stats_snapshot());
    assert!(cold.read_reqs > 0, "cold pass must read the device: {cold:?}");

    // Five warm re-materializations — an iterative algorithm's shape.
    let warm_before = ctx.safs().unwrap().stats_snapshot();
    for _ in 0..5 {
        let again = x.col_sums().to_dense(&ctx);
        assert!(again.max_abs_diff(&first) == 0.0, "cached reads changed the data");
    }
    let warm = warm_before.delta(&ctx.safs().unwrap().stats_snapshot());
    assert_eq!(warm.read_reqs, 0, "warm passes must be served by the cache: {warm:?}");
    assert!(warm.cache.hits > 0);
}

#[test]
fn over_budget_set_cache_spills_and_reloads() {
    // Pin budget of ~64 KiB (half of 128 KiB): a 2048x8 f64 cache
    // candidate (128 KiB) cannot pin and must spill to a SAFS temporary.
    let (_dir, ctx) = em_ctx("spill", Some(MemBudget::new(128 * 1024)));
    // The matrix itself lives in memory (leaf), only the set.cache
    // product is governed, so generate in-memory then cache a product.
    let x = FM::runif(&ctx, 2048, 8, -1.0, 1.0, 7);
    let y = x.square();
    y.set_cache(true);
    let ref_sum = y.sum().value(&ctx); // materializes and installs the cache

    match &y {
        FM::Tall { node, .. } => {
            let cached = node.cached().expect("set.cache result must be installed");
            assert!(cached.is_em(), "over-budget cache must spill to SAFS");
        }
        _ => unreachable!("square() of a tall matrix is tall"),
    }
    assert!(ctx.governor().spills() >= 1, "governor must record the spill");

    // The spilled matrix re-enters through the page cache and must be
    // bit-identical to the original computation.
    let reloaded = y.sum().value(&ctx);
    assert!(reloaded == ref_sum, "spill round-trip altered data");
}

#[test]
fn within_budget_set_cache_pins_in_memory() {
    let (_dir, ctx) = em_ctx("pin", Some(MemBudget::new(64 * 1024 * 1024)));
    let x = FM::runif(&ctx, 1024, 4, -1.0, 1.0, 3);
    let y = x.square();
    y.set_cache(true);
    let _ = y.sum().value(&ctx);
    match &y {
        FM::Tall { node, .. } => {
            assert!(!node.cached().unwrap().is_em(), "within-budget cache stays in memory");
        }
        _ => unreachable!(),
    }
    assert!(ctx.governor().pinned_bytes() >= 1024 * 4 * 8);
    assert_eq!(ctx.governor().spills(), 0);
}

#[test]
fn zero_capacity_cache_matches_uncached_read_counts() {
    // Two identical workloads: no cache configured vs. cache of size 0.
    // Their device read counts must agree exactly (ISSUE acceptance:
    // size 0 preserves today's behavior bit-identically).
    let run = |tag: &str, cache: Option<CacheCfg>| {
        let dir = TempDir::new(&format!("cache0-{tag}"));
        let mut cfg = SafsConfig::striped_under(&dir, 2);
        if let Some(c) = cache {
            cfg = cfg.with_cache(c);
        }
        let safs = Safs::open(cfg).unwrap();
        let ctx = FlashCtx::with_config(
            CtxConfig { rows_per_part: 256, storage: StorageClass::Em, ..Default::default() },
            Some(safs),
        );
        let x = FM::runif(&ctx, 2048, 8, -1.0, 1.0, 11).materialize(&ctx);
        let before = ctx.safs().unwrap().stats_snapshot();
        let s1 = x.col_sums().to_dense(&ctx);
        let s2 = x.col_sums().to_dense(&ctx);
        assert!(s1.max_abs_diff(&s2) == 0.0);
        let io = before.delta(&ctx.safs().unwrap().stats_snapshot());
        (io.read_reqs, io.read_bytes)
    };
    let uncached = run("none", None);
    let zero = run("zero", Some(CacheCfg::with_capacity(0)));
    assert_eq!(uncached, zero, "a zero-size cache must not change device traffic");
}

/// How a test computes a `set.cache` node as a target of its own.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// `FM::materialize` on the node.
    Materialize,
    /// `FM::materialize_multi` with a sink that reads the node.
    MultiWithSink,
    /// `FM::to_vec`, through `to_dense`.
    ToDense,
}

/// The node's values as `trigger` computes them.
fn trigger(ctx: &FlashCtx, y: &FM, how: Trigger) -> Vec<f64> {
    match how {
        Trigger::Materialize => y.materialize(ctx).to_vec(ctx),
        Trigger::MultiWithSink => {
            let out = FM::materialize_multi(ctx, &[y, &y.col_sums()]);
            out[0].to_vec(ctx)
        }
        Trigger::ToDense => y.to_vec(ctx),
    }
}

fn in_memory(mode: ExecMode) -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 256, mode, ..Default::default() }, None)
}

#[test]
fn a_cached_target_keeps_its_data_in_every_mode() {
    let (n, p) = (1000, 3);
    for mode in [ExecMode::CacheFuse, ExecMode::MemFuse, ExecMode::Eager] {
        let (_dir, em) = em_ctx(&format!("target-{mode:?}"), None);
        let em = em.with_mode(mode);
        for (storage, ctx) in [("im", in_memory(mode)), ("em", em)] {
            for how in [Trigger::Materialize, Trigger::MultiWithSink, Trigger::ToDense] {
                let what = format!("{mode:?} {storage} {how:?}");
                let x = FM::runif(&ctx, n, p, -1.0, 1.0, 5);
                let y = &x.square() + 0.5;
                y.set_cache(true);
                let first = trigger(&ctx, &y, how);
                assert!(y.leaf_mat_opt().is_some(), "{what}: the target's cache is installed");

                // A second DAG over the handle reads the cache: one pass,
                // one chunk per range (the cached leaf's), no generator
                // or map evaluated.
                let before = ctx.stats().snapshot();
                let sums = y.col_sums().to_dense(&ctx);
                let d = before.delta(&ctx.stats().snapshot());
                assert_eq!(d.passes, 1, "{what}");
                assert_eq!(d.node_chunks, d.pcache_chunks, "{what}: the cached subtree ran");

                // Bit-identical to the first pass, as values and as sums.
                assert_eq!(y.to_vec(&ctx), first, "{what}");
                let want = FM::from_col_major(&ctx, n, p, &first).col_sums().to_dense(&ctx);
                assert!(sums.max_abs_diff(&want) == 0.0, "{what}: cached sums differ");
            }
        }
    }
}

#[test]
fn handles_merged_by_cse_share_one_cache() {
    let ctx = in_memory(ExecMode::CacheFuse);
    let x = FM::runif(&ctx, 1000, 2, 0.0, 1.0, 8);
    let (y1, y2) = (x.square(), x.square());
    y2.set_cache(true);
    let out = FM::materialize_multi(&ctx, &[&y1, &y2]);
    assert_eq!(out[0].to_vec(&ctx), out[1].to_vec(&ctx));
    assert!(y1.leaf_mat_opt().is_some(), "the canonical handle is cached");
    assert!(y2.leaf_mat_opt().is_some(), "the merged handle is cached");
    assert_eq!(ctx.governor().pinned_bytes(), 1000 * 2 * 8, "one copy pinned");
}

#[test]
fn an_over_budget_cached_target_spills_once() {
    // A 2048×8 f64 target (128 KiB) computed in memory against a ~64 KiB
    // pin budget: the pass spills it and hands back the spilled matrix.
    let dir = TempDir::new("cachetest-tspill");
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 256,
            storage: StorageClass::InMem,
            mem_budget: Some(MemBudget::new(128 * 1024)),
            ..Default::default()
        },
        Some(safs),
    );
    let y = FM::runif(&ctx, 2048, 8, -1.0, 1.0, 7).square();
    y.set_cache(true);
    let before = ctx.safs().unwrap().stats_snapshot();
    let got = y.materialize(&ctx);
    let io = before.delta(&ctx.safs().unwrap().stats_snapshot());
    assert_eq!(ctx.governor().spills(), 1);
    assert_eq!(io.write_bytes, 2048 * 8 * 8, "one copy written");
    assert_eq!(ctx.governor().pinned_bytes(), 0, "no in-memory copy pinned");

    let file = |fm: &FM| match fm.leaf_mat_opt().expect("materialized").store() {
        Store::Em(f) => f.name().to_string(),
        Store::InMem(_) => panic!("an over-budget cache must spill"),
    };
    assert_eq!(file(&got), file(&y), "the target returns the spilled cache itself");
}

#[test]
fn a_spill_keeps_at_most_max_pending_writes_queued() {
    // 64 partitions of 1 KiB, spilled against a 1 KiB pin budget onto
    // one throttled disk: each write takes 2 ms, so a spill that queued
    // one write per partition before waiting would reach a depth of 64.
    let dir = TempDir::new("cachetest-spill-queue");
    let throttle = ThrottleCfg { bytes_per_sec: 1024.0 / 2e-3, latency_us: 0.0 };
    let safs = Safs::open(SafsConfig::single_dir(&dir).with_throttle(throttle)).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 64,
            mem_budget: Some(MemBudget::new(1024)),
            ..Default::default()
        },
        Some(safs),
    );
    let y = FM::runif(&ctx, 64 * 64, 2, -1.0, 1.0, 3).square();
    y.set_cache(true);
    let got = y.materialize(&ctx);
    assert_eq!(ctx.governor().spills(), 1);
    let io = ctx.safs().unwrap().stats_snapshot();
    assert_eq!(io.write_reqs, 64, "one write per partition");
    assert!(
        io.max_queue_depth <= MAX_PENDING_WRITES as u64,
        "{} writes queued at once, bound {MAX_PENDING_WRITES}",
        io.max_queue_depth
    );
    let want = FM::runif(&ctx, 64 * 64, 2, -1.0, 1.0, 3).square().to_vec(&ctx);
    assert_eq!(got.to_vec(&ctx), want, "the spilled copy reads back");
}
