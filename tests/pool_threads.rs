//! The worker pool's thread count: once the pool has the helpers a pass
//! needs, passes start no thread, a one-partition pass starts none at
//! all, and a failed pass loses none. The count is the process's own
//! (`/proc/self/status`), so this file holds one test, alone in its
//! process.

use flashr::prelude::*;
use std::panic::AssertUnwindSafe;

/// The process's thread count, where `/proc` reports it.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn passes_start_no_thread_once_the_pool_has_its_helpers() {
    let Some(at_start) = threads() else {
        return; // No `/proc`: nothing to count.
    };
    let ctx = FlashCtx::with_config(
        CtxConfig { nthreads: 4, rows_per_part: 256, ..CtxConfig::default() },
        None,
    );

    // One partition, so one worker: the calling thread.
    let small = FM::runif(&ctx, 200, 3, 0.0, 1.0, 1).materialize(&ctx);
    let want = small.sum().value(&ctx);
    for _ in 0..100 {
        assert_eq!(small.sum().value(&ctx), want);
    }
    assert_eq!(threads(), Some(at_start), "a one-partition pass started a thread");

    // Sixteen partitions, four workers: the first pass grows the pool by
    // the three helpers it lacks, the next thousand start nothing.
    let x = FM::runif(&ctx, 16 * 256, 2, 0.0, 1.0, 2).materialize(&ctx);
    let want = x.sum().value(&ctx);
    let after_one = threads();
    assert_eq!(after_one, Some(at_start + 3), "one four-worker pass needs three helpers");
    for _ in 0..1000 {
        assert_eq!(x.sum().value(&ctx), want);
    }
    assert_eq!(threads(), after_one, "the thread count grew across 1000 passes");

    // A pass whose worker fails: the failure reaches the caller, the
    // helpers go back to the pool, and the next pass is right.
    let labels = FM::constant(16 * 256, 1, 5.0);
    let bad = x.groupby_row(&labels, AggOp::Sum, 2);
    let failed = std::panic::catch_unwind(AssertUnwindSafe(|| bad.to_dense(&ctx)));
    assert!(failed.is_err(), "a label of 5 in 2 groups must fail");
    assert_eq!(x.sum().value(&ctx), want);
    assert_eq!(threads(), after_one, "a failed pass cost the pool a thread");
}
