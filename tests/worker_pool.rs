//! The executor on the process's one worker pool: a failed partition ends
//! a `cum.col` pass at once, with its own message, and contexts that
//! materialize concurrently from several threads neither deadlock nor
//! change a bit of their results.

use flashr::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Run `f` on a thread of its own and return what it returned (or its
/// panic), failing the test if it has not finished after `secs` seconds:
/// a deadlock cannot fail an assertion.
fn within<T: Send + 'static>(
    secs: u64,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(std::panic::catch_unwind(AssertUnwindSafe(f)));
    });
    match watchdog.recv_timeout(Duration::from_secs(secs)) {
        Ok(result) => result,
        Err(_) => panic!("{what} did not finish within {secs} s"),
    }
}

fn ctx(nthreads: usize, rows_per_part: u64) -> FlashCtx {
    FlashCtx::with_config(CtxConfig { nthreads, rows_per_part, ..CtxConfig::default() }, None)
}

#[test]
fn a_failed_partition_ends_a_cum_col_pass_with_its_own_message() {
    let res = within(10, "the failed cum.col pass", || {
        // 16 partitions of 64 rows; partition 3 holds a group label
        // outside the two declared groups.
        let ctx = ctx(4, 64);
        let n = 16 * 64;
        let labels: Vec<f64> =
            (0..n).map(|r| if r / 64 == 3 { 5.0 } else { (r % 2) as f64 }).collect();
        let labels = FM::from_col_major(&ctx, n, 1, &labels);
        let x = FM::runif(&ctx, n, 2, 0.0, 1.0, 9);
        // One pass computes both. The worker on partition 3 fails in the
        // group-by before it publishes its running sum, which partition
        // 4's `cum.col` waits for.
        let cum = x.cumsum_col();
        let groups = x.groupby_row(&labels, AggOp::Sum, 2);
        FM::materialize_multi(&ctx, &[&cum, &groups])
    });
    let payload = res.expect_err("a label of 5 in 2 groups must fail the pass");
    let msg = payload.downcast_ref::<String>().map_or("(not a formatted message)", String::as_str);
    assert!(msg.contains("group label 5 outside [0, 2)"), "{msg}");
}

/// One context's work, as bit patterns: context 0 runs a `cum.col` pass,
/// the others a Gramian and column sums in one pass, each five times.
fn work(i: u64) -> Vec<u64> {
    let ctx = ctx(3, 256);
    let x = FM::rnorm(&ctx, 5000, 4, 0.0, 1.0, 100 + i);
    let mut bits = Vec::new();
    for _ in 0..5 {
        let values = if i == 0 {
            x.cumsum_col().to_vec(&ctx)
        } else {
            let both = FM::materialize_multi(&ctx, &[&x.crossprod(), &x.col_sums()]);
            both.iter().flat_map(|m| m.to_dense(&ctx).into_vec()).collect()
        };
        bits.extend(values.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn four_contexts_materialize_concurrently_and_agree_with_a_sequential_run() {
    let sequential: Vec<Vec<u64>> = (0..4).map(work).collect();
    let concurrent = within(60, "four concurrent contexts", || {
        let runs: Vec<JoinHandle<Vec<u64>>> =
            (0..4).map(|i| std::thread::spawn(move || work(i))).collect();
        runs.into_iter().map(JoinHandle::join).collect::<Result<Vec<_>, _>>()
    });
    let concurrent = concurrent.ok().and_then(Result::ok);
    assert!(concurrent == Some(sequential), "a concurrent context failed or differed");
}
