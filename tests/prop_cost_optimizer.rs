//! Property-based tests for the cost model and the plan optimizer:
//! the cost estimate must stay within a bounded factor of the engine's
//! actual byte counters, `cost_optimize` must never change results, and
//! the governor admission probe must be exact at the budget boundary.

use flashr::core::analysis::cost;
use flashr::core::exec::Target;
use flashr::prelude::*;
use flashr_testkit::{cases, Rng};

const CASES: usize = 24;

/// A naive row-major reference matrix.
#[derive(Debug, Clone)]
struct Ref {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

fn arb_matrix(rng: &mut Rng, max_rows: usize, max_cols: usize) -> Ref {
    let (rows, cols) = (rng.usize(8..max_rows + 1), rng.usize(1..max_cols + 1));
    Ref { rows, cols, data: rng.vec_f64(rows * cols, -100.0..100.0) }
}

/// Two matrices sharing a row count (tall nodes in one DAG must agree
/// on the partition dimension).
fn arb_matrix_pair(rng: &mut Rng, max_rows: usize, max_cols: usize) -> (Ref, Ref) {
    let rows = rng.usize(8..max_rows + 1);
    let (c1, c2) = (rng.usize(1..max_cols + 1), rng.usize(1..max_cols + 1));
    let mut with_cols =
        |cols: usize| Ref { rows, cols, data: rng.vec_f64(rows * cols, -100.0..100.0) };
    (with_cols(c1), with_cols(c2))
}

/// A random elementwise program applied to X.
#[derive(Debug, Clone)]
enum Step {
    AddConst(f64),
    MulConst(f64),
    Abs,
    Square,
}

fn arb_program(rng: &mut Rng) -> Vec<Step> {
    (0..rng.usize(1..6))
        .map(|_| match rng.below(4) {
            0 => Step::AddConst(rng.f64(-10.0..10.0)),
            1 => Step::MulConst(rng.f64(-3.0..3.0)),
            2 => Step::Abs,
            _ => Step::Square,
        })
        .collect()
}

fn apply_program(x: &FM, prog: &[Step]) -> FM {
    let mut cur = x.clone();
    for s in prog {
        cur = match s {
            Step::AddConst(v) => &cur + *v,
            Step::MulConst(v) => &cur * *v,
            Step::Abs => cur.abs(),
            Step::Square => cur.square(),
        };
    }
    cur
}

fn ctx_with(mode: ExecMode, cost_optimize: bool) -> FlashCtx {
    FlashCtx::with_config(
        CtxConfig { nthreads: 3, rows_per_part: 32, mode, cost_optimize, ..Default::default() },
        None,
    )
}

/// The exec target a pending FM would run as (mirrors the engine's own
/// mapping; test-local so the tests can price plans without running them).
fn target_of(fm: &FM) -> Target {
    match fm {
        FM::Sink { node } => Target::Sink(node.clone()),
        FM::Tall { node, .. } => Target::Tall {
            node: node.clone(),
            storage: flashr::core::exec::TargetStorage::Default,
        },
        FM::Small(_) => panic!("already materialized"),
    }
}

/// The cost model's predicted chunk bytes must track the engine's
/// `node_chunk_bytes` counter within a bounded factor on random
/// fused plans (the estimate is an upper bound, not an equality).
#[test]
fn predicted_chunk_bytes_within_bounded_factor() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 200, 4);
        let prog = arb_program(rng);
        let ctx = ctx_with(ExecMode::CacheFuse, false);
        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        let y = apply_program(&x, &prog);
        let s = y.sum();

        let est = cost::estimate(&ctx, &[target_of(&s)]);
        assert!(est.chunk_bytes > 0, "plan must move bytes");

        let before = ctx.stats().snapshot();
        let _ = s.value(&ctx);
        let actual = before.delta(&ctx.stats().snapshot()).node_chunk_bytes;
        assert!(actual > 0, "pass must produce chunks");

        let (hi, lo) = (est.chunk_bytes.max(actual), est.chunk_bytes.min(actual));
        assert!(
            hi / lo.max(1) <= 8,
            "predicted {} vs actual {} drifted past 8x",
            est.chunk_bytes,
            actual
        );
    });
}

/// `cost_optimize` must be invisible in results: for random programs
/// over shared and disjoint leaves, every output (tall and sink,
/// fused and eager — including the optimizer's eager pass
/// reordering) is bit-identical with the optimizer on and off.
#[test]
fn cost_optimize_is_bit_identical() {
    cases(CASES, |rng, _| {
        let (m1, m2) = arb_matrix_pair(rng, 150, 3);
        let prog = arb_program(rng);
        for mode in [ExecMode::CacheFuse, ExecMode::MemFuse, ExecMode::Eager] {
            let mut outs: Vec<Vec<u64>> = Vec::new();
            for cost_optimize in [false, true] {
                let ctx = ctx_with(mode, cost_optimize);
                let x1 = FM::from_row_major(&ctx, m1.rows as u64, m1.cols, &m1.data);
                let x2 = FM::from_row_major(&ctx, m2.rows as u64, m2.cols, &m2.data);
                // y is reused (auto-cache candidate); the x1/x2/x1
                // target interleave makes the eager pass reorderer act.
                let y = apply_program(&x1, &prog);
                let a = &y * 2.0;
                let b = apply_program(&x2, &prog);
                let c = &y + 1.0;
                let done = FM::materialize_multi(&ctx, &[&a, &b.sum(), &c, &a.col_sums()]);
                let mut bits: Vec<u64> = Vec::new();
                bits.extend(done[0].to_vec(&ctx).iter().map(|v| v.to_bits()));
                bits.push(done[1].value(&ctx).to_bits());
                bits.extend(done[2].to_vec(&ctx).iter().map(|v| v.to_bits()));
                bits.extend(done[3].to_vec(&ctx).iter().map(|v| v.to_bits()));
                outs.push(bits);
            }
            assert_eq!(&outs[0], &outs[1], "mode {:?} not bit-identical", mode);
        }
    });
}

/// Governor admission is exact at the boundary: a pin of exactly the
/// remaining budget is admitted, one byte more is rejected — and the
/// optimizer's auto-cache decision follows the same line end to end.
#[test]
fn governor_budget_boundary_is_exact() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 100, 3);
        let slack = rng.u64(0..2);
        let reused_bytes = (m.rows * m.cols * 8) as u64;
        // slack 0: budget one byte short; slack 1: budget exactly fits.
        let budget = reused_bytes + slack - 1;
        let ctx = ctx_with(ExecMode::CacheFuse, true)
            .with_mem_budget(MemBudget::new(budget).with_cache_fraction(0.0));

        let gov = ctx.governor();
        assert!(gov.would_admit(budget), "exactly-at-budget pin must be admitted");
        assert!(!gov.would_admit(budget + 1), "one-byte-over pin must be rejected");

        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        let y = &x + 1.0;
        let a = &y * 2.0;
        let b = &y + 3.0;
        let before = ctx.stats().snapshot();
        let _ = FM::materialize_multi(&ctx, &[&a, &b]);
        let d = before.delta(&ctx.stats().snapshot());
        if slack == 1 {
            assert_eq!(d.opt_cache_bytes, reused_bytes, "fit: y must be auto-cached");
            assert_eq!(d.opt_decisions, 1);
        } else {
            assert_eq!(d.opt_cache_bytes, 0, "one byte short: y must not be cached");
            assert_eq!(d.opt_decisions, 0);
        }
    });
}
