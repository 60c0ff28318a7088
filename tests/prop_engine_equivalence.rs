//! Property-based tests: for random programs and matrices, the three
//! engine modes, the two storage classes, all thread counts, and the
//! naive in-memory reference must agree.

use flashr::prelude::*;
use flashr_testkit::{cases, Rng};

const CASES: usize = 24;

/// A naive row-major reference matrix for oracle computations.
#[derive(Debug, Clone)]
struct Ref {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Ref {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

fn ctx_with(threads: usize, rows_per_part: u64, mode: ExecMode) -> FlashCtx {
    FlashCtx::with_config(
        CtxConfig { nthreads: threads, rows_per_part, mode, ..Default::default() },
        None,
    )
}

/// Random matrix as both a Ref and the flat row-major data.
fn arb_matrix(rng: &mut Rng, max_rows: usize, max_cols: usize) -> Ref {
    let (rows, cols) = (rng.usize(1..max_rows + 1), rng.usize(1..max_cols + 1));
    Ref { rows, cols, data: rng.vec_f64(rows * cols, -100.0..100.0) }
}

/// A random elementwise program: a sequence of ops applied to X.
#[derive(Debug, Clone)]
enum Step {
    AddConst(f64),
    MulConst(f64),
    Abs,
    Square,
    PminConst(f64),
}

fn arb_program(rng: &mut Rng) -> Vec<Step> {
    (0..rng.usize(0..5))
        .map(|_| match rng.below(5) {
            0 => Step::AddConst(rng.f64(-10.0..10.0)),
            1 => Step::MulConst(rng.f64(-3.0..3.0)),
            2 => Step::Abs,
            3 => Step::Square,
            _ => Step::PminConst(rng.f64(-50.0..50.0)),
        })
        .collect()
}

fn apply_program_fm(x: &FM, prog: &[Step]) -> FM {
    let mut cur = x.clone();
    for s in prog {
        cur = match s {
            Step::AddConst(v) => &cur + *v,
            Step::MulConst(v) => &cur * *v,
            Step::Abs => cur.abs(),
            Step::Square => cur.square(),
            Step::PminConst(v) => cur.binary_scalar(BinaryOp::Min, *v, false),
        };
    }
    cur
}

fn apply_program_ref(v: f64, prog: &[Step]) -> f64 {
    let mut cur = v;
    for s in prog {
        cur = match s {
            Step::AddConst(c) => cur + c,
            Step::MulConst(c) => cur * c,
            Step::Abs => cur.abs(),
            Step::Square => cur * cur,
            Step::PminConst(c) => cur.min(*c),
        };
    }
    cur
}

#[test]
fn engine_modes_match_reference() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 300, 5);
        let prog = arb_program(rng);
        let threads = rng.usize(1..5);
        let rows_per_part = 1u64 << rng.u64(4..9);
        for mode in [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse] {
            let ctx = ctx_with(threads, rows_per_part, mode);
            let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
            let y = apply_program_fm(&x, &prog);

            // Oracle: elementwise program, then sums.
            let mut want_total = 0.0;
            let mut want_cols = vec![0.0; m.cols];
            for r in 0..m.rows {
                for (c, wc) in want_cols.iter_mut().enumerate() {
                    let v = apply_program_ref(m.at(r, c), &prog);
                    want_total += v;
                    *wc += v;
                }
            }

            let out = FM::materialize_multi(&ctx, &[&y.sum(), &y.col_sums()]);
            let total = out[0].value(&ctx);
            let cols = out[1].to_vec(&ctx);
            let scale = want_total.abs().max(1.0);
            assert!(
                (total - want_total).abs() / scale < 1e-9,
                "{mode:?}: total {total} vs {want_total}"
            );
            for (a, b) in cols.iter().zip(&want_cols) {
                assert!((a - b).abs() / b.abs().max(1.0) < 1e-9, "{mode:?} col sums");
            }
        }
    });
}

#[test]
fn gramian_matches_naive() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 200, 4);
        let ctx = ctx_with(4, 64, ExecMode::CacheFuse);
        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        let g = x.crossprod().to_dense(&ctx);
        for i in 0..m.cols {
            for j in 0..m.cols {
                let want: f64 = (0..m.rows).map(|r| m.at(r, i) * m.at(r, j)).sum();
                assert!((g.at(i, j) - want).abs() / want.abs().max(1.0) < 1e-9);
            }
        }
    });
}

#[test]
fn cumsum_matches_scan() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 400, 3);
        let rpp_pow = rng.u64(4..8);
        let ctx = ctx_with(3, 1u64 << rpp_pow, ExecMode::CacheFuse);
        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        let cs = x.cumsum_col().materialize(&ctx);
        // Spot-check boundary rows: first, last, and partition seams.
        let mut checks: Vec<usize> = vec![0, m.rows - 1];
        let rpp = 1usize << rpp_pow;
        if m.rows > rpp {
            checks.push(rpp - 1);
            checks.push(rpp);
        }
        for &r in &checks {
            for c in 0..m.cols {
                let want: f64 = (0..=r).map(|rr| m.at(rr, c)).sum();
                let got = cs.get(&ctx, r as u64, c as u64);
                assert!(
                    (got - want).abs() / want.abs().max(1.0) < 1e-9,
                    "cumsum({r},{c}) {got} vs {want}"
                );
            }
        }
    });
}

#[test]
fn groupby_matches_naive() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 300, 3);
        let k = rng.usize(1..6);
        let ctx = ctx_with(4, 64, ExecMode::CacheFuse);
        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        let labels = FM::seq(m.rows as u64, 0.0, 1.0)
            .binary_scalar(BinaryOp::Rem, k as f64, false)
            .cast(DType::I64);
        let g = x.groupby_row(&labels, AggOp::Sum, k).to_dense(&ctx);
        for grp in 0..k {
            for c in 0..m.cols {
                let want: f64 = (0..m.rows).filter(|r| r % k == grp).map(|r| m.at(r, c)).sum();
                assert!((g.at(grp, c) - want).abs() / want.abs().max(1.0) < 1e-9);
            }
        }
    });
}

#[test]
fn transpose_laws_hold() {
    cases(CASES, |rng, _| {
        let m = arb_matrix(rng, 150, 4);
        let ctx = ctx_with(2, 64, ExecMode::CacheFuse);
        let x = FM::from_row_major(&ctx, m.rows as u64, m.cols, &m.data);
        // t(t(x)) == x
        let d = x.t().t().to_dense(&ctx);
        for r in 0..m.rows {
            for c in 0..m.cols {
                assert_eq!(d.at(r, c), m.at(r, c));
            }
        }
        // rowSums(t(x)) == colSums(x)
        let a = x.t().row_sums().to_vec(&ctx);
        let b = x.col_sums().to_vec(&ctx);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
    });
}
