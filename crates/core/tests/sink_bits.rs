//! A sink's bits depend only on its input and the partitioning: not on
//! what else shares its pass, the Pcache budget or the engine mode.
//!
//! Each case draws a tall matrix, a derived expression over it and a
//! labelling, then materializes `sum`, `prod`, `colSums`, `colMeans`,
//! `crossprod`, `crossprod_with` and `groupby.row` sinks of the
//! expression alone, and all of them at once beside a tall target, at
//! three `pcache_bytes` budgets under `CacheFuse`, `MemFuse` and `Eager`.
//! Every result must be the first one's, bit for bit.

use flashr_core::fm::FM;
use flashr_core::mat::TasMat;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx};
use flashr_core::DType;
use flashr_testkit::{cases, Rng};

/// Rows per I/O partition: a case spans two to four partitions, the last
/// one ragged.
const PART_ROWS: u64 = 512;

fn ctx(mode: ExecMode, pcache_bytes: usize) -> FlashCtx {
    FlashCtx::with_config(
        CtxConfig {
            rows_per_part: PART_ROWS,
            nthreads: 2,
            mode,
            pcache_bytes,
            ..Default::default()
        },
        None,
    )
}

/// One drawn case: the data, and how its expression and sinks are built.
struct Case {
    n: u64,
    p: usize,
    x: Vec<f64>,
    labels: Vec<i64>,
    ngroups: usize,
    scale: f64,
    shift: f64,
    with_cols: Vec<usize>,
}

impl Case {
    fn draw(rng: &mut Rng) -> Case {
        let n = rng.u64(PART_ROWS + 1..4 * PART_ROWS);
        let p = rng.usize(1..10);
        let ngroups = rng.usize(1..6);
        Case {
            n,
            p,
            x: rng.vec_f64(n as usize * p, -3.0..3.0),
            labels: (0..n).map(|_| rng.below(ngroups as u64) as i64).collect(),
            ngroups,
            scale: rng.f64(0.5..2.0),
            shift: rng.f64(-1.0..1.0),
            with_cols: (0..rng.usize(1..4)).map(|_| rng.usize(0..p)).collect(),
        }
    }

    /// The sinks, in a fixed order, and a tall target over the same rows.
    fn build(&self, ctx: &FlashCtx) -> (Vec<FM>, FM) {
        let x = FM::from_col_major(ctx, self.n, self.p, &self.x);
        let labels =
            FM::from_tas(TasMat::from_col_major::<i64>(self.n, 1, ctx.parter(), &self.labels));
        let derived_labels = labels.binary_scalar(BinaryOp::Max, 0.0, false).cast(DType::I64);
        let e = &(&x * self.scale) + self.shift;
        let y = x.cols(&self.with_cols).unary(UnaryOp::Sigmoid);
        let sinks = vec![
            e.sum(),
            // A many-column product folds column by column.
            (&(&e * 1e-3) + 1.0).prod_all(),
            e.col_sums(),
            e.col_means(),
            e.crossprod(),
            e.crossprod_with(&y),
            e.groupby_row(&labels, AggOp::Sum, self.ngroups),
            e.groupby_row(&derived_labels, AggOp::Mean, self.ngroups),
        ];
        let tall = e.binary(BinaryOp::Mul, &e.unary(UnaryOp::Exp), false);
        (sinks, tall)
    }
}

fn bits(fm: &FM, ctx: &FlashCtx) -> Vec<u64> {
    fm.to_dense(ctx).as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_sink_gives_the_same_bits_alone_with_other_targets_and_at_any_step() {
    cases(6, |rng, _| {
        let case = Case::draw(rng);
        let mut want: Option<Vec<Vec<u64>>> = None;
        for mode in [ExecMode::CacheFuse, ExecMode::MemFuse, ExecMode::Eager] {
            for pcache_bytes in [3 << 10, 41 << 10, 1 << 20] {
                let ctx = ctx(mode, pcache_bytes);
                let (sinks, tall) = case.build(&ctx);
                let alone: Vec<Vec<u64>> =
                    sinks.iter().map(|s| bits(&s.materialize(&ctx), &ctx)).collect();
                let mut targets: Vec<&FM> = sinks.iter().collect();
                targets.push(&tall);
                let together: Vec<Vec<u64>> = FM::materialize_multi(&ctx, &targets)[..sinks.len()]
                    .iter()
                    .map(|s| bits(s, &ctx))
                    .collect();
                let want = want.get_or_insert_with(|| alone.clone());
                let what = format!("{mode:?} at {pcache_bytes} B, {} × {}", case.n, case.p);
                assert_eq!(&alone, want, "sinks alone, {what}");
                assert_eq!(&together, want, "sinks together with a tall target, {what}");
            }
        }
    });
}
