//! Differential fuzzer: random `FM` programs against the naive oracle
//! (`flashr_testkit::oracle`), at every engine configuration.
//!
//! A program is built on the engine and on the oracle in lock-step (a
//! [`Pair`]), so there is no program description to interpret twice: a
//! case is a seed, and replaying the seed on another context rebuilds
//! the same program there. Element-wise and integer results must match
//! bit for bit (see `oracle::assert_same` for the two IEEE freedoms);
//! reductions, Gramians and `matmul`, which the engine reassociates,
//! within `n·ε·Σ|x|`.

use flashr::prelude::*;
use flashr::safs::{CacheCfg, CacheStatsSnapshot};
use flashr_testkit::oracle::{assert_close, assert_same, Mat};
use flashr_testkit::{cases, Rng};

const MODES: [ExecMode; 3] = [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse];
const NTHREADS: [usize; 4] = [1, 2, 3, 4];
const ROWS_PER_PART: [u64; 5] = [16, 32, 64, 128, 256];
/// A Pcache budget of one byte clamps to the 16-row floor; the other is
/// `CtxConfig::default()`'s.
const PCACHE_BYTES: [usize; 2] = [1, 256 * 1024];
/// Read-ahead depth of the EM arrays: none (every claim issues its
/// own reads) and `SafsConfig`'s default.
const DISPATCH_BATCH: [usize; 2] = [1, 4];
const DTYPES: [DType; 5] = [DType::F64, DType::F32, DType::I64, DType::I32, DType::U8];

#[derive(Debug, Clone, Copy)]
enum Storage {
    InMem,
    TwoShards,
    /// Four shards behind the per-device throttle, so reads and writes
    /// complete through the token bucket.
    FourShardsThrottled,
    /// `TwoShards` behind a page cache that admits every leaf, so
    /// partitions arrive as cache hits, coalesced waits and owned misses.
    TwoShardsCached,
    /// `TwoShards` behind a page cache smaller than most leaves a case
    /// draws: a larger leaf bypasses it for two scans and then keeps the
    /// partitions that fit beside its own, evicting other leaves' entries.
    TwoShardsSmallCache,
}
const STORAGES: [Storage; 5] = [
    Storage::InMem,
    Storage::TwoShards,
    Storage::FourShardsThrottled,
    Storage::TwoShardsCached,
    Storage::TwoShardsSmallCache,
];

/// A page cache larger than any leaf a case draws.
const CACHE_BYTES: u64 = 16 << 20;
/// A page cache of a few partitions: 4 KiB a shard.
const SMALL_CACHE_BYTES: u64 = 8 << 10;

/// The four-shard array's throttle: fast enough to keep the suite quick.
const THROTTLE: ThrottleCfg = ThrottleCfg { bytes_per_sec: 1e9, latency_us: 1.0 };

/// The three SSD arrays the EM points run on, each opened once per
/// [`DISPATCH_BATCH`] value, under one scratch directory.
struct Arrays {
    dir: std::path::PathBuf,
    two_shards: [Safs; 2],
    four_shards: [Safs; 2],
    cached: [Safs; 2],
    small_cached: [Safs; 2],
}

impl Arrays {
    fn open(tag: &str) -> Arrays {
        let dir = std::env::temp_dir().join(format!("flashr-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let array = |name: &str, shards: usize, cache_bytes, throttle| {
            DISPATCH_BATCH.map(|batch| {
                let root = dir.join(format!("{name}{batch}"));
                let cfg = SafsConfig { throttle, ..SafsConfig::striped_under(root, shards) }
                    .with_dispatch_batch(batch)
                    .with_cache(CacheCfg::with_capacity(cache_bytes));
                Safs::open(cfg).expect("open scratch SAFS array")
            })
        };
        let two_shards = array("two", 2, 0, None);
        let four_shards = array("four", 4, 0, Some(THROTTLE));
        let cached = array("cached", 2, CACHE_BYTES, None);
        let small_cached = array("small", 2, SMALL_CACHE_BYTES, None);
        Arrays { dir, two_shards, four_shards, cached, small_cached }
    }

    /// `batch` indexes [`DISPATCH_BATCH`]; in-memory storage ignores it.
    fn ctx(
        &self,
        mode: ExecMode,
        nthreads: usize,
        rows_per_part: u64,
        pcache_bytes: usize,
        storage: Storage,
        batch: usize,
    ) -> FlashCtx {
        let (class, safs) = match storage {
            Storage::InMem => (StorageClass::InMem, None),
            Storage::TwoShards => (StorageClass::Em, Some(self.two_shards[batch].clone())),
            Storage::FourShardsThrottled => {
                (StorageClass::Em, Some(self.four_shards[batch].clone()))
            }
            Storage::TwoShardsCached => (StorageClass::Em, Some(self.cached[batch].clone())),
            Storage::TwoShardsSmallCache => {
                (StorageClass::Em, Some(self.small_cached[batch].clone()))
            }
        };
        let cfg = CtxConfig {
            nthreads,
            mode,
            rows_per_part,
            pcache_bytes,
            storage: class,
            ..Default::default()
        };
        FlashCtx::with_config(cfg, safs)
    }
}

impl Drop for Arrays {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// An engine matrix and its reference, built by the same calls.
#[derive(Clone)]
struct Pair {
    fm: FM,
    want: Mat,
    /// Some value went through `min`/`max`: the sign of a zero is free.
    zero_sign_free: bool,
}

impl Pair {
    /// A leaf from row-major data, stored row- or column-major.
    fn leaf(ctx: &FlashCtx, rows: usize, cols: usize, data: Vec<f64>, row_major: bool) -> Pair {
        let want = Mat::from_row_major(rows, cols, data.clone());
        let fm = if row_major {
            FM::from_row_major(ctx, rows as u64, cols, &data)
        } else {
            FM::from_col_major(ctx, rows as u64, cols, &want.col_major())
        };
        Pair { fm, want, zero_sign_free: false }
    }

    /// A generated leaf, `runif` or `rnorm` with drawn parameters.
    fn generated(rng: &mut Rng, ctx: &FlashCtx, rows: usize, cols: usize) -> Pair {
        let (seed, a, b) = (rng.next_u64(), rng.f64(-4.0..4.0), rng.f64(0.25..2.0));
        let (fm, want) = if rng.bool() {
            (
                FM::runif(ctx, rows as u64, cols, a, a + b, seed),
                Mat::runif(rows, cols, seed, a, a + b),
            )
        } else {
            (FM::rnorm(ctx, rows as u64, cols, a, b, seed), Mat::rnorm(rows, cols, seed, a, b))
        };
        Pair { fm, want, zero_sign_free: false }
    }

    /// The same operation on both sides — or on neither (`None`) when the
    /// oracle cannot hold the result exactly, so the caller draws again.
    fn then(&self, want: Mat, fm: impl FnOnce(&FM) -> FM) -> Option<Pair> {
        want.in_domain().then(|| Pair {
            fm: fm(&self.fm),
            want,
            zero_sign_free: self.zero_sign_free,
        })
    }

    fn unary(&self, op: UnaryOp) -> Option<Pair> {
        self.then(self.want.unary(op), |x| x.unary(op))
    }

    fn cast(&self, to: DType) -> Option<Pair> {
        self.then(self.want.cast(to), |x| x.cast(to))
    }

    fn cols(&self, idx: &[usize]) -> Pair {
        self.then(self.want.cols(idx), |x| x.cols(idx)).expect("a selection stays in the domain")
    }

    fn binary(&self, op: BinaryOp, rhs: &Pair, swapped: bool) -> Option<Pair> {
        let mut out = self
            .then(self.want.binary(op, &rhs.want, swapped), |x| x.binary(op, &rhs.fm, swapped))?;
        out.zero_sign_free |= rhs.zero_sign_free || matches!(op, BinaryOp::Min | BinaryOp::Max);
        Some(out)
    }

    fn binary_scalar(&self, op: BinaryOp, s: f64, swapped: bool) -> Option<Pair> {
        let mut out = self
            .then(self.want.binary_scalar(op, s, swapped), |x| x.binary_scalar(op, s, swapped))?;
        out.zero_sign_free |= matches!(op, BinaryOp::Min | BinaryOp::Max);
        Some(out)
    }

    /// Column `c` against `stats[c]`: through `sweep_cols`, or — the only
    /// way to a swapped row vector — through a 1 × p small operand.
    fn sweep(&self, op: BinaryOp, stats: &[f64], swapped: bool) -> Option<Pair> {
        let row = FM::from_dense(Dense::from_vec(1, stats.len(), stats.to_vec()));
        let want = if swapped {
            // op(stats[c], x): the oracle has no swapped sweep, so spell it
            // as a full matrix of the row vector against x.
            let full: Vec<f64> = (0..self.want.rows).flat_map(|_| stats.iter().copied()).collect();
            Mat::from_row_major(self.want.rows, stats.len(), full).binary(
                op,
                &self.want.cast(DType::F64),
                false,
            )
        } else {
            self.want.sweep_cols(stats, op)
        };
        let mut out = self.then(want, |x| {
            if swapped {
                x.binary(op, &row, true)
            } else {
                x.sweep_cols(stats, op)
            }
        })?;
        out.zero_sign_free |= matches!(op, BinaryOp::Min | BinaryOp::Max);
        Some(out)
    }

    /// The running `op` down each column, across partition seams.
    fn cum_col(&self, op: BinaryOp) -> Option<Pair> {
        let mut out = self.then(self.want.cum_col(op), |x| match op {
            BinaryOp::Add => x.cumsum_col(),
            BinaryOp::Mul => x.cumprod_col(),
            BinaryOp::Min => x.cummin_col(),
            _ => x.cummax_col(),
        })?;
        out.zero_sign_free |= matches!(op, BinaryOp::Min | BinaryOp::Max);
        Some(out)
    }

    /// `inner.prod(x, b, f1, f2)` against a drawn `cols × k` matrix `b`.
    fn inner_prod(&self, rng: &mut Rng, k: usize, f1: BinaryOp, f2: BinaryOp) -> Option<Pair> {
        let cols = self.want.cols;
        let b = draw_values(rng, cols * k);
        let want = self.want.inner_prod(&Mat::from_row_major(cols, k, b.clone()), f1, f2);
        let mut out = self.then(want, |x| x.inner_prod(Dense::from_vec(cols, k, b), f1, f2))?;
        out.zero_sign_free |= [f1, f2].iter().any(|f| matches!(f, BinaryOp::Min | BinaryOp::Max));
        Some(out)
    }

    fn materialize(&self, ctx: &FlashCtx) -> Pair {
        Pair { fm: self.fm.materialize(ctx), ..self.clone() }
    }

    fn check_tall(&self, ctx: &FlashCtx, what: &str) {
        assert_eq!(self.fm.dtype(), self.want.dtype, "{what}: dtype");
        assert_eq!(
            (self.fm.nrow() as usize, self.fm.ncol() as usize),
            (self.want.rows, self.want.cols),
            "{what}: shape"
        );
        assert_same(&self.fm.to_vec(ctx), &self.want, self.zero_sign_free, what);
    }
}

const UNARY: [UnaryOp; 16] = {
    use UnaryOp::*;
    [
        Neg, Abs, Sqrt, Exp, Ln, Log2, Log10, Log1p, Floor, Ceil, Round, Sign, Recip, Square,
        Sigmoid, Not,
    ]
};
const BINARY: [BinaryOp; 17] = {
    use BinaryOp::*;
    [Add, Sub, Mul, Div, Rem, Pow, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or, EuclidSq]
};

/// `inner.prod`'s element functions and its associative combiners: the
/// kernel defines every one of the 28 pairs.
const IP_F1: [BinaryOp; 7] = {
    use BinaryOp::*;
    [Add, Sub, Mul, Div, Min, Max, EuclidSq]
};
const IP_F2: [BinaryOp; 4] = {
    use BinaryOp::*;
    [Add, Mul, Min, Max]
};

/// `cum.col`'s ops: the associative ones, as `inner.prod`'s combiners.
const CUM_OPS: [BinaryOp; 4] = IP_F2;

/// Every aggregation `groupby.row` folds.
const GROUP_OPS: [AggOp; 8] = {
    use AggOp::*;
    [Sum, Mean, Min, Max, Prod, Count, Any, All]
};

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.usize(0..from.len())]
}

/// Values that stay tame under `exp`, `pow` and repeated squaring, mostly
/// non-integers, with small integers and exact zeros mixed in so casts,
/// predicates and integer arithmetic have something to bite on.
fn draw_values(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 | 2 => rng.usize(0..41) as f64 - 20.0,
            _ => rng.f64(-4.0..4.0),
        })
        .collect()
}

fn draw_idx(rng: &mut Rng, from_cols: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.usize(0..from_cols)).collect()
}

/// A second operand for `cur`, of one of the five kinds a `mapply` can
/// meet, and the call that applies it.
fn draw_binary(rng: &mut Rng, ctx: &FlashCtx, cur: &Pair, sources: &[Pair]) -> Option<Pair> {
    let (op, swapped) = (pick(rng, &BINARY), rng.bool());
    let width = cur.want.cols;
    let kind = rng.below(5);
    if kind == 0 {
        return cur.binary_scalar(op, pick(rng, &[0.0, 0.5, -1.5, 2.0, 3.0]), swapped);
    }
    if kind == 1 {
        return cur.sweep(op, &draw_values(rng, width), swapped);
    }
    // A matrix operand: some source's columns, as wide as `cur` or one
    // column to recycle, either read as it is (materialized) or through
    // one more lazy op — so the kernel's aux input is itself a kernel.
    let src = &sources[rng.usize(0..sources.len())];
    let rhs = src.cols(&draw_idx(rng, src.want.cols, if kind == 4 { 1 } else { width }));
    let rhs = match kind {
        2 => rhs.materialize(ctx),
        3 => rhs.unary(pick(rng, &[UnaryOp::Square, UnaryOp::Abs, UnaryOp::Neg, UnaryOp::Sqrt]))?,
        _ if rng.bool() => rhs.materialize(ctx),
        _ => rhs,
    };
    cur.binary(op, &rhs, swapped)
}

/// Grow `cur` by one random tall-to-tall operation.
fn draw_step(rng: &mut Rng, ctx: &FlashCtx, cur: &Pair, sources: &[Pair]) -> Option<Pair> {
    let width = cur.want.cols;
    match rng.below(14) {
        0..=2 => cur.unary(pick(rng, &UNARY)),
        3..=6 => draw_binary(rng, ctx, cur, sources),
        7 => cur.cast(pick(rng, &DTYPES)),
        8 => {
            let len = rng.usize(1..width + 2);
            Some(cur.cols(&draw_idx(rng, width, len)))
        }
        9 => {
            let other = &sources[rng.usize(0..sources.len())];
            let want = Mat::cbind(&[&cur.want, &other.want]);
            let mut out = cur.then(want, |x| FM::cbind(&[x, &other.fm]))?;
            out.zero_sign_free |= other.zero_sign_free;
            Some(out)
        }
        10 => cur.cum_col(pick(rng, &CUM_OPS)),
        11 => {
            let (k, f1, f2) = (rng.usize(1..10), pick(rng, &IP_F1), pick(rng, &IP_F2));
            cur.inner_prod(rng, k, f1, f2)
        }
        12 => match rng.below(6) {
            0 => cur.then(cur.want.clone(), |x| x.t().t()),
            1 => cur.then(cur.want.agg_rows(AggOp::Sum), |x| x.row_sums()),
            2 => cur.then(cur.want.agg_rows(AggOp::WhichMin), |x| x.row_which_min()),
            3 => cur.then(cur.want.agg_rows(AggOp::WhichMax), |x| x.row_which_max()),
            4 => cur.then(cur.want.agg_rows(AggOp::Mean), |x| x.row_means()),
            _ => {
                let mut out = cur.then(cur.want.agg_rows(AggOp::Min), |x| x.row_min())?;
                out.zero_sign_free = true;
                Some(out)
            }
        },
        // `set.cache` on the intermediate, materialized as a target of its
        // own; later steps build on the handle, so they read the kept
        // data. The reference is the identity.
        _ => cur.then(cur.want.clone(), |x| {
            x.set_cache(true);
            let _ = x.materialize(ctx);
            x.clone()
        }),
    }
}

#[derive(Debug, Clone, Copy)]
enum Sink {
    SumAndColSums,
    MinMax,
    ColMeans,
    TransposedRowSums,
    Crossprod,
    CrossprodWith,
    GroupBy,
    Matmul,
}
const SINKS: [Sink; 8] = {
    use Sink::*;
    [SumAndColSums, MinMax, ColMeans, TransposedRowSums, Crossprod, CrossprodWith, GroupBy, Matmul]
};

/// End the program on `cur` with `sink` and check what comes out.
fn check_sink(sink: Sink, rng: &mut Rng, ctx: &FlashCtx, cur: &Pair, what: &str) {
    let (rows, cols) = (cur.want.rows, cur.want.cols);
    let col = |c: usize| cur.want.cols(&[c]);
    let what = &format!("{what}, {sink:?}");
    match sink {
        Sink::SumAndColSums => {
            // Sum and column sums in one pass, the tall result beside them.
            let outs = FM::materialize_multi(ctx, &[&cur.fm, &cur.fm.sum(), &cur.fm.col_sums()]);
            Pair { fm: outs[0].clone(), ..cur.clone() }.check_tall(ctx, what);
            let sum = outs[1].value(ctx);
            assert_close(sum, cur.want.agg_all(AggOp::Sum), rows * cols, cur.want.abs_sum(), what);
            for (c, got) in outs[2].to_vec(ctx).into_iter().enumerate() {
                assert_close(
                    got,
                    cur.want.agg_cols(AggOp::Sum).at(0, c),
                    rows,
                    col(c).abs_sum(),
                    what,
                );
            }
        }
        Sink::MinMax => {
            for (got, op) in [(cur.fm.min_all(), AggOp::Min), (cur.fm.max_all(), AggOp::Max)] {
                assert_close(got.value(ctx), cur.want.agg_all(op), 0, 0.0, what);
            }
        }
        Sink::ColMeans => {
            let want = cur.want.agg_cols(AggOp::Mean);
            for (c, got) in cur.fm.col_means().to_vec(ctx).into_iter().enumerate() {
                assert_close(got, want.at(0, c), rows, col(c).abs_sum() / rows as f64, what);
            }
        }
        Sink::TransposedRowSums => {
            // rowSums(t(x)) is colSums(x).
            let want = cur.want.agg_cols(AggOp::Sum);
            for (c, got) in cur.fm.t().row_sums().to_vec(ctx).into_iter().enumerate() {
                assert_close(got, want.at(0, c), rows, col(c).abs_sum(), what);
            }
        }
        Sink::Crossprod => {
            let abs = cur.want.abs();
            let (want, scale) = (cur.want.crossprod(&cur.want), abs.crossprod(&abs));
            // One output again, as the 1 × 1 `crossprod_with` of its two
            // columns in the same pass, so over the same chunks: the 2 × 2
            // tile and the one-output fold must give the same bits.
            let (i0, j0) = (rng.usize(0..cols), rng.usize(0..cols));
            let one = cur.fm.cols(&[i0]).crossprod_with(&cur.fm.cols(&[j0]));
            let outs = FM::materialize_multi(ctx, &[&cur.fm.crossprod(), &one]);
            let got = outs[0].to_dense(ctx);
            for (i, j) in (0..cols).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                assert_close(got.at(i, j), want.at(i, j), rows, scale.at(i, j), what);
                assert_eq!(got.at(i, j).to_bits(), got.at(j, i).to_bits(), "{what}: ({i}, {j})");
            }
            let one = outs[1].value(ctx);
            assert_eq!(one.to_bits(), got.at(i0, j0).to_bits(), "{what}: ({i0}, {j0}) alone");
        }
        Sink::CrossprodWith => {
            // `t(x) %*% y` for a second program over the same rows, 1 to 9
            // columns wide: one column is the logistic gradient's shape,
            // odd widths end off the 2-column tile.
            let width = rng.usize(1..10);
            let leaf = Pair::leaf(ctx, rows, width, draw_values(rng, rows * width), rng.bool());
            let mut y = leaf.clone();
            for _ in 0..rng.usize(0..3) {
                let sources = [cur.clone(), leaf.clone()];
                if let Some(next) = (0..8).find_map(|_| draw_step(rng, ctx, &y, &sources)) {
                    y = next;
                }
            }
            let y = y.cols(&draw_idx(rng, y.want.cols, width));
            let (want, scale) =
                (cur.want.crossprod(&y.want), cur.want.abs().crossprod(&y.want.abs()));
            let got = cur.fm.crossprod_with(&y.fm).to_dense(ctx);
            for (i, j) in (0..cols).flat_map(|i| (0..width).map(move |j| (i, j))) {
                assert_close(got.at(i, j), want.at(i, j), rows, scale.at(i, j), what);
            }
        }
        Sink::GroupBy => {
            let (op, k) = (pick(rng, &GROUP_OPS), rng.usize(1..18));
            let what = &format!("{what} {op:?} over {k} groups");
            let labels = if rng.bool() {
                // Labels row % k, lazy: seq → Rem → cast I64.
                let seq = Mat::from_row_major(rows, 1, (0..rows).map(|r| r as f64).collect());
                Pair { fm: FM::seq(rows as u64, 0.0, 1.0), want: seq, zero_sign_free: false }
                    .binary_scalar(BinaryOp::Rem, k as f64, false)
            } else {
                // Runs of equal labels, each 1 to 24 rows long.
                let mut labels = Vec::with_capacity(rows);
                while labels.len() < rows {
                    let (g, run) = (rng.usize(0..k) as f64, rng.usize(1..25));
                    labels.extend(std::iter::repeat_n(g, run.min(rows - labels.len())));
                }
                Some(Pair::leaf(ctx, rows, 1, labels, rng.bool()))
            }
            .and_then(|l| l.cast(DType::I64))
            .expect("labels stay in the domain");
            let want = cur.want.groupby_row(&labels.want, op, k);
            let got = cur.fm.groupby_row(&labels.fm, op, k).to_dense(ctx);
            let abs = cur.want.abs();
            // Sums reassociate across workers: within n·ε·Σ|x|. Products
            // do too, relative to Π|x|, while no partial product can
            // overflow or underflow: each lies between Π min(|x|, 1) and
            // Π max(|x|, 1) over the group's non-zero values, so a group
            // whose bounds leave [1e-290, 1e300] is not compared. The
            // other ops are exact.
            let (n, scale) = match op {
                AggOp::Sum | AggOp::Mean | AggOp::Prod => {
                    (rows, abs.groupby_row(&labels.want, op, k))
                }
                _ => (0, Mat::from_row_major(k, cols, vec![0.0; k * cols])),
            };
            let prod = |m: Mat| m.groupby_row(&labels.want, AggOp::Prod, k);
            let zeros = abs.binary_scalar(BinaryOp::Eq, 0.0, false);
            let lo = prod(abs.binary_scalar(BinaryOp::Min, 1.0, false).binary(
                BinaryOp::Add,
                &zeros,
                false,
            ));
            let hi = prod(abs.binary_scalar(BinaryOp::Max, 1.0, false));
            for (g, c) in (0..k).flat_map(|g| (0..cols).map(move |c| (g, c))) {
                if op == AggOp::Prod && !(lo.at(g, c) >= 1e-290 && hi.at(g, c) <= 1e300) {
                    continue;
                }
                assert_close(got.at(g, c), want.at(g, c), n, scale.at(g, c), what);
            }
        }
        Sink::Matmul => {
            // Every output width either side of the 4-output tile, and
            // the widths either side of 32.
            let k = pick(rng, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33]);
            let b = Dense::from_fn(cols, k, |_, _| draw_values(rng, 1)[0]);
            let got = cur.fm.matmul(&FM::from_dense(b.clone()));
            let b = Mat::from_row_major(cols, k, b.as_slice().to_vec());
            let (want, scale) = (cur.want.matmul(&b), cur.want.abs().matmul(&b.abs()));
            assert_eq!(got.dtype(), DType::F64, "{what}: matmul dtype");
            let got = got.to_dense(ctx);
            for (r, c) in (0..rows).flat_map(|r| (0..k).map(move |c| (r, c))) {
                assert_close(got.at(r, c), want.at(r, c), cols, scale.at(r, c), what);
            }
        }
    }
}

/// One whole case on `ctx`: two inputs of `shape` (drawn when `None`), a
/// program of up to six steps, the tall result, a sink. Everything is
/// drawn from `rng`, so the same seed is the same case on any context.
fn run_case(rng: &mut Rng, ctx: &FlashCtx, shape: Option<(usize, usize)>, what: &str) {
    let (rows, cols) = shape.unwrap_or_else(|| (rng.usize(1..300), rng.usize(1..6)));
    let mut sources = Vec::new();
    for _ in 0..2 {
        let x = if rng.below(4) == 0 {
            Pair::generated(rng, ctx, rows, cols)
        } else {
            Pair::leaf(ctx, rows, cols, draw_values(rng, rows * cols), rng.bool())
        };
        let x = x.cast(pick(rng, &DTYPES)).expect("small values fit every dtype");
        sources.push(if rng.bool() { x.materialize(ctx) } else { x });
    }
    let mut cur = sources[0].clone();
    for _ in 0..rng.usize(1..7) {
        // A draw whose result leaves the oracle's domain is drawn again.
        if let Some(next) = (0..8).find_map(|_| draw_step(rng, ctx, &cur, &sources)) {
            cur = next;
        }
        sources.push(cur.clone());
    }
    cur.check_tall(ctx, what);
    check_sink(pick(rng, &SINKS), rng, ctx, &cur, what);
}

#[test]
fn random_programs_match_the_oracle_in_every_mode() {
    let arrays = Arrays::open("random");
    cases(80, |rng, case| {
        let (nthreads, rpp, pcache) =
            (pick(rng, &NTHREADS), pick(rng, &ROWS_PER_PART), pick(rng, &PCACHE_BYTES));
        let storage = STORAGES[case % STORAGES.len()];
        let seed = rng.next_u64();
        // Drawn last, so the programs are the ones drawn before it existed.
        let batch = rng.usize(0..DISPATCH_BATCH.len());
        for mode in MODES {
            let ctx = arrays.ctx(mode, nthreads, rpp, pcache, storage, batch);
            let what = format!(
                "case {case}: {mode:?} {nthreads}t rpp={rpp} pcache={pcache} {storage:?} batch={}",
                DISPATCH_BATCH[batch]
            );
            run_case(&mut Rng::new(seed), &ctx, None, &what);
        }
    });
}

/// Generated leaves cut wherever a Box–Muller pair can be split: an odd
/// height, so the last partition ends on a pair's even half, and a Pcache
/// budget of an odd number of the leaf's rows, so in `CacheFuse` most
/// chunks start or end inside a pair.
#[test]
fn generated_leaves_match_the_oracle() {
    let arrays = Arrays::open("gen");
    let storages = [
        Storage::InMem,
        Storage::TwoShards,
        Storage::TwoShardsCached,
        Storage::TwoShardsSmallCache,
    ];
    cases(24, |rng, case| {
        let storage = storages[case % storages.len()];
        let (rows, cols) = (2 * rng.usize(8..150) + 1, rng.usize(1..5));
        let (nthreads, rpp) = (pick(rng, &NTHREADS), pick(rng, &ROWS_PER_PART));
        let stride = 2 * rng.usize(8..40) + 1;
        let (batch, seed) = (rng.usize(0..DISPATCH_BATCH.len()), rng.next_u64());
        for mode in MODES {
            let ctx = arrays.ctx(mode, nthreads, rpp, stride * cols * 8, storage, batch);
            let what = format!(
                "case {case}: {mode:?} {nthreads}t rpp={rpp} stride={stride} {storage:?} {rows}×{cols}"
            );
            let rng = &mut Rng::new(seed);
            let x = Pair::generated(rng, &ctx, rows, cols);
            x.check_tall(&ctx, &what);
            let y = Pair::generated(rng, &ctx, rows, cols);
            let sum = x.binary(BinaryOp::Add, &y, false).expect("F64 + F64");
            sum.check_tall(&ctx, &what);
            check_sink(Sink::Crossprod, rng, &ctx, &sum, &what);
        }
    });
}

/// Every `(f1, f2)` pair `inner.prod` defines, on every dtype, at an
/// output count drawn from 1 to 9 (either side of the kernel's 4-output
/// block), over heights that are not a multiple of its 8-row tile and
/// Pcache budgets of an odd number of input rows, compared bit for bit.
#[test]
fn every_inner_prod_pair_matches_the_oracle() {
    let arrays = Arrays::open("innerprod");
    let storages = [
        Storage::InMem,
        Storage::TwoShards,
        Storage::TwoShardsCached,
        Storage::TwoShardsSmallCache,
    ];
    cases(6, |rng, case| {
        let storage = storages[case % storages.len()];
        let (rows, cols) = (8 * rng.usize(2..40) + rng.usize(1..8), rng.usize(1..7));
        let (nthreads, rpp) = (pick(rng, &NTHREADS), pick(rng, &ROWS_PER_PART));
        let stride = 2 * rng.usize(8..40) + 1;
        let (batch, seed) = (rng.usize(0..DISPATCH_BATCH.len()), rng.next_u64());
        for mode in MODES {
            let ctx = arrays.ctx(mode, nthreads, rpp, stride * cols * 8, storage, batch);
            let rng = &mut Rng::new(seed);
            let x = Pair::leaf(&ctx, rows, cols, draw_values(rng, rows * cols), rng.bool());
            for dtype in DTYPES {
                let x = x.cast(dtype).expect("small values fit every dtype");
                for (f1, f2) in IP_F1.iter().flat_map(|&f1| IP_F2.map(|f2| (f1, f2))) {
                    let k = rng.usize(1..10);
                    let what = format!(
                        "case {case}: {mode:?} {nthreads}t rpp={rpp} stride={stride} {storage:?} \
                         {rows}×{cols} {dtype:?} inner.prod({f1:?}, {f2:?}) to {k} outputs"
                    );
                    if let Some(out) = x.inner_prod(rng, k, f1, f2) {
                        out.check_tall(&ctx, &what);
                    }
                }
            }
        }
    });
}

/// A fixed program through the paths a wiring bug would break: a swapped
/// row vector, a swapped lazy operand, a recycled materialized column,
/// casts across three dtypes, a running sum over every partition seam,
/// and a reduction, a Gramian and a groupby over the chain.
fn grid_program(ctx: &FlashCtx, what: &str) {
    let mut rng = Rng::new(0xF1A5_6B1D);
    let (rows, cols) = (521, 3);
    let x = Pair::leaf(ctx, rows, cols, draw_values(&mut rng, rows * cols), false);
    let y = Pair::leaf(ctx, rows, cols, draw_values(&mut rng, rows * cols), true);
    let lazy = y.unary(UnaryOp::Abs).and_then(|y| y.unary(UnaryOp::Sqrt)).expect("F64");
    let column = y.cols(&[1]).materialize(ctx);
    let chain = x
        .sweep(BinaryOp::Sub, &[0.5, -1.25, 3.0], true)
        .and_then(|c| c.binary(BinaryOp::Div, &lazy, true))
        .and_then(|c| c.binary(BinaryOp::Mul, &column, false))
        .expect("F64");
    let stepped = chain
        .cast(DType::F32)
        .and_then(|c| c.unary(UnaryOp::Floor))
        .and_then(|c| c.cast(DType::I32))
        .and_then(|c| c.cum_col(BinaryOp::Add))
        .expect("I32");
    stepped.check_tall(ctx, what);
    for sink in [Sink::SumAndColSums, Sink::Crossprod, Sink::CrossprodWith, Sink::GroupBy] {
        check_sink(sink, &mut rng, ctx, &chain, what);
    }
}

#[test]
fn one_program_at_every_configuration_point() {
    let arrays = Arrays::open("grid");
    let mut rng = Rng::new(0x000B_A7C4);
    for mode in MODES {
        for nthreads in NTHREADS {
            for rows_per_part in ROWS_PER_PART {
                for pcache_bytes in PCACHE_BYTES {
                    for storage in STORAGES {
                        let batch = rng.usize(0..DISPATCH_BATCH.len());
                        let ctx =
                            arrays.ctx(mode, nthreads, rows_per_part, pcache_bytes, storage, batch);
                        let what = format!(
                            "{mode:?} {nthreads}t rpp={rows_per_part} pcache={pcache_bytes} {storage:?} batch={}",
                            DISPATCH_BATCH[batch]
                        );
                        grid_program(&ctx, &what);
                    }
                }
            }
        }
    }
    let cache = arrays.cached.iter().map(|s| s.cache_stats_snapshot());
    assert!(cache.clone().all(|c| c.bypasses == 0), "the cache admits every leaf");
    assert!(cache.map(|c| c.hits).sum::<u64>() > 0, "the cached points read through the cache");
    let small = arrays.small_cached.iter().map(|s| s.cache_stats_snapshot());
    let small = small.fold(CacheStatsSnapshot::default(), |a, c| a.merge(&c));
    assert!(
        small.bypasses > 0 && small.inserts > 0 && small.evictions > 0 && small.hits > 0,
        "the small cache bypassed, admitted, evicted and served: {small:?}"
    );
    // A miss without an insert: an admitted partition found only its own
    // file resident, and was served without being kept.
    assert!(small.misses > small.inserts, "no read was served and not kept: {small:?}");
    let four = &arrays.four_shards;
    assert!(four.iter().all(|s| s.throttle().is_some()), "the four-shard array is throttled");
    assert!(four.iter().map(|s| s.stats_snapshot().read_reqs).sum::<u64>() > 0, "and read from");
}

/// A Pcache budget between the two above: a many-branch program runs at
/// a step below the partition height, several times the one a sum over
/// every node of the plan would give.
const BRANCHES_PCACHE_BYTES: usize = 16 << 10;

/// Many branches over one leaf, as a GMM E-step has: each branch a sweep,
/// a column selection, a square and `rowSums`, summed by a sink of its own,
/// and the `cbind` of every branch as the pass's tall result.
fn many_branch_program(rng: &mut Rng, ctx: &FlashCtx, what: &str) {
    let (rows, cols, nbranches) = (rng.usize(200..600), rng.usize(1..5), rng.usize(8..13));
    let x = Pair::leaf(ctx, rows, cols, draw_values(rng, rows * cols), rng.bool());
    let branches: Vec<Pair> = (0..nbranches)
        .map(|_| {
            let len = rng.usize(1..cols + 2);
            let idx = draw_idx(rng, cols, len);
            x.sweep(BinaryOp::Sub, &draw_values(rng, cols), false)
                .map(|b| b.cols(&idx))
                .and_then(|b| b.unary(UnaryOp::Square))
                .and_then(|b| b.then(b.want.agg_rows(AggOp::Sum), |f| f.row_sums()))
                .expect("F64 stays in the domain")
        })
        .collect();
    let want = Mat::cbind(&branches.iter().map(|b| &b.want).collect::<Vec<_>>());
    let all = FM::cbind(&branches.iter().map(|b| &b.fm).collect::<Vec<_>>());
    let sums: Vec<FM> = branches.iter().map(|b| b.fm.sum()).collect();
    let mut targets: Vec<&FM> = sums.iter().collect();
    targets.push(&all);
    let outs = FM::materialize_multi(ctx, &targets);
    Pair { fm: outs[nbranches].clone(), want, zero_sign_free: false }.check_tall(ctx, what);
    for (b, got) in branches.iter().zip(&outs) {
        let want = b.want.agg_all(AggOp::Sum);
        assert_close(got.value(ctx), want, rows, b.want.abs_sum(), what);
    }
}

#[test]
fn many_branch_programs_match_the_oracle() {
    let arrays = Arrays::open("branches");
    cases(4, |rng, case| {
        let (nthreads, rpp) = (pick(rng, &NTHREADS), pick(rng, &[128, 256]));
        let seed = rng.next_u64();
        for (mode, storage) in MODES.into_iter().flat_map(|m| STORAGES.map(|s| (m, s))) {
            for (batch, depth) in DISPATCH_BATCH.iter().enumerate() {
                let ctx = arrays.ctx(mode, nthreads, rpp, BRANCHES_PCACHE_BYTES, storage, batch);
                let what = format!(
                    "case {case}: {mode:?} {nthreads}t rpp={rpp} {storage:?} batch={depth}"
                );
                many_branch_program(&mut Rng::new(seed), &ctx, &what);
            }
        }
    });
}

// ------------------------------------------------------------ fixed cases
//
// The shapes and values a random draw rarely lands on, each at a 16-row
// partition in every mode, in memory and on the throttled four-shard array.

fn at_small_partitions(arrays: &Arrays, body: impl Fn(&FlashCtx, &str)) {
    for mode in MODES {
        for storage in [Storage::InMem, Storage::FourShardsThrottled] {
            let ctx = arrays.ctx(mode, 2, 16, PCACHE_BYTES[1], storage, 1);
            body(&ctx, &format!("{mode:?} {storage:?}"));
        }
    }
}

#[test]
fn ugly_shapes_match_the_oracle() {
    let arrays = Arrays::open("shapes");
    // One row; a row either side of one and of three partitions; one
    // column; and, past the 32-column block width, 33 and 40 columns.
    let shapes = [(1, 3), (15, 2), (17, 2), (47, 1), (49, 1), (40, 1), (20, 33), (20, 40)];
    at_small_partitions(&arrays, |ctx, what| {
        for (i, shape) in shapes.into_iter().enumerate() {
            for seed in 0..3 {
                let what = format!("{what}, {shape:?}, seed {seed}");
                run_case(
                    &mut Rng::new(0x5EED_0000 + 16 * i as u64 + seed),
                    ctx,
                    Some(shape),
                    &what,
                );
            }
        }
    });
}

/// Wide matrices, past the paper's 32-column block width (§3.2.2), as one
/// `FM`: the live-set Pcache step sizes their chunks, so there is no
/// column-block path to take. The element-wise chain's bits, `colSums` and
/// `crossprod` at 33 and 40 columns.
#[test]
fn block_matrices_match_the_oracle() {
    let arrays = Arrays::open("blocks");
    at_small_partitions(&arrays, |ctx, what| {
        for cols in [33, 40] {
            let x = Pair::leaf(
                ctx,
                50,
                cols,
                draw_values(&mut Rng::new(cols as u64), 50 * cols),
                false,
            );
            let want = x.want.unary(UnaryOp::Abs).unary(UnaryOp::Sqrt);
            let y = x.fm.unary(UnaryOp::Abs).unary(UnaryOp::Sqrt);
            let outs = FM::materialize_multi(ctx, &[&y, &y.col_sums(), &y.crossprod()]);
            assert_same(&outs[0].to_vec(ctx), &want, false, what);
            for (c, got) in outs[1].to_vec(ctx).into_iter().enumerate() {
                assert_close(
                    got,
                    want.agg_cols(AggOp::Sum).at(0, c),
                    50,
                    want.cols(&[c]).abs_sum(),
                    what,
                );
            }
            let (gram, scale) = (want.crossprod(&want), want.abs().crossprod(&want.abs()));
            let got = outs[2].to_dense(ctx);
            for (i, j) in (0..cols).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                assert_close(got.at(i, j), gram.at(i, j), 50, scale.at(i, j), what);
            }
        }
    });
}

#[test]
fn nan_inf_and_signed_zero_through_min_and_max() {
    let arrays = Arrays::open("minmax");
    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;
    // Rows: all NaN; NaN first; NaN last; both infinities; both zeros,
    // each order; +∞ only; ordinary. Repeated past a partition seam.
    let rows: [[f64; 3]; 8] = [
        [NAN, NAN, NAN],
        [NAN, 2.0, -1.0],
        [3.0, -5.0, NAN],
        [INF, -INF, 0.0],
        [0.0, -0.0, 0.0],
        [-0.0, 0.0, 7.0],
        [INF, INF, INF],
        [1.5, -2.5, 0.25],
    ];
    let data: Vec<f64> = (0..40).flat_map(|r| rows[r % 8]).collect();
    at_small_partitions(&arrays, |ctx, what| {
        for dtype in [DType::F64, DType::F32] {
            let x = Pair::leaf(ctx, 40, 3, data.clone(), true).cast(dtype).unwrap();
            let other = x.cols(&[2, 0, 1]);
            for (step, name) in [
                (x.binary_scalar(BinaryOp::Min, 0.0, false), "pmin(x, 0)"),
                (x.binary_scalar(BinaryOp::Max, NAN, true), "pmax(NaN, x)"),
                (x.binary(BinaryOp::Min, &other, false), "pmin(x, y)"),
                (x.binary(BinaryOp::Max, &other, true), "pmax(y, x)"),
                (x.then(x.want.agg_rows(AggOp::Min), |f| f.row_min()), "row_min"),
                (x.then(x.want.agg_rows(AggOp::Max), |f| f.row_max()), "row_max"),
                (x.then(x.want.agg_rows(AggOp::WhichMin), |f| f.row_which_min()), "row_which_min"),
                (x.then(x.want.agg_rows(AggOp::WhichMax), |f| f.row_which_max()), "row_which_max"),
                (x.then(x.want.agg_rows(AggOp::Mean), |f| f.row_means()), "row_means"),
            ] {
                let step = Pair { zero_sign_free: true, ..step.unwrap() };
                step.check_tall(ctx, &format!("{what} {dtype:?} {name}"));
            }
            check_sink(Sink::MinMax, &mut Rng::new(0), ctx, &x, what);
            // An all-NaN column reduces to the fold's starting infinity.
            let nans = x.cols(&[0]).binary_scalar(BinaryOp::Mul, NAN, false).unwrap();
            assert_eq!(nans.fm.min_all().value(ctx), INF, "{what}: min of nothing but NaN");
            assert_eq!(nans.fm.max_all().value(ctx), -INF, "{what}: max of nothing but NaN");
            check_sink(Sink::MinMax, &mut Rng::new(0), ctx, &nans, what);
        }
    });
}

#[test]
fn integer_edges_match_the_oracle() {
    let arrays = Arrays::open("ints");
    let edge = [255.0, 256.0, -1.0, 0.0, 127.5, -0.5, 1e10, -1e10, f64::NAN, f64::INFINITY];
    let min = f64::from(i32::MIN);
    let ints = [min, min + 1.0, -1.0, 0.0, 1.0, 7.0, f64::from(i32::MAX), -7.0, 0.0, 3.0];
    at_small_partitions(&arrays, |ctx, what| {
        // 255 / 256 / −1 into U8: saturating from a float, wrapping from
        // an integer.
        let x = Pair::leaf(ctx, 30, 1, edge.iter().cycle().take(30).copied().collect(), true);
        x.cast(DType::U8).unwrap().check_tall(ctx, &format!("{what}: F64 → U8"));
        let i = x.cast(DType::I32).unwrap();
        i.cast(DType::U8).unwrap().check_tall(ctx, &format!("{what}: F64 → I32 → U8"));
        // (+∞ saturates to i64::MAX, which the oracle cannot hold.)
        let finite = x.binary_scalar(BinaryOp::Min, 1e12, false).unwrap();
        let l = finite.cast(DType::I64).unwrap();
        l.cast(DType::U8).unwrap().check_tall(ctx, &format!("{what}: F64 → I64 → U8"));

        // i32::MIN has no negation; division and remainder by zero are 0.
        let a = Pair::leaf(ctx, 30, 1, ints.iter().cycle().take(30).copied().collect(), false);
        let a = a.cast(DType::I32).unwrap();
        for op in [UnaryOp::Abs, UnaryOp::Neg, UnaryOp::Square, UnaryOp::Sign] {
            a.unary(op).unwrap().check_tall(ctx, &format!("{what}: {op:?} on I32 edges"));
        }
        let b =
            Pair::leaf(ctx, 30, 1, ints.iter().rev().cycle().take(30).copied().collect(), false);
        for dtype in [DType::I32, DType::I64, DType::U8] {
            let (a, b) = (a.cast(dtype).unwrap(), b.cast(dtype).unwrap().materialize(ctx));
            for op in [BinaryOp::Div, BinaryOp::Rem] {
                for swapped in [false, true] {
                    let name = format!("{what}: {op:?} on {dtype:?}, swapped={swapped}");
                    a.binary(op, &b, swapped).unwrap().check_tall(ctx, &name);
                }
            }
        }
    });
}

/// Every `cum.col` op over every dtype, carried across 16-row seams.
#[test]
fn running_sums_cross_partition_seams() {
    let arrays = Arrays::open("cumcol");
    at_small_partitions(&arrays, |ctx, what| {
        for dtype in DTYPES {
            let x = Pair::leaf(ctx, 50, 2, draw_values(&mut Rng::new(50), 100), true);
            let x = x.cast(dtype).unwrap();
            for op in CUM_OPS {
                let folds = x.cum_col(op).unwrap();
                folds.check_tall(ctx, &format!("{what}: cum.col {op:?} over {dtype:?}"));
            }
        }
    });
}

#[test]
fn zero_width_results_match_the_oracle() {
    let arrays = Arrays::open("empty");
    at_small_partitions(&arrays, |ctx, what| {
        let x = Pair::leaf(ctx, 3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], true);
        let product = x.fm.matmul(&FM::from_dense(Dense::zeros(2, 0))).materialize(ctx);
        assert_eq!((product.nrow(), product.ncol()), (3, 0), "{what}: matmul(3×2, 2×0)");
        assert!(product.to_vec(ctx).is_empty(), "{what}");
        assert_eq!(
            x.want.matmul(&Mat::from_row_major(2, 0, vec![])).col_major(),
            Vec::<f64>::new()
        );
        x.cols(&[]).check_tall(ctx, &format!("{what}: cols(&[])"));
    });
}
