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
use flashr::safs::BackendKind;
use flashr_testkit::oracle::{assert_close, assert_same, Mat};
use flashr_testkit::{cases, Rng};

const MODES: [ExecMode; 3] = [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse];
const NTHREADS: [usize; 4] = [1, 2, 3, 4];
const ROWS_PER_PART: [u64; 5] = [16, 32, 64, 128, 256];
/// A Pcache budget of one byte clamps to the 16-row floor; the other is
/// `CtxConfig::default()`'s.
const PCACHE_BYTES: [usize; 2] = [1, 256 * 1024];
/// Read-ahead depth of the two EM arrays: none (every claim issues its
/// own reads) and `SafsConfig`'s default.
const DISPATCH_BATCH: [usize; 2] = [1, 4];
const DTYPES: [DType; 5] = [DType::F64, DType::F32, DType::I64, DType::I32, DType::U8];

#[derive(Debug, Clone, Copy)]
enum Storage {
    InMem,
    EmSim,
    EmDirect,
}
const STORAGES: [Storage; 3] = [Storage::InMem, Storage::EmSim, Storage::EmDirect];

/// The two SSD arrays the EM points run on, each opened once per
/// [`DISPATCH_BATCH`] value, under one scratch directory.
struct Arrays {
    dir: std::path::PathBuf,
    sim: [Safs; 2],
    direct: [Safs; 2],
}

impl Arrays {
    fn open(tag: &str) -> Arrays {
        let dir = std::env::temp_dir().join(format!("flashr-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Explicit layouts, so FLASHR_SAFS_SHARDS / FLASHR_BACKEND cannot
        // fold the two points into one.
        let array = |name: &str, shards: usize, backend| {
            DISPATCH_BATCH.map(|batch| {
                let disks = (0..shards).map(|d| dir.join(format!("{name}{batch}-{d}"))).collect();
                let cfg = SafsConfig { disks, ..SafsConfig::single_dir(&dir) }
                    .with_backend(backend)
                    .with_dispatch_batch(batch);
                Safs::open(cfg).expect("open scratch SAFS array")
            })
        };
        let (sim, direct) =
            (array("sim", 2, BackendKind::Sim), array("direct", 4, BackendKind::Direct));
        Arrays { dir, sim, direct }
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
            Storage::EmSim => (StorageClass::Em, Some(self.sim[batch].clone())),
            Storage::EmDirect => (StorageClass::Em, Some(self.direct[batch].clone())),
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
    match rng.below(12) {
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
        10 => cur.then(cur.want.cumsum_col(), |x| x.cumsum_col()),
        _ => match rng.below(4) {
            0 => cur.then(cur.want.clone(), |x| x.t().t()),
            1 => cur.then(cur.want.agg_rows(AggOp::Sum), |x| x.row_sums()),
            2 => cur.then(cur.want.agg_rows(AggOp::WhichMin), |x| x.row_which_min()),
            _ => {
                let mut out = cur.then(cur.want.agg_rows(AggOp::Min), |x| x.row_min())?;
                out.zero_sign_free = true;
                Some(out)
            }
        },
    }
}

#[derive(Debug, Clone, Copy)]
enum Sink {
    SumAndColSums,
    MinMax,
    ColMeans,
    TransposedRowSums,
    Crossprod,
    GroupBy,
    Matmul,
}
const SINKS: [Sink; 7] = {
    use Sink::*;
    [SumAndColSums, MinMax, ColMeans, TransposedRowSums, Crossprod, GroupBy, Matmul]
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
            let got = cur.fm.crossprod().to_dense(ctx);
            for (i, j) in (0..cols).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                assert_close(got.at(i, j), want.at(i, j), rows, scale.at(i, j), what);
            }
        }
        Sink::GroupBy => {
            let k = rng.usize(1..6);
            // Labels row % k, lazy: seq → Rem → cast I64.
            let seq = Mat::from_row_major(rows, 1, (0..rows).map(|r| r as f64).collect());
            let labels =
                Pair { fm: FM::seq(rows as u64, 0.0, 1.0), want: seq, zero_sign_free: false }
                    .binary_scalar(BinaryOp::Rem, k as f64, false)
                    .and_then(|l| l.cast(DType::I64))
                    .expect("row numbers stay in the domain");
            let want = cur.want.groupby_row(&labels.want, AggOp::Sum, k);
            let scale = cur.want.abs().groupby_row(&labels.want, AggOp::Sum, k);
            let got = cur.fm.groupby_row(&labels.fm, AggOp::Sum, k).to_dense(ctx);
            for (g, c) in (0..k).flat_map(|g| (0..cols).map(move |c| (g, c))) {
                assert_close(got.at(g, c), want.at(g, c), rows, scale.at(g, c), what);
            }
        }
        Sink::Matmul => {
            let k = rng.usize(1..4);
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
        let x = Pair::leaf(ctx, rows, cols, draw_values(rng, rows * cols), rng.bool());
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
    cases(60, |rng, case| {
        let (nthreads, rpp, pcache) =
            (pick(rng, &NTHREADS), pick(rng, &ROWS_PER_PART), pick(rng, &PCACHE_BYTES));
        let storage = STORAGES[case % 3];
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
        .and_then(|c| c.then(c.want.cumsum_col(), |f| f.cumsum_col()))
        .expect("I32");
    stepped.check_tall(ctx, what);
    for sink in [Sink::SumAndColSums, Sink::Crossprod, Sink::GroupBy] {
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
}

// ------------------------------------------------------------ fixed cases
//
// The shapes and values a random draw rarely lands on, each at a 16-row
// partition in every mode, in memory and on the four-shard array.

fn at_small_partitions(arrays: &Arrays, body: impl Fn(&FlashCtx, &str)) {
    for mode in MODES {
        for storage in [Storage::InMem, Storage::EmDirect] {
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
            let blocks = BlockMat::from_fm(&x.fm, 32).unary(UnaryOp::Abs).unary(UnaryOp::Sqrt);
            assert_eq!(blocks.nblocks(), 2, "{what}");
            let dense = blocks.to_dense(ctx);
            let got: Vec<f64> = (0..cols)
                .flat_map(|c| (0..50).map(move |r| (r, c)))
                .map(|(r, c)| dense.at(r, c))
                .collect();
            assert_same(&got, &want, false, what);
            for (c, got) in blocks.col_sums(ctx).into_iter().enumerate() {
                assert_close(
                    got,
                    want.agg_cols(AggOp::Sum).at(0, c),
                    50,
                    want.cols(&[c]).abs_sum(),
                    what,
                );
            }
            let (gram, scale) = (want.crossprod(&want), want.abs().crossprod(&want.abs()));
            let got = blocks.crossprod(ctx);
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

#[test]
fn running_sums_cross_partition_seams() {
    let arrays = Arrays::open("cumsum");
    at_small_partitions(&arrays, |ctx, what| {
        for dtype in DTYPES {
            let x = Pair::leaf(ctx, 50, 2, draw_values(&mut Rng::new(50), 100), true);
            let x = x.cast(dtype).unwrap();
            let sums = x.then(x.want.cumsum_col(), |f| f.cumsum_col()).unwrap();
            sums.check_tall(ctx, &format!("{what}: cumsum over {dtype:?}"));
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
