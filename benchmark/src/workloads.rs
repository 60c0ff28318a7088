//! The four workloads: their frozen sizes, set-up, the fixed list of
//! phases that makes one round, and the correctness check behind every
//! call. README.md says why each workload exists and what it should show.

use crate::recorder::{Kind, Recorder};
use flashr::core::trace::TraceLevel;
use flashr::data::{criteo_like, pagegraph_like};
use flashr::linalg::Dense;
use flashr::ml::{
    correlation, gmm, kmeans, logistic_regression, naive_bayes, pca, GmmOptions, KmeansOptions, LogRegOptions,
};
use flashr::prelude::{CtxConfig, FlashCtx, StorageClass, FM};
use flashr::rlang::{Interp, Value};
use flashr::safs::{BackendKind, CacheCfg, Safs, SafsConfig, ThrottleCfg};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["im_algos", "em_algos", "em_ingest", "r_smallpass"];

/// Set-ups, and with them segments, of an untraced run: as many as fit
/// into six to eight seconds. `setup_s` takes each step's fastest, and a
/// set-up step has only this many repetitions to meet a quiet host in; a
/// set-up step that allocates is moreover fast or slow by half on a host
/// that hands free memory back to its hypervisor, and of three set-ups all
/// were slow in four `em_ingest` runs of ten.
pub fn setups(workload: &str) -> usize {
    match workload {
        "em_algos" => 3, // 2.8 s each
        "im_algos" => 5, // 1.6 s
        _ => 8,          // 0.7–0.8 s
    }
}

/// The seed whose logistic-regression loss `golden.json` records.
pub const GOLDEN_SEED: u64 = 17;

pub const CRITEO_COLS: usize = 40;
pub const PAGEGRAPH_COLS: usize = 32;
pub const LOGREG_ITERS: usize = 3;
pub const KMEANS_K: usize = 16;
pub const KMEANS_ITERS: usize = 4;
pub const GMM_K: usize = 10;
pub const GMM_ITERS: usize = 1;
pub const PCA_COMPONENTS: usize = 10;
/// Components of the `pagegraph_like` mixture the clustering phases read.
pub const PAGEGRAPH_CLUSTERS: usize = 10;
pub const R_LINE_SEARCH_STEPS: usize = 3;

/// Every size a workload reads. Frozen: nothing here adapts to elapsed
/// time, only the number of timed rounds follows `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `criteo_like` rows (× 40): correlation, PCA, naive Bayes, logistic regression.
    pub criteo_rows: u64,
    /// `pagegraph_like` rows (× 32) for k-means.
    pub kmeans_rows: u64,
    /// `pagegraph_like` rows (× 32) for GMM.
    pub gmm_rows: u64,
    /// `rnorm` rows (× 32) `em_ingest` writes every round.
    pub ingest_rows: u64,
    /// SAFS page cache of the EM contexts. Sized between the leaves: the
    /// Criteo and k-means leaves exceed it and bypass, the GMM leaf and the
    /// label vector fit and hit.
    pub cache_bytes: u64,
    /// Rows of the `r_smallpass` matrices: one partition, on purpose.
    pub r_rows: u64,
    /// Times a round evaluates each R listing: every evaluation is a phase
    /// of its own, so a round has many short steps to take the fastest of.
    pub r_evals: usize,
    /// Iterations of each listing's loop in one evaluation.
    pub r_logreg_iters: usize,
    pub r_kmeans_iters: usize,
    /// Whether these are the frozen sizes (the golden value only holds there).
    pub full: bool,
}

impl Sizes {
    /// Powers of two, so partitions of 16 384 rows divide evenly. A quarter
    /// of the shapes first sized for this benchmark: 92 driver runs share
    /// 3420 s, and the host's memory is shared.
    pub const FULL: Sizes = Sizes {
        criteo_rows: 1 << 19,
        kmeans_rows: 1 << 18,
        gmm_rows: 1 << 16,
        ingest_rows: 1 << 19,
        cache_bytes: 32 << 20,
        r_rows: 4096,
        r_evals: 10,
        r_logreg_iters: 50,
        r_kmeans_iters: 50,
        full: true,
    };

    /// `--check`: everything at 1/64.
    pub fn check() -> Sizes {
        let f = Sizes::FULL;
        Sizes {
            criteo_rows: f.criteo_rows / 64,
            kmeans_rows: f.kmeans_rows / 64,
            gmm_rows: f.gmm_rows / 64,
            ingest_rows: f.ingest_rows / 64,
            cache_bytes: f.cache_bytes / 64,
            r_rows: f.r_rows,
            r_evals: 1,
            r_logreg_iters: 8,
            r_kmeans_iters: 8,
            full: false,
        }
    }
}

/// Worker threads of every context: two, or one on a one-CPU host, so the
/// load is the same wherever the benchmark runs and every thread is counted.
pub fn nthreads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// `CtxConfig::default()` except the three fields named here, so a change
/// to any other default is measured.
pub fn ctx_config(nthreads: usize, storage: StorageClass) -> CtxConfig {
    CtxConfig { nthreads, trace: TraceLevel::Off, storage, ..CtxConfig::default() }
}

pub fn im_ctx() -> FlashCtx {
    FlashCtx::with_config(ctx_config(nthreads(), StorageClass::InMem), None)
}

/// The repo's "local" profile: four shards of 500 MiB/s behind the
/// throttled `Sim` backend. Only a bandwidth-limited device makes
/// I/O–compute overlap, readahead and byte savings visible in seconds, and
/// it is the one EM configuration that repeats from run to run.
pub fn em_safs_config(root: &Path, cache_bytes: u64) -> SafsConfig {
    SafsConfig::striped_under(root, EM_SHARDS)
        .with_io_threads(1)
        .with_backend(BackendKind::Sim)
        .with_throttle(ThrottleCfg::sata_ssd())
        .with_cache(CacheCfg::with_capacity(cache_bytes))
}

pub const EM_SHARDS: usize = 4;

/// Bytes per second the EM configuration's emulated array delivers.
pub fn em_device_bytes_per_sec() -> f64 {
    EM_SHARDS as f64 * ThrottleCfg::sata_ssd().bytes_per_sec
}

/// `benchmark/out`, where the benchmark keeps everything it writes: the
/// driver lets it read and write only inside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create the benchmark's scratch directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An EM context and the scratch directory its shards live in. The
/// directory goes after the context: fields drop in declaration order.
pub struct EmCtx {
    pub ctx: FlashCtx,
    pub root: ScratchDir,
}

pub fn em_ctx(sizes: &Sizes) -> EmCtx {
    let root = ScratchDir::new("em");
    let safs = Safs::open(em_safs_config(root.path(), sizes.cache_bytes)).expect("SAFS open failed");
    EmCtx { ctx: FlashCtx::with_config(ctx_config(nthreads(), StorageClass::Em), Some(safs)), root }
}

/// Operation accounting and the span recorder of one run. Every call into
/// a public function is one operation; a panic or a failed check fails it.
pub struct Run {
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock seconds of every phase since the list was last taken, in
    /// the order they ran: the steps `round_s` and `setup_s` are made of.
    pub steps: Vec<f64>,
    /// One [`host::probe`](crate::host::probe) sample from before every step.
    pub host: Vec<f64>,
}

impl Run {
    pub fn new() -> Run {
        Run { rec: Recorder::new(), attempted: 0, failed: 0, steps: Vec::new(), host: Vec::new() }
    }

    /// Time `f` as one call span, then judge its result with `check`
    /// outside the span.
    pub fn call<T>(
        &mut self,
        ctx: &FlashCtx,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        let id = self.rec.open(ctx, Kind::Call, layer, name);
        let res = catch_unwind(AssertUnwindSafe(f));
        self.rec.close(ctx, id);
        let verdict = match &res {
            Ok(v) => check(v),
            Err(_) => Err("panicked".to_string()),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED {name}: {why}");
            return None;
        }
        res.ok()
    }

    /// A phase: one span, and one timed step, around the calls `body` makes.
    pub fn phase_of<T>(&mut self, ctx: &FlashCtx, phase: &'static str, body: impl FnOnce(&mut Run) -> T) -> T {
        self.host.push(crate::host::probe());
        let t = Instant::now();
        let id = self.rec.open(ctx, Kind::Phase, "bench", phase);
        let out = body(self);
        self.rec.close(ctx, id);
        self.steps.push(t.elapsed().as_secs_f64());
        out
    }

    /// A phase made of one call.
    pub fn phase<T>(
        &mut self,
        ctx: &FlashCtx,
        phase: &'static str,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.phase_of(ctx, phase, |run| run.call(ctx, layer, name, f, check))
    }
}

/// `Ok` when `ok`, else the reason: the shape of every correctness check.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

pub enum State {
    Algos(Algos),
    Ingest(Ingest),
    RSmall(RSmall),
}

impl State {
    pub fn setup(workload: &str, sizes: &Sizes, seed: u64, run: &mut Run) -> State {
        match workload {
            "im_algos" => State::Algos(Algos::setup(im_ctx(), None, sizes, seed, run)),
            "em_algos" => {
                let EmCtx { ctx, root } = em_ctx(sizes);
                State::Algos(Algos::setup(ctx, Some(root), sizes, seed, run))
            }
            "em_ingest" => State::Ingest(Ingest::setup(sizes, seed)),
            "r_smallpass" => State::RSmall(RSmall::setup(sizes, seed)),
            other => panic!("unknown workload {other}"),
        }
    }

    pub fn ctx(&self) -> &FlashCtx {
        match self {
            State::Algos(a) => &a.ctx,
            State::Ingest(i) => &i.em.ctx,
            State::RSmall(r) => r.interp.ctx(),
        }
    }

    pub fn round(&mut self, run: &mut Run) {
        let id = run.rec.open(self.ctx(), Kind::Round, "bench", "round");
        match self {
            State::Algos(a) => a.round(run),
            State::Ingest(i) => i.round(run),
            State::RSmall(r) => r.round(run),
        }
        run.rec.close(self.ctx(), id);
    }
}

/// `im_algos` and `em_algos`: the same six algorithms on the same shapes,
/// through an in-memory or an external-memory context.
pub struct Algos {
    pub x: FM,
    pub y: FM,
    pub kmeans_x: FM,
    pub gmm_x: FM,
    seed: u64,
    golden_loss: Option<f64>,
    // Last: the matrices above delete their SAFS files when dropped, which
    // needs the context's runtime and the scratch directory under it.
    pub ctx: FlashCtx,
    _root: Option<ScratchDir>,
}

impl Algos {
    fn setup(ctx: FlashCtx, root: Option<ScratchDir>, sizes: &Sizes, seed: u64, run: &mut Run) -> Algos {
        // The generators are lazy; `materialize` runs them, into memory or
        // onto the array as the context's storage class says.
        let id = run.rec.open(&ctx, Kind::Phase, "data", "criteo_gen");
        let d = criteo_like(&ctx, sizes.criteo_rows, CRITEO_COLS, seed);
        let mut xy = FM::materialize_multi(&ctx, &[&d.x, &d.y]);
        run.rec.close(&ctx, id);
        let y = xy.pop().expect("two inputs, two outputs");
        let x = xy.pop().expect("two inputs, two outputs");

        let id = run.rec.open(&ctx, Kind::Phase, "data", "pagegraph_gen");
        let kmeans_x =
            pagegraph_like(&ctx, sizes.kmeans_rows, PAGEGRAPH_COLS, PAGEGRAPH_CLUSTERS, seed + 1).x.materialize(&ctx);
        let gmm_x =
            pagegraph_like(&ctx, sizes.gmm_rows, PAGEGRAPH_COLS, PAGEGRAPH_CLUSTERS, seed + 2).x.materialize(&ctx);
        run.rec.close(&ctx, id);

        let golden_loss = (sizes.full && seed == GOLDEN_SEED).then(crate::golden_logreg_loss);
        Algos { x, y, kmeans_x, gmm_x, seed, golden_loss, ctx, _root: root }
    }

    /// The same leaves under another context (the one-worker scaling probe).
    pub fn with_ctx(&self, ctx: FlashCtx) -> Algos {
        Algos {
            x: self.x.clone(),
            y: self.y.clone(),
            kmeans_x: self.kmeans_x.clone(),
            gmm_x: self.gmm_x.clone(),
            seed: self.seed,
            golden_loss: self.golden_loss,
            ctx,
            _root: None,
        }
    }

    fn round(&self, run: &mut Run) {
        let Algos { ctx, x, y, kmeans_x, gmm_x, seed, golden_loss, .. } = self;
        run.phase(ctx, "corr", "ml", "ml::correlation", || correlation(ctx, x), check_correlation);
        run.phase(
            ctx,
            "pca",
            "ml",
            "ml::pca",
            || pca(ctx, x, PCA_COMPONENTS),
            |r| {
                ensure(r.sdev.len() == PCA_COMPONENTS && r.sdev.windows(2).all(|w| w[0] >= w[1]), || {
                    format!("sdev not descending: {:?}", r.sdev)
                })
            },
        );
        run.phase(
            ctx,
            "nb",
            "ml",
            "ml::naive_bayes",
            || naive_bayes(ctx, x, y, 2),
            |m| {
                let prior_sum: f64 = m.priors.iter().sum();
                ensure((prior_sum - 1.0).abs() < 1e-12 && m.vars.as_slice().iter().all(|&v| v > 0.0), || {
                    format!("priors sum to {prior_sum} or a variance is not positive")
                })
            },
        );
        // tol = 0 keeps every iterative algorithm at its iteration cap, so
        // the work per round is constant; the checks assert the counts.
        let opts = LogRegOptions { max_iters: LOGREG_ITERS, tol: 0.0, history: 5 };
        run.phase(
            ctx,
            "logreg",
            "ml",
            "ml::logistic_regression",
            || logistic_regression(ctx, x, y, &opts),
            |m| {
                ensure(m.iterations == LOGREG_ITERS, || {
                    format!("{} iterations, expected {LOGREG_ITERS}", m.iterations)
                })?;
                ensure(m.loss < std::f64::consts::LN_2, || format!("log-loss {} not below ln 2", m.loss))?;
                // Loose enough for reassociated sums, tight enough for wrong answers.
                match golden_loss {
                    Some(g) => ensure(((m.loss - g) / g).abs() <= 1e-6, || {
                        format!("log-loss {} is not the golden {g}", m.loss)
                    }),
                    None => Ok(()),
                }
            },
        );
        let opts = KmeansOptions { k: KMEANS_K, max_iters: KMEANS_ITERS, seed: *seed };
        run.phase(
            ctx,
            "kmeans",
            "ml",
            "ml::kmeans",
            || kmeans(ctx, kmeans_x, &opts),
            |r| {
                ensure(r.iterations == KMEANS_ITERS, || {
                    format!("{} iterations, expected {KMEANS_ITERS}", r.iterations)
                })?;
                ensure(r.moves.windows(2).all(|w| w[0] >= w[1]), || format!("moves increased: {:?}", r.moves))
            },
        );
        let opts = GmmOptions { k: GMM_K, max_iters: GMM_ITERS, tol: 0.0, seed: *seed, ..GmmOptions::default() };
        run.phase(
            ctx,
            "gmm",
            "ml",
            "ml::gmm",
            || gmm(ctx, gmm_x, &opts),
            |m| {
                ensure(m.iterations == GMM_ITERS, || format!("{} iterations, expected {GMM_ITERS}", m.iterations))?;
                ensure(m.loglike.is_finite(), || format!("log-likelihood {}", m.loglike))
            },
        );
    }
}

fn check_correlation(c: &Dense) -> Result<(), String> {
    for i in 0..c.rows() {
        ensure((c.at(i, i) - 1.0).abs() <= 1e-12, || format!("diagonal {i} is {}", c.at(i, i)))?;
        for j in 0..i {
            ensure((c.at(i, j) - c.at(j, i)).abs() <= 1e-12, || format!("asymmetric at ({i},{j})"))?;
        }
    }
    Ok(())
}

/// `em_ingest`: the same EM configuration used the other way round —
/// writes beside reads, generator-bound beside scan-bound.
pub struct Ingest {
    rows: u64,
    seed: u64,
    /// Column sums of |scale(x)| from an in-memory run of the same generator.
    reference_abs_sums: Vec<f64>,
    /// The previous round's matrices, dropped at the start of the next
    /// round so their files' page frames recycle.
    prev: Option<(FM, FM)>,
    pub em: EmCtx,
}

fn ingest_source(ctx: &FlashCtx, rows: u64, seed: u64) -> FM {
    FM::rnorm(ctx, rows, PAGEGRAPH_COLS, 0.0, 1.0, seed)
}

/// Sums, sums of squares and sums of magnitudes per column, in one pass.
fn column_moments(ctx: &FlashCtx, z: &FM) -> [Vec<f64>; 3] {
    let out = FM::materialize_multi(ctx, &[&z.col_sums(), &z.square().col_sums(), &z.abs().col_sums()]);
    [0, 1, 2].map(|i| out[i].to_dense(ctx).into_vec())
}

impl Ingest {
    fn setup(sizes: &Sizes, seed: u64) -> Ingest {
        // The reference is the benchmark's own work, not the system's
        // set-up: computed by the first set-up of a process and kept, so
        // the fastest build does not hold it. Lazy on purpose: the
        // generator runs again inside each pass, so the reference never
        // holds the matrix in memory.
        static REFERENCE: OnceLock<Vec<f64>> = OnceLock::new();
        let rows = sizes.ingest_rows;
        let reference_abs_sums = REFERENCE.get_or_init(|| {
            let im = im_ctx();
            let reference = ingest_source(&im, rows, seed).scale(&im, true, true);
            let [_, _, abs_sums] = column_moments(&im, &reference);
            abs_sums
        });
        Ingest { rows, seed, reference_abs_sums: reference_abs_sums.clone(), prev: None, em: em_ctx(sizes) }
    }

    fn round(&mut self, run: &mut Run) {
        let ctx = self.em.ctx.clone();
        let (rows, seed) = (self.rows, self.seed);
        let prev = &mut self.prev;
        let x = run.phase(
            &ctx,
            "gen_write",
            "core.exec",
            "FM::materialize",
            || {
                *prev = None;
                ingest_source(&ctx, rows, seed).materialize(&ctx)
            },
            |_| Ok(()),
        );
        let Some(x) = x else { return };

        let z = run.phase_of(&ctx, "scale_rw", |run| {
            run.call(&ctx, "core.exec", "FM::scale", || x.scale(&ctx, true, true), |_| Ok(()))
                .and_then(|lazy| run.call(&ctx, "core.exec", "FM::materialize", || lazy.materialize(&ctx), |_| Ok(())))
        });
        let Some(z) = z else { return };

        let n = rows as f64;
        let reference = &self.reference_abs_sums;
        run.phase(
            &ctx,
            "readback",
            "core.exec",
            "FM::materialize_multi",
            || column_moments(&ctx, &z),
            |[s, s2, abs]| {
                for j in 0..PAGEGRAPH_COLS {
                    let mean = s[j] / n;
                    let sd = (s2[j] / n - mean * mean).sqrt();
                    ensure(mean.abs() < 1e-9, || format!("column {j} mean {mean}"))?;
                    ensure((sd - 1.0).abs() < 1e-9, || format!("column {j} sd {sd}"))?;
                    ensure(((abs[j] - reference[j]) / reference[j]).abs() < 1e-9, || {
                        format!("column {j} reads back {} but the in-memory reference is {}", abs[j], reference[j])
                    })?;
                }
                Ok(())
            },
        );
        self.prev = Some((x, z));
    }
}

/// `r_smallpass`: the paper's two R listings through `rlang::Interp` on a
/// one-partition matrix, where per-pass fixed cost dominates.
pub struct RSmall {
    pub interp: Interp,
    evals: usize,
}

const R_DATA: &str = include_str!("../r/data.R");
const R_LOGREG: &str = include_str!("../r/logreg_gd.R");
const R_KMEANS: &str = include_str!("../r/kmeans.R");

impl RSmall {
    fn setup(sizes: &Sizes, seed: u64) -> RSmall {
        let mut interp = Interp::new(im_ctx());
        for (name, value) in [
            ("n", sizes.r_rows as f64),
            ("seed", seed as f64),
            ("max.iters", sizes.r_logreg_iters as f64),
            ("line.search.steps", R_LINE_SEARCH_STEPS as f64),
            ("kmeans.iters", sizes.r_kmeans_iters as f64),
        ] {
            interp.define(name, Value::Num(value));
        }
        interp.eval_str(R_DATA).expect("r/data.R failed");
        RSmall { interp, evals: sizes.r_evals }
    }

    fn round(&mut self, run: &mut Run) {
        let ctx = self.interp.ctx().clone();
        let interp = &mut self.interp;
        // The scripts end in `stopifnot(...)` sign checks: a wrong answer
        // comes back as an `RError`.
        let scripts = [("r_logreg", R_LOGREG), ("r_kmeans", R_KMEANS)];
        for (phase, script) in scripts.into_iter().flat_map(|s| std::iter::repeat_n(s, self.evals)) {
            run.phase(
                &ctx,
                phase,
                "rlang",
                "Interp::eval_str",
                || interp.eval_str(script),
                |r| match r {
                    Ok(_) => Ok(()),
                    Err(e) => Err(format!("{e:?}")),
                },
            );
        }
    }
}
