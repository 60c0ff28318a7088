//! Direct probes of single layers, run after the traced rounds. Each calls
//! a crate's public functions on a fixed input and reports a rate beside
//! the ceiling measured in the same run. A probe runs on one *home*
//! workload — the one whose set-up already holds its input and whose
//! end-to-end number it explains — and reads 0 on the others, which keeps
//! every traced run inside the driver's time budget.

use crate::ledger::{fastest, median, quartiles, sum_of_fastest, Metrics, GIB};
use crate::recorder::Kind;
use crate::workloads::{
    ctx_config, em_device_bytes_per_sec, ensure, Algos, Ingest, Run, ScratchDir, Sizes, State, CRITEO_COLS, EM_SHARDS,
    KMEANS_K, LOGREG_ITERS, PAGEGRAPH_COLS,
};
use flashr::baselines::eagerml::logistic_regression_eager;
use flashr::core::ops::BinaryOp;
use flashr::linalg::{eigen_sym, gemm_strided, syrk, Dense};
use flashr::ml::{logistic_regression, LogRegOptions};
use flashr::prelude::{FlashCtx, StorageClass, FM};
use flashr::safs::{BackendKind, IoBuf, Safs, SafsConfig, SafsFile};
use flashr::sparse::{spmm, CsrMatrix, SemCsr};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

/// Rows of one I/O partition at the library's default.
const PART_ROWS: usize = 16_384;
/// Requests the raw SAFS loops keep in flight.
const RAW_IN_FLIGHT: usize = 8;
const TWO_LEAF_REPEATS: usize = 10;

/// Elements of each STREAM array: 128 MiB at the frozen sizes. The guide's
/// four-times-the-LLC rule would need 1 GiB arrays on a host that reports a
/// 260 MiB shared L3; three of those do not fit the memory and time this
/// benchmark may use, so both sizes are printed instead.
fn stream_elems(sizes: &Sizes) -> usize {
    sizes.criteo_rows as usize * 32
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Shortest of `reps` timings of `f`: the rate a layer can reach, for
/// probes that are compared with a ceiling.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    fastest(&(0..reps).map(|_| time(&mut f).1).collect::<Vec<_>>())
}

/// Check for probes that return `(value, seconds)`.
fn finite(v: &(f64, f64)) -> Result<(), String> {
    ensure(v.0.is_finite(), || format!("result {}", v.0))
}

pub fn run(state: &mut State, sizes: &Sizes, seed: u64, round_s: f64, run: &mut Run, m: &mut Metrics) {
    let ctx = state.ctx().clone();
    let id = run.rec.open(&ctx, Kind::Phase, "bench", "probes");
    match state {
        State::Algos(a) if a.ctx.safs().is_none() => {
            host_stream(sizes, run, &ctx, m);
            ops(a, run, m);
            linalg(run, &ctx, m);
            gen(sizes, seed, run, &ctx, m);
            speedup_2w(a, round_s, run, m);
            eager_logreg(a, run, m);
        }
        State::Algos(a) => safs_raw(a, sizes, run, m),
        State::Ingest(i) => {
            two_leaf_rw(i, sizes, seed, run, m);
            sem_spmm(i, sizes, seed, run, m);
        }
        State::RSmall(_) => {
            pass_fixed(run, &ctx, m);
            analysis_check(sizes, seed, run, &ctx, m);
            sparse_spmm(sizes, seed, run, &ctx, m);
        }
    }
    run.rec.close(&ctx, id);
}

/// STREAM copy and triad over `nthreads` threads, best of five.
fn host_stream(sizes: &Sizes, run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let n = stream_elems(sizes);
    let threads = crate::workloads::nthreads();
    let out = run.call(
        ctx,
        "host",
        "stream",
        || {
            let (mut a, b, mut c) = (vec![1.0f64; n], vec![2.0f64; n], vec![0.0f64; n]);
            let block = n.div_ceil(threads);
            let copy = best_of(5, || {
                std::thread::scope(|s| {
                    for (cc, ac) in c.chunks_mut(block).zip(a.chunks(block)) {
                        s.spawn(move || cc.copy_from_slice(black_box(ac)));
                    }
                });
            });
            let triad = best_of(5, || {
                std::thread::scope(|s| {
                    for ((ac, bc), cc) in a.chunks_mut(block).zip(b.chunks(block)).zip(c.chunks(block)) {
                        s.spawn(move || {
                            for ((av, bv), cv) in ac.iter_mut().zip(black_box(bc)).zip(black_box(cc)) {
                                *av = bv + 3.0 * cv;
                            }
                        });
                    }
                });
            });
            (copy, triad, a[n / 2])
        },
        // a = b + 3 c with b = 2 and c = a's old value 1.
        |&(_, _, probe)| ensure(probe == 5.0, || format!("triad wrote {probe}")),
    );
    let Some((copy, triad, _)) = out else { return };
    let bytes = (n * 8) as f64;
    m.set("host.stream_array_mib", bytes / (1 << 20) as f64);
    m.set("host.copy_gib_s", 2.0 * bytes / GIB / copy);
    m.set("host.triad_gib_s", 3.0 * bytes / GIB / triad);
}

/// FM-level kernels over the in-memory Criteo leaf, against the triad
/// ceiling of the same run.
fn ops(a: &Algos, run: &mut Run, m: &mut Metrics) {
    let Algos { ctx, x, .. } = a;
    let (n, p) = (x.nrow() as f64, x.ncol() as f64);
    let gib = n * p * 8.0 / GIB;

    let mut rate = |name: &'static str, work: f64, f: &dyn Fn() -> f64| -> f64 {
        let out = run.call(
            ctx,
            "core.ops",
            name,
            || {
                let mut last = 0.0;
                let secs = best_of(3, || last = f());
                (last, secs)
            },
            finite,
        );
        out.map_or(0.0, |(_, secs)| work / secs)
    };
    let sum = rate("FM::sum", gib, &|| x.sum().value(ctx));
    // abs, sqrt, scale, shift: four element-wise maps the planner fuses
    // into one chain, reduced so nothing tall is written.
    let chain4 = rate("FM::sum(4-op chain)", gib, &|| (&(&x.abs().sqrt() * 2.0) + 1.0).sum().value(ctx));
    // Nominal counts: 2 n p² for the Gramian, 2 n p k for inner.prod.
    let crossprod = rate("FM::crossprod", 2.0 * n * p * p / 1e9, &|| x.crossprod().to_dense(ctx).at(0, 0));
    let centers = Dense::from_fn(x.ncol() as usize, KMEANS_K, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let innerprod = rate("FM::inner_prod", 2.0 * n * p * KMEANS_K as f64 / 1e9, &|| {
        x.inner_prod(centers.clone(), BinaryOp::EuclidSq, BinaryOp::Add).row_which_min().sum().value(ctx)
    });

    let triad = m.get("host.triad_gib_s");
    m.set("ops.sum_gib_s", sum);
    m.set("ops.chain4_gib_s", chain4);
    m.set("ops.crossprod_gflops", crossprod);
    m.set("ops.innerprod_gflops", innerprod);
    if triad > 0.0 {
        m.set("ops.sum_frac_triad", sum / triad);
        m.set("ops.chain4_frac_triad", chain4 / triad);
    }
}

/// The dense kernels on one 16 384 × 40 partition panel, laid out as the
/// executor feeds them (column-major panel, row-major small operand).
fn linalg(run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let (rows, p) = (PART_ROWS, CRITEO_COLS);
    let panel: Vec<f64> = (0..rows * p).map(|i| ((i * 31 % 97) as f64 - 48.0) / 48.0).collect();
    let small = Dense::from_fn(p, p, |i, j| ((i * 5 + j * 3) % 13) as f64 / 13.0);
    let flops = 2.0 * (rows * p * p) as f64 / 1e9;

    let gemm = run.call(
        ctx,
        "linalg",
        "gemm_strided",
        || {
            let mut c = vec![0.0f64; rows * p];
            let secs = best_of(10, || {
                gemm_strided(rows, p, p, 1.0, &panel, 1, rows, small.as_slice(), p, 1, 0.0, &mut c, 1, rows);
            });
            (c[rows], secs)
        },
        finite,
    );
    let row_major = Dense::from_fn(rows, p, |r, c| panel[c * rows + r]);
    let gram = run.call(
        ctx,
        "linalg",
        "syrk",
        || {
            let mut g = Dense::zeros(p, p);
            let secs = best_of(10, || g = syrk(black_box(&row_major)));
            (g, secs)
        },
        |(g, _)| ensure((0..p).all(|i| (0..i).all(|j| g.at(i, j) == g.at(j, i))), || "Gramian is not symmetric".into()),
    );
    if let Some((_, secs)) = gemm {
        m.set("linalg.gemm_gflops", flops / secs);
    }
    let Some((g, secs)) = gram else { return };
    m.set("linalg.syrk_gflops", flops / secs);
    let eigen = run.call(
        ctx,
        "linalg",
        "eigen_sym",
        || {
            let mut top = 0.0;
            let times: Vec<f64> = (0..5).map(|_| time(|| top = eigen_sym(black_box(&g)).values[0]).1).collect();
            (top, median(&times))
        },
        finite,
    );
    if let Some((_, secs)) = eigen {
        m.set("linalg.eigen40_ms", secs * 1e3);
    }
}

/// The two generators, materialised in memory at `em_ingest`'s shape.
fn gen(sizes: &Sizes, seed: u64, run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let rows = sizes.ingest_rows;
    let gib = (rows * PAGEGRAPH_COLS as u64 * 8) as f64 / GIB;
    for (metric, name, normal) in [("gen.rnorm_gib_s", "FM::rnorm", true), ("gen.runif_gib_s", "FM::runif", false)] {
        let out = run.call(
            ctx,
            "core.gen",
            name,
            || {
                time(|| {
                    let lazy = if normal {
                        FM::rnorm(ctx, rows, PAGEGRAPH_COLS, 0.0, 1.0, seed)
                    } else {
                        FM::runif(ctx, rows, PAGEGRAPH_COLS, 0.0, 1.0, seed)
                    };
                    lazy.materialize(ctx).nrow()
                })
            },
            |&(n, _)| ensure(n == rows, || format!("{n} rows")),
        );
        if let Some((_, secs)) = out {
            m.set(metric, gib / secs);
        }
    }
}

/// One `im_algos` round on a one-worker context over the same leaves,
/// against the two-worker round of this run.
fn speedup_2w(a: &Algos, round_s: f64, run: &mut Run, m: &mut Metrics) {
    if crate::workloads::nthreads() < 2 {
        return; // One CPU: no claim about parallel speed-up.
    }
    let one = FlashCtx::with_config(ctx_config(1, StorageClass::InMem), None);
    let mut single = State::Algos(a.with_ctx(one));
    // Its spans and operations are the probe's, not a round's. Two rounds,
    // reduced the way `round_s` is.
    let mut inner = Run::new();
    let rounds: Vec<Vec<f64>> = (0..2)
        .map(|_| {
            single.round(&mut inner);
            std::mem::take(&mut inner.steps)
        })
        .collect();
    run.attempted += inner.attempted;
    run.failed += inner.failed;
    m.set("exec.speedup_2w", sum_of_fastest(&[&rounds[0], &rounds[1]]) / round_s);
}

/// The comparator the paper plots against: the same program with every
/// operation materialised separately.
fn eager_logreg(a: &Algos, run: &mut Run, m: &mut Metrics) {
    let Algos { ctx, x, y, .. } = a;
    let opts = LogRegOptions { max_iters: LOGREG_ITERS, tol: 0.0, history: 5 };
    let fused =
        run.call(ctx, "ml", "ml::logistic_regression", || time(|| logistic_regression(ctx, x, y, &opts)), |_| Ok(()));
    let Some((fused, fused_s)) = fused else {
        return;
    };
    let eager = run.call(
        ctx,
        "baselines",
        "eagerml::logistic_regression_eager",
        || time(|| logistic_regression_eager(ctx, x, y, &opts)),
        |(e, _)| {
            ensure(((e.loss - fused.loss) / fused.loss).abs() <= 1e-9, || {
                format!("eager loss {} differs from fused {}", e.loss, fused.loss)
            })
        },
    );
    if let Some((_, eager_s)) = eager {
        m.set("baselines.eager_logreg_ratio", eager_s / fused_s);
    }
}

/// Write then read every partition of `file`, `RAW_IN_FLIGHT` at a time.
/// Returns (write seconds, read seconds); checks what comes back.
fn raw_write_read(file: &SafsFile) -> Result<(f64, f64), String> {
    let part_bytes = file.part_bytes() as usize;
    let fill = |part: u64| (part % 251) as u8 + 1;
    let err = |e| format!("{e:?}");

    let (res, write_s) = time(|| -> Result<(), String> {
        let mut pending = VecDeque::new();
        for part in 0..file.nparts() {
            if pending.len() == RAW_IN_FLIGHT {
                let ticket: flashr::safs::IoTicket = pending.pop_front().expect("not empty");
                ticket.wait().map_err(err)?;
            }
            let mut buf = IoBuf::zeroed(part_bytes);
            buf.as_mut_bytes().fill(fill(part));
            pending.push_back(file.write_part_async(part, buf).map_err(err)?);
        }
        pending.into_iter().try_for_each(|t| t.wait().map(|_| ()).map_err(err))
    });
    res?;

    let (res, read_s) = time(|| -> Result<(), String> {
        let mut pending = VecDeque::new();
        let verify = |part: u64, buf: IoBuf| {
            let b = buf.as_bytes();
            ensure(b[0] == fill(part) && b[part_bytes - 1] == fill(part), || {
                format!("partition {part} read back wrong")
            })
        };
        for part in 0..file.nparts() {
            if pending.len() == RAW_IN_FLIGHT {
                let (p, ticket): (u64, flashr::safs::IoTicket) = pending.pop_front().expect("not empty");
                verify(p, ticket.wait().map_err(err)?)?;
            }
            pending.push_back((part, file.read_part_async(part).map_err(err)?));
        }
        pending.into_iter().try_for_each(|(p, t)| verify(p, t.wait().map_err(err)?))
    });
    res?;
    Ok((write_s, read_s))
}

/// Raw partition I/O below the executor: through the workload's throttled
/// configuration (against the configured device rate), through the
/// `Direct` backend without a throttle (the software ceiling), and through
/// plain `std::fs` on the same file system (what that ceiling is read
/// against).
fn safs_raw(a: &Algos, sizes: &Sizes, run: &mut Run, m: &mut Metrics) {
    let ctx = &a.ctx;
    let part_bytes = (PART_ROWS * CRITEO_COLS * 8) as u64;
    let nparts = sizes.criteo_rows.div_ceil(PART_ROWS as u64).max(RAW_IN_FLIGHT as u64);
    let gib = (part_bytes * nparts) as f64 / GIB;
    let safs = ctx.safs().expect("em_algos runs on an EM context");

    let mut probe = |layer_call: &'static str, safs: &Safs| {
        run.call(
            ctx,
            "safs",
            layer_call,
            || {
                let file = safs.create(&safs.unique_name("probe"), part_bytes, nparts).map_err(|e| format!("{e:?}"))?;
                file.set_delete_on_drop(true);
                raw_write_read(&file)
            },
            |r| r.as_ref().map(|_| ()).map_err(String::clone),
        )
        .and_then(Result::ok)
    };
    if let Some((write_s, read_s)) = probe("SafsFile::{write,read}_part_async", safs) {
        m.set("safs.raw_write_gib_s", gib / write_s);
        m.set("safs.raw_read_gib_s", gib / read_s);
        m.set("safs.raw_read_frac_device", gib / read_s / (em_device_bytes_per_sec() / GIB));
    }

    let dir = ScratchDir::new("direct");
    let direct_cfg =
        SafsConfig::striped_under(dir.path(), EM_SHARDS).with_io_threads(1).with_backend(BackendKind::Direct);
    match Safs::open(direct_cfg) {
        Ok(direct) => {
            if let Some((write_s, read_s)) = probe("SafsFile::{write,read}_part_async(Direct)", &direct) {
                m.set("safs.direct_write_gib_s", gib / write_s);
                m.set("safs.direct_read_gib_s", gib / read_s);
            }
        }
        Err(e) => {
            run.attempted += 1;
            run.failed += 1;
            eprintln!("FAILED Safs::open(Direct): {e:?}");
        }
    }

    let path = dir.path().join("plain.bin");
    let plain = run.call(
        ctx,
        "host",
        "std::fs",
        || -> std::io::Result<(f64, f64)> {
            let block = vec![7u8; part_bytes as usize];
            let (res, write_s) = time(|| -> std::io::Result<()> {
                let mut f = std::fs::File::create(&path)?;
                (0..nparts).try_for_each(|_| f.write_all(&block))
            });
            res?;
            let mut back = vec![0u8; part_bytes as usize];
            let (res, read_s) = time(|| -> std::io::Result<()> {
                let mut f = std::fs::File::open(&path)?;
                (0..nparts).try_for_each(|_| f.read_exact(&mut back))
            });
            res?;
            if back != block {
                return Err(std::io::Error::other("plain file read back wrong"));
            }
            Ok((write_s, read_s))
        },
        |r| r.as_ref().map(|_| ()).map_err(|e| e.to_string()),
    );
    if let Some(Ok((write_s, read_s))) = plain {
        m.set("host.fs_write_gib_s", gib / write_s);
        m.set("host.fs_read_gib_s", gib / read_s);
    }
}

/// EM `sqrt(abs(y)) + u` → EM: two leaves read, one written. The one
/// pattern whose time strayed widely in sizing; recorded with its spread
/// and kept out of every round.
fn two_leaf_rw(i: &Ingest, sizes: &Sizes, seed: u64, run: &mut Run, m: &mut Metrics) {
    let ctx = &i.em.ctx;
    let rows = sizes.ingest_rows;
    let leaves = run.call(
        ctx,
        "core.exec",
        "FM::materialize",
        || {
            let y = FM::rnorm(ctx, rows, PAGEGRAPH_COLS, 0.0, 1.0, seed + 10).materialize(ctx);
            let u = FM::runif(ctx, rows, PAGEGRAPH_COLS, 0.0, 1.0, seed + 11).materialize(ctx);
            (y, u)
        },
        |_| Ok(()),
    );
    let Some((y, u)) = leaves else { return };
    let times = run.call(
        ctx,
        "core.exec",
        "FM::materialize(two-leaf map)",
        || -> Vec<f64> { (0..TWO_LEAF_REPEATS).map(|_| time(|| (&y.abs().sqrt() + &u).materialize(ctx)).1).collect() },
        |_| Ok(()),
    );
    if let Some(times) = times {
        let [q1, _, q3] = quartiles(&times);
        m.set("exec.two_leaf_rw_s", median(&times));
        m.set("exec.two_leaf_rw_iqr_s", q3 - q1);
    }
}

fn sparse_inputs(sizes: &Sizes, seed: u64) -> (CsrMatrix, Dense) {
    let n = (sizes.kmeans_rows / 2) as usize;
    (CsrMatrix::random(n, n, 16, seed), Dense::from_fn(n, 8, |r, c| ((r + c) % 5) as f64 - 2.0))
}

fn same_product(got: &Dense, want: &Dense) -> Result<(), String> {
    let diff = got.max_abs_diff(want);
    ensure(diff <= 1e-9, || format!("SpMM results differ by {diff}"))
}

/// Semi-external SpMM through the workload's SAFS, checked against the
/// in-memory product. On no workload's path today.
fn sem_spmm(i: &Ingest, sizes: &Sizes, seed: u64, run: &mut Run, m: &mut Metrics) {
    let ctx = &i.em.ctx;
    let safs = ctx.safs().expect("em_ingest runs on an EM context");
    let (a, b) = sparse_inputs(sizes, seed);
    let want = spmm(&a, &b);
    let out = run.call(
        ctx,
        "sparse",
        "SemCsr::spmm",
        || {
            let before = safs.stats_snapshot().read_bytes;
            let sem = SemCsr::store(safs, &safs.unique_name("sem"), &a, PART_ROWS);
            let (c, secs) = time(|| sem.spmm(&b));
            (c, (safs.stats_snapshot().read_bytes - before) as f64 / GIB / secs)
        },
        |(c, _)| same_product(c, &want),
    );
    if let Some((_, rate)) = out {
        m.set("sparse.sem_spmm_gib_s", rate);
    }
}

fn sparse_spmm(sizes: &Sizes, seed: u64, run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let (a, b) = sparse_inputs(sizes, seed);
    let flops = 2.0 * a.nnz() as f64 * b.cols() as f64 / 1e9;
    let want = spmm(&a, &b);
    let out = run.call(
        ctx,
        "sparse",
        "spmm",
        || {
            let mut c = Dense::zeros(1, 1);
            let secs = best_of(3, || c = spmm(black_box(&a), black_box(&b)));
            (c, secs)
        },
        |(c, _)| same_product(c, &want),
    );
    if let Some((_, secs)) = out {
        m.set("sparse.spmm_gflops", flops / secs);
    }
}

/// The fixed cost of one pass: `sum` over a 1024 × 8 leaf does almost no
/// kernel work, so its time is plan build, analysis and worker hand-off.
fn pass_fixed(run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let leaf = FM::ones(1024, 8).materialize(ctx);
    let out = run.call(
        ctx,
        "core.exec",
        "FM::sum",
        || {
            let mut total = 0.0;
            let times: Vec<f64> = (0..500).map(|_| time(|| total = leaf.sum().value(ctx)).1).collect();
            (total, median(&times))
        },
        |&(total, _)| ensure(total == 8192.0, || format!("sum {total}")),
    );
    if let Some((_, secs)) = out {
        m.set("exec.pass_fixed_us", secs * 1e6);
    }
}

/// `FM::check` on the two DAGs `r_smallpass` builds over and over: the
/// logistic gradient and one k-means step.
fn analysis_check(sizes: &Sizes, seed: u64, run: &mut Run, ctx: &FlashCtx, m: &mut Metrics) {
    let p = 8;
    let x = FM::rnorm(ctx, sizes.r_rows, p, 0.0, 1.0, seed).materialize(ctx);
    let y = FM::runif(ctx, sizes.r_rows, 1, 0.0, 1.0, seed + 1).materialize(ctx);
    let w = FM::from_dense(Dense::from_fn(p, 1, |i, _| i as f64 / 8.0));
    let gradient = x.crossprod_with(&x.matmul(&w).sigmoid().binary(BinaryOp::Sub, &y, false));
    let centers = Dense::from_fn(p, 2, |i, j| (i + 4 * j) as f64);
    let assign = x.inner_prod(centers, BinaryOp::EuclidSq, BinaryOp::Add).row_which_min();
    let step = x.groupby_row(&assign, flashr::core::ops::AggOp::Sum, 2);
    let out = run.call(
        ctx,
        "core.analysis",
        "FM::check",
        || {
            let mut ok = true;
            let times: Vec<f64> = (0..200)
                .map(|_| time(|| ok &= gradient.check(ctx).is_ok() && step.check(ctx).is_ok()).1 / 2.0)
                .collect();
            (ok, median(&times))
        },
        |&(ok, _)| ensure(ok, || "a well-formed plan was rejected".into()),
    );
    if let Some((_, secs)) = out {
        m.set("analysis.check_us", secs * 1e6);
    }
}
