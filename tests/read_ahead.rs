//! The executor's shared read-ahead frontier (DESIGN §4.4) and the
//! partition scan built on the same helper (`TasMat::scan`, under
//! `gather_rows`), observed from outside through pass profiles, the span
//! log and the SAFS counters: when each worker claims, how many partition
//! sets a pass holds — with and without a page cache, which reads
//! nothing ahead of its own — whether the device queue drains between
//! claims, and that `cum.col`'s carry chain still resolves under
//! single-partition claims.
//!
//! Every array here is the throttled `Sim` backend at a few MiB/s, so a
//! partition read takes milliseconds while its compute takes
//! microseconds: the passes are I/O-bound on any host, which is what
//! makes the queue-depth properties deterministic.

use flashr::core::trace::{EventKind, SpanEvent};
use flashr::prelude::*;
use flashr::safs::CacheCfg;
use flashr_testkit::oracle::{assert_same, Mat};
use std::time::Duration;

const ROWS_PER_PART: u64 = 256;
const COLS: usize = 4;

/// Bytes of one full partition of a [`COLS`]-column f64 leaf.
const PART_BYTES: u64 = ROWS_PER_PART * COLS as u64 * 8;

/// One scratch array: `Sim`, one I/O thread per shard, no page cache,
/// every request `ms_per_part` long.
struct Array {
    dir: std::path::PathBuf,
    safs: Safs,
}

impl Array {
    fn open(tag: &str, shards: usize, dispatch_batch: usize, ms_per_part: f64) -> Array {
        Array::open_cached(tag, shards, dispatch_batch, ms_per_part, 0)
    }

    /// [`Array::open`] with a page cache of `cache_bytes` (0: none).
    fn open_cached(
        tag: &str,
        shards: usize,
        dispatch_batch: usize,
        ms_per_part: f64,
        cache_bytes: u64,
    ) -> Array {
        let dir = std::env::temp_dir().join(format!("flashr-ra-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disks = (0..shards).map(|d| dir.join(format!("disk{d}"))).collect();
        let cfg = SafsConfig { disks, ..SafsConfig::single_dir(&dir) }
            .with_io_threads(1)
            .with_dispatch_batch(dispatch_batch)
            .with_cache(CacheCfg::with_capacity(cache_bytes))
            .with_throttle(ThrottleCfg {
                bytes_per_sec: PART_BYTES as f64 / (ms_per_part * 1e-3),
                latency_us: 0.0,
            });
        Array { dir, safs: Safs::open(cfg).expect("open scratch SAFS array") }
    }

    fn ctx(&self, nthreads: usize, trace: TraceLevel) -> FlashCtx {
        let cfg = CtxConfig {
            nthreads,
            rows_per_part: ROWS_PER_PART,
            storage: StorageClass::Em,
            trace,
            ..CtxConfig::default()
        };
        FlashCtx::with_config(cfg, Some(self.safs.clone()))
    }
}

impl Drop for Array {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Small integers, so sums and running sums are exact in any order.
fn values(nparts: u64) -> Mat {
    let rows = (nparts * ROWS_PER_PART) as usize;
    Mat::from_row_major(rows, COLS, (0..rows * COLS).map(|i| (i * 7 % 23) as f64 - 11.0).collect())
}

fn em_leaf(ctx: &FlashCtx, m: &Mat) -> FM {
    let x = FM::from_col_major(ctx, m.rows as u64, m.cols, &m.col_major());
    let safs = ctx.safs().expect("an EM context");
    FM::from_tas(x.leaf_mat_opt().expect("a leaf").to_em(safs))
}

/// Every event of the context's span log, oldest first.
fn events(ctx: &FlashCtx) -> Vec<SpanEvent> {
    let log = ctx.tracer().timeline().expect("timeline level keeps the full log");
    assert_eq!(log.dropped_events(), 0, "the span log overflowed");
    let mut all: Vec<SpanEvent> = log.snapshot().into_iter().flat_map(|l| l.events).collect();
    all.sort_by_key(|e| e.ts_ns);
    all
}

/// Submit instants of the device requests in `events`: a request's
/// `queue` span begins when it was submitted.
fn submits(events: &[SpanEvent]) -> Vec<u64> {
    events.iter().filter(|e| e.cat == "io" && e.name == "queue").map(|e| e.ts_ns).collect()
}

/// The most sets of `per_set` requests held at any submit: sets submitted
/// so far (`submits` is sorted) minus those released by then.
fn peak_held(submits: &[u64], per_set: usize, released: &[u64]) -> usize {
    let held = |(i, &at): (usize, &u64)| {
        (i + 1).div_ceil(per_set) - released.iter().filter(|&&end| end <= at).count()
    };
    submits.iter().enumerate().map(held).max().expect("requests were submitted")
}

/// Each worker's tasks on the last pass on `ctx`, in the order it ran
/// them: `(partition, begin, end)`.
fn tasks_per_worker(ctx: &FlashCtx) -> Vec<Vec<(u64, u64, u64)>> {
    let log = ctx.tracer().timeline().expect("timeline level keeps the full log");
    let workers = log.snapshot().into_iter().filter(|l| l.name.starts_with("flashr-w"));
    let tasks = |events: Vec<SpanEvent>| {
        let mut open = None;
        let mut done = Vec::new();
        for e in events.into_iter().filter(|e| e.cat == "exec" && e.name == "task") {
            match e.kind {
                EventKind::Begin => open = Some((e.args[0].1, e.ts_ns)),
                EventKind::End => {
                    let (part, begin) = open.take().expect("a task ends after it begins");
                    done.push((part, begin, e.ts_ns));
                }
                _ => {}
            }
        }
        done
    };
    workers.map(|l| tasks(l.events)).collect()
}

/// (a) Claiming is not reading ahead: a worker claims its next partition
/// only once its last task has ended, so the one cursor the workers
/// share never lets one of them hoard a read-ahead window — every
/// partition it has not started stays for the others. The claims are
/// seen through the cursor's partition order: the first claim issues the
/// fetches of partitions `0..=depth`, and every later claim of `q`
/// issues the fetch of `q + depth`, so that submit is the claim's
/// instant. A worker that claimed its whole window at once would claim
/// partition 1 before its task on partition 0 ended.
#[test]
fn every_worker_gets_partitions_on_a_short_pass() {
    const NPARTS: u64 = 12;
    const BATCH: usize = 4;
    const NTHREADS: usize = 2;
    let depth = (NTHREADS * (BATCH - 1)) as u64;
    let array = Array::open("short", 2, BATCH, 1.0);
    let ctx = array.ctx(NTHREADS, TraceLevel::Timeline);
    let m = values(NPARTS);
    let x = em_leaf(&ctx, &m);
    for round in 0..4 {
        ctx.tracer().clear();
        assert_eq!(x.sum().value(&ctx), m.agg_all(AggOp::Sum));
        let submits = submits(&events(&ctx));
        assert_eq!(submits.len() as u64, NPARTS, "round {round}: one request per partition");
        let claimed_at = |q: u64| match q {
            0 => Some(submits[0]),
            q => submits.get((q + depth) as usize).copied(),
        };
        let workers = tasks_per_worker(&ctx);
        let mut parts: Vec<u64> = workers.iter().flatten().map(|t| t.0).collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..NPARTS).collect::<Vec<_>>(), "round {round}: each partition once");
        let mut checked = 0;
        for (tid, tasks) in workers.iter().enumerate() {
            for &(q, begin, _) in tasks {
                if let Some(at) = claimed_at(q) {
                    assert!(at <= begin, "round {round}: worker {tid} began {q} before its claim");
                }
            }
            for pair in tasks.windows(2) {
                let ((p, _, ended), (q, _, _)) = (pair[0], pair[1]);
                assert!(p < q, "round {round}: worker {tid} ran {q} after {p}");
                if let Some(at) = claimed_at(q) {
                    assert!(at >= ended, "round {round}: worker {tid} claimed {q} while on {p}");
                    checked += 1;
                }
            }
        }
        // Partitions 0..=NPARTS − 1 − depth have a claim instant; with
        // two workers one of them ran at least two of those in a row.
        assert!(checked >= 1, "round {round}: no worker ran two claimable partitions");
    }
}

/// The most partition sets of `nleaves` leaves the last pass on `ctx`
/// held, counted from the span log as (requests submitted ÷ leaves) −
/// (tasks finished) at every submit, after checking the pass read every
/// leaf partition once.
fn peak_sets_held(ctx: &FlashCtx, nleaves: usize, nparts: u64) -> usize {
    let events = events(ctx);
    let submits = submits(&events);
    assert_eq!(submits.len() as u64, nleaves as u64 * nparts, "one request per leaf partition");
    let task_ends: Vec<u64> = events
        .iter()
        .filter(|e| e.cat == "exec" && e.name == "task" && e.kind == EventKind::End)
        .map(|e| e.ts_ns)
        .collect();
    assert_eq!(task_ends.len() as u64, nparts);
    peak_held(&submits, nleaves, &task_ends)
}

/// (b) The byte bound: partition sets read ahead plus those in compute
/// never exceed `nthreads × dispatch_batch` — also over leaves a page
/// cache admits, which must read nothing ahead of its own.
#[test]
fn a_pass_holds_at_most_nthreads_times_dispatch_batch_partition_sets() {
    const NPARTS: u64 = 64;
    let check = |peak: usize, nthreads: usize, batch: usize, what: &str| {
        let bound = nthreads * batch;
        let at = format!("{what}, {nthreads} workers, batch {batch}");
        assert!(peak <= bound, "{at}: {peak} sets held, bound {bound}");
        assert!(peak >= bound.min(2), "{at}: only {peak} sets held");
    };
    for (nthreads, batch) in [(2, 4), (3, 2), (1, 1)] {
        let array = Array::open(&format!("bound{nthreads}x{batch}"), 4, batch, 1.0);
        let ctx = array.ctx(nthreads, TraceLevel::Timeline);
        let (ma, mb) = (values(NPARTS), values(NPARTS).unary(UnaryOp::Neg));
        let (a, b) = (em_leaf(&ctx, &ma), em_leaf(&ctx, &mb));
        ctx.tracer().clear();
        let got = a.binary(BinaryOp::Sub, &b, false).sum().value(&ctx);
        assert_eq!(got, 2.0 * ma.agg_all(AggOp::Sum));
        check(peak_sets_held(&ctx, 2, NPARTS), nthreads, batch, "two leaves");
    }
    for (nthreads, batch) in [(1, 1), (1, 2), (2, 4)] {
        let tag = format!("bound-cached{nthreads}x{batch}");
        let array = Array::open_cached(&tag, 4, batch, 1.0, NPARTS * PART_BYTES);
        let ctx = array.ctx(nthreads, TraceLevel::Timeline);
        let m = values(NPARTS);
        let x = em_leaf(&ctx, &m);
        ctx.tracer().clear();
        assert_eq!(x.sum().value(&ctx), m.agg_all(AggOp::Sum));
        check(peak_sets_held(&ctx, 1, NPARTS), nthreads, batch, "page cache");
        let cache = array.safs.cache_stats_snapshot();
        assert_eq!((cache.misses, cache.bypasses), (NPARTS, 0), "the cache admits the leaf");
    }
}

/// (c) No batch seams: from the first read to the last claim a
/// one-worker pass always has a request queued or in service. Claiming
/// `dispatch_batch` partitions, reading them and only then claiming
/// again empties the queue once per batch.
#[test]
fn the_device_queue_never_drains_before_the_last_claim() {
    let array = Array::open("seams", 2, 4, 4.0);
    let ctx = array.ctx(1, TraceLevel::Timeline);
    let m = values(16);
    let x = em_leaf(&ctx, &m);
    ctx.tracer().clear();
    assert_eq!(x.sum().value(&ctx), m.agg_all(AggOp::Sum));

    let events = events(&ctx);
    let last_submit = submits(&events).into_iter().max().expect("the pass read its leaf");
    let depths: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "io-queue-depth")
        .map(|e| (e.ts_ns, e.args[0].1))
        .collect();
    assert!(depths.len() >= 32, "a sample per submit and per completion, got {}", depths.len());
    let drained: Vec<_> = depths.iter().filter(|&&(ts, d)| d == 0 && ts < last_submit).collect();
    assert!(drained.is_empty(), "queue empty before the last claim at {drained:?}");
    // Each shard's own counter ends at 0. The array-wide one can end at
    // 1 when both shards finish together: each samples the depth before
    // the other's request has left it.
    for shard in ["io-queue-depth-s0", "io-queue-depth-s1"] {
        let last = events.iter().rfind(|e| e.kind == EventKind::Counter && e.name == shard);
        let last = last.unwrap_or_else(|| panic!("no {shard} samples"));
        assert_eq!(last.args[0].1, 0, "the pass drains {shard} at its end");
    }
}

/// (d) Every pass claims in partition order, so a `cum.col` partition's
/// carry always comes from one claimed before it; with workers
/// interleaving single-partition claims the chain still resolves, and
/// exactly.
#[test]
fn cumsum_over_an_em_leaf_resolves_under_interleaved_claims() {
    let array = Array::open("cum", 2, 4, 0.5);
    let m = values(24);
    let want = m.cumsum_col();
    for nthreads in [2, 3, 4] {
        let (ctx, data) = (array.ctx(nthreads, TraceLevel::Off), m.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let got = em_leaf(&ctx, &data).cumsum_col().to_vec(&ctx);
            let _ = tx.send(got);
        });
        let got = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{nthreads} workers: cum.col pass did not finish: {e}"));
        runner.join().expect("runner panicked");
        assert_same(&got, &want, false, &format!("{nthreads} workers"));
    }
}

/// `gather_rows` reads the touched partitions through the same window:
/// `dispatch_batch` requests in flight, never more, and the rows it
/// returns are the matrix's.
#[test]
fn gather_rows_reads_through_a_bounded_window() {
    const NPARTS: u64 = 16;
    let array = Array::open("sample", 4, 4, 2.0);
    let ctx = array.ctx(2, TraceLevel::Timeline);
    let m = values(NPARTS);
    let x = em_leaf(&ctx, &m);
    // Two rows of every partition, out of order, and one asked for twice.
    let mut rows: Vec<u64> = (0..NPARTS)
        .rev()
        .flat_map(|p| [p * ROWS_PER_PART + 3, (p + 1) * ROWS_PER_PART - 1])
        .collect();
    rows.push(rows[0]);
    ctx.tracer().clear();
    let got = x.gather_rows(&ctx, &rows);
    for (i, r) in rows.iter().enumerate() {
        let want: Vec<f64> = (0..COLS).map(|c| m.at(*r as usize, c)).collect();
        assert_eq!(got.row(i), &want[..], "row {r}");
    }

    // In flight at a submit: requests submitted so far minus those whose
    // device span had ended (the queue-depth counter would do, but a
    // completed request leaves it a moment after its waiter wakes).
    let events = events(&ctx);
    let submits = submits(&events);
    assert_eq!(submits.len() as u64, NPARTS, "each touched partition read once");
    let done: Vec<u64> = events
        .iter()
        .filter(|e| e.cat == "io" && e.name == "read")
        .map(|e| e.ts_ns + e.dur_ns)
        .collect();
    let peak = peak_held(&submits, 1, &done);
    assert_eq!(peak, 4, "requests in flight, want dispatch_batch = 4");
}

/// A scan reads the partitions it is asked for and no others, page
/// cache or not: one row from each of partitions 0–2 of a 32-partition
/// leaf the cache admits, gathered in partition order — a sequential
/// run — is three device requests.
#[test]
fn gather_rows_reads_only_the_partitions_it_touches() {
    const NPARTS: u64 = 32;
    let array = Array::open_cached("touched", 2, 4, 0.5, NPARTS * PART_BYTES);
    let ctx = array.ctx(1, TraceLevel::Timeline);
    let m = values(NPARTS);
    let x = em_leaf(&ctx, &m);
    ctx.tracer().clear();
    for r in (0..3).map(|p| p * ROWS_PER_PART + 5) {
        let want: Vec<f64> = (0..COLS).map(|c| m.at(r as usize, c)).collect();
        assert_eq!(x.gather_rows(&ctx, &[r]).row(0), &want[..], "row {r}");
    }
    // Anything submitted behind the caller's back completes (and logs
    // its spans) before the count.
    array.safs.flush();
    assert_eq!(submits(&events(&ctx)).len(), 3, "device requests for three partitions");
    assert_eq!(array.safs.cache_stats_snapshot().misses, 3, "the cache admits the leaf");
}
