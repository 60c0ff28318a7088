//! The executor's shared read-ahead frontier (DESIGN §4.4) and the
//! windowed row sampler built on the same helper, observed from outside
//! through pass profiles, the span log and the SAFS counters: who got
//! partitions, how many partition sets a pass holds, whether the device
//! queue drains between claims, and that `cum.col`'s carry chain still
//! resolves under single-partition claims.
//!
//! Every array here is the throttled `Sim` backend at a few MiB/s, so a
//! partition read takes milliseconds while its compute takes
//! microseconds: the passes are I/O-bound on any host, which is what
//! makes the queue-depth properties deterministic.

use flashr::core::trace::{EventKind, SpanEvent};
use flashr::ml::util::sample_rows;
use flashr::prelude::*;
use flashr::safs::BackendKind;
use flashr_testkit::oracle::{assert_same, Mat};
use std::time::Duration;

const ROWS_PER_PART: u64 = 256;
const COLS: usize = 4;

/// One scratch array: `Sim`, one I/O thread per shard, no page cache,
/// every request `ms_per_part` long.
struct Array {
    dir: std::path::PathBuf,
    safs: Safs,
}

impl Array {
    fn open(tag: &str, shards: usize, dispatch_batch: usize, ms_per_part: f64) -> Array {
        let dir = std::env::temp_dir().join(format!("flashr-ra-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let part_bytes = (ROWS_PER_PART as usize * COLS * 8) as f64;
        let disks = (0..shards).map(|d| dir.join(format!("disk{d}"))).collect();
        let cfg = SafsConfig { disks, ..SafsConfig::single_dir(&dir) }
            .with_backend(BackendKind::Sim)
            .with_io_threads(1)
            .with_dispatch_batch(dispatch_batch)
            .with_throttle(ThrottleCfg {
                bytes_per_sec: part_bytes / (ms_per_part * 1e-3),
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

/// (a) Claiming is not reading ahead: a worker never owns a partition it
/// is not computing, so on a four-partition pass whose reads take 3 ms
/// the second worker always finds its own node's partitions waiting. A
/// worker that claimed its read-ahead window would take all four.
#[test]
fn every_worker_gets_partitions_on_a_short_pass() {
    let array = Array::open("short", 2, 4, 3.0);
    let ctx = array.ctx(2, TraceLevel::Pass);
    assert_eq!(ctx.cfg().numa_nodes, 2, "NUMA-affine claiming is the default");
    let m = values(4);
    let x = em_leaf(&ctx, &m);
    for round in 0..8 {
        ctx.tracer().clear();
        assert_eq!(x.sum().value(&ctx), m.agg_all(AggOp::Sum));
        let pass = ctx.tracer().passes().pop().expect("one pass profiled");
        let parts: Vec<u64> = pass.workers.iter().map(|w| w.parts).collect();
        assert_eq!(parts.len(), 2, "round {round}");
        assert!(parts.iter().all(|&p| p >= 1), "round {round}: partitions per worker {parts:?}");
        assert_eq!(parts.iter().sum::<u64>(), 4, "round {round}");
    }
}

/// (b) The byte bound: partition sets read ahead plus those in compute
/// never exceed `nthreads × dispatch_batch`, counted from the span log as
/// (requests submitted ÷ leaves) − (tasks finished) at every submit.
#[test]
fn a_pass_holds_at_most_nthreads_times_dispatch_batch_partition_sets() {
    const NPARTS: u64 = 64;
    for (nthreads, batch) in [(2, 4), (3, 2), (1, 1)] {
        let array = Array::open(&format!("bound{nthreads}x{batch}"), 4, batch, 1.0);
        let ctx = array.ctx(nthreads, TraceLevel::Timeline);
        let (ma, mb) = (values(NPARTS), values(NPARTS).unary(UnaryOp::Neg));
        let (a, b) = (em_leaf(&ctx, &ma), em_leaf(&ctx, &mb));
        ctx.tracer().clear();
        let got = a.binary(BinaryOp::Sub, &b, false).sum().value(&ctx);
        assert_eq!(got, 2.0 * ma.agg_all(AggOp::Sum));

        let events = events(&ctx);
        let submits = submits(&events);
        assert_eq!(submits.len() as u64, 2 * NPARTS, "one request per leaf partition");
        let task_ends: Vec<u64> = events
            .iter()
            .filter(|e| e.cat == "exec" && e.name == "task" && e.kind == EventKind::End)
            .map(|e| e.ts_ns)
            .collect();
        assert_eq!(task_ends.len() as u64, NPARTS);
        let peak = peak_held(&submits, 2, &task_ends);
        let bound = nthreads * batch;
        assert!(
            peak <= bound,
            "{nthreads} workers, batch {batch}: {peak} sets held, bound {bound}"
        );
        assert!(peak >= bound.min(2), "{nthreads} workers, batch {batch}: only {peak} sets held");
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
    assert_eq!(depths.last().expect("non-empty").1, 0, "the pass drains the queue at its end");
}

/// (d) `cum.col` dispatches from one cursor, so a partition's carry
/// always comes from one claimed before it; with workers interleaving
/// single-partition claims the chain still resolves, and exactly.
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

/// Row sampling reads the touched partitions through the same window:
/// `dispatch_batch` requests in flight, never more, and the rows it
/// returns are the matrix's.
#[test]
fn sample_rows_reads_through_a_bounded_window() {
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
    let got = sample_rows(&ctx, &x, &rows);
    for (r, row) in rows.iter().zip(&got) {
        let want: Vec<f64> = (0..COLS).map(|c| m.at(*r as usize, c)).collect();
        assert_eq!(row, &want, "row {r}");
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
