//! The fused single-pass engine (paper §3.5).
//!
//! One parallel pass over the I/O partitions materializes every target in
//! the DAG: worker threads claim partitions sequentially, one at a time,
//! from a claim cursor whose shared read-ahead frontier
//! ([`ReadAhead`]) already has the next partitions' leaf reads in flight,
//! stream Pcache chunks depth-first through the operation graph with
//! per-chunk memoization, recycle each chunk's buffer at its last read,
//! fold sink accumulators per partition, and write tall outputs back as
//! whole partitions. The Pcache step is sized by what that recycling
//! leaves live at once ([`Plan::live_row_bytes`]).
//!
//! Claiming and reading ahead are separate. Every pass claims from one
//! cursor, in partition order. Every claim, by whichever worker, tops the
//! cursor's frontier up to `workers × (dispatch_batch − 1)` issued
//! partitions beyond the one claimed, so the device queue never drains
//! at a seam between batches, no worker owns partitions it is not
//! computing, and the leaf-partition sets held by a pass — one in compute
//! per worker plus the frontier — never exceed `nthreads ×
//! dispatch_batch`. In-memory leaves take the same path: their fetch is
//! a ready clone. Device reads land in buffers from the pass's own
//! leaf-buffer pool, which a worker refills with each leaf buffer it
//! holds alone once the partition is computed; the pool dies with the
//! pass.
//!
//! The workers are the participants of one [`par::run`] call on the
//! process's one thread pool: the calling thread is worker 0, the rest
//! are parked pool helpers, so a pass starts no thread, and a pass with
//! one worker never leaves the caller. Each thread keeps its chunk
//! buffers from one pass to the next, trimmed at every pass end to a
//! bound derived from the pass's Pcache budget (`idle_chunk_bound`).

use crate::analysis::chains::CompiledChain;
use crate::chunk::{BufPool, Chunk, PartBufPool};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::cumcoord::{CumCoord, Poisoned};
use crate::exec::plan::Plan;
use crate::exec::{SinkAcc, Target, TargetResult};
use crate::mat::{Layout, ReadAhead, TasMat};
use crate::ops;
use crate::part::pcache_ranges;
use crate::session::{FlashCtx, StorageClass};
use crate::stats::ExecStats;
use crate::trace::timeline::as_worker;
use crate::trace::{Lane, OpProfile, PassProfile, Timeline, TraceLevel, WorkerProfile};
use flashr_linalg::par;
use flashr_safs::sync::Mutex;
use flashr_safs::{CachedFetch, IoBuf, IoTicket, SafsFile, NO_ARGS};
use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// This thread's idle chunk buffers, kept from one pass it works in
    /// to the next.
    static CHUNK_BUFS: Cell<BufPool> = Cell::new(BufPool::new());
}

/// The idle chunk-buffer bytes a thread keeps after a pass: what one
/// Pcache range holds live under the pass's budget (`pcache_bytes`),
/// each buffer rounded up to its power-of-two class. Whole-partition
/// chunks (`MemFuse`, `Eager`, `cum.col`) exceed it and are freed at
/// pass end, as when every pass built its buffers afresh.
fn idle_chunk_bound(ctx: &FlashCtx) -> usize {
    2 * ctx.cfg().pcache_bytes
}

/// Per-tall-output shared state.
enum TallState {
    /// Each partition's output buffer, once a worker publishes it.
    InMem(Mutex<Vec<Option<Arc<IoBuf>>>>),
    /// The file the workers write partitions to.
    Em(SafsFile),
}

/// Accumulated op timings by node id. A kernel's root carries its label
/// and, for a chain of ≥ 2 ops, the chain's length and saved-intermediate
/// bytes; the interior nodes it covers never appear (they are never
/// evaluated).
type OpMap = HashMap<u64, OpProfile>;

/// What a worker hands its pass once, at its end: its profile and its
/// per-node op timings.
type WorkerRecord = (WorkerProfile, OpMap);

/// The fetches of one partition of every plan leaf, in `Plan::leaves`
/// order.
type LeafFetches = Vec<CachedFetch>;

/// Everything the worker threads share.
struct Shared<'a> {
    ctx: &'a FlashCtx,
    plan: &'a Plan,
    talls: &'a [TallState],
    cums: &'a HashMap<u64, CumCoord>,
    /// The claim cursor: the pass's partitions, in order, behind their
    /// shared read-ahead frontier.
    cursor: Mutex<ReadAhead<Range<u64>, LeafFetches>>,
    /// Leaf-read buffers the workers are done with, for later claims'
    /// device reads. Dropped with the pass, so nothing stays pooled
    /// between passes.
    leaf_bufs: PartBufPool,
    /// Per-partition sink partials, folded in partition order at
    /// finalize so reductions are bit-deterministic regardless of which
    /// worker claimed which partition (thread-finish order is not).
    merged: Mutex<Vec<Option<Vec<SinkAcc>>>>,
    /// The first failed worker's panic. Stored before the pass's carry
    /// chains are poisoned, so it is the cause and not a waiter released
    /// by it.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    /// Where the workers hand in their records; `Some` only while the
    /// tracer is at [`TraceLevel::Pass`] or above.
    records: Option<&'a Mutex<Vec<WorkerRecord>>>,
    /// The context's span log; what it keeps follows the trace level.
    log: &'a Timeline,
    pass_id: u64,
}

/// Run one fused pass over the analyzed targets and return one result
/// per target. `nodes_pre_cse` is the submitted DAG's node count before
/// the analyzer's rewrite, for the pass profile.
pub fn run(ctx: &FlashCtx, targets: &[Target], nodes_pre_cse: usize) -> Vec<TargetResult> {
    run_labeled(ctx, targets, &HashMap::new(), "fused", Some(nodes_pre_cse))
}

/// Like [`run`], with an engine label for the pass profile: the eager
/// engine drives the same machinery one operation at a time, with the
/// operation's inputs in `resolved`, labels its sub-passes accordingly
/// and has no pre-rewrite count for them (`None`).
pub(crate) fn run_labeled(
    ctx: &FlashCtx,
    targets: &[Target],
    resolved: &HashMap<u64, TasMat>,
    engine: &'static str,
    nodes_pre_cse: Option<usize>,
) -> Vec<TargetResult> {
    let started = Instant::now();
    let plan = Plan::build(ctx, targets, resolved);
    let stats = ctx.stats();
    let pass_id = stats.passes.add(1);
    let tracer = ctx.tracer();
    let records = tracer.enabled(TraceLevel::Pass).then(|| Mutex::new(Vec::new()));
    // Snapshot page-cache counters so the pass profile carries deltas.
    let cache_before = records.as_ref().and_then(|_| ctx.safs().map(|s| s.stats_snapshot().cache));

    // Prepare tall outputs.
    let tall_states: Vec<TallState> = plan
        .talls
        .iter()
        .map(|t| match t.storage {
            StorageClass::InMem => TallState::InMem(Mutex::new(vec![None; plan.nparts as usize])),
            StorageClass::Em => {
                let safs = ctx.safs().expect("EM output requires a SAFS runtime");
                let elem = t.node.dtype.size() as u64;
                let part_bytes = plan.parter.rows_per_part() * t.node.ncols as u64 * elem;
                let total = plan.nrows * t.node.ncols as u64 * elem;
                let file = safs
                    .create_bytes(&safs.unique_name("fm"), part_bytes, total)
                    .expect("EM output create failed");
                file.set_delete_on_drop(true);
                TallState::Em(file)
            }
        })
        .collect();

    let cums: HashMap<u64, CumCoord> =
        plan.cum_nodes.iter().map(|n| (n.id, CumCoord::default())).collect();

    let nparts = plan.nparts;
    let nthreads = ctx.cfg().nthreads.min(nparts as usize).max(1);

    // Read-ahead depth: `dispatch_batch − 1` issued partitions per worker,
    // which with the one each computes bounds the pass at `nthreads ×
    // dispatch_batch` partition sets. Nothing is read ahead of an
    // all-in-memory pass.
    let ahead = match ctx.safs() {
        Some(safs) if plan.leaves.iter().any(|(_, m)| m.is_em()) => {
            safs.dispatch_batch().saturating_sub(1)
        }
        _ => 0,
    };
    let shared = Shared {
        ctx,
        plan: &plan,
        talls: &tall_states,
        cums: &cums,
        cursor: Mutex::new(ReadAhead::new(0..nparts, nthreads * ahead)),
        leaf_bufs: PartBufPool::new(),
        merged: Mutex::new((0..plan.nparts as usize).map(|_| None).collect()),
        failure: Mutex::new(None),
        records: records.as_ref(),
        log: tracer.log(),
        pass_id,
    };

    // The whole parallel section is one "pass" span on the coordinator
    // lane; `profile_report` credits each task span to its `pass` arg.
    let coord = shared.log.named_lane("coordinator");
    let pass_args = [("pass", pass_id), ("nparts", nparts)];
    let pass_begin_ns = coord.open("exec", "pass", pass_args);
    // Worker `tid` is pool participant `tid`, the caller being worker 0.
    // Whichever thread runs it, its spans land on its own lane.
    par::run(nthreads, |tid| {
        let work = AssertUnwindSafe(|| as_worker(tid, || worker(tid, &shared)));
        if let Err(payload) = std::panic::catch_unwind(work) {
            shared.fail(payload);
        }
    });
    coord.close("exec", "pass", pass_begin_ns, pass_args);
    // Re-raise the first failure with its own payload, so the caller sees
    // a message like "group label 5 outside [0, 2)".
    if let Some(payload) = shared.failure.lock().take() {
        std::panic::resume_unwind(payload);
    }

    // Finalize. Sink partials are folded in partition order — never in
    // worker-finish order — so floating-point reductions are
    // bit-identical run to run even under dynamic partition claiming.
    let mut results: Vec<Option<TargetResult>> = (0..targets.len()).map(|_| None).collect();
    if !plan.sinks.is_empty() {
        let mut merged = shared.merged.lock();
        let mut finals: Vec<Option<SinkAcc>> = (0..plan.sinks.len()).map(|_| None).collect();
        for part_accs in merged.iter_mut() {
            let accs = part_accs.take().expect("partition sinks never accumulated");
            for (i, acc) in accs.into_iter().enumerate() {
                match &mut finals[i] {
                    slot @ None => *slot = Some(acc),
                    Some(existing) => existing.merge(acc),
                }
            }
        }
        for (i, (slot, _)) in plan.sinks.iter().enumerate() {
            let acc = finals[i].take().expect("sink never accumulated");
            results[*slot] = Some(TargetResult::Dense(acc.finalize()));
        }
    }
    for (t, state) in plan.talls.iter().zip(tall_states) {
        let mat = match state {
            TallState::InMem(parts) => {
                let parts: Vec<Arc<IoBuf>> = parts
                    .into_inner()
                    .into_iter()
                    .map(|p| p.expect("partition never produced"))
                    .collect();
                TasMat::assemble_in_mem_pooled(
                    plan.nrows,
                    t.node.ncols,
                    t.node.dtype,
                    Layout::ColMajor,
                    plan.parter,
                    parts,
                    Some(ctx.part_buf_pool().clone()),
                )
            }
            TallState::Em(file) => TasMat::from_em_file(
                plan.nrows,
                t.node.ncols,
                t.node.dtype,
                Layout::ColMajor,
                plan.parter,
                file,
            ),
        };
        if t.is_cache {
            let (cached, pin) = ctx.admit_cache(mat.clone());
            t.node.install_cache_pinned(cached, pin);
        }
        if let Some(slot) = t.slot {
            results[slot] = Some(TargetResult::Mat(mat));
        }
    }

    stats.exec_nanos.add(started.elapsed().as_nanos() as u64);

    if let Some(records) = records {
        let mut workers = Vec::new();
        let mut ops = OpMap::new();
        for (wp, worker_ops) in records.into_inner() {
            workers.push(wp);
            for (id, op) in worker_ops {
                let e = ops.entry(id).or_insert_with(|| OpProfile {
                    node_id: id,
                    label: op.label.clone(),
                    ..OpProfile::default()
                });
                e.chunks += op.chunks;
                e.nanos += op.nanos;
                e.chain_len = e.chain_len.max(op.chain_len);
                e.saved_bytes += op.saved_bytes;
            }
        }
        workers.sort_by_key(|w| w.tid);
        let mut ops: Vec<OpProfile> = ops.into_values().collect();
        ops.sort_by_key(|o| o.node_id);
        tracer.record_pass(PassProfile {
            pass_id,
            engine,
            mode: ctx.cfg().mode.name(),
            nodes: plan.nnodes,
            nodes_pre_cse: nodes_pre_cse.unwrap_or(plan.nnodes),
            nparts: plan.nparts,
            pcache_step: plan.pcache_step,
            sinks: plan.sinks.len(),
            talls: plan.talls.len(),
            wall_nanos: started.elapsed().as_nanos() as u64,
            cache: cache_before
                .zip(ctx.safs())
                .map(|(before, safs)| before.delta(&safs.stats_snapshot().cache))
                .unwrap_or_default(),
            workers,
            ops,
            simd: ops::simd::SimdLevel::active().name(),
            median_task_nanos: 0,
            stragglers: 0,
        });
    }

    results.into_iter().map(|r| r.expect("target produced no result")).collect()
}

impl Shared<'_> {
    /// Record a worker's failure — the pass's first is kept — and release
    /// every `cum.col` waiter, which would otherwise wait for a carry the
    /// failed worker will never publish.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        self.failure.lock().get_or_insert(payload);
        self.cums.values().for_each(CumCoord::poison);
    }
}

/// Claim the next partition together with its leaf fetches, topping the
/// cursor's frontier up under its lock. Device reads go into buffers
/// from the pass's leaf-buffer pool.
fn claim(shared: &Shared<'_>) -> Option<(u64, LeafFetches)> {
    let leaves = &shared.plan.leaves;
    let take = |len| shared.leaf_bufs.take_for_overwrite(len);
    shared.cursor.lock().claim(|part| {
        leaves
            .iter()
            .map(|(nid, mat)| {
                mat.try_fetch_part(part, take).unwrap_or_else(|e| {
                    panic!("read submit for partition {part} of leaf n{nid} failed: {e}")
                })
            })
            .collect()
    })
}

fn worker(tid: usize, shared: &Shared<'_>) {
    let plan = shared.plan;
    let mut st = Scratch {
        memo: Memo::new(plan.nnodes),
        remaining: Vec::with_capacity(plan.nnodes),
        pool: CHUNK_BUFS.take(),
        ops: shared.records.map(|_| OpMap::new()),
        #[cfg(debug_assertions)]
        tally: MemoTally {
            bound: plan.pcache_step * plan.live_row_bytes(),
            ..MemoTally::default()
        },
    };
    let mut leaf_bufs: Vec<Option<Arc<IoBuf>>> = vec![None; plan.nnodes];
    let mut pending_writes: VecDeque<IoTicket> = VecDeque::new();
    let max_pending = shared.ctx.cfg().max_pending_writes.max(1);
    let stats = shared.ctx.stats();
    // One measurement per phase (two clock reads) feeds both the
    // `ExecStats` counters and this worker's profile, which the pass
    // keeps only while the tracer is at `pass` or above.
    let mut wp = WorkerProfile { tid, ..WorkerProfile::default() };
    // This worker's lane of the span log, resolved once per pass.
    // `begin`/`end` record at `FLASHR_TRACE=timeline` only.
    let lane = shared.log.worker_lane(tid);
    let lane = lane.as_ref();

    while let Some((part, fetches)) = claim(shared) {
        wp.parts += 1;

        let task_args = [("part", part), ("pass", shared.pass_id)];
        let task_begin_ns = lane.open("exec", "task", task_args);
        // Bound the in-flight writes: wait for the *oldest* ticket
        // only, so the remaining slots keep streaming instead of
        // stalling the worker behind every outstanding write.
        if pending_writes.len() >= max_pending {
            let ws_t0 = Instant::now();
            lane.begin("exec", "write-stall", NO_ARGS);
            while pending_writes.len() >= max_pending {
                let Some(oldest) = pending_writes.pop_front() else { break };
                oldest.wait().expect("EM output write failed");
            }
            lane.end("exec", "write-stall");
            let nanos = ws_t0.elapsed().as_nanos() as u64;
            stats.write_stall_nanos.add(nanos);
            wp.write_stall_nanos += nanos;
        }
        let io_t0 = Instant::now();
        lane.begin("exec", "io-wait", NO_ARGS);
        for ((nid, _), fetch) in plan.leaves.iter().zip(fetches) {
            let buf = fetch
                .wait()
                .unwrap_or_else(|e| panic!("read of partition {part} of leaf n{nid} failed: {e}"));
            leaf_bufs[plan.slots[nid]] = Some(buf);
        }
        lane.end("exec", "io-wait");
        let nanos = io_t0.elapsed().as_nanos() as u64;
        stats.io_wait_nanos.add(nanos);
        wp.io_wait_nanos += nanos;
        let compute_t0 = Instant::now();
        lane.begin("exec", "compute", NO_ARGS);
        // Fresh accumulators per partition: partials deposit into the
        // partition's slot and fold in partition order at finalize,
        // keeping reductions independent of worker scheduling.
        let mut sink_accs: Vec<SinkAcc> =
            plan.sinks.iter().map(|(_, n)| SinkAcc::new_for(n)).collect();
        let chunks = process_part(
            shared,
            part,
            &leaf_bufs,
            &mut st,
            &mut sink_accs,
            &mut pending_writes,
            lane,
        );
        // The partition's leaf buffers go now, not at the next claim: the
        // pass's partition-set bound counts them. One this worker holds
        // alone — a device read no cache kept — refills the pass's pool;
        // in-memory and cache-held buffers are still shared and just drop.
        for buf in leaf_bufs.iter_mut().filter_map(Option::take) {
            if let Ok(buf) = Arc::try_unwrap(buf) {
                shared.leaf_bufs.put(buf);
            }
        }
        if !sink_accs.is_empty() {
            shared.merged.lock()[part as usize] = Some(sink_accs);
        }
        lane.end("exec", "compute");
        let nanos = compute_t0.elapsed().as_nanos() as u64;
        stats.compute_nanos.add(nanos);
        wp.compute_nanos += nanos;
        wp.pcache_chunks += chunks;
        lane.close("exec", "task", task_begin_ns, task_args);
        stats.parts.add(1);
    }

    // Drain the remaining EM output writes: a write stall, not leaf-read
    // I/O wait.
    if !pending_writes.is_empty() {
        let ws_t0 = Instant::now();
        lane.begin("exec", "write-stall", NO_ARGS);
        for t in pending_writes {
            t.wait().expect("EM output write failed");
        }
        lane.end("exec", "write-stall");
        let nanos = ws_t0.elapsed().as_nanos() as u64;
        stats.write_stall_nanos.add(nanos);
        wp.write_stall_nanos += nanos;
    }

    if let Some(records) = shared.records {
        records.lock().push((wp, st.ops.take().unwrap_or_default()));
    }
    st.pool.trim(idle_chunk_bound(shared.ctx));
    CHUNK_BUFS.set(st.pool);
}

/// Evaluation environment for one partition.
struct PartEnv<'a> {
    plan: &'a Plan,
    cums: &'a HashMap<u64, CumCoord>,
    /// This partition's fetched leaf buffers, by plan slot.
    leaf_bufs: &'a [Option<Arc<IoBuf>>],
    part: u64,
    part_rows: usize,
    grow0: u64,
    stats: &'a ExecStats,
    /// This worker's lane of the span log (per-chunk op spans ride on
    /// the op timings' timestamps).
    lane: &'a Lane,
}

/// One partition's chunk memo, by plan slot: the current Pcache range's
/// chunks, and the whole-partition ones (`cum.col` and its input), which
/// live until the partition completes. A range that spans the whole
/// partition keeps its chunks with the latter.
struct Memo {
    range: Vec<Option<Rc<Chunk>>>,
    whole: Vec<Option<Rc<Chunk>>>,
    /// The current partition's height.
    part_rows: usize,
}

impl Memo {
    fn new(nslots: usize) -> Memo {
        Memo { range: vec![None; nslots], whole: vec![None; nslots], part_rows: 0 }
    }

    /// The entry of `slot` over `[r0, r1)`.
    fn at(&mut self, slot: usize, r0: usize, r1: usize) -> &mut Option<Rc<Chunk>> {
        if (r0, r1) == (0, self.part_rows) {
            &mut self.whole[slot]
        } else {
            &mut self.range[slot]
        }
    }
}

/// A worker's mutable evaluation state, reused partition to partition.
struct Scratch {
    memo: Memo,
    /// Per-range read counters, by plan slot (paper §3.5.1): every read
    /// of a node's chunk counts down its counter, and the last one
    /// recycles the buffer at once, so the next operation writes into
    /// cache-hot memory.
    remaining: Vec<usize>,
    pool: BufPool,
    /// This worker's per-node op timings over the pass; `Some` only while
    /// the tracer is at [`TraceLevel::Pass`] or above.
    ops: Option<OpMap>,
    #[cfg(debug_assertions)]
    tally: MemoTally,
}

/// Debug builds: the bytes of the current Pcache range's chunks the memo
/// holds, checked at every insertion against what [`Plan::live_row_bytes`]
/// says a range holds at most. Partition-lifetime chunks evaluated for a
/// `cum.col` over a smaller range are not the range's.
#[cfg(debug_assertions)]
#[derive(Default)]
struct MemoTally {
    range: (usize, usize),
    held: usize,
    /// `pcache_step × live_row_bytes`.
    bound: usize,
}

#[cfg(debug_assertions)]
impl MemoTally {
    fn add(&mut self, r0: usize, r1: usize, chunk: &Chunk) {
        if (r0, r1) == self.range {
            self.held += chunk_bytes(chunk);
            assert!(
                self.held <= self.bound,
                "range [{r0}, {r1}) holds {} B of chunks, over the plan's live-set bound of {} B",
                self.held,
                self.bound
            );
        }
    }

    fn sub(&mut self, r0: usize, r1: usize, chunk: &Chunk) {
        if (r0, r1) == self.range {
            self.held -= chunk_bytes(chunk);
        }
    }
}

fn chunk_bytes(chunk: &Chunk) -> usize {
    chunk.rows() * chunk.cols() * chunk.dtype().size()
}

impl Scratch {
    /// Recycle the current range's chunks — with `whole`, the
    /// whole-partition ones too — that nothing else still holds.
    fn recycle(&mut self, whole: bool) {
        let Scratch { memo, pool, .. } = self;
        let nwhole = if whole { memo.whole.len() } else { 0 };
        for rc in memo.range.iter_mut().chain(&mut memo.whole[..nwhole]).filter_map(Option::take) {
            if let Ok(chunk) = Rc::try_unwrap(rc) {
                chunk.recycle(pool);
            }
        }
    }
}

/// Returns the number of Pcache chunk ranges evaluated.
fn process_part(
    shared: &Shared<'_>,
    part: u64,
    leaf_bufs: &[Option<Arc<IoBuf>>],
    st: &mut Scratch,
    sink_accs: &mut [SinkAcc],
    pending_writes: &mut VecDeque<IoTicket>,
    lane: &Lane,
) -> u64 {
    let plan = shared.plan;
    let part_rows = plan.parter.part_rows(part, plan.nrows);
    let grow0 = part * plan.parter.rows_per_part();
    let stats = shared.ctx.stats();
    let env = PartEnv { plan, cums: shared.cums, leaf_bufs, part, part_rows, grow0, stats, lane };
    let mut nchunks = 0u64;

    // Output partition buffers for tall targets (column-major). Every
    // byte is overwritten below (Pcache ranges tile the partition and
    // chains/write_rows cover every column), so we take recycled buffers
    // with unspecified contents instead of paying the allocator's zeroing
    // — on steady-state passes this is the difference between the pass
    // being compute-bound and memset-bound.
    let mut tall_bufs: Vec<IoBuf> = plan
        .talls
        .iter()
        .map(|t| {
            shared
                .ctx
                .part_buf_pool()
                .take_for_overwrite(part_rows * t.node.ncols * t.node.dtype.size())
        })
        .collect();

    st.memo.part_rows = part_rows;
    let step = plan.pcache_step;
    for (r0, r1) in pcache_ranges(part_rows, step) {
        stats.pcache_chunks.add(1);
        nchunks += 1;
        st.remaining.clone_from(&plan.consumers);
        #[cfg(debug_assertions)]
        {
            st.tally.range = (r0, r1);
            st.tally.held = 0;
        }

        for (i, (_, sink)) in plan.sinks.iter().enumerate() {
            match &sink.kind {
                NodeKind::SinkFull { input, .. } | NodeKind::SinkCol { input, .. } => {
                    let c = eval(&env, st, input, r0, r1);
                    sink_accs[i].update(&[&c]);
                    drop(c);
                    consume(&env, st, input, r0, r1);
                }
                NodeKind::SinkGramian { a, b } => {
                    let ca = eval(&env, st, a, r0, r1);
                    let cb = eval(&env, st, b, r0, r1);
                    sink_accs[i].update(&[&ca, &cb]);
                    drop((ca, cb));
                    consume(&env, st, a, r0, r1);
                    consume(&env, st, b, r0, r1);
                }
                NodeKind::SinkGroupBy { data, labels, .. } => {
                    let cd = eval(&env, st, data, r0, r1);
                    let cl = eval(&env, st, labels, r0, r1);
                    sink_accs[i].update(&[&cd, &cl]);
                    drop((cd, cl));
                    consume(&env, st, data, r0, r1);
                    consume(&env, st, labels, r0, r1);
                }
                other => panic!("not a sink: {other:?}"),
            }
        }

        for (ti, t) in plan.talls.iter().enumerate() {
            // A kernel root that nothing else reads writes straight into
            // the tall output buffer — even the root's chunk is skipped.
            let slot = plan.slot(&t.node);
            if st.memo.at(slot, r0, r1).is_none() && st.remaining[slot] == 1 {
                if let Some(chain) = plan.chains.get(&t.node.id) {
                    let t0 = st.ops.is_some().then(Instant::now);
                    let dst = Some(&mut tall_bufs[ti]);
                    run_chain(&env, st, chain, &t.node, r0, r1, dst);
                    trace_op(&env, st, &t.node, t0, r0, r1, true);
                    consume(&env, st, &t.node, r0, r1);
                    continue;
                }
            }
            let c = eval(&env, st, &t.node, r0, r1);
            write_rows(&mut tall_bufs[ti], t.node.dtype, part_rows, r0, &c);
            drop(c);
            consume(&env, st, &t.node, r0, r1);
        }

        // Recycle what this range still holds, such as `cum.col` slices,
        // which are never counted (whole-partition entries persist until
        // the partition completes).
        st.recycle(false);
    }
    st.recycle(true);

    // Publish tall outputs.
    for (state, buf) in shared.talls.iter().zip(tall_bufs) {
        match state {
            TallState::InMem(parts) => parts.lock()[part as usize] = Some(Arc::new(buf)),
            TallState::Em(file) => pending_writes
                .push_back(file.write_part_async(part, buf).expect("EM output submit failed")),
        }
    }

    nchunks
}

/// Copy a chunk into a column-major partition buffer at row offset `r0`.
fn write_rows(
    buf: &mut IoBuf,
    dtype: crate::dtype::DType,
    part_rows: usize,
    r0: usize,
    chunk: &Chunk,
) {
    let rows = chunk.rows();
    // A chunk covering the whole partition has the destination's exact
    // column-major layout: one flat copy instead of a copy per column.
    if r0 == 0 && rows == part_rows {
        buf.as_mut_bytes().copy_from_slice(chunk.as_bytes());
        return;
    }
    crate::dispatch!(dtype, T, {
        let dst = buf.typed_mut::<T>();
        for c in 0..chunk.cols() {
            dst[c * part_rows + r0..c * part_rows + r0 + rows].copy_from_slice(chunk.col::<T>(c));
        }
    });
}

/// The strided in-place view of a chain's base over `[r0, r1)` when the
/// base is a prefetched column-major materialized leaf: `(bytes,
/// col_stride_rows, row_off)` into the partition buffer. The kernel
/// then reads the leaf directly and the executor never copies a base
/// chunk out of it. Row-major leaves and bases outside the prefetch set
/// return `None` and take the Pcache-chunk path.
fn chain_base_stride<'a>(
    env: &PartEnv<'a>,
    base: &Arc<Node>,
    r0: usize,
    r1: usize,
) -> Option<(&'a [u8], usize, usize)> {
    let mat = env.plan.leaf_mat(base)?;
    let (stride, off) = mat.pcache_stride(env.part, r0, r1)?;
    let buf = env.leaf_bufs[env.plan.slot(base)].as_ref()?;
    Some((buf.as_bytes(), stride, off))
}

/// Run the compiled kernel rooted at `node` over `[r0, r1)`. Auxiliary
/// operands, materialized or lazy, are evaluated like any other node;
/// the base is read in place when it is a prefetched column-major leaf
/// and evaluated otherwise. With `dst` — a tall output's partition
/// buffer — the kernel writes its rows there and the root's chunk is
/// never allocated; without, the root's chunk is returned.
fn run_chain(
    env: &PartEnv<'_>,
    st: &mut Scratch,
    chain: &CompiledChain,
    node: &Arc<Node>,
    r0: usize,
    r1: usize,
    dst: Option<&mut IoBuf>,
) -> Option<Rc<Chunk>> {
    let rows = r1 - r0;
    let auxes: Vec<Rc<Chunk>> = chain.aux.iter().map(|a| eval(env, st, a, r0, r1)).collect();
    let in_place = chain_base_stride(env, &chain.base, r0, r1);
    let base = match in_place {
        Some(_) => None,
        None => Some(eval(env, st, &chain.base, r0, r1)),
    };
    let aux_refs: Vec<&Chunk> = auxes.iter().map(|c| c.as_ref()).collect();
    let into_tall = dst.is_some();
    let mut own = None;
    let (out, col_stride, row_off) = match dst {
        Some(buf) => (buf, env.part_rows, r0),
        None => (own.insert(st.pool.take(rows * node.ncols * node.dtype.size())), rows, 0),
    };
    let pool = &mut st.pool;
    match (&base, in_place) {
        (Some(base), _) => chain.kernel.run_into(base, &aux_refs, out, col_stride, row_off, pool),
        (None, Some((bytes, stride, off))) => chain.kernel.run_strided_into(
            bytes, stride, off, rows, node.ncols, &aux_refs, out, col_stride, row_off, pool,
        ),
        (None, None) => unreachable!("a base is read in place or evaluated"),
    }
    drop(aux_refs);
    drop((auxes, base));
    for a in &chain.aux {
        consume(env, st, a, r0, r1);
    }
    consume(env, st, &chain.base, r0, r1);
    if chain.len >= 2 {
        env.stats.fused_chains.add(1);
    }
    env.stats.fused_saved_bytes.add(chain_saved_bytes(chain, node, r0, r1, into_tall));
    own.map(|buf| Rc::new(Chunk::from_iobuf(buf, node.dtype, rows, node.ncols)))
}

/// Chunk bytes a kernel run over `[r0, r1)` never allocated: the chain's
/// interior nodes, plus the root's own chunk when it wrote straight into
/// a tall output.
fn chain_saved_bytes(
    chain: &CompiledChain,
    node: &Node,
    r0: usize,
    r1: usize,
    into_tall: bool,
) -> u64 {
    let root_bytes = if into_tall { (node.ncols * node.dtype.size()) as u64 } else { 0 };
    (r1 - r0) as u64 * (chain.saved_bytes_per_row + root_bytes)
}

/// Account one freshly produced chunk of `node` over `[r0, r1)` (or,
/// with `into_tall`, its direct write into a tall output) to the
/// worker's op timings — *inclusive* of any inputs computed on the way
/// (see [`crate::trace::OpProfile`]) — and emit its per-chunk op span.
/// `t0` is `Some` exactly when the worker keeps op timings.
fn trace_op(
    env: &PartEnv<'_>,
    st: &mut Scratch,
    node: &Node,
    t0: Option<Instant>,
    r0: usize,
    r1: usize,
    into_tall: bool,
) {
    let (Some(ops), Some(t0)) = (st.ops.as_mut(), t0) else { return };
    let chain = env.plan.chains.get(&node.id);
    let e = ops.entry(node.id).or_insert_with(|| OpProfile {
        node_id: node.id,
        label: chain.map_or_else(|| node.label(), |c| c.label.clone()),
        ..OpProfile::default()
    });
    e.chunks += 1;
    let nanos = t0.elapsed().as_nanos() as u64;
    e.nanos += nanos;
    if let Some(c) = chain {
        if c.len >= 2 {
            e.chain_len = c.len as u64;
        }
        e.saved_bytes += chain_saved_bytes(c, node, r0, r1, into_tall);
    }
    env.lane.complete_detail("exec", &e.label, nanos, [("node", node.id), ("", 0)]);
}

/// Count one read of `node`'s chunk over `[r0, r1)`, made by a reader
/// that has already dropped its handle; the read that takes the counter
/// to zero drops the memo entry and recycles its buffer (paper §3.5.1).
/// Every evaluation, sink and tall output calls this once per input edge
/// it read, so a chunk is recycled right after its last reader. A node
/// whose counter is already 0 is not counted (a chain's interior).
fn consume(env: &PartEnv<'_>, st: &mut Scratch, node: &Arc<Node>, r0: usize, r1: usize) {
    // Cumulative columns memoize at partition granularity and must
    // survive until the partition completes.
    if matches!(node.kind, NodeKind::CumCol { .. }) {
        return;
    }
    let slot = env.plan.slot(node);
    let count = &mut st.remaining[slot];
    if *count == 0 {
        return;
    }
    *count -= 1;
    if *count == 0 {
        if let Some(rc) = st.memo.at(slot, r0, r1).take() {
            #[cfg(debug_assertions)]
            st.tally.sub(r0, r1, &rc);
            if let Ok(chunk) = Rc::try_unwrap(rc) {
                chunk.recycle(&mut st.pool);
            }
        }
    }
}

/// Depth-first, memoized evaluation of one node over a Pcache row range.
///
/// While the worker keeps op timings, the time to produce each fresh
/// (non-memoized) chunk accrues to its node — *inclusive* of any inputs
/// computed on the way (see [`crate::trace::OpProfile`]).
fn eval(env: &PartEnv<'_>, st: &mut Scratch, node: &Arc<Node>, r0: usize, r1: usize) -> Rc<Chunk> {
    let slot = env.plan.slot(node);
    if let Some(c) = st.memo.at(slot, r0, r1) {
        return c.clone();
    }
    let t0 = st.ops.is_some().then(Instant::now);
    let chunk = eval_uncached(env, st, node, slot, r0, r1);
    *st.memo.at(slot, r0, r1) = Some(chunk.clone());
    #[cfg(debug_assertions)]
    st.tally.add(r0, r1, &chunk);
    env.stats.node_chunks.add(1);
    env.stats.node_chunk_bytes.add(chunk_bytes(&chunk) as u64);
    trace_op(env, st, node, t0, r0, r1, false);
    chunk
}

/// [`eval`] minus memo and tracing: compute the chunk of `node`, plan
/// slot `slot`, and count the reads of the inputs it used.
fn eval_uncached(
    env: &PartEnv<'_>,
    st: &mut Scratch,
    node: &Arc<Node>,
    slot: usize,
    r0: usize,
    r1: usize,
) -> Rc<Chunk> {
    // Materialized data (leaf / cached / eager-resolved)?
    if let Some(mat) = env.plan.leaf_mat(node) {
        return Rc::new(match &env.leaf_bufs[slot] {
            Some(buf) => mat.pcache_chunk(buf, env.part, r0, r1, &mut st.pool),
            // A leaf outside the prefetch set (a node whose cache another
            // pass installed after this plan was built): degrade to a
            // synchronous read — which still goes through the page cache
            // and the typed SafsError path — instead of panicking.
            None => mat.pcache_chunk(&mat.read_part(env.part), env.part, r0, r1, &mut st.pool),
        });
    }

    // Every element-wise map runs as a compiled kernel (a chain's
    // interior nodes are never evaluated and never allocate chunks).
    if let Some(chain) = env.plan.chains.get(&node.id) {
        return run_chain(env, st, chain, node, r0, r1, None)
            .expect("a kernel without a destination returns its chunk");
    }

    let chunk = match &node.kind {
        NodeKind::Leaf(_) => unreachable!("handled by leaf_mat"),
        NodeKind::Gen(spec) => {
            spec.fill_chunk_as(node.dtype, env.grow0 + r0 as u64, r1 - r0, node.ncols, &mut st.pool)
        }
        NodeKind::Map { op, inputs } => match op {
            MapOp::Unary(_) | MapOp::Binary { .. } | MapOp::Cast(_) => unreachable!(
                "plan-build bug: element-wise map n{} ({}) has no compiled kernel",
                node.id,
                node.label()
            ),
            MapOp::MatMul(b) => {
                let input = eval_input(env, st, &inputs[0], r0, r1);
                ops::matmul_chunk(&input, b, &mut st.pool)
            }
            MapOp::InnerProd { b, f1, f2 } => {
                let input = eval_input(env, st, &inputs[0], r0, r1);
                ops::inner_prod_chunk(ops::SimdLevel::active(), &input, b, *f1, *f2, &mut st.pool)
            }
            MapOp::Select(idx) => {
                let input = eval_input(env, st, &inputs[0], r0, r1);
                ops::select_cols(&input, idx, &mut st.pool)
            }
            MapOp::GroupCols { labels, op, ngroups } => {
                let input = eval_input(env, st, &inputs[0], r0, r1);
                ops::group_cols(&input, labels, *op, *ngroups, &mut st.pool)
            }
            MapOp::Bind => {
                let chunks: Vec<Rc<Chunk>> =
                    inputs.iter().map(|i| eval_input(env, st, i, r0, r1)).collect();
                let refs: Vec<&Chunk> = chunks.iter().map(|c| c.as_ref()).collect();
                ops::bind_cols(&refs, &mut st.pool)
            }
        },
        NodeKind::AggRow { op, input } => {
            let c = eval(env, st, input, r0, r1);
            ops::agg_row(ops::SimdLevel::active(), *op, &c, &mut st.pool)
        }
        NodeKind::CumRow { op, input } => {
            let c = eval(env, st, input, r0, r1);
            ops::cum_row_chunk(*op, &c, &mut st.pool)
        }
        NodeKind::CumCol { op, input } => {
            // Pipeline breaker: evaluate at partition granularity, chain
            // the carry, then slice the requested range.
            let full = match &st.memo.whole[slot] {
                Some(full) => full.clone(),
                None => {
                    let input_full = eval(env, st, input, 0, env.part_rows);
                    let coord = &env.cums[&node.id];
                    // A poisoned chain means another worker failed: unwind
                    // quietly, the pass reports that failure.
                    let carry = coord
                        .wait_carry(env.part)
                        .unwrap_or_else(|p: Poisoned| std::panic::resume_unwind(Box::new(p)));
                    let (out, new_carry) =
                        ops::cum_col_chunk(*op, &input_full, carry.as_deref(), &mut st.pool);
                    coord.publish(env.part, new_carry);
                    let full = Rc::new(out);
                    st.memo.whole[slot] = Some(full.clone());
                    full
                }
            };
            // The input keeps its partition lifetime: never counted.
            if r0 == 0 && r1 == env.part_rows {
                return full;
            }
            return Rc::new(full.slice_rows(r0, r1, &mut st.pool));
        }
        sink @ (NodeKind::SinkFull { .. }
        | NodeKind::SinkCol { .. }
        | NodeKind::SinkGramian { .. }
        | NodeKind::SinkGroupBy { .. }) => {
            panic!("sink node reached tall evaluation: {sink:?}")
        }
    };
    // Every input handle above is dropped: count the reads, one per edge.
    node.for_each_child(|c| consume(env, st, c, r0, r1));
    Rc::new(chunk)
}

/// Evaluate a map input that must be a node.
fn eval_input(
    env: &PartEnv<'_>,
    st: &mut Scratch,
    input: &MapInput,
    r0: usize,
    r1: usize,
) -> Rc<Chunk> {
    match input {
        MapInput::Node(n) => eval(env, st, n, r0, r1),
        other => panic!("first map input must be a matrix, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::exec::test_dags;
    use crate::fm::FM;
    use crate::ops::{BinaryOp, UnaryOp};
    use crate::session::{CtxConfig, ExecMode};
    use crate::trace::TraceLevel;

    /// Idle bytes in the calling thread's chunk-buffer pool.
    fn idle_chunk_bytes() -> usize {
        let pool = CHUNK_BUFS.take();
        let bytes = pool.idle_bytes();
        CHUNK_BUFS.set(pool);
        bytes
    }

    fn ctx(nthreads: usize, mode: ExecMode) -> FlashCtx {
        let cfg = CtxConfig {
            nthreads,
            rows_per_part: 1 << 11,
            pcache_bytes: 16 << 10,
            mode,
            ..CtxConfig::default()
        };
        FlashCtx::with_config(cfg, None)
    }

    #[test]
    fn a_one_partition_pass_runs_on_the_caller() {
        // Four workers asked for, one partition: the pass is worker 0
        // alone, and worker 0 is the calling thread, so the chunk buffers
        // the pass recycled are this thread's.
        CHUNK_BUFS.set(BufPool::new());
        let ctx = ctx(4, ExecMode::CacheFuse);
        let x = FM::runif(&ctx, 1000, 3, 0.0, 1.0, 1);
        assert!(x.unary(UnaryOp::Sqrt).sum().value(&ctx) > 0.0);
        assert!(idle_chunk_bytes() > 0, "the pass left no buffer on the calling thread");
    }

    #[test]
    fn idle_chunk_buffers_stay_under_the_bound_across_mixed_passes() {
        // One worker, so every pass runs on this thread and its pool is
        // the one inspected. Shapes vary in width, dtype and chunk height:
        // Pcache chunks, whole-partition chunks (`MemFuse`, `Eager`,
        // `cum.col`) and rows wide enough to clamp the Pcache step.
        for mode in [ExecMode::CacheFuse, ExecMode::MemFuse, ExecMode::Eager] {
            let ctx = ctx(1, mode);
            let bound = idle_chunk_bound(&ctx);
            for (rows, cols) in [(5000u64, 1usize), (5000, 7), (2500, 90), (3, 2)] {
                let x = FM::rnorm(&ctx, rows, cols, 0.0, 1.0, rows + cols as u64);
                let y = x.binary_scalar(BinaryOp::Mul, 2.0, false).unary(UnaryOp::Abs);
                assert!(y.sum().value(&ctx).is_finite());
                assert_eq!(y.cast(DType::F32).col_sums().to_dense(&ctx).cols(), cols);
                assert_eq!(x.cumsum_col().materialize(&ctx).nrow(), rows);
                assert_eq!(x.crossprod().to_dense(&ctx).rows(), cols);
                // Nine branches, each its own sink, and their cbind: a
                // range of many small chunks, as a GMM E-step has.
                let branches = test_dags::branches(&x, 9);
                let outs = FM::materialize_multi(&ctx, &branches.iter().collect::<Vec<_>>());
                assert_eq!(outs[9].ncol(), 9);
                let idle = idle_chunk_bytes();
                assert!(idle <= bound, "{mode:?} {rows}x{cols}: {idle} B idle, bound {bound}");
            }
        }
    }

    #[test]
    fn last_use_recycling_recomputes_nothing() {
        // A one-byte budget pins the step to the 16-row floor whatever the
        // sizing rule, so this pass evaluates what one that recycled only
        // at range end would: every node's chunk once per range, and not
        // again after its last reader recycled it. Debug builds also check
        // every range's memo against `pcache_step × live_row_bytes`.
        let cfg = CtxConfig {
            nthreads: 1,
            rows_per_part: 1 << 11,
            pcache_bytes: 1,
            trace: TraceLevel::Pass,
            ..CtxConfig::default()
        };
        let ctx = FlashCtx::with_config(cfg, None);
        let x = FM::rnorm(&ctx, 3000, 8, 0.0, 1.0, 5).materialize(&ctx);
        // The node chunks of a pass that recycles only at range end,
        // measured on one.
        for (name, fms, node_chunks) in [
            ("gmm", test_dags::gmm_e_step(&x, 4), 7896),
            ("branches", test_dags::branches(&x, 9), 6956),
        ] {
            ctx.tracer().clear();
            let before = ctx.stats().snapshot();
            FM::materialize_multi(&ctx, &fms.iter().collect::<Vec<_>>());
            let d = before.delta(&ctx.stats().snapshot());
            let passes = ctx.tracer().passes();
            assert_eq!((passes.len(), passes[0].pcache_step, d.pcache_chunks), (1, 16, 128 + 60));
            for op in &passes[0].ops {
                assert_eq!(op.chunks, d.pcache_chunks, "{name}: n{} {}", op.node_id, op.label);
            }
            assert_eq!(d.node_chunks, d.pcache_chunks * passes[0].ops.len() as u64, "{name}");
            assert_eq!(d.node_chunks, node_chunks, "{name}");
        }
    }
}
