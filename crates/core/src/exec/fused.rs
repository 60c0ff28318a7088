//! The fused single-pass engine (paper §3.5).
//!
//! One parallel pass over the I/O partitions materializes every target in
//! the DAG: worker threads claim partitions sequentially, one at a time,
//! from a claim cursor whose shared read-ahead frontier
//! ([`ReadAhead`]) already has the next partitions' leaf reads in flight,
//! stream Pcache chunks depth-first through the operation graph with
//! per-chunk memoization and buffer recycling, fold sink accumulators
//! per partition, and write tall outputs back as whole partitions.
//!
//! Claiming and reading ahead are separate. Every claim, by whichever
//! worker, tops its cursor's frontier up to `workers × (dispatch_batch −
//! 1)` issued partitions beyond the one claimed, so the device queue
//! never drains at a seam between batches, no worker owns partitions it
//! is not computing, and the leaf-partition sets held by a pass — one in
//! compute per worker plus the frontiers — never exceed `nthreads ×
//! dispatch_batch`. In-memory leaves take the same path: their fetch is
//! a ready clone.

use crate::analysis::chains::CompiledChain;
use crate::chunk::{BufPool, Chunk};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::cumcoord::CumCoord;
use crate::exec::plan::Plan;
use crate::exec::{SinkAcc, Target, TargetResult};
use crate::mat::{Layout, PartFetch, ReadAhead, TasMat};
use crate::ops;
use crate::part::pcache_ranges;
use crate::session::{FlashCtx, StorageClass};
use crate::stats::ExecStats;
use crate::trace::{Lane, OpProfile, PassProfile, Timeline, TraceLevel, WorkerProfile};
use flashr_safs::sync::Mutex;
use flashr_safs::{IoBuf, IoTicket, SafsFile, NO_ARGS};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::iter::StepBy;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Per-tall-output shared state.
struct TallState {
    storage: StorageClass,
    file: Option<SafsFile>,
    parts: Mutex<Vec<Option<Arc<IoBuf>>>>,
}

/// Per-node accumulation for op-level tracing. A kernel's root carries
/// its label and, for a chain of ≥ 2 ops, the chain's length and
/// saved-intermediate bytes; the interior nodes it covers never appear
/// (they are never evaluated).
#[derive(Default)]
struct OpAgg {
    label: String,
    chunks: u64,
    nanos: u64,
    chain_len: u64,
    saved_bytes: u64,
}

type OpMap = HashMap<u64, OpAgg>;

/// Trace collection shared by one pass's workers. Only allocated when
/// the context's tracer is at [`TraceLevel::Pass`] or above.
#[derive(Default)]
struct PassAgg {
    workers: Mutex<Vec<WorkerProfile>>,
    ops: Mutex<OpMap>,
    trace_ops: bool,
}

/// The fetches of one partition of every plan leaf, in `Plan::leaves`
/// order.
type LeafFetches = Vec<PartFetch>;

/// One claim cursor: the partitions it dispatches, in order, behind
/// their shared read-ahead frontier.
type Cursor = Mutex<ReadAhead<StepBy<Range<u64>>, LeafFetches>>;

/// Everything the worker threads share.
struct Shared<'a> {
    ctx: &'a FlashCtx,
    plan: &'a Plan,
    talls: &'a [TallState],
    cums: &'a HashMap<u64, CumCoord>,
    /// One cursor per NUMA node class under affine claiming (cursor `c`
    /// dispatches partitions `c, c + nnodes, …`), else a single one over
    /// every partition.
    cursors: Vec<Cursor>,
    /// Per-partition sink partials, folded in partition order at
    /// finalize so reductions are bit-deterministic regardless of which
    /// worker claimed which partition (thread-finish order is not).
    merged: Mutex<Vec<Option<Vec<SinkAcc>>>>,
    trace: Option<&'a PassAgg>,
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
    let agg = tracer
        .enabled(TraceLevel::Pass)
        .then(|| PassAgg { trace_ops: tracer.enabled(TraceLevel::Op), ..PassAgg::default() });
    // Snapshot page-cache counters so the pass profile carries deltas.
    let cache_before = agg.as_ref().and_then(|_| ctx.safs().map(|s| s.stats_snapshot().cache));

    // Prepare tall outputs.
    let tall_states: Vec<TallState> = plan
        .talls
        .iter()
        .map(|t| {
            let nparts = plan.nparts as usize;
            match t.storage {
                StorageClass::InMem => TallState {
                    storage: t.storage,
                    file: None,
                    parts: Mutex::new(vec![None; nparts]),
                },
                StorageClass::Em => {
                    let safs = ctx.safs().expect("EM output requires a SAFS runtime");
                    let elem = t.node.dtype.size() as u64;
                    let part_bytes = plan.parter.rows_per_part() * t.node.ncols as u64 * elem;
                    let total = plan.nrows * t.node.ncols as u64 * elem;
                    let file = safs
                        .create_bytes(&safs.unique_name("fm"), part_bytes, total)
                        .expect("EM output create failed");
                    file.set_delete_on_drop(true);
                    TallState {
                        storage: t.storage,
                        file: Some(file),
                        parts: Mutex::new(Vec::new()),
                    }
                }
            }
        })
        .collect();

    let cums: HashMap<u64, CumCoord> =
        plan.cum_nodes.iter().map(|n| (n.id, CumCoord::default())).collect();

    let nparts = plan.nparts;
    let nthreads = ctx.cfg().nthreads.min(nparts as usize).max(1);
    let nnodes = ctx.cfg().numa_nodes.min(nparts as usize).max(1);
    // NUMA-affine claiming needs a worker per node class, and cum carries
    // need globally sequential dispatch.
    let use_affinity = plan.cum_nodes.is_empty() && nthreads >= nnodes && nnodes > 1;

    // Read-ahead depth: each worker brings `dispatch_batch − 1` issued
    // partitions to its home cursor's frontier, which with the one it
    // computes bounds the pass at `nthreads × dispatch_batch` partition
    // sets. Nothing is read ahead of an all-in-memory pass.
    let ahead = match ctx.safs() {
        Some(safs) if plan.leaves.iter().any(|(_, m)| m.is_em()) => {
            safs.dispatch_batch().saturating_sub(1)
        }
        _ => 0,
    };
    let ncursors = if use_affinity { nnodes } else { 1 };
    let cursors = (0..ncursors)
        .map(|c| {
            let homed = (0..nthreads).filter(|tid| tid % ncursors == c).count();
            Mutex::new(ReadAhead::new((c as u64..nparts).step_by(ncursors), homed * ahead))
        })
        .collect();

    let shared = Shared {
        ctx,
        plan: &plan,
        talls: &tall_states,
        cums: &cums,
        cursors,
        merged: Mutex::new((0..plan.nparts as usize).map(|_| None).collect()),
        trace: agg.as_ref(),
        log: tracer.log(),
        pass_id,
    };

    // The whole parallel section is one "pass" span on the coordinator
    // lane; the critical-path analyzer windows task spans by it.
    let coord = shared.log.named_lane("coordinator");
    let pass_args = [("pass", pass_id), ("nparts", nparts)];
    let pass_begin_ns = coord.open("exec", "pass", pass_args);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|tid| {
                let shared = &shared;
                // Workers carry stable names so timeline lanes are reused
                // across passes (and SAFS cache spans taken on a worker
                // thread land on the same lane as its task spans).
                std::thread::Builder::new()
                    .name(format!("flashr-w{tid}"))
                    .spawn_scoped(scope, move || worker(tid, shared))
                    .expect("spawn worker thread")
            })
            .collect();
        // Join every worker, then re-raise the first failure with its own
        // payload: the scope's implicit join would replace a message like
        // "group label 5 outside [0, 2)" with "a scoped thread panicked".
        let failed: Vec<_> = handles.into_iter().filter_map(|h| h.join().err()).collect();
        if let Some(payload) = failed.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
    });
    coord.close("exec", "pass", pass_begin_ns, pass_args);

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
        let mat = match state.storage {
            StorageClass::InMem => {
                let parts: Vec<Arc<IoBuf>> = state
                    .parts
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
            StorageClass::Em => TasMat::from_em_file(
                plan.nrows,
                t.node.ncols,
                t.node.dtype,
                Layout::ColMajor,
                plan.parter,
                state.file.expect("EM state without file"),
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

    if let Some(agg) = agg {
        let mut workers = agg.workers.into_inner();
        workers.sort_by_key(|w| w.tid);
        let mut ops: Vec<OpProfile> = agg
            .ops
            .into_inner()
            .into_iter()
            .map(|(node_id, a)| OpProfile {
                node_id,
                label: a.label,
                chunks: a.chunks,
                nanos: a.nanos,
                chain_len: a.chain_len,
                saved_bytes: a.saved_bytes,
            })
            .collect();
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
                .map(|before| before.delta(&ctx.safs().expect("had safs").stats_snapshot().cache))
                .unwrap_or_default(),
            workers,
            ops,
            simd: ops::simd::SimdLevel::active().name(),
        });
    }

    results.into_iter().map(|r| r.expect("target produced no result")).collect()
}

/// Claim the next partition — from the worker's own NUMA node's cursor
/// while it has any, then from the others' — together with its leaf
/// fetches, topping that cursor's frontier up under its lock. The flag
/// says whether the partition came from the worker's own node.
fn claim(shared: &Shared<'_>, my_node: usize) -> Option<(u64, LeafFetches, bool)> {
    let leaves = &shared.plan.leaves;
    let ncursors = shared.cursors.len();
    (0..ncursors).find_map(|offset| {
        let cursor = &shared.cursors[(my_node + offset) % ncursors];
        let (part, fetches) = cursor.lock().claim(|part| {
            leaves
                .iter()
                .map(|(nid, mat)| {
                    mat.try_fetch_part(part).unwrap_or_else(|e| {
                        panic!("read submit for partition {part} of leaf n{nid} failed: {e}")
                    })
                })
                .collect()
        })?;
        Some((part, fetches, offset == 0))
    })
}

fn worker(tid: usize, shared: &Shared<'_>) {
    let my_node = tid % shared.cursors.len();
    let mut pool = BufPool::new();
    let mut pending_writes: VecDeque<IoTicket> = VecDeque::new();
    let max_pending = shared.ctx.cfg().max_pending_writes.max(1);
    let stats = shared.ctx.stats();
    // `wp` is None unless the tracer is at `pass` level; the time
    // breakdown itself is always taken (two clock reads per phase) and
    // feeds the `ExecStats` nanos counters.
    let mut wp = shared.trace.map(|_| WorkerProfile { tid, ..WorkerProfile::default() });
    // This worker's lane of the span log, resolved once by thread name.
    // `begin`/`end` record at `FLASHR_TRACE=timeline` only.
    let lane = shared.log.lane();
    let lane = lane.as_ref();

    while let Some((part, fetches, local)) = claim(shared, my_node) {
        if local {
            stats.local_parts.add(1);
        } else {
            stats.remote_parts.add(1);
        }
        if let Some(wp) = wp.as_mut() {
            wp.parts += 1;
            if local {
                wp.local_parts += 1;
            } else {
                wp.remote_parts += 1;
            }
        }

        let task_args = [("part", part), ("pass", shared.pass_id)];
        let task_begin_ns = lane.open("exec", "task", task_args);
        // Bound the in-flight writes: wait for the *oldest* ticket
        // only, so the remaining slots keep streaming instead of
        // stalling the worker behind every outstanding write.
        if pending_writes.len() >= max_pending {
            let ws_t0 = Instant::now();
            lane.begin("exec", "write-stall", NO_ARGS);
            while pending_writes.len() >= max_pending {
                let oldest = pending_writes.pop_front().expect("checked non-empty");
                oldest.wait().expect("EM output write failed");
            }
            lane.end("exec", "write-stall");
            let nanos = ws_t0.elapsed().as_nanos() as u64;
            stats.write_stall_nanos.add(nanos);
            if let Some(wp) = wp.as_mut() {
                wp.write_stall_nanos += nanos;
            }
        }
        let io_t0 = Instant::now();
        lane.begin("exec", "io-wait", NO_ARGS);
        let leaf_bufs: HashMap<u64, Arc<IoBuf>> = shared
            .plan
            .leaves
            .iter()
            .zip(fetches)
            .map(|((nid, _), fetch)| {
                let buf = fetch.try_wait().unwrap_or_else(|e| {
                    panic!("read of partition {part} of leaf n{nid} failed: {e}")
                });
                (*nid, buf)
            })
            .collect();
        lane.end("exec", "io-wait");
        let nanos = io_t0.elapsed().as_nanos() as u64;
        stats.io_wait_nanos.add(nanos);
        if let Some(wp) = wp.as_mut() {
            wp.io_wait_nanos += nanos;
        }
        let compute_t0 = Instant::now();
        lane.begin("exec", "compute", NO_ARGS);
        // Fresh accumulators per partition: partials deposit into the
        // partition's slot and fold in partition order at finalize,
        // keeping reductions independent of worker scheduling.
        let mut sink_accs: Vec<SinkAcc> =
            shared.plan.sinks.iter().map(|(_, n)| SinkAcc::new_for(n)).collect();
        let chunks = process_part(
            shared,
            part,
            &leaf_bufs,
            &mut pool,
            &mut sink_accs,
            &mut pending_writes,
            lane,
        );
        if !sink_accs.is_empty() {
            shared.merged.lock()[part as usize] = Some(sink_accs);
        }
        lane.end("exec", "compute");
        let nanos = compute_t0.elapsed().as_nanos() as u64;
        stats.compute_nanos.add(nanos);
        if let Some(wp) = wp.as_mut() {
            wp.compute_nanos += nanos;
            wp.pcache_chunks += chunks;
        }
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
        if let Some(wp) = wp.as_mut() {
            wp.write_stall_nanos += nanos;
        }
    }

    if let (Some(agg), Some(wp)) = (shared.trace, wp) {
        agg.workers.lock().push(wp);
    }
}

/// Evaluation environment for one partition.
struct PartEnv<'a> {
    plan: &'a Plan,
    cums: &'a HashMap<u64, CumCoord>,
    leaf_bufs: &'a HashMap<u64, Arc<IoBuf>>,
    part: u64,
    part_rows: usize,
    grow0: u64,
    stats: &'a ExecStats,
    /// Per-node accumulation; `Some` only at `FLASHR_TRACE=op`.
    op_trace: Option<&'a RefCell<OpMap>>,
    /// This worker's lane of the span log (per-chunk op spans ride on
    /// the op-trace timestamps).
    lane: &'a Lane,
}

type Memo = HashMap<(u64, usize, usize), Rc<Chunk>>;

/// Returns the number of Pcache chunk ranges evaluated.
fn process_part(
    shared: &Shared<'_>,
    part: u64,
    leaf_bufs: &HashMap<u64, Arc<IoBuf>>,
    pool: &mut BufPool,
    sink_accs: &mut [SinkAcc],
    pending_writes: &mut VecDeque<IoTicket>,
    lane: &Lane,
) -> u64 {
    let plan = shared.plan;
    let part_rows = plan.parter.part_rows(part, plan.nrows);
    let grow0 = part * plan.parter.rows_per_part();
    let op_cell = shared.trace.filter(|agg| agg.trace_ops).map(|_| RefCell::new(OpMap::new()));
    let stats = shared.ctx.stats();
    let env = PartEnv {
        plan,
        cums: shared.cums,
        leaf_bufs,
        part,
        part_rows,
        grow0,
        stats,
        op_trace: op_cell.as_ref(),
        lane,
    };
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

    let mut memo: Memo = HashMap::new();
    let step = plan.pcache_step;
    for (r0, r1) in pcache_ranges(part_rows, step) {
        stats.pcache_chunks.add(1);
        nchunks += 1;
        // Per-range consumer counters (paper §3.5.1): once every consumer
        // of a node's chunk has run, the buffer recycles immediately so
        // the next operation writes into cache-hot memory.
        let mut remaining = plan.consumers.clone();

        for (i, (_, sink)) in plan.sinks.iter().enumerate() {
            match &sink.kind {
                NodeKind::SinkFull { input, .. } | NodeKind::SinkCol { input, .. } => {
                    let c = eval(&env, &mut memo, &mut remaining, pool, input, r0, r1);
                    sink_accs[i].update(&[&c]);
                    drop(c);
                    consume(&mut memo, &mut remaining, pool, input, r0, r1);
                }
                NodeKind::SinkGramian { a, b } => {
                    let ca = eval(&env, &mut memo, &mut remaining, pool, a, r0, r1);
                    let cb = eval(&env, &mut memo, &mut remaining, pool, b, r0, r1);
                    sink_accs[i].update(&[&ca, &cb]);
                    drop((ca, cb));
                    consume(&mut memo, &mut remaining, pool, a, r0, r1);
                    consume(&mut memo, &mut remaining, pool, b, r0, r1);
                }
                NodeKind::SinkGroupBy { data, labels, .. } => {
                    let cd = eval(&env, &mut memo, &mut remaining, pool, data, r0, r1);
                    let cl = eval(&env, &mut memo, &mut remaining, pool, labels, r0, r1);
                    sink_accs[i].update(&[&cd, &cl]);
                    drop((cd, cl));
                    consume(&mut memo, &mut remaining, pool, data, r0, r1);
                    consume(&mut memo, &mut remaining, pool, labels, r0, r1);
                }
                other => panic!("not a sink: {other:?}"),
            }
        }

        for (ti, t) in plan.talls.iter().enumerate() {
            // A kernel root that nothing else reads writes straight into
            // the tall output buffer — even the root's chunk is skipped.
            if !memo.contains_key(&(t.node.id, r0, r1))
                && remaining.get(&t.node.id).copied() == Some(1)
            {
                if let Some(chain) = plan.chains.get(&t.node.id) {
                    let t0 = env.op_trace.map(|_| Instant::now());
                    let dst = Some(&mut tall_bufs[ti]);
                    run_chain(&env, &mut memo, &mut remaining, pool, chain, &t.node, r0, r1, dst);
                    trace_op(&env, &t.node, t0, r0, r1, true);
                    consume(&mut memo, &mut remaining, pool, &t.node, r0, r1);
                    continue;
                }
            }
            let c = eval(&env, &mut memo, &mut remaining, pool, &t.node, r0, r1);
            write_rows(&mut tall_bufs[ti], t.node.dtype, part_rows, r0, &c);
            drop(c);
            consume(&mut memo, &mut remaining, pool, &t.node, r0, r1);
        }

        // Recycle this range's intermediates (full-partition entries for
        // cum nodes persist until the partition completes).
        let keys: Vec<_> = memo
            .keys()
            .filter(|(_, a, b)| (*a, *b) == (r0, r1) && !(r0 == 0 && r1 == part_rows))
            .copied()
            .collect();
        for k in keys {
            if let Some(rc) = memo.remove(&k) {
                if let Ok(chunk) = Rc::try_unwrap(rc) {
                    chunk.recycle(pool);
                }
            }
        }
    }

    // Drain everything else (covers the full-partition entries).
    for (_, rc) in memo.drain() {
        if let Ok(chunk) = Rc::try_unwrap(rc) {
            chunk.recycle(pool);
        }
    }

    // Publish tall outputs.
    for (ti, buf) in tall_bufs.into_iter().enumerate() {
        match shared.talls[ti].storage {
            StorageClass::InMem => {
                shared.talls[ti].parts.lock()[part as usize] = Some(Arc::new(buf));
            }
            StorageClass::Em => {
                let file = shared.talls[ti].file.as_ref().expect("EM state without file");
                pending_writes
                    .push_back(file.write_part_async(part, buf).expect("EM output submit failed"));
            }
        }
    }

    // Merge this partition's op timings into the pass aggregate.
    if let (Some(agg), Some(cell)) = (shared.trace, op_cell) {
        let mut ops = agg.ops.lock();
        for (id, a) in cell.into_inner() {
            let e = ops.entry(id).or_insert_with(|| OpAgg { label: a.label, ..OpAgg::default() });
            e.chunks += a.chunks;
            e.nanos += a.nanos;
            e.chain_len = e.chain_len.max(a.chain_len);
            e.saved_bytes += a.saved_bytes;
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
    let buf = env.leaf_bufs.get(&base.id)?;
    Some((buf.as_bytes(), stride, off))
}

/// Run the compiled kernel rooted at `node` over `[r0, r1)`. Auxiliary
/// operands, materialized or lazy, are evaluated like any other node;
/// the base is read in place when it is a prefetched column-major leaf
/// and evaluated otherwise. With `dst` — a tall output's partition
/// buffer — the kernel writes its rows there and the root's chunk is
/// never allocated; without, the root's chunk is returned.
#[allow(clippy::too_many_arguments)]
fn run_chain(
    env: &PartEnv<'_>,
    memo: &mut Memo,
    remaining: &mut HashMap<u64, usize>,
    pool: &mut BufPool,
    chain: &CompiledChain,
    node: &Arc<Node>,
    r0: usize,
    r1: usize,
    dst: Option<&mut IoBuf>,
) -> Option<Rc<Chunk>> {
    let rows = r1 - r0;
    let auxes: Vec<Rc<Chunk>> =
        chain.aux.iter().map(|a| eval(env, memo, remaining, pool, a, r0, r1)).collect();
    let aux_refs: Vec<&Chunk> = auxes.iter().map(|c| c.as_ref()).collect();
    let into_tall = dst.is_some();
    let mut own = None;
    let (out, col_stride, row_off) = match dst {
        Some(buf) => (buf, env.part_rows, r0),
        None => (own.insert(pool.take(rows * node.ncols * node.dtype.size())), rows, 0),
    };
    if let Some((bytes, stride, off)) = chain_base_stride(env, &chain.base, r0, r1) {
        chain.kernel.run_strided_into(
            bytes, stride, off, rows, node.ncols, &aux_refs, out, col_stride, row_off, pool,
        );
    } else {
        let base = eval(env, memo, remaining, pool, &chain.base, r0, r1);
        chain.kernel.run_into(&base, &aux_refs, out, col_stride, row_off, pool);
    }
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
/// with `into_tall`, its direct write into a tall output) to the op
/// trace — *inclusive* of any inputs computed on the way (see
/// [`crate::trace::OpProfile`]) — and emit its per-chunk op span. `t0`
/// is `Some` exactly when op tracing is on.
fn trace_op(
    env: &PartEnv<'_>,
    node: &Node,
    t0: Option<Instant>,
    r0: usize,
    r1: usize,
    into_tall: bool,
) {
    let (Some(cell), Some(t0)) = (env.op_trace, t0) else { return };
    let mut ops = cell.borrow_mut();
    let chain = env.plan.chains.get(&node.id);
    let e = ops.entry(node.id).or_insert_with(|| OpAgg {
        label: chain.map_or_else(|| node.label(), |c| c.label.clone()),
        ..OpAgg::default()
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

/// Decrement a node's per-range consumer counter; when it reaches zero,
/// drop the memo entry and recycle its buffer (paper §3.5.1).
fn consume(
    memo: &mut Memo,
    remaining: &mut HashMap<u64, usize>,
    pool: &mut BufPool,
    node: &Arc<Node>,
    r0: usize,
    r1: usize,
) {
    // Cumulative columns memoize at partition granularity and must
    // survive until the partition completes.
    if matches!(node.kind, NodeKind::CumCol { .. }) {
        return;
    }
    if let Some(count) = remaining.get_mut(&node.id) {
        *count = count.saturating_sub(1);
        if *count == 0 {
            if let Some(rc) = memo.remove(&(node.id, r0, r1)) {
                if let Ok(chunk) = Rc::try_unwrap(rc) {
                    chunk.recycle(pool);
                }
            }
        }
    }
}

/// Depth-first, memoized evaluation of one node over a Pcache row range.
///
/// When op tracing is on, the time to produce each fresh (non-memoized)
/// chunk accrues to its node — *inclusive* of any inputs computed on the
/// way (see [`crate::trace::OpProfile`]).
fn eval(
    env: &PartEnv<'_>,
    memo: &mut Memo,
    remaining: &mut HashMap<u64, usize>,
    pool: &mut BufPool,
    node: &Arc<Node>,
    r0: usize,
    r1: usize,
) -> Rc<Chunk> {
    let key = (node.id, r0, r1);
    if let Some(c) = memo.get(&key) {
        return c.clone();
    }
    let t0 = env.op_trace.map(|_| Instant::now());
    let chunk = eval_uncached(env, memo, remaining, pool, node, r0, r1);
    env.stats.node_chunks.add(1);
    env.stats.node_chunk_bytes.add((chunk.rows() * chunk.cols() * chunk.dtype().size()) as u64);
    trace_op(env, node, t0, r0, r1, false);
    chunk
}

/// [`eval`] minus memo hit and tracing: compute the chunk.
fn eval_uncached(
    env: &PartEnv<'_>,
    memo: &mut Memo,
    remaining: &mut HashMap<u64, usize>,
    pool: &mut BufPool,
    node: &Arc<Node>,
    r0: usize,
    r1: usize,
) -> Rc<Chunk> {
    let key = (node.id, r0, r1);
    // Materialized data (leaf / cached / eager-resolved)?
    if let Some(mat) = env.plan.leaf_mat(node) {
        let chunk = match env.leaf_bufs.get(&node.id) {
            Some(buf) => Rc::new(mat.pcache_chunk(buf, env.part, r0, r1, pool)),
            // A leaf outside the prefetch set (e.g. discovered through a
            // rewrite the planner didn't anticipate): degrade to a
            // synchronous read — which still goes through the page cache
            // and the typed SafsError path — instead of panicking.
            None => {
                let buf = mat.read_part(env.part);
                Rc::new(mat.pcache_chunk(&buf, env.part, r0, r1, pool))
            }
        };
        memo.insert(key, chunk.clone());
        return chunk;
    }

    // Every element-wise map runs as a compiled kernel (a chain's
    // interior nodes are never evaluated and never allocate chunks).
    if let Some(chain) = env.plan.chains.get(&node.id) {
        let out = run_chain(env, memo, remaining, pool, chain, node, r0, r1, None)
            .expect("a kernel without a destination returns its chunk");
        memo.insert(key, out.clone());
        return out;
    }

    let chunk = match &node.kind {
        NodeKind::Leaf(_) => unreachable!("handled by leaf_mat"),
        NodeKind::Gen(spec) => Rc::new(spec.fill_chunk_as(
            node.dtype,
            env.grow0 + r0 as u64,
            r1 - r0,
            node.ncols,
            pool,
        )),
        NodeKind::Map { op, inputs } => {
            let out = match op {
                MapOp::Unary(_) | MapOp::Binary { .. } | MapOp::Cast(_) => unreachable!(
                    "plan-build bug: element-wise map n{} ({}) has no compiled kernel",
                    node.id,
                    node.label()
                ),
                MapOp::MatMul(b) => {
                    let input = eval_input(env, memo, remaining, pool, &inputs[0], r0, r1);
                    ops::matmul_chunk(&input, b, pool)
                }
                MapOp::InnerProd { b, f1, f2 } => {
                    let input = eval_input(env, memo, remaining, pool, &inputs[0], r0, r1);
                    ops::inner_prod_chunk(&input, b, *f1, *f2, pool)
                }
                MapOp::Select(idx) => {
                    let input = eval_input(env, memo, remaining, pool, &inputs[0], r0, r1);
                    ops::select_cols(&input, idx, pool)
                }
                MapOp::GroupCols { labels, op, ngroups } => {
                    let input = eval_input(env, memo, remaining, pool, &inputs[0], r0, r1);
                    ops::group_cols(&input, labels, *op, *ngroups, pool)
                }
                MapOp::Bind => {
                    let chunks: Vec<Rc<Chunk>> = inputs
                        .iter()
                        .map(|i| eval_input(env, memo, remaining, pool, i, r0, r1))
                        .collect();
                    let refs: Vec<&Chunk> = chunks.iter().map(|c| c.as_ref()).collect();
                    ops::bind_cols(&refs, pool)
                }
            };
            Rc::new(out)
        }
        NodeKind::AggRow { op, input } => {
            let c = eval(env, memo, remaining, pool, input, r0, r1);
            Rc::new(ops::agg_row(*op, &c, pool))
        }
        NodeKind::CumRow { op, input } => {
            let c = eval(env, memo, remaining, pool, input, r0, r1);
            Rc::new(ops::cum_row_chunk(*op, &c, pool))
        }
        NodeKind::CumCol { op, input } => {
            // Pipeline breaker: evaluate at partition granularity, chain
            // the carry, then slice the requested range.
            let full_key = (node.id, 0usize, env.part_rows);
            if !memo.contains_key(&full_key) {
                let input_full = eval(env, memo, remaining, pool, input, 0, env.part_rows);
                let coord = &env.cums[&node.id];
                let carry = coord.wait_carry(env.part);
                let (out, new_carry) = ops::cum_col_chunk(*op, &input_full, carry.as_deref(), pool);
                coord.publish(env.part, new_carry);
                memo.insert(full_key, Rc::new(out));
            }
            let full = memo.get(&full_key).expect("just inserted").clone();
            if r0 == 0 && r1 == env.part_rows {
                return full; // already memoized under full_key == key
            }
            Rc::new(full.slice_rows(r0, r1, pool))
        }
        sink @ (NodeKind::SinkFull { .. }
        | NodeKind::SinkCol { .. }
        | NodeKind::SinkGramian { .. }
        | NodeKind::SinkGroupBy { .. }) => {
            panic!("sink node reached tall evaluation: {sink:?}")
        }
    };
    memo.insert(key, chunk.clone());
    chunk
}

/// Evaluate a map input that must be a node.
fn eval_input(
    env: &PartEnv<'_>,
    memo: &mut Memo,
    remaining: &mut HashMap<u64, usize>,
    pool: &mut BufPool,
    input: &MapInput,
    r0: usize,
    r1: usize,
) -> Rc<Chunk> {
    match input {
        MapInput::Node(n) => eval(env, memo, remaining, pool, n, r0, r1),
        other => panic!("first map input must be a matrix, got {other:?}"),
    }
}
