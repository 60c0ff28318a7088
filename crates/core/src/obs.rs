//! Persistent observability: the profile history store.
//!
//! When `FLASHR_PROFILE_DIR` names a directory, every
//! [`crate::exec::materialize`] appends one compact JSONL record there:
//! the plan's structural fingerprint, the cost model's estimate, every
//! optimizer decision with predicted and actual bytes, the
//! critical-path verdict with its per-category nanos, the exec/io/cache
//! counter deltas, and the host stamp (cpus, workers, NUMA nodes,
//! page-cache capacity, build profile, SIMD level, storage backend
//! flavor, shard count).
//!
//! The store is the feedback asset the rest of this layer consumes:
//! [`crate::analysis::calibrate`] fits per-category throughput
//! constants from it at context build, and the `flashr-prof` binary
//! renders trajectory tables and run-to-run diffs over it.
//!
//! Costs nothing when the env var is unset (one `var_os` probe per
//! materialization, no allocation). When set, one record is one
//! `String` built with [`crate::json::Writer`] and one appending write;
//! a per-file byte cap bounds the store, with overflow counted in
//! [`dropped_records`] instead of growing without bound.

use crate::analysis::cost::CostEstimate;
use crate::analysis::optimize::Decision;
use crate::dag::{MapOp, Node, NodeKind};
use crate::exec::Target;
use crate::json;
use crate::session::FlashCtx;
use crate::stats::ExecStatsSnapshot;
use crate::trace::critical::WallAttribution;
use flashr_safs::IoStatsSnapshot;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-run file cap. A run whose file reaches this stops appending and
/// counts [`dropped_records`] instead (an iterative algorithm can
/// materialize tens of thousands of times).
pub const MAX_STORE_FILE_BYTES: u64 = 32 << 20;

static DROPPED: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RUN_ID: OnceLock<String> = OnceLock::new();

/// The store directory: `FLASHR_PROFILE_DIR`, when set and non-empty
/// (unset disables the store entirely).
pub use crate::env::profile_dir as store_dir;

/// Whether the profile store is enabled for this process right now.
pub fn enabled() -> bool {
    store_dir().is_some()
}

/// Records this process failed to append (file cap reached or I/O
/// error). Monotonic; never reset.
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// This process's run id — the store file name stem (`<run>.jsonl`) and
/// the `"run"` field of every record it writes. Stable for the process
/// lifetime.
pub fn run_id() -> &'static str {
    RUN_ID.get_or_init(|| {
        let ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        format!("run-{}-{ms}", std::process::id())
    })
}

/// Structural fingerprint of a target set: a recursive, node-id-free
/// hash over shapes, dtypes and operator labels, so the same program
/// shape yields the same fingerprint in every process (leaves hash by
/// shape and storage class, not identity). Built on the unkeyed
/// `DefaultHasher`, which is deterministic across runs of one build.
pub fn plan_fingerprint(targets: &[Target]) -> u64 {
    let mut memo: HashMap<u64, u64> = HashMap::new();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    targets.len().hash(&mut h);
    for t in targets {
        let (tag, node) = match t {
            Target::Sink(n) => (0u8, n),
            Target::Tall { node, .. } => (1u8, node),
        };
        tag.hash(&mut h);
        node_fingerprint(node, &mut memo).hash(&mut h);
    }
    h.finish()
}

fn node_fingerprint(node: &Arc<Node>, memo: &mut HashMap<u64, u64>) -> u64 {
    if let Some(&f) = memo.get(&node.id) {
        return f;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.label().hash(&mut h);
    node.nrows.hash(&mut h);
    node.ncols.hash(&mut h);
    node.dtype.hash(&mut h);
    if !node.is_effective_leaf() {
        let children = node.children();
        children.len().hash(&mut h);
        for c in children {
            node_fingerprint(c, memo).hash(&mut h);
        }
    }
    let f = h.finish();
    memo.insert(node.id, f);
    f
}

/// Coarse operator class of a plan, the key the calibration loop prices
/// compute throughput under: `"gemm"` when any reachable node is a
/// crossprod / matmul / inner-product (those passes re-scan a tall
/// operand), `"stream"` otherwise.
pub fn op_class(targets: &[Target]) -> &'static str {
    let mut stack: Vec<Arc<Node>> = targets
        .iter()
        .map(|t| match t {
            Target::Sink(n) | Target::Tall { node: n, .. } => n.clone(),
        })
        .collect();
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id) {
            continue;
        }
        match &node.kind {
            NodeKind::SinkGramian { .. }
            | NodeKind::Map { op: MapOp::MatMul(_) | MapOp::InnerProd { .. }, .. } => {
                return "gemm";
            }
            _ => {}
        }
        if !node.is_effective_leaf() {
            for c in node.children() {
                stack.push(c.clone());
            }
        }
    }
    "stream"
}

/// The `"host"` stamp: machine and configuration facts needed to match
/// records across runs and interpret absolute throughput. The single
/// source of truth — bench artifacts embed the same JSON via
/// `flashr_bench::host_section_json`, so the store and
/// `BENCH_*.json` agree on the full fingerprint.
pub fn host_json(ctx: &FlashCtx) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let (backend, shards, cache) = match ctx.safs() {
        Some(s) => (s.backend_kind().as_str(), s.nshards(), s.page_cache_capacity()),
        None => ("none", 0, 0),
    };
    json::object(|w| {
        w.key("cpus").u64(cpus as u64);
        w.key("workers").u64(ctx.cfg().nthreads as u64);
        w.key("numa_nodes").u64(ctx.cfg().numa_nodes as u64);
        w.key("page_cache_capacity_bytes").u64(cache);
        w.key("build_profile").str(if cfg!(debug_assertions) { "debug" } else { "release" });
        w.key("simd").str(flashr_linalg::SimdLevel::active().name());
        w.key("backend").str(backend);
        w.key("shards").u64(shards as u64);
    })
}

/// Everything one materialization hands the store.
pub(crate) struct Record<'a> {
    pub targets: &'a [Target],
    pub cost: &'a CostEstimate,
    pub decisions: &'a [Decision],
    pub verdict: &'a WallAttribution,
    pub exec_delta: &'a ExecStatsSnapshot,
    pub io_delta: Option<&'a IoStatsSnapshot>,
    pub wall_nanos: u64,
}

/// Append one record for a finished materialization. No-op when the
/// store is disabled.
pub(crate) fn record(ctx: &FlashCtx, rec: &Record<'_>) {
    let Some(dir) = store_dir() else { return };
    let line = render_record(ctx, rec);
    append_line(&dir, &line);
}

fn render_record(ctx: &FlashCtx, rec: &Record<'_>) -> String {
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = json::object(|w| {
        w.key("v").u64(1);
        w.key("run").str(run_id());
        w.key("seq").u64(SEQ.fetch_add(1, Ordering::Relaxed));
        w.key("ts_ms").u64(ts_ms);
        w.key("label").str(&crate::env::profile_label());
        w.key("fingerprint").str(&format!("{:016x}", plan_fingerprint(rec.targets)));
        w.key("op_class").str(op_class(rec.targets));
        w.key("mode").str(ctx.cfg().mode.name());
        w.key("cost_optimize").bool(ctx.cfg().cost_optimize);
        w.key("calibrate").bool(ctx.cfg().calibrate);
        w.key("host").raw(&host_json(ctx));

        // Flat summary: what the calibration loader reads.
        let io = rec.io_delta.copied().unwrap_or_default();
        w.key("summary").obj(|w| {
            w.key("wall_nanos").u64(rec.wall_nanos);
            w.key("sum_read_bytes").u64(io.read_bytes);
            w.key("sum_read_nanos").u64(io.read_nanos);
            w.key("sum_write_bytes").u64(io.write_bytes);
            w.key("sum_write_nanos").u64(io.write_nanos);
            w.key("sum_chunk_bytes").u64(rec.exec_delta.node_chunk_bytes);
            w.key("sum_compute_nanos").u64(rec.exec_delta.compute_nanos);
            w.key("sum_pred_read_bytes").u64(rec.cost.device_read_bytes);
            w.key("sum_pred_read_bytes_raw").u64(rec.cost.device_read_bytes_raw);
        });

        let v = rec.verdict;
        w.key("verdict").obj(|w| {
            w.key("source").str(v.source);
            w.key("bound").str(v.bound);
            w.key("compute_nanos").u64(v.compute_nanos);
            w.key("io_wait_nanos").u64(v.io_wait_nanos);
            w.key("write_stall_nanos").u64(v.write_stall_nanos);
            w.key("idle_nanos").u64(v.idle_nanos);
            w.key("stragglers").u64(v.stragglers);
            w.key("readahead_late").u64(v.readahead_late);
            w.key("passes").u64(v.passes as u64);
        });

        w.key("cost").raw(&rec.cost.to_json());
        w.key("decisions").arr(|w| rec.decisions.iter().for_each(|d| d.write_json(w)));
        crate::trace::exec_json(rec.exec_delta, w.key("exec"));
        match rec.io_delta {
            Some(io) => crate::trace::io_json(io, w.key("io")),
            None => w.key("io").null(),
        }
    });
    line.push('\n');
    line
}

fn append_line(dir: &std::path::Path, line: &str) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{}.jsonl", run_id()));
    let over_cap = std::fs::metadata(&path)
        .map(|m| m.len() >= MAX_STORE_FILE_BYTES)
        .unwrap_or(false);
    if over_cap {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if res.is_err() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::FM;

    #[test]
    fn fingerprint_is_structural_not_identity() {
        let ctx = FlashCtx::in_memory();
        let mk = |rows| {
            FM::runif(&ctx, rows, 4, 0.0, 1.0, 7).sqrt().sum().pending_target().unwrap()
        };
        // Distinct node ids, same structure.
        let fa = plan_fingerprint(std::slice::from_ref(&mk(1024)));
        let fb = plan_fingerprint(std::slice::from_ref(&mk(1024)));
        assert_eq!(fa, fb);
        // Different shape, different fingerprint.
        assert_ne!(fa, plan_fingerprint(std::slice::from_ref(&mk(2048))));
    }

    #[test]
    fn op_class_spots_gemm() {
        let ctx = FlashCtx::in_memory();
        let x = FM::runif(&ctx, 512, 4, 0.0, 1.0, 3);
        let sum = x.sum().pending_target().unwrap();
        assert_eq!(op_class(std::slice::from_ref(&sum)), "stream");
        let gram = x.crossprod().pending_target().unwrap();
        assert_eq!(op_class(std::slice::from_ref(&gram)), "gemm");
    }

    #[test]
    fn host_json_has_backend_and_shards() {
        let ctx = FlashCtx::in_memory();
        let h = host_json(&ctx);
        assert!(h.contains("\"backend\":\"none\""), "{h}");
        assert!(h.contains("\"shards\":0"), "{h}");
        assert!(h.contains("\"simd\":"), "{h}");
    }
}
