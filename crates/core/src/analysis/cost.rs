//! Byte-movement cost model over the inferred plan.
//!
//! The paper's thesis is that the dominant cost of large-scale R is
//! bytes moved through the SSD/page-cache/L2 hierarchy, not FLOPs
//! (§3.5, Fig. 10). This module prices a verified, rewritten target set
//! in those terms *before* execution, mirroring the sizing arithmetic
//! the plan builder ([`crate::exec::Plan`]) and the fused engine
//! actually use:
//!
//! * **chunk bytes** — bytes of Pcache chunks the pass will freshly
//!   produce (the quantity `ExecStats::node_chunk_bytes` counts): one
//!   `mat_bytes` per reachable non-sink node, minus chain interiors
//!   when `fuse_chains` is on (fused links never materialize).
//! * **device read bytes** — bytes read from the SSD array: external-
//!   memory leaves, multiplied by their consumer count under the eager
//!   engine when the leaf exceeds the page-cache capacity (the W004
//!   re-scan hazard, now priced instead of only warned about).
//! * **pcache step** — the chunk height the cache-fuse engine would
//!   pick, plus the larger step available if chain interiors are
//!   excluded from the row-byte budget (they hold no live chunk).
//! * **reuse candidates** — the W001 population (interior nodes with
//!   ≥ 2 consumers and no `set.cache`), priced by the subtree bytes a
//!   later re-materialization would move again, and flagged when a gemm
//!   (crossprod / matmul / inner-product) consumes them — the
//!   [`super::optimize`] pass turns these into auto-cache decisions.
//!
//! The estimate is deliberately an *upper bound* on reads (a warm page
//! cache can serve any of it from RAM); the property tests assert a
//! bounded factor against cold-run `ExecStats`/`IoStats` counters, not
//! equality.

use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::Target;
use crate::json;
use crate::part::pcache_rows;
use crate::session::{ExecMode, FlashCtx};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::{calibrate, chains};

pub(crate) fn mat_bytes(node: &Node) -> u64 {
    node.nrows * node.ncols as u64 * node.dtype.size() as u64
}

/// Nanos to move `bytes` at `gib_s` GiB/s (0 for a degenerate rate).
fn price_nanos(bytes: u64, gib_s: f64) -> u64 {
    if gib_s <= 0.0 {
        return 0;
    }
    (bytes as f64 / (gib_s * (1u64 << 30) as f64) * 1e9) as u64
}

/// A reused-but-uncached subtree the optimizer may decide to cache
/// (the priced form of a W001 lint).
#[derive(Debug, Clone)]
pub struct ReuseCandidate {
    pub node: Arc<Node>,
    /// Plan-level consumer count (DAG parents + target/sink reads).
    pub consumers: usize,
    /// Bytes the cached matrix would occupy (what the governor pins).
    pub bytes: u64,
    /// The candidate's per-row footprint (`ncols × dtype.size`).
    pub row_bytes: usize,
    /// Bytes of the candidate's subtree (itself, interior nodes and
    /// leaves) — what a later re-materialization moves again.
    pub subtree_bytes: u64,
    /// Whether a gemm consumer (crossprod / matmul / inner-product)
    /// reads this node: a gemm pass re-scans its tall operand, so these
    /// candidates are cached first.
    pub feeds_gemm: bool,
    /// Whether chain fusion would make this node a chain interior;
    /// caching it forces a fusion barrier (the chunk must materialize).
    pub would_fuse: bool,
}

/// The byte-movement estimate for one target set under the current
/// context configuration.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    pub mode: ExecMode,
    /// Chunk height the plan builder would pick (rows).
    pub pcache_step: usize,
    /// Chunk height available when chain interiors are excluded from
    /// the row-byte budget (≥ `pcache_step`; equal without fusion).
    pub pcache_step_live: usize,
    /// Per-row bytes across all reachable non-sink nodes.
    pub row_bytes_total: usize,
    /// Per-row bytes excluding chain interiors.
    pub row_bytes_live: usize,
    /// Predicted `ExecStats::node_chunk_bytes` for the pass.
    pub chunk_bytes: u64,
    /// Predicted device (SSD) read bytes, cold cache.
    pub device_read_bytes: u64,
    /// Bytes read from materialized leaves (memory or SSD), once each.
    pub leaf_read_bytes: u64,
    /// Bytes produced by lazy generators.
    pub gen_bytes: u64,
    /// Bytes written for tall targets and existing `set.cache`
    /// byproducts.
    pub write_bytes: u64,
    /// Installed page-cache capacity (0 without a SAFS cache).
    pub cache_capacity: u64,
    /// Largest per-partition byte count among EM leaves (sizes the
    /// readahead decision).
    pub max_em_part_bytes: u64,
    /// Number of external-memory leaves in the plan.
    pub em_leaves: usize,
    /// Whether any target is a sink (sink accumulation order depends on
    /// the chunk step, so step overrides are only bit-safe without one).
    pub has_sink: bool,
    pub reuse: Vec<ReuseCandidate>,
    /// The model's cold-cache device-read upper bound, before the
    /// calibration loop's absorption factor. Equal to
    /// `device_read_bytes` when calibration is off or unmatched.
    pub device_read_bytes_raw: u64,
    /// Whether fitted history constants re-priced this estimate
    /// ([`crate::session::CtxConfig::calibrate`] with matching records).
    pub calibrated: bool,
    /// Predicted device-read nanos under the (calibrated or default)
    /// read rate.
    pub predicted_read_nanos: u64,
    /// Predicted device-write nanos.
    pub predicted_write_nanos: u64,
    /// Predicted compute nanos for the plan's op class over the chunk
    /// and generator bytes.
    pub predicted_compute_nanos: u64,
    /// Predicted wall nanos: `max(io, compute)` — the fused engine
    /// overlaps I/O behind compute (paper Fig. 10), so the slower side
    /// bounds the pass.
    pub predicted_wall_nanos: u64,
}

/// Price `targets` (already canonicalized by the CSE rewrite) under the
/// context's mode, Pcache budget, page-cache capacity and fusion
/// setting.
pub fn estimate(ctx: &FlashCtx, targets: &[Target]) -> CostEstimate {
    // Reachability + consumer counts, mirroring `Plan::build` (sink
    // children and tall targets count one extra read).
    let mut order: Vec<Arc<Node>> = Vec::new();
    let mut consumers: HashMap<u64, usize> = HashMap::new();
    let mut tall_targets: HashSet<u64> = HashSet::new();
    let mut has_sink = false;
    let mut stack: Vec<Arc<Node>> = Vec::new();
    for t in targets {
        match t {
            Target::Sink(n) => {
                has_sink = true;
                for c in n.children() {
                    *consumers.entry(c.id).or_default() += 1;
                }
                stack.push(n.clone());
            }
            Target::Tall { node, .. } => {
                *consumers.entry(node.id).or_default() += 1;
                tall_targets.insert(node.id);
                stack.push(node.clone());
            }
        }
    }
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id) {
            continue;
        }
        if !node.is_effective_leaf() {
            for c in node.children() {
                if !node.is_sink() {
                    *consumers.entry(c.id).or_default() += 1;
                }
                stack.push(c.clone());
            }
        }
        order.push(node);
    }

    // Chain interiors under the current fusion setting (lightweight
    // discovery: no kernels are compiled here).
    let interiors: HashSet<u64> = if ctx.cfg().fuse_chains {
        let is_mat = |n: &Node| n.is_effective_leaf();
        chains::fusible_interiors(&order, &consumers, &is_mat, &HashSet::new())
    } else {
        HashSet::new()
    };

    // Gemm consumers: which nodes a crossprod/matmul/inner-product pass
    // re-scans as its tall operand.
    let mut gemm_fed: HashSet<u64> = HashSet::new();
    for node in &order {
        match &node.kind {
            NodeKind::SinkGramian { a, b } => {
                gemm_fed.insert(a.id);
                gemm_fed.insert(b.id);
            }
            NodeKind::Map { op: MapOp::MatMul(_) | MapOp::InnerProd { .. }, inputs } => {
                if let Some(MapInput::Node(spine)) = inputs.first() {
                    gemm_fed.insert(spine.id);
                }
            }
            _ => {}
        }
    }

    let cache_capacity = ctx.safs().map(|s| s.page_cache_capacity()).unwrap_or(0);
    let mode = ctx.cfg().mode;
    let part_rows = ctx.cfg().rows_per_part as usize;

    let mut row_bytes_total = 0usize;
    let mut row_bytes_live = 0usize;
    let mut chunk_bytes = 0u64;
    let mut device_read_bytes = 0u64;
    let mut leaf_read_bytes = 0u64;
    let mut gen_bytes = 0u64;
    let mut write_bytes = 0u64;
    let mut max_em_part_bytes = 0u64;
    let mut em_leaves = 0usize;

    for node in &order {
        if node.is_sink() {
            continue;
        }
        let row_bytes = node.ncols * node.dtype.size();
        row_bytes_total += row_bytes;
        if !interiors.contains(&node.id) {
            row_bytes_live += row_bytes;
            chunk_bytes += mat_bytes(node);
        }
        if node.is_effective_leaf() {
            let mat = node.cached().or(match &node.kind {
                NodeKind::Leaf(m) => Some(m),
                _ => None,
            });
            match mat {
                Some(m) => {
                    leaf_read_bytes += mat_bytes(node);
                    if m.is_em() {
                        em_leaves += 1;
                        let part_bytes =
                            m.parter().rows_per_part() * node.ncols as u64 * node.dtype.size() as u64;
                        max_em_part_bytes = max_em_part_bytes.max(part_bytes);
                        // Eager mode re-reads the leaf once per consumer
                        // pass; a leaf larger than the page cache pays
                        // device I/O every time (the W004 hazard).
                        let uses = consumers.get(&node.id).copied().unwrap_or(1).max(1);
                        let reads = if mode == ExecMode::Eager && mat_bytes(node) > cache_capacity {
                            uses as u64
                        } else {
                            1
                        };
                        device_read_bytes += mat_bytes(node) * reads;
                    }
                }
                None => gen_bytes += mat_bytes(node),
            }
            continue;
        }
        if node.cache_requested() || tall_targets.contains(&node.id) {
            write_bytes += mat_bytes(node);
        }
    }

    // Reuse candidates: the W001 population, priced. Tall targets are
    // excluded (their result materializes anyway) and so are existing
    // cache requests.
    let mut reuse: Vec<ReuseCandidate> = Vec::new();
    for node in &order {
        if node.is_sink()
            || node.is_effective_leaf()
            || node.cache_requested()
            || tall_targets.contains(&node.id)
            || matches!(node.kind, NodeKind::Leaf(_) | NodeKind::Gen(_))
        {
            continue;
        }
        let uses = consumers.get(&node.id).copied().unwrap_or(0);
        if uses < 2 {
            continue;
        }
        reuse.push(ReuseCandidate {
            node: node.clone(),
            consumers: uses,
            bytes: mat_bytes(node),
            row_bytes: node.ncols * node.dtype.size(),
            subtree_bytes: subtree_bytes(node),
            feeds_gemm: gemm_fed.contains(&node.id),
            would_fuse: interiors.contains(&node.id),
        });
    }
    reuse.sort_by(|a, b| {
        b.feeds_gemm
            .cmp(&a.feeds_gemm)
            .then(b.subtree_bytes.cmp(&a.subtree_bytes))
            .then(a.node.id.cmp(&b.node.id))
    });

    let pcache_step = match mode {
        ExecMode::CacheFuse => pcache_rows(ctx.cfg().pcache_bytes, row_bytes_total, part_rows),
        ExecMode::MemFuse | ExecMode::Eager => part_rows,
    };
    let pcache_step_live = match mode {
        ExecMode::CacheFuse => pcache_rows(ctx.cfg().pcache_bytes, row_bytes_live, part_rows),
        ExecMode::MemFuse | ExecMode::Eager => part_rows,
    };

    // Calibration re-pricing: scale the cold-cache read bound by the
    // fitted absorption factor and price predicted nanos under fitted
    // (or default) throughput rates. None of this feeds a plan action,
    // so outputs stay bit-identical with the knob on or off.
    let device_read_bytes_raw = device_read_bytes;
    let mut calibrated = false;
    if let Some(cal) = ctx.calibration() {
        if let Some(f) = cal.read_factor_for(crate::obs::plan_fingerprint(targets)) {
            device_read_bytes = (device_read_bytes as f64 * f).round() as u64;
            calibrated = true;
        }
    }
    let class = crate::obs::op_class(targets);
    let (read_rate, write_rate, compute_rate) = match ctx.calibration() {
        Some(cal) => (cal.read_gib_s(), cal.write_gib_s(), cal.compute_gib_s_for(class)),
        None => (
            calibrate::DEFAULT_READ_GIB_S,
            calibrate::DEFAULT_WRITE_GIB_S,
            calibrate::DEFAULT_COMPUTE_GIB_S,
        ),
    };
    let predicted_read_nanos = price_nanos(device_read_bytes, read_rate);
    let predicted_write_nanos = price_nanos(write_bytes, write_rate);
    let predicted_compute_nanos = price_nanos(chunk_bytes + gen_bytes, compute_rate);
    let predicted_wall_nanos =
        (predicted_read_nanos + predicted_write_nanos).max(predicted_compute_nanos);

    CostEstimate {
        mode,
        pcache_step,
        pcache_step_live,
        row_bytes_total,
        row_bytes_live,
        chunk_bytes,
        device_read_bytes,
        leaf_read_bytes,
        gen_bytes,
        write_bytes,
        cache_capacity,
        max_em_part_bytes,
        em_leaves,
        has_sink,
        reuse,
        device_read_bytes_raw,
        calibrated,
        predicted_read_nanos,
        predicted_write_nanos,
        predicted_compute_nanos,
        predicted_wall_nanos,
    }
}

/// Bytes of `root`'s subtree: the root itself plus everything below it
/// down to (and including) effective leaves — what re-materializing the
/// subtree from scratch moves.
fn subtree_bytes(root: &Arc<Node>) -> u64 {
    let mut total = 0u64;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Arc<Node>> = vec![root.clone()];
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id) {
            continue;
        }
        total += mat_bytes(&node);
        if !node.is_effective_leaf() {
            for c in node.children() {
                stack.push(c.clone());
            }
        }
    }
    total
}

impl CostEstimate {
    /// JSON form, embedded in `FM::check_json` output and bench artifacts.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("mode").str(self.mode.name());
            for (key, v) in [
                ("pcache_step", self.pcache_step as u64),
                ("pcache_step_live", self.pcache_step_live as u64),
                ("row_bytes_total", self.row_bytes_total as u64),
                ("row_bytes_live", self.row_bytes_live as u64),
                ("chunk_bytes", self.chunk_bytes),
                ("device_read_bytes", self.device_read_bytes),
                ("device_read_bytes_raw", self.device_read_bytes_raw),
                ("leaf_read_bytes", self.leaf_read_bytes),
                ("gen_bytes", self.gen_bytes),
                ("write_bytes", self.write_bytes),
                ("cache_capacity", self.cache_capacity),
                ("em_leaves", self.em_leaves as u64),
                ("predicted_read_nanos", self.predicted_read_nanos),
                ("predicted_write_nanos", self.predicted_write_nanos),
                ("predicted_compute_nanos", self.predicted_compute_nanos),
                ("predicted_wall_nanos", self.predicted_wall_nanos),
            ] {
                w.key(key).u64(v);
            }
            w.key("calibrated").bool(self.calibrated);
            w.key("has_sink").bool(self.has_sink);
            w.key("reuse").arr(|w| {
                for r in &self.reuse {
                    w.obj(|w| {
                        w.key("node").u64(r.node.id);
                        w.key("label").str(&r.node.label());
                        w.key("consumers").u64(r.consumers as u64);
                        w.key("bytes").u64(r.bytes);
                        w.key("subtree_bytes").u64(r.subtree_bytes);
                        w.key("feeds_gemm").bool(r.feeds_gemm);
                        w.key("would_fuse").bool(r.would_fuse);
                    });
                }
            });
        })
    }
}
