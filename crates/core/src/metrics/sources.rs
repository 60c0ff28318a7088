//! Render-time samples of the engine's existing stat structs.
//!
//! The executors, the memory governor and the SAFS runtime already keep
//! lock-free counters ([`ExecStats`], the governor's atomics,
//! [`flashr_safs::IoStats`] and the per-shard cache stats); these
//! functions snapshot them into [`Sample`]s when the hub renders, so the
//! hot paths pay nothing beyond what they already paid.
//!
//! Naming follows Prometheus conventions: `flashr_` prefix, `_total`
//! counters, `_bytes`/`_ns` unit markers, static label names
//! (`op="read"|"write"`, `shard="<n>"`, `event="<cache event>"`).

use super::{Sample, SampleValue};
use crate::session::MemGovernor;
use crate::stats::ExecStats;
use flashr_safs::{Safs, Stat};

/// One sample per declared statistic: its family, help and fixed label
/// come from the stat struct's declaration, `shard` (when given) goes in
/// front as the `shard="<n>"` label.
fn push_stats(out: &mut Vec<Sample>, shard: Option<usize>, stats: Vec<Stat>) {
    for s in stats {
        let labels = shard
            .map(|i| ("shard", i.to_string()))
            .into_iter()
            .chain(s.label.map(|(k, v)| (k, v.to_string())))
            .collect();
        out.push(Sample { name: s.family, help: s.help, labels, value: s.value });
    }
}

/// Executor counters: passes, partitions, fused-chain savings and the
/// worker time breakdown.
pub(super) fn exec(stats: &ExecStats, out: &mut Vec<Sample>) {
    push_stats(out, None, stats.snapshot().stats());
    let level = crate::ops::simd::SimdLevel::active();
    out.push(Sample::new(
        "flashr_simd_level",
        "Active SIMD dispatch level (1=scalar, 2=avx2); the label names it.",
        vec![("level", level.name().into())],
        SampleValue::Gauge(level as u64),
    ));
}

/// Memory-governor budget, pins and spill counters.
pub(super) fn governor(g: &MemGovernor, out: &mut Vec<Sample>) {
    for (name, help, value) in [
        (
            "flashr_mem_budget_bytes",
            "Configured memory budget (0 = unlimited).",
            SampleValue::Gauge(g.budget_bytes()),
        ),
        (
            "flashr_mem_pinned_bytes",
            "Bytes currently pinned by materializations.",
            SampleValue::Gauge(g.pinned_bytes()),
        ),
        (
            "flashr_mem_spills_total",
            "Chunks the governor pushed to external storage.",
            SampleValue::Counter(g.spills()),
        ),
        (
            "flashr_mem_overcommits_total",
            "Pins admitted above budget because nothing was evictable.",
            SampleValue::Counter(g.overcommits()),
        ),
    ] {
        out.push(Sample::new(name, help, Vec::new(), value));
    }
}

/// SAFS device I/O, queue depth, throttle and per-shard page-cache
/// counters.
pub(super) fn safs(safs: &Safs, out: &mut Vec<Sample>) {
    push_stats(out, None, safs.stats_snapshot().stats());
    // Per-shard (emulated device) lanes of the storage backend. The
    // `shard` label here names a *storage* shard — a SAFS root
    // directory — not a page-cache shard (those label the
    // `flashr_cache_*` families below).
    for (i, s) in safs.shard_stats_snapshots().iter().enumerate() {
        push_stats(out, Some(i), s.stats());
    }
    out.push(Sample::new(
        "flashr_cache_capacity_bytes",
        "Configured page-cache capacity (0 = no cache).",
        vec![],
        SampleValue::Gauge(safs.page_cache_capacity()),
    ));
    for (i, c) in safs.cache_shard_snapshots().iter().enumerate() {
        push_stats(out, Some(i), c.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsHub;
    use std::sync::Arc;

    #[test]
    fn exec_source_exports_every_counter() {
        let stats = Arc::new(ExecStats::default());
        stats.passes.add(2);
        stats.io_wait_nanos.add(77);
        let hub = MetricsHub::new(stats, MemGovernor::new(0), None);
        let text = hub.render_text();
        assert!(text.contains("flashr_exec_passes_total 2\n"), "{text}");
        assert!(text.contains("flashr_exec_io_wait_nanos_total 77\n"), "{text}");
    }
}
