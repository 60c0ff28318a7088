//! Scrape-time collectors over the engine's existing stat structs.
//!
//! The executors, the memory governor and the SAFS runtime already keep
//! lock-free counters ([`ExecStats`], the governor's atomics,
//! [`flashr_safs::IoStats`] and the per-shard cache stats); these sources
//! snapshot them into [`Sample`]s when the hub is scraped, so the hot
//! paths pay nothing beyond what they already paid. Each source owns its
//! own `Arc`/clone of the underlying struct — never the context — so the
//! hub creates no reference cycles.
//!
//! Naming follows Prometheus conventions: `flashr_` prefix, `_total`
//! counters, `_bytes`/`_ns` unit markers, static label names
//! (`op="read"|"write"`, `numa="local"|"remote"`, `shard="<n>"`,
//! `event="<cache event>"`).

use super::{MetricSource, Sample, SampleValue};
use crate::session::MemGovernor;
use crate::stats::ExecStats;
use flashr_safs::{Safs, Stat};
use std::sync::Arc;

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

/// Executor counters: passes, partitions, NUMA locality, fused-chain
/// savings and the worker time breakdown.
pub struct ExecStatsSource(pub Arc<ExecStats>);

impl MetricSource for ExecStatsSource {
    fn collect(&self, out: &mut Vec<Sample>) {
        push_stats(out, None, self.0.snapshot().stats());
        let level = crate::ops::simd::SimdLevel::active();
        out.push(Sample::new(
            "flashr_simd_level",
            "Active SIMD dispatch level (1=scalar, 2=avx2); the label names it.",
            vec![("level", level.name().into())],
            SampleValue::Gauge(level as u64),
        ));
    }
}

/// Memory-governor budget, pins and spill counters.
pub struct GovernorSource(pub MemGovernor);

impl MetricSource for GovernorSource {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample::new(
            "flashr_mem_budget_bytes",
            "Configured memory budget (0 = unlimited).",
            vec![],
            SampleValue::Gauge(self.0.budget_bytes()),
        ));
        out.push(Sample::new(
            "flashr_mem_pinned_bytes",
            "Bytes currently pinned by materializations.",
            vec![],
            SampleValue::Gauge(self.0.pinned_bytes()),
        ));
        out.push(Sample::new(
            "flashr_mem_spills_total",
            "Chunks the governor pushed to external storage.",
            vec![],
            SampleValue::Counter(self.0.spills()),
        ));
        out.push(Sample::new(
            "flashr_mem_overcommits_total",
            "Pins admitted above budget because nothing was evictable.",
            vec![],
            SampleValue::Counter(self.0.overcommits()),
        ));
    }
}

/// SAFS device I/O, queue depth, throttle and per-shard page-cache
/// counters.
pub struct SafsSource(pub Safs);

impl MetricSource for SafsSource {
    fn collect(&self, out: &mut Vec<Sample>) {
        push_stats(out, None, self.0.stats_snapshot().stats());
        // Per-shard (emulated device) lanes of the storage backend. The
        // `shard` label here names a *storage* shard — a SAFS root
        // directory — not a page-cache NUMA shard (those label the
        // `flashr_cache_*` families below).
        for (i, s) in self.0.shard_stats_snapshots().iter().enumerate() {
            push_stats(out, Some(i), s.stats());
        }
        out.push(Sample::new(
            "flashr_cache_capacity_bytes",
            "Configured page-cache capacity (0 = no cache).",
            vec![],
            SampleValue::Gauge(self.0.page_cache_capacity()),
        ));
        for (i, c) in self.0.cache_shard_snapshots().iter().enumerate() {
            push_stats(out, Some(i), c.stats());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsHub;

    #[test]
    fn exec_source_exports_every_counter() {
        let stats = Arc::new(ExecStats::default());
        stats.passes.add(2);
        stats.local_parts.add(5);
        stats.remote_parts.add(1);
        stats.io_wait_nanos.add(77);
        let hub = MetricsHub::new();
        hub.register_source(Box::new(ExecStatsSource(stats)));
        let text = hub.render_text();
        assert!(text.contains("flashr_exec_passes_total 2\n"), "{text}");
        assert!(text.contains("flashr_exec_parts_numa_total{numa=\"local\"} 5\n"), "{text}");
        assert!(text.contains("flashr_exec_parts_numa_total{numa=\"remote\"} 1\n"), "{text}");
        assert!(text.contains("flashr_exec_io_wait_nanos_total 77\n"), "{text}");
        // One TYPE header even though the numa family has two series.
        assert_eq!(text.matches("# TYPE flashr_exec_parts_numa_total").count(), 1, "{text}");
    }
}
