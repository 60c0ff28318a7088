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
use crate::analysis::calibrate::CalibState;
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
            "Active SIMD dispatch level (0=off, 1=scalar, 2=avx2); the label names it.",
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

/// Cost-model calibration: the fitted throughput constants (defaults
/// when no history matched) and the context's rolling prediction error.
/// Registered on every context so the family set is stable whether or
/// not the knob is on; gauges are integer-valued, so rates export in
/// MiB/s and the absorption factor in thousandths.
pub struct CalibrationSource(pub Arc<CalibState>);

impl MetricSource for CalibrationSource {
    fn collect(&self, out: &mut Vec<Sample>) {
        use crate::analysis::calibrate::{
            DEFAULT_COMPUTE_GIB_S, DEFAULT_READ_GIB_S, DEFAULT_WRITE_GIB_S,
        };
        let cal = self.0.calibration.as_ref();
        let mib = |gib_s: f64| (gib_s * 1024.0).round() as u64;
        out.push(Sample::new(
            "flashr_calib_enabled",
            "1 when cost-model constants were fitted from profile history.",
            vec![],
            SampleValue::Gauge(cal.is_some() as u64),
        ));
        out.push(Sample::new(
            "flashr_calib_records",
            "History records the calibration fit consumed.",
            vec![],
            SampleValue::Gauge(cal.map(|c| c.records as u64).unwrap_or(0)),
        ));
        let (read, write, stream, gemm) = match cal {
            Some(c) => (
                c.read_gib_s(),
                c.write_gib_s(),
                c.compute_gib_s_for("stream"),
                c.compute_gib_s_for("gemm"),
            ),
            None => (
                DEFAULT_READ_GIB_S,
                DEFAULT_WRITE_GIB_S,
                DEFAULT_COMPUTE_GIB_S,
                DEFAULT_COMPUTE_GIB_S,
            ),
        };
        const TP_HELP: &str =
            "Calibrated (or default) throughput constant by category, MiB/s.";
        for (kind, v) in [
            ("device_read", read),
            ("device_write", write),
            ("compute_stream", stream),
            ("compute_gemm", gemm),
        ] {
            out.push(Sample::new(
                "flashr_calib_throughput_mib_s",
                TP_HELP,
                vec![("kind", kind.into())],
                SampleValue::Gauge(mib(v)),
            ));
        }
        out.push(Sample::new(
            "flashr_calib_read_factor_milli",
            "Global device-read absorption factor (actual/predicted, thousandths).",
            vec![],
            SampleValue::Gauge(
                cal.and_then(|c| c.read_factor_global)
                    .map(|f| (f * 1000.0).round() as u64)
                    .unwrap_or(1000),
            ),
        ));
        out.push(Sample::new(
            "flashr_calib_predictions_total",
            "Materializations scored against their device-read prediction.",
            vec![],
            SampleValue::Counter(self.0.predictions()),
        ));
        out.push(Sample::new(
            "flashr_calib_prediction_error_bytes",
            "Rolling mean |predicted - actual| device-read bytes.",
            vec![],
            SampleValue::Gauge(self.0.mean_error_bytes()),
        ));
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

    #[test]
    fn calibration_source_exports_defaults_when_unfitted() {
        let hub = MetricsHub::new();
        hub.register_source(Box::new(CalibrationSource(Arc::new(CalibState::default()))));
        let text = hub.render_text();
        assert!(text.contains("flashr_calib_enabled 0\n"), "{text}");
        assert!(text.contains("flashr_calib_records 0\n"), "{text}");
        // 0.5 GiB/s default read rate → 512 MiB/s.
        assert!(
            text.contains("flashr_calib_throughput_mib_s{kind=\"device_read\"} 512\n"),
            "{text}"
        );
        assert!(text.contains("flashr_calib_read_factor_milli 1000\n"), "{text}");
        assert!(text.contains("flashr_calib_predictions_total 0\n"), "{text}");
        assert_eq!(text.matches("# TYPE flashr_calib_throughput_mib_s").count(), 1, "{text}");
    }
}
