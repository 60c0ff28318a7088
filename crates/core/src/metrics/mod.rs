//! Always-on metrics: the engine's statistics rendered as Prometheus
//! text, and a fault flight recorder.
//!
//! The engine already counts everything the paper's evaluation cares
//! about — passes, partition claims, device bytes, cache hits, queue
//! depths — in per-layer structs ([`crate::stats::ExecStats`],
//! [`flashr_safs::IoStats`], the page cache's and the shards' counters).
//! Those structs are the record; this module renders them:
//!
//! * [`MetricsHub`] — a context's three stat structs (executor, memory
//!   governor, SAFS runtime), snapshot at render time ([`sources`]), so
//!   the hot paths pay nothing beyond the relaxed atomic adds they
//!   already do. [`crate::session::FlashCtx::metrics_text`] renders it;
//!   a program that wants the exposition on disk writes that string.
//! * [`expo`] — Prometheus text-format (0.0.4) exposition.
//! * [`flight`] — the flight recorder: dumps the newest events of the
//!   context's span log ([`crate::trace::timeline`]), recorded even at
//!   `FLASHR_TRACE=off`, to a JSON file on panic or on the first device
//!   I/O error.

pub mod expo;
pub mod flight;
pub mod sources;

pub use flashr_safs::StatValue as SampleValue;
pub use flashr_safs::{Counter, Gauge, Log2Histogram, Log2HistogramSnapshot};
pub use flight::FlightRecorder;

use crate::session::MemGovernor;
use crate::stats::ExecStats;
use flashr_safs::Safs;
use std::sync::Arc;

/// A label set: static names, owned values (`shard="3"`, `op="read"`).
pub type LabelSet = Vec<(&'static str, String)>;

/// What a metric family is, for the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

fn kind_of(value: &SampleValue) -> MetricKind {
    match value {
        SampleValue::Counter(_) => MetricKind::Counter,
        SampleValue::Gauge(_) => MetricKind::Gauge,
        SampleValue::Histogram(_) => MetricKind::Histogram,
    }
}

/// One series sample, taken at render time.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub help: &'static str,
    pub labels: LabelSet,
    pub value: SampleValue,
}

impl Sample {
    pub fn new(
        name: &'static str,
        help: &'static str,
        labels: LabelSet,
        value: SampleValue,
    ) -> Sample {
        Sample { name, help, labels, value }
    }
}

/// Grouped samples ready for exposition (one `# HELP`/`# TYPE` header,
/// then every series of the family).
pub struct FamilySamples {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: MetricKind,
    pub series: Vec<(LabelSet, SampleValue)>,
}

/// Samples grouped into families, in order of first appearance: a
/// sample whose name was seen before joins that family's series.
fn families(samples: Vec<Sample>) -> Vec<FamilySamples> {
    let mut out: Vec<FamilySamples> = Vec::new();
    for s in samples {
        let kind = kind_of(&s.value);
        match out.iter_mut().find(|f| f.name == s.name) {
            Some(f) => {
                debug_assert_eq!(f.kind, kind, "metric {} emitted with two kinds", s.name);
                f.series.push((s.labels, s.value));
            }
            None => out.push(FamilySamples {
                name: s.name,
                help: s.help,
                kind,
                series: vec![(s.labels, s.value)],
            }),
        }
    }
    out
}

/// The per-context metrics renderer over the stat structs every context
/// has, rendered to Prometheus text by [`MetricsHub::render_text`]. It
/// holds its own `Arc`s and handles — never the context — so it creates
/// no reference cycle.
pub struct MetricsHub {
    exec: Arc<ExecStats>,
    governor: MemGovernor,
    safs: Option<Safs>,
    scrapes: Counter,
}

impl MetricsHub {
    pub fn new(exec: Arc<ExecStats>, governor: MemGovernor, safs: Option<Safs>) -> MetricsHub {
        MetricsHub { exec, governor, safs, scrapes: Counter::default() }
    }

    /// Times the exposition has been rendered — the hub's own
    /// meta-metric, exported as `flashr_metrics_scrapes_total`.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.get()
    }

    /// Collect every family (executor, governor, SAFS runtime, then the
    /// hub's meta-metric), grouped for exposition.
    pub fn gather(&self) -> Vec<FamilySamples> {
        let mut samples = Vec::new();
        sources::exec(&self.exec, &mut samples);
        sources::governor(&self.governor, &mut samples);
        if let Some(safs) = &self.safs {
            sources::safs(safs, &mut samples);
        }
        samples.push(Sample::new(
            "flashr_metrics_scrapes_total",
            "Times this context's metrics exposition was rendered.",
            Vec::new(),
            // render_text() bumps the counter before gathering, so the
            // render in flight is already included.
            SampleValue::Counter(self.scrapes.get()),
        ));
        families(samples)
    }

    /// Render the full Prometheus text-format (0.0.4) exposition.
    pub fn render_text(&self) -> String {
        self.scrapes.inc();
        expo::render(&self.gather())
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsHub({} scrapes)", self.scrapes.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_merge_into_existing_families() {
        let z = |op: &str, v| {
            Sample::new("z_total", "h", vec![("op", op.into())], SampleValue::Counter(v))
        };
        let a = Sample::new("a_bytes", "h", Vec::new(), SampleValue::Gauge(3));
        let fams = families(vec![z("a", 1), a, z("b", 7)]);
        let names: Vec<&str> = fams.iter().map(|f| f.name).collect();
        assert_eq!(names, ["z_total", "a_bytes"], "one header per family, first seen first");
        assert_eq!(fams[0].series.len(), 2);
    }

    #[test]
    fn scrape_counter_counts_renders() {
        let hub = MetricsHub::new(Arc::default(), MemGovernor::new(0), None);
        assert_eq!(hub.scrapes(), 0);
        let text = hub.render_text();
        assert!(text.contains("flashr_metrics_scrapes_total 1"), "{text}");
        let text = hub.render_text();
        assert!(text.contains("flashr_metrics_scrapes_total 2"), "{text}");
    }
}
