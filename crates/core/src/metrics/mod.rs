//! Always-on metrics: the engine's statistics rendered as Prometheus
//! text, a scrape listener and a fault flight recorder.
//!
//! The engine already counts everything the paper's evaluation cares
//! about — passes, partition claims, device bytes, cache hits, queue
//! depths — in per-layer structs ([`crate::stats::ExecStats`],
//! [`flashr_safs::IoStats`], the page cache's and the shards' counters).
//! Those structs are the record; this module renders them:
//!
//! * [`MetricsHub`] — a per-context list of [`MetricSource`] collectors
//!   that snapshot the stat structs at scrape time, so the hot paths pay
//!   nothing beyond the relaxed atomic adds they already do.
//! * [`expo`] — Prometheus text-format (0.0.4) exposition.
//! * [`serve`] — a minimal std-only blocking HTTP listener answering
//!   `GET /metrics`, enabled per process via `FLASHR_METRICS_ADDR`.
//! * [`flight`] — the flight recorder: dumps the newest events of the
//!   context's span log ([`crate::trace::timeline`]), recorded even at
//!   `FLASHR_TRACE=off`, to a JSON file on panic or on the first device
//!   I/O error.

pub mod expo;
pub mod flight;
pub mod serve;
pub mod sources;

pub use flashr_safs::StatValue as SampleValue;
pub use flashr_safs::{Counter, Gauge, Log2Histogram, Log2HistogramSnapshot};
pub use flight::FlightRecorder;
pub use serve::MetricsServer;

use flashr_safs::sync::Mutex;

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

/// One series sample a [`MetricSource`] emits at scrape time.
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

/// A collector that snapshots live engine state (an [`crate::stats::ExecStats`],
/// a SAFS runtime, the memory governor) into samples at scrape time.
/// Sources hold their own clones/`Arc`s — never the context — so the
/// hub creates no reference cycles.
pub trait MetricSource: Send + Sync {
    fn collect(&self, out: &mut Vec<Sample>);
}

/// Grouped samples ready for exposition (one `# HELP`/`# TYPE` header,
/// then every series of the family).
pub struct FamilySamples {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: MetricKind,
    pub series: Vec<(LabelSet, SampleValue)>,
}

/// The per-context metrics renderer: scrape-time collectors over the
/// engine's stat structs, rendered to Prometheus text by
/// [`MetricsHub::render_text`].
#[derive(Default)]
pub struct MetricsHub {
    sources: Mutex<Vec<Box<dyn MetricSource>>>,
    scrapes: Counter,
}

impl MetricsHub {
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Install a scrape-time collector.
    pub fn register_source(&self, src: Box<dyn MetricSource>) {
        self.sources.lock().push(src);
    }

    /// Times the exposition has been rendered (scrapes plus explicit
    /// [`MetricsHub::render_text`] calls) — the hub's own meta-metric,
    /// exported as `flashr_metrics_scrapes_total`.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.get()
    }

    /// Collect every family (the sources in registration order, then
    /// the hub's meta-metric), grouped for exposition.
    pub fn gather(&self) -> Vec<FamilySamples> {
        let mut out: Vec<FamilySamples> = Vec::new();
        let mut samples = Vec::new();
        for src in self.sources.lock().iter() {
            src.collect(&mut samples);
        }
        samples.push(Sample::new(
            "flashr_metrics_scrapes_total",
            "Times this context's metrics exposition was rendered.",
            Vec::new(),
            // render_text() bumps the counter before gathering, so the
            // render in flight is already included.
            SampleValue::Counter(self.scrapes.get()),
        ));
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

    /// Render the full Prometheus text-format (0.0.4) exposition.
    pub fn render_text(&self) -> String {
        self.scrapes.inc();
        expo::render(&self.gather())
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sources = self.sources.lock().len();
        write!(f, "MetricsHub({sources} sources, {} scrapes)", self.scrapes.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_merge_into_existing_families() {
        struct Src(&'static str, u64);
        impl MetricSource for Src {
            fn collect(&self, out: &mut Vec<Sample>) {
                let labels = vec![("op", self.0.into())];
                out.push(Sample::new("z_total", "h", labels, SampleValue::Counter(self.1)));
            }
        }
        let hub = MetricsHub::new();
        hub.register_source(Box::new(Src("a", 1)));
        hub.register_source(Box::new(Src("b", 7)));
        let fams = hub.gather();
        let fam = fams.iter().find(|f| f.name == "z_total").expect("family");
        assert_eq!(fam.series.len(), 2);
        assert_eq!(fams.iter().filter(|f| f.name == "z_total").count(), 1, "one header");
    }

    #[test]
    fn scrape_counter_counts_renders() {
        let hub = MetricsHub::new();
        assert_eq!(hub.scrapes(), 0);
        let text = hub.render_text();
        assert!(text.contains("flashr_metrics_scrapes_total 1"), "{text}");
        let text = hub.render_text();
        assert!(text.contains("flashr_metrics_scrapes_total 2"), "{text}");
    }
}
