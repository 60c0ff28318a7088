//! Always-on metrics: a typed handle registry, Prometheus text
//! exposition, a scrape listener and a fault flight recorder.
//!
//! The engine already counts everything the paper's evaluation cares
//! about — passes, partition claims, device bytes, cache hits, queue
//! depths — but those counters lived in per-layer structs reachable only
//! from Rust. This module gives every [`crate::session::FlashCtx`] one
//! uniform surface over them:
//!
//! * [`MetricsHub`] — a per-context registry of typed
//!   [`Counter`]/[`Gauge`]/[`Log2Histogram`] handles (the same lock-free
//!   primitives the SAFS latency histograms are built from) plus
//!   [`MetricSource`] collectors that snapshot the engine's existing
//!   stat structs at scrape time. Handle updates are one relaxed
//!   `fetch_add` — cheap enough to stay enabled in release builds.
//! * [`expo`] — Prometheus text-format (0.0.4) exposition, hand-rolled
//!   like the JSON writer in [`crate::trace`] (no new dependencies).
//! * [`serve`] — a minimal std-only blocking HTTP listener answering
//!   `GET /metrics`, enabled per process via `FLASHR_METRICS_ADDR`.
//! * [`flight`] — the flight recorder: a bounded ring of recent span
//!   events per lane, recorded even at `FLASHR_TRACE=off`, dumped to a
//!   JSON file on panic or on the first device I/O error.
//!
//! Label values are dynamic strings but label *names* are static; series
//! are interned get-or-create, so the label-handling cost is paid once
//! at handle creation, never on the hot path.

pub mod expo;
pub mod flight;
pub mod serve;
pub mod sources;

pub use flashr_safs::{Counter, Gauge, Log2Histogram, Log2HistogramSnapshot};
pub use flight::FlightRecorder;
pub use serve::MetricsServer;

use flashr_safs::sync::Mutex;
use flashr_safs::{LatencyHisto, LatencyHistoSnapshot};
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

/// One collected value for exposition.
#[derive(Debug, Clone)]
pub enum SampleValue {
    Counter(u64),
    Gauge(u64),
    // Boxed: the 40-bucket snapshot is ~an order of magnitude larger
    // than the scalar variants, and most samples are scalars.
    Histogram(Box<LatencyHistoSnapshot>),
}

impl SampleValue {
    fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
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
    pub fn counter(name: &'static str, help: &'static str, labels: LabelSet, v: u64) -> Sample {
        Sample { name, help, labels, value: SampleValue::Counter(v) }
    }

    pub fn gauge(name: &'static str, help: &'static str, labels: LabelSet, v: u64) -> Sample {
        Sample { name, help, labels, value: SampleValue::Gauge(v) }
    }

    pub fn histogram(
        name: &'static str,
        help: &'static str,
        labels: LabelSet,
        snap: LatencyHistoSnapshot,
    ) -> Sample {
        Sample { name, help, labels, value: SampleValue::Histogram(Box::new(snap)) }
    }
}

/// A collector that snapshots live engine state (an [`crate::stats::ExecStats`],
/// a SAFS runtime, the memory governor) into samples at scrape time.
/// Sources hold their own clones/`Arc`s — never the context — so the
/// hub creates no reference cycles.
pub trait MetricSource: Send + Sync {
    fn collect(&self, out: &mut Vec<Sample>);
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHisto>),
}

impl Handle {
    fn sample(&self) -> SampleValue {
        match self {
            Handle::Counter(c) => SampleValue::Counter(c.get()),
            Handle::Gauge(g) => SampleValue::Gauge(g.get()),
            Handle::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
        }
    }
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    series: Vec<(LabelSet, Handle)>,
}

/// Grouped samples ready for exposition (one `# HELP`/`# TYPE` header,
/// then every series of the family).
pub struct FamilySamples {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: MetricKind,
    pub series: Vec<(LabelSet, SampleValue)>,
}

/// The per-context metrics registry: typed handles plus scrape-time
/// collectors, rendered to Prometheus text by [`MetricsHub::render_text`].
///
/// Registration takes a lock; recording through a handle does not — hot
/// paths call `counter("x", ...)` once, keep the `Arc<Counter>`, and pay
/// one relaxed atomic add per event thereafter.
pub struct MetricsHub {
    families: Mutex<Vec<Family>>,
    sources: Mutex<Vec<Box<dyn MetricSource>>>,
    scrapes: Counter,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

impl MetricsHub {
    pub fn new() -> MetricsHub {
        MetricsHub {
            families: Mutex::new(Vec::new()),
            sources: Mutex::new(Vec::new()),
            scrapes: Counter::new(),
        }
    }

    /// Get or create the counter series `name{labels}`. Counter families
    /// should follow Prometheus convention and end in `_total`.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.handle(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("family {name} kind checked"),
        }
    }

    /// Get or create the gauge series `name{labels}`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        match self.handle(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Arc::new(Gauge::new()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("family {name} kind checked"),
        }
    }

    /// Get or create the log2-bucketed histogram series `name{labels}`
    /// (same [`flashr_safs::LAT_BUCKETS`]-bucket shape as the SAFS
    /// latency histograms).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<LatencyHisto> {
        match self.handle(name, help, MetricKind::Histogram, labels, || {
            Handle::Histogram(Arc::new(LatencyHisto::default()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("family {name} kind checked"),
        }
    }

    fn handle(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let labels: LabelSet = labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
        let mut families = self.families.lock();
        let fam = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(f.kind, kind, "metric {name} registered with two kinds");
                f
            }
            None => {
                families.push(Family { name, help, kind, series: Vec::new() });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, h)) = fam.series.iter().find(|(l, _)| *l == labels) {
            return clone_handle(h);
        }
        let h = make();
        let out = clone_handle(&h);
        fam.series.push((labels, h));
        out
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

    /// Collect every family (handles first, then sources, then the
    /// hub's meta-metric), grouped for exposition.
    pub fn gather(&self) -> Vec<FamilySamples> {
        let mut out: Vec<FamilySamples> = Vec::new();
        {
            let families = self.families.lock();
            for f in families.iter() {
                out.push(FamilySamples {
                    name: f.name,
                    help: f.help,
                    kind: f.kind,
                    series: f.series.iter().map(|(l, h)| (l.clone(), h.sample())).collect(),
                });
            }
        }
        let mut samples = Vec::new();
        for src in self.sources.lock().iter() {
            src.collect(&mut samples);
        }
        samples.push(Sample::counter(
            "flashr_metrics_scrapes_total",
            "Times this context's metrics exposition was rendered.",
            Vec::new(),
            // render_text() bumps the counter before gathering, so the
            // render in flight is already included.
            self.scrapes.get(),
        ));
        for s in samples {
            let kind = s.value.kind();
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

fn clone_handle(h: &Handle) -> Handle {
    match h {
        Handle::Counter(c) => Handle::Counter(c.clone()),
        Handle::Gauge(g) => Handle::Gauge(g.clone()),
        Handle::Histogram(hh) => Handle::Histogram(hh.clone()),
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsHub({} families, {} sources, {} scrapes)",
            self.families.lock().len(),
            self.sources.lock().len(),
            self.scrapes.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned_per_series() {
        let hub = MetricsHub::new();
        let a = hub.counter("x_total", "h", &[("op", "read")]);
        let b = hub.counter("x_total", "h", &[("op", "read")]);
        let c = hub.counter("x_total", "h", &[("op", "write")]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        a.add(3);
        c.inc();
        let fams = hub.gather();
        let fam = fams.iter().find(|f| f.name == "x_total").expect("family");
        assert_eq!(fam.series.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_mismatch_panics() {
        let hub = MetricsHub::new();
        let _ = hub.counter("y_total", "h", &[]);
        let _ = hub.gauge("y_total", "h", &[]);
    }

    #[test]
    fn sources_merge_into_existing_families() {
        struct Src;
        impl MetricSource for Src {
            fn collect(&self, out: &mut Vec<Sample>) {
                out.push(Sample::counter("z_total", "h", vec![("op", "b".into())], 7));
            }
        }
        let hub = MetricsHub::new();
        hub.counter("z_total", "h", &[("op", "a")]).add(1);
        hub.register_source(Box::new(Src));
        let fams = hub.gather();
        let fam = fams.iter().find(|f| f.name == "z_total").expect("family");
        assert_eq!(fam.series.len(), 2);
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
