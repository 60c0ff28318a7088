//! The fault flight recorder: a bounded ring of recent span events per
//! lane, always on, dumped to JSON when something goes wrong.
//!
//! Where the [`crate::trace::timeline`] collector records *everything*
//! (and only at `FLASHR_TRACE=timeline`), the flight recorder keeps just
//! the last [`DEFAULT_EVENTS_PER_LANE`] events per thread — executor
//! task/pass spans, SAFS I/O and cache spans — at every trace level,
//! including off. When a worker panics, or the SAFS I/O threads surface
//! their first device error (the `io-error` span), the recorder writes
//! the rings plus a full metrics snapshot to a JSON file, so the state
//! leading up to a fault is preserved without anyone having re-run the
//! workload under tracing.
//!
//! Cost model: recording is one short per-lane mutex hold and a ring
//! push; the ring is pre-allocated, so steady-state recording does not
//! allocate. Events ride on the same [`SpanEvent`] type the timeline
//! uses, so a dump reads like a truncated trace.
//!
//! Dump triggers, first one wins (the `dumped` flag is claimed once per
//! recorder):
//!
//! * a panic anywhere in the process (a process-wide hook walks every
//!   live recorder);
//! * the first `io-error` span from the SAFS layer;
//! * an explicit [`FlightRecorder::dump_now`] (benches force a dump so
//!   CI can archive one as an artifact).
//!
//! The output path is, in priority order: the path set via
//! [`FlightRecorder::set_dump_path`], the `FLASHR_FLIGHT_OUT`
//! environment variable, or `flashr-flight-<pid>.json` in the
//! temporary directory.

use super::MetricsHub;
use crate::trace::timeline::{EventKind, SpanEvent};
use crate::trace::json_escape;
use flashr_safs::sync::Mutex;
use flashr_safs::{now_nanos, SpanArgs, SpanSink};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Default ring capacity per lane (overridable via `FLASHR_FLIGHT_EVENTS`).
pub const DEFAULT_EVENTS_PER_LANE: usize = 256;

/// One thread's bounded ring of recent events.
pub struct FlightLane {
    name: String,
    ring: Mutex<VecDeque<SpanEvent>>,
    cap: usize,
}

impl FlightLane {
    fn push(&self, ev: SpanEvent) {
        let mut g = self.ring.lock();
        if g.len() >= self.cap {
            g.pop_front();
        }
        g.push_back(ev);
    }

    /// Record a completed interval `[begin_ns, end_ns]`.
    pub fn complete(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        begin_ns: u64,
        end_ns: u64,
        args: SpanArgs,
    ) {
        self.push(SpanEvent {
            ts_ns: begin_ns,
            dur_ns: end_ns.saturating_sub(begin_ns),
            kind: EventKind::Complete,
            cat,
            name: name.into(),
            args,
        });
    }

    /// Record a zero-duration marker now.
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, args: SpanArgs) {
        self.push(SpanEvent {
            ts_ns: now_nanos(),
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: name.into(),
            args,
        });
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-context flight recorder. Installed on the SAFS runtime as the
/// (always-on half of the) span sink and fed task/pass events by the
/// executors directly.
pub struct FlightRecorder {
    cap: usize,
    lanes: Mutex<Vec<Arc<FlightLane>>>,
    by_name: Mutex<HashMap<String, Arc<FlightLane>>>,
    dumped: AtomicBool,
    dump_path: Mutex<Option<PathBuf>>,
    metrics: Mutex<Option<Arc<MetricsHub>>>,
}

impl FlightRecorder {
    pub fn new(events_per_lane: usize) -> FlightRecorder {
        FlightRecorder {
            cap: events_per_lane.max(1),
            lanes: Mutex::new(Vec::new()),
            by_name: Mutex::new(HashMap::new()),
            dumped: AtomicBool::new(false),
            dump_path: Mutex::new(None),
            metrics: Mutex::new(None),
        }
    }

    /// Ring capacity from `FLASHR_FLIGHT_EVENTS`, defaulting to
    /// [`DEFAULT_EVENTS_PER_LANE`].
    pub fn with_env_budget() -> FlightRecorder {
        let cap = std::env::var("FLASHR_FLIGHT_EVENTS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_EVENTS_PER_LANE);
        FlightRecorder::new(cap)
    }

    /// Attach the hub whose exposition is embedded in dumps.
    pub(crate) fn set_metrics(&self, hub: Arc<MetricsHub>) {
        *self.metrics.lock() = Some(hub);
    }

    /// Override the dump destination (takes precedence over
    /// `FLASHR_FLIGHT_OUT`).
    pub fn set_dump_path(&self, path: impl Into<PathBuf>) {
        *self.dump_path.lock() = Some(path.into());
    }

    /// The calling thread's lane (thread-name keyed, like the timeline).
    pub fn lane(&self) -> Arc<FlightLane> {
        match std::thread::current().name() {
            Some(n) => self.named_lane(n),
            None => {
                let n = self.lanes.lock().len();
                self.named_lane(&format!("thread-{n}"))
            }
        }
    }

    /// Get or create the lane with this name.
    pub fn named_lane(&self, name: &str) -> Arc<FlightLane> {
        if let Some(l) = self.by_name.lock().get(name) {
            return l.clone();
        }
        let lane = Arc::new(FlightLane {
            name: name.to_string(),
            ring: Mutex::new(VecDeque::with_capacity(self.cap)),
            cap: self.cap,
        });
        let mut by_name = self.by_name.lock();
        if let Some(l) = by_name.get(name) {
            return l.clone();
        }
        by_name.insert(name.to_string(), lane.clone());
        self.lanes.lock().push(lane.clone());
        lane
    }

    /// Total events currently held across all rings.
    pub fn total_events(&self) -> usize {
        self.lanes.lock().iter().map(|l| l.len()).sum()
    }

    /// Whether this recorder already wrote its dump.
    pub fn dumped(&self) -> bool {
        self.dumped.load(Ordering::SeqCst)
    }

    /// Force a dump now (benches archive one as a CI artifact). Returns
    /// the path written, or `None` if this recorder already dumped or no
    /// destination could be written.
    pub fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        self.dump(reason)
    }

    fn dump(&self, reason: &str) -> Option<PathBuf> {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let path = self
            .dump_path
            .lock()
            .clone()
            .or_else(|| {
                std::env::var_os("FLASHR_FLIGHT_OUT")
                    .filter(|p| !p.is_empty())
                    .map(PathBuf::from)
            })
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("flashr-flight-{}.json", std::process::id()))
            });
        let json = self.dump_json(reason);
        match std::fs::write(&path, json) {
            Ok(()) => {
                eprintln!("flashr: flight recorder dumped to {} ({reason})", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("flashr: flight recorder could not write {}: {e}", path.display());
                None
            }
        }
    }

    /// The dump document: reason, timestamp, every ring, and the full
    /// metrics exposition (when a hub is attached).
    pub fn dump_json(&self, reason: &str) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\"reason\":");
        json_escape(reason, &mut o);
        o.push_str(",\"ts_ns\":");
        o.push_str(&now_nanos().to_string());
        o.push_str(",\"pid\":");
        o.push_str(&std::process::id().to_string());
        o.push_str(",\"events_per_lane\":");
        o.push_str(&self.cap.to_string());
        o.push_str(",\"lanes\":[");
        let lanes = self.lanes.lock().clone();
        for (i, lane) in lanes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"name\":");
            json_escape(&lane.name, &mut o);
            o.push_str(",\"events\":[");
            let ring = lane.ring.lock();
            for (j, ev) in ring.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                event_json(ev, &mut o);
            }
            drop(ring);
            o.push_str("]}");
        }
        o.push_str("],\"metrics_text\":");
        match self.metrics.lock().clone() {
            Some(hub) => json_escape(&hub.render_text(), &mut o),
            None => o.push_str("null"),
        }
        o.push('}');
        o
    }
}

fn event_json(ev: &SpanEvent, out: &mut String) {
    out.push_str("{\"ts_ns\":");
    out.push_str(&ev.ts_ns.to_string());
    out.push_str(",\"dur_ns\":");
    out.push_str(&ev.dur_ns.to_string());
    out.push_str(",\"kind\":");
    let kind = match ev.kind {
        EventKind::Begin => "begin",
        EventKind::End => "end",
        EventKind::Complete => "complete",
        EventKind::Instant => "instant",
        EventKind::Counter => "counter",
    };
    json_escape(kind, out);
    out.push_str(",\"cat\":");
    json_escape(ev.cat, out);
    out.push_str(",\"name\":");
    json_escape(&ev.name, out);
    out.push_str(",\"args\":{");
    let mut first = true;
    for (k, v) in ev.args.iter().filter(|(k, _)| !k.is_empty()) {
        if !first {
            out.push(',');
        }
        first = false;
        json_escape(k, out);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("}}");
}

/// SAFS-side spans land on the calling thread's ring; the first
/// `io-error` span triggers the dump.
impl SpanSink for FlightRecorder {
    fn span(&self, cat: &'static str, name: &'static str, begin_ns: u64, end_ns: u64, args: SpanArgs) {
        self.lane().complete(cat, name, begin_ns, end_ns, args);
        if name == "io-error" {
            let _ = self.dump("io-error");
        }
    }

    fn instant(&self, cat: &'static str, name: &'static str, ts_ns: u64, args: SpanArgs) {
        self.lane().push(SpanEvent {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: Cow::Borrowed(name),
            args,
        });
        if name == "io-error" {
            let _ = self.dump("io-error");
        }
    }

    fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.lane().push(SpanEvent {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Counter,
            cat: "counter",
            name: Cow::Borrowed(name),
            args: [("value", value), ("", 0)],
        });
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlightRecorder({} lanes, {} events, dumped={})",
            self.lanes.lock().len(),
            self.total_events(),
            self.dumped()
        )
    }
}

/// A span sink that feeds the always-on flight recorder and, when
/// timeline tracing is active, the full [`crate::trace::Timeline`] too.
pub struct TeeSink {
    pub flight: Arc<FlightRecorder>,
    pub timeline: Option<Arc<crate::trace::Timeline>>,
}

impl SpanSink for TeeSink {
    fn span(&self, cat: &'static str, name: &'static str, begin_ns: u64, end_ns: u64, args: SpanArgs) {
        self.flight.span(cat, name, begin_ns, end_ns, args);
        if let Some(tl) = &self.timeline {
            tl.span(cat, name, begin_ns, end_ns, args);
        }
    }

    fn instant(&self, cat: &'static str, name: &'static str, ts_ns: u64, args: SpanArgs) {
        self.flight.instant(cat, name, ts_ns, args);
        if let Some(tl) = &self.timeline {
            tl.instant(cat, name, ts_ns, args);
        }
    }

    fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.flight.counter(name, ts_ns, value);
        if let Some(tl) = &self.timeline {
            tl.counter(name, ts_ns, value);
        }
    }
}

fn recorders() -> &'static std::sync::Mutex<Vec<Weak<FlightRecorder>>> {
    static RECORDERS: OnceLock<std::sync::Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    RECORDERS.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// Register a recorder with the process-wide panic hook (installed once,
/// chained onto whatever hook was there before). Every live recorder
/// dumps when any thread panics; the once-per-recorder flag keeps a
/// multi-context program from writing the same recorder twice.
pub(crate) fn register_panic_dump(rec: &Arc<FlightRecorder>) {
    if let Ok(mut g) = recorders().lock() {
        g.retain(|w| w.strong_count() > 0);
        g.push(Arc::downgrade(rec));
    }
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Never panic inside the hook (that aborts): skip the dump
            // if the registry lock is unavailable.
            if let Ok(g) = recorders().lock() {
                for w in g.iter() {
                    if let Some(r) = w.upgrade() {
                        let _ = r.dump("panic");
                    }
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_safs::NO_ARGS;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let fr = FlightRecorder::new(4);
        let lane = fr.named_lane("w0");
        for i in 0..10u64 {
            lane.complete("exec", "task", i, i + 1, [("part", i), ("", 0)]);
        }
        assert_eq!(lane.len(), 4);
        let ring = lane.ring.lock();
        // Oldest events fell out; the survivors are the last four.
        assert_eq!(ring.front().unwrap().ts_ns, 6);
        assert_eq!(ring.back().unwrap().ts_ns, 9);
    }

    #[test]
    fn io_error_span_triggers_exactly_one_dump() {
        let dir = std::env::temp_dir()
            .join(format!("flashr-flight-unit-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_file(&dir);
        let fr = FlightRecorder::new(8);
        fr.set_dump_path(&dir);
        fr.span("io", "read", 0, 5, NO_ARGS);
        assert!(!fr.dumped());
        fr.span("io", "io-error", 5, 6, [("disk", 1), ("", 0)]);
        assert!(fr.dumped());
        let text = std::fs::read_to_string(&dir).expect("dump written");
        assert!(text.contains("\"reason\":\"io-error\""));
        // Second error: no rewrite (content would differ if it re-dumped).
        fr.span("io", "io-error", 7, 8, NO_ARGS);
        let again = std::fs::read_to_string(&dir).expect("dump still there");
        assert_eq!(text, again);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn dump_json_shape_is_stable() {
        let fr = FlightRecorder::new(8);
        fr.named_lane("w0").instant("exec", "marker", [("pass", 2), ("", 0)]);
        let json = fr.dump_json("unit");
        assert!(json.contains("\"reason\":\"unit\""));
        assert!(json.contains("\"name\":\"w0\""));
        assert!(json.contains("\"kind\":\"instant\""));
        assert!(json.contains("\"pass\":2"));
        assert!(json.contains("\"metrics_text\":null"));
        crate::json::parse(&json).expect("strict JSON");
    }
}
