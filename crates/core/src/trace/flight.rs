//! The fault flight recorder: the newest events of every lane of the
//! context's span log, dumped to JSON when something goes wrong.
//!
//! The span log ([`crate::trace::timeline`]) records at every trace
//! level, including off — below `FLASHR_TRACE=timeline` just the last
//! [`RECENT_EVENTS_PER_LANE`] events per thread: executor task/pass
//! spans, SAFS I/O and cache spans. When a worker panics, or the SAFS
//! I/O threads surface their first device error (the `io-error` span),
//! the recorder writes those events plus the context's [`Counters`] to a
//! JSON file, so the state leading up to a fault is preserved without
//! anyone having re-run the workload under tracing. The recorder owns
//! no events of its own: what it adds to the log is the dump.
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

use super::timeline::{Timeline, RECENT_EVENTS_PER_LANE};
use super::Counters;
use crate::json;
use crate::session::MemGovernor;
use crate::stats::ExecStats;
use flashr_safs::sync::Mutex;
use flashr_safs::{now_nanos, Safs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// The handles a dump reads a context's [`Counters`] from. It holds
/// these, never the context, so the recorder creates no reference cycle.
pub struct CounterSources {
    pub exec: Arc<ExecStats>,
    pub governor: MemGovernor,
    pub safs: Option<Safs>,
}

/// The per-context flight recorder: the dump side of the context's span
/// log.
pub struct FlightRecorder {
    log: Arc<Timeline>,
    dumped: AtomicBool,
    dump_path: Mutex<Option<PathBuf>>,
    /// Where the counters embedded in dumps are read from.
    counters: Option<CounterSources>,
}

impl FlightRecorder {
    /// A recorder over `log` that dumps when the log sees an `io-error`.
    pub fn new(log: Arc<Timeline>, counters: Option<CounterSources>) -> Arc<FlightRecorder> {
        let rec = Arc::new(FlightRecorder {
            log,
            dumped: AtomicBool::new(false),
            dump_path: Mutex::new(None),
            counters,
        });
        // Weak: the recorder owns the log, and a strong reference back
        // from the log's hook would keep both alive for good.
        let weak = Arc::downgrade(&rec);
        rec.log.on_io_error(move || {
            if let Some(rec) = weak.upgrade() {
                let _ = rec.dump_now("io-error");
            }
        });
        rec
    }

    /// Override the dump destination (takes precedence over
    /// `FLASHR_FLIGHT_OUT`). A context derived from this one
    /// (`FlashCtx::with_mode` and the like) dumps there too.
    pub fn set_dump_path(&self, path: impl Into<PathBuf>) {
        *self.dump_path.lock() = Some(path.into());
    }

    /// The destination [`FlightRecorder::set_dump_path`] set, if any.
    pub(crate) fn dump_path(&self) -> Option<PathBuf> {
        self.dump_path.lock().clone()
    }

    /// Total events currently held by the span log.
    pub fn total_events(&self) -> usize {
        self.log.total_events()
    }

    /// Whether this recorder already wrote its dump.
    pub fn dumped(&self) -> bool {
        self.dumped.load(Ordering::SeqCst)
    }

    /// Dump now: the panic hook and the `io-error` hook call this, and
    /// benches force one to archive as a CI artifact. Returns the path
    /// written, or `None` if this recorder already dumped or no
    /// destination could be written.
    pub fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let path =
            self.dump_path.lock().clone().or_else(crate::env::flight_out).unwrap_or_else(|| {
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

    /// The dump document: reason, timestamp, the newest
    /// [`RECENT_EVENTS_PER_LANE`] events of every lane, and the
    /// [`Counters`] read at dump time (`null` without sources).
    pub fn dump_json(&self, reason: &str) -> String {
        json::object(|w| {
            w.key("reason").str(reason);
            w.key("ts_ns").u64(now_nanos());
            w.key("pid").u64(std::process::id() as u64);
            w.key("events_per_lane").u64(RECENT_EVENTS_PER_LANE as u64);
            w.key("lanes").arr(|w| {
                for lane in self.log.newest(RECENT_EVENTS_PER_LANE) {
                    w.obj(|w| {
                        w.key("name").str(&lane.name);
                        w.key("events").arr(|w| {
                            for ev in &lane.events {
                                w.obj(|w| {
                                    w.key("ts_ns").u64(ev.ts_ns);
                                    w.key("dur_ns").u64(ev.dur_ns);
                                    w.key("kind").str(ev.kind.name());
                                    w.key("cat").str(ev.cat);
                                    w.key("name").str(&ev.name);
                                    w.key("args").obj(|w| ev.args_json(w));
                                });
                            }
                        });
                    });
                }
            });
            match &self.counters {
                Some(c) => {
                    let counters = Counters::read(&c.exec, &c.governor, c.safs.as_ref());
                    w.key("counters").obj(|w| counters.members(w));
                }
                None => w.key("counters").null(),
            }
        })
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightRecorder({:?}, dumped={})", self.log, self.dumped())
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
                        let _ = r.dump_now("panic");
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
    use flashr_safs::{SpanSink, NO_ARGS};

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        // A timeline-sized lane holds far more than a dump carries: the
        // dump is the newest RECENT_EVENTS_PER_LANE events, oldest first.
        let log = Arc::new(Timeline::new(4 * RECENT_EVENTS_PER_LANE));
        let fr = FlightRecorder::new(log.clone(), None);
        let lane = log.named_lane("w0");
        let n = 2 * RECENT_EVENTS_PER_LANE as u64 + 10;
        for i in 0..n {
            lane.complete("exec", "task", i, i + 1, [("part", i), ("", 0)]);
        }
        assert_eq!(fr.total_events() as u64, n);
        let doc = json::parse(&fr.dump_json("unit")).expect("strict JSON");
        let events = doc["lanes"].as_array().unwrap()[0]["events"].as_array().unwrap();
        assert_eq!(events.len(), RECENT_EVENTS_PER_LANE);
        assert_eq!(events[0]["ts_ns"].as_u64(), Some(n - RECENT_EVENTS_PER_LANE as u64));
        assert_eq!(events.last().unwrap()["ts_ns"].as_u64(), Some(n - 1));
    }

    #[test]
    fn io_error_span_triggers_exactly_one_dump() {
        let dir = std::env::temp_dir().join(format!(
            "flashr-flight-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&dir);
        let log = Arc::new(Timeline::for_level(crate::trace::TraceLevel::Off));
        let fr = FlightRecorder::new(log.clone(), None);
        fr.set_dump_path(&dir);
        log.span("io", "read", 0, 5, NO_ARGS);
        assert!(!fr.dumped());
        log.span("io", "io-error", 5, 6, [("disk", 1), ("", 0)]);
        assert!(fr.dumped());
        let text = std::fs::read_to_string(&dir).expect("dump written");
        assert!(text.contains("\"reason\":\"io-error\""));
        // Second error: no rewrite (content would differ if it re-dumped).
        log.span("io", "io-error", 7, 8, NO_ARGS);
        let again = std::fs::read_to_string(&dir).expect("dump still there");
        assert_eq!(text, again);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn dump_json_shape_is_stable() {
        let log = Arc::new(Timeline::for_level(crate::trace::TraceLevel::Off));
        let fr = FlightRecorder::new(log.clone(), None);
        log.named_lane("w0").instant("exec", "marker", [("pass", 2), ("", 0)]);
        let json = fr.dump_json("unit");
        assert!(json.contains("\"reason\":\"unit\""));
        assert!(json.contains("\"name\":\"w0\""));
        assert!(json.contains("\"kind\":\"instant\""));
        assert!(json.contains("\"pass\":2"));
        assert!(json.contains("\"counters\":null"));
        json::parse(&json).expect("strict JSON");
    }
}
