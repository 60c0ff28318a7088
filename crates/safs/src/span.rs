//! Span emission hooks for the timeline tracing layer.
//!
//! The timeline collector itself lives above this crate (in
//! `flashr_core::trace::timeline`), but the events worth recording —
//! I/O request lifecycles, cache misses, single-flight waits — happen
//! down here. This module defines the narrow interface the two
//! layers share:
//!
//! * [`now_nanos`] — a process-wide monotonic clock. Every span in the
//!   process, whether emitted by an executor worker or an I/O thread,
//!   is timestamped against the same origin so the merged timeline
//!   lines up.
//! * [`SpanSink`] — the trait a collector implements. The SAFS runtime
//!   delivers every span to the sink of each live context on it
//!   ([`Safs::add_span_sink`](crate::Safs::add_span_sink)); when none is
//!   registered the hot paths pay one relaxed atomic load.
//!
//! SAFS-side spans are reported as *completed* intervals (begin + end
//! timestamps delivered together at completion time) rather than
//! begin/end pairs: an I/O thread learns a request's submit time only
//! when the request reaches it, and completed intervals stay valid under
//! the out-of-order completion an async engine produces.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The process-wide monotonic clock origin.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_nanos() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Two optional `(name, value)` arguments carried by a span; a pair with
/// an empty name is unused.
pub type SpanArgs = [(&'static str, u64); 2];

/// No arguments.
pub const NO_ARGS: SpanArgs = [("", 0), ("", 0)];

/// Receiver for spans emitted below the engine (I/O threads, the page
/// cache, file front doors). Implemented by the core timeline collector;
/// events land on the calling thread's track.
pub trait SpanSink: Send + Sync {
    /// A completed interval `[begin_ns, end_ns]` (from [`now_nanos`]).
    fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        begin_ns: u64,
        end_ns: u64,
        args: SpanArgs,
    );

    /// A zero-duration marker.
    fn instant(&self, cat: &'static str, name: &'static str, ts_ns: u64, args: SpanArgs);

    /// A counter sample (e.g. queue depth) at `ts_ns`.
    fn counter(&self, name: &'static str, ts_ns: u64, value: u64);
}

/// The sinks registered on one runtime: a context derived from another
/// shares its runtime, and each must see the spans of a pass run on
/// either. The `on` flag keeps the no-sink path to one relaxed load — no
/// lock is touched until a sink is registered.
#[derive(Default)]
pub(crate) struct SpanSinkCell {
    on: AtomicBool,
    sinks: Mutex<Arc<SinkSet>>,
}

/// Every registered sink, addressed as one (the [`SpanSink`] methods,
/// delivered to each).
#[derive(Default)]
pub(crate) struct SinkSet(Vec<Arc<dyn SpanSink>>);

impl SinkSet {
    pub(crate) fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        begin_ns: u64,
        end_ns: u64,
        args: SpanArgs,
    ) {
        self.0.iter().for_each(|s| s.span(cat, name, begin_ns, end_ns, args));
    }

    pub(crate) fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        ts_ns: u64,
        args: SpanArgs,
    ) {
        self.0.iter().for_each(|s| s.instant(cat, name, ts_ns, args));
    }

    pub(crate) fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.0.iter().for_each(|s| s.counter(name, ts_ns, value));
    }
}

impl SpanSinkCell {
    /// The registered sinks, or `None` (cheaply) when there are none.
    pub(crate) fn get(&self) -> Option<Arc<SinkSet>> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.sinks.lock().clone())
    }

    pub(crate) fn add(&self, sink: Arc<dyn SpanSink>) {
        self.update(|sinks| sinks.push(sink));
    }

    /// Unregister `sink` (matched by address); unknown sinks are ignored.
    pub(crate) fn remove(&self, sink: &Arc<dyn SpanSink>) {
        self.update(|sinks| {
            sinks.retain(|s| !std::ptr::addr_eq(Arc::as_ptr(s), Arc::as_ptr(sink)));
        });
    }

    fn update(&self, change: impl FnOnce(&mut Vec<Arc<dyn SpanSink>>)) {
        let mut g = self.sinks.lock();
        let mut sinks = g.0.clone();
        change(&mut sinks);
        self.on.store(!sinks.is_empty(), Ordering::Relaxed);
        *g = Arc::new(SinkSet(sinks));
    }
}

impl std::fmt::Debug for SpanSinkCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanSinkCell(on={})", self.on.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    struct CountSink(std::sync::atomic::AtomicU64);
    impl SpanSink for CountSink {
        fn span(&self, _: &'static str, _: &'static str, _: u64, _: u64, _: SpanArgs) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn instant(&self, _: &'static str, _: &'static str, _: u64, _: SpanArgs) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn counter(&self, _: &'static str, _: u64, _: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn cell_install_and_clear() {
        let cell = SpanSinkCell::default();
        assert!(cell.get().is_none());
        let sinks = [0, 1].map(|_| Arc::new(CountSink(std::sync::atomic::AtomicU64::new(0))));
        let [a, b] = sinks.clone().map(|s| s as Arc<dyn SpanSink>);
        cell.add(a.clone());
        cell.add(b.clone());
        cell.get().expect("sinks registered").counter("q", now_nanos(), 1);
        assert_eq!(sinks.each_ref().map(|s| s.0.load(Ordering::Relaxed)), [1, 1], "both see it");
        // Removing one leaves the other registered.
        cell.remove(&b);
        cell.get().expect("one sink left").counter("q", now_nanos(), 1);
        assert_eq!(sinks.each_ref().map(|s| s.0.load(Ordering::Relaxed)), [2, 1]);
        cell.remove(&a);
        assert!(cell.get().is_none());
    }
}
