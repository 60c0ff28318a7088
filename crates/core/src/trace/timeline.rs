//! The span timeline: per-thread tracks of timestamped events.
//!
//! Where [`PassProfile`](super::PassProfile) answers "how much time went
//! where, in aggregate", the timeline answers "*when* did each worker do
//! what": every claimed I/O partition becomes a `task` span on its
//! worker's track, with nested `io-wait` / `compute` / `write-stall`
//! children, and the SAFS layer contributes I/O-request and cache
//! lifecycle spans through the [`SpanSink`] trait. The result is the
//! task-stream view the paper's overlap story (§3.2–3.3, Fig. 10) needs
//! to be debuggable: a straggling partition, a worker idling at a
//! barrier, or readahead arriving late is directly visible.
//!
//! Collection is per-thread ("lane"): each thread appends to its own
//! vector behind its own mutex, so recording never contends across
//! workers. Memory is bounded by a per-lane event budget
//! (`FLASHR_TRACE_EVENTS`, default 65536); overflow increments a shared
//! `dropped_events` counter instead of growing, mirroring
//! `dropped_passes`.
//!
//! Timestamps come from [`flashr_safs::now_nanos`], the same
//! process-wide monotonic clock the SAFS threads stamp their spans with,
//! so merged exports line up across layers.

use flashr_safs::sync::Mutex;
use flashr_safs::{now_nanos, SpanArgs, SpanSink};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-lane event budget (overridable via `FLASHR_TRACE_EVENTS`).
pub const DEFAULT_EVENTS_PER_LANE: usize = 1 << 16;

/// What an event on a lane is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a span on this lane; spans opened by one thread close in
    /// LIFO order, so begins/ends form a properly nested sequence.
    Begin,
    /// Closes the most recent open [`EventKind::Begin`] of this name.
    End,
    /// A completed interval recorded after the fact (`ts_ns` is its
    /// begin, `dur_ns` its length). Used where the begin timestamp is
    /// only known at completion time (I/O requests, blocking waits), so
    /// these may appear out of timestamp order on a lane.
    Complete,
    /// A zero-duration marker.
    Instant,
    /// A counter sample; `args[0].1` carries the value.
    Counter,
}

/// One timestamped event on one lane.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Begin timestamp, nanoseconds on the [`now_nanos`] clock.
    pub ts_ns: u64,
    /// Duration for [`EventKind::Complete`]; 0 for everything else.
    pub dur_ns: u64,
    pub kind: EventKind,
    /// Coarse grouping: `"exec"`, `"io"` or `"cache"`.
    pub cat: &'static str,
    pub name: Cow<'static, str>,
    pub args: SpanArgs,
}

/// One thread's event track.
pub struct Lane {
    name: String,
    events: Mutex<Vec<SpanEvent>>,
    cap: usize,
    dropped: Arc<AtomicU64>,
}

impl Lane {
    fn record(&self, ev: SpanEvent) {
        let mut g = self.events.lock();
        if g.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            g.push(ev);
        }
    }

    /// Open a span now.
    pub fn begin(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, args: SpanArgs) {
        self.record(SpanEvent {
            ts_ns: now_nanos(),
            dur_ns: 0,
            kind: EventKind::Begin,
            cat,
            name: name.into(),
            args,
        });
    }

    /// Close the most recent open span of this name.
    pub fn end(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) {
        self.record(SpanEvent {
            ts_ns: now_nanos(),
            dur_ns: 0,
            kind: EventKind::End,
            cat,
            name: name.into(),
            args: flashr_safs::NO_ARGS,
        });
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
        self.record(SpanEvent {
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
        self.record(SpanEvent {
            ts_ns: now_nanos(),
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: name.into(),
            args,
        });
    }

    /// Record a counter sample.
    pub fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.record(SpanEvent {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Counter,
            cat: "counter",
            name: Cow::Borrowed(name),
            args: [("value", value), ("", 0)],
        });
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Events currently recorded on this lane.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lane({:?}, {} events)", self.name, self.len())
    }
}

/// A copied-out lane for analysis/export.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    pub name: String,
    pub events: Vec<SpanEvent>,
}

/// The per-context timeline collector. Created by
/// [`Tracer::new`](super::Tracer::new) at [`TraceLevel::Timeline`](super::TraceLevel)
/// and installed on the SAFS runtime as its [`SpanSink`].
pub struct Timeline {
    cap: usize,
    /// Lanes in creation order (for stable export ordering).
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Name → lane. Threads with stable names (executor workers, SAFS
    /// I/O threads) share one lane across passes; unnamed threads get a
    /// numbered lane each.
    by_name: Mutex<HashMap<String, Arc<Lane>>>,
    dropped: Arc<AtomicU64>,
}

impl Timeline {
    pub fn new(events_per_lane: usize) -> Timeline {
        Timeline {
            cap: events_per_lane.max(1),
            lanes: Mutex::new(Vec::new()),
            by_name: Mutex::new(HashMap::new()),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Budget from `FLASHR_TRACE_EVENTS` (events per lane), defaulting
    /// to [`DEFAULT_EVENTS_PER_LANE`].
    pub fn with_env_budget() -> Timeline {
        let cap = std::env::var("FLASHR_TRACE_EVENTS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_EVENTS_PER_LANE);
        Timeline::new(cap)
    }

    /// The calling thread's lane, named after the thread (or a numbered
    /// fallback for unnamed threads). Hot paths should call this once
    /// and keep the `Arc`.
    pub fn lane(&self) -> Arc<Lane> {
        match std::thread::current().name() {
            Some(n) => self.named_lane(n),
            None => {
                let n = self.lanes.lock().len();
                self.named_lane(&format!("thread-{n}"))
            }
        }
    }

    /// Get or create the lane with this name.
    pub fn named_lane(&self, name: &str) -> Arc<Lane> {
        if let Some(l) = self.by_name.lock().get(name) {
            return l.clone();
        }
        let lane = Arc::new(Lane {
            name: name.to_string(),
            events: Mutex::new(Vec::new()),
            cap: self.cap,
            dropped: self.dropped.clone(),
        });
        let mut by_name = self.by_name.lock();
        // Double-checked under the lock: another thread may have raced
        // the same name in.
        if let Some(l) = by_name.get(name) {
            return l.clone();
        }
        by_name.insert(name.to_string(), lane.clone());
        self.lanes.lock().push(lane.clone());
        lane
    }

    /// Copy out every lane's events, in lane-creation order.
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        self.lanes
            .lock()
            .iter()
            .map(|l| LaneSnapshot { name: l.name.clone(), events: l.events.lock().clone() })
            .collect()
    }

    /// Events discarded because a lane hit the budget.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events currently held across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.lock().iter().map(|l| l.len()).sum()
    }

    /// Per-lane event budget.
    pub fn budget(&self) -> usize {
        self.cap
    }

    /// Forget all recorded events and lanes.
    pub fn clear(&self) {
        self.lanes.lock().clear();
        self.by_name.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Timeline({} lanes, {} events)", self.lanes.lock().len(), self.total_events())
    }
}

/// SAFS-side spans land on the calling thread's lane: backend I/O
/// threads have stable `safs-<flavor>-s<shard>t<n>` names (one lane
/// group per storage shard), and compute threads calling into the
/// cache reuse the worker lane their executor spans are on.
impl SpanSink for Timeline {
    fn span(&self, cat: &'static str, name: &'static str, begin_ns: u64, end_ns: u64, args: SpanArgs) {
        self.lane().complete(cat, name, begin_ns, end_ns, args);
    }

    fn instant(&self, cat: &'static str, name: &'static str, ts_ns: u64, args: SpanArgs) {
        let lane = self.lane();
        lane.record(SpanEvent {
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name: Cow::Borrowed(name),
            args,
        });
    }

    fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.lane().counter(name, ts_ns, value);
    }
}

/// Claim the `FLASHR_TRACE_OUT` path, once per process: the first traced
/// context to drop (or the first bench harness to export) wins, so a
/// program with several contexts does not overwrite the trace file
/// repeatedly.
pub fn claim_trace_out() -> Option<std::path::PathBuf> {
    use std::sync::atomic::AtomicBool;
    static CLAIMED: AtomicBool = AtomicBool::new(false);
    let path = std::env::var_os("FLASHR_TRACE_OUT").filter(|p| !p.is_empty())?;
    if CLAIMED.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(std::path::PathBuf::from(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_per_name_and_reused() {
        let tl = Timeline::new(16);
        let a = tl.named_lane("w0");
        let b = tl.named_lane("w0");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tl.snapshot().len(), 1);
        tl.named_lane("w1").instant("exec", "x", flashr_safs::NO_ARGS);
        assert_eq!(tl.snapshot().len(), 2);
        assert_eq!(tl.total_events(), 1);
    }

    #[test]
    fn budget_drops_and_counts() {
        let tl = Timeline::new(3);
        let lane = tl.named_lane("w0");
        for _ in 0..5 {
            lane.instant("exec", "x", flashr_safs::NO_ARGS);
        }
        assert_eq!(lane.len(), 3);
        assert_eq!(tl.dropped_events(), 2);
        tl.clear();
        assert_eq!(tl.dropped_events(), 0);
        assert_eq!(tl.total_events(), 0);
    }

    #[test]
    fn begin_end_pairs_are_ordered() {
        let tl = Timeline::new(64);
        let lane = tl.named_lane("w0");
        lane.begin("exec", "task", [("part", 3), ("", 0)]);
        lane.begin("exec", "compute", flashr_safs::NO_ARGS);
        lane.end("exec", "compute");
        lane.end("exec", "task");
        let snap = tl.snapshot();
        let evs = &snap[0].events;
        assert_eq!(evs.len(), 4);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[3].kind, EventKind::End);
        assert_eq!(evs[0].args[0], ("part", 3));
    }

    #[test]
    fn complete_records_duration() {
        let tl = Timeline::new(8);
        let lane = tl.named_lane("io");
        lane.complete("io", "read", 100, 350, [("bytes", 4096), ("", 0)]);
        let ev = &tl.snapshot()[0].events[0];
        assert_eq!((ev.ts_ns, ev.dur_ns), (100, 250));
        assert_eq!(ev.kind, EventKind::Complete);
    }
}
