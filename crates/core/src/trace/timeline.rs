//! The span log: per-thread tracks of timestamped events, one log per
//! context, recorded once and rendered by every view.
//!
//! Where [`PassProfile`](super::PassProfile) answers "how much time went
//! where, in aggregate", the log answers "*when* did each worker do
//! what". Its detail follows the trace level it was built for
//! ([`Timeline::for_level`]):
//!
//! * below [`TraceLevel::Timeline`] it is the flight recorder's memory:
//!   the last [`RECENT_EVENTS_PER_LANE`] events per thread — one `pass`
//!   interval per pass, one `task` interval per partition, the
//!   `eager-step` markers and every SAFS span — in
//!   pre-allocated buffers, so steady-state recording does not allocate;
//! * at [`TraceLevel::Timeline`] every claimed I/O partition is a `task`
//!   Begin/End pair on its worker's track with nested `io-wait` /
//!   `compute` / `write-stall` children and per-chunk operator spans,
//!   up to [`DEFAULT_EVENTS_PER_LANE`] events per lane — the task-stream
//!   view the paper's overlap story (§3.2–3.3, Fig. 10) needs to be
//!   debuggable, exported as a Chrome trace and mined for each pass's
//!   task statistics.
//!
//! Either way the SAFS layer contributes I/O-request and cache lifecycle
//! spans through the [`SpanSink`] trait, and a lane that is full evicts
//! its *oldest* event and counts it in `dropped_events`: a budgeted
//! trace and a post-mortem both want the end of the run.
//!
//! Collection is per-thread ("lane"): each thread appends to its own
//! buffer behind its own mutex, so recording never contends across
//! workers. Timestamps come from [`flashr_safs::now_nanos`], the same
//! process-wide monotonic clock the SAFS threads stamp their spans with,
//! so merged exports line up across layers.

use super::TraceLevel;
use flashr_safs::sync::Mutex;
use flashr_safs::{now_nanos, SpanArgs, SpanSink, NO_ARGS};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;

/// Per-lane event budget at [`TraceLevel::Timeline`].
pub const DEFAULT_EVENTS_PER_LANE: usize = 1 << 16;

/// Per-lane event budget below [`TraceLevel::Timeline`], and the most a
/// flight-recorder dump carries of any lane.
pub const RECENT_EVENTS_PER_LANE: usize = 256;

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

impl EventKind {
    /// Lower-case name, as flight-recorder dumps spell it.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Complete => "complete",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
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

impl SpanEvent {
    /// The used `(name, value)` argument pairs as JSON object members.
    pub(crate) fn args_json(&self, w: &mut crate::json::Writer) {
        for (k, v) in self.args.iter().filter(|(k, _)| !k.is_empty()) {
            w.key(k).u64(*v);
        }
    }
}

/// One thread's event track.
pub struct Lane {
    name: String,
    buf: Mutex<LaneBuf>,
    cap: usize,
    /// Whether this lane keeps the full-detail events (see the module
    /// docs); fixed by the log's trace level.
    detail: bool,
}

struct LaneBuf {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

impl Lane {
    fn record(
        &self,
        kind: EventKind,
        cat: &'static str,
        name: Cow<'static, str>,
        ts_ns: u64,
        dur_ns: u64,
        args: SpanArgs,
    ) {
        let mut g = self.buf.lock();
        if g.events.len() >= self.cap {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(SpanEvent { ts_ns, dur_ns, kind, cat, name, args });
    }

    /// Open a detail span now; recorded at [`TraceLevel::Timeline`] only.
    pub fn begin(&self, cat: &'static str, name: &'static str, args: SpanArgs) {
        if self.detail {
            self.record(EventKind::Begin, cat, name.into(), now_nanos(), 0, args);
        }
    }

    /// Close the most recent open span of this name; the counterpart of
    /// [`Lane::begin`] and [`Lane::open`] at [`TraceLevel::Timeline`].
    pub fn end(&self, cat: &'static str, name: &'static str) {
        if self.detail {
            self.record(EventKind::End, cat, name.into(), now_nanos(), 0, NO_ARGS);
        }
    }

    /// Open a span every level keeps (`pass`, `task`) and return its
    /// begin timestamp for [`Lane::close`]. At [`TraceLevel::Timeline`]
    /// this records the Begin; below it nothing yet.
    pub fn open(&self, cat: &'static str, name: &'static str, args: SpanArgs) -> u64 {
        let now = now_nanos();
        if self.detail {
            self.record(EventKind::Begin, cat, name.into(), now, 0, args);
        }
        now
    }

    /// Close a span from [`Lane::open`]: the End of its Begin at
    /// [`TraceLevel::Timeline`], the whole interval as one Complete
    /// below it — so no level stores a span twice.
    pub fn close(&self, cat: &'static str, name: &'static str, begin_ns: u64, args: SpanArgs) {
        if self.detail {
            self.end(cat, name);
        } else {
            self.complete(cat, name, begin_ns, now_nanos(), args);
        }
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
        let dur = end_ns.saturating_sub(begin_ns);
        self.record(EventKind::Complete, cat, name.into(), begin_ns, dur, args);
    }

    /// Record a completed detail interval of `dur_ns` ending now (the
    /// per-chunk operator spans); [`TraceLevel::Timeline`] only, and the
    /// name is only copied then.
    pub fn complete_detail(&self, cat: &'static str, name: &str, dur_ns: u64, args: SpanArgs) {
        if self.detail {
            let end = now_nanos();
            self.complete(cat, name.to_string(), end.saturating_sub(dur_ns), end, args);
        }
    }

    /// Record a zero-duration marker now.
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, args: SpanArgs) {
        self.record(EventKind::Instant, cat, name.into(), now_nanos(), 0, args);
    }

    /// Record a counter sample.
    pub fn counter(&self, name: &'static str, ts_ns: u64, value: u64) {
        self.record(
            EventKind::Counter,
            "counter",
            name.into(),
            ts_ns,
            0,
            [("value", value), ("", 0)],
        );
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Events currently recorded on this lane.
    pub fn len(&self) -> usize {
        self.buf.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the newest `max` events, oldest first.
    fn newest(&self, max: usize) -> LaneSnapshot {
        let g = self.buf.lock();
        let skip = g.events.len().saturating_sub(max);
        LaneSnapshot {
            name: self.name.clone(),
            events: g.events.iter().skip(skip).cloned().collect(),
        }
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

/// The per-context span log. Created by [`Tracer::new`](super::Tracer::new)
/// and registered on the SAFS runtime as the context's [`SpanSink`].
pub struct Timeline {
    cap: usize,
    detail: bool,
    lanes: Mutex<Lanes>,
    /// Run on the reporting thread when SAFS reports an `io-error`.
    on_io_error: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

#[derive(Default)]
struct Lanes {
    /// In creation order (for stable export ordering).
    all: Vec<Arc<Lane>>,
    /// Threads with stable names (SAFS I/O threads) share one lane
    /// across passes.
    by_name: HashMap<String, Arc<Lane>>,
    /// Executor worker `tid`'s lane, `flashr-w<tid>`, whichever thread
    /// runs it.
    workers: Vec<Option<Arc<Lane>>>,
    /// Unnamed threads get one numbered lane each, for good.
    by_thread: HashMap<ThreadId, Arc<Lane>>,
}

thread_local! {
    /// The executor worker this thread is running, if any.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` as executor worker `tid`: every span the calling thread
/// records meanwhile — its own and the SAFS spans it takes — lands on
/// the `flashr-w<tid>` lane, so a worker's lane does not depend on which
/// pool thread ran it. Restores the previous identity on return or
/// unwind.
pub(crate) fn as_worker<R>(tid: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER.set(self.0);
        }
    }
    let _restore = Restore(WORKER.replace(Some(tid)));
    f()
}

impl Timeline {
    /// A full-detail log with this per-lane budget.
    pub fn new(events_per_lane: usize) -> Timeline {
        Timeline {
            cap: events_per_lane.max(1),
            detail: true,
            lanes: Mutex::default(),
            on_io_error: OnceLock::new(),
        }
    }

    /// The log of a context tracing at `level`: full detail within
    /// [`DEFAULT_EVENTS_PER_LANE`] at [`TraceLevel::Timeline`], the
    /// recent-events summary below it.
    pub fn for_level(level: TraceLevel) -> Timeline {
        if level >= TraceLevel::Timeline {
            Timeline::new(DEFAULT_EVENTS_PER_LANE)
        } else {
            Timeline { detail: false, ..Timeline::new(RECENT_EVENTS_PER_LANE) }
        }
    }

    /// The calling thread's lane: its worker's inside `as_worker`, else
    /// named after the thread (or a numbered fallback for unnamed
    /// threads). Hot paths should call this once and keep the `Arc`.
    pub fn lane(&self) -> Arc<Lane> {
        if let Some(tid) = WORKER.get() {
            return self.worker_lane(tid);
        }
        let thread = std::thread::current();
        if let Some(name) = thread.name() {
            return self.named_lane(name);
        }
        let mut lanes = self.lanes.lock();
        if let Some(l) = lanes.by_thread.get(&thread.id()) {
            return l.clone();
        }
        let name = format!("thread-{}", lanes.all.len());
        let lane = self.get_or_create(&mut lanes, &name);
        lanes.by_thread.insert(thread.id(), lane.clone());
        lane
    }

    /// Executor worker `tid`'s lane, `flashr-w<tid>`; its name is
    /// formatted once per log.
    pub fn worker_lane(&self, tid: usize) -> Arc<Lane> {
        let mut lanes = self.lanes.lock();
        if let Some(Some(lane)) = lanes.workers.get(tid) {
            return lane.clone();
        }
        let lane = self.get_or_create(&mut lanes, &format!("flashr-w{tid}"));
        if lanes.workers.len() <= tid {
            lanes.workers.resize(tid + 1, None);
        }
        lanes.workers[tid] = Some(lane.clone());
        lane
    }

    /// Get or create the lane with this name.
    pub fn named_lane(&self, name: &str) -> Arc<Lane> {
        self.get_or_create(&mut self.lanes.lock(), name)
    }

    fn get_or_create(&self, lanes: &mut Lanes, name: &str) -> Arc<Lane> {
        if let Some(l) = lanes.by_name.get(name) {
            return l.clone();
        }
        // The summary's small buffer is allocated whole, so recording
        // into it never allocates; a timeline-sized one grows on demand.
        let events = if self.detail { VecDeque::new() } else { VecDeque::with_capacity(self.cap) };
        let lane = Arc::new(Lane {
            name: name.to_string(),
            buf: Mutex::new(LaneBuf { events, dropped: 0 }),
            cap: self.cap,
            detail: self.detail,
        });
        lanes.by_name.insert(name.to_string(), lane.clone());
        lanes.all.push(lane.clone());
        lane
    }

    fn lanes(&self) -> Vec<Arc<Lane>> {
        self.lanes.lock().all.clone()
    }

    /// Copy out every lane's events, in lane-creation order.
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        self.newest(usize::MAX)
    }

    /// Like [`Timeline::snapshot`], keeping the newest `max` events of
    /// each lane.
    pub(crate) fn newest(&self, max: usize) -> Vec<LaneSnapshot> {
        self.lanes().iter().map(|l| l.newest(max)).collect()
    }

    /// Events evicted because their lane was at its budget.
    pub fn dropped_events(&self) -> u64 {
        self.lanes().iter().map(|l| l.buf.lock().dropped).sum()
    }

    /// Total events currently held across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes().iter().map(|l| l.len()).sum()
    }

    /// Per-lane event budget.
    pub fn budget(&self) -> usize {
        self.cap
    }

    /// Forget all recorded events and lanes.
    pub fn clear(&self) {
        *self.lanes.lock() = Lanes::default();
    }

    /// Install what runs when SAFS reports an `io-error` (the flight
    /// recorder's dump). The first call wins.
    pub(crate) fn on_io_error(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.on_io_error.set(Box::new(hook));
    }

    fn note(&self, name: &str) {
        if name == "io-error" {
            if let Some(hook) = self.on_io_error.get() {
                hook();
            }
        }
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Counted before formatting: the registry lock is not reentrant.
        let lanes = self.lanes();
        let events: usize = lanes.iter().map(|l| l.len()).sum();
        write!(f, "Timeline({} lanes, {events} events)", lanes.len())
    }
}

/// SAFS-side spans land on the calling thread's lane: backend I/O
/// threads have stable `safs-s<shard>t<n>` names (one lane
/// group per storage shard), and compute threads calling into the
/// cache reuse the worker lane their executor spans are on.
impl SpanSink for Timeline {
    fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        begin_ns: u64,
        end_ns: u64,
        args: SpanArgs,
    ) {
        self.lane().complete(cat, name, begin_ns, end_ns, args);
        self.note(name);
    }

    fn instant(&self, cat: &'static str, name: &'static str, ts_ns: u64, args: SpanArgs) {
        self.lane().record(EventKind::Instant, cat, name.into(), ts_ns, 0, args);
        self.note(name);
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
    use std::sync::atomic::{AtomicBool, Ordering};
    static CLAIMED: AtomicBool = AtomicBool::new(false);
    let path = crate::env::trace_out()?;
    if CLAIMED.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(path)
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
        tl.named_lane("w1").instant("exec", "x", NO_ARGS);
        assert_eq!(tl.snapshot().len(), 2);
        assert_eq!(tl.total_events(), 1);
    }

    #[test]
    fn budget_drops_and_counts() {
        let tl = Timeline::new(3);
        let lane = tl.named_lane("w0");
        for _ in 0..5 {
            lane.instant("exec", "x", NO_ARGS);
        }
        assert_eq!(lane.len(), 3);
        assert_eq!(tl.dropped_events(), 2);
        tl.clear();
        assert_eq!(tl.dropped_events(), 0);
        assert_eq!(tl.total_events(), 0);
    }

    #[test]
    fn an_unnamed_thread_keeps_one_lane() {
        let tl = Timeline::new(64);
        tl.named_lane("coordinator");
        std::thread::scope(|s| {
            // `thread::spawn`/`Scope::spawn` threads carry no name.
            s.spawn(|| {
                assert!(std::thread::current().name().is_none());
                for i in 0..50 {
                    tl.instant("cache", "hit", i, NO_ARGS);
                }
            });
        });
        let lanes = tl.snapshot();
        assert_eq!(lanes.len(), 2, "{:?}", lanes.iter().map(|l| &l.name).collect::<Vec<_>>());
        assert_eq!((lanes[1].name.as_str(), lanes[1].events.len()), ("thread-1", 50));
    }

    #[test]
    fn a_worker_keeps_its_lane_whichever_thread_runs_it() {
        let tl = Timeline::new(64);
        let mine = tl.lane();
        let on = |tid| std::thread::scope(|s| s.spawn(|| as_worker(tid, || tl.lane())).join());
        let (w1, again) = (on(1).ok(), on(1).ok());
        assert_eq!(w1.as_ref().map(|l| l.name()), Some("flashr-w1"));
        assert!(w1.zip(again).is_some_and(|(a, b)| Arc::ptr_eq(&a, &b)), "one lane per worker");
        // SAFS spans taken as a worker land on the worker's lane too, and
        // the thread's own lane comes back afterwards.
        as_worker(2, || tl.span("cache", "hit", 1, 2, NO_ARGS));
        assert_eq!(tl.worker_lane(2).len(), 1);
        assert!(Arc::ptr_eq(&tl.lane(), &mine));
    }

    #[test]
    fn summary_level_keeps_intervals_not_pairs() {
        let tl = Timeline::for_level(TraceLevel::Pass);
        assert_eq!(tl.budget(), RECENT_EVENTS_PER_LANE);
        let lane = tl.named_lane("w0");
        let t0 = lane.open("exec", "task", [("part", 3), ("", 0)]);
        lane.begin("exec", "compute", NO_ARGS);
        lane.end("exec", "compute");
        lane.complete_detail("exec", "op", 5, NO_ARGS);
        lane.close("exec", "task", t0, [("part", 3), ("", 0)]);
        let evs = &tl.snapshot()[0].events;
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert_eq!(
            (evs[0].kind, evs[0].ts_ns, evs[0].args[0]),
            (EventKind::Complete, t0, ("part", 3))
        );
    }

    #[test]
    fn begin_end_pairs_are_ordered() {
        let tl = Timeline::new(64);
        let lane = tl.named_lane("w0");
        lane.begin("exec", "task", [("part", 3), ("", 0)]);
        lane.begin("exec", "compute", NO_ARGS);
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
