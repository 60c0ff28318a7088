//! The benchmark's own span recorder. Spans are opened around the calls
//! the benchmark makes into each crate's public functions (run → round →
//! phase → call), kept in memory, and written out when the run ends. The
//! three public counter families — `ExecStats`, `IoStats` and the page
//! cache's `CacheStatsSnapshot` — are snapshotted at every span boundary,
//! so ratios are measured where the work happens. Nothing inside the
//! library is instrumented.

use crate::json::quote;
use flashr::prelude::{ExecStatsSnapshot, FlashCtx};
use flashr::safs::IoStatsSnapshot;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The library's own counter snapshots, read together. `delta` is theirs
/// too: monotonic counters subtract, gauges (queue depth, resident cache
/// bytes) carry the later value. An in-memory context has no SAFS runtime
/// and its I/O half stays zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub exec: ExecStatsSnapshot,
    /// `IoStats` with the page cache's `CacheStatsSnapshot` inside.
    pub io: IoStatsSnapshot,
}

impl Counters {
    pub fn read(ctx: &FlashCtx) -> Counters {
        Counters { exec: ctx.stats().snapshot(), io: ctx.safs().map(|safs| safs.stats_snapshot()).unwrap_or_default() }
    }

    /// `later - self`.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters { exec: self.exec.delta(&later.exec), io: self.io.delta(&later.io) }
    }
}

/// What a span stands for; decides how its self time is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Round,
    Phase,
    /// A call into a crate's public function: the innermost span. The
    /// executor below it has no spans of its own, so a call's self time
    /// also subtracts the `exec_nanos` it caused.
    Call,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The identifier every span of one round shares; 0 for set-up.
    pub round: usize,
    pub kind: Kind,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter movement between the span's two boundaries.
    pub counters: Counters,
    at_open: Counters,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    pub enabled: bool,
    pub round: usize,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Recorder::open`]; `None` while recording is off.
pub type SpanId = Option<usize>;

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { enabled: false, round: 0, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn open(&mut self, ctx: &FlashCtx, kind: Kind, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        Some(self.push(kind, layer, name, Counters::read(ctx)))
    }

    /// The root span. It opens before any context exists, and every context
    /// of the run is created inside it, so its counters start from zero.
    pub fn open_run(&mut self) -> SpanId {
        if !self.enabled {
            return None;
        }
        Some(self.push(Kind::Run, "bench", "run", Counters::default()))
    }

    fn push(&mut self, kind: Kind, layer: &'static str, name: &'static str, at_open: Counters) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            round: self.round,
            kind,
            layer,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            counters: Counters::default(),
            at_open,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, ctx: &FlashCtx, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counters = span.at_open.delta(&Counters::read(ctx));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the part covered by child spans; a call span also
    /// subtracts the executor time (`exec_nanos`) it caused.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let children: u64 = self.spans.iter().filter(|s| s.parent == Some(span.id)).map(Span::dur_ns).sum();
        let exec = if span.kind == Kind::Call { span.counters.exec.exec_nanos } else { 0 };
        span.dur_ns().saturating_sub(children).saturating_sub(exec)
    }

    /// One JSON object per line, in open order.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let c = &s.counters;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"workload\":{},\"round\":{},\"kind\":{},\"layer\":{},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"passes\":{},\"parts\":{},\"exec_ns\":{},\
                 \"io_wait_ns\":{},\"read_bytes\":{},\"write_bytes\":{},\"cache_hits\":{},\"cache_lookups\":{}}}",
                s.id,
                quote(workload),
                s.round,
                quote(&format!("{:?}", s.kind).to_lowercase()),
                quote(s.layer),
                quote(s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(s),
                c.exec.passes,
                c.exec.parts,
                c.exec.exec_nanos,
                c.exec.io_wait_nanos,
                c.io.read_bytes,
                c.io.write_bytes,
                c.io.cache.hits,
                c.io.cache.lookups(),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let ctx = FlashCtx::in_memory();
        let mut rec = Recorder::new();
        assert_eq!(rec.open(&ctx, Kind::Run, "bench", "off"), None, "off by default");
        rec.enabled = true;
        rec.round = 3;
        let round = rec.open(&ctx, Kind::Round, "bench", "round");
        let phase = rec.open(&ctx, Kind::Phase, "bench", "phase");
        let call = rec.open(&ctx, Kind::Call, "core.exec", "FM::sum");
        let total = flashr::prelude::FM::ones(1000, 2).sum().value(&ctx);
        rec.close(&ctx, call);
        rec.close(&ctx, phase);
        rec.close(&ctx, round);
        assert_eq!(total, 2000.0);

        let s = rec.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(1)));
        assert!(s.iter().all(|x| x.round == 3));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns, "phase inside round");
        assert_eq!(s[2].counters.exec.passes, 1, "counters are read at the call's boundaries");
        assert_eq!(rec.self_ns(&s[0]), s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(rec.self_ns(&s[2]), s[2].dur_ns().saturating_sub(s[2].counters.exec.exec_nanos));

        let path = std::env::temp_dir().join(format!("flashr-benchmark-rec-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lines[2].get("layer").and_then(Json::as_str), Some("core.exec"));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
