//! Chrome `trace_event`-format export of a [`Timeline`].
//!
//! The output is the JSON Object Format
//! (`{"traceEvents":[...]}`) understood by Perfetto and
//! `chrome://tracing`: `B`/`E` duration events for executor spans, `X`
//! complete events for the retrospectively-recorded I/O and wait spans,
//! `i` instants, `C` counters, and `M` metadata naming each process
//! (context) and thread (lane). Timestamps are microseconds (with
//! nanosecond decimals) on the shared [`flashr_safs::now_nanos`] clock,
//! so lanes from the engine and the SAFS I/O threads line up in one
//! view.
//!
//! Tests read the output back with [`crate::json::parse`].

use super::timeline::{EventKind, LaneSnapshot, Timeline};
use crate::json::{self, Writer};

/// Serialize one or more timelines into a single Chrome-trace JSON
/// document. Each `(name, timeline)` pair becomes one process (pid),
/// each lane one thread (tid) — so a program with several contexts
/// (e.g. perf_probe's in-memory and external-memory contexts) can merge
/// them into one view.
pub fn export_chrome_trace(parts: &[(&str, &Timeline)]) -> String {
    json::object(|w| {
        w.key("traceEvents").arr(|w| {
            for (pidx, (pname, tl)) in parts.iter().enumerate() {
                let pid = pidx as u64 + 1;
                meta_event(w, pid, 0, "process_name", pname);
                for (lidx, lane) in tl.snapshot().iter().enumerate() {
                    let tid = lidx as u64 + 1;
                    meta_event(w, pid, tid, "thread_name", &lane.name);
                    lane_events(w, pid, tid, lane);
                }
            }
        });
        w.key("displayTimeUnit").str("ms");
    })
}

/// Convenience: a single context's trace under one process.
pub fn export_single(name: &str, tl: &Timeline) -> String {
    export_chrome_trace(&[(name, tl)])
}

fn meta_event(w: &mut Writer, pid: u64, tid: u64, kind: &str, name: &str) {
    w.obj(|w| {
        w.key("ph").str("M");
        w.key("pid").u64(pid);
        w.key("tid").u64(tid);
        w.key("name").str(kind);
        w.key("args").obj(|w| w.key("name").str(name));
    });
}

fn lane_events(w: &mut Writer, pid: u64, tid: u64, lane: &LaneSnapshot) {
    for ev in &lane.events {
        w.obj(|w| {
            w.key("ph").str(match ev.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Complete => "X",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            });
            w.key("pid").u64(pid);
            w.key("tid").u64(tid);
            w.key("ts").raw(&micros(ev.ts_ns));
            if ev.kind == EventKind::Complete {
                w.key("dur").raw(&micros(ev.dur_ns));
            }
            if ev.kind == EventKind::Instant {
                // Thread-scoped instant marker.
                w.key("s").str("t");
            }
            w.key("name").str(&ev.name);
            // Perfetto matches B/E pairs by (cat, name, tid) — emit the
            // category on every phase, End included.
            w.key("cat").str(ev.cat);
            if ev.args.iter().any(|(k, _)| !k.is_empty()) {
                w.key("args").obj(|w| ev.args_json(w));
            }
        });
    }
}

/// Nanoseconds → microseconds with 3 decimals (Chrome's `ts`/`dur` unit
/// is µs; the decimals keep nanosecond resolution): 1234567 ns is
/// `1234.567`.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_safs::NO_ARGS;

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(42), "0.042");
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1000), "1.000");
    }

    #[test]
    fn export_contains_all_event_phases() {
        let tl = Timeline::new(64);
        let lane = tl.named_lane("w0");
        lane.begin("exec", "task", [("part", 1), ("", 0)]);
        lane.end("exec", "task");
        lane.complete("io", "read", 10, 20, [("bytes", 4096), ("", 0)]);
        lane.instant("cache", "hit", NO_ARGS);
        lane.counter("io-queue-depth", 15, 3);
        let json = export_single("ctx", &tl);
        for phase in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
        ] {
            assert!(json.contains(phase), "missing {phase} in {json}");
        }
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"bytes\":4096"));
    }
}
