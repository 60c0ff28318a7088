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
//! Hand-rolled like the rest of this module's serialization; tests read
//! the output back with [`crate::json::parse`].

use super::json_escape;
use super::timeline::{EventKind, LaneSnapshot, Timeline};

/// Serialize one or more timelines into a single Chrome-trace JSON
/// document. Each `(name, timeline)` pair becomes one process (pid),
/// each lane one thread (tid) — so a program with several contexts
/// (e.g. perf_probe's in-memory and external-memory contexts) can merge
/// them into one view.
pub fn export_chrome_trace(parts: &[(&str, &Timeline)]) -> String {
    let mut o = String::with_capacity(64 * 1024);
    o.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (pidx, (pname, tl)) in parts.iter().enumerate() {
        let pid = pidx + 1;
        meta_event(&mut o, &mut first, pid, 0, "process_name", pname);
        for (lidx, lane) in tl.snapshot().iter().enumerate() {
            let tid = lidx + 1;
            meta_event(&mut o, &mut first, pid, tid, "thread_name", &lane.name);
            lane_events(&mut o, &mut first, pid, tid, lane);
        }
    }
    o.push_str("],\"displayTimeUnit\":\"ms\"}");
    o
}

/// Convenience: a single context's trace under one process.
pub fn export_single(name: &str, tl: &Timeline) -> String {
    export_chrome_trace(&[(name, tl)])
}

fn meta_event(o: &mut String, first: &mut bool, pid: usize, tid: usize, kind: &str, name: &str) {
    sep(o, first);
    o.push_str("{\"ph\":\"M\",\"pid\":");
    push_usize(o, pid);
    o.push_str(",\"tid\":");
    push_usize(o, tid);
    o.push_str(",\"name\":");
    json_escape(kind, o);
    o.push_str(",\"args\":{\"name\":");
    json_escape(name, o);
    o.push_str("}}");
}

fn lane_events(o: &mut String, first: &mut bool, pid: usize, tid: usize, lane: &LaneSnapshot) {
    for ev in &lane.events {
        sep(o, first);
        o.push_str("{\"ph\":\"");
        o.push_str(match ev.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Complete => "X",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        });
        o.push_str("\",\"pid\":");
        push_usize(o, pid);
        o.push_str(",\"tid\":");
        push_usize(o, tid);
        o.push_str(",\"ts\":");
        push_micros(o, ev.ts_ns);
        if ev.kind == EventKind::Complete {
            o.push_str(",\"dur\":");
            push_micros(o, ev.dur_ns);
        }
        if ev.kind == EventKind::Instant {
            // Thread-scoped instant marker.
            o.push_str(",\"s\":\"t\"");
        }
        o.push_str(",\"name\":");
        json_escape(&ev.name, o);
        // Perfetto matches B/E pairs by (cat, name, tid) — emit the
        // category on every phase, End included.
        o.push_str(",\"cat\":");
        json_escape(ev.cat, o);
        let args: Vec<_> = ev.args.iter().filter(|(k, _)| !k.is_empty()).collect();
        if !args.is_empty() {
            o.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                json_escape(k, o);
                o.push(':');
                o.push_str(&v.to_string());
            }
            o.push('}');
        }
        o.push('}');
    }
}

fn sep(o: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        o.push(',');
    }
}

fn push_usize(o: &mut String, v: usize) {
    o.push_str(&v.to_string());
}

/// Nanoseconds → microseconds with 3 decimals (Chrome's `ts`/`dur` unit
/// is µs; the decimals keep nanosecond resolution).
fn push_micros(o: &mut String, ns: u64) {
    o.push_str(&ns.to_string());
    // Insert the decimal point three digits from the end: 1234567 ns
    // → "1234.567" µs. Shorter values get zero-padding.
    let len = o.len();
    let digits = ns.to_string().len();
    if digits <= 3 {
        let s = format!("0.{:03}", ns);
        o.truncate(len - digits);
        o.push_str(&s);
    } else {
        o.insert(len - 3, '.');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_safs::NO_ARGS;

    #[test]
    fn micros_formatting() {
        let mut s = String::new();
        push_micros(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        s.clear();
        push_micros(&mut s, 42);
        assert_eq!(s, "0.042");
        s.clear();
        push_micros(&mut s, 0);
        assert_eq!(s, "0.000");
        s.clear();
        push_micros(&mut s, 1000);
        assert_eq!(s, "1.000");
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
        for phase in ["\"ph\":\"M\"", "\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"X\"", "\"ph\":\"i\"", "\"ph\":\"C\""] {
            assert!(json.contains(phase), "missing {phase} in {json}");
        }
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"bytes\":4096"));
    }
}
