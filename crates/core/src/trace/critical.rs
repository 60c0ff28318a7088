//! Critical-path analysis: attribute each pass's wall-clock to
//! compute / io-wait / write-stall / scheduler-idle, and mine the span
//! timeline for stragglers and late readahead.
//!
//! The paper's Fig. 10 argument is that the fused engine hides I/O
//! behind compute; this module quantifies how well that held for each
//! recorded pass. The aggregate split comes from the
//! [`PassProfile`](super::PassProfile) worker sums (available from
//! `FLASHR_TRACE=pass` up); the per-task columns (median task time,
//! straggler count, readahead-late count) need the span timeline
//! (`FLASHR_TRACE=timeline`) and read as zero below it.

use super::timeline::{EventKind, LaneSnapshot};
use super::PassProfile;

/// An adopted-readahead wait longer than this counts as "readahead
/// arrived late": the prefetch was issued but the consumer still
/// blocked materially on it.
pub const READAHEAD_LATE_NS: u64 = 50_000;

/// A task slower than `STRAGGLER_FACTOR` × the pass's median task time
/// is flagged as a straggler.
pub const STRAGGLER_FACTOR: u64 = 2;

/// Where one pass's wall-clock went.
#[derive(Debug, Clone)]
pub struct PassBreakdown {
    pub pass_id: u64,
    pub engine: &'static str,
    /// Worker threads that participated.
    pub nworkers: usize,
    pub wall_nanos: u64,
    /// Summed across workers; the four components add up to
    /// `nworkers × wall_nanos` (idle absorbs the remainder).
    pub compute_nanos: u64,
    pub io_wait_nanos: u64,
    pub write_stall_nanos: u64,
    /// Worker-seconds not accounted for by the other three: scheduler
    /// idle at the tail of the pass, claim contention, and span gaps.
    pub idle_nanos: u64,
    /// Partition tasks observed (from task spans when the timeline is
    /// on, else summed worker partition counts).
    pub tasks: u64,
    /// Median task-span duration (0 without the timeline).
    pub median_task_nanos: u64,
    /// Tasks slower than [`STRAGGLER_FACTOR`] × median.
    pub stragglers: u64,
    /// Adopted-readahead waits longer than [`READAHEAD_LATE_NS`].
    pub readahead_late: u64,
    /// The dominant component: `"compute"`, `"io-wait"`,
    /// `"write-stall"` or `"idle"`.
    pub bound: &'static str,
}

impl PassBreakdown {
    /// Fraction of worker-time spent computing (NaN when the pass
    /// recorded no workers or no wall time — serialized as `null`).
    pub fn utilization(&self) -> f64 {
        self.compute_nanos as f64 / (self.nworkers as f64 * self.wall_nanos as f64)
    }
}

/// The analyzer. Stateless; groups the entry points.
pub struct CriticalPath;

impl CriticalPath {
    /// Break down every recorded pass. `lanes` may be empty (timeline
    /// off): the aggregate columns still fill in, the span-derived ones
    /// read zero.
    pub fn analyze(passes: &[PassProfile], lanes: &[LaneSnapshot]) -> Vec<PassBreakdown> {
        passes.iter().map(|p| analyze_pass(p, lanes)).collect()
    }

    /// Render breakdowns as the fixed-width table the bench bins print.
    pub fn table(rows: &[PassBreakdown]) -> String {
        let mut o = String::new();
        o.push_str(
            "pass  engine        wall_ms   comp%    io%    wr%  idle%  tasks  straggler  ra-late  bound\n",
        );
        // Iterative workloads record thousands of near-identical passes;
        // show the heaviest ones.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(rows[i].wall_nanos));
        let shown = order.len().min(12);
        for &i in &order[..shown] {
            let b = &rows[i];
            let denom = (b.nworkers as u64 * b.wall_nanos).max(1) as f64;
            let pct = |n: u64| 100.0 * n as f64 / denom;
            o.push_str(&format!(
                "{:>4}  {:<12} {:>8.2} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6} {:>10} {:>8}  {}\n",
                b.pass_id,
                b.engine,
                b.wall_nanos as f64 / 1e6,
                pct(b.compute_nanos),
                pct(b.io_wait_nanos),
                pct(b.write_stall_nanos),
                pct(b.idle_nanos),
                b.tasks,
                b.stragglers,
                b.readahead_late,
                b.bound,
            ));
        }
        if rows.len() > shown {
            o.push_str(&format!(
                "({} more passes omitted; sorted by wall time)\n",
                rows.len() - shown
            ));
        }
        o
    }
}

fn analyze_pass(p: &PassProfile, lanes: &[LaneSnapshot]) -> PassBreakdown {
    let nworkers = p.workers.len();
    let compute = p.compute_nanos();
    let io_wait = p.io_wait_nanos();
    let write_stall = p.write_stall_nanos();
    let idle = (nworkers as u64 * p.wall_nanos).saturating_sub(compute + io_wait + write_stall);

    let window = pass_window(p.pass_id, lanes);
    let mut task_durs: Vec<u64> = Vec::new();
    let mut readahead_late = 0u64;
    if let Some((w0, w1)) = window {
        for lane in lanes {
            collect_task_durations(lane, p.pass_id, &mut task_durs);
            for ev in &lane.events {
                if ev.kind == EventKind::Complete
                    && ev.name == "ra-wait"
                    && ev.ts_ns >= w0
                    && ev.ts_ns < w1
                    && ev.dur_ns > READAHEAD_LATE_NS
                {
                    readahead_late += 1;
                }
            }
        }
    }

    let (tasks, median, stragglers) = if task_durs.is_empty() {
        (p.workers.iter().map(|w| w.parts).sum(), 0, 0)
    } else {
        task_durs.sort_unstable();
        let median = task_durs[task_durs.len() / 2];
        let stragglers =
            task_durs.iter().filter(|&&d| median > 0 && d > STRAGGLER_FACTOR * median).count()
                as u64;
        (task_durs.len() as u64, median, stragglers)
    };

    let bound =
        [("compute", compute), ("io-wait", io_wait), ("write-stall", write_stall), ("idle", idle)]
            .iter()
            .max_by_key(|(_, v)| *v)
            .map(|(n, _)| *n)
            .unwrap_or("compute");

    PassBreakdown {
        pass_id: p.pass_id,
        engine: p.engine,
        nworkers,
        wall_nanos: p.wall_nanos,
        compute_nanos: compute,
        io_wait_nanos: io_wait,
        write_stall_nanos: write_stall,
        idle_nanos: idle,
        tasks,
        median_task_nanos: median,
        stragglers,
        readahead_late,
        bound,
    }
}

/// Find the `[begin, end)` window of this pass's `pass` span on any
/// lane (the coordinator thread records it).
fn pass_window(pass_id: u64, lanes: &[LaneSnapshot]) -> Option<(u64, u64)> {
    for lane in lanes {
        let mut begin: Option<u64> = None;
        for ev in &lane.events {
            if ev.name != "pass" {
                continue;
            }
            match ev.kind {
                EventKind::Begin if ev.args.contains(&("pass", pass_id)) => begin = Some(ev.ts_ns),
                EventKind::End => {
                    if let Some(b) = begin.take() {
                        return Some((b, ev.ts_ns));
                    }
                }
                _ => {}
            }
        }
        // Unmatched begin (e.g. the pass is still running): open-ended
        // window.
        if let Some(b) = begin {
            return Some((b, u64::MAX));
        }
    }
    None
}

/// Stack-match `task` Begin/End pairs tagged with this pass id on one
/// lane, appending their durations.
fn collect_task_durations(lane: &LaneSnapshot, pass_id: u64, out: &mut Vec<u64>) {
    let mut stack: Vec<(u64, bool)> = Vec::new(); // (begin_ts, belongs_to_pass)
    for ev in &lane.events {
        if ev.name != "task" {
            continue;
        }
        match ev.kind {
            EventKind::Begin => {
                stack.push((ev.ts_ns, ev.args.contains(&("pass", pass_id))));
            }
            EventKind::End => {
                if let Some((t0, ours)) = stack.pop() {
                    if ours {
                        out.push(ev.ts_ns.saturating_sub(t0));
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_safs::CacheStatsSnapshot;

    fn pass(pass_id: u64, wall: u64, workers: Vec<super::super::WorkerProfile>) -> PassProfile {
        PassProfile {
            pass_id,
            engine: "fused",
            mode: "CacheFuse",
            nodes: 1,
            nodes_pre_cse: 1,
            nparts: 4,
            pcache_step: 64,
            sinks: 1,
            talls: 0,
            wall_nanos: wall,
            cache: CacheStatsSnapshot::default(),
            workers,
            ops: Vec::new(),
            simd: "scalar",
        }
    }

    fn worker(compute: u64, io: u64, ws: u64, parts: u64) -> super::super::WorkerProfile {
        super::super::WorkerProfile {
            parts,
            io_wait_nanos: io,
            compute_nanos: compute,
            write_stall_nanos: ws,
            ..Default::default()
        }
    }

    #[test]
    fn aggregate_attribution_without_timeline() {
        let p = pass(1, 1000, vec![worker(600, 100, 50, 2), worker(500, 200, 0, 2)]);
        let rows = CriticalPath::analyze(&[p], &[]);
        let b = &rows[0];
        assert_eq!(b.nworkers, 2);
        assert_eq!(b.compute_nanos, 1100);
        assert_eq!(b.io_wait_nanos, 300);
        assert_eq!(b.write_stall_nanos, 50);
        // 2 workers × 1000 wall − (1100+300+50) = 550 idle
        assert_eq!(b.idle_nanos, 550);
        assert_eq!(b.bound, "compute");
        assert_eq!(b.tasks, 4);
        assert_eq!(b.stragglers, 0);
        assert!((b.utilization() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn stragglers_and_late_readahead_from_spans() {
        // Hand-build a lane snapshot with controlled timestamps: four
        // tasks of 100ns and one of 900ns → median 100, one straggler.
        let mk = |name: &'static str, kind, ts, dur, args| super::super::timeline::SpanEvent {
            ts_ns: ts,
            dur_ns: dur,
            kind,
            cat: "exec",
            name: std::borrow::Cow::Borrowed(name),
            args,
        };
        let no = [("", 0), ("", 0)];
        let tagged = [("part", 0), ("pass", 7)];
        let mut evs = vec![mk("pass", EventKind::Begin, 0, 0, [("pass", 7), ("", 0)])];
        for i in 0..4u64 {
            evs.push(mk("task", EventKind::Begin, 10 + i * 200, 0, tagged));
            evs.push(mk("task", EventKind::End, 110 + i * 200, 0, no));
        }
        evs.push(mk("task", EventKind::Begin, 1000, 0, tagged));
        evs.push(mk("task", EventKind::End, 1900, 0, no));
        evs.push(mk("ra-wait", EventKind::Complete, 500, READAHEAD_LATE_NS + 1, no));
        evs.push(mk("ra-wait", EventKind::Complete, 600, 10, no)); // on time
        evs.push(mk("pass", EventKind::End, 2000, 0, no));
        let lanes = vec![LaneSnapshot { name: "w0".into(), events: evs }];

        let p = pass(7, 2000, vec![worker(100, 1800, 0, 5)]);
        let rows = CriticalPath::analyze(&[p], &lanes);
        let b = &rows[0];
        assert_eq!(b.tasks, 5);
        assert_eq!(b.median_task_nanos, 100);
        assert_eq!(b.stragglers, 1);
        assert_eq!(b.readahead_late, 1);
        assert_eq!(b.bound, "io-wait");
    }

    #[test]
    fn table_renders_and_caps() {
        let passes: Vec<PassProfile> =
            (1..=20).map(|i| pass(i, i * 1000, vec![worker(500, 100, 0, 2)])).collect();
        let rows = CriticalPath::analyze(&passes, &[]);
        let table = CriticalPath::table(&rows);
        assert!(table.contains("bound"));
        assert!(table.contains("8 more passes omitted"));
        // Heaviest pass (20) must be shown, lightest (1) omitted.
        assert!(table.contains("\n  20  fused"));
        assert!(!table.contains("\n   1  fused"));
    }
}
