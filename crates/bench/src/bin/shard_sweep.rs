//! Shard-sweep microbenchmark: aggregate EM scan throughput as the SAFS
//! array grows from 1 to 4 simulated devices, with and without the
//! per-device throttle.
//!
//! Each cell of the sweep opens a fresh striped runtime (`striped_under`,
//! N shards), materializes a tall uniform matrix onto it, then times two
//! full `sum()` scans with no page cache — every read goes to a device
//! queue. With the SATA-class throttle each simulated shard caps at the
//! same per-device bandwidth, so aggregate read throughput must rise
//! monotonically with the shard count (the paper's Figure 6 shape); the
//! unthrottled rows show the raw thread-pool ceiling for comparison and
//! carry no monotonic expectation.
//!
//! Artifacts: `BENCH_shard_sweep.json` (a `"sweep"` section with one row
//! per cell, including per-shard request/byte/queue-depth deltas so CI
//! can assert the stripe stays balanced, and the final 4-shard cell's
//! profile with its per-shard `io_shards` counters),
//! `flashr-results-shard_sweep.json`, and a Chrome trace of the throttled cells with one `safs-s<shard>t<n>`
//! lane group per shard when `FLASHR_TRACE_OUT` is set.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin shard_sweep
//! FLASHR_BENCH_SCALE=full cargo run --release -p flashr-bench --bin shard_sweep
//! ```

use flashr::prelude::*;
use flashr::safs::ShardStatsSnapshot;
use flashr_bench::{
    bench_artifact_json_sections, bench_trace_level, host_section_json, io_summary_line,
    maybe_dump_flight, maybe_export_trace, print_critical_path, save_bench_artifact, scratch_dir,
    time, BenchStage, Report, Scale,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Scans per cell: the timed window covers both, halving jitter from a
/// cold first pass without inflating quick-mode runtime.
const SCANS: u64 = 2;

struct Cell {
    throttled: bool,
    shards: usize,
    secs: f64,
    read_gbps: f64,
    read_bytes: u64,
    per_shard: Vec<ShardStatsSnapshot>,
}

/// Row label of a cell's throttle setting.
fn label(throttled: bool) -> &'static str {
    if throttled {
        "throttled"
    } else {
        "unthrottled"
    }
}

fn run_cell(
    throttled: bool,
    shards: usize,
    rows: u64,
    cols: u64,
    level: TraceLevel,
) -> (Cell, FlashCtx) {
    let tag = format!("shard-sweep-{}-{}", label(throttled), shards);
    let cfg = SafsConfig {
        throttle: throttled.then(ThrottleCfg::sata_ssd),
        ..SafsConfig::striped_under(scratch_dir(&tag), shards)
    };
    let safs = Safs::open(cfg).expect("open striped SAFS");
    let ctx = FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 4096,
            storage: StorageClass::Em,
            trace: level,
            ..CtxConfig::default()
        },
        Some(safs.clone()),
    );

    let x = FM::runif(&ctx, rows, cols as usize, 0.0, 1.0, 42).materialize(&ctx);
    safs.flush();

    let io0 = safs.stats_snapshot();
    let sh0 = safs.shard_stats_snapshots();
    let (sum, wall) = time(|| (0..SCANS).map(|_| x.sum().value(&ctx)).sum::<f64>());
    assert!(sum.is_finite(), "scan produced a non-finite sum");
    let io = io0.delta(&safs.stats_snapshot());
    let sh1 = safs.shard_stats_snapshots();
    let per_shard: Vec<ShardStatsSnapshot> =
        sh0.iter().zip(&sh1).map(|(b, a)| b.delta(a)).collect();

    let secs = wall.as_secs_f64();
    let cell = Cell {
        throttled,
        shards,
        secs,
        read_gbps: io.read_bytes as f64 / secs / 1e9,
        read_bytes: io.read_bytes,
        per_shard,
    };
    // What the throttled array is configured to deliver: the fraction
    // says how much of it a scan through the executor reaches.
    let device = if throttled {
        let configured = shards as f64 * ThrottleCfg::sata_ssd().bytes_per_sec;
        format!("{:.2} of device   ", cell.read_gbps * 1e9 / configured)
    } else {
        String::new()
    };
    println!(
        "  {:11} x{}  {:>7.3}s  {:>7.2} GB/s read   {device}{}",
        label(throttled),
        shards,
        secs,
        cell.read_gbps,
        io_summary_line(&io)
    );
    for (i, s) in cell.per_shard.iter().enumerate() {
        println!(
            "         shard {i}: {} reads / {} MiB, qd max {}, retries {}",
            s.read_reqs,
            s.read_bytes >> 20,
            s.max_queue_depth,
            s.retries
        );
    }
    (cell, ctx)
}

fn sweep_section(cells: &[Cell]) -> String {
    let mut out = String::from("[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let join = |f: &dyn Fn(&ShardStatsSnapshot) -> u64| {
            c.per_shard.iter().map(|s| f(s).to_string()).collect::<Vec<_>>().join(",")
        };
        out.push_str(&format!(
            "{{\"throttled\":{},\"shards\":{},\"seconds\":{:.6},\"read_gbps\":{:.4},\
             \"read_bytes\":{},\"per_shard_read_reqs\":[{}],\"per_shard_read_bytes\":[{}],\
             \"per_shard_max_queue_depth\":[{}],\"per_shard_retries\":[{}]}}",
            c.throttled,
            c.shards,
            c.secs,
            c.read_gbps,
            c.read_bytes,
            join(&|s| s.read_reqs),
            join(&|s| s.read_bytes),
            join(&|s| s.max_queue_depth),
            join(&|s| s.retries),
        ));
    }
    out.push(']');
    out
}

fn main() {
    // The shard count IS the sweep axis: the CI-wide `FLASHR_SAFS_SHARDS`
    // override must not rewrite the striped layouts under us.
    std::env::remove_var("FLASHR_SAFS_SHARDS");
    // Park the trace path: the first traced context to *drop* claims it,
    // and that would be a throwaway unthrottled cell, not the merged
    // throttled export. Trace level is resolved before parking so the
    // request still raises the cells to timeline spans.
    let level = bench_trace_level();
    let trace_out = std::env::var("FLASHR_TRACE_OUT").ok();
    std::env::remove_var("FLASHR_TRACE_OUT");

    let scale = Scale::from_env();
    let rows = scale.rows(163_840, 2_621_440);
    let cols = 16u64;
    let scan_bytes = rows * cols * 8 * SCANS;
    println!(
        "shard sweep: {rows} x {cols} f64 ({} MiB), {SCANS} scans/cell, shards {SHARD_COUNTS:?}",
        (rows * cols * 8) >> 20
    );

    let mut report = Report::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut stages: Vec<BenchStage> = Vec::new();
    // Throttled cells run last, so the final context — the one whose
    // profile the artifact carries — is the 4-shard throttled cell.
    let mut kept: Vec<(String, FlashCtx)> = Vec::new();
    for throttled in [false, true] {
        for shards in SHARD_COUNTS {
            let (cell, ctx) = run_cell(throttled, shards, rows, cols, level);
            let lane = format!("{}-x{}", label(throttled), shards);
            stages.push(BenchStage::new(
                &format!("scan-{lane}"),
                std::time::Duration::from_secs_f64(cell.secs),
                scan_bytes as f64 / cell.secs / (1u64 << 30) as f64,
            ));
            report.push_extra(
                "shard-sweep",
                &format!("em-scan-{}", label(throttled)),
                &format!("shards={shards}"),
                &format!("rows={rows} cols={cols} scans={SCANS}"),
                cell.secs,
                cell.read_gbps,
            );
            cells.push(cell);
            if throttled {
                kept.push((lane, ctx));
            }
        }
    }

    // The acceptance shape: with per-device throttling, more shards must
    // mean more aggregate bandwidth. Printed here; gated in CI by
    // `scripts/check_shard_sweep` against the JSON artifact.
    let throttled: Vec<&Cell> = cells.iter().filter(|c| c.throttled).collect();
    for w in throttled.windows(2) {
        let (a, b) = (w[0], w[1]);
        let ok = b.read_gbps > a.read_gbps;
        println!(
            "  monotonic {} -> {} shards: {:.2} -> {:.2} GB/s  [{}]",
            a.shards,
            b.shards,
            a.read_gbps,
            b.read_gbps,
            if ok { "ok" } else { "VIOLATION" }
        );
    }

    let last = &kept.last().expect("throttled cells kept").1;
    print_critical_path("shard_sweep", &last.profile_report());
    let sections = [("sweep", sweep_section(&cells)), ("host", host_section_json(last))];
    save_bench_artifact(
        "shard_sweep",
        &bench_artifact_json_sections("shard_sweep", &stages, &last.profile_report(), &sections),
    );
    report.print_raw();
    report.save_json("shard_sweep");

    if let Some(path) = &trace_out {
        std::env::set_var("FLASHR_TRACE_OUT", path);
    }
    let parts: Vec<(&str, &FlashCtx)> = kept.iter().map(|(l, c)| (l.as_str(), c)).collect();
    maybe_export_trace(&parts);
    maybe_dump_flight(last);
}
