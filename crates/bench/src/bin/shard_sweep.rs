//! Shard-sweep microbenchmark: aggregate EM scan throughput as the SAFS
//! array grows from 1 to 4 simulated devices, for both storage backends.
//!
//! Each cell of the sweep opens a fresh striped runtime (`striped_under`,
//! N shards), materializes a tall uniform matrix onto it, then times two
//! full `sum()` scans with no page cache — every read goes to a device
//! queue. With the SATA-class throttle each simulated shard caps at the
//! same per-device bandwidth, so aggregate read throughput must rise
//! monotonically with the shard count (the paper's Figure 6 shape); the
//! unthrottled direct backend rows show the raw thread-pool ceiling for
//! comparison and carry no monotonic expectation.
//!
//! Artifacts: `BENCH_shard_sweep.json` (a `"sweep"` section with one row
//! per cell, including per-shard request/byte/queue-depth deltas so CI
//! can assert the stripe stays balanced), `flashr-results-shard_sweep.json`,
//! `flashr-metrics.prom` (per-shard series from the final 4-shard cell),
//! and a Chrome trace with one `safs-sim-s<shard>t<n>` lane group per
//! shard when `FLASHR_TRACE_OUT` is set.
//!
//! ```sh
//! cargo run --release -p flashr-bench --bin shard_sweep
//! FLASHR_BENCH_SCALE=full cargo run --release -p flashr-bench --bin shard_sweep
//! ```

use flashr::prelude::*;
use flashr::safs::{BackendKind, ShardStatsSnapshot};
use flashr_bench::{
    bench_artifact_json_sections, bench_trace_level, host_section_json, io_summary_line,
    maybe_dump_flight, maybe_export_trace, print_critical_path, save_bench_artifact,
    scrape_own_metrics, scratch_dir, time, BenchStage, Report, Scale,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Scans per cell: the timed window covers both, halving jitter from a
/// cold first pass without inflating quick-mode runtime.
const SCANS: u64 = 2;

struct Cell {
    backend: BackendKind,
    shards: usize,
    secs: f64,
    read_gbps: f64,
    read_bytes: u64,
    per_shard: Vec<ShardStatsSnapshot>,
}

fn run_cell(
    backend: BackendKind,
    shards: usize,
    rows: u64,
    cols: u64,
    level: TraceLevel,
) -> (Cell, FlashCtx) {
    let tag = format!("shard-sweep-{}-{}", backend.as_str(), shards);
    let cfg = SafsConfig::striped_under(scratch_dir(&tag), shards)
        .with_throttle(ThrottleCfg::sata_ssd())
        .with_backend(backend);
    let safs = Safs::open(cfg).expect("open striped SAFS");
    // One-step construction: the first context to exist claims
    // `FLASHR_METRICS_ADDR`, so no builder-style throwaway contexts here.
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
        backend,
        shards,
        secs,
        read_gbps: io.read_bytes as f64 / secs / 1e9,
        read_bytes: io.read_bytes,
        per_shard,
    };
    // What the throttled array is configured to deliver: the fraction
    // says how much of it a scan through the executor reaches.
    let device = match backend {
        BackendKind::Sim => {
            let configured = shards as f64 * ThrottleCfg::sata_ssd().bytes_per_sec;
            format!("{:.2} of device   ", cell.read_gbps * 1e9 / configured)
        }
        BackendKind::Direct => String::new(),
    };
    println!(
        "  {:6} x{}  {:>7.3}s  {:>7.2} GB/s read   {device}{}",
        backend.as_str(),
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
            "{{\"backend\":\"{}\",\"shards\":{},\"seconds\":{:.6},\"read_gbps\":{:.4},\
             \"read_bytes\":{},\"per_shard_read_reqs\":[{}],\"per_shard_read_bytes\":[{}],\
             \"per_shard_max_queue_depth\":[{}],\"per_shard_retries\":[{}]}}",
            c.backend.as_str(),
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
    // Park the metrics address: the listener must land on the *last*
    // context (the 4-shard sim cell we scrape), not the first. Same for
    // the trace path — the first traced context to *drop* claims it, and
    // that would be a throwaway direct cell, not the merged sim export.
    // Trace level is resolved before parking so the request still raises
    // the cells to timeline spans.
    let level = bench_trace_level();
    let metrics_addr = std::env::var("FLASHR_METRICS_ADDR").ok();
    std::env::remove_var("FLASHR_METRICS_ADDR");
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
    // Sim (throttled) cells run last so the final context — the one that
    // re-claims the metrics address below — is the 4-shard sim cell.
    let mut kept: Vec<(String, FlashCtx)> = Vec::new();
    for backend in [BackendKind::Direct, BackendKind::Sim] {
        for shards in SHARD_COUNTS {
            if backend == BackendKind::Sim && shards == *SHARD_COUNTS.last().unwrap() {
                if let Some(addr) = &metrics_addr {
                    std::env::set_var("FLASHR_METRICS_ADDR", addr);
                }
            }
            let (cell, ctx) = run_cell(backend, shards, rows, cols, level);
            let label = format!("{}-x{}", backend.as_str(), shards);
            stages.push(BenchStage::new(
                &format!("scan-{label}"),
                std::time::Duration::from_secs_f64(cell.secs),
                scan_bytes as f64 / cell.secs / (1u64 << 30) as f64,
            ));
            report.push_extra(
                "shard-sweep",
                &format!("em-scan-{}", backend.as_str()),
                &format!("shards={shards}"),
                &format!("rows={rows} cols={cols} scans={SCANS}"),
                cell.secs,
                cell.read_gbps,
            );
            cells.push(cell);
            if backend == BackendKind::Sim {
                kept.push((label, ctx));
            }
        }
    }

    // The acceptance shape: with per-device throttling, more shards must
    // mean more aggregate bandwidth. Printed here; gated in CI by
    // `scripts/check_shard_sweep` against the JSON artifact.
    let sim: Vec<&Cell> = cells.iter().filter(|c| c.backend == BackendKind::Sim).collect();
    for w in sim.windows(2) {
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

    let last = &kept.last().expect("sim cells kept").1;
    print_critical_path("shard_sweep", &last.profile_report());
    let sections = [("sweep", sweep_section(&cells)), ("host", host_section_json(last))];
    save_bench_artifact(
        "shard_sweep",
        &bench_artifact_json_sections("shard_sweep", &stages, &last.profile_report(), &sections),
    );
    report.print_raw();
    report.save_json("shard_sweep");

    // Per-shard series (`flashr_io_shard_*`) from the 4-shard sim cell.
    scrape_own_metrics(last);
    if let Some(path) = &trace_out {
        std::env::set_var("FLASHR_TRACE_OUT", path);
    }
    let parts: Vec<(&str, &FlashCtx)> = kept.iter().map(|(l, c)| (l.as_str(), c)).collect();
    maybe_export_trace(&parts);
    maybe_dump_flight(last);
}
