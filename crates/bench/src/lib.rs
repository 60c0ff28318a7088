//! Shared harness for the per-figure/per-table benchmark binaries.
//!
//! Every binary in `src/bin` regenerates one table or figure of the
//! FlashR paper's evaluation (§4). The harness provides:
//!
//! * [`Scale`] — workload sizing. Benchmarks default to a laptop-scale
//!   configuration that finishes in minutes; `--full` (or
//!   `FLASHR_BENCH_SCALE=full`) grows the workloads for server runs.
//! * context factories for the three execution configurations the paper
//!   compares (in-memory, external-memory with the local-server SSD
//!   profile, external-memory with the EC2 NVMe profile);
//! * timing, table printing, JSON result recording (under
//!   `target/flashr-results/`), and peak-RSS sampling for Table 6.

use flashr::core::json;
use flashr::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload sizing for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Finishes in minutes on a laptop (default).
    Quick,
    /// Larger runs for real hardware.
    Full,
}

impl Scale {
    /// Parse from argv/env (`--full` flag or `FLASHR_BENCH_SCALE=full`).
    pub fn from_env() -> Scale {
        let argv_full = std::env::args().any(|a| a == "--full");
        let env_full = std::env::var("FLASHR_BENCH_SCALE").map(|v| v == "full").unwrap_or(false);
        if argv_full || env_full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Scale a quick-mode row count.
    pub fn rows(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The named argument after `--profile` (fig7: `local` or `ec2`).
pub fn profile_arg() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--profile")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "local".to_string())
}

/// The path after `--trace-out`, if present: where the binary writes its
/// merged Chrome trace.
pub fn trace_out_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).map(PathBuf::from)
}

/// Trace level for the bench binaries: the environment's
/// ([`TraceLevel::from_env`], which `FLASHR_TRACE_OUT` raises to
/// timeline) but at least [`TraceLevel::Pass`] (the artifacts embed pass
/// profiles), raised to [`TraceLevel::Timeline`] when a trace export was
/// requested via `--trace-out`.
pub fn bench_trace_level() -> TraceLevel {
    let floor = if trace_out_arg().is_some() { TraceLevel::Timeline } else { TraceLevel::Pass };
    TraceLevel::from_env().max(floor)
}

/// Print one context's per-pass critical-path breakdown — the uniform
/// summary table every figure binary and `perf_probe` share.
pub fn print_critical_path(label: &str, report: &ProfileReport) {
    let table = report.critical_path_table();
    if table.is_empty() {
        return;
    }
    println!("\n[{label}] critical path:");
    print!("{table}");
    if report.dropped_events > 0 {
        println!("  ({} timeline events dropped over budget)", report.dropped_events);
    }
}

/// Export a merged Chrome trace covering every listed context, if an
/// output path was requested: `--trace-out <path>` wins, else
/// `FLASHR_TRACE_OUT`. The process-wide claim on that path is consumed
/// here so contexts dropped later don't overwrite the merged file, and
/// the file is written even when a context dropped earlier already took
/// the claim for its own export: the merged view supersedes it. No-op
/// when no context carries a timeline.
pub fn maybe_export_trace(parts: &[(&str, &FlashCtx)]) {
    use flashr::core::trace::timeline::claim_trace_out;
    let tls: Vec<(&str, &Timeline)> = parts
        .iter()
        .filter_map(|(name, ctx)| ctx.tracer().timeline().map(|tl| (*name, tl.as_ref())))
        .collect();
    if tls.is_empty() {
        return;
    }
    let env_out = || claim_trace_out().or_else(flashr::core::env::trace_out);
    let Some(path) = trace_out_arg().or_else(env_out) else { return };
    let json = flashr::core::trace::chrome::export_chrome_trace(&tls);
    match std::fs::write(&path, &json) {
        Ok(()) => println!("chrome trace written to {} ({} bytes)", path.display(), json.len()),
        Err(e) => eprintln!("warning: could not write trace {}: {e}", path.display()),
    }
}

/// Fresh scratch directory for an emulated SSD array.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flashr-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// In-memory context sized for benchmarking. Traces at
/// [`bench_trace_level`] so every harness binary can print the per-pass
/// critical-path table and honour `--trace-out`.
pub fn im_ctx() -> FlashCtx {
    FlashCtx::in_memory().with_trace(bench_trace_level())
}

/// External-memory context with the local-server SSD-array profile
/// (paper §4: 24 SATA SSDs; scaled to 4 emulated devices here).
pub fn em_ctx_local(tag: &str) -> FlashCtx {
    let cfg = SafsConfig::striped_under(scratch_dir(tag), 4).with_throttle(ThrottleCfg::sata_ssd());
    FlashCtx::on_ssds(cfg).expect("SAFS open failed").with_trace(bench_trace_level())
}

/// Like [`em_ctx_local`], with a page cache in front of the SSD array
/// (capacity in bytes). Figure bins whose eager baseline re-scans EM
/// leaves across passes use this so the re-reads hit RAM — and the bin
/// stays clean under CI's `FLASHR_DENY_LINTS=W001,W004` gate (W004
/// fires when a re-scanned leaf exceeds the page-cache budget).
pub fn em_ctx_local_cached(tag: &str, cache_bytes: u64) -> FlashCtx {
    let cfg = SafsConfig::striped_under(scratch_dir(tag), 4)
        .with_throttle(ThrottleCfg::sata_ssd())
        .with_cache(CacheCfg::with_capacity(cache_bytes));
    FlashCtx::on_ssds(cfg).expect("SAFS open failed").with_trace(bench_trace_level())
}

/// External-memory context with the EC2 i3.16xlarge NVMe profile.
pub fn em_ctx_ec2(tag: &str) -> FlashCtx {
    let cfg = SafsConfig::striped_under(scratch_dir(tag), 4).with_throttle(ThrottleCfg::nvme_ssd());
    FlashCtx::on_ssds(cfg).expect("SAFS open failed").with_trace(bench_trace_level())
}

/// External-memory context with no throttle (raw host storage).
pub fn em_ctx_raw(tag: &str) -> FlashCtx {
    FlashCtx::on_ssds(SafsConfig::striped_under(scratch_dir(tag), 4))
        .expect("SAFS open failed")
        .with_trace(bench_trace_level())
}

/// Wall-clock one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One timed stage of a probe binary, recorded into the machine-readable
/// `BENCH_<name>.json` artifact alongside the engine's profile report.
#[derive(Debug, Clone)]
pub struct BenchStage {
    pub name: String,
    pub wall_nanos: u64,
    pub gib_per_s: f64,
}

impl BenchStage {
    pub fn new(name: &str, wall: Duration, gib_per_s: f64) -> BenchStage {
        BenchStage { name: name.to_string(), wall_nanos: wall.as_nanos() as u64, gib_per_s }
    }
}

/// Serialize probe stages plus a [`ProfileReport`] into the artifact schema
/// shared by the probe binaries:
///
/// ```json
/// {"bench": "...", "stages": [{"name", "wall_nanos", "gib_per_s"}, ...],
///  "profile": {"exec": ..., "io": ..., "io_shards": [...], "mem": ..., "passes": [...]}}
/// ```
pub fn bench_artifact_json(bench: &str, stages: &[BenchStage], profile: &ProfileReport) -> String {
    bench_artifact_json_sections(bench, stages, profile, &[])
}

/// [`bench_artifact_json`] with extra top-level sections, each a
/// `(key, already-serialized JSON value)` pair — e.g. the static
/// analyzer's [`AnalysisReport::to_json`] under `"analysis"`.
pub fn bench_artifact_json_sections(
    bench: &str,
    stages: &[BenchStage],
    profile: &ProfileReport,
    sections: &[(&str, String)],
) -> String {
    json::object(|w| {
        w.key("bench").str(bench);
        w.key("stages").arr(|w| {
            for s in stages {
                w.obj(|w| {
                    w.key("name").str(&s.name);
                    w.key("wall_nanos").u64(s.wall_nanos);
                    // NaN/inf (zero-duration stages) are not valid JSON numbers.
                    if s.gib_per_s.is_finite() {
                        w.key("gib_per_s").raw(&format!("{:.3}", s.gib_per_s));
                    } else {
                        w.key("gib_per_s").null();
                    }
                });
            }
        });
        w.key("profile").raw(&profile.to_json());
        for (key, value) in sections {
            w.key(key).raw(value);
        }
    })
}

/// The `"host"` section for bench artifacts: the machine and build facts
/// needed to interpret absolute throughput numbers (and printed by
/// `scripts/bench_check` when a gate fails). Delegates to the core's
/// [`obs::host_json`](flashr::core::obs::host_json), so `perf_probe`,
/// `ablate` and `shard_sweep` stamp the same facts (cpus, workers,
/// page-cache capacity, build profile, SIMD level, device throttle,
/// shard count).
pub fn host_section_json(ctx: &FlashCtx) -> String {
    flashr::core::obs::host_json(ctx)
}

/// Force a flight-recorder dump at bench exit when `FLASHR_FLIGHT_OUT`
/// is set, so CI archives a real dump as a workflow artifact even on a
/// healthy run.
pub fn maybe_dump_flight(ctx: &FlashCtx) {
    if flashr::core::env::flight_out().is_some() {
        let _ = ctx.flight_recorder().dump_now("bench-exit");
    }
}

/// Write `BENCH_<name>.json` into the current directory (CI smoke-runs
/// parse these) and return the path.
pub fn save_bench_artifact(name: &str, json: &str) -> PathBuf {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// One-line SAFS I/O summary (volume, request counts, latency quantiles,
/// queue high-water) for an EM context's [`ProfileReport`].
pub fn io_summary_line(io: &flashr::safs::IoStatsSnapshot) -> String {
    let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
    format!(
        "io: read {:.2} GiB in {} reqs (p50<={}us p99<={}us), write {:.2} GiB in {} reqs, max queue depth {}",
        gib(io.read_bytes),
        io.read_reqs,
        io.read_lat.quantile_upper_ns(0.50) / 1_000,
        io.read_lat.quantile_upper_ns(0.99) / 1_000,
        gib(io.write_bytes),
        io.write_reqs,
        io.max_queue_depth
    )
}

/// One measured cell of a result table.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub experiment: String,
    pub algorithm: String,
    pub system: String,
    pub params: String,
    pub seconds: f64,
    pub extra: Option<f64>,
}

/// Accumulates rows, prints a formatted table, dumps JSON.
#[derive(Debug, Default)]
pub struct Report {
    pub rows: Vec<Measurement>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn push(
        &mut self,
        experiment: &str,
        algorithm: &str,
        system: &str,
        params: &str,
        seconds: f64,
    ) {
        self.rows.push(Measurement {
            experiment: experiment.into(),
            algorithm: algorithm.into(),
            system: system.into(),
            params: params.into(),
            seconds,
            extra: None,
        });
    }

    pub fn push_extra(
        &mut self,
        experiment: &str,
        algorithm: &str,
        system: &str,
        params: &str,
        seconds: f64,
        extra: f64,
    ) {
        self.rows.push(Measurement {
            experiment: experiment.into(),
            algorithm: algorithm.into(),
            system: system.into(),
            params: params.into(),
            seconds,
            extra: Some(extra),
        });
    }

    /// Normalized-runtime table per algorithm: every system's time divided
    /// by `baseline_system`'s time (the paper's Figures 7/8 format).
    pub fn print_normalized(&self, baseline_system: &str) {
        let mut algorithms: Vec<String> = Vec::new();
        let mut systems: Vec<String> = Vec::new();
        for r in &self.rows {
            if !algorithms.contains(&r.algorithm) {
                algorithms.push(r.algorithm.clone());
            }
            if !systems.contains(&r.system) {
                systems.push(r.system.clone());
            }
        }
        print!("{:<22}", "algorithm");
        for s in &systems {
            print!("{s:>16}");
        }
        println!();
        for a in &algorithms {
            let base = self
                .rows
                .iter()
                .find(|r| &r.algorithm == a && r.system == baseline_system)
                .map(|r| r.seconds);
            print!("{a:<22}");
            for s in &systems {
                match (self.rows.iter().find(|r| &r.algorithm == a && &r.system == s), base) {
                    (Some(r), Some(b)) if b > 0.0 => print!("{:>15.2}x", r.seconds / b),
                    (Some(r), _) => print!("{:>14.2}s ", r.seconds),
                    _ => print!("{:>16}", "-"),
                }
            }
            println!();
        }
    }

    /// Raw seconds per row.
    pub fn print_raw(&self) {
        println!(
            "{:<14} {:<22} {:<18} {:<24} {:>10}",
            "experiment", "algorithm", "system", "params", "seconds"
        );
        for r in &self.rows {
            println!(
                "{:<14} {:<22} {:<18} {:<24} {:>10.3}{}",
                r.experiment,
                r.algorithm,
                r.system,
                r.params,
                r.seconds,
                r.extra.map(|e| format!("  [{e:.3}]")).unwrap_or_default()
            );
        }
    }

    /// The rows as a JSON array of objects, one row per line; the field
    /// names are the [`Measurement`] field names (CI reads them).
    pub fn to_json(&self) -> String {
        let mut o = String::from("[");
        for (i, r) in self.rows.iter().enumerate() {
            o.push_str(if i == 0 { "\n  " } else { ",\n  " });
            o.push_str(&json::object(|w| {
                w.key("experiment").str(&r.experiment);
                w.key("algorithm").str(&r.algorithm);
                w.key("system").str(&r.system);
                w.key("params").str(&r.params);
                w.key("seconds").f64(r.seconds);
                // `None`, like a non-finite value, is written as null.
                w.key("extra").f64(r.extra.unwrap_or(f64::NAN));
            }));
        }
        o.push_str("\n]\n");
        o
    }

    /// Write all rows as JSON under `target/flashr-results/<name>.json`.
    pub fn save_json(&self, name: &str) {
        let dir = PathBuf::from("target/flashr-results");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\nresults written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env() {
        // Default (no flag in the test binary's argv) is Quick.
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.rows(10, 100), 10);
        assert_eq!(Scale::Full.rows(10, 100), 100);
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_bytes() > 0, "VmHWM should be readable on Linux");
    }

    #[test]
    fn bench_artifact_json_is_wellformed() {
        let ctx = FlashCtx::in_memory().with_trace(TraceLevel::Pass);
        let _ = FM::runif(&ctx, 256, 2, 0.0, 1.0, 7).sum().value(&ctx);
        let stages = vec![
            BenchStage::new("warm\"up", Duration::from_nanos(1_000), 1.25),
            BenchStage::new("degenerate", Duration::ZERO, f64::INFINITY),
        ];
        let json = bench_artifact_json("probe", &stages, &ctx.profile_report());
        assert!(json.starts_with("{\"bench\":\"probe\""));
        assert!(json.contains("\"name\":\"warm\\\"up\""));
        assert!(json.contains("\"gib_per_s\":null"), "non-finite rate must become null");
        assert!(json.contains("\"passes\":["));
        json::parse(&json).expect("strict JSON");
    }

    #[test]
    fn report_collects_and_serializes() {
        let mut r = Report::new();
        r.push("fig7", "corr", "FlashR-IM", "n=100", 1.0);
        r.push_extra("fig7", "corr", "MLlib-like", "n=\"100\"", 4.0, 0.25);
        use flashr::core::json::{parse, Value};
        let doc = parse(&r.to_json()).expect("strict JSON");
        let rows = doc.as_array().expect("an array of rows");
        assert_eq!(rows.len(), 2);
        let text = |row: usize, key| rows[row][key].as_str();
        assert_eq!((text(0, "experiment"), text(0, "algorithm")), (Some("fig7"), Some("corr")));
        assert_eq!((text(0, "system"), text(1, "params")), (Some("FlashR-IM"), Some("n=\"100\"")));
        assert_eq!(
            (rows[1]["seconds"].as_f64(), rows[1]["extra"].as_f64()),
            (Some(4.0), Some(0.25))
        );
        assert_eq!(rows[0]["extra"], Value::Null);
        assert_eq!(parse(&Report::new().to_json()).unwrap(), Value::Array(Vec::new()));
    }
}
