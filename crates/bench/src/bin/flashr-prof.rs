//! `flashr-prof`: render and diff the profile history store.
//!
//! Every materialization run with `FLASHR_PROFILE_DIR` set appends one
//! JSONL record per pass group (see `flashr_core::obs`). This binary
//! turns that store into the two views the calibration loop's users
//! need:
//!
//! * `report` — the trajectory table: per workload (records grouped by
//!   their `FLASHR_PROFILE_LABEL`, falling back to plan fingerprint),
//!   one row per run with throughput, critical-path verdict, straggler
//!   count and device-read prediction error, each compared against a
//!   baseline run so verdict flips and throughput regressions stand
//!   out.
//! * `diff <run-a> <run-b>` — record-by-record deltas between two runs
//!   (matched by workload, fingerprint and ordinal), the per-category
//!   critical-path re-attribution of the wall-clock delta, and the
//!   engine counter deltas.
//!
//! ```text
//! flashr-prof report [--dir DIR] [--baseline RUN]
//! flashr-prof diff <run-a> <run-b> [--dir DIR]
//! flashr-prof runs [--dir DIR]
//! ```
//!
//! `--dir` defaults to `FLASHR_PROFILE_DIR`. Run ids may be abbreviated
//! to any unique prefix.

use flashr::core::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One store record, reduced to the fields the views consume.
#[derive(Debug, Clone)]
struct Rec {
    run: String,
    seq: u64,
    ts_ms: u64,
    label: String,
    fingerprint: String,
    op_class: String,
    mode: String,
    calibrate: bool,
    wall_nanos: u64,
    read_bytes: u64,
    write_bytes: u64,
    chunk_bytes: u64,
    pred_read_bytes: u64,
    source: String,
    bound: String,
    stragglers: u64,
    readahead_late: u64,
    compute_nanos: u64,
    io_wait_nanos: u64,
    write_stall_nanos: u64,
    idle_nanos: u64,
    exec_passes: u64,
    exec_parts: u64,
    exec_pcache_chunks: u64,
    exec_fused_chains: u64,
    decisions: u64,
}

impl Rec {
    /// Workload key: the bench label when one was stamped, else the
    /// plan fingerprint (shortened — it is already hex).
    fn workload(&self) -> String {
        if self.label.is_empty() {
            format!("fp:{}", &self.fingerprint[..self.fingerprint.len().min(12)])
        } else {
            self.label.clone()
        }
    }

    /// Bytes this materialization moved (device reads + writes + chunk
    /// production) — the numerator of the throughput column.
    fn moved_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes + self.chunk_bytes
    }
}

/// A counter, 0 when absent.
fn u(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

/// A string, empty when absent.
fn s(v: &Value) -> String {
    v.as_str().unwrap_or("").to_string()
}

fn parse_rec(line: &str) -> Option<Rec> {
    let v = json::parse(line).ok()?;
    if u(&v["v"]) != 1 {
        return None;
    }
    let (summary, verdict, exec) = (&v["summary"], &v["verdict"], &v["exec"]);
    Some(Rec {
        run: s(&v["run"]),
        seq: u(&v["seq"]),
        ts_ms: u(&v["ts_ms"]),
        label: s(&v["label"]),
        fingerprint: s(&v["fingerprint"]),
        op_class: s(&v["op_class"]),
        mode: s(&v["mode"]),
        calibrate: v["calibrate"].as_bool().unwrap_or(false),
        wall_nanos: u(&summary["wall_nanos"]),
        read_bytes: u(&summary["sum_read_bytes"]),
        write_bytes: u(&summary["sum_write_bytes"]),
        chunk_bytes: u(&summary["sum_chunk_bytes"]),
        pred_read_bytes: u(&summary["sum_pred_read_bytes"]),
        source: s(&verdict["source"]),
        bound: s(&verdict["bound"]),
        stragglers: u(&verdict["stragglers"]),
        readahead_late: u(&verdict["readahead_late"]),
        compute_nanos: u(&verdict["compute_nanos"]),
        io_wait_nanos: u(&verdict["io_wait_nanos"]),
        write_stall_nanos: u(&verdict["write_stall_nanos"]),
        idle_nanos: u(&verdict["idle_nanos"]),
        exec_passes: u(&exec["passes"]),
        exec_parts: u(&exec["parts"]),
        exec_pcache_chunks: u(&exec["pcache_chunks"]),
        exec_fused_chains: u(&exec["fused_chains"]),
        decisions: v["decisions"].as_array().map_or(0, |a| a.len() as u64),
    })
}

/// Load every record in the store, in (run, seq) order. `skipped` counts
/// unparseable lines (foreign files, truncated writes).
fn load_store(dir: &Path) -> Result<(Vec<Rec>, usize), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read profile store {}: {e}", dir.display()))?;
    let mut recs = Vec::new();
    let mut skipped = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            skipped += 1;
            continue;
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_rec(line) {
                Some(r) => recs.push(r),
                None => skipped += 1,
            }
        }
    }
    recs.sort_by(|a, b| (&a.run, a.seq).cmp(&(&b.run, b.seq)));
    Ok((recs, skipped))
}

/// Run ids ordered by each run's earliest record timestamp.
fn runs_by_start(recs: &[Rec]) -> Vec<String> {
    let mut start: BTreeMap<&str, u64> = BTreeMap::new();
    for r in recs {
        let e = start.entry(&r.run).or_insert(u64::MAX);
        *e = (*e).min(r.ts_ms);
    }
    let mut runs: Vec<(&str, u64)> = start.into_iter().collect();
    runs.sort_by_key(|&(run, ts)| (ts, run.to_string()));
    runs.into_iter().map(|(run, _)| run.to_string()).collect()
}

/// Resolve a (possibly abbreviated) run id against the store.
fn resolve_run(runs: &[String], pat: &str) -> Result<String, String> {
    if let Some(exact) = runs.iter().find(|r| r.as_str() == pat) {
        return Ok(exact.clone());
    }
    let hits: Vec<&String> = runs.iter().filter(|r| r.starts_with(pat)).collect();
    match hits.len() {
        1 => Ok(hits[0].clone()),
        0 => Err(format!(
            "run '{pat}' not found in store (known runs: {})",
            runs.join(", ")
        )),
        _ => Err(format!("run '{pat}' is ambiguous: {}", hits.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", "))),
    }
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Per-(workload, run) aggregate for the trajectory table.
#[derive(Debug, Default, Clone)]
struct Agg {
    recs: u64,
    wall_nanos: u64,
    moved_bytes: u64,
    read_bytes: u64,
    pred_err_bytes: u64,
    stragglers: u64,
    readahead_late: u64,
    bound: String,
    calibrate: bool,
}

impl Agg {
    fn add(&mut self, r: &Rec) {
        self.recs += 1;
        self.wall_nanos += r.wall_nanos;
        self.moved_bytes += r.moved_bytes();
        self.read_bytes += r.read_bytes;
        self.pred_err_bytes += r.pred_read_bytes.abs_diff(r.read_bytes);
        self.stragglers += r.stragglers;
        self.readahead_late += r.readahead_late;
        // Last record's verdict stands for the run (workloads are
        // usually one record per run).
        self.bound = r.bound.clone();
        self.calibrate = r.calibrate;
    }

    fn throughput_gib_s(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        gib(self.moved_bytes) / (self.wall_nanos as f64 / 1e9)
    }

    fn mean_err_bytes(&self) -> u64 {
        if self.recs == 0 {
            0
        } else {
            self.pred_err_bytes / self.recs
        }
    }
}

/// `report`: one block per workload, one row per run, baselined.
fn report(dir: &Path, baseline: Option<&str>) -> Result<ExitCode, String> {
    let (recs, skipped) = load_store(dir)?;
    if recs.is_empty() {
        return Err(format!("profile store {} holds no records", dir.display()));
    }
    let runs = runs_by_start(&recs);
    let baseline = match baseline {
        Some(pat) => resolve_run(&runs, pat)?,
        None => runs[0].clone(),
    };
    // (workload → run → aggregate), workloads in first-seen order.
    let mut workloads: Vec<String> = Vec::new();
    let mut table: BTreeMap<(String, String), Agg> = BTreeMap::new();
    for r in &recs {
        let w = r.workload();
        if !workloads.contains(&w) {
            workloads.push(w.clone());
        }
        table.entry((w, r.run.clone())).or_default().add(r);
    }

    println!(
        "profile store: {} — {} records, {} runs, {} workloads (baseline {})",
        dir.display(),
        recs.len(),
        runs.len(),
        workloads.len(),
        baseline,
    );
    if skipped > 0 {
        println!("  ({skipped} unparseable lines skipped)");
    }

    let mut regressions = 0u64;
    let mut flips = 0u64;
    for w in &workloads {
        println!("\nworkload {w}");
        println!(
            "  {:<28} {:>5} {:>6} {:>9} {:<12} {:>10} {:>12}  {}",
            "run", "recs", "calib", "GiB/s", "bound", "straggler", "pred-err", "vs-baseline"
        );
        let base = table.get(&(w.clone(), baseline.clone())).cloned();
        for run in &runs {
            let Some(a) = table.get(&(w.clone(), run.clone())) else { continue };
            let vs = match (&base, run == &baseline) {
                (_, true) => "(baseline)".to_string(),
                (Some(b), false) if b.throughput_gib_s() > 0.0 => {
                    let delta =
                        100.0 * (a.throughput_gib_s() / b.throughput_gib_s() - 1.0);
                    let mut tag = format!("{delta:+.1}%");
                    if delta < -10.0 {
                        tag.push_str("  REGRESSION");
                        regressions += 1;
                    }
                    if b.bound != a.bound {
                        tag.push_str(&format!("  flip {}→{}", b.bound, a.bound));
                        flips += 1;
                    }
                    tag
                }
                _ => "(no baseline row)".to_string(),
            };
            println!(
                "  {:<28} {:>5} {:>6} {:>9.3} {:<12} {:>10} {:>9.1}MiB  {}",
                run,
                a.recs,
                if a.calibrate { "on" } else { "off" },
                a.throughput_gib_s(),
                a.bound,
                a.stragglers,
                mib(a.mean_err_bytes()),
                vs,
            );
        }
    }
    println!(
        "\nsummary: {} regression(s), {} verdict flip(s) across {} workload(s), {} run(s)",
        regressions,
        flips,
        workloads.len(),
        runs.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `diff`: record-by-record deltas plus the critical-path
/// re-attribution of where the wall-clock delta went.
fn diff(dir: &Path, run_a: &str, run_b: &str) -> Result<ExitCode, String> {
    let (recs, _) = load_store(dir)?;
    if recs.is_empty() {
        return Err(format!("profile store {} holds no records", dir.display()));
    }
    let runs = runs_by_start(&recs);
    let run_a = resolve_run(&runs, run_a)?;
    let run_b = resolve_run(&runs, run_b)?;

    // Match records across the two runs by (workload, fingerprint,
    // ordinal) — the ordinal disambiguates a workload that materializes
    // the same plan several times.
    let mut a_by_key: BTreeMap<(String, String), Vec<&Rec>> = BTreeMap::new();
    let mut b_by_key: BTreeMap<(String, String), Vec<&Rec>> = BTreeMap::new();
    for r in &recs {
        let key = (r.workload(), r.fingerprint.clone());
        if r.run == run_a {
            a_by_key.entry(key).or_default().push(r);
        } else if r.run == run_b {
            b_by_key.entry(key).or_default().push(r);
        }
    }

    println!("diff {run_a} → {run_b}");
    println!(
        "{:<24} {:>3} {:<9} {:>10} {:>10} {:>8} {:>11} {:>11}  {}",
        "workload", "#", "class", "wall-a ms", "wall-b ms", "Δ%", "read ΔMiB", "chunk ΔMiB", "bound"
    );

    let (mut wall_a, mut wall_b) = (0u64, 0u64);
    let mut cat_a = [0u64; 4]; // compute, io-wait, write-stall, idle
    let mut cat_b = [0u64; 4];
    let mut exec_a = [0u64; 4]; // passes, parts, pcache_chunks, fused_chains
    let mut exec_b = [0u64; 4];
    let mut matched = 0usize;
    let mut flips = 0u64;
    let mut from_rows = 0usize;
    for (key, avs) in &a_by_key {
        let bvs = b_by_key.get(key).cloned().unwrap_or_default();
        for (i, ra) in avs.iter().enumerate() {
            let Some(rb) = bvs.get(i) else {
                println!(
                    "{:<24} {:>3} {:<9} {:>10.2} {:>10} only in {run_a}",
                    key.0, i, ra.op_class, ms(ra.wall_nanos), "-"
                );
                continue;
            };
            matched += 1;
            if ra.source == "critical-path" && rb.source == "critical-path" {
                from_rows += 1;
            }
            wall_a += ra.wall_nanos;
            wall_b += rb.wall_nanos;
            for (acc, r) in [(&mut cat_a, *ra), (&mut cat_b, *rb)] {
                acc[0] += r.compute_nanos;
                acc[1] += r.io_wait_nanos;
                acc[2] += r.write_stall_nanos;
                acc[3] += r.idle_nanos;
            }
            for (acc, r) in [(&mut exec_a, *ra), (&mut exec_b, *rb)] {
                acc[0] += r.exec_passes;
                acc[1] += r.exec_parts;
                acc[2] += r.exec_pcache_chunks;
                acc[3] += r.exec_fused_chains;
            }
            let pct = if ra.wall_nanos > 0 {
                100.0 * (rb.wall_nanos as f64 / ra.wall_nanos as f64 - 1.0)
            } else {
                0.0
            };
            let bound = if ra.bound == rb.bound {
                ra.bound.clone()
            } else {
                flips += 1;
                format!("{}→{} FLIP", ra.bound, rb.bound)
            };
            let dmib = |x: u64, y: u64| mib(y.max(x) - y.min(x)) * if y >= x { 1.0 } else { -1.0 };
            println!(
                "{:<24} {:>3} {:<9} {:>10.2} {:>10.2} {:>+7.1}% {:>+11.1} {:>+11.1}  {}",
                key.0,
                i,
                ra.op_class,
                ms(ra.wall_nanos),
                ms(rb.wall_nanos),
                pct,
                dmib(ra.read_bytes, rb.read_bytes),
                dmib(ra.chunk_bytes, rb.chunk_bytes),
                bound,
            );
        }
    }
    for (key, bvs) in &b_by_key {
        let have = a_by_key.get(key).map(|v| v.len()).unwrap_or(0);
        for (i, rb) in bvs.iter().enumerate().skip(have) {
            println!(
                "{:<24} {:>3} {:<9} {:>10} {:>10.2} only in {run_b}",
                key.0, i, rb.op_class, "-", ms(rb.wall_nanos)
            );
        }
    }
    if matched == 0 {
        return Err(format!("no records matched between {run_a} and {run_b}"));
    }

    // Re-attribute the wall delta: which critical-path category grew or
    // shrank, and how much of the total delta it explains.
    println!(
        "\ncritical-path re-attribution over {matched} matched record(s) \
         ({from_rows} from span rows, {} from the counter fallback):",
        matched - from_rows
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>12} {:>8}",
        "category", "a (ms)", "b (ms)", "delta (ms)", "share"
    );
    let total_delta: i128 = (0..4)
        .map(|i| (cat_b[i] as i128 - cat_a[i] as i128).abs())
        .sum();
    for (i, name) in ["compute", "io-wait", "write-stall", "idle"].iter().enumerate() {
        let d = cat_b[i] as i128 - cat_a[i] as i128;
        let share = if total_delta > 0 {
            100.0 * d.unsigned_abs() as f64 / total_delta as f64
        } else {
            0.0
        };
        println!(
            "  {:<12} {:>12.2} {:>12.2} {:>+12.2} {:>7.1}%",
            name,
            ms(cat_a[i]),
            ms(cat_b[i]),
            d as f64 / 1e6,
            share
        );
    }
    println!(
        "  wall: {:.2} ms → {:.2} ms ({:+.1}%), {} verdict flip(s)",
        ms(wall_a),
        ms(wall_b),
        if wall_a > 0 { 100.0 * (wall_b as f64 / wall_a as f64 - 1.0) } else { 0.0 },
        flips,
    );
    println!("\nengine counter deltas (matched records):");
    for (i, name) in ["passes", "parts", "pcache_chunks", "fused_chains"].iter().enumerate() {
        println!("  {:<14} {:>10} → {:>10} ({:+})", name, exec_a[i], exec_b[i], exec_b[i] as i128 - exec_a[i] as i128);
    }
    Ok(ExitCode::SUCCESS)
}

/// `runs`: list what the store holds, one line per run.
fn list_runs(dir: &Path) -> Result<ExitCode, String> {
    let (recs, skipped) = load_store(dir)?;
    if recs.is_empty() {
        return Err(format!("profile store {} holds no records", dir.display()));
    }
    println!("{:<28} {:>6} {:>9} {:>8} {:>6} {:>6}  workloads", "run", "recs", "GiB", "calib", "modes", "decs");
    for run in runs_by_start(&recs) {
        let rs: Vec<&Rec> = recs.iter().filter(|r| r.run == run).collect();
        let mut workloads: Vec<String> = Vec::new();
        let mut modes: Vec<String> = Vec::new();
        for r in &rs {
            let w = r.workload();
            if !workloads.contains(&w) {
                workloads.push(w);
            }
            if !modes.contains(&r.mode) {
                modes.push(r.mode.clone());
            }
        }
        println!(
            "{:<28} {:>6} {:>9.3} {:>8} {:>6} {:>6}  {}",
            run,
            rs.len(),
            gib(rs.iter().map(|r| r.moved_bytes()).sum()),
            if rs.iter().any(|r| r.calibrate) { "on" } else { "off" },
            modes.len(),
            rs.iter().map(|r| r.decisions).sum::<u64>(),
            workloads.join(","),
        );
    }
    if skipped > 0 {
        println!("({skipped} unparseable lines skipped)");
    }
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage:
  flashr-prof report [--dir DIR] [--baseline RUN]
  flashr-prof diff <run-a> <run-b> [--dir DIR]
  flashr-prof runs [--dir DIR]
DIR defaults to $FLASHR_PROFILE_DIR; run ids accept unique prefixes.";

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = arg_after(&args, "--dir")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("FLASHR_PROFILE_DIR").filter(|v| !v.is_empty()).map(PathBuf::from));
    let Some(dir) = dir else {
        eprintln!("flashr-prof: no store directory (pass --dir or set FLASHR_PROFILE_DIR)\n{USAGE}");
        return ExitCode::from(2);
    };
    // Positional args: everything not a flag or a flag's value.
    let mut positional: Vec<&String> = Vec::new();
    let mut skip = false;
    for a in &args {
        if skip {
            skip = false;
            continue;
        }
        if a == "--dir" || a == "--baseline" {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            positional.push(a);
        }
    }
    let result = match positional.first().map(|s| s.as_str()) {
        Some("report") => report(&dir, arg_after(&args, "--baseline").as_deref()),
        Some("diff") => match (positional.get(1), positional.get(2)) {
            (Some(a), Some(b)) => diff(&dir, a, b),
            _ => Err(format!("diff needs two run ids\n{USAGE}")),
        },
        Some("runs") => list_runs(&dir),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flashr-prof: {msg}");
            ExitCode::from(2)
        }
    }
}
