//! Cost-model calibration from the profile history store.
//!
//! ROADMAP item 4 left the loop open: the byte-based cost model priced
//! plans, the critical-path analyzer recorded where the wall clock
//! actually went, and nothing connected them. This module closes it.
//! At context build (behind [`crate::session::CtxConfig::calibrate`])
//! the records in `FLASHR_PROFILE_DIR` ([`crate::obs`]) are replayed
//! and per-category throughput constants fitted as robust medians over
//! records matching this context's `(host, backend, simd)` stamp:
//!
//! * **device read / write GiB/s** — from the SAFS I/O counter deltas
//!   (`read_bytes / read_nanos`) each record carries;
//! * **compute GiB/s per op class** — chunk bytes produced over worker
//!   compute nanos, split by the plan's coarse class (`stream` vs.
//!   `gemm`, [`crate::obs::op_class`]);
//! * **device-read absorption** — the observed ratio of actual device
//!   reads to the model's cold-cache upper bound, fitted per plan
//!   fingerprint with a global median fallback. This is what moves the
//!   model's constants off pure byte counts: a warm page cache absorbs
//!   a workload-dependent share of the predicted reads, and history
//!   knows the share.
//!
//! [`crate::analysis::cost::estimate`] consults the fitted constants to
//! re-price its estimate (`device_read_bytes`, predicted nanos); the
//! `Calibration` decision graduates from log-only to actionable
//! (predicted vs. actual device bytes with the residual recorded); and
//! the constants plus the rolling prediction error are exported as
//! Prometheus gauges (`flashr_calib_*`). Calibration never changes
//! *plan actions*, only estimates — outputs stay bit-identical with the
//! knob on or off.
//!
//! Medians (not means) throughout: a single cold-cache outlier or a
//! run against a different data set must not drag the constants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fallback pricing constants when no history matches (or the knob is
/// off): conservative SATA-class device rates and a memory-bandwidth-
/// bounded compute rate. Only used to fill the estimate's predicted-
/// nanos fields; they influence no plan action.
pub const DEFAULT_READ_GIB_S: f64 = 0.5;
pub const DEFAULT_WRITE_GIB_S: f64 = 0.4;
pub const DEFAULT_COMPUTE_GIB_S: f64 = 2.0;

const GIB: f64 = (1u64 << 30) as f64;

/// Throughput constants fitted from the history store.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Median device read throughput (GiB/s); `None` when no record
    /// carried device reads.
    pub device_read_gib_s: Option<f64>,
    /// Median device write throughput (GiB/s).
    pub device_write_gib_s: Option<f64>,
    /// Median compute throughput (GiB/s of chunk bytes) per op class
    /// (`"stream"`, `"gemm"`).
    pub compute_gib_s: HashMap<&'static str, f64>,
    /// Median `actual / predicted` device-read ratio per plan
    /// fingerprint (keyed by the raw, uncalibrated prediction so the
    /// fit never feeds on its own output).
    pub read_factor: HashMap<u64, f64>,
    /// Global fallback read ratio across all matching records.
    pub read_factor_global: Option<f64>,
    /// Matching records the fit consumed.
    pub records: usize,
}

impl Calibration {
    /// The fitted device-read absorption factor for a plan fingerprint
    /// (falling back to the global median).
    pub fn read_factor_for(&self, fingerprint: u64) -> Option<f64> {
        self.read_factor.get(&fingerprint).copied().or(self.read_factor_global)
    }

    /// Fitted (or default) read rate in GiB/s.
    pub fn read_gib_s(&self) -> f64 {
        self.device_read_gib_s.unwrap_or(DEFAULT_READ_GIB_S)
    }

    /// Fitted (or default) write rate in GiB/s.
    pub fn write_gib_s(&self) -> f64 {
        self.device_write_gib_s.unwrap_or(DEFAULT_WRITE_GIB_S)
    }

    /// Fitted (or default) compute rate for an op class in GiB/s.
    pub fn compute_gib_s_for(&self, class: &str) -> f64 {
        self.compute_gib_s.get(class).copied().unwrap_or(DEFAULT_COMPUTE_GIB_S)
    }
}

/// Per-context calibration state: the fitted constants (when the knob
/// is on and history matched) plus rolling prediction-error counters
/// every materialization feeds. Always present on a context so the
/// metrics source can export a stable gauge family set.
#[derive(Debug, Default)]
pub struct CalibState {
    pub calibration: Option<Calibration>,
    predictions: AtomicU64,
    /// Sum of |predicted − actual| device-read bytes across this
    /// context's materializations.
    err_sum_bytes: AtomicU64,
}

impl CalibState {
    /// State holding an optional fit (from [`load`]) and zeroed error
    /// counters.
    pub fn new(calibration: Option<Calibration>) -> Self {
        CalibState { calibration, ..CalibState::default() }
    }

    /// Record one finished materialization's device-read prediction
    /// against what the SAFS counters measured.
    pub(crate) fn record_prediction(&self, predicted_bytes: u64, actual_bytes: u64) {
        self.predictions.fetch_add(1, Ordering::Relaxed);
        self.err_sum_bytes.fetch_add(predicted_bytes.abs_diff(actual_bytes), Ordering::Relaxed);
    }

    /// Materializations scored so far.
    pub fn predictions(&self) -> u64 {
        self.predictions.load(Ordering::Relaxed)
    }

    /// Rolling mean |predicted − actual| device-read bytes (0 before
    /// the first materialization).
    pub fn mean_error_bytes(&self) -> u64 {
        let n = self.predictions();
        if n == 0 {
            0
        } else {
            self.err_sum_bytes.load(Ordering::Relaxed) / n
        }
    }
}

/// One parsed history record — only the fields the fit needs.
#[derive(Debug, Clone)]
struct HistRecord {
    fingerprint: u64,
    op_class: String,
    read_bytes: u64,
    read_nanos: u64,
    write_bytes: u64,
    write_nanos: u64,
    chunk_bytes: u64,
    compute_nanos: u64,
    pred_read_bytes_raw: u64,
}

/// Load the store and fit constants for a context whose host stamp is
/// `(cpus, build, backend, simd)`. Returns `None` when the store is
/// absent, unreadable, or holds no matching records.
pub fn load(backend: &str, simd: &str) -> Option<Calibration> {
    let dir = crate::obs::store_dir()?;
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let build = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut records: Vec<HistRecord> = Vec::new();
    let entries = std::fs::read_dir(&dir).ok()?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        for line in text.lines() {
            if let Some(r) = parse_record(line, cpus, build, backend, simd) {
                records.push(r);
            }
        }
    }
    fit(&records)
}

fn fit(records: &[HistRecord]) -> Option<Calibration> {
    if records.is_empty() {
        return None;
    }
    let rate = |bytes: u64, nanos: u64| -> Option<f64> {
        if bytes == 0 || nanos == 0 {
            None
        } else {
            Some(bytes as f64 / GIB / (nanos as f64 / 1e9))
        }
    };
    let read: Vec<f64> =
        records.iter().filter_map(|r| rate(r.read_bytes, r.read_nanos)).collect();
    let write: Vec<f64> =
        records.iter().filter_map(|r| rate(r.write_bytes, r.write_nanos)).collect();
    let mut compute: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for r in records {
        let class: &'static str = if r.op_class == "gemm" { "gemm" } else { "stream" };
        if let Some(v) = rate(r.chunk_bytes, r.compute_nanos) {
            compute.entry(class).or_default().push(v);
        }
    }
    let mut by_fp: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut global: Vec<f64> = Vec::new();
    for r in records {
        if r.pred_read_bytes_raw == 0 {
            continue;
        }
        let ratio = r.read_bytes as f64 / r.pred_read_bytes_raw as f64;
        by_fp.entry(r.fingerprint).or_default().push(ratio);
        global.push(ratio);
    }
    Some(Calibration {
        device_read_gib_s: median(&read),
        device_write_gib_s: median(&write),
        compute_gib_s: compute
            .into_iter()
            .filter_map(|(k, v)| median(&v).map(|m| (k, m)))
            .collect(),
        read_factor: by_fp
            .into_iter()
            .filter_map(|(k, v)| median(&v).map(|m| (k, m)))
            .collect(),
        read_factor_global: median(&global),
        records: records.len(),
    })
}

fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(v[v.len() / 2])
}

/// Extract one history record from a store line ([`crate::obs`] writes
/// them), keeping only records whose host stamp matches. A line that is
/// not a version-1 record — foreign file, truncated write — is skipped.
fn parse_record(
    line: &str,
    cpus: usize,
    build: &str,
    backend: &str,
    simd: &str,
) -> Option<HistRecord> {
    let v = crate::json::parse(line).ok()?;
    let host = v.get("host")?;
    if v.get("v")?.as_u64()? != 1
        || host.get("cpus")?.as_u64()? != cpus as u64
        || host.get("build_profile")?.as_str()? != build
        || host.get("backend")?.as_str()? != backend
        || host.get("simd")?.as_str()? != simd
    {
        return None;
    }
    let summary = v.get("summary")?;
    let sum = |key: &str| summary.get(key)?.as_u64();
    Some(HistRecord {
        fingerprint: u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?,
        op_class: v.get("op_class")?.as_str()?.to_string(),
        read_bytes: sum("sum_read_bytes")?,
        read_nanos: sum("sum_read_nanos")?,
        write_bytes: sum("sum_write_bytes")?,
        write_nanos: sum("sum_write_nanos")?,
        chunk_bytes: sum("sum_chunk_bytes")?,
        compute_nanos: sum("sum_compute_nanos")?,
        pred_read_bytes_raw: sum("sum_pred_read_bytes_raw")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: u64, class: &str, read: (u64, u64), pred_raw: u64) -> HistRecord {
        HistRecord {
            fingerprint: fp,
            op_class: class.to_string(),
            read_bytes: read.0,
            read_nanos: read.1,
            write_bytes: 0,
            write_nanos: 0,
            chunk_bytes: 1 << 30,
            compute_nanos: 500_000_000,
            pred_read_bytes_raw: pred_raw,
        }
    }

    #[test]
    fn fit_uses_medians() {
        // Three read-rate samples: 1, 2, 100 GiB/s → median 2.
        let records = vec![
            rec(7, "stream", (1 << 30, 1_000_000_000), 1 << 31),
            rec(7, "stream", (2 << 30, 1_000_000_000), 1 << 31),
            rec(7, "stream", (100 << 30, 1_000_000_000), 1 << 31),
        ];
        let c = fit(&records).unwrap();
        assert!((c.device_read_gib_s.unwrap() - 2.0).abs() < 1e-9);
        // chunk 1 GiB over 0.5 s → 2 GiB/s compute for the stream class.
        assert!((c.compute_gib_s_for("stream") - 2.0).abs() < 1e-9);
        // gemm class unseen → default.
        assert!((c.compute_gib_s_for("gemm") - DEFAULT_COMPUTE_GIB_S).abs() < 1e-9);
        // read factors: 0.5, 1.0, 50.0 → median 1.0.
        assert!((c.read_factor_for(7).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(c.records, 3);
    }

    #[test]
    fn fit_empty_is_none() {
        assert!(fit(&[]).is_none());
    }

    #[test]
    fn parser_reads_writer_format() {
        let line = "{\"v\":1,\"run\":\"run-1-2\",\"seq\":0,\"ts_ms\":3,\"label\":\"w\",\
                    \"fingerprint\":\"00000000000000ff\",\"op_class\":\"gemm\",\
                    \"mode\":\"Eager\",\"cost_optimize\":true,\"calibrate\":false,\
                    \"host\":{\"cpus\":8,\"workers\":8,\"numa_nodes\":2,\
                    \"page_cache_capacity_bytes\":0,\"build_profile\":\"release\",\
                    \"simd\":\"avx2\",\"backend\":\"sim\",\"shards\":4},\
                    \"summary\":{\"wall_nanos\":9,\"sum_read_bytes\":1024,\
                    \"sum_read_nanos\":512,\"sum_write_bytes\":1,\"sum_write_nanos\":2,\
                    \"sum_chunk_bytes\":3,\"sum_compute_nanos\":4,\
                    \"sum_pred_read_bytes\":2048,\"sum_pred_read_bytes_raw\":4096}}";
        let r = parse_record(line, 8, "release", "sim", "avx2").unwrap();
        assert_eq!(r.fingerprint, 0xff);
        assert_eq!(r.op_class, "gemm");
        assert_eq!(r.read_bytes, 1024);
        assert_eq!(r.pred_read_bytes_raw, 4096);
        // Host mismatch filters the record out.
        assert!(parse_record(line, 4, "release", "sim", "avx2").is_none());
        assert!(parse_record(line, 8, "release", "direct", "avx2").is_none());
        assert!(parse_record(line, 8, "release", "sim", "off").is_none());
    }

    #[test]
    fn calib_state_rolls_error() {
        let s = CalibState::default();
        assert_eq!(s.mean_error_bytes(), 0);
        s.record_prediction(100, 60);
        s.record_prediction(50, 70);
        assert_eq!(s.predictions(), 2);
        assert_eq!(s.mean_error_bytes(), 30);
    }
}
