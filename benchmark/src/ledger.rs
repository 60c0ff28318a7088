//! Metric names, units and the arithmetic that turns spans and counter
//! deltas into the per-layer ledger. `BENCHMARK.json` declares the same
//! names; `--check` holds the two together.

use crate::recorder::{Counters, Kind, Recorder, Span};
use crate::workloads::{Sizes, CRITEO_COLS, PAGEGRAPH_COLS};

/// What a user of the system sees; gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("round_s", "s"), ("peak_rss_mib", "MiB")];

/// The per-layer ledger, layer by layer. A metric that a workload does not
/// exercise, or whose probe lives on another workload, reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rlang: moves r_smallpass/round_s only.
    ("rlang.eval_s", "s"),
    ("rlang.passes", "count"),
    ("rlang.us_per_pass", "us"),
    ("rlang.outside_exec_frac", "ratio"),
    // ml: the paper's per-algorithm bars; moves round_s on im_algos and em_algos.
    ("ml.corr_s", "s"),
    ("ml.pca_s", "s"),
    ("ml.nb_s", "s"),
    ("ml.logreg_s", "s"),
    ("ml.kmeans_s", "s"),
    ("ml.gmm_s", "s"),
    ("ml.corr_passes", "count"),
    ("ml.pca_passes", "count"),
    ("ml.nb_passes", "count"),
    ("ml.logreg_passes", "count"),
    ("ml.kmeans_passes", "count"),
    ("ml.gmm_passes", "count"),
    ("ml.driver_self_s", "s"),
    // core.analysis: moves r_smallpass/round_s.
    ("analysis.check_us", "us"),
    // core.exec.
    ("exec.passes", "count"),
    ("exec.parts", "count"),
    ("exec.wall_s", "s"),
    ("exec.busy_s", "s"),
    ("exec.worker_util", "ratio"),
    ("exec.io_wait_s", "s"),
    ("exec.write_stall_s", "s"),
    ("exec.node_chunk_bytes", "B"),
    ("exec.fused_chains", "count"),
    ("exec.fused_saved_bytes", "B"),
    ("exec.pass_fixed_us", "us"),
    ("exec.speedup_2w", "ratio"),
    ("exec.two_leaf_rw_s", "s"),
    ("exec.two_leaf_rw_iqr_s", "s"),
    // core.ops: FM-level probes over the in-memory Criteo leaf.
    ("ops.sum_gib_s", "GiB/s"),
    ("ops.chain4_gib_s", "GiB/s"),
    ("ops.crossprod_gflops", "GFLOP/s"),
    ("ops.innerprod_gflops", "GFLOP/s"),
    ("ops.sum_frac_triad", "ratio"),
    ("ops.chain4_frac_triad", "ratio"),
    // core.gen: moves setup_s everywhere and em_ingest/round_s.
    ("gen.rnorm_gib_s", "GiB/s"),
    ("gen.runif_gib_s", "GiB/s"),
    // linalg: gemm and eigen move im_algos/round_s through the ml phases.
    ("linalg.gemm_gflops", "GFLOP/s"),
    // Nothing in core or ml calls `syrk` (crossprod is an executor sink of
    // its own): on no workload's path, no claim can rest on it.
    ("linalg.syrk_gflops", "GFLOP/s"),
    ("linalg.eigen40_ms", "ms"),
    // safs: all zero on im_algos and r_smallpass.
    ("safs.read_bytes", "B"),
    ("safs.write_bytes", "B"),
    ("safs.read_reqs", "count"),
    ("safs.write_reqs", "count"),
    ("safs.read_busy_s", "s"),
    ("safs.write_busy_s", "s"),
    ("safs.throttle_wait_s", "s"),
    ("safs.max_queue_depth", "count"),
    ("safs.io_retries", "count"),
    ("safs.read_amp", "ratio"),
    ("safs.write_amp", "ratio"),
    ("safs.raw_read_gib_s", "GiB/s"),
    ("safs.raw_write_gib_s", "GiB/s"),
    ("safs.raw_read_frac_device", "ratio"),
    ("safs.direct_read_gib_s", "GiB/s"),
    ("safs.direct_write_gib_s", "GiB/s"),
    // safs.cache: moves em_algos/round_s.
    ("cache.hit_ratio", "ratio"),
    ("cache.bypasses", "count"),
    ("cache.evictions", "count"),
    ("cache.coalesced", "count"),
    ("cache.readahead_hit_ratio", "ratio"),
    ("cache.resident_mib", "MiB"),
    // sparse: on no workload's path yet; no claim can rest on these.
    ("sparse.spmm_gflops", "GFLOP/s"),
    ("sparse.sem_spmm_gib_s", "GiB/s"),
    // baselines: the plain comparator the paper plots against.
    ("baselines.eager_logreg_ratio", "ratio"),
    // data: moves setup_s.
    ("data.criteo_gen_s", "s"),
    ("data.pagegraph_gen_s", "s"),
    // host: which state of the host the run met, then the ceilings
    // measured in the same run.
    ("host.probe_ms", "ms"),
    ("host.cpus", "count"),
    ("host.llc_mib", "MiB"),
    ("host.stream_array_mib", "MiB"),
    ("host.copy_gib_s", "GiB/s"),
    ("host.triad_gib_s", "GiB/s"),
    ("host.fs_read_gib_s", "GiB/s"),
    ("host.fs_write_gib_s", "GiB/s"),
    // What the allocator and the pools hold on to, under a user's settings.
    ("mem.rounds_vmhwm_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
];

pub const GIB: f64 = (1u64 << 30) as f64;

/// Values for a table of declared metrics; everything starts at 0.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { table, values: vec![0.0; table.len()] }
    }

    fn index(&self, name: &str) -> usize {
        self.table.iter().position(|(n, _)| *n == name).unwrap_or_else(|| panic!("undeclared metric {name}"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table.iter().zip(&self.values).map(|(&(n, u), &v)| (n, u, v))
    }
}

/// The smallest value. Every repetition does the same work, and what the
/// host's other tenants add to it they only ever add.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per step, the fastest of its repetitions. `reps` holds one list of step
/// times per repetition, all in the same order; a repetition cut short by
/// a failed operation has no say on the steps it lacks.
pub fn fastest_steps(reps: &[&[f64]]) -> Vec<f64> {
    let nsteps = reps.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..nsteps).map(|i| fastest(&reps.iter().filter_map(|r| r.get(i).copied()).collect::<Vec<_>>())).collect()
}

/// The time of a round (or a set-up) on a host that leaves it alone: the
/// sum over its steps of each step's fastest repetition. The host's other
/// tenants disturb stretches shorter than a round, so across identical
/// runs this strays less than the fastest whole round, which needs every
/// step of one round to be left alone (NOISE.md).
pub fn sum_of_fastest(reps: &[&[f64]]) -> f64 {
    fastest_steps(reps).iter().sum()
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three cut points Python's `statistics.quantiles(values, n=4)` gives
/// (its default "exclusive" method) — the driver computes spreads with it.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes of the EM leaves a round scans, and of the output it writes.
fn em_leaf_and_output_bytes(workload: &str, sizes: &Sizes) -> (f64, f64) {
    let bytes = |rows: u64, cols: usize| (rows * cols as u64 * 8) as f64;
    match workload {
        "em_algos" => (
            bytes(sizes.criteo_rows, CRITEO_COLS + 1)
                + bytes(sizes.kmeans_rows, PAGEGRAPH_COLS)
                + bytes(sizes.gmm_rows, PAGEGRAPH_COLS),
            0.0,
        ),
        // The generated matrix and its scaled copy are both read back and
        // both user output.
        "em_ingest" => (2.0 * bytes(sizes.ingest_rows, PAGEGRAPH_COLS), 2.0 * bytes(sizes.ingest_rows, PAGEGRAPH_COLS)),
        _ => (0.0, 0.0),
    }
}

/// Fill in everything that comes from the traced rounds: counter deltas per
/// round, and the call spans recorded around each public function.
pub fn fill_from_rounds(
    m: &mut Metrics,
    workload: &str,
    sizes: &Sizes,
    nthreads: usize,
    rec: &Recorder,
    traced_rounds: &[(usize, Counters)],
) {
    let r = traced_rounds.len() as f64;
    let per_round = |f: fn(&Counters) -> u64| traced_rounds.iter().map(|(_, c)| f(c) as f64).sum::<f64>() / r;

    let wall = per_round(|c| c.exec.exec_nanos) / 1e9;
    let busy = per_round(|c| c.exec.compute_nanos) / 1e9;
    m.set("exec.passes", per_round(|c| c.exec.passes));
    m.set("exec.parts", per_round(|c| c.exec.parts));
    m.set("exec.wall_s", wall);
    m.set("exec.busy_s", busy);
    m.set("exec.worker_util", ratio(busy, nthreads as f64 * wall));
    m.set("exec.io_wait_s", per_round(|c| c.exec.io_wait_nanos) / 1e9);
    m.set("exec.write_stall_s", per_round(|c| c.exec.write_stall_nanos) / 1e9);
    m.set("exec.node_chunk_bytes", per_round(|c| c.exec.node_chunk_bytes));
    m.set("exec.fused_chains", per_round(|c| c.exec.fused_chains));
    m.set("exec.fused_saved_bytes", per_round(|c| c.exec.fused_saved_bytes));

    let read_bytes = per_round(|c| c.io.read_bytes);
    let write_bytes = per_round(|c| c.io.write_bytes);
    let (leaf_bytes, output_bytes) = em_leaf_and_output_bytes(workload, sizes);
    m.set("safs.read_bytes", read_bytes);
    m.set("safs.write_bytes", write_bytes);
    m.set("safs.read_reqs", per_round(|c| c.io.read_reqs));
    m.set("safs.write_reqs", per_round(|c| c.io.write_reqs));
    m.set("safs.read_busy_s", per_round(|c| c.io.read_nanos) / 1e9);
    m.set("safs.write_busy_s", per_round(|c| c.io.write_nanos) / 1e9);
    m.set("safs.throttle_wait_s", per_round(|c| c.io.throttle_wait_nanos) / 1e9);
    m.set("safs.io_retries", per_round(|c| c.io.io_retries));
    m.set("safs.read_amp", ratio(read_bytes, leaf_bytes));
    m.set("safs.write_amp", ratio(write_bytes, output_bytes));

    m.set("cache.hit_ratio", ratio(per_round(|c| c.io.cache.hits), per_round(|c| c.io.cache.lookups())));
    m.set("cache.bypasses", per_round(|c| c.io.cache.bypasses));
    m.set("cache.evictions", per_round(|c| c.io.cache.evictions));
    m.set("cache.coalesced", per_round(|c| c.io.cache.coalesced));
    m.set(
        "cache.readahead_hit_ratio",
        ratio(per_round(|c| c.io.cache.readahead_hits), per_round(|c| c.io.cache.readahead_issued)),
    );
    // The two gauges read as they stood after the last traced round.
    if let Some((_, last)) = traced_rounds.last() {
        m.set("safs.max_queue_depth", last.io.max_queue_depth as f64);
        m.set("cache.resident_mib", last.io.cache.resident_bytes as f64 / (1 << 20) as f64);
    }

    // Call spans of the traced rounds, grouped by the function called.
    let rounds: Vec<usize> = traced_rounds.iter().map(|(round, _)| *round).collect();
    let calls = |name: &str| -> Vec<&Span> {
        rec.spans().iter().filter(|s| s.kind == Kind::Call && s.name == name && rounds.contains(&s.round)).collect()
    };
    let per_round_sum = |spans: &[&Span], f: &dyn Fn(&Span) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| spans.iter().filter(|s| s.round == *r).map(|s| f(s)).sum()).collect()
    };

    let mut ml_self = vec![0.0; rounds.len()];
    for (algo, name) in [
        ("corr", "ml::correlation"),
        ("pca", "ml::pca"),
        ("nb", "ml::naive_bayes"),
        ("logreg", "ml::logistic_regression"),
        ("kmeans", "ml::kmeans"),
        ("gmm", "ml::gmm"),
    ] {
        let spans = calls(name);
        if spans.is_empty() {
            continue;
        }
        m.set(&format!("ml.{algo}_s"), median(&per_round_sum(&spans, &|s| secs(s.dur_ns()))));
        m.set(&format!("ml.{algo}_passes"), median(&per_round_sum(&spans, &|s| s.counters.exec.passes as f64)));
        for (acc, v) in ml_self.iter_mut().zip(per_round_sum(&spans, &|s| secs(rec.self_ns(s)))) {
            *acc += v;
        }
    }
    // Phase wall minus executor wall: `Dense` work in the driver, such as
    // the eigendecomposition and the Cholesky factors.
    m.set("ml.driver_self_s", median(&ml_self));

    let evals = calls("Interp::eval_str");
    if !evals.is_empty() {
        let eval_s = median(&per_round_sum(&evals, &|s| secs(s.dur_ns())));
        let passes = median(&per_round_sum(&evals, &|s| s.counters.exec.passes as f64));
        let exec_s = median(&per_round_sum(&evals, &|s| secs(s.counters.exec.exec_nanos)));
        m.set("rlang.eval_s", eval_s);
        m.set("rlang.passes", passes);
        m.set("rlang.us_per_pass", ratio(eval_s * 1e6, passes));
        // Interpreter plus plan-build share of the wall inside `eval_str`.
        m.set("rlang.outside_exec_frac", 1.0 - ratio(exec_s, eval_s));
    }

    // Set-up spans carry round 0 and are recorded once.
    for (metric, name) in [("data.criteo_gen_s", "criteo_gen"), ("data.pagegraph_gen_s", "pagegraph_gen")] {
        let ns: u64 = rec.spans().iter().filter(|s| s.layer == "data" && s.name == name).map(Span::dur_ns).sum();
        m.set(metric, secs(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.5, 9.0]), [1.25, 3.0, 6.5]);
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.5, 9.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn sum_of_fastest_takes_each_step_from_its_best_repetition() {
        let reps: [&[f64]; 3] = [&[1.0, 5.0, 2.0], &[3.0, 4.0, 1.0], &[2.0]];
        assert_eq!(fastest_steps(&reps), [1.0, 4.0, 1.0]);
        assert_eq!(sum_of_fastest(&reps), 6.0);
        assert_eq!(sum_of_fastest(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn undeclared_metric_is_refused() {
        let mut m = Metrics::new(END_TO_END);
        m.set("round_s", 1.5);
        assert_eq!(m.get("round_s"), 1.5);
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0)).is_err());
    }
}
