//! The repo benchmark. README.md has the command, the metric and workload
//! tables, and the protocol with the observations behind each step.
//!
//! ```text
//! flashr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! flashr-benchmark --check
//! flashr-benchmark --repeat K [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result object the driver reads. Without it every
//! workload runs in a fresh child process, one after the other.

mod host;
mod json;
mod ledger;
mod probes;
mod recorder;
mod workloads;

use json::{quote, Json};
use ledger::{fastest, fastest_steps, median, quartiles, sum_of_fastest, Metrics, END_TO_END, PER_LAYER};
use recorder::Counters;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Run, Sizes, State, WORKLOADS};

/// What `--seconds` is when not given; `BENCHMARK.json` says the same.
const RUN_SECONDS: f64 = 12.0;
/// Marked rounds of the memory run; `peak_rss_mib` is their median.
const MEMORY_ROUNDS: usize = 2;

/// The logistic-regression loss after three iterations at the frozen sizes
/// and the golden seed.
pub fn golden_logreg_loss() -> f64 {
    let golden = Json::parse(include_str!("../golden.json")).expect("golden.json is not JSON");
    assert_eq!(golden.get("seed").and_then(Json::as_f64), Some(workloads::GOLDEN_SEED as f64));
    golden.get("logreg_loss").and_then(Json::as_f64).expect("golden.json has no logreg_loss")
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    repeat: Option<usize>,
    /// Internal: a child of `--check` — sizes at 1/64, one round.
    small: bool,
    /// Internal: the memory run of one workload.
    memory_run: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: workloads::GOLDEN_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        check: false,
        repeat: None,
        small: false,
        memory_run: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = num(&flag, value()?)?,
            "--seconds" => {
                o.seconds = num(&flag, value()?)?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => o.trace = num::<u8>(&flag, value()?)? != 0,
            "--check" => o.check = true,
            "--repeat" => o.repeat = Some(num(&flag, value()?)?),
            "--small" => o.small = true,
            "--memory-run" => o.memory_run = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("flashr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The library sees only generated inputs and its own defaults: no
    // FLASHR_* knob of the caller's environment reaches it. Done before
    // any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FLASHR_") {
            std::env::remove_var(key);
        }
    }
    let ok = if opts.check {
        check()
    } else if let Some(k) = opts.repeat {
        repeat(&opts, k)
    } else if let Some(w) = &opts.workload {
        if opts.memory_run {
            run_memory(w, &opts)
        } else {
            run_workload(w, &opts)
        }
    } else {
        run_all(&opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// `VmHWM`: the most memory this process has had resident since the mark
/// was last reset.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Give the allocator's free pages back to the kernel and restart `VmHWM`
/// from what is resident now, so the next round's mark is its own. An error
/// means `VmHWM` still covers the whole run: another quantity, which must
/// not be reported under the same name.
fn restart_memory_mark() -> std::io::Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and locks each arena it
        // walks; it only returns free heap pages to the kernel.
        unsafe { malloc_trim(0) };
    }
    // "5" resets the peak resident set size (Linux 4.0 and later).
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Keep this process, and every thread it will start, on the CPU it is on.
///
/// `r_smallpass` makes thousands of one-partition passes, and each hands its
/// work to one freshly spawned worker and back. Across two CPUs of a VM
/// every hand-off wakes a possibly halted virtual CPU, a cost that belongs
/// to the hypervisor and moved identical runs between 145 and 340 µs per
/// pass; on one CPU the same hand-off is a context switch. Where the call
/// is missing or refused the run goes on unpinned.
fn pin_to_current_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: takes no argument and only reads the calling thread's CPU.
        let cpu = unsafe { sched_getcpu() };
        let mut mask = [0u64; 16];
        let Some(word) = usize::try_from(cpu).ok().and_then(|c| mask.get_mut(c / 64)) else {
            return;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is 128 readable bytes and `cpusetsize` says so;
        // pid 0 names the calling thread, the only one at this point, and
        // the threads it starts later inherit its mask.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
            eprintln!("flashr-benchmark: could not pin to CPU {cpu}; running unpinned");
        }
    }
}

/// File-system type of the mount that holds `path`.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, dir, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(dir).then(|| (dir.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// Largest cache the first CPU reports, in MiB.
fn llc_mib() -> f64 {
    (0..8)
        .filter_map(|i| std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")).ok())
        .filter_map(|s| s.trim().strip_suffix('K').and_then(|k| k.parse::<f64>().ok()))
        .fold(0.0, |a, kib| a.max(kib / 1024.0))
}

struct RoundSample {
    round: usize,
    /// Seconds of each phase, in the order the round runs them.
    steps: Vec<f64>,
    /// Counter movement over the round; read only while recording.
    counters: Option<Counters>,
}

fn run_workload(workload: &str, opts: &Opts) -> bool {
    let sizes = if opts.small { Sizes::check() } else { Sizes::FULL };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workload == "r_smallpass" {
        pin_to_current_cpu();
    }
    std::fs::create_dir_all(workloads::out_dir()).expect("cannot create benchmark/out");
    println!(
        "# flashr-benchmark workload={workload} seed={} seconds={} trace={} sizes={} deps=shim simd={} host.cpus={cpus} \
         nthreads={} em_root_fs={}",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        if opts.small { "1/64" } else { "frozen" },
        flashr::linalg::SimdLevel::active().name(),
        workloads::nthreads(),
        fs_type(&workloads::out_dir()),
    );

    let mut run = Run::new();
    // Memory is measured where time does not matter, in a process of its
    // own, while this one holds no data yet.
    let peak_rss_mib = if opts.trace { 0.0 } else { memory_run(workload, opts, &mut run) };
    run.rec.enabled = opts.trace;
    let run_span = run.rec.open_run();

    // A run is made of segments: one set-up (context and SAFS open, data
    // generation and materialisation, one warm-up round), then that
    // segment's share of the timed rounds. The previous segment's data goes
    // before the next is built, so the peak is that of one. A traced run
    // has one segment, alternates recorder off and on, and spends half its
    // time on rounds and the rest on the layer probes.
    let segments = if opts.trace || opts.small { 1 } else { workloads::setups(workload) };
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds } / segments as f64;
    let min_rounds = match (opts.small, opts.trace) {
        (_, false) => 1,
        (true, true) => 2,
        (false, true) => 4,
    };
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut samples: Vec<RoundSample> = Vec::new();
    let mut state = None;
    for _ in 0..segments {
        drop(state.take());
        // The steps of a set-up: building the state, then each phase of
        // the warm-up round.
        run.host.push(host::probe());
        let t = Instant::now();
        let mut s = State::setup(workload, &sizes, opts.seed, &mut run);
        let build = t.elapsed().as_secs_f64();
        s.round(&mut run);
        setups.push(std::iter::once(build).chain(run.steps.drain(..)).collect());

        // Timed rounds: constant work each, as many as fit the budget.
        let (t0, first) = (Instant::now(), samples.len());
        while samples.len() - first < min_rounds || (!opts.small && t0.elapsed().as_secs_f64() < budget) {
            let round = samples.len() + 1;
            run.rec.round = round;
            run.rec.enabled = opts.trace && round.is_multiple_of(2);
            let before = run.rec.enabled.then(|| Counters::read(s.ctx()));
            s.round(&mut run);
            let counters = before.map(|b| b.delta(&Counters::read(s.ctx())));
            samples.push(RoundSample { round, steps: std::mem::take(&mut run.steps), counters });
        }
        state = Some(s);
    }
    let mut state = state.expect("at least one segment");
    let steps_of = |recorded: bool| -> Vec<&[f64]> {
        samples.iter().filter(|s| s.counters.is_some() == recorded).map(|s| s.steps.as_slice()).collect()
    };
    let plain = steps_of(false);
    let round_s = sum_of_fastest(&plain);
    let setups: Vec<&[f64]> = setups.iter().map(Vec::as_slice).collect();
    let setup_s = sum_of_fastest(&setups);
    let probe_ms = median(&run.host) * 1e3;

    let metrics = if opts.trace {
        let mut m = Metrics::new(PER_LAYER);
        let traced: Vec<(usize, Counters)> = samples.iter().filter_map(|s| Some((s.round, s.counters?))).collect();
        ledger::fill_from_rounds(&mut m, workload, &sizes, workloads::nthreads(), &run.rec, &traced);
        m.set("trace.overhead_frac", (sum_of_fastest(&steps_of(true)) - round_s) / round_s);
        m.set("host.probe_ms", probe_ms);
        m.set("host.cpus", cpus as f64);
        m.set("host.llc_mib", llc_mib());
        // The paper's Table 6 quantity as a user's process has it: default
        // allocator, set-up and rounds, before the probes add their arrays.
        m.set("mem.rounds_vmhwm_mib", vm_hwm_mib());

        run.rec.round = 0;
        run.rec.enabled = true;
        probes::run(&mut state, &sizes, opts.seed, round_s, &mut run, &mut m);
        run.rec.close(state.ctx(), run_span);
        let path = workloads::out_dir().join(format!("trace-{workload}.jsonl"));
        match run.rec.write_jsonl(&path, workload) {
            Ok(()) => println!("# {} spans written to {}", run.rec.spans().len(), path.display()),
            Err(e) => {
                eprintln!("FAILED writing {}: {e}", path.display());
                run.failed += 1;
            }
        }
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", setup_s);
        m.set("round_s", round_s);
        m.set("peak_rss_mib", peak_rss_mib);
        m
    };
    drop(state);
    let list = |v: &[f64]| v.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ");
    let totals = |reps: &[&[f64]]| reps.iter().map(|steps| steps.iter().sum()).collect::<Vec<f64>>();
    println!("# set-ups={segments}, whole: {} s", list(&totals(&setups)));
    let whole = totals(&plain);
    println!(
        "# rounds={} ({} behind round_s; whole rounds: fastest {:.3} s, median {:.3} s): {} s",
        samples.len(),
        plain.len(),
        fastest(&whole),
        median(&whole),
        list(&totals(&samples.iter().map(|s| s.steps.as_slice()).collect::<Vec<_>>()))
    );
    println!("# fastest of each step of a round: {} s", list(&fastest_steps(&plain)));
    println!(
        "# host: probe median {probe_ms:.3} ms (fastest {:.3} ms, {} samples)",
        fastest(&run.host) * 1e3,
        run.host.len()
    );
    println!("# VmHWM of this process, default allocator: {:.1} MiB", vm_hwm_mib());

    print_result(&mut run, &metrics)
}

/// Start the memory run of `workload` and return its `peak_rss_mib`; its
/// operations count as this run's.
fn memory_run(workload: &str, opts: &Opts, run: &mut Run) -> f64 {
    let mode: &[&str] = if opts.small { &["--memory-run", "--small"] } else { &["--memory-run"] };
    match spawn(workload, opts.seed, opts.seconds, mode) {
        Ok(child) => {
            for line in child.stdout.lines().filter(|l| l.starts_with('#')) {
                println!("{line}");
            }
            run.attempted += child.count("attempted");
            run.failed += child.count("failed");
            child.value("peak_rss_mib")
        }
        Err(e) => {
            eprintln!("FAILED memory run: {e}");
            run.failed += 1;
            f64::NAN
        }
    }
}

/// One `name value unit` line per metric, the operation counts, and last
/// the object the driver reads. Returns whether every operation succeeded.
fn print_result(run: &mut Run, metrics: &Metrics) -> bool {
    let mut fields = Vec::new();
    for (name, unit, value) in metrics.iter() {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("FAILED {name}: measured {value}");
            run.failed += 1;
            0.0
        };
        println!("{name:<32} {value:>16.6} {unit}");
        fields.push(format!("{}:{{\"value\":{value},\"unit\":{}}}", quote(name), quote(unit)));
    }
    println!("ops_attempted {} ops_failed {}", run.attempted, run.failed);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        fields.join(",")
    );
    run.failed == 0
}

/// The memory run: one set-up, one warm-up round, then marked rounds, in a
/// process the parent started with `MALLOC_ARENA_MAX=1`.
///
/// Under the default allocator the mark is useless as a gate: per-pass
/// worker threads land in up to 16 glibc arenas, each keeps what it once
/// freed, and identical runs read 183–243 MiB on `em_ingest`, 258–318 MiB on
/// `im_algos` and 88–135 MiB on `em_algos`. With one arena the marked rounds
/// of `em_algos` read 70.3–70.9 MiB over six runs. One arena also slows
/// `im_algos` rounds by 45 %, which is why time and memory are measured in
/// two processes. What the default allocator holds on to is still a cost a
/// user pays: the traced run reports it, ungated, as `mem.rounds_vmhwm_mib`.
fn run_memory(workload: &str, opts: &Opts) -> bool {
    let sizes = if opts.small { Sizes::check() } else { Sizes::FULL };
    if workload == "r_smallpass" {
        pin_to_current_cpu();
    }
    let mut run = Run::new();
    let mut state = State::setup(workload, &sizes, opts.seed, &mut run);
    state.round(&mut run);
    let mut marks = Vec::new();
    let mut restarted = true;
    for _ in 0..if opts.small { 1 } else { MEMORY_ROUNDS } {
        // Restarting the mark is an operation like any other: where it is
        // refused the run fails, it does not report the whole-run mark.
        run.attempted += 1;
        if let Err(e) = restart_memory_mark() {
            eprintln!("FAILED restarting VmHWM through /proc/self/clear_refs: {e}");
            run.failed += 1;
            restarted = false;
        }
        state.round(&mut run);
        marks.push(vm_hwm_mib());
    }
    drop(state);
    println!(
        "# memory run, one arena, mark_reset={}: marks {marks:.1?} MiB",
        if restarted { "per-round" } else { "refused (marks cover the whole run)" }
    );
    let mut metrics = Metrics::new(&END_TO_END[2..]);
    metrics.set("peak_rss_mib", median(&marks));
    print_result(&mut run, &metrics)
}

// ---------------------------------------------------------------------
// Modes that drive child processes
// ---------------------------------------------------------------------

/// The result object a child run printed last, with what it printed before.
struct Child {
    result: Json,
    stdout: String,
}

impl Child {
    /// `attempted` or `failed`.
    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
    }

    fn value(&self, metric: &str) -> f64 {
        let m = self.result.get("metrics").and_then(|m| m.get(metric));
        m.and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// The number that follows `prefix` on the `#` line that starts with it.
    fn comment_value(&self, prefix: &str) -> f64 {
        let rest = self.stdout.lines().find_map(|l| l.strip_prefix(prefix));
        rest.and_then(|r| r.split_whitespace().next()).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
    }
}

/// One workload in a fresh process: the run's memory high-water mark, page
/// cache and allocator state start clean every time.
fn spawn(workload: &str, seed: u64, seconds: f64, mode: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(mode);
    if mode.contains(&"--memory-run") {
        cmd.env("MALLOC_ARENA_MAX", "1");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("{workload} exited with {}:\n{stdout}", out.status));
    }
    let last = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: last line is not JSON ({e})"))?;
    Ok(Child { result, stdout })
}

fn run_all(opts: &Opts) -> bool {
    let mut ok = true;
    let mut round_s = std::collections::BTreeMap::new();
    for w in WORKLOADS {
        match spawn(w, opts.seed, opts.seconds, if opts.trace { &["--trace", "1"] } else { &[] }) {
            Ok(child) => {
                print!("{}", child.stdout);
                round_s.insert(w, child.value("round_s"));
            }
            Err(e) => {
                eprintln!("flashr-benchmark: {e}");
                ok = false;
            }
        }
    }
    if let (Some(em), Some(im)) = (round_s.get("em_algos"), round_s.get("im_algos")) {
        if em.is_finite() && im.is_finite() {
            // The paper's headline ratio; derived, not gated.
            println!("em_over_im                       {:>16.6} ratio", em / im);
        }
    }
    ok
}

fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or_default().to_string();
    bench.get(section).map_or(&[][..], Json::as_array).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

/// The smoke a CI job calls: every workload at 1/64 size with one round,
/// both trace modes, and the printed metrics held against `BENCHMARK.json`.
fn check() -> bool {
    let t = Instant::now();
    let bench = match benchmark_json() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("check: {e}");
            return false;
        }
    };
    let mut problems = Vec::new();
    let listed: Vec<&str> =
        bench.get("workloads").map_or(&[][..], Json::as_array).iter().filter_map(|w| w.get("name")?.as_str()).collect();
    if listed != WORKLOADS {
        problems.push(format!("BENCHMARK.json lists workloads {listed:?}, the benchmark runs {WORKLOADS:?}"));
    }
    for (section, table, trace) in [("end_to_end", END_TO_END, false), ("per_layer", PER_LAYER, true)] {
        let want = declared(&bench, section);
        let ours: Vec<(String, String)> = table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if want != ours {
            problems.push(format!("BENCHMARK.json `{section}` and the benchmark's table differ"));
        }
        for w in WORKLOADS {
            let child = match spawn(
                w,
                workloads::GOLDEN_SEED,
                1.0,
                if trace { &["--trace", "1", "--small"] } else { &["--small"] },
            ) {
                Ok(c) => c,
                Err(e) => {
                    problems.push(e);
                    continue;
                }
            };
            let printed = child.result.get("metrics").map_or(&[][..], Json::fields);
            for (name, unit) in &want {
                let hits: Vec<_> = printed.iter().filter(|(n, _)| n == name).collect();
                match hits.as_slice() {
                    [(_, m)] if m.get("unit").and_then(Json::as_str) == Some(unit) => {}
                    [_] => problems.push(format!("{w}: {name} printed with the wrong unit")),
                    other => problems.push(format!("{w}: {name} printed {} times", other.len())),
                }
            }
            for (name, _) in printed {
                if !want.iter().any(|(n, _)| n == name) {
                    problems.push(format!("{w}: undeclared metric {name}"));
                }
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)) {
                    problems.push(format!("{w}: metric name `{name}` is malformed"));
                }
            }
            if child.result.get("failed").and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("{w} (trace {}): operations failed", trace as u8));
            }
        }
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!("check: {} problems, {:.1} s", problems.len(), t.elapsed().as_secs_f64());
    problems.is_empty()
}

/// `--repeat K`: K fresh runs per workload, each with another seed, and per
/// end-to-end metric the spread the driver will compute, beside the bound.
fn repeat(opts: &Opts, k: usize) -> bool {
    if k < 2 {
        eprintln!("--repeat needs at least 2 runs");
        return false;
    }
    let bounds: Vec<(String, f64)> = benchmark_json().map_or(Vec::new(), |b| {
        let e2e = b.get("end_to_end").map_or(&[][..], Json::as_array);
        e2e.iter().filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?))).collect()
    });
    let chosen: Vec<&str> =
        WORKLOADS.into_iter().filter(|w| opts.workload.as_deref().is_none_or(|c| c == *w)).collect();
    println!("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | values |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for w in chosen {
        let mut runs = Vec::new();
        for i in 0..k {
            match spawn(w, opts.seed + i as u64, opts.seconds, &[]) {
                Ok(c) => runs.push(c),
                Err(e) => {
                    eprintln!("flashr-benchmark: {e}");
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            continue;
        }
        // The state of the host each run met, from its `# host:` line:
        // sets that met different states do not compare.
        let probes: Vec<f64> = runs.iter().map(|c| c.comment_value("# host: probe median ")).collect();
        let rows = END_TO_END.iter().map(|&(name, unit)| (name, unit, runs.iter().map(|c| c.value(name)).collect()));
        for (name, unit, values) in rows.chain([("host.probe_ms", "ms", probes)]) {
            let values: Vec<f64> = values;
            let [q1, q2, q3] = quartiles(&values);
            let (min, max) =
                values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let bound = bounds.iter().find(|(n, _)| n == name).map_or("none".to_string(), |(_, b)| b.to_string());
            let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {w} | {name} | {unit} | {q2:.4} | {q1:.4} | {q3:.4} | {:.4} | {:.4} | {bound} | {} |",
                (q3 - q1) / q2,
                (max - min) / q2,
                list.join(" ")
            );
        }
    }
    ok
}
