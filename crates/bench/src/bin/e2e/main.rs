//! `e2e` — the repository's end-to-end benchmark: absolute µs/step/atom on
//! four workloads, attributed layer by layer. See `README.md` beside this
//! file for the workloads, every metric and how to run it.
//!
//! ```text
//! e2e --workload <cu_solo|water_solo|cu_served|lj_dist|all> --seed <u64>
//!     [--seconds N] [--trace 0|1 | --traced] [--repeat N]
//!     [--out FILE] [--out-trace FILE]
//! ```
//!
//! One workload runs in this process and ends with the one-line JSON result
//! of the benchmark contract. `all` runs each workload in a child process of
//! its own (so `peak_rss_mb` is per workload) and, with `--repeat N`, checks
//! N back-to-back sets against the benchmark's own bounds.

#![forbid(unsafe_code)]

mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use report::{ResultSet, RunResult};
use spans::Recorder;
use workloads::{Gates, Workload};

/// The widest pool any workload builds.
const WIDEST_POOL: usize = 2;

#[derive(Clone, Debug, PartialEq)]
struct Args {
    /// `None`: all of them, each in a child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    out: Option<PathBuf>,
    out_trace: Option<PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        traced: false,
        repeat: 1,
        out: None,
        out_trace: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = match (name.as_str(), Workload::parse(&name)) {
                    ("all", _) => None,
                    (_, Some(w)) => Some(w),
                    _ => {
                        let names = Workload::ALL.map(Workload::name);
                        return Err(format!("--workload: want one of {names:?} or all"));
                    }
                }
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: want a u64")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds: want a number")?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => a.repeat = value()?.parse().map_err(|_| "--repeat: want a count")?,
            "--out" => a.out = Some(value()?.into()),
            "--out-trace" => a.out_trace = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds >= 1.0 && a.seconds <= 600.0) {
        return Err("--seconds: want 1 to 600".into());
    }
    if !(1..=100).contains(&a.repeat) {
        return Err("--repeat: want 1 to 100".into());
    }
    if a.repeat > 1 && a.workload.is_some() {
        return Err("--repeat checks full sets: use it with --workload all".into());
    }
    Ok(a)
}

/// Library seeds are offset by tenant ids; keep them far from overflow
/// whatever the caller passes.
fn library_seed(seed: u64) -> u64 {
    seed & 0xFFFF_FFFF_FFFF
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything two result sets must share to be comparable, plus what the
/// run inherited from its environment.
fn header(a: &Args, inherited_threads: &str) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    vec![
        ("dispatch", nnet::gemm::dispatch::active_class().tag().to_string()),
        ("nproc", nproc().to_string()),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("git", git_sha()),
        // The process-global pool (reached only by cell-list neighbour
        // builds) is pinned to one thread; every other pool is built
        // explicitly at its stated width.
        ("DPMD_THREADS", format!("{inherited_threads}->1")),
        ("DPMD_FORCE_SCALAR", env(nnet::gemm::dispatch::FORCE_SCALAR_ENV)),
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn header_line(h: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = h.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("e2e {}", fields.join(" "))
}

/// ns of simulated time per wall-clock day, from the paper's unit.
fn ns_per_day(us_per_step_atom: f64, atoms: usize, dt_fs: f64) -> f64 {
    let step_seconds = us_per_step_atom * 1e-6 * atoms as f64;
    86_400.0 * dt_fs * 1e-6 / step_seconds
}

/// Replace a metric the run could not produce by 0 and fail a gate for it,
/// so the result line stays valid JSON and `correct` turns false.
fn finite_or_fail(name: &str, v: f64, gates: &mut Gates) -> f64 {
    gates.check(v.is_finite(), || format!("metric {name} is not finite"));
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn run_untraced(w: Workload, a: &Args, gates: &mut Gates) -> Vec<(&'static str, f64)> {
    let m = workloads::run(w, library_seed(a.seed), a.seconds, true, None, gates);
    let seg = stats::Summary::of(&m.window.seg_us);
    println!(
        "  us_per_step_atom = {:.4} us  (q1 {:.4}, q3 {:.4}, {} segments, {} step calls)",
        seg.median,
        seg.q1,
        seg.q3,
        seg.n,
        m.window.step_ms.len()
    );
    if let Some(served) = &m.served {
        // Wall-clock turnaround is what a tenant sees, but only this
        // workload has it, so it is printed here and not part of the
        // contract's metric list (see README "Deviations").
        let p = |pct| match stats::percentile(&served.turnaround_ms, pct) {
            Ok(v) => format!("{v:.2} ms"),
            Err(t) => format!("refused ({} samples, {} beyond)", t.samples, t.beyond),
        };
        println!(
            "  turnaround_ms p50 = {}, p90 = {}  ({} tenants, {} rounds per replay)",
            p(50.0),
            p(90.0),
            served.turnaround_ms.len(),
            served.counts.rounds
        );
    }
    vec![
        ("setup_s", m.setup_s),
        ("us_per_step_atom", seg.median),
        ("ns_per_day", ns_per_day(seg.median, m.atoms_per_system, m.dt_fs)),
        ("peak_rss_mb", m.peak_rss_mb),
    ]
}

fn run_traced(w: Workload, a: &Args, gates: &mut Gates) -> Vec<(&'static str, f64)> {
    let seed = library_seed(a.seed);
    let mut rec = Recorder::new();
    let m = workloads::run(w, seed, a.seconds, false, Some(&mut rec), gates);
    let mut got: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Window metrics of the workload that ran.
    let by_kind = |traced: bool| -> Vec<f64> {
        let w = &m.window;
        w.seg_us.iter().zip(&w.seg_traced).filter(|(_, &t)| t == traced).map(|(&us, _)| us).collect()
    };
    let (on, off) = (by_kind(true), by_kind(false));
    got.insert("bench.trace_overhead_share", stats::median(&on) / stats::median(&off) - 1.0);
    got.insert("bench.step_ms_p50", stats::median(&m.window.step_ms));
    got.insert("bench.step_ms_p90", stats::percentile(&m.window.step_ms, 90.0).unwrap_or(f64::NAN));
    got.insert("bench.step_drift", m.step_drift);
    let totals = rec.totals_by_name();
    let sum = |names: &[&str], f: fn(&spans::NameTotals) -> u64| -> f64 {
        names.iter().filter_map(|n| totals.get(*n)).map(f).sum::<u64>() as f64
    };
    let root_ns = sum(&workloads::ROOT_SPANS, |t| t.total_ns);
    got.insert("bench.window_unattributed_share", sum(&workloads::STEP_CALL_SPANS, |t| t.self_ns) / root_ns);
    println!("  traced window: {} traced / {} untraced segments; self time by span:", on.len(), off.len());
    for (span, t) in &totals {
        println!(
            "    {span:<28} n={:<6} total {:>9.2} ms  self {:>9.2} ms  ({:.1} % of window)",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / root_ns
        );
    }

    // ‡ service counts: the scripted replay's, 0 where no service ran.
    let c = m.served.map(|s| s.counts).unwrap_or_default();
    let busy = c.busy_rounds.max(1) as f64;
    got.insert("serve.occupancy_mean", c.stepped as f64 / busy);
    got.insert("serve.queue_wait_rounds_p50", stats::count_percentile(&c.queue_wait_rounds, 50));
    got.insert("serve.queue_wait_rounds_p90", stats::count_percentile(&c.queue_wait_rounds, 90));
    got.insert("serve.turnaround_rounds_p50", stats::count_percentile(&c.turnaround_rounds, 50));
    got.insert("serve.turnaround_rounds_p90", stats::count_percentile(&c.turnaround_rounds, 90));
    got.insert("serve.rounds", c.rounds as f64);
    got.insert("serve.rejected", c.rejected as f64);

    // Layer probes on the canonical snapshots.
    let window_spans = rec.spans().len();
    got.extend(probes::run_all(seed, &mut rec, gates));
    println!("  probes: {} repetitions recorded", rec.spans().len() - window_spans);

    if let Some(path) = &a.out_trace {
        match std::fs::write(path, rec.chrome_trace_json()) {
            Ok(()) => println!("  trace: {} spans -> {}", rec.spans().len(), path.display()),
            Err(e) => gates.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    report::PER_LAYER
        .iter()
        .map(|d| {
            let v = *got.get(d.name).unwrap_or_else(|| panic!("no probe produced {}", d.name));
            (d.name, v)
        })
        .collect()
}

/// Run one workload in this process; the last line printed is the
/// contract's result.
fn run_one(w: Workload, a: &Args) {
    println!("workload {} trace={}: {}", w.name(), u8::from(a.traced), w.why());
    let mut gates = Gates::default();
    let metrics = if a.traced { run_traced(w, a, &mut gates) } else { run_untraced(w, a, &mut gates) };
    let metrics: Vec<(&'static str, f64)> =
        metrics.into_iter().map(|(n, v)| (n, finite_or_fail(n, v, &mut gates))).collect();
    for &(n, v) in &metrics {
        let d = report::def(n).expect("run_* return catalogue names");
        let mark = if d.exact { " ‡" } else { "" };
        println!("  {n:<40} {v:>16.6} {:<7} ({} is better){mark}", d.unit, d.better.as_str());
    }
    for f in &gates.failures {
        println!("  FAILED: {f}");
    }
    println!("  ops_attempted = {}  ops_failed = {}", gates.attempted, gates.failed);
    println!("{}", report::contract_line(gates.attempted, gates.failed, &metrics));
}

/// `trace.json` -> `trace.<workload>.json`, so `all` mode writes one trace
/// per workload.
fn per_workload_path(path: &Path, workload: &str) -> PathBuf {
    match path.extension() {
        Some(ext) => path.with_extension(format!("{workload}.{}", ext.to_string_lossy())),
        None => path.with_extension(workload),
    }
}

/// Run one workload in a child process and parse its result line; also
/// returns the dispatch class the child's header reports.
fn run_child(name: &str, a: &Args, traced: bool) -> Result<(RunResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    if let (true, Some(p)) = (traced, &a.out_trace) {
        cmd.arg("--out-trace").arg(per_workload_path(p, name));
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let dispatch = lines
        .first()
        .and_then(|h| h.split_whitespace().find_map(|f| f.strip_prefix("dispatch=")))
        .ok_or_else(|| format!("{name}: child printed no header"))?
        .to_string();
    Ok((report::parse_contract_line(last)?, dispatch))
}

fn result_to_json(r: &RunResult) -> Value {
    let num = |x: String| Value::Number(x);
    let metrics = r.metrics.iter().map(|(k, v)| (k.clone(), num(v.to_string()))).collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), num(r.attempted.to_string())),
        ("failed".into(), num(r.failed.to_string())),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// Every workload, each in its own child process, `--repeat` sets back to
/// back. Returns whether every run was correct and the sets agree.
fn run_all(a: &Args, head: &[(&'static str, String)]) -> Result<bool, String> {
    let own_dispatch = nnet::gemm::dispatch::active_class().tag();
    let mut untraced_sets: Vec<ResultSet> = Vec::new();
    let mut traced_sets: Vec<ResultSet> = Vec::new();
    let mut all_ok = true;
    for set in 0..a.repeat {
        let (mut untraced, mut traced) = (ResultSet::new(), ResultSet::new());
        for name in Workload::ALL.map(Workload::name) {
            for (is_traced, sink) in [(false, &mut untraced), (true, &mut traced)] {
                if is_traced && !a.traced {
                    continue;
                }
                println!("--- set {set} {name} trace={}", u8::from(is_traced));
                let (r, dispatch) = run_child(name, a, is_traced)?;
                if dispatch != own_dispatch {
                    return Err(format!(
                        "{name} ran on dispatch class {dispatch}, this process on {own_dispatch}: \
                         sets of different classes are not comparable"
                    ));
                }
                all_ok &= r.correct;
                sink.insert(name.to_string(), r);
            }
        }
        untraced_sets.push(untraced);
        if a.traced {
            traced_sets.push(traced);
        }
    }

    if a.repeat > 1 {
        println!("--- noise self-check over {} sets", a.repeat);
        for sets in [&untraced_sets, &traced_sets] {
            let (lines, ok) = report::repeat_check(sets);
            lines.iter().for_each(|l| println!("{l}"));
            all_ok &= ok;
        }
    }

    if let Some(path) = &a.out {
        let sets = |v: &[ResultSet]| {
            Value::Array(
                v.iter()
                    .map(|s| Value::Object(s.iter().map(|(w, r)| (w.clone(), result_to_json(r))).collect()))
                    .collect(),
            )
        };
        let doc = Value::Object(vec![
            (
                "header".into(),
                Value::Object(head.iter().map(|(k, v)| (k.to_string(), Value::String(v.clone()))).collect()),
            ),
            ("end_to_end".into(), sets(&untraced_sets)),
            ("per_layer".into(), sets(&traced_sets)),
        ]);
        let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    // Pin the process-global pool before anything can build it.
    let inherited_threads = std::env::var("DPMD_THREADS").unwrap_or_else(|_| "unset".into());
    std::env::set_var("DPMD_THREADS", "1");

    let head = header(&a, &inherited_threads);
    println!("{}", header_line(&head));
    if nproc() < WIDEST_POOL {
        println!(
            "warning: {} core(s) for pools of {WIDEST_POOL}: thread-pool timings are oversubscribed",
            nproc()
        );
    }
    if let Some(w) = a.workload {
        run_one(w, &a);
        return ExitCode::SUCCESS;
    }
    match run_all(&a, &head) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: a correctness gate or the noise self-check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args("--workload lj_dist --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.traced), (Some(Workload::LjDist), 42, 10.0, true));
        assert!(!args("--workload cu_solo --seed 1 --seconds 10 --trace 0").unwrap().traced);
        assert_eq!(args("").unwrap().workload, None);
        assert_eq!(args("--workload all").unwrap().workload, None);
        assert!(args("--traced --repeat 2 --out o.json").unwrap().traced);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--repeat 0",
            "--workload cu_solo --repeat 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ns_per_day_matches_the_papers_unit() {
        // 1 fs steps at 1 ms per step: 86.4 M steps a day = 0.0864 ns... x1e3.
        let v = ns_per_day(1.0, 1000, 1.0);
        assert!((v - 86.4).abs() < 1e-9, "{v}");
        // Half the time per step-atom, twice the ns/day; twice the dt too.
        assert!((ns_per_day(0.5, 1000, 2.0) - 4.0 * 86.4).abs() < 1e-9);
    }

    #[test]
    fn trace_paths_get_the_workload_name() {
        assert_eq!(per_workload_path(Path::new("t/trace.json"), "cu_solo"), Path::new("t/trace.cu_solo.json"));
        assert_eq!(per_workload_path(Path::new("trace"), "lj_dist"), Path::new("trace.lj_dist"));
    }

    #[test]
    fn library_seeds_leave_room_for_tenant_offsets() {
        assert_eq!(library_seed(7), 7);
        assert!(library_seed(u64::MAX).checked_add(1 << 20).is_some());
    }
}
