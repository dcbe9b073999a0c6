//! `dpmd` — regenerate any table or figure of the paper from the terminal,
//! or run functional MD with the Deep Potential engine.
//!
//! ```sh
//! dpmd list                 # what can be regenerated
//! dpmd fig7                 # one experiment
//! dpmd fig11 --points 3     # strong scaling, first 3 topologies
//! dpmd all                  # everything (slow: full 12,000-node sweeps)
//! dpmd md --steps 20 --timing   # MD run with per-step phase breakdown
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use dpmd_core::prelude::*;

use dpmd_scaling::experiments;

fn usage() {
    println!("usage: dpmd <experiment|list|all> [--points N] [--iters N]");
    println!("       dpmd md [--water] [--cells N] [--steps N] [--threads N] [--timing]");
    println!("               [--profile FILE] [--trace FILE]");
    println!("       dpmd md batch --replicas N --steps S [--cells N] [--water]");
    println!("               [--precision P] [--in-flight K|all] [--threads N] [--profile FILE]");
    println!("       dpmd md serve --script SPEC [--cells N] [--water] [--precision P]");
    println!("               [--in-flight K|all] [--threads N] [--profile FILE]");
    println!("       dpmd validate-obs <profile.json> [trace.json]");
    println!("       dpmd analyze [--deny] [--baseline PATH] [--config PATH] [--root DIR]");
    println!("               [--json PATH] [--bless] [--graph PATH] [--emit-stats PATH]");
    println!("               [--min-resolution PCT]\n");
    println!("experiments:");
    for (name, about, _) in experiments::ALL {
        println!("  {name:10} {about}");
    }
    println!("\nmd: functional MD with the Deep Potential engine");
    println!("  --water      water box instead of FCC copper");
    println!("  --cells N    cells per box edge (default 3)");
    println!("  --steps N    steps to run (default 20)");
    println!("  --threads N  force-evaluation threads (default: all cores)");
    println!("  --timing     per-step phase breakdown (neighbor/descriptor/");
    println!("               embedding/fitting/integrate)");
    println!("  --precision P  inference precision: double (default) | fp32 | fp16");
    println!("  --faults SPEC  run the distributed driver under an injected");
    println!("               fault scenario with recovery, and verify the");
    println!("               trajectory stays bit-identical to the clean run.");
    println!("               SPEC: ';'-separated clauses, e.g.");
    println!("               \"seed=7;drop=0.15;dup=0.1;reorder=0.3;stall-leader=0@3+4\"");
    println!("               (also: delay=P:R, retries=N, backoff=NS, pool=BYTES,");
    println!("               stall-tni=T@S+N)");
    println!("  --scheme S   exchange scheme for --faults: node (default) | p2p");
    println!("  --profile F  write the deterministic metrics snapshot (JSON) to F");
    println!("  --trace F    write the per-step span tree as a Chrome trace to F");
    println!("               (load in chrome://tracing or https://ui.perfetto.dev)");
    println!("\nmd batch: a fixed fleet through the service — shorthand for");
    println!("          md serve --script \"tenants=N;steps=S;window=1\"");
    println!("  --replicas N   independent trajectories (default 4)");
    println!("  --steps S      steps per replica (default 10)");
    println!("\nmd serve: continuous-batching multi-tenant service; tenants");
    println!("          attach/detach mid-flight via a deterministic arrival");
    println!("          script (logical rounds, no wall clocks). Trajectories");
    println!("          stay bit-identical to solo runs regardless of schedule");
    println!("  --script SPEC  ';'-separated clauses: seed=S tenants=N steps=K");
    println!("                 window=W queue=N at=ID@R prio=ID:class");
    println!("                 deadline=ID@R pause=ID@R+K  (class: interactive |");
    println!("                 standard | batch; queue full => typed rejection)");
    println!("  --in-flight K  admit at most K tenants per round; a positive");
    println!("                 count or 'all' (default). 1 steps one trajectory");
    println!("                 at a time; 0 is rejected");
    println!("  --precision P  double | fp32 (default) | fp16");
    println!("\nvalidate-obs: check --profile/--trace outputs against the schema");
    println!("\nanalyze: determinism & safety linter over the workspace sources");
    println!("  (rules D2, D5, D6: float reductions, hot-path allocation, lock");
    println!("  order; D7 and D10 run as reachability queries over the");
    println!("  workspace call graph: transitive hot-path allocation,");
    println!("  interprocedural lock order; unsafe, clock and hash-container");
    println!("  checks are clippy's); --deny fails on any finding not covered");
    println!("  by the committed baseline");
    println!("  --graph F           export the resolved call graph as JSON");
    println!("  --emit-stats F      write resolution statistics (JSON) to F");
    println!("  --min-resolution P  fail unless at least P% of call edges");
    println!("                      resolve (unresolved sites are listed)");
}

/// The part of a run that `md`, `md batch` and `md serve` set up the same
/// way: an engine builder over the untrained tiny model (an untrained model
/// evaluates the full pipeline at realistic cost; CLI runs are about
/// dynamics and timing, not accuracy) with `--water`, `--cells`,
/// `--precision` and `--threads` applied, observing into `registry` /
/// `tracebuf` when `--profile` or `--trace` asks for output.
struct MdSetup {
    builder: EngineBuilder,
    registry: MetricsRegistry,
    tracebuf: TraceBuffer,
    water: bool,
}

fn md_setup(
    args: &[String],
    default_cells: usize,
    default_precision: &str,
) -> Result<MdSetup, String> {
    let cells = parse_flag(args, "--cells", default_cells)?;
    let water = args.iter().any(|a| a == "--water");
    let (registry, tracebuf) = (MetricsRegistry::new(), TraceBuffer::new());
    let mut builder = Engine::builder().seed(2024);
    if flag_value(args, "--profile").is_some() || flag_value(args, "--trace").is_some() {
        builder = builder.observe(registry.clone(), tracebuf.clone());
    }
    builder = if water { builder.water_cells(cells) } else { builder.copper_cells(cells) };
    let precision = flag_value(args, "--precision").map_or(default_precision, String::as_str);
    builder = builder.precision(match precision {
        "double" => Precision::Double,
        "fp32" => Precision::Mix32,
        "fp16" => Precision::Mix16,
        other => return Err(format!("unknown --precision '{other}' (use double | fp32 | fp16)")),
    });
    if let Some(n) = parse_opt(args, "--threads")? {
        builder = builder.threads(n);
    }
    // Which instantiation of the f32 kernels this CPU runs (avx512 / avx2 /
    // baseline): a speed label, the bits are the same on every one.
    println!(
        "precision: {precision}, f32 kernels: {}",
        nnet::gemm::dispatch::active_class().tag()
    );
    let ntypes = if water { 2 } else { 1 };
    builder = builder.with_model(DeepPotModel::new(DeepPotConfig::tiny(ntypes, 6.0)));
    Ok(MdSetup { builder, registry, tracebuf, water })
}

/// Write the deterministic metrics snapshot to the `--profile` path, if one
/// was given.
fn write_profile(args: &[String], registry: &MetricsRegistry) -> Result<(), String> {
    let Some(path) = flag_value(args, "--profile") else { return Ok(()) };
    let snap = registry.snapshot_deterministic();
    let n = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    std::fs::write(path, snap.to_json()).map_err(|e| format!("--profile {path}: {e}"))?;
    println!("profile: wrote {n} metrics to {path}");
    Ok(())
}

/// `dpmd md serve` (and `md batch`, whose fixed fleet is just another
/// script): the continuous-batching multi-tenant service, driven by a
/// deterministic arrival script (wall clocks are banned on deterministic
/// paths, so "when tenants show up" is derived from a seed).
#[expect(clippy::disallowed_methods, reason = "WallNs timing")]
fn run_md_serve(args: &[String], script: &dpmd_serve::ArrivalScript) -> Result<(), String> {
    let in_flight = parse_flag(args, "--in-flight", dpmd_serve::InFlightCap::All)?;
    let MdSetup { builder, registry, .. } = md_setup(args, 2, "fp32")?;
    let parts = builder.build_parts();

    let mut served =
        dpmd_serve::ContinuousScheduler::new(parts, in_flight, script.queue_capacity);
    let t0 = std::time::Instant::now();
    let outcome = served.run_script(script);
    let wall = t0.elapsed().as_secs_f64();

    let done: u64 = served.tenants().iter().map(|t| t.done_steps()).sum();
    println!(
        "continuous: {} tenants, {} steps total in {} rounds, cap {in_flight} ({wall:.3} s)",
        served.tenants().len(),
        done,
        outcome.rounds,
    );
    if !outcome.rejected.is_empty() {
        println!("rejected by queue backpressure (queue={}): tenants {:?}", script.queue_capacity, outcome.rejected);
    }
    println!(
        "{:>6} {:>12} {:>8} {:>9} {:>6} {:>9} {:>9} {:>12}",
        "tenant", "class", "arrived", "admitted", "wait", "steps", "finished", "pe"
    );
    for t in served.tenants() {
        let (finished, deadline_note) = match t.state {
            dpmd_serve::TenantState::Finished { round } => (
                round.to_string(),
                if t.missed_deadline() { " (deadline missed)" } else { "" },
            ),
            _ => ("-".to_string(), ""),
        };
        println!(
            "{:>6} {:>12} {:>8} {:>9} {:>6} {:>9} {:>9} {:>12.4}{}",
            t.id,
            t.priority.to_string(),
            t.arrival_round,
            t.admitted_round.map_or("-".to_string(), |r| r.to_string()),
            t.queue_wait_rounds,
            t.done_steps(),
            finished,
            t.sim.thermo().pe,
            deadline_note,
        );
    }
    write_profile(args, &registry)
}

/// `dpmd validate-obs <profile.json> [trace.json]`: schema-check the files
/// written by `md --profile`/`--trace` (the CI profile-smoke gate).
fn validate_obs(args: &[String]) -> bool {
    let Some(profile) = args.get(1) else {
        eprintln!("usage: dpmd validate-obs <profile.json> [trace.json]");
        return false;
    };
    let text = match std::fs::read_to_string(profile) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{profile}: {e}");
            return false;
        }
    };
    if let Err(e) = dpmd_obs::schema::validate_profile_json(&text) {
        eprintln!("{profile}: {e}");
        return false;
    }
    println!("{profile}: valid metrics snapshot");
    if let Some(trace) = args.get(2) {
        let text = match std::fs::read_to_string(trace) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{trace}: {e}");
                return false;
            }
        };
        if let Err(e) = dpmd_obs::schema::validate_trace_json(&text) {
            eprintln!("{trace}: {e}");
            return false;
        }
        println!("{trace}: valid Chrome trace");
    }
    true
}

/// `dpmd md --faults <spec>`: the fault-injection surface. Runs the
/// distributed LJ driver clean and faulted side by side and reports the
/// fault/recovery counters plus the bitwise verdict.
fn run_faulted(args: &[String], spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec).map_err(|e| format!("bad --faults spec: {e}"))?;
    let cells = parse_flag(args, "--cells", 6)?;
    let steps: u64 = parse_flag(args, "--steps", 12)?;
    let scheme = match flag_value(args, "--scheme").map(String::as_str) {
        Some("p2p") => ExchangeScheme::RankP2p,
        Some("node") | None => ExchangeScheme::NodeBased,
        Some(other) => return Err(format!("unknown --scheme '{other}' (use node | p2p)")),
    };
    println!("fault plan: {plan:?}");
    println!("scheme: {scheme:?}, {steps} steps, {cells} cells/edge\n");
    let report = run_faulted_md(cells, steps, scheme, plan);
    println!("{}", report.stats);
    println!(
        "\ntrajectory vs fault-free run: {}",
        if report.bitwise_identical {
            "BIT-IDENTICAL (recovery hid every fault)".to_string()
        } else {
            format!("DIVERGED (max drift {:.3e} A)", report.max_drift)
        }
    );
    if report.bitwise_identical {
        Ok(())
    } else {
        Err("faulted trajectory diverged from the fault-free run".into())
    }
}

/// The fixed fleet of `md batch --replicas N --steps S`, built through the
/// script parser so it meets the same bounds as a `--script`.
fn batch_script(args: &[String]) -> Result<dpmd_serve::ArrivalScript, String> {
    let replicas: usize = parse_flag(args, "--replicas", 4)?;
    let steps: u64 = parse_flag(args, "--steps", 10)?;
    dpmd_serve::ArrivalScript::parse(&format!("tenants={replicas};steps={steps};window=1"))
        .map_err(|e| format!("md batch: {e}"))
}

/// `dpmd md`: run functional MD, optionally printing the per-step
/// phase-timing breakdown the threaded force pipeline records.
fn run_md(args: &[String]) -> Result<(), String> {
    match args.get(1).map(String::as_str) {
        Some("batch") => return run_md_serve(args, &batch_script(args)?),
        Some("serve") => {
            let spec = flag_value(args, "--script").ok_or(
                "md serve requires --script SPEC (try --script \"tenants=4;steps=10;window=3\")",
            )?;
            let script = dpmd_serve::ArrivalScript::parse(spec)
                .map_err(|e| format!("bad --script spec: {e}"))?;
            return run_md_serve(args, &script);
        }
        _ => {}
    }
    if let Some(spec) = flag_value(args, "--faults") {
        return run_faulted(args, spec);
    }
    let steps: u64 = parse_flag(args, "--steps", 20)?;
    let timing = args.iter().any(|a| a == "--timing");
    let MdSetup { builder, registry, tracebuf, water } = md_setup(args, 3, "double")?;
    let mut engine = builder.build();
    let natoms = engine.simulation().atoms.nlocal;
    println!(
        "system: {} ({natoms} atoms), dt = {} fs, {steps} steps",
        if water { "water" } else { "copper" },
        engine.timestep_fs(),
    );

    if timing {
        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "step", "neigh ms", "desc ms", "embed ms", "fit ms", "integ ms", "total ms", "sum%"
        );
    }
    let mut sums = (0.0f64, 0.0f64); // (attributed, total)
    for _ in 0..steps {
        let th = engine.simulation_mut().step();
        let t = engine.timing();
        if timing {
            let attributed = t.neighbor_s + t.phases.total() + t.integrate_s;
            sums.0 += attributed;
            sums.1 += t.total_s;
            let ms = |s: f64| s * 1e3;
            println!(
                "{:>5} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>5.1}%",
                t.step,
                ms(t.neighbor_s),
                ms(t.phases.descriptor_s),
                ms(t.phases.embedding_s),
                ms(t.phases.fitting_s + t.phases.reduction_s),
                ms(t.integrate_s),
                ms(t.total_s),
                100.0 * attributed / t.total_s.max(1e-12),
            );
        } else if th.step.is_multiple_of(10) || th.step == steps {
            println!(
                "step {:>5}  pe {:>12.4}  etot {:>12.4}  T {:>8.2} K  P {:>10.2} bar",
                th.step, th.pe, th.etotal, th.temperature, th.pressure
            );
        }
    }
    if timing && sums.1 > 0.0 {
        println!(
            "phase coverage: attributed phases sum to {:.1}% of wall time",
            100.0 * sums.0 / sums.1
        );
    }
    write_profile(args, &registry)?;
    if let Some(path) = flag_value(args, "--trace") {
        std::fs::write(path, tracebuf.to_chrome_json())
            .map_err(|e| format!("--trace {path}: {e}"))?;
        println!("trace: wrote {} events to {path}", tracebuf.len());
    }
    Ok(())
}

/// The value following `flag`, parsed as `T`; `None` when the flag is
/// absent. A flag that is present with a missing or unparsable value
/// (garbage, negative or fractional where a count is expected) is an error
/// naming the flag — never a silent fall-back to the default.
fn parse_opt<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let v = args.get(i + 1).ok_or_else(|| format!("{flag}: missing value"))?;
    v.parse().map(Some).map_err(|e| format!("{flag}: invalid value '{v}': {e}"))
}

/// As [`parse_opt`], with `default` standing in for an absent flag.
fn parse_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    Ok(parse_opt(args, flag)?.unwrap_or(default))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    let (points, iters) =
        match (parse_flag(&args, "--points", 5), parse_flag(&args, "--iters", 10_000)) {
            (Ok(p), Ok(i)) => (p, i),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    match cmd.as_str() {
        "list" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        "md" => match run_md(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "validate-obs" => {
            if validate_obs(&args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "analyze" => {
            // Shared driver with the standalone `dpmd-analyze` binary.
            let code = dpmd_analyze::run_cli(&args[1..]);
            if code == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(code as u8)
            }
        }
        "all" => {
            for (name, _, run) in experiments::ALL {
                println!("\n########## {name} ##########");
                println!("{}", run(points, iters));
            }
            ExitCode::SUCCESS
        }
        other => match experiments::ALL.iter().find(|(name, ..)| *name == other) {
            Some((_, _, run)) => {
                println!("{}", run(points, iters));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{other}'\n");
                usage();
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn numeric_flags_default_when_absent_and_parse_when_valid() {
        let a = args("md batch --replicas 6 --threads 2");
        assert_eq!(parse_flag(&a, "--replicas", 4usize), Ok(6));
        assert_eq!(parse_flag(&a, "--steps", 10u64), Ok(10), "absent flag takes the default");
        assert_eq!(parse_opt::<usize>(&a, "--threads"), Ok(Some(2)));
        assert_eq!(parse_opt::<usize>(&a, "--cells"), Ok(None));
    }

    #[test]
    fn present_but_unparsable_values_are_errors_naming_the_flag() {
        for (line, flag) in [
            ("md batch --replicas lots", "--replicas"),
            ("md --steps -3", "--steps"),
            ("md --cells 2.5", "--cells"),
            ("md serve --threads x", "--threads"),
            ("md --threads", "--threads"),
        ] {
            let err = parse_opt::<usize>(&args(line), flag).unwrap_err();
            assert!(err.starts_with(flag), "'{line}': error must name the flag, got '{err}'");
            assert!(parse_flag(&args(line), flag, 7usize).is_err(), "'{line}': no silent default");
        }
        let fleet = batch_script(&args("md batch --replicas 100000 --steps 3")).unwrap();
        assert_eq!((fleet.tenants, fleet.steps, fleet.window), (100_000, 3, 1));
        let err = batch_script(&args("md batch --replicas 100001")).unwrap_err();
        assert!(err.ends_with("tenants: at most 100000"), "the fleet is bounded like a script: {err}");
        assert!(batch_script(&args("md batch --replicas 0")).is_err());
        let zero = args("md serve --in-flight 0");
        let cap = parse_flag(&zero, "--in-flight", dpmd_serve::InFlightCap::All);
        assert!(cap.unwrap_err().contains("admit nothing"), "the cap's own explanation survives");
    }
}
