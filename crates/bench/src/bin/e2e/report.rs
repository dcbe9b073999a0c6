//! The metric catalogue (the single source `BENCHMARK.json` mirrors), the
//! result line the benchmark contract asks for, and the `--repeat` noise
//! self-check.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may get worse before a change is a regression.
    pub bound: Option<f64>,
    /// ‡ — a count that must repeat exactly for a fixed seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: false }
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit: "count", better, bound: None, exact: true }
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported by every workload's untraced run.
/// Three times the run-to-run spread seen on the builder's noisy 2-vCPU host
/// (see README "Noise self-check") exceeds the contract's cap for some
/// workload on every metric, so every bound is that cap, 25 %.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("us_per_step_atom", "us", Lower, 0.25),
    e2e("ns_per_day", "ns/day", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer metrics, reported by every workload's traced run. The
/// `bench.*` and `serve.*` window metrics describe the workload that ran;
/// everything else is a probe on a canonical snapshot (see `probes.rs`).
pub const PER_LAYER: [MetricDef; 55] = [
    layer("minimd.neighbor.build_us_per_atom", "us", Lower),
    count("minimd.neighbor.pairs_per_atom", Lower),
    layer("minimd.potential.lj_us_per_atom", "us", Lower),
    layer("minimd.integrate.us_per_atom", "us", Lower),
    layer("minimd.migrate.exchange_atoms_ms", "ms", Lower),
    layer("minimd.sim.unattributed_share", "share", Lower),
    layer("deepmd.descriptor.us_per_atom", "us", Lower),
    layer("deepmd.engine.us_per_atom", "us", Lower),
    layer("deepmd.engine.descriptor_share", "share", Lower),
    layer("deepmd.engine.embedding_share", "share", Lower),
    layer("deepmd.engine.fitting_share", "share", Lower),
    layer("deepmd.engine.reduction_share", "share", Lower),
    layer("deepmd.engine.force_relerr_vs_f64", "ratio", Lower),
    layer("deepmd.engine.mix16_us_per_atom", "us", Lower),
    layer("deepmd.engine.mix16_fitting_share", "share", Lower),
    layer("deepmd.engine.mix16_force_relerr_vs_f64", "ratio", Lower),
    layer("deepmd.batch.r1_us_per_atom", "us", Lower),
    layer("deepmd.batch.r8_us_per_atom", "us", Lower),
    count("deepmd.batch.rows_per_gemm", Higher),
    layer("deepmd.model.f64_us_per_atom", "us", Lower),
    layer("nnet.gemm.fit_m1_gflops", "GF/s", Higher),
    layer("nnet.gemm.fit_stacked_gflops", "GF/s", Higher),
    layer("nnet.gemm.fit_stacked_tiny_gflops", "GF/s", Higher),
    layer("nnet.gemm.embed_gflops", "GF/s", Higher),
    layer("nnet.gemm.f16_first_layer_gflops", "GF/s", Higher),
    count("nnet.gemm.flops_per_step_atom", Lower),
    layer("nnet.activation.tanh_ns_per_elem", "ns", Lower),
    layer("threads.solo_speedup_2t", "ratio", Higher),
    layer("threads.batch_speedup_2t", "ratio", Higher),
    layer("threads.scope_overhead_us", "us", Lower),
    layer("comm.exchange_ms", "ms", Lower),
    layer("comm.exchange_p2p_ms", "ms", Lower),
    layer("comm.reverse_ms", "ms", Lower),
    count("comm.messages_per_step", Lower),
    count("comm.p2p_messages_per_step", Lower),
    count("comm.entries_per_step", Lower),
    count("comm.bytes_per_step", Lower),
    count("comm.ghosts_per_local", Lower),
    layer("comm.share_of_step", "share", Lower),
    layer("serve.attach_ms", "ms", Lower),
    layer("serve.sched_overhead_share", "share", Lower),
    count("serve.occupancy_mean", Higher),
    count("serve.queue_wait_rounds_p50", Lower),
    count("serve.queue_wait_rounds_p90", Lower),
    count("serve.turnaround_rounds_p50", Lower),
    count("serve.turnaround_rounds_p90", Lower),
    count("serve.rounds", Lower),
    count("serve.rejected", Lower),
    layer("core.build_parts_ms", "ms", Lower),
    layer("core.assemble_ms", "ms", Lower),
    layer("bench.step_ms_p50", "ms", Lower),
    layer("bench.step_ms_p90", "ms", Lower),
    layer("bench.step_drift", "ratio", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.window_unattributed_share", "share", Lower),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The one-line result the benchmark contract asks for as the last line of
/// standard output. Values print with every digit (`{}` on an `f64` is the
/// shortest text that round-trips).
pub fn contract_line(attempted: u64, failed: u64, metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue")).unit;
            assert!(value.is_finite(), "metric {name} must be finite to print as JSON");
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_string(name), json_string(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// A child run's result line, parsed back.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_contract_line(line: &str) -> Result<RunResult, String> {
    let v = serde_json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let num = |key: &str| match v.get(key) {
        Some(Value::Number(n)) => n.parse::<u64>().map_err(|_| format!("{key}: not a count")),
        _ => Err(format!("{key}: missing")),
    };
    let correct = match v.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("correct: missing".into()),
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in v.get("metrics").and_then(Value::as_object).ok_or("metrics: missing")? {
        match m.get("value") {
            Some(Value::Number(n)) => {
                let x = n.parse::<f64>().map_err(|_| format!("{name}: value is not a number"))?;
                metrics.insert(name.clone(), x);
            }
            _ => return Err(format!("{name}: value missing")),
        }
    }
    Ok(RunResult { correct, attempted: num("attempted")?, failed: num("failed")?, metrics })
}

/// One full set of results: workload name to its run.
pub type ResultSet = BTreeMap<String, RunResult>;

/// The noise self-check over `sets` of the same code and seed: per
/// end-to-end metric x workload, each set's value, the spread, and PASS/FAIL
/// against the metric's own bound; ‡ counts must be identical. Returns the
/// printable lines and whether everything passed.
pub fn repeat_check(sets: &[ResultSet]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut all_ok = true;
    let Some(first) = sets.first() else { return (lines, true) };
    for (workload, run) in first {
        for name in run.metrics.keys() {
            let Some(d) = def(name) else { continue };
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(workload).and_then(|r| r.metrics.get(name)).copied())
                .collect();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            let verdict = if values.len() != sets.len() {
                Some((false, "missing from a set".to_string()))
            } else if d.exact {
                let same = values.iter().all(|v| v.to_bits() == values[0].to_bits());
                Some((same, "must be identical".to_string()))
            } else {
                d.bound.map(|bound| {
                    let s = stats::spread(&values);
                    (s <= bound, format!("spread {:.2} % of bound {:.0} %", s * 100.0, bound * 100.0))
                })
            };
            if let Some((ok, why)) = verdict {
                all_ok &= ok;
                lines.push(format!(
                    "{} {workload:<10} {name:<34} [{}] {why}",
                    if ok { "PASS" } else { "FAIL" },
                    shown.join(", ")
                ));
            }
        }
    }
    (lines, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.unit);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// catalogue: the driver validates runs against the file, the harness
    /// prints from the catalogue.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let v = serde_json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| match v.get(key) {
            Some(Value::Array(a)) => a.clone(),
            _ => panic!("{key} must be an array"),
        };
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        };
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(j, "better"), d.better.as_str(), "{}", d.name);
                let bound = match j.get("bound") {
                    Some(Value::Number(n)) => Some(n.parse::<f64>().unwrap()),
                    _ => None,
                };
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
        let listed = list("workloads");
        assert_eq!(listed.len(), Workload::ALL.len());
        for (j, w) in listed.iter().zip(Workload::ALL) {
            assert_eq!((text(j, "name").as_str(), text(j, "why").as_str()), (w.name(), w.why()));
        }
        assert_eq!(list("paths"), [Value::String("crates/bench/src/bin/e2e".into())]);
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let line = contract_line(1234, 0, &[("us_per_step_atom", 98.765432101234), ("setup_s", 0.1)]);
        let r = parse_contract_line(&line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1234, 0));
        assert_eq!(r.metrics["us_per_step_atom"].to_bits(), 98.765432101234f64.to_bits());
        assert_eq!(r.metrics["setup_s"], 0.1);
        let failed = parse_contract_line(&contract_line(10, 2, &[("setup_s", 1.0)])).unwrap();
        assert!(!failed.correct);
        assert!(parse_contract_line("{\"correct\": true}").is_err());
        assert!(parse_contract_line("not json").is_err());
    }

    fn set(us: f64, rounds: f64) -> ResultSet {
        let metrics = BTreeMap::from([
            ("us_per_step_atom".to_string(), us),
            ("serve.rounds".to_string(), rounds),
        ]);
        BTreeMap::from([(
            "cu_served".to_string(),
            RunResult { correct: true, attempted: 1, failed: 0, metrics },
        )])
    }

    #[test]
    fn repeat_check_applies_each_metrics_own_rule() {
        let (lines, ok) = repeat_check(&[set(100.0, 205.0), set(104.0, 205.0)]);
        assert!(ok, "{lines:?}");
        assert_eq!(lines.len(), 2);
        // 35 % apart breaks the 25 % bound; a count off by one breaks ‡.
        assert!(!repeat_check(&[set(100.0, 205.0), set(142.0, 205.0)]).1);
        let (lines, ok) = repeat_check(&[set(100.0, 205.0), set(100.0, 206.0)]);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("FAIL") && l.contains("serve.rounds")));
    }
}
