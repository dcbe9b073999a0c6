//! Batched vs. sequential multi-replica throughput: 8 Cu replicas stepped
//! through one shared engine, either one replica at a time
//! (`run_sequential`) or with one force-pipeline call per round over every
//! admitted replica (`run`, and the continuous service).
//!
//! Both modes run the same pipeline (`deepmd::batch`) over the same tiles
//! and produce bit-identical trajectories (`tests/batch_determinism.rs`).
//! They differ only in whether tiles of different replicas share a
//! `pool.scope`: a 32-atom replica is four tiles, so a round of eight fills
//! a pool that one replica alone cannot, and opens one embedding and one
//! fitting scope per round instead of per replica. Nothing is stacked
//! across replicas, so there is no cross-replica GEMM margin to gate; what
//! this bench guards is that serving a round together never costs
//! throughput, and that absolute served throughput does not fall.
//!
//! Measurement is interleaved best-of-N because CI hosts are noisy: each
//! rep rebuilds both schedulers from identical [`EngineParts`] and times a
//! full sequential pass against a full batched pass back to back.
//!
//! Emits `BENCH_batch.json` at the repo root. Every row carries two bars,
//! both checked in CI against the committed record: `speedup ≥ 0.95` (a
//! no-regression floor, not a claimed margin) and `batched_steps_per_s` not
//! below the last record committed before the pipelines were merged.

use std::time::Instant;

use deepmd::config::DeepPotConfig;
use dpmd_core::prelude::{DeepPotModel, Precision};
use dpmd_core::Engine;
use dpmd_serve::{ArrivalScript, BatchScheduler, ContinuousScheduler, InFlightCap};
use serde::Value;

fn num<T: std::fmt::Display>(v: T) -> Value {
    Value::Number(v.to_string())
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

const REPLICAS: usize = 8;
const REPS: usize = 9;

struct Config {
    name: &'static str,
    model: DeepPotConfig,
    cells: usize,
    steps: u64,
    /// `Some(script)`: measure the continuous-batching service driving this
    /// deterministic arrival schedule instead of the fixed-fleet scheduler.
    /// The sequential baseline is identical either way (same seeds, same
    /// steps), so speedups are comparable across rows.
    script: Option<&'static str>,
}

fn parts(cfg: &Config) -> dpmd_core::EngineParts {
    Engine::builder()
        .seed(2024)
        .copper_cells(cfg.cells)
        .precision(Precision::Mix32)
        .with_model(DeepPotModel::new(cfg.model.clone()))
        .build_parts()
}

fn main() {
    let configs = [
        // Serving-sized Cu model.
        Config {
            name: "cu_serving",
            model: DeepPotConfig::tiny(1, 6.0),
            cells: 2,
            steps: 30,
            script: None,
        },
        // Production-sized fitting net (240^3).
        Config {
            name: "cu_production",
            model: DeepPotConfig::copper(),
            cells: 2,
            steps: 5,
            script: None,
        },
        // The production model under the continuous-batching service:
        // tenants arrive staggered over the first rounds and the admission
        // queue keeps the fused batch full until the tail drains.
        Config {
            name: "cu_production_continuous",
            model: DeepPotConfig::copper(),
            cells: 2,
            steps: 10,
            script: Some("seed=2024;tenants=8;steps=10;window=2"),
        },
    ];

    let mut entries = Vec::new();
    for cfg in &configs {
        let (mut best_seq, mut best_bat) = (f64::MAX, f64::MAX);
        let mut natoms = 0;
        for _ in 0..REPS {
            match cfg.script {
                // Fixed-fleet rows: scheduler construction (which includes
                // each replica's solo initial force evaluation) happens
                // outside the timed region on both sides — this measures
                // pure stepping throughput.
                None => {
                    let mut seq = BatchScheduler::new(parts(cfg), REPLICAS, cfg.steps);
                    let t0 = Instant::now();
                    seq.run_sequential();
                    best_seq = best_seq.min(t0.elapsed().as_secs_f64());

                    let mut bat = BatchScheduler::new(parts(cfg), REPLICAS, cfg.steps);
                    let t0 = Instant::now();
                    bat.run();
                    best_bat = best_bat.min(t0.elapsed().as_secs_f64());
                    natoms = bat.replicas().iter().map(|r| r.sim.atoms.nlocal).sum();
                }
                // Continuous row: full service turnaround — trajectory
                // construction and initialization included on BOTH sides,
                // because that is the work a long-running service actually
                // does per tenant. The baseline pays one initial force
                // evaluation per tenant; the service evaluates a round's
                // newcomers in one call too.
                Some(spec) => {
                    let script = ArrivalScript::parse(spec).unwrap();
                    assert_eq!(script.tenants, REPLICAS, "script fleet must match baseline");
                    assert_eq!(script.steps, cfg.steps, "script steps must match baseline");

                    let p = parts(cfg);
                    let t0 = Instant::now();
                    let mut seq = BatchScheduler::new(p, REPLICAS, cfg.steps);
                    seq.run_sequential();
                    best_seq = best_seq.min(t0.elapsed().as_secs_f64());

                    let p = parts(cfg);
                    let t0 = Instant::now();
                    let mut served = ContinuousScheduler::new(p, InFlightCap::All, usize::MAX);
                    let outcome = served.run_script(&script);
                    best_bat = best_bat.min(t0.elapsed().as_secs_f64());
                    assert!(outcome.rejected.is_empty());
                    natoms = served.tenants().iter().map(|t| t.sim.atoms.nlocal).sum();
                }
            }
        }
        let steps_total = REPLICAS as f64 * cfg.steps as f64;
        let speedup = best_seq / best_bat;
        println!(
            "{:>14}: {REPLICAS} replicas x {} steps ({natoms} atoms) \
             sequential {best_seq:.3}s batched {best_bat:.3}s speedup {speedup:.2}x",
            cfg.name, cfg.steps,
        );
        entries.push(obj(vec![
            ("name", s(cfg.name)),
            ("replicas", num(REPLICAS)),
            ("steps_per_replica", num(cfg.steps)),
            ("atoms_total", num(natoms)),
            ("sequential_s", num(best_seq)),
            ("batched_s", num(best_bat)),
            ("sequential_steps_per_s", num(steps_total / best_seq)),
            ("batched_steps_per_s", num(steps_total / best_bat)),
            ("speedup", num(speedup)),
        ]));
    }

    let doc = obj(vec![
        ("bench", s("batch_replicas")),
        ("mode", s("interleaved-best-of-reps")),
        ("reps", num(REPS)),
        (
            "acceptance",
            Value::Array(
                // Throughput floors: the `batched_steps_per_s` of the last
                // record committed with two pipelines (this host class).
                [("cu_serving", 3035.9), ("cu_production", 771.9), ("cu_production_continuous", 830.8)]
                    .into_iter()
                    .map(|(name, floor)| {
                        obj(vec![
                            ("config", s(name)),
                            ("min_speedup", num(0.95)),
                            ("min_batched_steps_per_s", num(floor)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("configs", Value::Array(entries)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(out, serde_json::to_string(&doc).unwrap()).unwrap();
    println!("wrote {out}");
}
