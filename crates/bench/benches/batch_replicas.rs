//! Fused vs. one-at-a-time service throughput: 8 Cu tenants through one
//! `ContinuousScheduler`, the same arrival script served twice — at
//! `InFlightCap::All` (every admitted tenant shares each round's one
//! force-pipeline call) and at `InFlightCap::AtMost(1)` (one trajectory at a
//! time, each round a single-job call). One scheduler, one code path; the
//! cap is the only difference.
//!
//! Both runs produce bit-identical trajectories
//! (`tests/serve_continuous.rs`). They differ only in whether tiles of
//! different tenants share a `pool.scope`: a 32-atom tenant is four tiles,
//! so a round of eight fills a pool that one tenant alone cannot, and opens
//! one embedding and one fitting scope per round instead of per tenant.
//! Nothing is stacked across tenants, so there is no cross-tenant GEMM
//! margin to gate; what this bench guards is that serving a round together
//! never costs throughput, and that absolute served throughput does not
//! fall.
//!
//! Every row times full service turnaround — scheduler construction,
//! attach (lattice, velocities, neighbour list) and the fused initial force
//! evaluation included on both sides — because that is the work a service
//! does per tenant. Measurement is interleaved best-of-N because CI hosts
//! are noisy: each rep serves the script at cap 1 and at cap all back to
//! back from identical [`EngineParts`](dpmd_core::EngineParts).
//!
//! Emits `BENCH_batch.json` at the repo root (`sequential_*` = cap 1,
//! `batched_*` = cap all). Every row carries two bars, both checked in CI
//! against the committed record: `speedup ≥ 0.95` (a no-regression floor,
//! not a claimed margin) and `batched_steps_per_s` not below the last
//! record committed before the force pipelines were merged.

use std::num::NonZeroUsize;
use std::time::Instant;

use deepmd::config::DeepPotConfig;
use dpmd_core::prelude::{DeepPotModel, Precision};
use dpmd_core::Engine;
use dpmd_serve::{ArrivalScript, ContinuousScheduler, InFlightCap};
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
    /// The arrival schedule served (fleet size and steps per tenant are
    /// its `tenants` and `steps`).
    script: ArrivalScript,
}

/// Serve `cfg.script` to completion at `cap`; returns the wall time of the
/// whole service turnaround and the atoms served.
fn serve(cfg: &Config, cap: InFlightCap) -> (f64, usize) {
    let p = parts(cfg);
    let t0 = Instant::now();
    let mut served = ContinuousScheduler::new(p, cap, cfg.script.queue_capacity);
    let outcome = served.run_script(&cfg.script);
    let wall = t0.elapsed().as_secs_f64();
    assert!(outcome.rejected.is_empty());
    (wall, served.tenants().iter().map(|t| t.sim.atoms.nlocal).sum())
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
            script: ArrivalScript::fixed(REPLICAS, 30),
        },
        // Production-sized fitting net (240^3).
        Config {
            name: "cu_production",
            model: DeepPotConfig::copper(),
            cells: 2,
            script: ArrivalScript::fixed(REPLICAS, 5),
        },
        // The production model with tenants arriving staggered over the
        // first rounds: the admission queue keeps the fused batch full
        // until the tail drains.
        Config {
            name: "cu_production_continuous",
            model: DeepPotConfig::copper(),
            cells: 2,
            script: ArrivalScript::parse("seed=2024;tenants=8;steps=10;window=2").unwrap(),
        },
    ];

    let mut entries = Vec::new();
    for cfg in &configs {
        let (mut best_seq, mut best_bat) = (f64::MAX, f64::MAX);
        let mut natoms = 0;
        for _ in 0..REPS {
            best_seq = best_seq.min(serve(cfg, InFlightCap::AtMost(NonZeroUsize::MIN)).0);
            let (wall, atoms) = serve(cfg, InFlightCap::All);
            best_bat = best_bat.min(wall);
            natoms = atoms;
        }
        let (fleet, steps) = (cfg.script.tenants, cfg.script.steps);
        let steps_total = fleet as f64 * steps as f64;
        let speedup = best_seq / best_bat;
        println!(
            "{:>14}: {fleet} replicas x {steps} steps ({natoms} atoms) \
             sequential {best_seq:.3}s batched {best_bat:.3}s speedup {speedup:.2}x",
            cfg.name,
        );
        entries.push(obj(vec![
            ("name", s(cfg.name)),
            ("replicas", num(fleet)),
            ("steps_per_replica", num(steps)),
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
                // record committed with two force pipelines (this host class).
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
