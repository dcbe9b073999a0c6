//! The functional engine: train or load a Deep Potential model and run MD
//! with it at any precision, through a builder API.

use std::sync::Arc;

use deepmd::config::DeepPotConfig;
use deepmd::dataset;
use deepmd::engine::DpEngine;
use deepmd::model::DeepPotModel;
use deepmd::train::{fit_energy_bias, train, TrainConfig};
use dpmd_obs::{MetricsRegistry, TraceBuffer};
use dpmd_threads::ThreadPool;
use minimd::integrate::{init_velocities, Thermostat, VelocityVerlet};
use minimd::sim::{Simulation, StepTiming, Thermo};
use minimd::units::FEMTOSECOND;
use nnet::precision::Precision;

/// Neighbour-list skin of every simulation built from [`EngineParts`], Å
/// (the paper's setting).
pub const SKIN_A: f64 = 2.0;
/// Neighbour-list rebuild cadence of those simulations, steps (the paper's
/// setting).
pub const REBUILD_EVERY: u64 = 50;

/// Which physical system the engine sets up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// FCC copper, `cells³` conventional cells.
    Copper {
        /// Cells per edge.
        cells: usize,
    },
    /// Water, `cells³` molecules on a liquid-density lattice.
    Water {
        /// Molecules per edge.
        cells: usize,
    },
}

/// Builder for [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    system: SystemKind,
    precision: Precision,
    temperature: f64,
    timestep_fs: f64,
    seed: u64,
    train_frames: usize,
    train_epochs: usize,
    thermostat: bool,
    compression: Option<usize>,
    model: Option<DeepPotModel>,
    threads: Option<usize>,
    obs: Option<(MetricsRegistry, TraceBuffer)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            system: SystemKind::Copper { cells: 3 },
            precision: Precision::Double,
            temperature: 300.0,
            timestep_fs: 1.0,
            seed: 42,
            train_frames: 3,
            train_epochs: 40,
            thermostat: true,
            compression: None,
            model: None,
            threads: None,
            obs: None,
        }
    }
}

impl EngineBuilder {
    /// Copper system with `cells³` FCC cells.
    pub fn copper_cells(mut self, cells: usize) -> Self {
        self.system = SystemKind::Copper { cells };
        self.timestep_fs = 1.0;
        self
    }

    /// Water system with `cells³` molecules.
    pub fn water_cells(mut self, cells: usize) -> Self {
        self.system = SystemKind::Water { cells };
        self.timestep_fs = 0.5;
        self
    }

    /// Inference precision (Double / MIX-fp32 / MIX-fp16).
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Initial (and thermostat target) temperature, K.
    pub fn temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Time-step, fs.
    pub fn timestep_fs(mut self, dt: f64) -> Self {
        self.timestep_fs = dt;
        self
    }

    /// RNG seed for the whole pipeline.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Training effort for the bundled model (frames, epochs). Zero epochs
    /// skips training (bias-only model).
    pub fn training(mut self, frames: usize, epochs: usize) -> Self {
        self.train_frames = frames;
        self.train_epochs = epochs;
        self
    }

    /// Run NVE instead of the default Berendsen-thermostatted NVT.
    pub fn nve(mut self) -> Self {
        self.thermostat = false;
        self
    }

    /// Use a pre-trained model instead of training one here.
    pub fn with_model(mut self, model: DeepPotModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Enable DP-Compress: tabulate the embedding nets with `intervals`
    /// pieces (the deployment configuration of the baseline work [33]).
    pub fn compressed(mut self, intervals: usize) -> Self {
        self.compression = Some(intervals);
        self
    }

    /// Run force evaluations on a pool of `n` threads; without this call the
    /// pool is as wide as the host (`available_parallelism`). Results are
    /// bit-identical for any `n` (chunk-ordered reduction); only wall time
    /// changes.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Record metrics into `registry` and per-step span trees into `trace`
    /// (the `md --profile/--trace` path). Without this call nothing in the
    /// engine records: every site tests an `Option` that stays `None`.
    pub fn observe(mut self, registry: MetricsRegistry, trace: TraceBuffer) -> Self {
        self.obs = Some((registry, trace));
        self
    }

    /// Train (if needed) and assemble the engine.
    pub fn build(self) -> Engine {
        Engine::assemble(self.build_parts())
    }

    /// Train (if needed) and return the resolved pieces without assembling a
    /// simulation — the serving scheduler (`dpmd-serve`) uses this to stamp
    /// out many tenants over one trained model, varying only the seed.
    pub fn build_parts(self) -> EngineParts {
        let model: DeepPotModel = match self.model.clone() {
            Some(m) => m,
            None => {
                let (cfg, frames) = match self.system {
                    SystemKind::Copper { .. } => (
                        DeepPotConfig::tiny(1, 6.0),
                        dataset::copper_frames(self.train_frames.max(1), 2, 0.08, self.seed),
                    ),
                    SystemKind::Water { .. } => (
                        DeepPotConfig::tiny(2, 6.0),
                        dataset::water_frames(self.train_frames.max(1), 3, 0, self.seed),
                    ),
                };
                let mut model = DeepPotModel::new(cfg);
                fit_energy_bias(&mut model, &frames);
                if self.train_epochs > 0 {
                    train(
                        &mut model,
                        &frames,
                        TrainConfig { epochs: self.train_epochs, lr: 3e-3, log_every: 0 },
                    );
                }
                model
            }
        };
        let mut model = model;
        if let Some(intervals) = self.compression {
            model.enable_compression(intervals);
        }
        EngineParts {
            model,
            system: self.system,
            precision: self.precision,
            temperature: self.temperature,
            timestep_fs: self.timestep_fs,
            seed: self.seed,
            thermostat: self.thermostat,
            threads: self.threads,
            obs: self.obs,
        }
    }
}

/// The resolved output of [`EngineBuilder::build_parts`]: a trained (or
/// supplied) model plus every setting needed to assemble simulations over
/// it. [`Engine::assemble`] consumes one; `dpmd-serve` keeps one and builds
/// every tenant's simulation from it, varying [`seed`](Self::seed) per
/// tenant. Both take the force engine from [`dp_engine`](Self::dp_engine)
/// and the neighbour-list settings from [`SKIN_A`] / [`REBUILD_EVERY`].
pub struct EngineParts {
    /// The trained/supplied model (compression already applied).
    pub model: DeepPotModel,
    /// Which physical system replicas simulate.
    pub system: SystemKind,
    /// Inference precision.
    pub precision: Precision,
    /// Initial (and thermostat target) temperature, K.
    pub temperature: f64,
    /// Time-step, fs.
    pub timestep_fs: f64,
    /// Lattice/velocity seed.
    pub seed: u64,
    /// Berendsen NVT when true, NVE when false.
    pub thermostat: bool,
    /// Pool width, if requested (host width otherwise).
    pub threads: Option<usize>,
    /// Metric/trace sinks, if observing.
    pub obs: Option<(MetricsRegistry, TraceBuffer)>,
}

impl EngineParts {
    /// Build the system's initial state (box, atoms, velocities) from the
    /// current [`seed`](Self::seed).
    pub fn initial_state(&self) -> (minimd::simbox::SimBox, minimd::atoms::Atoms) {
        let (bx, mut atoms) = match self.system {
            SystemKind::Copper { cells } => minimd::lattice::fcc_copper(cells, cells, cells),
            SystemKind::Water { cells } => minimd::lattice::water_box(cells, cells, cells, self.seed),
        };
        init_velocities(&mut atoms, self.temperature, self.seed);
        (bx, atoms)
    }

    /// The force engine these settings call for: the model at
    /// [`precision`](Self::precision), on its own pool of
    /// [`threads`](Self::threads) threads (every core of the host when
    /// unset), with its eval/GEMM counters registered when observing
    /// (before any force evaluation, so they cover the whole run).
    pub fn dp_engine(&self) -> DpEngine {
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut dp = DpEngine::new(self.model.clone(), self.precision)
            .with_pool(Arc::new(ThreadPool::new(threads)));
        if let Some((reg, _)) = &self.obs {
            dp.attach_obs(reg);
        }
        dp
    }

    /// The integrator (time-step + thermostat) these settings call for.
    pub fn integrator(&self) -> VelocityVerlet {
        let mut vv = VelocityVerlet::new(self.timestep_fs * FEMTOSECOND);
        if self.thermostat {
            vv.thermostat = Thermostat::Berendsen { t_target: self.temperature, tau_ps: 0.05 };
        }
        vv
    }
}

/// A ready-to-run MD engine over a Deep Potential model.
pub struct Engine {
    sim: Simulation,
    timestep_fs: f64,
    precision: Precision,
    obs: Option<(MetricsRegistry, TraceBuffer)>,
}

impl Engine {
    /// Start building.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    fn assemble(parts: EngineParts) -> Engine {
        let (bx, atoms) = parts.initial_state();
        let vv = parts.integrator();
        let dp = parts.dp_engine();
        let mut sim = Simulation::new(bx, atoms, Box::new(dp), vv, SKIN_A, REBUILD_EVERY);
        if let Some((reg, trace)) = &parts.obs {
            sim.attach_obs(reg, trace);
        }
        Engine {
            sim,
            timestep_fs: parts.timestep_fs,
            precision: parts.precision,
            obs: parts.obs,
        }
    }

    /// Advance `n` steps, returning the thermodynamic trace.
    pub fn simulate(mut self, n: u64) -> Vec<Thermo> {
        self.sim.run(n)
    }

    /// Advance `n` steps in place (keeps the engine usable).
    pub fn run(&mut self, n: u64) -> Vec<Thermo> {
        self.sim.run(n)
    }

    /// The underlying simulation (atoms, box, neighbour list).
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Simulation, mutable (custom observables).
    pub fn simulation_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Wall-clock breakdown of the last completed step (zeros before the
    /// first step).
    pub fn timing(&self) -> StepTiming {
        self.sim.timing()
    }

    /// The metrics registry attached via [`EngineBuilder::observe`], if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.obs.as_ref().map(|(r, _)| r)
    }

    /// The trace buffer attached via [`EngineBuilder::observe`], if any.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.obs.as_ref().map(|(_, t)| t)
    }

    /// The engine's precision mode.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Time-step in femtoseconds.
    pub fn timestep_fs(&self) -> f64 {
        self.timestep_fs
    }
}

/// Verdict of a faulted-vs-clean distributed MD comparison
/// ([`run_faulted_md`]).
#[derive(Clone, Debug)]
pub struct FaultedMdReport {
    /// Steps run.
    pub steps: u64,
    /// Exchange scheme of the faulted run.
    pub scheme: dpmd_comm::functional::ExchangeScheme,
    /// Fault/recovery counters accumulated by the faulted run.
    pub stats: dpmd_comm::fault::FaultStats,
    /// Whether the faulted trajectory matched the clean one bit for bit
    /// (positions and velocities of every atom).
    pub bitwise_identical: bool,
    /// Largest position deviation between the runs, Å (0 when bitwise).
    pub max_drift: f64,
}

/// Run the distributed LJ-copper driver twice — clean and under `plan` with
/// recovery enabled — and compare the trajectories. This is the engine-level
/// surface of the fault layer (and what `dpmd md --faults <spec>` prints):
/// with recovery, injected drops/duplicates/reorders/delays and stalled
/// leaders must leave the trajectory bit-identical.
///
/// `cells` is the FCC cells per box edge (clamped to ≥ 6 so the 2×2×2-node
/// decomposition's rank boxes stay wider than the ghost halo).
pub fn run_faulted_md(
    cells: usize,
    steps: u64,
    scheme: dpmd_comm::functional::ExchangeScheme,
    plan: dpmd_comm::fault::FaultPlan,
) -> FaultedMdReport {
    use dpmd_comm::driver::DistributedSim;
    use minimd::domain::Decomposition;
    use minimd::lattice::fcc_lattice;
    use minimd::potential::lj::LennardJones;

    let cells = cells.max(6);
    let (bx, mut global) = fcc_lattice(cells, cells, cells, 4.4);
    init_velocities(&mut global, 60.0, 5);
    let lj = LennardJones::new(0.0104, 3.4, 5.0);
    let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);

    let mut clean = DistributedSim::new(
        Decomposition::new(bx, [2, 2, 2]),
        &global,
        &lj,
        vv.clone(),
        scheme,
        10,
    );
    let mut faulted =
        DistributedSim::new(Decomposition::new(bx, [2, 2, 2]), &global, &lj, vv, scheme, 10);
    faulted.inject_faults(plan);

    for _ in 0..steps {
        clean.stride();
        faulted.stride();
    }
    let (gc, gf) = (clean.gather(), faulted.gather());
    let mut bitwise = gc.id == gf.id && gc.nlocal == gf.nlocal;
    let mut max_drift = 0.0f64;
    for i in 0..gc.nlocal.min(gf.nlocal) {
        for d in 0..3 {
            if gc.pos[i][d].to_bits() != gf.pos[i][d].to_bits()
                || gc.vel[i][d].to_bits() != gf.vel[i][d].to_bits()
            {
                bitwise = false;
            }
        }
        max_drift = max_drift.max((gc.pos[i] - gf.pos[i]).norm());
    }
    FaultedMdReport {
        steps,
        scheme,
        stats: *faulted.fault_stats().expect("faults were injected"),
        bitwise_identical: bitwise,
        max_drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copper_engine_builds_and_steps() {
        let mut engine = Engine::builder().copper_cells(2).training(2, 10).seed(1).build();
        let trace = engine.run(5);
        assert_eq!(trace.len(), 5);
        assert!(trace.iter().all(|t| t.etotal.is_finite()));
        assert_eq!(engine.precision(), Precision::Double);
    }

    #[test]
    fn water_engine_with_fp16_precision() {
        let mut engine = Engine::builder()
            .water_cells(2)
            .precision(Precision::Mix16)
            .training(1, 5)
            .seed(2)
            .build();
        let trace = engine.run(3);
        assert!(trace.last().unwrap().temperature.is_finite());
        assert_eq!(engine.precision(), Precision::Mix16);
        assert_eq!(engine.timestep_fs(), 0.5);
    }

    #[test]
    fn prebuilt_model_is_reused() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 6.0));
        let engine = Engine::builder().copper_cells(2).with_model(model.clone()).build();
        // No training happened; the engine runs with the given weights.
        let trace = engine.simulate(2);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn compressed_engine_tracks_the_exact_one() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 6.0));
        let exact = Engine::builder().copper_cells(2).with_model(model.clone()).nve().seed(8).build();
        let tabulated = Engine::builder()
            .copper_cells(2)
            .with_model(model)
            .compressed(256)
            .nve()
            .seed(8)
            .build();
        let te = exact.simulate(5);
        let tt = tabulated.simulate(5);
        for (a, b) in te.iter().zip(&tt) {
            assert!((a.pe - b.pe).abs() < 1e-4, "step {}: {} vs {}", a.step, a.pe, b.pe);
        }
    }

    #[test]
    fn explicit_thread_count_matches_global_pool_bitwise() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 6.0));
        let mut one =
            Engine::builder().copper_cells(2).with_model(model.clone()).nve().seed(5).threads(1).build();
        let mut four =
            Engine::builder().copper_cells(2).with_model(model).nve().seed(5).threads(4).build();
        let ta = one.run(10);
        let tb = four.run(10);
        for (a, b) in ta.iter().zip(&tb) {
            assert_eq!(a.pe, b.pe, "step {}", a.step);
            assert_eq!(a.ke, b.ke, "step {}", a.step);
            assert_eq!(a.pressure, b.pressure, "step {}", a.step);
        }
    }

    #[test]
    fn step_timing_reports_deep_potential_phases() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 6.0));
        let mut engine =
            Engine::builder().copper_cells(3).with_model(model).nve().threads(2).build();
        engine.run(3);
        let t = engine.timing();
        assert!(t.total_s > 0.0);
        let dp = t.phases.total();
        assert!(dp > 0.0, "DP engine must report descriptor/embedding/fitting phases");
        // The three DP phases ARE the force evaluation, minus only the
        // zero-fill and buffer plumbing around it.
        assert!(dp <= t.force_s * 1.01, "phases {dp} vs force {}", t.force_s);
        assert!(dp >= 0.5 * t.force_s, "phases {dp} vs force {}", t.force_s);
        assert!(t.phase_sum_s() <= t.total_s * 1.01);
    }

    #[test]
    fn faulted_md_report_confirms_bitwise_recovery() {
        let report = run_faulted_md(
            6,
            6,
            dpmd_comm::functional::ExchangeScheme::NodeBased,
            dpmd_comm::fault::FaultPlan::chaos(17),
        );
        assert!(report.stats.faults_injected() > 0, "chaos plan must inject faults");
        assert!(
            report.bitwise_identical,
            "recovery must hide faults bit-for-bit (drift {})",
            report.max_drift
        );
        assert_eq!(report.max_drift, 0.0);
    }

    #[test]
    fn nve_mode_conserves_energy_reasonably() {
        let mut engine =
            Engine::builder().copper_cells(2).training(2, 20).temperature(80.0).nve().seed(3).build();
        let trace = engine.run(50);
        let e0 = trace.first().unwrap().etotal;
        let e1 = trace.last().unwrap().etotal;
        let natoms = engine.simulation().atoms.nlocal as f64;
        assert!(((e1 - e0) / natoms).abs() < 5e-3, "drift {}", ((e1 - e0) / natoms).abs());
    }
}
