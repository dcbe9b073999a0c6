//! Fig. 6 — radial distribution functions of the water system under
//! Double, MIX-fp32 and MIX-fp16 precision.
//!
//! The same trained water model drives three MD runs that differ only in
//! the inference precision; the O–O g(r) curves must overlap (the paper:
//! "the three curves overlap perfectly").

use deepmd::config::DeepPotConfig;
use deepmd::dataset::water_frames;
use deepmd::engine::DpEngine;
use deepmd::model::DeepPotModel;
use deepmd::train::{fit_energy_bias, train, TrainConfig};
use minimd::compute::Rdf;
use minimd::integrate::{init_velocities, Thermostat, VelocityVerlet};
use minimd::lattice::water_box;
use minimd::sim::Simulation;
use minimd::units::FEMTOSECOND;
use nnet::precision::Precision;

use crate::report::{f as ff, Table};

/// Effort knobs.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Config {
    /// Water molecules per box edge.
    pub cells: usize,
    /// MD steps per precision run.
    pub steps: u64,
    /// RDF sampling stride.
    pub sample_every: u64,
    /// Training frames / epochs for the model.
    pub train_frames: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config { cells: 4, steps: 400, sample_every: 20, train_frames: 4, epochs: 60, seed: 6 }
    }
}

/// One precision's sampled RDF.
#[derive(Clone, Debug)]
pub struct RdfCurve {
    /// Precision mode.
    pub precision: Precision,
    /// (r, g(r)) samples, O–O.
    pub curve: Vec<(f64, f64)>,
}

/// Train a small water model (shared across the three runs).
pub fn trained_water_model(cfg: &Fig6Config) -> DeepPotModel {
    let mut model = DeepPotModel::new(DeepPotConfig::tiny(2, 6.0));
    let frames = water_frames(cfg.train_frames, 3, 0, cfg.seed);
    fit_energy_bias(&mut model, &frames);
    train(&mut model, &frames, TrainConfig { epochs: cfg.epochs, lr: 3e-3, log_every: 0 });
    model
}

/// Run MD at one precision and sample the O–O RDF.
pub fn rdf_at(model: &DeepPotModel, precision: Precision, cfg: &Fig6Config) -> RdfCurve {
    let (bx, mut atoms) = water_box(cfg.cells, cfg.cells, cfg.cells, cfg.seed ^ 0xbeef);
    init_velocities(&mut atoms, 300.0, cfg.seed);
    let engine = DpEngine::new(model.clone(), precision).with_pool(super::host_pool());
    let mut vv = VelocityVerlet::new(0.5 * FEMTOSECOND);
    vv.thermostat = Thermostat::Berendsen { t_target: 300.0, tau_ps: 0.05 };
    let mut sim = Simulation::new(bx, atoms, Box::new(engine), vv, 1.0, 50);
    let mut rdf = Rdf::new(Some(0), Some(0), 6.0, 120);
    for step in 1..=cfg.steps {
        sim.step();
        if step % cfg.sample_every == 0 {
            rdf.sample(&sim.atoms, &sim.bx);
        }
    }
    RdfCurve { precision, curve: rdf.finish() }
}

/// The full figure: all three precisions from one trained model.
pub fn run(cfg: Fig6Config) -> Vec<RdfCurve> {
    let model = trained_water_model(&cfg);
    Precision::ALL.iter().map(|&p| rdf_at(&model, p, &cfg)).collect()
}

/// Maximum pointwise |g_a − g_b| between two curves (same binning).
pub fn max_deviation(a: &RdfCurve, b: &RdfCurve) -> f64 {
    a.curve
        .iter()
        .zip(&b.curve)
        .map(|((_, ga), (_, gb))| (ga - gb).abs())
        .fold(0.0, f64::max)
}

/// Render a compact comparison (subsampled bins).
pub fn table(curves: &[RdfCurve]) -> Table {
    let mut t = Table::new(
        "Fig. 6 — O-O RDF of water under three precisions",
        &["r (Å)", "g Double", "g MIX-fp32", "g MIX-fp16"],
    );
    let n = curves[0].curve.len();
    for k in (0..n).step_by(6) {
        t.row(vec![
            ff(curves[0].curve[k].0, 2),
            ff(curves[0].curve[k].1, 3),
            ff(curves[1].curve[k].1, 3),
            ff(curves[2].curve[k].1, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_precision_curves_overlap() {
        // Scaled-down effort: short trajectories, small box.
        let cfg = Fig6Config { cells: 3, steps: 80, sample_every: 10, train_frames: 2, epochs: 20, seed: 3 };
        let curves = run(cfg);
        assert_eq!(curves.len(), 3);
        let d32 = max_deviation(&curves[0], &curves[1]);
        let d16 = max_deviation(&curves[0], &curves[2]);
        // Chaotic MD at different rounding diverges eventually; over short
        // horizons the *structure* must coincide (paper: curves overlap).
        assert!(d32 < 0.8, "fp32 RDF deviation {d32}");
        assert!(d16 < 0.8, "fp16 RDF deviation {d16}");
        // And the curves are real RDFs: non-negative, finite.
        for c in &curves {
            assert!(c.curve.iter().all(|&(_, g)| g.is_finite() && g >= 0.0));
        }
    }
}
