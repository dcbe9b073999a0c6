//! Table II — energy and force error of a single step under Double /
//! MIX-fp32 / MIX-fp16 precision, against the reference labels.
//!
//! A Deep Potential model is trained on Sutton–Chen-labelled copper frames
//! (the AIMD stand-in per DESIGN.md), then evaluated at the three precision
//! paths. The paper's observation to reproduce: the error is dominated by
//! the model itself (Double ≡ MIX-fp32 at display precision), with MIX-fp16
//! adding a small energy degradation and no visible force degradation.

use deepmd::config::DeepPotConfig;
use deepmd::dataset::{copper_frames, Frame};
use deepmd::engine::DpEngine;
use deepmd::model::DeepPotModel;
use deepmd::train::{fit_energy_bias, train, TrainConfig};
use minimd::neighbor::{ListKind, NeighborList};
use minimd::vec3::Vec3;
use nnet::precision::Precision;

use crate::report::Table;

/// Effort knobs (tests scale these down; the bench uses larger values).
#[derive(Clone, Copy, Debug)]
pub struct Table2Config {
    /// Training frames.
    pub frames: usize,
    /// FCC cells per edge in each frame.
    pub cells: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Perturbation amplitude, Å.
    pub amp: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config { frames: 8, cells: 3, epochs: 150, amp: 0.1, seed: 2024 }
    }
}

/// One row: precision, energy error (eV/atom), force error (eV/Å).
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Precision mode.
    pub precision: Precision,
    /// |E − E_ref| per atom, eV.
    pub energy_err: f64,
    /// Force RMSE vs reference, eV/Å.
    pub force_err: f64,
}

/// Evaluate a model at one precision against labelled frames.
pub fn errors_at(model: &DeepPotModel, precision: Precision, frames: &[Frame]) -> (f64, f64) {
    let engine = DpEngine::new(model.clone(), precision).with_pool(super::host_pool());
    let mut e_err = 0.0;
    let mut f_sq = 0.0;
    let mut f_n = 0usize;
    for frame in frames {
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(&frame.atoms, &frame.bx);
        let mut forces = vec![Vec3::ZERO; frame.atoms.len()];
        let out = engine.energy_forces(&frame.atoms, &nl, &frame.bx, &mut forces);
        e_err += ((out.energy - frame.energy) / frame.atoms.nlocal as f64).abs();
        for (&f, &fr) in forces.iter().zip(&frame.forces).take(frame.atoms.nlocal) {
            f_sq += (f - fr).norm2();
            f_n += 3;
        }
    }
    (e_err / frames.len() as f64, (f_sq / f_n as f64).sqrt())
}

/// Train a model and produce the three precision rows.
pub fn run(cfg: Table2Config) -> Vec<Table2Row> {
    let mut model = DeepPotModel::new(DeepPotConfig::tiny(1, 6.0));
    let all = copper_frames(cfg.frames + 2, cfg.cells, cfg.amp, cfg.seed);
    let (train_set, val_set) = deepmd::dataset::split(all, cfg.frames as f64 / (cfg.frames + 2) as f64);
    fit_energy_bias(&mut model, &train_set);
    train(&mut model, &train_set, TrainConfig { epochs: cfg.epochs, lr: 3e-3, log_every: 0 });
    Precision::ALL
        .iter()
        .map(|&p| {
            let (e, f) = errors_at(&model, p, &val_set);
            Table2Row { precision: p, energy_err: e, force_err: f }
        })
        .collect()
}

/// Render in the paper's layout.
pub fn table(rows: &[Table2Row]) -> Table {
    let mut t = Table::new(
        "Table II — error of energy and force for one time-step",
        &["Precision", "Error in energy [eV/atom]", "Error in force [eV/A]"],
    );
    for r in rows {
        t.row(vec![
            r.precision.label().to_string(),
            format!("{:.1e}", r.energy_err),
            format!("{:.1e}", r.force_err),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_rows_reproduce_the_papers_shape() {
        // Small effort for test time; the bench runs the default config.
        let rows = run(Table2Config { frames: 4, cells: 2, epochs: 60, amp: 0.08, seed: 5 });
        assert_eq!(rows.len(), 3);
        let (d, m32, m16) = (&rows[0], &rows[1], &rows[2]);
        // Double and MIX-fp32 agree at display precision (the paper prints
        // identical 1.6e-3 / 4.4e-2 for both).
        assert!((d.energy_err - m32.energy_err).abs() / d.energy_err < 0.05);
        assert!((d.force_err - m32.force_err).abs() / d.force_err < 0.02);
        // fp16 energy error ≥ fp32's; forces stay at the model error floor.
        assert!(m16.energy_err >= m32.energy_err * 0.99);
        assert!((m16.force_err - d.force_err).abs() / d.force_err < 0.1);
        // Sanity: all errors finite and the model actually learned
        // something (error below the untrained scale).
        for r in &rows {
            assert!(r.energy_err.is_finite() && r.force_err.is_finite());
            assert!(r.energy_err < 0.5, "energy error {}", r.energy_err);
        }
    }
}
