//! Analytic force fields.
//!
//! These play the role of the *ab initio* reference data in the
//! reproduction: Deep Potential models (crate `deepmd`) are trained against
//! energies and forces produced by these potentials, exactly as the real
//! DeePMD-kit models are trained against DFT labels.
//!
//! * [`lj`] — Lennard-Jones (classic baseline, used in tests and examples);
//! * [`eam`] — Sutton–Chen embedded-atom copper (the many-body "truth" for
//!   the paper's 0.54 M-atom Cu system);
//! * [`water`] — a flexible 3-site water surrogate (harmonic bonds/angles +
//!   O–O Lennard-Jones + Wolf-damped Coulomb) for the 0.56 M-atom H₂O
//!   system.

pub mod eam;
pub mod lj;
pub mod water;

use crate::atoms::Atoms;
use crate::neighbor::NeighborList;
use crate::simbox::SimBox;
use crate::vec3::Vec3;

/// Scalars produced by one force evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PotentialOutput {
    /// Total potential energy of the local atoms, eV.
    pub energy: f64,
    /// Scalar virial `Σ r_ij·f_ij` (for the pressure), eV.
    pub virial: f64,
}

/// Wall-clock breakdown of one force evaluation into the pipeline phases
/// the paper profiles (§IV): descriptor (environment-matrix) assembly,
/// embedding-net inference, and fitting-net inference plus the force
/// backward pass. All in seconds.
///
/// An evaluator that runs every stage of a group of atoms back to back
/// inside one parallel scope (the mixed-precision Deep Potential engine,
/// where each tile of atoms builds its environments, embeds and then fits)
/// has one wall time for the three. It splits that wall time into
/// [`descriptor_s`](Self::descriptor_s), [`embedding_s`](Self::embedding_s)
/// and [`fitting_s`](Self::fitting_s) in proportion to the thread time its
/// tasks spent in each stage, summed over tasks: the three add up to the
/// scope's wall time, and all are finite and non-negative.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ForcePhases {
    /// Environment-matrix construction (smooth switching, displacements):
    /// the descriptor's share of a fused scope's wall time (see the type
    /// docs), or its own pass in an evaluator that runs one (the f64
    /// model).
    pub descriptor_s: f64,
    /// Embedding-net forward + gradient and the T accumulation: the
    /// embedding's share of a fused scope's wall time. Zero from an
    /// evaluator that does not separate it (the per-atom f64 model).
    pub embedding_s: f64,
    /// Fitting-net forward/backward and the per-neighbour chain rule: the
    /// fitting's share of a fused scope's wall time.
    pub fitting_s: f64,
    /// Deterministic chunk-ordered merge of per-chunk force buffers and
    /// energy/virial partials (single-threaded by construction).
    pub reduction_s: f64,
}

impl ForcePhases {
    /// Sum of the recorded phases.
    pub fn total(&self) -> f64 {
        self.descriptor_s + self.embedding_s + self.fitting_s + self.reduction_s
    }
}

/// A force field evaluated over a neighbour list.
///
/// Implementations add forces into `atoms.force` (callers zero it first) and
/// return energy and virial. Positions may include ghosts; forces are
/// accumulated on every stored atom (ghost forces are reverse-communicated
/// by the comm layer in distributed runs — "Newton's law on" in the paper).
pub trait Potential: Send + Sync {
    /// Evaluate forces, energy and virial.
    fn compute(&self, atoms: &mut Atoms, nl: &NeighborList, bx: &SimBox) -> PotentialOutput;

    /// Interaction cutoff, Å (the neighbour list must use at least this).
    fn cutoff(&self) -> f64;

    /// Human-readable name for logs.
    fn name(&self) -> &'static str;

    /// Per-phase wall times of the most recent [`compute`](Self::compute)
    /// call, when the implementation records them (the Deep Potential
    /// engine does; analytic pair potentials return `None`).
    fn phase_times(&self) -> Option<ForcePhases> {
        None
    }
}

/// Minimum-image or direct displacement depending on ghost presence —
/// the one geometry rule every potential shares.
#[inline]
pub(crate) fn pair_disp(atoms: &Atoms, bx: &SimBox, i: usize, j: usize) -> Vec3 {
    if atoms.nghost() == 0 {
        bx.min_image(atoms.pos[i], atoms.pos[j])
    } else {
        atoms.pos[i] - atoms.pos[j]
    }
}

/// Central-difference force check: returns the maximum absolute difference
/// between analytic forces and −∂E/∂x over `n_probe` randomly chosen
/// coordinates. Test utility shared by every potential's test module.
#[cfg(test)]
pub(crate) fn finite_difference_force_error(
    pot: &dyn Potential,
    atoms: &mut Atoms,
    bx: &SimBox,
    n_probe: usize,
    seed: u64,
) -> f64 {
    use crate::neighbor::ListKind;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut nl = NeighborList::new(pot.cutoff(), 1.0, ListKind::Full);
    nl.build(atoms, bx);
    atoms.zero_forces();
    pot.compute(atoms, &nl, bx);
    let analytic = atoms.force.clone();

    let mut rng = StdRng::seed_from_u64(seed);
    let h = 1e-6;
    let mut worst: f64 = 0.0;
    for _ in 0..n_probe {
        let i = rng.random_range(0..atoms.nlocal);
        let d = rng.random_range(0..3usize);
        let orig = atoms.pos[i][d];
        atoms.pos[i][d] = orig + h;
        nl.build(atoms, bx);
        atoms.zero_forces();
        let ep = pot.compute(atoms, &nl, bx).energy;
        atoms.pos[i][d] = orig - h;
        nl.build(atoms, bx);
        atoms.zero_forces();
        let em = pot.compute(atoms, &nl, bx).energy;
        atoms.pos[i][d] = orig;
        let fd = -(ep - em) / (2.0 * h);
        worst = worst.max((fd - analytic[i][d]).abs());
    }
    nl.build(atoms, bx);
    worst
}
