//! # minimd — the LAMMPS substrate
//!
//! DeePMD-kit delegates all molecular-dynamics mechanics to LAMMPS: atom
//! storage, domain decomposition, neighbour lists, ghost-region bookkeeping,
//! time integration, and thermodynamic outputs. This crate rebuilds that
//! substrate from scratch:
//!
//! * [`units`] — LAMMPS "metal" unit system (Å, eV, ps, g/mol);
//! * [`vec3`] — minimal 3-vector math;
//! * [`simbox`] — orthorhombic periodic box, wrapping and minimum image;
//! * [`atoms`] — structure-of-arrays atom storage with ghost partitioning;
//! * [`lattice`] — FCC copper and water-box builders for the paper's two
//!   benchmark systems;
//! * [`neighbor`] — cell lists and Verlet lists with skin and the paper's
//!   rebuild-every-50-steps policy;
//! * [`potential`] — analytic force fields: Lennard-Jones, an EAM
//!   copper model and a flexible 3-site water surrogate. These stand in for
//!   the AIMD reference data used to train Deep Potential models;
//! * [`domain`] — spatial decomposition onto an `px × py × pz` rank grid,
//!   node grouping (4 ranks/node), sub-box and node-box geometry, ghost
//!   region computation;
//! * [`integrate`] — velocity-Verlet, Maxwell–Boltzmann initialization,
//!   Berendsen and Langevin thermostats;
//! * [`compute`] — kinetic energy, temperature, virial pressure, radial
//!   distribution functions, mean-squared displacement;
//! * [`migrate`] — owner exchange of "flying atoms" at rebuild time;
//! * [`sim`] — a single-process simulation driver tying it all together.

pub mod atoms;
pub mod compute;
pub mod domain;
pub mod integrate;
pub mod lattice;
pub mod migrate;
pub mod neighbor;
pub mod potential;
pub mod sim;
pub mod simbox;
pub mod units;
pub mod vec3;

pub use atoms::Atoms;
pub use simbox::SimBox;
pub use vec3::Vec3;
