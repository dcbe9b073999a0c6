//! The full stack end to end: a *Deep Potential* driven distributed MD run
//! (node-based exchange, Newton-on reverse reduction, flying-atom
//! migration) against the single-box reference — the strongest correctness
//! statement this repository makes about the paper's communication scheme.

use dpmd_repro::comm::driver::DistributedSim;
use dpmd_repro::comm::functional::ExchangeScheme;
use dpmd_repro::deepmd::config::DeepPotConfig;
use dpmd_repro::deepmd::engine::DpEngine;
use dpmd_repro::deepmd::model::DeepPotModel;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::integrate::{init_velocities, VelocityVerlet};
use dpmd_repro::minimd::lattice::fcc_lattice;
use dpmd_repro::minimd::sim::Simulation;
use dpmd_repro::minimd::units::FEMTOSECOND;
use dpmd_repro::nnet::precision::Precision;

/// The f64 path, as an engine: what both the single-box reference and every
/// rank of the distributed run evaluate.
fn double_engine() -> DpEngine {
    DpEngine::new(DeepPotModel::new(DeepPotConfig::tiny(1, 5.0)), Precision::Double)
}

#[test]
fn deep_potential_distributed_trajectory_matches_single_box() {
    let (bx, mut global) = fcc_lattice(9, 9, 9, 4.0);
    init_velocities(&mut global, 120.0, 21);
    let vv = VelocityVerlet::new(1.0 * FEMTOSECOND);

    let mut reference =
        Simulation::new(bx, global.clone(), Box::new(double_engine()), vv.clone(), 1.0, 5);
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let dp = double_engine();
    let mut dist = DistributedSim::new(decomp, &global, &dp, vv, ExchangeScheme::NodeBased, 5);

    for _ in 0..12 {
        reference.step();
        dist.stride();
    }
    let gathered = dist.gather();
    let mut by_id = std::collections::BTreeMap::new();
    for i in 0..reference.atoms.nlocal {
        by_id.insert(reference.atoms.id[i], reference.atoms.pos[i]);
    }
    let mut worst = 0.0f64;
    for i in 0..gathered.nlocal {
        let d = bx.min_image(gathered.pos[i], by_id[&gathered.id[i]]).norm();
        worst = worst.max(d);
    }
    assert!(worst < 1e-8, "max trajectory deviation {worst} Å after 12 steps");
}

#[test]
fn deep_potential_distributed_energy_is_conserved() {
    let (bx, mut global) = fcc_lattice(8, 8, 8, 4.0);
    init_velocities(&mut global, 80.0, 33);
    let dp = double_engine();
    let vv = VelocityVerlet::new(1.0 * FEMTOSECOND);
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let mut dist = DistributedSim::new(decomp, &global, &dp, vv, ExchangeScheme::NodeBased, 5);
    let (pe0, ke0) = dist.stride();
    let mut last = (pe0, ke0);
    for _ in 0..15 {
        last = dist.stride();
    }
    let natoms = global.nlocal as f64;
    let drift = ((last.0 + last.1) - (pe0 + ke0)).abs() / natoms;
    assert!(drift < 5e-4, "per-atom energy drift {drift} eV");
}
