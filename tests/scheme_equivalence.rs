//! Cross-crate integration: every communication scheme must deliver ghost
//! sets that make the *Deep Potential* forces computed per rank equal the
//! global single-box reference — the invariant that makes the paper's
//! node-based optimization legal physics.

use std::collections::BTreeMap;

use dpmd_repro::comm::functional::{
    exchange_ghosts, ghost_signature, partition, reverse_forces, ExchangeScheme,
};
use dpmd_repro::deepmd::config::DeepPotConfig;
use dpmd_repro::deepmd::engine::DpEngine;
use dpmd_repro::deepmd::model::DeepPotModel;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::lattice::fcc_lattice;
use dpmd_repro::minimd::neighbor::{ListKind, NeighborList};
use dpmd_repro::minimd::vec3::Vec3;
use dpmd_repro::nnet::precision::Precision;

fn setup() -> (Decomposition, dpmd_repro::minimd::Atoms, dpmd_repro::minimd::SimBox, DpEngine) {
    let (bx, mut atoms) = fcc_lattice(10, 10, 10, 3.615);
    // Perturb so forces are non-trivial.
    for (k, p) in atoms.pos.iter_mut().enumerate() {
        p.x += 0.06 * ((k % 7) as f64 - 3.0) / 3.0;
        p.y += 0.05 * ((k % 5) as f64 - 2.0) / 2.0;
        *p = bx.wrap(*p);
    }
    let decomp = Decomposition::new(bx, [3, 3, 4]);
    let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
    (decomp, atoms, bx, DpEngine::new(model, Precision::Double))
}

#[test]
fn all_schemes_and_layouts_deliver_equivalent_ghosts() {
    let (decomp, atoms, _, _) = setup();
    let mut p2p = partition(&decomp, &atoms);
    let mut node = partition(&decomp, &atoms);
    exchange_ghosts(&decomp, &mut p2p, 5.0, ExchangeScheme::RankP2p, false);
    exchange_ghosts(&decomp, &mut node, 5.0, ExchangeScheme::NodeBased, false);
    for r in 0..decomp.num_ranks() {
        assert_eq!(ghost_signature(&p2p[r]), ghost_signature(&node[r]), "rank {r}");
    }
}

#[test]
fn deep_potential_forces_are_identical_distributed_and_global() {
    let (decomp, mut global, bx, dp) = setup();

    // Global reference.
    let mut nl = NeighborList::new(dp.model.config.rcut, 0.0, ListKind::Full);
    nl.build(&global, &bx);
    let mut ref_forces = vec![Vec3::ZERO; global.len()];
    let ref_out = dp.energy_forces(&global, &nl, &bx, &mut ref_forces);
    let mut by_id: BTreeMap<u64, Vec3> = BTreeMap::new();
    for (&id, &f) in global.id.iter().zip(&ref_forces).take(global.nlocal) {
        by_id.insert(id, f);
    }
    let _ = &mut global;

    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let mut per_rank = partition(&decomp, &global);
        exchange_ghosts(&decomp, &mut per_rank, dp.model.config.rcut, scheme, false);
        let mut dist_energy = 0.0;
        for a in per_rank.iter_mut() {
            let mut rnl = NeighborList::new(dp.model.config.rcut, 0.0, ListKind::Full);
            rnl.build(a, &bx);
            a.zero_forces();
            let mut forces = std::mem::take(&mut a.force);
            let out = dp.energy_forces(a, &rnl, &bx, &mut forces);
            a.force = forces;
            dist_energy += out.energy;
        }
        // Newton's law on: ghost forces reduce back to their owners.
        reverse_forces(&decomp, &mut per_rank);

        assert!(
            (dist_energy - ref_out.energy).abs() < 1e-8 * ref_out.energy.abs().max(1.0),
            "{scheme:?}: energy {dist_energy} vs {}",
            ref_out.energy
        );
        for a in &per_rank {
            for i in 0..a.nlocal {
                let rf = by_id[&a.id[i]];
                assert!(
                    (a.force[i] - rf).norm() < 1e-9,
                    "{scheme:?}: atom {} force {:?} vs {rf:?}",
                    a.id[i],
                    a.force[i]
                );
            }
        }
    }
}

#[test]
fn lb_broadcast_layout_preserves_forces_too() {
    let (decomp, global, bx, dp) = setup();
    let mut nl = NeighborList::new(dp.model.config.rcut, 0.0, ListKind::Full);
    nl.build(&global, &bx);
    let mut ref_forces = vec![Vec3::ZERO; global.len()];
    dp.energy_forces(&global, &nl, &bx, &mut ref_forces);
    let mut by_id: BTreeMap<u64, Vec3> = BTreeMap::new();
    for (&id, &f) in global.id.iter().zip(&ref_forces).take(global.nlocal) {
        by_id.insert(id, f);
    }

    // The Fig. 5(b) layout: every rank holds the whole node-box.
    let mut per_rank = partition(&decomp, &global);
    exchange_ghosts(&decomp, &mut per_rank, dp.model.config.rcut, ExchangeScheme::NodeBased, true);
    for a in per_rank.iter_mut() {
        let mut rnl = NeighborList::new(dp.model.config.rcut, 0.0, ListKind::Full);
        rnl.build(a, &bx);
        a.zero_forces();
        let mut forces = std::mem::take(&mut a.force);
        dp.energy_forces(a, &rnl, &bx, &mut forces);
        a.force = forces;
    }
    reverse_forces(&decomp, &mut per_rank);
    for a in &per_rank {
        for i in 0..a.nlocal {
            let rf = by_id[&a.id[i]];
            assert!((a.force[i] - rf).norm() < 1e-9, "atom {}", a.id[i]);
        }
    }
}
