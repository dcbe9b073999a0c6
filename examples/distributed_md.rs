//! Distributed MD: run the same copper system three ways — single box,
//! rank-p2p exchange, and the paper's node-based exchange — and show that
//! the trajectories coincide while the *communication bill* differs.
//!
//! ```sh
//! cargo run --release --example distributed_md
//! ```

use dpmd_repro::comm::driver::DistributedSim;
use dpmd_repro::comm::functional::ExchangeScheme;
use dpmd_repro::comm::node_based::{self, NodeSchemeConfig};
use dpmd_repro::comm::plan::HaloPlan;
use dpmd_repro::fugaku::machine::MachineConfig;
use dpmd_repro::fugaku::tofu::Torus3d;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::integrate::{init_velocities, VelocityVerlet};
use dpmd_repro::minimd::lattice::fcc_lattice;
use dpmd_repro::minimd::potential::lj::LennardJones;
use dpmd_repro::minimd::sim::Simulation;
use dpmd_repro::minimd::units::FEMTOSECOND;

fn main() {
    let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
    init_velocities(&mut global, 80.0, 7);
    let lj = LennardJones::new(0.0104, 3.4, 5.0);
    let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
    let steps = 50u64;
    println!("== distributed MD equivalence ({} atoms, {steps} steps) ==\n", global.nlocal);

    // Reference: single box.
    let mut reference =
        Simulation::new(bx, global.clone(), Box::new(lj), vv.clone(), 1.0, 10);
    for _ in 0..steps {
        reference.step();
    }
    let t_ref = reference.thermo();
    println!("single box     : E = {:+.4} eV   T = {:.1} K", t_ref.etotal, t_ref.temperature);

    // Distributed, both schemes, 2×2×2 nodes (32 ranks).
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let decomp = Decomposition::new(bx, [2, 2, 2]);
        let mut dist = DistributedSim::new(decomp, &global, &lj, vv.clone(), scheme, 10);
        let mut last = (0.0, 0.0);
        for _ in 0..steps {
            last = dist.stride();
        }
        // Worst positional deviation vs the reference.
        let gathered = dist.gather();
        let mut by_id = std::collections::BTreeMap::new();
        for i in 0..reference.atoms.nlocal {
            by_id.insert(reference.atoms.id[i], reference.atoms.pos[i]);
        }
        let worst = (0..gathered.nlocal)
            .map(|i| bx.min_image(gathered.pos[i], by_id[&gathered.id[i]]).norm())
            .fold(0.0f64, f64::max);
        println!(
            "{scheme:?}: E = {:+.4} eV   max |Δr| vs single box = {worst:.2e} Å",
            last.0 + last.1
        );
    }

    // The communication bill of the same workload, per the timing model.
    println!("\n== what each exchange would cost on the simulated Fugaku ==");
    let machine = MachineConfig::default();
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let torus = Torus3d::new([2, 2, 2]);
    let plan = HaloPlan::build(&decomp, &global, 5.0);
    let apr: Vec<usize> = decomp.counts_per_rank(&global).into_iter().map(|c| c as usize).collect();
    let node =
        node_based::simulate_round_trip(&machine, &decomp, &torus, &plan, &apr, NodeSchemeConfig::paper_best());
    println!(
        "node-based round trip: {:.1} µs, {} inter-node messages, {:.1} KiB on the wire",
        node.comm.total_ns as f64 / 1000.0,
        node.comm.internode_messages,
        node.comm.internode_bytes as f64 / 1024.0
    );
    println!(
        "rank-level plan would send {} messages / {:.1} KiB (the aggregation saving: {:.0}%)",
        plan.rank_message_count(),
        (plan.rank_ghost_atoms() * dpmd_repro::comm::ATOM_FORWARD_BYTES) as f64 / 1024.0,
        plan.aggregation_saving() * 100.0
    );
}
