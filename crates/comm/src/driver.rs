//! A functional *distributed* MD driver: all ranks in one address space,
//! stepping the same physics the paper's code steps —
//!
//! 1. forward halo exchange (node-based scheme, lb layout optional);
//! 2. per-rank force computation over locals + ghosts;
//! 3. reverse reduction of ghost forces ("Newton's law on");
//! 4. velocity-Verlet update of locals;
//! 5. every `rebuild_every` steps: ghost teardown, flying-atom migration,
//!    fresh exchange (the paper's offset-recalculation points).
//!
//! Its purpose is correctness, not speed: the integration tests pin the
//! distributed trajectory against the single-box reference step for step,
//! which is the invariant all of §III-A's optimizations must preserve.
//!
//! Every stride rebuilds every rank's full neighbour list over its locals
//! and ghosts (see `refresh_ghosts` for why), through the ghost-mode
//! cell-list scan of [`minimd::neighbor`]. At a few hundred atoms per rank
//! that build is the largest single term of a stride, ahead of the
//! exchange and the pair kernel. Building less often would reorder list
//! entries, and so the force sums and the trajectory bits.
//!
//! Metrics ([`DistributedSim::attach_obs`]) and fault injection
//! ([`DistributedSim::inject_faults`]) are two `Option` fields, both `None`
//! after construction; every step hands whatever is set to the one exchange
//! body per direction in [`crate::functional`].

use minimd::atoms::Atoms;
use minimd::domain::Decomposition;
use minimd::integrate::VelocityVerlet;
use minimd::migrate::exchange_atoms;
use minimd::neighbor::{ListKind, NeighborList};
use minimd::potential::Potential;

use crate::fault::{FaultPlan, FaultSession, FaultStats};
use crate::functional::{exchange_ghosts_with, partition, reverse_forces_with, ExchangeScheme};
use crate::metrics::CommMetrics;

/// A distributed simulation over per-rank atom stores.
pub struct DistributedSim<'p> {
    /// The decomposition (owns the global box).
    pub decomp: Decomposition,
    /// Per-rank atom stores (locals + ghosts).
    pub ranks: Vec<Atoms>,
    /// The force field, shared by every rank.
    pub potential: &'p dyn Potential,
    /// Integrator.
    pub integrator: VelocityVerlet,
    /// Exchange scheme (both must produce identical trajectories).
    pub scheme: ExchangeScheme,
    /// Rebuild/migration cadence in steps (paper: 50).
    pub rebuild_every: u64,
    /// Ghost halo radius: cutoff + skin, so locals that drift past their
    /// sub-box boundary between migrations keep every pair within r_c.
    pub halo: f64,
    nls: Vec<NeighborList>,
    step: u64,
    /// Armed by [`inject_faults`](Self::inject_faults); `None` is the plain
    /// transport.
    faults: Option<FaultSession>,
    /// Set by [`attach_obs`](Self::attach_obs) — the only copy of the
    /// handles; the exchange and the fault layer borrow it per call.
    obs: Option<CommMetrics>,
}

impl<'p> DistributedSim<'p> {
    /// Partition a global configuration and set up per-rank state.
    pub fn new(
        decomp: Decomposition,
        global: &Atoms,
        potential: &'p dyn Potential,
        integrator: VelocityVerlet,
        scheme: ExchangeScheme,
        rebuild_every: u64,
    ) -> Self {
        let ranks = partition(&decomp, global);
        let skin = 1.0;
        let halo = potential.cutoff() + skin;
        let nls = (0..decomp.num_ranks())
            .map(|_| NeighborList::new(potential.cutoff(), skin, ListKind::Full))
            .collect();
        let mut sim = DistributedSim {
            decomp,
            ranks,
            potential,
            integrator,
            scheme,
            rebuild_every,
            halo,
            nls,
            step: 0,
            faults: None,
            obs: None,
        };
        sim.rebuild(0);
        sim.compute_forces(0);
        sim
    }

    /// Arm fault injection: from now on every forward exchange and reverse
    /// reduction runs `plan`'s faults through the recovery protocol
    /// (sequence numbers, timeout/retry/backoff, idempotent apply), and a
    /// stalled leader degrades the node-based scheme to rank p2p for the
    /// affected steps. With recovery, the trajectory is bit-identical to
    /// the fault-free run — the property `tests/fault_injection.rs` pins.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultSession::new(plan));
    }

    /// Attach observability: from now on every exchange and reverse
    /// reduction charges messages/bytes/retries into `registry` (see
    /// [`CommMetrics`] for the catalog). The construction-time initial
    /// exchange is not counted — counters start at zero here, which is what
    /// lets tests equate them with per-step message sums.
    pub fn attach_obs(&mut self, registry: &dpmd_obs::MetricsRegistry) {
        self.obs = Some(CommMetrics::register(registry));
    }

    /// Counters of injected faults and recovery work (None until
    /// [`inject_faults`](Self::inject_faults)).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|s| &s.stats)
    }

    /// Completed steps.
    pub fn step_index(&self) -> u64 {
        self.step
    }

    /// The scheme actually used at `step`: node-based degrades to rank p2p
    /// while a leader rank is stalled (graceful degradation — p2p needs no
    /// leader aggregation, and both schemes produce bitwise-identical ghost
    /// arrays, so the trajectory is unperturbed).
    fn effective_scheme(&mut self, step: u64) -> ExchangeScheme {
        if self.scheme == ExchangeScheme::NodeBased {
            if let Some(s) = self.faults.as_mut() {
                if s.plan.leader_stalled_at(step) {
                    s.stats.fallback_steps += 1;
                    if let Some(o) = &self.obs {
                        o.fallback_steps.inc();
                    }
                    return ExchangeScheme::RankP2p;
                }
            }
        }
        self.scheme
    }

    fn rebuild(&mut self, step: u64) {
        for a in &mut self.ranks {
            a.clear_ghosts();
        }
        exchange_atoms(&self.decomp, &mut self.ranks);
        self.refresh_ghosts(step);
    }

    /// Refresh ghosts for the new positions (the every-step forward
    /// communication, through whatever is attached). Ghost membership can
    /// change even between cadence rebuilds (an atom crossing the r_c
    /// shell), which silently shifts ghost indices — so this correctness
    /// driver rebuilds the per-rank neighbour lists every step. (The
    /// production code instead keeps the ghost *set* frozen between
    /// rebuilds and relies on the skin; the timing of that path is what the
    /// performance model charges.)
    fn refresh_ghosts(&mut self, step: u64) {
        let scheme = self.effective_scheme(step);
        exchange_ghosts_with(
            &self.decomp,
            &mut self.ranks,
            self.halo,
            scheme,
            false,
            self.obs.as_ref(),
            self.faults.as_mut().map(|s| (s, step)),
        );
        let bx = self.decomp.bx;
        for (a, nl) in self.ranks.iter().zip(&mut self.nls) {
            nl.build(a, &bx);
        }
    }

    fn compute_forces(&mut self, step: u64) -> f64 {
        let bx = self.decomp.bx;
        let mut energy = 0.0;
        for (a, nl) in self.ranks.iter_mut().zip(&self.nls) {
            a.zero_forces();
            energy += self.potential.compute(a, nl, &bx).energy;
        }
        reverse_forces_with(
            &mut self.ranks,
            self.obs.as_ref(),
            self.faults.as_mut().map(|s| (s, step)),
        );
        energy
    }

    /// Advance one step; returns (potential energy, total kinetic energy).
    pub fn stride(&mut self) -> (f64, f64) {
        for a in &mut self.ranks {
            // Unwrapped drift: the migrate/exchange step re-wraps.
            self.integrator.first_half_unwrapped(a);
        }
        // The step being computed keys every fault decision, so a given
        // scenario replays identically run to run.
        let step = self.step + 1;
        if self.rebuild_every > 0 && step.is_multiple_of(self.rebuild_every) {
            self.rebuild(step);
        } else {
            self.refresh_ghosts(step);
        }
        let pe = self.compute_forces(step);
        let mut ke = 0.0;
        for a in &mut self.ranks {
            self.integrator.second_half(a);
            ke += minimd::integrate::kinetic_energy(a);
        }
        self.step += 1;
        (pe, ke)
    }

    /// Gather all locals back into one global configuration (sorted by id).
    pub fn gather(&self) -> Atoms {
        let mut rows: Vec<(u64, u32, minimd::vec3::Vec3, minimd::vec3::Vec3)> = Vec::new();
        for a in &self.ranks {
            for i in 0..a.nlocal {
                rows.push((a.id[i], a.typ[i], a.pos[i], a.vel[i]));
            }
        }
        rows.sort_by_key(|r| r.0);
        let mut out = Atoms::new(self.ranks[0].species.clone());
        for (id, typ, pos, vel) in rows {
            out.push_local(id, typ, pos, vel);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::integrate::init_velocities;
    use minimd::lattice::fcc_lattice;
    use minimd::potential::lj::LennardJones;
    use minimd::sim::Simulation;
    use minimd::units::FEMTOSECOND;

    /// The load-bearing test: the distributed trajectory equals the
    /// single-box trajectory step for step (same positions to float noise).
    #[test]
    fn distributed_trajectory_matches_single_box() {
        let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
        init_velocities(&mut global, 60.0, 5);
        let lj = LennardJones::new(0.0104, 3.4, 5.0);
        let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);

        // Reference: single box.
        let mut reference = Simulation::new(
            bx,
            global.clone(),
            Box::new(lj),
            vv.clone(),
            1.0,
            10,
        );
        // Distributed: 2×2×2 nodes (32 ranks).
        let decomp = Decomposition::new(bx, [2, 2, 2]);
        let mut dist =
            DistributedSim::new(decomp, &global, &lj, vv, ExchangeScheme::NodeBased, 10);

        for step in 0..25 {
            reference.step();
            dist.stride();
            if step % 5 == 4 {
                let gathered = dist.gather();
                // Compare positions by id.
                let mut ref_by_id = std::collections::BTreeMap::new();
                for i in 0..reference.atoms.nlocal {
                    ref_by_id.insert(reference.atoms.id[i], reference.atoms.pos[i]);
                }
                for i in 0..gathered.nlocal {
                    let rp = ref_by_id[&gathered.id[i]];
                    let d = bx.min_image(gathered.pos[i], rp).norm();
                    assert!(d < 1e-8, "step {step} atom {}: drift {d}", gathered.id[i]);
                }
            }
        }
    }

    #[test]
    fn both_schemes_produce_the_same_distributed_trajectory() {
        let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
        init_velocities(&mut global, 40.0, 9);
        let lj = LennardJones::new(0.0104, 3.4, 5.0);
        let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
        let d1 = Decomposition::new(bx, [2, 2, 2]);
        let d2 = Decomposition::new(bx, [2, 2, 2]);
        let mut s1 = DistributedSim::new(d1, &global, &lj, vv.clone(), ExchangeScheme::RankP2p, 10);
        let mut s2 = DistributedSim::new(d2, &global, &lj, vv, ExchangeScheme::NodeBased, 10);
        for _ in 0..15 {
            s1.stride();
            s2.stride();
        }
        let (g1, g2) = (s1.gather(), s2.gather());
        assert_eq!(g1.id, g2.id);
        for i in 0..g1.nlocal {
            assert!((g1.pos[i] - g2.pos[i]).norm() < 1e-10, "atom {}", g1.id[i]);
        }
    }

    /// After every stride, migration strides included, each rank's
    /// neighbour list is the O(N²) list over its locals and ghosts: every
    /// j ≠ i within cutoff + skin, in ascending index order.
    #[test]
    fn rank_lists_match_an_n2_oracle_every_stride() {
        let (bx, mut global) = fcc_lattice(6, 6, 6, 4.4);
        init_velocities(&mut global, 150.0, 4);
        let lj = LennardJones::new(0.0104, 3.4, 5.0);
        let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
        let decomp = Decomposition::new(bx, [2, 2, 2]);
        let mut sim = DistributedSim::new(decomp, &global, &lj, vv, ExchangeScheme::NodeBased, 5);
        let owned = |s: &DistributedSim<'_>| -> Vec<Vec<u64>> {
            let sorted = |a: &Atoms| {
                let mut ids = a.id[..a.nlocal].to_vec();
                ids.sort_unstable();
                ids
            };
            s.ranks.iter().map(sorted).collect()
        };
        let before = owned(&sim);
        for stride in 1..=12 {
            sim.stride();
            for (r, (a, nl)) in sim.ranks.iter().zip(&sim.nls).enumerate() {
                assert!(a.nghost() > 0, "rank {r} has no ghosts");
                let rlist2 = (nl.cutoff + nl.skin) * (nl.cutoff + nl.skin);
                assert_eq!(nl.natoms(), a.nlocal, "stride {stride}, rank {r}");
                for i in 0..a.nlocal {
                    let oracle: Vec<u32> = (0..a.len())
                        .filter(|&j| j != i && (a.pos[i] - a.pos[j]).norm2() <= rlist2)
                        .map(|j| j as u32)
                        .collect();
                    assert_eq!(nl.neighbors(i), oracle, "stride {stride}, rank {r}, atom {i}");
                }
            }
        }
        assert!(sim.nls.iter().all(|nl| nl.builds == 13), "one build at construction and one per stride");
        assert_ne!(before, owned(&sim), "no atom migrated at strides 5 and 10");
    }

    #[test]
    fn migration_keeps_ownership_consistent_across_many_steps() {
        use minimd::migrate::ownership_violations;
        let (bx, mut global) = fcc_lattice(6, 6, 6, 4.4);
        init_velocities(&mut global, 150.0, 3);
        let lj = LennardJones::new(0.0104, 3.4, 5.0);
        let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
        let decomp = Decomposition::new(bx, [2, 2, 2]);
        let mut sim = DistributedSim::new(decomp, &global, &lj, vv, ExchangeScheme::NodeBased, 5);
        let n0: usize = sim.ranks.iter().map(|a| a.nlocal).sum();
        for _ in 0..20 {
            sim.stride();
        }
        let n1: usize = sim.ranks.iter().map(|a| a.nlocal).sum();
        assert_eq!(n0, n1, "atom conservation");
        // Right after a rebuild step, ownership is exact.
        for a in &mut sim.ranks {
            a.clear_ghosts();
        }
        minimd::migrate::exchange_atoms(&sim.decomp, &mut sim.ranks);
        assert!(ownership_violations(&sim.decomp, &sim.ranks).is_empty());
    }
}
