//! Single-process simulation driver.
//!
//! Glues neighbour-list maintenance (the paper's rebuild-every-50-steps
//! policy plus the drift safety check), the velocity-Verlet integrator, and
//! a force field into a run loop with thermodynamic output. This is the
//! functional MD path used by the accuracy experiments (Table II, Fig. 6)
//! and by training-data generation; the at-scale distributed behaviour is
//! modelled by the `comm`/`scaling` crates.

use std::time::{Duration, Instant};

use dpmd_obs::{Counter, MetricsRegistry, TraceBuffer, Unit};

use crate::atoms::Atoms;
use crate::compute::pressure_bar;
use crate::integrate::{current_temperature, kinetic_energy, VelocityVerlet};
use crate::neighbor::{ListKind, NeighborList};
use crate::potential::{ForcePhases, Potential, PotentialOutput};
use crate::simbox::SimBox;

/// Thermodynamic snapshot after a step.
#[derive(Clone, Copy, Debug, Default)]
pub struct Thermo {
    /// Step index.
    pub step: u64,
    /// Potential energy, eV.
    pub pe: f64,
    /// Kinetic energy, eV.
    pub ke: f64,
    /// Total energy, eV.
    pub etotal: f64,
    /// Instantaneous temperature, K.
    pub temperature: f64,
    /// Virial pressure, bar.
    pub pressure: f64,
}

/// Wall-clock breakdown of one simulation step, from monotonic
/// ([`Instant`]) timers around each phase of [`Simulation::step`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTiming {
    /// Step index this timing belongs to.
    pub step: u64,
    /// Neighbour-list rebuild (zero on steps that reuse the list), s.
    pub neighbor_s: f64,
    /// Whole force evaluation (descriptor + embedding + fitting for DP), s.
    pub force_s: f64,
    /// Sub-phases of the force evaluation, when the potential reports them.
    pub phases: ForcePhases,
    /// Both velocity-Verlet half-kicks plus the drift/position update, s.
    pub integrate_s: f64,
    /// Full step wall time, s.
    pub total_s: f64,
}

impl StepTiming {
    /// Sum of the attributed phases (neighbor + force + integrate), s.
    /// Compare against [`total_s`](Self::total_s) to see unattributed time
    /// (thermo bookkeeping, rebuild checks).
    pub fn phase_sum_s(&self) -> f64 {
        self.neighbor_s + self.force_s + self.integrate_s
    }
}

/// Opaque token for a step whose first Verlet half-kick has run but whose
/// force evaluation and closing kick have not. Produced by
/// [`Simulation::begin_step`], consumed by [`Simulation::complete_step`];
/// carries the timing record being filled and the step's start instant.
pub struct StepInFlight {
    rec: StepTiming,
    t_step: Instant,
}

/// Metric and trace handles attached by [`Simulation::attach_obs`].
struct SimObs {
    /// `minimd.steps` — completed steps.
    steps: Counter,
    /// `minimd.neighbor.rebuilds` — neighbour-list rebuilds (cadence or
    /// drift triggered).
    rebuilds: Counter,
    /// `minimd.wall.*_ns` — cumulative wall time per phase (non-
    /// deterministic, excluded from golden snapshots).
    wall_neighbor: Counter,
    wall_force: Counter,
    wall_integrate: Counter,
    wall_total: Counter,
    /// Per-step span tree destination.
    trace: TraceBuffer,
}

/// A complete single-box simulation.
pub struct Simulation {
    /// Periodic box.
    pub bx: SimBox,
    /// Atom storage.
    pub atoms: Atoms,
    /// Force field.
    pub potential: Box<dyn Potential>,
    /// Integrator (time-step + thermostat).
    pub integrator: VelocityVerlet,
    /// Verlet list.
    pub nl: NeighborList,
    /// Rebuild cadence in steps (the paper rebuilds every 50).
    pub rebuild_every: u64,
    step: u64,
    last: Thermo,
    /// Virial of the last force evaluation, kept so KE-dependent outputs
    /// (pressure included) can be refreshed after the final Verlet kick.
    last_virial: f64,
    /// Wall-clock breakdown of the last completed step, overwritten each
    /// step (a `Simulation` does not grow with the step count).
    last_timing: StepTiming,
    /// Metric handles; `None` (the default) skips all recording.
    obs: Option<SimObs>,
}

impl Simulation {
    /// Assemble a simulation; builds the initial neighbour list and computes
    /// initial forces so the first Verlet kick is correct.
    pub fn new(
        bx: SimBox,
        atoms: Atoms,
        potential: Box<dyn Potential>,
        integrator: VelocityVerlet,
        skin: f64,
        rebuild_every: u64,
    ) -> Self {
        let mut sim = Self::new_deferred(bx, atoms, potential, integrator, skin, rebuild_every);
        sim.recompute_forces();
        sim
    }

    /// Assemble a simulation **without** evaluating initial forces: the
    /// neighbour list is built and `atoms.force` is zeroed, but the caller
    /// must evaluate forces for the initial positions (however it likes —
    /// the continuous batch scheduler fuses the initial evaluations of
    /// every tenant attaching in the same round) and hand the result to
    /// [`initialize_forces`](Self::initialize_forces) before the first
    /// step.
    pub fn new_deferred(
        bx: SimBox,
        atoms: Atoms,
        potential: Box<dyn Potential>,
        integrator: VelocityVerlet,
        skin: f64,
        rebuild_every: u64,
    ) -> Self {
        let nl = NeighborList::new(potential.cutoff(), skin, ListKind::Full);
        let mut sim = Simulation {
            bx,
            atoms,
            potential,
            integrator,
            nl,
            rebuild_every,
            step: 0,
            last: Thermo::default(),
            last_virial: 0.0,
            last_timing: StepTiming::default(),
            obs: None,
        };
        sim.nl.build(&sim.atoms, &sim.bx);
        sim.atoms.zero_forces();
        sim
    }

    /// Complete a [`new_deferred`](Self::new_deferred) construction:
    /// forces for the current positions are already in `atoms.force`
    /// (e.g. restored from a fused batched evaluation) and `out` carries
    /// their energy and virial. Records the step-0 thermo exactly as
    /// [`new`](Self::new) does, so a bit-identical evaluation yields a
    /// bit-identical simulation.
    pub fn initialize_forces(&mut self, out: PotentialOutput) {
        self.finish_force_update(out);
    }

    /// Current step index.
    pub fn step_index(&self) -> u64 {
        self.step
    }

    /// Thermodynamics of the last completed step.
    pub fn thermo(&self) -> Thermo {
        self.last
    }

    /// Wall-clock breakdown of the last completed step (zeros before the
    /// first [`step`](Self::step) call).
    pub fn timing(&self) -> StepTiming {
        self.last_timing
    }

    /// Register this simulation's metrics on `reg` and mirror per-step
    /// span trees into `trace`. Step/rebuild counts are deterministic;
    /// the cumulative `minimd.wall.*_ns` counters carry [`Unit::WallNs`]
    /// and are excluded from deterministic snapshots.
    pub fn attach_obs(&mut self, reg: &MetricsRegistry, trace: &TraceBuffer) {
        self.obs = Some(SimObs {
            steps: reg.counter("minimd.steps", Unit::Count),
            rebuilds: reg.counter("minimd.neighbor.rebuilds", Unit::Count),
            wall_neighbor: reg.counter("minimd.wall.neighbor_ns", Unit::WallNs),
            wall_force: reg.counter("minimd.wall.force_ns", Unit::WallNs),
            wall_integrate: reg.counter("minimd.wall.integrate_ns", Unit::WallNs),
            wall_total: reg.counter("minimd.wall.total_ns", Unit::WallNs),
            trace: trace.clone(),
        });
    }

    fn recompute_forces(&mut self) -> f64 {
        self.atoms.zero_forces();
        let out = self.potential.compute(&mut self.atoms, &self.nl, &self.bx);
        let energy = out.energy;
        self.finish_force_update(out);
        energy
    }

    /// Record the thermo state implied by freshly evaluated forces (already
    /// in `atoms.force`) whose energy/virial are in `out`.
    fn finish_force_update(&mut self, out: PotentialOutput) {
        let ke = kinetic_energy(&self.atoms);
        self.last = Thermo {
            step: self.step,
            pe: out.energy,
            ke,
            etotal: out.energy + ke,
            temperature: current_temperature(&self.atoms),
            pressure: pressure_bar(&self.atoms, &self.bx, ke, out.virial),
        };
        self.last_virial = out.virial;
    }

    /// Advance one velocity-Verlet step.
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub fn step(&mut self) -> Thermo {
        let tok = self.begin_step();
        self.atoms.zero_forces();
        let t_force = Instant::now();
        let out = self.potential.compute(&mut self.atoms, &self.nl, &self.bx);
        let t_force_end = Instant::now();
        let phases = self.potential.phase_times().unwrap_or_default();
        self.complete_step(out, phases, (t_force, t_force_end), tok)
    }

    /// First half of a step: the opening Verlet kick plus the neighbour-list
    /// cadence/drift check and rebuild. After this the caller must evaluate
    /// forces into zeroed `atoms.force` (however it likes — the batch
    /// scheduler fuses many replicas' evaluations here) and hand the result
    /// to [`complete_step`](Self::complete_step). [`step`](Self::step) is
    /// exactly `begin_step` + a solo `potential.compute` + `complete_step`.
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub fn begin_step(&mut self) -> StepInFlight {
        let t_step = Instant::now();
        let mut rec = StepTiming::default();

        let t0 = Instant::now();
        self.integrator.first_half(&mut self.atoms, &self.bx);
        let t1 = Instant::now();
        rec.integrate_s += (t1 - t0).as_secs_f64();
        if let Some(o) = &self.obs {
            o.trace.push_complete("integrate.first", t0, t1);
        }

        let cadence_hit = self.rebuild_every > 0 && (self.step + 1).is_multiple_of(self.rebuild_every);
        if cadence_hit || self.nl.needs_rebuild(&self.atoms, &self.bx) {
            let t0 = Instant::now();
            self.nl.build(&self.atoms, &self.bx);
            let t1 = Instant::now();
            rec.neighbor_s = (t1 - t0).as_secs_f64();
            if let Some(o) = &self.obs {
                o.rebuilds.inc();
                o.trace.push_complete("neighbor.rebuild", t0, t1);
            }
        }

        StepInFlight { rec, t_step }
    }

    /// Second half of a step: record the externally-run force evaluation
    /// (`out`, its sub-`phases` and wall-clock `force_span`), apply the
    /// closing Verlet kick, and refresh the thermodynamic snapshot. The
    /// resulting state is field-for-field identical to a solo
    /// [`step`](Self::step) producing the same `out`.
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub fn complete_step(
        &mut self,
        out: PotentialOutput,
        phases: ForcePhases,
        force_span: (Instant, Instant),
        tok: StepInFlight,
    ) -> Thermo {
        let StepInFlight { mut rec, t_step } = tok;
        let (t_force, t_force_end) = force_span;
        rec.force_s = (t_force_end - t_force).as_secs_f64();
        rec.phases = phases;
        self.last.pe = out.energy;
        self.last_virial = out.virial;
        if let Some(o) = &self.obs {
            o.trace.push_complete("force", t_force, t_force_end);
            // The force sub-phases are sequential barrier-separated passes;
            // lay them out back-to-back from the force start. Their sum can
            // undershoot `force_s` (scheduling overhead) but clamping keeps
            // them inside the parent span even under f64 rounding.
            let mut cursor = t_force;
            for (name, secs) in [
                ("force.descriptor", phases.descriptor_s),
                ("force.embedding", phases.embedding_s),
                ("force.fitting", phases.fitting_s),
                ("force.reduction", phases.reduction_s),
            ] {
                if secs > 0.0 {
                    let end = (cursor + Duration::from_secs_f64(secs)).min(t_force_end);
                    o.trace.push_complete(name, cursor, end);
                    cursor = end;
                }
            }
        }

        let t0 = Instant::now();
        self.integrator.second_half(&mut self.atoms);
        let t1 = Instant::now();
        rec.integrate_s += (t1 - t0).as_secs_f64();
        if let Some(o) = &self.obs {
            o.trace.push_complete("integrate.second", t0, t1);
        }

        // Refresh KE-dependent outputs after the final kick. The pressure's
        // kinetic term changes with the kick too: recompute it from the
        // stored virial so the snapshot is self-consistent (pe, ke, T and P
        // all describe the post-kick state).
        let ke = kinetic_energy(&self.atoms);
        self.last.ke = ke;
        self.last.etotal = self.last.pe + ke;
        self.last.temperature = current_temperature(&self.atoms);
        self.last.pressure = pressure_bar(&self.atoms, &self.bx, ke, self.last_virial);
        self.step += 1;
        self.last.step = self.step;
        rec.step = self.step;
        let t_end = Instant::now();
        rec.total_s = (t_end - t_step).as_secs_f64();
        if let Some(o) = &self.obs {
            o.trace.push_complete("step", t_step, t_end);
            o.steps.inc();
            o.wall_neighbor.add((rec.neighbor_s * 1e9) as u64);
            o.wall_force.add((rec.force_s * 1e9) as u64);
            o.wall_integrate.add((rec.integrate_s * 1e9) as u64);
            o.wall_total.add((rec.total_s * 1e9) as u64);
        }
        self.last_timing = rec;
        self.last
    }

    /// Run `n` steps, returning the thermo trace (one entry per step).
    pub fn run(&mut self, n: u64) -> Vec<Thermo> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::init_velocities;
    use crate::lattice::{fcc_copper, water_box};
    use crate::potential::eam::SuttonChen;
    use crate::potential::lj::LennardJones;
    use crate::potential::water::WaterSurrogate;
    use crate::units::FEMTOSECOND;

    /// NVE energy conservation with Lennard-Jones — the classic integrator
    /// correctness test.
    #[test]
    fn lj_nve_conserves_energy() {
        let (bx, mut atoms) = crate::lattice::fcc_lattice(4, 4, 4, 5.3);
        init_velocities(&mut atoms, 30.0, 1);
        let lj = LennardJones::argon_like();
        let mut sim =
            Simulation::new(bx, atoms, Box::new(lj), VelocityVerlet::new(2.0 * FEMTOSECOND), 1.0, 50);
        let e0 = sim.thermo().etotal;
        let trace = sim.run(300);
        let e1 = trace.last().unwrap().etotal;
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 1e-4, "relative energy drift {drift}");
    }

    #[test]
    fn copper_nve_conserves_energy() {
        let (bx, mut atoms) = fcc_copper(5, 5, 5);
        init_velocities(&mut atoms, 300.0, 2);
        let sc = SuttonChen::copper(6.5);
        let mut sim = Simulation::new(bx, atoms, Box::new(sc), VelocityVerlet::new(FEMTOSECOND), 1.0, 50);
        let e0 = sim.thermo().etotal;
        let trace = sim.run(200);
        let e1 = trace.last().unwrap().etotal;
        assert!(((e1 - e0) / e0).abs() < 5e-5, "drift {}", ((e1 - e0) / e0).abs());
    }

    #[test]
    fn water_nve_conserves_energy_with_half_fs_step() {
        use crate::integrate::Thermostat;
        let (bx, mut atoms) = water_box(5, 5, 5, 5);
        init_velocities(&mut atoms, 300.0, 3);
        let w = WaterSurrogate::standard(6.0);
        // Equilibrate the lattice-built box first so the NVE segment starts
        // from a relaxed configuration (the paper's production runs do the
        // same; a fresh lattice releases potential energy violently).
        let mut eq = VelocityVerlet::new(0.5 * FEMTOSECOND);
        eq.thermostat = Thermostat::Rescale { t_target: 300.0 };
        let mut sim = Simulation::new(bx, atoms, Box::new(w), eq, 1.0, 50);
        sim.run(200);
        // The paper integrates water at 0.5 fs (stiff O–H bonds).
        sim.integrator.thermostat = Thermostat::None;
        let e0 = sim.step().etotal;
        let trace = sim.run(200);
        let e1 = trace.last().unwrap().etotal;
        let scale = sim.atoms.nlocal as f64; // per-atom drift
        let drift = ((e1 - e0) / scale).abs();
        assert!(drift < 2e-4, "per-atom drift {drift}");
    }

    #[test]
    fn thermo_snapshot_is_self_consistent_after_kick() {
        // Regression: the post-kick refresh used to update ke/etotal/T but
        // leave `pressure` carrying the pre-kick kinetic term. Every field
        // of the snapshot must describe the same (post-kick) state.
        let (bx, mut atoms) = crate::lattice::fcc_lattice(4, 4, 4, 5.3);
        init_velocities(&mut atoms, 120.0, 9);
        let lj = LennardJones::argon_like();
        let mut sim =
            Simulation::new(bx, atoms, Box::new(lj), VelocityVerlet::new(2.0 * FEMTOSECOND), 1.0, 50);
        for _ in 0..5 {
            let th = sim.step();
            let ke = kinetic_energy(&sim.atoms);
            assert_eq!(th.ke, ke);
            assert_eq!(th.etotal, th.pe + ke);
            assert_eq!(
                th.pressure,
                pressure_bar(&sim.atoms, &sim.bx, ke, sim.last_virial),
                "pressure must use the refreshed kinetic energy"
            );
        }
    }

    #[test]
    fn step_timing_is_recorded_and_phases_fit_in_total() {
        let (bx, mut atoms) = fcc_copper(4, 4, 4);
        init_velocities(&mut atoms, 100.0, 11);
        let sc = SuttonChen::copper(6.5);
        let mut sim = Simulation::new(bx, atoms, Box::new(sc), VelocityVerlet::new(FEMTOSECOND), 2.0, 50);
        assert_eq!(sim.timing().total_s, 0.0, "no timing before the first step");
        sim.step();
        let t = sim.timing();
        assert_eq!(t.step, 1);
        assert!(t.total_s > 0.0);
        assert!(t.force_s > 0.0, "force evaluation must be timed");
        assert!(t.phase_sum_s() <= t.total_s, "{} vs {}", t.phase_sum_s(), t.total_s);
        // Analytic potentials report no sub-phases.
        assert_eq!(t.phases, crate::potential::ForcePhases::default());
    }

    #[test]
    fn attach_obs_records_steps_and_a_well_nested_span_tree() {
        let (bx, mut atoms) = crate::lattice::fcc_lattice(3, 3, 3, 5.3);
        init_velocities(&mut atoms, 30.0, 1);
        let lj = LennardJones::argon_like();
        let mut sim =
            Simulation::new(bx, atoms, Box::new(lj), VelocityVerlet::new(2.0 * FEMTOSECOND), 1.0, 50);
        let reg = MetricsRegistry::new();
        let trace = TraceBuffer::new();
        sim.attach_obs(&reg, &trace);
        sim.run(3);
        // `timing()` is the last completed step; the cumulative wall
        // counters are the run totals it is one term of.
        let t = sim.timing();
        assert_eq!(t.step, 3);
        assert!(t.force_s > 0.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("minimd.steps"), Some(3));
        assert!(snap.counter("minimd.wall.force_ns").unwrap() >= (t.force_s * 1e9) as u64);
        let events = trace.events();
        assert_eq!(events.iter().filter(|e| e.name == "step").count(), 3);
        dpmd_obs::trace::validate_well_nested(&events).unwrap();
    }

    #[test]
    fn rebuild_cadence_is_respected() {
        let (bx, mut atoms) = fcc_copper(5, 5, 5);
        init_velocities(&mut atoms, 50.0, 4);
        let sc = SuttonChen::copper(6.5);
        let mut sim = Simulation::new(bx, atoms, Box::new(sc), VelocityVerlet::new(FEMTOSECOND), 2.0, 50);
        let builds0 = sim.nl.builds;
        sim.run(100);
        // Exactly two cadence rebuilds at steps 50 and 100 (cold atoms don't
        // drift past skin/2 in 100 fs).
        assert_eq!(sim.nl.builds - builds0, 2, "builds: {}", sim.nl.builds - builds0);
    }

    #[test]
    fn thermostat_equilibrates_water() {
        use crate::integrate::Thermostat;
        let (bx, mut atoms) = water_box(5, 5, 5, 6);
        init_velocities(&mut atoms, 300.0, 7);
        let w = WaterSurrogate::standard(6.0);
        let mut vv = VelocityVerlet::new(0.5 * FEMTOSECOND);
        vv.thermostat = Thermostat::Berendsen { t_target: 300.0, tau_ps: 0.01 };
        let mut sim = Simulation::new(bx, atoms, Box::new(w), vv, 1.0, 50);
        let trace = sim.run(600);
        let t_final = trace.last().unwrap().temperature;
        assert!((t_final - 300.0).abs() < 80.0, "T = {t_final}");
    }
}
