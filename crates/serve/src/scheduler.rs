//! The fixed-membership batch scheduler: R replicas known up front, stepped
//! round-robin through one shared engine with fused force evaluation. This
//! is both the bench baseline and the determinism reference for the
//! continuous service in [`crate::continuous`].

use std::sync::Arc;

use deepmd::batch::{BatchJob, BatchWorkspace};
use deepmd::engine::DpEngine;
use dpmd_core::EngineParts;
use dpmd_obs::{Counter, Histogram, MetricsRegistry, TraceBuffer, Unit};
use minimd::sim::{Simulation, Thermo};
use minimd::vec3::Vec3;

use crate::queue::InFlightCap;
use crate::SharedDp;

/// Bucket edges for the `serve.batch.occupancy` histogram: the power-of-two
/// ladder plus the exact in-flight cap and fleet size, so a full-batch round
/// at the cap always lands in its own bucket instead of straddling an edge.
/// Sorted and deduplicated — the registry requires ascending bounds.
pub(crate) fn occupancy_bounds(cap: Option<usize>, fleet: usize) -> Vec<u64> {
    let mut b: Vec<u64> = vec![1, 2, 4, 8, 16, 32]; // dpmd-allow D7: histogram bounds built once per scheduler construction
    if let Some(c) = cap {
        b.push(c as u64);
    }
    if fleet > 0 {
        b.push(fleet as u64);
    }
    b.sort_unstable();
    b.dedup();
    b
}

/// One trajectory owned by the scheduler.
pub struct Replica {
    /// Replica index (also its position in the admission order).
    pub id: usize,
    /// The replica's seed (parts seed + id).
    pub seed: u64,
    /// The underlying simulation.
    pub sim: Simulation,
    /// Steps this replica should run in total.
    pub target_steps: u64,
    /// Thermo trace, one entry per completed step.
    pub trace: Vec<Thermo>,
}

impl Replica {
    /// Steps completed so far.
    pub fn done_steps(&self) -> u64 {
        self.trace.len() as u64
    }

    fn finished(&self) -> bool {
        self.done_steps() >= self.target_steps
    }
}

/// Metric handles registered by [`BatchScheduler::attach_obs`].
struct ServeObs {
    reg: MetricsRegistry,
    rounds: Counter,
    steps: Counter,
    fused_gemms: Counter,
    fused_rows: Counter,
    /// Registered lazily at the start of [`BatchScheduler::run`], once the
    /// in-flight cap is final — the registry fixes histogram bounds at first
    /// registration, and the cap must be one of them.
    occupancy: Option<Histogram>,
}

/// Scheduler state: R replicas stepping through one shared engine.
pub struct BatchScheduler {
    engine: Arc<DpEngine>,
    replicas: Vec<Replica>,
    /// Admission bound per round (backpressure).
    cap: InFlightCap,
    obs: Option<ServeObs>,
    workspace: BatchWorkspace,
}

impl BatchScheduler {
    /// Build `replicas` trajectories over one engine from resolved engine
    /// parts. Replica `r` uses seed `parts.seed + r` for its initial state,
    /// so replicas are distinct but individually reproducible. The paper's
    /// simulation settings (skin 2 Å, rebuild every 50 steps) match
    /// `dpmd-core`'s solo engine.
    pub fn new(parts: EngineParts, replicas: usize, steps_per_replica: u64) -> Self {
        let mut dp = DpEngine::new(parts.model.clone(), parts.precision);
        if let Some(n) = parts.threads {
            dp = dp.with_pool(Arc::new(dpmd_threads::ThreadPool::new(n)));
        }
        if let Some((reg, _)) = &parts.obs {
            dp.attach_obs(reg);
        }
        let engine = Arc::new(dp);
        let mut parts = parts;
        let base_seed = parts.seed;
        let reps = (0..replicas)
            .map(|id| {
                parts.seed = base_seed + id as u64;
                let (bx, atoms) = parts.initial_state();
                let vv = parts.integrator();
                let mut sim = Simulation::new(
                    bx,
                    atoms,
                    Box::new(SharedDp(Arc::clone(&engine))),
                    vv,
                    2.0,
                    50,
                );
                if let Some((reg, trace)) = &parts.obs {
                    sim.attach_obs(reg, trace);
                }
                Replica {
                    id,
                    seed: parts.seed,
                    sim,
                    target_steps: steps_per_replica,
                    trace: Vec::with_capacity(steps_per_replica as usize),
                }
            })
            .collect();
        let mut sched = BatchScheduler {
            engine,
            replicas: reps,
            cap: InFlightCap::All,
            obs: None,
            workspace: BatchWorkspace::new(),
        };
        if let Some((reg, trace)) = &parts.obs {
            sched.attach_obs(reg, trace);
        }
        sched
    }

    /// Bound the number of replicas admitted per round (backpressure),
    /// using the legacy count convention: `0` (the default) admits every
    /// unfinished replica. Prefer [`in_flight_cap`](Self::in_flight_cap),
    /// which makes "unlimited" explicit instead of a zero sentinel.
    pub fn max_in_flight(self, k: usize) -> Self {
        self.in_flight_cap(InFlightCap::from_legacy_count(k))
    }

    /// Bound the number of replicas admitted per round (backpressure).
    pub fn in_flight_cap(mut self, cap: InFlightCap) -> Self {
        self.cap = cap;
        self
    }

    /// Register `serve.*` metrics on `reg`. The occupancy histogram is
    /// deferred to [`run`](Self::run) so its bucket edges can include the
    /// final in-flight cap and fleet size.
    pub fn attach_obs(&mut self, reg: &MetricsRegistry, _trace: &TraceBuffer) {
        reg.gauge("serve.replicas", Unit::Count).set(self.replicas.len() as u64);
        self.obs = Some(ServeObs {
            reg: reg.clone(),
            rounds: reg.counter("serve.rounds", Unit::Count),
            steps: reg.counter("serve.steps", Unit::Count),
            fused_gemms: reg.counter("serve.batch.gemm.fused", Unit::Count),
            fused_rows: reg.counter("serve.batch.gemm.fused_rows", Unit::Count),
            occupancy: None,
        });
    }

    /// The replicas (inspect trajectories/thermo after running).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The shared engine.
    pub fn engine(&self) -> &DpEngine {
        &self.engine
    }

    /// Step every replica to its target with fused batch evaluation.
    /// Returns the number of scheduler rounds run.
    ///
    /// Occupancy is recorded once per round that admits at least one
    /// replica; empty rounds never reach the histogram (they end the run).
    pub fn run(&mut self) -> u64 {
        let mut rounds = 0u64;
        // The cap and fleet are final here, so the occupancy histogram can
        // now get bucket edges that contain both exactly.
        if let Some(o) = &mut self.obs {
            if o.occupancy.is_none() {
                let bounds = occupancy_bounds(self.cap.limit(), self.replicas.len()); // dpmd-allow D5: one-time registration before the round loop
                o.occupancy =
                    Some(o.reg.histogram("serve.batch.occupancy", Unit::Count, &bounds));
            }
        }
        // Round scratch, allocated once and reused every round: the hot
        // loop below runs once per step per fleet and must not allocate.
        let mut admitted: Vec<usize> = Vec::new(); // dpmd-allow D5: round scratch, reused across rounds
        let mut toks = Vec::new(); // dpmd-allow D5: round scratch, drained each round
        let mut force_bufs: Vec<Vec<Vec3>> = Vec::new(); // dpmd-allow D5: round scratch, drained each round
        loop {
            // Admission: the first `cap.bound()` unfinished replicas, in
            // replica order. Bounding here (rather than queueing every
            // replica's step) is the backpressure: a replica past the bound
            // simply isn't admitted until a slot frees up.
            let bound = self.cap.bound();
            admitted.clear();
            admitted.extend(
                self.replicas
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.finished())
                    .map(|(i, _)| i)
                    .take(bound),
            );
            if admitted.is_empty() {
                return rounds;
            }
            rounds += 1;

            // Phase A: first Verlet half + neighbour maintenance, per
            // replica, and hand the force buffers out of the atom arrays so
            // the simulations can be borrowed immutably by the batch jobs.
            for &ri in &admitted {
                let r = &mut self.replicas[ri];
                toks.push(r.sim.begin_step());
                let mut f = std::mem::take(&mut r.sim.atoms.force);
                f.fill(Vec3::ZERO);
                force_bufs.push(f);
            }

            // Phase B: one fused force evaluation over every admitted
            // replica.
            let t_force = dpmd_obs::clock::wall_now();
            let (outs, stats) = {
                // The jobs borrow every admitted replica for the duration of
                // the fused call, so the Vec cannot outlive the round.
                let mut jobs: Vec<BatchJob<'_>> = admitted
                    .iter()
                    .zip(force_bufs.iter_mut())
                    .map(|(&ri, forces)| {
                        let sim = &self.replicas[ri].sim;
                        BatchJob { atoms: &sim.atoms, nl: &sim.nl, bx: &sim.bx, forces }
                    })
                    .collect(); // dpmd-allow D5: per-round borrow of the replicas; cannot be stored across rounds
                self.engine.energy_forces_batched_with(&mut jobs, &mut self.workspace)
            };
            let t_force_end = dpmd_obs::clock::wall_now();

            // Phase C: restore forces and complete each admitted step. The
            // per-replica wall split of a fused evaluation isn't separable,
            // so each replica's series records the batch-aggregate phases.
            for (((&ri, tok), buf), out) in
                admitted.iter().zip(toks.drain(..)).zip(force_bufs.drain(..)).zip(outs)
            {
                let r = &mut self.replicas[ri];
                r.sim.atoms.force = buf;
                let thermo = r.sim.complete_step(out, stats.phases, (t_force, t_force_end), tok);
                r.trace.push(thermo);
            }

            if let Some(o) = &self.obs {
                o.rounds.inc();
                o.steps.add(admitted.len() as u64);
                o.fused_gemms.add(stats.fused_gemms);
                o.fused_rows.add(stats.fused_rows);
                if let Some(h) = &o.occupancy {
                    h.record(admitted.len() as u64);
                }
            }
        }
    }

    /// Step every replica to its target one at a time, each step its own
    /// single-job call of the force pipeline — the determinism reference
    /// and the bench baseline [`run`](Self::run) is compared against.
    pub fn run_sequential(&mut self) -> u64 {
        let mut steps = 0u64;
        for r in &mut self.replicas {
            while !r.finished() {
                let thermo = r.sim.step();
                r.trace.push(thermo);
                steps += 1;
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_bounds_contain_cap_and_fleet_exactly() {
        assert_eq!(occupancy_bounds(Some(3), 5), vec![1, 2, 3, 4, 5, 8, 16, 32]);
        assert_eq!(occupancy_bounds(None, 8), vec![1, 2, 4, 8, 16, 32]);
        // A cap on a ladder edge must not produce duplicate bounds.
        assert_eq!(occupancy_bounds(Some(8), 8), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(occupancy_bounds(Some(48), 64), vec![1, 2, 4, 8, 16, 32, 48, 64]);
    }
}
