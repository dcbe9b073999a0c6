//! The continuous-batching MD service: a long-running scheduler where
//! tenants attach and detach mid-flight, ordered by priority class and
//! deadline, with typed backpressure at the admission queue.
//!
//! The LLM-serving insight transplanted to MD: a fixed round-robin loop
//! lets the fused rounds drain as replicas finish, while continuous batching
//! refills the batch every round from an admission queue, keeping the
//! pool's passes full of tiles for the whole run. Time is a **logical
//! round counter** — wall clocks are banned on deterministic paths
//! (the `clippy.toml` clock ban), so arrivals, deadlines, and pauses are all specified
//! in rounds (see [`crate::script`]).
//!
//! **Determinism guarantee (the hard bar):** every tenant's trajectory is
//! bit-identical to the same seed stepped solo, regardless of when it
//! attached, who shared its fused rounds, its priority class, or the
//! in-flight cap. Scheduling changes *when* a tenant's GEMM rows run,
//! never *what* they compute. Enforced by `tests/serve_continuous.rs`.

use std::sync::Arc;
use std::time::Instant;

use deepmd::batch::{BatchEvalStats, BatchJob};
use deepmd::engine::DpEngine;
use dpmd_core::{EngineParts, REBUILD_EVERY, SKIN_A};
use dpmd_obs::{Counter, Gauge, Histogram, MetricsRegistry, Unit};
use minimd::potential::PotentialOutput;
use minimd::sim::{Simulation, StepInFlight};
use minimd::vec3::Vec3;

use crate::queue::{AdmissionQueue, AdmitError, InFlightCap, Priority, QueueEntry};
use crate::script::ArrivalScript;
use crate::tenant::{Tenant, TenantSpec, TenantState};
use crate::SharedDp;

/// Bucket edges for the `serve.cont.occupancy` histogram: the power-of-two
/// ladder plus the exact in-flight cap and fleet size, so a full-batch round
/// at the cap always lands in its own bucket instead of straddling an edge.
/// Sorted and deduplicated — the registry requires ascending bounds.
fn occupancy_bounds(cap: Option<usize>, fleet: usize) -> Vec<u64> {
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

/// Metric handles for the service (`serve.cont.*`, `serve.queue.*`, and the
/// per-class aggregates `serve.class.*`, indexed by [`Priority::rank`]).
/// Nothing is registered per tenant, so the metric key set does not depend
/// on how many tenants attach.
struct ContObs {
    reg: MetricsRegistry,
    rounds: Counter,
    steps: Counter,
    fused_gemms: Counter,
    fused_rows: Counter,
    admissions: Counter,
    rejections: Counter,
    detaches: Counter,
    deadline_missed: Counter,
    queue_depth: Gauge,
    queue_wait: Histogram,
    class_steps: [Counter; 3],
    class_queue_wait: [Counter; 3],
    /// Registered lazily on the first tick, once the cap is known (the
    /// registry fixes histogram bounds at first registration).
    occupancy: Option<Histogram>,
}

/// Outcome of driving a full [`ArrivalScript`] to completion.
#[derive(Clone, Debug)]
pub struct ScriptOutcome {
    /// Logical rounds the service ran.
    pub rounds: u64,
    /// Tenant ids whose scripted arrival was refused by queue backpressure
    /// (dropped, per script semantics — the typed-rejection path).
    pub rejected: Vec<usize>,
}

/// The long-running multi-tenant scheduler.
pub struct ContinuousScheduler {
    engine: Arc<DpEngine>,
    parts: EngineParts,
    base_seed: u64,
    cap: InFlightCap,
    queue: AdmissionQueue,
    tenants: Vec<Tenant>,
    /// Tenant indices currently in the fused batch, sorted ascending (the
    /// canonical fused-job order).
    running: Vec<usize>,
    round: u64,
    obs: Option<ContObs>,
    // Tick scratch, allocated once here and reused every round.
    admit_scratch: Vec<QueueEntry>,
    toks: Vec<StepInFlight>,
    force_bufs: Vec<Vec<Vec3>>,
    finished_scratch: Vec<usize>,
    init_scratch: Vec<usize>,
}

impl ContinuousScheduler {
    /// An empty service over one shared engine built from `parts`. Tenant
    /// `id` will draw its initial state from seed `parts.seed + id`, so its
    /// solo reference is an [`Engine`](dpmd_core::Engine) built with that
    /// seed.
    pub fn new(parts: EngineParts, cap: InFlightCap, queue_capacity: usize) -> Self {
        let class_counters = |reg: &MetricsRegistry, what: &str| {
            [Priority::Interactive, Priority::Standard, Priority::Batch]
                .map(|c| reg.counter(&format!("serve.class.{c}.{what}"), Unit::Count))
        };
        let obs = parts.obs.as_ref().map(|(reg, _)| ContObs {
            reg: reg.clone(),
            rounds: reg.counter("serve.cont.rounds", Unit::Count),
            steps: reg.counter("serve.cont.steps", Unit::Count),
            fused_gemms: reg.counter("serve.cont.gemm.fused", Unit::Count),
            fused_rows: reg.counter("serve.cont.gemm.fused_rows", Unit::Count),
            admissions: reg.counter("serve.cont.admissions", Unit::Count),
            rejections: reg.counter("serve.cont.rejections", Unit::Count),
            detaches: reg.counter("serve.cont.detaches", Unit::Count),
            deadline_missed: reg.counter("serve.cont.deadline_missed", Unit::Count),
            queue_depth: reg.gauge("serve.queue.depth", Unit::Count),
            queue_wait: reg.histogram(
                "serve.queue.wait_rounds",
                Unit::Count,
                &[0, 1, 2, 4, 8, 16, 32],
            ),
            class_steps: class_counters(reg, "steps"),
            class_queue_wait: class_counters(reg, "queue_wait_rounds"),
            occupancy: None,
        });
        let base_seed = parts.seed;
        ContinuousScheduler {
            engine: Arc::new(parts.dp_engine()),
            parts,
            base_seed,
            cap,
            queue: AdmissionQueue::bounded(queue_capacity),
            tenants: Vec::new(),
            running: Vec::new(),
            round: 0,
            obs,
            admit_scratch: Vec::new(),
            toks: Vec::new(),
            force_bufs: Vec::new(),
            finished_scratch: Vec::new(),
            init_scratch: Vec::new(),
        }
    }

    /// The logical round clock (ticks completed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// All tenants ever attached, in attach order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Tenants waiting for admission right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Attach a new tenant: build its simulation from the shared parts
    /// (seed `base + spec.id`) and enqueue it for admission at the next
    /// tick. Refused with typed [`AdmitError::Backpressure`] — not a panic,
    /// and no tenant state is created — when the admission queue is full.
    pub fn attach(&mut self, spec: TenantSpec) -> Result<usize, AdmitError> {
        let idx = self.tenants.len();
        if let Err(e) = self.queue.enqueue(idx, spec.priority, spec.deadline, self.round + 1) {
            if let Some(o) = &self.obs {
                o.rejections.inc();
            }
            return Err(e);
        }
        self.parts.seed = self.base_seed + spec.id as u64;
        let (bx, atoms) = self.parts.initial_state();
        let vv = self.parts.integrator();
        // Deferred construction: the initial force evaluation happens in
        // the tenant's first admitted round, fused with every other
        // newcomer's — even initialization rides the batched GEMMs.
        let mut sim = Simulation::new_deferred(
            bx,
            atoms,
            Box::new(SharedDp(Arc::clone(&self.engine))),
            vv,
            SKIN_A,
            REBUILD_EVERY,
        );
        if let Some((reg, trace)) = &self.parts.obs {
            sim.attach_obs(reg, trace);
        }
        self.tenants.push(Tenant {
            id: spec.id,
            seed: self.parts.seed,
            priority: spec.priority,
            deadline: spec.deadline,
            pause: spec.pause,
            arrival_round: self.round + 1,
            admitted_round: None,
            queue_wait_rounds: 0,
            state: TenantState::Queued,
            target_steps: spec.steps,
            sim,
            trace: Vec::with_capacity(spec.steps as usize),
            needs_init: true,
        });
        Ok(idx)
    }

    /// Advance the service one logical round: resume due pauses, detach
    /// scripted pauses, admit from the queue up to the in-flight cap, run
    /// one fused step over the running set, and retire finished tenants.
    /// Returns the number of tenants stepped this round (0 for an idle
    /// round — which records no occupancy sample).
    pub fn tick(&mut self) -> usize {
        self.round += 1;
        let round = self.round;
        if let Some(o) = &mut self.obs {
            if o.occupancy.is_none() {
                let bounds = occupancy_bounds(self.cap.limit(), self.tenants.len()); // dpmd-allow D5: one-time registration on the first tick
                o.occupancy =
                    Some(o.reg.histogram("serve.cont.occupancy", Unit::Count, &bounds));
            }
        }

        // (1) Paused tenants whose window expired re-enter the queue (in
        // tenant-index order — deterministic). A full queue leaves them
        // paused to retry next round.
        for idx in 0..self.tenants.len() {
            if let TenantState::Paused { resume_round } = self.tenants[idx].state {
                if resume_round <= round {
                    let (prio, deadline) =
                        (self.tenants[idx].priority, self.tenants[idx].deadline);
                    match self.queue.enqueue(idx, prio, deadline, round) {
                        Ok(_) => self.tenants[idx].state = TenantState::Queued,
                        Err(_) => {
                            if let Some(o) = &self.obs {
                                o.rejections.inc();
                            }
                            self.tenants[idx].state =
                                TenantState::Paused { resume_round: round + 1 };
                        }
                    }
                }
            }
        }

        // (2) Scripted pauses detach mid-flight before admission, so the
        // freed slot is available this same round.
        let mut i = 0;
        while i < self.running.len() {
            let idx = self.running[i];
            let t = &mut self.tenants[idx];
            if let Some((pause_round, resume_round)) = t.pause {
                if pause_round == round && !t.finished() {
                    t.state = TenantState::Paused { resume_round };
                    self.running.swap_remove(i);
                    if let Some(o) = &self.obs {
                        o.detaches.inc();
                    }
                    continue;
                }
            }
            i += 1;
        }

        // (3) Admission: fill free slots in (priority, deadline, arrival)
        // order.
        let free = self.cap.bound().saturating_sub(self.running.len());
        self.admit_scratch.clear();
        self.queue.admit_up_to(free, &mut self.admit_scratch);
        for e in &self.admit_scratch {
            let t = &mut self.tenants[e.tenant];
            t.state = TenantState::Running;
            if t.admitted_round.is_none() {
                t.admitted_round = Some(round);
            }
            let wait = round - e.enqueued_round;
            t.queue_wait_rounds += wait;
            if let Some(o) = &self.obs {
                o.admissions.inc();
                o.queue_wait.record(wait);
                o.class_queue_wait[t.priority.rank() as usize].add(wait);
            }
            self.running.push(e.tenant);
        }
        // Canonical fused-job order: ascending tenant index. The fused
        // batch is row-independent, so this is presentation-only — but a
        // fixed order keeps profiles and traces replayable.
        self.running.sort_unstable();
        if let Some(o) = &self.obs {
            o.rounds.inc();
            o.queue_depth.set(self.queue.len() as u64);
        }
        if self.running.is_empty() {
            // Idle round (waiting on arrivals or resumes): no occupancy
            // sample — zero-admission rounds never reach the histogram.
            return 0;
        }
        let stepped = self.running.len();

        // Phase A0: newcomers' initial force evaluations, one fused call.
        // `new_deferred` left their force arrays zeroed; the fused
        // evaluation is bit-identical to the solo evaluation
        // `Simulation::new` would have run, so even initialization rides
        // the batched GEMMs without touching the determinism bar.
        self.init_scratch.clear();
        for &idx in &self.running {
            if self.tenants[idx].needs_init {
                self.init_scratch.push(idx);
            }
        }
        if !self.init_scratch.is_empty() {
            let (outs, stats, _) = fused_forces(
                &self.engine,
                &mut self.tenants,
                &self.init_scratch,
                &mut self.force_bufs,
            );
            for (&idx, out) in self.init_scratch.iter().zip(outs) {
                let t = &mut self.tenants[idx];
                t.sim.initialize_forces(out);
                t.needs_init = false;
            }
            if let Some(o) = &self.obs {
                o.fused_gemms.add(stats.fused_gemms);
                o.fused_rows.add(stats.fused_rows);
            }
        }

        // Phase A: first Verlet half + neighbour maintenance per tenant.
        for &idx in &self.running {
            self.toks.push(self.tenants[idx].sim.begin_step());
        }

        // Phase B: one fused force evaluation over the whole running set.
        let (outs, stats, force_span) =
            fused_forces(&self.engine, &mut self.tenants, &self.running, &mut self.force_bufs);

        // Phase C: complete steps, retire finished tenants. The per-tenant
        // wall split of a fused evaluation isn't separable, so each
        // tenant's series records the batch-aggregate phases.
        self.finished_scratch.clear();
        for ((&idx, tok), out) in self.running.iter().zip(self.toks.drain(..)).zip(outs) {
            let t = &mut self.tenants[idx];
            let thermo = t.sim.complete_step(out, stats.phases, force_span, tok);
            t.trace.push(thermo);
            if let Some(o) = &self.obs {
                o.class_steps[t.priority.rank() as usize].inc();
            }
            if t.finished() {
                t.state = TenantState::Finished { round };
                self.finished_scratch.push(idx);
            }
        }
        for &idx in &self.finished_scratch {
            if let Some(pos) = self.running.iter().position(|&r| r == idx) {
                self.running.swap_remove(pos);
            }
            if let Some(o) = &self.obs {
                o.detaches.inc();
                if self.tenants[idx].missed_deadline() {
                    o.deadline_missed.inc();
                }
            }
        }

        if let Some(o) = &self.obs {
            o.steps.add(stepped as u64);
            o.fused_gemms.add(stats.fused_gemms);
            o.fused_rows.add(stats.fused_rows);
            if let Some(h) = &o.occupancy {
                h.record(stepped as u64);
            }
        }
        stepped
    }

    /// Whether every attached tenant has finished and nothing is queued or
    /// running.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.running.is_empty()
            && self.tenants.iter().all(|t| matches!(t.state, TenantState::Finished { .. }))
    }

    /// Drive a full [`ArrivalScript`]: attach each tenant at its scripted
    /// round, tick until every attached tenant finishes. A scripted arrival
    /// refused by queue backpressure is dropped and reported (the typed
    /// rejection is the point — nothing panics, nothing silently queues).
    pub fn run_script(&mut self, script: &ArrivalScript) -> ScriptOutcome {
        let schedule = script.schedule();
        let mut next = 0;
        let mut rejected = Vec::new();
        loop {
            let upcoming = self.round + 1;
            while next < schedule.len() && schedule[next].0 <= upcoming {
                let spec = schedule[next].1;
                if self.attach(spec).is_err() {
                    rejected.push(spec.id);
                }
                next += 1;
            }
            if next >= schedule.len() && self.idle() {
                return ScriptOutcome { rounds: self.round, rejected };
            }
            self.tick();
        }
    }
}

/// One fused force evaluation over `tenants[idxs]`, in `idxs` order: each
/// tenant's force array leaves its atoms zeroed so the batch jobs can
/// borrow the simulations immutably, the engine evaluates every job in one
/// call, and the arrays go back holding the new forces. Returns the
/// per-tenant outputs, the call's statistics and its wall-clock span.
#[expect(clippy::disallowed_methods, reason = "WallNs timing")]
fn fused_forces(
    engine: &DpEngine,
    tenants: &mut [Tenant],
    idxs: &[usize],
    force_bufs: &mut Vec<Vec<Vec3>>,
) -> (Vec<PotentialOutput>, BatchEvalStats, (Instant, Instant)) {
    for &idx in idxs {
        let mut f = std::mem::take(&mut tenants[idx].sim.atoms.force);
        f.fill(Vec3::ZERO);
        force_bufs.push(f);
    }
    let t_force = Instant::now();
    let (outs, stats) = {
        let mut jobs: Vec<BatchJob<'_>> = idxs
            .iter()
            .zip(force_bufs.iter_mut())
            .map(|(&idx, forces)| {
                let sim = &tenants[idx].sim;
                BatchJob { atoms: &sim.atoms, nl: &sim.nl, bx: &sim.bx, forces }
            })
            .collect(); // dpmd-allow D7: per-round borrow of the tenants; cannot be stored across rounds
        engine.energy_forces_batched(&mut jobs)
    };
    let t_force_end = Instant::now();
    for (&idx, buf) in idxs.iter().zip(force_bufs.drain(..)) {
        tenants[idx].sim.atoms.force = buf;
    }
    (outs, stats, (t_force, t_force_end))
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
