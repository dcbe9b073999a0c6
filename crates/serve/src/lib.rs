//! # dpmd-serve — batched multi-replica MD, fixed-fleet and continuous
//!
//! One process, many independent trajectories, one shared [`DpEngine`].
//! Each scheduler round runs the first Verlet half of every admitted
//! replica, then evaluates **all admitted replicas' forces in one fused
//! call** ([`DpEngine::energy_forces_batched`]) before completing their
//! steps. The fused call is the engine's one force pipeline fed one job
//! per replica: every replica is cut into tiles of a few atoms, and the
//! tiles of all replicas share one embedding pass and one fitting pass on
//! the pool (type-sorted stacked GEMMs inside each tile, never across
//! replicas).
//!
//! Two front ends share that fused round:
//!
//! - [`BatchScheduler`] (module [`scheduler`]): a fixed fleet known up
//!   front, stepped round-robin to completion. The bench baseline and the
//!   determinism reference.
//! - [`ContinuousScheduler`] (module [`continuous`]): a long-running
//!   multi-tenant service. Tenants ([`tenant`]) attach and detach
//!   mid-flight through a priority/deadline-ordered [`AdmissionQueue`]
//!   ([`queue`]) with typed backpressure ([`AdmitError`]), driven by a
//!   deterministic seed-derived arrival script ([`script`]) because wall
//!   clocks are banned on deterministic paths (analyzer rule D4).
//!
//! **Determinism guarantee:** every replica/tenant trajectory is
//! bit-identical to the same seed stepped solo
//! ([`BatchScheduler::run_sequential`]), at any batch size, in-flight cap
//! ([`InFlightCap`]), priority class, arrival schedule, and thread-pool
//! width. Batching changes *when* GEMMs run, never *what* they compute;
//! per-replica integration state never leaves its own `Simulation`.
//! Enforced end-to-end by `tests/batch_determinism.rs` and
//! `tests/serve_continuous.rs`.
//!
//! Metrics (when observing): `serve.replicas` (gauge), `serve.rounds` /
//! `serve.steps` / `serve.batch.gemm.fused` / `serve.batch.gemm.fused_rows`
//! (counters) and `serve.batch.occupancy` (histogram) from the fixed-fleet
//! scheduler; `serve.cont.*` (rounds, steps, admissions, rejections,
//! detaches, deadline_missed, occupancy), `serve.queue.depth` /
//! `serve.queue.wait_rounds`, and per-tenant
//! `serve.tenant.NNN.{steps,queue_wait_rounds}` from the continuous
//! service. Occupancy histograms register their bucket edges once the cap
//! and fleet are known, so full-batch rounds at the cap land in a dedicated
//! bucket; idle (zero-admission) rounds are never recorded as occupancy.

// Enforced workspace-wide (dpmd-analyze rule D3 audits the exception
// in dpmd-threads); everything else is safe Rust by construction.
#![forbid(unsafe_code)]

pub mod continuous;
pub mod queue;
pub mod scheduler;
pub mod script;
pub mod tenant;

pub use continuous::{ContinuousScheduler, ScriptOutcome};
pub use queue::{AdmissionQueue, AdmitError, InFlightCap, Priority, QueueEntry};
pub use scheduler::{BatchScheduler, Replica};
pub use script::ArrivalScript;
pub use tenant::{Tenant, TenantSpec, TenantState};

use std::sync::Arc;

use deepmd::engine::DpEngine;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, Potential, PotentialOutput};
use minimd::simbox::SimBox;

/// A [`Potential`] that delegates to a shared engine, so many
/// [`Simulation`](minimd::sim::Simulation)s can run over one set of
/// weights. Used for each replica's initial force evaluation and for the
/// sequential (solo) stepping path; the batched path bypasses `compute`
/// and calls the engine directly.
pub(crate) struct SharedDp(pub(crate) Arc<DpEngine>);

impl Potential for SharedDp {
    fn compute(&self, atoms: &mut Atoms, nl: &NeighborList, bx: &SimBox) -> PotentialOutput {
        self.0.compute(atoms, nl, bx)
    }

    fn cutoff(&self) -> f64 {
        self.0.cutoff()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn phase_times(&self) -> Option<ForcePhases> {
        self.0.last_phases()
    }
}
