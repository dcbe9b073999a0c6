//! # dpmd-serve — many MD trajectories through one shared engine
//!
//! One process, many independent trajectories, one shared [`DpEngine`].
//! Each scheduler round runs the first Verlet half of every admitted
//! tenant, then evaluates **all admitted tenants' forces in one fused
//! call** ([`DpEngine::energy_forces_batched`]) before completing their
//! steps. The fused call is the engine's one force pipeline fed one job
//! per tenant: every tenant is cut into tiles of a few atoms, and the
//! tiles of all tenants share one pool scope, each tile embedding and
//! fitting its own atoms (type-sorted stacked GEMMs inside each tile,
//! never across tenants).
//!
//! [`ContinuousScheduler`] (module [`continuous`]) is the only step loop:
//! a long-running multi-tenant service. Tenants ([`tenant`]) attach and
//! detach mid-flight through a priority/deadline-ordered
//! [`AdmissionQueue`] ([`queue`]) with typed backpressure
//! ([`AdmitError`]), driven by a deterministic seed-derived arrival script
//! ([`script`]) because wall clocks are banned on deterministic paths
//! (the `clippy.toml` clock ban). A fixed fleet of R replicas × S steps is the script
//! [`ArrivalScript::fixed`]`(R, S)` — everyone arrives in round 1 — and
//! "one trajectory at a time" is [`InFlightCap::AtMost`]`(1)`.
//!
//! **Determinism guarantee:** every tenant trajectory is bit-identical to
//! the same seed stepped solo (its own `dpmd_core::Engine`, its own pool),
//! at any fleet size, in-flight cap ([`InFlightCap`]), priority class,
//! arrival schedule, and thread-pool width. Batching changes *when* GEMMs
//! run, never *what* they compute; per-tenant integration state never
//! leaves its own `Simulation`. Enforced end-to-end by
//! `tests/serve_continuous.rs`.
//!
//! Metrics (when observing): `serve.cont.*` (rounds, steps, admissions,
//! rejections, detaches, deadline_missed, gemm.fused, gemm.fused_rows,
//! occupancy), `serve.queue.depth` / `serve.queue.wait_rounds`, and the
//! per-class aggregates
//! `serve.class.{interactive,standard,batch}.{steps,queue_wait_rounds}` —
//! a fixed key set however many tenants attach (per-tenant numbers are
//! fields of [`Tenant`]). The occupancy histogram registers its bucket
//! edges once the cap and fleet are known, so full-batch rounds at the cap
//! land in a dedicated bucket; idle (zero-admission) rounds are never
//! recorded as occupancy.

pub mod continuous;
pub mod queue;
pub mod script;
pub mod tenant;

pub use continuous::{ContinuousScheduler, ScriptOutcome};
pub use queue::{AdmissionQueue, AdmitError, InFlightCap, Priority, QueueEntry};
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
/// weights. The scheduler's fused rounds bypass `compute` and call the
/// engine directly; the trait object supplies the cutoff and phase times.
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
