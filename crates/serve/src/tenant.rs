//! Tenants: the continuous scheduler's unit of admission. A tenant wraps
//! one replica trajectory with its service-level state — priority class,
//! optional step deadline, arrival/admission bookkeeping, and an optional
//! scripted pause that detaches it mid-flight.

use minimd::sim::{Simulation, Thermo};

use crate::queue::Priority;

/// Everything needed to attach a tenant, minus the simulation itself
/// (which the scheduler builds from its engine parts at attach time).
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Tenant id; also the seed offset (`parts.seed + id`), so a tenant is
    /// bit-comparable with a solo engine built from that seed.
    pub id: usize,
    /// Steps the tenant wants in total.
    pub steps: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Finish-by round. Soft: a miss is counted, never enforced by
    /// cancellation. Also the EDF key within a priority class.
    pub deadline: Option<u64>,
    /// Scripted mid-flight detach: `(pause_round, resume_round)` — the
    /// tenant leaves the running set at `pause_round` and re-enters the
    /// admission queue at `resume_round`.
    pub pause: Option<(u64, u64)>,
}

impl TenantSpec {
    /// A standard-priority spec with no deadline or pause.
    pub fn new(id: usize, steps: u64) -> Self {
        TenantSpec { id, steps, priority: Priority::Standard, deadline: None, pause: None }
    }
}

/// Where a tenant currently is in the service lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantState {
    /// Waiting in the admission queue.
    Queued,
    /// Stepping in the fused batch.
    Running,
    /// Detached mid-flight; re-enqueues at `resume_round`.
    Paused {
        /// Round at which the tenant rejoins the admission queue.
        resume_round: u64,
    },
    /// All steps done.
    Finished {
        /// Round the final step completed in.
        round: u64,
    },
}

/// One attached trajectory plus its service-level state.
pub struct Tenant {
    /// Tenant id (== seed offset; see [`TenantSpec::id`]).
    pub id: usize,
    /// The seed its initial state was drawn from (`parts.seed + id`).
    pub seed: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Finish-by round, if any.
    pub deadline: Option<u64>,
    /// Scripted pause window, if any.
    pub pause: Option<(u64, u64)>,
    /// Round the tenant joined the admission queue.
    pub arrival_round: u64,
    /// Round the tenant was first admitted to the running set.
    pub admitted_round: Option<u64>,
    /// Total rounds spent waiting in the queue (across re-queues).
    pub queue_wait_rounds: u64,
    /// Lifecycle state.
    pub state: TenantState,
    /// Steps this tenant should run in total.
    pub target_steps: u64,
    /// The underlying simulation.
    pub sim: Simulation,
    /// Thermo trace, one entry per completed step.
    pub trace: Vec<Thermo>,
    /// The sim was built deferred; its initial forces still need one
    /// (fused) evaluation before the first step.
    pub(crate) needs_init: bool,
}

impl Tenant {
    /// Steps completed so far.
    pub fn done_steps(&self) -> u64 {
        self.trace.len() as u64
    }

    /// Whether the tenant has run every step it asked for.
    pub fn finished(&self) -> bool {
        self.done_steps() >= self.target_steps
    }

    /// Whether the tenant finished after its deadline (always `false`
    /// without a deadline or before finishing).
    pub fn missed_deadline(&self) -> bool {
        match (self.state, self.deadline) {
            (TenantState::Finished { round }, Some(d)) => round > d,
            _ => false,
        }
    }
}
