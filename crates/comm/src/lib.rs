//! # dpmd-comm — ghost-region communication over the simulated Fugaku
//!
//! Implements the three communication organizations compared in the paper's
//! Fig. 7, plus the supporting machinery:
//!
//! * [`plan`] — halo *plans* computed from real atom positions and the
//!   domain decomposition: which atoms each rank/node must ship where, in
//!   how many messages, of what size;
//! * [`three_stage`] — LAMMPS' staged exchange (x then y then z, `N_d`
//!   rounds per direction), over MPI or uTofu;
//! * [`p2p`] — direct rank-to-rank exchange with every stencil neighbour;
//! * [`node_based`] — the paper's contribution: per-node aggregation
//!   through shared memory, leader ranks (1, 2 or 4), RDMA to neighbouring
//!   nodes' leaders with one thread per TNI, receive-side scatter, and the
//!   reverse (force-reduction) path;
//! * [`mempool`] — the RDMA memory-pool experiment (Fig. 8): per-neighbour
//!   buffer registration vs one pooled region, against the NIC cache model,
//!   plus the functional [`MemPool`] accounting allocator (exhaustion is a
//!   retriable error, never a panic);
//! * [`driver`] — a functional distributed MD driver (exchange → compute →
//!   reverse → integrate → migrate) pinned against the single-box
//!   trajectory;
//! * [`functional`] — an in-process *functional* ghost exchange that
//!   actually moves atoms between per-rank stores, used to prove all
//!   schemes deliver identical ghost sets (the correctness side of the
//!   performance story). One body per direction; metrics and the fault
//!   layer are optional arguments to it, not separate entry points;
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`]):
//!   drop/duplicate/reorder/delay individual exchange messages, stall a
//!   leader rank or TNI, cap the RDMA mempool — every decision keyed off
//!   `(seed, step, edge, attempt)` so a scenario replays bit-identically;
//! * [`transport`] — the recovery protocol over that faulty transport:
//!   per-edge sequence numbers, timeout/retry/backoff, idempotent apply;
//! * [`metrics`] — the [`CommMetrics`] handle bundle wiring all of the
//!   above into a `dpmd_obs::MetricsRegistry` (messages/bytes per edge and
//!   per scheme, transport retries and backoffs, mempool high-water, TNI
//!   utilization). The driver owns the only copy and lends it per call.

pub mod driver;
pub mod fault;
pub mod functional;
pub mod mempool;
pub mod metrics;
pub mod node_based;
pub mod p2p;
pub mod plan;
pub mod three_stage;
pub mod transport;

pub use fault::{FaultPlan, FaultSession, FaultStats, Stall, StallTarget};
pub use mempool::{MemPool, PoolBlock, PoolError};
pub use metrics::CommMetrics;
pub use node_based::{NodeSchemeConfig, NodeSchemeResult};
pub use plan::{HaloPlan, ATOM_FORWARD_BYTES, ATOM_REVERSE_BYTES};
pub use transport::{deliver_reliable, DeliveryError, Message, TransportError};
