//! # fugaku — the machine substrate
//!
//! A performance model of the Fugaku supercomputer, built so the paper's
//! communication and scaling experiments can run without the machine:
//!
//! * [`a64fx`] — the A64FX SoC: 4 CMGs × 12 compute cores, SVE-512 FLOP
//!   rates, HBM2 bandwidth, and the ring-bus NoC connecting CMGs and the
//!   TofuD controller;
//! * [`tofu`] — the TofuD interconnect: 6-D torus coordinates (12-node
//!   cells), the logical 3-D torus mapping used by domain-decomposition
//!   codes, hop counting, link parameters;
//! * [`tni`] — the six Tofu Network Interfaces (RDMA engines) per node and
//!   their serialization behaviour;
//! * [`niccache`] — the NIC's connection/memory-region cache with LRU
//!   eviction and main-memory-refill penalty (the mechanism behind the
//!   paper's RDMA memory pool, Fig. 8);
//! * [`utofu`] — software overheads of the uTofu one-sided API vs MPI;
//! * [`collectives`] — allreduce/barrier time models (the per-step thermo
//!   reduction LAMMPS issues);
//! * [`event`] — a deterministic discrete-event / list-scheduling engine:
//!   jobs with dependencies compete for resources (TNIs, NoC ports, links),
//!   producing completion times for arbitrary communication schedules;
//! * [`machine`] — a bundled [`machine::MachineConfig`] with Fugaku defaults
//!   used by every experiment.
//!
//! All times are nanoseconds (`u64`); all sizes bytes. Constants come from
//! published Fugaku/A64FX/TofuD specifications and the paper's own
//! measurements (e.g. 0.49 µs put latency, 4 ms TF session overhead).

pub mod a64fx;
pub mod collectives;
pub mod event;
pub mod machine;
pub mod niccache;
pub mod tni;
pub mod tofu;
pub mod utofu;

pub use event::{JobGraph, JobId, ResourceId};
pub use machine::MachineConfig;
