//! # dpmd-balance — intra-node load balance (paper §III-C)
//!
//! At the strong-scaling limit (~1 atom/core) the per-rank atom counts of a
//! uniform-density system still fluctuate wildly because each sub-box is
//! tiny. The paper pools the four ranks of a node ("node-box") and splits
//! the pooled atoms evenly across the node's 48 threads. This crate
//! implements:
//!
//! * [`stats`] — min/avg/max and the SDMR metric (standard deviation to
//!   mean ratio) used throughout Table III;
//! * [`assign`] — the two assignment policies (per-rank sub-box ownership
//!   vs node-box even split) down to thread granularity;
//! * [`pair_time`] — the pair-phase time model (atom-by-atom evaluation:
//!   a rank is as slow as its busiest thread);
//! * [`ghost`] — the memory-overhead analysis, equations (1) and (2).

pub mod assign;
pub mod ghost;
pub mod pair_time;
pub mod stats;

pub use assign::{lb_rank_loads, nolb_rank_loads};
pub use stats::{sdmr, Summary};
