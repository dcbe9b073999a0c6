//! # dpmd-repro
//!
//! Umbrella crate of the reproduction of *"Scaling Molecular Dynamics with
//! ab initio Accuracy to 149 Nanoseconds per Day"* (SC 2024). Re-exports
//! the whole workspace; see the individual crates for details:
//!
//! * [`nnet`] — neural-network substrate (f16, GEMMs, graph vs direct);
//! * [`minimd`] — the LAMMPS substrate (atoms, lists, potentials, domains);
//! * [`fugaku`] — the machine model (A64FX, TofuD, TNIs, event simulator);
//! * [`deepmd`] — the Deep Potential model (descriptor → forces, training);
//! * [`comm`] — communication schemes (3-stage, p2p, node-based, mempool);
//! * [`balance`] — intra-node load balancing;
//! * [`obs`] — observability (metrics registry, span tracing, Chrome-trace
//!   export; recording is attached per object at run time);
//! * [`scaling`] — time-to-solution model and per-figure experiments;
//! * [`core`] — the public engine/performance API.
//!
//! Quickstart: `cargo run --release --example quickstart`.

pub use deepmd;
pub use dpmd_balance as balance;
pub use dpmd_comm as comm;
pub use dpmd_core as core;
pub use dpmd_obs as obs;
pub use dpmd_scaling as scaling;
pub use fugaku;
pub use minimd;
pub use nnet;

/// Crate version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The paper's headline result, for reference in docs and sanity tests.
pub mod headline {
    /// Copper ns/day on 12,000 nodes (paper Table I / Fig. 11).
    pub const PAPER_CU_NSDAY: f64 = 149.0;
    /// Water ns/day on 12,000 nodes.
    pub const PAPER_H2O_NSDAY: f64 = 68.5;
    /// Copper speedup over the Fugaku baseline.
    pub const PAPER_CU_SPEEDUP: f64 = 31.7;
    /// Water speedup.
    pub const PAPER_H2O_SPEEDUP: f64 = 32.6;
    /// Parallel efficiency at 12,000 nodes (copper, water).
    pub const PAPER_EFFICIENCY: (f64, f64) = (0.623, 0.579);
}
