//! # dpmd-core — the public API of the reproduction
//!
//! One façade over the whole stack: build or train a Deep Potential model,
//! run *functional* molecular dynamics with it at any of the paper's
//! precision modes, and predict *at-scale performance* (ns/day) for any
//! Fugaku topology and optimization level.
//!
//! ```no_run
//! use dpmd_core::prelude::*;
//!
//! // Functional MD: a small copper box, MIX-fp32 inference.
//! let engine = Engine::builder()
//!     .copper_cells(3)
//!     .precision(Precision::Mix32)
//!     .temperature(300.0)
//!     .build();
//! let trace = engine.simulate(100);
//! println!("final T = {:.1} K", trace.last().unwrap().temperature);
//!
//! // Performance prediction: the paper's headline configuration.
//! let perf = Performance::new(SystemSpec::copper());
//! let nsday = perf.nsday([20, 30, 20], OptLevel::CommLb);
//! println!("predicted {nsday:.0} ns/day on 12,000 nodes");
//! ```

pub mod engine;
pub mod performance;

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::engine::{run_faulted_md, Engine, EngineBuilder, EngineParts, FaultedMdReport};
    pub use crate::performance::Performance;
    pub use dpmd_comm::fault::{FaultPlan, FaultStats};
    pub use dpmd_comm::functional::ExchangeScheme;
    pub use deepmd::config::DeepPotConfig;
    pub use deepmd::model::DeepPotModel;
    pub use dpmd_scaling::kernels::OptLevel;
    pub use dpmd_scaling::systems::SystemSpec;
    pub use dpmd_obs::{MetricsRegistry, TraceBuffer};
    pub use minimd::sim::{StepTiming, Thermo};
    pub use nnet::precision::Precision;
}

pub use engine::{Engine, EngineBuilder, EngineParts, REBUILD_EVERY, SKIN_A};
pub use performance::Performance;
