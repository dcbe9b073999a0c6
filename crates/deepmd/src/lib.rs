//! # deepmd — the Deep Potential model
//!
//! A from-scratch implementation of the smooth-edition Deep Potential
//! (`se_a`) force field that DeePMD-kit executes, matching the architecture
//! in the paper's Fig. 1:
//!
//! 1. the **local environment matrix** `R̃_i` built from the neighbour list
//!    within cutoff `r_c`, smoothed by the switching function `s(r)`
//!    ([`descriptor`]);
//! 2. the **embedding net** mapping `s(r)` to an `M₁`-wide feature per
//!    neighbour, one net per neighbour species ([`embedding`]), optionally
//!    replaced by the tabulated **compressed** form of DP Compress
//!    ([`compress`]);
//! 3. the symmetry-preserving **descriptor** `D_i = (GᵀR̃)(R̃ᵀG₂)ᵀ/N²`
//!    (translation/rotation/permutation invariant — property-tested);
//! 4. the **fitting net** (240×240×240 in the paper) producing the atomic
//!    energy `E_i`; the total energy is `Σ_i E_i` and forces come from the
//!    analytic backward pass ([`model`]);
//! 5. **mixed-precision inference paths** (Double / MIX-fp32 / MIX-fp16)
//!    mirroring §III-B3 ([`engine`]);
//! 6. **training** against reference potentials standing in for AIMD labels
//!    (Adam, energy-matching loss) ([`train`], [`dataset`]);
//! 7. the **type-sorted layout** of multi-species systems: the mixed
//!    pipeline groups a central atom's neighbours by species into one
//!    stacked embedding GEMM per species (`DpEngine::embed_atom32`) and a
//!    tile's atoms by central species into one stacked fitting GEMM per
//!    species (`DpEngine::fit_tile`), scattering results back in place —
//!    no slice-and-concat copies.

pub mod batch;
pub mod compress;
pub mod config;
pub mod dataset;
pub mod descriptor;
pub mod embedding;
pub mod engine;
pub mod fitting;
pub mod graph_exec;
pub mod model;
pub mod train;

pub use config::DeepPotConfig;
pub use engine::DpEngine;
pub use model::DeepPotModel;
