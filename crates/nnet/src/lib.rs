//! # nnet — neural-network substrate
//!
//! A from-scratch neural-network substrate for the DeePMD reproduction:
//!
//! * [`f16`] — IEEE 754 binary16 conversion with round-to-nearest-even,
//!   the operand rounding of the paper's fp16 fitting-net GEMM;
//! * [`matrix`] — a dense row-major f64 matrix;
//! * [`gemm`] — the `naive` reference fold (all f64 arithmetic runs on
//!   it) and the one f32 kernel (`dpmd-simd`'s `mul_add` fold, the same
//!   bits on every host), which on operands rounded through binary16 is
//!   the fp16-storage/fp32-accumulate GEMM of the `MIX-fp16` path;
//! * [`activation`] — the activations Deep Potential models use (`tanh`,
//!   and the identity of output layers);
//! * [`layers`] — fully connected layers with analytic backward passes (the
//!   f64 model and the trainer);
//! * [`graph`] — a small computation-graph runtime standing in for the
//!   TensorFlow 2.2 baseline (sessions, per-run scheduling overhead, autodiff
//!   that materializes redundant gradient kernels) — and, because that
//!   autodiff is generic, an independent derivation to check the
//!   hand-written backward passes against;
//! * [`init`] — deterministic weight initialization;
//! * [`precision`] — the paper's three precision modes;
//! * [`stats`] — GEMM call accounting by M-shape class and precision for
//!   the observability layer (skipped unless a registry is attached).
//!
//! The crate is deliberately dependency-light and deterministic: every random
//! draw is seeded, so experiments are reproducible bit-for-bit at a given
//! precision.

pub mod activation;
pub mod f16;
pub mod gemm;
pub mod graph;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod precision;
pub mod stats;

pub use f16::F16;
pub use matrix::Matrix;
pub use precision::Precision;
