//! # dpmd-bench — the measured numbers
//!
//! * bin `e2e` (`src/bin/e2e/`, also a package of its own): the end-to-end
//!   benchmark `BENCHMARK.json` declares — absolute µs/step/atom on four
//!   workloads, attributed layer by layer.
//! * bench `gemm_kernels`: the GEMM tiers on the shape classes the force
//!   pipeline issues; writes `BENCH_gemm.json`.
//! * bench `batch_replicas`: batched vs one-at-a-time serving; writes
//!   `BENCH_batch.json`.
//!
//! The paper's tables and figures are regenerated by `dpmd <name>` (one
//! registry, `dpmd_scaling::experiments::ALL`), not from here.
