//! Runtime kernel dispatch for the f32 inference hot path.
//!
//! The engine's f32 GEMMs run on one of the [`DispatchClass`]es defined by
//! `dpmd-simd`:
//!
//! * **Scalar** — [`ScalarKernel`], i.e. [`blocked::gemm_nn_f32`] at every
//!   `m`: portable Rust, a separately rounded multiply and add per step,
//!   bit-identical to `naive`.
//! * **Avx2 / Neon** — the explicit-intrinsics microkernels in `dpmd-simd`,
//!   using fused multiply-add (one rounding per accumulate instead of two).
//!
//! Selection happens **once per process**: the native kernel if the CPU has
//! one, unless [`FORCE_SCALAR_ENV`] pins the scalar class (how CI proves the
//! fold-order equivalence of the portable kernel on SIMD machines, and how
//! a trajectory recorded on the scalar class can be reproduced anywhere).
//! Determinism is bitwise *within* a class — every machine selecting a class
//! computes identical results, and solo-vs-batched equality holds in every
//! class because all kernels are row-independent — but the classes are not
//! bitwise-interchangeable with each other (FMA removes a rounding).
//!
//! f64 is not dispatched: the f64 model is the oracle the mixed pipeline is
//! checked against, and it calls `naive` directly so its results are the
//! same bits on every machine.

use std::sync::OnceLock;

pub use dpmd_simd::{native, native_class, DispatchClass, Kernel};

use super::blocked;

/// Environment variable that pins dispatch to the scalar class for the whole
/// process (any non-empty value other than `0`).
pub const FORCE_SCALAR_ENV: &str = "DPMD_FORCE_SCALAR";

/// The portable scalar-class kernel: [`blocked::gemm_nn_f32`].
pub struct ScalarKernel;

impl Kernel for ScalarKernel {
    fn class(&self) -> DispatchClass {
        DispatchClass::Scalar
    }

    fn nn_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        blocked::gemm_nn_f32(m, n, k, a, b, c);
    }
}

/// The shared scalar-class kernel instance.
pub fn scalar() -> &'static dyn Kernel {
    static SCALAR: ScalarKernel = ScalarKernel;
    &SCALAR
}

fn force_scalar() -> bool {
    match std::env::var(FORCE_SCALAR_ENV) {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// The kernel the f32 hot path runs on, selected once per process:
/// the native SIMD kernel when present, the scalar class otherwise or when
/// [`FORCE_SCALAR_ENV`] is set.
pub fn active() -> &'static dyn Kernel {
    static ACTIVE: OnceLock<&'static dyn Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if force_scalar() {
            scalar()
        } else {
            native().unwrap_or_else(|| scalar())
        }
    })
}

/// The [`DispatchClass`] of the active kernel (for CLI banners and metrics).
pub fn active_class() -> DispatchClass {
    active().class()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `active()` is stable within a process and its class matches what the
    /// machine/environment implies.
    #[test]
    fn active_is_stable_and_classified() {
        let a = active();
        let b = active();
        assert_eq!(a.class(), b.class());
        assert_eq!(a.class(), active_class());
        if force_scalar() {
            assert_eq!(a.class(), DispatchClass::Scalar);
        }
    }
}
