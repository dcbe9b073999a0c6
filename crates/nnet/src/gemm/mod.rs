//! GEMM kernels for Deep Potential inference.
//!
//! * [`naive`] — the plain reference fold. The f64 model, the trainer and
//!   the graph runtime call it directly: f64 is the *oracle* precision and
//!   shares no kernel with what it checks.
//! * [`auto_nn_f32`] — the one f32 kernel, `dpmd-simd`'s register-tiled
//!   `mul_add` fold, the same bits on every host.
//!
//! # Binary16 is an operand rounding, not a kernel
//! `MIX-fp16` stores the operands in binary16 and accumulates in f32. A
//! binary16 value has an 11-bit significand, so the product of two has at
//! most 22 significant bits and a magnitude between 2⁻⁴⁸ and 65504²: it is
//! exact in f32. `a.mul_add(b, acc)` then equals `acc + a*b` bit for bit,
//! and [`auto_nn_f32`] on operands rounded through binary16 (widening is
//! exact) *is* the fp16-storage / f32-accumulate fold. [`gemm_nn_f16`] and
//! [`batched_nn_f16`] are that, as widening wrappers over [`F16`] slices.
//!
//! The mixed-precision force pipeline issues every GEMM through
//! [`auto_nn_f32`], `Mix16`'s first fitting layer included (on operands it
//! rounds itself). Only NN (`C = A·B`) forms exist on that path because the
//! engine transposes each weight matrix once at model build (the paper's
//! NT→NN preprocessing); the one NT kernel is the trainer's
//! `naive::gemm_nt_f64`.
//!
//! # Output contract
//! Every kernel **overwrites** `C[..m*n]`: whatever the buffer held on entry
//! is discarded, so callers may pass a reused scratch buffer without
//! clearing it. `β ≠ 0` (BLAS-style `C += A·B`) is deliberately not offered.
//!
//! # Row independence
//! Every kernel accumulates each output element `c[i][j]` by walking
//! `p = 0..k` in ascending order from `+0.0`: one fused rounding per step
//! in the f32 kernel, one rounding per multiply and per add in `naive`. A
//! row of the output therefore depends only on (that row of `A`, `B`, `n`,
//! `k`) and never on `m` or on how rows were tiled, so stacking rows into
//! one call is bitwise-invisible — the property the per-tile stacked
//! fitting GEMMs and the serving layer's solo-equals-batched guarantee rest
//! on.

use crate::f16::F16;

pub mod dispatch;
pub mod naive;

/// Floating point operations performed by an `m×k · k×n` GEMM.
#[inline]
pub fn flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// `C = A·B` in f32: [`dpmd_simd::gemm_nn_f32`], every element the
/// ascending-`p` `mul_add` fold from `+0.0`.
pub fn auto_nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    dpmd_simd::gemm_nn_f32(m, n, k, a, b, c);
}

/// `C = A·B` with `A`, `B` stored in binary16 and accumulation in f32 — the
/// fp16-sve-gemm of the `MIX-fp16` precision path: [`auto_nn_f32`] on the
/// exactly widened operands, which is the binary16-storage fold bit for bit
/// (module docs). The widening stands in for SVE's `fcvt` on load.
///
/// # Panics
/// If any slice is shorter than its shape requires.
pub fn gemm_nn_f16(m: usize, n: usize, k: usize, a: &[F16], b: &[F16], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    let a: Vec<f32> = a[..m * k].iter().map(|x| x.to_f32()).collect(); // dpmd-allow D7: per-call widening; the force pipeline stages rounded f32 itself and never calls this
    let b: Vec<f32> = b[..k * n].iter().map(|x| x.to_f32()).collect(); // dpmd-allow D7: per-call widening; the force pipeline stages rounded f32 itself and never calls this
    auto_nn_f32(m, n, k, &a, &b, c);
}

/// [`gemm_nn_f16`] over `batch` stacked calls of shape `m×n×k` sharing
/// `B`, as one `(batch·m)×n×k` call — bitwise equal to the per-call results
/// by row independence.
pub fn batched_nn_f16(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a_stacked: &[F16],
    b: &[F16],
    c_stacked: &mut [f32],
) {
    gemm_nn_f16(batch * m, n, k, a_stacked, b, c_stacked);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_counts() {
        assert_eq!(flops(2, 240, 240), 2 * 2 * 240 * 240);
    }

    #[test]
    fn fp16_zero_inputs_give_zero() {
        let a = vec![F16::ZERO; 2 * 4];
        let b = vec![F16::ZERO; 4 * 6];
        let mut c = vec![1.0f32; 2 * 6];
        gemm_nn_f16(2, 6, 4, &a, &b, &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fp16_exact_on_small_integers() {
        // Small integers are exact in f16, so the kernel must be exact too.
        let a: Vec<F16> = [1.0f32, 2.0, 3.0, 4.0].iter().map(|&x| F16::from_f32(x)).collect();
        let b: Vec<F16> = [5.0f32, 6.0, 7.0, 8.0].iter().map(|&x| F16::from_f32(x)).collect();
        let mut c = vec![0.0f32; 4];
        gemm_nn_f16(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn fp16_kernel_matches_f32_within_half_precision() {
        let (m, n, k) = (2, 240, 240);
        let a32: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin() * 0.5).collect();
        let b32: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos() * 0.5).collect();
        let a16: Vec<F16> = a32.iter().map(|&x| F16::from_f32(x)).collect();
        let b16: Vec<F16> = b32.iter().map(|&x| F16::from_f32(x)).collect();
        let mut c32 = vec![0.0f32; m * n];
        let mut c16 = vec![0.0f32; m * n];
        naive::gemm_nn_f32(m, n, k, &a32, &b32, &mut c32);
        gemm_nn_f16(m, n, k, &a16, &b16, &mut c16);
        // Inputs rounded to f16 but accumulation in f32: error is bounded by
        // ~k * eps_f16 * |a||b| in the worst case; statistically far smaller.
        let max_err = c32.iter().zip(&c16).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "fp16 storage error too large: {max_err}");
        assert!(max_err > 0.0, "fp16 path must differ from f32 path");
    }
}
