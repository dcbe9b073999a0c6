//! Explicit-SIMD GEMM microkernels behind runtime dispatch, and the f32
//! `tanh` activation kernel that runs between them.
//!
//! This crate is the workspace's *audited unsafe island* for CPU intrinsics:
//! every other crate except `dpmd-threads` is `#![forbid(unsafe_code)]`, so
//! the `std::arch` kernels live here, each `unsafe` block carries a
//! `// SAFETY:` comment (enforced by `dpmd-analyze` rule D3), and
//! `unsafe_op_in_unsafe_fn` is denied so no operation is implicitly unsafe.
//!
//! # Dispatch classes and the determinism contract
//!
//! Kernels are grouped into **dispatch classes** ([`DispatchClass`]):
//!
//! * `Scalar` — the portable blocked kernel in `nnet::gemm`
//!   (one multiply **and one add rounding** per accumulation step).
//! * `Avx2` — x86_64 AVX2+FMA microkernels in this crate.
//! * `Neon` — aarch64 NEON microkernels in this crate.
//!
//! The determinism bar is scoped *per class*: every kernel inside a class
//! produces bitwise-identical output on every machine that selects that
//! class. Classes are **not** bitwise-interchangeable — the SIMD classes use
//! fused multiply-add (one rounding per step), the scalar class rounds the
//! product and the sum separately — and that is by design: the paper's
//! trajectories are only reproducible on the hardware class that ran them.
//!
//! Within the SIMD classes the contract is concrete: every output element
//! `c[i][j]` is the fold `acc = fma(a[i][p], b[p][j], acc)` for `p = 0..k`
//! ascending, with `acc` seeded at `+0.0`. The fold never depends on `m`, on
//! the row-group an output row landed in, or on the column-strip width —
//! scalar tails use [`f32::mul_add`], a correctly-rounded fused operation
//! and therefore bit-identical to the vector lanes. Two consequences, both
//! load-bearing for the engine:
//!
//! 1. **Row independence**: stacking rows (batched inference) is
//!    bitwise-invisible, exactly as for the scalar class.
//! 2. The portable [`reference_nn_f32`] fold below reproduces the SIMD
//!    results **bit for bit**, so tests can pin the intrinsics against safe
//!    Rust without hardware-specific goldens.
//!
//! The kernels are f32 NN only, because that is all the force pipeline
//! dispatches. f64 is the oracle precision — the f64 model runs on the
//! plain `nnet::gemm::naive` fold so that it is the same bits on every
//! machine and shares no code with what it checks. NT forms are absent
//! because the engine pre-transposes every weight matrix at model build
//! (the paper's NT→NN preprocessing), so the hot path only ever issues
//! unit-stride NN GEMMs. Every `unsafe` block here (six: five in the GEMM
//! microkernels, one calling the AVX2 instantiation of the activation) is
//! therefore one the production path executes.
//!
//! # The activation has no dispatch class
//!
//! [`tanh_value_grad_f32`] is one portable function body
//! ([`tanh_value_grad_f32_one`]) with no intrinsics and no `mul_add`,
//! compiled twice: for the baseline ISA and, on x86_64, under
//! `#[target_feature(enable = "avx2")]`. Rust never contracts `a*b + c`, so
//! the two are the same bits for every input — a stronger contract than the
//! GEMMs' — and which one runs is decided by the CPU alone, not by the GEMM
//! dispatch class a process pinned.

#![deny(unsafe_op_in_unsafe_fn)]

/// Which family of GEMM kernels runtime dispatch selected.
///
/// Bitwise determinism is guaranteed *within* a class, never across classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchClass {
    /// Portable blocked kernel (two roundings per accumulate).
    Scalar,
    /// x86_64 AVX2 + FMA microkernels (fused accumulate).
    Avx2,
    /// aarch64 NEON microkernels (fused accumulate).
    Neon,
}

impl DispatchClass {
    /// Stable lowercase tag for logs, metrics and CLI output.
    pub fn tag(self) -> &'static str {
        match self {
            DispatchClass::Scalar => "scalar",
            DispatchClass::Avx2 => "avx2",
            DispatchClass::Neon => "neon",
        }
    }
}

/// A GEMM kernel family: NN (`C = A·B`, row-major, overwrite) in f32.
///
/// Implementations must uphold the per-class fold contract documented at the
/// crate root; in particular output rows may depend only on (that row of `A`,
/// `B`, `n`, `k`) so that batching by row-stacking is bitwise-invisible.
pub trait Kernel: Send + Sync {
    /// The dispatch class this kernel belongs to.
    fn class(&self) -> DispatchClass;
    /// `C = A·B` in f32: `A` is `m×k`, `B` is `k×n`, `C` is `m×n`, row-major.
    fn nn_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]);
}

/// The native SIMD kernel for this machine, if its class is available:
/// AVX2+FMA on x86_64 (runtime-detected), NEON on aarch64 (baseline).
/// `None` means the caller must fall back to its scalar class.
pub fn native() -> Option<&'static dyn Kernel> {
    // Miri interprets no std::arch vector intrinsics: always report "no
    // native kernel" there so callers take the scalar class, which shares
    // the same fold-order contract bit for bit. This is what lets CI run
    // `cargo miri test -p dpmd-simd` on a SIMD host.
    #[cfg(miri)]
    {
        None
    }
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            static KERNEL: avx2::Avx2Kernel = avx2::Avx2Kernel;
            return Some(&KERNEL);
        }
        None
    }
    #[cfg(all(not(miri), target_arch = "aarch64"))]
    {
        static KERNEL: neon::NeonKernel = neon::NeonKernel;
        Some(&KERNEL)
    }
    #[cfg(all(not(miri), not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        None
    }
}

/// The [`DispatchClass`] [`native`] would select, or `Scalar` if none.
pub fn native_class() -> DispatchClass {
    native().map_or(DispatchClass::Scalar, |k| k.class())
}

fn check_dims_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert!(a.len() >= m * k, "A too small: {} < {m}×{k}", a.len());
    assert!(b.len() >= k * n, "B too small: {} < {k}×{n}", b.len());
    assert!(c.len() >= m * n, "C too small: {} < {m}×{n}", c.len());
}

// ---------------------------------------------------------------------------
// Portable fused-fold reference.
//
// This is the *semantic definition* of the SIMD dispatch classes: the
// ascending-p single-rounding fold every AVX2/NEON kernel must reproduce bit
// for bit. It is safe Rust (`mul_add` is a correctly-rounded fused op on
// every target with hardware FMA) and exists so tests and proptests can pin
// the intrinsics without per-machine golden files. It is not fast; the
// hot path never calls it.

/// Fused-fold reference `C = A·B` in f32 (bitwise-defines the SIMD classes).
pub fn reference_nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims_f32(m, n, k, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// f32 tanh activation: value and derivative factor in one pass.
//
// One portable body, no intrinsics and no `mul_add`, instantiated for the
// baseline ISA and (x86_64) once more under AVX2. Every operation is an
// IEEE-exact f32 add / mul / div, an integer op on the bits, or a select,
// and Rust never contracts `a*b + c`, so the instantiations cannot differ.

/// `(tanh x, 1 − tanh² x)` in f32 — the one-element form of
/// [`tanh_value_grad_f32`] and the single body both of its instantiations
/// inline.
///
/// Branch-free: both sides are computed and a compare picks one.
/// `|x| < 0.625`: the odd polynomial `x + x·z·P(z)`, `z = x²` (Cephes
/// `tanhf` coefficients), derivative `1 − t²`. Otherwise `E = exp(2|x|)`
/// (|x| clamped at 10, where `tanh` already rounds to 1) by Cody–Waite
/// reduction and a degree-5 polynomial, then `q = 2/(E + 1)`, `t = 1 − q`
/// and the derivative as `q·(2 − q)`, which does not cancel as `t → 1`.
/// Worst value error 1.3 ulp; `±0`, `±∞` and saturation are exact; NaN
/// gives `(NaN, NaN)`.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the constants as Cephes prints them
pub fn tanh_value_grad_f32_one(x: f32) -> (f32, f32) {
    // 1.5·2²³: adding it rounds to the nearest integer and leaves that
    // integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    let sign = x.to_bits() & 0x8000_0000;
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);

    let z = ax * ax;
    let p = (((-5.704_988_727_45e-3 * z + 2.063_908_879_54e-2) * z - 5.373_971_555_31e-2) * z
        + 1.333_144_220_36e-1)
        * z
        - 3.333_328_194_22e-1;
    // Cephes' association, `(P·z)·x + x`. `(x·z)·P` has the same worst
    // error (1.33 ulp over every input); the two differ only in which
    // inputs round which way.
    let t_small = ax + ax * (z * p);
    let d_small = 1.0 - t_small * t_small;

    // Written as a compare so NaN stays NaN (`f32::min` would return 10).
    let y = 2.0 * if ax > 10.0 { 10.0 } else { ax };
    let kf = y * std::f32::consts::LOG2_E + ROUND;
    let n = kf - ROUND;
    // ln 2 split in two so `n·hi` is exact.
    let r = y - n * 0.693_359_375 - n * -2.121_944_40e-4;
    let e = ((((1.987_569_150_0e-4 * r + 1.398_199_950_7e-3) * r + 8.333_451_907_3e-3) * r
        + 4.166_579_589_4e-2)
        * r
        + 1.666_666_545_9e-1)
        * r
        + 5.000_000_120_1e-1;
    let exp_r = e * (r * r) + r + 1.0;
    // 2ⁿ from the integer in `kf`'s mantissa (0 ≤ n ≤ 29).
    let scale = f32::from_bits((kf.to_bits() << 23).wrapping_add(0x3f80_0000));
    let q = 2.0 / (exp_r * scale + 1.0);
    let (t_large, d_large) = (1.0 - q, q * (2.0 - q));

    let (t, d) = if ax < 0.625 { (t_small, d_small) } else { (t_large, d_large) };
    (f32::from_bits(t.to_bits() | sign), d)
}

#[inline(always)]
fn tanh_rows(x: &mut [f32], dfac: &mut [f32]) {
    for (x, d) in x.iter_mut().zip(dfac) {
        (*x, *d) = tanh_value_grad_f32_one(*x);
    }
}

/// In place over equal-length slices: `x ← tanh x`, `dfac ← 1 − tanh² x`.
///
/// Runs the AVX2 instantiation where [`native`] detects it, the baseline
/// one otherwise. Both are [`tanh_value_grad_f32_one`] element for element,
/// bit for bit, so the activation has no dispatch class.
pub fn tanh_value_grad_f32(x: &mut [f32], dfac: &mut [f32]) {
    assert_eq!(x.len(), dfac.len(), "one derivative factor per element");
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    if native().is_some() {
        // SAFETY: `native()` is `Some` on x86_64 only after
        // `is_x86_feature_detected!` confirmed avx2, the one target
        // feature `tanh_rows_avx2` enables.
        unsafe { tanh_rows_avx2(x, dfac) };
        return;
    }
    tanh_rows(x, dfac);
}

/// [`tanh_value_grad_f32`] pinned to the baseline-ISA instantiation
/// (SSE2 / NEON auto-vectorised), for the tests and the bench that compare
/// the two.
pub fn tanh_value_grad_f32_baseline(x: &mut [f32], dfac: &mut [f32]) {
    assert_eq!(x.len(), dfac.len(), "one derivative factor per element");
    tanh_rows(x, dfac);
}

/// [`tanh_rows`] compiled with 256-bit vectors. No `fma`: the body must
/// round every product, as the baseline instantiation does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_rows_avx2(x: &mut [f32], dfac: &mut [f32]) {
    tanh_rows(x, dfac);
}

// ---------------------------------------------------------------------------
// AVX2 + FMA (x86_64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// f32 lanes per 256-bit register.
    const LF32: usize = 8;

    pub(crate) struct Avx2Kernel;

    impl crate::Kernel for Avx2Kernel {
        fn class(&self) -> crate::DispatchClass {
            crate::DispatchClass::Avx2
        }

        fn nn_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            crate::check_dims_f32(m, n, k, a, b, c);
            // SAFETY: `Avx2Kernel` is only handed out by `crate::native()`
            // after `is_x86_feature_detected!` confirmed both avx2 and fma,
            // so the target features `nn_f32` requires are present.
            unsafe { nn_f32(m, n, k, a, b, c) }
        }
    }

    /// Register tile: `R` output rows × `S` eight-lane column strips.
    ///
    /// The fold for each output element is `p` ascending with one FMA per
    /// step, independent of `R`/`S` — grouping choices are bitwise-invisible.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn micro_f32<const R: usize, const S: usize>(
        k: usize,
        n: usize,
        a: &[f32],      // ≥ R rows, row stride k
        b: &[f32],      // k×n row-major
        j: usize,       // first column of this strip; j + S·LF32 ≤ n
        c: &mut [f32],  // ≥ R rows, row stride n
    ) {
        debug_assert!(j + S * LF32 <= n);
        let bp = b.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); S]; R];
        for p in 0..k {
            let mut bv = [_mm256_setzero_ps(); S];
            for (s, lane) in bv.iter_mut().enumerate() {
                // SAFETY: entry asserts give b.len() ≥ k·n; with p < k and
                // j + S·LF32 ≤ n every strip read ends at or before
                // p·n + j + S·LF32 ≤ k·n.
                *lane = unsafe { _mm256_loadu_ps(bp.add(p * n + j + s * LF32)) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(a[r * k + p]);
                for (s, cell) in row.iter_mut().enumerate() {
                    *cell = _mm256_fmadd_ps(av, bv[s], *cell);
                }
            }
        }
        let cp = c.as_mut_ptr();
        for (r, row) in acc.iter().enumerate() {
            for (s, cell) in row.iter().enumerate() {
                // SAFETY: entry asserts give c.len() ≥ R rows of stride n
                // and j + S·LF32 ≤ n, so each store ends at or before
                // r·n + j + S·LF32 ≤ R·n ≤ c.len().
                unsafe { _mm256_storeu_ps(cp.add(r * n + j + s * LF32), *cell) };
            }
        }
    }

    /// All columns for a fixed group of `R` rows: wide strips, then single
    /// registers, then a scalar `mul_add` tail (bit-identical fold).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn rows_f32<const R: usize, const S: usize>(
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let mut j = 0;
        while j + S * LF32 <= n {
            micro_f32::<R, S>(k, n, a, b, j, c);
            j += S * LF32;
        }
        while j + LF32 <= n {
            micro_f32::<R, 1>(k, n, a, b, j, c);
            j += LF32;
        }
        for jj in j..n {
            for r in 0..R {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[r * k + p].mul_add(b[p * n + jj], acc);
                }
                c[r * n + jj] = acc;
            }
        }
    }

    /// `C = A·B` (overwrite). Dedicated tall-skinny microkernels serve the
    /// paper's M ≤ 3 shapes with the widest strips; taller panels run
    /// four-row groups with the remainder on the M ≤ 3 kernels.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut i = 0;
        while i + 4 <= m {
            rows_f32::<4, 2>(k, n, &a[i * k..], b, &mut c[i * n..]);
            i += 4;
        }
        match m - i {
            1 => rows_f32::<1, 6>(k, n, &a[i * k..], b, &mut c[i * n..]),
            2 => rows_f32::<2, 4>(k, n, &a[i * k..], b, &mut c[i * n..]),
            3 => rows_f32::<3, 3>(k, n, &a[i * k..], b, &mut c[i * n..]),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// NEON (aarch64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::{vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32};

    /// f32 lanes per 128-bit register.
    const LF32: usize = 4;

    pub(crate) struct NeonKernel;

    // NEON is part of the aarch64 baseline target features, so no runtime
    // detection and no `#[target_feature]` attributes are needed; only the
    // pointer loads/stores are unsafe.

    impl crate::Kernel for NeonKernel {
        fn class(&self) -> crate::DispatchClass {
            crate::DispatchClass::Neon
        }

        fn nn_f32(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            crate::check_dims_f32(m, n, k, a, b, c);
            nn_f32(m, n, k, a, b, c);
        }
    }

    /// Register tile: `R` output rows × `S` four-lane column strips; the
    /// same ascending-p single-FMA fold as the AVX2 kernels, so the
    /// portable fused reference pins this class bit for bit too.
    fn micro_f32<const R: usize, const S: usize>(
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        j: usize,
        c: &mut [f32],
    ) {
        debug_assert!(j + S * LF32 <= n);
        let bp = b.as_ptr();
        let mut acc = [[vdupq_n_f32(0.0); S]; R];
        for p in 0..k {
            let mut bv = [vdupq_n_f32(0.0); S];
            for (s, lane) in bv.iter_mut().enumerate() {
                // SAFETY: entry asserts give b.len() ≥ k·n; p < k and
                // j + S·LF32 ≤ n bound every lane read by k·n.
                *lane = unsafe { vld1q_f32(bp.add(p * n + j + s * LF32)) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = vdupq_n_f32(a[r * k + p]);
                for (s, cell) in row.iter_mut().enumerate() {
                    *cell = vfmaq_f32(*cell, av, bv[s]);
                }
            }
        }
        let cp = c.as_mut_ptr();
        for (r, row) in acc.iter().enumerate() {
            for (s, cell) in row.iter().enumerate() {
                // SAFETY: c.len() ≥ R rows of stride n (entry asserts) and
                // j + S·LF32 ≤ n bound every store by R·n ≤ c.len().
                unsafe { vst1q_f32(cp.add(r * n + j + s * LF32), *cell) };
            }
        }
    }

    fn rows_f32<const R: usize, const S: usize>(
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let mut j = 0;
        while j + S * LF32 <= n {
            micro_f32::<R, S>(k, n, a, b, j, c);
            j += S * LF32;
        }
        while j + LF32 <= n {
            micro_f32::<R, 1>(k, n, a, b, j, c);
            j += LF32;
        }
        for jj in j..n {
            for r in 0..R {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[r * k + p].mul_add(b[p * n + jj], acc);
                }
                c[r * n + jj] = acc;
            }
        }
    }

    fn nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut i = 0;
        while i + 4 <= m {
            rows_f32::<4, 4>(k, n, &a[i * k..], b, &mut c[i * n..]);
            i += 4;
        }
        match m - i {
            1 => rows_f32::<1, 8>(k, n, &a[i * k..], b, &mut c[i * n..]),
            2 => rows_f32::<2, 6>(k, n, &a[i * k..], b, &mut c[i * n..]),
            3 => rows_f32::<3, 4>(k, n, &a[i * k..], b, &mut c[i * n..]),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the crate stays dependency-free.
    struct Rng(u64);
    impl Rng {
        fn next_unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    const EDGE_SHAPES: &[(usize, usize, usize)] = &[
        (0, 5, 4),    // m = 0
        (1, 1, 0),    // k = 0
        (1, 240, 240),
        (2, 33, 17),  // n not a multiple of any strip width
        (3, 8, 64),
        (4, 5, 3),
        (5, 31, 7),   // m % 4 != 0 and ragged n
        (8, 48, 24),
        (17, 33, 12),
    ];

    /// The native kernel (when present) must reproduce the portable fused
    /// fold bit for bit on every edge shape — this is the class contract.
    #[test]
    fn native_matches_fused_reference_bitwise() {
        let Some(kernel) = native() else { return };
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for &(m, n, k) in EDGE_SHAPES {
            let a32: Vec<f32> = (0..m * k).map(|_| rng.next_unit() as f32).collect();
            let b32: Vec<f32> = (0..k * n).map(|_| rng.next_unit() as f32).collect();
            let mut want32 = vec![0.0f32; m * n];
            let mut got32 = vec![1.5f32; m * n]; // poison: kernels overwrite
            reference_nn_f32(m, n, k, &a32, &b32, &mut want32);
            kernel.nn_f32(m, n, k, &a32, &b32, &mut got32);
            if m * n > 0 {
                assert_eq!(want32, got32, "f32 {m}x{n}x{k} ({:?})", kernel.class());
            }
        }
    }

    /// Row independence: computing a stacked panel equals computing each row
    /// alone, bit for bit — the property batched inference leans on.
    #[test]
    fn native_rows_are_independent_bitwise() {
        let Some(kernel) = native() else { return };
        let (m, n, k) = (7, 50, 33);
        let mut rng = Rng(42);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_unit() as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_unit() as f32).collect();
        let mut stacked = vec![0.0f32; m * n];
        kernel.nn_f32(m, n, k, &a, &b, &mut stacked);
        for i in 0..m {
            let mut solo = vec![0.0f32; n];
            kernel.nn_f32(1, n, k, &a[i * k..(i + 1) * k], &b, &mut solo);
            assert_eq!(&stacked[i * n..(i + 1) * n], &solo[..], "row {i}");
        }
    }

    /// Positive inputs of the accuracy sweep: the bit patterns of
    /// (2⁻³⁰, 12) at a stride sized for the build (Miri interprets, debug
    /// is tier-1), plus every pattern near the 0.625 seam and the clamp
    /// at 10, both sides of each.
    fn tanh_sweep() -> Vec<f32> {
        let (stride, near) = if cfg!(miri) {
            (4_000_037, 8)
        } else if cfg!(debug_assertions) {
            (1009, 2000)
        } else {
            (67, 20_000)
        };
        let (lo, hi) = (2.0f32.powi(-30).to_bits(), 12.0f32.to_bits());
        let mut xs: Vec<f32> = (lo..hi).step_by(stride).map(f32::from_bits).collect();
        for edge in [0.625f32, 10.0] {
            xs.extend((edge.to_bits() - near..=edge.to_bits() + near).map(f32::from_bits));
        }
        xs
    }

    /// Value within 2 ulp of libm's f64 `tanh` rounded to f32, derivative
    /// factor within 4e-7 relative of `1 − tanh²` (measured over all 2.8e8
    /// patterns: 1.33 ulp at 0.6283, 2.1e-7 at 8.65). Above the clamp the
    /// factor is frozen at its value at 10, 8.2e-9, where the true one keeps
    /// falling, so there the bound is that absolute gap.
    #[test]
    fn tanh_kernel_tracks_libm() {
        let xs = tanh_sweep();
        let (mut t, mut d) = (xs.clone(), vec![0.0f32; xs.len()]);
        tanh_value_grad_f32(&mut t, &mut d);
        for ((&x, &t), &d) in xs.iter().zip(&t).zip(&d) {
            let want = (x as f64).tanh();
            let w32 = want as f32;
            let ulp = (f32::from_bits(w32.to_bits() + 1) - w32) as f64;
            assert!((t as f64 - want).abs() <= 2.0 * ulp, "tanh({x:e}) = {t:e}, libm {want:e}");
            let dwant = 1.0 - want * want;
            let err = (d as f64 - dwant).abs();
            assert!(if x <= 10.0 { err <= 4e-7 * dwant } else { err <= 8.3e-9 }, "dfac({x:e}) = {d:e}, want {dwant:e}");
        }
    }

    #[test]
    fn tanh_kernel_is_odd_bit_for_bit() {
        for x in tanh_sweep() {
            let ((tp, dp), (tn, dn)) = (tanh_value_grad_f32_one(x), tanh_value_grad_f32_one(-x));
            assert_eq!(tn.to_bits(), tp.to_bits() | 0x8000_0000, "value at ±{x:e}");
            assert_eq!(dn.to_bits(), dp.to_bits(), "dfac at ±{x:e}");
        }
    }

    #[test]
    fn tanh_kernel_special_values() {
        for zero in [0.0f32, -0.0] {
            let (t, d) = tanh_value_grad_f32_one(zero);
            assert_eq!((t.to_bits(), d), (zero.to_bits(), 1.0));
        }
        for big in [100.0f32, f32::MAX, f32::INFINITY] {
            for x in [big, -big] {
                let (t, d) = tanh_value_grad_f32_one(x);
                assert_eq!(t, 1.0f32.copysign(x), "saturation at {x}");
                assert!(d.is_finite() && d >= 0.0, "dfac {d} at {x}");
            }
        }
        // A blown-up input must stay visible, not turn into ±1.
        let (t, d) = tanh_value_grad_f32_one(f32::NAN);
        assert!(t.is_nan() && d.is_nan());
    }

    /// Both instantiations of the slice kernel are the one-element form,
    /// bit for bit, at every slice length and alignment (vector bodies and
    /// tails) and over the whole sweep.
    #[test]
    fn tanh_instantiations_agree_bitwise() {
        let same = |xs: &[f32]| {
            let (mut a, mut da) = (xs.to_vec(), vec![0.0f32; xs.len()]);
            let (mut b, mut db) = (xs.to_vec(), vec![7.0f32; xs.len()]);
            tanh_value_grad_f32(&mut a, &mut da);
            tanh_value_grad_f32_baseline(&mut b, &mut db);
            for (i, &x) in xs.iter().enumerate() {
                let (t, d) = tanh_value_grad_f32_one(x);
                let want = (t.to_bits(), d.to_bits());
                assert_eq!((a[i].to_bits(), da[i].to_bits()), want, "dispatched, {x:e} at {i}");
                assert_eq!((b[i].to_bits(), db[i].to_bits()), want, "baseline, {x:e} at {i}");
            }
        };
        let mut rng = Rng(0x2545f4914f6cdd1d);
        let mut pool: Vec<f32> = (0..41).map(|_| (rng.next_unit() * 12.0) as f32).collect();
        pool[3] = f32::NAN;
        pool[17] = f32::NEG_INFINITY;
        pool[29] = -0.0;
        for offset in 0..8 {
            for len in 0..=33 {
                same(&pool[offset..offset + len]);
            }
        }
        let sweep = tanh_sweep();
        same(&sweep);
        same(&sweep.iter().map(|x| -x).collect::<Vec<_>>());
    }

    #[test]
    fn class_tags_are_stable() {
        assert_eq!(DispatchClass::Scalar.tag(), "scalar");
        assert_eq!(DispatchClass::Avx2.tag(), "avx2");
        assert_eq!(DispatchClass::Neon.tag(), "neon");
        let class = native_class();
        if let Some(k) = native() {
            assert_eq!(k.class(), class);
            assert_ne!(class, DispatchClass::Scalar);
        }
    }
}
