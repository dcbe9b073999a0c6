//! Property-based tests (proptest) for the NN substrate's core invariants.

use proptest::prelude::*;

use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::gemm::{self, naive};
use nnet::init::build_mlp;
use nnet::layers::Resnet;
use nnet::matrix::Matrix;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3).prop_filter("finite", |x| x.is_finite())
}

/// Seeded uniform draws in [-1, 1) for GEMM operands.
fn lcg_f32(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }
}

/// Bit patterns, so equality is exact (and NaN poison compares unequal).
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one pattern: the folds agree on
/// producing NaN, not on its payload.
fn bits_nan_eq(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Seeded binary16 operands, widened to f32: random finite bit patterns
/// (subnormals included), with ±0, the smallest and largest subnormals,
/// ±65504 and 1 planted one draw in 17, and ±∞ one draw in 4096 (so at
/// k = 240 about one output in ten is non-finite).
fn f16_operand(seed: u64) -> impl FnMut() -> f32 {
    const PLANTED: [u16; 8] = [0x0000, 0x8000, 0x0001, 0x8001, 0x03ff, 0x7bff, 0xfbff, 0x3c00];
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = (state >> 32) as u32;
        let h = (r >> 12) as u16;
        let bits = match r % 4096 {
            0 => 0x7c00 | (h & 0x8000),
            1..=240 => PLANTED[h as usize % PLANTED.len()],
            // Exponent all ones is ∞ or NaN: clear its top bit.
            _ if h & 0x7c00 == 0x7c00 => h & !0x4000,
            _ => h,
        };
        F16::from_bits(bits).to_f32()
    }
}

/// The products a binary16 × binary16 fold can form are exact in f32 at
/// both ends of the range and at full width: 65504² (2047² · 2¹⁰, 22
/// significant bits), the smallest subnormal squared (2⁻⁴⁸), their cross
/// product, and (1 + 2⁻¹⁰)² = 1 + 2⁻⁹ + 2⁻²⁰. So a fused step rounds only
/// the add.
#[test]
fn extreme_binary16_products_are_exact_in_f32() {
    let widen = |bits| F16::from_bits(bits).to_f32();
    let (max, tiny, one_up) = (widen(0x7bff), widen(0x0001), widen(0x3c01));
    assert_eq!((max, tiny, one_up), (65504.0, 2f32.powi(-24), 1.0 + 2f32.powi(-10)));
    for (x, y) in [(max, max), (tiny, tiny), (max, tiny), (one_up, one_up)] {
        // An f32 × f32 product has at most 48 significant bits: exact in f64.
        assert_eq!((x * y) as f64, x as f64 * y as f64, "{x:e} × {y:e} rounds in f32");
        for acc in [0.0f32, -0.0, 1.0, -3.5e9] {
            assert_eq!(x.mul_add(y, acc).to_bits(), (acc + x * y).to_bits(), "{x:e} × {y:e} + {acc:e}");
        }
    }
}

proptest! {
    /// Every f16 bit pattern that is not NaN survives a round trip through
    /// f32 exactly.
    #[test]
    fn f16_f32_round_trip(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.to_f32().is_nan());
        prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// Conversion to f16 is monotone: a ≤ b ⇒ f16(a) ≤ f16(b).
    #[test]
    fn f16_conversion_is_monotone(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hlo, hhi) = (F16::from_f32(lo), F16::from_f32(hi));
        prop_assert!(hlo.to_f32() <= hhi.to_f32(), "{lo} -> {}, {hi} -> {}", hlo.to_f32(), hhi.to_f32());
    }

    /// Round-to-nearest: the f16 result is within half a ULP-interval of
    /// the input (bounded by the spacing at that magnitude).
    #[test]
    fn f16_rounding_error_is_bounded(x in -60000.0f32..60000.0) {
        let h = F16::from_f32(x).to_f32();
        // Spacing of f16 at |x| is at most 2^-10 · 2^ceil(log2 |x|) ≤ |x|/512 for
        // normals, and 2^-24 absolute for subnormals.
        let bound = (x.abs() / 512.0).max(6.0e-8);
        prop_assert!((h - x).abs() <= bound, "x={x} h={h}");
    }

    /// Rounding is symmetric in sign: negating the input flips only the
    /// sign bit of the binary16 result.
    #[test]
    fn f16_negation_exact(x in finite_f32()) {
        prop_assert_eq!(F16::from_f32(-x).to_bits(), F16::from_f32(x).to_bits() ^ 0x8000);
    }

    /// The f32 kernel is **bitwise** the fused `reference_nn_f32` fold at
    /// every `m` (four-row groups, each M ≤ 3 tail, both), n across the
    /// tile and strip widths, and the edge shapes `m = 0`, `n = 0`, `k = 0`;
    /// and it writes every element of a poison-filled output.
    #[test]
    fn auto_gemm_is_bitwise_the_fused_fold(
        m in 0usize..11,
        n in 0usize..60,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut next = lcg_f32(seed ^ 0xd1b54a32d192ed03);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![f32::from_bits(0x7fc0dead); m * n];
        dpmd_simd::reference_nn_f32(m, n, k, &a, &b, &mut want);
        gemm::auto_nn_f32(m, n, k, &a, &b, &mut got);
        prop_assert_eq!(bits(&want), bits(&got), "{}x{}x{}", m, n, k);
    }

    /// `MIX-fp16` needs no binary16 kernel: a binary16 × binary16 product
    /// is exact in f32, so on operands rounded through binary16 the fused
    /// kernel is bitwise the plain mul-then-add fold — the fp16-storage /
    /// f32-accumulate arithmetic. Operands are random binary16 bit patterns
    /// with specials planted (`f16_operand`); the planted ∞ sends sums to
    /// ±∞ and, against 0 or −∞, to NaN, alike in both folds (finite sums
    /// stay below k·65504² ≪ f32::MAX). m across the four-row groups and
    /// every tail, ragged n, k up to 240; a poison-filled output.
    #[test]
    fn binary16_operands_make_the_fused_fold_the_plain_fold(
        m in 1usize..10,
        n in 1usize..50,
        k in 0usize..241,
        seed in any::<u64>(),
    ) {
        let mut next = f16_operand(seed);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut fused = vec![f32::from_bits(0x7f7f_dead); m * n];
        let mut plain = vec![0.0f32; m * n];
        gemm::auto_nn_f32(m, n, k, &a, &b, &mut fused);
        naive::gemm_nn_f32(m, n, k, &a, &b, &mut plain);
        prop_assert_eq!(bits_nan_eq(&fused), bits_nan_eq(&plain), "{}x{}x{}", m, n, k);
    }

    /// Independent oracle: against the plain f64 fold on the same (exactly
    /// widened) inputs, every element is within the forward error bound of
    /// a k-step fused fold, γ_k · Σ_p |a_ip · b_pj| with γ_k = k·u/(1 − k·u),
    /// u = 2⁻²⁴ — plus the oracle's own γ_k at u = 2⁻⁵³, twice over for the
    /// f64 sum of magnitudes. Shares no code with `reference_nn_f32`.
    #[test]
    fn auto_gemm_is_within_the_fold_error_bound_of_f64(
        m in 1usize..11,
        n in 1usize..60,
        k in 0usize..300,
        seed in any::<u64>(),
    ) {
        let gamma = |u: f64| k as f64 * u / (1.0 - k as f64 * u);
        let bound = gamma(2f64.powi(-24)) + 3.0 * gamma(2f64.powi(-53));
        let mut next = lcg_f32(seed ^ 0x94d049bb133111eb);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut c = vec![0.0f32; m * n];
        gemm::auto_nn_f32(m, n, k, &a, &b, &mut c);
        let widen = |xs: &[f32]| xs.iter().map(|&x| x as f64).collect::<Vec<_>>();
        let (a64, b64) = (widen(&a), widen(&b));
        let (mut c64, mut mag) = (vec![0.0f64; m * n], vec![0.0f64; m * n]);
        naive::gemm_nn_f64(m, n, k, &a64, &b64, &mut c64);
        let abs = |xs: &[f64]| xs.iter().map(|x| x.abs()).collect::<Vec<_>>();
        naive::gemm_nn_f64(m, n, k, &abs(&a64), &abs(&b64), &mut mag);
        for i in 0..m * n {
            let err = (c[i] as f64 - c64[i]).abs();
            prop_assert!(err <= bound * mag[i], "element {}: |{} - {}| = {:e} > {:e}", i, c[i], c64[i], err, bound * mag[i]);
        }
    }

    /// The kernels *overwrite* `C`: pre-filling the output buffer with
    /// garbage must not change a bit of the result. Pins the output
    /// contract of `nnet::gemm` (no BLAS-style `β` accumulation) for both
    /// production kernels.
    #[test]
    fn gemm_overwrites_garbage_prefilled_c(
        m in 1usize..11,
        n in 1usize..40,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut next = lcg_f32(seed ^ 0x9e3779b97f4a7c15);
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let garbage: Vec<f32> = (0..m * n).map(|_| next() * 1e6 + 7.0).collect();

        let mut c_clean = vec![0.0f32; m * n];
        let mut c_dirty = garbage.clone();
        gemm::auto_nn_f32(m, n, k, &a, &b, &mut c_clean);
        gemm::auto_nn_f32(m, n, k, &a, &b, &mut c_dirty);
        prop_assert_eq!(bits(&c_clean), bits(&c_dirty), "f32 kernel leaked prior C contents");

        let a16: Vec<F16> = a.iter().map(|&x| F16::from_f32(x)).collect();
        let b16: Vec<F16> = b.iter().map(|&x| F16::from_f32(x)).collect();
        let mut c_clean = vec![0.0f32; m * n];
        let mut c_dirty = garbage;
        gemm::gemm_nn_f16(m, n, k, &a16, &b16, &mut c_clean);
        gemm::gemm_nn_f16(m, n, k, &a16, &b16, &mut c_dirty);
        prop_assert_eq!(bits(&c_clean), bits(&c_dirty), "f16 kernel leaked prior C contents");
    }

    /// GEMM-NT on the transposed matrix equals GEMM-NN on the original
    /// (the trainer's `dpre · Wᵀ` against the forward `x · W` kernel).
    #[test]
    fn gemm_nt_is_nn_of_transpose(
        m in 1usize..4,
        n in 1usize..24,
        k in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| next()).collect();
        let mut bt = vec![0.0; n * k];
        for r in 0..k {
            for c in 0..n {
                bt[c * k + r] = b[r * n + c];
            }
        }
        let mut c_nn = vec![0.0; m * n];
        let mut c_nt = vec![0.0; m * n];
        naive::gemm_nn_f64(m, n, k, &a, &b, &mut c_nn);
        naive::gemm_nt_f64(m, n, k, &a, &bt, &mut c_nt);
        prop_assert_eq!(c_nn, c_nt);
    }

    /// Matrix transpose is an involution and preserves the Frobenius norm.
    #[test]
    fn transpose_involution(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            ((seed ^ (r as u64 * 31 + c as u64)) % 1000) as f64 / 500.0 - 1.0
        });
        let t = m.transpose();
        prop_assert_eq!(t.transpose(), m.clone());
        prop_assert!((m.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
    }

    /// tanh derivative is non-negative (it underflows to exactly 0 in the
    /// saturated tails) and at most 1.
    #[test]
    fn tanh_derivative_bounds(x in -50.0f64..50.0) {
        let d = Activation::Tanh.derivative(x);
        prop_assert!((0.0..=1.0).contains(&d));
        if x.abs() < 15.0 {
            prop_assert!(d > 0.0, "derivative must be strictly positive at {x}");
        }
    }

    /// MLP forward is deterministic and finite for bounded inputs, and the
    /// input gradient matches finite differences at a random coordinate.
    #[test]
    fn mlp_gradient_matches_fd(
        seed in 0u64..1000,
        x0 in -1.0f64..1.0,
        x1 in -1.0f64..1.0,
        x2 in -1.0f64..1.0,
        probe in 0usize..3,
    ) {
        let mlp = build_mlp(3, &[6, 6], 1, Activation::Tanh, seed);
        // Strip resnets? build_mlp policy gives Doubling on 3->6: keep it —
        // the gradient must be right regardless.
        let _ = Resnet::None;
        let x = Matrix::from_vec(1, 3, vec![x0, x1, x2]);
        let (out, caches) = mlp.forward(&x);
        prop_assert!(out[(0, 0)].is_finite());
        let dout = Matrix::from_vec(1, 1, vec![1.0]);
        let (dx, _) = mlp.backward(&caches, &dout);
        let h = 1e-6;
        let mut xp = x.clone();
        xp[(0, probe)] += h;
        let mut xm = x.clone();
        xm[(0, probe)] -= h;
        let fd = (mlp.forward_infer(&xp)[(0, 0)] - mlp.forward_infer(&xm)[(0, 0)]) / (2.0 * h);
        prop_assert!((fd - dx[(0, probe)]).abs() < 1e-5, "fd {fd} vs {}", dx[(0, probe)]);
    }

    /// Row independence on the production entry points: `batch` calls of
    /// `m` rows stacked into one `auto_nn_f32` / `batched_nn_f16` call equal
    /// the per-call results exactly, for any shape and batch size.
    #[test]
    fn batched_gemm_equals_per_call_auto(
        batch in 1usize..6,
        m in 1usize..5,
        n in 1usize..20,
        k in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut next = lcg_f32(seed);
        let a: Vec<f32> = (0..batch * m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut c_stacked = vec![0.0f32; batch * m * n];
        gemm::auto_nn_f32(batch * m, n, k, &a, &b, &mut c_stacked);
        let mut c_solo = vec![0.0f32; batch * m * n];
        for s in 0..batch {
            gemm::auto_nn_f32(m, n, k, &a[s * m * k..(s + 1) * m * k], &b, &mut c_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(bits(&c_stacked), bits(&c_solo), "f32 batch={} {}x{}x{}", batch, m, n, k);

        let a16: Vec<F16> = a.iter().map(|&x| F16::from_f32(x)).collect();
        let b16: Vec<F16> = b.iter().map(|&x| F16::from_f32(x)).collect();
        let mut c16_stacked = vec![0.0f32; batch * m * n];
        gemm::batched_nn_f16(batch, m, n, k, &a16, &b16, &mut c16_stacked);
        let mut c16_solo = vec![0.0f32; batch * m * n];
        for s in 0..batch {
            gemm::gemm_nn_f16(m, n, k, &a16[s * m * k..(s + 1) * m * k], &b16, &mut c16_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(bits(&c16_stacked), bits(&c16_solo), "f16 batch={} {}x{}x{}", batch, m, n, k);
    }
}
