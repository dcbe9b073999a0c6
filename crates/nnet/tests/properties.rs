//! Property-based tests (proptest) for the NN substrate's core invariants.

use proptest::prelude::*;

use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::gemm::{blocked, dispatch, naive, simd};
use nnet::init::build_mlp;
use nnet::layers::Resnet;
use nnet::matrix::Matrix;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    /// Every f16 bit pattern that is not NaN survives a round trip through
    /// f32 exactly.
    #[test]
    fn f16_f32_round_trip(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.is_nan());
        prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// Conversion to f16 is monotone: a ≤ b ⇒ f16(a) ≤ f16(b).
    #[test]
    fn f16_conversion_is_monotone(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hlo, hhi) = (F16::from_f32(lo), F16::from_f32(hi));
        prop_assert!(hlo.to_f32() <= hhi.to_f32(), "{lo} -> {}, {hi} -> {}", hlo, hhi);
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

    /// Negation is exact in f16 (sign-bit flip).
    #[test]
    fn f16_negation_exact(x in finite_f32()) {
        let h = F16::from_f32(x);
        prop_assert_eq!((-h).to_f32(), -(h.to_f32()));
    }

    /// All three GEMM families agree with the naive reference on random
    /// shapes and inputs.
    #[test]
    fn gemm_families_agree(
        m in 1usize..6,
        n in 1usize..40,
        k in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| next()).collect();
        let mut c_ref = vec![0.0; m * n];
        let mut c_blk = vec![0.0; m * n];
        let mut c_sve = vec![0.0; m * n];
        naive::gemm_nn_f64(m, n, k, &a, &b, &mut c_ref);
        blocked::gemm_nn_f64(m, n, k, &a, &b, &mut c_blk);
        simd::gemm_nn_f64(m, n, k, &a, &b, &mut c_sve);
        for i in 0..m * n {
            prop_assert!((c_ref[i] - c_blk[i]).abs() < 1e-10);
            prop_assert!((c_ref[i] - c_sve[i]).abs() < 1e-10);
        }
    }

    /// The blocked kernels *overwrite* `C`: pre-filling the output buffer
    /// with garbage must not change the result. Pins the output contract
    /// shared by all GEMM families (no BLAS-style `β` accumulation).
    #[test]
    fn gemm_overwrites_garbage_prefilled_c(
        m in 1usize..6,
        n in 1usize..40,
        k in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed ^ 0x9e3779b97f4a7c15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| next()).collect();
        // Same B data reinterpreted n×k for the NT form's reference.
        let bt: Vec<f64> = (0..n * k).map(|_| next()).collect();

        let mut c_ref = vec![0.0; m * n];
        let mut c_dirty: Vec<f64> = (0..m * n).map(|_| next() * 1e6 + 7.0).collect();
        naive::gemm_nn_f64(m, n, k, &a, &b, &mut c_ref);
        blocked::gemm_nn_f64(m, n, k, &a, &b, &mut c_dirty);
        for i in 0..m * n {
            prop_assert!(
                (c_ref[i] - c_dirty[i]).abs() < 1e-10,
                "NN leaked prior C contents at {}: {} vs {}", i, c_ref[i], c_dirty[i]
            );
        }

        let mut c_ref_nt = vec![0.0; m * n];
        let mut c_dirty_nt: Vec<f64> = (0..m * n).map(|_| next() * -1e6 - 3.0).collect();
        naive::gemm_nt_f64(m, n, k, &a, &bt, &mut c_ref_nt);
        blocked::gemm_nt_f64(m, n, k, &a, &bt, &mut c_dirty_nt);
        for i in 0..m * n {
            prop_assert!(
                (c_ref_nt[i] - c_dirty_nt[i]).abs() < 1e-10,
                "NT leaked prior C contents at {}: {} vs {}", i, c_ref_nt[i], c_dirty_nt[i]
            );
        }
    }

    /// GEMM-NT on the transposed matrix equals GEMM-NN on the original.
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
        simd::gemm_nn_f64(m, n, k, &a, &b, &mut c_nn);
        simd::gemm_nt_f64(m, n, k, &a, &bt, &mut c_nt);
        for i in 0..m * n {
            prop_assert!((c_nn[i] - c_nt[i]).abs() < 1e-10);
        }
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

    /// Every dispatch-class kernel honours its determinism contract on
    /// arbitrary shapes, **edge shapes included** (`m = 0`, `k = 0`, `m ≤ 3`
    /// tall-skinny rows, and m/n far from the microkernel register tiles so
    /// every remainder path runs):
    ///
    /// * the scalar-class kernel is bitwise `naive` (two roundings per
    ///   accumulate, ascending-k);
    /// * the native kernel (when the host has one) is bitwise the portable
    ///   fused `reference_nn` fold (`mul_add`, ascending-k) — the semantic
    ///   definition of the Avx2/Neon classes — and within reassociation
    ///   tolerance of `naive`.
    #[test]
    fn dispatch_kernels_match_their_class_reference(
        m in 0usize..11,
        n in 0usize..40,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed ^ 0xd1b54a32d192ed03;
        let mut next32 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        };
        let a32: Vec<f32> = (0..m * k).map(|_| next32()).collect();
        let b32: Vec<f32> = (0..k * n).map(|_| next32()).collect();
        let a64: Vec<f64> = a32.iter().map(|&x| x as f64).collect();
        let b64: Vec<f64> = b32.iter().map(|&x| x as f64).collect();
        // Poison-filled outputs: kernels must overwrite every element.
        let poison32 = f32::from_bits(0x7fc0dead);
        let poison64 = f64::from_bits(0x7ff8_0000_dead_beef);

        // Scalar class == naive, bitwise, f32 and f64.
        let scalar = dispatch::scalar();
        let mut want32 = vec![0.0f32; m * n];
        let mut got32 = vec![poison32; m * n];
        naive::gemm_nn_f32(m, n, k, &a32, &b32, &mut want32);
        scalar.nn_f32(m, n, k, &a32, &b32, &mut got32);
        prop_assert_eq!(
            want32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "scalar f32 {}x{}x{}", m, n, k
        );
        let mut want64 = vec![0.0f64; m * n];
        let mut got64 = vec![poison64; m * n];
        naive::gemm_nn_f64(m, n, k, &a64, &b64, &mut want64);
        scalar.nn_f64(m, n, k, &a64, &b64, &mut got64);
        prop_assert_eq!(
            want64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "scalar f64 {}x{}x{}", m, n, k
        );

        // Native class == fused portable reference, bitwise; and close to
        // naive (only the fold's rounding regime differs).
        if let Some(native) = dispatch::native() {
            let mut fused32 = vec![0.0f32; m * n];
            let mut nat32 = vec![poison32; m * n];
            dpmd_simd::reference_nn_f32(m, n, k, &a32, &b32, &mut fused32);
            native.nn_f32(m, n, k, &a32, &b32, &mut nat32);
            prop_assert_eq!(
                fused32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                nat32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "native f32 vs fused reference {}x{}x{} ({:?})", m, n, k, native.class()
            );
            let mut fused64 = vec![0.0f64; m * n];
            let mut nat64 = vec![poison64; m * n];
            dpmd_simd::reference_nn_f64(m, n, k, &a64, &b64, &mut fused64);
            native.nn_f64(m, n, k, &a64, &b64, &mut nat64);
            prop_assert_eq!(
                fused64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                nat64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "native f64 vs fused reference {}x{}x{} ({:?})", m, n, k, native.class()
            );
            for i in 0..m * n {
                prop_assert!(
                    (want32[i] - nat32[i]).abs() <= 1e-4 * want32[i].abs().max(1.0),
                    "native f32 drifted from naive at {}: {} vs {}", i, want32[i], nat32[i]
                );
                prop_assert!(
                    (want64[i] - nat64[i]).abs() <= 1e-12 * want64[i].abs().max(1.0),
                    "native f64 drifted from naive at {}: {} vs {}", i, want64[i], nat64[i]
                );
            }
        }
    }

    /// `gemm::batched_nn_*` must equal per-call `auto_nn_*` exactly for any
    /// shape and batch size.
    #[test]
    fn batched_gemm_equals_per_call_auto(
        batch in 1usize..6,
        m in 1usize..5,
        n in 1usize..12,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..batch * m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut c_batched = vec![0.0f64; batch * m * n];
        nnet::gemm::batched_nn_f64(batch, m, n, k, &a, &b, &mut c_batched);
        let mut c_solo = vec![0.0f64; batch * m * n];
        for s in 0..batch {
            nnet::gemm::auto_nn_f64(m, n, k, &a[s * m * k..(s + 1) * m * k], &b, &mut c_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(&c_batched, &c_solo);

        let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let mut c32_batched = vec![0.0f32; batch * m * n];
        nnet::gemm::batched_nn_f32(batch, m, n, k, &a32, &b32, &mut c32_batched);
        let mut c32_solo = vec![0.0f32; batch * m * n];
        for s in 0..batch {
            nnet::gemm::auto_nn_f32(m, n, k, &a32[s * m * k..(s + 1) * m * k], &b32, &mut c32_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(&c32_batched, &c32_solo);
    }
}
