//! GEMM kernel bench: GF/s of the f32 kernel (`dpmd-simd`'s `mul_add`
//! fold, in the instantiation this CPU runs), the plain `naive` f32 loop it
//! is measured against and the binary16 wrapper `gemm_nn_f16` (widen both
//! operands, then the same f32 kernel), over the shape classes the force
//! pipeline actually issues — and ns per element of the f32 `tanh`
//! activation kernel that runs between them, against the libm call it
//! replaced.
//!
//! The classes were read off a shape dump of two-step `copper()` (864 atoms,
//! Mix32) and `water()` (648 atoms, Mix16) runs, not guessed:
//!
//! * fitting tiles — a tile's atoms of one species stacked into one call per
//!   layer: 3–8 rows (median 6) on water, 13–14 on Cu, against the 240×240
//!   hidden layers (≈ 75 % of all GEMM flops in both runs) and the 64→240
//!   first layer, which `Mix16` runs on operands rounded through binary16;
//! * embedding layers — one feature-major call per (atom, neighbour
//!   species), one column per type-sorted neighbour: `8×n×1` then
//!   `16×n×8`, n = 176 on Cu and 25–68 (median 49) on water;
//! * a 64×240×240 panel as the large-M reference point.
//!
//! The activation block times `Activation::value_grad_rows_f32(Tanh)` over
//! a 65,536-element slice and over 16-element slices (one Cu embedding
//! row), next to `f64::tanh` per element as the engine called it before.
//!
//! Emits `BENCH_gemm.json` at the repo root, with `isa` naming the
//! instantiation that ran (`avx512`, `avx2` or `baseline`). The acceptance
//! records require the kernel to beat `naive` by the committed factor on
//! the two hidden-layer fitting-tile classes, and the activation kernel to
//! beat libm by 4× — on every instantiation but `baseline`: that one may be
//! a CPU without FMA, where every `mul_add` is a libm call, so CI skips the
//! bars there.

use std::time::Instant;

use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::gemm::{self, dispatch, naive};
use serde::Value;

fn num<T: std::fmt::Display>(v: T) -> Value {
    Value::Number(v.to_string())
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Interleaved best-of reps; within a rep the kernel runs `iters` times.
const REPS: usize = 7;

struct Shape {
    class: &'static str,
    m: usize,
    n: usize,
    k: usize,
    iters: usize,
    /// Also time the binary16 wrapper (the shapes `Mix16` rounds).
    f16: bool,
}

const SHAPES: [Shape; 9] = [
    Shape { class: "fit_hidden_m6", m: 6, n: 240, k: 240, iters: 800, f16: false },
    Shape { class: "fit_hidden_m14", m: 14, n: 240, k: 240, iters: 400, f16: false },
    Shape { class: "fit_first_m6", m: 6, n: 240, k: 64, iters: 3000, f16: true },
    Shape { class: "fit_first_m14", m: 14, n: 240, k: 64, iters: 1500, f16: true },
    Shape { class: "embed_l1_n49", m: 8, n: 49, k: 1, iters: 40000, f16: false },
    Shape { class: "embed_l2_n49", m: 16, n: 49, k: 8, iters: 20000, f16: false },
    Shape { class: "embed_l1_n176", m: 8, n: 176, k: 1, iters: 10000, f16: false },
    Shape { class: "embed_l2_n176", m: 16, n: 176, k: 8, iters: 5000, f16: false },
    Shape { class: "panel", m: 64, n: 240, k: 240, iters: 80, f16: false },
];

/// The fitting-tile classes the acceptance bars gate.
const GATED: [&str; 2] = ["fit_hidden_m6", "fit_hidden_m14"];

fn fill32(len: usize, seed: u64) -> Vec<f32> {
    let h = |i: u64| (((i ^ seed).wrapping_mul(0x9e3779b97f4a7c15) >> 17) & 0xffff) as f32 / 65536.0 - 0.5;
    (0..len as u64).map(h).collect()
}

/// Best GF/s over REPS repetitions of `iters` calls of `f(c)`.
fn rate(sh: &Shape, f: &mut dyn FnMut(&mut [f32])) -> f64 {
    let mut c = vec![0.0f32; sh.m * sh.n];
    let flops = (gemm::flops(sh.m, sh.n, sh.k) * sh.iters as u64) as f64;
    let mut best = f64::MAX;
    f(&mut c); // warm
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..sh.iters {
            f(&mut c);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    flops / best / 1e9
}

/// Elements of the activation bench: the harness probe's inputs, (−3, 3).
const TANH_ELEMS: usize = 1 << 16;

/// Best ns per element over REPS sweeps of `xs` by `sweep(values, dfac)`,
/// which overwrites `values` in place (restored before each sweep).
fn tanh_ns(xs: &[f32], sweep: &mut dyn FnMut(&mut [f32], &mut [f32])) -> f64 {
    let (mut vals, mut dfac) = (xs.to_vec(), vec![0.0f32; xs.len()]);
    let mut best = f64::MAX;
    for _ in 0..=REPS {
        vals.copy_from_slice(xs);
        let t0 = Instant::now();
        sweep(std::hint::black_box(&mut vals), &mut dfac);
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box((&vals, &dfac));
    }
    best * 1e9 / xs.len() as f64
}

/// The `activation` block: libm per element vs the kernel, whole-slice and
/// in 16-element rows.
fn activation_block() -> Value {
    let xs: Vec<f32> = (0..TANH_ELEMS).map(|i| (i as f32 / TANH_ELEMS as f32 - 0.5) * 6.0).collect();
    let libm = tanh_ns(&xs, &mut |v, d| {
        for (v, d) in v.iter_mut().zip(d) {
            let t = (*v as f64).tanh();
            (*v, *d) = (t as f32, (1.0 - t * t) as f32);
        }
    });
    let rows = |v: &mut [f32], d: &mut [f32]| Activation::Tanh.value_grad_rows_f32(v, d);
    let whole = tanh_ns(&xs, &mut |v, d| rows(v, d));
    let rows16 = tanh_ns(&xs, &mut |v, d| {
        for (v, d) in v.chunks_exact_mut(16).zip(d.chunks_exact_mut(16)) {
            rows(std::hint::black_box(v), d);
        }
    });
    println!("tanh: {whole:.2} ns/elem whole slice, {rows16:.2} in rows of 16 (libm {libm:.2})");
    obj(vec![
        ("elems", num(TANH_ELEMS)),
        ("tanh_libm_ns_per_elem", num(libm)),
        ("tanh_kernel_ns_per_elem", num(whole)),
        ("tanh_kernel_rows16_ns_per_elem", num(rows16)),
        ("tanh_kernel_vs_libm", num(libm / whole)),
    ])
}

fn main() {
    let isa = dispatch::active_class().tag();

    let mut entries = Vec::new();
    for sh in &SHAPES {
        let (m, n, k) = (sh.m, sh.n, sh.k);
        let a32 = fill32(m * k, 1);
        let b32 = fill32(k * n, 2);
        let (a, b) = (std::hint::black_box(&a32[..]), &b32[..]);

        // Correctness pin before timing: the kernel agrees with naive
        // within fold-reassociation tolerance.
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        naive::gemm_nn_f32(m, n, k, a, b, &mut want);
        gemm::auto_nn_f32(m, n, k, a, b, &mut got);
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() <= 1e-4 * w.abs().max(1.0), "{} wrong", sh.class);
        }

        let f32_gfs = rate(sh, &mut |c| gemm::auto_nn_f32(m, n, k, a, b, c));
        let naive_gfs = rate(sh, &mut |c| naive::gemm_nn_f32(m, n, k, a, b, c));
        let f16 = sh.f16.then(|| {
            let a16: Vec<F16> = a32.iter().map(|&x| F16::from_f32(x)).collect();
            let b16: Vec<F16> = b32.iter().map(|&x| F16::from_f32(x)).collect();
            rate(sh, &mut |c| gemm::gemm_nn_f16(m, n, k, std::hint::black_box(&a16), &b16, c))
        });

        println!(
            "{:>14} {m:>3}x{n}x{k}: f32 {f32_gfs:6.2} GF/s ({isa}), naive {naive_gfs:5.2} (x{:5.1})  f16 {:>5}",
            sh.class,
            f32_gfs / naive_gfs,
            f16.map_or("-".to_string(), |v| format!("{v:.2}")),
        );
        let mut fields = vec![
            ("class", s(sh.class)),
            ("m", num(m)),
            ("n", num(n)),
            ("k", num(k)),
            ("f32_gfs", num(f32_gfs)),
            ("naive_gfs", num(naive_gfs)),
            ("f32_vs_naive", num(f32_gfs / naive_gfs)),
        ];
        if let Some(f16) = f16 {
            fields.push(("f16_gfs", num(f16)));
        }
        entries.push(obj(fields));
    }

    let activation = activation_block();
    let doc = obj(vec![
        ("bench", s("gemm_kernels")),
        ("mode", s("interleaved-best-of-reps")),
        ("reps", num(REPS)),
        ("isa", s(isa)),
        // Gated on every instantiation but `baseline`; the factor carries slack
        // below the committed measurements (see BENCH_gemm.json).
        (
            "acceptance",
            Value::Array(
                GATED
                    .iter()
                    .map(|&class| {
                        obj(vec![("class", s(class)), ("metric", s("f32_vs_naive")), ("min_speedup", num(8))])
                    })
                    .collect(),
            ),
        ),
        ("classes", Value::Array(entries)),
        ("activation", activation),
        // Same host condition as `acceptance`.
        ("activation_min_speedup_vs_libm", num(4.0)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(out, serde_json::to_string(&doc).unwrap()).unwrap();
    println!("wrote {out} (isa: {isa})");
}
