//! The kernels of the mixed-precision force pipeline. In f32: the NN GEMM,
//! the `tanh` activation that runs between GEMMs (alone, and fused with an
//! embedding layer's bias, tangent product and resnet skip), and the two
//! environment operators around the embedding net (the T accumulation and
//! its chain rule). In f64: the per-neighbour descriptor passes (displacement and
//! squared distance, switching weight) and the projection of ∂E/∂R̃ onto
//! the displacement that the force scatter consumes.
//!
//! This crate is the workspace's *audited unsafe island* for CPU features:
//! the workspace lint table forbids `unsafe_code` in every other crate
//! except `dpmd-threads`, so the calls into `#[target_feature]` code live
//! here. This crate's own `[lints]` table denies `unsafe_op_in_unsafe_fn`
//! and clippy's `undocumented_unsafe_blocks`, so every `unsafe` block
//! carries a `// SAFETY:` comment and no operation is implicitly unsafe.
//!
//! # One body per kernel, compiled three times
//!
//! Each kernel is one portable `#[inline(always)]` body with no intrinsics,
//! instantiated plainly (the target's baseline ISA: SSE2 on x86_64, NEON
//! with FMA on aarch64) and, on x86_64, twice more: under
//! `#[target_feature(enable = "avx2,fma")]` and under
//! `#[target_feature(enable = "avx512f,avx2,fma")]`. Where a body's tile
//! or strip widths matter they are const parameters, and each
//! instantiation only names its widths. [`isa`] picks the instantiation
//! from the CPU. All three compute the same bits for every input, so which
//! one runs is a speed choice, never a bits choice: there is no dispatch
//! class, and a trajectory is the same bits on every host. All sixteen
//! `unsafe` blocks outside the tests are the call into an `avx2` or
//! `avx512` instantiation, and all sixteen are on the production path.
//!
//! # The GEMM contract
//!
//! [`gemm_nn_f32`] computes every output element `c[i][j]` as the fold
//! `acc = a[i][p].mul_add(b[p][j], acc)` for `p = 0..k` ascending, with
//! `acc` seeded at `+0.0`. [`f32::mul_add`] is correctly rounded on every
//! target — one instruction where the CPU has FMA, libm `fmaf` where it
//! does not (slow, never different) — so the fold pins the bits, and the
//! register tiling cannot move them. Two consequences, both load-bearing
//! for the engine:
//!
//! 1. **Row independence**: an output row depends only on (that row of
//!    `A`, `B`, `n`, `k`), never on `m` or on the row group it landed in,
//!    so stacking rows (batched inference) is bitwise-invisible.
//! 2. The plain [`reference_nn_f32`] fold reproduces the kernel **bit for
//!    bit**, so tests pin it without per-machine golden files.
//!
//! The kernel is f32 NN only, because that is all the force pipeline
//! issues. f64 is the oracle precision — the f64 model runs on the plain
//! `nnet::gemm::naive` fold so that it shares no code with what it checks.
//! NT forms are absent because the engine pre-transposes every weight
//! matrix at model build (the paper's NT→NN preprocessing).
//!
//! # The activation
//!
//! [`tanh_value_grad_f32`] is one body ([`tanh_value_grad_f32_one`]) with
//! no `mul_add` at all. Rust never contracts `a*b + c`, so enabling `fma`
//! for its other instantiations cannot move a bit either.
//!
//! [`tanh_bias_tangent_f32`] runs the same one-element body after the bias
//! add, multiplies the derivative into the tangent and adds a resnet skip,
//! so it is the bias pass, [`tanh_value_grad_f32`], the tangent product
//! and the skip adds, bit for bit.
//!
//! # The environment operators
//!
//! [`env_t_f32`] (`T = G·R̃ᵀ / nmax`) and [`env_chain_f32`] (∂E/∂s and
//! ∂E/∂R̃ per neighbour from ∂E/∂T) are written the same way: no `mul_add`,
//! so every instantiation gives the bits of the plain loops kept as
//! [`reference_env_t_f32`] / [`reference_env_chain_f32`]. Their vector
//! lanes run across outputs — `(feature, coordinate)` pairs for T,
//! neighbours for the chain rule — never along a sum, so vectorizing
//! reorders no fold.
//!
//! # The f64 environment passes
//!
//! [`env_dist_f64`], [`env_smooth_f64`] and [`env_proj_f64`] work on one
//! column per field, one lane per neighbour, and sum nothing across lanes.
//! Each is the expression tree of a scalar branchy form — kept as its
//! `reference_*` — with the branches as compare-selects: every lane
//! evaluates each side and keeps one, so the bits are the reference's.

/// An instantiation of this crate's kernels, from least to most capable:
/// a CPU that runs one runs every one before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The target's baseline ISA, compiled plainly.
    Baseline,
    /// `avx2,fma`: 256-bit vectors.
    Avx2,
    /// `avx512f,avx2,fma`: 512-bit vectors.
    Avx512,
}

/// The instantiation this CPU runs: `Avx2` on x86_64 with AVX2 and FMA,
/// `Avx512` if it has AVX-512F as well (std caches the CPUID probe after
/// the first call). `Baseline` otherwise, and always under Miri, which
/// interprets the plain instantiation.
pub fn isa() -> Isa {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        return if std::is_x86_feature_detected!("avx512f") { Isa::Avx512 } else { Isa::Avx2 };
    }
    Isa::Baseline
}

fn check_dims_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert!(a.len() >= m * k, "A too small: {} < {m}×{k}", a.len());
    assert!(b.len() >= k * n, "B too small: {} < {k}×{n}", b.len());
    assert!(c.len() >= m * n, "C too small: {} < {m}×{n}", c.len());
}

/// The fused fold, written plainly: `C = A·B` in f32, every element
/// `acc = a[i][p].mul_add(b[p][j], acc)` for `p` ascending from `+0.0`.
/// The semantic definition of [`gemm_nn_f32`], for tests; not fast.
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
// f32 GEMM: `C = A·B`, row-major, overwrite.
//
// The paper's tall-and-skinny shape, in the widths each instantiation
// names: `G`-row groups for stacked panels; after 8-row groups, one 4-row
// group if four or more rows are left; then the M ≤ 3 rows left over on
// tiles as wide as the register file allows; then `S`-wide strips, 8-wide
// strips and a scalar column tail. An `R×W` tile is `R·W/V` accumulators
// of `V` f32 lanes:
//
// | instantiation | groups | 4-row | M ≤ 3 tails      | strips | accumulators |
// |---------------|--------|-------|------------------|--------|--------------|
// | plain, avx2   | 4×16   | —     | 1×48, 2×32, 3×24 | 8      | 6–9 ymm      |
// | avx512        | 8×32   | 4×32  | 1×96, 2×64, 3×48 | 16, 8  | 6–16 zmm     |
//
// avx2 keeps 4-row groups: an 8×16 tile would take all 16 ymm registers
// for accumulators and spill.

/// Columns of the narrowest strip before the scalar tail: a 256-bit
/// register of f32.
const STRIP: usize = 8;

/// `C = A·B` in f32: `A` is `m×k`, `B` is `k×n`, `C` is `m×n`, row-major;
/// `C[..m*n]` is overwritten. Every element is the fold of
/// [`reference_nn_f32`], bit for bit, on whichever instantiation [`isa`]
/// picks.
///
/// # Panics
/// If any slice is shorter than its shape requires.
pub fn gemm_nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims_f32(m, n, k, a, b, c);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `nn_f32_avx512`
        // enables.
        Isa::Avx512 => return unsafe { nn_f32_avx512(m, n, k, a, b, c) },
        // SAFETY: `isa()` confirmed both target features `nn_f32_avx2`
        // enables.
        Isa::Avx2 => return unsafe { nn_f32_avx2(m, n, k, a, b, c) },
        Isa::Baseline => {}
    }
    nn_f32_plain(m, n, k, a, b, c);
}

/// [`nn_f32`] in the plain instantiation's widths.
fn nn_f32_plain(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    nn_f32::<4, 16, 48, 32, 24, 8>(m, n, k, a, b, c);
}

/// [`nn_f32`] compiled with 256-bit vectors and FMA.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn nn_f32_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    nn_f32::<4, 16, 48, 32, 24, 8>(m, n, k, a, b, c);
}

/// [`nn_f32`] compiled with 512-bit vectors and FMA.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn nn_f32_avx512(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    nn_f32::<8, 32, 96, 64, 48, 16>(m, n, k, a, b, c);
}

/// The GEMM body: `G`-row groups on `G×W` tiles, one `4×W` group if
/// `G = 8` left four or more rows, then the M ≤ 3 tail on its own `1×W1`,
/// `2×W2` or `3×W3` tile; `S`-wide strips follow every tile run.
#[inline(always)]
fn nn_f32<const G: usize, const W: usize, const W1: usize, const W2: usize, const W3: usize, const S: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut i = 0;
    while i + G <= m {
        rows_f32::<G, W, S>(n, k, &a[i * k..], b, &mut c[i * n..]);
        i += G;
    }
    if i + 4 <= m {
        rows_f32::<4, W, S>(n, k, &a[i * k..], b, &mut c[i * n..]);
        i += 4;
    }
    match m - i {
        1 => rows_f32::<1, W1, S>(n, k, &a[i * k..], b, &mut c[i * n..]),
        2 => rows_f32::<2, W2, S>(n, k, &a[i * k..], b, &mut c[i * n..]),
        3 => rows_f32::<3, W3, S>(n, k, &a[i * k..], b, &mut c[i * n..]),
        _ => {}
    }
}

/// Every column of `R` rows: `W`-wide tiles, then `S`-wide strips, then
/// [`STRIP`]-wide ones (none when `S` is [`STRIP`]), then one scalar fold
/// per row and leftover column. The rows are sliced once here, at their exact
/// lengths, so the compiler can drop the tiles' bounds checks on them.
#[inline(always)]
fn rows_f32<const R: usize, const W: usize, const S: usize>(
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut rest = c;
    let mut c: [&mut [f32]; R] = std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        row
    });
    let mut j = 0;
    while j + W <= n {
        tile_f32::<R, W>(n, &a, b, j, &mut c);
        j += W;
    }
    while j + S <= n {
        tile_f32::<R, S>(n, &a, b, j, &mut c);
        j += S;
    }
    while j + STRIP <= n {
        tile_f32::<R, STRIP>(n, &a, b, j, &mut c);
        j += STRIP;
    }
    // All `R` rows step through `p` together, one fold per row: `R`
    // independent chains instead of one `k`-long chain after another.
    for j in j..n {
        let mut acc = [0.0f32; R];
        for p in 0..k {
            let bp = b[p * n + j];
            for (x, ar) in acc.iter_mut().zip(&a) {
                *x = ar[p].mul_add(bp, *x);
            }
        }
        for (cr, &x) in c.iter_mut().zip(&acc) {
            cr[j] = x;
        }
    }
}

/// Columns `j..j + W` of `R` rows (each `k` long in `a`, `n` long in `c`),
/// accumulated in registers over all of `k`. B's rows are indexed directly:
/// `chunks_exact(n)` would divide per tile and panics at `n = 0`.
#[inline(always)]
fn tile_f32<const R: usize, const W: usize>(
    n: usize,
    a: &[&[f32]; R],
    b: &[f32],
    j: usize,
    c: &mut [&mut [f32]; R],
) {
    let mut acc = [[0.0f32; W]; R];
    for p in 0..a[0].len() {
        let bp = &b[p * n + j..][..W];
        for (row, ar) in acc.iter_mut().zip(a) {
            let ap = ar[p];
            for (x, &y) in row.iter_mut().zip(bp) {
                *x = ap.mul_add(y, *x);
            }
        }
    }
    for (row, cr) in acc.iter().zip(c) {
        cr[j..j + W].copy_from_slice(row);
    }
}

// ---------------------------------------------------------------------------
// f32 tanh activation: value and derivative factor in one pass.
//
// One portable body, no intrinsics and no `mul_add`. Every operation is an
// IEEE-exact f32 add / mul / div, an integer op on the bits, or a select,
// and Rust never contracts `a*b + c`, so the instantiations cannot differ.

/// `(tanh x, 1 − tanh² x)` in f32 — the one-element form of
/// [`tanh_value_grad_f32`] and the single body all of its instantiations
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
/// Runs the instantiation [`isa`] picks. Each one is
/// [`tanh_value_grad_f32_one`] element for element, bit for bit.
pub fn tanh_value_grad_f32(x: &mut [f32], dfac: &mut [f32]) {
    assert_eq!(x.len(), dfac.len(), "one derivative factor per element");
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `tanh_rows_avx512`
        // enables.
        Isa::Avx512 => return unsafe { tanh_rows_avx512(x, dfac) },
        // SAFETY: `isa()` confirmed both target features `tanh_rows_avx2`
        // enables.
        Isa::Avx2 => return unsafe { tanh_rows_avx2(x, dfac) },
        Isa::Baseline => {}
    }
    tanh_rows(x, dfac);
}

/// [`tanh_rows`] compiled with 256-bit vectors. The body has no `mul_add`
/// and Rust never contracts, so `fma` rounds no product differently.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh_rows_avx2(x: &mut [f32], dfac: &mut [f32]) {
    tanh_rows(x, dfac);
}

/// [`tanh_rows`] compiled with 512-bit vectors; no `mul_add`, no
/// contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn tanh_rows_avx512(x: &mut [f32], dfac: &mut [f32]) {
    tanh_rows(x, dfac);
}

/// The two residual operands of a resnet layer: its input rows and their
/// tangents, the same shape.
pub type Skip<'a> = Option<[&'a [f32]; 2]>;

fn check_bias_tangent_f32(n: usize, b: &[f32], x: &[f32], dpre: &[f32], skip: Skip<'_>) {
    assert!(x.len() >= b.len() * n, "values too small: {} < {}×{n}", x.len(), b.len());
    assert!(dpre.len() >= b.len() * n, "tangents too small: {} < {}×{n}", dpre.len(), b.len());
    if let (Some([sx, st]), true) = (skip, n > 0) {
        assert_eq!(sx.len(), st.len(), "one skip tangent per skip value");
        assert!(sx.len() >= n && sx.len() % n == 0, "skip rows: {} is not a whole number of rows of {n}", sx.len());
    }
}

/// An embedding layer's epilogue, written plainly, over `b.len()` rows of
/// `n`: per element of row `m`, `(t, d) = tanh(x + b[m])` by
/// [`tanh_value_grad_f32_one`], then `x ← t` and `dpre ← dpre·d` (the
/// tangent times `1 − tanh²`); with `skip = Some([sx, st])` of `s` rows,
/// then `x ← x + sx[m mod s]` and `dpre ← dpre + st[m mod s]` elementwise
/// (a resnet layer: `s` rows for an identity skip, half the rows for a
/// doubling one). The semantic definition of [`tanh_bias_tangent_f32`],
/// for tests.
pub fn reference_tanh_bias_tangent_f32(n: usize, b: &[f32], x: &mut [f32], dpre: &mut [f32], skip: Skip<'_>) {
    check_bias_tangent_f32(n, b, x, dpre, skip);
    for (m, &bm) in b.iter().enumerate() {
        for k in 0..n {
            let e = m * n + k;
            let (t, d) = tanh_value_grad_f32_one(x[e] + bm);
            x[e] = t;
            dpre[e] *= d;
            if let Some([sx, st]) = skip {
                let from = m % (sx.len() / n) * n + k;
                x[e] += sx[from];
                dpre[e] += st[from];
            }
        }
    }
}

/// An embedding layer's epilogue in place over the first `b.len()` rows
/// of `n` — bias, `tanh`, tangent product and the optional resnet skip —
/// [`reference_tanh_bias_tangent_f32`] bit for bit, on whichever
/// instantiation [`isa`] picks. One pass, with no derivative array.
///
/// # Panics
/// If `x` or `dpre` is shorter than `b.len()·n`, or the skip operands
/// differ in length or are not a whole number (≥ 1) of rows of `n`.
pub fn tanh_bias_tangent_f32(n: usize, b: &[f32], x: &mut [f32], dpre: &mut [f32], skip: Skip<'_>) {
    check_bias_tangent_f32(n, b, x, dpre, skip);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature
        // `bias_tangent_avx512` enables.
        Isa::Avx512 => return unsafe { bias_tangent_avx512(n, b, x, dpre, skip) },
        // SAFETY: `isa()` confirmed both target features
        // `bias_tangent_avx2` enables.
        Isa::Avx2 => return unsafe { bias_tangent_avx2(n, b, x, dpre, skip) },
        Isa::Baseline => {}
    }
    bias_tangent(n, b, x, dpre, skip);
}

/// [`bias_tangent`] compiled with 256-bit vectors; no `mul_add`, no
/// contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn bias_tangent_avx2(n: usize, b: &[f32], x: &mut [f32], dpre: &mut [f32], skip: Skip<'_>) {
    bias_tangent(n, b, x, dpre, skip);
}

/// [`bias_tangent`] compiled with 512-bit vectors; no `mul_add`, no
/// contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn bias_tangent_avx512(n: usize, b: &[f32], x: &mut [f32], dpre: &mut [f32], skip: Skip<'_>) {
    bias_tangent(n, b, x, dpre, skip);
}

/// The epilogue body: one row at a time, the row's bias broadcast, lanes
/// across the row; the skip, if any, in the same pass.
#[inline(always)]
fn bias_tangent(n: usize, b: &[f32], x: &mut [f32], dpre: &mut [f32], skip: Skip<'_>) {
    if n == 0 {
        return;
    }
    let rows = x.chunks_exact_mut(n).zip(dpre.chunks_exact_mut(n)).zip(b);
    match skip {
        None => {
            for ((xr, dr), &bm) in rows {
                for (x, d) in xr.iter_mut().zip(dr) {
                    let (t, df) = tanh_value_grad_f32_one(*x + bm);
                    *x = t;
                    *d *= df;
                }
            }
        }
        Some([sx, st]) => {
            let s = sx.len() / n;
            for (m, ((xr, dr), &bm)) in rows.enumerate() {
                let (sxr, str) = (&sx[m % s * n..][..n], &st[m % s * n..][..n]);
                for (((x, d), &v), &tv) in xr.iter_mut().zip(dr).zip(sxr).zip(str) {
                    let (t, df) = tanh_value_grad_f32_one(*x + bm);
                    *x = t + v;
                    *d = *d * df + tv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Environment operators: the per-neighbour contractions around the
// embedding net of one central atom with `n` neighbours and `m1` features
// (the `ProdEnvMat` / `ProdForce` pair of the DeePMD lineage). `g` and
// `dg_ds` are `m1×n` feature-major, `coords` is `4×n` component-major.
//
// Like `tanh`, each is one portable body with no `mul_add`, so its
// instantiations cannot differ. The vector lanes never run along the
// reduction axis: every output element is the same sequential fold as in
// the `reference_*` form.

/// Neighbours in the narrowest vector strip of [`env_chain_f32`] before
/// the one-at-a-time tail: a 256-bit register.
const NEIGHBOUR_LANES: usize = 8;

fn check_env_f32(m1: usize, n: usize, g: &[f32], coords: &[f32]) {
    assert!(g.len() >= m1 * n, "G too small: {} < {m1}×{n}", g.len());
    assert!(coords.len() >= 4 * n, "coordinates too small: {} < 4×{n}", coords.len());
}

/// The T accumulation, written plainly: `t[m][c] = Σ_k (g[m][k]·coords[c][k])·scale`,
/// every element folded over `k` ascending from `+0.0` with one rounding
/// per multiply and per add. `t[..m1*4]` (`m1×4`) is overwritten. The
/// semantic definition of [`env_t_f32`], for tests.
pub fn reference_env_t_f32(m1: usize, n: usize, g: &[f32], coords: &[f32], scale: f32, t: &mut [f32]) {
    check_env_f32(m1, n, g, coords);
    t[..m1 * 4].fill(0.0);
    for k in 0..n {
        for m in 0..m1 {
            let gv = g[m * n + k];
            for c in 0..4 {
                t[m * 4 + c] += gv * coords[c * n + k] * scale;
            }
        }
    }
}

/// `T = G·R̃ᵀ·scale` (`m1×4`, overwriting `t[..m1*4]`) for `G` `m1×n` and
/// `R̃` `4×n`: [`reference_env_t_f32`] bit for bit, with the vector lanes
/// over the `(m, c)` outputs, on whichever instantiation [`isa`] picks.
///
/// # Panics
/// If any slice is shorter than its shape requires.
pub fn env_t_f32(m1: usize, n: usize, g: &[f32], coords: &[f32], scale: f32, t: &mut [f32]) {
    check_env_f32(m1, n, g, coords);
    assert!(t.len() >= m1 * 4, "T too small: {} < {m1}×4", t.len());
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `env_t_avx512`
        // enables.
        Isa::Avx512 => return unsafe { env_t_avx512(m1, n, g, coords, scale, t) },
        // SAFETY: `isa()` confirmed both target features `env_t_avx2`
        // enables.
        Isa::Avx2 => return unsafe { env_t_avx2(m1, n, g, coords, scale, t) },
        Isa::Baseline => {}
    }
    env_t(m1, n, g, coords, scale, t);
}

/// [`env_t`] compiled with 256-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn env_t_avx2(m1: usize, n: usize, g: &[f32], coords: &[f32], scale: f32, t: &mut [f32]) {
    env_t(m1, n, g, coords, scale, t);
}

/// [`env_t`] compiled with 512-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn env_t_avx512(m1: usize, n: usize, g: &[f32], coords: &[f32], scale: f32, t: &mut [f32]) {
    env_t(m1, n, g, coords, scale, t);
}

/// The T body: eight feature rows at a time (32 accumulators), then one.
#[inline(always)]
fn env_t(m1: usize, n: usize, g: &[f32], coords: &[f32], scale: f32, t: &mut [f32]) {
    let c: [&[f32]; 4] = std::array::from_fn(|cc| &coords[cc * n..][..n]);
    let mut m = 0;
    while m + 8 <= m1 {
        t_rows::<8>(n, &g[m * n..], &c, scale, &mut t[m * 4..]);
        m += 8;
    }
    for m in m..m1 {
        t_rows::<1>(n, &g[m * n..], &c, scale, &mut t[m * 4..]);
    }
}

/// `R` rows of T, accumulated in registers over all `n` neighbours.
#[inline(always)]
fn t_rows<const R: usize>(n: usize, g: &[f32], c: &[&[f32]; 4], scale: f32, t: &mut [f32]) {
    let g: [&[f32]; R] = std::array::from_fn(|r| &g[r * n..][..n]);
    let mut acc = [[0.0f32; 4]; R];
    for k in 0..n {
        let ck = [c[0][k], c[1][k], c[2][k], c[3][k]];
        for (row, gr) in acc.iter_mut().zip(&g) {
            let gv = gr[k];
            for (a, &cv) in row.iter_mut().zip(&ck) {
                *a += gv * cv * scale;
            }
        }
    }
    for (row, out) in acc.iter().zip(t.chunks_exact_mut(4)) {
        out.copy_from_slice(row);
    }
}

/// The chain rule through T, written plainly. Given `dt = ∂E/∂T`
/// (`m1×4`), per neighbour `k`:
///
/// * `de_ds[k] = Σ_m (de_dg[m]·scale)·dg_ds[m][k]`, where
///   `de_dg[m] = Σ_c dt[m][c]·coords[c][k]` (c ascending from `+0.0`);
/// * `de_drt[c][k] = (Σ_m dt[m][c]·g[m][k])·scale`;
///
/// every sum folded in ascending order from `+0.0`, one rounding per
/// multiply and per add. `de_ds[..n]` and `de_drt[..4*n]` (`4×n`) are
/// overwritten. The semantic definition of [`env_chain_f32`], for tests.
#[allow(clippy::too_many_arguments)] // the operator's operands, each its own array
pub fn reference_env_chain_f32(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    check_chain_f32(m1, n, dt, g, dg_ds, coords, de_ds, de_drt);
    for k in 0..n {
        let c = [coords[k], coords[n + k], coords[2 * n + k], coords[3 * n + k]];
        let mut ds = 0.0f32;
        let mut drt = [0.0f32; 4];
        for m in 0..m1 {
            let mut de_dg = 0.0f32;
            for cc in 0..4 {
                de_dg += dt[m * 4 + cc] * c[cc];
                drt[cc] += dt[m * 4 + cc] * g[m * n + k];
            }
            ds += de_dg * scale * dg_ds[m * n + k];
        }
        de_ds[k] = ds;
        for (cc, v) in drt.iter().enumerate() {
            de_drt[cc * n + k] = v * scale;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_chain_f32(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    de_ds: &[f32],
    de_drt: &[f32],
) {
    check_env_f32(m1, n, g, coords);
    assert!(dt.len() >= m1 * 4, "dT too small: {} < {m1}×4", dt.len());
    assert!(dg_ds.len() >= m1 * n, "dG/ds too small: {} < {m1}×{n}", dg_ds.len());
    assert!(de_ds.len() >= n, "dE/ds too small: {} < {n}", de_ds.len());
    assert!(de_drt.len() >= 4 * n, "dE/dR̃ too small: {} < 4×{n}", de_drt.len());
}

/// [`reference_env_chain_f32`] bit for bit, with neighbours as the vector
/// lanes (each lane folds its own neighbour's sums over `m`), on whichever
/// instantiation [`isa`] picks.
///
/// # Panics
/// If any slice is shorter than its shape requires.
#[allow(clippy::too_many_arguments)] // the operator's operands, each its own array
pub fn env_chain_f32(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    check_chain_f32(m1, n, dt, g, dg_ds, coords, de_ds, de_drt);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `env_chain_avx512`
        // enables.
        Isa::Avx512 => return unsafe { env_chain_avx512(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt) },
        // SAFETY: `isa()` confirmed both target features `env_chain_avx2`
        // enables.
        Isa::Avx2 => return unsafe { env_chain_avx2(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt) },
        Isa::Baseline => {}
    }
    env_chain_plain(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
}

/// [`env_chain`] on the plain instantiation's [`NEIGHBOUR_LANES`] lanes.
#[allow(clippy::too_many_arguments)]
fn env_chain_plain(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    env_chain::<NEIGHBOUR_LANES>(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
}

/// [`env_chain`] compiled with 256-bit vectors on [`NEIGHBOUR_LANES`]
/// lanes; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn env_chain_avx2(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    env_chain::<NEIGHBOUR_LANES>(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
}

/// [`env_chain`] compiled with 512-bit vectors on 16 lanes; no `mul_add`,
/// no contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn env_chain_avx512(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    env_chain::<16>(m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
}

/// The chain-rule body: strips of `L` neighbours, then of
/// [`NEIGHBOUR_LANES`] (none when `L` is [`NEIGHBOUR_LANES`]), then one
/// neighbour at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn env_chain<const L: usize>(
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    let mut k = 0;
    while k + L <= n {
        chain_lanes::<L>(k, m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
        k += L;
    }
    while k + NEIGHBOUR_LANES <= n {
        chain_lanes::<NEIGHBOUR_LANES>(k, m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
        k += NEIGHBOUR_LANES;
    }
    for k in k..n {
        chain_lanes::<1>(k, m1, n, dt, g, dg_ds, coords, scale, de_ds, de_drt);
    }
}

/// Neighbours `k0..k0 + L`, one per lane, every sum held in registers
/// across the whole `m` loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn chain_lanes<const L: usize>(
    k0: usize,
    m1: usize,
    n: usize,
    dt: &[f32],
    g: &[f32],
    dg_ds: &[f32],
    coords: &[f32],
    scale: f32,
    de_ds: &mut [f32],
    de_drt: &mut [f32],
) {
    let lanes = |xs: &[f32], at: usize| -> [f32; L] { xs[at..at + L].try_into().expect("L lanes") };
    let c: [[f32; L]; 4] = std::array::from_fn(|cc| lanes(coords, cc * n + k0));
    let mut ds = [0.0f32; L];
    let mut drt = [[0.0f32; L]; 4];
    for m in 0..m1 {
        let (gm, sm) = (lanes(g, m * n + k0), lanes(dg_ds, m * n + k0));
        let mut de_dg = [0.0f32; L];
        for cc in 0..4 {
            let d = dt[m * 4 + cc];
            for l in 0..L {
                de_dg[l] += d * c[cc][l];
                drt[cc][l] += d * gm[l];
            }
        }
        for l in 0..L {
            ds[l] += de_dg[l] * scale * sm[l];
        }
    }
    de_ds[k0..k0 + L].copy_from_slice(&ds);
    for (cc, row) in drt.iter().enumerate() {
        for (o, &v) in de_drt[cc * n + k0..][..L].iter_mut().zip(row) {
            *o = v * scale;
        }
    }
}

// ---------------------------------------------------------------------------
// f64 environment passes: the descriptor of a central atom (displacement,
// squared distance, distance and switching weight) and the projection of
// ∂E/∂s and ∂E/∂R̃ onto the displacement, over one column per field.
//
// Lanes run across neighbours and nothing sums across them. Every op is an
// IEEE-exact `+ − × ÷ √` or a compare-select, in the order and association
// of the scalar branches the `reference_*` forms spell out, and none is a
// `mul_add`: each instantiation has the reference's bits. The branches
// become selects, so a lane computes both sides and keeps one.

/// Displacements and squared distances, written plainly: per neighbour
/// `k`, `d[a][k] ← d[a][k] − xi[a]` (positions in, displacements out),
/// then with `period = Some(l)` the minimum image per axis — `d > ½l →
/// d − l`, else `d < −½l → d + l` — and `r2[k] = (x·x + y·y) + z·z`. The
/// semantic definition of [`env_dist_f64`], for tests.
pub fn reference_env_dist_f64(xi: [f64; 3], period: Option<[f64; 3]>, mut d: [&mut [f64]; 3], r2: &mut [f64]) {
    let n = r2.len();
    check_columns_f64(n, d.iter().map(|c| c.len()));
    for (k, r2) in r2.iter_mut().enumerate() {
        let mut v = [0.0f64; 3];
        for (a, col) in d.iter_mut().enumerate() {
            let mut x = col[k] - xi[a];
            if let Some(l) = period {
                if x > 0.5 * l[a] {
                    x -= l[a];
                } else if x < -0.5 * l[a] {
                    x += l[a];
                }
            }
            col[k] = x;
            v[a] = x;
        }
        *r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
    }
}

fn check_columns_f64(n: usize, lens: impl IntoIterator<Item = usize>) {
    for len in lens {
        assert!(len >= n, "column too small: {len} < {n}");
    }
}

/// [`reference_env_dist_f64`] bit for bit over the first `r2.len()`
/// entries of each column of `d`, on whichever instantiation [`isa`]
/// picks.
///
/// # Panics
/// If a column of `d` is shorter than `r2`.
pub fn env_dist_f64(xi: [f64; 3], period: Option<[f64; 3]>, d: [&mut [f64]; 3], r2: &mut [f64]) {
    check_columns_f64(r2.len(), d.iter().map(|c| c.len()));
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `dist_avx512`
        // enables.
        Isa::Avx512 => return unsafe { dist_avx512(xi, period, d, r2) },
        // SAFETY: `isa()` confirmed both target features `dist_avx2`
        // enables.
        Isa::Avx2 => return unsafe { dist_avx2(xi, period, d, r2) },
        Isa::Baseline => {}
    }
    dist(xi, period, d, r2);
}

/// [`dist`] compiled with 256-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dist_avx2(xi: [f64; 3], period: Option<[f64; 3]>, d: [&mut [f64]; 3], r2: &mut [f64]) {
    dist(xi, period, d, r2);
}

/// [`dist`] compiled with 512-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn dist_avx512(xi: [f64; 3], period: Option<[f64; 3]>, d: [&mut [f64]; 3], r2: &mut [f64]) {
    dist(xi, period, d, r2);
}

/// The displacement body: one loop with the minimum image, one without.
#[inline(always)]
fn dist(xi: [f64; 3], period: Option<[f64; 3]>, d: [&mut [f64]; 3], r2: &mut [f64]) {
    match period {
        Some(l) => dist_lanes::<true>(xi, l, d, r2),
        None => dist_lanes::<false>(xi, [0.0; 3], d, r2),
    }
}

/// One lane per neighbour; with `WRAP`, each axis's image step is two
/// compares on the unwrapped displacement and two selects.
#[inline(always)]
fn dist_lanes<const WRAP: bool>(xi: [f64; 3], l: [f64; 3], d: [&mut [f64]; 3], r2: &mut [f64]) {
    let n = r2.len();
    let [x, y, z] = d;
    let (x, y, z) = (&mut x[..n], &mut y[..n], &mut z[..n]);
    let (half, neg_half) = (l.map(|len| 0.5 * len), l.map(|len| -0.5 * len));
    let shift = |p: f64, a: usize| {
        let v = p - xi[a];
        if !WRAP {
            return v;
        }
        let (down, up) = (v - l[a], v + l[a]);
        if v > half[a] {
            down
        } else if v < neg_half[a] {
            up
        } else {
            v
        }
    };
    for k in 0..n {
        let (dx, dy, dz) = (shift(x[k], 0), shift(y[k], 1), shift(z[k], 2));
        (x[k], y[k], z[k]) = (dx, dy, dz);
        r2[k] = dx * dx + dy * dy + dz * dz;
    }
}

/// The switching weight and its derivative, written plainly: per entry,
/// `r ← √r` (squared distance in, distance out), then DeePMD-kit's
/// smoothing with `u = (r − r_cs)/(r_c − r_cs)`: `(0, 0)` for `r ≥ r_c`,
/// `(1/r, −1/r²)` for `r < r_cs`, and on the taper `s = poly/r` with
/// `poly = u³(−6u² + 15u − 10) + 1`. The semantic definition of
/// [`env_smooth_f64`], for tests.
pub fn reference_env_smooth_f64(rcut_smth: f64, rcut: f64, r: &mut [f64], s: &mut [f64], ds_dr: &mut [f64]) {
    let n = r.len();
    check_columns_f64(n, [s.len(), ds_dr.len()]);
    for k in 0..n {
        let rk = r[k].sqrt();
        let (sk, dk) = if rk >= rcut {
            (0.0, 0.0)
        } else if rk < rcut_smth {
            (1.0 / rk, -1.0 / (rk * rk))
        } else {
            let du_dr = 1.0 / (rcut - rcut_smth);
            let u = (rk - rcut_smth) * du_dr;
            let poly = u * u * u * (-6.0 * u * u + 15.0 * u - 10.0) + 1.0;
            let dpoly_du = u * u * (-30.0 * u * u + 60.0 * u - 30.0);
            (poly / rk, dpoly_du * du_dr / rk - poly / (rk * rk))
        };
        (r[k], s[k], ds_dr[k]) = (rk, sk, dk);
    }
}

/// [`reference_env_smooth_f64`] bit for bit over the first `r.len()`
/// entries, on whichever instantiation [`isa`] picks.
///
/// # Panics
/// If `s` or `ds_dr` is shorter than `r`.
pub fn env_smooth_f64(rcut_smth: f64, rcut: f64, r: &mut [f64], s: &mut [f64], ds_dr: &mut [f64]) {
    check_columns_f64(r.len(), [s.len(), ds_dr.len()]);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `smooth_avx512`
        // enables.
        Isa::Avx512 => return unsafe { smooth_avx512(rcut_smth, rcut, r, s, ds_dr) },
        // SAFETY: `isa()` confirmed both target features `smooth_avx2`
        // enables.
        Isa::Avx2 => return unsafe { smooth_avx2(rcut_smth, rcut, r, s, ds_dr) },
        Isa::Baseline => {}
    }
    smooth(rcut_smth, rcut, r, s, ds_dr);
}

/// [`smooth`] compiled with 256-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn smooth_avx2(rcut_smth: f64, rcut: f64, r: &mut [f64], s: &mut [f64], ds_dr: &mut [f64]) {
    smooth(rcut_smth, rcut, r, s, ds_dr);
}

/// [`smooth`] compiled with 512-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn smooth_avx512(rcut_smth: f64, rcut: f64, r: &mut [f64], s: &mut [f64], ds_dr: &mut [f64]) {
    smooth(rcut_smth, rcut, r, s, ds_dr);
}

/// The switching body: every lane evaluates the inner and the taper
/// expressions, then two compares pick one of them or `(0, 0)`.
#[inline(always)]
fn smooth(rcut_smth: f64, rcut: f64, r: &mut [f64], s: &mut [f64], ds_dr: &mut [f64]) {
    let n = r.len();
    let (s, ds_dr) = (&mut s[..n], &mut ds_dr[..n]);
    let du_dr = 1.0 / (rcut - rcut_smth);
    for k in 0..n {
        let rk = r[k].sqrt();
        let rr = rk * rk;
        let inner = (1.0 / rk, -1.0 / rr);
        let u = (rk - rcut_smth) * du_dr;
        let poly = u * u * u * (-6.0 * u * u + 15.0 * u - 10.0) + 1.0;
        let dpoly_du = u * u * (-30.0 * u * u + 60.0 * u - 30.0);
        let taper = (poly / rk, dpoly_du * du_dr / rk - poly / rr);
        let (sk, dk) = if rk >= rcut {
            (0.0, 0.0)
        } else if rk < rcut_smth {
            inner
        } else {
            taper
        };
        (r[k], s[k], ds_dr[k]) = (rk, sk, dk);
    }
}

/// The f64 columns [`env_proj_f64`] reads: one environment's
/// displacements, distances, switching weights and their derivatives, the
/// same length each.
#[derive(Clone, Copy, Debug)]
pub struct EnvCols<'a> {
    /// Displacement components `x, y, z` of neighbour minus centre.
    pub d: [&'a [f64]; 3],
    /// Distances.
    pub r: &'a [f64],
    /// Switching weights `s(r)`.
    pub s: &'a [f64],
    /// `ds/dr`.
    pub ds_dr: &'a [f64],
}

impl EnvCols<'_> {
    fn len(&self) -> usize {
        self.r.len()
    }
}

fn check_proj_f64(env: &EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], out: &[&mut [f64]; 3]) {
    let n = env.len();
    for col in env.d.iter().chain([&env.s, &env.ds_dr]) {
        assert!(col.len() >= n, "column too small: {} < {n}", col.len());
    }
    assert!(de_ds.len() >= n, "dE/ds too small: {} < {n}", de_ds.len());
    assert!(de_drt.len() >= 4 * n, "dE/dR̃ too small: {} < 4×{n}", de_drt.len());
    for col in out {
        assert!(col.len() >= n, "output column too small: {} < {n}", col.len());
    }
}

/// The force projection, written plainly: per neighbour `k`, the 4×3
/// Jacobian `J = ∂R̃/∂d` with `inv_r = 1/r` and `∂s/∂d_l = (s'·d_l)·inv_r`,
/// `J[0][l] = ∂s/∂d_l` and
/// `J[c+1][l] = (∂s/∂d_l·d_c)·inv_r + s·(δ_cl·inv_r − ((d_c·d_l)·inv_r)·inv_r·inv_r)`,
/// then `out[l][k] = de_ds[k]·∂s/∂d_l + Σ_c de_drt[c][k]·J[c][l]`, folded
/// `c = 0..4` after the first term, every f32 widened to f64. `de_drt` is
/// `4×n` component-major. The semantic definition of [`env_proj_f64`], for
/// tests.
pub fn reference_env_proj_f64(env: EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], mut out: [&mut [f64]; 3]) {
    check_proj_f64(&env, de_ds, de_drt, &out);
    let n = env.len();
    for k in 0..n {
        let d = [env.d[0][k], env.d[1][k], env.d[2][k]];
        let (s, ds) = (env.s[k], env.ds_dr[k]);
        let inv_r = 1.0 / env.r[k];
        let dsdd = [ds * d[0] * inv_r, ds * d[1] * inv_r, ds * d[2] * inv_r];
        let mut jac = [[0.0f64; 3]; 4];
        jac[0] = dsdd;
        for c in 0..3 {
            for l in 0..3 {
                let delta = if c == l { 1.0 } else { 0.0 };
                jac[c + 1][l] = dsdd[l] * d[c] * inv_r + s * (delta * inv_r - d[c] * d[l] * inv_r * inv_r * inv_r);
            }
        }
        for (l, col) in out.iter_mut().enumerate() {
            let mut v = de_ds[k] as f64 * dsdd[l];
            for (c, row) in jac.iter().enumerate() {
                v += de_drt[c * n + k] as f64 * row[l];
            }
            col[k] = v;
        }
    }
}

/// ∂E/∂d per neighbour of `env` into the three `out` columns:
/// [`reference_env_proj_f64`] bit for bit, on whichever instantiation
/// [`isa`] picks.
///
/// # Panics
/// If a column, `de_ds` (`n`), `de_drt` (`4×n`) or an `out` column is
/// shorter than `env.r`.
pub fn env_proj_f64(env: EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], out: [&mut [f64]; 3]) {
    check_proj_f64(&env, de_ds, de_drt, &out);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        // SAFETY: `isa()` confirmed every target feature `proj_avx512`
        // enables.
        Isa::Avx512 => return unsafe { proj_avx512(env, de_ds, de_drt, out) },
        // SAFETY: `isa()` confirmed both target features `proj_avx2`
        // enables.
        Isa::Avx2 => return unsafe { proj_avx2(env, de_ds, de_drt, out) },
        Isa::Baseline => {}
    }
    proj(env, de_ds, de_drt, out);
}

/// [`proj`] compiled with 256-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn proj_avx2(env: EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], out: [&mut [f64]; 3]) {
    proj(env, de_ds, de_drt, out);
}

/// [`proj`] compiled with 512-bit vectors; no `mul_add`, no contraction.
///
/// # Safety
/// The CPU must have AVX-512F, AVX2 and FMA ([`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn proj_avx512(env: EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], out: [&mut [f64]; 3]) {
    proj(env, de_ds, de_drt, out);
}

/// The projection body: one lane per neighbour, the Jacobian held in
/// registers, every column sliced once to `n` so the loop has no bounds
/// checks.
#[inline(always)]
fn proj(env: EnvCols<'_>, de_ds: &[f32], de_drt: &[f32], out: [&mut [f64]; 3]) {
    let n = env.len();
    let [x, y, z] = env.d.map(|col| &col[..n]);
    let (r, s, ds_dr, de_ds) = (&env.r[..n], &env.s[..n], &env.ds_dr[..n], &de_ds[..n]);
    let drt: [&[f32]; 4] = std::array::from_fn(|c| &de_drt[c * n..][..n]);
    let [ox, oy, oz] = out;
    let (ox, oy, oz) = (&mut ox[..n], &mut oy[..n], &mut oz[..n]);
    for k in 0..n {
        let d = [x[k], y[k], z[k]];
        let (s, ds) = (s[k], ds_dr[k]);
        let inv_r = 1.0 / r[k];
        let dsdd = [ds * d[0] * inv_r, ds * d[1] * inv_r, ds * d[2] * inv_r];
        let jac = |c: usize, l: usize| {
            let delta = if c == l { 1.0 } else { 0.0 };
            dsdd[l] * d[c] * inv_r + s * (delta * inv_r - d[c] * d[l] * inv_r * inv_r * inv_r)
        };
        let (e_s, e0, e1, e2, e3) = (de_ds[k] as f64, drt[0][k] as f64, drt[1][k] as f64, drt[2][k] as f64, drt[3][k] as f64);
        let axis = |l: usize| e_s * dsdd[l] + e0 * dsdd[l] + e1 * jac(0, l) + e2 * jac(1, l) + e3 * jac(2, l);
        (ox[k], oy[k], oz[k]) = (axis(0), axis(1), axis(2));
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

    /// The instantiations of one kernel this CPU runs, plain first, each
    /// with its name; prints a note for each one it lacks.
    fn runnable<F>(all: Vec<(Isa, F)>) -> Vec<(&'static str, F)> {
        let name = |on: Isa| match on {
            Isa::Baseline => "plain",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        };
        let here = isa();
        all.into_iter()
            .filter(|&(on, _)| {
                if on > here {
                    println!("note: skipping the {} instantiation, this CPU runs {}", name(on), name(here));
                }
                on <= here
            })
            .map(|(on, f)| (name(on), f))
            .collect()
    }

    type Gemm = unsafe fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    type Tanh = unsafe fn(&mut [f32], &mut [f32]);
    type EnvT = unsafe fn(usize, usize, &[f32], &[f32], f32, &mut [f32]);
    type Chain = unsafe fn(usize, usize, &[f32], &[f32], &[f32], &[f32], f32, &mut [f32], &mut [f32]);
    type BiasTangent = unsafe fn(usize, &[f32], &mut [f32], &mut [f32], Skip<'_>);
    type Dist = unsafe fn([f64; 3], Option<[f64; 3]>, [&mut [f64]; 3], &mut [f64]);
    type Smooth = unsafe fn(f64, f64, &mut [f64], &mut [f64], &mut [f64]);
    type Proj = unsafe fn(EnvCols<'_>, &[f32], &[f32], [&mut [f64]; 3]);

    fn gemms() -> Vec<(&'static str, Gemm)> {
        #[allow(unused_mut)] // nothing to add off x86_64
        let mut all = vec![(Isa::Baseline, nn_f32_plain as Gemm)];
        #[cfg(target_arch = "x86_64")]
        all.extend([(Isa::Avx2, nn_f32_avx2 as Gemm), (Isa::Avx512, nn_f32_avx512)]);
        runnable(all)
    }

    fn tanhs() -> Vec<(&'static str, Tanh)> {
        #[allow(unused_mut)]
        let mut all = vec![(Isa::Baseline, tanh_rows as Tanh)];
        #[cfg(target_arch = "x86_64")]
        all.extend([(Isa::Avx2, tanh_rows_avx2 as Tanh), (Isa::Avx512, tanh_rows_avx512)]);
        runnable(all)
    }

    fn bias_tangents() -> Vec<(&'static str, BiasTangent)> {
        #[allow(unused_mut)]
        let mut all = vec![(Isa::Baseline, bias_tangent as BiasTangent)];
        #[cfg(target_arch = "x86_64")]
        all.extend([(Isa::Avx2, bias_tangent_avx2 as BiasTangent), (Isa::Avx512, bias_tangent_avx512)]);
        runnable(all)
    }

    fn env_f64_kernels() -> Vec<(&'static str, (Dist, Smooth, Proj))> {
        #[allow(unused_mut)]
        let mut all = vec![(Isa::Baseline, (dist as Dist, smooth as Smooth, proj as Proj))];
        #[cfg(target_arch = "x86_64")]
        all.extend([
            (Isa::Avx2, (dist_avx2 as Dist, smooth_avx2 as Smooth, proj_avx2 as Proj)),
            (Isa::Avx512, (dist_avx512, smooth_avx512, proj_avx512)),
        ]);
        runnable(all)
    }

    fn env_kernels() -> Vec<(&'static str, (EnvT, Chain))> {
        #[allow(unused_mut)]
        let mut all = vec![(Isa::Baseline, (env_t as EnvT, env_chain_plain as Chain))];
        #[cfg(target_arch = "x86_64")]
        all.extend([
            (Isa::Avx2, (env_t_avx2 as EnvT, env_chain_avx2 as Chain)),
            (Isa::Avx512, (env_t_avx512, env_chain_avx512)),
        ]);
        runnable(all)
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
        (14, 240, 64), // a Cu fitting tile: one 8-row group, one 4-row, a 2-row tail
        (14, 1, 240),  // the fitting net's output layer: scalar column tail only
        (17, 33, 12),
    ];

    /// m on every row path (eight- and four-row groups, each M ≤ 3 tail,
    /// and each combination), n ragged around every tile and strip width
    /// of every instantiation, k = 0 included. Miri interprets the plain
    /// instantiation alone, so it gets a few of each and the small edge
    /// shapes.
    fn gemm_shapes() -> Vec<(usize, usize, usize)> {
        let (ms, ns, ks): (Vec<usize>, &[usize], &[usize]) = if cfg!(miri) {
            (vec![1, 2, 3, 5], &[0, 9, 17, 25, 33, 49], &[0, 2])
        } else {
            (
                (1..=17).collect(),
                &[
                    0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 45, 47, 48, 49, 63, 64, 65, 95, 96, 97,
                    176,
                ],
                &[0, 1, 7],
            )
        };
        let mut shapes: Vec<_> =
            EDGE_SHAPES.iter().copied().filter(|&(m, n, k)| !cfg!(miri) || m * n * k <= 4096).collect();
        for m in ms {
            for &n in ns {
                shapes.extend(ks.iter().map(|&k| (m, n, k)));
            }
        }
        shapes
    }

    /// Every instantiation this CPU runs is the fused fold bit for bit,
    /// overwrites every element of a poison-filled output, and computes
    /// each row of a stacked panel exactly as it computes it alone.
    #[test]
    fn gemm_instantiations_are_the_fused_fold_bitwise() {
        let poison = f32::from_bits(0x7fc0_dead);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let gemms = gemms();
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for (m, n, k) in gemm_shapes() {
            let a: Vec<f32> = (0..m * k).map(|_| rng.next_unit() as f32).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.next_unit() as f32).collect();
            let mut want = vec![0.0f32; m * n];
            reference_nn_f32(m, n, k, &a, &b, &mut want);
            for &(inst, gemm) in &gemms {
                let mut got = vec![poison; m * n];
                // SAFETY: `runnable` kept only the instantiations `isa()`
                // allows.
                unsafe { gemm(m, n, k, &a, &b, &mut got) };
                assert_eq!(bits(&got), bits(&want), "{inst} {m}x{n}x{k}");
                for i in 0..m {
                    let mut solo = vec![poison; n];
                    // SAFETY: as above.
                    unsafe { gemm(1, n, k, &a[i * k..(i + 1) * k], &b, &mut solo) };
                    assert_eq!(bits(&solo), bits(&want[i * n..(i + 1) * n]), "{inst} row {i} of {m}x{n}x{k}");
                }
            }
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

    /// Every instantiation of the slice kernel this CPU runs is the
    /// one-element form, bit for bit, at every slice length and alignment
    /// (vector bodies and tails) and over the whole sweep.
    #[test]
    fn tanh_instantiations_agree_bitwise() {
        let tanhs = tanhs();
        let same = |xs: &[f32]| {
            for &(inst, tanh) in &tanhs {
                let (mut t, mut d) = (xs.to_vec(), vec![7.0f32; xs.len()]);
                // SAFETY: `runnable` kept only the instantiations `isa()`
                // allows.
                unsafe { tanh(&mut t, &mut d) };
                for (i, &x) in xs.iter().enumerate() {
                    let (tw, dw) = tanh_value_grad_f32_one(x);
                    assert_eq!((t[i].to_bits(), d[i].to_bits()), (tw.to_bits(), dw.to_bits()), "{inst}, {x:e} at {i}");
                }
            }
        };
        let mut rng = Rng(0x2545f4914f6cdd1d);
        let mut pool: Vec<f32> = (0..57).map(|_| (rng.next_unit() * 12.0) as f32).collect();
        pool[3] = f32::NAN;
        pool[17] = f32::NEG_INFINITY;
        pool[29] = -0.0;
        for offset in 0..16 {
            for len in 0..=41 {
                same(&pool[offset..offset + len]);
            }
        }
        let sweep = tanh_sweep();
        same(&sweep);
        same(&sweep.iter().map(|x| -x).collect::<Vec<_>>());
    }

    /// Operands of one environment-kernel case: `(dt, g, dg_ds, coords)`.
    type EnvOperands = [Vec<f32>; 4];

    /// Three operand sets per shape: finite values in (−1, 1); the same with
    /// NaN, ±∞ and −0 planted in every operand; and all −0 in `g` and
    /// `dg_ds`, whose products must fold to +0 from the `+0.0` seed.
    fn env_operand_sets(m1: usize, n: usize, rng: &mut Rng) -> [EnvOperands; 3] {
        let mut fill = |len: usize| (0..len).map(|_| rng.next_unit() as f32).collect::<Vec<f32>>();
        let finite = [fill(m1 * 4), fill(m1 * n), fill(m1 * n), fill(4 * n)];
        let mut special = finite.clone();
        for (i, op) in special.iter_mut().enumerate() {
            let len = op.len();
            for (j, v) in [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY].into_iter().enumerate() {
                if len > 0 {
                    op[(7 * i + 13 * j + 3) % len] = v;
                }
            }
        }
        let mut zeros = finite.clone();
        zeros[1].fill(-0.0);
        zeros[2].fill(-0.0);
        [finite, special, zeros]
    }

    /// Equal bits, or both NaN (a NaN's payload is not part of the
    /// contract).
    fn same_f32(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Every instantiation of both environment kernels this CPU runs is
    /// their reference bit for bit — signed zeros included, NaN and ∞
    /// propagated — and overwrites every element of a poison-filled output,
    /// over neighbour counts on both sides of every strip boundary and
    /// feature counts on both sides of the eight-row block. Miri interprets,
    /// so it gets a few of each.
    #[test]
    fn env_kernels_are_their_reference_bitwise() {
        let (ns, m1s): (&[usize], &[usize]) = if cfg!(miri) {
            (&[0, 1, 8, 9, 17], &[1, 3, 9])
        } else {
            (&[0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 176, 177], &[1, 3, 4, 8, 16, 17])
        };
        let poison = f32::from_bits(0x7fc0_dead);
        let kernels = env_kernels();
        let scale = 1.0 / 92.0;
        let mut rng = Rng(0x853c49e6748fea9b);
        for &n in ns {
            for &m1 in m1s {
                for (set, [dt, g, dg_ds, coords]) in env_operand_sets(m1, n, &mut rng).iter().enumerate() {
                    let what = |inst: &str| format!("{inst} m1 {m1} n {n} operand set {set}");
                    let mut t_want = vec![0.0f32; m1 * 4];
                    reference_env_t_f32(m1, n, g, coords, scale, &mut t_want);
                    let (mut ds_want, mut drt_want) = (vec![0.0f32; n], vec![0.0f32; 4 * n]);
                    reference_env_chain_f32(m1, n, dt, g, dg_ds, coords, scale, &mut ds_want, &mut drt_want);
                    if set != 1 {
                        let all = t_want.iter().chain(&ds_want).chain(&drt_want);
                        assert!(all.clone().all(|x| !x.is_nan()), "{}: reference NaN", what("finite"));
                        if set == 2 {
                            assert!(all.clone().all(|x| x.to_bits() != (-0.0f32).to_bits()), "−0 survived");
                        }
                    }
                    for &(inst, (env_t_k, chain_k)) in &kernels {
                        let mut t = vec![poison; m1 * 4];
                        let (mut ds, mut drt) = (vec![poison; n], vec![poison; 4 * n]);
                        // SAFETY: `runnable` kept only the instantiations
                        // `isa()` allows.
                        unsafe {
                            env_t_k(m1, n, g, coords, scale, &mut t);
                            chain_k(m1, n, dt, g, dg_ds, coords, scale, &mut ds, &mut drt);
                        }
                        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        if set == 1 {
                            assert!(same_f32(&t, &t_want), "{}: T", what(inst));
                            assert!(same_f32(&ds, &ds_want), "{}: dE/ds", what(inst));
                            assert!(same_f32(&drt, &drt_want), "{}: dE/dR̃", what(inst));
                        } else {
                            assert_eq!(bits(&t), bits(&t_want), "{}: T", what(inst));
                            assert_eq!(bits(&ds), bits(&ds_want), "{}: dE/ds", what(inst));
                            assert_eq!(bits(&drt), bits(&drt_want), "{}: dE/dR̃", what(inst));
                        }
                    }
                }
            }
        }
    }

    /// Equal bits, or both NaN, in f64.
    fn same_f64(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Lengths ragged around the 8- and 16-lane strips (Miri: a few).
    fn ragged_lengths() -> &'static [usize] {
        if cfg!(miri) {
            &[0, 1, 9, 17]
        } else {
            &[0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 176, 177]
        }
    }

    /// Every instantiation of the fused embedding epilogue this CPU runs is
    /// its reference bit for bit — NaN, ±∞ and −0 in the values, the biases,
    /// the tangents and the skip included — and leaves rows past `b.len()`
    /// alone: without a skip, with an identity skip (as many rows as `b`)
    /// and a doubling one (half as many), over row lengths on both sides of
    /// every strip and pre-activations on both sides of the 0.625 seam and
    /// the clamp.
    #[test]
    fn tanh_bias_tangent_is_its_reference_bitwise() {
        let kernels = bias_tangents();
        let mut rng = Rng(0x6a09e667f3bcc909);
        for &n in ragged_lengths() {
            for (rows, skip_rows) in [(1usize, 0usize), (3, 0), (8, 0), (1, 1), (3, 3), (8, 8), (2, 1), (8, 4)] {
                let mut fill = |len: usize, scale: f64| (0..len).map(|_| (rng.next_unit() * scale) as f32).collect::<Vec<f32>>();
                let (mut x, mut dpre, mut b) = (fill((rows + 1) * n, 12.0), fill((rows + 1) * n, 1.0), fill(rows, 1.0));
                let (mut sx, mut st) = (fill(skip_rows * n, 1.0), fill(skip_rows * n, 1.0));
                if n > 2 {
                    (x[0], x[1], x[2]) = (f32::NAN, f32::NEG_INFINITY, -0.0);
                    (dpre[1], dpre[2]) = (f32::INFINITY, -0.0);
                    b[rows - 1] = -0.0;
                    if skip_rows > 0 {
                        (sx[2], st[0]) = (-0.0, f32::NAN);
                    }
                }
                let skip = (skip_rows > 0).then_some([&sx[..], &st[..]]);
                let (mut x_want, mut d_want) = (x.clone(), dpre.clone());
                reference_tanh_bias_tangent_f32(n, &b, &mut x_want, &mut d_want, skip);
                assert_eq!(x_want[rows * n..], x[rows * n..], "reference wrote past its rows");
                for &(inst, kernel) in &kernels {
                    let (mut xk, mut dk) = (x.clone(), dpre.clone());
                    // SAFETY: `runnable` kept only the instantiations `isa()`
                    // allows.
                    unsafe { kernel(n, &b, &mut xk, &mut dk, skip) };
                    let what = format!("{inst} {rows}×{n}, {skip_rows} skip rows");
                    assert!(same_f32(&xk, &x_want), "{what}: values");
                    assert!(same_f32(&dk, &d_want), "{what}: tangents");
                }
            }
        }
    }

    /// Positions around a centre for the displacement kernel: random points
    /// in the box, then planted cases on every axis — a wrap of each sign,
    /// exactly ±½L (which does not wrap), just past it (which does) — and
    /// one neighbour on the centre itself (r² = 0).
    fn env_positions(n: usize, xi: [f64; 3], l: [f64; 3], rng: &mut Rng) -> [Vec<f64>; 3] {
        let mut p: [Vec<f64>; 3] = std::array::from_fn(|a| (0..n).map(|_| xi[a] + 0.5 * l[a] * rng.next_unit()).collect());
        let mut plant = |k: usize, a: usize, v: f64| {
            if k < n {
                p[a][k] = v;
            }
        };
        for a in 0..3 {
            let half = 0.5 * l[a];
            let cases = [xi[a] + 0.9 * l[a], xi[a] - 0.9 * l[a], xi[a] + half, xi[a] - half, xi[a] + half * 1.000001, xi[a] - half * 1.000001];
            for (c, v) in cases.into_iter().enumerate() {
                plant(3 + 6 * a + c, a, v);
            }
        }
        for (a, &x) in xi.iter().enumerate() {
            plant(1, a, x);
        }
        p
    }

    /// Every instantiation of the three f64 environment kernels this CPU
    /// runs is its reference bit for bit and overwrites every element of a
    /// poison-filled output: displacements with and without the minimum
    /// image (a wrap of each sign on every axis, `d = ±½L` exactly), the
    /// switching weight at `r = r_c` exactly, on both sides of `r_cs` and at
    /// `r² = 0`, and the projection over those columns with NaN and ±∞
    /// planted in its f32 inputs, at lengths ragged around 8 and 16 lanes.
    #[test]
    fn env_f64_kernels_are_their_reference_bitwise() {
        let poison = f64::from_bits(0x7ff8_0000_dead_beef);
        let kernels = env_f64_kernels();
        let (rcut_smth, rcut) = (0.5, 6.0);
        // Dyadic, so `(xi ± ½l) − xi` is exactly `±½l`.
        let (xi, l) = ([1.25, -3.5, 7.0], [14.5, 10.75, 21.5]);
        let mut rng = Rng(0xbb67ae8584caa73b);
        for &n in ragged_lengths() {
            for period in [Some(l), None] {
                let what = |inst: &str| format!("{inst} n {n} period {period:?}");
                let pos = env_positions(n, xi, l, &mut rng);
                let mut d_want = pos.clone();
                let mut r2_want = vec![0.0f64; n];
                let [x, y, z] = &mut d_want;
                reference_env_dist_f64(xi, period, [x, y, z], &mut r2_want);
                if period.is_some() && n > 3 + 6 * 3 {
                    let wrapped = (0..3).all(|a| d_want[a][3 + 6 * a] < 0.0 && d_want[a][4 + 6 * a] > 0.0);
                    let kept = (0..3).all(|a| d_want[a][5 + 6 * a] == 0.5 * l[a] && d_want[a][6 + 6 * a] == -0.5 * l[a]);
                    assert!(wrapped && kept, "{}: planted image cases", what("reference"));
                }
                // Distances for the switching weight: the measured ones, then
                // r = r_c, r < r_cs, r on the r_cs knot and r² = 0 planted.
                let mut r_want = r2_want.clone();
                for (k, r2) in [(0, rcut * rcut), (2, 0.09), (5, rcut_smth * rcut_smth), (1, 0.0)] {
                    if k < n {
                        r_want[k] = r2;
                    }
                }
                let r2_in = r_want.clone();
                let (mut s_want, mut ds_want) = (vec![0.0f64; n], vec![0.0f64; n]);
                reference_env_smooth_f64(rcut_smth, rcut, &mut r_want, &mut s_want, &mut ds_want);
                if n > 5 {
                    assert_eq!((s_want[0], ds_want[0]), (0.0, 0.0), "r = r_c is outside");
                    assert_eq!(s_want[2], 1.0 / 0.3, "r < r_cs is 1/r");
                }
                let mut de_ds: Vec<f32> = (0..n).map(|_| rng.next_unit() as f32).collect();
                let mut de_drt: Vec<f32> = (0..4 * n).map(|_| rng.next_unit() as f32).collect();
                if n > 9 {
                    (de_ds[7], de_drt[n + 8], de_drt[3 * n + 9]) = (f32::NAN, f32::INFINITY, -0.0);
                }
                let env = EnvCols { d: [&d_want[0], &d_want[1], &d_want[2]], r: &r_want, s: &s_want, ds_dr: &ds_want };
                let mut proj_want = [vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]];
                let [px, py, pz] = &mut proj_want;
                reference_env_proj_f64(env, &de_ds, &de_drt, [px, py, pz]);

                for &(inst, (dist_k, smooth_k, proj_k)) in &kernels {
                    let mut d = pos.clone();
                    let mut r2 = vec![poison; n];
                    let [x, y, z] = &mut d;
                    // SAFETY: `runnable` kept only the instantiations
                    // `isa()` allows.
                    unsafe { dist_k(xi, period, [x, y, z], &mut r2) };
                    for a in 0..3 {
                        assert!(same_f64(&d[a], &d_want[a]), "{}: axis {a}", what(inst));
                    }
                    assert!(same_f64(&r2, &r2_want), "{}: r²", what(inst));

                    let mut r = r2_in.clone();
                    let (mut s, mut ds) = (vec![poison; n], vec![poison; n]);
                    // SAFETY: as above.
                    unsafe { smooth_k(rcut_smth, rcut, &mut r, &mut s, &mut ds) };
                    assert!(same_f64(&r, &r_want), "{}: r", what(inst));
                    assert!(same_f64(&s, &s_want), "{}: s", what(inst));
                    assert!(same_f64(&ds, &ds_want), "{}: ds/dr", what(inst));

                    let mut got = [vec![poison; n], vec![poison; n], vec![poison; n]];
                    let [gx, gy, gz] = &mut got;
                    // SAFETY: as above.
                    unsafe { proj_k(env, &de_ds, &de_drt, [gx, gy, gz]) };
                    for a in 0..3 {
                        assert!(same_f64(&got[a], &proj_want[a]), "{}: ∂E/∂d axis {a}", what(inst));
                    }
                }
            }
        }
    }
}
