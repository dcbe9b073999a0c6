//! Names the frozen benchmark harness imports, kept until ROADMAP item 3a
//! routes it through one façade. Nothing here selects a kernel: the f32
//! GEMM is one fold with one bit pattern on every host, and `dpmd-simd`'s
//! one probe, [`dpmd_simd::isa`], picks which of its three instantiations
//! computes it.

/// Which instantiation of the `dpmd-simd` kernels runs in this process —
/// a speed label for banners and result headers, not a bits label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchClass {
    /// The `avx512f,avx2,fma` instantiation (x86_64 with all three).
    Avx512,
    /// The `avx2,fma` instantiation (x86_64 with both features).
    Avx2,
    /// The plain instantiation of the target's baseline ISA.
    Baseline,
}

impl DispatchClass {
    /// Stable lowercase tag for logs and CLI output.
    pub fn tag(self) -> &'static str {
        match self {
            DispatchClass::Avx512 => "avx512",
            DispatchClass::Avx2 => "avx2",
            DispatchClass::Baseline => "baseline",
        }
    }
}

/// The instantiation this CPU runs.
pub fn active_class() -> DispatchClass {
    match dpmd_simd::isa() {
        dpmd_simd::Isa::Avx512 => DispatchClass::Avx512,
        dpmd_simd::Isa::Avx2 => DispatchClass::Avx2,
        dpmd_simd::Isa::Baseline => DispatchClass::Baseline,
    }
}

/// The retired scalar-class override. Nothing reads it; the harness still
/// prints its value.
pub const FORCE_SCALAR_ENV: &str = "DPMD_FORCE_SCALAR";
