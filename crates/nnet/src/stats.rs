//! GEMM call accounting for the observability layer.
//!
//! The force pipeline's cost is dominated by a handful of GEMM shape
//! classes (per-tile stacked fitting calls, type-sorted embedding panels),
//! so the profile keys call counts by precision and M-dimension class
//! rather than by call site. [`GemmTally`] is a fixed table of counters:
//! recording is two relaxed atomic increments — no allocation, no locking,
//! no hashing on the hot path.
//!
//! A tally exists only where a registry was attached; every recording site
//! takes `Option<&GemmTally>` and skips on `None`.

use std::sync::Arc;

use dpmd_obs::{Counter, MetricsRegistry};

/// Precision class of a GEMM call: the operands' storage precision (binary16
/// operands are accumulated in f32, per the paper's fp16-sve-gemm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecClass {
    /// f32 storage and accumulation.
    F32,
    /// binary16 storage, f32 accumulation.
    F16,
}

impl PrecClass {
    /// In discriminant order: the counter table is indexed by `p as usize`.
    const ALL: [PrecClass; 2] = [PrecClass::F32, PrecClass::F16];

    /// Short tag used in metric names (`fp32`/`fp16`).
    pub fn tag(self) -> &'static str {
        match self {
            PrecClass::F32 => "fp32",
            PrecClass::F16 => "fp16",
        }
    }
}

/// M-dimension shape classes, from single rows up to large stacked panels.
/// The class tally is what shows the call-count shift when type-sorting
/// batches per-neighbour matvecs into multi-row GEMMs.
const M_CLASS_TAGS: [&str; 6] = ["m1", "m2", "m3", "m4_8", "m9_64", "m65p"];

#[inline]
fn m_class(m: usize) -> usize {
    match m {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        4..=8 => 3,
        9..=64 => 4,
        _ => 5,
    }
}

/// Per-precision M-shape-class GEMM call counters. Cloning is cheap (the
/// table is shared).
#[derive(Clone, Debug)]
pub struct GemmTally {
    /// `nnet.gemm.{prec}.{mclass}.calls`, indexed `prec * 6 + m_class`.
    classes: Arc<Vec<Counter>>,
}

impl GemmTally {
    /// Register one `nnet.gemm.{fp32|fp16}.{m1|m2|m3|m4_8|m9_64|m65p}.calls`
    /// counter per pair.
    pub fn register(reg: &MetricsRegistry) -> Self {
        let mut classes = Vec::with_capacity(PrecClass::ALL.len() * M_CLASS_TAGS.len());
        for prec in PrecClass::ALL {
            for tag in M_CLASS_TAGS {
                let name = format!("nnet.gemm.{}.{tag}.calls", prec.tag());
                classes.push(reg.counter(&name, dpmd_obs::Unit::Count));
            }
        }
        GemmTally { classes: Arc::new(classes) }
    }

    /// Count one GEMM call with `m` rows at the given precision.
    ///
    /// `m` is the call's *stacked* count: atoms for a fitting-net call,
    /// neighbours of one species for an embedding-net call. The embedding
    /// runs feature-major (`Yᵀ = Wᵀ·Xᵀ`), so there the neighbours are the
    /// GEMM's N dimension and its M is the layer width; it is still tallied
    /// by its neighbour count, which keeps the classes comparable across
    /// layouts.
    #[inline]
    pub fn record(&self, m: usize, p: PrecClass) {
        self.classes[p as usize * M_CLASS_TAGS.len() + m_class(m)].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every call lands in exactly one (precision, M-class) counter.
    #[test]
    fn shape_class_counters_accumulate() {
        let reg = MetricsRegistry::default();
        let tally = GemmTally::register(&reg);
        tally.record(1, PrecClass::F32);
        tally.record(40, PrecClass::F32);
        tally.record(40, PrecClass::F16);
        tally.record(3, PrecClass::F16);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("nnet.gemm.fp32.m1.calls"), Some(1));
        assert_eq!(snap.counter("nnet.gemm.fp32.m9_64.calls"), Some(1));
        assert_eq!(snap.counter("nnet.gemm.fp16.m9_64.calls"), Some(1));
        assert_eq!(snap.counter("nnet.gemm.fp16.m3.calls"), Some(1));
        assert_eq!(snap.counter("nnet.gemm.fp32.m2.calls"), Some(0));
    }
}
