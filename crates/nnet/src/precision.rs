//! Precision modes of the optimized DeePMD-kit (§III-B3, Table II).
//!
//! * `Double` — everything in f64 (the baseline).
//! * `Mix32` — embedding-net and fitting-net arithmetic in f32; descriptor
//!   assembly and force reduction stay f64.
//! * `Mix16` — like `Mix32`, but the first fitting layer's GEMMs run on
//!   operands rounded through binary16 with f32 accumulation (the
//!   fp16-sve-gemm).

use serde::{Deserialize, Serialize};

/// The three precision configurations evaluated in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full double precision.
    #[default]
    Double,
    /// Mixed single precision ("MIX-fp32").
    Mix32,
    /// Mixed half precision ("MIX-fp16").
    Mix16,
}

impl Precision {
    /// All modes, in the order Table II lists them.
    pub const ALL: [Precision; 3] = [Precision::Double, Precision::Mix32, Precision::Mix16];

    /// Human-readable name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Double => "Double",
            Precision::Mix32 => "MIX-fp32",
            Precision::Mix16 => "MIX-fp16",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Precision::Double.label(), "Double");
        assert_eq!(Precision::Mix32.label(), "MIX-fp32");
        assert_eq!(Precision::Mix16.label(), "MIX-fp16");
    }
}
