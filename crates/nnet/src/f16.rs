//! IEEE 754 binary16 ("half precision") as a conversion.
//!
//! The paper converts the first-layer GEMM of the fitting net to fp16
//! (`MIX-fp16`). Fugaku's A64FX executes fp16 natively through SVE; here
//! binary16 is a rounding, not an arithmetic: an `f32` is rounded to the
//! nearest binary16 (round-to-nearest-even, matching hardware `fcvt`) and
//! widened back exactly, and the arithmetic on the rounded values is f32 —
//! exactly an fp16-storage / fp32-accumulate kernel (`crate::gemm` module
//! docs). The rounding error injected into Table II / Fig. 6 experiments is
//! therefore the real fp16 error.

use std::fmt;

/// An IEEE 754 binary16 floating-point number stored as its bit pattern.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct F16(pub u16);

/// Convert an `f32` to binary16 bits with round-to-nearest-even.
///
/// Handles normals, subnormals, signed zero, infinities and NaN (NaN payload
/// is truncated but kept non-zero so NaN stays NaN).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Infinity or NaN.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            // Keep a non-zero payload so the NaN survives the conversion.
            sign | 0x7c00 | 0x0200 | ((mant >> 13) as u16 & 0x03ff)
        };
    }

    let unbiased = exp - 127;
    let h_exp = unbiased + 15;

    if h_exp >= 0x1f {
        // Overflow: round to infinity.
        return sign | 0x7c00;
    }

    if h_exp <= 0 {
        // Subnormal half (or underflow to zero).
        if h_exp < -10 {
            // Too small even for the largest subnormal shift: flush to zero.
            return sign;
        }
        // Add the implicit leading one, then shift into the 10-bit field.
        let m = mant | 0x0080_0000;
        let shift = (14 - h_exp) as u32;
        // Round-to-nearest-even: add (half - 1) plus the low bit of the result.
        let half = 1u32 << (shift - 1);
        let rounded = (m + half - 1 + ((m >> shift) & 1)) >> shift;
        return sign | rounded as u16;
    }

    // Normal half.
    let mut out = ((h_exp as u32) << 10) | (mant >> 13);
    let round_bit = 1u32 << 12;
    if (mant & round_bit) != 0 && ((mant & (round_bit - 1)) != 0 || (out & 1) != 0) {
        // A carry out of the mantissa rolls into the exponent and, at the
        // top, naturally produces infinity — the IEEE-correct behaviour.
        out += 1;
    }
    sign | out as u16
}

/// Convert binary16 bits to `f32` (exact: every f16 is representable).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;

    match exp {
        0 => {
            if mant == 0 {
                f32::from_bits(sign)
            } else {
                // Subnormal: value = mant * 2^-24. Exact in f32.
                let v = mant as f32 * (1.0 / 16_777_216.0);
                if sign != 0 {
                    -v
                } else {
                    v
                }
            }
        }
        0x1f => f32::from_bits(sign | 0x7f80_0000 | (mant << 13)),
        _ => f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13)),
    }
}

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);

    /// Round an `f32` to the nearest representable binary16.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    /// Widen to `f32` (exact).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Build from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> Self {
        F16(bits)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// A binary16 NaN: all-ones exponent, non-zero mantissa.
    fn is_nan_bits(bits: u16) -> bool {
        (bits & 0x7c00) == 0x7c00 && (bits & 0x03ff) != 0
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048i32..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i} must be exact");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3c00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xc000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7bff);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(F16::from_f32(1.0e5).to_bits(), 0x7c00);
        assert_eq!(F16::from_f32(-1.0e5).to_bits(), 0xfc00);
        // 65520 is the first value that rounds up to infinity (midpoint,
        // ties-to-even picks the "even" infinity side per IEEE).
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7c00);
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7bff);
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).to_bits(), 0x0000);
        // Largest subnormal.
        let lsd = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(lsd).to_bits(), 0x03ff);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
        // (mantissa 0 -> stays 1.0).
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).to_bits(), 0x3c00);
        // (1 + 2^-10) + 2^-11 is halfway between consecutive halves with odd
        // low bit -> rounds up to even.
        let tie2 = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).to_bits(), 0x3c02);
    }

    #[test]
    fn nan_survives() {
        assert!(is_nan_bits(F16::from_f32(f32::NAN).to_bits()));
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!is_nan_bits(F16::from_f32(1.0).to_bits()));
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7c00);
        assert!(F16::from_bits(0x7c00).to_f32().is_infinite());
    }

    #[test]
    fn relative_error_bound_is_2_pow_minus_11() {
        // Unit roundoff for RTNE binary16 is 2^-11 for normal values.
        let mut worst: f64 = 0.0;
        let mut x = 1.000001f32;
        while x < 1000.0 {
            let r = F16::from_f32(x).to_f32();
            let rel = ((r - x) / x).abs() as f64;
            worst = worst.max(rel);
            x *= 1.01;
        }
        assert!(worst <= 2.0f64.powi(-11) + 1e-9, "worst rel err {worst}");
        assert!(worst > 2.0f64.powi(-13), "sampling should see real rounding");
    }

    /// Independent reference for the value of a *positive* f16 bit pattern,
    /// computed straight from the IEEE 754 binary16 encoding in f64 (every
    /// binary16 value is exact in f64). Deliberately shares no code with
    /// `f16_bits_to_f32`.
    fn ref_value(bits: u16) -> f64 {
        assert_eq!(bits & 0x8000, 0);
        let exp = ((bits >> 10) & 0x1f) as i32;
        let mant = (bits & 0x03ff) as f64;
        match exp {
            0 => mant * 2.0f64.powi(-24),
            0x1f => f64::INFINITY,
            _ => (1.0 + mant / 1024.0) * 2.0f64.powi(exp - 15),
        }
    }

    /// Independent reference RTNE f32 → binary16: nearest representable by
    /// binary search over the (monotone) positive bit patterns, ties to the
    /// even pattern. Overflow: anything at or beyond 65520 (the midpoint
    /// between MAX = 65504 and the next power-of-two step) rounds to
    /// infinity — at the midpoint itself because 0x7bff is odd.
    fn ref_f32_to_f16(x: f32) -> u16 {
        let sign = if x.is_sign_negative() { 0x8000u16 } else { 0 };
        if x.is_nan() {
            return 0x7e00;
        }
        let a = x.abs() as f64;
        if a >= 65520.0 {
            return sign | 0x7c00;
        }
        // Largest positive pattern whose value is <= a.
        let (mut lo, mut hi) = (0u16, 0x7bffu16);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if ref_value(mid) <= a {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let nearest = if lo == 0x7bff {
            lo
        } else {
            let (v0, v1) = (ref_value(lo), ref_value(lo + 1));
            match (a - v0).partial_cmp(&(v1 - a)).unwrap() {
                Ordering::Less => lo,
                Ordering::Greater => lo + 1,
                Ordering::Equal => {
                    if lo & 1 == 0 {
                        lo
                    } else {
                        lo + 1
                    }
                }
            }
        };
        sign | nearest
    }

    /// `f16_bits_to_f32` must agree with the encoding-level reference on
    /// every one of the 2^16 bit patterns (bitwise, so ±0 are separated).
    #[test]
    fn widening_matches_reference_for_all_bit_patterns() {
        for bits in 0u16..=u16::MAX {
            let got = f16_bits_to_f32(bits);
            if is_nan_bits(bits) {
                assert!(got.is_nan(), "bits {bits:#06x} must widen to NaN");
                continue;
            }
            let mag = ref_value(bits & 0x7fff) as f32;
            let want = if bits & 0x8000 != 0 { -mag } else { mag };
            assert_eq!(got.to_bits(), want.to_bits(), "bits {bits:#06x}");
        }
    }

    /// `f32_to_f16_bits` must agree with the reference at every rounding
    /// boundary: for each pair of adjacent finite f16 values, probe both
    /// endpoints, the exact midpoint (representable in f32: binary16 has 11
    /// significand bits, so midpoints need 12 of f32's 24) and one f32 ulp
    /// to either side of it — the inputs where a rounding bug would show.
    #[test]
    fn narrowing_matches_reference_at_all_rounding_boundaries() {
        for b in 0u16..0x7bff {
            let v0 = ref_value(b) as f32;
            let v1 = ref_value(b + 1) as f32;
            let mid = ((ref_value(b) + ref_value(b + 1)) * 0.5) as f32;
            let above = f32::from_bits(mid.to_bits() + 1);
            let below = if mid == 0.0 { -above } else { f32::from_bits(mid.to_bits() - 1) };
            for p in [v0, v1, mid, above, below] {
                assert_eq!(
                    f32_to_f16_bits(p),
                    ref_f32_to_f16(p),
                    "boundary pair {b:#06x}/{:#06x}, probe {p:e}",
                    b + 1
                );
                assert_eq!(
                    f32_to_f16_bits(-p),
                    ref_f32_to_f16(-p),
                    "boundary pair {b:#06x}/{:#06x}, probe {:e}",
                    b + 1,
                    -p
                );
            }
        }
    }

    /// Boundary probes the pair sweep cannot reach: the overflow midpoint,
    /// the subnormal flush threshold, and the special values — plus a
    /// deterministic pseudorandom sweep across the full f32 range.
    #[test]
    fn narrowing_matches_reference_on_specials_and_random_sweep() {
        let probes = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            65504.0,                          // F16::MAX
            65519.996,                        // just below the overflow midpoint
            65520.0,                          // midpoint: ties-to-even -> infinity
            65536.0,
            f32::MAX,
            2.0f32.powi(-14),                 // smallest normal
            2.0f32.powi(-24),                 // smallest subnormal
            2.0f32.powi(-25),                 // tie between 0 and 2^-24 -> even -> 0
            f32::from_bits(0x3300_0000 + 1),  // one ulp above 2^-25
            2.0f32.powi(-26),                 // below half the smallest subnormal
            f32::MIN_POSITIVE,                // f32 normal floor, far under f16 range
        ];
        for p in probes {
            for x in [p, -p] {
                assert_eq!(f32_to_f16_bits(x), ref_f32_to_f16(x), "probe {x:e}");
            }
        }
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7c00, 0x7c00);
        assert_ne!(f32_to_f16_bits(f32::NAN) & 0x03ff, 0);

        // xorshift32 over raw f32 bit patterns; skip NaNs (payload freedom).
        let mut state = 0x9e37_79b9u32;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let x = f32::from_bits(state);
            if x.is_nan() {
                continue;
            }
            assert_eq!(f32_to_f16_bits(x), ref_f32_to_f16(x), "random {x:e} ({state:#010x})");
        }
    }

    #[test]
    fn every_f16_round_trips_through_f32_exactly() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            if is_nan_bits(bits) {
                assert!(is_nan_bits(F16::from_f32(h.to_f32()).to_bits()));
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }
}
