//! Offline stand-in for the `rand` crate.
//!
//! The container this workspace builds in has no registry access, so the
//! external `rand` dependency can never be fetched. This shim provides the
//! exact API surface the workspace uses — `rngs::StdRng`, [`SeedableRng`]
//! and [`RngExt::random_range`] — over a small, fully deterministic PRNG
//! (xoshiro256++ seeded through SplitMix64, the same construction the real
//! `rand` uses for seeding).
//!
//! Determinism is load-bearing: model initialization, dataset generation,
//! Langevin noise and the Maxwell–Boltzmann draw all stream from
//! `StdRng::seed_from_u64`, and the reproduction's trajectory-equality
//! tests assert bit-identical results for equal seeds.

use std::ops::Range;

/// Seeding constructors (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed array type.
    type Seed;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a single `u64` (SplitMix64 key expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// The range-sampling extension trait the workspace imports as
/// `rand::RngExt` (the shape of `rand 0.9+`'s `Rng::random_range`).
pub trait RngExt {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a half-open range.
    fn random_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self.next_u64(), range)
    }
}

/// Types [`RngExt::random_range`] can sample.
pub trait SampleRange: PartialOrd + Copy {
    /// Map 64 uniform bits into `range`.
    fn sample(bits: u64, range: Range<Self>) -> Self;
}

macro_rules! sample_float {
    ($t:ty) => {
        impl SampleRange for $t {
            #[inline]
            fn sample(bits: u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                // 53 uniform mantissa bits -> u in [0, 1).
                let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let lo = range.start as f64;
                let hi = range.end as f64;
                let v = lo + (hi - lo) * u;
                // Guard the open upper bound against rounding.
                let v = if v >= hi { lo.max(hi - (hi - lo) * f64::EPSILON) } else { v };
                v as $t
            }
        }
    };
}

sample_float!(f64);
sample_float!(f32);

macro_rules! sample_uint {
    ($t:ty) => {
        impl SampleRange for $t {
            #[inline]
            fn sample(bits: u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                // Multiply-shift reduction: unbiased enough for simulation
                // seeding (span << 2^64 here), and branch-free.
                let hi = ((bits as u128 * span as u128) >> 64) as u64;
                range.start + hi as $t
            }
        }
    };
}

sample_uint!(u64);
sample_uint!(u32);
sample_uint!(usize);
sample_uint!(u16);
sample_uint!(u8);

macro_rules! sample_int {
    ($t:ty, $u:ty) => {
        impl SampleRange for $t {
            #[inline]
            fn sample(bits: u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = range.end.abs_diff(range.start) as u64;
                let hi = ((bits as u128 * span as u128) >> 64) as u64;
                range.start.wrapping_add(hi as $t)
            }
        }
    };
}

sample_int!(i64, u64);
sample_int!(i32, u32);

/// RNG implementations.
pub mod rngs {
    use super::{RngExt, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `rand`'s
    /// ChaCha12-based `StdRng`; same trait surface, different stream).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (k, chunk) in seed.chunks_exact(8).enumerate() {
                s[k] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            if s == [0; 4] {
                s = [1, 2, 3, 4];
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut key = state;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut key);
            }
            StdRng { s }
        }
    }

    impl RngExt for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn float_ranges_are_contained_and_spread() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut lo_half = 0usize;
        for _ in 0..10_000 {
            let x: f64 = rng.random_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&x));
            if x < 0.5 {
                lo_half += 1;
            }
        }
        // Mean of the indicator is 1/2; allow generous slack.
        assert!((4_000..6_000).contains(&lo_half), "{lo_half}");
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn min_positive_range_never_returns_zero() {
        // integrate.rs draws `random_range(f64::MIN_POSITIVE..1.0)` and
        // takes a logarithm — zero would be -inf.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
