//! Activation functions and their derivatives.
//!
//! Deep Potential uses `tanh` throughout (embedding and fitting nets). The
//! others are kept for ablations and to exercise the graph runtime with more
//! than one nonlinearity.

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent — the Deep Potential default.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Identity (used by output layers).
    Linear,
}

impl Activation {
    /// Apply the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Gelu => {
                let c = (2.0 / std::f64::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *input* `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Gelu => {
                // d/dx of the tanh approximation.
                let c = (2.0 / std::f64::consts::PI).sqrt();
                let u = c * (x + 0.044715 * x * x * x);
                let t = u.tanh();
                let du = c * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            }
            Activation::Linear => 1.0,
        }
    }

    /// Fused value + derivative at an f32 input, sharing one transcendental
    /// evaluation where the math allows (tanh and sigmoid derivatives are
    /// functions of the activation value itself).
    ///
    /// **Bitwise contract:** returns exactly
    /// `(self.apply_f32(x), self.derivative(x as f64))` — the force
    /// pipeline's embedding and fitting sweeps rely on this to halve the
    /// transcendental count without changing a bit, and
    /// `tests::fused_value_grad_is_bitwise_identical` enforces it.
    #[inline]
    pub fn value_grad_f32(self, x: f32) -> (f32, f64) {
        match self {
            Activation::Tanh => {
                let t = (x as f64).tanh();
                (t as f32, 1.0 - t * t)
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-(x as f64)).exp());
                (s as f32, s * (1.0 - s))
            }
            // Gelu's derivative is not a function of its value; no sharing.
            _ => (self.apply_f32(x), self.derivative(x as f64)),
        }
    }

    /// Apply in place over a buffer (the fused "activation kernel").
    pub fn apply_slice(self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Single-precision apply — the `MIX-fp32` path evaluates activations in
    /// f32 (the paper keeps fitting-net activations in fp32 even under
    /// `MIX-fp16`, so there is intentionally no f16 variant).
    #[inline]
    pub fn apply_f32(self, x: f32) -> f32 {
        self.apply(x as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_values() {
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert!((Activation::Tanh.apply(1.0) - 0.761594155955765).abs() < 1e-12);
        assert!(Activation::Tanh.apply(50.0) <= 1.0);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let h = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Gelu, Activation::Linear] {
            for &x in &[-2.0, -0.5, 0.0, 0.3, 1.7] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let an = act.derivative(x);
                assert!((fd - an).abs() < 1e-6, "{act:?} at {x}: fd={fd} an={an}");
            }
        }
    }

    #[test]
    fn slice_apply_matches_scalar() {
        let mut xs = vec![-1.0, 0.0, 2.0];
        Activation::Sigmoid.apply_slice(&mut xs);
        assert!((xs[0] - Activation::Sigmoid.apply(-1.0)).abs() < 1e-15);
        assert_eq!(xs[1], 0.5);
    }

    #[test]
    fn fused_value_grad_is_bitwise_identical() {
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Gelu, Activation::Linear] {
            for i in -4000..4000 {
                let x = i as f32 * 2.5e-3;
                let (v, d) = act.value_grad_f32(x);
                assert_eq!(v.to_bits(), act.apply_f32(x).to_bits(), "{act:?} value at {x}");
                assert_eq!(d.to_bits(), act.derivative(x as f64).to_bits(), "{act:?} grad at {x}");
            }
        }
    }

    #[test]
    fn gelu_is_monotone_near_origin_and_bounded_below() {
        let g = Activation::Gelu;
        assert!(g.apply(0.0).abs() < 1e-15);
        assert!(g.apply(3.0) > g.apply(1.0));
        assert!(g.apply(-10.0).abs() < 1e-6);
    }
}
