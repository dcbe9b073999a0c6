//! Activation functions and their derivatives.
//!
//! Deep Potential uses `tanh` throughout (embedding and fitting nets); the
//! fitting net's output layer is the identity. Those are the two variants.
//!
//! Two precisions, two implementations. The f64 side
//! ([`Activation::apply`], [`Activation::derivative`]) is libm: it is what
//! the f64 model — the oracle — evaluates. The f32 side
//! ([`Activation::value_grad_rows_f32`] and its one-element form
//! [`Activation::value_grad_f32`]) is what the mixed-precision force
//! pipeline runs over whole GEMM outputs; for `Tanh` it is the vectorised
//! kernel in `dpmd-simd`, the same bits on every host.

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent — the Deep Potential default.
    Tanh,
    /// Identity (used by output layers).
    Linear,
}

impl Activation {
    /// Apply the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
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
            Activation::Linear => 1.0,
        }
    }

    /// Fused value + derivative at an f32 input — the one-element form of
    /// [`value_grad_rows_f32`](Self::value_grad_rows_f32).
    ///
    /// **Bitwise contract:** the value is bitwise equal, element for
    /// element, to what `value_grad_rows_f32` writes, and the derivative is
    /// that function's f32 factor widened. For `Tanh` both come from
    /// `dpmd-simd`'s f32 kernel (≤ 1.4 ulp from libm), not from
    /// [`apply`](Self::apply) / [`derivative`](Self::derivative), which
    /// stay f64 libm: the f64 model is the oracle the mixed pipeline is
    /// checked against.
    #[inline]
    pub fn value_grad_f32(self, x: f32) -> (f32, f64) {
        match self {
            Activation::Tanh => {
                let (t, d) = dpmd_simd::tanh_value_grad_f32_one(x);
                (t, d as f64)
            }
            Activation::Linear => (x, 1.0),
        }
    }

    /// The force pipeline's activation step, in place over a whole GEMM
    /// output: `x ← act(x)`, `dfac ← act′(x)`, equal lengths. `Tanh` is one
    /// call of `dpmd-simd`'s vectorised kernel, whose bits do not depend on
    /// the host; `Linear` leaves `x` and fills `dfac` with ones.
    pub fn value_grad_rows_f32(self, x: &mut [f32], dfac: &mut [f32]) {
        match self {
            Activation::Tanh => dpmd_simd::tanh_value_grad_f32(x, dfac),
            Activation::Linear => {
                assert_eq!(x.len(), dfac.len(), "one derivative factor per element");
                dfac.fill(1.0);
            }
        }
    }

    /// Apply in place over a buffer (the fused "activation kernel").
    pub fn apply_slice(self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
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
        for act in [Activation::Tanh, Activation::Linear] {
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
        Activation::Tanh.apply_slice(&mut xs);
        assert_eq!(xs[0], Activation::Tanh.apply(-1.0));
        assert_eq!(xs[1], 0.0);
        assert_eq!(xs[2], 2.0f64.tanh());
    }

    /// Both variants: the one-element form is the rows form bit for bit.
    /// Linear: the value is the input and the factor is one. Tanh: its
    /// accuracy against libm is `dpmd-simd`'s test.
    #[test]
    fn fused_value_grad_is_bitwise_identical() {
        let xs: Vec<f32> = (-4000..4000).map(|i| i as f32 * 2.5e-3).collect();
        for act in [Activation::Tanh, Activation::Linear] {
            let (mut rows, mut dfac) = (xs.clone(), vec![0.0f32; xs.len()]);
            act.value_grad_rows_f32(&mut rows, &mut dfac);
            for ((&x, row), df) in xs.iter().zip(rows).zip(dfac) {
                let (v, d) = act.value_grad_f32(x);
                assert_eq!(v.to_bits(), row.to_bits(), "{act:?} rows value at {x}");
                assert_eq!((d as f32).to_bits(), df.to_bits(), "{act:?} rows grad at {x}");
                if act == Activation::Tanh {
                    assert_eq!(d, df as f64, "Tanh grad at {x} is the f32 factor widened");
                } else {
                    assert_eq!(v.to_bits(), x.to_bits(), "{act:?} value at {x}");
                    assert_eq!(d, 1.0, "{act:?} grad at {x}");
                }
            }
        }
    }
}
