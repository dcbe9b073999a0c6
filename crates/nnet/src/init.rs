//! Deterministic weight initialization.
//!
//! Every draw comes from a caller-seeded `StdRng`, so a model built from a
//! seed is the same bits on every machine. (Model files are
//! `deepmd::DeepPotModel::{to_json, from_json}`.)

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::activation::Activation;
use crate::layers::{Dense, Mlp, Resnet};

/// Build an MLP with the given hidden widths, Xavier-initialized from `seed`.
///
/// `resnet_policy` decides each hidden layer's skip from its (in, out) pair —
/// DeePMD convention: identity when `out == in`, doubling when `out == 2·in`,
/// plain otherwise. The final layer is linear with no skip.
pub fn build_mlp(in_dim: usize, hidden: &[usize], out_dim: usize, act: Activation, seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = Vec::with_capacity(hidden.len() + 1);
    let mut prev = in_dim;
    for &h in hidden {
        let resnet = if h == prev {
            Resnet::Identity
        } else if h == 2 * prev {
            Resnet::Doubling
        } else {
            Resnet::None
        };
        layers.push(Dense::xavier(prev, h, act, resnet, &mut rng));
        prev = h;
    }
    layers.push(Dense::xavier(prev, out_dim, Activation::Linear, Resnet::None, &mut rng));
    Mlp::new(layers)
}

/// Draw a standard-normal sample via Box–Muller (keeps the dependency set to
/// plain `rand`).
pub fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let v = r * (2.0 * std::f64::consts::PI * u2).cos();
        if v.is_finite() {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_mlp_applies_deepmd_resnet_policy() {
        let mlp = build_mlp(1, &[25, 50, 100], 4, Activation::Tanh, 1);
        assert_eq!(mlp.layers[0].resnet, Resnet::None); // 1 -> 25
        assert_eq!(mlp.layers[1].resnet, Resnet::Doubling); // 25 -> 50
        assert_eq!(mlp.layers[2].resnet, Resnet::Doubling); // 50 -> 100
        assert_eq!(mlp.layers[3].resnet, Resnet::None); // output
        assert_eq!(mlp.layers[3].act, Activation::Linear);

        let fitting = build_mlp(64, &[240, 240, 240], 1, Activation::Tanh, 2);
        assert_eq!(fitting.layers[1].resnet, Resnet::Identity);
        assert_eq!(fitting.layers[2].resnet, Resnet::Identity);
    }

    #[test]
    fn same_seed_same_weights() {
        let a = build_mlp(2, &[8], 1, Activation::Tanh, 7);
        let b = build_mlp(2, &[8], 1, Activation::Tanh, 7);
        assert_eq!(a.layers[0].w, b.layers[0].w);
        let c = build_mlp(2, &[8], 1, Activation::Tanh, 8);
        assert_ne!(a.layers[0].w, c.layers[0].w);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(100);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
