//! The embedding net: `s(r) ↦ g ∈ R^{M₁}` per neighbour (paper Fig. 1b).
//!
//! One net per neighbour species (the `se_a` convention). Input is the
//! single scalar `s(r)`, so the Jacobian needed by the force backward pass
//! is a single column — computed here by forward-mode differentiation in
//! the same sweep as the value.

use nnet::activation::Activation;
use nnet::layers::{Dense, Mlp, Resnet};
use nnet::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// An embedding network (all-tanh MLP from 1 scalar to M₁ features).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EmbeddingNet {
    /// The underlying MLP (kept public for the trainer).
    pub mlp: Mlp,
}

impl EmbeddingNet {
    /// Build with DeePMD's resnet policy (identity when widths repeat,
    /// doubling when a width doubles).
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(!widths.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = 1usize;
        for &w in widths {
            let resnet = if w == prev {
                Resnet::Identity
            } else if w == 2 * prev {
                Resnet::Doubling
            } else {
                Resnet::None
            };
            layers.push(Dense::xavier(prev, w, Activation::Tanh, resnet, &mut rng));
            prev = w;
        }
        EmbeddingNet { mlp: Mlp::new(layers) }
    }

    /// Output feature width M₁.
    pub fn m1(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Evaluate `g(s)` alone.
    pub fn forward(&self, s: f64) -> Vec<f64> {
        let x = Matrix::from_vec(1, 1, vec![s]);
        self.mlp.forward_infer(&x).into_vec()
    }

    /// Evaluate `g(s)` and `dg/ds` in one forward-mode sweep.
    pub fn forward_with_grad(&self, s: f64) -> (Vec<f64>, Vec<f64>) {
        let (mut val, mut tan) = (vec![s], vec![1.0]);
        for layer in &self.mlp.layers {
            let (ind, outd) = (layer.in_dim(), layer.out_dim());
            debug_assert_eq!(val.len(), ind);
            let mut pre = layer.b.clone();
            let mut dpre = vec![0.0; outd];
            for i in 0..ind {
                for (o, &w) in layer.w.row(i).iter().enumerate() {
                    pre[o] += val[i] * w;
                    dpre[o] += tan[i] * w;
                }
            }
            let mut out: Vec<f64> = pre.iter().map(|&p| layer.act.apply(p)).collect();
            let mut dout: Vec<f64> =
                pre.iter().zip(&dpre).map(|(&p, &dp)| layer.act.derivative(p) * dp).collect();
            match layer.resnet {
                Resnet::None => {}
                Resnet::Identity => {
                    for i in 0..ind {
                        out[i] += val[i];
                        dout[i] += tan[i];
                    }
                }
                Resnet::Doubling => {
                    for i in 0..ind {
                        out[i] += val[i];
                        out[i + ind] += val[i];
                        dout[i] += tan[i];
                        dout[i + ind] += tan[i];
                    }
                }
            }
            (val, tan) = (out, dout);
        }
        (val, tan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_mlp_reference() {
        let net = EmbeddingNet::new(&[4, 8], 3);
        assert_eq!(net.m1(), 8);
        let (g, _) = net.forward_with_grad(0.37);
        let reference = net.forward(0.37);
        for (a, b) in g.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let net = EmbeddingNet::new(&[4, 8], 5);
        let s = 0.61;
        let h = 1e-7;
        let (_, dg) = net.forward_with_grad(s);
        let gp = net.forward(s + h);
        let gm = net.forward(s - h);
        for k in 0..net.m1() {
            let fd = (gp[k] - gm[k]) / (2.0 * h);
            assert!((fd - dg[k]).abs() < 1e-6, "feature {k}: fd={fd} an={}", dg[k]);
        }
    }

    #[test]
    fn resnet_policy_applied() {
        let net = EmbeddingNet::new(&[8, 16, 16], 1);
        assert_eq!(net.mlp.layers[0].resnet, Resnet::None); // 1 -> 8
        assert_eq!(net.mlp.layers[1].resnet, Resnet::Doubling); // 8 -> 16
        assert_eq!(net.mlp.layers[2].resnet, Resnet::Identity); // 16 -> 16
    }

    #[test]
    fn deterministic_per_seed() {
        let a = EmbeddingNet::new(&[4, 8], 9);
        let b = EmbeddingNet::new(&[4, 8], 9);
        assert_eq!(a.forward(0.5), b.forward(0.5));
    }
}
