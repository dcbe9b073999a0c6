//! The fitting net: descriptor `D_i ↦ E_i` (paper Fig. 1b).
//!
//! Three equal-width tanh layers with identity skips (240×240×240 in the
//! paper) and a final linear layer to the scalar atomic energy. One net per
//! central-atom species. The backward pass used for forces returns
//! `∂E/∂D` — at strong scaling this is exactly where the tall-and-skinny
//! GEMMs of §III-B2 live.

use nnet::activation::Activation;
use nnet::init::build_mlp;
use nnet::layers::Mlp;
use nnet::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fitting network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FittingNet {
    /// The underlying MLP (public for the trainer).
    pub mlp: Mlp,
}

impl FittingNet {
    /// Build with hidden `widths` and a linear scalar output.
    pub fn new(descriptor_len: usize, widths: &[usize], seed: u64) -> Self {
        FittingNet { mlp: build_mlp(descriptor_len, widths, 1, Activation::Tanh, seed) }
    }

    /// Descriptor input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// Atomic energy for a batch of descriptors (`batch × in_dim`).
    pub fn energy(&self, d: &Matrix) -> Vec<f64> {
        self.mlp.forward_infer(d).into_vec()
    }

    /// Energy and `∂E/∂D` for a batch of descriptors: the backward pass with
    /// unit cotangent per row.
    pub fn energy_and_grad(&self, d: &Matrix) -> (Vec<f64>, Matrix) {
        let (out, caches) = self.mlp.forward(d);
        let dout = Matrix::from_fn(d.rows(), 1, |_, _| 1.0);
        let (dd, _) = self.mlp.backward(&caches, &dout);
        (out.into_vec(), dd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_has_identity_skips() {
        use nnet::layers::Resnet;
        let f = FittingNet::new(64, &[240, 240, 240], 1);
        assert_eq!(f.mlp.layers.len(), 4);
        assert_eq!(f.mlp.layers[1].resnet, Resnet::Identity);
        assert_eq!(f.mlp.layers[2].resnet, Resnet::Identity);
        assert_eq!(f.mlp.layers[3].out_dim(), 1);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let f = FittingNet::new(6, &[10, 10], 2);
        let d = Matrix::from_fn(2, 6, |r, c| 0.1 * (r as f64 + 1.0) * ((c as f64) - 2.5));
        let (_, dd) = f.energy_and_grad(&d);
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..6 {
                let mut dp = d.clone();
                dp[(r, c)] += h;
                let mut dm = d.clone();
                dm[(r, c)] -= h;
                let fd = (f.energy(&dp)[r] - f.energy(&dm)[r]) / (2.0 * h);
                assert!((fd - dd[(r, c)]).abs() < 1e-6, "({r},{c})");
            }
        }
    }

    #[test]
    fn batch_rows_are_independent() {
        let f = FittingNet::new(4, &[8, 8], 3);
        let d1 = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        let d2 = Matrix::from_vec(1, 4, vec![-0.3, 0.0, 0.7, 0.1]);
        let both = Matrix::from_vec(2, 4, vec![0.1, 0.2, 0.3, 0.4, -0.3, 0.0, 0.7, 0.1]);
        let e_sep = [f.energy(&d1)[0], f.energy(&d2)[0]];
        let e_batch = f.energy(&both);
        assert!((e_sep[0] - e_batch[0]).abs() < 1e-14);
        assert!((e_sep[1] - e_batch[1]).abs() < 1e-14);
    }
}
