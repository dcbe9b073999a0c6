//! Fully connected layers with analytic forward/backward passes.
//!
//! Both DeePMD sub-networks are tiny MLPs:
//!
//! * the **embedding net** maps the smoothed inverse distance `s(r)` through
//!   widening layers (e.g. 25 → 50 → 100) with *ResNet doubling* skips
//!   (when `out = 2·in`, the input is concatenated with itself and added);
//! * the **fitting net** maps the descriptor through three equal-width
//!   layers (240 → 240 → 240) with identity skips, then a final linear
//!   output producing the atomic energy.
//!
//! Training (crate `deepmd`) runs entirely in f64 through these layers; the
//! mixed-precision inference paths cast the trained parameters and call the
//! raw GEMM kernels directly.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::gemm;
use crate::matrix::Matrix;

/// Residual connection style of a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resnet {
    /// Plain layer: `y = act(xW + b)`.
    None,
    /// Identity skip (requires `out == in`): `y = act(xW + b) + x`.
    Identity,
    /// Doubling skip (requires `out == 2·in`): `y = act(xW + b) + [x, x]`.
    Doubling,
}

/// One dense layer `y = act(x·W + b) (+ skip)` with `W: in×out` row-major.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`, row-major (so `x·W` is GEMM-NN).
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f64>,
    /// Activation applied element-wise after the affine map.
    pub act: Activation,
    /// Residual connection style.
    pub resnet: Resnet,
}

/// Values saved by a forward pass, needed to run the backward pass.
#[derive(Clone, Debug)]
pub struct DenseCache {
    /// Layer input, `batch × in`.
    pub input: Matrix,
    /// Pre-activation `xW + b`, `batch × out`.
    pub preact: Matrix,
}

/// Parameter gradients produced by a backward pass.
#[derive(Clone, Debug)]
pub struct DenseGrads {
    /// `∂L/∂W`, same shape as `w`.
    pub dw: Matrix,
    /// `∂L/∂b`, same length as `b`.
    pub db: Vec<f64>,
}

impl Dense {
    /// A layer with Xavier/Glorot-uniform weights and zero bias.
    pub fn xavier(in_dim: usize, out_dim: usize, act: Activation, resnet: Resnet, rng: &mut StdRng) -> Self {
        match resnet {
            Resnet::Identity => assert_eq!(in_dim, out_dim, "identity skip needs out == in"),
            Resnet::Doubling => assert_eq!(2 * in_dim, out_dim, "doubling skip needs out == 2·in"),
            Resnet::None => {}
        }
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = Matrix::from_fn(in_dim, out_dim, |_, _| rng.random_range(-limit..limit));
        Dense { w, b: vec![0.0; out_dim], act, resnet }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass returning the output and the cache for backprop.
    pub fn forward(&self, x: &Matrix) -> (Matrix, DenseCache) {
        let batch = x.rows();
        let (ind, outd) = (self.in_dim(), self.out_dim());
        assert_eq!(x.cols(), ind, "input width mismatch");
        let mut pre = Matrix::zeros(batch, outd);
        gemm::naive::gemm_nn_f64(batch, outd, ind, x.as_slice(), self.w.as_slice(), pre.as_mut_slice());
        for r in 0..batch {
            let row = pre.row_mut(r);
            for (v, &bb) in row.iter_mut().zip(&self.b) {
                *v += bb;
            }
        }
        let mut out = pre.clone();
        self.act.apply_slice(out.as_mut_slice());
        match self.resnet {
            Resnet::None => {}
            Resnet::Identity => {
                for (o, &i) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *o += i;
                }
            }
            Resnet::Doubling => {
                for r in 0..batch {
                    for c in 0..ind {
                        let xv = x[(r, c)];
                        out[(r, c)] += xv;
                        out[(r, c + ind)] += xv;
                    }
                }
            }
        }
        (out, DenseCache { input: x.clone(), preact: pre })
    }

    /// Forward pass without caching (inference).
    pub fn forward_infer(&self, x: &Matrix) -> Matrix {
        self.forward(x).0
    }

    /// Backward pass: given `∂L/∂y`, return `∂L/∂x` and parameter grads.
    pub fn backward(&self, cache: &DenseCache, dout: &Matrix) -> (Matrix, DenseGrads) {
        let batch = cache.input.rows();
        let (ind, outd) = (self.in_dim(), self.out_dim());
        assert_eq!(dout.rows(), batch);
        assert_eq!(dout.cols(), outd);

        // Through the activation: dpre = dout ⊙ act'(pre).
        let mut dpre = dout.clone();
        for (g, &p) in dpre.as_mut_slice().iter_mut().zip(cache.preact.as_slice()) {
            *g *= self.act.derivative(p);
        }

        // dW = xᵀ · dpre  (computed as NT-free loops over the batch).
        let mut dw = Matrix::zeros(ind, outd);
        for r in 0..batch {
            let xr = cache.input.row(r);
            let gr = dpre.row(r);
            for (i, &xv) in xr.iter().enumerate() {
                let dwr = dw.row_mut(i);
                for (d, &gv) in dwr.iter_mut().zip(gr) {
                    *d += xv * gv;
                }
            }
        }
        // db = column sums of dpre.
        let mut db = vec![0.0; outd];
        for r in 0..batch {
            for (d, &g) in db.iter_mut().zip(dpre.row(r)) {
                *d += g;
            }
        }
        // dx = dpre · Wᵀ — this is the GEMM-NT the paper converts to NN by
        // pre-transposing W at startup; training keeps the NT form.
        let mut dx = Matrix::zeros(batch, ind);
        gemm::naive::gemm_nt_f64(batch, ind, outd, dpre.as_slice(), self.w.as_slice(), dx.as_mut_slice());

        // Skip-path gradient flows straight through.
        match self.resnet {
            Resnet::None => {}
            Resnet::Identity => {
                for (d, &g) in dx.as_mut_slice().iter_mut().zip(dout.as_slice()) {
                    *d += g;
                }
            }
            Resnet::Doubling => {
                for r in 0..batch {
                    for c in 0..ind {
                        dx[(r, c)] += dout[(r, c)] + dout[(r, c + ind)];
                    }
                }
            }
        }
        (dx, DenseGrads { dw, db })
    }
}

/// A stack of dense layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// Layers, applied in order.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Build an MLP from explicit layers.
    pub fn new(layers: Vec<Dense>) -> Self {
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer widths must chain");
        }
        Mlp { layers }
    }

    /// Input dimension of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::in_dim)
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::out_dim)
    }

    /// Forward pass collecting per-layer caches.
    pub fn forward(&self, x: &Matrix) -> (Matrix, Vec<DenseCache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&cur);
            caches.push(cache);
            cur = out;
        }
        (cur, caches)
    }

    /// Inference-only forward pass.
    pub fn forward_infer(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward_infer(&cur);
        }
        cur
    }

    /// Backward pass: returns input gradient and per-layer parameter grads.
    pub fn backward(&self, caches: &[DenseCache], dout: &Matrix) -> (Matrix, Vec<DenseGrads>) {
        assert_eq!(caches.len(), self.layers.len());
        let mut grads = Vec::with_capacity(self.layers.len());
        let mut d = dout.clone();
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            let (dx, g) = layer.backward(cache, &d);
            grads.push(g);
            d = dx;
        }
        grads.reverse();
        (d, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_mlp(rng: &mut StdRng) -> Mlp {
        Mlp::new(vec![
            Dense::xavier(3, 6, Activation::Tanh, Resnet::Doubling, rng),
            Dense::xavier(6, 6, Activation::Tanh, Resnet::Identity, rng),
            Dense::xavier(6, 1, Activation::Linear, Resnet::None, rng),
        ])
    }

    /// The gold-standard test: analytic input gradient equals central finite
    /// differences of the scalar output.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = tiny_mlp(&mut rng);
        let x = Matrix::from_fn(2, 3, |_, _| rng.random_range(-1.0..1.0));
        let (out, caches) = mlp.forward(&x);
        assert_eq!(out.cols(), 1);
        // L = sum of outputs; dL/dout = ones.
        let dout = Matrix::from_fn(2, 1, |_, _| 1.0);
        let (dx, _) = mlp.backward(&caches, &dout);

        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp[(r, c)] += h;
                let mut xm = x.clone();
                xm[(r, c)] -= h;
                let lp: f64 = mlp.forward_infer(&xp).as_slice().iter().sum();
                let lm: f64 = mlp.forward_infer(&xm).as_slice().iter().sum();
                let fd = (lp - lm) / (2.0 * h);
                assert!((fd - dx[(r, c)]).abs() < 1e-5, "({r},{c}): fd={fd} an={}", dx[(r, c)]);
            }
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut mlp = tiny_mlp(&mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.random_range(-1.0..1.0));
        let (_, caches) = mlp.forward(&x);
        let dout = Matrix::from_fn(4, 1, |_, _| 1.0);
        let (_, grads) = mlp.backward(&caches, &dout);

        let h = 1e-6;
        // Spot-check a handful of weights in layer 1.
        for &(wi, wj) in &[(0, 0), (2, 3), (5, 5)] {
            let orig = mlp.layers[1].w[(wi, wj)];
            mlp.layers[1].w[(wi, wj)] = orig + h;
            let lp: f64 = mlp.forward_infer(&x).as_slice().iter().sum();
            mlp.layers[1].w[(wi, wj)] = orig - h;
            let lm: f64 = mlp.forward_infer(&x).as_slice().iter().sum();
            mlp.layers[1].w[(wi, wj)] = orig;
            let fd = (lp - lm) / (2.0 * h);
            let an = grads[1].dw[(wi, wj)];
            assert!((fd - an).abs() < 1e-5, "w[{wi},{wj}]: fd={fd} an={an}");
        }
    }

    #[test]
    fn bias_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut mlp = tiny_mlp(&mut rng);
        let x = Matrix::from_fn(3, 3, |_, _| rng.random_range(-1.0..1.0));
        let (_, caches) = mlp.forward(&x);
        let dout = Matrix::from_fn(3, 1, |_, _| 1.0);
        let (_, grads) = mlp.backward(&caches, &dout);
        let h = 1e-6;
        let orig = mlp.layers[0].b[2];
        mlp.layers[0].b[2] = orig + h;
        let lp: f64 = mlp.forward_infer(&x).as_slice().iter().sum();
        mlp.layers[0].b[2] = orig - h;
        let lm: f64 = mlp.forward_infer(&x).as_slice().iter().sum();
        mlp.layers[0].b[2] = orig;
        let fd = (lp - lm) / (2.0 * h);
        assert!((fd - grads[0].db[2]).abs() < 1e-5);
    }

    #[test]
    fn resnet_identity_shifts_output_by_input() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut layer = Dense::xavier(4, 4, Activation::Tanh, Resnet::Identity, &mut rng);
        let x = Matrix::from_fn(1, 4, |_, c| c as f64 * 0.1);
        let with_skip = layer.forward_infer(&x);
        layer.resnet = Resnet::None;
        let without = layer.forward_infer(&x);
        for c in 0..4 {
            assert!((with_skip[(0, c)] - without[(0, c)] - x[(0, c)]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "doubling skip")]
    fn doubling_requires_double_width() {
        let mut rng = StdRng::seed_from_u64(46);
        let _ = Dense::xavier(4, 6, Activation::Tanh, Resnet::Doubling, &mut rng);
    }
}
