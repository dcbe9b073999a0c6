//! Training Deep Potential models against reference labels.
//!
//! Energy-matching loss with Adam, full backpropagation through the fitting
//! net, the symmetry-preserving descriptor contraction, and the embedding
//! nets. (The production DeePMD-kit also force-matches; energy-only
//! training suffices for the reproduction's accuracy experiments and keeps
//! the hand-derived gradients testable — force errors are *evaluated*
//! against the analytic backward pass either way.)

use dpmd_threads::ThreadPool;
use minimd::neighbor::{ListKind, NeighborList};
use nnet::layers::DenseGrads;
use nnet::matrix::Matrix;

use crate::dataset::Frame;
use crate::descriptor::build_environments_on;
use crate::model::DeepPotModel;

/// Adam optimizer over a flat parameter vector.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Stabilizer.
    pub eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Standard Adam with the given learning rate, sized for `n` parameters.
    pub fn new(lr: f64, n: usize) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: vec![0.0; n], v: vec![0.0; n] }
    }

    /// One update step: `params -= lr · m̂/(√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Flatten every trainable parameter (embedding nets then fitting nets;
/// per layer: weights row-major, then bias) into one vector.
pub fn collect_params(model: &DeepPotModel) -> Vec<f64> {
    let mut out = Vec::new();
    for net in model.embeddings.iter().map(|e| &e.mlp).chain(model.fittings.iter().map(|f| &f.mlp)) {
        for layer in &net.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
    }
    out
}

/// Write a flat parameter vector back into the model (inverse of
/// [`collect_params`]).
///
/// # Panics
/// If the vector length doesn't match the model's parameter count.
pub fn set_params(model: &mut DeepPotModel, params: &[f64]) {
    let mut k = 0;
    for net in model
        .embeddings
        .iter_mut()
        .map(|e| &mut e.mlp)
        .chain(model.fittings.iter_mut().map(|f| &mut f.mlp))
    {
        for layer in &mut net.layers {
            let wlen = layer.w.len();
            let (rows, cols) = (layer.w.rows(), layer.w.cols());
            layer.w = Matrix::from_vec(rows, cols, params[k..k + wlen].to_vec());
            k += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&params[k..k + blen]);
            k += blen;
        }
    }
    assert_eq!(k, params.len(), "parameter vector length mismatch");
}

fn zero_grads_like(model: &DeepPotModel) -> Vec<f64> {
    vec![0.0; collect_params(model).len()]
}

/// Flatten `DenseGrads` per net/layer in the same order as
/// [`collect_params`], adding into `acc`.
fn accumulate(acc: &mut [f64], model: &DeepPotModel, emb_grads: &[Vec<DenseGrads>], fit_grads: &[Vec<DenseGrads>]) {
    let mut k = 0;
    for (net_idx, net) in model.embeddings.iter().enumerate() {
        for (li, layer) in net.mlp.layers.iter().enumerate() {
            let g = &emb_grads[net_idx][li];
            for (a, &b) in acc[k..k + layer.w.len()].iter_mut().zip(g.dw.as_slice()) {
                *a += b;
            }
            k += layer.w.len();
            for (a, &b) in acc[k..k + layer.b.len()].iter_mut().zip(&g.db) {
                *a += b;
            }
            k += layer.b.len();
        }
    }
    for (net_idx, net) in model.fittings.iter().enumerate() {
        for (li, layer) in net.mlp.layers.iter().enumerate() {
            let g = &fit_grads[net_idx][li];
            for (a, &b) in acc[k..k + layer.w.len()].iter_mut().zip(g.dw.as_slice()) {
                *a += b;
            }
            k += layer.w.len();
            for (a, &b) in acc[k..k + layer.b.len()].iter_mut().zip(&g.db) {
                *a += b;
            }
            k += layer.b.len();
        }
    }
}

fn zero_dense_grads(nets: &[nnet::layers::Mlp]) -> Vec<Vec<DenseGrads>> {
    nets.iter()
        .map(|net| {
            net.layers
                .iter()
                .map(|l| DenseGrads { dw: Matrix::zeros(l.in_dim(), l.out_dim()), db: vec![0.0; l.out_dim()] })
                .collect()
        })
        .collect()
}

fn add_dense_grads(acc: &mut [Vec<DenseGrads>], net: usize, grads: Vec<DenseGrads>) {
    for (a, g) in acc[net].iter_mut().zip(grads) {
        for (x, &y) in a.dw.as_mut_slice().iter_mut().zip(g.dw.as_slice()) {
            *x += y;
        }
        for (x, &y) in a.db.iter_mut().zip(&g.db) {
            *x += y;
        }
    }
}

/// Per-atom-normalized squared energy loss of one frame and its parameter
/// gradient: `L = ((E_pred − E_ref)/N)²`.
pub fn frame_loss_and_grads(model: &DeepPotModel, frame: &Frame) -> (f64, Vec<f64>) {
    let cfg = &model.config;
    let m1 = cfg.m1();
    let m2 = cfg.m2;
    let inv_nm = 1.0 / cfg.nmax as f64;
    let natoms = frame.atoms.nlocal;

    let mut nl = NeighborList::new(cfg.rcut, 0.5, ListKind::Full);
    nl.build(&frame.atoms, &frame.bx);
    let envs = build_environments_on(
        &ThreadPool::serial(),
        &frame.atoms,
        &nl,
        &frame.bx,
        cfg.rcut_smth,
        cfg.rcut,
    );

    // ---- forward: keep per-atom caches ----
    struct AtomCache {
        // per type: (entry indices, input matrix cache, forward caches, G rows)
        per_type: Vec<(Vec<usize>, Vec<nnet::layers::DenseCache>, Matrix)>,
        t: Vec<f64>,
        fit_caches: Vec<nnet::layers::DenseCache>,
        d: Matrix,
    }
    let mut caches: Vec<AtomCache> = Vec::with_capacity(natoms);
    let mut e_pred = 0.0;
    for (i, env) in envs.iter().enumerate().take(natoms) {
        let ti = frame.atoms.typ[i] as usize;
        let mut per_type = Vec::with_capacity(cfg.ntypes);
        let mut t = vec![0.0; m1 * 4];
        for typ in 0..cfg.ntypes {
            let idx: Vec<usize> =
                (0..env.entries.len()).filter(|&k| env.entries[k].typ as usize == typ).collect();
            if idx.is_empty() {
                per_type.push((idx, Vec::new(), Matrix::zeros(0, m1)));
                continue;
            }
            let input = Matrix::from_fn(idx.len(), 1, |r, _| env.entries[idx[r]].s);
            let (g, dcaches) = model.embeddings[typ].mlp.forward(&input);
            for (row, &k) in idx.iter().enumerate() {
                let coords = env.entries[k].coords();
                for m in 0..m1 {
                    let gv = g[(row, m)];
                    for c in 0..4 {
                        t[m * 4 + c] += gv * coords[c] * inv_nm;
                    }
                }
            }
            per_type.push((idx, dcaches, g));
        }
        let mut d = vec![0.0; m1 * m2];
        for a in 0..m1 {
            for b in 0..m2 {
                let mut acc = 0.0;
                for c in 0..4 {
                    acc += t[a * 4 + c] * t[b * 4 + c];
                }
                d[a * m2 + b] = acc;
            }
        }
        let dm = Matrix::from_vec(1, m1 * m2, d);
        let (e_out, fit_caches) = model.fittings[ti].mlp.forward(&dm);
        e_pred += e_out[(0, 0)] + model.energy_bias[ti];
        caches.push(AtomCache { per_type, t, fit_caches, d: dm });
    }

    let resid = (e_pred - frame.energy) / natoms as f64;
    let loss = resid * resid;
    // dL/dE_i = 2·resid / N for every atom i.
    let w = 2.0 * resid / natoms as f64;

    // ---- backward ----
    let mut emb_grads = zero_dense_grads(&model.embeddings.iter().map(|e| e.mlp.clone()).collect::<Vec<_>>());
    let mut fit_grads = zero_dense_grads(&model.fittings.iter().map(|f| f.mlp.clone()).collect::<Vec<_>>());
    for (i, env) in envs.iter().enumerate().take(natoms) {
        let ti = frame.atoms.typ[i] as usize;
        let cache = &caches[i];
        let dout = Matrix::from_vec(1, 1, vec![w]);
        let (dd, fgrads) = model.fittings[ti].mlp.backward(&cache.fit_caches, &dout);
        add_dense_grads(&mut fit_grads, ti, fgrads);
        let _ = &cache.d;

        // dL/dT from dL/dD.
        let mut dt = vec![0.0; m1 * 4];
        for a in 0..m1 {
            for b in 0..m2 {
                let aab = dd[(0, a * m2 + b)];
                for c in 0..4 {
                    dt[a * 4 + c] += aab * cache.t[b * 4 + c];
                    dt[b * 4 + c] += aab * cache.t[a * 4 + c];
                }
            }
        }
        // dL/dG rows per type, then backprop each embedding batch.
        for typ in 0..cfg.ntypes {
            let (idx, dcaches, g) = &cache.per_type[typ];
            if idx.is_empty() {
                continue;
            }
            let _ = g;
            let mut dg = Matrix::zeros(idx.len(), m1);
            for (row, &k) in idx.iter().enumerate() {
                let coords = env.entries[k].coords();
                for m in 0..m1 {
                    let mut acc = 0.0;
                    for c in 0..4 {
                        acc += dt[m * 4 + c] * coords[c];
                    }
                    dg[(row, m)] = acc * inv_nm;
                }
            }
            let (_, egrads) = model.embeddings[typ].mlp.backward(dcaches, &dg);
            add_dense_grads(&mut emb_grads, typ, egrads);
        }
    }

    let mut flat = zero_grads_like(model);
    accumulate(&mut flat, model, &emb_grads, &fit_grads);
    (loss, flat)
}

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Print a progress line every `log_every` epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 200, lr: 3e-3, log_every: 0 }
    }
}

/// Set the per-species energy bias to the least-squares fit of the
/// reference energies (`E_ref ≈ Σ_t n_t·b_t`) — one normal-equation solve.
/// Must run before training, exactly like DeePMD-kit's `bias_atom_e`.
pub fn fit_energy_bias(model: &mut DeepPotModel, frames: &[Frame]) {
    let nt = model.config.ntypes;
    // Normal equations A b = y with A[f][t] = count of type t in frame f.
    let mut ata = vec![0.0; nt * nt];
    let mut aty = vec![0.0; nt];
    for f in frames {
        let mut counts = vec![0.0; nt];
        for &t in &f.atoms.typ[..f.atoms.nlocal] {
            counts[t as usize] += 1.0;
        }
        // Remove the current prediction's bias-free part? Bias is fitted to
        // raw reference energies; the net starts near zero output, so this
        // captures the cohesive offset.
        for a in 0..nt {
            for b in 0..nt {
                ata[a * nt + b] += counts[a] * counts[b];
            }
            aty[a] += counts[a] * f.energy;
        }
    }
    // Tiny ridge term for singular cases (single-type systems are 1×1).
    for a in 0..nt {
        ata[a * nt + a] += 1e-9;
    }
    // Gaussian elimination.
    let mut m = ata;
    let mut y = aty;
    for col in 0..nt {
        let piv = (col..nt).max_by(|&i, &j| m[i * nt + col].abs().partial_cmp(&m[j * nt + col].abs()).unwrap()).unwrap();
        for c in 0..nt {
            m.swap(col * nt + c, piv * nt + c);
        }
        y.swap(col, piv);
        let d = m[col * nt + col];
        for r in (col + 1)..nt {
            let f = m[r * nt + col] / d;
            for c in col..nt {
                m[r * nt + c] -= f * m[col * nt + c];
            }
            y[r] -= f * y[col];
        }
    }
    let mut bias = vec![0.0; nt];
    for col in (0..nt).rev() {
        let mut acc = y[col];
        for c in (col + 1)..nt {
            acc -= m[col * nt + c] * bias[c];
        }
        bias[col] = acc / m[col * nt + col];
    }
    model.energy_bias = bias;
}

/// Train with full-batch Adam; returns the per-epoch mean loss history.
pub fn train(model: &mut DeepPotModel, frames: &[Frame], cfg: TrainConfig) -> Vec<f64> {
    assert!(!frames.is_empty());
    let mut params = collect_params(model);
    let mut adam = Adam::new(cfg.lr, params.len());
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        // Each frame yields (loss, grads); summed in frame order, so the
        // trained weights never depend on the core count.
        let (loss_sum, grad_sum) = frames.iter().map(|f| frame_loss_and_grads(model, f)).fold(
            (0.0, vec![0.0; params.len()]),
            |(la, mut ga), (lb, gb)| {
                for (a, b) in ga.iter_mut().zip(&gb) {
                    *a += b;
                }
                (la + lb, ga)
            },
        );
        let n = frames.len() as f64;
        let mean_loss = loss_sum / n;
        let grads: Vec<f64> = grad_sum.iter().map(|g| g / n).collect();
        adam.step(&mut params, &grads);
        set_params(model, &params);
        history.push(mean_loss);
        if cfg.log_every > 0 && epoch % cfg.log_every == 0 {
            eprintln!("epoch {epoch:4}  rmse/atom {:.6e} eV", mean_loss.sqrt());
        }
    }
    history
}

/// Evaluation errors against reference labels: (energy MAE per atom in
/// eV/atom, force RMSE in eV/Å) — the two columns of Table II.
pub fn eval_errors(model: &DeepPotModel, frames: &[Frame]) -> (f64, f64) {
    let mut e_err = 0.0;
    let mut f_sq = 0.0;
    let mut f_count = 0usize;
    let pool = ThreadPool::serial();
    for frame in frames {
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(&frame.atoms, &frame.bx);
        let mut forces = vec![minimd::vec3::Vec3::ZERO; frame.atoms.len()];
        let (out, _) = model.energy_forces_on(&pool, &frame.atoms, &nl, &frame.bx, &mut forces);
        e_err += ((out.energy - frame.energy) / frame.atoms.nlocal as f64).abs();
        for (&f, &fr) in forces.iter().zip(&frame.forces).take(frame.atoms.nlocal) {
            let d = f - fr;
            f_sq += d.norm2();
            f_count += 3;
        }
    }
    (e_err / frames.len() as f64, (f_sq / f_count as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use crate::dataset::copper_frames;

    #[test]
    fn param_round_trip() {
        let mut model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let p = collect_params(&model);
        assert!(!p.is_empty());
        let mut p2 = p.clone();
        p2[0] += 1.0;
        set_params(&mut model, &p2);
        assert_eq!(collect_params(&model), p2);
    }

    #[test]
    fn analytic_gradient_matches_finite_difference() {
        let mut model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let frames = copper_frames(1, 2, 0.08, 3);
        fit_energy_bias(&mut model, &frames);
        let (_, grads) = frame_loss_and_grads(&model, &frames[0]);
        let params = collect_params(&model);
        let h = 1e-6;
        // Probe a spread of parameters (embedding + fitting).
        let probes = [0usize, 3, params.len() / 2, params.len() - 2];
        for &k in &probes {
            let mut pp = params.clone();
            pp[k] += h;
            let mut mp = model.clone();
            set_params(&mut mp, &pp);
            let (lp, _) = frame_loss_and_grads(&mp, &frames[0]);
            pp[k] -= 2.0 * h;
            set_params(&mut mp, &pp);
            let (lm, _) = frame_loss_and_grads(&mp, &frames[0]);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grads[k]).abs() < 1e-6 * (1.0 + fd.abs()),
                "param {k}: fd={fd:.3e} an={:.3e}",
                grads[k]
            );
        }
    }

    #[test]
    fn bias_fit_removes_the_cohesive_offset() {
        let mut model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let frames = copper_frames(3, 2, 0.05, 4);
        fit_energy_bias(&mut model, &frames);
        // With bias fitted, the mean per-atom residual is small (the net
        // output is O(0.1) eV, the cohesive energy is O(−3.5) eV/atom).
        let (e_mae, _) = eval_errors(&model, &frames);
        assert!(e_mae < 0.5, "bias should absorb the offset, MAE {e_mae}");
    }

    #[test]
    fn short_training_reduces_the_loss() {
        let mut model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let frames = copper_frames(4, 2, 0.08, 5);
        fit_energy_bias(&mut model, &frames);
        let history = train(&mut model, &frames, TrainConfig { epochs: 40, lr: 3e-3, log_every: 0 });
        let early: f64 = history[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = history[history.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late < early, "loss must decrease: early {early:.3e}, late {late:.3e}");
    }

    #[test]
    fn adam_moves_toward_a_quadratic_minimum() {
        // Sanity on the optimizer itself: minimize (x−3)² + (y+1)².
        let mut p = vec![0.0, 0.0];
        let mut adam = Adam::new(0.1, 2);
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 3.0), 2.0 * (p[1] + 1.0)];
            adam.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 0.05 && (p[1] + 1.0).abs() < 0.05, "{p:?}");
    }
}
