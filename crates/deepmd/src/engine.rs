//! Mixed-precision inference engine (§III-B3): the cast weights and what
//! one tile of the force pipeline computes.
//!
//! * `Double` — delegates to the f64 reference implementation.
//! * `Mix32` — embedding-net and fitting-net arithmetic in f32 (descriptor
//!   assembly in f32 as well, per ref [42]); force accumulation stays f64.
//! * `Mix16` — like `Mix32`, but the first-layer fitting-net GEMMs (forward
//!   and backward) run on binary16-stored operands with f32 accumulation —
//!   the paper's fp16-sve-gemm.
//!
//! Every evaluation — [`DpEngine::energy_forces`], the
//! [`Potential`] adapter, the batched entry points — is one call of the
//! pipeline in [`crate::batch`], which cuts jobs into tiles of a few atoms
//! and runs this module's two per-tile kernels over them:
//! `DpEngine::embed_atom32` (type-sorted embedding GEMMs, per atom) and
//! `DpEngine::fit_tile` (type-sorted stacked fitting GEMMs, then the chain
//! rule and the f64 force scatter in atom order).
//!
//! The mixed paths share the exact dataflow of
//! [`crate::model::DeepPotModel`]; Table II and Fig. 6 measure how far the
//! reduced-precision energies and forces drift from the Double path and
//! from the reference labels.

use std::sync::{Arc, Mutex};

use dpmd_obs::{Counter, MetricsRegistry, Unit};
use dpmd_threads::ThreadPool;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, Potential, PotentialOutput};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::gemm;
use nnet::layers::Resnet;
use nnet::precision::Precision;
use nnet::stats::{GemmTally, PrecClass};

use crate::batch::BatchJob;
use crate::descriptor::Environment;
use crate::model::DeepPotModel;

/// One embedding layer: (w in×out, b, act, resnet, in, out).
type EmbLayer32 = (Vec<f32>, Vec<f32>, Activation, Resnet, usize, usize);

/// One embedding net with weights cast to f32, plus the augmented per-layer
/// matrices `[bias ; W]` (shape `(ind+1)×outd`), built once at engine
/// construction — the paper's initialization-phase preprocessing. The
/// embedding pass runs zero-seeded augmented GEMMs (value rows `[1, v…]`,
/// tangent rows `[0, t…]`) so the kernel's ascending-k fold reproduces a
/// bias-seeded per-entry accumulation bit for bit within each dispatch
/// class.
#[derive(Clone, Debug)]
struct Emb32 {
    layers: Vec<EmbLayer32>,
    aug: Vec<Vec<f32>>,
}

impl Emb32 {
    fn from_model(net: &crate::embedding::EmbeddingNet) -> Self {
        let layers: Vec<EmbLayer32> = net
            .mlp
            .layers
            .iter()
            .map(|l| {
                (
                    l.w.as_slice().iter().map(|&x| x as f32).collect(),
                    l.b.iter().map(|&x| x as f32).collect(),
                    l.act,
                    l.resnet,
                    l.in_dim(),
                    l.out_dim(),
                )
            })
            .collect();
        let aug = layers
            .iter()
            .map(|(w, b, _, _, _, _): &EmbLayer32| {
                let mut m = Vec::with_capacity(b.len() + w.len());
                m.extend_from_slice(b);
                m.extend_from_slice(w);
                m
            })
            .collect();
        Emb32 { layers, aug }
    }
}

/// One fitting layer: (w in×out, wᵀ out×in, b, act, resnet, in, out).
type FitLayer32 = (Vec<f32>, Vec<f32>, Vec<f32>, Activation, Resnet, usize, usize);

/// Tape and staging of [`Fit32::value_grad_rows`]: one instance per
/// fitting tile, reused across the tile's central species, so the stacked
/// sweep allocates only on growth.
#[derive(Default)]
struct FitTape {
    /// The stacked descriptor rows, staged by the caller.
    d: Vec<f32>,
    /// Stacked output of each layer; the 1-wide last entry is the per-row
    /// energies.
    xs: Vec<Vec<f32>>,
    /// Per-layer activation-derivative factors, kept from the forward pass
    /// (`value_grad_f32` shares the transcendental) so the backward pass
    /// does none.
    dfacs: Vec<Vec<f64>>,
    /// Cotangent rows; after the sweep, ∂E/∂D (same shape as `d`).
    g: Vec<f32>,
    dpre: Vec<f32>,
    dx: Vec<f32>,
    /// binary16 staging of the first layer's GEMM operand (`Mix16`).
    a16: Vec<F16>,
}

/// One fitting net with f32 weights (and binary16 copies of the first
/// layer's weight matrices for the `Mix16` path).
#[derive(Clone, Debug)]
struct Fit32 {
    layers: Vec<FitLayer32>,
    // First-layer fp16 copies: weights (in×out) and transpose (out×in).
    w16_first: Vec<F16>,
    wt16_first: Vec<F16>,
}

impl Fit32 {
    fn from_model(net: &crate::fitting::FittingNet) -> Self {
        let layers: Vec<_> = net
            .mlp
            .layers
            .iter()
            .map(|l| {
                let w: Vec<f32> = l.w.as_slice().iter().map(|&x| x as f32).collect();
                let wt: Vec<f32> = l.w.transpose().as_slice().iter().map(|&x| x as f32).collect();
                let b: Vec<f32> = l.b.iter().map(|&x| x as f32).collect();
                (w, wt, b, l.act, l.resnet, l.in_dim(), l.out_dim())
            })
            .collect();
        let w16_first = layers[0].0.iter().map(|&x| F16::from_f32(x)).collect();
        let wt16_first = layers[0].1.iter().map(|&x| F16::from_f32(x)).collect();
        Fit32 { layers, w16_first, wt16_first }
    }

    /// Forward + backward of this net over the `rows` descriptor rows
    /// staged in `tape.d`, every layer one stacked GEMM per direction
    /// (first-layer GEMMs on binary16 operands when `f16_first` is set).
    /// Leaves the per-row energies in `tape.xs.last()` and ∂E/∂D in
    /// `tape.g`. Each output row depends only on its own input row: the
    /// kernels are row-independent and bias, activation and resnet apply
    /// per row, so how atoms are grouped into calls never changes a bit.
    fn value_grad_rows(
        &self,
        rows: usize,
        f16_first: bool,
        tally: Option<&GemmTally>,
        tape: &mut FitTape,
    ) {
        let nl = self.layers.len();
        let FitTape { d, xs, dfacs, g, dpre, dx, a16 } = tape;
        xs.resize_with(nl, Vec::default);
        dfacs.resize_with(nl, Vec::default);
        // `out = a · w` over the stacked rows (`out` zeroed by the caller),
        // on binary16 copies of both operands when `w16` is given.
        let mut stacked_gemm =
            |n: usize, k: usize, a: &[f32], w: &[f32], w16: Option<&[F16]>, out: &mut [f32]| {
                let prec = if let Some(w16) = w16 {
                    a16.clear();
                    a16.extend(a.iter().map(|&v| F16::from_f32(v)));
                    gemm::batched_nn_f16(rows, 1, n, k, a16, w16, out);
                    PrecClass::F16
                } else {
                    gemm::auto_nn_f32(rows, n, k, a, w, out);
                    PrecClass::F32
                };
                if let Some(t) = tally {
                    t.record(rows, prec);
                }
            };
        for (li, (w, _, b, act, resnet, ind, outd)) in self.layers.iter().enumerate() {
            let (ind, outd) = (*ind, *outd);
            let (done, rest) = xs.split_at_mut(li);
            let (x, out) = (done.last().unwrap_or(d), &mut rest[0]);
            out.clear();
            out.resize(rows * outd, 0.0);
            let w16 = (li == 0 && f16_first).then_some(&self.w16_first[..]);
            stacked_gemm(outd, ind, x, w, w16, out);
            let dfac = &mut dfacs[li];
            dfac.clear();
            dfac.resize(rows * outd, 0.0);
            for r in 0..rows {
                let outr = &mut out[r * outd..(r + 1) * outd];
                let dfr = &mut dfac[r * outd..(r + 1) * outd];
                for ((o, d), &bb) in outr.iter_mut().zip(dfr.iter_mut()).zip(b) {
                    (*o, *d) = act.value_grad_f32(*o + bb);
                }
                let xr = &x[r * ind..(r + 1) * ind];
                match resnet {
                    Resnet::None => {}
                    Resnet::Identity => {
                        for i in 0..ind {
                            outr[i] += xr[i];
                        }
                    }
                    Resnet::Doubling => {
                        for i in 0..ind {
                            outr[i] += xr[i];
                            outr[i + ind] += xr[i];
                        }
                    }
                }
            }
        }

        // Backward with unit cotangent per row (the last layer is 1-wide).
        g.clear();
        g.resize(rows, 1.0);
        for (li, (_, wt, _, _, resnet, ind, outd)) in self.layers.iter().enumerate().rev() {
            let (ind, outd) = (*ind, *outd);
            dpre.clear();
            dpre.extend(g.iter().zip(&dfacs[li]).map(|(&gv, &df)| gv * (df as f32)));
            dx.clear();
            dx.resize(rows * ind, 0.0);
            let wt16 = (li == 0 && f16_first).then_some(&self.wt16_first[..]);
            stacked_gemm(ind, outd, dpre, wt, wt16, dx);
            for r in 0..rows {
                let (dxr, gr) = (&mut dx[r * ind..(r + 1) * ind], &g[r * outd..(r + 1) * outd]);
                match resnet {
                    Resnet::None => {}
                    Resnet::Identity => {
                        for i in 0..ind {
                            dxr[i] += gr[i];
                        }
                    }
                    Resnet::Doubling => {
                        for i in 0..ind {
                            dxr[i] += gr[i] + gr[i + ind];
                        }
                    }
                }
            }
            std::mem::swap(g, dx);
        }
    }
}

/// Reusable buffers of the type-sorted f32 embedding pass: one instance per
/// tile, so the per-atom GEMM staging allocates only on growth.
#[derive(Default)]
pub(crate) struct EmbScratch {
    /// Entry positions of the type currently being batched.
    idx: Vec<u32>,
    /// Augmented value rows, stride `width + 1` (column 0 carries the 1).
    val: Vec<f32>,
    /// Augmented tangent rows, stride `width + 1` (column 0 carries the 0).
    tan: Vec<f32>,
    pre: Vec<f32>,
    dpre: Vec<f32>,
    val_next: Vec<f32>,
    tan_next: Vec<f32>,
}

/// Per-atom intermediates of the f32 embedding pass (Mix32/Mix16 paths).
#[derive(Default)]
pub(crate) struct AtomEmbed32 {
    g: Vec<f32>,
    dg_ds: Vec<f32>,
    t: Vec<f32>,
    coords: Vec<[f32; 4]>,
}

/// What one fitting tile hands to the merge.
pub(crate) struct TileOut {
    pub(crate) energy: f64,
    pub(crate) virial: f64,
    /// The tile's force contributions over all of its job's stored atoms.
    pub(crate) forces: Vec<Vec3>,
    pub(crate) gemms: u64,
    pub(crate) rows: u64,
}

/// Observability handles of an attached engine: per-precision evaluation
/// counters plus the GEMM shape-class tally shared with `nnet`.
#[derive(Clone, Debug)]
pub(crate) struct DpObs {
    /// `deepmd.eval.{fp64,fp32,fp16}.calls`, indexed by precision path.
    pub(crate) evals: [Counter; 3],
    pub(crate) gemm: GemmTally,
}

/// A precision-parameterized inference engine over a trained model.
pub struct DpEngine {
    /// The underlying f64 model (reference path and source of weights).
    pub model: DeepPotModel,
    /// Active precision mode.
    pub precision: Precision,
    emb32: Vec<Emb32>,
    fit32: Vec<Fit32>,
    /// The pool every evaluation runs on.
    pool: Arc<ThreadPool>,
    /// Phase breakdown of the last evaluation (`compute` takes `&self`, so
    /// interior mutability is needed to record it).
    pub(crate) last_phases: Mutex<Option<ForcePhases>>,
    /// Metric handles; `None` (the default) skips all recording.
    pub(crate) obs: Option<DpObs>,
}

impl DpEngine {
    /// Build an engine at the given precision (weights are cast once here —
    /// the paper's "preprocess the transpose in the initial phase" applies
    /// to these cached copies too). It evaluates on the calling thread
    /// until [`with_pool`](Self::with_pool) hands it a wider pool.
    pub fn new(model: DeepPotModel, precision: Precision) -> Self {
        let emb32 = model.embeddings.iter().map(Emb32::from_model).collect();
        let fit32 = model.fittings.iter().map(Fit32::from_model).collect();
        DpEngine {
            model,
            precision,
            emb32,
            fit32,
            pool: Arc::new(ThreadPool::serial()),
            last_phases: Mutex::new(None),
            obs: None,
        }
    }

    /// Register this engine's metrics on `reg` and start recording: one
    /// evaluation counter per precision path, and the GEMM call tally
    /// (embedding and fitting GEMMs are both type-sorted with data-dependent
    /// row counts, so it is keyed by M-class, not by exact shape).
    pub fn attach_obs(&mut self, reg: &MetricsRegistry) {
        self.obs = Some(DpObs {
            evals: [
                reg.counter("deepmd.eval.fp64.calls", Unit::Count),
                reg.counter("deepmd.eval.fp32.calls", Unit::Count),
                reg.counter("deepmd.eval.fp16.calls", Unit::Count),
            ],
            gemm: GemmTally::register(reg),
        });
    }

    /// Run all evaluations on the given pool (shared pools let one process
    /// host several engines over the same workers).
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The pool evaluations run on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Phase breakdown of the most recent evaluation, if any ran yet.
    pub fn last_phases(&self) -> Option<ForcePhases> {
        *self.last_phases.lock().unwrap()
    }

    /// Total energy at the engine's precision.
    pub fn energy(&self, atoms: &Atoms, nl: &NeighborList, bx: &SimBox) -> f64 {
        let mut forces = vec![Vec3::ZERO; atoms.len()];
        self.energy_forces(atoms, nl, bx, &mut forces).energy
    }

    /// f32 embedding pass for one atom (Mix32/Mix16), **type-sorted**: the
    /// environment's same-type entries stack into one augmented GEMM pair
    /// per layer (value rows `[1, s]`, tangent rows `[0, 1]`, weights
    /// `[bias ; W]` from [`Emb32::aug`]), dispatched to the process's active
    /// kernel class — the paper's "sort environment matrices by type so one
    /// GEMM serves all same-type neighbours". Row independence of every
    /// kernel class makes the grouping bitwise-invisible, and on the scalar
    /// class the zero-seeded augmented fold reproduces the historical
    /// bias-seeded per-entry loop bit for bit. The order-sensitive T
    /// accumulation then replays in original entry order, unchanged.
    pub(crate) fn embed_atom32(&self, env: &Environment, scratch: &mut EmbScratch) -> AtomEmbed32 {
        let m1 = self.model.config.m1();
        let inv_nm = 1.0f32 / self.model.config.nmax as f32;
        let n = env.entries.len();
        let mut g = vec![0.0f32; n * m1]; // dpmd-allow D5: per-atom result storage, returned in AtomEmbed32
        let mut dg_ds = vec![0.0f32; n * m1]; // dpmd-allow D5: per-atom result storage, returned in AtomEmbed32
        let mut t = vec![0.0f32; m1 * 4]; // dpmd-allow D5: per-atom result storage, returned in AtomEmbed32
        let mut coords = vec![[0.0f32; 4]; n]; // dpmd-allow D5: per-atom result storage, returned in AtomEmbed32
        let tally = self.obs.as_ref().map(|o| &o.gemm);
        for (ty, emb_net) in self.emb32.iter().enumerate() {
            scratch.idx.clear();
            scratch.idx.extend(
                env.entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.typ as usize == ty)
                    .map(|(k, _)| k as u32),
            );
            let rows = scratch.idx.len();
            if rows == 0 {
                continue;
            }
            scratch.val.clear();
            scratch.val.resize(rows * 2, 0.0);
            scratch.tan.clear();
            scratch.tan.resize(rows * 2, 0.0);
            for (r, &k) in scratch.idx.iter().enumerate() {
                scratch.val[r * 2] = 1.0;
                scratch.val[r * 2 + 1] = env.entries[k as usize].s as f32;
                scratch.tan[r * 2 + 1] = 1.0;
            }
            for ((_, _, act, resnet, ind, outd), baug) in emb_net.layers.iter().zip(&emb_net.aug) {
                let (ind, outd) = (*ind, *outd);
                scratch.pre.clear();
                scratch.pre.resize(rows * outd, 0.0);
                scratch.dpre.clear();
                scratch.dpre.resize(rows * outd, 0.0);
                gemm::auto_nn_f32(rows, outd, ind + 1, &scratch.val, baug, &mut scratch.pre);
                gemm::auto_nn_f32(rows, outd, ind + 1, &scratch.tan, baug, &mut scratch.dpre);
                if let Some(tl) = tally {
                    tl.record(rows, PrecClass::F32);
                    tl.record(rows, PrecClass::F32);
                }
                scratch.val_next.clear();
                scratch.val_next.resize(rows * (outd + 1), 0.0);
                scratch.tan_next.clear();
                scratch.tan_next.resize(rows * (outd + 1), 0.0);
                for r in 0..rows {
                    let prer = &scratch.pre[r * outd..(r + 1) * outd];
                    let dprer = &scratch.dpre[r * outd..(r + 1) * outd];
                    let vo = &mut scratch.val_next[r * (outd + 1)..(r + 1) * (outd + 1)];
                    let to = &mut scratch.tan_next[r * (outd + 1)..(r + 1) * (outd + 1)];
                    vo[0] = 1.0;
                    for o in 0..outd {
                        let (v, dfac) = act.value_grad_f32(prer[o]);
                        vo[1 + o] = v;
                        to[1 + o] = (dfac as f32) * dprer[o];
                    }
                    let vi = &scratch.val[r * (ind + 1)..(r + 1) * (ind + 1)];
                    let ti = &scratch.tan[r * (ind + 1)..(r + 1) * (ind + 1)];
                    match resnet {
                        Resnet::None => {}
                        Resnet::Identity => {
                            for i in 0..ind {
                                vo[1 + i] += vi[1 + i];
                                to[1 + i] += ti[1 + i];
                            }
                        }
                        Resnet::Doubling => {
                            for i in 0..ind {
                                vo[1 + i] += vi[1 + i];
                                vo[1 + i + ind] += vi[1 + i];
                                to[1 + i] += ti[1 + i];
                                to[1 + i + ind] += ti[1 + i];
                            }
                        }
                    }
                }
                std::mem::swap(&mut scratch.val, &mut scratch.val_next);
                std::mem::swap(&mut scratch.tan, &mut scratch.tan_next);
            }
            // Scatter the final rows (stride m1+1; column 0 is the
            // augmentation) back to entry positions.
            for (r, &k) in scratch.idx.iter().enumerate() {
                let (k, off) = (k as usize, r * (m1 + 1) + 1);
                g[k * m1..(k + 1) * m1].copy_from_slice(&scratch.val[off..off + m1]);
                dg_ds[k * m1..(k + 1) * m1].copy_from_slice(&scratch.tan[off..off + m1]);
            }
        }
        // T accumulation in entry order (the only order-sensitive reduction).
        for (k, e) in env.entries.iter().enumerate() {
            let c64 = e.coords();
            let c = [c64[0] as f32, c64[1] as f32, c64[2] as f32, c64[3] as f32];
            coords[k] = c;
            for m in 0..m1 {
                let gv = g[k * m1 + m];
                for (cc, &cv) in c.iter().enumerate() {
                    t[m * 4 + cc] += gv * cv * inv_nm;
                }
            }
        }
        AtomEmbed32 { g, dg_ds, t, coords }
    }

    /// Fitting pass of one tile: the atoms `start..start + envs.len()` of
    /// `atoms`, with their environments and embedding intermediates.
    pub(crate) fn fit_tile(
        &self,
        atoms: &Atoms,
        start: usize,
        envs: &[Environment],
        embeds: &[AtomEmbed32],
    ) -> TileOut {
        let cfg = &self.model.config;
        let (m1, m2) = (cfg.m1(), cfg.m2);
        let dl = m1 * m2;
        let inv_nm = 1.0f32 / cfg.nmax as f32;
        let f16_first = self.precision == Precision::Mix16;
        let tally = self.obs.as_ref().map(|o| &o.gemm);
        let n = envs.len();
        let typ = &atoms.typ[start..start + n];

        // Fitting net, stacked per central species: D rows in (every
        // element overwritten), per-atom energy and ∂E/∂D out.
        let (mut gemms, mut rows_total) = (0u64, 0u64);
        let mut efit = vec![0.0f32; n]; // dpmd-allow D7: per-tile fitting outputs, one slot per atom
        let mut de_dd = vec![0.0f32; n * dl]; // dpmd-allow D7: per-tile fitting outputs, one row per atom
        let mut tape = FitTape::default();
        for (ty, fit) in self.fit32.iter().enumerate() {
            let of_species = || (0..n).filter(|&l| typ[l] as usize == ty);
            let rows = of_species().count();
            if rows == 0 {
                continue;
            }
            tape.d.clear();
            tape.d.resize(rows * dl, 0.0);
            for (l, drow) in of_species().zip(tape.d.chunks_exact_mut(dl)) {
                let t = &embeds[l].t;
                for a in 0..m1 {
                    for b in 0..m2 {
                        let mut acc = 0.0f32;
                        for c in 0..4 {
                            acc += t[a * 4 + c] * t[b * 4 + c];
                        }
                        drow[a * m2 + b] = acc;
                    }
                }
            }
            fit.value_grad_rows(rows, f16_first, tally, &mut tape);
            gemms += 2 * fit.layers.len() as u64;
            rows_total += 2 * (fit.layers.len() * rows) as u64;
            let energies = &tape.xs[fit.layers.len() - 1];
            for ((l, &e), grad) in of_species().zip(energies).zip(tape.g.chunks_exact(dl)) {
                efit[l] = e;
                de_dd[l * dl..(l + 1) * dl].copy_from_slice(grad);
            }
        }

        // Chain rule and force scatter in atom order; forces in f64.
        let mut buf = vec![Vec3::ZERO; atoms.len()]; // dpmd-allow D7: one force buffer per tile, amortized over the tile's atoms
        let mut dt = vec![0.0f32; m1 * 4]; // dpmd-allow D7: per-tile scratch, reused per atom
        let mut energy = 0.0f64;
        let mut virial = 0.0f64;
        for (l, (env, emb)) in envs.iter().zip(embeds).enumerate() {
            let i = start + l;
            let t = &emb.t;
            energy += efit[l] as f64 + self.model.energy_bias[typ[l] as usize];
            let grad = &de_dd[l * dl..(l + 1) * dl];

            // dT (accumulated, so reset per atom).
            dt.fill(0.0);
            for a in 0..m1 {
                for b in 0..m2 {
                    let aab = grad[a * m2 + b];
                    for c in 0..4 {
                        dt[a * 4 + c] += aab * t[b * 4 + c];
                        dt[b * 4 + c] += aab * t[a * 4 + c];
                    }
                }
            }
            for (k, e) in env.entries.iter().enumerate() {
                let c = emb.coords[k];
                let mut de_ds = 0.0f32;
                let mut de_drt = [0.0f32; 4];
                for m in 0..m1 {
                    let mut de_dg = 0.0f32;
                    for cc in 0..4 {
                        de_dg += dt[m * 4 + cc] * c[cc];
                        de_drt[cc] += dt[m * 4 + cc] * emb.g[k * m1 + m];
                    }
                    de_ds += de_dg * inv_nm * emb.dg_ds[k * m1 + m];
                }
                for v in &mut de_drt {
                    *v *= inv_nm;
                }
                let grads = e.coord_grads();
                let inv_r = 1.0 / e.r;
                let dsdd = [
                    e.ds_dr * e.disp.x * inv_r,
                    e.ds_dr * e.disp.y * inv_r,
                    e.ds_dr * e.disp.z * inv_r,
                ];
                let mut de_dd_vec = Vec3::ZERO;
                for axis in 0..3 {
                    let mut v = de_ds as f64 * dsdd[axis];
                    for cc in 0..4 {
                        v += de_drt[cc] as f64 * grads[cc][axis];
                    }
                    de_dd_vec[axis] = v;
                }
                buf[e.j as usize] -= de_dd_vec;
                buf[i] += de_dd_vec;
                virial += de_dd_vec.dot(e.disp);
            }
        }
        TileOut { energy, virial, forces: buf, gemms, rows: rows_total }
    }

    /// Energy + forces at the engine's precision (forces accumulated f64):
    /// [`evaluate`](Self::evaluate) on a single job. Runs on
    /// [`pool`](Self::pool); records the phase breakdown.
    pub fn energy_forces(
        &self,
        atoms: &Atoms,
        nl: &NeighborList,
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> PotentialOutput {
        self.evaluate(&mut [BatchJob { atoms, nl, bx, forces }]).0[0]
    }
}

/// [`Potential`] adapter: an engine at any precision — `Double` is the f64
/// reference model — drives `minimd`'s simulation loop like an analytic
/// force field (used by the Fig. 6 RDF-under-three-precisions experiment).
impl Potential for DpEngine {
    fn compute(&self, atoms: &mut Atoms, nl: &NeighborList, bx: &SimBox) -> PotentialOutput {
        let mut forces = std::mem::take(&mut atoms.force);
        let out = self.energy_forces(atoms, nl, bx, &mut forces);
        atoms.force = forces;
        out
    }

    fn cutoff(&self) -> f64 {
        self.model.config.rcut
    }

    fn name(&self) -> &'static str {
        match self.precision {
            Precision::Double => "deep-potential (double)",
            Precision::Mix32 => "deep-potential (MIX-fp32)",
            Precision::Mix16 => "deep-potential (MIX-fp16)",
        }
    }

    fn phase_times(&self) -> Option<ForcePhases> {
        self.last_phases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use minimd::lattice::fcc_copper;
    use minimd::neighbor::ListKind;

    fn setup() -> (DeepPotModel, SimBox, Atoms, NeighborList) {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let (bx, mut atoms) = fcc_copper(4, 4, 4);
        // Perturb so forces are non-trivial.
        for (k, p) in atoms.pos.iter_mut().enumerate() {
            p.x += 0.05 * ((k % 7) as f64 - 3.0) / 3.0;
            p.z += 0.04 * ((k % 5) as f64 - 2.0) / 2.0;
        }
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        (model, bx, atoms, nl)
    }

    fn max_norm(vs: impl Iterator<Item = Vec3>) -> f64 {
        vs.map(|v| v.norm()).fold(0.0, f64::max)
    }

    #[test]
    fn double_engine_is_bit_identical_to_reference() {
        let (model, bx, atoms, nl) = setup();
        let engine = DpEngine::new(model.clone(), Precision::Double);
        let mut f_ref = vec![Vec3::ZERO; atoms.len()];
        let mut f_eng = vec![Vec3::ZERO; atoms.len()];
        let (out_ref, _) = model.energy_forces_on(&ThreadPool::new(3), &atoms, &nl, &bx, &mut f_ref);
        let out_eng = engine.energy_forces(&atoms, &nl, &bx, &mut f_eng);
        assert_eq!(out_ref.energy, out_eng.energy);
        assert_eq!(out_ref.virial, out_eng.virial);
        assert_eq!(f_ref, f_eng);
    }

    #[test]
    fn precision_error_ordering_double_fp32_fp16() {
        let (model, bx, atoms, nl) = setup();
        let e64 = DpEngine::new(model.clone(), Precision::Double).energy(&atoms, &nl, &bx);
        let e32 = DpEngine::new(model.clone(), Precision::Mix32).energy(&atoms, &nl, &bx);
        let e16 = DpEngine::new(model.clone(), Precision::Mix16).energy(&atoms, &nl, &bx);
        let n = atoms.nlocal as f64;
        let err32 = ((e32 - e64) / n).abs();
        let err16 = ((e16 - e64) / n).abs();
        assert!(err32 > 0.0, "fp32 path must actually round");
        assert!(err16 > err32, "fp16 error must exceed fp32: {err16:.3e} vs {err32:.3e}");
        // Both should stay far below physical energy scales (eV/atom).
        assert!(err32 < 1e-3, "err32 {err32:.3e}");
        assert!(err16 < 5e-2, "err16 {err16:.3e}");
    }

    /// Differential check against the independent f64 model
    /// ([`DeepPotModel::energy_forces_on`] shares no code with the mixed
    /// pipeline past the descriptor): max |ΔF| / max |F| within the bounds
    /// the end-to-end benchmark gates on (paper Table II), however the
    /// jobs are co-batched and however wide the pool.
    #[test]
    fn mixed_precision_forces_stay_close_to_the_f64_model() {
        let (model, bx, atoms, nl) = setup();
        let systems: Vec<Atoms> = (0..3)
            .map(|s| {
                let mut a = atoms.clone();
                for (k, p) in a.pos.iter_mut().enumerate() {
                    p.y += 0.03 * s as f64 * ((k % 3) as f64 - 1.0);
                }
                a
            })
            .collect();
        let relerr = |f: &[Vec3], f_ref: &[Vec3]| {
            max_norm(f.iter().zip(f_ref).map(|(a, b)| *a - *b)) / max_norm(f_ref.iter().copied())
        };
        for threads in [1usize, 3] {
            let pool = Arc::new(ThreadPool::new(threads));
            let f_ref: Vec<Vec<Vec3>> = systems
                .iter()
                .map(|a| {
                    let mut f = vec![Vec3::ZERO; a.len()];
                    model.energy_forces_on(&pool, a, &nl, &bx, &mut f);
                    f
                })
                .collect();
            for njobs in [1usize, 3] {
                let worst = |precision| {
                    let eng = DpEngine::new(model.clone(), precision).with_pool(Arc::clone(&pool));
                    let mut bufs: Vec<Vec<Vec3>> =
                        systems[..njobs].iter().map(|a| vec![Vec3::ZERO; a.len()]).collect();
                    let mut jobs: Vec<BatchJob> = systems
                        .iter()
                        .zip(bufs.iter_mut())
                        .map(|(atoms, forces)| BatchJob { atoms, nl: &nl, bx: &bx, forces })
                        .collect();
                    eng.energy_forces_batched(&mut jobs);
                    bufs.iter().zip(&f_ref).map(|(f, r)| relerr(f, r)).fold(0.0, f64::max)
                };
                let (e32, e16) = (worst(Precision::Mix32), worst(Precision::Mix16));
                let what = format!("{threads} threads, {njobs} jobs: relerr fp32 {e32:e}, fp16 {e16:e}");
                assert!(e32 > 0.0 && e32 <= 1e-5, "{what}");
                assert!(e16 > e32 && e16 <= 5e-3, "{what}");
            }
        }
    }

    /// Physics check no bitwise test can give: the forces are the negative
    /// gradient of the energy the same engine reports. Central differences
    /// of the Mix32 energy against the analytic force, on a one-species
    /// and a two-species cell.
    ///
    /// Tolerance, from the f32 resolution of the energy. E is an f64 sum
    /// of per-atom f32 energies; against the f64 model each carries a
    /// rounding error δ of up to 1e-9 eV (|E_mix32 − E_f64| / √N measures
    /// 7e-10 on this Cu cell, 3e-10 on the water cell). Displacing one
    /// atom re-rounds the energies of the n_aff ≤ 64 atoms that see it, in
    /// E(+h) and in E(−h): √(2·n_aff)·δ ≈ 1.1e-8 eV of noise on the
    /// difference, over 2h. At h = 2⁻⁷ Å the h² truncation term is 4e-9
    /// (Cu) / 8e-8 (water) eV/Å — measured with the Double engine, where
    /// it is the whole error — so the bound is the noise floor, 7.2e-7
    /// eV/Å: under 1 % of max |F| on both cells, where a wrong sign or a
    /// dropped chain-rule term costs O(max |F|).
    #[test]
    fn mix32_forces_are_the_negative_energy_gradient() {
        const H: f64 = 1.0 / 128.0;
        const DELTA_E: f64 = 1e-9;
        const N_AFFECTED: f64 = 64.0;
        let tol = (2.0 * N_AFFECTED).sqrt() * DELTA_E / (2.0 * H);

        let (cu_model, cu_bx, cu_atoms, cu_nl) = setup();
        let water_model = DeepPotModel::new(DeepPotConfig::tiny(2, 4.0));
        let (w_bx, w_atoms) = minimd::lattice::water_box(3, 3, 3, 31);
        let mut w_nl = NeighborList::new(4.0, 0.5, ListKind::Full);
        w_nl.build(&w_atoms, &w_bx);
        for (name, model, bx, atoms, nl) in [
            ("Cu", cu_model, cu_bx, cu_atoms, cu_nl),
            ("water", water_model, w_bx, w_atoms, w_nl),
        ] {
            let eng = DpEngine::new(model, Precision::Mix32);
            let mut f = vec![Vec3::ZERO; atoms.len()];
            eng.energy_forces(&atoms, &nl, &bx, &mut f);
            let fmax = max_norm(f.iter().copied());
            assert!(tol < 1e-2 * fmax, "{name}: bound {tol:e} cannot resolve max |F| {fmax:e}");
            // The 0.5 Å skin keeps the neighbour list valid under ±H.
            let mut moved = atoms.clone();
            for i in (0..atoms.nlocal).step_by(atoms.nlocal / 12) {
                for (axis, f_analytic) in [f[i].x, f[i].y, f[i].z].into_iter().enumerate() {
                    let x0 = atoms.pos[i][axis];
                    moved.pos[i][axis] = x0 + H;
                    let ep = eng.energy(&moved, &nl, &bx);
                    moved.pos[i][axis] = x0 - H;
                    let em = eng.energy(&moved, &nl, &bx);
                    moved.pos[i][axis] = x0;
                    let fd = -(ep - em) / (2.0 * H);
                    let err = (fd - f_analytic).abs();
                    assert!(err <= tol, "{name} atom {i} axis {axis}: FD {fd:e} vs F {f_analytic:e}");
                }
            }
        }
    }

    #[test]
    fn mixed_precision_is_bit_identical_across_pool_widths() {
        let (model, bx, atoms, nl) = setup();
        for precision in [Precision::Mix32, Precision::Mix16] {
            let serial =
                DpEngine::new(model.clone(), precision).with_pool(Arc::new(ThreadPool::serial()));
            let mut f_ref = vec![Vec3::ZERO; atoms.len()];
            let out_ref = serial.energy_forces(&atoms, &nl, &bx, &mut f_ref);
            let phases = serial.last_phases().expect("phases recorded");
            assert!(phases.total() > 0.0);
            for threads in [3usize, 6] {
                let eng = DpEngine::new(model.clone(), precision)
                    .with_pool(Arc::new(ThreadPool::new(threads)));
                let mut f = vec![Vec3::ZERO; atoms.len()];
                let out = eng.energy_forces(&atoms, &nl, &bx, &mut f);
                assert_eq!(out_ref.energy, out.energy, "{precision:?} {threads} threads");
                assert_eq!(out_ref.virial, out.virial, "{precision:?} {threads} threads");
                assert_eq!(f_ref, f, "{precision:?} {threads} threads");
            }
        }
    }

    #[test]
    fn mixed_precision_conserves_momentum() {
        let (model, bx, atoms, nl) = setup();
        let mut f = vec![Vec3::ZERO; atoms.len()];
        DpEngine::new(model, Precision::Mix16).energy_forces(&atoms, &nl, &bx, &mut f);
        let net = f.iter().fold(Vec3::ZERO, |a, &x| a + x);
        assert!(net.norm() < 1e-8, "net force {net:?}");
    }
}
