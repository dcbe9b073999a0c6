//! Mixed-precision inference engine (§III-B3): the cast weights and what
//! one tile of the force pipeline computes.
//!
//! * `Double` — delegates to the f64 reference implementation.
//! * `Mix32` — embedding-net and fitting-net arithmetic in f32 (descriptor
//!   assembly in f32 as well, per ref [42]); force accumulation stays f64.
//! * `Mix16` — like `Mix32`, but the first-layer fitting-net GEMMs (forward
//!   and backward) run on operands rounded through binary16 with f32
//!   accumulation — the paper's fp16-sve-gemm. No binary16 kernel runs: the
//!   weights are rounded once at build, the activations by one pass per
//!   call, and the GEMM is the same f32 `mul_add` fold as every other. A
//!   binary16 × binary16 product has at most 22 significant bits and lies
//!   between 2⁻⁴⁸ and 65504², so it is exact in f32 and each fused step
//!   rounds exactly where an fp16-storage / f32-accumulate unit's add does.
//!
//! Every evaluation — [`DpEngine::energy_forces`], the
//! [`Potential`] adapter, the batched entry points — is one call of the
//! pipeline in [`crate::batch`], which cuts jobs into tiles of a few atoms
//! and runs each tile through this module's three stages back to back, on
//! one `TileScratch`:
//!
//! 1. `DpEngine::describe_tile` — the tile's environments as f64 columns
//!    (`EnvColumns`) with per-atom offsets: per atom the displacements and
//!    squared distances of its whole neighbour list
//!    (`dpmd_simd::env_dist_f64`) and a branch-free compaction to the
//!    entries inside `r_c`, then one switching-weight pass over the tile
//!    (`dpmd_simd::env_smooth_f64`). The scalar
//!    [`crate::descriptor::push_environment`] is the reference these
//!    columns equal bit for bit;
//! 2. `DpEngine::embed_tile` — per atom, type-sorted embedding GEMMs, each
//!    `tanh` layer's bias, activation, tangent product and resnet skip in
//!    one pass (`dpmd_simd::tanh_bias_tangent_f32`), then R̃ from the
//!    columns and the T accumulation (`dpmd_simd::env_t_f32`);
//! 3. `DpEngine::fit_tile` — type-sorted stacked fitting GEMMs, then per
//!    atom the chain rule through T (`dpmd_simd::env_chain_f32`), the f64
//!    projection onto the displacements (`dpmd_simd::env_proj_f64`) and
//!    the force scatter, in atom and entry order.
//!
//! Every per-neighbour pass is a `dpmd-simd` body with lanes across
//! neighbours: the same expression trees as the scalar reference, exact
//! IEEE ops and compare-selects only, and no f64 sum reordered.
//!
//! Both nets run a layer the same way: GEMM, `+ bias`, then the f32
//! activation kernel in place over the whole GEMM output, which leaves the
//! derivative factors the tangent / backward pass needs (the embedding
//! multiplies them into its tangents in the same pass); no transcendental
//! is evaluated one element at a time. The fitting net is row-major (one
//! row per atom). The embedding net is feature-major — `Yᵀ = Wᵀ·Xᵀ`, one
//! row per feature, one column per neighbour — so G and dG/ds come out as
//! the `m1 × n` operands the environment kernels take. Each element is
//! still the ascending-`p` `mul_add` fold of the row-major form, because
//! `mul_add(a, b, c)` equals `mul_add(b, a, c)`: the layout moves no bit.
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
use crate::model::DeepPotModel;

/// One embedding layer: (wᵀ out×in, b, act, resnet, in, out).
type EmbLayer32 = (Vec<f32>, Vec<f32>, Activation, Resnet, usize, usize);

/// One embedding net with weights cast to f32 and transposed for the
/// feature-major layout, once at engine construction — the paper's
/// initialization-phase preprocessing.
#[derive(Clone, Debug)]
struct Emb32 {
    layers: Vec<EmbLayer32>,
}

impl Emb32 {
    fn from_model(net: &crate::embedding::EmbeddingNet) -> Self {
        let layers = net
            .mlp
            .layers
            .iter()
            .map(|l| {
                (
                    l.w.transpose().as_slice().iter().map(|&x| x as f32).collect(),
                    l.b.iter().map(|&x| x as f32).collect(),
                    l.act,
                    l.resnet,
                    l.in_dim(),
                    l.out_dim(),
                )
            })
            .collect();
        Emb32 { layers }
    }
}

/// The step between two fitting-net GEMMs, in place over a whole
/// `rows × outd` GEMM output: `+ bias` per row, then the activation over
/// the block, leaving its derivative factors in `dfac`.
fn bias_activation(act: Activation, b: &[f32], out: &mut [f32], dfac: &mut Vec<f32>) {
    for row in out.chunks_exact_mut(b.len()) {
        for (o, &bb) in row.iter_mut().zip(b) {
            *o += bb;
        }
    }
    // Sized, not cleared: the activation overwrites every factor.
    dfac.resize(out.len(), 0.0);
    act.value_grad_rows_f32(out, dfac);
}

/// `out[i] += x[i]`: an embedding resnet skip over whole feature rows.
fn add_rows(out: &mut [f32], x: &[f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += v;
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
    /// (the activation kernel produces them with the values) so the
    /// backward pass evaluates no transcendental.
    dfacs: Vec<Vec<f32>>,
    /// Cotangent rows; after the sweep, ∂E/∂D (same shape as `d`).
    g: Vec<f32>,
    dpre: Vec<f32>,
    dx: Vec<f32>,
    /// The first layer's GEMM operand rounded through binary16 and widened
    /// back to f32 (`Mix16`).
    a16: Vec<f32>,
}

/// One fitting net with f32 weights. For the `Mix16` path the first
/// layer's weights (in×out and transpose) are rounded through binary16 in
/// place, once here (widening back is exact), and `round_first` rounds
/// that layer's activation operand on every call.
#[derive(Clone, Debug)]
struct Fit32 {
    layers: Vec<FitLayer32>,
    round_first: bool,
}

/// `x` rounded to the nearest binary16, widened back to f32 (exactly).
fn round_f16(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

impl Fit32 {
    fn from_model(net: &crate::fitting::FittingNet, round_first: bool) -> Self {
        let mut layers: Vec<_> = net
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
        if round_first {
            let (w, wt, ..) = &mut layers[0];
            w.iter_mut().chain(wt.iter_mut()).for_each(|x| *x = round_f16(*x));
        }
        Fit32 { layers, round_first }
    }

    /// Forward + backward of this net over the `rows` descriptor rows
    /// staged in `tape.d`, every layer one stacked GEMM per direction
    /// (first-layer GEMMs on operands rounded through binary16 when
    /// `round_first` is set).
    /// Leaves the per-row energies in `tape.xs.last()` and ∂E/∂D in
    /// `tape.g`. Each output row depends only on its own input row: the
    /// kernels are row-independent and bias, activation and resnet apply
    /// per row, so how atoms are grouped into calls never changes a bit.
    fn value_grad_rows(&self, rows: usize, tally: Option<&GemmTally>, tape: &mut FitTape) {
        let nl = self.layers.len();
        let FitTape { d, xs, dfacs, g, dpre, dx, a16 } = tape;
        xs.resize_with(nl, Vec::default);
        dfacs.resize_with(nl, Vec::default);
        // `out = a · w` over the stacked rows (the GEMM overwrites `out`),
        // on `a` rounded through binary16 when `round` is set — against
        // weights rounded at build, that is the fp16 fold (module docs).
        let mut stacked_gemm = |n: usize, k: usize, a: &[f32], w: &[f32], round: bool, out: &mut [f32]| {
            let (a, prec) = if round {
                a16.clear();
                a16.extend(a.iter().map(|&v| round_f16(v)));
                (&a16[..], PrecClass::F16)
            } else {
                (a, PrecClass::F32)
            };
            gemm::auto_nn_f32(rows, n, k, a, w, out);
            if let Some(t) = tally {
                t.record(rows, prec);
            }
        };
        for (li, (w, _, b, act, resnet, ind, outd)) in self.layers.iter().enumerate() {
            let (ind, outd) = (*ind, *outd);
            let (done, rest) = xs.split_at_mut(li);
            let (x, out) = (done.last().unwrap_or(d), &mut rest[0]);
            // Every element is overwritten before it is read.
            out.resize(rows * outd, 0.0);
            stacked_gemm(outd, ind, x, w, li == 0 && self.round_first, out);
            bias_activation(*act, b, out, &mut dfacs[li]);
            for r in 0..rows {
                let outr = &mut out[r * outd..(r + 1) * outd];
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
            dpre.extend(g.iter().zip(&dfacs[li]).map(|(&gv, &df)| gv * df));
            dx.resize(rows * ind, 0.0);
            stacked_gemm(ind, outd, dpre, wt, li == 0 && self.round_first, dx);
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

/// The environments of a tile's atoms, one after another, as one column
/// per field: entry `k` is neighbour `j[k]` (species `typ[k]`) at
/// displacement `(d[0][k], d[1][k], d[2][k])`, distance `r[k]`, with
/// switching weight `s[k]` and its derivative `ds_dr[k]`. The f64 fields
/// are what the reference [`crate::descriptor::push_environment`] computes
/// per entry, bit for bit.
#[derive(Default)]
pub(crate) struct EnvColumns {
    pub(crate) j: Vec<u32>,
    pub(crate) typ: Vec<u32>,
    pub(crate) d: [Vec<f64>; 3],
    pub(crate) r: Vec<f64>,
    pub(crate) s: Vec<f64>,
    pub(crate) ds_dr: Vec<f64>,
}

impl EnvColumns {
    fn resize(&mut self, len: usize) {
        let EnvColumns { j, typ, d: [x, y, z], r, s, ds_dr } = self;
        j.resize(len, 0);
        typ.resize(len, 0);
        for col in [x, y, z, r, s, ds_dr] {
            col.resize(len, 0.0);
        }
    }

    /// The f64 columns of the `n` entries from `at`, for the projection
    /// kernel.
    pub(crate) fn cols(&self, at: usize, n: usize) -> dpmd_simd::EnvCols<'_> {
        dpmd_simd::EnvCols {
            d: self.d.each_ref().map(|col| &col[at..at + n]),
            r: &self.r[at..at + n],
            s: &self.s[at..at + n],
            ds_dr: &self.ds_dr[at..at + n],
        }
    }

    /// R̃ = `(s, f·x, f·y, f·z)` with `f = s/r`, rounded to f32, of the `n`
    /// entries from `at` into `out` (`4 × n` component-major).
    pub(crate) fn rt_f32(&self, at: usize, n: usize, out: &mut [f32]) {
        let c = self.cols(at, n);
        let (s0, rest) = out[..4 * n].split_at_mut(n);
        let (s1, rest) = rest.split_at_mut(n);
        let (s2, s3) = rest.split_at_mut(n);
        for k in 0..n {
            let (s, f) = (c.s[k], c.s[k] / c.r[k]);
            let [x, y, z] = c.d.map(|col| (f * col[k]) as f32);
            (s0[k], s1[k], s2[k], s3[k]) = (s as f32, x, y, z);
        }
    }
}

/// Everything one tile computes between its environments and its force
/// scatter, in flat arrays that only grow: one instance per tile, so no
/// buffer is allocated per atom, and a tile's environments and embeddings
/// are still in cache when its chain rule reads them. Atom `l` of the tile
/// owns the tile-wide entries `off[l]..off[l + 1]`.
#[derive(Default)]
pub(crate) struct TileScratch {
    /// The environments of the tile's atoms.
    pub(crate) env: EnvColumns,
    /// Entry positions of the species currently being embedded.
    idx: Vec<u32>,
    /// Feature rows entering the current embedding layer (`ind × rows`).
    val: Vec<f32>,
    /// Tangent rows (∂/∂s of the value rows), same shape.
    tan: Vec<f32>,
    /// The layer's value GEMM output, activated in place; next layer's `val`.
    pre: Vec<f32>,
    /// The layer's tangent GEMM output; next layer's `tan`.
    dpre: Vec<f32>,
    dfac: Vec<f32>,
    /// Per-atom offsets into the tile's entries (`atoms + 1` of them).
    pub(crate) off: Vec<usize>,
    /// G per atom, `m1 × n` feature-major, at `off[l]·m1`.
    g: Vec<f32>,
    /// dG/ds per atom, same layout.
    dg_ds: Vec<f32>,
    /// R̃ per atom in f32, `4 × n` component-major, at `off[l]·4`.
    coords: Vec<f32>,
    /// T per atom, `m1 × 4`, at `l·m1·4`.
    t: Vec<f32>,
    /// The fitting net's tape, reused across the tile's central species.
    tape: FitTape,
    /// Per-atom fitting energy.
    efit: Vec<f32>,
    /// Per-atom ∂E/∂D, one descriptor-length row per atom.
    de_dd: Vec<f32>,
    /// ∂E/∂T of the current atom (`m1 × 4`).
    dt: Vec<f32>,
    /// ∂E/∂s per entry of the current atom.
    de_ds: Vec<f32>,
    /// ∂E/∂R̃ of the current atom, `4 × n` component-major.
    de_drt: Vec<f32>,
    /// ∂E/∂d per entry of the current atom, one column per axis.
    de_dx: [Vec<f64>; 3],
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
    /// Active precision mode, as built: the cast weights depend on it
    /// (`Mix16` rounds the first fitting layer's), so construct a new
    /// engine rather than change it.
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
        let mix16 = precision == Precision::Mix16;
        let fit32 = model.fittings.iter().map(|f| Fit32::from_model(f, mix16)).collect();
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

    /// Build the environments of the atoms `range` of `atoms` into the
    /// columns of `s`, in atom and neighbour-list order, with the per-atom
    /// offsets the embedding and fitting stages index them by. Per atom:
    /// gather the whole list's positions into the columns at the write
    /// index, `dpmd_simd::env_dist_f64` over them (minimum image unless the
    /// system carries ghosts), then a branch-free compaction in place that
    /// writes every list entry and advances past those inside `r_c` and
    /// not on the atom itself. One
    /// `dpmd_simd::env_smooth_f64` call then gives every kept entry its
    /// `r`, `s` and `ds/dr`.
    pub(crate) fn describe_tile(
        &self,
        atoms: &Atoms,
        nl: &NeighborList,
        bx: &SimBox,
        range: std::ops::Range<usize>,
        s: &mut TileScratch,
    ) {
        let cfg = &self.model.config;
        let rc2 = cfg.rcut * cfg.rcut;
        let period = (atoms.nghost() == 0).then(|| {
            let l = bx.lengths();
            [l.x, l.y, l.z]
        });
        let TileScratch { env, off, .. } = s;
        // An atom's whole list lands at the write index, which never passes
        // the list's own place in the lists' total, so the compaction reads
        // every entry before it can overwrite it.
        env.resize((range.start..range.end).map(|i| nl.neighbors(i).len()).sum());
        off.clear();
        off.push(0);
        let mut w = 0;
        let EnvColumns { j: jc, typ: tc, d: [x, y, z], r: r2, .. } = env;
        for i in range {
            let (list, at) = (nl.neighbors(i), w);
            let n = list.len();
            let (xs, ys, zs) = (&mut x[at..at + n], &mut y[at..at + n], &mut z[at..at + n]);
            for (k, &j) in list.iter().enumerate() {
                let p = atoms.pos[j as usize];
                (xs[k], ys[k], zs[k]) = (p.x, p.y, p.z);
            }
            let xi = atoms.pos[i];
            dpmd_simd::env_dist_f64([xi.x, xi.y, xi.z], period, [xs, ys, zs], &mut r2[at..at + n]);
            for (k, &j) in (at..).zip(list) {
                let rr = r2[k];
                jc[w] = j;
                tc[w] = atoms.typ[j as usize];
                (x[w], y[w], z[w], r2[w]) = (x[k], y[k], z[k], rr);
                w += usize::from(!(rr > rc2 || rr == 0.0));
            }
            off.push(w);
        }
        env.resize(w);
        dpmd_simd::env_smooth_f64(cfg.rcut_smth, cfg.rcut, &mut env.r, &mut env.s, &mut env.ds_dr);
    }

    /// Embed every atom of the tile [`describe_tile`](Self::describe_tile)
    /// left in `s` (see [`embed_atom32`](Self::embed_atom32)).
    pub(crate) fn embed_tile(&self, s: &mut TileScratch) {
        let m1 = self.model.config.m1();
        let (natoms, nentries) = (s.off.len() - 1, s.env.r.len());
        // Every element is overwritten before it is read.
        s.g.resize(nentries * m1, 0.0);
        s.dg_ds.resize(nentries * m1, 0.0);
        s.coords.resize(nentries * 4, 0.0);
        s.t.resize(natoms * m1 * 4, 0.0);
        for l in 0..natoms {
            self.embed_atom32(l, s);
        }
    }

    /// f32 embedding of atom `l` of a tile (Mix32/Mix16), **type-sorted**:
    /// the environment's same-type entries stack into one GEMM pair per
    /// layer (value columns from `s`, tangent columns from `∂s/∂s = 1`) —
    /// the paper's "sort environment matrices by type so one GEMM serves
    /// all same-type neighbours". Each layer is a GEMM pair, then one
    /// `dpmd_simd::tanh_bias_tangent_f32` pass over the block — `+ bias`
    /// per feature row, `tanh`, the tangent product and the resnet skip
    /// (a `Linear` layer runs those steps one pass each); its outputs become
    /// the next layer's inputs by swap. Column independence of the GEMM
    /// makes the grouping bitwise-invisible. The last layer's columns land
    /// in the atom's G and dG/ds (written there directly when every entry
    /// is of one species, a column scatter otherwise), then
    /// `dpmd_simd::env_t_f32` folds T in entry order.
    pub(crate) fn embed_atom32(&self, l: usize, s: &mut TileScratch) {
        let m1 = self.model.config.m1();
        let inv_nm = 1.0f32 / self.model.config.nmax as f32;
        let tally = self.obs.as_ref().map(|o| &o.gemm);
        let TileScratch { env, idx, val, tan, pre, dpre, dfac, off, g, dg_ds, coords, t, .. } = s;
        let (at, n) = (off[l], off[l + 1] - off[l]);
        let (typ, sw) = (&env.typ[at..at + n], &env.s[at..at + n]);
        let g = &mut g[at * m1..(at + n) * m1];
        let dg_ds = &mut dg_ds[at * m1..(at + n) * m1];
        let coords = &mut coords[at * 4..(at + n) * 4];
        for (ty, emb_net) in self.emb32.iter().enumerate() {
            idx.clear();
            idx.extend((0..n as u32).filter(|&k| typ[k as usize] as usize == ty));
            let rows = idx.len();
            if rows == 0 {
                continue;
            }
            val.clear();
            val.extend(idx.iter().map(|&k| sw[k as usize] as f32));
            tan.clear();
            tan.resize(rows, 1.0);
            let last = emb_net.layers.len() - 1;
            for (li, (wt, b, act, resnet, ind, outd)) in emb_net.layers.iter().enumerate() {
                let (ind, outd) = (*ind, *outd);
                // The last layer of a one-species environment lands in G and
                // dG/ds directly, every other one in `pre`/`dpre`. The GEMM
                // overwrites both outputs.
                let direct = li == last && rows == n;
                let (out, dout) = if direct {
                    (&mut g[..], &mut dg_ds[..])
                } else {
                    pre.resize(outd * rows, 0.0);
                    dpre.resize(outd * rows, 0.0);
                    (&mut pre[..], &mut dpre[..])
                };
                gemm::auto_nn_f32(outd, rows, ind, wt, val, out);
                gemm::auto_nn_f32(outd, rows, ind, wt, tan, dout);
                if let Some(tl) = tally {
                    tl.record(rows, PrecClass::F32);
                    tl.record(rows, PrecClass::F32);
                }
                // A resnet layer adds its input: output row `m` gets input
                // row `m mod ind` (identity: `outd = ind`; doubling:
                // `outd = 2·ind`).
                let skip = (*resnet != Resnet::None).then(|| [&val[..ind * rows], &tan[..ind * rows]]);
                if *act == Activation::Tanh {
                    dpmd_simd::tanh_bias_tangent_f32(rows, b, out, dout, skip);
                } else {
                    for (row, &bb) in out.chunks_exact_mut(rows).zip(b) {
                        for v in row {
                            *v += bb;
                        }
                    }
                    dfac.resize(out.len(), 0.0);
                    act.value_grad_rows_f32(out, dfac);
                    for (dp, &df) in dout.iter_mut().zip(dfac.iter()) {
                        *dp *= df;
                    }
                    if let Some([sv, st]) = skip {
                        for (m, (o, d)) in out.chunks_exact_mut(rows).zip(dout.chunks_exact_mut(rows)).enumerate() {
                            let from = m % ind * rows;
                            add_rows(o, &sv[from..from + rows]);
                            add_rows(d, &st[from..from + rows]);
                        }
                    }
                }
                if !direct {
                    std::mem::swap(val, pre);
                    std::mem::swap(tan, dpre);
                }
            }
            if rows != n {
                for (m, (gm, sm)) in g.chunks_exact_mut(n).zip(dg_ds.chunks_exact_mut(n)).enumerate() {
                    let (vm, tm) = (&val[m * rows..(m + 1) * rows], &tan[m * rows..(m + 1) * rows]);
                    for ((&k, &v), &tv) in idx.iter().zip(vm).zip(tm) {
                        gm[k as usize] = v;
                        sm[k as usize] = tv;
                    }
                }
            }
        }
        env.rt_f32(at, n, coords);
        dpmd_simd::env_t_f32(m1, n, g, coords, inv_nm, &mut t[l * m1 * 4..(l + 1) * m1 * 4]);
    }

    /// Fitting pass of one tile: the atoms `start..` of `atoms` whose
    /// environments [`describe_tile`](Self::describe_tile) and embeddings
    /// [`embed_tile`](Self::embed_tile) are in `s`.
    pub(crate) fn fit_tile(&self, atoms: &Atoms, start: usize, s: &mut TileScratch) -> TileOut {
        let cfg = &self.model.config;
        let (m1, m2) = (cfg.m1(), cfg.m2);
        let dl = m1 * m2;
        let inv_nm = 1.0f32 / cfg.nmax as f32;
        let tally = self.obs.as_ref().map(|o| &o.gemm);
        let TileScratch { env, off, g, dg_ds, coords, t, tape, efit, de_dd, dt, de_ds, de_drt, de_dx, .. } = s;
        let n = off.len() - 1;
        let typ = &atoms.typ[start..start + n];
        let t_of = |l: usize| &t[l * m1 * 4..(l + 1) * m1 * 4];

        // Fitting net, stacked per central species: D rows in (every
        // element overwritten), per-atom energy and ∂E/∂D out.
        let (mut gemms, mut rows_total) = (0u64, 0u64);
        efit.clear();
        efit.resize(n, 0.0);
        de_dd.clear();
        de_dd.resize(n * dl, 0.0);
        for (ty, fit) in self.fit32.iter().enumerate() {
            let of_species = || (0..n).filter(|&l| typ[l] as usize == ty);
            let rows = of_species().count();
            if rows == 0 {
                continue;
            }
            tape.d.clear();
            tape.d.resize(rows * dl, 0.0);
            for (l, drow) in of_species().zip(tape.d.chunks_exact_mut(dl)) {
                let t = t_of(l);
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
            fit.value_grad_rows(rows, tally, tape);
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
        dt.resize(m1 * 4, 0.0);
        let mut energy = 0.0f64;
        let mut virial = 0.0f64;
        for l in 0..n {
            let i = start + l;
            let t = t_of(l);
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
            let (at, nk) = (off[l], off[l + 1] - off[l]);
            // Both outputs are overwritten.
            de_ds.resize(nk, 0.0);
            de_drt.resize(4 * nk, 0.0);
            dpmd_simd::env_chain_f32(
                m1,
                nk,
                dt,
                &g[at * m1..(at + nk) * m1],
                &dg_ds[at * m1..(at + nk) * m1],
                &coords[at * 4..(at + nk) * 4],
                inv_nm,
                de_ds,
                de_drt,
            );
            for col in de_dx.iter_mut() {
                col.resize(nk, 0.0);
            }
            let [fx, fy, fz] = de_dx;
            dpmd_simd::env_proj_f64(env.cols(at, nk), de_ds, de_drt, [&mut fx[..], &mut fy[..], &mut fz[..]]);
            // `buf[j] -= v; buf[i] += v` per entry, with `buf[i]` held in a
            // register across the atom's entries: the same sequence of adds.
            let mut fi = buf[i];
            for k in 0..nk {
                let e = at + k;
                let v = Vec3::new(fx[k], fy[k], fz[k]);
                match env.j[e] as usize {
                    j if j == i => fi -= v,
                    j => buf[j] -= v,
                }
                fi += v;
                virial += v.dot(Vec3::new(env.d[0][e], env.d[1][e], env.d[2][e]));
            }
            buf[i] = fi;
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
    /// and a two-species cell, and on the ×4 [`stressed`] Cu model, whose
    /// `tanh` inputs cross into the kernel's `exp` branch.
    ///
    /// Tolerance, from the f32 resolution of the energy. E is an f64 sum
    /// of per-atom f32 energies; against the f64 model each carries a
    /// rounding error δ. Displacing one atom re-rounds the energies of the
    /// n_aff ≤ 64 atoms that see it, in E(+h) and in E(−h): √(2·n_aff)·δ
    /// of noise on the difference, over 2h. The h² truncation term is
    /// measured with the Double engine, where it is the whole error.
    ///
    /// * Untrained models: δ = 1e-9 eV (|E_mix32 − E_f64| / √N measures
    ///   7e-10 on this Cu cell, 3e-10 on the water cell). At h = 2⁻⁷ Å
    ///   truncation is 4e-9 (Cu) / 8e-8 (water) eV/Å, so the bound is the
    ///   noise floor alone, 7.2e-7 eV/Å: under 1 % of max |F| on both
    ///   cells (worst error seen 2.6e-7 on Cu, 1.0e-7 on water).
    /// * Cu ×4: the same measure reads 7.2e-7 eV, so δ = 1e-6. A δ a thousand times larger wants a larger
    ///   step: at h = 2⁻⁵ Å noise is 1.8e-4 and truncation 2.8e-5 eV/Å,
    ///   no longer negligible, so this row's bound is their sum — under
    ///   2 % of its max |F| (worst error seen 1.3e-4; at 2⁻⁷ it is 5.6e-4,
    ///   noise alone).
    ///
    /// A wrong sign or a dropped chain-rule term costs O(max |F|).
    #[test]
    fn mix32_forces_are_the_negative_energy_gradient() {
        const N_AFFECTED: f64 = 64.0;
        let [cu, water] = cu_and_water();
        for ((name, cfg, bx, atoms, nl), stress, h, delta_e, truncation, resolves) in [
            (&cu, None, 1.0 / 128.0, 1e-9, 0.0, 1e-2),
            (&water, None, 1.0 / 128.0, 1e-9, 0.0, 1e-2),
            (&cu, Some(4.0), 1.0 / 32.0, 1e-6, 2.8e-5, 2e-2),
        ] {
            let name = format!("{name} ×{}", stress.unwrap_or(1.0));
            let tol = (2.0 * N_AFFECTED).sqrt() * delta_e / (2.0 * h) + truncation;
            let model = stress.map_or_else(|| DeepPotModel::new(cfg.clone()), |k| stressed(cfg.clone(), k));
            let eng = DpEngine::new(model, Precision::Mix32);
            let mut f = vec![Vec3::ZERO; atoms.len()];
            eng.energy_forces(atoms, nl, bx, &mut f);
            let fmax = max_norm(f.iter().copied());
            assert!(tol < resolves * fmax, "{name}: bound {tol:e} cannot resolve max |F| {fmax:e}");
            // The 0.5 Å skin keeps the neighbour list valid under ±h.
            let mut moved = atoms.clone();
            for i in (0..atoms.nlocal).step_by(atoms.nlocal / 12) {
                for (axis, f_analytic) in [f[i].x, f[i].y, f[i].z].into_iter().enumerate() {
                    let x0 = atoms.pos[i][axis];
                    moved.pos[i][axis] = x0 + h;
                    let ep = eng.energy(&moved, nl, bx);
                    moved.pos[i][axis] = x0 - h;
                    let em = eng.energy(&moved, nl, bx);
                    moved.pos[i][axis] = x0;
                    let fd = -(ep - em) / (2.0 * h);
                    let err = (fd - f_analytic).abs();
                    assert!(err <= tol, "{name} atom {i} axis {axis}: FD {fd:e} vs F {f_analytic:e}");
                }
            }
        }
    }

    /// `DeepPotModel::new(cfg)` pushed out of the regime every untrained
    /// model sits in (all |pre-activation| < 0.42, every bias zero):
    /// weights × `scale`, biases seeded in ±0.5.
    fn stressed(cfg: DeepPotConfig, scale: f64) -> DeepPotModel {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut model = DeepPotModel::new(cfg);
        let mut rng = StdRng::seed_from_u64(24);
        let embs = model.embeddings.iter_mut().map(|e| &mut e.mlp);
        for mlp in embs.chain(model.fittings.iter_mut().map(|f| &mut f.mlp)) {
            for layer in &mut mlp.layers {
                layer.w.as_mut_slice().iter_mut().for_each(|w| *w *= scale);
                layer.b.iter_mut().for_each(|b| *b = rng.random_range(-0.5..0.5));
            }
        }
        model
    }

    /// Smallest and largest |pre-activation| any `tanh` of either net sees
    /// on this system, from the f64 nets (the mixed pipeline's own
    /// pre-activations are these to f32 rounding).
    fn tanh_input_span(model: &DeepPotModel, atoms: &Atoms, nl: &NeighborList, bx: &SimBox) -> (f64, f64) {
        use crate::descriptor::push_environment;
        use nnet::matrix::Matrix;
        let cfg = &model.config;
        let (m1, m2) = (cfg.m1(), cfg.m2);
        let (mut lo, mut hi) = (f64::MAX, 0.0f64);
        let mut see = |mlp: &nnet::layers::Mlp, x: &Matrix| {
            let (out, caches) = mlp.forward(x);
            for (layer, cache) in mlp.layers.iter().zip(&caches) {
                if layer.act == Activation::Tanh {
                    for v in cache.preact.as_slice() {
                        lo = lo.min(v.abs());
                        hi = hi.max(v.abs());
                    }
                }
            }
            out
        };
        let mut env = Vec::new();
        for i in 0..atoms.nlocal {
            env.clear();
            push_environment(atoms, nl, bx, i, cfg.rcut_smth, cfg.rcut, &mut env);
            let mut t = vec![0.0f64; m1 * 4];
            for e in &env {
                let g = see(&model.embeddings[e.typ as usize].mlp, &Matrix::from_fn(1, 1, |_, _| e.s));
                for (m, gv) in g.as_slice().iter().enumerate() {
                    for (cc, cv) in e.coords().iter().enumerate() {
                        t[m * 4 + cc] += gv * cv / cfg.nmax as f64;
                    }
                }
            }
            let d = Matrix::from_fn(1, m1 * m2, |_, ab| {
                (0..4).map(|c| t[(ab / m2) * 4 + c] * t[(ab % m2) * 4 + c]).sum()
            });
            see(&model.fittings[atoms.typ[i] as usize].mlp, &d);
        }
        (lo, hi)
    }

    /// The two systems the physics tests run on besides [`setup`]'s model:
    /// perturbed fcc Cu and a 3×3×3 water box with its own list.
    fn cu_and_water() -> [(&'static str, DeepPotConfig, SimBox, Atoms, NeighborList); 2] {
        let (_, cu_bx, cu_atoms, cu_nl) = setup();
        let (w_bx, w_atoms) = minimd::lattice::water_box(3, 3, 3, 31);
        let mut w_nl = NeighborList::new(4.0, 0.5, ListKind::Full);
        w_nl.build(&w_atoms, &w_bx);
        [
            ("Cu", DeepPotConfig::tiny(1, 5.0), cu_bx, cu_atoms, cu_nl),
            ("water", DeepPotConfig::tiny(2, 4.0), w_bx, w_atoms, w_nl),
        ]
    }

    /// Every other test here (and every end-to-end gate) runs an untrained
    /// model, whose `tanh` inputs never leave the kernel's polynomial branch
    /// and whose bias adds are all `+ 0`. These models do: at ×4 the inputs
    /// straddle the 0.625 seam, at ×16 they pass the clamp at 10 (asserted,
    /// so the test cannot fall back into the linear regime unnoticed).
    ///
    /// Accuracy bar: max |ΔF| / max |F| against the f64 model, as an
    /// absolute bound per model — twice what the libm `f64::tanh` path this
    /// kernel replaced gave on the same inputs, under the worse of the two
    /// GEMM folds it then ran on (the 1e-5 / 5e-3 bars elsewhere are
    /// calibrated on untrained weights and do not hold here — for libm
    /// either). These readings sit at the f32 noise floor, where a GEMM
    /// reorder moves them by tens of per cent, so the bar leaves 1.9× or
    /// more over every kernel reading; a wrong branch of the kernel costs
    /// orders of magnitude. Readings, libm → kernel, on the one `mul_add`
    /// fold every FMA host computes (every kernel reading is within 1.5× of
    /// libm's):
    ///
    /// | model     | Mix32               | Mix16               |
    /// |-----------|---------------------|---------------------|
    /// | Cu ×4     | 3.771e-6 → 3.517e-6 | 2.368e-3 → 2.407e-3 |
    /// | water ×4  | 5.930e-7 → 8.494e-7 | 9.152e-4 → 9.151e-4 |
    /// | Cu ×16    | 1.525e-5 → 1.506e-5 | 1.131e-2 → 1.131e-2 |
    /// | water ×16 | 1.063e-6 → 1.237e-6 | 7.918e-4 → 7.919e-4 |
    ///
    /// Bitwise bar: a job evaluated alone on one thread equals the same job
    /// first of three on a 3-wide pool.
    #[test]
    fn stressed_models_leave_the_linear_regime_and_stay_accurate() {
        // [scale][system] → (Mix32, Mix16) bound: 2 × libm's worse fold.
        const RELERR_BOUND: [[(f64, f64); 2]; 2] =
            [[(7.5e-6, 4.7e-3), (1.9e-6, 1.8e-3)], [(3.0e-5, 2.3e-2), (2.4e-6, 1.6e-3)]];
        for (scale, reach, bounds) in [(4.0, 3.0, RELERR_BOUND[0]), (16.0, 10.0, RELERR_BOUND[1])] {
            for ((name, cfg, bx, atoms, nl), (bar32, bar16)) in cu_and_water().into_iter().zip(bounds) {
                let model = stressed(cfg, scale);
                let (lo, hi) = tanh_input_span(&model, &atoms, &nl, &bx);
                assert!(lo < 0.625 && hi > reach, "{name} ×{scale}: |tanh input| spans only [{lo:e}, {hi:e}]");

                let mut f_ref = vec![Vec3::ZERO; atoms.len()];
                model.energy_forces_on(&ThreadPool::serial(), &atoms, &nl, &bx, &mut f_ref);
                let others: Vec<Atoms> = (1..3)
                    .map(|s| {
                        let mut a = atoms.clone();
                        for (k, p) in a.pos.iter_mut().enumerate() {
                            p.y += 0.03 * s as f64 * ((k % 3) as f64 - 1.0);
                        }
                        a
                    })
                    .collect();
                for (precision, bar) in [(Precision::Mix32, bar32), (Precision::Mix16, bar16)] {
                    let mut f = vec![Vec3::ZERO; atoms.len()];
                    let out = DpEngine::new(model.clone(), precision).energy_forces(&atoms, &nl, &bx, &mut f);
                    let relerr = max_norm(f.iter().zip(&f_ref).map(|(a, b)| *a - *b)) / max_norm(f_ref.iter().copied());
                    assert!(relerr <= bar, "{name} ×{scale} {precision:?}: relerr {relerr:e} > {bar:e}");

                    let wide = DpEngine::new(model.clone(), precision).with_pool(Arc::new(ThreadPool::new(3)));
                    let mut bufs = vec![vec![Vec3::ZERO; atoms.len()]; 3];
                    let mut jobs: Vec<BatchJob> = std::iter::once(&atoms)
                        .chain(&others)
                        .zip(bufs.iter_mut())
                        .map(|(atoms, forces)| BatchJob { atoms, nl: &nl, bx: &bx, forces })
                        .collect();
                    let (outs, _) = wide.energy_forces_batched(&mut jobs);
                    assert_eq!(out, outs[0], "{name} ×{scale} {precision:?}: energy/virial, solo vs batched");
                    assert_eq!(f, bufs[0], "{name} ×{scale} {precision:?}: forces, solo vs batched");
                }
            }
        }
    }

    /// A model may hold `Linear` embedding layers (a loaded model picks the
    /// activation per layer); those run the unfused epilogue, resnet skip
    /// included. With every mix of `Linear` and `tanh` layers on the Cu and
    /// water cells, Mix32 forces stay within the 1e-5 bar of the f64 model.
    #[test]
    fn linear_embedding_layers_track_the_f64_model() {
        for (name, cfg, bx, atoms, nl) in cu_and_water() {
            for acts in [[Activation::Linear; 2], [Activation::Tanh, Activation::Linear], [Activation::Linear, Activation::Tanh]] {
                let mut model = DeepPotModel::new(cfg.clone());
                for emb in &mut model.embeddings {
                    assert_eq!(emb.mlp.layers.len(), acts.len());
                    assert_ne!(emb.mlp.layers[1].resnet, Resnet::None, "the second layer is a resnet layer");
                    for (layer, &act) in emb.mlp.layers.iter_mut().zip(&acts) {
                        layer.act = act;
                    }
                }
                let mut f_ref = vec![Vec3::ZERO; atoms.len()];
                model.energy_forces_on(&ThreadPool::serial(), &atoms, &nl, &bx, &mut f_ref);
                let mut f = vec![Vec3::ZERO; atoms.len()];
                DpEngine::new(model, Precision::Mix32).energy_forces(&atoms, &nl, &bx, &mut f);
                let relerr = max_norm(f.iter().zip(&f_ref).map(|(a, b)| *a - *b)) / max_norm(f_ref.iter().copied());
                assert!(relerr > 0.0 && relerr <= 1e-5, "{name} {acts:?}: relerr {relerr:e}");
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

    /// A `Mix16` engine's first fitting layer holds its weights rounded:
    /// every element is the binary16 rounding of the `Mix32` engine's
    /// element (so the f32 GEMM sees binary16 values), and the rounding did
    /// happen; every other layer is the `Mix32` engine's, bit for bit.
    #[test]
    fn mix16_first_layer_weights_are_binary16_values() {
        for ntypes in [1, 2] {
            let model = DeepPotModel::new(DeepPotConfig::tiny(ntypes, 5.0));
            let mix32 = DpEngine::new(model.clone(), Precision::Mix32);
            let mix16 = DpEngine::new(model, Precision::Mix16);
            for (fit16, fit32) in mix16.fit32.iter().zip(&mix32.fit32) {
                assert!(fit16.round_first && !fit32.round_first);
                for (li, (l16, l32)) in fit16.layers.iter().zip(&fit32.layers).enumerate() {
                    for (rounded, full) in [(&l16.0, &l32.0), (&l16.1, &l32.1)] {
                        assert_eq!(rounded.len(), full.len());
                        let want: Vec<f32> =
                            if li == 0 { full.iter().map(|&x| round_f16(x)).collect() } else { full.to_vec() };
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(rounded), bits(&want), "layer {li}");
                        if li == 0 {
                            assert_ne!(rounded, full, "first-layer weights were not rounded");
                        }
                    }
                }
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
