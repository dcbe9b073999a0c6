//! The Deep Potential model: energy via forward propagation, forces via the
//! analytic backward pass (paper Fig. 1b).
//!
//! The f64 implementation here is the *reference* path; the mixed-precision
//! and TensorFlow-graph execution paths (crate modules [`crate::engine`] and
//! the `nnet::graph` baseline) are validated against it.

use std::time::Instant;

use dpmd_threads::{atom_chunks, ThreadPool};
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, PotentialOutput};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::layers::{Mlp, Resnet};
use nnet::matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::compress::CompressedEmbedding;
use crate::config::DeepPotConfig;
use crate::descriptor::{build_environments_on, Environment};
use crate::embedding::EmbeddingNet;
use crate::fitting::FittingNet;

/// A complete Deep Potential model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeepPotModel {
    /// Hyper-parameters.
    pub config: DeepPotConfig,
    /// One embedding net per *neighbour* species.
    pub embeddings: Vec<EmbeddingNet>,
    /// One fitting net per *central* species.
    pub fittings: Vec<FittingNet>,
    /// Per-species energy bias (fitted to the reference data's mean).
    pub energy_bias: Vec<f64>,
    /// DP-Compress tables (one per species) replacing the embedding MLPs
    /// during evaluation when present — the compression of ref [42] that
    /// the baseline work [33] already deploys on Fugaku.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub compressed: Option<Vec<CompressedEmbedding>>,
}

/// Why [`DeepPotModel::from_json`] rejected a model file.
#[derive(Debug)]
pub enum ModelFileError {
    /// Not JSON, or not the JSON of a `DeepPotModel`.
    Parse(serde_json::Error),
    /// Well-formed, but breaks the structural rule named in the message
    /// (`config:`, `counts:`, `widths:` or `finite:`).
    Invalid(String),
}

impl std::fmt::Display for ModelFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFileError::Parse(e) => write!(f, "model file does not parse: {e}"),
            ModelFileError::Invalid(rule) => write!(f, "model file is invalid: {rule}"),
        }
    }
}

impl std::error::Error for ModelFileError {}

/// One net of a model file: layer `l` must map `widths[l-1]` (`in_dim` for
/// the first) to `widths[l]` with buffers of exactly that size, a skip its
/// widths allow, and finite parameters.
fn check_mlp(what: &str, mlp: &Mlp, in_dim: usize, widths: &[usize]) -> Result<(), String> {
    if mlp.layers.len() != widths.len() {
        return Err(format!("widths: {what} has {} layers, config says {}", mlp.layers.len(), widths.len()));
    }
    let mut ind = in_dim;
    for (l, (layer, &outd)) in mlp.layers.iter().zip(widths).enumerate() {
        let shaped = (layer.w.rows(), layer.w.cols()) == (ind, outd)
            && Some(layer.w.len()) == ind.checked_mul(outd)
            && layer.b.len() == outd;
        let skip_fits = match layer.resnet {
            Resnet::None => true,
            Resnet::Identity => outd == ind,
            Resnet::Doubling => Some(outd) == ind.checked_mul(2),
        };
        if !(shaped && skip_fits) {
            return Err(format!("widths: {what} layer {l} is not a {ind}x{outd} layer"));
        }
        if !layer.w.as_slice().iter().chain(&layer.b).all(|v| v.is_finite()) {
            return Err(format!("finite: {what} layer {l} holds a non-finite parameter"));
        }
        ind = outd;
    }
    Ok(())
}

impl DeepPotModel {
    /// A freshly initialized (untrained) model.
    pub fn new(config: DeepPotConfig) -> Self {
        config.validate();
        let embeddings = (0..config.ntypes)
            .map(|t| EmbeddingNet::new(&config.embedding_widths, config.seed ^ (t as u64).wrapping_mul(0x9e37)))
            .collect();
        let fittings = (0..config.ntypes)
            .map(|t| {
                FittingNet::new(
                    config.descriptor_len(),
                    &config.fitting_widths,
                    config.seed ^ (t as u64).wrapping_mul(0x85eb) ^ 0xffff,
                )
            })
            .collect();
        let energy_bias = vec![0.0; config.ntypes];
        DeepPotModel { config, embeddings, fittings, energy_bias, compressed: None }
    }

    /// Build DP-Compress tables from the (trained) embedding nets and use
    /// them for every subsequent evaluation. `intervals` controls accuracy
    /// (the paper-style deployment uses a few hundred).
    ///
    /// The table domain covers `s ∈ [0, s_max]` with
    /// `s_max = 1/min(r_cs, 0.8 Å)` — every physically reachable switching
    /// value; out-of-range inputs clamp (documented in `compress`).
    pub fn enable_compression(&mut self, intervals: usize) {
        let s_max = 1.0 / self.config.rcut_smth.min(0.8);
        self.compressed = Some(
            self.embeddings
                .iter()
                .map(|e| CompressedEmbedding::build(e, 0.0, s_max, intervals))
                .collect(),
        );
    }

    /// Embedding features and s-derivative for species `typ` at `s`,
    /// through the table when compression is enabled.
    fn embed(&self, typ: usize, s: f64) -> (Vec<f64>, Vec<f64>) {
        match &self.compressed {
            Some(tables) => tables[typ].forward_with_grad(s),
            None => self.embeddings[typ].forward_with_grad(s),
        }
    }

    /// Serialize to JSON (the "model file" the real code loads through TF).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Load a model file, rejecting anything evaluation could not run on:
    /// a file that parses but breaks a structural rule is an
    /// [`ModelFileError::Invalid`] naming the rule, never a later panic or
    /// a silent NaN force.
    pub fn from_json(s: &str) -> Result<Self, ModelFileError> {
        let model: DeepPotModel = serde_json::from_str(s).map_err(ModelFileError::Parse)?;
        model.check().map_err(ModelFileError::Invalid)?;
        Ok(model)
    }

    /// The structural rules every evaluator assumes, first failure named.
    fn check(&self) -> Result<(), String> {
        let cfg = &self.config;
        cfg.check().map_err(|rule| format!("config: {rule}"))?;
        let counts = [
            ("embeddings", self.embeddings.len()),
            ("fittings", self.fittings.len()),
            ("energy_bias", self.energy_bias.len()),
        ];
        for (what, len) in counts.into_iter().chain(self.compressed.as_ref().map(|t| ("compressed", t.len()))) {
            if len != cfg.ntypes {
                return Err(format!("counts: {what} has {len} entries for ntypes = {}", cfg.ntypes));
            }
        }
        for (t, net) in self.embeddings.iter().enumerate() {
            check_mlp(&format!("embeddings[{t}]"), &net.mlp, 1, &cfg.embedding_widths)?;
        }
        let fit_out: Vec<usize> = cfg.fitting_widths.iter().copied().chain([1]).collect();
        for (t, net) in self.fittings.iter().enumerate() {
            check_mlp(&format!("fittings[{t}]"), &net.mlp, cfg.descriptor_len(), &fit_out)?;
        }
        for (t, table) in self.compressed.iter().flatten().enumerate() {
            table.check(cfg.m1()).map_err(|rule| format!("compressed[{t}]: {rule}"))?;
        }
        if !self.energy_bias.iter().all(|b| b.is_finite()) {
            return Err("finite: energy_bias holds a non-finite value".to_string());
        }
        Ok(())
    }

    /// Embedding of one atom's environment: per-neighbour features G and
    /// their s-derivatives (both n × M₁, row-major), and T = GᵀR̃/nmax
    /// (M₁ × 4, row-major).
    fn embed_atom(&self, env: &Environment) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let m1 = self.config.m1();
        let inv_nm = 1.0 / self.config.nmax as f64;
        let (mut g, mut dg_ds) = (Vec::new(), Vec::new());
        let mut t = vec![0.0; m1 * 4];
        for e in &env.entries {
            let (gv, dgv) = self.embed(e.typ as usize, e.s);
            let coords = e.coords();
            for m in 0..m1 {
                for c in 0..4 {
                    t[m * 4 + c] += gv[m] * coords[c] * inv_nm;
                }
            }
            g.extend(gv);
            dg_ds.extend(dgv);
        }
        (g, dg_ds, t)
    }

    /// Fitting of one atom: D = T·T₂ᵀ, energy, and ∂E/∂D.
    fn fit_atom(&self, typ: u32, t: &[f64]) -> (f64, Vec<f64>) {
        let m1 = self.config.m1();
        let m2 = self.config.m2;
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
        let (e_out, de_dd_m) = self.fittings[typ as usize].energy_and_grad(&dm);
        (e_out[0] + self.energy_bias[typ as usize], de_dd_m.into_vec())
    }

    /// Total energy only (no forces) — used by finite-difference tests and
    /// the trainer's loss evaluation.
    pub fn energy(&self, atoms: &Atoms, nl: &NeighborList, bx: &SimBox) -> f64 {
        let cfg = &self.config;
        let envs = build_environments_on(&ThreadPool::serial(), atoms, nl, bx, cfg.rcut_smth, cfg.rcut);
        (0..atoms.nlocal).map(|i| self.fit_atom(atoms.typ[i], &self.embed_atom(&envs[i]).2).0).sum()
    }

    /// Atom `i` end to end — embedding, fitting, backward pass: its energy
    /// out; force and virial contributions accumulated into `forces` /
    /// `virial`.
    fn atom_energy_forces(
        &self,
        i: usize,
        typ: u32,
        env: &Environment,
        forces: &mut [Vec3],
        virial: &mut f64,
    ) -> f64 {
        let m1 = self.config.m1();
        let m2 = self.config.m2;
        let inv_nm = 1.0 / self.config.nmax as f64;
        let (g, dg_ds, t) = self.embed_atom(env);
        let (energy, de_dd_fit) = self.fit_atom(typ, &t);

        // ∂E/∂T: dT[a][c] = Σ_b A[a][b]·T₂[b][c]; rows b < M₂ gain
        // Σ_a A[a][b]·T[a][c] from the T₂ factor.
        let mut dt = vec![0.0; m1 * 4];
        for a in 0..m1 {
            for b in 0..m2 {
                let aab = de_dd_fit[a * m2 + b];
                for c in 0..4 {
                    dt[a * 4 + c] += aab * t[b * 4 + c];
                    dt[b * 4 + c] += aab * t[a * 4 + c];
                }
            }
        }

        // Per-neighbour chain rule.
        for (k, e) in env.entries.iter().enumerate() {
            // ∂E/∂g_k and ∂E/∂R̃_k.
            let coords = e.coords();
            let mut de_ds = 0.0;
            let mut de_drt = [0.0; 4];
            for m in 0..m1 {
                let mut de_dg = 0.0;
                for c in 0..4 {
                    de_dg += dt[m * 4 + c] * coords[c];
                    de_drt[c] += dt[m * 4 + c] * g[k * m1 + m];
                }
                de_ds += de_dg * inv_nm * dg_ds[k * m1 + m];
            }
            for v in &mut de_drt {
                *v *= inv_nm;
            }
            // ∂E/∂d through the generalized coordinates and through s.
            let grads = e.coord_grads();
            let inv_r = 1.0 / e.r;
            let dsdd = [
                e.ds_dr * e.disp.x * inv_r,
                e.ds_dr * e.disp.y * inv_r,
                e.ds_dr * e.disp.z * inv_r,
            ];
            let mut de_dd = Vec3::ZERO;
            for axis in 0..3 {
                let mut v = de_ds * dsdd[axis];
                for c in 0..4 {
                    v += de_drt[c] * grads[c][axis];
                }
                de_dd[axis] = v;
            }
            // d = r_j − r_i: force on j is −∂E/∂d, reaction on i is +.
            let j = e.j as usize;
            forces[j] -= de_dd;
            forces[i] += de_dd;
            *virial += de_dd.dot(e.disp);
        }
        energy
    }

    /// Energy, forces, and virial via the full analytic backward pass, with
    /// the per-phase wall-time breakdown of the evaluation.
    ///
    /// Forces are accumulated into `forces` (length = atoms.len(), ghosts
    /// included — ghost forces must be reverse-communicated by the caller in
    /// distributed runs, "Newton's law on").
    ///
    /// Two parallel passes: the descriptor, then one pass in which each
    /// atom is embedded, fitted and back-propagated and its intermediates
    /// dropped (timed as `fitting_s`; the embedding/fitting split is a
    /// property of the mixed engine). Atoms are chunked by the even-split
    /// policy of `dpmd_balance::assign` — boundaries depend on the atom
    /// count only — and each chunk accumulates energy, virial and forces
    /// into its own full-length buffer, merged by this thread in chunk
    /// order. The result is therefore bit-identical for any pool width,
    /// including the 1-thread pool that serves as the serial reference.
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub fn energy_forces_on(
        &self,
        pool: &ThreadPool,
        atoms: &Atoms,
        nl: &NeighborList,
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> (PotentialOutput, ForcePhases) {
        assert!(forces.len() >= atoms.len());
        let mut phases = ForcePhases::default();

        let t0 = Instant::now();
        let envs =
            build_environments_on(pool, atoms, nl, bx, self.config.rcut_smth, self.config.rcut);
        phases.descriptor_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let chunks = atom_chunks(atoms.nlocal);
        // Per chunk: (energy, virial, forces over all stored atoms).
        let mut outs: Vec<(f64, f64, Vec<Vec3>)> =
            chunks.iter().map(|_| (0.0, 0.0, vec![Vec3::ZERO; atoms.len()])).collect();
        let envs = &envs;
        pool.scope(|sc| {
            for (range, out) in chunks.iter().zip(outs.iter_mut()) {
                sc.spawn(move || {
                    let (energy, virial, buf) = out;
                    for i in range.clone() {
                        *energy += self.atom_energy_forces(i, atoms.typ[i], &envs[i], buf, virial);
                    }
                });
            }
        });
        phases.fitting_s = t0.elapsed().as_secs_f64();

        // Deterministic fixed-order reduction: merge in chunk order.
        let t0 = Instant::now();
        let mut total_e = 0.0;
        let mut virial = 0.0;
        for (e, v, buf) in &outs {
            total_e += e;
            virial += v;
            for (f, b) in forces.iter_mut().zip(buf) {
                *f += *b;
            }
        }
        phases.reduction_s = t0.elapsed().as_secs_f64();

        (PotentialOutput { energy: total_e, virial: -virial }, phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::atoms::{copper_species, water_species};
    use minimd::lattice::{fcc_copper, water_box};
    use minimd::neighbor::ListKind;

    fn tiny_cu_model() -> DeepPotModel {
        DeepPotModel::new(DeepPotConfig::tiny(1, 5.0))
    }

    fn cluster(positions: &[[f64; 3]], types: &[u32], water: bool) -> (SimBox, Atoms) {
        let bx = SimBox::cubic(60.0);
        let species = if water { water_species() } else { copper_species() };
        let mut atoms = Atoms::new(species);
        for (k, (p, &t)) in positions.iter().zip(types).enumerate() {
            atoms.push_local(k as u64 + 1, t, Vec3::new(p[0] + 30.0, p[1] + 30.0, p[2] + 30.0), Vec3::ZERO);
        }
        (bx, atoms)
    }

    fn eval(model: &DeepPotModel, bx: &SimBox, atoms: &mut Atoms) -> (f64, Vec<Vec3>) {
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(atoms, bx);
        let mut forces = vec![Vec3::ZERO; atoms.len()];
        let (out, _) = model.energy_forces_on(&ThreadPool::new(2), atoms, &nl, bx, &mut forces);
        (out.energy, forces)
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i/axis jointly index positions and forces
    fn forces_match_finite_difference() {
        let model = tiny_cu_model();
        let (bx, mut atoms) =
            cluster(&[[0.0, 0.0, 0.0], [2.2, 0.3, -0.4], [-0.8, 2.0, 1.1], [1.0, -1.7, 2.0]], &[0; 4], false);
        let (_, forces) = eval(&model, &bx, &mut atoms);
        let h = 1e-6;
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        for i in 0..atoms.nlocal {
            for axis in 0..3 {
                let orig = atoms.pos[i][axis];
                atoms.pos[i][axis] = orig + h;
                nl.build(&atoms, &bx);
                let ep = model.energy(&atoms, &nl, &bx);
                atoms.pos[i][axis] = orig - h;
                nl.build(&atoms, &bx);
                let em = model.energy(&atoms, &nl, &bx);
                atoms.pos[i][axis] = orig;
                let fd = -(ep - em) / (2.0 * h);
                assert!(
                    (fd - forces[i][axis]).abs() < 1e-6,
                    "atom {i} axis {axis}: fd={fd} an={}",
                    forces[i][axis]
                );
            }
        }
    }

    #[test]
    fn energy_is_translation_invariant() {
        let model = tiny_cu_model();
        let pos = [[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [0.3, 1.9, -1.0]];
        let (bx, mut a1) = cluster(&pos, &[0; 3], false);
        let (e1, _) = eval(&model, &bx, &mut a1);
        let shifted: Vec<[f64; 3]> =
            pos.iter().map(|p| [p[0] + 3.3, p[1] - 2.1, p[2] + 0.7]).collect();
        let (_, mut a2) = cluster(&shifted, &[0; 3], false);
        let (e2, _) = eval(&model, &bx, &mut a2);
        assert!((e1 - e2).abs() < 1e-10, "{e1} vs {e2}");
    }

    #[test]
    fn energy_is_rotation_invariant() {
        let model = tiny_cu_model();
        let pos = [[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [0.3, 1.9, -1.0], [-1.2, 0.4, 1.6]];
        let (bx, mut a1) = cluster(&pos, &[0; 4], false);
        let (e1, _) = eval(&model, &bx, &mut a1);
        // Rotate 40° about z then 25° about x.
        let (c1, s1) = (40.0f64.to_radians().cos(), 40.0f64.to_radians().sin());
        let (c2, s2) = (25.0f64.to_radians().cos(), 25.0f64.to_radians().sin());
        let rot = |p: &[f64; 3]| {
            let (x, y, z) = (p[0], p[1], p[2]);
            let (x1, y1, z1) = (c1 * x - s1 * y, s1 * x + c1 * y, z);
            [x1, c2 * y1 - s2 * z1, s2 * y1 + c2 * z1]
        };
        let rotated: Vec<[f64; 3]> = pos.iter().map(rot).collect();
        let (_, mut a2) = cluster(&rotated, &[0; 4], false);
        let (e2, _) = eval(&model, &bx, &mut a2);
        assert!((e1 - e2).abs() < 1e-9, "{e1} vs {e2}");
    }

    #[test]
    fn energy_is_permutation_invariant() {
        let model = tiny_cu_model();
        let pos = [[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [0.3, 1.9, -1.0]];
        let (bx, mut a1) = cluster(&pos, &[0; 3], false);
        let (e1, _) = eval(&model, &bx, &mut a1);
        let permuted = [pos[2], pos[0], pos[1]];
        let (_, mut a2) = cluster(&permuted, &[0; 3], false);
        let (e2, _) = eval(&model, &bx, &mut a2);
        assert!((e1 - e2).abs() < 1e-10);
    }

    #[test]
    fn net_force_is_zero() {
        let model = tiny_cu_model();
        let (bx, mut atoms) =
            cluster(&[[0.0, 0.0, 0.0], [2.2, 0.3, -0.4], [-0.8, 2.0, 1.1]], &[0; 3], false);
        let (_, forces) = eval(&model, &bx, &mut atoms);
        let net = forces.iter().fold(Vec3::ZERO, |a, &f| a + f);
        assert!(net.norm() < 1e-10, "net force {net:?}");
    }

    #[test]
    fn multitype_water_model_runs_and_conserves_momentum() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 5.0));
        let (bx, mut atoms) = water_box(4, 4, 4, 17);
        let (e, forces) = eval(&model, &bx, &mut atoms);
        assert!(e.is_finite());
        let net = forces.iter().fold(Vec3::ZERO, |a, &f| a + f);
        assert!(net.norm() < 1e-8, "net force {net:?}");
    }

    /// The descriptor is a sum over neighbours, so the order they arrive in
    /// (here: each atom's list re-sorted by neighbour species) may move E
    /// only at the rounding scale of the f64 additions.
    #[test]
    fn sorting_does_not_change_the_energy() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 5.0));
        let (bx, atoms) = water_box(3, 3, 3, 22);
        let mut nl = NeighborList::new(5.0, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        let e_ref = model.energy(&atoms, &nl, &bx);
        let mut nl_sorted = nl.clone();
        for i in 0..atoms.nlocal {
            let range = nl_sorted.offsets[i]..nl_sorted.offsets[i + 1];
            nl_sorted.list[range].sort_by_key(|&j| atoms.typ[j as usize]);
        }
        assert_ne!(nl.list, nl_sorted.list, "the sort must reorder something");
        let e_sorted = model.energy(&atoms, &nl_sorted, &bx);
        assert!((e_ref - e_sorted).abs() < 1e-9, "{e_ref} vs {e_sorted}");
    }

    #[test]
    fn model_json_round_trip_is_exact() {
        let mut model = tiny_cu_model();
        let (bx, mut atoms) = cluster(&[[0.0, 0.0, 0.0], [2.0, 0.4, 0.2]], &[0; 2], false);
        for compress in [false, true] {
            if compress {
                model.enable_compression(16);
            }
            let back = DeepPotModel::from_json(&model.to_json()).unwrap();
            let (e1, _) = eval(&model, &bx, &mut atoms);
            let (e2, _) = eval(&back, &bx, &mut atoms);
            assert_eq!(e1, e2, "compressed = {compress}");
        }
    }

    /// One corrupted file per rule of the loader: each parses, each is
    /// rejected naming its rule, none panics (here or later in `evaluate`).
    #[test]
    fn corrupted_model_files_are_typed_errors() {
        let model = tiny_cu_model();
        let good = model.to_json();
        assert!(DeepPotModel::from_json(&good).is_ok());
        let corrupt = |edit: &dyn Fn(&mut DeepPotModel)| {
            let mut m = model.clone();
            edit(&mut m);
            m.to_json()
        };
        // The first weight of the file overwritten with a literal that
        // parses to +inf.
        let at = good.find("\"data\":[").unwrap() + "\"data\":[".len();
        let end = at + good[at..].find(',').unwrap();
        let nonfinite = format!("{}1e999{}", &good[..at], &good[end..]);
        let cases: [(&str, String); 6] = [
            ("counts: embeddings", corrupt(&|m| m.embeddings.push(m.embeddings[0].clone()))),
            ("counts: energy_bias", corrupt(&|m| m.energy_bias.clear())),
            ("widths: fittings[0] layer 0", corrupt(&|m| m.config.m2 = 1)),
            ("config: M2 must be within M1", corrupt(&|m| m.config.m2 = 100)),
            ("config: need 0 <= rcut_smth < rcut", good.replace("\"rcut_smth\":2,", "\"rcut_smth\":5,")),
            ("finite: embeddings[0] layer 0", nonfinite),
        ];
        for (rule, file) in &cases {
            assert!(file != &good, "{rule}: the corruption must change the file");
            match DeepPotModel::from_json(file) {
                Err(ModelFileError::Invalid(msg)) => assert!(msg.starts_with(rule), "{rule}: got {msg}"),
                other => panic!("{rule}: expected Invalid, got {:?}", other.map(|_| ())),
            }
        }
        assert!(matches!(DeepPotModel::from_json("{\"config\":"), Err(ModelFileError::Parse(_))));
    }

    #[test]
    fn compressed_model_matches_exact_model() {
        // DP-Compress (ref [42]): tabulated embeddings must reproduce the
        // exact MLP evaluation to high accuracy, for energies AND forces.
        let mut model = tiny_cu_model();
        let (bx, mut atoms) = cluster(
            &[[0.0, 0.0, 0.0], [2.2, 0.3, -0.4], [-0.8, 2.0, 1.1], [1.0, -1.7, 2.0]],
            &[0; 4],
            false,
        );
        let (e_exact, f_exact) = eval(&model, &bx, &mut atoms);
        model.enable_compression(256);
        let (e_tab, f_tab) = eval(&model, &bx, &mut atoms);
        assert!((e_exact - e_tab).abs() < 1e-6, "{e_exact} vs {e_tab}");
        for i in 0..atoms.nlocal {
            assert!((f_exact[i] - f_tab[i]).norm() < 1e-4, "atom {i}");
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_across_pool_widths() {
        // The chunk structure is a function of the atom count only and the
        // reduction merges per-chunk buffers in chunk order, so every pool
        // width — including the 1-thread serial reference — must produce
        // the same bits: one species, two species, and through the table.
        let (cu_bx, mut cu) = fcc_copper(4, 4, 4);
        for (k, p) in cu.pos.iter_mut().enumerate() {
            p.y += 0.03 * ((k % 5) as f64 - 2.0);
        }
        let (w_bx, water) = water_box(4, 4, 4, 17);
        let mut compressed = tiny_cu_model();
        compressed.enable_compression(64);
        for (name, model, bx, atoms) in [
            ("Cu", tiny_cu_model(), cu_bx, cu.clone()),
            ("water", DeepPotModel::new(DeepPotConfig::tiny(2, 5.0)), w_bx, water),
            ("Cu compressed", compressed, cu_bx, cu),
        ] {
            let mut nl = NeighborList::new(model.config.rcut, 1.0, ListKind::Full);
            nl.build(&atoms, &bx);
            let mut f_ref = vec![Vec3::ZERO; atoms.len()];
            let (out_ref, phases) =
                model.energy_forces_on(&ThreadPool::serial(), &atoms, &nl, &bx, &mut f_ref);
            assert!(phases.total() > 0.0, "phases must be timed");
            for threads in [2usize, 4, 7] {
                let pool = ThreadPool::new(threads);
                let mut f = vec![Vec3::ZERO; atoms.len()];
                let (out, _) = model.energy_forces_on(&pool, &atoms, &nl, &bx, &mut f);
                assert_eq!(out_ref.energy, out.energy, "{name}, {threads} threads");
                assert_eq!(out_ref.virial, out.virial, "{name}, {threads} threads");
                assert_eq!(f_ref, f, "{name}, {threads} threads");
            }
        }
    }
}
