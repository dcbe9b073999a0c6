//! Deep Potential executed through the TensorFlow-analog graph runtime —
//! the *baseline* execution path the paper removes (§III-B1).
//!
//! For each atom, the full Fig. 1 dataflow is expressed as graph nodes:
//! per-species embedding sub-nets (with resnet skips emulated by
//! `Add`/`ConcatCols`), the `T = GᵀR̃/n_max` contraction (`MatMulTN`), the
//! symmetry-preserving product `D = T·T₂ᵀ`, the fitting net, and the energy
//! head. Forces come from `Graph::gradients` — the autodiff that
//! materializes the redundant kernels the paper's rmtf optimization trims.
//!
//! Numerically this path must agree with the direct reference
//! implementation (tested to ~1e-9); its `RunStats` quantify what the
//! baseline pays: one 4 ms session overhead per run plus one allocation per
//! intermediate tensor.

use std::collections::BTreeMap;

use dpmd_threads::ThreadPool;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::PotentialOutput;
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::graph::{Graph, NodeId, Op, RunStats, Session};
use nnet::layers::Resnet;
use nnet::matrix::Matrix;

use crate::descriptor::build_environments_on;
use crate::model::DeepPotModel;

/// A compiled per-signature graph: one graph per (centre species,
/// per-species neighbour counts) — like TF, rebuilt only when shapes change.
struct BuiltGraph {
    session: Session,
    /// Input names per species present: (s name, r name).
    inputs: Vec<(usize, String, String)>,
    energy: NodeId,
    /// dE/dR̃ per species (aligned with `inputs`).
    dr: Vec<NodeId>,
    /// dE/ds per species.
    ds: Vec<NodeId>,
}

/// The graph-based executor over a trained model.
pub struct GraphExecutor<'m> {
    model: &'m DeepPotModel,
    cache: BTreeMap<(u32, Vec<usize>), BuiltGraph>,
    cumulative: RunStats,
    runs: u64,
}

/// Append one MLP (embedding or fitting) to the graph with resnet skips.
fn add_mlp(g: &mut Graph, mlp: &nnet::layers::Mlp, mut x: NodeId) -> NodeId {
    for layer in &mlp.layers {
        let w = g.param(layer.w.clone());
        let b = g.param(Matrix::from_vec(1, layer.b.len(), layer.b.clone()));
        let mm = g.add(Op::MatMulNN(x, w));
        let ab = g.add(Op::AddBias(mm, b));
        let act = g.add(Op::Activation(ab, layer.act));
        x = match layer.resnet {
            Resnet::None => act,
            Resnet::Identity => g.add(Op::Add(act, x)),
            Resnet::Doubling => {
                let xx = g.add(Op::ConcatCols(x, x));
                g.add(Op::Add(act, xx))
            }
        };
    }
    x
}

impl<'m> GraphExecutor<'m> {
    /// A fresh executor over `model`.
    pub fn new(model: &'m DeepPotModel) -> Self {
        GraphExecutor { model, cache: BTreeMap::new(), cumulative: RunStats::default(), runs: 0 }
    }

    /// Cumulative framework statistics (session overheads, kernel launches,
    /// per-run tensor allocations) across all atom evaluations so far.
    pub fn stats(&self) -> (RunStats, u64) {
        (self.cumulative, self.runs)
    }

    /// Number of distinct graphs compiled (shape signatures seen).
    pub fn graphs_built(&self) -> usize {
        self.cache.len()
    }

    fn build(&self, typ_i: u32, counts: &[usize]) -> BuiltGraph {
        let cfg = &self.model.config;
        let m1 = cfg.m1();
        let m2 = cfg.m2;
        let mut g = Graph::new();
        let mut inputs = Vec::new();
        let mut s_nodes = Vec::new();
        let mut r_nodes = Vec::new();
        let mut t_node: Option<NodeId> = None;
        for (t, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let s_name = format!("s{t}");
            let r_name = format!("r{t}");
            let s = g.input(&s_name);
            let r = g.input(&r_name);
            inputs.push((t, s_name, r_name));
            s_nodes.push(s);
            r_nodes.push(r);
            let feats = add_mlp(&mut g, &self.model.embeddings[t].mlp, s); // n × M1
            let tt = g.add(Op::MatMulTN(feats, r)); // M1 × 4
            t_node = Some(match t_node {
                None => tt,
                Some(prev) => g.add(Op::Add(prev, tt)),
            });
        }
        let t_raw = t_node.expect("at least one neighbour");
        let t = g.add(Op::Scale(t_raw, 1.0 / cfg.nmax as f64));
        // D = T · T₂ᵀ: slice the first m2 rows of T via its transpose.
        let t_tr = g.add(Op::Transpose(t)); // 4 × M1
        let t2_tr = g.add(Op::SliceCols(t_tr, 0, m2)); // 4 × m2
        let d = g.add(Op::MatMulNN(t, t2_tr)); // M1 × m2
        let d_flat = g.add(Op::Reshape(d, 1, m1 * m2));
        let fit_out = add_mlp(&mut g, &self.model.fittings[typ_i as usize].mlp, d_flat);
        let bias = g.param(Matrix::from_vec(1, 1, vec![self.model.energy_bias[typ_i as usize]]));
        let energy = g.add(Op::Add(fit_out, bias));

        // Force gradients: dE/dR̃ then dE/ds per present species.
        let mut wrt_nodes: Vec<NodeId> = r_nodes.clone();
        wrt_nodes.extend(s_nodes.iter().copied());
        let mut g2 = g;
        let grads = g2.gradients(energy, &wrt_nodes);
        let dr = grads[..inputs.len()].to_vec();
        let ds = grads[inputs.len()..].to_vec();
        BuiltGraph { session: Session::new(g2), inputs, energy, dr, ds }
    }

    /// Energy + forces for all local atoms, through graph sessions.
    pub fn energy_forces(
        &mut self,
        atoms: &Atoms,
        nl: &NeighborList,
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> PotentialOutput {
        let cfg = &self.model.config;
        let envs =
            build_environments_on(&ThreadPool::serial(), atoms, nl, bx, cfg.rcut_smth, cfg.rcut);
        let inv_nm = 1.0 / cfg.nmax as f64;
        let _ = inv_nm;
        let mut total_e = 0.0;
        let mut virial = 0.0;
        for i in 0..atoms.nlocal {
            let env = &envs[i];
            if env.entries.is_empty() {
                continue;
            }
            let typ_i = atoms.typ[i];
            // Group entries per species (the baseline's slice/concat step).
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); cfg.ntypes];
            for (k, e) in env.entries.iter().enumerate() {
                groups[e.typ as usize].push(k);
            }
            let counts: Vec<usize> = groups.iter().map(Vec::len).collect();
            let key = (typ_i, counts.clone());
            if !self.cache.contains_key(&key) {
                let built = self.build(typ_i, &counts);
                self.cache.insert(key.clone(), built);
            }
            let built = self.cache.get_mut(&key).expect("just inserted");

            // Feeds.
            let mut feeds: BTreeMap<String, Matrix> = BTreeMap::new();
            for (t, s_name, r_name) in &built.inputs {
                let idx = &groups[*t];
                let s = Matrix::from_fn(idx.len(), 1, |r, _| env.entries[idx[r]].s);
                let r = Matrix::from_fn(idx.len(), 4, |row, c| env.entries[idx[row]].coords()[c]);
                feeds.insert(s_name.clone(), s);
                feeds.insert(r_name.clone(), r);
            }
            let mut fetches = vec![built.energy];
            fetches.extend(built.dr.iter().copied());
            fetches.extend(built.ds.iter().copied());
            let (outs, stats) = built.session.run(&feeds, &fetches);
            self.cumulative.kernels_launched += stats.kernels_launched;
            self.cumulative.tensors_allocated += stats.tensors_allocated;
            self.cumulative.framework_overhead_ns += stats.framework_overhead_ns;
            self.cumulative.matmul_flops += stats.matmul_flops;
            self.runs += 1;

            total_e += outs[0][(0, 0)];
            // Chain rule from dE/dR̃ and dE/ds to forces (host side, same as
            // every execution path).
            let ngroups = built.inputs.len();
            for (gi, (t, _, _)) in built.inputs.iter().enumerate() {
                let dr = &outs[1 + gi];
                let ds = &outs[1 + ngroups + gi];
                for (row, &k) in groups[*t].iter().enumerate() {
                    let e = &env.entries[k];
                    let grads = e.coord_grads();
                    let inv_r = 1.0 / e.r;
                    let dsdd = [
                        e.ds_dr * e.disp.x * inv_r,
                        e.ds_dr * e.disp.y * inv_r,
                        e.ds_dr * e.disp.z * inv_r,
                    ];
                    let mut de_dd = Vec3::ZERO;
                    for axis in 0..3 {
                        let mut v = ds[(row, 0)] * dsdd[axis];
                        for c in 0..4 {
                            v += dr[(row, c)] * grads[c][axis];
                        }
                        de_dd[axis] = v;
                    }
                    let j = e.j as usize;
                    forces[j] -= de_dd;
                    forces[i] += de_dd;
                    virial += de_dd.dot(e.disp);
                }
            }
        }
        PotentialOutput { energy: total_e, virial: -virial }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use minimd::lattice::{fcc_copper, water_box};
    use minimd::neighbor::ListKind;

    fn compare(model: &DeepPotModel, bx: &SimBox, atoms: &Atoms) {
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(atoms, bx);
        let mut f_ref = vec![Vec3::ZERO; atoms.len()];
        let (out_ref, _) = model.energy_forces_on(&ThreadPool::serial(), atoms, &nl, bx, &mut f_ref);
        let mut exec = GraphExecutor::new(model);
        let mut f_g = vec![Vec3::ZERO; atoms.len()];
        let out_g = exec.energy_forces(atoms, &nl, bx, &mut f_g);
        assert!(
            (out_ref.energy - out_g.energy).abs() < 1e-8 * out_ref.energy.abs().max(1.0),
            "energy {} vs {}",
            out_ref.energy,
            out_g.energy
        );
        for i in 0..atoms.nlocal {
            assert!((f_ref[i] - f_g[i]).norm() < 1e-8, "atom {i}: {:?} vs {:?}", f_ref[i], f_g[i]);
        }
        // The framework-cost structure the paper measures.
        let (stats, runs) = exec.stats();
        assert_eq!(runs, atoms.nlocal as u64);
        assert_eq!(stats.framework_overhead_ns, runs * nnet::graph::SESSION_FIXED_OVERHEAD_NS);
        assert!(stats.tensors_allocated > runs, "per-run allocations");
    }

    #[test]
    fn graph_path_matches_reference_on_copper() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let (bx, mut atoms) = fcc_copper(3, 3, 3);
        for (k, p) in atoms.pos.iter_mut().enumerate() {
            p.x += 0.05 * ((k % 7) as f64 - 3.0) / 3.0;
        }
        compare(&model, &bx, &atoms);
    }

    #[test]
    fn graph_path_matches_reference_on_multitype_water() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 5.0));
        let (bx, atoms) = water_box(3, 3, 3, 8);
        compare(&model, &bx, &atoms);
    }

    #[test]
    fn graphs_are_cached_per_shape_signature() {
        // A perfect FCC lattice: every atom has the same signature, so one
        // graph serves all of them (TF's shape-keyed compilation cache).
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let (bx, atoms) = fcc_copper(3, 3, 3);
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        let mut exec = GraphExecutor::new(&model);
        let mut f = vec![Vec3::ZERO; atoms.len()];
        exec.energy_forces(&atoms, &nl, &bx, &mut f);
        assert_eq!(exec.graphs_built(), 1, "uniform lattice needs exactly one graph");
    }
}
