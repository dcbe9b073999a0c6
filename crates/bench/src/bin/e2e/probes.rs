//! Layer probes: each layer's public entry point called on a frozen
//! snapshot, timed by the harness (median of [`REPS`] repetitions unless
//! noted). Every traced run executes the whole suite on the same four
//! canonical snapshots — rebuilt from the seed by a fixed recipe, never taken
//! from the time-bounded window — so a probe means the same thing whichever
//! workload's run reports it, and every ‡ count repeats exactly for a seed.
//!
//! † marks shares read from values the public API already returns
//! ("as reported"); ‡ marks counts that must repeat exactly.

use std::sync::Arc;
use std::time::Instant;

use deepmd::batch::{BatchJob, BatchWorkspace};
use deepmd::config::DeepPotConfig;
use deepmd::descriptor::build_environments_on;
use deepmd::engine::DpEngine;
use deepmd::model::DeepPotModel;
use dpmd_comm::functional::{
    build_forward_messages, exchange_ghosts, reverse_forces, ExchangeScheme,
};
use dpmd_comm::ATOM_FORWARD_BYTES;
use dpmd_serve::TenantState;
use dpmd_threads::{atom_chunks, ThreadPool};
use minimd::atoms::Atoms;
use minimd::neighbor::{ListKind, NeighborList};
use minimd::potential::Potential;
use minimd::sim::Simulation;
use minimd::vec3::Vec3;
use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::gemm;
use nnet::precision::Precision;

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Gates};

const REPS: usize = 10;
/// Steps a canonical snapshot is advanced from its lattice start, so
/// positions carry thermal displacements.
const SNAPSHOT_STEPS: u64 = 5;

struct Probes<'r> {
    rec: &'r mut Recorder,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Median seconds of `reps` calls of `f`, each recorded as a span.
    fn time(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps as u64)
            .map(|k| {
                let id = self.rec.open(name, k);
                let t0 = Instant::now();
                f();
                let dt = t0.elapsed().as_secs_f64();
                self.rec.close(id);
                dt
            })
            .collect();
        stats::median(&samples)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

fn zeroed(n: usize) -> Vec<Vec3> {
    vec![Vec3::ZERO; n]
}

/// GF/s of `call`, which performs `flops` floating-point operations. Each
/// repetition batches enough calls (~20 MFLOP) to dwarf the timer.
fn gflops(p: &mut Probes<'_>, name: &'static str, flops: u64, mut call: impl FnMut()) -> f64 {
    let calls = (20_000_000 / flops).max(1);
    let secs = p.time(name, REPS, || (0..calls).for_each(|_| call()));
    (calls * flops) as f64 / secs / 1e9
}

/// `auto_nn_f32` throughput at one shape, GF/s.
fn gemm_gflops(p: &mut Probes<'_>, name: &'static str, m: usize, n: usize, k: usize) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32 - 3.0) * 0.02).collect();
    let mut c = vec![0.0f32; m * n];
    gflops(p, name, gemm::flops(m, n, k), || {
        gemm::auto_nn_f32(m, n, k, std::hint::black_box(&a), &b, &mut c);
        std::hint::black_box(&mut c);
    })
}

/// What the solo engine did on one Deep Potential snapshot.
struct SoloProbe {
    engine_s: f64,
    /// Descriptor, embedding, fitting, reduction as shares of their sum †.
    phases: [f64; 4],
    relerr: f64,
    f64_s: f64,
}

fn solo_engine_probe(
    p: &mut Probes<'_>,
    name: &'static str,
    sim: &Simulation,
    model: &DeepPotModel,
    precision: Precision,
    pool: &Arc<ThreadPool>,
) -> SoloProbe {
    let dp = DpEngine::new(model.clone(), precision).with_pool(Arc::clone(pool));
    let mut forces = zeroed(sim.atoms.len());
    let engine_s = p.time(name, REPS, || {
        forces.fill(Vec3::ZERO);
        dp.energy_forces(&sim.atoms, &sim.nl, &sim.bx, &mut forces);
    });
    let ph = dp.last_phases().expect("the engine just ran");
    let total = ph.total();
    let (relerr, f64_s) = workloads::relerr_vs_f64(sim, model, precision, Arc::clone(pool));
    SoloProbe {
        engine_s,
        phases: [ph.descriptor_s, ph.embedding_s, ph.fitting_s, ph.reduction_s].map(|s| s / total),
        relerr,
        f64_s,
    }
}

fn copper_probes(p: &mut Probes<'_>, seed: u64, gates: &mut Gates) {
    let mut engine = workloads::cu_builder(seed).build();
    let unattributed: Vec<f64> = (0..SNAPSHOT_STEPS)
        .map(|_| {
            engine.run(1);
            let t = engine.timing();
            1.0 - t.phase_sum_s() / t.total_s
        })
        .collect();
    p.put("minimd.sim.unattributed_share", stats::median(&unattributed));

    let sim = engine.simulation();
    let natoms = sim.atoms.nlocal as f64;
    let cfg = DeepPotConfig::copper();
    let model = DeepPotModel::new(cfg.clone());
    let pool1 = Arc::new(ThreadPool::new(1));

    let mut envs = Vec::new();
    let descriptor_s = p.time("deepmd.descriptor.us_per_atom", REPS, || {
        envs = build_environments_on(&pool1, &sim.atoms, &sim.nl, &sim.bx, cfg.rcut_smth, cfg.rcut);
    });
    p.put("deepmd.descriptor.us_per_atom", descriptor_s * 1e6 / natoms);

    let solo =
        solo_engine_probe(p, "deepmd.engine.us_per_atom", sim, &model, Precision::Mix32, &pool1);
    p.put("deepmd.engine.us_per_atom", solo.engine_s * 1e6 / natoms);
    for (name, share) in [
        "deepmd.engine.descriptor_share",
        "deepmd.engine.embedding_share",
        "deepmd.engine.fitting_share",
        "deepmd.engine.reduction_share",
    ]
    .into_iter()
    .zip(solo.phases)
    {
        p.put(name, share);
    }
    p.put("deepmd.model.f64_us_per_atom", solo.f64_s * 1e6 / natoms);
    p.put("deepmd.engine.force_relerr_vs_f64", solo.relerr);
    gates.check(solo.relerr <= workloads::RELERR_BOUND_MIX32, || {
        format!("copper snapshot: Mix32 force relerr {:e}", solo.relerr)
    });

    // The stacked path fed a single job: is solo a special case of it?
    let dp = DpEngine::new(model.clone(), Precision::Mix32).with_pool(Arc::clone(&pool1));
    let mut forces = zeroed(sim.atoms.len());
    let mut ws = BatchWorkspace::new();
    let r1_s = p.time("deepmd.batch.r1_us_per_atom", REPS, || {
        forces.fill(Vec3::ZERO);
        let mut jobs = [BatchJob { atoms: &sim.atoms, nl: &sim.nl, bx: &sim.bx, forces: &mut forces }];
        dp.energy_forces_batched_with(&mut jobs, &mut ws);
    });
    p.put("deepmd.batch.r1_us_per_atom", r1_s * 1e6 / natoms);

    // GEMM work of one step, computed from model shapes and the snapshot's
    // neighbour counts: two embedding GEMMs (value + tangent rows) per
    // layer over an atom's in-cutoff neighbours, and a forward plus a
    // backward M=1 GEMM per fitting layer.
    let widths = |first: usize, hidden: &[usize]| -> Vec<(usize, usize)> {
        std::iter::once(first).chain(hidden.iter().copied()).zip(hidden.iter().copied()).collect()
    };
    let embed_layers = widths(1, &cfg.embedding_widths);
    let mut fit_layers = widths(cfg.descriptor_len(), &cfg.fitting_widths);
    fit_layers.push((*cfg.fitting_widths.last().expect("validated config"), 1));
    let rows: Vec<usize> = envs.iter().map(|e| e.entries.len()).collect();
    let embed_flops: u64 = rows
        .iter()
        .map(|&r| embed_layers.iter().map(|&(i, o)| 2 * gemm::flops(r, o, i + 1)).sum::<u64>())
        .sum();
    let fit_flops: u64 = fit_layers.iter().map(|&(i, o)| 2 * gemm::flops(1, o, i)).sum();
    p.put("nnet.gemm.flops_per_step_atom", embed_flops as f64 / natoms + fit_flops as f64);

    let mut sorted_rows = rows;
    sorted_rows.sort_unstable();
    let median_rows = sorted_rows[sorted_rows.len() / 2];
    let &(emb_in, emb_out) = embed_layers.last().expect("validated config");
    let v = gemm_gflops(p, "nnet.gemm.embed_gflops", median_rows, emb_out, emb_in + 1);
    p.put("nnet.gemm.embed_gflops", v);
    let width = cfg.fitting_widths[0];
    let v = gemm_gflops(p, "nnet.gemm.fit_m1_gflops", 1, width, width);
    p.put("nnet.gemm.fit_m1_gflops", v);
    let v = gemm_gflops(p, "nnet.gemm.fit_stacked_gflops", sim.atoms.nlocal, width, width);
    p.put("nnet.gemm.fit_stacked_gflops", v);

    let parts_s = p.time("core.build_parts_ms", 5, || drop(workloads::cu_builder(seed).build_parts()));
    p.put("core.build_parts_ms", parts_s * 1e3);
    let build_s = p.time("core.assemble_ms", 5, || drop(workloads::cu_builder(seed).build()));
    p.put("core.assemble_ms", build_s * 1e3);
}

fn water_probes(p: &mut Probes<'_>, seed: u64, gates: &mut Gates) {
    let mut engine = workloads::water_builder(seed).build();
    engine.run(SNAPSHOT_STEPS);
    let sim = engine.simulation();
    let natoms = sim.atoms.nlocal as f64;
    let cfg = DeepPotConfig::water();
    let model = DeepPotModel::new(cfg.clone());
    let (pool1, pool2) = (Arc::new(ThreadPool::new(1)), Arc::new(ThreadPool::new(2)));

    let two =
        solo_engine_probe(p, "deepmd.engine.mix16_us_per_atom", sim, &model, Precision::Mix16, &pool2);
    p.put("deepmd.engine.mix16_us_per_atom", two.engine_s * 1e6 / natoms);
    p.put("deepmd.engine.mix16_fitting_share", two.phases[2]);
    p.put("deepmd.engine.mix16_force_relerr_vs_f64", two.relerr);
    gates.check(two.relerr <= workloads::RELERR_BOUND_MIX16, || {
        format!("water snapshot: Mix16 force relerr {:e}", two.relerr)
    });

    let dp1 = DpEngine::new(model, Precision::Mix16).with_pool(pool1);
    let mut forces = zeroed(sim.atoms.len());
    let one_s = p.time("threads.solo_speedup_2t", REPS, || {
        forces.fill(Vec3::ZERO);
        dp1.energy_forces(&sim.atoms, &sim.nl, &sim.bx, &mut forces);
    });
    p.put("threads.solo_speedup_2t", one_s / two.engine_s);

    // The software-fp16 first fitting layer: M=1, K=descriptor, N=width.
    let (k, n) = (cfg.descriptor_len(), cfg.fitting_widths[0]);
    let a: Vec<F16> = (0..k).map(|i| F16::from_f32(((i % 13) as f32 - 6.0) * 0.01)).collect();
    let b: Vec<F16> = (0..k * n).map(|i| F16::from_f32(((i % 7) as f32 - 3.0) * 0.02)).collect();
    let mut c = vec![0.0f32; n];
    let v = gflops(p, "nnet.gemm.f16_first_layer_gflops", gemm::flops(1, n, k), || {
        gemm::batched_nn_f16(1, 1, n, k, std::hint::black_box(&a), &b, &mut c);
        std::hint::black_box(&mut c);
    });
    p.put("nnet.gemm.f16_first_layer_gflops", v);
}

fn served_probes(p: &mut Probes<'_>, seed: u64) {
    let script = workloads::served_script(seed);
    let mut sched = workloads::served_scheduler(seed, 2, &script);
    let specs: Vec<_> = (0..REPS).map(|id| script.spec(id)).collect();
    let mut next = specs.iter();
    let attach_s = p.time("serve.attach_ms", REPS, || {
        let spec = *next.next().expect("one spec per repetition");
        sched.attach(spec).expect("queue has room for ten tenants");
    });
    p.put("serve.attach_ms", attach_s * 1e3);

    // The first tick also runs the newcomers' initial evaluations; the ten
    // after it step the same eight in-flight tenants.
    sched.tick();
    let tick_s = p.time("probe.serve.tick", REPS, || {
        sched.tick();
    });

    let running: Vec<&Simulation> = sched
        .tenants()
        .iter()
        .filter(|t| t.state == TenantState::Running)
        .map(|t| &t.sim)
        .collect();
    assert_eq!(running.len(), workloads::SERVED_IN_FLIGHT, "the cap is full after ten attaches");
    let atoms = (running.len() * workloads::SERVED_ATOMS) as f64;
    let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
    let mut bufs: Vec<Vec<Vec3>> = running.iter().map(|s| zeroed(s.atoms.len())).collect();
    let mut ws = BatchWorkspace::new();
    let mut stats = None;
    let mut r8 = |p: &mut Probes<'_>, name: &'static str, threads: usize| {
        let dp = DpEngine::new(model.clone(), Precision::Mix32)
            .with_pool(Arc::new(ThreadPool::new(threads)));
        p.time(name, REPS, || {
            let mut jobs: Vec<BatchJob<'_>> = running
                .iter()
                .zip(bufs.iter_mut())
                .map(|(s, forces)| {
                    forces.fill(Vec3::ZERO);
                    BatchJob { atoms: &s.atoms, nl: &s.nl, bx: &s.bx, forces }
                })
                .collect();
            stats = Some(dp.energy_forces_batched_with(&mut jobs, &mut ws).1);
        })
    };
    let two_s = r8(p, "deepmd.batch.r8_us_per_atom", 2);
    let one_s = r8(p, "threads.batch_speedup_2t", 1);
    let stats = stats.expect("the batched probe ran");
    p.put("deepmd.batch.r8_us_per_atom", two_s * 1e6 / atoms);
    p.put("deepmd.batch.rows_per_gemm", stats.fused_rows as f64 / stats.fused_gemms as f64);
    p.put("threads.batch_speedup_2t", one_s / two_s);
    p.put("serve.sched_overhead_share", 1.0 - two_s / tick_s);

    // The stacked fitting GEMM of a full round on the tiny model.
    let width = model.config.fitting_widths[0];
    let v = gemm_gflops(p, "nnet.gemm.fit_stacked_tiny_gflops", atoms as usize, width, width);
    p.put("nnet.gemm.fit_stacked_tiny_gflops", v);
}

/// Messages and payload entries one forward exchange of `scheme` puts on the
/// wire (ghost-free stores in, as the driver builds them).
fn forward_counts(
    decomp: &minimd::domain::Decomposition,
    bare: &[Atoms],
    halo: f64,
    scheme: ExchangeScheme,
) -> (usize, usize) {
    let msgs = build_forward_messages(decomp, bare, halo, scheme, false);
    (msgs.len(), msgs.iter().map(|m| m.payload.len()).sum())
}

fn distributed_probes(p: &mut Probes<'_>, seed: u64) {
    let sys = workloads::lj_system(seed);
    let mut d = workloads::lj_distributed(&sys);
    for _ in 0..SNAPSHOT_STEPS {
        d.stride();
    }
    let stride_s = p.time("probe.comm.driver.stride", REPS, || {
        d.stride();
    });
    let (decomp, halo, bx) = (&d.decomp, d.halo, d.decomp.bx);
    let nlocal: usize = d.ranks.iter().map(|a| a.nlocal).sum();
    let natoms = nlocal as f64;

    // Ghost forces of the last stride are still in place: the reverse
    // reduction has real payloads to move.
    let mut ranks = d.ranks.clone();
    let reverse_s = p.time("comm.reverse_ms", REPS, || reverse_forces(decomp, &mut ranks));
    p.put("comm.reverse_ms", reverse_s * 1e3);

    let mut exchange = |p: &mut Probes<'_>, name: &'static str, scheme| {
        p.time(name, REPS, || exchange_ghosts(decomp, &mut ranks, halo, scheme, false))
    };
    let p2p_s = exchange(p, "comm.exchange_p2p_ms", ExchangeScheme::RankP2p);
    let node_s = exchange(p, "comm.exchange_ms", ExchangeScheme::NodeBased);
    p.put("comm.exchange_ms", node_s * 1e3);
    p.put("comm.exchange_p2p_ms", p2p_s * 1e3);
    p.put("comm.share_of_step", (node_s + reverse_s) / stride_s);
    let nghost: usize = ranks.iter().map(Atoms::nghost).sum();
    p.put("comm.ghosts_per_local", nghost as f64 / natoms);

    let mut nls: Vec<NeighborList> = ranks
        .iter()
        .map(|_| NeighborList::new(sys.lj.cutoff(), halo - sys.lj.cutoff(), ListKind::Full))
        .collect();
    let build_s = p.time("minimd.neighbor.build_us_per_atom", REPS, || {
        for (a, nl) in ranks.iter().zip(&mut nls) {
            nl.build(a, &bx);
        }
    });
    p.put("minimd.neighbor.build_us_per_atom", build_s * 1e6 / natoms);
    let pairs: usize = nls.iter().map(NeighborList::total_neighbors).sum();
    p.put("minimd.neighbor.pairs_per_atom", pairs as f64 / natoms);

    let pair_s = p.time("minimd.potential.lj_us_per_atom", REPS, || {
        for (a, nl) in ranks.iter_mut().zip(&nls) {
            a.zero_forces();
            sys.lj.compute(a, nl, &bx);
        }
    });
    p.put("minimd.potential.lj_us_per_atom", pair_s * 1e6 / natoms);

    let mut vv = sys.vv.clone();
    let integrate_s = p.time("minimd.integrate.us_per_atom", REPS, || {
        for a in &mut ranks {
            vv.first_half_unwrapped(a);
            vv.second_half(a);
        }
    });
    p.put("minimd.integrate.us_per_atom", integrate_s * 1e6 / natoms);

    let mut bare = d.ranks.clone();
    bare.iter_mut().for_each(Atoms::clear_ghosts);
    let (node_msgs, node_entries) = forward_counts(decomp, &bare, halo, ExchangeScheme::NodeBased);
    let (p2p_msgs, _) = forward_counts(decomp, &bare, halo, ExchangeScheme::RankP2p);
    p.put("comm.messages_per_step", node_msgs as f64);
    p.put("comm.p2p_messages_per_step", p2p_msgs as f64);
    p.put("comm.entries_per_step", node_entries as f64);
    p.put("comm.bytes_per_step", (node_entries * ATOM_FORWARD_BYTES) as f64);

    // Migration mutates the stores it is given: a fresh copy per repetition,
    // made outside the timed call.
    let mut copies: Vec<Vec<Atoms>> = (0..REPS).map(|_| bare.clone()).collect();
    let migrate_s = p.time("minimd.migrate.exchange_atoms_ms", REPS, || {
        let copy = copies.last_mut().expect("one copy per repetition");
        minimd::migrate::exchange_atoms(decomp, copy);
        copies.pop();
    });
    p.put("minimd.migrate.exchange_atoms_ms", migrate_s * 1e3);
}

fn micro_probes(p: &mut Probes<'_>) {
    let xs: Vec<f32> = (0..1 << 16).map(|i| (i as f32 / 65536.0 - 0.5) * 6.0).collect();
    let tanh_s = p.time("nnet.activation.tanh_ns_per_elem", REPS, || {
        let mut acc = 0.0f64;
        for &x in &xs {
            let (v, g) = Activation::Tanh.value_grad_f32(std::hint::black_box(x));
            acc += v as f64 + g;
        }
        std::hint::black_box(acc);
    });
    p.put("nnet.activation.tanh_ns_per_elem", tanh_s * 1e9 / xs.len() as f64);

    // An empty scope with as many no-op tasks as an 864-atom pass spawns.
    let pool = ThreadPool::new(2);
    let tasks = atom_chunks(864).len();
    let scope_s = p.time("threads.scope_overhead_us", 200, || {
        pool.scope(|sc| {
            for _ in 0..tasks {
                sc.spawn(|| {});
            }
        });
    });
    p.put("threads.scope_overhead_us", scope_s * 1e6);
}

/// Run the whole suite; returns `(metric name, value)` pairs.
pub fn run_all(seed: u64, rec: &mut Recorder, gates: &mut Gates) -> Vec<(&'static str, f64)> {
    let mut p = Probes { rec, out: Vec::new() };
    let suite = p.rec.open("probes", 0);
    let mut t0 = Instant::now();
    let mut lap = |snapshot: &str| {
        println!("  probes on {snapshot}: {:.2} s", t0.elapsed().as_secs_f64());
        t0 = Instant::now();
    };
    copper_probes(&mut p, seed, gates);
    lap("cu");
    water_probes(&mut p, seed, gates);
    lap("water");
    served_probes(&mut p, seed);
    lap("served");
    distributed_probes(&mut p, seed);
    lap("lj");
    micro_probes(&mut p);
    lap("micro");
    p.rec.close(suite);
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmd_comm::functional::partition;
    use minimd::domain::Decomposition;

    /// ‡ counts are a function of the seed alone, and the node-based scheme
    /// ships far fewer messages than rank p2p (the paper's dedup).
    #[test]
    fn forward_message_counts_repeat_for_a_seed() {
        let counts = |seed| {
            let sys = workloads::lj_system(seed);
            let decomp = Decomposition::new(sys.bx, [2, 2, 2]);
            let bare = partition(&decomp, &sys.global);
            [ExchangeScheme::NodeBased, ExchangeScheme::RankP2p]
                .map(|s| forward_counts(&decomp, &bare, sys.lj.cutoff() + 1.0, s))
        };
        let [node, p2p] = counts(9);
        assert_eq!([node, p2p], counts(9));
        assert_eq!((node.0, p2p.0), (56, 544));
        assert!(node.1 < p2p.1, "node-based ships each atom once per node pair");
    }
}
