//! The mixed-precision force pipeline, over any number of systems.
//!
//! [`DpEngine::evaluate`] is the only `Mix32`/`Mix16` force evaluation in
//! the workspace: [`DpEngine::energy_forces`] (and through it the
//! [`minimd::potential::Potential`] adapter) feeds it one job, the
//! scheduler in `dpmd-serve` feeds it one job per running tenant. It
//!
//! 1. cuts the work into **tiles** — `(job, atom range)` for every range of
//!    [`dpmd_threads::atom_chunks`]`(nlocal)`, in job-then-chunk order;
//! 2. runs every tile of every job in **one `pool.scope`**, whatever the
//!    number of jobs. A tile builds its atoms' environments into its own
//!    scratch as f64 columns (`DpEngine::describe_tile`, in atom and
//!    neighbour-list order; bitwise what
//!    [`crate::descriptor::push_environment`] computes per atom), embeds
//!    them (`DpEngine::embed_tile`: per atom, the environment's
//!    same-species entries stack into one feature-major GEMM pair per
//!    layer, then T) and, while G and dG/ds are still in the core's cache,
//!    fits them (`DpEngine::fit_tile`): it groups its atoms by central
//!    species, stacks their descriptor rows and runs the fitting net
//!    forward and backward as one GEMM per layer and direction
//!    (`Fit32::value_grad_rows` — the paper's type-sorted batching at the
//!    granularity of the few atoms one core owns), then walks its atoms in
//!    atom order through the chain rule, scattering f64 forces into the
//!    tile's own buffer;
//! 3. merges tiles into their job's outputs in tile order.
//!
//! Tiles of different jobs share the scope, so a pool stays busy on a
//! round of many small tenants; nothing is stacked *across* jobs or
//! tiles. A tile's fitting GEMMs are not large-M: a Cu tile stacks 13–14
//! rows, but on `water_solo` a tile of about 10 atoms gives roughly 3 O
//! rows and 7 H rows per GEMM. Fitting a run of 4 tiles in one sweep is
//! bit-identical (rows are independent; the scatter and merge stay per
//! tile) and was measured (2 vCPUs, `avx512`) at −7.5 %
//! `us_per_step_atom` on `water_solo` (lower in 4 of 6 pairs), but it
//! raised `peak_rss_mb` from 13.4 to 15.4 MiB, so it is not done here
//! (ROADMAP item 18). Only the tiles in flight hold environments and
//! embeddings: one `TileScratch` each, dropped with the task. No all-atom
//! environment set exists.
//!
//! The fused scope is timed as a whole; [`ForcePhases::descriptor_s`],
//! [`ForcePhases::embedding_s`] and [`ForcePhases::fitting_s`] split that
//! wall time in proportion to the thread time the tiles spent in each
//! stage, summed over tiles.
//!
//! **Bitwise determinism** — a job's energy, virial and forces do not
//! depend on the pool width, on which other jobs share the call, or on its
//! position among them — rests on two properties:
//!
//! 1. *Row independence.* Every GEMM output element is a fold, ascending-k
//!    from a zero accumulator, of one row of `A` and one column of `B`
//!    (`nnet::gemm` module notes): a fitting row depends only on its atom's
//!    descriptor row, a feature-major embedding column only on its
//!    neighbour's column. The bias add and the resnet apply per element
//!    and so does the activation (one f32 kernel whose bits do not depend
//!    on the slice it is handed or on the host). How atoms or neighbours
//!    are grouped into GEMM calls is therefore invisible.
//! 2. *Fixed tile and merge order.* The tiling is a function of each job's
//!    atom count alone; every order-dependent f64 accumulation (per-atom
//!    energies, force scatter, virial) runs inside one tile in atom order,
//!    and tiles fold into their job in chunk order on the calling thread.
//!
//! `tests/serve_continuous.rs` and `tests/determinism.rs` check the
//! end-to-end consequence: trajectories bit-identical at any batch size and
//! thread count.

use std::ops::Range;
use std::time::Instant;

use dpmd_threads::atom_chunks;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, PotentialOutput};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::precision::Precision;

use crate::engine::{DpEngine, TileOut, TileScratch};

/// One system's force evaluation request: borrowed system state plus the
/// (caller-zeroed) force buffer to accumulate into.
pub struct BatchJob<'a> {
    /// Atom storage (positions/types read; forces are NOT written here —
    /// they go to [`forces`](Self::forces) so the caller can hold many
    /// simulations immutably while the batch runs).
    pub atoms: &'a Atoms,
    /// The replica's current neighbour list.
    pub nl: &'a NeighborList,
    /// The replica's box.
    pub bx: &'a SimBox,
    /// Output force buffer, `atoms.len()` long, zeroed by the caller.
    pub forces: &'a mut [Vec3],
}

/// What an evaluation did, for metrics and the bench.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchEvalStats {
    /// Jobs evaluated.
    pub jobs: usize,
    /// Stacked fitting-net GEMM calls: one per layer and direction for
    /// every (tile, central species) pair that holds at least one atom.
    pub fused_gemms: u64,
    /// Total rows (atoms) stacked into those calls (rows ÷ calls = mean
    /// atoms of one species per tile).
    pub fused_rows: u64,
    /// Jobs delegated to the f64 reference model (`Precision::Double`).
    pub solo_fallbacks: u64,
    /// Wall time of each phase over the whole call (per-job wall time is
    /// not separable: tiles of all jobs share the scope).
    pub phases: ForcePhases,
}

/// Retained for the callers that thread one through
/// [`DpEngine::energy_forces_batched_with`]; holds nothing — every
/// intermediate of an evaluation is tile-local and dropped with its tile.
#[derive(Default)]
pub struct BatchWorkspace;

impl BatchWorkspace {
    /// A workspace.
    pub fn new() -> Self {
        BatchWorkspace
    }
}

/// One unit of pool work: an [`atom_chunks`] range of one job, carrying its
/// outputs and its thread time per stage (descriptor, embedding, fitting)
/// to the merge.
struct Tile {
    job: usize,
    atoms: Range<usize>,
    out: Option<TileOut>,
    stage_s: [f64; 3],
}

/// Split the fused scope's wall time `wall_s` over its stages in
/// proportion to the thread time `busy_s` the tiles spent in each. The
/// parts are finite and non-negative and sum to `wall_s` up to rounding;
/// with no thread time recorded (no tile, or a clock too coarse to see
/// one) they are equal.
fn split_fused(wall_s: f64, busy_s: [f64; 3]) -> [f64; 3] {
    let busy: f64 = busy_s.iter().sum();
    busy_s.map(|b| if busy > 0.0 { wall_s * (b / busy) } else { wall_s / 3.0 })
}

impl DpEngine {
    /// [`evaluate`](Self::evaluate) many independent systems in one call.
    /// Returns one [`PotentialOutput`] per job (in job order) plus
    /// evaluation statistics; per job, results are bitwise what a call with
    /// that job alone returns, at any batch size and pool width.
    pub fn energy_forces_batched(
        &self,
        jobs: &mut [BatchJob<'_>],
    ) -> (Vec<PotentialOutput>, BatchEvalStats) {
        self.evaluate(jobs)
    }

    /// As [`energy_forces_batched`](Self::energy_forces_batched); the
    /// workspace is unused (see [`BatchWorkspace`]).
    pub fn energy_forces_batched_with(
        &self,
        jobs: &mut [BatchJob<'_>],
        _ws: &mut BatchWorkspace,
    ) -> (Vec<PotentialOutput>, BatchEvalStats) {
        self.evaluate(jobs)
    }

    /// The force pipeline (see module docs): energies, virials and forces
    /// of every job at the engine's precision, forces accumulated in f64
    /// into each job's buffer. The phase breakdown also lands in
    /// [`last_phases`](Self::last_phases).
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub(crate) fn evaluate(
        &self,
        jobs: &mut [BatchJob<'_>],
    ) -> (Vec<PotentialOutput>, BatchEvalStats) {
        let mut stats = BatchEvalStats { jobs: jobs.len(), ..Default::default() };
        if let Some(o) = &self.obs {
            let idx = match self.precision {
                Precision::Double => 0,
                Precision::Mix32 => 1,
                Precision::Mix16 => 2,
            };
            o.evals[idx].add(jobs.len() as u64);
        }
        let pool = self.pool();
        let mut phases = ForcePhases::default();
        let mut outs = vec![PotentialOutput::default(); jobs.len()]; // dpmd-allow D5: one output per job per call

        // The Double path is the f64 reference model, job by job.
        if self.precision == Precision::Double {
            for (job, out) in jobs.iter_mut().zip(outs.iter_mut()) {
                let (o, p) = self.model.energy_forces_on(pool, job.atoms, job.nl, job.bx, job.forces);
                *out = o;
                phases.descriptor_s += p.descriptor_s;
                phases.embedding_s += p.embedding_s;
                phases.fitting_s += p.fitting_s;
                phases.reduction_s += p.reduction_s;
                stats.solo_fallbacks += 1;
            }
            stats.phases = phases;
            *self.last_phases.lock().unwrap() = Some(phases);
            return (outs, stats);
        }

        let mut tiles: Vec<Tile> = jobs
            .iter()
            .enumerate()
            .flat_map(|(job, j)| {
                atom_chunks(j.atoms.nlocal)
                    .into_iter()
                    .map(move |atoms| Tile { job, atoms, out: None, stage_s: [0.0; 3] })
            })
            .collect(); // dpmd-allow D5: one entry per tile per call

        // Environments, embedding, fitting and chain rule of each tile back
        // to back, on the tile's own scratch; one f64 force buffer per tile.
        let t0 = Instant::now();
        pool.scope(|sc| {
            for tile in tiles.iter_mut() {
                let BatchJob { atoms, nl, bx, .. } = jobs[tile.job];
                sc.spawn(move || {
                    let mut scratch = TileScratch::default();
                    let t = Instant::now();
                    self.describe_tile(atoms, nl, bx, tile.atoms.start..tile.atoms.end, &mut scratch);
                    tile.stage_s[0] = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    self.embed_tile(&mut scratch);
                    tile.stage_s[1] = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    tile.out = Some(self.fit_tile(atoms, tile.atoms.start, &mut scratch));
                    tile.stage_s[2] = t.elapsed().as_secs_f64();
                });
            }
        });
        let fused_s = t0.elapsed().as_secs_f64();
        let busy_s = tiles.iter().fold([0.0; 3], |acc, t| [0, 1, 2].map(|k| acc[k] + t.stage_s[k]));
        [phases.descriptor_s, phases.embedding_s, phases.fitting_s] = split_fused(fused_s, busy_s);

        // Deterministic fixed-order reduction: tiles fold into their job in
        // tile (= chunk) order.
        let t0 = Instant::now();
        for tile in tiles {
            let (out, tout) = (&mut outs[tile.job], tile.out.expect("the fitting scope ran every tile"));
            out.energy += tout.energy;
            out.virial += tout.virial;
            for (f, b) in jobs[tile.job].forces.iter_mut().zip(&tout.forces) {
                *f += *b;
            }
            stats.fused_gemms += tout.gemms;
            stats.fused_rows += tout.rows;
        }
        for out in &mut outs {
            out.virial = -out.virial;
        }
        phases.reduction_s = t0.elapsed().as_secs_f64();

        stats.phases = phases;
        *self.last_phases.lock().unwrap() = Some(phases);
        (outs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use crate::model::DeepPotModel;
    use minimd::lattice::water_box;
    use minimd::neighbor::ListKind;

    fn water_system(cells: usize, seed: u64) -> (SimBox, Atoms, NeighborList) {
        let (bx, atoms) = water_box(cells, cells, cells, seed);
        let mut nl = NeighborList::new(4.0, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        (bx, atoms, nl)
    }

    /// Co-batch isolation: a job's energy, virial and forces are bitwise
    /// the same evaluated alone, among other jobs and at another position
    /// in the call, through a reused workspace or a fresh one. The jobs
    /// cover the tile shapes: species mixed inside a tile (A), tiles
    /// holding no atom of one species (B — the `rows == 0` skip), and a
    /// system shorter than one chunk (C).
    #[test]
    fn co_batched_jobs_are_bitwise_isolated() {
        let a = water_system(2, 31);
        let mut b = water_system(2, 32);
        b.1.typ[..8].fill(0);
        b.1.typ[8..16].fill(1);
        let c = water_system(1, 33);
        assert!(c.1.nlocal < 8 && atom_chunks(c.1.nlocal).len() == 1);
        let systems = [&a, &b, &c];

        for precision in [Precision::Mix32, Precision::Mix16, Precision::Double] {
            let engine = DpEngine::new(DeepPotModel::new(DeepPotConfig::tiny(2, 4.0)), precision);
            let mut shared_ws = BatchWorkspace::new();
            let mut eval = |order: &[usize], reuse: bool| {
                let mut bufs: Vec<Vec<Vec3>> =
                    order.iter().map(|&s| vec![Vec3::ZERO; systems[s].1.len()]).collect();
                let mut jobs: Vec<BatchJob> = order
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(&s, forces)| {
                        let (bx, atoms, nl) = systems[s];
                        BatchJob { atoms, nl, bx, forces }
                    })
                    .collect();
                let (outs, stats) = if reuse {
                    engine.energy_forces_batched_with(&mut jobs, &mut shared_ws)
                } else {
                    engine.energy_forces_batched(&mut jobs)
                };
                assert_eq!(stats.jobs, order.len());
                if precision == Precision::Double {
                    assert_eq!(stats.solo_fallbacks, order.len() as u64);
                } else {
                    assert_eq!(stats.solo_fallbacks, 0);
                    assert_eq!(stats.fused_gemms > 0, !order.is_empty(), "fitting GEMMs must stack");
                    assert!(order.is_empty() || stats.fused_rows > stats.fused_gemms, "rows must stack");
                }
                (outs, bufs)
            };

            let alone: Vec<_> = (0..3).map(|s| eval(&[s], false)).collect();
            for order in [&[0usize, 1, 2][..], &[2, 0], &[1, 1]] {
                for reuse in [true, false] {
                    let (outs, bufs) = eval(order, reuse);
                    assert_eq!(outs.len(), order.len());
                    for (pos, &s) in order.iter().enumerate() {
                        let what = format!("{precision:?} job {s} at {pos} of {order:?}, reuse {reuse}");
                        assert_eq!(alone[s].0[0], outs[pos], "{what}: energy/virial");
                        assert_eq!(alone[s].1[0], bufs[pos], "{what}: forces");
                    }
                }
            }
            let (outs, bufs) = eval(&[], true);
            assert!(outs.is_empty() && bufs.is_empty());
        }
    }

    /// The fused scope's wall time is split over descriptor, embedding and
    /// fitting by the tiles' thread time. At one and two threads on both
    /// mixed precisions, all three parts are finite and positive (the
    /// benchmark divides by them) and, with the reduction, fit inside the
    /// call; the split itself sums to the wall time it is given, also when
    /// one stage or every stage saw no thread time.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    fn fused_scope_time_splits_into_embedding_and_fitting() {
        let (bx, atoms, nl) = water_system(2, 31);
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 4.0));
        for precision in [Precision::Mix32, Precision::Mix16] {
            for threads in [1usize, 2] {
                let pool = std::sync::Arc::new(dpmd_threads::ThreadPool::new(threads));
                let engine = DpEngine::new(model.clone(), precision).with_pool(pool);
                let mut forces = vec![Vec3::ZERO; atoms.len()];
                let t0 = Instant::now();
                let (_, stats) =
                    engine.energy_forces_batched(&mut [BatchJob { atoms: &atoms, nl: &nl, bx: &bx, forces: &mut forces }]);
                let call_s = t0.elapsed().as_secs_f64();
                let p = stats.phases;
                let what = format!("{precision:?}, {threads} threads: {p:?}");
                for part in [p.descriptor_s, p.embedding_s, p.fitting_s] {
                    assert!(part.is_finite() && part > 0.0, "{what}");
                }
                assert!(p.total() <= call_s, "{what}: phases exceed the call's {call_s:e} s");
                assert_eq!(engine.last_phases(), Some(p), "{what}");
            }
        }
        for (wall, busy) in [
            (1e-3, [1e-4, 2e-4, 6e-4]),
            (3e-3, [0.0, 0.0, 5e-4]),
            (7.25e-4, [3e-7, 1e-9, 1.0]),
            (1e-3, [0.0; 3]),
        ] {
            let parts = split_fused(wall, busy);
            assert!(parts.iter().all(|p| p.is_finite() && *p >= 0.0), "{wall} {busy:?}: {parts:?}");
            let sum: f64 = parts.iter().sum();
            assert!((sum - wall).abs() <= 2.0 * f64::EPSILON * wall, "{wall} {busy:?}: {parts:?} sum to {sum}");
        }
        assert_eq!(split_fused(1.5, [0.0; 3]), [0.5; 3]);
    }

    /// Two species (water): the type-sorted grouping must respect per-atom
    /// species for both embedding and fitting nets.
    #[test]
    fn batched_multi_species_matches_solo() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 4.0));
        let engine = DpEngine::new(model, Precision::Mix32);
        let (bx, atoms, nl) = water_system(2, 31);

        let mut f_solo = vec![Vec3::ZERO; atoms.len()];
        let out_solo = engine.energy_forces(&atoms, &nl, &bx, &mut f_solo);

        let mut f_b = vec![Vec3::ZERO; atoms.len()];
        let mut jobs = [BatchJob { atoms: &atoms, nl: &nl, bx: &bx, forces: &mut f_b }];
        let (outs, _) = engine.energy_forces_batched(&mut jobs);
        assert_eq!(out_solo.energy, outs[0].energy);
        assert_eq!(out_solo.virial, outs[0].virial);
        assert_eq!(f_solo, f_b);
    }
}
