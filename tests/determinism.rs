//! Determinism across runs and thread counts.
//!
//! The threaded force pipeline (neighbor build + descriptor / embedding /
//! fitting passes) uses a chunk-ordered reduction whose chunk boundaries
//! depend only on the atom count, never on the pool width. The contract:
//! same seed ⇒ bit-identical trajectories, at any thread count. These tests
//! pin that contract end-to-end for both of the paper's systems over a
//! 50-step trajectory, and pin the mixed-precision force bits themselves to
//! a committed golden file.

use std::path::{Path, PathBuf};

use dpmd_repro::core::prelude::*;
use dpmd_repro::core::SKIN_A;
use dpmd_repro::minimd::neighbor::{ListKind, NeighborList};
use dpmd_repro::minimd::sim::Thermo;
use dpmd_repro::minimd::vec3::Vec3;

/// A 50-step run: per-step thermo trace plus final positions and velocities.
fn run(water: bool, seed: u64, threads: usize) -> (Vec<Thermo>, Vec<Vec3>, Vec<Vec3>) {
    let ntypes = if water { 2 } else { 1 };
    let model = DeepPotModel::new(DeepPotConfig::tiny(ntypes, 6.0));
    let mut builder = Engine::builder().with_model(model).nve().seed(seed).threads(threads);
    builder = if water { builder.water_cells(2) } else { builder.copper_cells(2) };
    let mut engine = builder.build();
    let trace = engine.run(50);
    let atoms = &engine.simulation().atoms;
    (trace, atoms.pos.clone(), atoms.vel.clone())
}

fn assert_bit_identical(a: &(Vec<Thermo>, Vec<Vec3>, Vec<Vec3>), b: &(Vec<Thermo>, Vec<Vec3>, Vec<Vec3>), what: &str) {
    assert_eq!(a.0.len(), b.0.len(), "{what}: trace length");
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.pe.to_bits(), y.pe.to_bits(), "{what}: pe at step {}", x.step);
        assert_eq!(x.ke.to_bits(), y.ke.to_bits(), "{what}: ke at step {}", x.step);
        assert_eq!(x.temperature.to_bits(), y.temperature.to_bits(), "{what}: T at step {}", x.step);
        assert_eq!(x.pressure.to_bits(), y.pressure.to_bits(), "{what}: P at step {}", x.step);
    }
    for (i, (p, q)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(p.x.to_bits(), q.x.to_bits(), "{what}: pos[{i}].x");
        assert_eq!(p.y.to_bits(), q.y.to_bits(), "{what}: pos[{i}].y");
        assert_eq!(p.z.to_bits(), q.z.to_bits(), "{what}: pos[{i}].z");
    }
    for (i, (p, q)) in a.2.iter().zip(&b.2).enumerate() {
        assert_eq!(p.x.to_bits(), q.x.to_bits(), "{what}: vel[{i}].x");
        assert_eq!(p.y.to_bits(), q.y.to_bits(), "{what}: vel[{i}].y");
        assert_eq!(p.z.to_bits(), q.z.to_bits(), "{what}: vel[{i}].z");
    }
}

#[test]
fn copper_trajectory_is_bit_identical_across_runs_and_threads() {
    let serial = run(false, 17, 1);
    let serial_again = run(false, 17, 1);
    assert_bit_identical(&serial, &serial_again, "copper 1t rerun");
    let threaded = run(false, 17, 4);
    assert_bit_identical(&serial, &threaded, "copper 1t vs 4t");
}

#[test]
fn water_trajectory_is_bit_identical_across_runs_and_threads() {
    let serial = run(true, 23, 1);
    let serial_again = run(true, 23, 1);
    assert_bit_identical(&serial, &serial_again, "water 1t rerun");
    let threaded = run(true, 23, 5);
    assert_bit_identical(&serial, &threaded, "water 1t vs 5t");
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the determinism tests passing vacuously (e.g. frozen
    // velocities): different seeds must give different trajectories.
    let a = run(false, 1, 2);
    let b = run(false, 2, 2);
    assert_ne!(
        a.0.last().unwrap().ke.to_bits(),
        b.0.last().unwrap().ke.to_bits(),
        "seeds 1 and 2 produced identical kinetic energy"
    );
}

/// FNV-1a (64-bit) over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `model` with every weight of both nets × 4 and every bias + 1.2: the
/// activations leave the near-linear regime an untrained model sits in.
fn stressed(mut model: DeepPotModel) -> DeepPotModel {
    let embs = model.embeddings.iter_mut().map(|e| &mut e.mlp);
    for mlp in embs.chain(model.fittings.iter_mut().map(|f| &mut f.mlp)) {
        for layer in &mut mlp.layers {
            layer.w.as_mut_slice().iter_mut().for_each(|w| *w *= 4.0);
            layer.b.iter_mut().for_each(|b| *b += 1.2);
        }
    }
    model
}

/// One force evaluation per row of the grid {Cu 256 on the copper model,
/// water 648 on the water model, Cu 256 on `tiny(1, 5.0)`} × {untrained,
/// stressed} × `precisions` × pool width {1, 3}: `(row name, FNV-1a of the
/// bits of energy, virial and every force component)`.
fn force_bit_rows(precisions: &[Precision]) -> Vec<(String, u64)> {
    let systems = [
        ("cu256_copper", Engine::builder().copper_cells(4), DeepPotConfig::copper()),
        ("water648_water", Engine::builder().water_cells(6), DeepPotConfig::water()),
        ("cu256_tiny", Engine::builder().copper_cells(4), DeepPotConfig::tiny(1, 5.0)),
    ];
    let mut rows = Vec::new();
    for (system, builder, cfg) in systems {
        for (weights, model) in [
            ("untrained", DeepPotModel::new(cfg.clone())),
            ("stressed", stressed(DeepPotModel::new(cfg.clone()))),
        ] {
            for &precision in precisions {
                for threads in [1usize, 3] {
                    let parts =
                        builder.clone().with_model(model.clone()).precision(precision).threads(threads).build_parts();
                    let (bx, mut atoms) = parts.initial_state();
                    // Off the lattice, so no force vanishes by symmetry.
                    for (k, p) in atoms.pos.iter_mut().enumerate() {
                        p.x += 0.05 * ((k % 7) as f64 - 3.0) / 3.0;
                        p.z += 0.04 * ((k % 5) as f64 - 2.0) / 2.0;
                    }
                    let mut nl = NeighborList::new(cfg.rcut, SKIN_A, ListKind::Full);
                    nl.build(&atoms, &bx);
                    let mut forces = vec![Vec3::ZERO; atoms.len()];
                    let out = parts.dp_engine().energy_forces(&atoms, &nl, &bx, &mut forces);
                    let finite = forces.iter().all(|f| f.x.is_finite() && f.y.is_finite() && f.z.is_finite());
                    assert!(out.energy.is_finite() && finite, "{system}/{weights}/{precision:?}: non-finite output");
                    let words = [out.energy.to_bits(), out.virial.to_bits()]
                        .into_iter()
                        .chain(forces.iter().flat_map(|f| [f.x, f.y, f.z].map(f64::to_bits)));
                    rows.push((format!("{system}/{weights}/{precision:?}/t{threads}"), fnv1a(words)));
                }
            }
        }
    }
    rows
}

fn force_bits_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/force_bits.json")
}

/// The Mix32 and Mix16 force pipelines reproduce the committed bits. A
/// change that reorders an f32 fold moves them; one that only restructures
/// the pipeline must not. Double is not pinned: the f64 model's activation
/// is libm `tanh`, whose bits depend on the host. Refresh after an
/// intentional change with `DPMD_BLESS=1 cargo test --test determinism golden`.
#[test]
fn mixed_precision_force_bits_match_the_golden() {
    let rows = force_bit_rows(&[Precision::Mix32, Precision::Mix16]);
    let body: Vec<String> = rows.iter().map(|(name, h)| format!("  \"{name}\": \"{h:016x}\"")).collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = force_bits_path();
    if std::env::var("DPMD_BLESS").is_ok() {
        std::fs::write(&path, &json).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with DPMD_BLESS=1 to create it", path.display())
    });
    assert_eq!(json, golden, "force bits drifted from {}; if intentional, re-bless with DPMD_BLESS=1", path.display());
    // Each row's two pool widths agree, so the golden is not a pair of
    // accidents.
    for pair in rows.chunks_exact(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
    }
}
