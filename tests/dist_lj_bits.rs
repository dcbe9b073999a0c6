//! The Lennard-Jones trajectory bits of the distributed driver and of the
//! single-box simulation, pinned to a committed golden file.
//!
//! `force_bits.json` pins one evaluation of the Deep Potential engine; no
//! other test pins the bits of the LJ paths, whose every step runs the
//! cell-list neighbour build (ghost mode per rank, minimum image in one box),
//! the ghost exchange, migration, the LJ kernel and the integrator. Each row
//! hashes 30 strides of one fcc crystal with `rebuild_every` 10, so three
//! migrations run. Velocities come from an integer mixer scaled by a power
//! of two — no libm call — so the rows do not depend on the host. Refresh
//! after an intentional change with
//! `DPMD_BLESS=1 cargo test --test dist_lj_bits`.

use std::path::{Path, PathBuf};

use dpmd_repro::comm::driver::DistributedSim;
use dpmd_repro::comm::functional::ExchangeScheme;
use dpmd_repro::minimd::atoms::Atoms;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::integrate::VelocityVerlet;
use dpmd_repro::minimd::lattice::fcc_lattice;
use dpmd_repro::minimd::potential::lj::LennardJones;
use dpmd_repro::minimd::sim::Simulation;
use dpmd_repro::minimd::simbox::SimBox;
use dpmd_repro::minimd::units::FEMTOSECOND;
use dpmd_repro::minimd::vec3::Vec3;

const STRIDES: usize = 30;
const REBUILD_EVERY: u64 = 10;

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

/// splitmix64: a fixed integer mixer, the same on every host.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 6×6×6 fcc LJ crystal (864 atoms, 26.4 Å box) with velocities of up to
/// 2 Å/ps per component: an integer in [−1024, 1024] divided by 512, exact.
fn crystal() -> (SimBox, Atoms) {
    let (bx, mut atoms) = fcc_lattice(6, 6, 6, 4.4);
    for i in 0..atoms.nlocal {
        let id = atoms.id[i];
        let c = |d: u64| ((mix(3 * id + d) % 2049) as f64 - 1024.0) / 512.0;
        atoms.vel[i] = Vec3::new(c(0), c(1), c(2));
    }
    (bx, atoms)
}

fn lj() -> LennardJones {
    LennardJones::new(0.0104, 3.4, 5.0)
}

fn vv() -> VelocityVerlet {
    VelocityVerlet::new(2.0 * FEMTOSECOND)
}

/// The words a row hashes: per-stride pe/ke bits, then the final ids,
/// position and velocity bits in id order.
fn state_words(energies: &[(f64, f64)], atoms: &Atoms) -> Vec<u64> {
    let mut words: Vec<u64> = energies.iter().flat_map(|&(pe, ke)| [pe.to_bits(), ke.to_bits()]).collect();
    let mut order: Vec<usize> = (0..atoms.nlocal).collect();
    order.sort_by_key(|&i| atoms.id[i]);
    for i in order {
        let (p, v) = (atoms.pos[i], atoms.vel[i]);
        words.push(atoms.id[i]);
        words.extend([p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits));
    }
    words
}

fn distributed_row(scheme: ExchangeScheme) -> u64 {
    let (bx, global) = crystal();
    let lj = lj();
    let mut sim = DistributedSim::new(Decomposition::new(bx, [2, 2, 2]), &global, &lj, vv(), scheme, REBUILD_EVERY);
    let owners = |s: &DistributedSim<'_>| {
        let mut rows: Vec<(u64, usize)> =
            s.ranks.iter().enumerate().flat_map(|(r, a)| a.id[..a.nlocal].iter().map(move |&id| (id, r))).collect();
        rows.sort_unstable();
        rows
    };
    let before = owners(&sim);
    let energies: Vec<(f64, f64)> = (0..STRIDES).map(|_| sim.stride()).collect();
    let moved = before.iter().zip(&owners(&sim)).filter(|(a, b)| a != b).count();
    assert!(moved > 0, "{scheme:?}: no atom migrated, so the row pins no migration");
    fnv1a(state_words(&energies, &sim.gather()))
}

fn single_box_row() -> u64 {
    let (bx, atoms) = crystal();
    let mut sim = Simulation::new(bx, atoms, Box::new(lj()), vv(), 1.0, REBUILD_EVERY);
    let energies: Vec<(f64, f64)> = (0..STRIDES)
        .map(|_| {
            let t = sim.step();
            (t.pe, t.ke)
        })
        .collect();
    fnv1a(state_words(&energies, &sim.atoms))
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dist_lj_bits.json")
}

/// Every LJ path reproduces the committed bits: a change that only makes a
/// path faster (a cheaper neighbour scan, a leaner exchange) must leave the
/// file byte-identical.
#[test]
fn distributed_lj_bits_match_the_golden() {
    let rows = [
        ("dist/RankP2p", distributed_row(ExchangeScheme::RankP2p)),
        ("dist/NodeBased", distributed_row(ExchangeScheme::NodeBased)),
        ("single_box", single_box_row()),
    ];
    let body: Vec<String> = rows.iter().map(|(name, h)| format!("  \"{name}\": \"{h:016x}\"")).collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = golden_path();
    if std::env::var("DPMD_BLESS").is_ok() {
        std::fs::write(&path, &json).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with DPMD_BLESS=1 to create it", path.display())
    });
    assert_eq!(json, golden, "LJ bits drifted from {}; if intentional, re-bless with DPMD_BLESS=1", path.display());
    // Both exchange schemes deliver bitwise-identical ghosts, so their rows
    // agree; a disagreement means one row pins an accident.
    assert_eq!(rows[0].1, rows[1].1, "RankP2p vs NodeBased");
}
