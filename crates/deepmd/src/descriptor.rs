//! The smoothed local environment (paper Fig. 1a).
//!
//! For central atom `i` and each neighbour `j` within `r_c`, the generalized
//! coordinates are
//!
//! ```text
//! R̃_j = ( s(r),  s(r)·x/r,  s(r)·y/r,  s(r)·z/r ),   (x,y,z) = r_j − r_i
//! ```
//!
//! where `s(r)` is the smooth switching weight: `1/r` inside `r_cs`, a C²
//! polynomial taper between `r_cs` and `r_c`, zero outside. Smoothness of
//! `s` is what makes Deep Potential forces conservative across neighbour-
//! list changes.

use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;

/// `s(r)` and its derivative `ds/dr`.
///
/// DeePMD-kit's smoothing: with `u = (r − r_cs)/(r_c − r_cs)`,
/// `s = 1/r` for `r < r_cs`; `s = [u³(−6u² + 15u − 10) + 1]/r` on the taper;
/// `0` beyond `r_c`.
pub fn smooth(r: f64, rcut_smth: f64, rcut: f64) -> (f64, f64) {
    debug_assert!(r > 0.0);
    if r >= rcut {
        (0.0, 0.0)
    } else if r < rcut_smth {
        (1.0 / r, -1.0 / (r * r))
    } else {
        let du_dr = 1.0 / (rcut - rcut_smth);
        let u = (r - rcut_smth) * du_dr;
        let poly = u * u * u * (-6.0 * u * u + 15.0 * u - 10.0) + 1.0;
        let dpoly_du = u * u * (-30.0 * u * u + 60.0 * u - 30.0);
        let s = poly / r;
        let ds = dpoly_du * du_dr / r - poly / (r * r);
        (s, ds)
    }
}

/// One neighbour's contribution to the environment of a central atom.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvEntry {
    /// Index of the neighbour in the atom arrays (may be a ghost).
    pub j: u32,
    /// Species of the neighbour.
    pub typ: u32,
    /// Displacement `r_j − r_i`, Å.
    pub disp: Vec3,
    /// Distance, Å.
    pub r: f64,
    /// Switching weight `s(r)`.
    pub s: f64,
    /// `ds/dr`.
    pub ds_dr: f64,
}

impl EnvEntry {
    /// The four generalized coordinates `R̃ = (s, s·x/r, s·y/r, s·z/r)`.
    #[inline]
    pub fn coords(&self) -> [f64; 4] {
        let f = self.s / self.r;
        [self.s, f * self.disp.x, f * self.disp.y, f * self.disp.z]
    }

    /// Gradient of each generalized coordinate w.r.t. the displacement
    /// vector `d = r_j − r_i`: a 4×3 Jacobian.
    pub fn coord_grads(&self) -> [[f64; 3]; 4] {
        let d = self.disp;
        let r = self.r;
        let inv_r = 1.0 / r;
        let s = self.s;
        let ds = self.ds_dr;
        // ∂s/∂d = s'(r) · d/r
        let dsdd = [ds * d.x * inv_r, ds * d.y * inv_r, ds * d.z * inv_r];
        let mut out = [[0.0; 3]; 4];
        out[0] = dsdd;
        // c_k = s · d_k / r  (k = x,y,z)
        // ∂c_k/∂d_l = (s'·d_l/r)(d_k/r) + s·(δ_kl/r − d_k d_l/r³)
        let comps = [d.x, d.y, d.z];
        for k in 0..3 {
            for l in 0..3 {
                let delta = if k == l { 1.0 } else { 0.0 };
                out[k + 1][l] = dsdd[l] * comps[k] * inv_r
                    + s * (delta * inv_r - comps[k] * comps[l] * inv_r * inv_r * inv_r);
            }
        }
        out
    }
}

/// The environment of one central atom: its neighbours within `r_c`.
#[derive(Clone, Debug, Default)]
pub struct Environment {
    /// Entries, in neighbour-list order.
    pub entries: Vec<EnvEntry>,
}

/// Append the environment of local atom `i` to `out`: one entry per
/// neighbour within `rcut`, in neighbour-list order. Nothing already in
/// `out` is touched.
///
/// Distances beyond `rcut` are filtered here (the Verlet list includes the
/// skin). Ghost-aware: displacements are direct when ghosts are present,
/// minimum-image otherwise. The f64 model builds its entries with it
/// (through [`build_environments_on`]), and it is the scalar reference the
/// mixed-precision engine's f64 environment columns are pinned to, field
/// for field and bit for bit (`tile_columns_are_the_reference_environment_bitwise`):
/// the engine computes the same expressions lane-wise in `dpmd-simd`, so
/// a bug in those kernels cannot hide in the oracle.
pub fn push_environment(
    atoms: &Atoms,
    nl: &NeighborList,
    bx: &SimBox,
    i: usize,
    rcut_smth: f64,
    rcut: f64,
    out: &mut Vec<EnvEntry>,
) {
    let use_min_image = atoms.nghost() == 0;
    let rc2 = rcut * rcut;
    for &ju in nl.neighbors(i) {
        let j = ju as usize;
        let disp = if use_min_image {
            bx.min_image(atoms.pos[j], atoms.pos[i])
        } else {
            atoms.pos[j] - atoms.pos[i]
        };
        let r2 = disp.norm2();
        if r2 > rc2 || r2 == 0.0 {
            continue;
        }
        let r = r2.sqrt();
        let (s, ds_dr) = smooth(r, rcut_smth, rcut);
        out.push(EnvEntry { j: ju, typ: atoms.typ[j], disp, r, s, ds_dr });
    }
}

/// Build environments for every local atom from the neighbour list
/// ([`push_environment`] per atom).
///
/// Atoms are chunked by the even-split policy (a function of the atom
/// count only) and each chunk's environments are concatenated in chunk
/// order, so the output is identical — entry for entry — for any pool
/// width: each atom's environment depends on that atom alone.
pub fn build_environments_on(
    pool: &dpmd_threads::ThreadPool,
    atoms: &Atoms,
    nl: &NeighborList,
    bx: &SimBox,
    rcut_smth: f64,
    rcut: f64,
) -> Vec<Environment> {
    let env_of = |i: usize| {
        let mut entries = Vec::with_capacity(nl.neighbors(i).len()); // dpmd-allow D7: per-atom neighbour entries retained in the Environment output
        push_environment(atoms, nl, bx, i, rcut_smth, rcut, &mut entries);
        Environment { entries }
    };
    let chunks = dpmd_threads::atom_chunks(atoms.nlocal);
    let mut parts: Vec<Vec<Environment>> =
        chunks.iter().map(|c| Vec::with_capacity(c.len())).collect(); // dpmd-allow D7: O(chunks) staging per descriptor pass
    let env_of = &env_of;
    pool.scope(|sc| {
        for (range, part) in chunks.iter().zip(parts.iter_mut()) {
            let range = range.clone(); // dpmd-allow D7: Range clone is Copy-sized, no heap
            sc.spawn(move || part.extend(range.map(env_of)));
        }
    });
    parts.into_iter().flatten().collect() // dpmd-allow D7: per-pass output assembly, O(atoms) once per step
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::lattice::fcc_copper;
    use minimd::neighbor::{ListKind, NeighborList};

    fn envs_of(atoms: &Atoms, nl: &NeighborList, bx: &SimBox) -> Vec<Environment> {
        build_environments_on(&dpmd_threads::ThreadPool::new(2), atoms, nl, bx, 0.5, 6.0)
    }

    #[test]
    fn smooth_is_continuous_at_both_knots() {
        let (rs, rc) = (2.0, 6.0);
        let eps = 1e-9;
        // At r_cs: s must equal 1/r from both sides.
        let (below, _) = smooth(rs - eps, rs, rc);
        let (above, _) = smooth(rs + eps, rs, rc);
        assert!((below - above).abs() < 1e-6);
        // At r_c: taper reaches exactly zero.
        let (at_rc, d_at_rc) = smooth(rc - 1e-12, rs, rc);
        assert!(at_rc.abs() < 1e-9);
        assert!(d_at_rc.abs() < 1e-6, "C1 at the cutoff");
        assert_eq!(smooth(rc + 0.1, rs, rc), (0.0, 0.0));
    }

    #[test]
    fn smooth_derivative_matches_finite_difference() {
        let (rs, rc) = (0.5, 6.0);
        let h = 1e-7;
        for &r in &[0.8, 1.5, 2.5, 4.0, 5.5, 5.99] {
            let (_, ds) = smooth(r, rs, rc);
            let (sp, _) = smooth(r + h, rs, rc);
            let (sm, _) = smooth(r - h, rs, rc);
            let fd = (sp - sm) / (2.0 * h);
            assert!((fd - ds).abs() < 1e-5, "r={r}: fd={fd}, ds={ds}");
        }
    }

    #[test]
    fn coord_grads_match_finite_difference() {
        let (rs, rc) = (0.5, 6.0);
        let base = Vec3::new(1.2, -0.7, 2.1);
        let h = 1e-7;
        let entry_at = |d: Vec3| {
            let r = d.norm();
            let (s, ds_dr) = smooth(r, rs, rc);
            EnvEntry { j: 0, typ: 0, disp: d, r, s, ds_dr }
        };
        let grads = entry_at(base).coord_grads();
        #[allow(clippy::needless_range_loop)] // comp/axis jointly index grads and coords
        for comp in 0..4 {
            for axis in 0..3 {
                let mut dp = base;
                dp[axis] += h;
                let mut dm = base;
                dm[axis] -= h;
                let fd = (entry_at(dp).coords()[comp] - entry_at(dm).coords()[comp]) / (2.0 * h);
                assert!(
                    (fd - grads[comp][axis]).abs() < 1e-6,
                    "comp {comp} axis {axis}: fd={fd} an={}",
                    grads[comp][axis]
                );
            }
        }
    }

    #[test]
    fn environments_filter_skin_pairs() {
        let (bx, atoms) = fcc_copper(5, 5, 5);
        let mut nl = NeighborList::new(6.0, 2.0, ListKind::Full);
        nl.build(&atoms, &bx);
        let envs = envs_of(&atoms, &nl, &bx);
        assert_eq!(envs.len(), atoms.nlocal);
        for (i, env) in envs.iter().enumerate() {
            // Every entry strictly inside the cutoff.
            assert!(env.entries.iter().all(|e| e.r <= 6.0));
            // The Verlet list over-counts (skin); the env must be smaller.
            assert!(env.entries.len() <= nl.neighbors(i).len());
            // FCC at rc=6 Å: shells at a/√2, a, a√1.5, a√2, a√2.5 hold
            // 12+6+24+12+24 = 78 neighbours.
            assert_eq!(env.entries.len(), 78, "atom {i}");
        }
    }

    /// `push_environment` only appends: atom after atom into one buffer
    /// that starts with a sentinel (as a tile's scratch does), the sentinel
    /// survives and each atom's run equals `build_environments_on`'s
    /// environment of that atom, entry for entry. On a min-image cell and
    /// on the same cell carried as locals plus ghost images.
    #[test]
    fn push_environment_appends_what_build_environments_builds() {
        let (bx, [periodic, ghosted]) = cu_periodic_and_ghosted();
        let sentinel = EnvEntry { j: u32::MAX, typ: 9, disp: Vec3::ZERO, r: -1.0, s: 0.0, ds_dr: 0.0 };
        for atoms in [&periodic, &ghosted] {
            let mut nl = NeighborList::new(6.0, 0.5, ListKind::Full);
            nl.build(atoms, &bx);
            let envs = envs_of(atoms, &nl, &bx);
            let mut out = vec![sentinel];
            for (i, env) in envs.iter().enumerate() {
                let at = out.len();
                push_environment(atoms, &nl, &bx, i, 0.5, 6.0, &mut out);
                assert_eq!(&out[at..], &env.entries[..], "atom {i}, {} ghosts", atoms.nghost());
                assert_eq!(env.entries.len(), 78, "atom {i}, {} ghosts", atoms.nghost());
            }
            let all: Vec<EnvEntry> = envs.iter().flat_map(|e| e.entries.iter().copied()).collect();
            assert_eq!(out[0], sentinel);
            assert_eq!(&out[1..], &all[..], "{} ghosts: earlier runs were rewritten", atoms.nghost());
        }
    }

    /// A 4×4×4 fcc Cu cell twice: as it is (minimum image), and carried
    /// as locals plus every ghost image within 6.5 Å of the box.
    fn cu_periodic_and_ghosted() -> (SimBox, [Atoms; 2]) {
        let (bx, periodic) = fcc_copper(4, 4, 4);
        let mut ghosted = periodic.clone();
        let (l, reach) = (bx.lengths(), 6.5);
        for i in 0..periodic.nlocal {
            for shift in (0..27).filter(|&s| s != 13) {
                let k = [shift % 3, shift / 3 % 3, shift / 9].map(|d| d as f64 - 1.0);
                let p = periodic.pos[i] + Vec3::new(k[0] * l.x, k[1] * l.y, k[2] * l.z);
                if (0..3).all(|d| p[d] > bx.lo[d] - reach && p[d] < bx.hi[d] + reach) {
                    ghosted.push_ghost(periodic.id[i], periodic.typ[i], p);
                }
            }
        }
        assert!(ghosted.nghost() > 0);
        (bx, [periodic, ghosted])
    }

    /// The bits of every field of an entry.
    fn entry_bits(e: &EnvEntry) -> (u32, u32, [u64; 6]) {
        (e.j, e.typ, [e.disp.x, e.disp.y, e.disp.z, e.r, e.s, e.ds_dr].map(f64::to_bits))
    }

    /// The mixed engine's tile columns are this module's reference, bit for
    /// bit. In every tile, atom `i`'s entries are [`push_environment`]'s, field
    /// for field; the tile's f32 R̃ is [`EnvEntry::coords`] rounded; and
    /// `dpmd_simd::env_proj_f64` over the columns is the projection through
    /// [`EnvEntry::coord_grads`] (`∂E/∂s·∂s/∂d + Σ_c ∂E/∂R̃_c·∂R̃_c/∂d`,
    /// folded in that order) for arbitrary ∂E/∂s and ∂E/∂R̃. One scratch
    /// serves every tile, as a reused one would. On a min-image Cu cell, the
    /// same cell carried as ghosts, and a two-species water box, whose O–H
    /// pairs sit inside `r_cs`.
    #[test]
    fn tile_columns_are_the_reference_environment_bitwise() {
        use crate::config::DeepPotConfig;
        use crate::engine::{DpEngine, TileScratch};
        use crate::model::DeepPotModel;
        use nnet::precision::Precision;

        let (cu_bx, [periodic, ghosted]) = cu_periodic_and_ghosted();
        let (w_bx, water) = minimd::lattice::water_box(3, 3, 3, 31);
        let cu = DeepPotConfig::tiny(1, 6.0);
        let systems = [
            ("Cu", cu.clone(), &cu_bx, &periodic),
            ("Cu, ghosts", cu, &cu_bx, &ghosted),
            ("water", DeepPotConfig::tiny(2, 4.0), &w_bx, &water),
        ];
        let (mut inner, mut species) = (0usize, [0usize; 2]);
        let mut s = TileScratch::default();
        let mut want = Vec::new();
        for (name, cfg, bx, atoms) in systems {
            let mut nl = NeighborList::new(cfg.rcut, 0.5, ListKind::Full);
            nl.build(atoms, bx);
            let engine = DpEngine::new(DeepPotModel::new(cfg.clone()), Precision::Mix32);
            for tile in dpmd_threads::atom_chunks(atoms.nlocal) {
                engine.describe_tile(atoms, &nl, bx, tile.clone(), &mut s);
                assert_eq!(s.off.len(), tile.len() + 1, "{name}");
                assert_eq!(s.env.r.len(), s.off[tile.len()], "{name}: columns past the last atom");
                for (l, i) in tile.enumerate() {
                    want.clear();
                    push_environment(atoms, &nl, bx, i, cfg.rcut_smth, cfg.rcut, &mut want);
                    let (at, n) = (s.off[l], s.off[l + 1] - s.off[l]);
                    assert_eq!(n, want.len(), "{name} atom {i}: entry count");
                    let env = &s.env;
                    for (k, e) in want.iter().enumerate() {
                        let c = at + k;
                        let disp = Vec3::new(env.d[0][c], env.d[1][c], env.d[2][c]);
                        let got = EnvEntry { j: env.j[c], typ: env.typ[c], disp, r: env.r[c], s: env.s[c], ds_dr: env.ds_dr[c] };
                        assert_eq!(entry_bits(&got), entry_bits(e), "{name} atom {i} entry {k}");
                        inner += usize::from(e.r < cfg.rcut_smth);
                        species[e.typ as usize] += 1;
                    }

                    let mut rt = vec![f32::NAN; 4 * n];
                    env.rt_f32(at, n, &mut rt);
                    for (k, e) in want.iter().enumerate() {
                        for (c, v) in e.coords().into_iter().enumerate() {
                            assert_eq!(rt[c * n + k].to_bits(), (v as f32).to_bits(), "{name} atom {i} entry {k} R̃{c}");
                        }
                    }

                    let wave = |x: usize| ((x * 7919 + i * 104_729) % 2001) as f32 / 1000.0 - 1.0;
                    let de_ds: Vec<f32> = (0..n).map(wave).collect();
                    let de_drt: Vec<f32> = (0..4 * n).map(|x| wave(x + n)).collect();
                    let mut got = [vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]];
                    let [gx, gy, gz] = &mut got;
                    dpmd_simd::env_proj_f64(env.cols(at, n), &de_ds, &de_drt, [gx, gy, gz]);
                    for (k, e) in want.iter().enumerate() {
                        let grads = e.coord_grads();
                        let inv_r = 1.0 / e.r;
                        let dsdd = [e.ds_dr * e.disp.x * inv_r, e.ds_dr * e.disp.y * inv_r, e.ds_dr * e.disp.z * inv_r];
                        for (axis, col) in got.iter().enumerate() {
                            let mut v = de_ds[k] as f64 * dsdd[axis];
                            for (c, g) in grads.iter().enumerate() {
                                v += de_drt[c * n + k] as f64 * g[axis];
                            }
                            assert_eq!(col[k].to_bits(), v.to_bits(), "{name} atom {i} entry {k} ∂E/∂d axis {axis}");
                        }
                    }
                }
            }
        }
        assert!(inner > 0 && species.iter().all(|&c| c > 0), "inner {inner}, per species {species:?}");
    }

    #[test]
    fn environment_is_translation_invariant() {
        let (bx, mut atoms) = fcc_copper(5, 5, 5);
        let mut nl = NeighborList::new(6.0, 1.0, ListKind::Full);
        nl.build(&atoms, &bx);
        let before = envs_of(&atoms, &nl, &bx);
        // Rigid translation (with wrap): all environments identical.
        for p in &mut atoms.pos {
            *p = bx.wrap(*p + Vec3::new(1.37, -2.2, 0.64));
        }
        nl.build(&atoms, &bx);
        let after = envs_of(&atoms, &nl, &bx);
        for (a, b) in before.iter().zip(&after) {
            // Sort coordinates because neighbour order may differ.
            let mut ca: Vec<_> = a.entries.iter().map(|e| (e.r * 1e8).round() as i64).collect();
            let mut cb: Vec<_> = b.entries.iter().map(|e| (e.r * 1e8).round() as i64).collect();
            ca.sort_unstable();
            cb.sort_unstable();
            assert_eq!(ca, cb);
        }
    }
}
