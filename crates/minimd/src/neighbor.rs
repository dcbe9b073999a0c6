//! Cell-list and Verlet neighbour lists with skin.
//!
//! The paper's systems use a 2 Å skin and rebuild the list every 50 steps
//! (§IV); between rebuilds the same list is reused, so atoms may drift up to
//! skin/2 before correctness requires a rebuild. Both a *half* list (each
//! pair stored once, for Newton-on analytic pair potentials) and a *full*
//! list (each atom sees all its neighbours, the form the DeePMD environment
//! matrix consumes) are supported.

use crate::atoms::Atoms;
use crate::simbox::SimBox;
use crate::vec3::Vec3;

/// Whether each pair appears once (half) or twice (full).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// Pair `(i, j)` stored only on `min(i, j)`.
    Half,
    /// Pair stored on both atoms — required by the DeePMD descriptor.
    Full,
}

/// A compressed-sparse-row Verlet neighbour list over the local atoms.
#[derive(Clone, Debug)]
pub struct NeighborList {
    /// Interaction cutoff, Å.
    pub cutoff: f64,
    /// Verlet skin, Å.
    pub skin: f64,
    /// Half or full list.
    pub kind: ListKind,
    /// CSR offsets, length `nlocal + 1`.
    pub offsets: Vec<usize>,
    /// Flattened neighbour indices (into the full local+ghost array).
    pub list: Vec<u32>,
    /// Positions at the last build (locals only), for the drift check.
    ref_pos: Vec<Vec3>,
    /// Number of builds performed (observable for rebuild-policy tests).
    pub builds: u64,
}

impl NeighborList {
    /// An empty list with the given parameters.
    pub fn new(cutoff: f64, skin: f64, kind: ListKind) -> Self {
        assert!(cutoff > 0.0 && skin >= 0.0);
        NeighborList { cutoff, skin, kind, offsets: vec![0], list: Vec::new(), ref_pos: Vec::new(), builds: 0 }
    }

    /// Neighbours of local atom `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.list[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of local atoms the list covers.
    #[inline]
    pub fn natoms(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored pairs (directed).
    #[inline]
    pub fn total_neighbors(&self) -> usize {
        self.list.len()
    }

    /// `true` if some local atom moved more than skin/2 since the last
    /// build — the classic Verlet-list safety criterion.
    pub fn needs_rebuild(&self, atoms: &Atoms, bx: &SimBox) -> bool {
        if self.ref_pos.len() != atoms.nlocal {
            return true;
        }
        let limit2 = (0.5 * self.skin) * (0.5 * self.skin);
        atoms.pos[..atoms.nlocal]
            .iter()
            .zip(&self.ref_pos)
            .any(|(&p, &q)| bx.min_image(p, q).norm2() > limit2)
    }

    /// Build the list.
    ///
    /// If `atoms` carries ghosts, plain Euclidean distances are used and
    /// neighbours may be ghosts (the distributed path). Without ghosts,
    /// minimum-image convention applies (the single-box path).
    pub fn build(&mut self, atoms: &Atoms, bx: &SimBox) {
        let rlist = self.cutoff + self.skin;
        let l = bx.lengths();
        let use_min_image = atoms.nghost() == 0;
        let ncx = (l.x / rlist).floor() as usize;
        let ncy = (l.y / rlist).floor() as usize;
        let ncz = (l.z / rlist).floor() as usize;
        if use_min_image && (ncx < 3 || ncy < 3 || ncz < 3) {
            self.build_n2(atoms, bx);
        } else {
            self.build_cells(atoms, bx, use_min_image);
        }
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(&atoms.pos[..atoms.nlocal]);
        self.builds += 1;
    }

    /// O(N²) reference build (small boxes, and the oracle for tests).
    fn build_n2(&mut self, atoms: &Atoms, bx: &SimBox) {
        let rlist2 = (self.cutoff + self.skin) * (self.cutoff + self.skin);
        let n = atoms.len();
        let nlocal = atoms.nlocal;
        let use_min_image = atoms.nghost() == 0;
        self.offsets.clear();
        self.offsets.push(0);
        self.list.clear();
        for i in 0..nlocal {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if self.kind == ListKind::Half && j < nlocal && j < i {
                    continue;
                }
                let d2 = if use_min_image {
                    bx.dist2(atoms.pos[i], atoms.pos[j])
                } else {
                    (atoms.pos[i] - atoms.pos[j]).norm2()
                };
                if d2 <= rlist2 {
                    self.list.push(j as u32);
                }
            }
            self.offsets.push(self.list.len());
        }
    }

    /// Cell-list build: O(N) binning, 27-stencil scan.
    fn build_cells(&mut self, atoms: &Atoms, bx: &SimBox, use_min_image: bool) {
        let rlist = self.cutoff + self.skin;
        let rlist2 = rlist * rlist;
        let n = atoms.len();
        let nlocal = atoms.nlocal;

        // Cell grid over the bounding region of all atoms (ghosts can lie
        // outside the primary box).
        let (mut lo, mut hi) = (bx.lo, bx.hi);
        if !use_min_image {
            for &p in &atoms.pos {
                lo = lo.min(p);
                hi = hi.max(p);
            }
            // Nudge the upper corner so max-coordinate atoms bin inside.
            hi += Vec3::splat(1e-9);
        }
        let ext = hi - lo;
        let nc = [
            ((ext.x / rlist).floor() as usize).max(1),
            ((ext.y / rlist).floor() as usize).max(1),
            ((ext.z / rlist).floor() as usize).max(1),
        ];
        let inv_cell = Vec3::new(nc[0] as f64 / ext.x, nc[1] as f64 / ext.y, nc[2] as f64 / ext.z);
        let cell_of = |p: Vec3| -> [usize; 3] {
            let mut c = [0usize; 3];
            for d in 0..3 {
                let f = ((p[d] - lo[d]) * inv_cell[d]).floor();
                c[d] = (f.max(0.0) as usize).min(nc[d] - 1);
            }
            c
        };
        // Counting sort of atoms into cells.
        let ncell = nc[0] * nc[1] * nc[2];
        let lin = |c: [usize; 3]| (c[2] * nc[1] + c[1]) * nc[0] + c[0];
        let mut count = vec![0usize; ncell + 1]; // dpmd-allow D7: counting-sort bins, rebuilt only at neighbour-list cadence
        let mut cell_idx = vec![0usize; n]; // dpmd-allow D7: counting-sort bins, rebuilt only at neighbour-list cadence
        for (a, &p) in atoms.pos.iter().enumerate() {
            let c = lin(cell_of(p));
            cell_idx[a] = c;
            count[c + 1] += 1;
        }
        for c in 0..ncell {
            count[c + 1] += count[c];
        }
        let mut bins = vec![0u32; n]; // dpmd-allow D7: counting-sort bins, rebuilt only at neighbour-list cadence
        let mut cursor = count.clone(); // dpmd-allow D7: cursor copy at neighbour-list rebuild cadence
        for (a, &c) in cell_idx.iter().enumerate() {
            bins[cursor[c]] = a as u32;
            cursor[c] += 1;
        }

        let mut stencil: Vec<(i64, i64, i64)> = Vec::with_capacity(27); // dpmd-allow D7: 27-entry stencil at neighbour-list rebuild cadence
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    stencil.push((dx, dy, dz));
                }
            }
        }

        // Stencil scan, atom by atom, straight into the CSR arrays.
        self.offsets.clear();
        self.offsets.push(0);
        self.list.clear();
        for i in 0..nlocal {
            let ci = cell_of(atoms.pos[i]);
            let atom_start = self.list.len();
            for &(dx, dy, dz) in &stencil {
                let mut cc = [0usize; 3];
                let mut skip = false;
                for (d, delta) in [dx, dy, dz].into_iter().enumerate() {
                    let raw = ci[d] as i64 + delta;
                    if use_min_image {
                        // Periodic wrap of the cell index.
                        cc[d] = raw.rem_euclid(nc[d] as i64) as usize;
                    } else if raw < 0 || raw >= nc[d] as i64 {
                        skip = true;
                        break;
                    } else {
                        cc[d] = raw as usize;
                    }
                }
                if skip {
                    continue;
                }
                let c = lin(cc);
                for &ju in &bins[count[c]..count[c + 1]] {
                    let j = ju as usize;
                    if j == i {
                        continue;
                    }
                    if self.kind == ListKind::Half && j < nlocal && j < i {
                        continue;
                    }
                    let d2 = if use_min_image {
                        bx.dist2(atoms.pos[i], atoms.pos[j])
                    } else {
                        (atoms.pos[i] - atoms.pos[j]).norm2()
                    };
                    if d2 <= rlist2 {
                        self.list.push(ju);
                    }
                }
            }
            // With periodic cell wrap and fewer than 3 cells per dimension a
            // neighbour cell can be visited twice; dedup the freshly added
            // span to stay correct in that regime. The sort also fixes each
            // atom's neighbour order (ascending index), which every
            // order-sensitive f64 sum downstream inherits.
            let span = &mut self.list[atom_start..];
            span.sort_unstable();
            let mut w = 0;
            for r in 0..span.len() {
                if r == 0 || span[r] != span[w - 1] {
                    span[w] = span[r];
                    w += 1;
                }
            }
            self.list.truncate(atom_start + w);
            self.offsets.push(self.list.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::fcc_copper;

    /// Exact CSR equality with the O(N²) build, whose per-atom order is
    /// ascending index: neighbour *order*, not just membership, is what
    /// every trajectory bit downstream rests on.
    #[test]
    fn cell_list_matches_n2_oracle() {
        let (bx, periodic) = fcc_copper(5, 5, 5);
        // The ghost regime: the same cell plus every periodic image within
        // the list range of the box, stored as ghosts.
        let mut ghosted = periodic.clone();
        let (l, rlist) = (bx.lengths(), 4.5);
        for i in 0..periodic.nlocal {
            for shift in (0..27).filter(|&s| s != 13) {
                let k = [shift % 3, shift / 3 % 3, shift / 9].map(|d| d as f64 - 1.0);
                let p = periodic.pos[i] + Vec3::new(k[0] * l.x, k[1] * l.y, k[2] * l.z);
                if (0..3).all(|d| p[d] > bx.lo[d] - rlist && p[d] < bx.hi[d] + rlist) {
                    ghosted.push_ghost(periodic.id[i], periodic.typ[i], p);
                }
            }
        }
        assert!(ghosted.nghost() > 0);
        for atoms in [&periodic, &ghosted] {
            for kind in [ListKind::Half, ListKind::Full] {
                let mut oracle = NeighborList::new(4.0, 0.5, kind);
                oracle.build_n2(atoms, &bx);
                let mut cell = NeighborList::new(4.0, 0.5, kind);
                cell.build_cells(atoms, &bx, atoms.nghost() == 0);
                let what = format!("{kind:?}, {} ghosts", atoms.nghost());
                assert_eq!(oracle.natoms(), atoms.nlocal, "{what}");
                assert!(oracle.total_neighbors() > 0, "{what}");
                assert_eq!(oracle.offsets, cell.offsets, "{what}");
                assert_eq!(oracle.list, cell.list, "{what}");
            }
        }
    }

    #[test]
    fn fcc_coordination_numbers() {
        // FCC at cutoff between 1st (a/√2 ≈ 2.556) and 2nd (a ≈ 3.615)
        // shells must see exactly 12 neighbours per atom.
        let (bx, atoms) = fcc_copper(4, 4, 4);
        let mut nl = NeighborList::new(3.0, 0.0, ListKind::Full);
        nl.build(&atoms, &bx);
        for i in 0..atoms.nlocal {
            assert_eq!(nl.neighbors(i).len(), 12, "atom {i}");
        }
        // Including the 2nd shell (6 more) at cutoff 3.7.
        let mut nl2 = NeighborList::new(3.7, 0.0, ListKind::Full);
        nl2.build(&atoms, &bx);
        for i in 0..atoms.nlocal {
            assert_eq!(nl2.neighbors(i).len(), 18, "atom {i}");
        }
    }

    #[test]
    fn half_list_stores_each_pair_once() {
        let (bx, atoms) = fcc_copper(4, 4, 4);
        let mut half = NeighborList::new(3.0, 0.3, ListKind::Half);
        let mut full = NeighborList::new(3.0, 0.3, ListKind::Full);
        half.build(&atoms, &bx);
        full.build(&atoms, &bx);
        assert_eq!(2 * half.total_neighbors(), full.total_neighbors());
    }

    #[test]
    fn rebuild_triggers_on_drift() {
        let (bx, mut atoms) = fcc_copper(4, 4, 4);
        let mut nl = NeighborList::new(3.0, 1.0, ListKind::Full);
        nl.build(&atoms, &bx);
        assert!(!nl.needs_rebuild(&atoms, &bx));
        // Move one atom by 0.4 Å (< skin/2): still fine.
        atoms.pos[5].x += 0.4;
        assert!(!nl.needs_rebuild(&atoms, &bx));
        // Past skin/2: rebuild required.
        atoms.pos[5].x += 0.2;
        assert!(nl.needs_rebuild(&atoms, &bx));
        nl.build(&atoms, &bx);
        assert!(!nl.needs_rebuild(&atoms, &bx));
        assert_eq!(nl.builds, 2);
    }

    #[test]
    fn ghost_mode_uses_direct_distances() {
        use crate::atoms::{copper_species, Atoms};
        let bx = SimBox::cubic(20.0);
        let mut atoms = Atoms::new(copper_species());
        atoms.push_local(1, 0, Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO);
        // A ghost just outside the box (image of an atom owned elsewhere).
        atoms.push_ghost(2, 0, Vec3::new(-1.0, 1.0, 1.0));
        let mut nl = NeighborList::new(3.0, 0.0, ListKind::Full);
        nl.build(&atoms, &bx);
        assert_eq!(nl.neighbors(0), &[1]);
    }

    #[test]
    fn water_neighbor_budget_matches_paper_scale() {
        use crate::lattice::water_box;
        // Paper §IV: at rc = 6 Å the neighbour counts are ~46 per H and
        // ~92 per O in liquid water (list budgets). A fresh lattice-built box
        // approximates liquid density, so counts should be in that vicinity.
        let (bx, atoms) = water_box(6, 6, 6, 3);
        let mut nl = NeighborList::new(6.0, 0.0, ListKind::Full);
        nl.build(&atoms, &bx);
        let mut per_type = [0.0f64; 2];
        let mut cnt = [0usize; 2];
        for i in 0..atoms.nlocal {
            per_type[atoms.typ[i] as usize] += nl.neighbors(i).len() as f64;
            cnt[atoms.typ[i] as usize] += 1;
        }
        let avg_o = per_type[0] / cnt[0] as f64;
        let avg_h = per_type[1] / cnt[1] as f64;
        // All species see the same density ⇒ same mean count (~90 at 6 Å
        // with 0.1 atoms/Å³). The paper's per-species budgets are upper
        // bounds; check the right order of magnitude.
        assert!(avg_o > 60.0 && avg_o < 130.0, "O avg {avg_o}");
        assert!(avg_h > 60.0 && avg_h < 130.0, "H avg {avg_h}");
    }
}
