//! Spatial domain decomposition onto ranks and nodes.
//!
//! LAMMPS decomposes the box into one sub-box per MPI rank. The paper runs
//! 4 ranks per Fugaku node (one per CMG/NUMA domain); we mirror that by
//! splitting every *node-box* 2×2×1 into four rank sub-boxes, which
//! reproduces the paper's neighbour counts exactly:
//!
//! | sub-box side (× r_c) | rank neighbours | node neighbours |
//! |----------------------|-----------------|-----------------|
//! | [1, 1, 1]            | 26              | 26              |
//! | [0.5, 0.5, 1]        | 74              | 26              |
//! | [0.5, 0.5, 0.5]      | 124             | 44              |
//!
//! (rank: `∏(2·ceil(r_c/edge_d)+1) − 1`; node: same formula on the node-box.)

use serde::{Deserialize, Serialize};

use crate::atoms::Atoms;
use crate::simbox::SimBox;
use crate::vec3::Vec3;

/// A domain decomposition: node grid `nodes`, rank grid `ranks = [2nx, 2ny, nz]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Decomposition {
    /// The global periodic box.
    pub bx: SimBox,
    /// Node grid dimensions.
    pub nodes: [usize; 3],
    /// Rank grid dimensions (x and y split in two per node).
    pub ranks: [usize; 3],
}

/// Ranks per node (one per CMG on the A64FX).
pub const RANKS_PER_NODE: usize = 4;
/// Compute threads per rank (12 cores per CMG).
pub const THREADS_PER_RANK: usize = 12;
/// Compute cores per node.
pub const CORES_PER_NODE: usize = RANKS_PER_NODE * THREADS_PER_RANK;

impl Decomposition {
    /// Decompose `bx` over an `nx × ny × nz` node grid.
    ///
    /// # Panics
    /// If any grid dimension is zero.
    pub fn new(bx: SimBox, nodes: [usize; 3]) -> Self {
        assert!(nodes.iter().all(|&n| n > 0), "node grid must be positive");
        Decomposition { bx, nodes, ranks: [2 * nodes[0], 2 * nodes[1], nodes[2]] }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().product()
    }

    /// Total rank count.
    pub fn num_ranks(&self) -> usize {
        self.ranks.iter().product()
    }

    /// Total compute cores.
    pub fn num_cores(&self) -> usize {
        self.num_nodes() * CORES_PER_NODE
    }

    /// Rank grid coordinates of rank `r` (x fastest).
    #[inline]
    pub fn rank_coords(&self, r: usize) -> [usize; 3] {
        let [rx, ry, _] = self.ranks;
        [r % rx, (r / rx) % ry, r / (rx * ry)]
    }

    /// Rank id at grid coordinates (periodic wrap).
    #[inline]
    pub fn rank_at(&self, c: [i64; 3]) -> usize {
        let [rx, ry, rz] = self.ranks;
        let x = c[0].rem_euclid(rx as i64) as usize;
        let y = c[1].rem_euclid(ry as i64) as usize;
        let z = c[2].rem_euclid(rz as i64) as usize;
        (z * ry + y) * rx + x
    }

    /// Node grid coordinates of node `n`.
    #[inline]
    pub fn node_coords(&self, n: usize) -> [usize; 3] {
        let [nx, ny, _] = self.nodes;
        [n % nx, (n / nx) % ny, n / (nx * ny)]
    }

    /// Node id at grid coordinates (periodic wrap).
    #[inline]
    pub fn node_at(&self, c: [i64; 3]) -> usize {
        let [nx, ny, nz] = self.nodes;
        let x = c[0].rem_euclid(nx as i64) as usize;
        let y = c[1].rem_euclid(ny as i64) as usize;
        let z = c[2].rem_euclid(nz as i64) as usize;
        (z * ny + y) * nx + x
    }

    /// Node owning rank `r`.
    #[inline]
    pub fn rank_to_node(&self, r: usize) -> usize {
        let [cx, cy, cz] = self.rank_coords(r);
        self.node_at([(cx / 2) as i64, (cy / 2) as i64, cz as i64])
    }

    /// Index of rank `r` within its node (0..4) — the CMG it binds to.
    #[inline]
    pub fn rank_slot(&self, r: usize) -> usize {
        let [cx, cy, _] = self.rank_coords(r);
        (cy % 2) * 2 + (cx % 2)
    }

    /// The four ranks of node `n`, ordered by slot.
    pub fn node_ranks(&self, n: usize) -> [usize; RANKS_PER_NODE] {
        let [nx, ny, nz] = self.node_coords(n);
        let _ = nz;
        let base = [2 * nx as i64, 2 * ny as i64, self.node_coords(n)[2] as i64];
        [
            self.rank_at(base),
            self.rank_at([base[0] + 1, base[1], base[2]]),
            self.rank_at([base[0], base[1] + 1, base[2]]),
            self.rank_at([base[0] + 1, base[1] + 1, base[2]]),
        ]
    }

    /// Edge lengths of one rank sub-box.
    pub fn rank_edges(&self) -> Vec3 {
        let l = self.bx.lengths();
        Vec3::new(l.x / self.ranks[0] as f64, l.y / self.ranks[1] as f64, l.z / self.ranks[2] as f64)
    }

    /// Edge lengths of one node-box.
    pub fn node_edges(&self) -> Vec3 {
        let l = self.bx.lengths();
        Vec3::new(l.x / self.nodes[0] as f64, l.y / self.nodes[1] as f64, l.z / self.nodes[2] as f64)
    }

    /// `[lo, hi)` bounds of rank `r`'s sub-box.
    pub fn rank_box(&self, r: usize) -> (Vec3, Vec3) {
        let e = self.rank_edges();
        let c = self.rank_coords(r);
        let lo = self.bx.lo + Vec3::new(c[0] as f64 * e.x, c[1] as f64 * e.y, c[2] as f64 * e.z);
        (lo, lo + e)
    }

    /// `[lo, hi)` bounds of node `n`'s node-box.
    pub fn node_box(&self, n: usize) -> (Vec3, Vec3) {
        let e = self.node_edges();
        let c = self.node_coords(n);
        let lo = self.bx.lo + Vec3::new(c[0] as f64 * e.x, c[1] as f64 * e.y, c[2] as f64 * e.z);
        (lo, lo + e)
    }

    /// Rank owning position `p` (after wrapping into the box).
    pub fn rank_of_pos(&self, p: Vec3) -> usize {
        let p = self.bx.wrap(p);
        let e = self.rank_edges();
        let mut c = [0i64; 3];
        for d in 0..3 {
            let f = ((p[d] - self.bx.lo[d]) / e[d]).floor() as i64;
            c[d] = f.min(self.ranks[d] as i64 - 1).max(0);
        }
        self.rank_at(c)
    }

    /// Node owning position `p`.
    pub fn node_of_pos(&self, p: Vec3) -> usize {
        self.rank_to_node(self.rank_of_pos(p))
    }

    /// Histogram of local atoms per rank.
    pub fn counts_per_rank(&self, atoms: &Atoms) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_ranks()];
        for &p in &atoms.pos[..atoms.nlocal] {
            counts[self.rank_of_pos(p)] += 1;
        }
        counts
    }

    /// Histogram of local atoms per node.
    pub fn counts_per_node(&self, atoms: &Atoms) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_nodes()];
        for &p in &atoms.pos[..atoms.nlocal] {
            counts[self.node_of_pos(p)] += 1;
        }
        counts
    }

    /// Ghost-communication layers per direction for a box with `edges`:
    /// `ceil(r_c / edge_d)`, the number of sub-box shells the halo crosses.
    pub fn comm_layers(edges: Vec3, rc: f64) -> [usize; 3] {
        let mut l = [0usize; 3];
        for d in 0..3 {
            l[d] = (rc / edges[d]).ceil().max(1.0) as usize;
        }
        l
    }

    /// Neighbour ranks of `r` within cutoff `rc` (periodic, deduplicated,
    /// excluding `r` itself) — the peers of the p2p pattern.
    pub fn neighbor_ranks(&self, r: usize, rc: f64) -> Vec<usize> {
        let layers = Self::comm_layers(self.rank_edges(), rc);
        let c = self.rank_coords(r);
        self.enumerate_neighbors(
            [c[0] as i64, c[1] as i64, c[2] as i64],
            layers,
            self.ranks,
            |cc| self.rank_at(cc),
            r,
        )
    }

    /// Neighbour nodes of `n` within cutoff `rc` — the peers of the
    /// node-based scheme.
    pub fn neighbor_nodes(&self, n: usize, rc: f64) -> Vec<usize> {
        let layers = Self::comm_layers(self.node_edges(), rc);
        let c = self.node_coords(n);
        self.enumerate_neighbors(
            [c[0] as i64, c[1] as i64, c[2] as i64],
            layers,
            self.nodes,
            |cc| self.node_at(cc),
            n,
        )
    }

    fn enumerate_neighbors(
        &self,
        center: [i64; 3],
        layers: [usize; 3],
        grid: [usize; 3],
        id_of: impl Fn([i64; 3]) -> usize,
        exclude: usize,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for dx in -(layers[0] as i64)..=(layers[0] as i64) {
            for dy in -(layers[1] as i64)..=(layers[1] as i64) {
                for dz in -(layers[2] as i64)..=(layers[2] as i64) {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let id = id_of([center[0] + dx, center[1] + dy, center[2] + dz]);
                    if id != exclude {
                        out.push(id);
                    }
                }
            }
        }
        // Small grids alias under periodic wrap; keep each peer once.
        out.sort_unstable();
        out.dedup();
        let _ = grid;
        out
    }

    /// `true` if position `p` lies within `rc` of rank `r`'s sub-box
    /// (periodic) — i.e. `p` belongs in `r`'s ghost region.
    pub fn in_ghost_region_of_rank(&self, r: usize, p: Vec3, rc: f64) -> bool {
        let (lo, hi) = self.rank_box(r);
        self.point_near_box(p, lo, hi, rc)
    }

    /// `true` if position `p` lies within `rc` of node `n`'s node-box.
    pub fn in_ghost_region_of_node(&self, n: usize, p: Vec3, rc: f64) -> bool {
        let (lo, hi) = self.node_box(n);
        self.point_near_box(p, lo, hi, rc)
    }

    /// `true` if position `p` lies within `rc` of the box `[lo, hi)`
    /// (periodic). For callers that test many points against one
    /// [`rank_box`](Self::rank_box) / [`node_box`](Self::node_box) and
    /// compute it once.
    pub fn point_near_box(&self, p: Vec3, lo: Vec3, hi: Vec3, rc: f64) -> bool {
        let l = self.bx.lengths();
        let mut d2 = 0.0;
        for d in 0..3 {
            // Periodic distance from p to the interval [lo, hi) along axis d.
            let len = l[d];
            let mut dist = f64::MAX;
            for shift in [-len, 0.0, len] {
                let x = p[d] + shift;
                let dd = if x < lo[d] {
                    lo[d] - x
                } else if x > hi[d] {
                    x - hi[d]
                } else {
                    0.0
                };
                dist = dist.min(dd);
            }
            d2 += dist * dist;
        }
        d2 <= rc * rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::fcc_copper;

    fn decomp_96() -> Decomposition {
        // The paper's 96-node topology 4×6×4 over an arbitrary box.
        Decomposition::new(SimBox::new(64.0, 96.0, 64.0), [4, 6, 4])
    }

    #[test]
    fn grid_sizes() {
        let d = decomp_96();
        assert_eq!(d.num_nodes(), 96);
        assert_eq!(d.num_ranks(), 384);
        assert_eq!(d.num_cores(), 96 * 48);
    }

    #[test]
    fn rank_node_round_trip() {
        let d = decomp_96();
        for r in 0..d.num_ranks() {
            let n = d.rank_to_node(r);
            assert!(d.node_ranks(n).contains(&r), "rank {r} missing from node {n}");
            assert!(d.rank_slot(r) < RANKS_PER_NODE);
        }
        // Each node has exactly 4 distinct ranks.
        for n in 0..d.num_nodes() {
            let rs = d.node_ranks(n);
            let mut sorted = rs;
            sorted.sort_unstable();
            sorted.windows(2).for_each(|w| assert_ne!(w[0], w[1]));
            for r in rs {
                assert_eq!(d.rank_to_node(r), n);
            }
        }
    }

    #[test]
    fn paper_neighbor_counts_table() {
        // Construct boxes so the rank sub-box edge hits the three paper
        // configurations exactly, with rc = 8 Å.
        let rc = 8.0;
        // [1,1,1]·rc sub-box: rank edge = 8 ⇒ box = (2·4·8, 2·6·8, 4·8).
        let d1 = Decomposition::new(SimBox::new(64.0, 96.0, 32.0), [4, 6, 4]);
        assert_eq!(d1.neighbor_ranks(0, rc).len(), 26);
        assert_eq!(d1.neighbor_nodes(0, rc).len(), 26);
        // [0.5,0.5,1]·rc: rank edge = (4,4,8) ⇒ box = (32,48,32).
        let d2 = Decomposition::new(SimBox::new(32.0, 48.0, 32.0), [4, 6, 4]);
        assert_eq!(d2.neighbor_ranks(0, rc).len(), 74);
        assert_eq!(d2.neighbor_nodes(0, rc).len(), 26);
        // [0.5,0.5,0.5]·rc: rank edge = (4,4,4) ⇒ box = (32,48,32) over a
        // 4×6×8 node grid (z deep enough that the ±2-layer halo does not
        // alias around the torus).
        let d3 = Decomposition::new(SimBox::new(32.0, 48.0, 32.0), [4, 6, 8]);
        assert_eq!(d3.neighbor_ranks(0, rc).len(), 124);
        assert_eq!(d3.neighbor_nodes(0, rc).len(), 44);
    }

    #[test]
    fn every_atom_lands_in_its_rank_box() {
        let (bx, atoms) = fcc_copper(8, 8, 8);
        let d = Decomposition::new(bx, [2, 2, 2]);
        for i in 0..atoms.nlocal {
            let r = d.rank_of_pos(atoms.pos[i]);
            let (lo, hi) = d.rank_box(r);
            for k in 0..3 {
                assert!(atoms.pos[i][k] >= lo[k] - 1e-12 && atoms.pos[i][k] < hi[k] + 1e-12);
            }
        }
        // Counts add up.
        let counts = d.counts_per_rank(&atoms);
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), atoms.nlocal);
        let ncounts = d.counts_per_node(&atoms);
        assert_eq!(ncounts.iter().map(|&c| c as usize).sum::<usize>(), atoms.nlocal);
    }

    #[test]
    fn node_counts_are_sums_of_rank_counts() {
        let (bx, atoms) = fcc_copper(6, 6, 6);
        let d = Decomposition::new(bx, [3, 3, 3]);
        let rc_counts = d.counts_per_rank(&atoms);
        let node_counts = d.counts_per_node(&atoms);
        for (n, &count) in node_counts.iter().enumerate() {
            let sum: u32 = d.node_ranks(n).iter().map(|&r| rc_counts[r]).sum();
            assert_eq!(sum, count, "node {n}");
        }
    }

    #[test]
    fn ghost_region_membership() {
        let d = Decomposition::new(SimBox::cubic(40.0), [2, 2, 2]);
        // Rank 0 owns [0,10)×[0,10)×[0,20).
        let (lo, hi) = d.rank_box(0);
        assert_eq!(lo, Vec3::ZERO);
        assert_eq!(hi, Vec3::new(10.0, 10.0, 20.0));
        // A point just outside +x face is in rank 0's ghost region at rc=2.
        assert!(d.in_ghost_region_of_rank(0, Vec3::new(11.0, 5.0, 5.0), 2.0));
        assert!(!d.in_ghost_region_of_rank(0, Vec3::new(13.0, 5.0, 5.0), 2.0));
        // Periodic: a point near the far x face wraps around.
        assert!(d.in_ghost_region_of_rank(0, Vec3::new(39.0, 5.0, 5.0), 2.0));
        // Inside the box counts as distance zero.
        assert!(d.in_ghost_region_of_rank(0, Vec3::new(5.0, 5.0, 5.0), 2.0));
    }

    #[test]
    fn comm_layer_formula() {
        assert_eq!(Decomposition::comm_layers(Vec3::new(8.0, 8.0, 8.0), 8.0), [1, 1, 1]);
        assert_eq!(Decomposition::comm_layers(Vec3::new(4.0, 4.0, 8.0), 8.0), [2, 2, 1]);
        assert_eq!(Decomposition::comm_layers(Vec3::new(4.0, 4.0, 4.0), 8.0), [2, 2, 2]);
        assert_eq!(Decomposition::comm_layers(Vec3::new(3.0, 8.0, 8.0), 8.0), [3, 1, 1]);
    }
}
