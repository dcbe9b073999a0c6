//! The TofuD 6-D torus/mesh interconnect (paper Fig. 2b).
//!
//! Physically, Tofu coordinates are `(x, y, z, a, b, c)` where `(a, b, c)`
//! with shape `(2, 3, 2)` addresses the 12 nodes inside a cell and
//! `(x, y, z)` addresses the cell. Domain-decomposition applications use the
//! *logical 3-D torus* view `(X, Y, Z) = (2x + a', 3y + b, 2z + c')` that
//! the Tofu runtime exposes, so routing distance for our purposes is the
//! Manhattan hop count on that logical torus. Both views are implemented;
//! tests pin their consistency.

use serde::{Deserialize, Serialize};

/// Cell dimensions of the (a, b, c) axes.
pub const CELL_SHAPE: [usize; 3] = [2, 3, 2];
/// Nodes per cell.
pub const NODES_PER_CELL: usize = 12;

/// TofuD link and controller parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TofuParams {
    /// One-way link bandwidth per port, bytes/ns (TofuD: 6.8 GB/s).
    pub link_bw: f64,
    /// Per-hop switching latency, ns.
    pub hop_latency_ns: f64,
    /// Base end-to-end put latency (0 hops), ns. Paper: the minimum
    /// point-to-point latency is 0.49 µs; we split it into base + hops.
    pub base_latency_ns: f64,
    /// RDMA engines (TNIs) per node.
    pub tnis_per_node: usize,
}

impl Default for TofuParams {
    fn default() -> Self {
        TofuParams { link_bw: 6.8, hop_latency_ns: 100.0, base_latency_ns: 390.0, tnis_per_node: 6 }
    }
}

impl TofuParams {
    /// Wire time of a message: base latency + per-hop switching + payload
    /// streaming at link bandwidth.
    pub fn wire_time_ns(&self, hops: usize, bytes: usize) -> f64 {
        self.base_latency_ns + hops as f64 * self.hop_latency_ns + bytes as f64 / self.link_bw
    }
}

/// A logical 3-D torus of compute nodes (the view LAMMPS maps onto).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus3d {
    /// Grid dimensions.
    pub dims: [usize; 3],
}

impl Torus3d {
    /// A torus with the given dimensions.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "torus dims must be positive");
        Torus3d { dims }
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` for an empty torus (never constructed; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinates of node `id` (x fastest).
    pub fn coords(&self, id: usize) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [id % dx, (id / dx) % dy, id / (dx * dy)]
    }

    /// Node id at (wrapped) coordinates.
    pub fn id_at(&self, c: [i64; 3]) -> usize {
        let [dx, dy, dz] = self.dims;
        let x = c[0].rem_euclid(dx as i64) as usize;
        let y = c[1].rem_euclid(dy as i64) as usize;
        let z = c[2].rem_euclid(dz as i64) as usize;
        (z * dy + y) * dx + x
    }

    /// Torus distance along one axis.
    fn axis_dist(&self, d: usize, a: usize, b: usize) -> usize {
        let n = self.dims[d];
        let diff = a.abs_diff(b);
        diff.min(n - diff)
    }

    /// Manhattan hop count between two nodes on the torus — the dimension-
    /// ordered routing distance TofuD uses on its logical view.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..3).map(|d| self.axis_dist(d, ca[d], cb[d])).sum()
    }

    /// Physical 6-D Tofu coordinates `(x, y, z, a, b, c)` of a logical node:
    /// the logical X axis folds into (cell x, intra-cell a), Y into
    /// (y, b), Z into (z, c).
    pub fn to_tofu6d(&self, id: usize) -> [usize; 6] {
        let [lx, ly, lz] = self.coords(id);
        [
            lx / CELL_SHAPE[0],
            ly / CELL_SHAPE[1],
            lz / CELL_SHAPE[2],
            lx % CELL_SHAPE[0],
            ly % CELL_SHAPE[1],
            lz % CELL_SHAPE[2],
        ]
    }

    /// Cell index (x, y, z of the cell grid) of a logical node.
    pub fn cell_of(&self, id: usize) -> [usize; 3] {
        let t = self.to_tofu6d(id);
        [t[0], t[1], t[2]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_distance_wraps() {
        let t = Torus3d::new([8, 12, 8]);
        let a = t.id_at([0, 0, 0]);
        let b = t.id_at([7, 0, 0]);
        assert_eq!(t.hops(a, b), 1, "wraparound neighbours are 1 hop");
        let c = t.id_at([4, 6, 4]);
        assert_eq!(t.hops(a, c), 4 + 6 + 4);
        assert_eq!(t.hops(a, a), 0);
    }

    #[test]
    fn hops_are_symmetric() {
        let t = Torus3d::new([5, 7, 3]);
        for a in [0, 17, 52, 104] {
            for b in [3, 29, 77] {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn coords_round_trip() {
        let t = Torus3d::new([4, 6, 4]);
        for id in 0..t.len() {
            let c = t.coords(id);
            assert_eq!(t.id_at([c[0] as i64, c[1] as i64, c[2] as i64]), id);
        }
    }

    #[test]
    fn cells_hold_twelve_nodes() {
        let t = Torus3d::new([4, 6, 4]);
        let mut per_cell = std::collections::BTreeMap::new();
        for id in 0..t.len() {
            *per_cell.entry(t.cell_of(id)).or_insert(0usize) += 1;
        }
        assert!(per_cell.values().all(|&n| n == NODES_PER_CELL));
        // 96 nodes = 8 cells.
        assert_eq!(per_cell.len(), 8);
    }

    #[test]
    fn paper_minimum_latency() {
        let p = TofuParams::default();
        // Minimum p2p latency (1 hop, 0 bytes) matches the paper's 0.49 µs.
        assert!((p.wire_time_ns(1, 0) - 490.0).abs() < 1e-9);
        // Payload streams at link bandwidth.
        let t = p.wire_time_ns(1, 68_000);
        assert!((t - (490.0 + 10_000.0)).abs() < 1e-6);
    }

    #[test]
    fn six_d_mapping_is_injective() {
        let t = Torus3d::new([4, 6, 4]);
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..t.len() {
            assert!(seen.insert(t.to_tofu6d(id)), "duplicate 6-D coordinate");
        }
    }
}
