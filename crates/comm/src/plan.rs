//! Halo plans: who must send which atoms to whom.
//!
//! A plan is computed from *real* atom positions — the same positions the
//! functional exchange ships — so message counts and sizes in the timing
//! models are grounded in the actual workload rather than an idealized
//! density.

use std::collections::BTreeMap;

use minimd::atoms::Atoms;
use minimd::domain::Decomposition;

/// Bytes shipped per ghost atom in the forward (position) direction:
/// 3 × f64 position + u64 id + u32 type (padded) — LAMMPS' border buffer.
pub const ATOM_FORWARD_BYTES: usize = 3 * 8 + 8 + 8;

/// Bytes shipped per ghost atom in the reverse (force) direction: 3 × f64.
pub const ATOM_REVERSE_BYTES: usize = 3 * 8;

/// A halo plan at rank and node granularity.
#[derive(Clone, Debug, Default)]
pub struct HaloPlan {
    /// Ghost atom count per directed rank pair `(src, dst)`.
    pub rank_pairs: BTreeMap<(usize, usize), usize>,
    /// Ghost atom count per directed node pair (deduplicated: an atom
    /// needed by several ranks of one node counts once).
    pub node_pairs: BTreeMap<(usize, usize), usize>,
    /// Number of ranks.
    pub num_ranks: usize,
    /// Number of nodes.
    pub num_nodes: usize,
}

impl HaloPlan {
    /// Build the plan: for every local atom, find the neighbour ranks and
    /// nodes whose ghost region contains it.
    pub fn build(decomp: &Decomposition, atoms: &Atoms, rc: f64) -> Self {
        let mut rank_pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut node_pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        // Stencils are identical for every rank/node (uniform grid), so
        // enumerate them once from rank/node 0 and translate.
        for i in 0..atoms.nlocal {
            let p = atoms.pos[i];
            let owner = decomp.rank_of_pos(p);
            let owner_node = decomp.rank_to_node(owner);
            for dst in decomp.neighbor_ranks(owner, rc) {
                if decomp.in_ghost_region_of_rank(dst, p, rc) {
                    *rank_pairs.entry((owner, dst)).or_insert(0) += 1;
                }
            }
            for dst_node in decomp.neighbor_nodes(owner_node, rc) {
                if decomp.in_ghost_region_of_node(dst_node, p, rc) {
                    *node_pairs.entry((owner_node, dst_node)).or_insert(0) += 1;
                }
            }
        }
        HaloPlan { rank_pairs, node_pairs, num_ranks: decomp.num_ranks(), num_nodes: decomp.num_nodes() }
    }

    /// Total directed rank-level messages.
    pub fn rank_message_count(&self) -> usize {
        self.rank_pairs.len()
    }

    /// Total directed node-level messages.
    pub fn node_message_count(&self) -> usize {
        self.node_pairs.len()
    }

    /// Total rank-level ghost atoms shipped (with duplication across ranks
    /// of the same node — the redundancy the node scheme removes).
    pub fn rank_ghost_atoms(&self) -> usize {
        self.rank_pairs.values().sum()
    }

    /// Total node-level ghost atoms shipped.
    pub fn node_ghost_atoms(&self) -> usize {
        self.node_pairs.values().sum()
    }

    /// Bytes a given rank sends in the forward phase (sum over dsts).
    pub fn rank_send_bytes(&self, rank: usize) -> usize {
        self.rank_pairs
            .iter()
            .filter(|((s, _), _)| *s == rank)
            .map(|(_, &n)| n * ATOM_FORWARD_BYTES)
            .sum()
    }

    /// Messages a given node sends in the forward phase, as
    /// `(dst_node, bytes)` pairs sorted by destination.
    pub fn node_sends(&self, node: usize) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .node_pairs
            .iter()
            .filter(|((s, _), _)| *s == node)
            .map(|(&(_, d), &n)| (d, n * ATOM_FORWARD_BYTES))
            .collect();
        v.sort_unstable();
        v
    }

    /// Messages a given node sends on the *reverse* (force) path: one per
    /// node it received ghosts from, carrying those ghosts' forces.
    pub fn node_reverse_sends(&self, node: usize, bytes_per_atom: usize) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .node_pairs
            .iter()
            .filter(|((_, d), _)| *d == node)
            .map(|(&(s, _), &n)| (s, n * bytes_per_atom))
            .collect();
        v.sort_unstable();
        v
    }

    /// Messages a given rank sends, as `(dst_rank, bytes)` sorted.
    pub fn rank_sends(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .rank_pairs
            .iter()
            .filter(|((s, _), _)| *s == rank)
            .map(|(&(_, d), &n)| (d, n * ATOM_FORWARD_BYTES))
            .collect();
        v.sort_unstable();
        v
    }

    /// The data-volume reduction of node aggregation: `1 − node/rank` bytes
    /// (counting only inter-node rank traffic would be even more
    /// favourable; this is the conservative global ratio).
    pub fn aggregation_saving(&self) -> f64 {
        let rank_bytes = self.rank_ghost_atoms();
        if rank_bytes == 0 {
            return 0.0;
        }
        1.0 - self.node_ghost_atoms() as f64 / rank_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::lattice::fcc_lattice;
    use minimd::simbox::SimBox;

    /// A decomposition whose rank sub-box edge is `frac·rc`.
    fn decomp_with(frac: f64, rc: f64, nodes: [usize; 3]) -> (Decomposition, Atoms) {
        // Rank edge = frac·rc; ranks = (2nx, 2ny, nz).
        let edge = frac * rc;
        let bx = SimBox::new(
            edge * 2.0 * nodes[0] as f64,
            edge * 2.0 * nodes[1] as f64,
            edge * nodes[2] as f64,
        );
        // Fill with an FCC lattice stretched to the box (approximate density
        // is fine — the plan only needs *some* uniform atoms).
        let cells = [
            (bx.lengths().x / 3.615).ceil() as usize,
            (bx.lengths().y / 3.615).ceil() as usize,
            (bx.lengths().z / 3.615).ceil() as usize,
        ];
        let (_, mut atoms) = fcc_lattice(cells[0].max(1), cells[1].max(1), cells[2].max(1), 3.615);
        // Rescale positions into the target box.
        let sx = bx.lengths().x / (cells[0].max(1) as f64 * 3.615);
        let sy = bx.lengths().y / (cells[1].max(1) as f64 * 3.615);
        let sz = bx.lengths().z / (cells[2].max(1) as f64 * 3.615);
        for p in &mut atoms.pos {
            p.x *= sx;
            p.y *= sy;
            p.z *= sz;
            *p = bx.wrap(*p);
        }
        (Decomposition::new(bx, nodes), atoms)
    }

    #[test]
    fn node_aggregation_reduces_both_messages_and_volume() {
        // Strong-scaling shape: sub-box edge = 0.5·rc on a grid large
        // enough that halos don't alias.
        let (decomp, atoms) = decomp_with(0.5, 8.0, [4, 4, 6]);
        let plan = HaloPlan::build(&decomp, &atoms, 8.0);
        assert!(plan.rank_message_count() > plan.node_message_count());
        assert!(plan.rank_ghost_atoms() > plan.node_ghost_atoms());
        // The saving should be substantial at the strong-scaling limit —
        // the paper reports 81% total comm reduction; pure volume dedup
        // contributes a large share.
        let saving = plan.aggregation_saving();
        assert!(saving > 0.4, "aggregation saving only {saving:.2}");
    }

    #[test]
    fn every_pair_in_the_plan_is_a_stencil_neighbor() {
        let (decomp, atoms) = decomp_with(1.0, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&decomp, &atoms, 8.0);
        for (&(s, d), &n) in &plan.rank_pairs {
            assert!(n > 0);
            assert!(decomp.neighbor_ranks(s, 8.0).contains(&d), "({s}, {d}) not a stencil pair");
        }
    }

    #[test]
    fn sends_sum_matches_pair_totals() {
        let (decomp, atoms) = decomp_with(1.0, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&decomp, &atoms, 8.0);
        let total_rank_bytes: usize = (0..decomp.num_ranks()).map(|r| plan.rank_send_bytes(r)).sum();
        assert_eq!(total_rank_bytes, plan.rank_ghost_atoms() * ATOM_FORWARD_BYTES);
        let total_node_bytes: usize =
            (0..decomp.num_nodes()).flat_map(|n| plan.node_sends(n)).map(|(_, b)| b).sum();
        assert_eq!(total_node_bytes, plan.node_ghost_atoms() * ATOM_FORWARD_BYTES);
    }

    #[test]
    fn symmetric_lattice_gives_symmetric_plan() {
        let (decomp, atoms) = decomp_with(1.0, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&decomp, &atoms, 8.0);
        // Uniform density on a torus: (s→d) and (d→s) should carry similar
        // loads (not exact for a lattice not commensurate with sub-boxes).
        for (&(s, d), &n) in plan.node_pairs.iter().take(20) {
            let back = plan.node_pairs.get(&(d, s)).copied().unwrap_or(0);
            assert!(back > 0, "missing reverse pair ({d}, {s})");
            let ratio = n as f64 / back as f64;
            assert!((0.2..5.0).contains(&ratio), "asymmetric: {n} vs {back}");
        }
    }
}
