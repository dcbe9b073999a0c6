//! The paper's two benchmark systems and their builders.

use minimd::atoms::Atoms;
use minimd::lattice::{fcc_copper, fcc_cells_for, water_box};
use minimd::simbox::SimBox;
use serde::{Deserialize, Serialize};

/// Which benchmark system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Benchmark {
    /// 0.54 M-atom FCC copper, r_c = 8 Å, 1 fs steps.
    Copper,
    /// 0.56 M-atom water, r_c = 6 Å, 0.5 fs steps.
    Water,
}

/// Static description of a benchmark system (§IV).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Which system.
    pub benchmark: Benchmark,
    /// Cutoff radius, Å.
    pub rcut: f64,
    /// Verlet skin, Å (paper: 2 Å, rebuilt every 50 steps).
    pub skin: f64,
    /// Time-step, fs.
    pub timestep_fs: f64,
    /// Neighbour-list budget of the busiest species (512 Cu, 92 O).
    pub nmax: usize,
    /// Mean neighbours inside r_c per atom (drives descriptor cost):
    /// copper 78 at 8 Å; water ≈ 61 at 6 Å averaged over species.
    pub mean_neighbors: f64,
    /// Atom number density, atoms/Å³.
    pub density: f64,
    /// Number of species.
    pub ntypes: usize,
    /// Target atom count of the paper's strong-scaling runs.
    pub target_atoms: usize,
}

impl SystemSpec {
    /// The copper benchmark.
    pub fn copper() -> Self {
        SystemSpec {
            benchmark: Benchmark::Copper,
            rcut: 8.0,
            skin: 2.0,
            timestep_fs: 1.0,
            nmax: 512,
            mean_neighbors: 180.0, // FCC shells within 8 Å
            density: 4.0 / (3.615f64.powi(3)),
            ntypes: 1,
            target_atoms: 540_000,
        }
    }

    /// The water benchmark.
    pub fn water() -> Self {
        SystemSpec {
            benchmark: Benchmark::Water,
            rcut: 6.0,
            skin: 2.0,
            timestep_fs: 0.5,
            nmax: 92,
            mean_neighbors: 90.0,
            density: 3.0 * 0.0334,
            ntypes: 2,
            target_atoms: 558_000,
        }
    }

    /// Build the full-size configuration of the paper's strong-scaling runs
    /// (0.54 M copper atoms / 0.56 M water atoms).
    pub fn build_full(&self, seed: u64) -> (SimBox, Atoms) {
        match self.benchmark {
            Benchmark::Copper => {
                let (nx, ny, nz) = fcc_cells_for(self.target_atoms);
                fcc_copper(nx, ny, nz)
            }
            Benchmark::Water => {
                // 558,000 atoms = 186,000 molecules ≈ 57³.
                let edge = ((self.target_atoms as f64 / 3.0).powf(1.0 / 3.0)).round() as usize;
                water_box(edge, edge, edge, seed)
            }
        }
    }

    /// Atoms per core for `nodes` Fugaku nodes (48 compute cores each).
    pub fn atoms_per_core(&self, nodes: usize) -> f64 {
        self.target_atoms as f64 / (nodes as f64 * 48.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_atom_counts() {
        let (_, cu) = SystemSpec::copper().build_full(1);
        let n = cu.nlocal as f64;
        assert!((n - 540_000.0).abs() / 540_000.0 < 0.02, "Cu atoms {n}");
        let (_, w) = SystemSpec::water().build_full(1);
        let nw = w.nlocal as f64;
        assert!((nw - 558_000.0).abs() / 558_000.0 < 0.02, "water atoms {nw}");
    }

    #[test]
    fn paper_atoms_per_core_at_12000_nodes() {
        // §IV-E: "the average atoms per core stand at 0.93 and 0.968".
        let cu = SystemSpec::copper().atoms_per_core(12_000);
        assert!((cu - 0.9375).abs() < 0.01, "{cu}");
        let w = SystemSpec::water().atoms_per_core(12_000);
        assert!((w - 0.969).abs() < 0.01, "{w}");
    }

    #[test]
    fn densities_are_physical() {
        let cu = SystemSpec::copper();
        assert!((cu.density - 0.0847).abs() < 0.001);
        let w = SystemSpec::water();
        assert!((w.density - 0.1002).abs() < 0.002);
    }
}
