//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// Architecture and cutoff configuration of a Deep Potential model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeepPotConfig {
    /// Number of atomic species.
    pub ntypes: usize,
    /// Cutoff radius `r_c`, Å (paper: 8 Å copper, 6 Å water).
    pub rcut: f64,
    /// Inner radius `r_cs` where the switching function starts, Å.
    pub rcut_smth: f64,
    /// Maximum neighbours budgeted per central atom (paper: 512 for Cu,
    /// 92/46 for O/H). Used as the descriptor normalization constant.
    pub nmax: usize,
    /// Embedding-net hidden widths; the last entry is the feature width M₁.
    pub embedding_widths: Vec<usize>,
    /// Number of leading feature columns M₂ used for the second factor of
    /// the descriptor (M₂ ≤ M₁).
    pub m2: usize,
    /// Fitting-net hidden widths (paper: [240, 240, 240]).
    pub fitting_widths: Vec<usize>,
    /// Seed for deterministic weight initialization.
    pub seed: u64,
}

impl DeepPotConfig {
    /// Feature width M₁ (last embedding layer).
    pub fn m1(&self) -> usize {
        *self.embedding_widths.last().expect("embedding must have layers")
    }

    /// Descriptor length M₁ × M₂ — the fitting-net input width.
    pub fn descriptor_len(&self) -> usize {
        self.m1() * self.m2
    }

    /// Check internal consistency, naming the first broken rule.
    pub fn check(&self) -> Result<(), String> {
        let rule = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        rule(self.ntypes > 0, "need at least one species")?;
        rule(
            self.rcut > 0.0 && self.rcut_smth >= 0.0 && self.rcut_smth < self.rcut,
            "need 0 <= rcut_smth < rcut",
        )?;
        rule(self.nmax > 0, "nmax must be positive")?;
        rule(
            !self.embedding_widths.is_empty() && !self.fitting_widths.is_empty(),
            "embedding and fitting nets need at least one layer",
        )?;
        rule(
            self.embedding_widths.iter().chain(&self.fitting_widths).all(|&w| w > 0),
            "layer widths must be positive",
        )?;
        rule(self.m2 > 0 && self.m2 <= self.m1(), "M2 must be within M1")
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    /// On contradictory settings, with [`check`](Self::check)'s message.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("invalid DeepPotConfig: {rule}");
        }
    }

    /// Paper-shaped copper model: r_c = 8 Å, 512-neighbour budget, fitting
    /// net (240, 240, 240). The embedding is the compressed-size variant
    /// (16×4 descriptor) that the baseline work [33] already uses on Fugaku.
    pub fn copper() -> Self {
        DeepPotConfig {
            ntypes: 1,
            rcut: 8.0,
            rcut_smth: 0.5,
            nmax: 512,
            embedding_widths: vec![8, 16],
            m2: 4,
            fitting_widths: vec![240, 240, 240],
            seed: 20240101,
        }
    }

    /// Paper-shaped water model: r_c = 6 Å, neighbour budget 92 (the O
    /// budget dominates), two species (O = 0, H = 1).
    pub fn water() -> Self {
        DeepPotConfig {
            ntypes: 2,
            rcut: 6.0,
            rcut_smth: 0.5,
            nmax: 92,
            embedding_widths: vec![8, 16],
            m2: 4,
            fitting_widths: vec![240, 240, 240],
            seed: 20240202,
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny(ntypes: usize, rcut: f64) -> Self {
        DeepPotConfig {
            ntypes,
            rcut,
            rcut_smth: 0.4 * rcut,
            nmax: 64,
            embedding_widths: vec![4, 8],
            m2: 2,
            fitting_widths: vec![16, 16],
            seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        DeepPotConfig::copper().validate();
        DeepPotConfig::water().validate();
        DeepPotConfig::tiny(1, 5.0).validate();
        assert_eq!(DeepPotConfig::copper().fitting_widths, vec![240, 240, 240]);
        assert_eq!(DeepPotConfig::copper().nmax, 512);
        assert_eq!(DeepPotConfig::water().nmax, 92);
    }

    #[test]
    fn descriptor_len_is_m1_times_m2() {
        let c = DeepPotConfig::copper();
        assert_eq!(c.descriptor_len(), 16 * 4);
    }

    #[test]
    #[should_panic(expected = "M2 must be within M1")]
    fn oversized_m2_rejected() {
        let mut c = DeepPotConfig::tiny(1, 5.0);
        c.m2 = 100;
        c.validate();
    }
}
