// Retired analyzer rule D1 (hash-order iteration): hash-ordered values
// feeding a float sum. CI plants this file as a module of `deepmd` and
// requires `clippy::disallowed_types` (clippy.toml) to reject it.
use std::collections::HashMap;

pub fn total_energy(per_atom: &HashMap<usize, f64>) -> f64 {
    per_atom.values().sum()
}
