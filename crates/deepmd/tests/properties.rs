//! Property-based tests of the Deep Potential's physical symmetries — the
//! invariances the paper's Fig. 1 architecture preserves by construction
//! (translation, rotation, permutation) plus smoothness at the cutoff.

use proptest::prelude::*;

use deepmd::config::DeepPotConfig;
use deepmd::descriptor::smooth;
use deepmd::model::DeepPotModel;
use minimd::atoms::{copper_species, Atoms};
use minimd::neighbor::{ListKind, NeighborList};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;

fn model() -> DeepPotModel {
    DeepPotModel::new(DeepPotConfig::tiny(1, 5.0))
}

fn cluster_energy(model: &DeepPotModel, pts: &[[f64; 3]]) -> f64 {
    let bx = SimBox::cubic(80.0);
    let mut atoms = Atoms::new(copper_species());
    for (k, p) in pts.iter().enumerate() {
        atoms.push_local(
            k as u64 + 1,
            0,
            Vec3::new(p[0] + 40.0, p[1] + 40.0, p[2] + 40.0),
            Vec3::ZERO,
        );
    }
    let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
    nl.build(&atoms, &bx);
    model.energy(&atoms, &nl, &bx)
}

fn small_cluster() -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        ((-3.0f64..3.0), (-3.0f64..3.0), (-3.0f64..3.0)).prop_map(|(x, y, z)| [x, y, z]),
        2..6,
    )
    .prop_filter("no overlapping atoms", |pts| {
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d2: f64 =
                    (0..3).map(|k| (pts[i][k] - pts[j][k]) * (pts[i][k] - pts[j][k])).sum();
                if d2 < 0.49 {
                    return false;
                }
            }
        }
        true
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// E(x + t) = E(x) for any rigid translation.
    #[test]
    fn energy_translation_invariant(
        pts in small_cluster(),
        tx in -8.0f64..8.0, ty in -8.0f64..8.0, tz in -8.0f64..8.0,
    ) {
        let m = model();
        let e1 = cluster_energy(&m, &pts);
        let shifted: Vec<[f64; 3]> =
            pts.iter().map(|p| [p[0] + tx, p[1] + ty, p[2] + tz]).collect();
        let e2 = cluster_energy(&m, &shifted);
        prop_assert!((e1 - e2).abs() < 1e-9, "{e1} vs {e2}");
    }

    /// E(R·x) = E(x) for any rotation about z then x.
    #[test]
    fn energy_rotation_invariant(
        pts in small_cluster(),
        alpha in 0.0f64..std::f64::consts::TAU,
        beta in 0.0f64..std::f64::consts::TAU,
    ) {
        let m = model();
        let e1 = cluster_energy(&m, &pts);
        let (ca, sa) = (alpha.cos(), alpha.sin());
        let (cb, sb) = (beta.cos(), beta.sin());
        let rotated: Vec<[f64; 3]> = pts
            .iter()
            .map(|p| {
                let (x, y, z) = (p[0], p[1], p[2]);
                let (x1, y1, z1) = (ca * x - sa * y, sa * x + ca * y, z);
                [x1, cb * y1 - sb * z1, sb * y1 + cb * z1]
            })
            .collect();
        let e2 = cluster_energy(&m, &rotated);
        prop_assert!((e1 - e2).abs() < 1e-8, "{e1} vs {e2}");
    }

    /// E(π(x)) = E(x) for any permutation of same-species atoms.
    #[test]
    fn energy_permutation_invariant(pts in small_cluster(), rot in 0usize..5) {
        let m = model();
        let e1 = cluster_energy(&m, &pts);
        let mut permuted = pts.clone();
        permuted.rotate_left(rot % pts.len());
        let e2 = cluster_energy(&m, &permuted);
        prop_assert!((e1 - e2).abs() < 1e-10);
    }

    /// Atoms beyond the cutoff contribute exactly nothing.
    #[test]
    fn cutoff_locality(pts in small_cluster(), far in 12.0f64..30.0) {
        let m = model();
        let e1 = cluster_energy(&m, &pts);
        let mut with_far = pts.clone();
        with_far.push([far, far, 0.0]); // > rcut from every cluster atom
        let e2 = cluster_energy(&m, &with_far);
        // The far atom adds its own (isolated-atom) energy but must not
        // change the cluster's interaction: E2 − E1 equals the single-atom
        // energy, independent of the cluster.
        let e_single = cluster_energy(&m, &[[0.0, 0.0, 0.0]]);
        prop_assert!((e2 - e1 - e_single).abs() < 1e-9, "leakage {}", e2 - e1 - e_single);
    }

    /// The switching function is within [0, 1/r], continuous, and zero past
    /// the cutoff.
    #[test]
    fn smooth_bounds(r in 0.05f64..12.0) {
        let (s, _) = smooth(r, 0.5, 6.0);
        if r >= 6.0 {
            prop_assert_eq!(s, 0.0);
        } else {
            prop_assert!(s >= 0.0 && s <= 1.0 / r + 1e-12, "s({r}) = {s}");
        }
    }

    /// Forces sum to zero (translation invariance ⇒ momentum conservation)
    /// for any configuration.
    #[test]
    fn forces_sum_to_zero(pts in small_cluster()) {
        let m = model();
        let bx = SimBox::cubic(80.0);
        let mut atoms = Atoms::new(copper_species());
        for (k, p) in pts.iter().enumerate() {
            atoms.push_local(k as u64 + 1, 0, Vec3::new(p[0] + 40.0, p[1] + 40.0, p[2] + 40.0), Vec3::ZERO);
        }
        let mut nl = NeighborList::new(m.config.rcut, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        let mut forces = vec![Vec3::ZERO; atoms.len()];
        m.energy_forces_on(&dpmd_threads::ThreadPool::serial(), &atoms, &nl, &bx, &mut forces);
        let net = forces.iter().fold(Vec3::ZERO, |a, &f| a + f);
        prop_assert!(net.norm() < 1e-9, "net {net:?}");
    }
}
