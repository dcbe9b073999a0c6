//! Property-based tests of the communication layer: scheme equivalence and
//! plan conservation laws on randomized configurations.

use proptest::prelude::*;

use dpmd_comm::fault::{FaultPlan, FaultSession};
use dpmd_comm::functional::{
    exchange_ghosts, exchange_ghosts_with, ghost_signature, partition, ExchangeScheme,
};
use dpmd_comm::plan::{HaloPlan, ATOM_FORWARD_BYTES};
use minimd::atoms::{copper_species, Atoms};
use minimd::domain::Decomposition;
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;

/// A random uniform configuration over a random (small) node grid.
fn random_setup(seed: u64, natoms: usize, grid: [usize; 3]) -> (Decomposition, Atoms) {
    let bx = SimBox::new(24.0 * grid[0] as f64, 24.0 * grid[1] as f64, 12.0 * grid[2] as f64);
    let decomp = Decomposition::new(bx, grid);
    let mut atoms = Atoms::new(copper_species());
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let l = bx.lengths();
    for i in 0..natoms {
        atoms.push_local(
            i as u64 + 1,
            0,
            Vec3::new(next() * l.x, next() * l.y, next() * l.z),
            Vec3::ZERO,
        );
    }
    (decomp, atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The two exchange schemes deliver identical ghost multisets on random
    /// configurations and cutoffs.
    #[test]
    fn schemes_equivalent_on_random_configs(
        seed in any::<u64>(),
        natoms in 50usize..300,
        rc in 3.0f64..6.0,
    ) {
        let (decomp, atoms) = random_setup(seed, natoms, [2, 2, 3]);
        let mut a = partition(&decomp, &atoms);
        let mut b = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut a, rc, ExchangeScheme::RankP2p, false);
        exchange_ghosts(&decomp, &mut b, rc, ExchangeScheme::NodeBased, false);
        for r in 0..decomp.num_ranks() {
            prop_assert_eq!(ghost_signature(&a[r]), ghost_signature(&b[r]), "rank {}", r);
        }
    }

    /// Plan conservation: every rank's send bytes sum to the plan total,
    /// and node-level traffic never exceeds rank-level traffic.
    #[test]
    fn plan_conservation(seed in any::<u64>(), natoms in 50usize..400) {
        let (decomp, atoms) = random_setup(seed, natoms, [2, 3, 2]);
        let plan = HaloPlan::build(&decomp, &atoms, 5.0);
        let per_rank: usize = (0..decomp.num_ranks()).map(|r| plan.rank_send_bytes(r)).sum();
        prop_assert_eq!(per_rank, plan.rank_ghost_atoms() * ATOM_FORWARD_BYTES);
        prop_assert!(plan.node_ghost_atoms() <= plan.rank_ghost_atoms());
        prop_assert!(plan.node_message_count() <= plan.rank_message_count().max(1));
    }

    /// Ghost counts in the plan match what the functional exchange delivers
    /// at node level.
    #[test]
    fn plan_counts_match_functional_exchange(seed in any::<u64>(), natoms in 80usize..250) {
        let rc = 5.0;
        let (decomp, atoms) = random_setup(seed, natoms, [2, 2, 3]);
        let plan = HaloPlan::build(&decomp, &atoms, rc);
        let mut per_rank = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut per_rank, rc, ExchangeScheme::NodeBased, false);
        // Inter-node plan total = unique (atom, dst-node) pairs; functional
        // rank ghosts include intra-node siblings, so plan ≤ delivered sum.
        let delivered: usize = per_rank.iter().map(|a| a.nghost()).sum();
        prop_assert!(plan.node_ghost_atoms() <= delivered + natoms);
    }

    /// Fault injection with recovery is invisible: on random configurations,
    /// fault seeds and fault rates, the faulted exchange produces ghost
    /// arrays *bitwise* identical to the clean exchange — for both schemes.
    #[test]
    fn faulted_exchange_is_bitwise_invisible(
        seed in any::<u64>(),
        fseed in any::<u64>(),
        natoms in 50usize..200,
        drop in 0.0f64..0.5,
        dup in 0.0f64..0.4,
    ) {
        let rc = 4.5;
        let (decomp, atoms) = random_setup(seed, natoms, [2, 2, 2]);
        for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
            let mut clean = partition(&decomp, &atoms);
            let mut faulted = partition(&decomp, &atoms);
            exchange_ghosts(&decomp, &mut clean, rc, scheme, false);
            let mut plan = FaultPlan::chaos(fseed);
            plan.drop_p = drop;
            plan.dup_p = dup;
            let mut session = FaultSession::new(plan);
            exchange_ghosts_with(
                &decomp, &mut faulted, rc, scheme, false, None, Some((&mut session, 1)),
            );
            for r in 0..decomp.num_ranks() {
                prop_assert_eq!(clean[r].len(), faulted[r].len(), "rank {}", r);
                for i in clean[r].nlocal..clean[r].len() {
                    prop_assert_eq!(clean[r].id[i], faulted[r].id[i], "rank {} ghost {}", r, i);
                    for k in 0..3 {
                        prop_assert_eq!(
                            clean[r].pos[i][k].to_bits(),
                            faulted[r].pos[i][k].to_bits(),
                            "rank {} ghost {} axis {}: {:?} scheme", r, i, k, scheme
                        );
                    }
                }
            }
        }
    }

    /// The two schemes' ghost arrays are bitwise equal (not just equal as
    /// quantized multisets) — the invariant that lets a stalled-leader
    /// fallback swap schemes mid-run without perturbing the trajectory.
    #[test]
    fn schemes_are_bitwise_interchangeable(seed in any::<u64>(), natoms in 50usize..250) {
        let rc = 5.0;
        let (decomp, atoms) = random_setup(seed, natoms, [2, 2, 3]);
        let mut p2p = partition(&decomp, &atoms);
        let mut node = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut p2p, rc, ExchangeScheme::RankP2p, false);
        exchange_ghosts(&decomp, &mut node, rc, ExchangeScheme::NodeBased, false);
        for r in 0..decomp.num_ranks() {
            prop_assert_eq!(p2p[r].len(), node[r].len(), "rank {}", r);
            for i in p2p[r].nlocal..p2p[r].len() {
                prop_assert_eq!(p2p[r].id[i], node[r].id[i]);
                for k in 0..3 {
                    prop_assert_eq!(
                        p2p[r].pos[i][k].to_bits(),
                        node[r].pos[i][k].to_bits(),
                        "rank {} ghost {} axis {}", r, i, k
                    );
                }
            }
        }
    }

    /// Same fault seed ⇒ identical injected faults and recovery work: two
    /// runs of the same scenario produce equal stats, field for field.
    #[test]
    fn fault_replay_is_deterministic(fseed in any::<u64>(), natoms in 50usize..150) {
        let rc = 4.5;
        let (decomp, atoms) = random_setup(9, natoms, [2, 2, 2]);
        let run = |fseed: u64| {
            let mut per_rank = partition(&decomp, &atoms);
            let mut session = FaultSession::new(FaultPlan::chaos(fseed));
            for step in 1..=3 {
                exchange_ghosts_with(
                    &decomp, &mut per_rank, rc, ExchangeScheme::NodeBased, false,
                    None, Some((&mut session, step)),
                );
            }
            session.stats
        };
        prop_assert_eq!(run(fseed), run(fseed), "same seed must replay identically");
    }

    /// Every ghost delivered is within the cutoff of its destination rank's
    /// sub-box (no spurious ghosts).
    #[test]
    fn ghosts_are_within_cutoff_of_their_rank_box(seed in any::<u64>(), natoms in 60usize..200) {
        let rc = 4.0;
        let (decomp, atoms) = random_setup(seed, natoms, [2, 2, 2]);
        let mut per_rank = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut per_rank, rc, ExchangeScheme::RankP2p, false);
        for (r, a) in per_rank.iter().enumerate() {
            let (lo, hi) = decomp.rank_box(r);
            for g in a.nlocal..a.len() {
                let p = a.pos[g];
                // Ghost positions are image-shifted toward the box: plain
                // Euclidean distance to the box must be ≤ rc.
                let mut d2 = 0.0;
                for k in 0..3 {
                    let d = if p[k] < lo[k] {
                        lo[k] - p[k]
                    } else if p[k] > hi[k] {
                        p[k] - hi[k]
                    } else {
                        0.0
                    };
                    d2 += d * d;
                }
                prop_assert!(d2 <= rc * rc + 1e-6, "rank {r} ghost at {p:?}, d2 {d2}");
            }
        }
    }
}
