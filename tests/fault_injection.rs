//! Chaos suite for the distributed exchange (extends the
//! `scheme_equivalence` pattern to a hostile network): with drops,
//! duplicates, reorders, delays and a stalled leader rank injected — and
//! recovery enabled — a 12-step `DistributedSim` run must produce a
//! trajectory **bit-identical** to the unfaulted run, for every
//! `ExchangeScheme`; and the same `(seed, step, edge)` fault spec must
//! replay identically across two consecutive runs.
//!
//! The fault seed comes from `DPMD_FAULT_SEED` (default 7) so CI can sweep
//! scenarios without touching the code.

use dpmd_repro::comm::driver::DistributedSim;
use dpmd_repro::comm::fault::{FaultPlan, FaultStats};
use dpmd_repro::comm::functional::ExchangeScheme;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::integrate::{init_velocities, VelocityVerlet};
use dpmd_repro::minimd::lattice::fcc_lattice;
use dpmd_repro::minimd::potential::lj::LennardJones;
use dpmd_repro::minimd::units::FEMTOSECOND;
use dpmd_repro::minimd::Atoms;

const STEPS: u64 = 12;

fn fault_seed() -> u64 {
    std::env::var("DPMD_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

/// The acceptance scenario: drop + duplicate + reorder + delay, plus one
/// stalled leader for steps 3–6.
fn hostile_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::parse(&format!(
        "seed={seed};drop=0.15;dup=0.1;reorder=0.3;delay=0.1:2;stall-leader=0@3+4"
    ))
    .expect("spec must parse");
    plan.backoff_base_ns = 500;
    plan
}

/// Run the distributed LJ driver for [`STEPS`] steps, optionally faulted.
fn run(scheme: ExchangeScheme, plan: Option<FaultPlan>) -> (Atoms, Option<FaultStats>) {
    let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
    init_velocities(&mut global, 60.0, 5);
    let lj = LennardJones::new(0.0104, 3.4, 5.0);
    let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let mut sim = DistributedSim::new(decomp, &global, &lj, vv, scheme, 10);
    if let Some(p) = plan {
        sim.inject_faults(p);
    }
    for _ in 0..STEPS {
        sim.stride();
    }
    let stats = sim.fault_stats().copied();
    (sim.gather(), stats)
}

/// Bitwise trajectory comparison: ids, positions and velocities.
fn assert_bit_identical(a: &Atoms, b: &Atoms, what: &str) {
    assert_eq!(a.nlocal, b.nlocal, "{what}: atom count");
    assert_eq!(a.id, b.id, "{what}: atom ids");
    for i in 0..a.nlocal {
        for k in 0..3 {
            assert_eq!(
                a.pos[i][k].to_bits(),
                b.pos[i][k].to_bits(),
                "{what}: atom {} pos axis {k} ({} vs {})",
                a.id[i],
                a.pos[i][k],
                b.pos[i][k],
            );
            assert_eq!(
                a.vel[i][k].to_bits(),
                b.vel[i][k].to_bits(),
                "{what}: atom {} vel axis {k}",
                a.id[i],
            );
        }
    }
}

/// The acceptance criterion: for each exchange scheme, the faulted run with
/// recovery matches the fault-free run bit for bit, while the fault layer
/// demonstrably injected work to recover from.
#[test]
fn faulted_trajectories_are_bit_identical_per_scheme() {
    let seed = fault_seed();
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let (clean, _) = run(scheme, None);
        let (faulted, stats) = run(scheme, Some(hostile_plan(seed)));
        let stats = stats.expect("faults were injected");
        assert!(
            stats.dropped > 0 && stats.duplicates_delivered > 0 && stats.reorders > 0,
            "seed {seed} {scheme:?}: scenario must actually inject faults ({stats:?})"
        );
        assert!(stats.retries > 0, "drops must force retries");
        // Ignored ≥ delivered: the dedup window also absorbs retransmits
        // that race a delayed original to the receiver.
        assert!(
            stats.duplicates_ignored >= stats.duplicates_delivered,
            "every duplicate must be discarded by the idempotent apply ({stats:?})"
        );
        assert_bit_identical(&clean, &faulted, &format!("seed {seed} {scheme:?}"));
    }
}

/// A stalled leader degrades node-based exchange to p2p for exactly the
/// stall window (steps 3–6 → 4 steps) without perturbing the trajectory;
/// the p2p scheme needs no leaders, so it never falls back.
#[test]
fn stalled_leader_falls_back_gracefully() {
    let seed = fault_seed();
    let (_, stats) = run(ExchangeScheme::NodeBased, Some(hostile_plan(seed)));
    assert_eq!(stats.unwrap().fallback_steps, 4, "stall-leader=0@3+4 covers 4 steps");
    let (_, stats) = run(ExchangeScheme::RankP2p, Some(hostile_plan(seed)));
    assert_eq!(stats.unwrap().fallback_steps, 0, "p2p has no leaders to stall");
}

/// Determinism: the same fault spec replays bit-identically across two
/// consecutive runs — same trajectory AND same counters, field for field.
#[test]
fn same_fault_spec_replays_identically() {
    let seed = fault_seed();
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let (t1, s1) = run(scheme, Some(hostile_plan(seed)));
        let (t2, s2) = run(scheme, Some(hostile_plan(seed)));
        assert_bit_identical(&t1, &t2, &format!("replay {scheme:?}"));
        assert_eq!(s1, s2, "{scheme:?}: fault/recovery counters must replay exactly");
    }
}

/// Different seeds produce different fault streams (the spec is not inert).
#[test]
fn different_seeds_inject_different_faults() {
    let seed = fault_seed();
    let (t1, s1) = run(ExchangeScheme::NodeBased, Some(hostile_plan(seed)));
    let (t2, s2) = run(ExchangeScheme::NodeBased, Some(hostile_plan(seed.wrapping_add(1))));
    assert_ne!(s1, s2, "fault streams of different seeds should differ");
    // ... while the physics stays identical regardless of seed.
    assert_bit_identical(&t1, &t2, "trajectories under different fault seeds");
}

/// Fault-free runs of the two schemes are themselves bit-identical — the
/// invariant that makes the stalled-leader scheme swap invisible.
#[test]
fn clean_schemes_produce_bit_identical_trajectories() {
    let (p2p, _) = run(ExchangeScheme::RankP2p, None);
    let (node, _) = run(ExchangeScheme::NodeBased, None);
    assert_bit_identical(&p2p, &node, "clean p2p vs node-based");
}

/// Recovery under RDMA-pool pressure: a pool that holds only a few in-
/// flight messages forces sends to defer (never panic) and the run still
/// completes bit-identically.
#[test]
fn recovery_survives_pool_exhaustion() {
    let seed = fault_seed();
    let mut plan = FaultPlan::parse(&format!("seed={seed};delay=0.3:2;pool=60000")).unwrap();
    plan.max_retries = 32;
    let (clean, _) = run(ExchangeScheme::NodeBased, None);
    let (faulted, stats) = run(ExchangeScheme::NodeBased, Some(plan));
    let stats = stats.unwrap();
    assert!(
        stats.pool_exhausted > 0,
        "the capped pool should have deferred some sends ({stats:?})"
    );
    assert_bit_identical(&clean, &faulted, "pool pressure");
}

// ---------------------------------------------------------------------------
// Observability of the chaos suite (dpmd-obs wiring)
// ---------------------------------------------------------------------------

use dpmd_repro::obs::{MetricsRegistry, Snapshot};

/// [`run`] with a metrics registry attached, returning the full snapshot
/// alongside the trajectory state it observed.
fn run_observed(scheme: ExchangeScheme, plan: Option<FaultPlan>) -> Snapshot {
    let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
    init_velocities(&mut global, 60.0, 5);
    let lj = LennardJones::new(0.0104, 3.4, 5.0);
    let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let mut sim = DistributedSim::new(decomp, &global, &lj, vv, scheme, 10);
    let reg = MetricsRegistry::new();
    sim.attach_obs(&reg);
    if let Some(p) = plan {
        sim.inject_faults(p);
    }
    for _ in 0..STEPS {
        sim.stride();
    }
    reg.snapshot()
}

/// Fault-injection runs must surface nonzero recovery counters through the
/// metrics registry — the observability layer sees the same retries and
/// fallback window the in-driver `FaultStats` reports.
#[test]
fn fault_runs_surface_nonzero_recovery_counters() {
    let snap = run_observed(ExchangeScheme::NodeBased, Some(hostile_plan(fault_seed())));
    let retries = snap.counter("transport.retries").unwrap_or(0);
    assert!(retries > 0, "hostile plan must surface transport.retries > 0");
    assert!(
        snap.counter("transport.transmissions").unwrap_or(0)
            > snap.counter("comm.messages_sent").unwrap_or(u64::MAX),
        "physical transmissions must exceed logical messages under drops"
    );
    assert_eq!(
        snap.counter("comm.fallback_window_steps"),
        Some(4),
        "stall-leader=0@3+4 must be charged as a 4-step fallback window"
    );
}

/// Clean runs must report *exactly zero* on every fault-related counter —
/// the chaos metrics cannot false-positive on a healthy network.
#[test]
fn clean_runs_report_exactly_zero_fault_counters() {
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let snap = run_observed(scheme, None);
        for name in ["transport.retries", "transport.pool_exhausted", "comm.fallback_window_steps"]
        {
            assert_eq!(snap.counter(name), Some(0), "{scheme:?}: {name} on a clean run");
        }
        assert!(
            snap.counter("comm.messages_sent").unwrap_or(0) > 0,
            "{scheme:?}: the observed run must still record traffic"
        );
    }
}
