//! The service's hard correctness bar: any fleet and any arrival/departure
//! schedule — fixed fleets, staggered attach rounds, priority classes,
//! deadlines, mid-flight pause/detach, bounded in-flight caps, bounded
//! admission queues, any thread-pool width, every precision — leaves every
//! tenant's trajectory bit-identical to the same seed stepped solo.
//! Scheduling changes *when* a tenant's GEMM rows run, never *what* they
//! compute.
//!
//! The solo oracle shares nothing with the service: one `dpmd_core::Engine`
//! per tenant, each with its own force engine and its own 1-thread pool.

use dpmd_core::prelude::{DeepPotConfig, DeepPotModel, MetricsRegistry, Precision, TraceBuffer};
use dpmd_core::EngineBuilder;
use dpmd_serve::{ArrivalScript, ContinuousScheduler, InFlightCap, ScriptOutcome, TenantState};
use proptest::prelude::*;

const BASE_SEED: u64 = 7;

fn builder(precision: Precision, threads: usize) -> EngineBuilder {
    EngineBuilder::default()
        .copper_cells(2)
        .precision(precision)
        .with_model(DeepPotModel::new(DeepPotConfig::tiny(1, 6.0)))
        .seed(BASE_SEED)
        .threads(threads)
}

fn cap(k: usize) -> InFlightCap {
    k.to_string().parse().unwrap()
}

/// Every attached tenant must have finished and must match its solo engine
/// (seed `BASE_SEED + id`, own pool) bit for bit: thermo trace and final
/// positions/velocities.
fn assert_tenants_bitwise_solo(served: &ContinuousScheduler, precision: Precision, ctx: &str) {
    for t in served.tenants() {
        assert_eq!(t.seed, BASE_SEED + t.id as u64, "{ctx}: tenant {} seed mapping", t.id);
        assert!(
            matches!(t.state, TenantState::Finished { .. }),
            "{ctx}: tenant {} must finish (state {:?})",
            t.id,
            t.state
        );
        let mut solo = builder(precision, 1).seed(t.seed).build();
        let trace = solo.run(t.target_steps);
        assert_eq!(t.trace.len(), trace.len(), "{ctx}: tenant {} trace length", t.id);
        for (tb, ts) in t.trace.iter().zip(&trace) {
            assert_eq!(tb.pe.to_bits(), ts.pe.to_bits(), "{ctx}: tenant {} step {} pe", t.id, tb.step);
            assert_eq!(tb.ke.to_bits(), ts.ke.to_bits(), "{ctx}: tenant {} step {} ke", t.id, tb.step);
            assert_eq!(
                tb.pressure.to_bits(),
                ts.pressure.to_bits(),
                "{ctx}: tenant {} step {} pressure",
                t.id,
                tb.step
            );
        }
        let (at, ar) = (&t.sim.atoms, &solo.simulation().atoms);
        assert_eq!(at.nlocal, ar.nlocal, "{ctx}: tenant {} atom count", t.id);
        for i in 0..at.nlocal {
            for d in 0..3 {
                assert_eq!(
                    at.pos[i][d].to_bits(),
                    ar.pos[i][d].to_bits(),
                    "{ctx}: tenant {} atom {i} pos[{d}]",
                    t.id
                );
                assert_eq!(
                    at.vel[i][d].to_bits(),
                    ar.vel[i][d].to_bits(),
                    "{ctx}: tenant {} atom {i} vel[{d}]",
                    t.id
                );
            }
        }
    }
}

/// Serve `script` and check every tenant against its solo engine.
fn run_and_check(
    script: &ArrivalScript,
    cap: InFlightCap,
    threads: usize,
    precision: Precision,
    ctx: &str,
) -> ScriptOutcome {
    let parts = builder(precision, threads).build_parts();
    let mut served = ContinuousScheduler::new(parts, cap, script.queue_capacity);
    let outcome = served.run_script(script);
    assert!(outcome.rejected.is_empty(), "{ctx}: no rejections expected in this script");
    assert_eq!(served.tenants().len(), script.tenants, "{ctx}: all tenants attached");
    assert_tenants_bitwise_solo(&served, precision, ctx);
    outcome
}

/// Fixed fleets: served == solo, bit for bit, for fleet sizes {1, 3, 8} ×
/// threads {1, 4}; everyone shares every round, so the run is `steps` long.
#[test]
fn fixed_fleets_bitwise_solo() {
    for threads in [1, 4] {
        for fleet in [1, 3, 8] {
            let ctx = format!("{fleet} replicas, {threads} threads");
            let outcome = run_and_check(
                &ArrivalScript::fixed(fleet, 6),
                InFlightCap::All,
                threads,
                Precision::Mix32,
                &ctx,
            );
            assert_eq!(outcome.rounds, 6, "{ctx}: an unbounded fixed fleet runs `steps` rounds");
        }
    }
}

/// The in-flight cap must not change any tenant's bits — it only reshuffles
/// which tenants share a fused call — and a bound must add rounds: the
/// fleet runs in id-order groups of `k`, each holding its slots to the end.
#[test]
fn in_flight_cap_is_bitwise_invisible_and_adds_rounds() {
    let (fleet, steps) = (5usize, 5u64);
    for k in [1, 2, 3] {
        let ctx = format!("in-flight cap {k}");
        let outcome =
            run_and_check(&ArrivalScript::fixed(fleet, steps), cap(k), 1, Precision::Mix32, &ctx);
        assert_eq!(outcome.rounds, steps * fleet.div_ceil(k) as u64, "{ctx}: rounds");
    }
}

/// Mix16 exercises the fp16 first fitting layer; Double the per-job
/// delegation to the f64 reference model.
#[test]
fn every_precision_is_bitwise_solo() {
    for precision in [Precision::Mix16, Precision::Double] {
        let ctx = format!("{precision:?}");
        run_and_check(&ArrivalScript::fixed(3, 4), InFlightCap::All, 1, precision, &ctx);
        run_and_check(
            &ArrivalScript::parse("seed=3;tenants=3;steps=4;window=3;pause=1@3+2").unwrap(),
            cap(2),
            1,
            precision,
            &format!("{ctx}, staggered + pause under cap 2"),
        );
    }
}

/// Acceptance: three distinct arrival schedules — staggered seeded
/// arrivals, priority classes with deadlines, and a mid-flight pause — all
/// bit-identical to solo.
#[test]
fn fixed_schedule_staggered_arrivals_bitwise_solo() {
    run_and_check(
        &ArrivalScript::parse("seed=3;tenants=5;steps=6;window=4").unwrap(),
        InFlightCap::All,
        1,
        Precision::Mix32,
        "staggered arrivals",
    );
}

#[test]
fn fixed_schedule_priorities_and_deadlines_bitwise_solo() {
    run_and_check(
        &ArrivalScript::parse(
            "seed=9;tenants=5;steps=6;window=3;prio=4:interactive;prio=0:batch;deadline=2@4;deadline=3@20",
        )
        .unwrap(),
        cap(2),
        1,
        Precision::Mix32,
        "priorities+deadlines under cap 2",
    );
}

#[test]
fn fixed_schedule_midflight_pause_bitwise_solo() {
    run_and_check(
        &ArrivalScript::parse("seed=1;tenants=4;steps=8;window=2;pause=1@4+3;pause=2@5+2").unwrap(),
        cap(3),
        1,
        Precision::Mix32,
        "mid-flight pause/detach",
    );
}

/// The same schedule at a different thread-pool width must also match the
/// single-threaded solo engines (thread count is bitwise invisible).
#[test]
fn threads_are_bitwise_invisible_to_the_service() {
    run_and_check(
        &ArrivalScript::parse("seed=5;tenants=4;steps=5;window=3;pause=0@3+2").unwrap(),
        cap(2),
        4,
        Precision::Mix32,
        "4 threads vs solo 1 thread",
    );
}

/// A full admission queue refuses attach with typed backpressure — no
/// panic, no silent queueing — and the survivors still match solo.
#[test]
fn backpressure_rejects_typed_and_survivors_stay_bitwise() {
    let script =
        ArrivalScript::parse("tenants=6;steps=4;at=0@1;at=1@1;at=2@1;at=3@1;at=4@1;at=5@1;queue=3")
            .unwrap();
    let parts = builder(Precision::Mix32, 1).build_parts();
    let mut served = ContinuousScheduler::new(parts, cap(1), script.queue_capacity);
    let outcome = served.run_script(&script);
    assert_eq!(outcome.rejected, vec![3, 4, 5], "arrivals past the queue bound are refused");
    assert_eq!(served.tenants().len(), 3);
    assert_tenants_bitwise_solo(&served, Precision::Mix32, "backpressure survivors");
}

#[test]
fn attach_backpressure_is_a_typed_error() {
    use dpmd_serve::{AdmitError, TenantSpec};
    let parts = builder(Precision::Mix32, 1).build_parts();
    let mut served = ContinuousScheduler::new(parts, InFlightCap::All, 2);
    served.attach(TenantSpec::new(0, 2)).unwrap();
    served.attach(TenantSpec::new(1, 2)).unwrap();
    let err = served.attach(TenantSpec::new(2, 2)).unwrap_err();
    assert_eq!(err, AdmitError::Backpressure { capacity: 2, waiting: 2 });
    assert_eq!(served.tenants().len(), 2, "a refused attach creates no tenant state");
}

/// Priority classes and deadlines control admission order (interactive
/// first, then EDF within a class) without touching any trajectory.
#[test]
fn admission_order_respects_class_then_deadline() {
    let script = ArrivalScript::parse(
        "tenants=4;steps=3;at=0@1;at=1@1;at=2@1;at=3@1;prio=3:interactive;prio=0:batch;deadline=2@5;deadline=1@9",
    )
    .unwrap();
    let parts = builder(Precision::Mix32, 1).build_parts();
    let mut served = ContinuousScheduler::new(parts, cap(1), usize::MAX);
    served.run_script(&script);
    let admitted: Vec<(usize, u64)> = served
        .tenants()
        .iter()
        .map(|t| (t.id, t.admitted_round.expect("all admitted")))
        .collect();
    let round_of = |id: usize| admitted.iter().find(|(i, _)| *i == id).unwrap().1;
    assert!(round_of(3) < round_of(2), "interactive admits before standard");
    assert!(round_of(2) < round_of(1), "earlier deadline admits first within a class");
    assert!(round_of(1) < round_of(0), "batch class admits last");
}

/// The metric key set is fixed at construction: serving 30 tenants
/// registers exactly the names serving 3 does, and the per-class step
/// counters account for every step the service ran.
#[test]
fn metric_key_set_is_independent_of_fleet_size() {
    let snapshot = |tenants: usize| {
        let registry = MetricsRegistry::new();
        let parts = builder(Precision::Mix32, 1)
            .observe(registry.clone(), TraceBuffer::new())
            .build_parts();
        let script = ArrivalScript::parse(&format!(
            "seed=2;tenants={tenants};steps=2;window=2;prio=0:interactive;prio=1:batch"
        ))
        .unwrap();
        ContinuousScheduler::new(parts, cap(4), usize::MAX).run_script(&script);
        registry.snapshot_deterministic()
    };
    let (small, large) = (snapshot(3), snapshot(30));
    let keys = |s: &dpmd_obs::Snapshot| -> Vec<String> {
        let scalars = s.counters.iter().chain(&s.gauges).map(|m| m.name.clone());
        scalars.chain(s.histograms.iter().map(|h| h.name.clone())).collect()
    };
    assert_eq!(keys(&small), keys(&large), "key set must not grow with the fleet");
    for (snap, tenants) in [(&small, 3), (&large, 30)] {
        let by_class: u64 = ["interactive", "standard", "batch"]
            .iter()
            .map(|c| snap.counter(&format!("serve.class.{c}.steps")).expect("registered"))
            .sum();
        assert_eq!(snap.counter("serve.cont.steps"), Some(by_class), "{tenants} tenants");
        assert_eq!(by_class, 2 * tenants, "{tenants} tenants x 2 steps");
        assert_eq!(snap.counter("serve.class.interactive.steps"), Some(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: a random schedule (seeded arrivals, random caps, random
    /// pause windows) leaves every attached tenant bitwise identical to its
    /// solo trajectory.
    #[test]
    fn any_schedule_is_bitwise_invisible(
        seed in 0u64..1000,
        tenants in 2usize..6,
        steps in 2u64..7,
        window in 1u64..5,
        cap_k in 0usize..4, // 0 = All
        pause_id in 0usize..6,
        pause_round in 2u64..5,
        pause_len in 1u64..4,
    ) {
        let mut spec = format!("seed={seed};tenants={tenants};steps={steps};window={window}");
        if pause_id < tenants {
            spec.push_str(&format!(";pause={pause_id}@{pause_round}+{pause_len}"));
        }
        let cap = if cap_k == 0 { InFlightCap::All } else { cap(cap_k) };
        let script = ArrivalScript::parse(&spec).unwrap();
        run_and_check(&script, cap, 1, Precision::Mix32, &format!("prop {spec} cap {cap}"));
    }
}
