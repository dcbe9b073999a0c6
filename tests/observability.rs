//! Cross-crate invariant suite for the observability layer (`dpmd-obs`).
//!
//! Five families:
//!
//! 1. **Accounting invariants** — `comm.bytes_sent` must equal the sum of
//!    serialized message sizes of the canonical exchange, for both schemes;
//!    node-based and p2p must report identical *logical* ghost counts.
//! 2. **Property tests** — histogram bucket counts sum to the sample count;
//!    snapshots round-trip through JSON bit-exactly; well-nested span
//!    forests validate and children never outlast parents.
//! 3. **Golden snapshot** — a fixed-seed 10-step copper run produces a
//!    bit-identical deterministic metrics JSON (`tests/golden/`, refresh
//!    with `DPMD_BLESS=1`).
//! 4. **Machine-model counters** — the node-based scheme charges TNI
//!    routing and simulated RDMA bytes.
//! 5. **Observing never perturbs, detached means absent** — the same seed
//!    run with everything attached and with nothing attached ends in the
//!    same bits; an unobserved engine holds no registry, and a simulation
//!    keeps one step's timing however long it runs.

use dpmd_repro::comm::driver::DistributedSim;
use dpmd_repro::comm::functional::{
    self, build_forward_messages, exchange_ghosts_with, ghost_signature, ExchangeScheme,
};
use dpmd_repro::comm::node_based::{simulate_observed, Phase};
use dpmd_repro::comm::{CommMetrics, HaloPlan, NodeSchemeConfig, ATOM_FORWARD_BYTES};
use dpmd_repro::core::prelude::*;
use dpmd_repro::fugaku::machine::MachineConfig;
use dpmd_repro::fugaku::tofu::Torus3d;
use dpmd_repro::minimd::domain::Decomposition;
use dpmd_repro::minimd::integrate::{init_velocities, VelocityVerlet};
use dpmd_repro::minimd::lattice::{fcc_copper, fcc_lattice};
use dpmd_repro::minimd::potential::lj::LennardJones;
use dpmd_repro::minimd::sim::Simulation;
use dpmd_repro::minimd::simbox::SimBox;
use dpmd_repro::minimd::units::FEMTOSECOND;
use dpmd_repro::minimd::Atoms;
use dpmd_repro::obs::trace::validate_well_nested;
use dpmd_repro::obs::{
    HistogramSnapshot, MetricsRegistry, ScalarMetric, Snapshot, TraceBuffer, TraceEvent, Unit,
};

use dpmd_serve::{ArrivalScript, ContinuousScheduler, InFlightCap};
use proptest::collection::vec;
use proptest::prelude::*;

const RC: f64 = 6.0;

/// A copper box decomposed over 2×2×2 ranks, subdomains comfortably wider
/// than the cutoff, pre-exchange (no ghosts yet).
fn partitioned_copper() -> (Decomposition, Vec<Atoms>) {
    let (bx, atoms) = fcc_copper(6, 6, 6);
    let decomp = Decomposition::new(bx, [2, 2, 2]);
    let per_rank = functional::partition(&decomp, &atoms);
    (decomp, per_rank)
}

/// The 32-atom copper engine of the golden snapshot (tiny model, NVE,
/// seed 7), `Mix32` unless the caller overrides the precision.
fn tiny_cu_builder(threads: usize) -> EngineBuilder {
    Engine::builder()
        .copper_cells(2)
        .with_model(DeepPotModel::new(DeepPotConfig::tiny(1, 6.0)))
        .precision(Precision::Mix32)
        .nve()
        .seed(7)
        .threads(threads)
}

// ---------------------------------------------------------------------------
// 1. Accounting invariants
// ---------------------------------------------------------------------------

/// `comm.bytes_sent` must equal the serialized size of the canonical
/// forward message set — independently recomputed here from
/// `build_forward_messages` — and the per-edge counters must partition it.
#[test]
fn comm_bytes_sent_equals_serialized_message_sizes_for_both_schemes() {
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let (decomp, mut per_rank) = partitioned_copper();

        // Expected traffic, recomputed from the same pre-exchange state.
        let messages = build_forward_messages(&decomp, &per_rank, RC, scheme, false);
        let expected_msgs = messages.len() as u64;
        let expected_entries: u64 = messages.iter().map(|m| m.payload.len() as u64).sum();
        let expected_bytes = expected_entries * ATOM_FORWARD_BYTES as u64;
        assert!(expected_msgs > 0, "{scheme:?}: degenerate fixture, no halo traffic");

        let reg = MetricsRegistry::new();
        let obs = CommMetrics::register(&reg);
        exchange_ghosts_with(&decomp, &mut per_rank, RC, scheme, false, Some(&obs), None);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("comm.messages_sent"), Some(expected_msgs), "{scheme:?}");
        assert_eq!(snap.counter("comm.payload_entries"), Some(expected_entries), "{scheme:?}");
        assert_eq!(snap.counter("comm.bytes_sent"), Some(expected_bytes), "{scheme:?}");
        // Per-edge bytes are a partition of the total.
        assert_eq!(snap.counter_prefix_sum("comm.edge."), expected_bytes, "{scheme:?}");
        // The per-scheme split charges exactly this scheme.
        let (hit, miss) = match scheme {
            ExchangeScheme::RankP2p => ("comm.scheme.p2p.messages", "comm.scheme.node.messages"),
            ExchangeScheme::NodeBased => ("comm.scheme.node.messages", "comm.scheme.p2p.messages"),
        };
        assert_eq!(snap.counter(hit), Some(expected_msgs), "{scheme:?}");
        assert_eq!(snap.counter(miss), Some(0), "{scheme:?}");
    }
}

/// Node-based and rank-p2p are different *transports* for the same logical
/// exchange: both must apply the identical ghost set, and the
/// `comm.ghosts_applied` counters must agree.
#[test]
fn node_based_and_p2p_report_identical_logical_ghost_counts() {
    let mut applied = Vec::new();
    let mut signatures = Vec::new();
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let (decomp, mut per_rank) = partitioned_copper();
        let reg = MetricsRegistry::new();
        let obs = CommMetrics::register(&reg);
        exchange_ghosts_with(&decomp, &mut per_rank, RC, scheme, false, Some(&obs), None);

        let ghosts: usize = per_rank.iter().map(|a| a.len() - a.nlocal).sum();
        assert!(ghosts > 0, "{scheme:?}: exchange applied no ghosts");
        assert_eq!(
            reg.snapshot().counter("comm.ghosts_applied"),
            Some(ghosts as u64),
            "{scheme:?}: counter disagrees with the simulation state it observed"
        );
        applied.push(ghosts);
        signatures.push(
            per_rank
                .iter()
                .map(|a| {
                    let mut sig = ghost_signature(a);
                    sig.sort_unstable();
                    sig
                })
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(applied[0], applied[1], "schemes applied different ghost counts");
    assert_eq!(signatures[0], signatures[1], "schemes applied different ghost sets");
}

// ---------------------------------------------------------------------------
// 2. Property tests
// ---------------------------------------------------------------------------

proptest! {
    /// Every recorded sample lands in exactly one bucket: the per-bucket
    /// counts of a histogram always sum to the number of samples, whatever
    /// the values and whatever the (ascending) bounds.
    #[test]
    fn histogram_bucket_counts_sum_to_sample_count(
        samples in vec(0u64..2_000, 0..64),
        b0 in 1u64..100,
        step in 1u64..500,
    ) {
        let reg = MetricsRegistry::new();
        let bounds = [b0, b0 + step, b0 + 2 * step, b0 + 3 * step];
        let h = reg.histogram("prop.h", Unit::Count, &bounds);
        for &s in &samples {
            h.record(s);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("prop.h").expect("histogram must appear in snapshot");
        prop_assert_eq!(hs.counts.len(), bounds.len() + 1);
        prop_assert_eq!(hs.total(), samples.len() as u64);
    }

    /// A snapshot survives a JSON round-trip bit-exactly (`to_json` →
    /// `from_json` → `==`), including histograms and every unit kind.
    #[test]
    fn snapshot_round_trips_through_json(
        values in vec(0u64..u64::MAX / 2, 1..12),
        counts in vec(0u64..1_000, 4..5),
    ) {
        let units = [Unit::Count, Unit::Bytes, Unit::Ns, Unit::WallNs];
        let snap = Snapshot {
            counters: values
                .iter()
                .enumerate()
                .map(|(i, &v)| ScalarMetric {
                    name: format!("prop.c{i:02}"),
                    unit: units[i % units.len()],
                    value: v,
                })
                .collect(),
            gauges: values
                .iter()
                .enumerate()
                .map(|(i, &v)| ScalarMetric {
                    name: format!("prop.g{i:02}"),
                    unit: units[(i + 1) % units.len()],
                    value: v,
                })
                .collect(),
            histograms: vec![HistogramSnapshot {
                name: "prop.h".to_string(),
                unit: Unit::Ns,
                bounds: vec![1, 8, 64],
                counts: counts.clone(),
            }],
        };
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).map_err(|e| {
            proptest::TestCaseError::Fail(format!("from_json failed: {e}"))
        })?;
        prop_assert_eq!(&back, &snap);
        // And the re-serialization is bit-identical (canonical form).
        prop_assert_eq!(back.to_json(), json);
    }

    /// Constructively well-nested span forests always validate, and no
    /// child span outlasts its parent (duration monotone down the tree).
    #[test]
    fn well_nested_span_forests_validate_and_durations_are_monotone(
        roots in vec((0u64..1_000, 1u64..1_000), 1..6),
        depth in 1usize..5,
        shrink in 1u64..10,
    ) {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut cursor = 0u64;
        for &(gap, dur) in &roots {
            let start = cursor + gap;
            // A chain of children, each strictly inside its parent.
            let mut s = start;
            let mut d = dur;
            let mut parent_dur = None;
            for _ in 0..depth {
                events.push(TraceEvent { name: "span", tid: 0, ts_ns: s, dur_ns: d });
                if let Some(pd) = parent_dur {
                    prop_assert!(d <= pd, "child span outlasts its parent");
                }
                parent_dur = Some(d);
                if d <= 2 * shrink {
                    break;
                }
                s += shrink;
                d -= 2 * shrink;
            }
            cursor = start + dur; // next root starts after this one ends
        }
        prop_assert!(validate_well_nested(&events).is_ok());
        // Sibling roots on different lanes may overlap freely.
        for (i, e) in events.iter_mut().enumerate() {
            e.tid = i as u64;
            e.ts_ns = 0;
        }
        prop_assert!(validate_well_nested(&events).is_ok());
    }
}

/// The validator is not a tautology: a partial overlap on one lane fails.
#[test]
fn partially_overlapping_spans_are_rejected() {
    let a = TraceEvent { name: "a", tid: 0, ts_ns: 0, dur_ns: 60 };
    let b = TraceEvent { name: "b", tid: 0, ts_ns: 30, dur_ns: 60 };
    assert!(validate_well_nested(&[a, b]).is_err());
}

// ---------------------------------------------------------------------------
// 3. Golden snapshot
// ---------------------------------------------------------------------------

/// A fixed-seed 10-step copper run must reproduce the checked-in metrics
/// snapshot **bit-identically** (wall-clock metrics are excluded by
/// `snapshot_deterministic`). Refresh after an intentional metric change
/// with `DPMD_BLESS=1 cargo test --test observability golden`.
#[test]
fn golden_metrics_snapshot_cu10() {
    let registry = MetricsRegistry::new();
    let trace = TraceBuffer::new();
    let mut engine = tiny_cu_builder(2)
        .precision(Precision::Mix16)
        .observe(registry.clone(), trace.clone())
        .build();
    engine.run(10);

    let json = registry.snapshot_deterministic().to_json();
    let path = golden_path();
    if std::env::var("DPMD_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with DPMD_BLESS=1 to create it", path.display())
    });
    assert_eq!(
        json,
        golden,
        "metrics snapshot drifted from {}; if intentional, re-bless with DPMD_BLESS=1",
        path.display()
    );

    // The trace that accompanied the run is schema-valid and well-nested
    // per lane (the golden file cannot cover it: spans carry wall time).
    dpmd_repro::obs::schema::validate_trace_json(&trace.to_chrome_json())
        .expect("trace fails its own schema");
    validate_well_nested(&trace.events()).expect("step span tree is not well-nested");
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_cu10.json")
}

// ---------------------------------------------------------------------------
// 4. Machine-model counters (TNI routing, simulated RDMA)
// ---------------------------------------------------------------------------

/// The node-based scheme must charge its message-to-RDMA-engine routing
/// (`fugaku.tniN.messages`) and the bytes injected into the timing model
/// (`fugaku.rdma.bytes_simulated`).
#[test]
fn node_scheme_charges_tni_routing_and_simulated_rdma_bytes() {
    let reg = MetricsRegistry::new();

    // Same fixture family as the node_based unit tests: a 3×3×4 torus of
    // nodes with subdomain edges at half the cutoff.
    let nodes = [3usize, 3, 4];
    let rc = 8.0;
    let edge = 0.5 * rc;
    let bx = SimBox::new(
        edge * 2.0 * nodes[0] as f64,
        edge * 2.0 * nodes[1] as f64,
        edge * nodes[2] as f64,
    );
    let cells = [
        (bx.lengths().x / 3.615).round().max(1.0) as usize,
        (bx.lengths().y / 3.615).round().max(1.0) as usize,
        (bx.lengths().z / 3.615).round().max(1.0) as usize,
    ];
    let (_, mut atoms) = fcc_lattice(cells[0], cells[1], cells[2], 3.615);
    let sx = bx.lengths().x / (cells[0] as f64 * 3.615);
    let sy = bx.lengths().y / (cells[1] as f64 * 3.615);
    let sz = bx.lengths().z / (cells[2] as f64 * 3.615);
    for p in &mut atoms.pos {
        p.x *= sx;
        p.y *= sy;
        p.z *= sz;
        *p = bx.wrap(*p);
    }
    let decomp = Decomposition::new(bx, nodes);
    let torus = Torus3d::new(nodes);
    let machine = MachineConfig::default();
    let plan = HaloPlan::build(&decomp, &atoms, rc);
    let apr: Vec<usize> =
        decomp.counts_per_rank(&atoms).into_iter().map(|c| c as usize).collect();

    let obs = CommMetrics::register(&reg);
    let result = simulate_observed(
        &machine,
        &decomp,
        &torus,
        &plan,
        &apr,
        NodeSchemeConfig::paper_best(),
        Phase::Forward,
        &obs,
    );
    assert!(result.comm.total_ns > 0, "degenerate node-scheme run");

    let snap = reg.snapshot();
    let tni_messages = snap.counter_prefix_sum("fugaku.tni");
    assert!(tni_messages > 0, "no messages charged to any TNI");
    let rdma = snap.counter("fugaku.rdma.bytes_simulated");
    assert!(rdma.unwrap_or(0) > 0, "no simulated RDMA bytes charged: {rdma:?}");
}

// ---------------------------------------------------------------------------
// 5. Observing never perturbs, detached means absent
// ---------------------------------------------------------------------------

/// Every field of every record of a thermo trace, as bits.
fn thermo_bits(trace: &[Thermo]) -> Vec<(u64, [u64; 5])> {
    trace
        .iter()
        .map(|t| (t.step, [t.pe, t.ke, t.etotal, t.temperature, t.pressure].map(f64::to_bits)))
        .collect()
}

/// Local positions and velocities, as bits, in storage order.
fn state_bits(a: &Atoms) -> Vec<[u64; 6]> {
    (0..a.nlocal)
        .map(|i| {
            let (p, v) = (a.pos[i], a.vel[i]);
            [p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits)
        })
        .collect()
}

/// (a) A Cu `Mix32` engine on 2 threads: 10 observed steps equal 10
/// unobserved steps bit for bit, and only the observed engine holds a
/// registry and a trace.
#[test]
fn observed_engine_is_bit_identical_and_unobserved_engine_holds_nothing() {
    let reg = MetricsRegistry::new();
    let mut observed = tiny_cu_builder(2).observe(reg.clone(), TraceBuffer::new()).build();
    let mut plain = tiny_cu_builder(2).build();
    assert!(plain.metrics().is_none() && plain.trace().is_none(), "detached means absent");
    assert!(observed.metrics().is_some() && observed.trace().is_some());

    assert_eq!(thermo_bits(&observed.run(10)), thermo_bits(&plain.run(10)));
    assert_eq!(state_bits(&observed.simulation().atoms), state_bits(&plain.simulation().atoms));
    assert_eq!(reg.snapshot().counter("minimd.steps"), Some(10), "the observed run did record");
}

/// (b) A 4-tenant staggered script through an observed and an unobserved
/// scheduler: same rounds, and every tenant's thermo trace and final state
/// agree bit for bit.
#[test]
fn observed_scheduler_is_bit_identical_to_unobserved() {
    let script =
        ArrivalScript::parse("seed=5;tenants=4;steps=5;window=3;prio=1:interactive;pause=2@3+2")
            .unwrap();
    let serve = |builder: EngineBuilder| {
        let mut s =
            ContinuousScheduler::new(builder.build_parts(), InFlightCap::All, script.queue_capacity);
        let outcome = s.run_script(&script);
        assert!(outcome.rejected.is_empty());
        (outcome.rounds, s)
    };
    let reg = MetricsRegistry::new();
    let (rounds_o, observed) = serve(tiny_cu_builder(1).observe(reg.clone(), TraceBuffer::new()));
    let (rounds_p, plain) = serve(tiny_cu_builder(1));
    assert_eq!(rounds_o, rounds_p);
    assert_eq!(observed.tenants().len(), 4);
    for (o, p) in observed.tenants().iter().zip(plain.tenants()) {
        assert_eq!(o.id, p.id);
        assert_eq!(thermo_bits(&o.trace), thermo_bits(&p.trace), "tenant {}", o.id);
        assert_eq!(state_bits(&o.sim.atoms), state_bits(&p.sim.atoms), "tenant {}", o.id);
    }
    assert_eq!(reg.snapshot().counter("serve.cont.steps"), Some(20), "the observed run did record");
}

/// (c) A 32-rank LJ `DistributedSim` with metrics attached and a
/// drop/dup/reorder plan armed against one with nothing attached: per-step
/// energies and the gathered final state agree bit for bit, under both
/// exchange schemes.
#[test]
fn observed_faulted_distributed_run_is_bit_identical_to_detached() {
    let (bx, mut global) = fcc_lattice(8, 8, 8, 4.4);
    init_velocities(&mut global, 60.0, 5);
    let lj = LennardJones::new(0.0104, 3.4, 5.0);
    for scheme in [ExchangeScheme::RankP2p, ExchangeScheme::NodeBased] {
        let run = |reg: Option<&MetricsRegistry>| {
            let decomp = Decomposition::new(bx, [2, 2, 2]);
            let vv = VelocityVerlet::new(2.0 * FEMTOSECOND);
            let mut sim = DistributedSim::new(decomp, &global, &lj, vv, scheme, 5);
            if let Some(reg) = reg {
                sim.attach_obs(reg);
                sim.inject_faults(FaultPlan::parse("seed=7;drop=0.15;dup=0.1;reorder=0.3").unwrap());
            }
            let energies: Vec<[u64; 2]> = (0..12)
                .map(|_| {
                    let (pe, ke) = sim.stride();
                    [pe.to_bits(), ke.to_bits()]
                })
                .collect();
            let g = sim.gather();
            (energies, g.id.clone(), state_bits(&g))
        };
        let reg = MetricsRegistry::new();
        assert_eq!(run(Some(&reg)), run(None), "{scheme:?}");
        let snap = reg.snapshot();
        assert!(snap.counter("comm.messages_sent").unwrap_or(0) > 0, "{scheme:?}: recorded traffic");
        assert!(snap.counter("transport.retries").unwrap_or(0) > 0, "{scheme:?}: injected drops");
    }
}

/// A simulation keeps the last step's timing, not a history: after 1,000
/// steps `timing()` describes step 1,000.
#[test]
fn timing_is_the_last_step_after_a_long_run() {
    let (bx, mut atoms) = fcc_lattice(3, 3, 3, 5.3);
    init_velocities(&mut atoms, 30.0, 1);
    let lj = LennardJones::argon_like();
    let mut sim =
        Simulation::new(bx, atoms, Box::new(lj), VelocityVerlet::new(2.0 * FEMTOSECOND), 1.0, 50);
    assert_eq!(sim.timing().step, 0);
    sim.run(1_000);
    let t = sim.timing();
    assert_eq!(t.step, 1_000);
    assert!(t.force_s > 0.0 && t.phase_sum_s() <= t.total_s);
}
