//! The node-based parallelization scheme (paper §III-A).
//!
//! Phases simulated per node, matching Fig. 4:
//!
//! 1. **count exchange + sync** — workers publish their atom counts and the
//!    leader computes send-buffer offsets (one intra-node synchronization);
//! 2. **gather** — every worker copies its local atoms into the
//!    pre-registered RDMA send buffer in shared memory (cross-NUMA copies
//!    over the ring bus — no extra packing, the uTofu buffer *is* the
//!    gather target);
//! 3. **send** — leader threads put one message to each neighbouring
//!    node's leader; with `ThreadPerTni` driving, six messages stream in
//!    parallel per leader;
//! 4. **receive + scatter** — receive-side threads watch their TNI and copy
//!    arrived atoms to the workers (to *all four* workers under intra-node
//!    load balance, to the owning worker only in the `ref` layout);
//! 5. **sync** — workers proceed once all ghosts are placed.
//!
//! The reverse (force) path reuses the same schedule with the smaller
//! per-atom payload and a reduction at the receiver.

use fugaku::event::{JobGraph, JobId};
use fugaku::machine::MachineConfig;
use fugaku::tni::{round_robin_assignment_avoiding, TniDriving};
use fugaku::tofu::Torus3d;
use fugaku::utofu::{ApiCosts, CommApi};
use minimd::domain::{Decomposition, RANKS_PER_NODE};

use crate::metrics::CommMetrics;
use crate::plan::{HaloPlan, ATOM_FORWARD_BYTES, ATOM_REVERSE_BYTES};
use crate::three_stage::CommResult;

/// Configuration of the node-based scheme (the Fig. 7 variants).
#[derive(Clone, Copy, Debug)]
pub struct NodeSchemeConfig {
    /// Number of leader ranks (1, 2 or 4).
    pub leaders: usize,
    /// TNI driving (multithreaded = one thread per TNI).
    pub driving: TniDriving,
    /// Broadcast ghosts to all workers (the load-balance layout, `lb-*`)
    /// instead of delivering each ghost to its owning worker (`ref-*`).
    pub lb_broadcast: bool,
}

impl NodeSchemeConfig {
    /// The paper's selected configuration: four leaders, one thread per
    /// TNI, load-balance broadcast.
    pub fn paper_best() -> Self {
        NodeSchemeConfig { leaders: 4, driving: TniDriving::ThreadPerTni, lb_broadcast: true }
    }
}

/// Result of a node-based simulation (extends [`CommResult`] with phase
/// breakdowns).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSchemeResult {
    /// Overall timing/counters.
    pub comm: CommResult,
    /// Cross-NUMA bytes moved in gather+scatter.
    pub noc_bytes: u64,
}

/// Which half of a step's communication is being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Positions out to ghost holders.
    Forward,
    /// Ghost forces back to owners ("Newton's law on"), with a reduction at
    /// the receiver.
    Reverse,
}

/// Forward + reverse of one time-step's halo communication.
pub fn simulate_round_trip(
    machine: &MachineConfig,
    decomp: &Decomposition,
    torus: &Torus3d,
    plan: &HaloPlan,
    atoms_per_rank: &[usize],
    cfg: NodeSchemeConfig,
) -> NodeSchemeResult {
    let f = simulate_faulted(machine, decomp, torus, plan, atoms_per_rank, cfg, Phase::Forward, &[], 0, None);
    let r = simulate_faulted(machine, decomp, torus, plan, atoms_per_rank, cfg, Phase::Reverse, &[], 0, None);
    NodeSchemeResult {
        comm: CommResult {
            total_ns: f.comm.total_ns + r.comm.total_ns,
            internode_messages: f.comm.internode_messages + r.comm.internode_messages,
            intranode_messages: f.comm.intranode_messages + r.comm.intranode_messages,
            internode_bytes: f.comm.internode_bytes + r.comm.internode_bytes,
        },
        noc_bytes: f.noc_bytes + r.noc_bytes,
    }
}

/// Simulate the forward (position) halo exchange under the node scheme.
pub fn simulate(
    machine: &MachineConfig,
    decomp: &Decomposition,
    torus: &Torus3d,
    plan: &HaloPlan,
    atoms_per_rank: &[usize],
    cfg: NodeSchemeConfig,
) -> NodeSchemeResult {
    simulate_faulted(machine, decomp, torus, plan, atoms_per_rank, cfg, Phase::Forward, &[], 0, None)
}

/// [`simulate`] with some TNI engines wedged for `stall_ns` on every node:
/// the stalled engines' resources are held busy from t = 0 and the send
/// round-robin routes around them, so the node keeps communicating on the
/// remaining engines at reduced injection bandwidth — the timing-model half
/// of the fault layer's `stall-tni` clause.
#[allow(clippy::too_many_arguments)] // mirrors simulate() plus the stall clause
pub fn simulate_with_stalled_tnis(
    machine: &MachineConfig,
    decomp: &Decomposition,
    torus: &Torus3d,
    plan: &HaloPlan,
    atoms_per_rank: &[usize],
    cfg: NodeSchemeConfig,
    stalled: &[usize],
    stall_ns: u64,
) -> NodeSchemeResult {
    simulate_faulted(
        machine,
        decomp,
        torus,
        plan,
        atoms_per_rank,
        cfg,
        Phase::Forward,
        stalled,
        stall_ns,
        None,
    )
}

/// Simulate one phase with metrics attached: per-TNI message counts (from
/// the round-robin assignment) and simulated RDMA bytes are charged to
/// `obs` (`fugaku.tniN.messages`, `fugaku.rdma.bytes_simulated`).
#[allow(clippy::too_many_arguments)] // mirrors simulate() plus the metric sink
pub fn simulate_observed(
    machine: &MachineConfig,
    decomp: &Decomposition,
    torus: &Torus3d,
    plan: &HaloPlan,
    atoms_per_rank: &[usize],
    cfg: NodeSchemeConfig,
    phase: Phase,
    obs: &CommMetrics,
) -> NodeSchemeResult {
    simulate_faulted(machine, decomp, torus, plan, atoms_per_rank, cfg, phase, &[], 0, Some(obs))
}

#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // node index keys several parallel schedules
fn simulate_faulted(
    machine: &MachineConfig,
    decomp: &Decomposition,
    torus: &Torus3d,
    plan: &HaloPlan,
    atoms_per_rank: &[usize],
    cfg: NodeSchemeConfig,
    phase: Phase,
    stalled_tnis: &[usize],
    stall_ns: u64,
    obs: Option<&CommMetrics>,
) -> NodeSchemeResult {
    assert!(matches!(cfg.leaders, 1 | 2 | 4), "leaders must be 1, 2 or 4");
    let costs = ApiCosts::of(CommApi::Utofu);
    let nnodes = decomp.num_nodes();
    let mut g = JobGraph::new();

    // Per-node resources.
    let threads_per_leader = match cfg.driving {
        TniDriving::ThreadPerTni => machine.tofu.tnis_per_node,
        TniDriving::SingleThread => 1,
    };
    let mut node_tnis = Vec::with_capacity(nnodes);
    let mut node_threads = Vec::with_capacity(nnodes);
    let mut node_bus = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        node_tnis.push(g.resources(machine.tofu.tnis_per_node));
        node_threads.push(g.resources(cfg.leaders * threads_per_leader));
        // The ring bus serializes cross-NUMA traffic: gather and scatter
        // copies stream at full NoC bandwidth but one at a time.
        node_bus.push(g.resource());
    }

    // Wedged engines are held busy from t = 0; the send round-robin below
    // routes around them, so the holds only bite if a message is (wrongly)
    // queued on a stalled engine.
    let mut hold_jobs = Vec::new();
    if stall_ns > 0 {
        for tnis in &node_tnis {
            for &t in stalled_tnis {
                if t < machine.tofu.tnis_per_node {
                    hold_jobs.push(g.hold_resource(tnis[t], stall_ns));
                }
            }
        }
    }

    let mut result = NodeSchemeResult::default();

    // Phase 1+2 per node: sync, then worker gather copies over the bus.
    let mut gather_done: Vec<Vec<JobId>> = Vec::with_capacity(nnodes);
    for node in 0..nnodes {
        let sync = g.job(&[], None, machine.chip.sync_latency_ns as u64, 0);
        let mut copies = Vec::with_capacity(RANKS_PER_NODE);
        // Forward: workers publish their local atoms. Reverse: workers
        // publish the accumulated ghost forces (symmetric plan, smaller
        // per-atom payload).
        let per_atom_bytes =
            if phase == Phase::Forward { ATOM_FORWARD_BYTES } else { ATOM_REVERSE_BYTES };
        for &rank in decomp.node_ranks(node).iter() {
            let bytes = atoms_per_rank[rank] * per_atom_bytes;
            let busy = machine.chip.cross_numa_copy_ns(bytes, 1) as u64;
            copies.push(g.job(&[sync], Some(node_bus[node]), busy, 0));
            result.noc_bytes += bytes as u64;
        }
        gather_done.push(copies);
    }

    // Phase 3: leader sends, round-robin across leaders and their threads.
    let mut recv_deps: Vec<Vec<(JobId, usize)>> = vec![Vec::new(); nnodes]; // (inject job, bytes)
    for node in 0..nnodes {
        let sends = match phase {
            Phase::Forward => plan.node_sends(node),
            Phase::Reverse => plan.node_reverse_sends(node, ATOM_REVERSE_BYTES),
        };
        let tni_of =
            round_robin_assignment_avoiding(sends.len(), machine.tofu.tnis_per_node, stalled_tnis);
        if let Some(o) = obs {
            o.record_tni_assignment(&fugaku::tni::assignment_counts(
                &tni_of,
                machine.tofu.tnis_per_node,
            ));
        }
        for (mi, (dst, bytes)) in sends.into_iter().enumerate() {
            let thread = node_threads[node][mi % node_threads[node].len()];
            let tni = node_tnis[node][tni_of[mi]];
            let post = g.job(&gather_done[node], Some(thread), costs.send_overhead_ns, 0);
            let hops = torus.hops(node, dst);
            let inj = g.job(
                &[post],
                Some(tni),
                machine.tni.engine_overhead_ns + (bytes as f64 / machine.tofu.link_bw) as u64,
                machine.tofu.base_latency_ns as u64 + hops as u64 * machine.tofu.hop_latency_ns as u64,
            );
            recv_deps[dst].push((inj, bytes));
            result.comm.internode_messages += 1;
            result.comm.internode_bytes += bytes as u64;
            if let Some(o) = obs {
                o.rdma_bytes.add(bytes as u64);
            }
        }
    }

    // Phase 4+5: receive-side threads notice arrivals and perform the
    // scatter copies themselves (the paper: leader threads handle "data
    // copy, force reduction, and communication" — more leaders, more
    // copy concurrency). The ring bus divides its bandwidth across up to
    // four concurrent streams.
    let streams = 4usize.min(cfg.leaders * threads_per_leader);
    for node in 0..nnodes {
        let mut scatter_jobs = Vec::with_capacity(recv_deps[node].len());
        for (mi, &(inj, bytes)) in recv_deps[node].iter().enumerate() {
            let thread = node_threads[node][mi % node_threads[node].len()];
            // Forward with lb-broadcast fans the copy to all 4 workers;
            // the reverse phase *reduces* into the owner's array instead
            // (read-add-write ≈ 2× the payload traffic).
            let fan = match phase {
                Phase::Forward if cfg.lb_broadcast => RANKS_PER_NODE,
                Phase::Forward => 1,
                Phase::Reverse => 2,
            };
            let copy_bytes = bytes * fan;
            let busy =
                costs.recv_overhead_ns + machine.chip.cross_numa_copy_ns(copy_bytes, streams) as u64;
            scatter_jobs.push(g.job(&[inj], Some(thread), busy, 0));
            result.noc_bytes += copy_bytes as u64;
        }
        if !scatter_jobs.is_empty() {
            g.job(&scatter_jobs, None, machine.chip.sync_latency_ns as u64, 0);
        }
    }

    // The makespan of the *communication*: the stall-marker holds keep
    // their engines busy but are not work — a wedged engine that nothing
    // waits on must not count as schedule time.
    let sched = g.run();
    let is_hold: std::collections::BTreeSet<usize> = hold_jobs.iter().map(|j| j.0).collect();
    result.comm.total_ns = sched
        .finish
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_hold.contains(i))
        .map(|(_, &f)| f)
        .max()
        .unwrap_or(0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::atoms::Atoms;
    use minimd::lattice::fcc_lattice;
    use minimd::simbox::SimBox;

    fn setup(frac: f64, rc: f64, nodes: [usize; 3]) -> (MachineConfig, Decomposition, Torus3d, Atoms) {
        let edge = frac * rc;
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
        (MachineConfig::default(), Decomposition::new(bx, nodes), Torus3d::new(nodes), atoms)
    }

    fn atoms_per_rank(d: &Decomposition, atoms: &Atoms) -> Vec<usize> {
        d.counts_per_rank(atoms).into_iter().map(|c| c as usize).collect()
    }

    #[test]
    fn four_leaders_beat_two_beat_one() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let mut times = Vec::new();
        for leaders in [1usize, 2, 4] {
            let cfg = NodeSchemeConfig { leaders, driving: TniDriving::ThreadPerTni, lb_broadcast: true };
            times.push(simulate(&m, &d, &t, &plan, &apr, cfg).comm.total_ns);
        }
        assert!(times[2] <= times[1] && times[1] <= times[0], "{times:?}");
        assert!(times[2] < times[0], "4 leaders must strictly beat 1");
    }

    #[test]
    fn multithreaded_tni_driving_beats_single_thread() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let multi = simulate(
            &m,
            &d,
            &t,
            &plan,
            &apr,
            NodeSchemeConfig { leaders: 4, driving: TniDriving::ThreadPerTni, lb_broadcast: true },
        );
        let single = simulate(
            &m,
            &d,
            &t,
            &plan,
            &apr,
            NodeSchemeConfig { leaders: 4, driving: TniDriving::SingleThread, lb_broadcast: true },
        );
        assert!(single.comm.total_ns > multi.comm.total_ns);
        // Paper: 10–26% slowdown without multithreading; accept a band.
        let ratio = single.comm.total_ns as f64 / multi.comm.total_ns as f64;
        assert!(ratio > 1.03 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn lb_broadcast_adds_noc_bytes_but_little_time() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let lb = simulate(&m, &d, &t, &plan, &apr, NodeSchemeConfig::paper_best());
        let refv = simulate(
            &m,
            &d,
            &t,
            &plan,
            &apr,
            NodeSchemeConfig { leaders: 4, driving: TniDriving::ThreadPerTni, lb_broadcast: false },
        );
        assert!(lb.noc_bytes > refv.noc_bytes);
        // The paper observes the extra copy "doesn't affect the
        // communication efficiency as expected" — small relative delta.
        let delta = (lb.comm.total_ns as f64 - refv.comm.total_ns as f64).abs()
            / refv.comm.total_ns as f64;
        assert!(delta < 0.25, "broadcast overhead {delta:.3}");
    }

    #[test]
    fn node_scheme_sends_exactly_the_plan() {
        let (m, d, t, atoms) = setup(1.0, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let r = simulate(&m, &d, &t, &plan, &apr, NodeSchemeConfig::paper_best());
        assert_eq!(r.comm.internode_messages as usize, plan.node_message_count());
    }

    #[test]
    fn stalled_tnis_degrade_but_do_not_block() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let cfg = NodeSchemeConfig::paper_best();
        let healthy = simulate(&m, &d, &t, &plan, &apr, cfg);
        // Three of six engines wedged for a long time: routing around them
        // keeps every message off the held resources, so time grows only
        // through the halved injection bandwidth — far less than the stall.
        let stall_ns = 1_000_000_000;
        let faulted =
            simulate_with_stalled_tnis(&m, &d, &t, &plan, &apr, cfg, &[1, 3, 5], stall_ns);
        assert!(
            faulted.comm.total_ns >= healthy.comm.total_ns,
            "{} vs {}",
            faulted.comm.total_ns,
            healthy.comm.total_ns
        );
        assert!(
            faulted.comm.total_ns < healthy.comm.total_ns * 4,
            "routing around stalled TNIs must not serialize on them: {} vs {}",
            faulted.comm.total_ns,
            healthy.comm.total_ns
        );
        assert_eq!(faulted.comm.internode_messages, healthy.comm.internode_messages);
    }

    #[test]
    fn stalled_tni_simulation_is_deterministic() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let cfg = NodeSchemeConfig::paper_best();
        let a = simulate_with_stalled_tnis(&m, &d, &t, &plan, &apr, cfg, &[0], 50_000);
        let b = simulate_with_stalled_tnis(&m, &d, &t, &plan, &apr, cfg, &[0], 50_000);
        assert_eq!(a.comm.total_ns, b.comm.total_ns);
        assert_eq!(a.noc_bytes, b.noc_bytes);
    }

    #[test]
    fn nothing_stalled_matches_the_healthy_schedule_exactly() {
        let (m, d, t, atoms) = setup(0.5, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        let cfg = NodeSchemeConfig::paper_best();
        let healthy = simulate(&m, &d, &t, &plan, &apr, cfg);
        let faulted = simulate_with_stalled_tnis(&m, &d, &t, &plan, &apr, cfg, &[], 0);
        assert_eq!(faulted.comm.total_ns, healthy.comm.total_ns);
    }

    #[test]
    #[should_panic(expected = "leaders must be")]
    fn bad_leader_count_rejected() {
        let (m, d, t, atoms) = setup(1.0, 8.0, [3, 3, 4]);
        let plan = HaloPlan::build(&d, &atoms, 8.0);
        let apr = atoms_per_rank(&d, &atoms);
        simulate(
            &m,
            &d,
            &t,
            &plan,
            &apr,
            NodeSchemeConfig { leaders: 3, driving: TniDriving::ThreadPerTni, lb_broadcast: true },
        );
    }
}
