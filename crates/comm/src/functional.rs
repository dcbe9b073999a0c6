//! Functional ghost exchange: actually move atoms between per-rank stores.
//!
//! The timing models in this crate predict *when* data arrives; this module
//! proves *what* arrives is right. All ranks live in one address space;
//! each holds a `minimd::Atoms` with its locals, and an exchange populates
//! ghosts with correctly image-shifted coordinates. The integration tests
//! assert that (a) every scheme delivers the same ghost sets and (b) forces
//! computed per-rank from ghosts equal the global single-box computation —
//! the invariant that makes the paper's comm optimizations *legal*.
//!
//! Each direction has one body ([`exchange_ghosts_with`] forward, its
//! reverse twin for the force reduction): build the canonical messages,
//! optionally charge them to a [`CommMetrics`], optionally push them
//! through a [`FaultSession`]'s recovery protocol, apply.
//! [`exchange_ghosts`] / [`reverse_forces`] are those bodies with nothing
//! attached.

use std::collections::BTreeMap;

use minimd::atoms::Atoms;
use minimd::domain::Decomposition;
use minimd::vec3::Vec3;

use crate::fault::FaultSession;
use crate::metrics::CommMetrics;
use crate::plan::{ATOM_FORWARD_BYTES, ATOM_REVERSE_BYTES};
use crate::transport::{deliver_reliable, Message, CHANNEL_FORWARD, CHANNEL_REVERSE};

/// One forward payload entry: `(id, type, original position)`. Positions
/// travel *unshifted*; every receiver derives the periodic image shift for
/// its own sub-box. That makes the per-rank ghost arrays of both exchange
/// schemes bitwise identical — each ghost id appears exactly once per rank
/// and its stored position is a pure function of `(original pos, rank box)`
/// — which is what lets a faulted node-based run degrade to p2p mid-run
/// without perturbing the trajectory.
pub type GhostEntry = (u64, u32, Vec3);

/// One reverse payload entry: `(owner id, accumulated ghost force)`.
pub type ForceEntry = (u64, Vec3);

/// How ghosts travel (both must produce identical ghost sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeScheme {
    /// Every rank receives directly from each stencil neighbour rank.
    RankP2p,
    /// Node-level aggregation: leaders gather, exchange per node, scatter.
    NodeBased,
}

/// Split a global configuration into per-rank stores (locals only).
pub fn partition(decomp: &Decomposition, global: &Atoms) -> Vec<Atoms> {
    let mut per_rank: Vec<Atoms> = (0..decomp.num_ranks()).map(|_| Atoms::new(global.species.clone())).collect();
    for i in 0..global.nlocal {
        let r = decomp.rank_of_pos(global.pos[i]);
        per_rank[r].push_local(global.id[i], global.typ[i], global.pos[i], global.vel[i]);
    }
    per_rank
}

/// Image shift that places owned position `p` nearest to the box `[lo, hi)`
/// along every axis (periodic).
fn ghost_shift(decomp: &Decomposition, p: Vec3, lo: Vec3, hi: Vec3) -> Vec3 {
    let l = decomp.bx.lengths();
    let mut shift = Vec3::ZERO;
    for d in 0..3 {
        let mut best = f64::MAX;
        let mut best_s = 0.0;
        for s in [-l[d], 0.0, l[d]] {
            let x = p[d] + s;
            let dist = if x < lo[d] {
                lo[d] - x
            } else if x > hi[d] {
                x - hi[d]
            } else {
                0.0
            };
            if dist < best {
                best = dist;
                best_s = s;
            }
        }
        shift[d] = best_s;
    }
    shift
}

/// Populate ghost atoms on every rank for cutoff `rc`.
///
/// Ghost positions carry the periodic image shift, so per-rank force code
/// can use plain Euclidean distances. `lb_broadcast` additionally delivers
/// *every* node-box atom (locals of sibling ranks and all node ghosts) to
/// every rank of the node — the layout of Fig. 5(b) that enables intra-node
/// load balance.
///
/// This is [`exchange_ghosts_with`] with nothing attached.
pub fn exchange_ghosts(
    decomp: &Decomposition,
    per_rank: &mut [Atoms],
    rc: f64,
    scheme: ExchangeScheme,
    lb_broadcast: bool,
) {
    exchange_ghosts_with(decomp, per_rank, rc, scheme, lb_broadcast, None, None);
}

/// The forward exchange, with its run-time attachments.
///
/// * `obs` — charge the canonical message set (messages, bytes, per-edge
///   and per-scheme splits) before the apply and the resulting ghost count
///   after it.
/// * `faults` — a `(session, step)` pair: the same canonical messages go
///   through [`deliver_reliable`]'s retry/dedup protocol before being
///   applied, accumulating fault and recovery counters into the session
///   (and into `obs`, when both are attached). Panics if delivery exhausts
///   its retries (only reachable under pathological fault plans, e.g.
///   `drop` probabilities near 1).
///
/// Neither attachment changes what is applied: delivery returns the input
/// messages in their input order.
pub fn exchange_ghosts_with(
    decomp: &Decomposition,
    per_rank: &mut [Atoms],
    rc: f64,
    scheme: ExchangeScheme,
    lb_broadcast: bool,
    obs: Option<&CommMetrics>,
    faults: Option<(&mut FaultSession, u64)>,
) {
    assert_eq!(per_rank.len(), decomp.num_ranks());
    for a in per_rank.iter_mut() {
        a.clear_ghosts();
    }
    let mut messages = build_forward_messages(decomp, per_rank, rc, scheme, lb_broadcast);
    if let Some(o) = obs {
        o.count_messages(Some(scheme), ATOM_FORWARD_BYTES, &messages);
    }
    if let Some((session, step)) = faults {
        messages =
            deliver_reliable(session, obs, CHANNEL_FORWARD, step, ATOM_FORWARD_BYTES, &messages)
                .unwrap_or_else(|e| panic!("forward exchange at step {step}: {e}"));
    }
    apply_forward_messages(decomp, per_rank, rc, scheme, lb_broadcast, &messages);
    if let Some(o) = obs {
        o.record_ghosts(per_rank);
    }
}

/// Assemble the canonical forward messages of `scheme`: what every
/// sender would put on the wire, in deterministic order.
///
/// * `RankP2p` — one message per directed `(stencil neighbour → rank)`
///   edge, payload filtered to the receiver's ghost region;
/// * `NodeBased` — one message per directed `(node → neighbour node)`
///   edge between the leader ranks, payload being the source node's pooled
///   atoms inside the destination *node's* ghost region — each atom shipped
///   once per node pair, the deduplication behind the paper's 81 % saving.
pub fn build_forward_messages(
    decomp: &Decomposition,
    per_rank: &[Atoms],
    rc: f64,
    scheme: ExchangeScheme,
    lb_broadcast: bool,
) -> Vec<Message<GhostEntry>> {
    let mut messages = Vec::new();
    match scheme {
        ExchangeScheme::RankP2p => {
            for dst in 0..decomp.num_ranks() {
                let mut sources = decomp.neighbor_ranks(dst, rc);
                if lb_broadcast {
                    // Sibling ranks' locals are also needed wholesale.
                    for r in decomp.node_ranks(decomp.rank_to_node(dst)) {
                        if r != dst && !sources.contains(&r) {
                            sources.push(r);
                        }
                    }
                }
                for src in sources {
                    let node_sib = decomp.rank_to_node(src) == decomp.rank_to_node(dst);
                    let a = &per_rank[src];
                    let mut payload = Vec::new();
                    for i in 0..a.nlocal {
                        let p = a.pos[i];
                        let take = (lb_broadcast && node_sib)
                            || decomp.in_ghost_region_of_rank(dst, p, rc);
                        if take {
                            payload.push((a.id[i], a.typ[i], p));
                        }
                    }
                    messages.push(Message { src: src as u32, dst: dst as u32, payload });
                }
            }
        }
        ExchangeScheme::NodeBased => {
            // Gather: node n's pooled atoms (all four ranks' locals).
            let nnodes = decomp.num_nodes();
            let mut node_atoms: Vec<Vec<GhostEntry>> = vec![Vec::new(); nnodes];
            for (n, pooled) in node_atoms.iter_mut().enumerate() {
                for r in decomp.node_ranks(n) {
                    let a = &per_rank[r];
                    for i in 0..a.nlocal {
                        pooled.push((a.id[i], a.typ[i], a.pos[i]));
                    }
                }
            }
            for dst in 0..nnodes {
                let leader_dst = decomp.node_ranks(dst)[0] as u32;
                let (lo, hi) = decomp.node_box(dst);
                for src in decomp.neighbor_nodes(dst, rc) {
                    let payload: Vec<GhostEntry> = node_atoms[src]
                        .iter()
                        .filter(|&&(_, _, p)| decomp.point_near_box(p, lo, hi, rc))
                        .copied()
                        .collect();
                    messages.push(Message {
                        src: decomp.node_ranks(src)[0] as u32,
                        dst: leader_dst,
                        payload,
                    });
                }
            }
        }
    }
    messages
}

/// Apply delivered forward messages: shift every entry into the receiving
/// rank's frame, merge with intra-node (shared-memory) sibling locals for
/// the node-based scheme, sort by id, and push as ghosts.
///
/// Apply order is canonical — it depends only on the message *set*, never
/// on arrival order, which is the property that makes reorder faults
/// harmless.
pub fn apply_forward_messages(
    decomp: &Decomposition,
    per_rank: &mut [Atoms],
    rc: f64,
    scheme: ExchangeScheme,
    lb_broadcast: bool,
    messages: &[Message<GhostEntry>],
) {
    match scheme {
        ExchangeScheme::RankP2p => {
            let mut incoming: Vec<Vec<GhostEntry>> = vec![Vec::new(); decomp.num_ranks()]; // dpmd-allow D5: per-exchange staging, one vec per rank
            for m in messages {
                let dst = m.dst as usize;
                let (lo, hi) = decomp.rank_box(dst);
                for &(id, typ, p) in &m.payload {
                    incoming[dst].push((id, typ, p + ghost_shift(decomp, p, lo, hi)));
                }
            }
            for (dst, mut inc) in incoming.into_iter().enumerate() {
                inc.sort_by_key(|e| e.0);
                for (id, typ, pos) in inc {
                    per_rank[dst].push_ghost(id, typ, pos);
                }
            }
        }
        ExchangeScheme::NodeBased => {
            // Leaders' inboxes: remote node ghosts, keyed by receiving node.
            let nnodes = decomp.num_nodes();
            let mut node_ghosts: Vec<Vec<GhostEntry>> = vec![Vec::new(); nnodes]; // dpmd-allow D5: per-exchange staging, one vec per node
            for m in messages {
                node_ghosts[decomp.rank_to_node(m.dst as usize)].extend_from_slice(&m.payload);
            }
            // Scatter: within each node, deliver to each rank (shared
            // memory — never faulted).
            for (n, ghosts) in node_ghosts.iter().enumerate() {
                for dst in decomp.node_ranks(n) {
                    let (lo, hi) = decomp.rank_box(dst);
                    let mut incoming: Vec<GhostEntry> = Vec::new(); // dpmd-allow D5: per-exchange staging, grows to the halo size
                    // Sibling locals (from the node gather).
                    for r in decomp.node_ranks(n) {
                        if r == dst {
                            continue;
                        }
                        let a = &per_rank[r];
                        for i in 0..a.nlocal {
                            let p = a.pos[i];
                            if lb_broadcast || decomp.in_ghost_region_of_rank(dst, p, rc) {
                                incoming.push((a.id[i], a.typ[i], p + ghost_shift(decomp, p, lo, hi)));
                            }
                        }
                    }
                    // Remote ghosts (from the node exchange).
                    for &(id, typ, p) in ghosts {
                        if lb_broadcast || decomp.in_ghost_region_of_rank(dst, p, rc) {
                            incoming.push((id, typ, p + ghost_shift(decomp, p, lo, hi)));
                        }
                    }
                    incoming.sort_by_key(|e| e.0);
                    for (id, typ, pos) in incoming {
                        per_rank[dst].push_ghost(id, typ, pos);
                    }
                }
            }
        }
    }
}


/// Functional 3-stage (staged forwarding) exchange — LAMMPS' own algorithm:
/// ghosts propagate one dimension at a time, with multi-round forwarding
/// when the halo spans several sub-box layers. Produces exactly the same
/// per-rank ghost sets as [`ExchangeScheme::RankP2p`] (tested), which is
/// why LAMMPS can use either interchangeably.
pub fn exchange_ghosts_three_stage(decomp: &Decomposition, per_rank: &mut [Atoms], rc: f64) {
    assert_eq!(per_rank.len(), decomp.num_ranks());
    for a in per_rank.iter_mut() {
        a.clear_ghosts();
    }
    let layers = Decomposition::comm_layers(decomp.rank_edges(), rc);
    let l = decomp.bx.lengths();

    // Working sets: (id, typ, pos) per rank, positions already image-
    // shifted into the receiving rank's frame. Seed with locals.
    let mut held: Vec<Vec<(u64, u32, Vec3)>> = per_rank
        .iter()
        .map(|a| (0..a.nlocal).map(|i| (a.id[i], a.typ[i], a.pos[i])).collect())
        .collect();

    for d in 0..3 {
        for _round in 0..layers[d] {
            // Each rank sends to its ±d neighbours the held atoms within rc
            // of that neighbour's sub-box along the dimensions processed so
            // far (the slab criterion); receivers deduplicate by (id, pos).
            let mut incoming: Vec<Vec<(u64, u32, Vec3)>> = vec![Vec::new(); decomp.num_ranks()];
            for (rank, set) in held.iter().enumerate() {
                let c = decomp.rank_coords(rank);
                for sign in [-1i64, 1i64] {
                    let mut cc = [c[0] as i64, c[1] as i64, c[2] as i64];
                    cc[d] += sign;
                    let dst = decomp.rank_at(cc);
                    let (lo, hi) = decomp.rank_box(dst);
                    for &(id, typ, p) in set {
                        // Per-axis shift toward dst's box on axis d only
                        // (earlier axes were already aligned when the atom
                        // travelled; the same ±L logic re-derives them).
                        let mut shift = Vec3::ZERO;
                        let mut dist = 0.0f64;
                        for ax in 0..3 {
                            let mut best = f64::MAX;
                            let mut best_s = 0.0;
                            for s in [-l[ax], 0.0, l[ax]] {
                                let x = p[ax] + s;
                                let dd = if x < lo[ax] {
                                    lo[ax] - x
                                } else if x > hi[ax] {
                                    x - hi[ax]
                                } else {
                                    0.0
                                };
                                if dd < best {
                                    best = dd;
                                    best_s = s;
                                }
                            }
                            shift[ax] = best_s;
                            if ax <= d {
                                dist += best * best;
                            }
                        }
                        // Slab criterion over the processed dimensions.
                        if dist <= rc * rc {
                            incoming[dst].push((id, typ, p + shift));
                        }
                    }
                }
            }
            // Merge with dedup by (id, quantized position).
            for (rank, inc) in incoming.into_iter().enumerate() {
                let mut seen: std::collections::BTreeSet<(u64, [i64; 3])> = held[rank]
                    .iter()
                    .map(|&(id, _, p)| (id, quant(p)))
                    .collect();
                for (id, typ, p) in inc {
                    if seen.insert((id, quant(p))) {
                        held[rank].push((id, typ, p));
                    }
                }
            }
        }
    }

    // Materialize: everything held beyond the locals that sits within rc of
    // the rank box (3-D criterion) becomes a ghost, sorted for determinism.
    for (rank, a) in per_rank.iter_mut().enumerate() {
        let mut ghosts: Vec<(u64, u32, Vec3)> = held[rank]
            .iter()
            .skip(a.nlocal)
            .filter(|&&(_, _, p)| decomp.in_ghost_region_of_rank(rank, p, rc))
            .copied()
            .collect();
        ghosts.sort_by_key(|&(id, _, p)| (id, quant(p)));
        for (id, typ, p) in ghosts {
            a.push_ghost(id, typ, p);
        }
    }
}

#[inline]
fn quant(p: Vec3) -> [i64; 3] {
    [(p.x * 1e7).round() as i64, (p.y * 1e7).round() as i64, (p.z * 1e7).round() as i64]
}

/// Canonical ghost multiset of a rank: sorted `(id, quantized position)`
/// for scheme-equivalence checks.
pub fn ghost_signature(atoms: &Atoms) -> Vec<(u64, [i64; 3])> {
    let mut v: Vec<(u64, [i64; 3])> = (atoms.nlocal..atoms.len())
        .map(|i| {
            let p = atoms.pos[i];
            (
                atoms.id[i],
                [(p.x * 1e7).round() as i64, (p.y * 1e7).round() as i64, (p.z * 1e7).round() as i64],
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// Reverse path: accumulate ghost forces back onto their owners ("Newton's
/// law on"). Ghosts are matched by global id.
pub fn reverse_forces(_decomp: &Decomposition, per_rank: &mut [Atoms]) {
    reverse_forces_with(per_rank, None, None);
}

/// The reverse reduction with the same run-time attachments (and the same
/// panic-on-exhausted-retries contract) as [`exchange_ghosts_with`]. The
/// reverse path is shared by both schemes, so `obs` is charged without a
/// scheme split.
pub(crate) fn reverse_forces_with(
    per_rank: &mut [Atoms],
    obs: Option<&CommMetrics>,
    faults: Option<(&mut FaultSession, u64)>,
) {
    let mut messages = build_reverse_messages(per_rank);
    if let Some(o) = obs {
        o.count_messages(None, ATOM_REVERSE_BYTES, &messages);
    }
    if let Some((session, step)) = faults {
        messages =
            deliver_reliable(session, obs, CHANNEL_REVERSE, step, ATOM_REVERSE_BYTES, &messages)
                .unwrap_or_else(|e| panic!("reverse reduction at step {step}: {e}"));
    }
    apply_reverse_messages(per_rank, &messages);
}

/// Assemble the canonical reverse messages: each rank's non-zero ghost
/// forces, grouped per owner rank, in `(source rank asc, ghost index asc)`
/// order. That ordering makes the summation order per owner atom identical
/// to the sequential reference, so applying delivered messages is bitwise
/// equal to [`reverse_forces`] — for either exchange scheme.
pub fn build_reverse_messages(per_rank: &[Atoms]) -> Vec<Message<ForceEntry>> {
    let mut owner_rank = BTreeMap::new();
    for (r, a) in per_rank.iter().enumerate() {
        for i in 0..a.nlocal {
            owner_rank.insert(a.id[i], r as u32);
        }
    }
    let nranks = per_rank.len();
    let mut messages = Vec::new();
    for (src, a) in per_rank.iter().enumerate() {
        let mut per_dst: Vec<Vec<ForceEntry>> = vec![Vec::new(); nranks];
        for gi in a.nlocal..a.len() {
            if a.force[gi] != Vec3::ZERO {
                per_dst[owner_rank[&a.id[gi]] as usize].push((a.id[gi], a.force[gi]));
            }
        }
        for (dst, payload) in per_dst.into_iter().enumerate() {
            if !payload.is_empty() {
                messages.push(Message { src: src as u32, dst: dst as u32, payload });
            }
        }
    }
    messages
}

/// Apply delivered reverse messages onto the owners' force arrays, in
/// canonical message order (independent of arrival order).
pub fn apply_reverse_messages(per_rank: &mut [Atoms], messages: &[Message<ForceEntry>]) {
    let index: Vec<BTreeMap<u64, usize>> = per_rank
        .iter()
        .map(|a| (0..a.nlocal).map(|i| (a.id[i], i)).collect()) // dpmd-allow D5: per-exchange id index, rebuilt after migration
        .collect();
    for m in messages {
        let dst = m.dst as usize;
        for &(id, f) in &m.payload {
            let i = index[dst][&id];
            per_rank[dst].force[i] += f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimd::lattice::fcc_lattice;
    use minimd::neighbor::{ListKind, NeighborList};
    use minimd::potential::lj::LennardJones;
    use minimd::potential::Potential;
    use minimd::simbox::SimBox;

    fn setup() -> (Decomposition, Atoms, SimBox) {
        // 3×3×4 nodes, box big enough for rc=5 with rank edges ≥ rc/2.
        let (bx, atoms) = fcc_lattice(10, 10, 10, 3.615);
        let decomp = Decomposition::new(bx, [3, 3, 4]);
        (decomp, atoms, bx)
    }

    #[test]
    fn partition_conserves_atoms() {
        let (decomp, atoms, _) = setup();
        let per_rank = partition(&decomp, &atoms);
        let total: usize = per_rank.iter().map(|a| a.nlocal).sum();
        assert_eq!(total, atoms.nlocal);
        for (r, a) in per_rank.iter().enumerate() {
            a.validate().unwrap();
            let (lo, hi) = decomp.rank_box(r);
            for i in 0..a.nlocal {
                for d in 0..3 {
                    assert!(a.pos[i][d] >= lo[d] - 1e-12 && a.pos[i][d] < hi[d] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn p2p_and_node_based_deliver_identical_ghosts() {
        let (decomp, atoms, _) = setup();
        let rc = 5.0;
        let mut a1 = partition(&decomp, &atoms);
        let mut a2 = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut a1, rc, ExchangeScheme::RankP2p, false);
        exchange_ghosts(&decomp, &mut a2, rc, ExchangeScheme::NodeBased, false);
        for r in 0..decomp.num_ranks() {
            assert_eq!(ghost_signature(&a1[r]), ghost_signature(&a2[r]), "rank {r}");
        }
    }

    #[test]
    fn lb_broadcast_supersets_owner_ghosts() {
        let (decomp, atoms, _) = setup();
        let rc = 5.0;
        let mut plain = partition(&decomp, &atoms);
        let mut lb = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut plain, rc, ExchangeScheme::NodeBased, false);
        exchange_ghosts(&decomp, &mut lb, rc, ExchangeScheme::NodeBased, true);
        for r in 0..decomp.num_ranks() {
            let sig_plain = ghost_signature(&plain[r]);
            let sig_lb = ghost_signature(&lb[r]);
            assert!(sig_lb.len() >= sig_plain.len(), "rank {r}");
            // Every plain ghost appears in the lb set.
            let set: std::collections::BTreeSet<_> = sig_lb.into_iter().collect();
            for s in sig_plain {
                assert!(set.contains(&s), "rank {r} missing ghost {s:?}");
            }
        }
    }

    #[test]
    fn three_stage_forwarding_matches_p2p_ghosts() {
        let (decomp, atoms, _) = setup();
        let rc = 5.0;
        let mut p2p = partition(&decomp, &atoms);
        let mut staged = partition(&decomp, &atoms);
        exchange_ghosts(&decomp, &mut p2p, rc, ExchangeScheme::RankP2p, false);
        exchange_ghosts_three_stage(&decomp, &mut staged, rc);
        for r in 0..decomp.num_ranks() {
            assert_eq!(
                ghost_signature(&p2p[r]),
                ghost_signature(&staged[r]),
                "rank {r}: staged forwarding must reproduce the p2p halo"
            );
        }
    }

    /// The load-bearing test: distributed forces (per-rank with ghosts,
    /// plus the reverse reduction) equal the global single-box forces.
    #[test]
    fn distributed_forces_match_global_reference() {
        let (decomp, mut global, bx) = setup();
        // Perturb for non-trivial forces.
        for (k, p) in global.pos.iter_mut().enumerate() {
            p.x += 0.05 * ((k % 7) as f64 - 3.0) / 3.0;
            *p = bx.wrap(*p);
        }
        let lj = LennardJones::new(0.0104, 3.4, 5.0);
        // Global reference.
        let mut nl = NeighborList::new(5.0, 0.0, ListKind::Full);
        nl.build(&global, &bx);
        global.zero_forces();
        let gout = lj.compute(&mut global, &nl, &bx);
        let mut ref_force = std::collections::BTreeMap::new();
        for i in 0..global.nlocal {
            ref_force.insert(global.id[i], global.force[i]);
        }
        // Distributed.
        let mut per_rank = partition(&decomp, &global);
        exchange_ghosts(&decomp, &mut per_rank, 5.0, ExchangeScheme::NodeBased, false);
        let mut dist_energy = 0.0;
        for a in per_rank.iter_mut() {
            let mut rnl = NeighborList::new(5.0, 0.0, ListKind::Full);
            rnl.build(a, &bx);
            a.zero_forces();
            let out = lj.compute(a, &rnl, &bx);
            dist_energy += out.energy;
        }
        reverse_forces(&decomp, &mut per_rank);
        // Energies agree (full list halves shared pair energy, so the sum
        // over ranks equals the global total).
        assert!(
            (dist_energy - gout.energy).abs() < 1e-6 * gout.energy.abs().max(1.0),
            "energy {dist_energy} vs {}",
            gout.energy
        );
        // Forces agree atom by atom.
        for a in per_rank.iter() {
            for i in 0..a.nlocal {
                let rf = ref_force[&a.id[i]];
                assert!((a.force[i] - rf).norm() < 1e-9, "atom id {}: {:?} vs {rf:?}", a.id[i], a.force[i]);
            }
        }
    }
}
