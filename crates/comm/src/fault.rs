//! Deterministic fault injection for the distributed exchange.
//!
//! The paper's communication scheme is only production-grade if it stays
//! correct when the network misbehaves. This module provides a *seeded,
//! replayable* fault model: every decision (drop this message? duplicate
//! it? how long is this rank stalled?) is a pure function of
//! `(seed, step, edge, attempt)`, so a fault scenario replays bit-for-bit
//! across runs — the property the chaos suite in `tests/fault_injection.rs`
//! pins.
//!
//! # Spec grammar
//!
//! A [`FaultPlan`] parses from a `;`-separated clause list (the `--faults`
//! CLI argument):
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := 'seed=' u64              deterministic seed (default 1)
//!          | 'drop=' prob             per-(step,edge,attempt) drop chance
//!          | 'dup=' prob              duplicate-delivery chance
//!          | 'reorder=' prob          per-round delivery-order shuffle chance
//!          | 'delay=' prob ':' rounds in-flight delay chance and length
//!          | 'stall-leader=' rank '@' step '+' nsteps
//!          |                          leader rank stalled for nsteps steps
//!          | 'stall-tni=' tni '@' step '+' nsteps
//!          |                          one TNI engine stalled (timing model)
//!          | 'pool=' bytes            cap the RDMA mempool capacity
//!          | 'retries=' n             max delivery rounds - 1 (default 16)
//!          | 'backoff=' ns            base retry backoff, doubles per round
//! prob    := f64 in [0, 1)
//! ```
//!
//! Example: `seed=7;drop=0.15;dup=0.1;reorder=0.3;stall-leader=0@3+4`.

use std::collections::BTreeMap;

use crate::mempool::MemPool;

/// Per-fault-kind hash salts (distinct streams from one seed).
const SALT_DROP: u64 = 0x44524f50_00000001;
const SALT_DUP: u64 = 0x44555021_00000002;
const SALT_REORDER: u64 = 0x524f5244_00000003;
const SALT_DELAY: u64 = 0x44454c59_00000004;

/// What a stall clause targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallTarget {
    /// A leader rank's communication role: while active, the node-based
    /// scheme cannot aggregate through that leader and the driver degrades
    /// to rank-level p2p exchange.
    LeaderRank(usize),
    /// One of the six TNI engines (timing model: the engine is held busy).
    Tni(usize),
}

/// A stall window: `target` is unavailable for `steps` steps starting at
/// `from_step` (step indices as counted by the driver, first stride = 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// What is stalled.
    pub target: StallTarget,
    /// First affected step.
    pub from_step: u64,
    /// Number of affected steps.
    pub steps: u64,
}

impl Stall {
    /// `true` while the stall window covers `step`.
    pub fn active_at(&self, step: u64) -> bool {
        step >= self.from_step && step < self.from_step + self.steps
    }
}

/// A seeded, deterministic fault scenario for the exchange path.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of every probabilistic decision.
    pub seed: u64,
    /// Per-(step, edge, attempt) message drop probability.
    pub drop_p: f64,
    /// Duplicate-delivery probability.
    pub dup_p: f64,
    /// Per-round delivery-order shuffle probability.
    pub reorder_p: f64,
    /// In-flight delay probability.
    pub delay_p: f64,
    /// Rounds a delayed message stays in flight.
    pub delay_rounds: u32,
    /// Maximum retry rounds after the first transmission.
    pub max_retries: u32,
    /// Base simulated backoff per timed-out round, ns (doubles per round).
    pub backoff_base_ns: u64,
    /// RDMA mempool capacity cap in bytes (`None` = unbounded).
    pub pool_bytes: Option<usize>,
    /// Stall windows (leader ranks, TNIs).
    pub stalls: Vec<Stall>,
}

impl FaultPlan {
    /// The no-fault plan (every probability zero, nothing stalled).
    pub fn none() -> Self {
        FaultPlan {
            seed: 1,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            delay_p: 0.0,
            delay_rounds: 1,
            max_retries: 16,
            backoff_base_ns: 500,
            pool_bytes: None,
            stalls: Vec::new(),
        }
    }

    /// A moderately hostile ready-made scenario: drops, duplicates,
    /// reorders and short delays, all keyed off `seed`.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.15,
            dup_p: 0.10,
            reorder_p: 0.30,
            delay_p: 0.10,
            delay_rounds: 2,
            ..FaultPlan::none()
        }
    }

    /// Parse the spec grammar documented at module level.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value"))?;
            let (key, val) = (key.trim(), val.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 =
                    v.parse().map_err(|_| format!("'{v}' is not a probability"))?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("probability {p} outside [0, 1)"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("'{v}' is not an integer"))
            };
            match key {
                "seed" => plan.seed = int(val)?,
                "drop" => plan.drop_p = prob(val)?,
                "dup" => plan.dup_p = prob(val)?,
                "reorder" => plan.reorder_p = prob(val)?,
                "delay" => {
                    let (p, r) = val
                        .split_once(':')
                        .ok_or_else(|| format!("delay spec '{val}' is not prob:rounds"))?;
                    plan.delay_p = prob(p.trim())?;
                    plan.delay_rounds = int(r.trim())?.max(1) as u32;
                }
                "retries" => plan.max_retries = int(val)? as u32,
                "backoff" => plan.backoff_base_ns = int(val)?,
                "pool" => plan.pool_bytes = Some(int(val)? as usize),
                "stall-leader" | "stall-tni" => {
                    let (target, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("stall spec '{val}' is not target@step+steps"))?;
                    let (from, steps) = window
                        .split_once('+')
                        .ok_or_else(|| format!("stall window '{window}' is not step+steps"))?;
                    let target = int(target.trim())? as usize;
                    let target = if key == "stall-leader" {
                        StallTarget::LeaderRank(target)
                    } else {
                        StallTarget::Tni(target)
                    };
                    plan.stalls.push(Stall {
                        target,
                        from_step: int(from.trim())?,
                        steps: int(steps.trim())?.max(1),
                    });
                }
                other => return Err(format!("unknown fault clause '{other}'")),
            }
        }
        Ok(plan)
    }

    /// The raw decision word for one `(kind, step, edge, attempt)` tuple.
    fn word(&self, salt: u64, step: u64, src: u32, dst: u32, attempt: u32) -> u64 {
        let mut h = splitmix(self.seed ^ salt);
        h = splitmix(h ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix(h ^ (((src as u64) << 32) | dst as u64));
        splitmix(h ^ attempt as u64)
    }

    fn chance(&self, p: f64, salt: u64, step: u64, src: u32, dst: u32, attempt: u32) -> bool {
        p > 0.0 && ((self.word(salt, step, src, dst, attempt) >> 11) as f64 / F53) < p
    }

    /// Drop the `(src → dst)` message at this step/attempt?
    pub fn decide_drop(&self, step: u64, src: u32, dst: u32, attempt: u32) -> bool {
        self.chance(self.drop_p, SALT_DROP, step, src, dst, attempt)
    }

    /// Deliver the message twice?
    pub fn decide_dup(&self, step: u64, src: u32, dst: u32, attempt: u32) -> bool {
        self.chance(self.dup_p, SALT_DUP, step, src, dst, attempt)
    }

    /// Hold the message in flight? Returns the extra rounds if so.
    pub fn decide_delay(&self, step: u64, src: u32, dst: u32, attempt: u32) -> Option<u32> {
        self.chance(self.delay_p, SALT_DELAY, step, src, dst, attempt)
            .then_some(self.delay_rounds)
    }

    /// Shuffle this round's delivery order? (`channel` keys the stream.)
    pub fn decide_reorder(&self, step: u64, channel: u64, round: u32) -> bool {
        self.chance(self.reorder_p, SALT_REORDER, step, channel as u32, !0, round)
    }

    /// Deterministic Fisher–Yates shuffle of `items` for a reorder fault.
    pub fn shuffle<T>(&self, step: u64, channel: u64, round: u32, items: &mut [T]) {
        let mut state =
            splitmix(self.word(SALT_REORDER, step, channel as u32, !0, round) | 1);
        for i in (1..items.len()).rev() {
            state = splitmix(state);
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    /// `true` if any leader-rank stall window covers `step`.
    pub fn leader_stalled_at(&self, step: u64) -> bool {
        self.stalls.iter().any(|s| {
            matches!(s.target, StallTarget::LeaderRank(_)) && s.active_at(step)
        })
    }

    /// TNIs stalled at `step` (timing-model faults), deduplicated.
    pub fn stalled_tnis_at(&self, step: u64) -> Vec<usize> {
        let mut tnis: Vec<usize> = self
            .stalls
            .iter()
            .filter(|s| s.active_at(step))
            .filter_map(|s| match s.target {
                StallTarget::Tni(t) => Some(t),
                _ => None,
            })
            .collect();
        tnis.sort_unstable();
        tnis.dedup();
        tnis
    }
}

const F53: f64 = (1u64 << 53) as f64;

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counters of injected faults and the recovery work they caused. All
/// fields are deterministic functions of `(FaultPlan, workload)`, so two
/// runs of the same scenario produce equal stats — asserted by the chaos
/// suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transmissions, including resends.
    pub messages_sent: u64,
    /// Payload entries shipped (ghost atoms / force triplets).
    pub payload_entries: u64,
    /// Messages lost to drop faults.
    pub dropped: u64,
    /// Extra copies delivered by duplicate faults.
    pub duplicates_delivered: u64,
    /// Copies discarded by the receiver's idempotent apply.
    pub duplicates_ignored: u64,
    /// Rounds whose delivery order was shuffled.
    pub reorders: u64,
    /// Messages held in flight by delay faults.
    pub delayed: u64,
    /// Delayed messages that outlived their step's delivery loop.
    pub expired_in_flight: u64,
    /// Arrivals rejected by the sequence-number check.
    pub stale_rejected: u64,
    /// Resent messages (timeout-triggered retransmissions).
    pub retries: u64,
    /// Delivery rounds that ended with messages still missing.
    pub timeout_rounds: u64,
    /// Simulated exponential-backoff wait accumulated by retries, ns.
    pub backoff_ns: u64,
    /// Sends deferred because the RDMA mempool was exhausted.
    pub pool_exhausted: u64,
    /// Steps where a stalled leader degraded node-based to p2p exchange.
    pub fallback_steps: u64,
}

impl FaultStats {
    /// Total faults injected (drops + dups + reorders + delays + pool).
    pub fn faults_injected(&self) -> u64 {
        self.dropped
            + self.duplicates_delivered
            + self.reorders
            + self.delayed
            + self.pool_exhausted
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "messages sent        {:>10}", self.messages_sent)?;
        writeln!(f, "payload entries      {:>10}", self.payload_entries)?;
        writeln!(f, "dropped              {:>10}", self.dropped)?;
        writeln!(f, "duplicates delivered {:>10}", self.duplicates_delivered)?;
        writeln!(f, "duplicates ignored   {:>10}", self.duplicates_ignored)?;
        writeln!(f, "rounds reordered     {:>10}", self.reorders)?;
        writeln!(f, "delayed in flight    {:>10}", self.delayed)?;
        writeln!(f, "expired in flight    {:>10}", self.expired_in_flight)?;
        writeln!(f, "stale rejected       {:>10}", self.stale_rejected)?;
        writeln!(f, "retries              {:>10}", self.retries)?;
        writeln!(f, "timeout rounds       {:>10}", self.timeout_rounds)?;
        writeln!(f, "backoff accumulated  {:>10} ns", self.backoff_ns)?;
        writeln!(f, "pool exhaustions     {:>10}", self.pool_exhausted)?;
        write!(f, "p2p fallback steps   {:>10}", self.fallback_steps)
    }
}

/// Mutable state of one faulted run: the plan, its counters, the RDMA
/// mempool staging send payloads, and the per-edge sequence counters of the
/// reliable-delivery protocol.
#[derive(Clone, Debug)]
pub struct FaultSession {
    /// The fault scenario.
    pub plan: FaultPlan,
    /// Counters accumulated so far.
    pub stats: FaultStats,
    /// Staging pool for send payloads (capacity from `plan.pool_bytes`).
    pub pool: MemPool,
    next_seq: BTreeMap<(u64, u32, u32), u64>,
    last_accepted: BTreeMap<(u64, u32, u32), u64>,
}

impl FaultSession {
    /// Start a session for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let pool = match plan.pool_bytes {
            Some(cap) => MemPool::new(cap),
            None => MemPool::unbounded(),
        };
        FaultSession {
            plan,
            stats: FaultStats::default(),
            pool,
            next_seq: BTreeMap::new(),
            last_accepted: BTreeMap::new(),
        }
    }

    /// Next sequence number for `(channel, src → dst)` (monotone from 1).
    pub(crate) fn next_seq(&mut self, channel: u64, src: u32, dst: u32) -> u64 {
        let c = self.next_seq.entry((channel, src, dst)).or_insert(0);
        *c += 1;
        *c
    }

    /// Receiver-side sequence check: accept `seq` if it is newer than the
    /// last accepted on this edge, recording it; stale otherwise.
    pub(crate) fn accept_seq(&mut self, channel: u64, src: u32, dst: u32, seq: u64) -> bool {
        let last = self.last_accepted.entry((channel, src, dst)).or_insert(0);
        if seq > *last {
            *last = seq;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let p = FaultPlan::parse(
            "seed=7; drop=0.15;dup=0.1 ;reorder=0.3;delay=0.2:3;\
             stall-leader=0@3+4;stall-tni=5@2+6;pool=4096;retries=9;backoff=250",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.drop_p, 0.15);
        assert_eq!(p.dup_p, 0.1);
        assert_eq!(p.reorder_p, 0.3);
        assert_eq!((p.delay_p, p.delay_rounds), (0.2, 3));
        assert_eq!(p.pool_bytes, Some(4096));
        assert_eq!(p.max_retries, 9);
        assert_eq!(p.backoff_base_ns, 250);
        assert_eq!(
            p.stalls,
            vec![
                Stall { target: StallTarget::LeaderRank(0), from_step: 3, steps: 4 },
                Stall { target: StallTarget::Tni(5), from_step: 2, steps: 6 },
            ]
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for bad in ["drop", "drop=1.5", "drop=x", "delay=0.5", "stall-leader=0@3", "frob=1"] {
            assert!(FaultPlan::parse(bad).is_err(), "spec '{bad}' should not parse");
        }
    }

    #[test]
    fn empty_spec_is_the_no_fault_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn decisions_replay_identically_for_one_seed() {
        let a = FaultPlan::chaos(99);
        let b = FaultPlan::chaos(99);
        for step in 0..20 {
            for e in 0..50u32 {
                assert_eq!(a.decide_drop(step, e, e + 1, 0), b.decide_drop(step, e, e + 1, 0));
                assert_eq!(a.decide_dup(step, e, e + 1, 1), b.decide_dup(step, e, e + 1, 1));
                assert_eq!(
                    a.decide_delay(step, e, e + 1, 0),
                    b.decide_delay(step, e, e + 1, 0)
                );
            }
        }
    }

    #[test]
    fn different_seeds_diverge_and_probabilities_are_honoured() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let mut differ = 0;
        let mut hits = 0u32;
        let total = 4000;
        for step in 0..40 {
            for e in 0..100u32 {
                let (da, db) = (a.decide_drop(step, e, e, 0), b.decide_drop(step, e, e, 0));
                differ += (da != db) as u32;
                hits += da as u32;
            }
        }
        assert!(differ > 0, "two seeds never diverged");
        // drop_p = 0.15 over 4000 samples: expect ~600, allow a wide band.
        let rate = hits as f64 / total as f64;
        assert!((0.10..0.20).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn stall_windows_cover_exactly_their_steps() {
        let p = FaultPlan::parse("stall-leader=2@5+3;stall-tni=1@4+2").unwrap();
        for step in 0..12 {
            assert_eq!(p.leader_stalled_at(step), (5..8).contains(&step), "step {step}");
            let tnis = p.stalled_tnis_at(step);
            if (4..6).contains(&step) {
                assert_eq!(tnis, vec![1]);
            } else {
                assert!(tnis.is_empty());
            }
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_a_permutation() {
        let p = FaultPlan::chaos(5);
        let mut a: Vec<u32> = (0..17).collect();
        let mut b: Vec<u32> = (0..17).collect();
        p.shuffle(3, 42, 1, &mut a);
        p.shuffle(3, 42, 1, &mut b);
        assert_eq!(a, b, "same key must shuffle identically");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..17).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..17).collect();
        p.shuffle(4, 42, 1, &mut c);
        assert_ne!(a, c, "different step should shuffle differently");
    }

    #[test]
    fn session_sequence_numbers_are_monotone_and_stale_is_rejected() {
        let mut s = FaultSession::new(FaultPlan::none());
        let s1 = s.next_seq(1, 0, 1);
        let s2 = s.next_seq(1, 0, 1);
        assert_eq!((s1, s2), (1, 2));
        assert!(s.accept_seq(1, 0, 1, s1));
        assert!(!s.accept_seq(1, 0, 1, s1), "replayed seq must be stale");
        assert!(s.accept_seq(1, 0, 1, s2));
        // Independent edges and channels do not interfere.
        assert_eq!(s.next_seq(2, 0, 1), 1);
        assert_eq!(s.next_seq(1, 1, 0), 1);
    }
}
