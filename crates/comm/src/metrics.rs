//! Communication metrics: one pre-registered handle bundle threaded through
//! the exchange, transport and node-scheme layers.
//!
//! A [`CommMetrics`] is registered once against a
//! [`MetricsRegistry`](dpmd_obs::MetricsRegistry) and then cloned freely
//! (clones share the same counters). All recording goes through
//! pre-allocated handles, so the hot path never allocates; the one
//! exception is the first sighting of a new `(src, dst)` edge, which
//! registers that edge's byte counter lazily.
//!
//! Metric catalog (see the README "Observability" section):
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `comm.messages_sent` | count | canonical exchange messages (1 per message, retries excluded) |
//! | `comm.bytes_sent` | bytes | serialized payload bytes of those messages |
//! | `comm.payload_entries` | count | payload entries (ghost atoms / force triplets) |
//! | `comm.ghosts_applied` | count | ghost atoms present after each forward apply |
//! | `comm.scheme.p2p.messages` | count | messages sent under the rank-p2p scheme |
//! | `comm.scheme.node.messages` | count | messages sent under the node-based scheme |
//! | `comm.fallback_window_steps` | count | steps where a stalled leader degraded node→p2p |
//! | `comm.mempool.peak_bytes` | bytes | RDMA mempool occupancy high-water |
//! | `comm.edge.SSS-DDD.bytes` | bytes | per directed edge payload bytes |
//! | `transport.transmissions` | count | physical sends, including resends |
//! | `transport.retries` | count | timeout-triggered retransmissions |
//! | `transport.backoff_ns` | ns | simulated exponential backoff accumulated |
//! | `transport.pool_exhausted` | count | sends deferred on mempool exhaustion |
//! | `transport.missing_slots` | count | delivery slots found empty at collection (invariant breach) |
//! | `transport.retry_rounds` | count | histogram of per-message retry counts |
//! | `fugaku.tniN.messages` | count | messages routed to RDMA engine N |
//! | `fugaku.rdma.bytes_simulated` | bytes | bytes injected in the timing model |

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dpmd_obs::{Counter, Gauge, Histogram, MetricsRegistry, Unit};
use fugaku::tni::TNIS_PER_NODE;
use minimd::atoms::Atoms;

use crate::functional::ExchangeScheme;
use crate::transport::Message;

/// Pre-registered communication metric handles. Cheap to clone; clones
/// share the underlying counters.
#[derive(Clone, Debug)]
pub struct CommMetrics {
    registry: MetricsRegistry,
    /// Canonical messages put on the wire (one per message, not per retry).
    pub messages_sent: Counter,
    /// Serialized payload bytes of those messages.
    pub bytes_sent: Counter,
    /// Payload entries shipped (ghost atoms / force triplets).
    pub payload_entries: Counter,
    /// Ghost atoms present across all ranks after each forward apply — the
    /// *logical* atom count both schemes must agree on.
    pub ghosts_applied: Counter,
    /// Messages sent under the rank-p2p scheme.
    pub scheme_p2p_messages: Counter,
    /// Messages sent under the node-based scheme.
    pub scheme_node_messages: Counter,
    /// Steps where a stalled leader degraded node-based to p2p.
    pub fallback_steps: Counter,
    /// RDMA mempool occupancy high-water mark.
    pub mempool_peak: Gauge,
    /// Physical transmissions, including resends.
    pub transmissions: Counter,
    /// Timeout-triggered retransmissions.
    pub retries: Counter,
    /// Simulated exponential-backoff wait accumulated by retries.
    pub backoff_ns: Counter,
    /// Sends deferred because the RDMA mempool was exhausted.
    pub pool_exhausted: Counter,
    /// Delivery slots found empty at collection — an invariant breach
    /// surfaced as [`TransportError::MissingDelivery`](crate::TransportError)
    /// instead of a panic.
    pub missing_slots: Counter,
    /// Per-message retry counts (0 = delivered first try).
    pub retry_rounds: Histogram,
    /// Messages routed to each of the node's RDMA engines.
    pub tni_messages: Vec<Counter>,
    /// Bytes injected into the network in the timing model.
    pub rdma_bytes: Counter,
    edges: Arc<Mutex<BTreeMap<(u32, u32), Counter>>>,
}

impl CommMetrics {
    /// Register every comm/transport/fugaku metric against `reg` and return
    /// the handle bundle. Idempotent per registry: registering twice yields
    /// handles to the same cells.
    pub fn register(reg: &MetricsRegistry) -> Self {
        CommMetrics {
            registry: reg.clone(),
            messages_sent: reg.counter("comm.messages_sent", Unit::Count),
            bytes_sent: reg.counter("comm.bytes_sent", Unit::Bytes),
            payload_entries: reg.counter("comm.payload_entries", Unit::Count),
            ghosts_applied: reg.counter("comm.ghosts_applied", Unit::Count),
            scheme_p2p_messages: reg.counter("comm.scheme.p2p.messages", Unit::Count),
            scheme_node_messages: reg.counter("comm.scheme.node.messages", Unit::Count),
            fallback_steps: reg.counter("comm.fallback_window_steps", Unit::Count),
            mempool_peak: reg.gauge("comm.mempool.peak_bytes", Unit::Bytes),
            transmissions: reg.counter("transport.transmissions", Unit::Count),
            retries: reg.counter("transport.retries", Unit::Count),
            backoff_ns: reg.counter("transport.backoff_ns", Unit::Ns),
            pool_exhausted: reg.counter("transport.pool_exhausted", Unit::Count),
            missing_slots: reg.counter("transport.missing_slots", Unit::Count),
            retry_rounds: reg.histogram("transport.retry_rounds", Unit::Count, &[0, 1, 2, 4, 8, 16]),
            tni_messages: (0..TNIS_PER_NODE)
                .map(|i| reg.counter(&format!("fugaku.tni{i}.messages"), Unit::Count))
                .collect(),
            rdma_bytes: reg.counter("fugaku.rdma.bytes_simulated", Unit::Bytes),
            edges: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Charge a batch of canonical exchange messages: message/byte/entry
    /// totals, the per-scheme split, and per-edge bytes. `entry_bytes` is
    /// the serialized size of one payload entry.
    pub fn count_messages<T>(
        &self,
        scheme: Option<ExchangeScheme>,
        entry_bytes: usize,
        messages: &[Message<T>],
    ) {
        for m in messages {
            let bytes = (m.payload.len() * entry_bytes) as u64;
            self.messages_sent.inc();
            self.bytes_sent.add(bytes);
            self.payload_entries.add(m.payload.len() as u64);
            match scheme {
                Some(ExchangeScheme::RankP2p) => self.scheme_p2p_messages.inc(),
                Some(ExchangeScheme::NodeBased) => self.scheme_node_messages.inc(),
                None => {}
            }
            self.edge_bytes(m.src, m.dst).add(bytes);
        }
    }

    /// The per-edge byte counter for `src → dst`, registered on first use.
    /// Names are zero-padded (`comm.edge.003-014.bytes`) so the snapshot's
    /// lexicographic order equals numeric order.
    pub fn edge_bytes(&self, src: u32, dst: u32) -> Counter {
        let mut edges = self.edges.lock().unwrap();
        edges
            .entry((src, dst))
            .or_insert_with(|| {
                self.registry.counter(&format!("comm.edge.{src:03}-{dst:03}.bytes"), Unit::Bytes)
            })
            .clone()
    }

    /// Charge the ghost atoms present across all ranks after a forward
    /// apply (`comm.ghosts_applied`).
    pub fn record_ghosts(&self, per_rank: &[Atoms]) {
        let ghosts: usize = per_rank.iter().map(|a| a.len() - a.nlocal).sum();
        self.ghosts_applied.add(ghosts as u64);
    }

    /// Charge a per-engine message-count summary (from
    /// [`fugaku::tni::assignment_counts`]) onto the `fugaku.tniN.messages`
    /// counters.
    pub fn record_tni_assignment(&self, counts: &[usize]) {
        for (tni, &n) in counts.iter().enumerate() {
            if let Some(c) = self.tni_messages.get(tni) {
                c.add(n as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_messages_charges_bytes_and_scheme_split() {
        let reg = MetricsRegistry::new();
        let m = CommMetrics::register(&reg);
        let msgs = vec![
            Message { src: 0, dst: 1, payload: vec![1u64, 2, 3] },
            Message { src: 1, dst: 0, payload: vec![4u64] },
        ];
        m.count_messages(Some(ExchangeScheme::RankP2p), 40, &msgs);
        m.count_messages(None, 24, &msgs[..1]);
        let s = reg.snapshot();
        assert_eq!(s.counter("comm.messages_sent"), Some(3));
        assert_eq!(s.counter("comm.bytes_sent"), Some((3 + 1) as u64 * 40 + 3 * 24));
        assert_eq!(s.counter("comm.payload_entries"), Some(7));
        assert_eq!(s.counter("comm.scheme.p2p.messages"), Some(2));
        assert_eq!(s.counter("comm.scheme.node.messages"), Some(0));
        assert_eq!(s.counter("comm.edge.000-001.bytes"), Some(3 * 40 + 3 * 24));
        assert_eq!(s.counter("comm.edge.001-000.bytes"), Some(40));
    }

    #[test]
    fn tni_assignment_charges_per_engine() {
        let reg = MetricsRegistry::new();
        let m = CommMetrics::register(&reg);
        m.record_tni_assignment(&[2, 0, 5, 0, 0, 1]);
        m.record_tni_assignment(&[1, 0, 0, 0, 0, 0]);
        let s = reg.snapshot();
        assert_eq!(s.counter("fugaku.tni0.messages"), Some(3));
        assert_eq!(s.counter("fugaku.tni2.messages"), Some(5));
        assert_eq!(s.counter("fugaku.tni5.messages"), Some(1));
    }
}
