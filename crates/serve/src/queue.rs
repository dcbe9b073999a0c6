//! Admission control: the typed in-flight cap, priority classes, and the
//! admission queue the continuous scheduler drains each round.
//!
//! Everything here is deterministic by construction: ordering keys are
//! integers only (priority rank, deadline round, arrival sequence), so two
//! runs of the same schedule admit tenants in exactly the same order.

use std::num::NonZeroUsize;
use std::str::FromStr;

/// How many tenants may share a fused round.
///
/// "No bound" is spelled out as [`All`](InFlightCap::All) and every bounded
/// cap is non-zero by type: a count of 0 once silently meant "unlimited",
/// which let a typo'd or negative CLI value turn the bound off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InFlightCap {
    /// No bound: every runnable tenant is admitted each round.
    #[default]
    All,
    /// At most this many tenants share a fused round (backpressure: the
    /// rest wait in the admission queue).
    AtMost(NonZeroUsize),
}

impl InFlightCap {
    /// The cap as a plain admission bound (`usize::MAX` for [`All`]).
    ///
    /// [`All`]: InFlightCap::All
    pub fn bound(&self) -> usize {
        match self {
            InFlightCap::All => usize::MAX,
            InFlightCap::AtMost(n) => n.get(),
        }
    }

    /// The bounded value, if any.
    pub fn limit(&self) -> Option<usize> {
        match self {
            InFlightCap::All => None,
            InFlightCap::AtMost(n) => Some(n.get()),
        }
    }
}

impl FromStr for InFlightCap {
    type Err = String;

    /// Accepts `all` / `unbounded` or a positive count. `0` and negative
    /// counts are rejected with an explanation instead of silently meaning
    /// "unlimited" (the old sentinel bug).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("all") || t.eq_ignore_ascii_case("unbounded") {
            return Ok(InFlightCap::All);
        }
        if t.starts_with('-') {
            return Err(format!(
                "in-flight cap '{t}' is negative; use a positive count or 'all'"
            ));
        }
        match t.parse::<usize>() {
            Ok(0) => Err("in-flight cap 0 would admit nothing; use 'all' for no cap".into()),
            Ok(n) => Ok(InFlightCap::AtMost(NonZeroUsize::new(n).unwrap())),
            Err(_) => Err(format!(
                "invalid in-flight cap '{t}': expected a positive count or 'all'"
            )),
        }
    }
}

impl std::fmt::Display for InFlightCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InFlightCap::All => write!(f, "all"),
            InFlightCap::AtMost(n) => write!(f, "{n}"),
        }
    }
}

/// Scheduling class of a tenant. Lower rank admits first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Admitted before everything else (steered/interactive trajectories).
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Fills whatever slots the other classes leave free.
    Batch,
}

impl Priority {
    /// Ordering rank (0 admits first).
    pub fn rank(&self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interactive" => Ok(Priority::Interactive),
            "standard" => Ok(Priority::Standard),
            "batch" => Ok(Priority::Batch),
            other => Err(format!(
                "unknown priority '{other}' (use interactive | standard | batch)"
            )),
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Standard => write!(f, "standard"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// A tenant waiting for admission.
#[derive(Clone, Copy, Debug)]
pub struct QueueEntry {
    /// Tenant index in the scheduler's tenant table.
    pub tenant: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Finish-by round (earliest deadline admits first within a class).
    pub deadline: Option<u64>,
    /// Round the entry joined the queue.
    pub enqueued_round: u64,
    /// Monotone arrival sequence — the deterministic tie-break.
    pub seq: u64,
}

impl QueueEntry {
    /// Total admission order: class rank, then earliest deadline, then
    /// arrival order. All-integer, so deterministic across runs.
    fn key(&self) -> (u8, u64, u64) {
        (self.priority.rank(), self.deadline.unwrap_or(u64::MAX), self.seq)
    }
}

/// Admission was refused. This is the service's *typed* backpressure — the
/// caller decides whether to drop, retry later, or surface the rejection —
/// rather than a panic or a silently unbounded queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The waiting queue is at capacity.
    Backpressure {
        /// The configured queue capacity.
        capacity: usize,
        /// Entries already waiting.
        waiting: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Backpressure { capacity, waiting } => write!(
                f,
                "admission queue full ({waiting}/{capacity} waiting); retry after a round drains"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The waiting room between `attach` and a fused round: bounded, priority-
/// ordered, deterministic.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    waiting: Vec<QueueEntry>,
    next_seq: u64,
}

impl AdmissionQueue {
    /// Queue holding at most `capacity` waiting entries.
    pub fn bounded(capacity: usize) -> Self {
        AdmissionQueue { capacity, waiting: Vec::new(), next_seq: 0 }
    }

    /// Queue with no waiting bound.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Entries currently waiting.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// The configured waiting bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add a tenant to the waiting set, or refuse with typed backpressure
    /// if the queue is full. Returns the entry's arrival sequence number.
    pub fn enqueue(
        &mut self,
        tenant: usize,
        priority: Priority,
        deadline: Option<u64>,
        round: u64,
    ) -> Result<u64, AdmitError> {
        if self.waiting.len() >= self.capacity {
            return Err(AdmitError::Backpressure {
                capacity: self.capacity,
                waiting: self.waiting.len(),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.push(QueueEntry { tenant, priority, deadline, enqueued_round: round, seq });
        Ok(seq)
    }

    /// Drain up to `slots` entries in admission order (priority class, then
    /// earliest deadline, then arrival sequence) into `out`.
    pub fn admit_up_to(&mut self, slots: usize, out: &mut Vec<QueueEntry>) {
        if slots == 0 || self.waiting.is_empty() {
            return;
        }
        self.waiting.sort_unstable_by_key(QueueEntry::key);
        let take = slots.min(self.waiting.len());
        out.extend(self.waiting.drain(..take));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_parses_counts_and_all() {
        assert_eq!("all".parse::<InFlightCap>().unwrap(), InFlightCap::All);
        assert_eq!("Unbounded".parse::<InFlightCap>().unwrap(), InFlightCap::All);
        assert_eq!("3".parse::<InFlightCap>().unwrap().bound(), 3);
        assert_eq!(InFlightCap::All.bound(), usize::MAX);
    }

    #[test]
    fn cap_rejects_zero_and_negative_with_clear_errors() {
        let zero = "0".parse::<InFlightCap>().unwrap_err();
        assert!(zero.contains("admit nothing"), "{zero}");
        let neg = "-2".parse::<InFlightCap>().unwrap_err();
        assert!(neg.contains("negative"), "{neg}");
        let junk = "many".parse::<InFlightCap>().unwrap_err();
        assert!(junk.contains("positive count or 'all'"), "{junk}");
    }

    #[test]
    fn queue_admits_by_class_then_deadline_then_arrival() {
        let mut q = AdmissionQueue::unbounded();
        q.enqueue(0, Priority::Batch, None, 1).unwrap();
        q.enqueue(1, Priority::Standard, Some(9), 1).unwrap();
        q.enqueue(2, Priority::Standard, Some(4), 1).unwrap();
        q.enqueue(3, Priority::Interactive, None, 1).unwrap();
        q.enqueue(4, Priority::Standard, None, 1).unwrap();
        let mut out = Vec::new();
        q.admit_up_to(4, &mut out);
        let ids: Vec<usize> = out.iter().map(|e| e.tenant).collect();
        assert_eq!(ids, vec![3, 2, 1, 4], "class, then EDF, then arrival");
        assert_eq!(q.len(), 1, "batch-class tenant 0 waits");
    }

    #[test]
    fn full_queue_rejects_with_typed_backpressure() {
        let mut q = AdmissionQueue::bounded(2);
        q.enqueue(0, Priority::Standard, None, 1).unwrap();
        q.enqueue(1, Priority::Standard, None, 1).unwrap();
        let err = q.enqueue(2, Priority::Interactive, None, 1).unwrap_err();
        assert_eq!(err, AdmitError::Backpressure { capacity: 2, waiting: 2 });
        assert!(err.to_string().contains("admission queue full"));
    }
}
