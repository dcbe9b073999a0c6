//! Deterministic arrival scripts for the continuous scheduler.
//!
//! Wall clocks are banned on deterministic paths (the `clippy.toml` clock ban), so the
//! service cannot be driven by "whenever requests happen to show up".
//! Instead an [`ArrivalScript`] derives every tenant's arrival round from a
//! seed (plus explicit overrides), giving a schedule that replays
//! bit-identically — which is what lets CI assert trajectories.
//!
//! Format: `;`-separated clauses, e.g.
//! `"seed=7;tenants=6;steps=10;window=4;prio=0:interactive;deadline=0@8;pause=2@3+2;queue=4"`.
//!
//! | clause | meaning |
//! |---|---|
//! | `seed=S` | schedule seed (default 0) |
//! | `tenants=N` | tenant count (default 4) |
//! | `steps=K` | steps per tenant (default 10) |
//! | `window=W` | arrivals hash into rounds `1..=W` (default 4) |
//! | `queue=N` | admission-queue capacity (default unbounded) |
//! | `at=ID@R` | pin tenant ID's arrival to round R |
//! | `prio=ID:C` | priority class (`interactive`/`standard`/`batch`) |
//! | `deadline=ID@R` | tenant ID should finish by round R (EDF key) |
//! | `pause=ID@R+K` | detach tenant ID at round R, re-enqueue at R+K |

use crate::queue::Priority;
use crate::tenant::TenantSpec;

/// SplitMix64 — the schedule hash. Self-contained so scripts never depend
/// on RNG crate internals.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parsed, fully deterministic arrival schedule.
#[derive(Clone, Debug)]
pub struct ArrivalScript {
    /// Schedule seed (arrival rounds hash off this).
    pub seed: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Steps per tenant.
    pub steps: u64,
    /// Arrivals land in rounds `1..=window` unless pinned with `at=`.
    pub window: u64,
    /// Admission-queue capacity (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// `at=ID@R` overrides.
    pub arrival_overrides: Vec<(usize, u64)>,
    /// `prio=ID:C` overrides.
    pub priorities: Vec<(usize, Priority)>,
    /// `deadline=ID@R` entries.
    pub deadlines: Vec<(usize, u64)>,
    /// `pause=ID@R+K` entries, stored as `(id, pause_round, resume_round)`.
    pub pauses: Vec<(usize, u64, u64)>,
}

impl Default for ArrivalScript {
    fn default() -> Self {
        ArrivalScript {
            seed: 0,
            tenants: 4,
            steps: 10,
            window: 4,
            queue_capacity: usize::MAX,
            arrival_overrides: Vec::new(),
            priorities: Vec::new(),
            deadlines: Vec::new(),
            pauses: Vec::new(),
        }
    }
}

/// Largest value a round-valued clause (`window`, `at`, `deadline`, `pause`
/// start and length) may take. `run_script` ticks through every empty round
/// up to the next arrival or resume, so an unbounded round is a hang.
const MAX_ROUND: u64 = 1_000_000;

/// Largest `tenants=`: `schedule` allocates one entry per tenant.
const MAX_TENANTS: usize = 100_000;

/// Parse a round-valued field of `clause`; `what` names it in the
/// bad-value message.
fn parse_round(v: &str, clause: &str, what: &str) -> Result<u64, String> {
    let r: u64 = v.parse().map_err(|_| format!("{clause}: bad {what} '{v}'"))?;
    if r > MAX_ROUND {
        return Err(format!("{clause}: at most {MAX_ROUND} rounds"));
    }
    Ok(r)
}

/// Split `"ID@R"`.
fn parse_at(v: &str, clause: &str) -> Result<(usize, u64), String> {
    let (id, r) = v.split_once('@').ok_or_else(|| format!("{clause}: expected ID@R, got '{v}'"))?;
    let id = id.parse().map_err(|_| format!("{clause}: bad tenant id '{id}'"))?;
    Ok((id, parse_round(r, clause, "round")?))
}

impl ArrivalScript {
    /// A fixed fleet: `tenants` tenants of `steps` steps each, all arriving
    /// in round 1 with default class and no deadlines or pauses (the script
    /// `tenants=R;steps=S;window=1`). Admission then degenerates to id
    /// order, and running tenants hold their slot until they finish.
    pub fn fixed(tenants: usize, steps: u64) -> Self {
        ArrivalScript { tenants, steps, window: 1, ..Self::default() }
    }

    /// Parse a `;`-separated script spec (see the module docs for the
    /// clause table). Unknown clauses and malformed values are errors.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut s = ArrivalScript::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, val) =
                clause.split_once('=').ok_or_else(|| format!("clause '{clause}' has no '='"))?;
            match key.trim() {
                "seed" => s.seed = val.parse().map_err(|_| format!("seed: bad value '{val}'"))?,
                "tenants" => {
                    s.tenants =
                        val.parse().map_err(|_| format!("tenants: bad value '{val}'"))?;
                    if s.tenants == 0 {
                        return Err("tenants: must be at least 1".into());
                    }
                    if s.tenants > MAX_TENANTS {
                        return Err(format!("tenants: at most {MAX_TENANTS}"));
                    }
                }
                "steps" => {
                    s.steps = val.parse().map_err(|_| format!("steps: bad value '{val}'"))?;
                    if s.steps == 0 {
                        return Err("steps: must be at least 1".into());
                    }
                }
                "window" => {
                    s.window = parse_round(val, "window", "value")?;
                    if s.window == 0 {
                        return Err("window: must be at least 1".into());
                    }
                }
                "queue" => {
                    s.queue_capacity =
                        val.parse().map_err(|_| format!("queue: bad value '{val}'"))?;
                    if s.queue_capacity == 0 {
                        return Err("queue: capacity 0 would reject everything".into());
                    }
                }
                "at" => s.arrival_overrides.push(parse_at(val, "at")?),
                "prio" => {
                    let (id, class) = val
                        .split_once(':')
                        .ok_or_else(|| format!("prio: expected ID:class, got '{val}'"))?;
                    let id = id.parse().map_err(|_| format!("prio: bad tenant id '{id}'"))?;
                    s.priorities.push((id, class.parse()?));
                }
                "deadline" => s.deadlines.push(parse_at(val, "deadline")?),
                "pause" => {
                    let (id, rest) = val
                        .split_once('@')
                        .ok_or_else(|| format!("pause: expected ID@R+K, got '{val}'"))?;
                    let (r, k) = rest
                        .split_once('+')
                        .ok_or_else(|| format!("pause: expected ID@R+K, got '{val}'"))?;
                    let id = id.parse().map_err(|_| format!("pause: bad tenant id '{id}'"))?;
                    let r = parse_round(r, "pause", "round")?;
                    let k = parse_round(k, "pause", "duration")?;
                    if k == 0 {
                        return Err("pause: duration must be at least 1 round".into());
                    }
                    s.pauses.push((id, r, r + k));
                }
                other => return Err(format!("unknown clause '{other}'")),
            }
        }
        for id in s
            .arrival_overrides
            .iter()
            .map(|e| e.0)
            .chain(s.priorities.iter().map(|e| e.0))
            .chain(s.deadlines.iter().map(|e| e.0))
            .chain(s.pauses.iter().map(|e| e.0))
        {
            if id >= s.tenants {
                return Err(format!("tenant id {id} out of range (tenants={})", s.tenants));
            }
        }
        Ok(s)
    }

    /// The round tenant `id` arrives in: an `at=` override if present,
    /// otherwise `1 + splitmix64(seed, id) % window`.
    pub fn arrival_round(&self, id: usize) -> u64 {
        if let Some(&(_, r)) = self.arrival_overrides.iter().find(|(i, _)| *i == id) {
            return r;
        }
        1 + splitmix64(self.seed ^ (id as u64 + 1)) % self.window
    }

    /// The full spec for tenant `id`.
    pub fn spec(&self, id: usize) -> TenantSpec {
        TenantSpec {
            id,
            steps: self.steps,
            priority: self
                .priorities
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, p)| *p)
                .unwrap_or_default(),
            deadline: self.deadlines.iter().find(|(i, _)| *i == id).map(|(_, d)| *d),
            pause: self.pauses.iter().find(|(i, _, _)| *i == id).map(|(_, r, k)| (*r, *k)),
        }
    }

    /// All tenant specs with their arrival rounds, sorted by
    /// `(arrival_round, id)` — the deterministic attach order.
    pub fn schedule(&self) -> Vec<(u64, TenantSpec)> {
        let mut v: Vec<(u64, TenantSpec)> =
            (0..self.tenants).map(|id| (self.arrival_round(id), self.spec(id))).collect();
        v.sort_by_key(|(r, s)| (*r, s.id));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_clause_set() {
        let s = ArrivalScript::parse(
            "seed=7;tenants=6;steps=12;window=3;queue=4;at=2@5;prio=0:interactive;deadline=0@8;pause=1@3+2",
        )
        .unwrap();
        assert_eq!((s.seed, s.tenants, s.steps, s.window, s.queue_capacity), (7, 6, 12, 3, 4));
        assert_eq!(s.arrival_round(2), 5, "at= pins the arrival");
        assert_eq!(s.spec(0).priority, Priority::Interactive);
        assert_eq!(s.spec(0).deadline, Some(8));
        assert_eq!(s.spec(1).pause, Some((3, 5)));
        assert_eq!(s.spec(3).priority, Priority::Standard);
    }

    #[test]
    fn arrivals_are_seeded_and_replayable() {
        let a = ArrivalScript::parse("seed=11;tenants=8;window=5").unwrap();
        let b = ArrivalScript::parse("seed=11;tenants=8;window=5").unwrap();
        let c = ArrivalScript::parse("seed=12;tenants=8;window=5").unwrap();
        let rounds = |s: &ArrivalScript| (0..8).map(|i| s.arrival_round(i)).collect::<Vec<_>>();
        assert_eq!(rounds(&a), rounds(&b), "same seed replays");
        assert_ne!(rounds(&a), rounds(&c), "seed changes the schedule");
        assert!(rounds(&a).iter().all(|&r| (1..=5).contains(&r)), "inside the window");
    }

    #[test]
    fn rejects_malformed_and_out_of_range_clauses() {
        assert!(ArrivalScript::parse("bogus=1").unwrap_err().contains("unknown clause"));
        assert!(ArrivalScript::parse("at=9@1;tenants=4").unwrap_err().contains("out of range"));
        assert!(ArrivalScript::parse("queue=0").unwrap_err().contains("reject everything"));
        assert!(ArrivalScript::parse("pause=0@2+0").unwrap_err().contains("at least 1 round"));
        assert!(ArrivalScript::parse("prio=0:urgent").unwrap_err().contains("unknown priority"));
    }

    /// Every bounded clause is accepted at its bound and refused one past
    /// it with a message naming the clause — a hostile script can neither
    /// make `run_script` spin through empty rounds nor size an allocation.
    #[test]
    fn round_and_tenant_clauses_are_bounded() {
        let (r, t) = (MAX_ROUND, MAX_TENANTS);
        for (clause, at_bound, past_bound) in [
            ("window", format!("window={r}"), format!("window={}", r + 1)),
            ("at", format!("at=0@{r}"), format!("at=0@{}", r + 1)),
            ("deadline", format!("deadline=0@{r}"), format!("deadline=0@{}", r + 1)),
            ("pause", format!("pause=0@{r}+1"), format!("pause=0@{}+1", r + 1)),
            ("pause", format!("pause=0@1+{r}"), format!("pause=0@1+{}", r + 1)),
            ("pause", format!("pause=0@{r}+{r}"), format!("pause=0@1+{}", u64::MAX)),
            ("tenants", format!("tenants={t}"), format!("tenants={}", t + 1)),
        ] {
            ArrivalScript::parse(&at_bound).unwrap_or_else(|e| panic!("{at_bound}: {e}"));
            let err = ArrivalScript::parse(&past_bound).unwrap_err();
            assert!(err.starts_with(&format!("{clause}: at most")), "{past_bound}: {err}");
        }
        assert_eq!(ArrivalScript::parse(&format!("tenants={t}")).unwrap().schedule().len(), t);
        ArrivalScript::parse(&format!("steps={}", u64::MAX)).expect("steps stays unbounded");
    }

    #[test]
    fn schedule_is_sorted_by_arrival_then_id() {
        let s = ArrivalScript::parse("seed=3;tenants=6;window=4").unwrap();
        let sched = s.schedule();
        assert_eq!(sched.len(), 6);
        for w in sched.windows(2) {
            assert!((w[0].0, w[0].1.id) < (w[1].0, w[1].1.id));
        }
    }
}
