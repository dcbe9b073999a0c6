//! Property-based tests of the machine model: torus metric axioms,
//! scheduler invariants, cache behaviour.

use proptest::prelude::*;

use fugaku::event::JobGraph;
use fugaku::niccache::NicCache;
use fugaku::tofu::Torus3d;

fn torus() -> impl Strategy<Value = Torus3d> {
    (1usize..10, 1usize..10, 1usize..10).prop_map(|(a, b, c)| Torus3d::new([a, b, c]))
}

proptest! {
    /// Torus hop count is a metric: symmetric, zero iff equal coordinates,
    /// triangle inequality.
    #[test]
    fn torus_hops_is_a_metric(t in torus(), s in any::<u64>()) {
        let n = t.len();
        let a = (s % n as u64) as usize;
        let b = ((s / 7) % n as u64) as usize;
        let c = ((s / 49) % n as u64) as usize;
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert_eq!(t.hops(a, a), 0);
        prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c), "triangle violated");
        // Bounded by the sum of half-dimensions.
        let bound: usize = t.dims.iter().map(|&d| d / 2).sum();
        prop_assert!(t.hops(a, b) <= bound);
    }

    /// The 6-D mapping is a bijection onto distinct coordinates.
    #[test]
    fn six_d_mapping_injective(t in torus()) {
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..t.len() {
            prop_assert!(seen.insert(t.to_tofu6d(id)), "collision at {id}");
        }
    }

    /// Scheduler sanity: makespan is at least the critical path of any
    /// dependency chain, and at least the total occupancy of any resource.
    #[test]
    fn scheduler_lower_bounds(
        chain in proptest::collection::vec(1u64..1000, 1..12),
        parallel in proptest::collection::vec(1u64..1000, 1..12),
    ) {
        let mut g = JobGraph::new();
        // One dependency chain.
        let mut prev = None;
        for &d in &chain {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(g.job(&deps, None, d, 0));
        }
        // One contended resource.
        let r = g.resource();
        for &d in &parallel {
            g.job(&[], Some(r), d, 0);
        }
        let s = g.run();
        let chain_sum: u64 = chain.iter().sum();
        let res_sum: u64 = parallel.iter().sum();
        prop_assert!(s.makespan >= chain_sum, "{} < {chain_sum}", s.makespan);
        prop_assert!(s.makespan >= res_sum, "{} < {res_sum}", s.makespan);
        // And no larger than doing absolutely everything serially.
        prop_assert!(s.makespan <= chain_sum + res_sum);
    }

    /// Jobs never start before their release or their dependencies finish.
    #[test]
    fn scheduler_respects_dependencies(
        durations in proptest::collection::vec(1u64..500, 2..10),
    ) {
        let mut g = JobGraph::new();
        let r = g.resource();
        let mut ids = Vec::new();
        let mut prev: Option<fugaku::event::JobId> = None;
        for (i, &d) in durations.iter().enumerate() {
            let deps: Vec<_> = if i % 2 == 0 { prev.into_iter().collect() } else { vec![] };
            let id = g.job(&deps, Some(r), d, (i as u64 % 3) * 10);
            if i % 2 == 0 {
                prev = Some(id);
            }
            ids.push(id);
        }
        let s = g.run();
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 && i >= 2 {
                if let Some(dep) = ids.get(i - 2) {
                    prop_assert!(s.start[id.0] >= s.finish[dep.0] || i < 2);
                }
            }
            prop_assert!(s.finish[id.0] >= s.start[id.0] + durations[i]);
        }
    }

    /// LRU cache: hits + misses equals accesses; a working set within
    /// capacity eventually stops missing.
    #[test]
    fn cache_accounting(capacity in 1usize..64, wset in 1usize..64, rounds in 1usize..6) {
        let mut cache = NicCache::new(capacity, 100);
        let mut total = 0u64;
        for _ in 0..rounds {
            for e in 0..wset as u64 {
                cache.access(e);
                total += 1;
            }
        }
        let (hits, misses) = cache.stats();
        prop_assert_eq!(hits + misses, total);
        prop_assert!(misses >= (wset.min(capacity) as u64).min(total));
        if wset <= capacity {
            // After warmup every access hits.
            prop_assert_eq!(misses, wset as u64);
        }
    }
}
