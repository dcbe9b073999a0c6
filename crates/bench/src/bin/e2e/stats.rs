//! Order statistics for the harness: medians and quartiles of timed
//! segments, a percentile picker that refuses thin tails, and the
//! run-to-run spread the noise self-check compares against a metric's bound.

/// Samples a percentile needs *beyond* it before the harness reports it
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A copy of `v` in ascending order. Timings are never NaN; a NaN (from a
/// broken sample) sorts last instead of panicking so the correctness gates,
/// not the sort, report it.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    s
}

/// Quantile `p ∈ [0, 1]` of an ascending slice by linear interpolation
/// between closest ranks (the "inclusive" method: p = 0 is the minimum,
/// p = 1 the maximum).
pub fn quantile_sorted(s: &[f64], p: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// Median, quartiles and sample count of a set of timed segments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let s = sorted(v);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThinTail {
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `pct ∈ (0, 100)` of `v`, refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond the reported one.
pub fn percentile(v: &[f64], pct: f64) -> Result<f64, ThinTail> {
    let n = v.len();
    // Nearest rank: the smallest sample with at least pct % of the data at
    // or below it.
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(ThinTail { samples: n, beyond });
    }
    Ok(sorted(v)[rank - 1])
}

/// Exact nearest-rank percentile of deterministic counts (0 when empty) —
/// no tail rule: these are ‡ values, not noisy samples.
pub fn count_percentile(v: &[u64], pct: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = (pct * s.len()).div_ceil(100).max(1);
    s.get(rank - 1).copied().unwrap_or(0) as f64
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method) — the contract's acceptance check uses exactly
/// this, so the self-check reproduces it rather than [`quantile_sorted`].
fn exclusive_quartiles(s: &[f64]) -> [f64; 3] {
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread of one metric as a share of its median: the
/// interquartile distance for four or more runs, the full range below that
/// (two or three runs have no meaningful quartiles).
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 | 1 => 0.0,
        2 | 3 => (s[s.len() - 1] - s[0]) / quantile_sorted(&s, 0.5),
        _ => {
            let q = exclusive_quartiles(&s);
            (q[2] - q[0]) / q[1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90: only 9 beyond it.
        assert_eq!(percentile(&v, 90.0), Err(ThinTail { samples: 99, beyond: 9 }));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 95.0), Err(ThinTail { samples: 100, beyond: 5 }));
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_does_not_depend_on_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 95.0), Ok(190.0));
    }

    #[test]
    fn count_percentiles_are_nearest_rank_and_zero_when_empty() {
        let v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(count_percentile(&v, 50), 5.0);
        assert_eq!(count_percentile(&v, 90), 9.0);
        assert_eq!(count_percentile(&[], 90), 0.0);
    }

    #[test]
    fn segment_median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s, Summary { n: 5, q1: 2.0, median: 3.0, q3: 4.0 });
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(exclusive_quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // Two sets: the range over their mean.
        assert!((spread(&[100.0, 104.0]) - 4.0 / 102.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
