//! Offline stand-in for `criterion`.
//!
//! The build container has no registry access, so the real `criterion`
//! cannot be fetched. This shim keeps the `criterion_group!` /
//! `criterion_main!` / `benchmark_group` / `bench_function` surface
//! compiling and performs honest wall-clock measurement: each benchmark is
//! calibrated, then timed over `sample_size` samples, and the median
//! ns/iteration is reported. No statistical regression analysis, no HTML
//! reports — numbers on stdout.
//!
//! Command-line arguments that do not start with `-` (cargo passes
//! `--bench` itself) are treated as substring filters on `group/name` ids,
//! matching `cargo bench <filter>` usage.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark id (`group/name` or bare name).
    pub id: String,
    /// Median time per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Mean time per iteration, in nanoseconds.
    pub mean_ns: f64,
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    filters: Vec<String>,
    results: Vec<Sample>,
}


impl Criterion {
    /// Build from command-line arguments (non-flag args are name filters).
    pub fn from_args() -> Self {
        let filters =
            std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect::<Vec<_>>();
        Criterion { filters, results: Vec::new() }
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: DEFAULT_SAMPLE_SIZE }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(name.to_string(), DEFAULT_SAMPLE_SIZE, f);
        self
    }

    fn run<F>(&mut self, id: String, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if !self.matches(&id) {
            return;
        }
        let mut bencher = Bencher { sample_size, samples_ns: Vec::new() };
        f(&mut bencher);
        let mut ns = bencher.samples_ns;
        if ns.is_empty() {
            return;
        }
        ns.sort_by(|a, b| a.total_cmp(b));
        let median = ns[ns.len() / 2];
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        println!("{id:<52} time: [median {} mean {}]", fmt_ns(median), fmt_ns(mean));
        self.results.push(Sample { id, median_ns: median, mean_ns: mean });
    }

    /// All results measured so far (used by programmatic callers).
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Print the closing line `criterion_main!` ends with.
    pub fn final_summary(&self) {
        println!("benchmarks complete: {} measured", self.results.len());
    }
}

const DEFAULT_SAMPLE_SIZE: usize = 20;

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name);
        self.criterion.run(id, self.sample_size, f);
        self
    }

    /// Finish the group (consumes it; all reporting already happened).
    pub fn finish(self) {}
}

/// Times closures handed to it by the benchmark body.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

/// Per-sample time budget: long enough to swamp `Instant` overhead, short
/// enough that a full suite stays interactive.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

impl Bencher {
    /// Measure `f`, called repeatedly; the return value is sunk through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: find an iteration count worth ~one sample budget.
        let mut iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = start.elapsed();
            if dt >= TARGET_SAMPLE / 4 || iters >= 1 << 24 {
                break dt.as_secs_f64() / iters as f64;
            }
            iters = iters.saturating_mul(4);
        };
        let sample_iters =
            ((TARGET_SAMPLE.as_secs_f64() / per_iter.max(1e-12)) as u64).clamp(1, 1 << 24);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..sample_iters {
                black_box(f());
            }
            let dt = start.elapsed();
            self.samples_ns.push(dt.as_secs_f64() * 1e9 / sample_iters as f64);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Bundle benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_orders_cheap_vs_expensive() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        group.bench_function("cheap", |b| b.iter(|| black_box(1u64).wrapping_mul(3)));
        group.bench_function("expensive", |b| {
            b.iter(|| (0..black_box(20_000u64)).fold(0u64, |a, x| a.wrapping_add(x * x)))
        });
        group.finish();
        let r = c.results();
        assert_eq!(r.len(), 2);
        assert!(r[0].median_ns > 0.0);
        assert!(
            r[1].median_ns > r[0].median_ns,
            "expensive {} !> cheap {}",
            r[1].median_ns,
            r[0].median_ns
        );
    }

    #[test]
    fn filters_skip_benchmarks() {
        let mut c = Criterion { filters: vec!["only_this".into()], results: Vec::new() };
        c.bench_function("other", |b| b.iter(|| 1));
        assert!(c.results().is_empty());
        c.bench_function("only_this_one", |b| b.iter(|| 1));
        assert_eq!(c.results().len(), 1);
    }
}
