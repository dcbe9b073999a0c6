//! # dpmd-scaling — time-to-solution model and experiment drivers
//!
//! Combines the compute-kernel cost model ([`kernels`]), the communication
//! simulations (crate `dpmd-comm`), and the load-balance machinery (crate
//! `dpmd-balance`) into a per-step time model ([`step_model`]) for the
//! optimized DeePMD-kit on the simulated Fugaku, then drives one module per
//! table/figure of the paper ([`experiments`]).
//!
//! Conventions: times in nanoseconds, sizes in bytes, the headline metric
//! is ns/day via [`minimd::units::ns_per_day`].

pub mod kernels;
pub mod memory;
pub mod report;
pub mod step_model;
pub mod systems;

pub mod experiments {
    //! One module per table/figure of the paper's evaluation section, plus
    //! the [`ablations`] sensitivity sweeps, and [`ALL`] — the one list of
    //! what can be regenerated and how.
    pub mod ablations;
    pub mod fig10;
    pub mod fig11;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod portability;
    pub mod table1;
    pub mod table2;
    pub mod table3;
    pub mod weak_scaling;

    use std::sync::Arc;

    use dpmd_threads::ThreadPool;
    use fugaku::machine::MachineConfig;

    use crate::systems::SystemSpec;

    /// One experiment as `(name, about, run)`: `run(points, iters)`
    /// regenerates it — `points` caps the topology sweeps of Table I and
    /// Fig. 11, `iters` is Fig. 8's loop count — and returns the rendered
    /// table(s) followed, where the paper states a number for it, by the
    /// line that puts ours beside the paper's.
    pub type Experiment = (&'static str, &'static str, fn(usize, usize) -> String);

    /// Every experiment, in the paper's order.
    pub const ALL: &[Experiment] = &[
        ("table1", "NNMD package survey incl. the two 'This work' rows", |points, _| {
            table1::table(points).render()
        }),
        ("table2", "energy/force error under Double / MIX-fp32 / MIX-fp16", |_, _| {
            let rows = table2::run(table2::Table2Config::default());
            format!(
                "{}\n(paper: Double 1.6e-3 / 4.4e-2; MIX-fp32 identical; MIX-fp16 4.0e-3 / 4.4e-2)",
                table2::table(&rows).render()
            )
        }),
        ("table3", "pair time and atom counts across ranks, lb vs nolb", |_, _| {
            let rows = table3::run(2024);
            format!(
                "{}\natomic dispersion reduction: {:.1}% (paper: 79.7%)",
                table3::table(&rows).render(),
                table3::dispersion_reduction(&rows) * 100.0
            )
        }),
        ("fig6", "water O-O RDF under three precisions", |_, _| {
            let curves = fig6::run(fig6::Fig6Config::default());
            format!(
                "{}\nmax |dg| vs Double: MIX-fp32 {:.3}, MIX-fp16 {:.3} (paper: curves overlap)",
                fig6::table(&curves).render(),
                fig6::max_deviation(&curves[0], &curves[1]),
                fig6::max_deviation(&curves[0], &curves[2])
            )
        }),
        ("fig7", "step-by-step communication on 96 nodes", |_, _| {
            fig7::table(&fig7::run(&MachineConfig::default())).render()
        }),
        ("fig8", "RDMA memory pool vs per-neighbor registration", |_, iters| {
            let pts = fig8::run(&MachineConfig::default(), iters);
            let knee = fig8::knee(&pts)
                .map_or(String::new(), |k| format!("\nknee at {k} neighbors (paper: departs at 44)"));
            format!("{}{knee}", fig8::table(&pts).render())
        }),
        ("fig9", "step-by-step computation ladder on 96 nodes", |_, _| {
            fig9::table(&fig9::run()).render()
        }),
        ("fig10", "pair-time distributions, lb vs nolb", |_, _| {
            fig10::table(&fig10::run(2024)).render()
        }),
        ("fig11", "strong scaling 768 -> 12,000 nodes", |points, _| {
            [(SystemSpec::copper(), "149 ns/day, 31.7x"), (SystemSpec::water(), "68.5 ns/day, 32.6x")]
                .map(|(spec, paper)| {
                    let curve = fig11::run(spec, points);
                    let end = curve.points.last().expect("curve has points");
                    format!(
                        "{}\nendpoint: {:.1} ns/day on {} nodes, {:.1}x the baseline (paper, 12,000 nodes: {paper})",
                        fig11::table(&curve).render(),
                        end.nsday_opt,
                        end.nodes,
                        curve.final_speedup()
                    )
                })
                .join("\n\n")
        }),
        ("ablations", "design-choice sensitivity sweeps", |_, _| ablations::table().render()),
        ("portability", "node scheme on Frontier-like / Sunway-like machines (paper §V)", |_, _| {
            portability::table(&portability::run()).render()
        }),
        ("weak", "weak scaling at fixed atoms/core (complement to fig11)", |_, _| {
            let grids = [[2usize, 3, 2], [4, 3, 4], [4, 6, 4], [8, 6, 8], [8, 12, 8]];
            weak_scaling::table(&weak_scaling::run(SystemSpec::copper(), 2, &grids)).render()
        }),
    ];

    /// A pool as wide as the host, for the experiments that run real force
    /// evaluations (Table II, Fig. 6).
    fn host_pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn registry_names_are_unique_and_entries_end_with_the_paper_line() {
            let mut names: Vec<&str> = super::ALL.iter().map(|(name, ..)| *name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), super::ALL.len());
            let (_, _, table3) = super::ALL.iter().find(|(name, ..)| *name == "table3").unwrap();
            let out = table3(1, 1);
            assert!(out.starts_with("== Table III"), "{out}");
            assert!(out.ends_with("(paper: 79.7%)"), "{out}");
        }
    }
}

pub use step_model::{OptLevel, StepModel};
pub use systems::SystemSpec;
