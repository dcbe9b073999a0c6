//! The four workloads: what each builds, how one step call is timed, and
//! which independent reference its outputs are checked against.
//!
//! | name | step call | layers doing the work |
//! |---|---|---|
//! | `cu_solo` | `Simulation::step` (864 Cu, copper model, Mix32, 1 thread) | `deepmd::engine`, `nnet::gemm` |
//! | `water_solo` | `Simulation::step` (648 atoms, water model, Mix16, 2 threads) | same layers, fp16 first layer + pool |
//! | `cu_served` | `ContinuousScheduler::tick` (+ `attach`), 64 tenants x 20 steps per replay | `deepmd::batch`, `dpmd-serve` |
//! | `lj_dist` | `DistributedSim::stride` (6,912 LJ atoms, 32 ranks) | `minimd::neighbor`, `dpmd-comm` |
//!
//! Every system is physically valid (box >= 2 (r_c + skin)). Models are the
//! deterministic untrained `DeepPotModel::new(cfg)`: per-step cost does not
//! depend on weight values. The seed feeds velocities, water orientations
//! and the arrival script; the library sees only the generated inputs.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

use deepmd::config::DeepPotConfig;
use deepmd::model::DeepPotModel;
use dpmd_comm::driver::DistributedSim;
use dpmd_comm::functional::ExchangeScheme;
use dpmd_core::{Engine, EngineBuilder};
use dpmd_serve::{ArrivalScript, ContinuousScheduler, InFlightCap, TenantSpec, TenantState};
use minimd::atoms::Atoms;
use minimd::domain::Decomposition;
use minimd::integrate::{init_velocities, VelocityVerlet};
use minimd::potential::lj::LennardJones;
use minimd::sim::{Simulation, Thermo};
use minimd::simbox::SimBox;
use minimd::units::{FEMTOSECOND, KB};
use minimd::vec3::Vec3;
use nnet::precision::Precision;

use crate::spans::Recorder;
use crate::stats;

/// Thermostatted Deep Potential runs start at 300 K; a sample outside this
/// band means the trajectory blew up or froze.
const DP_TEMPERATURE_BAND: (f64, f64) = (150.0, 600.0);
/// The NVE Lennard-Jones crystal starts at 60 K and settles near half that.
const LJ_TEMPERATURE_BAND: (f64, f64) = (5.0, 150.0);
const LJ_START_KELVIN: f64 = 60.0;

/// Accuracy guard of the mixed-precision engine against the f64 model
/// (paper Table II): max |F_mixed - F_f64| / max |F_f64|.
pub const RELERR_BOUND_MIX32: f64 = 1e-5;
pub const RELERR_BOUND_MIX16: f64 = 5e-3;

/// Failed operations and failed correctness gates, counted against the
/// number attempted.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the report readable when a whole trajectory goes bad.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

fn thermo_ok(t: &Thermo, band: (f64, f64)) -> bool {
    t.pe.is_finite()
        && t.ke.is_finite()
        && t.pressure.is_finite()
        && t.temperature >= band.0
        && t.temperature <= band.1
}

// ---------------------------------------------------------------------------
// System builders (shared with the layer probes, which rebuild the same
// systems as frozen snapshots).

pub fn cu_builder(seed: u64) -> EngineBuilder {
    Engine::builder()
        .copper_cells(6)
        .with_model(DeepPotModel::new(DeepPotConfig::copper()))
        .precision(Precision::Mix32)
        .threads(1)
        .seed(seed)
}

pub fn water_builder(seed: u64) -> EngineBuilder {
    Engine::builder()
        .water_cells(6)
        .with_model(DeepPotModel::new(DeepPotConfig::water()))
        .precision(Precision::Mix16)
        .threads(2)
        .seed(seed)
}

/// Tenants of `cu_served`: 256 Cu atoms on the tiny model at r_c = 5 Å (box
/// 14.46 Å >= 2 (5 + 2) Å), small enough that scheduler, workspace and queue
/// overhead are a visible share of a round.
pub fn served_builder(seed: u64, threads: usize) -> EngineBuilder {
    Engine::builder()
        .copper_cells(4)
        .with_model(DeepPotModel::new(DeepPotConfig::tiny(1, 5.0)))
        .precision(Precision::Mix32)
        .threads(threads)
        .seed(seed)
}

pub const SERVED_ATOMS: usize = 256;
pub const SERVED_IN_FLIGHT: usize = 8;
const SERVED_TENANTS: usize = 64;
const SERVED_STEPS: u64 = 20;

/// One replay of `cu_served`: 64 tenants x 20 steps arriving over 192
/// rounds, i.e. about 83 % of what 8 in-flight slots can serve, behind a
/// 32-deep admission queue.
pub fn served_script(seed: u64) -> ArrivalScript {
    let spec = format!(
        "seed={seed};tenants={SERVED_TENANTS};steps={SERVED_STEPS};window=192;queue=32"
    );
    ArrivalScript::parse(&spec).expect("the harness's own script parses")
}

pub fn served_scheduler(seed: u64, threads: usize, script: &ArrivalScript) -> ContinuousScheduler {
    let cap = InFlightCap::AtMost(NonZeroUsize::new(SERVED_IN_FLIGHT).expect("non-zero cap"));
    ContinuousScheduler::new(served_builder(seed, threads).build_parts(), cap, script.queue_capacity)
}

pub struct LjSystem {
    pub bx: SimBox,
    pub global: Atoms,
    pub lj: LennardJones,
    pub vv: VelocityVerlet,
}

pub fn lj_system(seed: u64) -> LjSystem {
    let (bx, mut global) = minimd::lattice::fcc_lattice(12, 12, 12, 4.4);
    init_velocities(&mut global, LJ_START_KELVIN, seed);
    LjSystem {
        bx,
        global,
        lj: LennardJones::new(0.0104, 3.4, 5.0),
        vv: VelocityVerlet::new(LJ_DT_FS * FEMTOSECOND),
    }
}

const LJ_DT_FS: f64 = 2.0;
pub const LJ_REBUILD_EVERY: u64 = 50;

pub fn lj_distributed(sys: &LjSystem) -> DistributedSim<'_> {
    DistributedSim::new(
        Decomposition::new(sys.bx, [2, 2, 2]),
        &sys.global,
        &sys.lj,
        sys.vv.clone(),
        ExchangeScheme::NodeBased,
        LJ_REBUILD_EVERY,
    )
}

// ---------------------------------------------------------------------------
// The timed window.

/// Spans that are a workload's own step call, outermost first per
/// workload. Time inside them that no child span covers is time no layer
/// reported about itself.
pub const SPAN_SIM_STEP: &str = "minimd.sim.step";
pub const SPAN_ROUND: &str = "serve.round";
pub const SPAN_TICK: &str = "serve.tick";
pub const SPAN_STRIDE: &str = "comm.driver.stride";
pub const ROOT_SPANS: [&str; 3] = [SPAN_SIM_STEP, SPAN_ROUND, SPAN_STRIDE];
pub const STEP_CALL_SPANS: [&str; 4] = [SPAN_SIM_STEP, SPAN_ROUND, SPAN_TICK, SPAN_STRIDE];

/// What one step call did.
pub struct StepSample {
    /// Wall time of the library calls only (harness bookkeeping excluded).
    pub wall_s: f64,
    /// Atoms advanced one step (0 for an idle scheduler round).
    pub atom_steps: u64,
}

/// A workload as the timed window sees it: something that can be stepped.
pub trait Stepper {
    /// One step call. With a recorder, the call is wrapped in a span (plus
    /// children for whatever the layer reports about itself).
    fn step(&mut self, rec: Option<&mut Recorder>, iter: u64, gates: &mut Gates) -> StepSample;

    /// Whether the workload is made of whole units (a scripted replay).
    /// The window of such a workload ends only where a unit does.
    fn whole_units(&self) -> bool {
        false
    }

    /// `true` once, right after a unit completed.
    fn unit_done(&mut self) -> bool {
        false
    }
}

pub struct Plan {
    /// Non-idle step calls per timed segment.
    pub seg_calls: u64,
    /// The window runs until `--seconds` have passed *and* this many
    /// non-idle calls were timed, so tail percentiles keep ten samples
    /// beyond them even on a slow host.
    pub min_calls: u64,
}

#[derive(Default)]
pub struct Window {
    /// µs per step per atom, one sample per segment.
    pub seg_us: Vec<f64>,
    /// Whether the matching segment ran with the span recorder on.
    pub seg_traced: Vec<bool>,
    /// Wall time of every non-idle step call, ms.
    pub step_ms: Vec<f64>,
}

/// Closed loop, one driver thread: the next step call starts when the
/// previous one returned. With a recorder, odd segments are traced and even
/// ones are not, so the two kinds see the same host conditions.
pub fn run_window(
    w: &mut dyn Stepper,
    plan: &Plan,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    gates: &mut Gates,
) -> Window {
    let started = Instant::now();
    let mut out = Window::default();
    let (mut seg_wall, mut seg_atom_steps, mut seg_calls) = (0.0f64, 0u64, 0u64);
    let mut iter = 0u64;
    loop {
        let traced = rec.is_some() && out.seg_us.len() % 2 == 1;
        let s = w.step(if traced { rec.as_deref_mut() } else { None }, iter, gates);
        iter += 1;
        seg_wall += s.wall_s;
        seg_atom_steps += s.atom_steps;
        if s.atom_steps > 0 {
            out.step_ms.push(s.wall_s * 1e3);
            seg_calls += 1;
        }
        let unit = w.unit_done();
        let seg_full = seg_calls == plan.seg_calls;
        // A unit boundary cuts the running segment short; a stub of less
        // than half a segment is too noisy to count as a sample.
        if seg_full || (unit && seg_calls >= plan.seg_calls / 2) {
            out.seg_us.push(seg_wall * 1e6 / seg_atom_steps as f64);
            out.seg_traced.push(traced);
        }
        if seg_full || unit {
            (seg_wall, seg_atom_steps, seg_calls) = (0.0, 0, 0);
        }
        let stop_point = if w.whole_units() { unit } else { seg_full };
        let enough = out.step_ms.len() as u64 >= plan.min_calls;
        if stop_point && enough && started.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

// ---------------------------------------------------------------------------
// cu_solo / water_solo

pub struct Solo {
    pub engine: Engine,
    natoms: u64,
}

impl Solo {
    pub fn new(builder: EngineBuilder) -> Self {
        let engine = builder.build();
        let natoms = engine.simulation().atoms.nlocal as u64;
        Solo { engine, natoms }
    }
}

impl Stepper for Solo {
    fn step(&mut self, rec: Option<&mut Recorder>, iter: u64, gates: &mut Gates) -> StepSample {
        let sim = self.engine.simulation_mut();
        let (thermo, wall_s) = match rec {
            None => {
                let t0 = Instant::now();
                let th = sim.step();
                (th, t0.elapsed().as_secs_f64())
            }
            Some(rec) => {
                let t0 = Instant::now();
                let id = rec.open(SPAN_SIM_STEP, iter);
                let th = sim.step();
                rec.close(id);
                let wall = t0.elapsed().as_secs_f64();
                // Sub-phases as reported by `Simulation::timing()`.
                let t = sim.timing();
                rec.reported_children(
                    id,
                    &[
                        ("minimd.neighbor.build", t.neighbor_s),
                        ("deepmd.engine.descriptor", t.phases.descriptor_s),
                        ("deepmd.engine.embedding", t.phases.embedding_s),
                        ("deepmd.engine.fitting", t.phases.fitting_s),
                        ("deepmd.engine.reduction", t.phases.reduction_s),
                        ("minimd.integrate", t.integrate_s),
                    ],
                );
                (th, wall)
            }
        };
        gates.check(thermo_ok(&thermo, DP_TEMPERATURE_BAND), || {
            format!("step {}: thermo out of band: {thermo:?}", thermo.step)
        });
        StepSample { wall_s, atom_steps: self.natoms }
    }
}

// ---------------------------------------------------------------------------
// cu_served

/// Deterministic outcome of one replay (‡: must repeat exactly for a seed).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayCounts {
    pub rounds: u64,
    pub rejected: u64,
    pub unfinished: u64,
    /// Tenants stepped per non-idle round, summed.
    pub stepped: u64,
    pub busy_rounds: u64,
    /// Per finished tenant, in tenant-id order.
    pub queue_wait_rounds: Vec<u64>,
    pub turnaround_rounds: Vec<u64>,
}

/// Final state of one tenant, for the batched == solo gate.
pub struct TenantFinal {
    pub id: usize,
    pub seed: u64,
    pub pos: Vec<Vec3>,
    pub vel: Vec<Vec3>,
}

/// The harness's own replay of `ArrivalScript::schedule()` through
/// `attach` + `tick`, so both can be timed and each tenant's turnaround
/// (attach call to the end of the tick that finished it) can be taken.
pub struct Served {
    seed: u64,
    threads: usize,
    script: ArrivalScript,
    schedule: Vec<(u64, TenantSpec)>,
    sched: ContinuousScheduler,
    next: usize,
    rejected: u64,
    stepped: u64,
    busy_rounds: u64,
    attached_at: Vec<Instant>,
    seen_finished: Vec<bool>,
    unit_done: bool,
    pub attach_ms: Vec<f64>,
    pub turnaround_ms: Vec<f64>,
    /// Tick ms per stepped tenant, one list per completed replay.
    pub tick_ms_per_tenant: Vec<Vec<f64>>,
    cur_tick_ms_per_tenant: Vec<f64>,
    pub replays: Vec<ReplayCounts>,
    /// Two sampled tenants of the first replay.
    pub sampled: Vec<TenantFinal>,
}

impl Served {
    pub fn new(seed: u64, threads: usize) -> Self {
        let script = served_script(seed);
        Served {
            seed,
            threads,
            schedule: script.schedule(),
            sched: served_scheduler(seed, threads, &script),
            script,
            next: 0,
            rejected: 0,
            stepped: 0,
            busy_rounds: 0,
            attached_at: Vec::new(),
            seen_finished: Vec::new(),
            unit_done: false,
            attach_ms: Vec::new(),
            turnaround_ms: Vec::new(),
            tick_ms_per_tenant: Vec::new(),
            cur_tick_ms_per_tenant: Vec::new(),
            replays: Vec::new(),
            sampled: Vec::new(),
        }
    }

    /// Tenant ids whose trajectories are checked against a solo run:
    /// seed-chosen, half the fleet apart.
    fn sampled_ids(&self) -> [usize; 2] {
        let a = (self.seed % SERVED_TENANTS as u64) as usize;
        [a, (a + SERVED_TENANTS / 2) % SERVED_TENANTS]
    }

    fn finish_replay(&mut self, gates: &mut Gates) {
        let mut counts = ReplayCounts {
            rounds: self.sched.round(),
            rejected: self.rejected,
            stepped: self.stepped,
            busy_rounds: self.busy_rounds,
            ..Default::default()
        };
        let mut by_id: Vec<&dpmd_serve::Tenant> = self.sched.tenants().iter().collect();
        by_id.sort_by_key(|t| t.id);
        for t in by_id {
            match t.state {
                TenantState::Finished { round } => {
                    counts.queue_wait_rounds.push(t.queue_wait_rounds);
                    counts.turnaround_rounds.push(round + 1 - t.arrival_round);
                }
                _ => counts.unfinished += 1,
            }
            for th in &t.trace {
                gates.check(thermo_ok(th, DP_TEMPERATURE_BAND), || {
                    format!("tenant {} step {}: thermo out of band: {th:?}", t.id, th.step)
                });
            }
        }
        if self.replays.is_empty() {
            for id in self.sampled_ids() {
                if let Some(t) = self.sched.tenants().iter().find(|t| t.id == id) {
                    let n = t.sim.atoms.nlocal;
                    self.sampled.push(TenantFinal {
                        id,
                        seed: t.seed,
                        pos: t.sim.atoms.pos[..n].to_vec(),
                        vel: t.sim.atoms.vel[..n].to_vec(),
                    });
                }
            }
        }
        self.replays.push(counts);
        self.tick_ms_per_tenant.push(std::mem::take(&mut self.cur_tick_ms_per_tenant));
        self.unit_done = true;
        // Fresh service for the next replay, built outside any timed call.
        self.sched = served_scheduler(self.seed, self.threads, &self.script);
        (self.next, self.rejected, self.stepped, self.busy_rounds) = (0, 0, 0, 0);
        self.attached_at.clear();
        self.seen_finished.clear();
    }
}

impl Stepper for Served {
    /// One scheduler round: attach the tenants the script says arrive now,
    /// then tick.
    fn step(&mut self, mut rec: Option<&mut Recorder>, iter: u64, gates: &mut Gates) -> StepSample {
        let round_span = rec.as_deref_mut().map(|r| r.open(SPAN_ROUND, iter));
        let mut wall_s = 0.0;
        let upcoming = self.sched.round() + 1;
        while self.next < self.schedule.len() && self.schedule[self.next].0 <= upcoming {
            let spec = self.schedule[self.next].1;
            self.next += 1;
            let span = rec.as_deref_mut().map(|r| r.open("serve.attach", iter));
            let t0 = Instant::now();
            let res = self.sched.attach(spec);
            let dt = t0.elapsed().as_secs_f64();
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.close(id);
            }
            wall_s += dt;
            self.attach_ms.push(dt * 1e3);
            match res {
                // `attach` returns the tenant's index, which grows by one
                // per accepted tenant.
                Ok(idx) => {
                    debug_assert_eq!(idx, self.attached_at.len());
                    self.attached_at.push(t0);
                    self.seen_finished.push(false);
                }
                Err(_) => self.rejected += 1,
            }
        }

        let span = rec.as_deref_mut().map(|r| r.open(SPAN_TICK, iter));
        let t0 = Instant::now();
        let stepped = self.sched.tick();
        let tick_s = t0.elapsed().as_secs_f64();
        let tick_end = Instant::now();
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.close(id);
            // The fused force evaluation as the stepped tenants' own
            // `Simulation::timing()` reports it (same for all of them).
            let round = self.sched.round();
            let stepped_tenant = self.sched.tenants().iter().find(|t| match t.state {
                TenantState::Running => true,
                TenantState::Finished { round: r } => r == round,
                _ => false,
            });
            if let Some(t) = stepped_tenant.filter(|_| stepped > 0) {
                let p = t.sim.timing().phases;
                r.reported_children(
                    id,
                    &[
                        ("deepmd.batch.descriptor", p.descriptor_s),
                        ("deepmd.batch.embedding", p.embedding_s),
                        ("deepmd.batch.fitting", p.fitting_s),
                        ("deepmd.batch.reduction", p.reduction_s),
                    ],
                );
            }
        }
        wall_s += tick_s;
        if let (Some(r), Some(id)) = (rec, round_span) {
            r.close(id);
        }

        if stepped > 0 {
            self.stepped += stepped as u64;
            self.busy_rounds += 1;
            self.cur_tick_ms_per_tenant.push(tick_s * 1e3 / stepped as f64);
        }
        for (idx, t) in self.sched.tenants().iter().enumerate() {
            if !self.seen_finished[idx] && matches!(t.state, TenantState::Finished { .. }) {
                self.seen_finished[idx] = true;
                self.turnaround_ms.push((tick_end - self.attached_at[idx]).as_secs_f64() * 1e3);
            }
        }
        if self.next >= self.schedule.len() && self.sched.idle() {
            self.finish_replay(gates);
        }
        StepSample { wall_s, atom_steps: (stepped * SERVED_ATOMS) as u64 }
    }

    fn whole_units(&self) -> bool {
        true
    }

    fn unit_done(&mut self) -> bool {
        std::mem::take(&mut self.unit_done)
    }
}

// ---------------------------------------------------------------------------
// lj_dist

pub struct Dist<'p> {
    pub sim: DistributedSim<'p>,
    natoms: u64,
}

impl<'p> Dist<'p> {
    pub fn new(sys: &'p LjSystem) -> Self {
        Dist { sim: lj_distributed(sys), natoms: sys.global.nlocal as u64 }
    }
}

impl Stepper for Dist<'_> {
    fn step(&mut self, rec: Option<&mut Recorder>, iter: u64, gates: &mut Gates) -> StepSample {
        let t0 = Instant::now();
        let (pe, ke) = match rec {
            None => self.sim.stride(),
            // `stride` reports nothing about its insides; the layer probes
            // time its parts on a frozen snapshot instead.
            Some(rec) => rec.scoped(SPAN_STRIDE, iter, |_| self.sim.stride()),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let kelvin = 2.0 * ke / (3.0 * self.natoms as f64 * KB);
        let ok = pe.is_finite() && kelvin >= LJ_TEMPERATURE_BAND.0 && kelvin <= LJ_TEMPERATURE_BAND.1;
        gates.check(ok, || format!("stride {}: pe {pe} eV, T {kelvin} K", self.sim.step_index()));
        StepSample { wall_s, atom_steps: self.natoms }
    }
}

// ---------------------------------------------------------------------------
// Reference checks (tolerance-based, against independent paths).

/// max |F_a - F_b| / max |F_b| over the local atoms.
pub fn force_relerr(a: &[Vec3], b: &[Vec3]) -> f64 {
    let worst = a.iter().zip(b).map(|(x, y)| (*x - *y).norm()).fold(0.0, f64::max);
    let scale = b.iter().map(|y| y.norm()).fold(0.0, f64::max);
    worst / scale
}

/// Mixed-precision forces of `sim`'s current state against the f64 model,
/// both evaluated on `pool`; also returns the f64 evaluation's seconds.
pub fn relerr_vs_f64(
    sim: &Simulation,
    model: &DeepPotModel,
    precision: Precision,
    pool: std::sync::Arc<dpmd_threads::ThreadPool>,
) -> (f64, f64) {
    let n = sim.atoms.len();
    let mut f_ref = vec![Vec3::ZERO; n];
    let t0 = Instant::now();
    model.energy_forces_on(&pool, &sim.atoms, &sim.nl, &sim.bx, &mut f_ref);
    let f64_s = t0.elapsed().as_secs_f64();
    let dp = deepmd::engine::DpEngine::new(model.clone(), precision).with_pool(pool);
    let mut f_mixed = vec![Vec3::ZERO; n];
    dp.energy_forces(&sim.atoms, &sim.nl, &sim.bx, &mut f_mixed);
    let nl = sim.atoms.nlocal;
    (force_relerr(&f_mixed[..nl], &f_ref[..nl]), f64_s)
}

fn check_solo_accuracy(solo: &Solo, cfg: DeepPotConfig, bound: f64, gates: &mut Gates) {
    let pool = std::sync::Arc::new(dpmd_threads::ThreadPool::new(1));
    let precision = solo.engine.precision();
    let (err, _) =
        relerr_vs_f64(solo.engine.simulation(), &DeepPotModel::new(cfg), precision, pool);
    gates.check(err <= bound, || {
        format!("force relerr vs f64 {err:e} exceeds {bound:e} at {}", precision.label())
    });
}

/// The repo's batched == solo contract: a served tenant's final state is
/// bit-identical to a solo `Simulation` of the same seed.
fn check_served_against_solo(served: &Served, gates: &mut Gates) {
    gates.check(served.sampled.len() == 2, || "sampled tenants missing from replay".into());
    for t in &served.sampled {
        let mut solo = served_builder(t.seed, 1).build();
        solo.run(SERVED_STEPS);
        let a = &solo.simulation().atoms;
        let same = |x: &[Vec3], y: &[Vec3]| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| (0..3).all(|d| p[d].to_bits() == q[d].to_bits()))
        };
        let ok = same(&a.pos[..a.nlocal], &t.pos) && same(&a.vel[..a.nlocal], &t.vel);
        gates.check(ok, || format!("tenant {} (seed {}) differs from its solo run", t.id, t.seed));
    }
}

/// A fresh distributed run against a single-box `Simulation` of the same
/// system, and two constructions against each other.
fn check_dist_against_single_box(sys: &LjSystem, gates: &mut Gates) {
    const STRIDES: u64 = 12;
    let mut d = lj_distributed(sys);
    let twin = lj_distributed(sys);
    let ghosts = |s: &DistributedSim<'_>| s.ranks.iter().map(Atoms::nghost).sum::<usize>();
    let messages = |s: &DistributedSim<'_>| {
        let mut bare = s.ranks.clone();
        bare.iter_mut().for_each(Atoms::clear_ghosts);
        dpmd_comm::functional::build_forward_messages(&s.decomp, &bare, s.halo, s.scheme, false)
            .len()
    };
    gates.check(ghosts(&d) == ghosts(&twin) && messages(&d) == messages(&twin), || {
        "two constructions disagree on ghost or message totals".into()
    });

    let mut single = Simulation::new(
        sys.bx,
        sys.global.clone(),
        Box::new(sys.lj),
        sys.vv.clone(),
        1.0,
        LJ_REBUILD_EVERY,
    );
    for _ in 0..STRIDES {
        d.stride();
        single.step();
    }
    let gathered = d.gather();
    let by_id: BTreeMap<u64, Vec3> =
        (0..single.atoms.nlocal).map(|i| (single.atoms.id[i], single.atoms.pos[i])).collect();
    // An id the reference does not know counts as an infinite deviation.
    let worst = (0..gathered.nlocal)
        .map(|i| {
            by_id
                .get(&gathered.id[i])
                .map_or(f64::INFINITY, |&p| sys.bx.min_image(gathered.pos[i], p).norm())
        })
        .fold(0.0, f64::max);
    gates.check(gathered.nlocal == single.atoms.nlocal && worst < 1e-8, || {
        format!("distributed trajectory deviates {worst:e} Å from single box after {STRIDES} strides")
    });
}

// ---------------------------------------------------------------------------
// Running one workload.

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CuSolo,
    WaterSolo,
    CuServed,
    LjDist,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CuSolo, Workload::WaterSolo, Workload::CuServed, Workload::LjDist];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CuSolo => "cu_solo",
            Workload::WaterSolo => "water_solo",
            Workload::CuServed => "cu_served",
            Workload::LjDist => "lj_dist",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CuSolo => "paper's headline Cu system on the solo Mix32 pipeline, 1 thread: per-atom embedding GEMMs + M=1 fitting GEMMs; the plain baseline",
            Workload::WaterSolo => "same NN layers used differently: software-fp16 first fitting layer, two-type sort, 2-wide pool; an fp16 or pool gain shows here, not on cu_solo",
            Workload::CuServed => "64 tenants through ContinuousScheduler: stacked large-M GEMMs, scheduler and admission queue do the work; the solo pipeline does none",
            Workload::LjDist => "32 in-process ranks, Lennard-Jones: neighbour builds, ghost exchange and migration are the step; bypasses deepmd and nnet entirely",
        }
    }
}

/// Constructions timed for `setup_s` (median reported).
const SETUP_REPS: usize = 11;

/// Median wall time of [`SETUP_REPS`] cold constructions; skipped (0) for
/// traced runs, which do not report `setup_s`.
fn median_setup_s<T>(measure: bool, mut construct: impl FnMut() -> T) -> f64 {
    if !measure {
        return 0.0;
    }
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let built = construct();
            let dt = t0.elapsed().as_secs_f64();
            // Tear-down (pool joins, frees) is not part of set-up.
            drop(built);
            dt
        })
        .collect();
    stats::median(&samples)
}

/// What only a service has.
pub struct ServedOutcome {
    /// Wall-clock turnaround of every finished tenant, ms.
    pub turnaround_ms: Vec<f64>,
    /// ‡ counts of one replay (all replays are gated to be identical).
    pub counts: ReplayCounts,
}

/// What a run of a workload measured.
pub struct Measured {
    pub setup_s: f64,
    pub window: Window,
    pub atoms_per_system: usize,
    pub dt_fs: f64,
    /// `VmHWM` right after the timed window, before any reference check
    /// allocates.
    pub peak_rss_mb: f64,
    /// Median step cost in the last quarter of the window over the first
    /// quarter (`cu_served`: tick cost per stepped tenant, per replay):
    /// > 1 means steps get dearer as the run goes on.
    pub step_drift: f64,
    pub served: Option<ServedOutcome>,
}

fn warm_up(w: &mut dyn Stepper, calls: u64) {
    // Warm-up samples are not operations of the run: their gate results
    // are dropped with this scratch counter.
    let mut scratch = Gates::default();
    for i in 0..calls {
        w.step(None, i, &mut scratch);
    }
}

/// Median of the last quarter of `samples` over the median of the first.
fn quarter_drift(samples: &[f64]) -> f64 {
    let q = (samples.len() / 4).max(1);
    stats::median(&samples[samples.len() - q..]) / stats::median(&samples[..q])
}

/// Build the workload, time the window (with `rec`: alternating traced and
/// untraced segments), then run its correctness gates.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    measure_setup: bool,
    rec: Option<&mut Recorder>,
    gates: &mut Gates,
) -> Measured {
    match workload {
        Workload::CuSolo | Workload::WaterSolo => {
            let cu = workload == Workload::CuSolo;
            let builder = move || if cu { cu_builder(seed) } else { water_builder(seed) };
            let setup_s = median_setup_s(measure_setup, || Solo::new(builder()));
            let mut solo = Solo::new(builder());
            // ~0.9 s segments on the reference host; the n² neighbour
            // rebuild every 50 steps is < 1 % of the segment it lands in.
            let seg_calls = if cu { 10 } else { 20 };
            warm_up(&mut solo, seg_calls);
            let plan = Plan { seg_calls, min_calls: 11 * seg_calls };
            let window = run_window(&mut solo, &plan, seconds, rec, gates);
            let peak_rss_mb = peak_rss_mb();
            let (cfg, bound) = if cu {
                (DeepPotConfig::copper(), RELERR_BOUND_MIX32)
            } else {
                (DeepPotConfig::water(), RELERR_BOUND_MIX16)
            };
            check_solo_accuracy(&solo, cfg, bound, gates);
            Measured {
                setup_s,
                step_drift: quarter_drift(&window.step_ms),
                window,
                atoms_per_system: solo.natoms as usize,
                dt_fs: solo.engine.timestep_fs(),
                peak_rss_mb,
                served: None,
            }
        }
        Workload::CuServed => {
            let script = served_script(seed);
            let first = script.schedule()[0].1;
            let setup_s = median_setup_s(measure_setup, || {
                let mut s = served_scheduler(seed, 2, &script);
                s.attach(first).expect("an empty queue admits the first tenant");
                s.tick();
                s
            });
            let mut served = Served::new(seed, 2);
            // Two replays give 128 turnaround samples, so p90 has 12 beyond.
            let plan = Plan { seg_calls: 40, min_calls: 2 * 160 };
            let window = run_window(&mut served, &plan, seconds, rec, gates);
            let peak_rss_mb = peak_rss_mb();
            let counts = served.replays[0].clone();
            for (k, r) in served.replays.iter().enumerate() {
                gates.check(r.rejected == 0 && r.unfinished == 0, || {
                    format!("replay {k}: {} rejected, {} unfinished", r.rejected, r.unfinished)
                });
                gates.check(*r == counts, || format!("replay {k} counts differ from replay 0"));
            }
            check_served_against_solo(&served, gates);
            let per_replay: Vec<f64> =
                served.tick_ms_per_tenant.iter().map(|r| quarter_drift(r)).collect();
            Measured {
                setup_s,
                window,
                atoms_per_system: SERVED_ATOMS,
                dt_fs: served_builder(seed, 2).build_parts().timestep_fs,
                peak_rss_mb,
                step_drift: stats::median(&per_replay),
                served: Some(ServedOutcome { turnaround_ms: served.turnaround_ms, counts }),
            }
        }
        Workload::LjDist => {
            let sys = lj_system(seed);
            let setup_s = median_setup_s(measure_setup, || lj_distributed(&sys));
            let mut dist = Dist::new(&sys);
            // One segment is one rebuild cadence, so each holds exactly one
            // migration + re-exchange stride.
            warm_up(&mut dist, LJ_REBUILD_EVERY);
            let plan = Plan { seg_calls: LJ_REBUILD_EVERY, min_calls: 11 * LJ_REBUILD_EVERY };
            let window = run_window(&mut dist, &plan, seconds, rec, gates);
            let peak_rss_mb = peak_rss_mb();
            check_dist_against_single_box(&sys, gates);
            Measured {
                setup_s,
                step_drift: quarter_drift(&window.step_ms),
                window,
                atoms_per_system: sys.global.nlocal,
                dt_fs: LJ_DT_FS,
                peak_rss_mb,
                served: None,
            }
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stepper that takes no time: `units` whole units of `unit_len` busy
    /// calls each, with an idle call after every busy one.
    struct Fake {
        calls: u64,
        unit_len: Option<u64>,
        busy_in_unit: u64,
        pending_unit: bool,
    }

    impl Stepper for Fake {
        fn step(&mut self, _: Option<&mut Recorder>, _: u64, gates: &mut Gates) -> StepSample {
            self.calls += 1;
            gates.check(true, String::new);
            if self.calls.is_multiple_of(2) {
                return StepSample { wall_s: 0.0, atom_steps: 0 };
            }
            self.busy_in_unit += 1;
            if Some(self.busy_in_unit) == self.unit_len {
                self.busy_in_unit = 0;
                self.pending_unit = true;
            }
            StepSample { wall_s: 1e-3, atom_steps: 100 }
        }
        fn whole_units(&self) -> bool {
            self.unit_len.is_some()
        }
        fn unit_done(&mut self) -> bool {
            std::mem::take(&mut self.pending_unit)
        }
    }

    #[test]
    fn window_runs_the_minimum_calls_and_cuts_whole_segments() {
        let mut w = Fake { calls: 0, unit_len: None, busy_in_unit: 0, pending_unit: false };
        let mut gates = Gates::default();
        let plan = Plan { seg_calls: 10, min_calls: 35 };
        let win = run_window(&mut w, &plan, 0.0, None, &mut gates);
        // Stops at the first segment end with >= 35 busy calls: 4 segments.
        assert_eq!(win.seg_us.len(), 4);
        assert_eq!(win.step_ms.len(), 40);
        // 10 busy calls x 1 ms over 10 x 100 atom-steps = 10 µs each.
        assert!(win.seg_us.iter().all(|&us| (us - 10.0).abs() < 1e-9));
        assert_eq!((gates.attempted, gates.failed), (w.calls, 0));
        assert!(win.seg_traced.iter().all(|t| !t));
    }

    #[test]
    fn window_ends_only_on_a_unit_boundary_and_keeps_big_stubs() {
        // Units of 25 busy calls, segments of 10: each unit yields segments
        // of 10, 10 and a stub of 5 (>= half a segment, kept).
        let mut w = Fake { calls: 0, unit_len: Some(25), busy_in_unit: 0, pending_unit: false };
        let plan = Plan { seg_calls: 10, min_calls: 30 };
        let win = run_window(&mut w, &plan, 0.0, None, &mut Gates::default());
        assert_eq!(win.step_ms.len(), 50, "two whole units");
        assert_eq!(win.seg_us.len(), 6);
    }

    #[test]
    fn traced_windows_alternate_segment_kinds() {
        let mut w = Fake { calls: 0, unit_len: None, busy_in_unit: 0, pending_unit: false };
        let mut rec = Recorder::new();
        let plan = Plan { seg_calls: 5, min_calls: 20 };
        let win = run_window(&mut w, &plan, 0.0, Some(&mut rec), &mut Gates::default());
        assert_eq!(win.seg_traced, [false, true, false, true]);
    }

    #[test]
    fn gates_count_failures_against_attempts() {
        let mut g = Gates::default();
        g.check(true, || unreachable!());
        g.check(false, || "boom".into());
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.failures, ["boom"]);
    }

    #[test]
    fn same_seed_same_inputs_and_a_different_seed_moves_the_arrivals() {
        let rounds = |seed| {
            served_script(seed).schedule().iter().map(|(r, s)| (*r, s.id)).collect::<Vec<_>>()
        };
        assert_eq!(rounds(3), rounds(3));
        assert_ne!(rounds(3), rounds(4));
        let (a, b, c) = (lj_system(5), lj_system(5), lj_system(6));
        assert_eq!(a.global.vel, b.global.vel);
        assert_ne!(a.global.vel, c.global.vel);
        let water = |seed| water_builder(seed).build_parts().initial_state().1.pos;
        assert_eq!(water(1), water(1));
        assert_ne!(water(1), water(2));
    }

    #[test]
    fn force_relerr_is_relative_to_the_largest_reference_force() {
        let a = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0)];
        let b = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.5)];
        let expect = 0.5 / (4.0f64 + 0.25).sqrt();
        assert!((force_relerr(&a, &b) - expect).abs() < 1e-15);
    }

    #[test]
    fn drift_compares_last_quarter_to_first() {
        let rising: Vec<f64> = (0..16).map(|i| if i < 4 { 1.0 } else { 1.5 }).collect();
        assert_eq!(quarter_drift(&[1.0; 16]), 1.0);
        assert_eq!(quarter_drift(&rising), 1.5);
        assert_eq!(quarter_drift(&[2.0, 3.0]), 1.5);
    }

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
