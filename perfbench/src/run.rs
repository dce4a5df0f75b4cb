//! One round of a workload: set-up, the Table I levels, the Table III
//! platform, flat and tree sweeps, a fleet and served jobs.
//!
//! Every round runs the same operations on the same seeded inputs, so a
//! run's operation counts are whole multiples of one round's. Each call
//! into a layer sits inside a [`trace::span`], which records only in the
//! traced run.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amsim::{CompiledModel, Instance, Simulation};
use amsvp_core::circuits::PiecewiseConstant;
use amsvp_core::{Abstraction, SignalFlowModel};
use de::{Kernel, SimTime};
use eln::{Method, Transient};
use obs::{Obs, Report};
use serve::{ServeConfig, Server};
use sweep::{
    run_ams_sweep_batched, run_ams_sweep_tree, AmsRun, AmsScenario, ScenarioBudget,
    ScenarioOutcome, ScenarioSegment, ScenarioTree, SweepEngine, TreeScenario,
};
use vams_ast::Module;
use vp::{
    build_tdf_cluster, new_bridge, run_de_platform, run_fleet, AnalogIntegration, CompiledAnalog,
    DeviceScenario, ElnAnalog, FleetConfig, PlatformConfig,
};

use crate::client::{self, JobReply, JobScenario};
use crate::stats::median;
use crate::trace;
use crate::workload::{Circuit, Pwc, Workload, CPU_CYCLES_PER_STEP, LANE_WIDTH, TREE_BRANCHING};

/// Run-wide constants: the workload, its seed and the pool sizes.
pub struct Ctx {
    /// The workload.
    pub wl: Workload,
    /// Input seed.
    pub seed: u64,
    /// Worker threads of every pool, and client connections: the
    /// available cores.
    pub workers: usize,
}

/// A fresh collector for the program's own counters: recording while
/// traced, disabled otherwise.
pub fn collector() -> Obs {
    if trace::enabled() {
        Obs::recording()
    } else {
        Obs::none()
    }
}

/// Stream ids keep every phase's stimuli independent of the others'.
#[derive(Clone, Copy)]
pub enum Use {
    /// Table I / III level runs.
    Level = 1,
    /// Flat sweep scenarios.
    Sweep = 2,
    /// Tree roots.
    TreeRoot = 3,
    /// Tree children.
    TreeChild = 4,
    /// Fleet devices.
    Device = 5,
    /// Served scenarios.
    Job = 6,
}

impl Ctx {
    /// The stimulus of item `i` of circuit `c` in phase `u`.
    pub fn stim(&self, u: Use, ci: usize, c: &Circuit, i: usize, steps: usize) -> Pwc {
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((u as u64) << 48 | (ci as u64) << 32 | i as u64);
        c.stimulus(self.wl.settled, mix | 1, steps)
    }

    fn engine(&self) -> SweepEngine {
        SweepEngine::new().workers(self.workers)
    }

    /// Flat-sweep scenarios of sweep circuit `ci`.
    pub fn sweep_scenarios(&self, ci: usize) -> Vec<AmsScenario> {
        let c = &self.wl.sweeps[ci];
        (0..self.wl.sweep_scenarios)
            .map(|i| AmsScenario {
                name: format!("{}-s{i}", c.label),
                stim: Box::new(
                    self.stim(Use::Sweep, ci, c, i, self.wl.sweep_steps[ci])
                        .build(),
                ),
                steps: self.wl.sweep_steps[ci],
                newton_tol: None,
                step_control: None,
            })
            .collect()
    }

    /// Root and child stimuli of the tree sweep of circuit `ci`: root `r`
    /// drives the shared prefix, child `r·B + j` the rest of leaf `r·B + j`.
    pub fn tree_stims(&self, ci: usize) -> (Vec<Pwc>, Vec<Pwc>) {
        let c = &self.wl.sweeps[ci];
        let roots = self.wl.sweep_scenarios / TREE_BRANCHING;
        let steps = self.wl.sweep_steps[ci];
        let r = (0..roots)
            .map(|i| self.stim(Use::TreeRoot, ci, c, i, steps))
            .collect();
        let ch = (0..roots * TREE_BRANCHING)
            .map(|i| self.stim(Use::TreeChild, ci, c, i, steps))
            .collect();
        (r, ch)
    }

    /// The tree sweep's forest for circuit `ci`.
    pub fn tree(&self, ci: usize) -> ScenarioTree {
        let (roots, children) = self.tree_stims(ci);
        let prefix = self.wl.tree_prefix(ci);
        let rest = self.wl.sweep_steps[ci] - prefix;
        ScenarioTree {
            roots: roots
                .iter()
                .enumerate()
                .map(|(r, root)| TreeScenario {
                    newton_tol: None,
                    step_control: None,
                    segment: ScenarioSegment {
                        name: format!("r{r}"),
                        stim: Box::new(root.build()),
                        steps: prefix,
                        children: (0..TREE_BRANCHING)
                            .map(|j| ScenarioSegment {
                                name: format!("r{r}c{j}"),
                                stim: Box::new(children[r * TREE_BRANCHING + j].build()),
                                steps: rest,
                                children: Vec::new(),
                            })
                            .collect(),
                    },
                })
                .collect(),
        }
    }

    /// Fleet devices of fleet circuit `ci`.
    pub fn devices(&self, ci: usize) -> Vec<DeviceScenario> {
        let c = &self.wl.fleets[ci];
        (0..self.wl.fleet_devices)
            .map(|i| {
                let stim = self.stim(Use::Device, ci, c, i, self.wl.fleet_steps);
                DeviceScenario::new(
                    format!("{}-d{i}", c.label),
                    stim.build(),
                    self.wl.fleet_steps,
                )
            })
            .collect()
    }

    /// Fleet configuration for circuit `c` at `workers` workers.
    pub fn fleet_config(&self, c: &Circuit, workers: usize) -> FleetConfig {
        FleetConfig::new(vp::monitor_firmware().into())
            .workers(workers)
            .lane_width(LANE_WIDTH)
            .cpu_period(SimTime::from_seconds(c.dt / CPU_CYCLES_PER_STEP))
    }

    /// Scenarios of served job `j` at time step `dt`.
    pub fn job_scenarios(&self, j: usize, dt: f64) -> Vec<JobScenario> {
        let c = self.wl.serve.at_dt(dt);
        (0..self.wl.job_scenarios)
            .map(|i| JobScenario {
                stim: self.stim(Use::Job, j, &c, i, self.wl.job_steps),
                steps: self.wl.job_steps,
            })
            .collect()
    }
}

/// Everything set-up produces.
pub struct Setup {
    /// Parsed modules, one per compiled circuit.
    pub modules: Vec<(Circuit, Module)>,
    /// Abstracted models, one per level circuit.
    pub abstracted: Vec<SignalFlowModel>,
    /// Compiled conservative models, one per compiled circuit.
    pub compiled: Vec<(Circuit, Arc<CompiledModel>)>,
    /// The job server, with the hit model already compiled (taken at
    /// shutdown).
    pub server: Option<Server>,
    /// Counters the compiles recorded (traced rounds only).
    pub report: Report,
    /// CPU seconds of parse, abstraction, compile and server start.
    pub secs: f64,
}

impl Setup {
    /// Compiled model of circuit `c`.
    pub fn model(&self, c: &Circuit) -> &Arc<CompiledModel> {
        &self
            .compiled
            .iter()
            .find(|(k, _)| k.label == c.label && k.dt == c.dt)
            .expect("every circuit of the workload is compiled at set-up")
            .1
    }

    /// Parsed module of circuit `c`.
    pub fn module(&self, c: &Circuit) -> &Module {
        &self
            .modules
            .iter()
            .find(|(k, _)| k.label == c.label)
            .expect("every circuit of the workload is parsed at set-up")
            .1
    }
}

/// Sweep workers per served job. A cycle runs two jobs at once, so one
/// worker each fills two cores without oversubscribing them, and a job's
/// latency is its own work rather than the scheduler's interleaving.
pub const SERVE_WORKERS: usize = 1;

/// Parses, abstracts and compiles every model of the workload, starts
/// the server and primes its cache with the hit model.
///
/// # Errors
///
/// Any failure, as text (the workloads' models all build).
pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    // Set-up runs on this thread alone up to the server start, so it is
    // timed on this thread's CPU clock (see `thread_cpu_time`).
    let start = thread_cpu_time();
    let obs = collector();
    let circuits = ctx.wl.compiled_circuits();
    let mut modules: Vec<(Circuit, Module)> = Vec::new();
    for c in &circuits {
        if modules.iter().any(|(k, _)| k.label == c.label) {
            continue;
        }
        let src = c.source();
        let mut g = trace::span("vams-parser", "vams-parser.parse_module");
        g.ops(1);
        let m = vams_parser::parse_module(&src).map_err(|e| format!("{}: {e}", c.label))?;
        drop(g);
        modules.push((c.clone(), m));
    }
    let find = |c: &Circuit| {
        &modules
            .iter()
            .find(|(k, _)| k.label == c.label)
            .expect("parsed above")
            .1
    };
    let mut abstracted = Vec::new();
    for c in &ctx.wl.levels {
        let mut g = trace::span("core", "core.Abstraction::build");
        g.ops(1);
        let m = Abstraction::new(find(c))
            .dt(c.dt)
            .output("V(out)")
            .build()
            .map_err(|e| format!("{}: {e}", c.label))?;
        drop(g);
        abstracted.push(m);
    }
    let mut compiled = Vec::new();
    for c in &circuits {
        let mut g = trace::span("amsim", "amsim.Simulation::compile");
        g.ops(1);
        let m = Simulation::new(find(c))
            .dt(c.dt)
            .output("V(out)")
            .collector(obs.clone())
            .compile()
            .map_err(|e| format!("{}: {e}", c.label))?;
        drop(g);
        compiled.push((c.clone(), m));
    }
    let g = trace::span("serve", "serve.Server::start");
    let server = Server::start(ServeConfig {
        workers: SERVE_WORKERS,
        lane_width: LANE_WIDTH,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    drop(g);
    let secs = (thread_cpu_time() - start).as_secs_f64();
    // One one-step job compiles the hit model into the server's cache
    // (the same compile as the local one above, so not timed again).
    let prime = client::job_body(
        &ctx.wl.serve.source(),
        ctx.wl.serve.dt,
        LANE_WIDTH,
        &[JobScenario {
            stim: ctx.stim(Use::Job, 0, &ctx.wl.serve, 0, 1),
            steps: 1,
        }],
    );
    let g = trace::span("serve", "serve.prime_job");
    let reply = client::post_job(server.local_addr(), &prime, || {})?;
    drop(g);
    if !reply.healthy(1) || reply.cache_verdict() != Some("miss") {
        return Err(format!(
            "priming job: status {} verdict {:?}: {:?}",
            reply.status,
            reply.cache_verdict(),
            reply.records
        ));
    }
    Ok(Setup {
        modules,
        abstracted,
        compiled,
        server: Some(server),
        report: obs.report().unwrap_or_default(),
        secs,
    })
}

/// Integration levels of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Conservative reference: `amsim::Instance::step`.
    Ref,
    /// Hand-built ELN inside the DE kernel.
    Eln,
    /// Abstracted model in a TDF cluster.
    Tdf,
    /// Abstracted model as a DE process.
    De,
    /// Abstracted model in a plain loop.
    Cpp,
}

impl Level {
    /// Every level, in Table I order.
    pub const ALL: [Level; 5] = [Level::Ref, Level::Eln, Level::Tdf, Level::De, Level::Cpp];
}

/// Operation accounting of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ops {
    /// Simulated analog steps attempted / failed.
    pub steps: (u64, u64),
    /// Sweep scenarios and tree leaves attempted / failed.
    pub scenarios: (u64, u64),
    /// Fleet devices attempted / failed.
    pub devices: (u64, u64),
    /// Served jobs attempted / failed.
    pub jobs: (u64, u64),
}

impl Ops {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Ops) {
        for (a, b) in [
            (&mut self.steps, other.steps),
            (&mut self.scenarios, other.scenarios),
            (&mut self.devices, other.devices),
            (&mut self.jobs, other.jobs),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Total attempted and failed over every kind.
    pub fn totals(&self) -> (u64, u64) {
        let all = [self.steps, self.scenarios, self.devices, self.jobs];
        (all.iter().map(|x| x.0).sum(), all.iter().map(|x| x.1).sum())
    }
}

/// One served job as the client saw it.
#[derive(Debug)]
pub struct Job {
    /// Verdict the client expects (`true` = cache hit).
    pub expect_hit: bool,
    /// Index of the job's scenario set ([`Ctx::job_scenarios`]).
    pub set: usize,
    /// Time step the job was submitted at.
    pub dt: f64,
    /// Whether a miss was compiling when the job was sent.
    pub contended: bool,
    /// The reply (or the client error).
    pub reply: Result<JobReply, String>,
}

/// Measurements of one round.
#[derive(Default)]
pub struct Round {
    /// Set-up seconds.
    pub setup_s: f64,
    /// ns per step of each level, per level circuit: the median over the
    /// chunks of each pass (one value per pass).
    pub level_ns: Vec<(Level, Vec<Vec<f64>>)>,
    /// Final `V(out)` of each level run, per level circuit (checked
    /// against the plain loop).
    pub level_final: Vec<(Level, Vec<f64>)>,
    /// ns per analog step of the whole platform, per level circuit: the
    /// median over the chunks of each pass (one value per pass).
    pub vp_ns: Vec<Vec<f64>>,
    /// Flat-sweep lane-steps per second, per sweep circuit.
    pub sweep_rate: Vec<f64>,
    /// Tree-sweep leaf-steps per second, per sweep circuit.
    pub tree_rate: Vec<f64>,
    /// Fleet devices per second over every fleet circuit and the steal
    /// ticks per second the guest saw meanwhile, one pair per pass.
    pub devices_per_s: Vec<(f64, f64)>,
    /// Served jobs in submission order.
    pub jobs: Vec<Job>,
    /// Flat-sweep results of the first sweep circuit (checked).
    pub sweep_results: Vec<ScenarioOutcome<AmsRun, amsim::AmsError>>,
    /// Tree-sweep results of the first sweep circuit (checked).
    pub tree_results: Vec<ScenarioOutcome<AmsRun, amsim::AmsError>>,
    /// Fleet results of the first fleet circuit (checked).
    pub fleet: Option<vp::FleetOutcome>,
    /// Newton iterations, LU factorizations and steps of the reference
    /// level, summed over circuits.
    pub ref_counts: (u64, u64, u64),
    /// Counters of the program (traced rounds only).
    pub report: Report,
    /// DE events, steps and seconds of the DE level, summed over
    /// circuits (traced rounds only).
    pub de_counts: (u64, u64, f64),
    /// TDF firings, steps and seconds of the TDF level (traced rounds
    /// only).
    pub tdf_counts: (u64, u64, f64),
    /// Leaf-steps delivered minus steps simulated by the tree sweeps.
    pub prefix_saved: u64,
    /// Round wall seconds.
    pub wall: f64,
    /// Clock ticks of CPU time the hypervisor gave to other guests during
    /// the round, over all CPUs (`/proc/stat` steal).
    pub steal: u64,
    /// Operation accounting.
    pub ops: Ops,
}

impl Round {
    /// Drops the waveforms and records the checks read from the first
    /// round only.
    pub fn slim(&mut self) {
        self.sweep_results.clear();
        self.tree_results.clear();
        self.fleet = None;
        for j in &mut self.jobs {
            if let Ok(r) = &mut j.reply {
                r.records.truncate(1);
            }
        }
    }
}

fn tally_outcomes<R, E>(results: &[ScenarioOutcome<R, E>], steps: u64) -> ((u64, u64), (u64, u64)) {
    let failed = results.iter().filter(|r| r.result().is_none()).count() as u64;
    let n = results.len() as u64;
    ((n * steps, failed * steps), (n, failed))
}

/// Drives a conservative instance through `steps` steps of `stim`.
/// Returns the step that failed, if any.
pub fn drive_instance(
    inst: &mut Instance,
    c: &Circuit,
    stim: &PiecewiseConstant,
    steps: usize,
    mut wave: Option<&mut Vec<f64>>,
) -> Option<usize> {
    let mut buf = vec![0.0; c.inputs()];
    for k in 0..steps {
        buf.fill(stim.value(k as f64 * c.dt));
        if inst.try_step(&buf).is_err() {
            return Some(k);
        }
        if let Some(w) = wave.as_deref_mut() {
            w.push(inst.output(0));
        }
    }
    None
}

/// Drives the abstracted model through `steps` steps of `stim`.
pub fn drive_model(
    model: &mut SignalFlowModel,
    c: &Circuit,
    stim: &PiecewiseConstant,
    steps: usize,
    mut wave: Option<&mut Vec<f64>>,
) {
    let mut buf = vec![0.0; c.inputs()];
    for k in 0..steps {
        buf.fill(stim.value(k as f64 * c.dt));
        model.step(&buf);
        if let Some(w) = wave.as_deref_mut() {
            w.push(model.output(0));
        }
    }
}

/// Runs the kernel until `steps` analog activations have happened.
fn until(c: &Circuit, steps: usize) -> SimTime {
    SimTime::from_seconds((steps as f64 - 0.5) * c.dt)
}

/// Steal time of all CPUs from `/proc/stat`, in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Steps timed as one sample of a level run; a run of `level_steps`
/// steps gives `level_steps / CHUNK` samples, so a short stall of the
/// host spoils a few samples instead of a whole run.
pub const CHUNK: usize = 500;

/// CPU time of the calling thread.
///
/// Per-step costs of the single-threaded levels are timed on this clock,
/// not the wall clock: on a virtual machine the wall clock also counts
/// time the hypervisor gives to other guests (steal), which varies from
/// minute to minute and is no property of the program.
pub fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (linked by std on every
    // Linux target), `ts` is a valid, writable `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this benchmark builds
    // for), and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Times `f(j)` for every chunk `j` on the thread's CPU clock, returning
/// ns per step of each.
fn chunks(steps: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..steps / CHUNK)
        .map(|j| {
            let t = thread_cpu_time();
            f(j);
            (thread_cpu_time() - t).as_secs_f64() * 1e9 / CHUNK as f64
        })
        .collect()
}

/// Runs one level on circuit `i` and returns the ns per step of each
/// chunk, the steps simulated and the final output.
fn run_level(
    ctx: &Ctx,
    setup: &Setup,
    round: &mut Round,
    level: Level,
    i: usize,
) -> (Vec<f64>, u64, f64) {
    let c = &ctx.wl.levels[i];
    let steps = ctx.wl.level_steps;
    let stim = ctx.stim(Use::Level, i, c, 0, steps).build();
    let obs = collector();
    let res = match level {
        Level::Ref => {
            let mut inst = setup
                .model(c)
                .instance_builder()
                .collector(obs.clone())
                .build()
                .expect("compiled models build instances");
            let mut g = trace::span("amsim", "amsim.Instance::step");
            let mut buf = vec![0.0; c.inputs()];
            let mut failed = false;
            let ns = chunks(steps, |j| {
                for k in j * CHUNK..(j + 1) * CHUNK {
                    buf.fill(stim.value(k as f64 * c.dt));
                    failed |= inst.try_step(&buf).is_err();
                }
            });
            g.ops(steps as u64);
            drop(g);
            if failed {
                round.ops.steps.1 += steps as u64;
            }
            round.ref_counts.0 += inst.newton_iterations();
            round.ref_counts.1 += inst.lu_factorizations();
            round.ref_counts.2 += steps as u64;
            inst.flush_counters();
            (ns, steps as u64, inst.output(0))
        }
        Level::Eln => {
            let (net, sources, out) = c.eln();
            let solver = Transient::new(&net)
                .dt(c.dt)
                .method(Method::BackwardEuler)
                .collector(obs.clone())
                .build()
                .expect("hand-built networks assemble");
            let bridge = new_bridge();
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(ElnAnalog::new(solver, sources, out, bridge.clone(), stim));
            let mut g = trace::span("eln", "eln.ElnAnalog(de::Kernel::run_until)");
            let ns = chunks(steps, |j| {
                k.run_until(until(c, (j + 1) * CHUNK))
                    .expect("no delta loops");
            });
            let b = bridge.borrow();
            g.ops(u64::from(b.samples));
            (ns, u64::from(b.samples), b.aout)
        }
        Level::Tdf => {
            let bridge = new_bridge();
            let mut exec = build_tdf_cluster(setup.abstracted[i].clone(), bridge.clone(), stim)
                .expect("fixed pipeline elaborates");
            exec.set_collector(obs.clone());
            let mut g = trace::span("tdf", "tdf.TdfExecutor::run_until");
            let ns = chunks(steps, |j| exec.run_until(until(c, (j + 1) * CHUNK)));
            let b = bridge.borrow();
            g.ops(u64::from(b.samples));
            (ns, u64::from(b.samples), b.aout)
        }
        Level::De => {
            let bridge = new_bridge();
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(CompiledAnalog::new(
                setup.abstracted[i].clone(),
                bridge.clone(),
                stim,
            ));
            let mut g = trace::span("de", "de.Kernel::run_until");
            let ns = chunks(steps, |j| {
                k.run_until(until(c, (j + 1) * CHUNK))
                    .expect("no delta loops");
            });
            let b = bridge.borrow();
            g.ops(u64::from(b.samples));
            (ns, u64::from(b.samples), b.aout)
        }
        Level::Cpp => {
            let mut model = setup.abstracted[i].clone();
            let mut g = trace::span("core", "core.SignalFlowModel::step");
            let mut buf = vec![0.0; c.inputs()];
            let ns = chunks(steps, |j| {
                for k in j * CHUNK..(j + 1) * CHUNK {
                    buf.fill(stim.value(k as f64 * c.dt));
                    model.step(&buf);
                }
            });
            g.ops(steps as u64);
            (ns, steps as u64, black_box(model.output(0)))
        }
    };
    if let Some(report) = obs.report() {
        let secs = res.0.iter().sum::<f64>() * CHUNK as f64 * 1e-9;
        match level {
            Level::De => {
                round.de_counts = add3(
                    round.de_counts,
                    (report.counter("de.activations"), res.1, secs),
                )
            }
            Level::Tdf => {
                round.tdf_counts = add3(
                    round.tdf_counts,
                    (report.counter("tdf.firings"), res.1, secs),
                )
            }
            _ => {}
        }
        round.report.merge(&report);
    }
    res
}

fn add3(a: (u64, u64, f64), b: (u64, u64, f64)) -> (u64, u64, f64) {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

/// A stimulus shifted `t0` seconds later, so a platform started fresh for
/// each chunk sees the inputs the level runs saw at that chunk.
#[derive(Clone)]
struct Shifted {
    inner: PiecewiseConstant,
    t0: f64,
}

impl amsvp_core::circuits::Stimulus for Shifted {
    fn value(&self, t: f64) -> f64 {
        self.inner.value(t + self.t0)
    }
}

/// Appends the median of one pass's chunk samples to circuit `i`'s
/// entries in `per_circuit`.
fn add_pass(per_circuit: &mut Vec<Vec<f64>>, i: usize, samples: &[f64]) {
    if per_circuit.len() <= i {
        per_circuit.resize(i + 1, Vec::new());
    }
    per_circuit[i].push(median(samples).unwrap_or(0.0));
}

/// Runs one pass of the Table I levels and the Table III platform on
/// every level circuit. The first pass of a round keeps the final outputs
/// for the checks.
fn levels(ctx: &Ctx, setup: &Setup, round: &mut Round) {
    let _g = trace::span("bench", "phase.levels");
    let first = round.level_final.is_empty();
    for (li, level) in Level::ALL.into_iter().enumerate() {
        if round.level_ns.len() <= li {
            round.level_ns.push((level, Vec::new()));
        }
        let mut finals = Vec::new();
        for i in 0..ctx.wl.levels.len() {
            let (samples, steps, out) = run_level(ctx, setup, round, level, i);
            round.ops.steps.0 += steps;
            add_pass(&mut round.level_ns[li].1, i, &samples);
            finals.push(out);
        }
        if first {
            round.level_final.push((level, finals));
        }
    }
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let steps = ctx.wl.level_steps;
        let stim = ctx.stim(Use::Level, i, c, 0, steps).build();
        // A fresh platform per chunk, built before the clock starts: the
        // whole platform has no incremental run.
        let firmware = vp::monitor_firmware();
        let mut parts: Vec<_> = (0..steps / CHUNK)
            .map(|j| {
                let shifted = Shifted {
                    inner: stim.clone(),
                    t0: (j * CHUNK) as f64 * c.dt,
                };
                let mut config = PlatformConfig::with_stimulus(firmware.clone(), shifted);
                config.cpu_period = SimTime::from_seconds(c.dt / CPU_CYCLES_PER_STEP);
                Some((config, setup.abstracted[i].clone()))
            })
            .collect();
        let mut g = trace::span("vp", "vp::run_de_platform");
        let mut samples = 0;
        let ns = chunks(steps, |j| {
            let (config, model) = parts[j].take().expect("one platform per chunk");
            let report = run_de_platform(
                AnalogIntegration::CompiledDe(model),
                &config,
                until(c, CHUNK),
            );
            samples += u64::from(report.analog_samples);
        });
        g.ops(samples);
        drop(g);
        round.ops.steps.0 += samples;
        add_pass(&mut round.vp_ns, i, &ns);
    }
}

fn sweeps(ctx: &Ctx, setup: &Setup, round: &mut Round) {
    let _g = trace::span("bench", "phase.sweeps");
    let engine = ctx.engine();
    let budget = ScenarioBudget::unlimited();
    for (ci, c) in ctx.wl.sweeps.iter().enumerate() {
        let steps = ctx.wl.sweep_steps[ci] as u64;
        let model = setup.model(c);
        let scenarios = ctx.sweep_scenarios(ci);
        let mut g = trace::span("sweep", "sweep::run_ams_sweep_batched");
        let t = Instant::now();
        let out = run_ams_sweep_batched(&engine, model, &scenarios, LANE_WIDTH, &budget)
            .expect("no per-scenario overrides");
        let secs = t.elapsed().as_secs_f64();
        g.ops(scenarios.len() as u64 * steps);
        drop(g);
        let (s, n) = tally_outcomes(&out.results, steps);
        round.ops.add(&Ops {
            steps: s,
            scenarios: n,
            ..Ops::default()
        });
        round
            .sweep_rate
            .push((scenarios.len() as u64 * steps) as f64 / secs);
        round.report.merge(&out.report);
        if ci == 0 {
            round.sweep_results = out.results;
        }

        let tree = ctx.tree(ci);
        let leaves = tree.leaf_count() as u64;
        let mut g = trace::span("sweep", "sweep::run_ams_sweep_tree");
        let t = Instant::now();
        let out = run_ams_sweep_tree(&engine, model, &tree, LANE_WIDTH, &budget)
            .expect("no per-root overrides");
        let secs = t.elapsed().as_secs_f64();
        g.ops(leaves * steps);
        drop(g);
        let (s, n) = tally_outcomes(&out.results, steps);
        round.ops.add(&Ops {
            steps: s,
            scenarios: n,
            ..Ops::default()
        });
        round.tree_rate.push((leaves * steps) as f64 / secs);
        let roots = tree.roots.len() as u64;
        let prefix = ctx.wl.tree_prefix(ci) as u64;
        round.prefix_saved += leaves * steps - (roots * prefix + leaves * (steps - prefix));
        round.report.merge(&out.report);
        if ci == 0 {
            round.tree_results = out.results;
        }
    }
}

fn fleets(ctx: &Ctx, setup: &Setup, round: &mut Round) {
    let _g = trace::span("bench", "phase.fleet");
    let mut devices_total = 0u64;
    let mut secs_total = 0.0;
    let steal0 = steal_ticks();
    for (ci, c) in ctx.wl.fleets.iter().enumerate() {
        let devices = ctx.devices(ci);
        let config = ctx.fleet_config(c, ctx.workers);
        let mut g = trace::span("vp", "vp::run_fleet");
        let t = Instant::now();
        let out = run_fleet(setup.model(c), &config, &devices).expect("no per-device overrides");
        secs_total += t.elapsed().as_secs_f64();
        g.ops(devices.len() as u64);
        drop(g);
        devices_total += devices.len() as u64;
        let (s, n) = tally_outcomes(&out.devices, ctx.wl.fleet_steps as u64);
        round.ops.add(&Ops {
            steps: s,
            devices: n,
            ..Ops::default()
        });
        round.report.merge(&out.report);
        if ci == 0 && round.fleet.is_none() {
            round.fleet = Some(out);
        }
    }
    let steal = steal_ticks()
        .zip(steal0)
        .map_or(0, |(b, a)| b.saturating_sub(a));
    round
        .devices_per_s
        .push((devices_total as f64 / secs_total, steal as f64 / secs_total));
}

/// Delay between writing a miss request and sending the cycle's hit: long
/// enough for the miss's handler to read its request and take the model
/// cache, short against any compile of a large ladder (hundreds of ms).
/// A paper circuit compiles in under 2 ms, so there the hit finds the
/// cache free.
const HIT_DELAY: std::time::Duration = std::time::Duration::from_millis(20);

/// Serve cycles: each sends a job for a model the server has not seen
/// and, [`HIT_DELAY`] after that request is written, a job for the
/// cached model on a second connection, so on a large ladder the cached
/// job arrives while the miss compiles. With a single core the two run
/// one after the other.
fn serve_jobs(ctx: &Ctx, setup: &Setup, round: &mut Round) {
    let _g = trace::span("bench", "phase.serve");
    let addr = setup
        .server
        .as_ref()
        .expect("the server runs until the round ends")
        .local_addr();
    let source = ctx.wl.serve.source();
    let hit_body = client::job_body(
        &source,
        ctx.wl.serve.dt,
        LANE_WIDTH,
        &ctx.job_scenarios(0, ctx.wl.serve.dt),
    );
    for cyc in 0..ctx.wl.serve_cycles {
        let miss_dt = ctx.wl.miss_dt(cyc);
        let miss_body = client::job_body(
            &source,
            miss_dt,
            LANE_WIDTH,
            &ctx.job_scenarios(cyc + 1, miss_dt),
        );
        let mut g = trace::span("serve", "serve.miss_and_hit_jobs");
        let (miss, hit) = if ctx.workers >= 2 {
            let (tx, rx) = mpsc::channel();
            let hit_body = &hit_body;
            std::thread::scope(|s| {
                let miss = s.spawn(|| {
                    client::post_job(addr, &miss_body, move || {
                        let _ = tx.send(());
                    })
                });
                let hit = s.spawn(move || {
                    let _ = rx.recv();
                    std::thread::sleep(HIT_DELAY);
                    client::post_job(addr, hit_body, || {})
                });
                (
                    miss.join().expect("miss client thread"),
                    hit.join().expect("hit client thread"),
                )
            })
        } else {
            let miss = client::post_job(addr, &miss_body, || {});
            (miss, client::post_job(addr, &hit_body, || {}))
        };
        g.ops(2);
        drop(g);
        round.jobs.push(Job {
            expect_hit: false,
            set: cyc + 1,
            dt: miss_dt,
            contended: false,
            reply: miss,
        });
        round.jobs.push(Job {
            expect_hit: true,
            set: 0,
            dt: ctx.wl.serve.dt,
            contended: ctx.workers >= 2,
            reply: hit,
        });
    }
    for j in &round.jobs {
        let healthy = j
            .reply
            .as_ref()
            .is_ok_and(|r| r.healthy(ctx.wl.job_scenarios));
        round.ops.jobs.0 += 1;
        round.ops.jobs.1 += u64::from(!healthy);
        round.ops.scenarios.0 += ctx.wl.job_scenarios as u64;
        round.ops.steps.0 += (ctx.wl.job_scenarios * ctx.wl.job_steps) as u64;
        if !healthy {
            round.ops.scenarios.1 += ctx.wl.job_scenarios as u64;
            round.ops.steps.1 += (ctx.wl.job_scenarios * ctx.wl.job_steps) as u64;
        }
    }
}

/// One whole round.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn round(ctx: &Ctx) -> Result<(Round, Setup), String> {
    let t = Instant::now();
    let _g = trace::span("bench", "round");
    let g = trace::span("bench", "phase.setup");
    let setup = setup(ctx)?;
    drop(g);
    let mut round = Round {
        setup_s: setup.secs,
        report: setup.report.clone(),
        ..Round::default()
    };
    // The levels and the fleet are timed in four passes, spread over the
    // round, so that a round samples the host at several moments. On a
    // shared host the CPU time of one step moves between levels that last
    // from a fraction of a second to several seconds (RC32's plain loop
    // measured 1.25, 1.45 and 2.3 µs per step within one process, with
    // nothing else of the process running), and a fleet on two threads
    // sees whether the host leaves both cores free at that moment; a
    // single pass per round saw one such moment per round.
    levels(ctx, &setup, &mut round);
    fleets(ctx, &setup, &mut round);
    sweeps(ctx, &setup, &mut round);
    for _ in 0..2 {
        levels(ctx, &setup, &mut round);
        fleets(ctx, &setup, &mut round);
    }
    serve_jobs(ctx, &setup, &mut round);
    levels(ctx, &setup, &mut round);
    fleets(ctx, &setup, &mut round);
    round.wall = t.elapsed().as_secs_f64();
    Ok((round, setup))
}
