//! Layer probes of the traced run: calls into one layer timed on their
//! own, for per-layer figures a whole round cannot separate (a residual
//! evaluation inside a step, a factorization inside a compile).

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amsim::{BatchInstance, CompiledModel, InputFrame};
use amsvp_core::circuits::{PiecewiseConstant, Stimulus};
use de::{Kernel, SimTime};
use eln::{Method, Transient};
use linalg::{LuFactors, SparseLu, Triplets};
use obs::Obs;
use sweep::{run_ams_sweep_batched, AmsScenario, ScenarioBudget, SweepEngine};
use vp::{new_bridge, run_fleet, Bus32, CompiledAnalog, CpuCore, PlatformBus};

use serve::{ServeConfig, Server};

use crate::checks::{self, Checks};
use crate::client;
use crate::run::{drive_instance, thread_cpu_time, Ctx, Setup, Use, SERVE_WORKERS};
use crate::stats::{geomean, median};
use crate::trace;
use crate::workload::{Circuit, LANE_WIDTH};

/// Repetitions of each probe; the median is reported.
const REPS: usize = 3;

fn med(samples: Vec<f64>) -> f64 {
    median(&samples).unwrap_or(0.0)
}

/// Seconds of the median of `REPS` timings of `f`.
fn time_reps(mut f: impl FnMut()) -> f64 {
    med((0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect())
}

/// Per-layer probe results, by metric name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Runs every probe and returns its metrics.
pub fn run(ctx: &Ctx, setup: &Setup, checks: &mut Checks) -> Metrics {
    let _g = trace::span("bench", "probes");
    let mut m = Metrics::new();
    enrich(ctx, setup, &mut m);
    residuals(ctx, setup, &mut m);
    batch(ctx, setup, checks, &mut m);
    linear_algebra(ctx, setup, &mut m);
    eln_solve(ctx, &mut m);
    cpu(&mut m);
    analog_share(ctx, setup, &mut m);
    engine(ctx, setup, &mut m);
    stimulus(ctx, &mut m);
    recording(ctx, setup, &mut m);
    serve_solo(ctx, &mut m);
    m
}

/// Cached jobs sent one at a time with nothing else in flight: the
/// accept latency a hit sees when no compile holds the cache.
fn serve_solo(ctx: &Ctx, m: &mut Metrics) {
    let server = Server::start(ServeConfig {
        workers: SERVE_WORKERS,
        lane_width: LANE_WIDTH,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let body = client::job_body(
        &ctx.wl.serve.source(),
        ctx.wl.serve.dt,
        LANE_WIDTH,
        &ctx.job_scenarios(0, ctx.wl.serve.dt),
    );
    // The first submission compiles the model; the rest are hits.
    let mut accept = Vec::new();
    for n in 0..=2 * ctx.wl.serve_cycles {
        let _g = trace::span("serve", "serve.solo_hit_job");
        if let Ok(r) = client::post_job(addr, &body, || {}) {
            if n > 0 && r.cache_verdict() == Some("hit") {
                accept.push(r.accept_s * 1e3);
            }
        }
    }
    server.shutdown();
    m.push(("serve.hit_accept_solo_ms", med(accept)));
}

fn enrich(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    let per = ctx.wl.levels.iter().map(|c| {
        let acquired =
            amsvp_core::acquire::acquire(setup.module(c)).expect("workload circuits acquire");
        let _g = trace::span("core", "core::enrich::enrich");
        time_reps(|| {
            black_box(amsvp_core::enrich(&acquired).expect("workload circuits enrich"));
        })
    });
    let per: Vec<f64> = per.collect();
    m.push((
        "core.enrich_ms",
        per.iter().sum::<f64>() / per.len() as f64 * 1e3,
    ));
}

fn warm_instance(setup: &Setup, c: &Circuit, stim: &PiecewiseConstant) -> amsim::Instance {
    let mut inst = setup.model(c).instance();
    drive_instance(&mut inst, c, stim, 100, None);
    inst
}

fn residuals(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    let mut res_ns = Vec::new();
    let mut step_ns = Vec::new();
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let stim = ctx.stim(Use::Level, i, c, 0, ctx.wl.level_steps).build();
        let mut inst = warm_instance(setup, c, &stim);
        let mut out = vec![0.0; inst.dim()];
        let n = 2000;
        let _g = trace::span("expr", "amsim::Instance::residuals_vm");
        let secs = time_reps(|| {
            for _ in 0..n {
                inst.residuals_vm(&mut out);
                black_box(&out);
            }
        });
        res_ns.push(secs * 1e9 / n as f64);
        let mut inst = warm_instance(setup, c, &stim);
        let steps = 1000;
        let secs = time_reps(|| {
            drive_instance(&mut inst, c, &stim, steps, None);
        });
        step_ns.push(secs * 1e9 / steps as f64);
    }
    let res = geomean(&res_ns).unwrap_or(0.0);
    m.push(("expr.residual_ns", res));
    m.push((
        "expr.residual_share",
        res / geomean(&step_ns).unwrap_or(f64::INFINITY),
    ));
}

/// ns per lane-step of a `lanes`-wide batch stepping `steps` steps.
fn batch_ns(
    model: &Arc<CompiledModel>,
    c: &Circuit,
    stims: &[PiecewiseConstant],
    steps: usize,
) -> f64 {
    let lanes = stims.len();
    let secs = time_reps(|| {
        let mut batch: BatchInstance = model.batch_instance(lanes);
        let mut frame = InputFrame::new(c.inputs(), lanes);
        for k in 0..steps {
            for (l, s) in stims.iter().enumerate() {
                frame.broadcast(l, s.value(k as f64 * c.dt));
            }
            batch.try_step(frame.as_slice());
        }
        black_box(batch.output(0, 0));
    });
    secs * 1e9 / (steps * lanes) as f64
}

fn batch(ctx: &Ctx, setup: &Setup, checks: &mut Checks, m: &mut Metrics) {
    let mut lane = Vec::new();
    let mut one = Vec::new();
    let mut fork = Vec::new();
    for (ci, c) in ctx.wl.sweeps.iter().enumerate() {
        let steps = ctx.wl.sweep_steps[ci].min(500);
        let model = setup.model(c);
        let stims: Vec<PiecewiseConstant> = (0..LANE_WIDTH)
            .map(|i| ctx.stim(Use::Sweep, ci, c, i, steps).build())
            .collect();
        let g = trace::span("amsim", "amsim::BatchInstance::try_step");
        lane.push(batch_ns(model, c, &stims, steps));
        drop(g);
        checks::check_batch_lanes(model, c, &stims, steps.min(200), checks);

        let mut inst = warm_instance(setup, c, &stims[0]);
        let n = 20;
        let _g = trace::span(
            "amsim",
            "amsim::Instance::snapshot+BatchInstance::fork_from",
        );
        let secs = time_reps(|| {
            for _ in 0..n {
                let snap = inst.snapshot();
                black_box(BatchInstance::fork_from(&snap, LANE_WIDTH, Obs::none()));
            }
        });
        fork.push(secs * 1e6 / n as f64);
    }
    // One lane on the level circuits, beside `amsim.step_ns` of the
    // scalar instance on the same circuits and inputs.
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let stim = ctx.stim(Use::Level, i, c, 0, ctx.wl.level_steps).build();
        let _g = trace::span("amsim", "amsim::BatchInstance::try_step(1 lane)");
        one.push(batch_ns(setup.model(c), c, &[stim], 1000));
    }
    m.push(("amsim.batch_lane_ns", geomean(&lane).unwrap_or(0.0)));
    m.push(("amsim.batch1_step_ns", geomean(&one).unwrap_or(0.0)));
    m.push(("amsim.fork_us", geomean(&fork).unwrap_or(0.0)));
}

/// Nodal conductance matrix of an RC ladder after backward-Euler
/// discretization, `dim` nodes: the pattern the MNA solvers factor.
fn ladder_matrix(dim: usize) -> Triplets {
    let (g, cd) = (1.0 / 5e3, 25e-9 / 1e-6);
    let mut t = Triplets::new(dim, dim);
    for i in 0..dim {
        t.push(i, i, cd + 2.0 * g);
        if i + 1 < dim {
            t.push(i, i + 1, -g);
            t.push(i + 1, i, -g);
        }
    }
    t
}

fn linear_algebra(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    // The largest compiled model sets the sparse size; RC20's 100
    // unknowns set the dense size (the paper's largest dense system).
    let dim = ctx
        .wl
        .compiled_circuits()
        .iter()
        .map(|c| setup.model(c).dim())
        .max()
        .unwrap_or(100);
    let t = ladder_matrix(dim);
    let g = trace::span("linalg", "linalg::SparseLu::analyze");
    let analyze = time_reps(|| {
        black_box(SparseLu::analyze(&t).expect("ladder matrices are nonsingular"));
    });
    drop(g);
    let mut lu = SparseLu::analyze(&t).expect("ladder matrices are nonsingular");
    let n = 50;
    let g = trace::span("linalg", "linalg::SparseLu::refactor");
    let refactor = time_reps(|| {
        for _ in 0..n {
            lu.refactor(&t).expect("pattern unchanged");
        }
    });
    drop(g);
    let b: Vec<f64> = (0..dim).map(|i| (i % 7) as f64).collect();
    let mut x = vec![0.0; dim];
    let g = trace::span("linalg", "linalg::SparseLu::solve_into");
    let solve = time_reps(|| {
        for _ in 0..n {
            lu.solve_into(&b, &mut x);
            black_box(&x);
        }
    });
    drop(g);
    let dense = ladder_matrix(100).to_dense();
    let g = trace::span("linalg", "linalg::LuFactors::factor");
    let factor = time_reps(|| {
        for _ in 0..n {
            black_box(LuFactors::factor(&dense).expect("nonsingular"));
        }
    });
    drop(g);
    m.push(("linalg.analyze_ms", analyze * 1e3));
    m.push(("linalg.refactor_us", refactor * 1e6 / n as f64));
    m.push(("linalg.solve_us", solve * 1e6 / n as f64));
    m.push(("linalg.dense_factor_us", factor * 1e6 / n as f64));
}

fn eln_solve(ctx: &Ctx, m: &mut Metrics) {
    let mut ns = Vec::new();
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let stim = ctx.stim(Use::Level, i, c, 0, ctx.wl.level_steps).build();
        let (net, sources, _) = c.eln();
        let mut solver = Transient::new(&net)
            .dt(c.dt)
            .method(Method::BackwardEuler)
            .build()
            .expect("hand-built networks assemble");
        let steps = 2000;
        let _g = trace::span("eln", "eln::ElnSolver::try_step");
        let mut k = 0usize;
        let secs = time_reps(|| {
            for _ in 0..steps {
                let u = stim.value(k as f64 * c.dt);
                for &s in &sources {
                    solver.set_source(s, u);
                }
                solver.try_step().expect("linear networks step");
                k += 1;
            }
        });
        ns.push(secs * 1e9 / steps as f64);
    }
    m.push(("eln.solve_ns", geomean(&ns).unwrap_or(0.0)));
}

fn cpu(m: &mut Metrics) {
    let bridge = new_bridge();
    let uart = Rc::new(RefCell::new(Vec::new()));
    let mut bus = PlatformBus::new(uart, bridge.clone());
    bus.load_words(0, &vp::monitor_firmware());
    let mut core = CpuCore::new();
    let n = 200_000;
    let _g = trace::span("vp", "vp::CpuCore::step");
    let mut toggle = 0u32;
    let secs = time_reps(|| {
        for i in 0..n {
            // Move the ADC input now and then so the firmware's
            // threshold branch and UART path run too.
            if i % 1000 == 0 {
                toggle ^= 1;
                bridge.borrow_mut().aout = f64::from(toggle);
            }
            core.step(&mut bus);
        }
    });
    black_box(bus.read32(0));
    m.push(("vp.cpu_ns_per_instr", secs * 1e9 / n as f64));
}

fn analog_share(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    let engine = SweepEngine::new().workers(ctx.workers);
    let mut analog = 0.0;
    let mut fleet = 0.0;
    for (ci, c) in ctx.wl.fleets.iter().enumerate() {
        let model = setup.model(c);
        let devices = ctx.devices(ci);
        let config = ctx.fleet_config(c, ctx.workers);
        let g = trace::span("vp", "vp::run_fleet");
        fleet += time_reps(|| {
            black_box(run_fleet(model, &config, &devices).expect("no overrides"));
        });
        drop(g);
        let scenarios: Vec<AmsScenario> = (0..devices.len())
            .map(|i| AmsScenario {
                name: format!("d{i}"),
                stim: Box::new(ctx.stim(Use::Device, ci, c, i, ctx.wl.fleet_steps).build()),
                steps: ctx.wl.fleet_steps,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        let _g = trace::span("sweep", "sweep::run_ams_sweep_batched(fleet inputs)");
        analog += time_reps(|| {
            black_box(
                run_ams_sweep_batched(
                    &engine,
                    model,
                    &scenarios,
                    LANE_WIDTH,
                    &ScenarioBudget::unlimited(),
                )
                .expect("no overrides"),
            );
        });
    }
    m.push(("vp.analog_share", analog / fleet));
}

fn engine(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    let mut overhead = Vec::new();
    let mut efficiency = Vec::new();
    for (ci, c) in ctx.wl.sweeps.iter().enumerate() {
        let model = setup.model(c);
        // A shortened sweep: the ratios, not the length, are measured.
        let steps = ctx.wl.sweep_steps[ci].min(400);
        let mut scenarios = ctx.sweep_scenarios(ci);
        for s in &mut scenarios {
            s.steps = steps;
        }
        let budget = ScenarioBudget::unlimited();
        let g = trace::span("sweep", "sweep::run_ams_sweep_batched(1 worker)");
        let one = time_reps(|| {
            black_box(
                run_ams_sweep_batched(
                    &SweepEngine::new().workers(1),
                    model,
                    &scenarios,
                    LANE_WIDTH,
                    &budget,
                )
                .expect("no overrides"),
            );
        });
        drop(g);
        let g = trace::span("sweep", "sweep::run_ams_sweep_batched(all workers)");
        let many = time_reps(|| {
            black_box(
                run_ams_sweep_batched(
                    &SweepEngine::new().workers(ctx.workers),
                    model,
                    &scenarios,
                    LANE_WIDTH,
                    &budget,
                )
                .expect("no overrides"),
            );
        });
        drop(g);
        let stims: Vec<PiecewiseConstant> = (0..scenarios.len())
            .map(|i| ctx.stim(Use::Sweep, ci, c, i, steps).build())
            .collect();
        let _g = trace::span("amsim", "amsim::BatchInstance::try_step(sweep blocks)");
        let own: f64 = stims
            .chunks(LANE_WIDTH)
            .map(|block| batch_ns(model, c, block, steps) * (block.len() * steps) as f64 * 1e-9)
            .sum();
        overhead.push(one / own);
        efficiency.push(one / (ctx.workers as f64 * many));
    }
    m.push(("sweep.engine_overhead", geomean(&overhead).unwrap_or(0.0)));
    m.push((
        "sweep.parallel_efficiency",
        geomean(&efficiency).unwrap_or(0.0),
    ));
}

/// A stimulus that counts its samples.
struct Counting<'a> {
    inner: PiecewiseConstant,
    samples: &'a AtomicU64,
}

impl Stimulus for Counting<'_> {
    fn value(&self, t: f64) -> f64 {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.inner.value(t)
    }
}

fn stimulus(ctx: &Ctx, m: &mut Metrics) {
    let c = &ctx.wl.sweeps[0];
    let steps = ctx.wl.sweep_steps[0];
    let samples = AtomicU64::new(0);
    let stims: Vec<Counting<'_>> = (0..ctx.wl.sweep_scenarios)
        .map(|i| Counting {
            inner: ctx.stim(Use::Sweep, 0, c, i, steps).build(),
            samples: &samples,
        })
        .collect();
    let _g = trace::span("core", "core::PiecewiseConstant::value");
    let secs = time_reps(|| {
        for s in &stims {
            for k in 0..steps {
                black_box(s.value(black_box(k as f64 * c.dt)));
            }
        }
    });
    let n = samples.load(Ordering::Relaxed) as f64 / REPS as f64;
    m.push(("sweep.stimulus_ns_per_sample", secs * 1e9 / n));
}

fn recording(ctx: &Ctx, setup: &Setup, m: &mut Metrics) {
    let mut ratios = Vec::new();
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let steps = ctx.wl.level_steps;
        let stim = ctx.stim(Use::Level, i, c, 0, steps).build();
        let run = |obs: Obs| {
            let mut k = Kernel::new();
            k.set_collector(obs);
            k.register(CompiledAnalog::new(
                setup.abstracted[i].clone(),
                new_bridge(),
                stim.clone(),
            ));
            let t = thread_cpu_time();
            k.run_until(SimTime::from_seconds((steps as f64 - 0.5) * c.dt))
                .expect("no delta loops");
            (thread_cpu_time() - t).as_secs_f64()
        };
        let _g = trace::span("obs", "de::Kernel::run_until(recording vs none)");
        // Interleaved, so a slow stretch of the host hits both sides.
        let (mut none, mut rec) = (Vec::new(), Vec::new());
        for _ in 0..3 * REPS {
            none.push(run(Obs::none()));
            rec.push(run(Obs::recording()));
        }
        ratios.push(med(rec) / med(none));
    }
    m.push(("obs.recording_overhead", geomean(&ratios).unwrap_or(0.0)));
}
