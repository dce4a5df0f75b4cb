//! Output checks, each against a computation made apart from the program
//! or a property the method must have — never a stored copy of an
//! earlier run's output.

use std::sync::Arc;

use amsim::{BatchInstance, CompiledModel, InputFrame, Simulation};
use amsvp_core::circuits::{PiecewiseConstant, Stimulus};
use eln::{Method, Transient};
use sweep::{
    run_ams_sweep_batched, AmsRun, AmsScenario, ScenarioBudget, ScenarioOutcome, SweepEngine,
};

use crate::run::{drive_instance, drive_model, Ctx, Job, Level, Round, Setup, Use};
use crate::workload::{Circuit, Kind, TREE_BRANCHING};

/// NRMSE bound between independent solvers that share only the
/// backward-Euler discretization (the repo's substrate-differential
/// bound).
pub const CROSS_NRMSE: f64 = 1e-5;

/// Backward-Euler transient of an unloaded ladder of `n` equal RC
/// sections, computed by a tridiagonal (Thomas) solve per step; returns
/// the last node's voltage after each step. Section `i` couples node `i`
/// to node `i-1` through `r`, and to ground through `c`; node 0 is the
/// input.
pub fn ladder_backward_euler(n: usize, r: f64, c: f64, dt: f64, inputs: &[f64]) -> Vec<f64> {
    let g = 1.0 / r;
    let cd = c / dt;
    let mut v = vec![0.0; n];
    let mut cp = vec![0.0; n];
    let mut dp = vec![0.0; n];
    let mut out = Vec::with_capacity(inputs.len());
    for &u in inputs {
        // Row i: -g·v[i-1] + (cd + 2g)·v[i] - g·v[i+1] = cd·v_old[i],
        // with v[-1] = u and no right neighbour on the last row.
        for i in 0..n {
            let diag = cd + if i + 1 < n { 2.0 * g } else { g };
            let upper = if i + 1 < n { -g } else { 0.0 };
            let mut rhs = cd * v[i];
            if i == 0 {
                rhs += g * u;
            }
            let (lower, prev_c, prev_d) = if i == 0 {
                (0.0, 0.0, 0.0)
            } else {
                (-g, cp[i - 1], dp[i - 1])
            };
            let m = diag - lower * prev_c;
            cp[i] = upper / m;
            dp[i] = (rhs - lower * prev_d) / m;
        }
        for i in (0..n).rev() {
            v[i] = dp[i] - if i + 1 < n { cp[i] * v[i + 1] } else { 0.0 };
        }
        out.push(v[n - 1]);
    }
    out
}

/// Root-mean-square error normalized by the joint range of both
/// waveforms (absolute for flat signals).
pub fn nrmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "waveform lengths differ");
    let mut sum = 0.0;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (&x, &y) in a.iter().zip(b) {
        sum += (x - y) * (x - y);
        lo = lo.min(x.min(y));
        hi = hi.max(x.max(y));
    }
    let rmse = (sum / a.len().max(1) as f64).sqrt();
    if hi - lo > 1e-12 {
        rmse / (hi - lo)
    } else {
        rmse
    }
}

/// Whether two waveforms are equal bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Steps `k` at which the input has held its level for at least `hold`
/// steps, paired with that level.
pub fn settled_steps(inputs: &[f64], hold: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let mut since = 0;
    for k in 0..inputs.len() {
        if k > 0 && inputs[k] != inputs[k - 1] {
            since = k;
        }
        if k - since >= hold {
            out.push((k, inputs[k]));
        }
    }
    out
}

/// Check failures collected over a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Number of checks made.
    pub made: usize,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn inputs_of(c: &Circuit, stim: &PiecewiseConstant, steps: usize) -> Vec<f64> {
    (0..steps).map(|k| stim.value(k as f64 * c.dt)).collect()
}

fn scalar_waveform(
    model: &Arc<CompiledModel>,
    c: &Circuit,
    stim: &dyn Stimulus,
    steps: usize,
) -> Vec<f64> {
    let mut inst = model.instance();
    let mut buf = vec![0.0; c.inputs()];
    (0..steps)
        .map(|k| {
            buf.fill(stim.value(k as f64 * c.dt));
            inst.try_step(&buf).expect("checked circuits converge");
            inst.output(0)
        })
        .collect()
}

/// The circuit levels: reference against the benchmark's own ladder
/// recurrence and DC solutions, plain loop and ELN against the
/// reference, DE and TDF against the plain loop.
pub fn check_levels(ctx: &Ctx, setup: &Setup, round: &Round, checks: &mut Checks) {
    let steps = ctx.wl.level_steps;
    for (i, c) in ctx.wl.levels.iter().enumerate() {
        let stim = ctx.stim(Use::Level, i, c, 0, steps).build();
        let inputs = inputs_of(c, &stim, steps);
        let mut reference = Vec::with_capacity(steps);
        let mut inst = setup.model(c).instance();
        let failed = drive_instance(&mut inst, c, &stim, steps, Some(&mut reference));
        checks.expect(failed.is_none(), || {
            format!("{}: reference failed at step {failed:?}", c.label)
        });
        if failed.is_some() {
            continue;
        }
        let mut plain = Vec::with_capacity(steps);
        let mut model = setup.abstracted[i].clone();
        drive_model(&mut model, c, &stim, steps, Some(&mut plain));
        let e = nrmse(&plain, &reference);
        checks.expect(e <= CROSS_NRMSE, || {
            format!("{}: abstracted vs reference NRMSE {e:.2e}", c.label)
        });

        let (net, sources, out) = c.eln();
        let mut solver = Transient::new(&net)
            .dt(c.dt)
            .method(Method::BackwardEuler)
            .build()
            .expect("hand-built networks assemble");
        let eln: Vec<f64> = inputs
            .iter()
            .map(|&u| {
                for &s in &sources {
                    solver.set_source(s, u);
                }
                solver.try_step().expect("linear networks step");
                solver.node_voltage(out)
            })
            .collect();
        let e = nrmse(&eln, &reference);
        checks.expect(e <= CROSS_NRMSE, || {
            format!("{}: ELN vs reference NRMSE {e:.2e}", c.label)
        });

        if let Kind::Ladder(n) = c.kind {
            let be = ladder_backward_euler(n, 5e3, 25e-9, c.dt, &inputs);
            let e = nrmse(&reference, &be);
            checks.expect(e <= 1e-9, || {
                format!(
                    "{}: reference vs backward-Euler recurrence NRMSE {e:.2e}",
                    c.label
                )
            });
        }
        // DC: wherever the input has held long enough for the slowest
        // mode to decay below 1e-8 of the step (at least 2 steps).
        let hold = ((c.tau_steps() * 8.0 * std::f64::consts::LN_10).ceil() as usize).max(2);
        let settled = settled_steps(&inputs, hold);
        if ctx.wl.settled || hold <= 60 {
            let worst = settled
                .iter()
                .map(|&(k, u)| (reference[k] - c.dc_out(u)).abs() / (1.0 + c.dc_out(u).abs()))
                .fold(0.0, f64::max);
            checks.expect(worst <= 1e-6, || {
                format!("{}: settled output off DC by {worst:.2e}", c.label)
            });
            if ctx.wl.settled {
                checks.expect(!settled.is_empty(), || {
                    format!("{}: no settled steps", c.label)
                });
            }
        }
        let cpp_final = *plain.last().expect("non-empty run");
        for (level, finals) in &round.level_final {
            if matches!(level, Level::De | Level::Tdf | Level::Cpp) {
                let x = finals[i];
                checks.expect(
                    (x - cpp_final).abs() <= 1e-12 * (1.0 + cpp_final.abs()),
                    || {
                        format!(
                            "{}: {level:?} final output {x} vs plain loop {cpp_final}",
                            c.label
                        )
                    },
                );
            }
        }
    }
}

/// Flat-sweep and tree leaves against scalar runs of the same inputs.
pub fn check_sweeps(ctx: &Ctx, setup: &Setup, round: &Round, checks: &mut Checks) {
    let c = &ctx.wl.sweeps[0];
    let model = setup.model(c);
    let steps = ctx.wl.sweep_steps[0];
    let scenarios = ctx.sweep_scenarios(0);
    for (i, sc) in scenarios
        .iter()
        .enumerate()
        .take(2 * crate::workload::LANE_WIDTH)
    {
        let scalar = scalar_waveform(model, c, sc.stim.as_ref(), steps);
        let ok = round.sweep_results[i]
            .ok()
            .is_some_and(|r| bit_identical(&r.waveform, &scalar));
        checks.expect(ok, || {
            format!(
                "{}: sweep scenario {i} differs from its scalar run",
                c.label
            )
        });
    }
    let (roots, children) = ctx.tree_stims(0);
    let prefix = ctx.wl.tree_prefix(0);
    for leaf in 0..TREE_BRANCHING + 1 {
        let root = roots[leaf / TREE_BRANCHING].build();
        let child = children[leaf].build();
        let path = move |t: f64| {
            if t < prefix as f64 * c.dt - 0.5 * c.dt {
                root.value(t)
            } else {
                child.value(t)
            }
        };
        let scalar = scalar_waveform(model, c, &FnStim(path), steps);
        let ok = round.tree_results[leaf]
            .ok()
            .is_some_and(|r| bit_identical(&r.waveform, &scalar));
        checks.expect(ok, || {
            format!("{}: tree leaf {leaf} differs from its scalar path", c.label)
        });
    }
}

struct FnStim<F: Fn(f64) -> f64>(F);

impl<F: Fn(f64) -> f64> Stimulus for FnStim<F> {
    fn value(&self, t: f64) -> f64 {
        (self.0)(t)
    }
}

/// The fleet at one worker against the round's fleet at the run's
/// worker count.
pub fn check_fleet(ctx: &Ctx, setup: &Setup, round: &Round, checks: &mut Checks) {
    let c = &ctx.wl.fleets[0];
    let Some(many) = &round.fleet else { return };
    let one = vp::run_fleet(setup.model(c), &ctx.fleet_config(c, 1), &ctx.devices(0))
        .expect("no per-device overrides");
    for (i, (a, b)) in one.devices.iter().zip(&many.devices).enumerate() {
        let same = match (a.result(), b.result()) {
            (Some(a), Some(b)) => {
                bit_identical(&a.waveform, &b.waveform)
                    && a.report.uart == b.report.uart
                    && a.report.instructions == b.report.instructions
            }
            _ => false,
        };
        checks.expect(same, || {
            format!(
                "{}: device {i} differs between 1 and {} workers",
                c.label, ctx.workers
            )
        });
    }
    checks.expect(one.devices.len() == many.devices.len(), || {
        "fleet sizes differ".into()
    });
}

fn local_sweep(
    ctx: &Ctx,
    model: &Arc<CompiledModel>,
    job: &Job,
) -> Vec<ScenarioOutcome<AmsRun, amsim::AmsError>> {
    let scenarios: Vec<AmsScenario> = ctx
        .job_scenarios(job.set, job.dt)
        .iter()
        .enumerate()
        .map(|(i, s)| AmsScenario {
            name: format!("s{i}"),
            stim: Box::new(s.stim.build()),
            steps: s.steps,
            newton_tol: None,
            step_control: None,
        })
        .collect();
    run_ams_sweep_batched(
        &SweepEngine::new().workers(ctx.workers),
        model,
        &scenarios,
        crate::workload::LANE_WIDTH,
        &ScenarioBudget::unlimited(),
    )
    .expect("no overrides")
    .results
}

/// Every served job's cache verdict as the client predicted it.
pub fn check_verdicts(round: &Round, checks: &mut Checks) {
    for (n, job) in round.jobs.iter().enumerate() {
        let verdict = job.reply.as_ref().ok().and_then(|r| r.cache_verdict());
        let want = if job.expect_hit { "hit" } else { "miss" };
        checks.expect(verdict == Some(want), || {
            format!("job {n}: cache verdict {verdict:?}, expected {want}")
        });
    }
}

/// The first hit and miss streams bit-identical to a local batched
/// sweep.
pub fn check_jobs(ctx: &Ctx, setup: &Setup, round: &Round, checks: &mut Checks) {
    for expect_hit in [true, false] {
        let Some(job) = round.jobs.iter().find(|j| j.expect_hit == expect_hit) else {
            continue;
        };
        let Ok(reply) = &job.reply else { continue };
        let model = if expect_hit {
            Arc::clone(setup.model(&ctx.wl.serve))
        } else {
            Simulation::new(setup.module(&ctx.wl.serve))
                .dt(job.dt)
                .output("V(out)")
                .compile()
                .expect("served circuit compiles")
        };
        let local = local_sweep(ctx, &model, job);
        for (i, l) in local.iter().enumerate() {
            let ok = match (reply.waveform(i), l.ok()) {
                (Some(w), Some(l)) => bit_identical(&w, &l.waveform),
                _ => false,
            };
            checks.expect(ok, || {
                format!(
                    "served {want} job: scenario {i} differs from the local sweep",
                    want = if expect_hit { "hit" } else { "miss" }
                )
            });
        }
    }
}

/// Batch lanes of the probe loop against scalar runs (1 lane and full
/// width), so the batch probes time correct work.
pub fn check_batch_lanes(
    model: &Arc<CompiledModel>,
    c: &Circuit,
    stims: &[PiecewiseConstant],
    steps: usize,
    checks: &mut Checks,
) {
    let lanes = stims.len();
    let mut batch: BatchInstance = model.batch_instance(lanes);
    let mut frame = InputFrame::new(c.inputs(), lanes);
    let mut waves = vec![Vec::with_capacity(steps); lanes];
    for k in 0..steps {
        for (l, s) in stims.iter().enumerate() {
            frame.broadcast(l, s.value(k as f64 * c.dt));
        }
        batch.try_step(frame.as_slice());
        for (l, w) in waves.iter_mut().enumerate() {
            w.push(batch.output(0, l));
        }
    }
    for (l, s) in stims.iter().enumerate() {
        let scalar = scalar_waveform(model, c, s, steps);
        checks.expect(bit_identical(&waves[l], &scalar), || {
            format!("{}: batch lane {l} differs from scalar", c.label)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_recurrence_matches_closed_form_for_one_section() {
        // One section: v' = (v + a·u)/(1 + a), a = dt/RC.
        let (r, c, dt) = (5e3, 25e-9, 2.5e-6);
        let a = dt / (r * c);
        let inputs = [1.0, 1.0, 0.0, 0.5, 0.5];
        let got = ladder_backward_euler(1, r, c, dt, &inputs);
        let mut v = 0.0;
        for (k, &u) in inputs.iter().enumerate() {
            v = (v + a * u) / (1.0 + a);
            assert!((got[k] - v).abs() < 1e-15, "step {k}");
        }
    }

    #[test]
    fn ladder_recurrence_settles_to_the_input() {
        let out = ladder_backward_euler(20, 5e3, 25e-9, 400e-6, &vec![0.7; 3000]);
        assert!((out.last().unwrap() - 0.7).abs() < 1e-9);
        // Diffusion: the far end lags the input early on.
        assert!(out[5] < 0.7 * 0.5);
    }

    #[test]
    fn reference_simulator_agrees_with_the_recurrence() {
        let c = crate::workload::Workload::by_name("paper_active")
            .unwrap()
            .levels[2]
            .clone();
        let module = vams_parser::parse_module(&c.source()).unwrap();
        let model = Simulation::new(&module)
            .dt(c.dt)
            .output("V(out)")
            .compile()
            .unwrap();
        let stim = c.stimulus(false, 11, 300).build();
        let inputs = inputs_of(&c, &stim, 300);
        let sim = scalar_waveform(&model, &c, &stim, 300);
        let Kind::Ladder(n) = c.kind else { panic!() };
        let be = ladder_backward_euler(n, 5e3, 25e-9, c.dt, &inputs);
        assert!(nrmse(&sim, &be) < 1e-9, "{}", nrmse(&sim, &be));
        // A one-sample perturbation is caught.
        let mut bad = sim.clone();
        bad[150] += 1e-3;
        assert!(nrmse(&bad, &be) > 1e-9);
    }

    #[test]
    fn settled_steps_need_the_full_hold() {
        let inputs = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        assert_eq!(settled_steps(&inputs, 2), vec![(3, 1.0), (4, 1.0)]);
    }

    #[test]
    fn bit_identity_distinguishes_signed_zero_and_length() {
        assert!(bit_identical(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(!bit_identical(&[1.0], &[1.0, 1.0]));
    }

    #[test]
    fn nrmse_normalizes_by_range() {
        assert!((nrmse(&[0.0, 2.0], &[0.0, 2.2]) - (0.02f64).sqrt() / 2.2).abs() < 1e-12);
    }
}
