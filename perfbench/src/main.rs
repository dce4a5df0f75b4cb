//! End-to-end and per-layer benchmark of the amsvp workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> --runs <k> --seconds <s> [--trace <0|1>] [--first-seed <n>]
//! ```
//!
//! The first form runs whole rounds of one workload until `--seconds`
//! have passed (at least three), checks the outputs, and prints one JSON
//! object as its last line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`), with operation counts. It exits
//! nonzero if a check fails. The second form runs the first `k` times
//! with successive seeds and prints each metric's median, quartiles and
//! spread against its bound in `BENCHMARK.json`.

mod checks;
mod client;
mod probes;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::{steal_ticks, Ctx, Level, Ops, Round};
use stats::{geomean, median};
use workload::Workload;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ref_ns_per_step", "ns"),
    ("eln_ns_per_step", "ns"),
    ("tdf_ns_per_step", "ns"),
    ("de_ns_per_step", "ns"),
    ("cpp_ns_per_step", "ns"),
    ("vp_ns_per_step", "ns"),
    ("sweep_lane_steps_per_s", "1/s"),
    ("tree_lane_steps_per_s", "1/s"),
    ("devices_per_s", "1/s"),
    ("hit_job_p50_s", "s"),
    ("miss_job_p50_s", "s"),
];

/// Per-layer metrics: name, unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("vams-parser.parse_us", "us"),
    ("core.abstract_ms", "ms"),
    ("core.enrich_ms", "ms"),
    ("core.model_step_ns", "ns"),
    ("amsim.compile_ms", "ms"),
    ("amsim.step_ns", "ns"),
    ("amsim.newton_per_step", "count"),
    ("amsim.lu_per_kstep", "count"),
    ("amsim.batch_lane_ns", "ns"),
    ("amsim.batch1_step_ns", "ns"),
    ("amsim.fork_us", "us"),
    ("expr.residual_ns", "ns"),
    ("expr.residual_share", "ratio"),
    ("linalg.analyze_ms", "ms"),
    ("linalg.refactor_us", "us"),
    ("linalg.solve_us", "us"),
    ("linalg.dense_factor_us", "us"),
    ("de.events_per_step", "count"),
    ("de.ns_per_event", "ns"),
    ("tdf.ns_per_firing", "ns"),
    ("eln.solve_ns", "ns"),
    ("vp.cpu_ns_per_instr", "ns"),
    ("vp.instructions_per_device", "count"),
    ("vp.analog_share", "ratio"),
    ("sweep.engine_overhead", "ratio"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.prefix_steps_saved", "count"),
    ("sweep.stimulus_ns_per_sample", "ns"),
    ("serve.hit_accept_solo_ms", "ms"),
    ("serve.hit_accept_contended_ms", "ms"),
    ("serve.miss_accept_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.bytes_per_job", "B"),
    ("obs.recording_overhead", "ratio"),
    ("trace.overhead", "ratio"),
    ("bench.rounds", "count"),
];

/// Metric values by name.
type Metrics = Vec<(&'static str, f64)>;

/// Metric names and units.
type Table = [(&'static str, &'static str)];

/// Fewest rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    first_seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 5,
        first_seed: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)? as f64,
            "--trace" => a.trace = num(value()?)? != 0,
            "--runs" => a.runs = num(value()?)? as usize,
            "--first-seed" => a.first_seed = num(value()?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if Workload::by_name(&a.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            Workload::NAMES.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let steady = argv.first().map(String::as_str) == Some("steady");
    let args = match parse_args(if steady { &argv[1..] } else { &argv }) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if steady {
        return steadiness(&args);
    }
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per circuit, the median over every sample of every round (for the
/// levels and the platform, a sample is the median of one pass); then the
/// geometric mean over circuits.
fn per_circuit<'a>(rounds: &[&'a Round], samples: impl Fn(&'a Round) -> Vec<&'a [f64]>) -> f64 {
    let n = rounds.first().map_or(0, |r| samples(r).len());
    let medians: Vec<f64> = (0..n)
        .map(|i| {
            let all: Vec<f64> = rounds
                .iter()
                .flat_map(|r| samples(r)[i].iter().copied())
                .collect();
            median(&all).unwrap_or(0.0)
        })
        .collect();
    geomean(&medians).unwrap_or(0.0)
}

fn level_ns(rounds: &[&Round], level: Level) -> f64 {
    per_circuit(rounds, |r| {
        r.level_ns
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, ns)| ns.iter().map(Vec::as_slice).collect())
            .unwrap_or_default()
    })
}

fn med_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn job_median(
    rounds: &[&Round],
    pick: impl Fn(&run::Job) -> bool,
    value: impl Fn(&client::JobReply) -> f64,
) -> f64 {
    let v: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.jobs.iter())
        .filter(|j| pick(j))
        .filter_map(|j| j.reply.as_ref().ok())
        .map(value)
        .collect();
    median(&v).unwrap_or(0.0)
}

/// The median of the values of the half of the samples `(value, steal
/// ticks per second)` of every round during which the hypervisor stole
/// the least CPU time. A fleet is a tenth of a second on every core; a
/// slice stolen from either core during it shows in its rate, and such
/// slices come and go within a round.
fn least_stolen_median(rounds: &[&Round], samples: impl Fn(&Round) -> &[(f64, f64)]) -> f64 {
    let mut all: Vec<(f64, f64)> = rounds
        .iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(all.len().div_ceil(2));
    median(&all.iter().map(|s| s.0).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// End-to-end metrics: the thread-CPU-time figures over every warm round,
/// the wall-clock figures over the quiet ones.
fn end_to_end(warm: &[&Round], quiet: &[&Round]) -> Metrics {
    let level = |l| level_ns(warm, l);
    let hit = job_median(quiet, |j| j.expect_hit, |r| r.done_s);
    let miss = job_median(quiet, |j| !j.expect_hit, |r| r.done_s);
    vec![
        ("setup_s", med_of(warm, |r| r.setup_s)),
        ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0)),
        ("ref_ns_per_step", level(Level::Ref)),
        ("eln_ns_per_step", level(Level::Eln)),
        ("tdf_ns_per_step", level(Level::Tdf)),
        ("de_ns_per_step", level(Level::De)),
        ("cpp_ns_per_step", level(Level::Cpp)),
        (
            "vp_ns_per_step",
            per_circuit(warm, |r| r.vp_ns.iter().map(Vec::as_slice).collect()),
        ),
        (
            "sweep_lane_steps_per_s",
            per_circuit(quiet, |r| {
                r.sweep_rate.iter().map(std::slice::from_ref).collect()
            }),
        ),
        (
            "tree_lane_steps_per_s",
            per_circuit(quiet, |r| {
                r.tree_rate.iter().map(std::slice::from_ref).collect()
            }),
        ),
        (
            "devices_per_s",
            least_stolen_median(warm, |r| &r.devices_per_s),
        ),
        ("hit_job_p50_s", hit),
        ("miss_job_p50_s", miss),
    ]
}

fn per_layer(
    ctx: &Ctx,
    traced: &[&Round],
    untraced: &[&Round],
    rounds: usize,
    spans: &[trace::Span],
    probes: &[(&'static str, f64)],
) -> Metrics {
    // Mean duration in seconds of the spans named `name`, per op, median
    // over rounds.
    let span_per_op = |name: &str| {
        let mut by_run: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let e = by_run.entry(s.run).or_insert((0.0, 0));
            e.0 += s.secs();
            e.1 += s.ops;
        }
        median(
            &by_run
                .values()
                .map(|(t, n)| t / (*n).max(1) as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let ms = |s: f64| s * 1e3;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let accept = |pick: &dyn Fn(&run::Job) -> bool| job_median(traced, pick, |r| r.accept_s) * 1e3;
    let mut m = vec![
        (
            "vams-parser.parse_us",
            span_per_op("vams-parser.parse_module") * 1e6,
        ),
        (
            "core.abstract_ms",
            ms(span_per_op("core.Abstraction::build")),
        ),
        ("core.model_step_ns", level_ns(traced, Level::Cpp)),
        (
            "amsim.compile_ms",
            ms(span_per_op("amsim.Simulation::compile")),
        ),
        ("amsim.step_ns", level_ns(traced, Level::Ref)),
        (
            "amsim.newton_per_step",
            med_of(traced, |r| ratio(r.ref_counts.0, r.ref_counts.2)),
        ),
        (
            "amsim.lu_per_kstep",
            med_of(traced, |r| 1e3 * ratio(r.ref_counts.1, r.ref_counts.2)),
        ),
        (
            "de.events_per_step",
            med_of(traced, |r| ratio(r.de_counts.0, r.de_counts.1)),
        ),
        (
            "de.ns_per_event",
            med_of(traced, |r| {
                r.de_counts.2 * 1e9 / r.de_counts.0.max(1) as f64
            }),
        ),
        (
            "tdf.ns_per_firing",
            med_of(traced, |r| {
                r.tdf_counts.2 * 1e9 / r.tdf_counts.0.max(1) as f64
            }),
        ),
        (
            "vp.instructions_per_device",
            med_of(traced, |r| {
                ratio(
                    r.report.counter("vp.device.instructions"),
                    r.report.counter("fleet.devices"),
                )
            }),
        ),
        (
            "sweep.prefix_steps_saved",
            med_of(traced, |r| r.prefix_saved as f64),
        ),
        ("serve.hit_accept_contended_ms", accept(&|j| j.contended)),
        ("serve.miss_accept_ms", accept(&|j| !j.expect_hit)),
        (
            "serve.stream_ms",
            job_median(traced, |j| j.expect_hit, |r| r.done_s - r.accept_s) * 1e3,
        ),
        (
            "serve.bytes_per_job",
            job_median(traced, |_| true, |r| r.bytes as f64),
        ),
        (
            "trace.overhead",
            med_of(&quiet(traced, ctx.workers), |r| r.wall) / med_of(untraced, |r| r.wall),
        ),
        ("bench.rounds", rounds as f64),
    ];
    m.extend_from_slice(probes);
    m
}

fn json_metrics(metrics: &[(&'static str, f64)], table: &Table) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

fn print_ops(ops: &Ops) {
    for (kind, (a, f)) in [
        ("steps", ops.steps),
        ("scenarios", ops.scenarios),
        ("devices", ops.devices),
        ("jobs", ops.jobs),
    ] {
        println!("ops {kind:<10} attempted {a:>12} failed {f}");
    }
}

fn print_layers(spans: &[trace::Span], traced: &[&Round]) {
    let layers = trace::layer_self_times(spans);
    let total: f64 = traced.iter().map(|r| r.wall).sum();
    let accounted: f64 = layers.values().sum();
    println!(
        "layer self time over {} traced rounds ({total:.3} s):",
        traced.len()
    );
    for (layer, t) in &layers {
        println!("  {layer:<12} {t:>9.4} s  {:>5.1} %", 100.0 * t / total);
    }
    println!(
        "  {:<12} {accounted:>9.4} s  {:>5.1} %",
        "(sum)",
        100.0 * accounted / total
    );
}

fn print_counters(traced: &[&Round]) {
    let mut merged = obs::Report::default();
    for r in traced {
        merged.merge(&r.report);
    }
    let prefixes = [
        "amsim.",
        "linalg.sparse.",
        "de.",
        "tdf.",
        "eln.",
        "fleet.",
        "serve.cache.",
        "vp.device.",
    ];
    for (name, v) in &merged.counters {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            println!("counter {name} {v}");
        }
    }
}

fn write_spans(ctx: &Ctx, spans: &[trace::Span]) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", ctx.wl.name, ctx.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(spans)))
    {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }
}

/// Rounds after the first (cold caches, first-touch page faults), when
/// four or more ran.
fn warm(rounds: Vec<&Round>) -> Vec<&Round> {
    if rounds.len() >= 4 {
        rounds[1..].to_vec()
    } else {
        rounds
    }
}

/// The half of `rounds` during which the hypervisor stole the least CPU
/// time from this guest (at least three). Steal is host contention outside
/// the program and moves wall-clock figures only; a run that saw it
/// throughout keeps it, since at least half the rounds stay.
fn quiet<'a>(rounds: &[&'a Round], cpus: usize) -> Vec<&'a Round> {
    let share = |r: &Round| r.steal as f64 / (r.wall * 100.0 * cpus as f64);
    let mut q = rounds.to_vec();
    q.sort_by(|a, b| share(a).total_cmp(&share(b)));
    q.truncate(q.len().div_ceil(2).max(q.len().min(3)));
    q
}

fn bench(args: &Args) -> Result<bool, String> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx = Ctx {
        wl: Workload::by_name(&args.workload).expect("validated by parse_args"),
        seed: args.seed,
        workers,
    };
    println!(
        "workload {} seed {} workers {workers} seconds {}",
        ctx.wl.name, ctx.seed, args.seconds
    );
    let start = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    let mut first_setup: Option<run::Setup> = None;
    let mut ops = Ops::default();
    // A traced run alternates traced and untraced rounds; the ratio of
    // their walls is the tracing overhead.
    while rounds.len() < MIN_ROUNDS.max(if args.trace { 5 } else { 0 })
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && rounds.len() % 2 == 1;
        trace::set_enabled(traced);
        trace::set_run(rounds.len() as u64);
        let steal0 = steal_ticks();
        let (mut round, mut setup) = run::round(&ctx)?;
        trace::set_enabled(false);
        round.steal = steal_ticks()
            .zip(steal0)
            .map_or(0, |(b, a)| b.saturating_sub(a));
        if let Some(server) = setup.server.take() {
            let report = server.shutdown();
            if traced {
                round.report.merge(&report);
            }
        }
        ops.add(&round.ops);
        // The first round's outputs are checked in full at the end;
        // later rounds keep only what the metrics and verdicts need, so
        // memory does not grow with the number of rounds.
        if first_setup.is_none() {
            first_setup = Some(setup);
        } else {
            round.slim();
        }
        rounds.push((round, traced));
    }
    let setup = first_setup.expect("at least one round ran");
    let first = &rounds[0].0;

    let mut checks = checks::Checks::default();
    checks::check_levels(&ctx, &setup, first, &mut checks);
    checks::check_sweeps(&ctx, &setup, first, &mut checks);
    checks::check_fleet(&ctx, &setup, first, &mut checks);
    checks::check_jobs(&ctx, &setup, first, &mut checks);
    for (r, _) in &rounds {
        checks::check_verdicts(r, &mut checks);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.1).map(|r| &r.0).collect();
    let untraced = warm(rounds.iter().filter(|r| !r.1).map(|r| &r.0).collect());
    let quiet_untraced = quiet(&untraced, workers);
    let walls: Vec<f64> = rounds.iter().map(|r| r.0.wall).collect();
    println!(
        "rounds {} in {:.2} s, round wall median {:.4} s, steal per round {:?} ticks, {} untraced rounds used",
        rounds.len(),
        start.elapsed().as_secs_f64(),
        median(&walls).unwrap_or(0.0),
        rounds.iter().map(|r| r.0.steal).collect::<Vec<_>>(),
        quiet_untraced.len()
    );
    let (metrics, table): (Metrics, &Table) = if args.trace {
        let spans = trace::take();
        trace::set_enabled(true);
        trace::set_run(u64::MAX);
        let probe = probes::run(&ctx, &setup, &mut checks);
        trace::set_enabled(false);
        let probe_spans = trace::take();
        print_layers(&spans, &traced);
        print_counters(&traced);
        let mut all = spans.clone();
        let offset = all.len();
        all.extend(probe_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        write_spans(&ctx, &all);
        (
            per_layer(&ctx, &traced, &quiet_untraced, rounds.len(), &spans, &probe),
            &PER_LAYER,
        )
    } else {
        for (kind, hit) in [("hit", true), ("miss", false)] {
            let v: Vec<f64> = quiet_untraced
                .iter()
                .flat_map(|r| r.jobs.iter())
                .filter(|j| j.expect_hit == hit)
                .filter_map(|j| j.reply.as_ref().ok().map(|r| r.done_s))
                .collect();
            let p90 = stats::percentile(&v, 90.0)
                .map_or("n/a (fewer than ten samples beyond)".to_string(), |x| {
                    format!("{x:.4} s")
                });
            println!(
                "{kind} jobs: n={} p50={:.4} s p90={p90}",
                v.len(),
                median(&v).unwrap_or(0.0)
            );
        }
        (end_to_end(&untraced, &quiet_untraced), &END_TO_END)
    };

    print_ops(&ops);
    println!(
        "checks: {} made, {} failed",
        checks.made,
        checks.failures.len()
    );
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let metrics_json = json_metrics(&metrics, table)?;
    let (attempted, failed) = ops.totals();
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    );
    Ok(correct)
}

/// Reads `end_to_end` bounds from `BENCHMARK.json` in the working
/// directory, if present.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(v) = serve::json::parse(&text) else {
        return BTreeMap::new();
    };
    v.get("end_to_end")
        .and_then(serve::json::Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn steadiness(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for k in 0..args.runs as u64 {
        let seed = args.first_seed + k;
        let steal0 = steal_ticks();
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: seed {seed} exited with {}", o.status);
                eprintln!("{}", String::from_utf8_lossy(&o.stdout));
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(v) = stdout
            .lines()
            .last()
            .and_then(|l| serve::json::parse(l).ok())
        else {
            eprintln!("perfbench: seed {seed} printed no result");
            return ExitCode::FAILURE;
        };
        let attempted = v
            .get("attempted")
            .and_then(serve::json::Json::as_u64)
            .unwrap_or(0);
        let failed = v
            .get("failed")
            .and_then(serve::json::Json::as_u64)
            .unwrap_or(0);
        shares.push(failed as f64 / attempted.max(1) as f64);
        // CPU time the hypervisor gave to other guests during the run:
        // host contention the benchmark cannot control.
        let stolen = steal_ticks()
            .zip(steal0)
            .map_or(-1, |(b, a)| b as i64 - a as i64);
        let mut line = format!("seed {seed} (steal {stolen} ticks):");
        if let Some(serve::json::Json::Obj(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(serve::json::Json::as_f64) {
                    values.entry(name.clone()).or_default().push(x);
                    let _ = write!(line, " {name}={x:.4}");
                }
            }
        }
        eprintln!("{line}");
    }
    let bounds = bounds();
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>8} {:>7} {:>9} {:>3}",
        "metric", "q1", "median", "q3", "spread", "bound", "spr/bnd", "n"
    );
    let mut ok = true;
    for (name, v) in &values {
        let Some(s) = stats::summarize(v) else {
            continue;
        };
        let spread = s.spread().unwrap_or(f64::INFINITY);
        let (bound, rel) = match bounds.get(name) {
            Some(&b) => (format!("{b:.3}"), format!("{:.2}", spread / b)),
            None => ("-".into(), "-".into()),
        };
        if bounds
            .get(name)
            .is_some_and(|&b| name != "setup_s" && spread > b)
        {
            ok = false;
        }
        println!(
            "{name:<34} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {bound:>7} {rel:>9} {:>3}",
            s.q1, s.median, s.q3, spread, s.n
        );
    }
    let same_share = shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "runs {}; failed share {} across runs",
        args.runs,
        if same_share { "identical" } else { "DIFFERS" }
    );
    if ok && same_share {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let v = serve::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(serve::json::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(serve::json::Json::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(serve::json::Json::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let argv: Vec<String> = [
            "--workload",
            "paper_active",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5.0, true));
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }
}
