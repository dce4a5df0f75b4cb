//! The three workloads: circuits, sizes, stimuli and per-round counts.
//!
//! Every analog time step is chosen from the circuit's own slowest time
//! constant (about fifty steps per τ), so "active" and "settled" mean the
//! same thing on every circuit: an active input changes level every 40
//! steps, before the circuit settles; a settled input holds each level
//! for at least twenty slowest time constants. The seed draws the levels
//! only: holds are fixed, so every seed asks the same work of the
//! solvers (an input change costs Newton iterations).

use amsvp_core::circuits::{self, PiecewiseConstant, XorShift64};
use eln::{ElnNetwork, NodeId, SourceId};

/// Element values shared by the Verilog-AMS sources in
/// `amsvp_core::circuits` and the ELN models in `vp`, restated here so the
/// benchmark's DC and time-constant checks are computed apart from the
/// program.
mod elements {
    pub const LADDER_R: f64 = 5e3;
    pub const LADDER_C: f64 = 25e-9;
    pub const TWO_IN: (f64, f64, f64, f64) = (3e3, 14e3, 10e3, 1e5); // R1 R2 R3 A0
    pub const OPAMP: (f64, f64, f64, f64, f64, f64) = (400.0, 1.6e3, 40e-9, 1e6, 20.0, 1e5);
    // R1 R2 C1 Rin Rout A0
}

/// Analog time steps per slowest time constant.
const STEPS_PER_TAU: f64 = 50.0;
/// A settled input holds each level this many slowest time constants.
const SETTLE_TAUS: f64 = 20.0;
/// Hold of an active input: under one slowest time constant.
const ACTIVE_HOLD: usize = 40;
/// Hold of a settled input on circuits with no (or negligible) dynamics.
const SETTLED_HOLD_MIN: usize = 1000;
/// CPU clock cycles per analog step, as in the paper's platform (20 ns
/// clock, 50 ns analog step); the CPU period scales with each circuit's
/// step so the CPU/analog work ratio is the same on every circuit.
pub const CPU_CYCLES_PER_STEP: f64 = 2.5;
/// Devices / scenarios per batch block.
pub const LANE_WIDTH: usize = 4;
/// Children per forking node of the tree sweep.
pub const TREE_BRANCHING: usize = 4;

/// Circuit topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The two-input summing amplifier (2IN).
    TwoIn,
    /// An RC ladder of `n` sections (RC1, RC20, ...).
    Ladder(usize),
    /// The inverting op-amp stage (OA).
    OpAmp,
}

/// One circuit at one time step.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Label, e.g. `RC20`.
    pub label: String,
    /// Topology.
    pub kind: Kind,
    /// Analog time step in seconds.
    pub dt: f64,
}

impl Circuit {
    fn new(kind: Kind) -> Circuit {
        let label = match kind {
            Kind::TwoIn => "2IN".to_string(),
            Kind::Ladder(n) => format!("RC{n}"),
            Kind::OpAmp => "OA".to_string(),
        };
        // Circuits without a time constant above the paper's step keep
        // the paper's 50 ns.
        let dt = match kind {
            Kind::Ladder(n) => ladder_tau(n) / STEPS_PER_TAU,
            _ => 50e-9,
        };
        Circuit { label, kind, dt }
    }

    /// Verilog-AMS source.
    pub fn source(&self) -> String {
        match self.kind {
            Kind::TwoIn => circuits::two_inputs(),
            Kind::Ladder(n) => circuits::rc_ladder(n),
            Kind::OpAmp => circuits::opamp(),
        }
    }

    /// Number of analog inputs (all driven with the same sample).
    pub fn inputs(&self) -> usize {
        match self.kind {
            Kind::TwoIn => 2,
            _ => 1,
        }
    }

    /// Hand-built ELN model: network, sources, output node.
    pub fn eln(&self) -> (ElnNetwork, Vec<SourceId>, NodeId) {
        match self.kind {
            Kind::TwoIn => vp::two_inputs_eln(),
            Kind::Ladder(n) => {
                let (net, s, o) = vp::rc_ladder_eln(n);
                (net, vec![s], o)
            }
            Kind::OpAmp => {
                let (net, s, o) = vp::opamp_eln();
                (net, vec![s], o)
            }
        }
    }

    /// Slowest time constant in steps (0 for an algebraic circuit).
    pub fn tau_steps(&self) -> f64 {
        match self.kind {
            Kind::TwoIn => 0.0,
            Kind::Ladder(n) => ladder_tau(n) / self.dt,
            Kind::OpAmp => opamp_tau() / self.dt,
        }
    }

    /// `V(out)` at DC with every input at `u`, from the element values.
    pub fn dc_out(&self, u: f64) -> f64 {
        match self.kind {
            // No load: every node of the ladder settles to the input.
            Kind::Ladder(_) => u,
            Kind::TwoIn => {
                let (r1, r2, r3, a0) = elements::TWO_IN;
                // KCL at inm with out = -A0·V(inm).
                let inm = (u / r1 + u / r2) / (1.0 / r1 + 1.0 / r2 + 1.0 / r3 + a0 / r3);
                -a0 * inm
            }
            Kind::OpAmp => {
                // C1 open: KCL at out with x = -A0·V(inm).
                let (a, _, k) = opamp_coefficients();
                let (_, r2, _, _, rout, a0) = elements::OPAMP;
                u * a * (1.0 / r2 - a0 / rout) / k
            }
        }
    }

    /// Level hold in steps.
    pub fn hold_steps(&self, settled: bool) -> usize {
        if settled {
            ((SETTLE_TAUS * self.tau_steps()).ceil() as usize).max(SETTLED_HOLD_MIN)
        } else {
            ACTIVE_HOLD
        }
    }

    /// A seeded piecewise-constant stimulus covering `steps` steps.
    pub fn stimulus(&self, settled: bool, seed: u64, steps: usize) -> Pwc {
        let mut rng = XorShift64::new(seed);
        let hold = self.hold_steps(settled);
        Pwc {
            // JSON numbers are doubles: keep the seed exact in a job body.
            seed: (rng.next_u64() >> 12) | 1,
            segments: steps.div_ceil(hold).max(1),
            hold: hold as f64 * self.dt,
        }
    }

    /// This circuit at another time step (a distinct compiled model).
    pub fn at_dt(&self, dt: f64) -> Circuit {
        Circuit { dt, ..self.clone() }
    }
}

/// Parameters of a seeded piecewise-constant stimulus between 0 and 1 V,
/// in the form the job server accepts (`"kind": "pwc"`).
#[derive(Debug, Clone, Copy)]
pub struct Pwc {
    /// PRNG seed of the levels.
    pub seed: u64,
    /// Number of levels before the waveform repeats.
    pub segments: usize,
    /// Seconds each level holds.
    pub hold: f64,
}

impl Pwc {
    /// The stimulus itself.
    pub fn build(&self) -> PiecewiseConstant {
        PiecewiseConstant::seeded(self.seed, self.segments, self.hold, 0.0, 1.0)
    }
}

fn ladder_tau(n: usize) -> f64 {
    // Slowest mode of an open-ended ladder of n equal RC sections.
    let s = (std::f64::consts::PI / (2.0 * (2 * n + 1) as f64)).sin();
    elements::LADDER_R * elements::LADDER_C / (4.0 * s * s)
}

/// `V(inm) = a·V(in) + b·V(out)` and the output node's total conductance
/// `k` (so `C1·dV(out)/dt = -k·V(out) + …`).
fn opamp_coefficients() -> (f64, f64, f64) {
    let (r1, r2, _, rin, rout, a0) = elements::OPAMP;
    let g = 1.0 / r1 + 1.0 / r2 + 1.0 / rin;
    let a = (1.0 / r1) / g;
    let b = (1.0 / r2) / g;
    let k = (a0 * b + 1.0) / rout + (1.0 - b) / r2;
    (a, b, k)
}

fn opamp_tau() -> f64 {
    let (_, _, k) = opamp_coefficients();
    elements::OPAMP.2 / k
}

/// One workload: which circuits run in which phase, and how much work a
/// round does. Counts are per round and fixed, so every round attempts
/// the same operations.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Inputs hold levels until circuits settle; tree prefixes are long.
    pub settled: bool,
    /// Circuits of the Table I levels and the Table III platform.
    pub levels: Vec<Circuit>,
    /// Steps per circuit per level per round.
    pub level_steps: usize,
    /// Circuits of the flat and tree sweeps (and the layer probes of the
    /// batch engine).
    pub sweeps: Vec<Circuit>,
    /// Scenarios (flat) or leaves (tree) per sweep circuit.
    pub sweep_scenarios: usize,
    /// Steps per scenario / root-to-leaf path, per sweep circuit: fewer on
    /// a circuit whose step costs more, so no circuit's sweep is too short
    /// to time steadily.
    pub sweep_steps: Vec<usize>,
    /// Share of each root-to-leaf path that tree leaves share with their
    /// siblings.
    pub tree_share: f64,
    /// Circuits of the fleet devices.
    pub fleets: Vec<Circuit>,
    /// Devices per fleet circuit.
    pub fleet_devices: usize,
    /// Analog steps per device.
    pub fleet_steps: usize,
    /// Circuit of the served jobs (hits at its step, misses at new steps).
    pub serve: Circuit,
    /// Miss/hit job pairs per round.
    pub serve_cycles: usize,
    /// Scenarios per served job.
    pub job_scenarios: usize,
    /// Steps per served scenario.
    pub job_steps: usize,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let paper = || {
            vec![
                Circuit::new(Kind::TwoIn),
                Circuit::new(Kind::Ladder(1)),
                Circuit::new(Kind::Ladder(20)),
                Circuit::new(Kind::OpAmp),
            ]
        };
        let paper_workload = |name, settled| Workload {
            name,
            settled,
            levels: paper(),
            level_steps: 4000,
            sweeps: paper(),
            sweep_scenarios: 32,
            // 2IN, RC1, RC20, OA: RC20's dense 100-unknown solve costs
            // about eight times a small circuit's step.
            sweep_steps: vec![4000, 4000, 500, 4000],
            tree_share: if settled { 0.75 } else { 0.05 },
            fleets: vec![Circuit::new(Kind::Ladder(1)), Circuit::new(Kind::OpAmp)],
            // 128 devices make a fleet of about 0.1 s: at 32 (35 ms) a run
            // of either core stolen by the host moved a fleet's rate by up
            // to half.
            fleet_devices: 128,
            fleet_steps: 1000,
            serve: Circuit::new(Kind::Ladder(20)),
            serve_cycles: 4,
            job_scenarios: 8,
            job_steps: 400,
        };
        match name {
            "paper_active" => Some(paper_workload("paper_active", false)),
            "paper_settled" => Some(paper_workload("paper_settled", true)),
            "ladder_sparse" => {
                let mid = Circuit::new(Kind::Ladder(32));
                let large = Circuit::new(Kind::Ladder(200));
                Some(Workload {
                    name: "ladder_sparse",
                    settled: false,
                    levels: vec![mid.clone()],
                    level_steps: 4000,
                    sweeps: vec![large.clone()],
                    sweep_scenarios: 32,
                    sweep_steps: vec![100],
                    tree_share: 0.05,
                    fleets: vec![mid],
                    fleet_devices: 32,
                    fleet_steps: 500,
                    serve: large,
                    serve_cycles: 2,
                    job_scenarios: 4,
                    job_steps: 100,
                })
            }
            _ => None,
        }
    }

    /// Names of every workload.
    pub const NAMES: [&'static str; 3] = ["paper_active", "paper_settled", "ladder_sparse"];

    /// Every distinct circuit the workload compiles at set-up.
    pub fn compiled_circuits(&self) -> Vec<Circuit> {
        let mut out: Vec<Circuit> = Vec::new();
        for c in self
            .levels
            .iter()
            .chain(&self.sweeps)
            .chain(&self.fleets)
            .chain(std::iter::once(&self.serve))
        {
            if !out.iter().any(|o| o.label == c.label && o.dt == c.dt) {
                out.push(c.clone());
            }
        }
        out
    }

    /// Steps of tree sweep `ci` that every leaf shares with its siblings.
    pub fn tree_prefix(&self, ci: usize) -> usize {
        (self.sweep_steps[ci] as f64 * self.tree_share).round() as usize
    }

    /// Time step of the `i`-th miss job: a step the server has not seen.
    pub fn miss_dt(&self, i: usize) -> f64 {
        self.serve.dt * (1.0 + (i + 1) as f64 * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc1_time_constant_is_rc() {
        let c = Circuit::new(Kind::Ladder(1));
        assert!((ladder_tau(1) - 125e-6).abs() < 1e-12);
        assert!((c.tau_steps() - STEPS_PER_TAU).abs() < 1e-9);
    }

    #[test]
    fn dc_transfer_of_amplifiers_matches_their_ideal_gain() {
        // Finite A0 = 1e5 leaves the closed-loop gains within 0.01 % of
        // the ideal -(R3/R1 + R3/R2) and -R2/R1.
        let two_in = Circuit::new(Kind::TwoIn).dc_out(1.0);
        let ideal = -(10.0 / 3.0 + 10.0 / 14.0);
        assert!(((two_in - ideal) / ideal).abs() < 1e-4, "{two_in}");
        let oa = Circuit::new(Kind::OpAmp).dc_out(1.0);
        assert!(((oa + 4.0) / 4.0).abs() < 1e-4, "{oa}");
    }

    #[test]
    fn settled_holds_cover_twenty_time_constants() {
        for c in Workload::by_name("paper_settled").unwrap().levels {
            let hold = c.hold_steps(true) as f64;
            assert!(hold >= SETTLE_TAUS * c.tau_steps(), "{}", c.label);
        }
        for c in Workload::by_name("paper_active").unwrap().levels {
            assert!(
                (c.hold_steps(false) as f64) < c.tau_steps().max(ACTIVE_HOLD as f64 + 1.0),
                "{}",
                c.label
            );
        }
    }

    #[test]
    fn ladder_sparse_is_past_the_sparse_threshold() {
        let w = Workload::by_name("ladder_sparse").unwrap();
        for c in w.levels.iter().chain(&w.sweeps) {
            let Kind::Ladder(n) = c.kind else { panic!() };
            // 5 unknowns per section in the conservative formulation.
            assert!(5 * n > linalg::SPARSE_DIM_THRESHOLD, "{}", c.label);
        }
    }
}
