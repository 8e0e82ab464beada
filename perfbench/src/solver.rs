//! `paper_scale` and `blowup_edge`: solver ops on the paper's cluster
//! model, checked by model invariants.

use std::cell::RefCell;
use std::collections::HashMap;

use performa_core::blowup::utilization_thresholds;
use performa_core::{ClusterModel, ClusterSolution, SupervisorOptions};
use performa_experiments::{params, tpt_cluster_with};
use performa_qbd::{Hardening, Qbd, SolveOptions, SolverSupervisor};

use crate::check;
use crate::trace::Tracer;
use crate::workload::{Label, Outputs, Workload};

/// Queue lengths `k` of the reported tails `Pr(Q ≥ k)`.
const TAIL_K: [usize; 3] = [10, 100, 500];

/// One solver input: the paper's cluster with `n` servers and TPT repair
/// of truncation `t` (θ = 0.2), at utilization `rho`.
#[derive(Debug, Clone, Copy)]
struct Point {
    n: usize,
    t: u32,
    rho: f64,
    class: usize,
}

impl Point {
    fn model(&self) -> ClusterModel {
        tpt_cluster_with(self.n, params::DELTA, self.t, self.rho)
    }
}

/// A solved op: the model, its solution and what was read from it.
pub struct Solved {
    model: ClusterModel,
    sol: Solution,
    out: Outputs,
}

/// The untraced op keeps the program's `ClusterSolution`; the traced op
/// assembles a bare `QbdSolution` from the split calls.
enum Solution {
    Cluster(ClusterSolution),
    Qbd(performa_qbd::QbdSolution),
}

impl Solution {
    fn qbd(&self) -> &performa_qbd::QbdSolution {
        match self {
            Solution::Cluster(s) => s.qbd(),
            Solution::Qbd(s) => s,
        }
    }
}

fn read(sol: &performa_qbd::QbdSolution) -> Vec<f64> {
    let mut v = vec![sol.mean_queue_length()];
    v.extend(TAIL_K.iter().map(|&k| sol.at_least_probability(k)));
    v
}

/// One cost class of a pass: ops of near-equal cost.
struct Class {
    label: &'static str,
    n: usize,
    t: u32,
    rhos: Vec<f64>,
    repeats: usize,
}

fn class(label: &'static str, n: usize, t: u32, rhos: Vec<f64>, repeats: usize) -> Class {
    Class {
        label,
        n,
        t,
        rhos,
        repeats,
    }
}

/// The ops of one pass, and one warm-up point per class: its first.
fn build(classes: &[Class]) -> (Vec<Point>, Vec<Point>) {
    let mut points = Vec::new();
    let mut warm = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        let at = |rho| Point {
            n: c.n,
            t: c.t,
            rho,
            class: i,
        };
        for _ in 0..c.repeats {
            points.extend(c.rhos.iter().map(|&rho| at(rho)));
        }
        warm.push(at(c.rhos[0]));
    }
    (points, warm)
}

/// Every op of the pass, labelled by its class and its point.
fn labels(classes: &[Class], points: &[Point]) -> Vec<Label> {
    points
        .iter()
        .map(|p| Label {
            class: classes[p.class].label,
            config: format!("N{}_T{}@{:.4}", p.n, p.t, p.rho),
        })
        .collect()
}

/// Utilizations of N=5, T=4 (m = 126) in the band the drift classifier
/// hardens from the start; the supervisor's equilibrated and refined
/// solves cost about the same at each.
const HARDENED: [f64; 4] = [0.9875, 0.99, 0.9925, 0.995];

/// Utilizations ±0.005 around each blow-up point ρ_i of the cluster.
fn around_thresholds(n: usize, t: u32) -> Vec<f64> {
    utilization_thresholds(&tpt_cluster_with(n, params::DELTA, t, 0.5))
        .into_iter()
        .flat_map(|r| [r - 0.005, r + 0.005])
        .collect()
}

/// Untimed warm-up: one op per class.
fn warm_up(warm: &[Point], supervised: bool) -> Result<(), String> {
    for p in warm {
        let model = p.model();
        if supervised {
            model
                .solve_supervised(SupervisorOptions::default())
                .map_err(|e| e.to_string())?;
        } else {
            model.solve().map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Cold plain solves beyond the paper's figures, m = 126–462.
pub struct PaperScale {
    classes: Vec<Class>,
    points: Vec<Point>,
    warm: Vec<Point>,
    /// G iterations per op, from `Qbd::solve_with_count` (deterministic,
    /// so computed once per op of the pass).
    iterations: RefCell<HashMap<usize, f64>>,
}

impl PaperScale {
    pub fn new() -> Self {
        let classes = vec![
            class("N5_T4/5it", 5, 4, vec![0.1], 40),
            class("N5_T4/13it", 5, 4, vec![0.45, 0.6, 0.75, 0.9], 15),
            class("N2_T16/33it", 2, 16, vec![0.35, 0.65, 0.95], 4),
            class("N5_T5/17it", 5, 5, vec![0.8], 1),
            class("N2_T20/37it", 2, 20, vec![0.5], 1),
            class("N5_T6/5it", 5, 6, vec![0.1], 1),
        ];
        let (points, warm) = build(&classes);
        PaperScale {
            classes,
            points,
            warm,
            iterations: RefCell::new(HashMap::new()),
        }
    }
}

impl Workload for PaperScale {
    type Done = Solved;

    fn pass(&self) -> Vec<Label> {
        labels(&self.classes, &self.points)
    }

    fn nominal_pass_s(&self) -> f64 {
        6.0
    }

    fn setup(&mut self) -> Result<(), String> {
        // The inputs afresh, then one untimed warm-up op per class.
        *self = Self::new();
        warm_up(&self.warm, false)
    }

    fn run(&self, op: usize, _seed: u64) -> Result<Solved, String> {
        let model = self.points[op].model();
        let sol = model.solve().map_err(|e| e.to_string())?;
        let values = read(sol.qbd());
        Ok(Solved {
            model,
            sol: Solution::Cluster(sol),
            out: Outputs {
                values,
                degraded: false,
            },
        })
    }

    fn run_traced(&self, op: usize, _seed: u64, t: &mut Tracer) -> Result<Solved, String> {
        let model = t.span("core.model", || self.points[op].model());
        let mmpp = t
            .span("markov.modulator", || model.service_process())
            .map_err(|e| e.to_string())?;
        let qbd = t
            .span("qbd.assemble", || {
                Qbd::m_mmpp1(model.arrival_rate(), mmpp.generator(), mmpp.rates())
            })
            .map_err(|e| e.to_string())?;
        let (up, down) = t
            .span("qbd.drift", || qbd.drift())
            .map_err(|e| e.to_string())?;
        if up >= down {
            return Err("unstable".into());
        }
        let g = t
            .span("qbd.g", || qbd.g_matrix(SolveOptions::default()))
            .map_err(|e| e.to_string())?;
        t.span("qbd.r", || qbd.r_from_g(&g))
            .map_err(|e| e.to_string())?;
        let sol = t
            .span("qbd.solve_from_g", || {
                qbd.solve_from_g(g, Hardening::default())
            })
            .map_err(|e| e.to_string())?;
        let values = t.span("qbd.metrics", || read(&sol));
        Ok(Solved {
            model,
            sol: Solution::Qbd(sol),
            out: Outputs {
                values,
                degraded: false,
            },
        })
    }

    fn count(&self, op: usize, done: &Solved, t: &mut Tracer) {
        let iterations = *self.iterations.borrow_mut().entry(op).or_insert_with(|| {
            done.model
                .to_qbd()
                .ok()
                .and_then(|q| q.solve_with_count(SolveOptions::default()).ok())
                .map_or(f64::NAN, |(_, it)| it as f64)
        });
        t.count("qbd.g_iters", iterations);
    }

    fn outputs(&self, done: &Solved) -> Outputs {
        done.out.clone()
    }

    fn check(&self, _op: usize, done: &Solved) -> Result<f64, String> {
        check::solution(&done.model, done.sol.qbd(), &done.out.values).map(|i| i.worst_ratio())
    }
}

/// Supervised solves at the blow-up points, the hardened band and the
/// relaxation ladder.
pub struct BlowupEdge {
    classes: Vec<Class>,
    points: Vec<Point>,
    warm: Vec<Point>,
}

impl BlowupEdge {
    pub fn new() -> Self {
        let split = |n: usize, t: u32| {
            let r = around_thresholds(n, t);
            (r[..2].to_vec(), r[2..].to_vec())
        };
        let (t9_low, t9_high) = split(2, 9);
        let (t10_low, t10_high) = split(2, 10);
        let (n5_low, n5_high) = split(5, 4);
        let classes = vec![
            class("N2_T5/thresholds", 2, 5, around_thresholds(2, 5), 2),
            class("N2_T9/rho2", 2, 9, t9_low, 4),
            class("N2_T10/rho2", 2, 10, t10_low, 4),
            class("N2_T9/rho1", 2, 9, t9_high, 4),
            class("N2_T10/rho1", 2, 10, t10_high, 4),
            class("N5_T4/rho5", 5, 4, n5_low, 2),
            class("N5_T4/rho4-1", 5, 4, n5_high, 6),
            class("N5_T4/hardened", 5, 4, HARDENED.to_vec(), 4),
            class("N2_T10/ladder", 2, 10, vec![0.97], 1),
        ];
        let (points, warm) = build(&classes);
        BlowupEdge {
            classes,
            points,
            warm,
        }
    }
}

impl Workload for BlowupEdge {
    type Done = Solved;

    fn pass(&self) -> Vec<Label> {
        labels(&self.classes, &self.points)
    }

    fn nominal_pass_s(&self) -> f64 {
        6.0
    }

    fn setup(&mut self) -> Result<(), String> {
        // The inputs afresh (the blow-up points), then one untimed
        // warm-up op per class.
        *self = Self::new();
        warm_up(&self.warm, true)
    }

    fn run(&self, op: usize, _seed: u64) -> Result<Solved, String> {
        let model = self.points[op].model();
        let (sol, report) = model
            .solve_supervised(SupervisorOptions::default())
            .map_err(|e| e.to_string())?;
        let values = read(sol.qbd());
        Ok(Solved {
            model,
            sol: Solution::Cluster(sol),
            out: Outputs {
                values,
                degraded: report.degraded,
            },
        })
    }

    fn run_traced(&self, op: usize, _seed: u64, t: &mut Tracer) -> Result<Solved, String> {
        let model = t.span("core.model", || self.points[op].model());
        let mmpp = t
            .span("markov.modulator", || model.service_process())
            .map_err(|e| e.to_string())?;
        let qbd = t
            .span("qbd.assemble", || {
                Qbd::m_mmpp1(model.arrival_rate(), mmpp.generator(), mmpp.rates())
            })
            .map_err(|e| e.to_string())?;
        let (sol, report) = t
            .span("qbd.supervisor", || {
                SolverSupervisor::with_options(qbd, SupervisorOptions::default()).solve()
            })
            .map_err(|e| e.to_string())?;
        let values = t.span("qbd.metrics", || read(&sol));
        t.count("qbd.supervisor.iters", report.total_iterations as f64);
        t.count("qbd.supervisor.stages", report.attempts.len() as f64);
        t.count(
            "qbd.supervisor.hardened",
            f64::from(u8::from(report.attempts.iter().any(|a| a.hardened))),
        );
        t.count(
            "qbd.supervisor.relaxed",
            f64::from(u8::from(report.tolerance_used > report.tolerance_requested)),
        );
        Ok(Solved {
            model,
            sol: Solution::Qbd(sol),
            out: Outputs {
                values,
                degraded: report.degraded,
            },
        })
    }

    fn outputs(&self, done: &Solved) -> Outputs {
        done.out.clone()
    }

    fn check(&self, _op: usize, done: &Solved) -> Result<f64, String> {
        check::solution(&done.model, done.sol.qbd(), &done.out.values).map(|i| i.worst_ratio())
    }
}
