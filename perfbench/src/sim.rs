//! `sim_validation`: one simulation replication per op.
//!
//! The Fig. 7 model runs on `ExactModelSim` and is checked against the
//! analytic mean; the Fig. 8 crash model runs on `ClusterSim` under the
//! Discard, Resume and Restart strategies. Every op stops on
//! `StopCriterion::Time` at the horizon where the expected number of
//! arrivals after warm-up is fixed per configuration, so an op's task
//! count does not depend on the sampled repair lengths. The task counts
//! are set so every configuration costs about the same per op on the
//! 2-vCPU Xeon VM they were sized on (90–155 ms as the host drifts); the
//! nine form one cost class, which the placement report checks.

use performa_core::ClusterModel;
use performa_dist::{Dist, Exponential, TruncatedPowerTail};
use performa_experiments::params;
use performa_sim::{
    ClusterSim, ClusterSimConfig, ExactModelConfig, ExactModelSim, FailureStrategy, SimResult,
    StopCriterion,
};

use crate::trace::Tracer;
use crate::workload::{Label, Outputs, Workload};

/// Ops of each configuration in one pass.
const OPS_PER_CONFIG: usize = 24;
/// Warm-up of every replication, in model time.
const WARMUP: f64 = 2_000.0;
/// Half-width of the accepted interval around the analytic mean, in
/// standard errors of the run's replication means. Over 30 runs of the
/// program this benchmark was written against, the signed error had a
/// standard deviation of up to 1.5 standard errors (the replication means
/// are heavy-tailed) and reached 2.8; six keeps a chance failure out of a
/// long series of runs.
const CI_Z: f64 = 6.0;

#[derive(Debug, Clone)]
enum Sim {
    Exact(ExactModelConfig),
    Cluster(ClusterSimConfig),
}

/// One simulated configuration: a model, a strategy and a utilization.
struct Config {
    label: String,
    sim: Sim,
    /// Analytic mean queue length, for the exact-model configurations.
    analytic: Option<f64>,
}

fn cluster(delta: f64, down: TruncatedPowerTail, rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(params::N)
        .peak_rate(params::NU_P)
        .degradation(delta)
        .up(Exponential::with_mean(params::UP_MEAN).expect("valid UP"))
        .down(down)
        .utilization(rho)
        .build()
        .expect("valid cluster")
}

/// Stops once `tasks` arrivals are expected after warm-up.
fn stop(lambda: f64, tasks: f64) -> StopCriterion {
    StopCriterion::Time(WARMUP + tasks / lambda)
}

pub struct SimValidation {
    configs: Vec<Config>,
    /// Configuration of each op of one pass.
    ops: Vec<usize>,
}

impl SimValidation {
    pub fn new() -> Result<Self, String> {
        let configs = Self::configs()?;
        let ops = (0..configs.len())
            .flat_map(|c| std::iter::repeat_n(c, OPS_PER_CONFIG))
            .collect();
        Ok(SimValidation { configs, ops })
    }

    fn configs() -> Result<Vec<Config>, String> {
        let mut out = Vec::new();
        for (rho, tasks) in [(0.3, 1360e3), (0.5, 1300e3), (0.7, 1230e3)] {
            let down = TruncatedPowerTail::with_mean(5, params::ALPHA, 0.5, params::DOWN_MEAN)
                .map_err(|e| e.to_string())?;
            let m = cluster(params::DELTA, down, rho);
            let analytic = m.solve().map_err(|e| e.to_string())?.mean_queue_length();
            out.push(Config {
                label: format!("fig7/exact/rho{rho}"),
                sim: Sim::Exact(ExactModelConfig {
                    servers: params::N,
                    nu_p: params::NU_P,
                    delta: params::DELTA,
                    up: m.up().clone(),
                    down: m.down().clone(),
                    lambda: m.arrival_rate(),
                    stop: stop(m.arrival_rate(), tasks),
                    warmup_time: WARMUP,
                }),
                analytic: Some(analytic),
            });
        }
        for (rho, tasks) in [(0.3, 940e3), (0.5, 900e3)] {
            let down =
                TruncatedPowerTail::with_mean(10, params::ALPHA, params::THETA, params::DOWN_MEAN)
                    .map_err(|e| e.to_string())?;
            let m = cluster(0.0, down, rho);
            for strategy in [
                FailureStrategy::Discard,
                FailureStrategy::ResumeBack,
                FailureStrategy::RestartBack,
            ] {
                let task: Dist = Exponential::with_mean(1.0 / params::NU_P)
                    .map_err(|e| e.to_string())?
                    .into();
                out.push(Config {
                    label: format!("fig8/{}/rho{rho}", strategy.label()),
                    sim: Sim::Cluster(ClusterSimConfig {
                        servers: params::N,
                        nu_p: params::NU_P,
                        delta: 0.0,
                        up: m.up().clone(),
                        down: m.down().clone(),
                        task,
                        lambda: m.arrival_rate(),
                        strategy,
                        stop: stop(m.arrival_rate(), tasks),
                        warmup_time: WARMUP,
                        resume_penalty: 0.0,
                        detection_delay: None,
                    }),
                    analytic: None,
                });
            }
        }
        Ok(out)
    }

    fn replicate(&self, config: usize, seed: u64) -> Result<SimResult, String> {
        Ok(match &self.configs[config].sim {
            Sim::Exact(cfg) => ExactModelSim::new(cfg.clone())
                .map_err(|e| e.to_string())?
                .run(seed),
            Sim::Cluster(cfg) => ClusterSim::new(cfg.clone())
                .map_err(|e| e.to_string())?
                .run(seed),
        })
    }
}

fn read(r: &SimResult) -> Outputs {
    Outputs {
        values: vec![r.mean_queue_length, r.completed_tasks as f64],
        degraded: false,
    }
}

impl Workload for SimValidation {
    type Done = Outputs;

    /// Each run of an op is a replication with its own seed.
    const FASTEST_PER_CONFIG: bool = false;

    fn pass(&self) -> Vec<Label> {
        // Task counts are balanced so all configurations are one class.
        self.ops
            .iter()
            .map(|&c| Label {
                class: "replication",
                config: self.configs[c].label.clone(),
            })
            .collect()
    }

    fn nominal_pass_s(&self) -> f64 {
        26.0
    }

    fn setup(&mut self) -> Result<(), String> {
        // Model build and analytic reference solves, then one untimed
        // replication per configuration.
        self.configs = Self::configs()?;
        for c in 0..self.configs.len() {
            self.replicate(c, 1)?;
        }
        Ok(())
    }

    fn run(&self, op: usize, seed: u64) -> Result<Outputs, String> {
        Ok(read(&self.replicate(self.ops[op], seed)?))
    }

    fn run_traced(&self, op: usize, seed: u64, t: &mut Tracer) -> Result<Outputs, String> {
        let r = match &self.configs[self.ops[op]].sim {
            Sim::Exact(cfg) => {
                let sim = t
                    .span("sim.build", || ExactModelSim::new(cfg.clone()))
                    .map_err(|e| e.to_string())?;
                t.span("sim.run", || sim.run(seed))
            }
            Sim::Cluster(cfg) => {
                let sim = t
                    .span("sim.build", || ClusterSim::new(cfg.clone()))
                    .map_err(|e| e.to_string())?;
                t.span("sim.run", || sim.run(seed))
            }
        };
        Ok(read(&r))
    }

    fn count(&self, _op: usize, done: &Outputs, t: &mut Tracer) {
        t.count("sim.tasks", done.values[1]);
    }

    fn outputs(&self, done: &Outputs) -> Outputs {
        done.clone()
    }

    fn check(&self, _op: usize, done: &Outputs) -> Result<f64, String> {
        let (mean, tasks) = (done.values[0], done.values[1]);
        if !(mean.is_finite() && mean >= 0.0) {
            return Err(format!(
                "mean queue length {mean} is not finite and non-negative"
            ));
        }
        if tasks.is_nan() || tasks <= 0.0 {
            return Err("no task completed".into());
        }
        Ok(0.0)
    }

    fn check_run(&self, ran: &[(usize, &Outputs)]) -> Vec<(usize, String)> {
        let mut failed = Vec::new();
        for (c, config) in self.configs.iter().enumerate() {
            let Some(analytic) = config.analytic else {
                continue;
            };
            let members: Vec<usize> = (0..ran.len())
                .filter(|&i| self.ops[ran[i].0] == c)
                .collect();
            let means: Vec<f64> = members.iter().map(|&i| ran[i].1.values[0]).collect();
            let n = means.len() as f64;
            if means.len() < 2 {
                continue;
            }
            let avg = means.iter().sum::<f64>() / n;
            let var = means.iter().map(|m| (m - avg).powi(2)).sum::<f64>() / (n - 1.0);
            let half = CI_Z * (var / n).sqrt();
            eprintln!(
                "{}: simulated mean {avg:.5}, analytic {analytic:.5}, {:.2} of the {CI_Z}-SE bound",
                config.label,
                (avg - analytic).abs() / half
            );
            if (avg - analytic).abs() > half {
                let why = format!(
                    "{}: simulated mean {avg:.5} ± {half:.5} misses analytic {analytic:.5}",
                    config.label
                );
                failed.extend(members.into_iter().map(|i| (i, why.clone())));
            }
        }
        failed
    }
}
