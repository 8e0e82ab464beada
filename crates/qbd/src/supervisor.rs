//! Resilient solver supervision: one logarithmic-reduction ladder,
//! watchdogs and solve reports.
//!
//! [`SolverSupervisor`] wraps a [`Qbd`] and computes its `G` matrix by
//! logarithmic reduction (quadratically convergent): one attempt at the
//! requested tolerance — fully hardened from the start in the
//! near-null-recurrent band — and, if it breaks down
//! ([`QbdError::NumericalBreakdown`]), exactly one retry with
//! [`Hardening::full`]. Every other rejection, and a rejected retry,
//! ends the solve with a typed [`QbdError::NoConvergence`]. Around this
//! ladder sit
//!
//! * NaN/Inf watchdogs that abort a poisoned attempt early instead of
//!   letting non-finite values propagate into the boundary solve,
//! * a global residual acceptance test
//!   (`‖A2 + A1·G + A0·G²‖∞ ≤ tol·scale`),
//! * a read-only stochasticity guard: `G` is judged exactly as the
//!   attempt returned it, and one that drifted off the stochastic set
//!   by more than `1e-2` is rejected (it is never rescaled),
//! * cooperative interruption through a [`Stop`]
//!   ([`QbdError::Cancelled`], [`QbdError::DeadlineExceeded`]),
//! * condition-number surveillance of the `R` and boundary linear systems
//!   ([`SolveWarning::IllConditioned`], fed by the LU condition
//!   estimator in `performa-linalg`),
//! * a sign check on the mean queue length of the assembled solution.
//!
//! Every successful solve returns a [`SolveReport`] stating how hard it
//! had to work, the final true residual, and whether the result is
//! *degraded* (a breakdown was rescued by the hardened retry). Callers
//! that must distinguish "exact" from "degraded-but-bounded" — e.g. the
//! CLI's exit codes — read [`SolveReport::degraded`].

use std::fmt;
use std::time::{Duration, Instant};

use performa_ctrl::{Interrupt, Stop};
use performa_linalg::Matrix;

use crate::qbd::{all_finite, Hardening, Qbd};
use crate::solution::QbdSolution;
use crate::{QbdError, Result};

/// Width of the near-null-recurrent band: a drift ratio `ρ = up/down`
/// above `1 − SATURATION_MARGIN` is reported as
/// [`SolveWarning::NearSaturation`] and solved fully hardened.
const SATURATION_MARGIN: f64 = 0.02;

/// Largest stochasticity drift of `G` (negative entry or row-sum
/// deviation) an attempt may return. The guard only rejects: an
/// accepted `G` is never rewritten.
const DRIFT_CAP: f64 = 1e-2;

/// Configuration of a [`SolverSupervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Requested convergence tolerance (iterate difference, and residual
    /// acceptance scaled by the block norms).
    pub tolerance: f64,
    /// Iteration budget of each logarithmic-reduction attempt.
    pub max_iterations: usize,
    /// Emit [`SolveWarning::IllConditioned`] when a linear-system
    /// condition estimate exceeds this threshold.
    pub condition_threshold: f64,
    /// Interruption of the whole solve, probed between attempts and
    /// inside every counted iteration loop (at the amortized check
    /// stride). An expired deadline aborts with
    /// [`QbdError::DeadlineExceeded`]; cancellation aborts with
    /// [`QbdError::Cancelled`] — unlike a deadline it says nothing about
    /// the point's difficulty, so it is never retried. The default never
    /// fires.
    pub stop: Stop,
    /// Baseline numerical hardening of the first attempt. Independent
    /// of this setting the supervisor escalates to [`Hardening::full`] —
    /// always reported via [`SolveWarning::Hardened`] — when the drift
    /// ratio puts the chain in the near-null-recurrent band or the
    /// attempt dies of [`QbdError::NumericalBreakdown`].
    pub hardening: Hardening,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            // Residual acceptance is `tolerance × Σ‖Ai‖∞`. 1e-10 is the
            // tightest level reliably attainable in f64 for the paper's
            // 50+-phase blocks.
            tolerance: 1e-10,
            max_iterations: 200,
            condition_threshold: 1e12,
            stop: Stop::default(),
            hardening: Hardening::default(),
        }
    }
}

impl SupervisorOptions {
    /// Sets the requested tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the [`Stop`] that interrupts the solve.
    pub fn with_stop(mut self, stop: Stop) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the baseline hardening of the first attempt.
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(QbdError::InvalidParameter {
                message: format!("tolerance must be positive finite, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// Why a logarithmic-reduction attempt was rejected — every cause
/// carries its numeric evidence, so reports and trace events never
/// degrade to free-form strings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StageFailureReason {
    /// The iteration budget ran out before the iterate test was met.
    NoConvergence {
        /// Iterations spent.
        iterations: usize,
        /// Last iterate difference (or residual) observed.
        residual: f64,
    },
    /// The NaN/Inf watchdog tripped: non-finite values appeared.
    NumericalBreakdown {
        /// Iteration at which the breakdown was detected.
        iteration: usize,
    },
    /// The attempt converged in its own metric but the true residual
    /// `‖A2 + A1·G + A0·G²‖∞` exceeds the acceptance budget.
    ResidualAboveBudget {
        /// True residual of the candidate `G`.
        residual: f64,
        /// Acceptance budget (`tolerance × scale`).
        budget: f64,
    },
    /// `G` drifted off the stochastic set further than the drift cap
    /// allows.
    StochasticDrift {
        /// Observed drift.
        drift: f64,
        /// Drift cap in force.
        cap: f64,
    },
    /// A linear-algebra failure (singular system, invalid blocks, …)
    /// inside the attempt.
    Linalg {
        /// Rendered error message of the underlying failure.
        message: String,
    },
}

impl StageFailureReason {
    /// Short machine-readable kind, used as the `reason` field of
    /// `qbd.fallback` trace events: `"no_convergence"`,
    /// `"numerical_breakdown"`, `"residual_above_budget"`,
    /// `"stochastic_drift"` or `"linalg"`.
    pub fn kind(&self) -> &'static str {
        match self {
            StageFailureReason::NoConvergence { .. } => "no_convergence",
            StageFailureReason::NumericalBreakdown { .. } => "numerical_breakdown",
            StageFailureReason::ResidualAboveBudget { .. } => "residual_above_budget",
            StageFailureReason::StochasticDrift { .. } => "stochastic_drift",
            StageFailureReason::Linalg { .. } => "linalg",
        }
    }

    /// The numeric evidence attached to this failure, if any (residual,
    /// drift, or last iterate difference).
    pub fn magnitude(&self) -> Option<f64> {
        match self {
            StageFailureReason::NoConvergence { residual, .. }
            | StageFailureReason::ResidualAboveBudget { residual, .. } => Some(*residual),
            StageFailureReason::StochasticDrift { drift, .. } => Some(*drift),
            _ => None,
        }
    }

    fn from_error(e: &QbdError) -> Self {
        match e {
            QbdError::NoConvergence {
                iterations,
                residual,
                ..
            } => StageFailureReason::NoConvergence {
                iterations: *iterations,
                residual: *residual,
            },
            QbdError::NumericalBreakdown { iteration, .. } => {
                StageFailureReason::NumericalBreakdown {
                    iteration: *iteration,
                }
            }
            other => StageFailureReason::Linalg {
                message: other.to_string(),
            },
        }
    }
}

impl fmt::Display for StageFailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailureReason::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iteration(s), residual {residual:.3e}"
            ),
            StageFailureReason::NumericalBreakdown { iteration } => write!(
                f,
                "numerical breakdown: non-finite values at iteration {iteration}"
            ),
            StageFailureReason::ResidualAboveBudget { residual, budget } => {
                write!(f, "residual {residual:.3e} above budget {budget:.3e}")
            }
            StageFailureReason::StochasticDrift { drift, cap } => write!(
                f,
                "G drifted {drift:.3e} off the stochastic set (cap {cap:.3e})"
            ),
            StageFailureReason::Linalg { message } => f.write_str(message),
        }
    }
}

/// A non-fatal condition observed during a supervised solve. Warnings are
/// always surfaced in the [`SolveReport`]; the supervisor never repairs
/// a `G`. Each warning is also emitted as a structured trace event
/// carrying the same numeric payload.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveWarning {
    /// The drift ratio `ρ` is within the saturation margin of 1; results
    /// are exact but extremely sensitive to the input rates.
    NearSaturation {
        /// Drift ratio `up/down`.
        rho: f64,
    },
    /// A logarithmic-reduction attempt was rejected; only a breakdown
    /// is followed by the hardened retry.
    StageFailed {
        /// Typed failure cause with its numeric evidence.
        reason: StageFailureReason,
    },
    /// A linear system solved on the way to the solution is
    /// ill-conditioned; the attached estimate bounds the amplification of
    /// input perturbations.
    IllConditioned {
        /// Which system: `"R system"` or `"boundary system"`.
        context: &'static str,
        /// 1-norm condition estimate.
        estimate: f64,
    },
    /// Numerical hardening (equilibration, iterative refinement and the
    /// spectral shift) engaged beyond the configured baseline — never
    /// silently.
    Hardened {
        /// What engaged it: `"near_null_recurrent"` (drift pre-check),
        /// `"numerical_breakdown"` (the retry) or `"ill_conditioned"`
        /// (refined `R` recompute).
        cause: &'static str,
    },
}

impl SolveWarning {
    /// Emits this warning as a structured trace event (Warn level) with
    /// its numeric payload; the event names form the `qbd.*` taxonomy
    /// documented in DESIGN.md §8.
    fn emit(&self) {
        use performa_obs::{event, TraceLevel};
        match self {
            SolveWarning::NearSaturation { rho } => event(
                TraceLevel::Warn,
                "qbd.near_saturation",
                vec![("rho", (*rho).into())],
            ),
            SolveWarning::StageFailed { reason } => {
                let mut fields = vec![
                    ("strategy", performa_obs::Value::from("logred")),
                    ("reason", reason.kind().into()),
                ];
                if let Some(v) = reason.magnitude() {
                    fields.push(("residual", v.into()));
                }
                event(TraceLevel::Warn, "qbd.fallback", fields)
            }
            SolveWarning::IllConditioned { context, estimate } => event(
                TraceLevel::Warn,
                "qbd.ill_conditioned",
                vec![
                    ("context", (*context).into()),
                    ("estimate", (*estimate).into()),
                ],
            ),
            SolveWarning::Hardened { cause } => event(
                TraceLevel::Warn,
                "qbd.hardened",
                vec![("cause", (*cause).into())],
            ),
        }
    }
}

impl fmt::Display for SolveWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveWarning::NearSaturation { rho } => {
                write!(f, "near saturation: drift ratio rho = {rho:.6}")
            }
            SolveWarning::StageFailed { reason } => {
                write!(f, "stage 'logred' failed: {reason}")
            }
            SolveWarning::IllConditioned { context, estimate } => {
                write!(f, "{context} is ill-conditioned (estimate {estimate:.3e})")
            }
            SolveWarning::Hardened { cause } => {
                write!(f, "numerical hardening engaged (cause: {cause})")
            }
        }
    }
}

/// Emits `w` and records it in the report's warning list.
fn warn(warnings: &mut Vec<SolveWarning>, w: SolveWarning) {
    w.emit();
    warnings.push(w);
}

/// How one attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The attempt produced the accepted `G`.
    Converged,
    /// The attempt was rejected for the attached reason.
    Failed(StageFailureReason),
}

/// Record of one logarithmic-reduction attempt (successful or not).
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// Iterations spent.
    pub iterations: usize,
    /// Whether the attempt ran with any [`Hardening`] mitigation.
    pub hardened: bool,
    /// Typed outcome ([`StageOutcome::Converged`] or the failure cause).
    pub outcome: StageOutcome,
}

/// Diagnostics of a supervised solve.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Iterations of the accepted attempt.
    pub iterations: usize,
    /// Iterations summed over every attempt.
    pub total_iterations: usize,
    /// Final true residual `‖A2 + A1·G + A0·G²‖∞`.
    pub residual: f64,
    /// Tolerance the caller asked for.
    pub tolerance_requested: f64,
    /// Tolerance the accepted solve satisfied: always
    /// [`SolveReport::tolerance_requested`], which is never relaxed.
    pub tolerance_used: f64,
    /// Largest 1-norm condition estimate among the `R` and boundary
    /// systems.
    pub condition_estimate: f64,
    /// `true` when the first attempt broke down and the hardened retry
    /// produced the answer: the result is still bounded (residual and
    /// warnings say how) but not the first-choice exact solve.
    pub degraded: bool,
    /// Everything the watchdogs observed.
    pub warnings: Vec<SolveWarning>,
    /// Per-attempt log, in execution order.
    pub attempts: Vec<StageAttempt>,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
    /// Kernel lanes the classified blocks run on, as an `"a0:…,a2:…"`
    /// tag (see [`Qbd::kernel_tag`]).
    pub kernel: String,
}

impl SolveReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "logarithmic reduction in {} iteration(s), residual {:.3e}{}{}",
            self.iterations,
            self.residual,
            if self.degraded { " [degraded]" } else { "" },
            if self.warnings.is_empty() {
                String::new()
            } else {
                format!(", {} warning(s)", self.warnings.len())
            }
        )
    }
}

/// Supervised, fault-tolerant front end to [`Qbd::solve`].
///
/// ```
/// use performa_linalg::{Matrix, Vector};
/// use performa_qbd::{Qbd, SolverSupervisor};
///
/// let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
/// let rates = Vector::from(vec![2.0, 0.2]);
/// let qbd = Qbd::m_mmpp1(1.0, &q, &rates)?;
/// let (solution, report) = SolverSupervisor::new(qbd).solve()?;
/// assert!(!report.degraded);
/// assert!(solution.mean_queue_length() > 0.0);
/// # Ok::<(), performa_qbd::QbdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolverSupervisor {
    qbd: Qbd,
    options: SupervisorOptions,
}

impl SolverSupervisor {
    /// Supervises `qbd` with [`SupervisorOptions::default`].
    pub fn new(qbd: Qbd) -> Self {
        SolverSupervisor {
            qbd,
            options: SupervisorOptions::default(),
        }
    }

    /// Supervises `qbd` with explicit options.
    pub fn with_options(qbd: Qbd, options: SupervisorOptions) -> Self {
        SolverSupervisor { qbd, options }
    }

    /// Runs the `G` ladder and assembles the stationary solution.
    ///
    /// # Errors
    ///
    /// * [`QbdError::Unstable`] — no stationary distribution exists.
    /// * [`QbdError::NoConvergence`] — the attempt was rejected (drift,
    ///   residual above budget, exhausted budget or a linear-algebra
    ///   failure), or so was the hardened retry that follows a
    ///   breakdown.
    /// * [`QbdError::Cancelled`] / [`QbdError::DeadlineExceeded`] — the
    ///   options' [`Stop`] fired first.
    /// * [`QbdError::InvalidParameter`] — malformed options.
    /// * [`QbdError::Linalg`] / [`QbdError::NumericalBreakdown`] — from
    ///   the `R` and boundary solves, including a negative or non-finite
    ///   mean queue length (`"boundary solve"`).
    pub fn solve(&self) -> Result<(QbdSolution, SolveReport)> {
        self.options.validate()?;
        let _solve_span = performa_obs::span_with(
            "qbd.solve",
            vec![
                ("phases", self.qbd.phase_dim().into()),
                ("tolerance", self.options.tolerance.into()),
                ("kernel", self.qbd.kernel_tag().into()),
            ],
        );
        let start = Instant::now();

        let (up, down) = self.qbd.drift()?;
        if up >= down {
            return Err(QbdError::Unstable {
                up_rate: up,
                down_rate: down,
            });
        }
        let mut warnings: Vec<SolveWarning> = Vec::new();
        let rho = up / down;
        let mut hardening = self.options.hardening;
        if rho > 1.0 - SATURATION_MARGIN {
            warn(&mut warnings, SolveWarning::NearSaturation { rho });
            // Near null recurrence the unshifted iteration stalls or
            // overflows; harden from the start rather than waiting for
            // the breakdown retry.
            if hardening != Hardening::full() {
                hardening = Hardening::full();
                warn(
                    &mut warnings,
                    SolveWarning::Hardened {
                        cause: "near_null_recurrent",
                    },
                );
            }
        }

        // Residual acceptance is scaled by the block magnitudes so the
        // tolerance means the same thing regardless of rate units.
        let scale =
            (self.qbd.a0().norm_inf() + self.qbd.a1().norm_inf() + self.qbd.a2().norm_inf())
                .max(1.0);
        let mut attempts: Vec<StageAttempt> = Vec::new();
        let (g, iterations, residual, hardening) = self.accept_g(
            hardening,
            self.options.tolerance * scale,
            &mut attempts,
            &mut warnings,
        )?;

        let (mut cond_r, mut cond_b) = (0.0, 0.0);
        let mut r = self
            .qbd
            .r_from_g_with_cond(&g, hardening, Some(&mut cond_r))?;
        if !all_finite(&r) {
            return Err(QbdError::NumericalBreakdown {
                stage: "R computation",
                iteration: 0,
            });
        }
        if cond_r > self.options.condition_threshold {
            warn(
                &mut warnings,
                SolveWarning::IllConditioned {
                    context: "R system",
                    estimate: cond_r,
                },
            );
            // Last rung: recompute R with equilibration + iterative
            // refinement. The warning stays — refinement certifies the
            // backward error of the solve, not the conditioning of the
            // system — but the returned R is the certified one.
            if !hardening.refine {
                warn(
                    &mut warnings,
                    SolveWarning::Hardened {
                        cause: "ill_conditioned",
                    },
                );
                let refined = Hardening {
                    equilibrate: true,
                    refine: true,
                    ..hardening
                };
                let r2 = self.qbd.r_from_g_with_cond(&g, refined, None)?;
                if all_finite(&r2) {
                    r = r2;
                }
            }
        }
        let solution = self
            .qbd
            .boundary_from_r(r, hardening, Some(&mut cond_b))?;
        if cond_b > self.options.condition_threshold {
            warn(
                &mut warnings,
                SolveWarning::IllConditioned {
                    context: "boundary system",
                    estimate: cond_b,
                },
            );
        }
        check_mean(&solution)?;

        let report = SolveReport {
            iterations,
            total_iterations: attempts.iter().map(|a| a.iterations).sum(),
            residual,
            tolerance_requested: self.options.tolerance,
            tolerance_used: self.options.tolerance,
            condition_estimate: cond_r.max(cond_b),
            degraded: attempts.iter().any(|a| a.outcome != StageOutcome::Converged),
            warnings,
            attempts,
            elapsed: start.elapsed(),
            kernel: self.qbd.kernel_tag(),
        };
        Ok((solution, report))
    }

    /// The `G` ladder: one logarithmic-reduction attempt at `hardening`
    /// and, after a [`QbdError::NumericalBreakdown`], exactly one retry
    /// with [`Hardening::full`]. Every attempt is logged in `attempts`
    /// and every rejection in `warnings`. Returns the accepted `G`, its
    /// iteration count and residual, and the hardening it ran with.
    ///
    /// No linear iteration (Neuts, functional) follows a rejection:
    /// where logarithmic reduction fails, their contraction rate
    /// vanishes with the same spectral gap, and on a census of 2,276
    /// points (N ≤ 5, T ≤ 20, ρ around every blow-up point) they never
    /// rescued one.
    fn accept_g(
        &self,
        mut hardening: Hardening,
        budget: f64,
        attempts: &mut Vec<StageAttempt>,
        warnings: &mut Vec<SolveWarning>,
    ) -> Result<(Matrix, usize, f64, Hardening)> {
        let spent =
            |attempts: &[StageAttempt]| -> usize { attempts.iter().map(|a| a.iterations).sum() };
        loop {
            if let Some(why) = self.options.stop.probe() {
                return Err(QbdError::interrupted(
                    why,
                    "solver supervisor",
                    spent(attempts),
                ));
            }
            let _attempt_span = performa_obs::span_with(
                "qbd.attempt",
                vec![
                    ("strategy", "logred".into()),
                    ("tolerance", self.options.tolerance.into()),
                    ("hardened", hardening.any().into()),
                ],
            );
            // Arm the flight recorder for this attempt: if it trips a
            // watchdog or is rejected, the last K iteration records are
            // dumped as qbd.flight events.
            performa_obs::flight::begin("logred", hardening.any());
            let outcome = self.qbd.g_logred_counted(
                self.options.tolerance,
                self.options.max_iterations,
                &self.options.stop,
                hardening,
            );
            let (iterations, reason) = match outcome {
                Ok((g, iterations)) => {
                    let drift = stochastic_drift(&g);
                    let reason = if drift > DRIFT_CAP {
                        StageFailureReason::StochasticDrift {
                            drift,
                            cap: DRIFT_CAP,
                        }
                    } else {
                        let residual = self.qbd.g_residual(&g);
                        if residual <= budget {
                            performa_obs::event(
                                performa_obs::TraceLevel::Info,
                                "qbd.converged",
                                vec![
                                    ("strategy", "logred".into()),
                                    ("iterations", iterations.into()),
                                    ("residual", residual.into()),
                                    ("drift", drift.into()),
                                ],
                            );
                            attempts.push(StageAttempt {
                                iterations,
                                hardened: hardening.any(),
                                outcome: StageOutcome::Converged,
                            });
                            return Ok((g, iterations, residual, hardening));
                        }
                        StageFailureReason::ResidualAboveBudget { residual, budget }
                    };
                    (iterations, reason)
                }
                Err(e) => {
                    if let Some((why, iterations)) = e.interrupt() {
                        let event = match why {
                            Interrupt::Cancelled => "qbd.cancelled",
                            Interrupt::DeadlineExceeded => "qbd.deadline",
                        };
                        performa_obs::event(
                            performa_obs::TraceLevel::Warn,
                            event,
                            vec![
                                ("strategy", "logred".into()),
                                ("iterations", iterations.into()),
                            ],
                        );
                        if why == Interrupt::Cancelled {
                            // Preserve the abandoned attempt's tail for
                            // the post-mortem before the drain discards
                            // this point.
                            performa_obs::flight::dump("cancelled");
                        }
                        return Err(QbdError::interrupted(
                            why,
                            "solver supervisor",
                            spent(attempts) + iterations,
                        ));
                    }
                    let iterations = match e {
                        QbdError::NoConvergence { iterations, .. } => iterations,
                        QbdError::NumericalBreakdown { iteration, .. } => iteration,
                        _ => 0,
                    };
                    (iterations, StageFailureReason::from_error(&e))
                }
            };
            attempts.push(StageAttempt {
                iterations,
                hardened: hardening.any(),
                outcome: StageOutcome::Failed(reason.clone()),
            });
            let retry = matches!(reason, StageFailureReason::NumericalBreakdown { .. })
                && hardening != Hardening::full();
            let evidence = reason.magnitude().unwrap_or(f64::INFINITY);
            warn(warnings, SolveWarning::StageFailed { reason });
            if !retry {
                performa_obs::flight::dump("stage_failed");
                return Err(QbdError::NoConvergence {
                    stage: "solver supervisor",
                    iterations: spent(attempts),
                    residual: evidence,
                });
            }
            hardening = Hardening::full();
            warn(
                warnings,
                SolveWarning::Hardened {
                    cause: "numerical_breakdown",
                },
            );
            // A watchdog trip already dumped the ring mid-attempt; this
            // covers a breakdown no watchdog saw.
            performa_obs::flight::dump("hardened");
        }
    }
}

/// Distance of `G` from the stochastic set (for a recurrent chain `G`
/// is stochastic): the largest negative entry, or the largest deviation
/// from one of a row's non-negative sum. Reads `G` only.
fn stochastic_drift(g: &Matrix) -> f64 {
    (0..g.nrows())
        .map(|i| {
            let row = g.row(i);
            let neg = row.iter().fold(0.0_f64, |d, &v| d.max(-v));
            let sum: f64 = row.iter().filter(|&&v| v >= 0.0).sum();
            neg.max((sum - 1.0).abs())
        })
        .fold(0.0, f64::max)
}

/// Rejects a solution whose mean queue length is negative or not
/// finite: such a vector is no probability law, however small the
/// residual of the `G` behind it. The boundary solve is only normwise
/// stable, so near null recurrence its slow-phase entries can lose
/// their sign. Costs one dot product with the cached `(I−R)⁻²ε`.
fn check_mean(solution: &QbdSolution) -> Result<()> {
    let mean = solution.mean_queue_length();
    if mean.is_finite() && mean >= 0.0 {
        Ok(())
    } else {
        Err(QbdError::NumericalBreakdown {
            stage: "boundary solve",
            iteration: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use performa_linalg::Vector;

    fn mm1(lambda: f64, mu: f64) -> Qbd {
        Qbd::new(
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-lambda - mu]]),
            Matrix::from_rows(&[&[mu]]),
            Matrix::from_rows(&[&[-lambda]]),
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[mu]]),
        )
        .unwrap()
    }

    fn mmpp2(lambda: f64) -> Qbd {
        let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
        let rates = Vector::from(vec![2.0, 0.2]);
        Qbd::m_mmpp1(lambda, &q, &rates).unwrap()
    }

    #[test]
    fn supervised_matches_plain_solve() {
        let qbd = mmpp2(1.0);
        let plain = qbd.solve().unwrap();
        let (sup, report) = SolverSupervisor::new(qbd).solve().unwrap();
        assert!((sup.mean_queue_length() - plain.mean_queue_length()).abs() < 1e-8);
        assert!(!report.degraded, "report: {}", report.summary());
        assert!(report.iterations > 0);
        assert!(report.residual.is_finite());
        assert!(report
            .attempts
            .iter()
            .all(|a| a.outcome == StageOutcome::Converged));
        assert_eq!(report.tolerance_used, report.tolerance_requested);
    }

    #[test]
    fn near_saturation_is_reported() {
        let qbd = mm1(0.995, 1.0);
        let (_, report) = SolverSupervisor::new(qbd).solve().unwrap();
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::NearSaturation { rho } if *rho > 0.97)));
    }

    #[test]
    fn unstable_is_a_typed_error() {
        let qbd = mm1(2.0, 1.0);
        assert!(matches!(
            SolverSupervisor::new(qbd).solve(),
            Err(QbdError::Unstable { .. })
        ));
    }

    #[test]
    fn exhausted_chain_reports_no_convergence() {
        // Three logred iterations cannot reach 1e-14 at rho 0.9; the
        // exhausted budget is not a breakdown, so no retry follows.
        let qbd = mm1(0.9, 1.0);
        let options = SupervisorOptions {
            max_iterations: 3,
            tolerance: 1e-14,
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::NoConvergence {
                stage: "solver supervisor",
                iterations: 3,
                ..
            })
        ));
    }

    #[test]
    fn immediate_deadline_yields_deadline_error() {
        let qbd = mmpp2(1.0);
        let options = SupervisorOptions::default().with_stop(Stop::default().child(Duration::ZERO));
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn tripped_token_yields_cancelled_error() {
        let qbd = mmpp2(1.0);
        let token = Stop::new();
        token.cancel();
        let options = SupervisorOptions::default().with_stop(token);
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::Cancelled { .. })
        ));
    }

    #[test]
    fn cancel_outranks_deadline_in_the_supervisor() {
        // Both interrupts armed: the typed outcome must say "told to
        // stop", not "point too expensive".
        let qbd = mmpp2(1.0);
        let token = Stop::new();
        token.cancel();
        let options = SupervisorOptions::default().with_stop(token.child(Duration::ZERO));
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::Cancelled { .. })
        ));
    }

    #[test]
    fn condition_monitoring_is_plumbed_through() {
        // With an absurdly low threshold every solve must warn — proving
        // the estimates actually reach the report.
        let qbd = mmpp2(1.0);
        let options = SupervisorOptions {
            condition_threshold: 0.5,
            ..SupervisorOptions::default()
        };
        let (_, report) = SolverSupervisor::with_options(qbd, options)
            .solve()
            .unwrap();
        assert!(report.condition_estimate > 0.5);
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::IllConditioned { .. })));
    }

    #[test]
    fn stochastic_drift_measures_without_repairing() {
        let g = Matrix::from_rows(&[&[0.6, 0.5], &[-0.01, 1.0]]);
        let before: Vec<u64> = g.as_slice().iter().map(|v| v.to_bits()).collect();
        let drift = stochastic_drift(&g);
        assert!((drift - 0.1).abs() < 1e-15, "drift {drift}");
        let after: Vec<u64> = g.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after, "G must be left bit-for-bit unchanged");
    }

    #[test]
    fn negative_mean_queue_length_is_a_boundary_breakdown() {
        // m = 1, R = [0.5]: E[Q] = π1·(I−R)⁻²ε = −0.1 · 4 = −0.4.
        let parts = |pi1: f64| {
            QbdSolution::from_parts(
                Vector::from(vec![0.5]),
                Vector::from(vec![pi1]),
                Matrix::from_rows(&[&[0.5]]),
                [2.0, 4.0, 8.0].map(|s| Vector::from(vec![s])),
            )
            .unwrap()
        };
        let negative = parts(-0.1);
        assert!((negative.mean_queue_length() + 0.4).abs() < 1e-15);
        assert_eq!(
            check_mean(&negative),
            Err(QbdError::NumericalBreakdown {
                stage: "boundary solve",
                iteration: 0,
            })
        );
        assert!(check_mean(&parts(f64::NAN)).is_err());
        assert_eq!(check_mean(&parts(0.1)), Ok(()));
    }

    #[test]
    fn near_null_recurrent_chain_is_hardened_from_the_start() {
        // rho = 0.995 sits inside the 0.02 saturation margin: the drift
        // pre-check must engage full hardening pre-emptively and say
        // so, and the solve must still be clean (not degraded).
        let qbd = mm1(0.995, 1.0);
        let (sol, report) = SolverSupervisor::new(qbd).solve().unwrap();
        assert!(report.warnings.iter().any(
            |w| matches!(w, SolveWarning::Hardened { cause } if *cause == "near_null_recurrent")
        ));
        assert!(report.attempts.iter().all(|a| a.hardened));
        assert!(!report.degraded);
        let exact = 0.995 / (1.0 - 0.995);
        assert!((sol.mean_queue_length() - exact).abs() < 1e-6 * exact);
    }

    #[test]
    fn baseline_hardening_is_honored_and_reported_in_attempts() {
        let qbd = mmpp2(1.0);
        let options = SupervisorOptions::default().with_hardening(Hardening::full());
        let (sol, report) = SolverSupervisor::with_options(qbd.clone(), options)
            .solve()
            .unwrap();
        assert!(report.attempts.iter().all(|a| a.hardened));
        // No escalation happened, so no Hardened warning is emitted for
        // a hardening level the caller chose themselves.
        assert!(!report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::Hardened { .. })));
        let reference = qbd.solve().unwrap();
        assert!((sol.mean_queue_length() - reference.mean_queue_length()).abs() < 1e-8);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn breakdown_triggers_hardened_retry_of_the_same_stage() {
        // A thread-local poison of logred at iteration 1 hits every
        // attempt on this thread: the plain attempt breaks down, the
        // ladder retries it once fully hardened, the poison hits again,
        // and the solve ends there with a typed NoConvergence.
        let _guard = crate::fault::arm(crate::fault::FaultPlan {
            poison: Some(("logred", 1)),
            ..Default::default()
        });
        let supervisor = SolverSupervisor::new(mmpp2(1.0));
        let (mut attempts, mut warnings) = (Vec::new(), Vec::new());
        let err = supervisor
            .accept_g(Hardening::none(), 1e-10, &mut attempts, &mut warnings)
            .unwrap_err();
        assert_eq!(attempts.len(), 2, "{attempts:?}");
        assert!(!attempts[0].hardened);
        assert!(attempts[1].hardened);
        for a in &attempts {
            assert!(matches!(
                a.outcome,
                StageOutcome::Failed(StageFailureReason::NumericalBreakdown { .. })
            ));
        }
        assert!(warnings.iter().any(
            |w| matches!(w, SolveWarning::Hardened { cause } if *cause == "numerical_breakdown")
        ));
        let spent: usize = attempts.iter().map(|a| a.iterations).sum();
        assert_eq!(
            err,
            QbdError::NoConvergence {
                stage: "solver supervisor",
                iterations: spent,
                residual: f64::INFINITY,
            }
        );
    }

    #[test]
    fn report_summary_mentions_strategy() {
        let qbd = mmpp2(0.8);
        let (_, report) = SolverSupervisor::new(qbd).solve().unwrap();
        let s = report.summary();
        assert!(s.contains("logarithmic reduction"));
        assert!(s.contains("residual"));
    }
}
