//! Resilient solver supervision: fallback chains, watchdogs and solve
//! reports.
//!
//! [`SolverSupervisor`] wraps a [`Qbd`] and drives its G-matrix stages
//! through a configurable fallback chain — by default logarithmic
//! reduction first (quadratically convergent), then Neuts successive
//! substitution and functional iteration as conservative fallbacks — with
//!
//! * per-stage iteration budgets and a global residual acceptance test
//!   (`‖A2 + A1·G + A0·G²‖∞ ≤ tol·scale`),
//! * NaN/Inf watchdogs that abort a poisoned stage early
//!   ([`QbdError::NumericalBreakdown`]) instead of letting non-finite
//!   values propagate into the boundary solve,
//! * automatic tolerance relaxation — reported via
//!   [`SolveWarning::ToleranceRelaxed`], never silent — when no stage
//!   meets the requested tolerance,
//! * stochasticity-drift renormalization of `G` between stages,
//! * an optional wall-clock deadline ([`QbdError::DeadlineExceeded`]),
//! * condition-number surveillance of the `R` and boundary linear systems
//!   ([`SolveWarning::IllConditioned`], fed by the LU condition
//!   estimator in `performa-linalg`).
//!
//! Every successful solve returns a [`SolveReport`] stating which
//! strategy produced the answer, how hard it had to work, the final true
//! residual, and whether the result is *degraded* (a fallback or a
//! tolerance relaxation was needed). Callers that must distinguish
//! "exact" from "degraded-but-bounded" — e.g. the CLI's exit codes —
//! read [`SolveReport::degraded`].

use std::fmt;
use std::time::{Duration, Instant};

use performa_ctrl::CancelToken;
use performa_linalg::Matrix;

use crate::qbd::{all_finite, Hardening, Qbd};
use crate::solution::QbdSolution;
use crate::{QbdError, Result};

/// The G-matrix algorithms the supervisor can chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GStrategy {
    /// Neuts' successive substitution `G ← (−(A1 + A0·G))⁻¹·A2`.
    NeutsSubstitution,
    /// Plain functional iteration `G ← (−A1)⁻¹(A2 + A0·G²)`.
    FunctionalIteration,
    /// Logarithmic reduction (Latouche & Ramaswami), quadratically
    /// convergent.
    LogarithmicReduction,
}

impl GStrategy {
    /// Short machine-readable key, also the fault-injection stage key:
    /// `"neuts"`, `"functional"` or `"logred"`.
    pub fn key(self) -> &'static str {
        match self {
            GStrategy::NeutsSubstitution => "neuts",
            GStrategy::FunctionalIteration => "functional",
            GStrategy::LogarithmicReduction => "logred",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GStrategy::NeutsSubstitution => "Neuts successive substitution",
            GStrategy::FunctionalIteration => "functional iteration",
            GStrategy::LogarithmicReduction => "logarithmic reduction",
        }
    }

    /// Parses a key as produced by [`GStrategy::key`] (also accepts a few
    /// aliases: `"lr"`, `"log-reduction"`, `"fi"`, `"ss"`).
    pub fn parse(s: &str) -> Option<GStrategy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "neuts" | "ss" | "substitution" => Some(GStrategy::NeutsSubstitution),
            "functional" | "fi" => Some(GStrategy::FunctionalIteration),
            "logred" | "lr" | "log-reduction" | "logarithmic" => {
                Some(GStrategy::LogarithmicReduction)
            }
            _ => None,
        }
    }
}

impl fmt::Display for GStrategy {
    /// Displays the machine-readable key (round-trips through
    /// [`FromStr`]); use [`GStrategy::name`] for human-facing text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

impl std::str::FromStr for GStrategy {
    type Err = QbdError;

    /// Parses a strategy key or alias (see [`GStrategy::parse`]); the
    /// inverse of [`Display`](fmt::Display).
    fn from_str(s: &str) -> Result<GStrategy> {
        GStrategy::parse(s).ok_or_else(|| QbdError::InvalidParameter {
            message: format!("unknown strategy '{s}' (expected neuts, functional or logred)"),
        })
    }
}

/// One stage of the fallback chain: a strategy plus its iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBudget {
    /// Algorithm to run.
    pub strategy: GStrategy,
    /// Maximum iterations before the stage is declared failed.
    pub max_iterations: usize,
}

impl StageBudget {
    /// Convenience constructor.
    pub fn new(strategy: GStrategy, max_iterations: usize) -> Self {
        StageBudget {
            strategy,
            max_iterations,
        }
    }
}

/// Configuration of a [`SolverSupervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Fallback chain, tried in order at each tolerance level.
    pub chain: Vec<StageBudget>,
    /// Requested convergence tolerance (iterate difference, and residual
    /// acceptance scaled by the block norms).
    pub tolerance: f64,
    /// How many times the tolerance may be relaxed (each relaxation is
    /// reported; 0 disables relaxation).
    pub max_relaxations: u32,
    /// Multiplicative factor applied to the tolerance per relaxation.
    pub relaxation_factor: f64,
    /// Emit [`SolveWarning::NearSaturation`] when the drift ratio
    /// `ρ = up/down` exceeds `1 − saturation_margin`.
    pub saturation_margin: f64,
    /// Emit [`SolveWarning::IllConditioned`] when a linear-system
    /// condition estimate exceeds this threshold.
    pub condition_threshold: f64,
    /// Largest stochasticity drift of `G` that is repaired by
    /// renormalization; beyond it the stage is declared failed.
    pub renormalization_cap: f64,
    /// Optional wall-clock budget for the whole solve.
    pub deadline: Option<Duration>,
    /// Optional cooperative cancellation token, checked between stages
    /// and inside every counted iteration loop (at the amortized check
    /// stride). A tripped token aborts the solve with
    /// [`QbdError::Cancelled`] — unlike a deadline it says nothing
    /// about the point's difficulty, so it is never retried.
    pub cancel: Option<CancelToken>,
    /// Baseline numerical hardening for every stage. Independent of
    /// this setting the supervisor escalates to [`Hardening::full`] —
    /// always reported via [`SolveWarning::Hardened`] — when the drift
    /// classifier puts the chain in the near-null-recurrent band or a
    /// stage dies of [`QbdError::NumericalBreakdown`].
    pub hardening: Hardening,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            // Quadratically convergent logarithmic reduction leads; the
            // linearly convergent iterations are conservative fallbacks
            // for when it breaks down. Near blow-up points the linear
            // schemes need tens of thousands of iterations, so leading
            // with them would make every hard solve slow AND "degraded".
            chain: vec![
                StageBudget::new(GStrategy::LogarithmicReduction, 200),
                StageBudget::new(GStrategy::NeutsSubstitution, 5_000),
                StageBudget::new(GStrategy::FunctionalIteration, 50_000),
            ],
            // Residual acceptance is `tolerance × Σ‖Ai‖∞`. 1e-10 is the
            // tightest level reliably attainable in f64 for the paper's
            // 50+-phase blocks; demanding more forces a reported
            // relaxation on every solve.
            tolerance: 1e-10,
            max_relaxations: 2,
            relaxation_factor: 100.0,
            saturation_margin: 0.02,
            condition_threshold: 1e12,
            renormalization_cap: 1e-2,
            deadline: None,
            cancel: None,
            hardening: Hardening::default(),
        }
    }
}

impl SupervisorOptions {
    /// Cross-validation ordering: the two classical fixed-point
    /// iterations first, logarithmic reduction last. Slower than the
    /// default but exercises the historically best-understood schemes
    /// before the aggressive one; useful for ablations.
    pub fn reference() -> Self {
        SupervisorOptions {
            chain: vec![
                StageBudget::new(GStrategy::NeutsSubstitution, 5_000),
                StageBudget::new(GStrategy::FunctionalIteration, 50_000),
                StageBudget::new(GStrategy::LogarithmicReduction, 200),
            ],
            ..SupervisorOptions::default()
        }
    }

    /// Sets the requested tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the cooperative cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Replaces the fallback chain.
    pub fn with_chain(mut self, chain: Vec<StageBudget>) -> Self {
        self.chain = chain;
        self
    }

    /// Sets the baseline hardening applied to every stage.
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.chain.is_empty() {
            return Err(QbdError::InvalidParameter {
                message: "supervisor chain must contain at least one stage".into(),
            });
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(QbdError::InvalidParameter {
                message: format!("tolerance must be positive finite, got {}", self.tolerance),
            });
        }
        if !(self.relaxation_factor.is_finite() && self.relaxation_factor > 1.0) {
            return Err(QbdError::InvalidParameter {
                message: format!(
                    "relaxation factor must exceed 1, got {}",
                    self.relaxation_factor
                ),
            });
        }
        Ok(())
    }
}

/// Why a stage of the fallback chain was rejected — every cause carries
/// its numeric evidence, so reports and trace events never degrade to
/// free-form strings.
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
    /// The stage converged in its own metric but the true residual
    /// `‖A2 + A1·G + A0·G²‖∞` exceeds the acceptance budget.
    ResidualAboveBudget {
        /// True residual of the candidate `G`.
        residual: f64,
        /// Acceptance budget (`tolerance × scale`).
        budget: f64,
    },
    /// `G` drifted off the stochastic set further than the
    /// renormalization cap allows.
    StochasticDrift {
        /// Observed drift.
        drift: f64,
        /// Configured cap.
        cap: f64,
    },
    /// A linear-algebra failure (singular system, invalid blocks, …)
    /// inside the stage.
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
/// always surfaced in the [`SolveReport`]; the supervisor never silently
/// repairs or relaxes. Each warning is also emitted as a structured
/// trace event carrying the same numeric payload.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveWarning {
    /// The drift ratio `ρ` is within the saturation margin of 1; results
    /// are exact but extremely sensitive to the input rates.
    NearSaturation {
        /// Drift ratio `up/down`.
        rho: f64,
    },
    /// No stage met the requested tolerance; the reported solution
    /// satisfies only the relaxed one.
    ToleranceRelaxed {
        /// Originally requested tolerance.
        requested: f64,
        /// Tolerance actually achieved.
        used: f64,
    },
    /// A stage of the fallback chain failed and the supervisor moved on.
    StageFailed {
        /// Strategy that failed.
        strategy: GStrategy,
        /// Typed failure cause with its numeric evidence.
        reason: StageFailureReason,
    },
    /// `G` drifted off the stochastic set and was renormalized.
    Renormalized {
        /// Largest row-sum deviation (or clamped negative entry).
        drift: f64,
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
        /// `"numerical_breakdown"` (stage retry) or `"ill_conditioned"`
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
            SolveWarning::ToleranceRelaxed { requested, used } => event(
                TraceLevel::Warn,
                "qbd.tolerance_relaxed",
                vec![("requested", (*requested).into()), ("used", (*used).into())],
            ),
            SolveWarning::StageFailed { strategy, reason } => {
                let mut fields = vec![
                    ("strategy", performa_obs::Value::from(strategy.key())),
                    ("reason", reason.kind().into()),
                ];
                if let Some(v) = reason.magnitude() {
                    fields.push(("residual", v.into()));
                }
                event(TraceLevel::Warn, "qbd.fallback", fields)
            }
            SolveWarning::Renormalized { drift } => event(
                TraceLevel::Warn,
                "qbd.renormalized",
                vec![("drift", (*drift).into())],
            ),
            SolveWarning::IllConditioned { context, estimate } => event(
                TraceLevel::Warn,
                "qbd.ill_conditioned",
                vec![("context", (*context).into()), ("estimate", (*estimate).into())],
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
            SolveWarning::ToleranceRelaxed { requested, used } => write!(
                f,
                "tolerance relaxed from {requested:.3e} to {used:.3e}"
            ),
            SolveWarning::StageFailed { strategy, reason } => {
                write!(f, "stage '{strategy}' failed: {reason}")
            }
            SolveWarning::Renormalized { drift } => write!(
                f,
                "G renormalized onto the stochastic set (drift {drift:.3e})"
            ),
            SolveWarning::IllConditioned { context, estimate } => write!(
                f,
                "{context} is ill-conditioned (estimate {estimate:.3e})"
            ),
            SolveWarning::Hardened { cause } => write!(
                f,
                "numerical hardening engaged (cause: {cause})"
            ),
        }
    }
}

/// How one attempted stage ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The attempt produced the accepted `G`.
    Converged,
    /// The wall-clock budget expired during the attempt.
    DeadlineExceeded,
    /// A cooperative cancellation request arrived during the attempt.
    Cancelled,
    /// The stage was rejected for the attached reason.
    Failed(StageFailureReason),
}

impl fmt::Display for StageOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageOutcome::Converged => f.write_str("converged"),
            StageOutcome::DeadlineExceeded => f.write_str("deadline exceeded"),
            StageOutcome::Cancelled => f.write_str("cancelled"),
            StageOutcome::Failed(reason) => reason.fmt(f),
        }
    }
}

/// Record of one attempted stage (successful or not).
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// Strategy attempted.
    pub strategy: GStrategy,
    /// Tolerance in force for this attempt.
    pub tolerance: f64,
    /// Iterations spent.
    pub iterations: usize,
    /// Whether the attempt ran with any [`Hardening`] mitigation.
    pub hardened: bool,
    /// Whether the attempt produced the accepted `G`.
    pub converged: bool,
    /// Typed outcome ([`StageOutcome::Converged`] or the failure cause).
    pub outcome: StageOutcome,
}

/// Diagnostics of a supervised solve.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Strategy that produced the accepted `G`.
    pub strategy: GStrategy,
    /// Iterations of the winning stage.
    pub iterations: usize,
    /// Iterations summed over every attempted stage.
    pub total_iterations: usize,
    /// Final true residual `‖A2 + A1·G + A0·G²‖∞`.
    pub residual: f64,
    /// Tolerance the caller asked for.
    pub tolerance_requested: f64,
    /// Tolerance the accepted solve satisfied (differs only after
    /// relaxation, which is always reported).
    pub tolerance_used: f64,
    /// Largest 1-norm condition estimate among the `R` and boundary
    /// systems.
    pub condition_estimate: f64,
    /// `true` when a fallback or a tolerance relaxation was needed: the
    /// result is still bounded (residual and warnings say how) but not
    /// the first-choice exact solve.
    pub degraded: bool,
    /// Everything the watchdogs observed.
    pub warnings: Vec<SolveWarning>,
    /// Per-stage attempt log, in execution order.
    pub attempts: Vec<StageAttempt>,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
    /// Storage kernels the repeating blocks were classified into, as a
    /// `"a0:…,a1:…,a2:…"` tag (see [`Qbd::kernel_tag`]).
    pub kernel: String,
}

impl SolveReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} in {} iteration(s), residual {:.3e}{}{}",
            self.strategy.name(),
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

    /// The supervised model.
    pub fn qbd(&self) -> &Qbd {
        &self.qbd
    }

    /// The active options.
    pub fn options(&self) -> &SupervisorOptions {
        &self.options
    }

    /// Runs the fallback chain and assembles the stationary solution.
    ///
    /// # Errors
    ///
    /// * [`QbdError::Unstable`] — no stationary distribution exists.
    /// * [`QbdError::NoConvergence`] — every stage at every tolerance
    ///   level failed.
    /// * [`QbdError::DeadlineExceeded`] — the wall-clock budget expired
    ///   first.
    /// * [`QbdError::InvalidParameter`] — malformed options.
    /// * [`QbdError::Linalg`] / [`QbdError::NumericalBreakdown`] — from
    ///   the boundary stage (G-stage breakdowns trigger fallback
    ///   instead).
    pub fn solve(&self) -> Result<(QbdSolution, SolveReport)> {
        self.options.validate()?;
        let _solve_span = performa_obs::span_with(
            "qbd.solve",
            vec![
                ("phases", self.qbd.phase_dim().into()),
                ("stages", self.options.chain.len().into()),
                ("tolerance", self.options.tolerance.into()),
                ("kernel", self.qbd.kernel_tag().into()),
            ],
        );
        let start = Instant::now();
        let deadline = self.options.deadline.map(|d| start + d);

        let (up, down) = self.qbd.drift()?;
        if up >= down {
            return Err(QbdError::Unstable {
                up_rate: up,
                down_rate: down,
            });
        }
        let mut warnings: Vec<SolveWarning> = Vec::new();
        let warn = |warnings: &mut Vec<SolveWarning>, w: SolveWarning| {
            w.emit();
            warnings.push(w);
        };
        let rho = up / down;
        let mut base_hardening = self.options.hardening;
        if rho > 1.0 - self.options.saturation_margin {
            warn(&mut warnings, SolveWarning::NearSaturation { rho });
            // Near null recurrence the unshifted iterations stall or
            // overflow; harden every stage from the start rather than
            // waiting for the breakdown retry.
            if base_hardening != Hardening::full() {
                base_hardening = Hardening::full();
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
        let scale = (self.qbd.a0().norm_inf()
            + self.qbd.a1().norm_inf()
            + self.qbd.a2().norm_inf())
        .max(1.0);

        let mut attempts: Vec<StageAttempt> = Vec::new();
        let mut accepted: Option<(Matrix, GStrategy, usize, f64, f64)> = None;
        let mut best_residual = f64::INFINITY;
        let mut deadline_hit = false;
        let mut cancel_hit = false;
        let cancel = self.options.cancel.as_ref();

        let mut accepted_hardening = base_hardening;
        'levels: for level in 0..=self.options.max_relaxations {
            let tol = self.options.tolerance * self.options.relaxation_factor.powi(level as i32);
            'stages: for stage in &self.options.chain {
                if cancel.is_some_and(|t| t.is_cancelled()) {
                    cancel_hit = true;
                    break 'levels;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    deadline_hit = true;
                    break 'levels;
                }
                // The recovery ladder within one stage: a first run at
                // the baseline hardening, and on NumericalBreakdown one
                // retry with every mitigation on before falling back to
                // the next strategy.
                let mut hardening = base_hardening;
                loop {
                    let _attempt_span = performa_obs::span_with(
                        "qbd.attempt",
                        vec![
                            ("strategy", stage.strategy.key().into()),
                            ("tolerance", tol.into()),
                            ("relaxation", level.into()),
                            ("hardened", hardening.any().into()),
                        ],
                    );
                    // Arm the flight recorder for this attempt: if the
                    // stage trips a watchdog or falls back, the last K
                    // iteration records are dumped as qbd.flight events.
                    performa_obs::flight::begin(stage.strategy.key(), hardening.any());
                    let outcome = self.run_stage(*stage, tol, deadline, cancel, hardening);
                    match outcome {
                        Ok((mut g, iters)) => {
                            let drift = renormalize_g(&mut g);
                            if drift > self.options.renormalization_cap {
                                let reason = StageFailureReason::StochasticDrift {
                                    drift,
                                    cap: self.options.renormalization_cap,
                                };
                                attempts.push(StageAttempt {
                                    strategy: stage.strategy,
                                    tolerance: tol,
                                    iterations: iters,
                                    hardened: hardening.any(),
                                    converged: false,
                                    outcome: StageOutcome::Failed(reason.clone()),
                                });
                                warn(
                                    &mut warnings,
                                    SolveWarning::StageFailed {
                                        strategy: stage.strategy,
                                        reason,
                                    },
                                );
                                performa_obs::flight::dump("stage_failed");
                                continue 'stages;
                            }
                            if drift > tol * 10.0 {
                                warn(&mut warnings, SolveWarning::Renormalized { drift });
                            }
                            let residual = g_residual(&self.qbd, &g);
                            best_residual = best_residual.min(residual);
                            if residual <= tol * scale {
                                performa_obs::event(
                                    performa_obs::TraceLevel::Info,
                                    "qbd.converged",
                                    vec![
                                        ("strategy", stage.strategy.key().into()),
                                        ("iterations", iters.into()),
                                        ("residual", residual.into()),
                                    ],
                                );
                                attempts.push(StageAttempt {
                                    strategy: stage.strategy,
                                    tolerance: tol,
                                    iterations: iters,
                                    hardened: hardening.any(),
                                    converged: true,
                                    outcome: StageOutcome::Converged,
                                });
                                accepted = Some((g, stage.strategy, iters, residual, tol));
                                accepted_hardening = hardening;
                                break 'levels;
                            }
                            let reason = StageFailureReason::ResidualAboveBudget {
                                residual,
                                budget: tol * scale,
                            };
                            attempts.push(StageAttempt {
                                strategy: stage.strategy,
                                tolerance: tol,
                                iterations: iters,
                                hardened: hardening.any(),
                                converged: false,
                                outcome: StageOutcome::Failed(reason.clone()),
                            });
                            warn(
                                &mut warnings,
                                SolveWarning::StageFailed {
                                    strategy: stage.strategy,
                                    reason,
                                },
                            );
                            performa_obs::flight::dump("stage_failed");
                            continue 'stages;
                        }
                        Err(QbdError::DeadlineExceeded { iterations, .. }) => {
                            performa_obs::event(
                                performa_obs::TraceLevel::Warn,
                                "qbd.deadline",
                                vec![
                                    ("strategy", stage.strategy.key().into()),
                                    ("iterations", iterations.into()),
                                ],
                            );
                            attempts.push(StageAttempt {
                                strategy: stage.strategy,
                                tolerance: tol,
                                iterations,
                                hardened: hardening.any(),
                                converged: false,
                                outcome: StageOutcome::DeadlineExceeded,
                            });
                            deadline_hit = true;
                            break 'levels;
                        }
                        Err(QbdError::Cancelled { iterations, .. }) => {
                            performa_obs::event(
                                performa_obs::TraceLevel::Warn,
                                "qbd.cancelled",
                                vec![
                                    ("strategy", stage.strategy.key().into()),
                                    ("iterations", iterations.into()),
                                ],
                            );
                            attempts.push(StageAttempt {
                                strategy: stage.strategy,
                                tolerance: tol,
                                iterations,
                                hardened: hardening.any(),
                                converged: false,
                                outcome: StageOutcome::Cancelled,
                            });
                            // Preserve the abandoned attempt's tail for
                            // the post-mortem before the drain discards
                            // this point.
                            performa_obs::flight::dump("cancelled");
                            cancel_hit = true;
                            break 'levels;
                        }
                        Err(e) => {
                            let iterations = match e {
                                QbdError::NoConvergence { iterations, .. } => iterations,
                                QbdError::NumericalBreakdown { iteration, .. } => iteration,
                                _ => 0,
                            };
                            let breakdown =
                                matches!(e, QbdError::NumericalBreakdown { .. });
                            let reason = StageFailureReason::from_error(&e);
                            attempts.push(StageAttempt {
                                strategy: stage.strategy,
                                tolerance: tol,
                                iterations,
                                hardened: hardening.any(),
                                converged: false,
                                outcome: StageOutcome::Failed(reason.clone()),
                            });
                            warn(
                                &mut warnings,
                                SolveWarning::StageFailed {
                                    strategy: stage.strategy,
                                    reason,
                                },
                            );
                            if breakdown && hardening != Hardening::full() {
                                hardening = Hardening::full();
                                warn(
                                    &mut warnings,
                                    SolveWarning::Hardened {
                                        cause: "numerical_breakdown",
                                    },
                                );
                                // A watchdog trip already dumped the ring
                                // mid-stage; this covers hardening after a
                                // non-watchdog breakdown path.
                                performa_obs::flight::dump("hardened");
                                continue;
                            }
                            performa_obs::flight::dump("stage_failed");
                            continue 'stages;
                        }
                    }
                }
            }
        }

        let total_iterations: usize = attempts.iter().map(|a| a.iterations).sum();
        let Some((g, strategy, iterations, residual, tol_used)) = accepted else {
            return Err(if cancel_hit {
                QbdError::Cancelled {
                    stage: "solver supervisor",
                    iterations: total_iterations,
                }
            } else if deadline_hit {
                QbdError::DeadlineExceeded {
                    stage: "solver supervisor",
                    iterations: total_iterations,
                }
            } else {
                QbdError::NoConvergence {
                    stage: "solver supervisor",
                    iterations: total_iterations,
                    residual: best_residual,
                }
            });
        };
        if tol_used > self.options.tolerance {
            warn(
                &mut warnings,
                SolveWarning::ToleranceRelaxed {
                    requested: self.options.tolerance,
                    used: tol_used,
                },
            );
        }

        let (mut cond_r, mut cond_b) = (0.0, 0.0);
        let mut r = self
            .qbd
            .r_from_g_with_cond(&g, accepted_hardening, Some(&mut cond_r))?;
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
            if !accepted_hardening.refine {
                warn(
                    &mut warnings,
                    SolveWarning::Hardened {
                        cause: "ill_conditioned",
                    },
                );
                let refined = Hardening {
                    equilibrate: true,
                    refine: true,
                    ..accepted_hardening
                };
                let r2 = self.qbd.r_from_g_with_cond(&g, refined, None)?;
                if all_finite(&r2) {
                    r = r2;
                }
            }
        }
        let solution = self
            .qbd
            .boundary_from_gr(g, r, accepted_hardening, Some(&mut cond_b))?;
        if cond_b > self.options.condition_threshold {
            warn(
                &mut warnings,
                SolveWarning::IllConditioned {
                    context: "boundary system",
                    estimate: cond_b,
                },
            );
        }

        let degraded = tol_used > self.options.tolerance
            || attempts.iter().any(|a| !a.converged);
        let report = SolveReport {
            strategy,
            iterations,
            total_iterations,
            residual,
            tolerance_requested: self.options.tolerance,
            tolerance_used: tol_used,
            condition_estimate: cond_r.max(cond_b),
            degraded,
            warnings,
            attempts,
            elapsed: start.elapsed(),
            kernel: self.qbd.kernel_tag(),
        };
        Ok((solution, report))
    }

    fn run_stage(
        &self,
        stage: StageBudget,
        tolerance: f64,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        hardening: Hardening,
    ) -> Result<(Matrix, usize)> {
        match stage.strategy {
            GStrategy::NeutsSubstitution => {
                self.qbd
                    .g_neuts_counted(tolerance, stage.max_iterations, deadline, cancel, hardening)
            }
            GStrategy::FunctionalIteration => self.qbd.g_functional_counted(
                tolerance,
                stage.max_iterations,
                deadline,
                cancel,
                hardening,
                None,
            ),
            GStrategy::LogarithmicReduction => {
                self.qbd
                    .g_logred_counted(tolerance, stage.max_iterations, deadline, cancel, hardening)
            }
        }
    }
}

/// True residual of the G fixed-point equation.
fn g_residual(qbd: &Qbd, g: &Matrix) -> f64 {
    qbd.g_residual(g)
}

/// Clamps negative entries to zero and rescales each row of `G` to sum
/// to one (for a recurrent chain `G` is stochastic); returns the largest
/// deviation repaired.
fn renormalize_g(g: &mut Matrix) -> f64 {
    let m = g.nrows();
    let mut drift: f64 = 0.0;
    for i in 0..m {
        let mut sum = 0.0;
        for j in 0..m {
            let v = g[(i, j)];
            if v < 0.0 {
                drift = drift.max(-v);
                g[(i, j)] = 0.0;
            } else {
                sum += v;
            }
        }
        drift = drift.max((sum - 1.0).abs());
        if sum > 0.0 {
            for j in 0..m {
                g[(i, j)] /= sum;
            }
        }
    }
    drift
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
        assert_eq!(report.strategy, GStrategy::LogarithmicReduction);
        assert!(report.iterations > 0);
        assert!(report.residual.is_finite());
        assert!(report.attempts.iter().all(|a| a.converged));
        assert_eq!(report.tolerance_used, report.tolerance_requested);
    }

    #[test]
    fn every_strategy_first_in_chain_agrees() {
        let qbd = mmpp2(1.2);
        let reference = qbd.solve().unwrap().mean_queue_length();
        for strategy in [
            GStrategy::NeutsSubstitution,
            GStrategy::FunctionalIteration,
            GStrategy::LogarithmicReduction,
        ] {
            let options = SupervisorOptions::default()
                .with_chain(vec![StageBudget::new(strategy, 100_000)]);
            let (sol, report) =
                SolverSupervisor::with_options(qbd.clone(), options).solve().unwrap();
            assert_eq!(report.strategy, strategy);
            assert!(
                (sol.mean_queue_length() - reference).abs() < 1e-7,
                "{strategy}: {} vs {reference}",
                sol.mean_queue_length()
            );
        }
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
    fn tolerance_relaxation_is_reported_never_silent() {
        // A single linearly-convergent stage with a budget too small for
        // the requested 1e-12: the supervisor must relax, flag the solve
        // as degraded, and say so in the warnings.
        let qbd = mm1(0.8, 1.0);
        let options = SupervisorOptions {
            chain: vec![StageBudget::new(GStrategy::FunctionalIteration, 150)],
            tolerance: 1e-12,
            max_relaxations: 4,
            relaxation_factor: 100.0,
            ..SupervisorOptions::default()
        };
        let (sol, report) = SolverSupervisor::with_options(qbd, options).solve().unwrap();
        assert!(report.degraded);
        assert!(report.tolerance_used > report.tolerance_requested);
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::ToleranceRelaxed { .. })));
        assert!(report.attempts.iter().any(|a| !a.converged));
        // Even degraded, the answer stays within the relaxed bound.
        let exact = 0.8 / (1.0 - 0.8);
        assert!((sol.mean_queue_length() - exact).abs() < 1e-2);
    }

    #[test]
    fn exhausted_chain_reports_no_convergence() {
        let qbd = mm1(0.9, 1.0);
        let options = SupervisorOptions {
            chain: vec![StageBudget::new(GStrategy::FunctionalIteration, 3)],
            tolerance: 1e-14,
            max_relaxations: 1,
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::NoConvergence { .. })
        ));
    }

    #[test]
    fn immediate_deadline_yields_deadline_error() {
        let qbd = mmpp2(1.0);
        let options = SupervisorOptions::default().with_deadline(Duration::ZERO);
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn tripped_token_yields_cancelled_error() {
        let qbd = mmpp2(1.0);
        let token = CancelToken::new();
        token.cancel();
        let options = SupervisorOptions::default().with_cancel(token);
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
        let token = CancelToken::new();
        token.cancel();
        let options = SupervisorOptions::default()
            .with_deadline(Duration::ZERO)
            .with_cancel(token);
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
        let (_, report) = SolverSupervisor::with_options(qbd, options).solve().unwrap();
        assert!(report.condition_estimate > 0.5);
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::IllConditioned { .. })));
    }

    #[test]
    fn empty_chain_is_rejected() {
        let qbd = mm1(0.5, 1.0);
        let options = SupervisorOptions {
            chain: vec![],
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            SolverSupervisor::with_options(qbd, options).solve(),
            Err(QbdError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn renormalize_repairs_drift() {
        let mut g = Matrix::from_rows(&[&[0.6, 0.5], &[-0.01, 1.0]]);
        let drift = renormalize_g(&mut g);
        assert!(drift > 0.09);
        for i in 0..2 {
            let s: f64 = g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(g.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn near_null_recurrent_chain_is_hardened_from_the_start() {
        // rho = 0.995 sits inside the default 0.02 saturation margin:
        // the drift pre-check must engage full hardening pre-emptively
        // and say so, and the solve must still be clean (not degraded).
        let qbd = mm1(0.995, 1.0);
        let (sol, report) = SolverSupervisor::new(qbd).solve().unwrap();
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::Hardened { cause } if *cause == "near_null_recurrent")));
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
        // Poison logred at iteration 1: the first (plain) run breaks
        // down, the supervisor retries the SAME stage hardened (the
        // poison hits again), and only then falls back — visible as two
        // logred attempts, the second hardened.
        let _guard = crate::fault::arm(crate::fault::FaultPlan {
            poison: Some(("logred", 1)),
            ..Default::default()
        });
        let (_, report) = SolverSupervisor::new(mmpp2(1.0)).solve().unwrap();
        let logred: Vec<_> = report
            .attempts
            .iter()
            .filter(|a| a.strategy == GStrategy::LogarithmicReduction && !a.converged)
            .collect();
        assert!(logred.len() >= 2, "expected a hardened retry: {logred:?}");
        assert!(!logred[0].hardened);
        assert!(logred[1].hardened);
        assert!(report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::Hardened { cause } if *cause == "numerical_breakdown")));
        assert!(report.degraded);
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
