use performa_dist::{Dist, Moments};
use performa_markov::{aggregate, Mmpp, ServerModel};
use performa_qbd::{Qbd, SolveOptions, SolveReport};

use crate::solution::ClusterSolution;
use crate::{CoreError, Result};

/// The paper's cluster model: `N` degradable servers behind a dispatcher
/// queue with Poisson task arrivals and exponential task service.
///
/// Construct through [`ClusterModel::builder`]; every parameter is
/// validated at [`ClusterBuilder::build`] time. The analytic pipeline is
///
/// 1. per-server UP/DOWN modulator (matrix-exponential periods),
/// 2. exact lumping of the `N`-server aggregate ([`aggregate::lumped`]),
/// 3. M/MMPP/1 QBD, solved matrix-geometrically.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    n: usize,
    nu_p: f64,
    delta: f64,
    up: Dist,
    down: Dist,
    lambda: f64,
}

impl ClusterModel {
    /// Starts a builder with the paper's defaults unset.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Number of servers `N`.
    pub fn servers(&self) -> usize {
        self.n
    }

    /// Peak per-server service rate `ν_p`.
    pub fn peak_rate(&self) -> f64 {
        self.nu_p
    }

    /// Degradation factor `δ` (`0` = crash).
    pub fn degradation(&self) -> f64 {
        self.delta
    }

    /// UP-period distribution.
    pub fn up(&self) -> &Dist {
        &self.up
    }

    /// DOWN-period (repair) distribution.
    pub fn down(&self) -> &Dist {
        &self.down
    }

    /// Task arrival rate `λ`.
    pub fn arrival_rate(&self) -> f64 {
        self.lambda
    }

    /// Mean time to failure (mean UP duration).
    pub fn mttf(&self) -> f64 {
        self.up.mean()
    }

    /// Mean time to repair (mean DOWN duration).
    pub fn mttr(&self) -> f64 {
        self.down.mean()
    }

    /// Per-node availability `A = MTTF/(MTTF + MTTR)` (paper Eq. 1).
    pub fn availability(&self) -> f64 {
        self.mttf() / (self.mttf() + self.mttr())
    }

    /// Long-run cluster capacity `ν̄ = N·ν_p·(A + δ·(1−A))`.
    pub fn capacity(&self) -> f64 {
        let a = self.availability();
        self.n as f64 * self.nu_p * (a + self.delta * (1.0 - a))
    }

    /// Utilization `ρ = λ/ν̄`.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.capacity()
    }

    /// Returns a copy with the arrival rate replaced.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a non-positive rate.
    pub fn with_arrival_rate(&self, lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(CoreError::InvalidParameter {
                message: format!("arrival rate {lambda} must be positive"),
            });
        }
        let mut m = self.clone();
        m.lambda = lambda;
        Ok(m)
    }

    /// Returns a copy with the arrival rate set so that the utilization is
    /// `rho`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless `0 < rho`.
    pub fn with_utilization(&self, rho: f64) -> Result<Self> {
        if !(rho.is_finite() && rho > 0.0) {
            return Err(CoreError::InvalidParameter {
                message: format!("utilization {rho} must be positive"),
            });
        }
        self.with_arrival_rate(rho * self.capacity())
    }

    /// Returns a copy with the per-node availability set to `a` by a
    /// **cycle-preserving rescale**: both period distributions keep
    /// their family and shape (SCV, tail exponent, stage structure) and
    /// only their means move, to `MTTF' = a·c` and `MTTR' = (1−a)·c`
    /// where `c = MTTF + MTTR` is the original failure/repair cycle
    /// length. The arrival rate is left untouched, so sweeping `a`
    /// downward at fixed λ walks the model into the instability
    /// region of the paper's Fig. 5 (`A* = 0.3125` for the base
    /// cluster at λ = 1.8).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless `0 < a < 1`;
    /// [`CoreError::Dist`] if a rescaled period leaves its family's
    /// domain.
    pub fn with_availability(&self, a: f64) -> Result<Self> {
        if !(a.is_finite() && a > 0.0 && a < 1.0) {
            return Err(CoreError::InvalidParameter {
                message: format!("availability {a} must lie in (0, 1)"),
            });
        }
        let cycle = self.mttf() + self.mttr();
        let mut m = self.clone();
        m.up = self.up.with_mean(a * cycle)?;
        m.down = self.down.with_mean((1.0 - a) * cycle)?;
        Ok(m)
    }

    /// The per-server UP/DOWN modulator used by the aggregation step.
    ///
    /// # Errors
    ///
    /// [`CoreError::Markov`] if the distributions cannot modulate a CTMC
    /// (never for the phase-type families enforced by the builder).
    pub fn server_model(&self) -> Result<ServerModel> {
        let up = self
            .up
            .to_matrix_exp()
            .expect("builder enforces phase-type UP");
        let down = self
            .down
            .to_matrix_exp()
            .expect("builder enforces phase-type DOWN");
        Ok(ServerModel::new(up, down, self.nu_p, self.delta)?)
    }

    /// The aggregated `N`-server service MMPP `⟨Q_N, L_N⟩`, built on the
    /// reduced occupancy state space.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterModel::server_model`] errors.
    pub fn service_process(&self) -> Result<Mmpp> {
        Ok(aggregate::lumped(&self.server_model()?, self.n)?)
    }

    /// The aggregated service MMPP built by plain Kronecker sums
    /// (exponential state space; for validation and ablation only).
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterModel::server_model`] errors.
    pub fn service_process_kronecker(&self) -> Result<Mmpp> {
        Ok(aggregate::kronecker(&self.server_model()?, self.n)?)
    }

    /// Assembles the M/MMPP/1 QBD.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the layers below.
    pub fn to_qbd(&self) -> Result<Qbd> {
        let mmpp = self.service_process()?;
        Ok(Qbd::m_mmpp1(
            self.lambda,
            mmpp.generator(),
            mmpp.rates(),
        )?)
    }

    /// Solves the model with default [`SolveOptions`]: the QBD solve
    /// ladder of [`Qbd::solve_reported`], without its report.
    ///
    /// # Errors
    ///
    /// See [`ClusterModel::solve_supervised`].
    pub fn solve(&self) -> Result<ClusterSolution> {
        Ok(self.solve_supervised(SolveOptions::default())?.0)
    }

    /// Solves the model through the QBD solve ladder
    /// ([`Qbd::solve_reported`]): logarithmic reduction with numerical
    /// watchdogs, drift, residual and sign checks, one fully hardened
    /// retry after a breakdown and an optional wall-clock deadline.
    ///
    /// Returns the solution together with a [`SolveReport`] describing
    /// how hard the solver had to work and whether the result is
    /// degraded (a breakdown rescued by the hardened retry).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unstable`] when `λ ≥ ν̄`; otherwise ladder failures
    /// from the QBD layer (rejected G, deadline, a negative mean queue
    /// length, invalid options).
    pub fn solve_supervised(
        &self,
        options: SolveOptions,
    ) -> Result<(ClusterSolution, SolveReport)> {
        let _span = performa_obs::span_with(
            "core.solve",
            vec![
                ("servers", self.n.into()),
                ("lambda", self.lambda.into()),
                ("rho", (self.lambda / self.capacity()).into()),
            ],
        );
        if self.lambda >= self.capacity() {
            performa_obs::event(
                performa_obs::TraceLevel::Error,
                "core.unstable",
                vec![
                    ("lambda", self.lambda.into()),
                    ("capacity", self.capacity().into()),
                ],
            );
            return Err(CoreError::Unstable {
                lambda: self.lambda,
                capacity: self.capacity(),
            });
        }
        let (sol, report) = self.to_qbd()?.solve_reported(&options)?;
        performa_obs::event(
            performa_obs::TraceLevel::Info,
            "core.solved",
            vec![
                ("degraded", report.degraded.into()),
                ("residual", report.residual.into()),
            ],
        );
        Ok((ClusterSolution::new(self.clone(), sol), report))
    }
}

/// Builder for [`ClusterModel`] (see the crate-level example).
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    n: Option<usize>,
    nu_p: Option<f64>,
    delta: Option<f64>,
    up: Option<Dist>,
    down: Option<Dist>,
    lambda: Option<f64>,
    rho: Option<f64>,
}

impl ClusterBuilder {
    /// Sets the number of servers `N ≥ 1`.
    pub fn servers(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the peak per-server service rate `ν_p > 0`.
    pub fn peak_rate(mut self, nu_p: f64) -> Self {
        self.nu_p = Some(nu_p);
        self
    }

    /// Sets the degradation factor `δ ∈ [0, 1]` (`0` = crash failure).
    pub fn degradation(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Sets the UP-period distribution (must be phase-type).
    pub fn up(mut self, up: impl Into<Dist>) -> Self {
        self.up = Some(up.into());
        self
    }

    /// Sets the DOWN-period (repair) distribution (must be phase-type).
    pub fn down(mut self, down: impl Into<Dist>) -> Self {
        self.down = Some(down.into());
        self
    }

    /// Sets the Poisson task arrival rate `λ` directly. Mutually exclusive
    /// with [`ClusterBuilder::utilization`].
    pub fn arrival_rate(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Sets the target utilization `ρ = λ/ν̄`; the arrival rate is derived
    /// from the capacity at build time. Mutually exclusive with
    /// [`ClusterBuilder::arrival_rate`].
    pub fn utilization(mut self, rho: f64) -> Self {
        self.rho = Some(rho);
        self
    }

    /// Validates and builds the model.
    ///
    /// # Errors
    ///
    /// * [`CoreError::MissingComponent`] when a required field is unset.
    /// * [`CoreError::InvalidParameter`] for out-of-domain values, a
    ///   non-phase-type period distribution, or when both `arrival_rate`
    ///   and `utilization` were supplied.
    pub fn build(self) -> Result<ClusterModel> {
        let n = self.n.ok_or(CoreError::MissingComponent {
            name: "server count",
        })?;
        if n == 0 {
            return Err(CoreError::InvalidParameter {
                message: "server count must be at least 1".into(),
            });
        }
        let nu_p = self.nu_p.ok_or(CoreError::MissingComponent {
            name: "peak service rate",
        })?;
        if !(nu_p.is_finite() && nu_p > 0.0) {
            return Err(CoreError::InvalidParameter {
                message: format!("peak service rate {nu_p} must be positive"),
            });
        }
        let delta = self.delta.unwrap_or(0.0);
        if !(delta.is_finite() && (0.0..=1.0).contains(&delta)) {
            return Err(CoreError::InvalidParameter {
                message: format!("degradation factor {delta} must lie in [0, 1]"),
            });
        }
        let up = self.up.ok_or(CoreError::MissingComponent {
            name: "up distribution",
        })?;
        let down = self.down.ok_or(CoreError::MissingComponent {
            name: "down distribution",
        })?;
        for (name, d) in [("up", &up), ("down", &down)] {
            match d.to_matrix_exp() {
                Some(me) if me.is_phase_type() => {}
                _ => {
                    return Err(CoreError::InvalidParameter {
                        message: format!(
                            "{name} distribution ({}) must be phase-type for the analytic \
                             model; use the simulator for general distributions",
                            d.family()
                        ),
                    })
                }
            }
        }

        let mut model = ClusterModel {
            n,
            nu_p,
            delta,
            up,
            down,
            lambda: 1.0, // provisional; replaced below
        };
        match (self.lambda, self.rho) {
            (Some(_), Some(_)) => {
                return Err(CoreError::InvalidParameter {
                    message: "set either arrival_rate or utilization, not both".into(),
                })
            }
            (Some(l), None) => {
                model = model.with_arrival_rate(l)?;
            }
            (None, Some(r)) => {
                model = model.with_utilization(r)?;
            }
            (None, None) => {
                return Err(CoreError::MissingComponent {
                    name: "arrival rate (or utilization)",
                })
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use performa_dist::{Exponential, Moments, Pareto, TruncatedPowerTail};
    use performa_qbd::Hardening;

    fn paper_model(rho: f64) -> ClusterModel {
        ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(Exponential::with_mean(10.0).unwrap())
            .utilization(rho)
            .build()
            .unwrap()
    }

    #[test]
    fn derived_quantities_match_paper() {
        let m = paper_model(0.5);
        assert!((m.availability() - 0.9).abs() < 1e-12);
        assert!((m.capacity() - 3.68).abs() < 1e-12);
        assert!((m.utilization() - 0.5).abs() < 1e-12);
        assert!((m.arrival_rate() - 1.84).abs() < 1e-12);
        assert_eq!(m.servers(), 2);
        assert_eq!(m.peak_rate(), 2.0);
        assert_eq!(m.degradation(), 0.2);
    }

    #[test]
    fn with_availability_pins_fig5_instability_at_a_star() {
        // Fig. 5 base cluster at λ = 1.8: capacity ν̄ = 4·(A + 0.2(1−A))
        // meets λ exactly at A* = (λ/(N·ν_p) − δ)/(1 − δ) = 0.3125.
        let base = ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(TruncatedPowerTail::with_mean(10, 1.4, 0.2, 10.0).unwrap())
            .arrival_rate(1.8)
            .build()
            .unwrap();
        let cycle = base.mttf() + base.mttr();

        let critical = base.with_availability(0.3125).unwrap();
        assert!((critical.capacity() - 1.8).abs() < 1e-12);
        assert!((critical.availability() - 0.3125).abs() < 1e-12);
        // Cycle-preserving: both periods moved, their sum did not.
        assert!((critical.mttf() + critical.mttr() - cycle).abs() < 1e-9);
        // Shape-preserving: the repair tail keeps its SCV.
        assert!((critical.down().scv() - base.down().scv()).abs() < 1e-9);

        // Below A* the model is unstable at this λ; comfortably above it
        // the model solves.
        assert!(matches!(
            base.with_availability(0.31).unwrap().solve(),
            Err(CoreError::Unstable { .. })
        ));
        assert!(base.with_availability(0.35).unwrap().solve().is_ok());

        // Domain validation.
        assert!(base.with_availability(0.0).is_err());
        assert!(base.with_availability(1.0).is_err());
        assert!(base.with_availability(f64::NAN).is_err());
    }

    #[test]
    fn builder_validation() {
        let up = Exponential::with_mean(90.0).unwrap();
        let down = Exponential::with_mean(10.0).unwrap();

        // Missing pieces.
        assert!(matches!(
            ClusterModel::builder().build(),
            Err(CoreError::MissingComponent { .. })
        ));
        assert!(ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .up(up)
            .down(down)
            .build()
            .is_err()); // no load specified

        // Bad values.
        assert!(ClusterModel::builder()
            .servers(0)
            .peak_rate(2.0)
            .up(up)
            .down(down)
            .utilization(0.5)
            .build()
            .is_err());
        assert!(ClusterModel::builder()
            .servers(2)
            .peak_rate(-2.0)
            .up(up)
            .down(down)
            .utilization(0.5)
            .build()
            .is_err());
        assert!(ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(1.5)
            .up(up)
            .down(down)
            .utilization(0.5)
            .build()
            .is_err());

        // Both load specs.
        assert!(ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .up(up)
            .down(down)
            .arrival_rate(1.0)
            .utilization(0.5)
            .build()
            .is_err());

        // Non-phase-type distribution rejected for the analytic model.
        assert!(ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .up(up)
            .down(Pareto::with_mean(1.4, 10.0).unwrap())
            .utilization(0.5)
            .build()
            .is_err());
    }

    #[test]
    fn default_degradation_is_crash() {
        let m = ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(Exponential::with_mean(10.0).unwrap())
            .utilization(0.5)
            .build()
            .unwrap();
        assert_eq!(m.degradation(), 0.0);
        assert!((m.capacity() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn unstable_load_rejected_at_solve() {
        let m = paper_model(0.5).with_arrival_rate(5.0).unwrap();
        assert!(matches!(m.solve(), Err(CoreError::Unstable { .. })));
    }

    #[test]
    fn exponential_repair_solution_is_modest() {
        let sol = paper_model(0.5).solve().unwrap();
        // With exponential repairs the normalized mean stays small.
        let norm = sol.normalized_mean_queue_length();
        assert!(norm > 1.0 && norm < 10.0, "normalized mean {norm}");
    }

    #[test]
    fn service_process_dimensions() {
        let tpt = ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(TruncatedPowerTail::with_mean(10, 1.4, 0.2, 10.0).unwrap())
            .utilization(0.5)
            .build()
            .unwrap();
        // 11 phases/server: lumped pairs = C(12, 2) = 66 vs 121 Kronecker.
        assert_eq!(tpt.service_process().unwrap().dim(), 66);
        assert_eq!(tpt.service_process_kronecker().unwrap().dim(), 121);
    }

    #[test]
    fn supervised_solve_matches_plain_solve() {
        // The plain reference runs no ladder: G from logarithmic
        // reduction, then R and the boundary, with no acceptance check.
        let m = paper_model(0.5);
        let qbd = m.to_qbd().unwrap();
        let g = qbd.g_matrix(SolveOptions::default()).unwrap();
        let plain = qbd.solve_from_g(g, Hardening::default()).unwrap();
        let (sup, report) = m.solve_supervised(SolveOptions::default()).unwrap();
        let solved = m.solve().unwrap();
        for (path, mean) in [
            ("solve_supervised", sup.mean_queue_length()),
            ("solve", solved.mean_queue_length()),
        ] {
            assert_eq!(
                mean.to_bits(),
                plain.mean_queue_length().to_bits(),
                "{path}: {mean} vs {}",
                plain.mean_queue_length()
            );
        }
        assert!(!report.degraded);
        assert!(report.residual.is_finite() && report.residual < 1e-8);
    }

    #[test]
    fn supervised_solve_rejects_unstable_load() {
        let m = paper_model(0.5).with_arrival_rate(5.0).unwrap();
        assert!(matches!(
            m.solve_supervised(SolveOptions::default()),
            Err(CoreError::Unstable { .. })
        ));
    }

    #[test]
    fn with_utilization_roundtrip() {
        let m = paper_model(0.3);
        let m2 = m.with_utilization(0.7).unwrap();
        assert!((m2.utilization() - 0.7).abs() < 1e-12);
        assert!(m.with_utilization(-0.5).is_err());
        assert!(m.with_arrival_rate(f64::NAN).is_err());
    }
}
