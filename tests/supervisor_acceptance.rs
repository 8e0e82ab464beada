//! The supervisor accepts the G a stage computed, on its own merits.
//!
//! Near the stability and blow-up boundaries logarithmic reduction
//! returns a G whose residual is ~3e-15 while its rows sum to one only
//! to ~1e-8. Rescaling those rows onto the stochastic set moves the
//! residual over its budget, so a supervisor that judged the
//! rescaled copy ran Neuts and functional iteration to their budgets,
//! relaxed the tolerance and returned a degraded, less accurate answer.
//! At N = 2, T = 10, ρ = 0.97 that took seconds and gave E[Q] =
//! 6018.716; logarithmic reduction's G, taken as computed, gives
//! 6017.9254158096 in milliseconds.
//!
//! A G that misses its budget is not rescued either: the supervisor
//! neither relaxes the tolerance nor runs a linear iteration after
//! logarithmic reduction, so an unattainable tolerance is a typed
//! failure.

use performa::core::CoreError;
use performa::qbd::{
    Hardening, QbdError, SolveOptions, SolveWarning, StageOutcome, SupervisorOptions,
};
use performa_experiments::{params, tpt_cluster_with};

/// E[Q] at N = 2, T = 10, ρ = 0.97 from logarithmic reduction's G as
/// computed, to 14 significant digits.
const MEAN_T10_RHO097: f64 = 6017.9254158096;

#[test]
fn converged_logred_g_is_accepted_as_computed() {
    let m = tpt_cluster_with(2, params::DELTA, 10, 0.97);
    // The reference skips the ladder: G straight from logarithmic
    // reduction, then R and the boundary, with no acceptance check.
    let qbd = m.to_qbd().expect("QBD");
    let g = qbd.g_matrix(SolveOptions::default()).expect("logred G");
    let split = qbd
        .solve_from_g(g, Hardening::default())
        .expect("split solve")
        .mean_queue_length();
    let (sol, report) = m
        .solve_supervised(SupervisorOptions::default())
        .expect("supervised solve");

    assert!(!report.degraded, "{}", report.summary());
    assert_eq!(report.attempts.len(), 1, "{:?}", report.attempts);
    assert_eq!(report.attempts[0].outcome, StageOutcome::Converged);
    assert!(
        !report
            .warnings
            .iter()
            .any(|w| matches!(w, SolveWarning::StageFailed { .. })),
        "{:?}",
        report.warnings
    );

    let eq = sol.mean_queue_length();
    assert_eq!(
        eq.to_bits(),
        split.to_bits(),
        "supervised E[Q] {eq} vs G as computed {split}"
    );
    assert!(
        ((eq - MEAN_T10_RHO097) / MEAN_T10_RHO097).abs() <= 1e-12,
        "supervised E[Q] {eq} vs {MEAN_T10_RHO097}"
    );
}

#[test]
fn unattainable_tolerance_is_a_typed_failure_not_a_degraded_result() {
    // Logred's residual at N = 2, T = 9, ρ = 0.7 is ~3e-15, over the
    // 1e-16 × block-norm budget. No tolerance is relaxed and no linear
    // iteration runs after it: the solve fails at once.
    let m = tpt_cluster_with(2, params::DELTA, 9, 0.7);
    let result = m.solve_supervised(SupervisorOptions::default().with_tolerance(1e-16));
    assert!(
        matches!(
            result,
            Err(CoreError::Qbd(QbdError::NoConvergence {
                stage: "solver supervisor",
                ..
            }))
        ),
        "{:?}",
        result.map(|(_, report)| report.summary())
    );
}
