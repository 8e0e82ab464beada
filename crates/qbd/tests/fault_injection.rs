//! Watchdog demonstrations under injected faults.
//!
//! These tests only exist with `--features fault-injection`; each arms a
//! [`performa_qbd::fault::FaultPlan`] sabotaging one G-matrix stage and
//! asserts that the corresponding watchdog fires and the supervisor
//! recovers (or reports the typed failure).

#![cfg(feature = "fault-injection")]

use std::time::Duration;

use performa_ctrl::Stop;
use performa_linalg::{Matrix, Vector};
use performa_qbd::{
    fault, GStrategy, Qbd, QbdError, SolveWarning, SolverSupervisor, StageBudget,
    SupervisorOptions,
};

fn mmpp2(lambda: f64) -> Qbd {
    let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
    let rates = Vector::from(vec![2.0, 0.2]);
    Qbd::m_mmpp1(lambda, &q, &rates).unwrap()
}

#[test]
fn injected_nan_triggers_fallback_to_next_strategy() {
    let _guard = fault::arm(fault::FaultPlan {
        poison: Some(("neuts", 1)),
        ..Default::default()
    });
    // Neuts-led reference chain, so the poisoned stage runs first.
    let (solution, report) =
        SolverSupervisor::with_options(mmpp2(1.0), SupervisorOptions::reference())
            .solve()
            .unwrap();

    // The NaN watchdog must abort the poisoned opening stage...
    assert_ne!(report.strategy, GStrategy::NeutsSubstitution);
    assert!(report.degraded);
    assert!(report.warnings.iter().any(|w| matches!(
        w,
        SolveWarning::StageFailed {
            strategy: GStrategy::NeutsSubstitution,
            reason: performa_qbd::StageFailureReason::NumericalBreakdown { .. },
        }
    )));
    // The rendered reason still names the non-finite watchdog.
    assert!(report
        .warnings
        .iter()
        .any(|w| w.to_string().contains("non-finite")));
    // ...and the fallback result must still be correct.
    let reference = mmpp2(1.0).solve().unwrap();
    assert!((solution.mean_queue_length() - reference.mean_queue_length()).abs() < 1e-8);
    assert!(report.residual.is_finite());
}

#[test]
fn injected_nan_in_every_stage_is_a_typed_error_not_a_panic() {
    // Poison whichever stage runs: restrict the chain to one strategy and
    // poison it; the supervisor must return NoConvergence (all stages
    // failed), never a panic or a NaN-laden solution.
    for (key, strategy) in [
        ("neuts", GStrategy::NeutsSubstitution),
        ("functional", GStrategy::FunctionalIteration),
        ("logred", GStrategy::LogarithmicReduction),
    ] {
        let _guard = fault::arm(fault::FaultPlan {
            poison: Some((key, 0)),
            ..Default::default()
        });
        let options = SupervisorOptions {
            chain: vec![StageBudget::new(strategy, 1_000)],
            max_relaxations: 1,
            ..SupervisorOptions::default()
        };
        let err = SolverSupervisor::with_options(mmpp2(1.0), options)
            .solve()
            .unwrap_err();
        assert!(
            matches!(err, QbdError::NoConvergence { .. }),
            "{key}: {err}"
        );
    }
}

#[test]
fn injected_stall_exhausts_budget_and_falls_back() {
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("neuts"),
        ..Default::default()
    });
    let options = SupervisorOptions {
        chain: vec![
            StageBudget::new(GStrategy::NeutsSubstitution, 50),
            StageBudget::new(GStrategy::LogarithmicReduction, 200),
        ],
        ..SupervisorOptions::default()
    };
    let (solution, report) = SolverSupervisor::with_options(mmpp2(1.0), options)
        .solve()
        .unwrap();

    assert_eq!(report.strategy, GStrategy::LogarithmicReduction);
    assert!(report.degraded);
    // The stalled stage burned its whole budget before the supervisor
    // moved on.
    let stalled = &report.attempts[0];
    assert_eq!(stalled.strategy, GStrategy::NeutsSubstitution);
    assert_eq!(stalled.iterations, 50);
    assert!(!stalled.converged);
    let reference = mmpp2(1.0).solve().unwrap();
    assert!((solution.mean_queue_length() - reference.mean_queue_length()).abs() < 1e-8);
}

#[test]
fn injected_stall_under_deadline_returns_typed_deadline_error() {
    // A stalled only-stage plus a tight wall-clock budget: the deadline
    // watchdog must cut the solve short with a typed error.
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("neuts"),
        ..Default::default()
    });
    let options = SupervisorOptions {
        chain: vec![StageBudget::new(GStrategy::NeutsSubstitution, usize::MAX)],
        stop: Stop::default().child(Duration::from_millis(50)),
        ..SupervisorOptions::default()
    };
    let err = SolverSupervisor::with_options(mmpp2(1.0), options)
        .solve()
        .unwrap_err();
    assert!(matches!(err, QbdError::DeadlineExceeded { .. }), "{err}");
}

#[test]
fn forced_fallback_dumps_flight_recorder() {
    // A stalled opening stage must leave a forensic trail: when the
    // supervisor abandons it, the flight recorder dumps the last K
    // iteration records it saw, as Warn-level events any sink receives.
    let _obs_guard = performa_obs::test_lock();
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("neuts"),
        ..Default::default()
    });
    let sink = std::sync::Arc::new(performa_obs::MemorySink::new());
    let id = performa_obs::add_sink(sink.clone());
    performa_obs::set_level(performa_obs::TraceLevel::Warn);
    let options = SupervisorOptions {
        chain: vec![
            StageBudget::new(GStrategy::NeutsSubstitution, 500),
            StageBudget::new(GStrategy::LogarithmicReduction, 200),
        ],
        ..SupervisorOptions::default()
    };
    let result = SolverSupervisor::with_options(mmpp2(1.0), options).solve();
    performa_obs::set_level(performa_obs::TraceLevel::Off);
    performa_obs::remove_sink(id);
    let (_, report) = result.unwrap();
    assert_eq!(report.strategy, GStrategy::LogarithmicReduction);

    let dumps = sink.events_named("qbd.flight");
    assert!(!dumps.is_empty(), "abandoning a stage must dump the ring");
    let dump = &dumps[0];
    assert_eq!(
        dump.field("strategy").and_then(|v| v.as_str()),
        Some("neuts")
    );
    assert!(matches!(
        dump.field("trigger").and_then(|v| v.as_str()),
        Some("stage_failed" | "watchdog")
    ));

    // The per-iteration extract: bounded by the ring capacity, carrying
    // the stage key, iteration index and a residual per record.
    let iters = sink.events_named("qbd.flight.iter");
    assert!(!iters.is_empty(), "the stalled stage ran, so the ring was non-empty");
    assert!(iters.len() <= performa_obs::flight::CAPACITY * dumps.len());
    for rec in &iters {
        assert_eq!(rec.field("stage").and_then(|v| v.as_str()), Some("neuts"));
        assert!(rec.field("iteration").is_some());
        assert!(rec.field("residual").is_some());
    }
}

#[test]
fn disarm_restores_clean_solves() {
    {
        let _guard = fault::arm(fault::FaultPlan {
            poison: Some(("logred", 0)),
            ..Default::default()
        });
        let (_, report) = SolverSupervisor::new(mmpp2(1.0)).solve().unwrap();
        assert!(report.degraded);
    } // guard dropped => plan disarmed
    let (_, report) = SolverSupervisor::new(mmpp2(1.0)).solve().unwrap();
    assert!(!report.degraded);
    assert_eq!(report.strategy, GStrategy::LogarithmicReduction);
}
