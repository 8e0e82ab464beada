//! Watchdog demonstrations under injected faults.
//!
//! These tests only exist with `--features fault-injection`; each arms a
//! [`performa_qbd::fault::FaultPlan`] sabotaging logarithmic reduction
//! and asserts that the corresponding watchdog fires and the supervisor
//! recovers through its one hardened retry (or reports the typed
//! failure).
//!
//! A global poison is one-shot and consumed by whichever solve reaches
//! it first, so every test here runs its solves under one shared lock.

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use performa_ctrl::Stop;
use performa_linalg::{Matrix, Vector};
use performa_qbd::{
    fault, Qbd, QbdError, SolveWarning, SolverSupervisor, StageFailureReason, StageOutcome,
    SupervisorOptions,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn mmpp2(lambda: f64) -> Qbd {
    let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
    let rates = Vector::from(vec![2.0, 0.2]);
    Qbd::m_mmpp1(lambda, &q, &rates).unwrap()
}

#[test]
fn one_shot_poison_is_rescued_by_the_hardened_retry() {
    let _serial = serial();
    let reference = mmpp2(1.0).solve().unwrap();
    // Global poison is one-shot: the plain attempt breaks down, the
    // hardened retry runs clean.
    let armed = fault::arm_global(fault::FaultPlan {
        poison: Some(("logred", 1)),
        ..Default::default()
    });
    let result = SolverSupervisor::new(mmpp2(1.0)).solve();
    drop(armed);
    let (solution, report) = result.unwrap();

    assert_eq!(report.attempts.len(), 2, "{:?}", report.attempts);
    assert!(!report.attempts[0].hardened);
    assert_ne!(report.attempts[0].outcome, StageOutcome::Converged);
    assert!(report.attempts[1].hardened);
    assert_eq!(report.attempts[1].outcome, StageOutcome::Converged);
    assert!(report.degraded);
    let failed: Vec<_> = report
        .warnings
        .iter()
        .filter(|w| {
            matches!(
                w,
                SolveWarning::StageFailed {
                    reason: StageFailureReason::NumericalBreakdown { .. },
                }
            )
        })
        .collect();
    assert_eq!(failed.len(), 1, "{:?}", report.warnings);
    // The rendered reason still names the non-finite watchdog.
    assert!(
        failed[0].to_string().contains("non-finite"),
        "{}",
        failed[0]
    );
    // ...and the retry's result must still be correct.
    assert!((solution.mean_queue_length() - reference.mean_queue_length()).abs() < 1e-8);
    assert!(report.residual.is_finite());
}

#[test]
fn thread_local_poison_hits_the_retry_and_is_a_typed_error() {
    // A thread-local poison hits every attempt on this thread, the
    // hardened retry included: the solve must end in NoConvergence,
    // never a panic or a NaN-laden solution.
    let _serial = serial();
    let _guard = fault::arm(fault::FaultPlan {
        poison: Some(("logred", 0)),
        ..Default::default()
    });
    let err = SolverSupervisor::new(mmpp2(1.0)).solve().unwrap_err();
    assert!(
        matches!(
            err,
            QbdError::NoConvergence {
                stage: "solver supervisor",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn injected_stall_exhausts_the_budget_without_a_retry() {
    // An exhausted budget is no breakdown: one attempt of exactly
    // `max_iterations`, then a typed failure.
    let _serial = serial();
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("logred"),
        ..Default::default()
    });
    let options = SupervisorOptions::default().with_max_iterations(50);
    let err = SolverSupervisor::with_options(mmpp2(1.0), options)
        .solve()
        .unwrap_err();
    assert!(
        matches!(
            err,
            QbdError::NoConvergence {
                stage: "solver supervisor",
                iterations: 50,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn injected_stall_under_deadline_returns_typed_deadline_error() {
    // A stalled attempt plus a tight wall-clock budget: the deadline
    // watchdog must cut the solve short with a typed error.
    let _serial = serial();
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("logred"),
        ..Default::default()
    });
    let options = SupervisorOptions::default()
        .with_max_iterations(usize::MAX)
        .with_stop(Stop::default().child(Duration::from_millis(50)));
    let err = SolverSupervisor::with_options(mmpp2(1.0), options)
        .solve()
        .unwrap_err();
    assert!(matches!(err, QbdError::DeadlineExceeded { .. }), "{err}");
}

#[test]
fn rejected_attempt_dumps_flight_recorder() {
    // A rejected attempt must leave a forensic trail: the flight
    // recorder dumps the last K iteration records it saw, as Warn-level
    // events any sink receives.
    let _serial = serial();
    let _obs_guard = performa_obs::test_lock();
    let _guard = fault::arm(fault::FaultPlan {
        stall: Some("logred"),
        ..Default::default()
    });
    // A short budget, so the stall ends by exhaustion before the
    // unconverging iterates overflow into a watchdog trip.
    let options = SupervisorOptions::default().with_max_iterations(50);
    let sink = std::sync::Arc::new(performa_obs::MemorySink::new());
    let id = performa_obs::add_sink(sink.clone());
    performa_obs::set_level(performa_obs::TraceLevel::Warn);
    let result = SolverSupervisor::with_options(mmpp2(1.0), options).solve();
    performa_obs::set_level(performa_obs::TraceLevel::Off);
    performa_obs::remove_sink(id);
    assert!(matches!(result, Err(QbdError::NoConvergence { .. })));

    let dumps = sink.events_named("qbd.flight");
    assert!(!dumps.is_empty(), "a rejected attempt must dump the ring");
    let dump = &dumps[0];
    assert_eq!(
        dump.field("strategy").and_then(|v| v.as_str()),
        Some("logred")
    );
    assert_eq!(
        dump.field("trigger").and_then(|v| v.as_str()),
        Some("stage_failed")
    );

    // The per-iteration extract: bounded by the ring capacity, carrying
    // the stage key, iteration index and a residual per record.
    let iters = sink.events_named("qbd.flight.iter");
    assert!(
        !iters.is_empty(),
        "the stalled attempt ran, so the ring was non-empty"
    );
    assert!(iters.len() <= performa_obs::flight::CAPACITY * dumps.len());
    for rec in &iters {
        assert_eq!(rec.field("stage").and_then(|v| v.as_str()), Some("logred"));
        assert!(rec.field("iteration").is_some());
        assert!(rec.field("residual").is_some());
    }
}

#[test]
fn disarm_restores_clean_solves() {
    let _serial = serial();
    {
        let _guard = fault::arm(fault::FaultPlan {
            poison: Some(("logred", 0)),
            ..Default::default()
        });
        assert!(SolverSupervisor::new(mmpp2(1.0)).solve().is_err());
    } // guard dropped => plan disarmed
    let (_, report) = SolverSupervisor::new(mmpp2(1.0)).solve().unwrap();
    assert!(!report.degraded);
    assert_eq!(report.attempts.len(), 1);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
}
