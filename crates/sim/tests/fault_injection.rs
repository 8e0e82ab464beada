//! Replication-runner watchdog demonstrations under injected faults.
//!
//! Only built with `--features fault-injection`. Each test injects a
//! deterministic fault via [`FaultPlan`] and asserts the runner's
//! containment machinery does its job.

#![cfg(feature = "fault-injection")]

use std::time::Duration;

use performa_ctrl::Stop;
use performa_sim::replicate::{
    run_replications_with_faults, FaultPlan, ReplicationOptions,
};
use performa_sim::SimError;

#[test]
fn injected_panic_is_isolated_and_retried() {
    let plan = FaultPlan::panicking(vec![3]);
    let options = ReplicationOptions::with_threads(2).with_max_retries(2);
    let outcome =
        run_replications_with_faults(8, 0, &options, &plan, |seed| seed as f64).unwrap();

    // The panic never escaped, the replication was retried once with a
    // fresh seed, and the sweep is complete — not degraded.
    assert_eq!(outcome.completed, 8);
    assert_eq!(outcome.retried, 1);
    assert!(outcome.failures.is_empty());
    assert!(!outcome.degraded());
}

#[test]
fn injected_persistent_panic_drops_only_that_replication() {
    let plan = FaultPlan {
        panic_on: vec![1],
        fault_attempts: u32::MAX,
        ..FaultPlan::default()
    };
    let options = ReplicationOptions::with_threads(2).with_max_retries(1);
    let outcome =
        run_replications_with_faults(6, 0, &options, &plan, |seed| seed as f64).unwrap();

    assert_eq!(outcome.completed, 5);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].replication, 1);
    assert!(outcome.failures[0].reason.contains("injected fault"));
    assert!(outcome.degraded());
}

#[test]
fn injected_nan_trips_the_watchdog_and_recovers() {
    let plan = FaultPlan {
        nan_on: vec![0, 4],
        fault_attempts: 1,
        ..FaultPlan::default()
    };
    let options = ReplicationOptions::with_threads(1).with_max_retries(2);
    let outcome =
        run_replications_with_faults(6, 100, &options, &plan, |seed| seed as f64).unwrap();

    assert_eq!(outcome.completed, 6);
    assert_eq!(outcome.retried, 2);
    assert!(outcome.values.iter().all(|v| v.is_finite()));
    assert!(!outcome.degraded());
}

#[test]
fn injected_stall_hits_the_deadline_and_returns_partial_results() {
    // Every replication stalls 20 ms; the 70 ms budget admits only a few
    // of the 40 requested. The runner must return the completed subset
    // with the degraded flag set — not hang, not panic, not discard.
    let plan = FaultPlan {
        stall_on: (0..40).collect(),
        stall: Duration::from_millis(20),
        ..FaultPlan::default()
    };
    let options = ReplicationOptions::with_threads(1)
        .with_stop(Stop::default().child(Duration::from_millis(70)));
    let outcome =
        run_replications_with_faults(40, 0, &options, &plan, |seed| seed as f64).unwrap();

    assert!(outcome.completed >= 1);
    assert!(outcome.completed < 40, "completed {}", outcome.completed);
    assert!(outcome.deadline_hit);
    assert!(outcome.skipped > 0);
    assert!(outcome.degraded());
}

#[test]
fn stalled_everything_under_deadline_is_a_typed_error() {
    let plan = FaultPlan {
        stall_on: vec![0, 1],
        stall: Duration::from_millis(100),
        panic_on: vec![0, 1],
        fault_attempts: u32::MAX,
        ..FaultPlan::default()
    };
    let options = ReplicationOptions::with_threads(1)
        .with_stop(Stop::default().child(Duration::from_millis(40)))
        .with_max_retries(0);
    let err = run_replications_with_faults(2, 0, &options, &plan, |seed| seed as f64)
        .unwrap_err();
    assert!(matches!(err, SimError::NoSuccessfulReplications { .. }), "{err}");
}
