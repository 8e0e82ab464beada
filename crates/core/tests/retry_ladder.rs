//! Retry-ladder coverage via fault injection: a poisoned cold solve
//! recovers through the ladder's one hardened retry, a stalled solver
//! exhausts its budget — which earns no retry — and persists a typed
//! failure record.
//!
//! The injected plans are process-wide (`arm_global`) because sweep
//! pool workers are fresh threads; the tests serialize on a local lock
//! so the plans never overlap.
#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use performa_core::{
    Axis, ClusterModel, CoreError, Scenario, StoreHandle, SweepOptions, SweepPlan,
};
use performa_dist::Exponential;
use performa_qbd::fault::{arm_global, FaultPlan};

static SERIAL: Mutex<()> = Mutex::new(());
static NEXT: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_core_retry_{tag}_{}_{}.log",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn one_point_plan() -> SweepPlan {
    let template = ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(Exponential::with_mean(10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap();
    Scenario::new(template, Axis::Rho(vec![0.6])).compile()
}

fn serial_opts() -> SweepOptions {
    SweepOptions::default().with_threads(1)
}

#[test]
fn poisoned_cold_solve_recovers_via_the_hardened_retry() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline without faults, for the bit-identity check below.
    let baseline = one_point_plan()
        .with_options(serial_opts())
        .run_map(|s| s.mean_queue_length())
        .expect_values("baseline")[0];

    // One-shot poison: the plain attempt hits a NaN watchdog
    // (NumericalBreakdown); the hardened retry runs unpoisoned.
    let _armed = arm_global(FaultPlan {
        poison: Some(("logred", 1)),
        stall: None,
    });
    let result = one_point_plan()
        .with_options(serial_opts())
        .run_map(|s| s.mean_queue_length());
    assert_eq!(result.stats().retries, 1, "ladder did not fire");
    assert_eq!(result.stats().solved, 1, "hardened retry did not recover");
    // The hardened path solves the same chain to the same tolerance;
    // for this well-conditioned point it reproduces the plain answer.
    let recovered = result.expect_values("recovered")[0];
    assert!(
        (recovered - baseline).abs() <= 1e-9 * baseline.abs().max(1.0),
        "recovered {recovered} vs baseline {baseline}"
    );
}

#[test]
fn stalled_solver_exhausts_the_ladder_and_persists_the_failure() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = Scratch::new("stall");
    let open = || {
        let (handle, _) = StoreHandle::open(&scratch.0).unwrap();
        SweepOptions::default().with_threads(1).with_store(handle)
    };

    {
        // Persistent stall: the attempt burns its iteration budget. An
        // exhausted budget is no breakdown, so no retry follows.
        let _armed = arm_global(FaultPlan {
            poison: None,
            stall: Some("logred"),
        });
        let result = one_point_plan()
            .with_options(open())
            .run_map(|s| s.mean_queue_length());
        assert_eq!(result.stats().retries, 0);
        assert_eq!(result.stats().failed, 1);
        assert_eq!(result.stats().store_appends, 1, "failure record not persisted");
        assert!(matches!(
            result.points()[0].outcome,
            Err(CoreError::Qbd(performa_qbd::QbdError::NoConvergence { .. }))
        ));
    }

    // Faults disarmed: the persisted failure now *replays* — the
    // solver (which would succeed!) must not run.
    let replayed = one_point_plan()
        .with_options(open())
        .run_map(|s| s.mean_queue_length());
    assert_eq!(replayed.stats().store_hits, 1);
    assert!(matches!(
        replayed.points()[0].outcome,
        Err(CoreError::ReplayedFailure { .. })
    ));

    // `retry_failed` re-attempts and heals the store.
    let mut opts = open();
    opts.retry_failed = true;
    let healed = one_point_plan()
        .with_options(opts)
        .run_map(|s| s.mean_queue_length());
    assert_eq!(healed.stats().solved, 1);
    assert_eq!(healed.stats().store_appends, 1);

    let final_run = one_point_plan()
        .with_options(open())
        .run_map(|s| s.mean_queue_length());
    assert_eq!(final_run.stats().store_hits, 1);
    assert_eq!(final_run.stats().solved, 1);
}
