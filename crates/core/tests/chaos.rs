//! Chaos suite for the control fabric: cooperative cancellation, run
//! budgets, hung-point quarantine, and their composition with injected
//! store/solver faults.
//!
//! Every test takes `performa_obs::test_lock()` for its whole body:
//! the obs recorder is process-global, and the fault-armed tests
//! (compiled under `fault-injection`) use the solver's *global* fault
//! plan, which must never overlap another test's solve.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use performa_core::{
    Axis, ClusterModel, CoreError, Scenario, Stop, StoreHandle, SweepOptions, SweepPlan,
};
use performa_dist::Exponential;
use performa_obs as obs;

static NEXT: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_core_chaos_{tag}_{}_{}.log",
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

/// Small, fast paper-style cluster (exponential repairs keep the phase
/// dimension tiny, so debug-mode solves stay cheap).
fn template() -> ClusterModel {
    ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(Exponential::with_mean(10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap()
}

fn rho_plan(rhos: Vec<f64>) -> SweepPlan {
    Scenario::new(template(), Axis::Rho(rhos)).compile()
}

fn opts_with_store(path: &Path) -> (SweepOptions, StoreHandle) {
    let (handle, _) = StoreHandle::open(path).unwrap();
    (
        // One worker issues points in index order, which makes the
        // "cancel after the k-th solve" scripts deterministic.
        SweepOptions::default().with_store(handle.clone()).with_threads(1),
        handle,
    )
}

/// An NDJSON sink attached for the duration of one chaos run; metrics
/// only reach sinks at `Debug` verbosity.
struct Trace {
    path: PathBuf,
    id: obs::SinkId,
}

impl Trace {
    fn attach(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_core_chaos_trace_{tag}_{}_{}.ndjson",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let sink = Arc::new(obs::NdjsonSink::create(&path).unwrap());
        let id = obs::add_sink(sink);
        obs::set_level(obs::TraceLevel::Debug);
        Trace { path, id }
    }

    /// Detaches the sink and returns the counter lines with `name`.
    fn counter_lines(self, name: &str) -> Vec<String> {
        obs::set_level(obs::TraceLevel::Off);
        obs::flush_sinks();
        obs::remove_sink(self.id);
        let text = std::fs::read_to_string(&self.path).unwrap();
        obs::ndjson::validate_file(&self.path)
            .unwrap_or_else(|(line, msg)| panic!("trace line {line}: {msg}"));
        let _ = std::fs::remove_file(&self.path);
        text.lines()
            .filter(|l| l.contains(&format!("\"{name}\"")) && l.contains("\"counter\""))
            .map(str::to_string)
            .collect()
    }
}

#[test]
fn mid_run_cancellation_is_partial_flushed_and_resumable_with_zero_resolves() {
    let _guard = obs::test_lock();
    let scratch = Scratch::new("cancel");
    let rhos = vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let n = rhos.len();

    let baseline = rho_plan(rhos.clone())
        .run_map(|sol| sol.normalized_mean_queue_length())
        .expect_values("baseline");

    // Cancel from inside the sweep after the third point solves — the
    // pool must stop issuing points and report the rest as Cancelled.
    let trace = Trace::attach("cancel");
    let token = Stop::new();
    let (mut opts, handle) = opts_with_store(&scratch.0);
    opts.stop = token.clone();
    let solved_so_far = AtomicUsize::new(0);
    let result = rho_plan(rhos.clone()).with_options(opts).run_map(|sol| {
        if solved_so_far.fetch_add(1, Ordering::SeqCst) + 1 == 3 {
            token.cancel();
        }
        sol.normalized_mean_queue_length()
    });
    let cancelled_lines = trace.counter_lines("sweep.cancelled");

    let stats = result.stats();
    assert_eq!(stats.solved, 3, "one worker solves exactly 3 points before the trip");
    assert_eq!(stats.cancelled, n - 3);
    assert_eq!(stats.failed, n - 3);
    assert_eq!(stats.quarantined, 0);
    assert!(stats.interrupted());
    for (i, p) in result.points().iter().enumerate() {
        if i < 3 {
            assert!(p.outcome.is_ok(), "point {i} should have solved");
        } else {
            assert!(
                matches!(p.outcome, Err(CoreError::Cancelled)),
                "point {i}: expected Cancelled, got {:?}",
                p.outcome
            );
        }
    }
    // The `sweep.cancelled` counter reached the NDJSON trace.
    assert!(
        !cancelled_lines.is_empty(),
        "no sweep.cancelled counter in the NDJSON trace"
    );

    // The store was flushed on exit and holds exactly the solved
    // prefix: cancelled points are never persisted.
    assert_eq!(stats.store_appends, 3);
    assert_eq!(handle.len(), 3);
    drop(handle);

    // Resume with the same store: the solved prefix replays (zero
    // re-solves), only the cancelled gap hits the solver, and the
    // combined run is bit-identical to the uninterrupted baseline.
    let (opts, _handle) = opts_with_store(&scratch.0);
    let resumed = rho_plan(rhos)
        .with_options(opts)
        .run_map(|sol| sol.normalized_mean_queue_length());
    assert_eq!(resumed.stats().store_hits, 3);
    assert_eq!(resumed.stats().store_appends, (n - 3) as u64);
    assert_eq!(resumed.stats().cancelled, 0);
    let vals = resumed.expect_values("resumed run");
    for (a, b) in baseline.iter().zip(&vals) {
        assert_eq!(a.to_bits(), b.to_bits(), "resume is not bit-identical");
    }
}

#[test]
fn zero_run_budget_cancels_everything_before_issuing_points() {
    let _guard = obs::test_lock();
    let rhos = vec![0.2, 0.4, 0.6];
    let n = rhos.len();
    let mut opts = SweepOptions::default().with_threads(1);
    opts.stop = Stop::default().child(Duration::ZERO);
    let result = rho_plan(rhos)
        .with_options(opts)
        .run_map(|sol| sol.normalized_mean_queue_length());
    let stats = result.stats();
    assert_eq!(stats.solved, 0);
    assert_eq!(stats.cancelled, n);
    assert!(stats.interrupted());
    assert!(result
        .points()
        .iter()
        .all(|p| matches!(p.outcome, Err(CoreError::Cancelled))));
}

/// The run deadline is fixed when the `Stop` is built, so every plan run
/// with clones of one `SweepOptions` shares one whole-run budget: a
/// budget spent by the first plan is not granted afresh to the second.
#[test]
fn plans_cloned_from_one_options_share_one_budget() {
    let _guard = obs::test_lock();
    let first = rho_plan(vec![0.2, 0.3]);
    let second = rho_plan(vec![0.4, 0.5]);
    let opts = SweepOptions::default()
        .with_threads(1)
        .with_stop(Stop::default().child(Duration::from_millis(30)));
    let slow = |sol: &performa_core::ClusterSolution| {
        std::thread::sleep(Duration::from_millis(60));
        sol.normalized_mean_queue_length()
    };

    let result = first.with_options(opts.clone()).run_map(slow);
    let stats = result.stats();
    assert_eq!(stats.solved, 1, "the first point spends the whole budget");
    assert_eq!(stats.cancelled, 1);

    let result = second.with_options(opts).run_map(slow);
    let stats = result.stats();
    assert_eq!(stats.solved, 0, "the second plan gets no fresh budget");
    assert_eq!(stats.cancelled, 2);
    assert!(stats.interrupted());
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use performa_qbd::fault as qbd_fault;
    use performa_store::fault as store_fault;
    use performa_store::Store;

    /// Satellite: a persistently stalled point under a per-point
    /// deadline is quarantined — persisted as a typed failure — while
    /// the rest of the grid completes, and a resumed run replays the
    /// quarantined failure instead of re-blocking a worker on it.
    #[test]
    fn stalled_point_is_quarantined_and_the_grid_completes() {
        let _guard = obs::test_lock();
        let scratch = Scratch::new("quarantine");
        let all = vec![0.2, 0.3, 0.4, 0.5, 0.6];

        // Pre-populate the store with every point except the last, so
        // the chaos run solves exactly one fresh point.
        let (opts, _h) = opts_with_store(&scratch.0);
        rho_plan(all[..4].to_vec())
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length())
            .expect_values("pre-population");

        // The fresh point's solver stalls forever (global plan: the
        // sweep pool's workers are fresh threads) and its per-point
        // deadline is already expired — both the first attempt and the
        // hardened retry must trip, quarantining the point.
        let trace = Trace::attach("quarantine");
        let stall = qbd_fault::arm_global(qbd_fault::FaultPlan {
            stall: Some("logred"),
            ..qbd_fault::FaultPlan::default()
        });
        let (mut opts, handle) = opts_with_store(&scratch.0);
        opts.point_deadline = Some(Duration::ZERO);
        let result = rho_plan(all.clone())
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length());
        drop(stall);
        let quarantine_lines = trace.counter_lines("sweep.quarantined");

        let stats = result.stats();
        assert_eq!(stats.solved, 4, "the healthy grid must complete");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.cancelled, 0, "quarantine is not cancellation");
        assert_eq!(stats.store_hits, 4);
        assert_eq!(stats.store_appends, 1, "the quarantined failure is persisted");
        assert!(
            matches!(result.points()[4].outcome, Err(CoreError::Quarantined { .. })),
            "expected Quarantined, got {:?}",
            result.points()[4].outcome
        );
        assert!(
            !quarantine_lines.is_empty(),
            "no sweep.quarantined counter in the NDJSON trace"
        );
        assert_eq!(handle.len(), 5);
        drop(handle);

        // Resume (fault disarmed): the quarantined failure replays from
        // the store — zero solver invocations, nothing re-blocks.
        let (opts, _h) = opts_with_store(&scratch.0);
        let resumed = rho_plan(all.clone())
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length());
        assert_eq!(resumed.stats().store_hits, 5);
        assert_eq!(resumed.stats().store_appends, 0);
        match &resumed.points()[4].outcome {
            Err(CoreError::ReplayedFailure { kind, .. }) => assert_eq!(kind, "quarantined"),
            other => panic!("expected replayed quarantined failure, got {other:?}"),
        }

        // `retry_failed` re-attempts it; with the stall gone and no
        // deadline the point now solves and shadows the quarantine.
        let (mut opts, _h) = opts_with_store(&scratch.0);
        opts.retry_failed = true;
        let retried = rho_plan(all)
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length());
        assert!(retried.points().iter().all(|p| p.outcome.is_ok()));
        assert_eq!(retried.stats().store_appends, 1);
    }

    /// Mid-run cancellation composed with an injected fsync failure at
    /// the end-of-run flush: the run still completes with typed errors
    /// (no panic, no hang), and because appends are unbuffered the
    /// solved prefix survives a reopen and resumes cleanly.
    #[test]
    fn cancellation_composes_with_a_failing_final_fsync() {
        let _guard = obs::test_lock();
        let scratch = Scratch::new("fsync_cancel");
        let rhos = vec![0.2, 0.3, 0.4, 0.5, 0.6];
        let n = rhos.len();

        let baseline = rho_plan(rhos.clone())
            .run_map(|sol| sol.normalized_mean_queue_length())
            .expect_values("baseline");

        let token = Stop::new();
        let (mut opts, handle) = opts_with_store(&scratch.0);
        opts.stop = token.clone();
        let solved_so_far = AtomicUsize::new(0);
        // The final flush runs on this thread (inside `run_map`), so a
        // thread-local fsync fault reaches exactly that flush.
        let armed = store_fault::arm(store_fault::FaultPlan {
            fail_sync: true,
            ..store_fault::FaultPlan::default()
        });
        let result = rho_plan(rhos.clone()).with_options(opts).run_map(|sol| {
            if solved_so_far.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                token.cancel();
            }
            sol.normalized_mean_queue_length()
        });
        drop(armed);
        drop(handle);

        // The flush failure is surfaced on the first solved slot; the
        // cancelled tail keeps its typed Cancelled outcome.
        let stats = result.stats();
        assert_eq!(stats.cancelled, n - 2);
        assert!(stats.interrupted());
        assert!(result.points().iter().any(|p| matches!(
            &p.outcome,
            Err(CoreError::Store { message }) if message.contains("final flush failed")
        )));
        assert!(result
            .points()
            .iter()
            .skip(2)
            .all(|p| matches!(p.outcome, Err(CoreError::Cancelled))));

        // Appends are unbuffered: the reopen sees the solved prefix
        // intact, and the resume completes bit-identically.
        let (store, open_stats) = Store::open(&scratch.0).unwrap();
        assert!(!open_stats.recovered_truncation);
        assert_eq!(store.len(), 2);
        drop(store);
        let (opts, _h) = opts_with_store(&scratch.0);
        let resumed = rho_plan(rhos)
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length());
        assert_eq!(resumed.stats().store_hits, 2);
        let vals = resumed.expect_values("resumed after fsync fault");
        for (a, b) in baseline.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Torn-write recovery composed with a cancelled resume: a crash
    /// leaves a torn frame at the store tail, the first resume is
    /// SIGINT'd mid-replay, and the second resume still converges to
    /// the byte-identical full result.
    #[test]
    fn torn_tail_then_cancelled_resume_then_clean_resume() {
        let _guard = obs::test_lock();
        let scratch = Scratch::new("torn_cancel");
        let rhos = vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let n = rhos.len();

        let baseline = rho_plan(rhos.clone())
            .run_map(|sol| sol.normalized_mean_queue_length())
            .expect_values("baseline");

        // "Crashed" first run: the first five points persisted whole,
        // the sixth torn mid-frame by the crash.
        let (opts, handle) = opts_with_store(&scratch.0);
        rho_plan(rhos[..5].to_vec())
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length())
            .expect_values("first run");
        drop(handle);
        {
            let (mut store, _) = Store::open(&scratch.0).unwrap();
            let armed = store_fault::arm(store_fault::FaultPlan {
                short_write: Some((1, 9)),
                ..store_fault::FaultPlan::default()
            });
            let key = performa_core::store_key(
                &template().with_utilization(rhos[5]).unwrap(),
                rhos[5],
            );
            let torn = store.append(
                &key,
                &performa_core::PointRecord::Failed {
                    kind: "numerical_breakdown".to_string(),
                    message: "torn by simulated crash".to_string(),
                },
            );
            assert!(torn.is_err(), "the injected short write must fail the append");
            drop(armed);
        }

        // First resume: truncation recovered on open, then cancelled
        // after two replays — nothing new is persisted.
        let (handle, open_stats) = StoreHandle::open(&scratch.0).unwrap();
        assert!(open_stats.recovered_truncation, "torn tail must be recovered");
        assert_eq!(handle.len(), 5);
        let token = Stop::new();
        let opts = SweepOptions::default()
            .with_store(handle.clone())
            .with_threads(1)
            .with_stop(token.clone());
        let replayed = AtomicUsize::new(0);
        let interrupted = rho_plan(rhos.clone()).with_options(opts).run_map(|sol| {
            if replayed.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                token.cancel();
            }
            sol.normalized_mean_queue_length()
        });
        assert_eq!(interrupted.stats().cancelled, n - 2);
        assert_eq!(interrupted.stats().store_appends, 0);
        drop(handle);

        // Second resume runs to completion: five replays, one fresh
        // solve for the torn point, byte-identical values.
        let (opts, _h) = opts_with_store(&scratch.0);
        let resumed = rho_plan(rhos)
            .with_options(opts)
            .run_map(|sol| sol.normalized_mean_queue_length());
        assert_eq!(resumed.stats().store_hits, 5);
        assert_eq!(resumed.stats().store_appends, 1);
        let vals = resumed.expect_values("final resume");
        for (a, b) in baseline.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "recovery path changed results");
        }
    }
}
