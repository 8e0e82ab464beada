//! Independent-replication runner with parallel execution and fault
//! containment.
//!
//! The paper's simulation figures average 10 independent runs and plot
//! 95 % confidence intervals; this module provides exactly that, fanning
//! replications across OS threads. On top of the plain runner it adds a
//! *robust* path used by long unattended sweeps:
//!
//! * **panic isolation** — a panicking replication is caught
//!   (`catch_unwind`), logged, and retried with a fresh seed instead of
//!   tearing down the whole sweep;
//! * **watchdogs** — non-finite replication outputs count as failures and
//!   are retried the same way;
//! * **bounded reseed-and-retry** — each replication gets
//!   `1 + max_retries` attempts, deterministically reseeded
//!   (`seed = base + i + stride·attempt`);
//! * **cooperative interruption** — when the options' [`Stop`] fires
//!   (deadline or cancellation) the runner stops handing out work and
//!   returns the replications completed so far, flagged via
//!   [`ReplicationOutcome::deadline_hit`] / [`ReplicationOutcome::cancelled`];
//! * **fault injection** (behind the `fault-injection` feature) — a
//!   `FaultPlan` deterministically injects panics, NaN outputs and
//!   stalls to prove the above machinery works.
//!
//! The strict wrappers [`run_replications`] / [`replicated_ci`] demand
//! every replication succeed and return typed errors otherwise; they
//! never panic on user input.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use performa_ctrl::{Interrupt, Stop};

use crate::stats::{confidence_interval, ConfidenceInterval};
use crate::{Result, SimError};

/// Default reseed stride (golden-ratio increment, coprime with 2⁶⁴): far
/// from the `base_seed + i` lattice of first attempts.
pub const DEFAULT_RESEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of the robust replication runner.
#[derive(Debug, Clone)]
pub struct ReplicationOptions {
    /// Worker threads (clamped to `[1, replications]`).
    pub threads: usize,
    /// Extra attempts granted to a failing replication (0 = fail fast).
    pub max_retries: u32,
    /// Offset added to a replication's seed per retry attempt.
    pub reseed_stride: u64,
    /// Interruption of the whole sweep, probed once per replication
    /// attempt. When it fires the runner stops handing out work and
    /// returns whatever completed, flagged via
    /// [`ReplicationOutcome::deadline_hit`] or
    /// [`ReplicationOutcome::cancelled`]. The default never fires.
    pub stop: Stop,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions {
            threads: 1,
            max_retries: 2,
            reseed_stride: DEFAULT_RESEED_STRIDE,
            stop: Stop::default(),
        }
    }
}

impl ReplicationOptions {
    /// Default options with the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        ReplicationOptions {
            threads,
            ..ReplicationOptions::default()
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the [`Stop`] that interrupts the sweep.
    pub fn with_stop(mut self, stop: Stop) -> Self {
        self.stop = stop;
        self
    }
}

/// A replication that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct ReplicationFailure {
    /// Replication index (0-based).
    pub replication: u64,
    /// Attempts made.
    pub attempts: u32,
    /// Seed of the last attempt.
    pub last_seed: u64,
    /// Last failure cause (panic message or value description).
    pub reason: String,
}

/// Outcome of a robust replication sweep — possibly partial.
#[derive(Debug, Clone)]
pub struct ReplicationOutcome {
    /// Successful per-replication values, in replication order (failed
    /// and skipped replications are absent).
    pub values: Vec<f64>,
    /// Replications requested.
    pub requested: u64,
    /// Replications that produced a value (`values.len()`).
    pub completed: u64,
    /// Retry attempts performed across all replications.
    pub retried: u64,
    /// Replications dropped after exhausting their retries.
    pub failures: Vec<ReplicationFailure>,
    /// Replications never attempted because the stop fired first.
    pub skipped: u64,
    /// Whether the wall-clock deadline cut the sweep short.
    pub deadline_hit: bool,
    /// Whether a cooperative cancellation request cut the sweep short.
    pub cancelled: bool,
}

impl ReplicationOutcome {
    /// `true` when the sweep did not deliver every requested replication
    /// at full fidelity — the partial results are still statistically
    /// valid, but callers should surface the degradation (the CLI maps
    /// this to exit code 10).
    pub fn degraded(&self) -> bool {
        self.deadline_hit || self.cancelled || self.skipped > 0 || !self.failures.is_empty()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} replication(s) completed ({} retried, {} failed, {} skipped){}",
            self.completed,
            self.requested,
            self.retried,
            self.failures.len(),
            self.skipped,
            if self.cancelled {
                ", cancelled"
            } else if self.deadline_hit {
                ", deadline hit"
            } else {
                ""
            }
        )
    }
}

#[derive(Clone)]
enum Slot {
    Pending,
    Done(f64),
    Failed(ReplicationFailure),
}

/// Warn-level event for a failed attempt (panic or non-finite value) —
/// the structured counterpart of [`ReplicationFailure::reason`].
fn attempt_failed_obs(replication: u64, attempt: u32, seed: u64, reason: &str) {
    if !performa_obs::enabled(performa_obs::TraceLevel::Warn) {
        return;
    }
    performa_obs::event(
        performa_obs::TraceLevel::Warn,
        "sim.attempt_failed",
        vec![
            ("replication", replication.into()),
            ("attempt", attempt.into()),
            ("seed", seed.into()),
            ("reason", reason.to_string().into()),
        ],
    );
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".into()
    }
}

/// Core runner: `eval(replication, attempt, seed)` evaluates one attempt.
/// The indirection lets the fault-injection harness observe replication
/// indices and attempt counters without perturbing seeds.
fn run_internal<G>(
    replications: u64,
    base_seed: u64,
    options: &ReplicationOptions,
    eval: G,
) -> Result<ReplicationOutcome>
where
    G: Fn(u64, u32, u64) -> f64 + Sync,
{
    if replications == 0 {
        return Err(SimError::InvalidConfig {
            message: "need at least one replication".into(),
        });
    }
    let threads = options.threads.max(1).min(replications as usize);

    let next = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let deadline_hit = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    // Records a fired stop; the first observation of each kind emits its
    // one warning event.
    let interrupted = |why: Interrupt| {
        let (flag, event) = match why {
            Interrupt::Cancelled => (&cancelled, "sim.cancelled"),
            Interrupt::DeadlineExceeded => (&deadline_hit, "sim.deadline"),
        };
        if !flag.swap(true, Ordering::Relaxed) {
            performa_obs::event(performa_obs::TraceLevel::Warn, event, vec![]);
        }
    };
    let mut results = vec![Slot::Pending; replications as usize];
    let slots = parking_lot::Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= replications {
                    break;
                }
                let _rep_span =
                    performa_obs::span_with("sim.replication", vec![("replication", i.into())]);
                let mut attempts = 0u32;
                let mut last_seed = 0u64;
                let mut last_reason = String::new();
                let mut success = None;
                for attempt in 0..=options.max_retries {
                    if let Some(why) = options.stop.probe() {
                        interrupted(why);
                        break;
                    }
                    let seed = base_seed
                        .wrapping_add(i)
                        .wrapping_add(options.reseed_stride.wrapping_mul(attempt as u64));
                    attempts += 1;
                    last_seed = seed;
                    if attempt > 0 {
                        retried.fetch_add(1, Ordering::Relaxed);
                        performa_obs::counter_add("sim.retries", 1);
                        performa_obs::event(
                            performa_obs::TraceLevel::Info,
                            "sim.retry",
                            vec![
                                ("replication", i.into()),
                                ("attempt", attempt.into()),
                                ("seed", seed.into()),
                            ],
                        );
                    }
                    match catch_unwind(AssertUnwindSafe(|| eval(i, attempt, seed))) {
                        Ok(v) if v.is_finite() => {
                            success = Some(v);
                            break;
                        }
                        Ok(v) => {
                            last_reason = format!("non-finite replication value {v}");
                            attempt_failed_obs(i, attempt, seed, &last_reason);
                        }
                        Err(payload) => {
                            last_reason = panic_reason(payload);
                            attempt_failed_obs(i, attempt, seed, &last_reason);
                        }
                    }
                }
                let slot = match success {
                    Some(v) => Slot::Done(v),
                    // No attempt even started: the stop fired first. Leave
                    // this and every unissued slot pending, so they count
                    // as skipped, and retire the worker.
                    None if attempts == 0 => break,
                    None => {
                        performa_obs::event(
                            performa_obs::TraceLevel::Warn,
                            "sim.replication_dropped",
                            vec![("replication", i.into()), ("attempts", attempts.into())],
                        );
                        Slot::Failed(ReplicationFailure {
                            replication: i,
                            attempts,
                            last_seed,
                            reason: last_reason,
                        })
                    }
                };
                let mut guard = slots.lock();
                guard[i as usize] = slot;
            });
        }
    });

    let mut values = Vec::with_capacity(replications as usize);
    let mut failures = Vec::new();
    let mut skipped = 0u64;
    for slot in results {
        match slot {
            Slot::Done(v) => values.push(v),
            Slot::Failed(f) => failures.push(f),
            Slot::Pending => skipped += 1,
        }
    }
    if values.is_empty() {
        return Err(SimError::NoSuccessfulReplications {
            requested: replications,
        });
    }
    let completed = values.len() as u64;
    // A probe that observed cancellation reports "cancelled", not
    // "deadline hit" — the stop was commanded, not earned.
    let cancelled = cancelled.load(Ordering::Relaxed);
    Ok(ReplicationOutcome {
        values,
        requested: replications,
        completed,
        retried: retried.load(Ordering::Relaxed),
        failures,
        skipped,
        deadline_hit: deadline_hit.load(Ordering::Relaxed) && !cancelled,
        cancelled,
    })
}

/// Runs `replications` independent evaluations of `run` (seeded
/// `base_seed, base_seed+1, …`) with panic isolation, bounded
/// reseed-and-retry and cooperative interruption, returning
/// whatever completed.
///
/// `run` must be deterministic in its seed for reproducibility.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] when `replications == 0`.
/// * [`SimError::NoSuccessfulReplications`] when nothing completed.
pub fn run_replications_robust<F>(
    replications: u64,
    base_seed: u64,
    options: &ReplicationOptions,
    run: F,
) -> Result<ReplicationOutcome>
where
    F: Fn(u64) -> f64 + Sync,
{
    run_internal(replications, base_seed, options, |_, _, seed| run(seed))
}

/// Robust replications plus a 95 % confidence interval over the values
/// that completed (its `replications` field reflects the completed
/// count, and the half-width is infinite when only one survived).
///
/// # Errors
///
/// Same as [`run_replications_robust`].
pub fn replicated_ci_robust<F>(
    replications: u64,
    base_seed: u64,
    options: &ReplicationOptions,
    run: F,
) -> Result<(ConfidenceInterval, ReplicationOutcome)>
where
    F: Fn(u64) -> f64 + Sync,
{
    let outcome = run_replications_robust(replications, base_seed, options, run)?;
    let ci = confidence_interval(&outcome.values);
    Ok((ci, outcome))
}

/// Strict runner: every replication must succeed (retries included); the
/// per-replication values are returned in seed order.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] when `replications == 0`.
/// * [`SimError::ReplicationFailed`] /
///   [`SimError::NoSuccessfulReplications`] when any replication kept
///   failing after its retries.
pub fn run_replications<F>(
    replications: u64,
    base_seed: u64,
    threads: usize,
    run: F,
) -> Result<Vec<f64>>
where
    F: Fn(u64) -> f64 + Sync,
{
    let outcome = run_replications_robust(
        replications,
        base_seed,
        &ReplicationOptions::with_threads(threads),
        run,
    )?;
    if let Some(first) = outcome.failures.first() {
        return Err(SimError::ReplicationFailed {
            replication: first.replication,
            attempts: first.attempts,
            reason: first.reason.clone(),
        });
    }
    Ok(outcome.values)
}

/// Convenience wrapper: strict replications + 95 % confidence interval.
///
/// # Example
///
/// ```
/// use performa_sim::replicate::replicated_ci;
///
/// // Deterministic "simulation": output = seed mod 3.
/// let ci = replicated_ci(9, 0, 4, |seed| (seed % 3) as f64)?;
/// assert!((ci.mean - 1.0).abs() < 1e-12);
/// assert!(ci.contains(1.0));
/// # Ok::<(), performa_sim::SimError>(())
/// ```
///
/// # Errors
///
/// Same as [`run_replications`].
pub fn replicated_ci<F>(
    replications: u64,
    base_seed: u64,
    threads: usize,
    run: F,
) -> Result<ConfidenceInterval>
where
    F: Fn(u64) -> f64 + Sync,
{
    let values = run_replications(replications, base_seed, threads, run)?;
    Ok(confidence_interval(&values))
}

/// Deterministic fault-injection plan for the replication runner (only
/// with the `fault-injection` feature).
///
/// Faults apply to a replication's first `fault_attempts` attempts, so a
/// plan with `fault_attempts = 1` and a retry budget ≥ 1 demonstrates
/// recovery, while `fault_attempts = u32::MAX` forces the replication to
/// be dropped.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Replication indices whose faulted attempts panic.
    pub panic_on: Vec<u64>,
    /// Replication indices whose faulted attempts return NaN.
    pub nan_on: Vec<u64>,
    /// Replication indices that sleep for [`FaultPlan::stall`] before
    /// every attempt (pair with a deadline to exercise the partial-result
    /// path).
    pub stall_on: Vec<u64>,
    /// Stall duration.
    pub stall: std::time::Duration,
    /// How many leading attempts of a faulted replication fail
    /// (`u32::MAX` = all of them). Defaults to 1.
    pub fault_attempts: u32,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// Plan failing the first attempt of the given replications by panic.
    pub fn panicking(replications: Vec<u64>) -> Self {
        FaultPlan {
            panic_on: replications,
            fault_attempts: 1,
            ..FaultPlan::default()
        }
    }
}

/// [`run_replications_robust`] with faults injected per `plan` — the
/// test harness for the panic/NaN/deadline watchdogs (only with the
/// `fault-injection` feature).
///
/// # Errors
///
/// Same as [`run_replications_robust`].
#[cfg(feature = "fault-injection")]
pub fn run_replications_with_faults<F>(
    replications: u64,
    base_seed: u64,
    options: &ReplicationOptions,
    plan: &FaultPlan,
    run: F,
) -> Result<ReplicationOutcome>
where
    F: Fn(u64) -> f64 + Sync,
{
    run_internal(replications, base_seed, options, |rep, attempt, seed| {
        if plan.stall_on.contains(&rep) {
            std::thread::sleep(plan.stall);
        }
        let faulted = attempt < plan.fault_attempts.max(1);
        if faulted && plan.panic_on.contains(&rep) {
            panic!("injected fault: replication {rep} attempt {attempt}");
        }
        if faulted && plan.nan_on.contains(&rep) {
            return f64::NAN;
        }
        run(seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seeds_are_sequential_and_ordered() {
        let values = run_replications(8, 100, 4, |seed| seed as f64).unwrap();
        assert_eq!(values, (100..108).map(|s| s as f64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let f = |seed: u64| ((seed * 2654435761) % 1000) as f64;
        let serial = run_replications(10, 42, 1, f).unwrap();
        let parallel = run_replications(10, 42, 8, f).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ci_wrapper() {
        let ci = replicated_ci(10, 0, 4, |s| (s % 3) as f64).unwrap();
        assert!(ci.mean > 0.0 && ci.mean < 2.0);
        assert_eq!(ci.replications, 10);
        assert!(ci.half_width > 0.0);
    }

    #[test]
    fn zero_replications_is_an_error_not_a_panic() {
        assert!(matches!(
            run_replications(0, 0, 1, |_| 0.0),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(replicated_ci(0, 0, 1, |_| 0.0).is_err());
        assert!(run_replications_robust(0, 0, &ReplicationOptions::default(), |_| 0.0).is_err());
    }

    #[test]
    fn more_threads_than_replications_is_fine() {
        let values = run_replications(2, 7, 16, |s| s as f64).unwrap();
        assert_eq!(values, vec![7.0, 8.0]);
    }

    #[test]
    fn panicking_replication_is_isolated_and_retried() {
        // Replication 5 (seed 5) panics on its first attempt; the reseeded
        // retry (seed 5 + stride) succeeds. No other replication notices.
        let run = |seed: u64| {
            if seed == 5 {
                panic!("boom at seed {seed}");
            }
            seed as f64
        };
        let outcome =
            run_replications_robust(8, 0, &ReplicationOptions::with_threads(2), run).unwrap();
        assert_eq!(outcome.completed, 8);
        assert_eq!(outcome.retried, 1);
        assert!(outcome.failures.is_empty());
        assert!(!outcome.degraded());
        // The retried value comes from the reseeded attempt.
        assert_eq!(outcome.values[5], 5.0_f64 + DEFAULT_RESEED_STRIDE as f64);
    }

    #[test]
    fn non_finite_values_are_retried_like_panics() {
        let run = |seed: u64| if seed == 3 { f64::NAN } else { seed as f64 };
        let outcome =
            run_replications_robust(6, 0, &ReplicationOptions::with_threads(1), run).unwrap();
        assert_eq!(outcome.completed, 6);
        assert_eq!(outcome.retried, 1);
        assert!(!outcome.degraded());
    }

    #[test]
    fn persistently_failing_replication_is_dropped_and_reported() {
        // Replication 2 fails on both of its attempts: the first-attempt
        // seed 2 and the single reseeded retry 2 + stride.
        let run = move |seed: u64| {
            if seed == 2 || seed == 2u64.wrapping_add(DEFAULT_RESEED_STRIDE) {
                panic!("always fails");
            }
            seed as f64
        };
        let options = ReplicationOptions::with_threads(1).with_max_retries(1);
        let outcome = run_replications_robust(5, 0, &options, run).unwrap();
        assert_eq!(outcome.completed, 4);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].replication, 2);
        assert_eq!(outcome.failures[0].attempts, 2);
        assert!(outcome.failures[0].reason.contains("always fails"));
        assert!(outcome.degraded());

        // The strict wrapper surfaces the same failure as a typed error.
        let strict = run_replications(5, 0, 1, |seed| {
            if seed == 2 || seed == 2u64.wrapping_add(DEFAULT_RESEED_STRIDE)
                || seed == 2u64.wrapping_add(DEFAULT_RESEED_STRIDE.wrapping_mul(2))
            {
                panic!("always fails");
            }
            seed as f64
        });
        assert!(matches!(
            strict,
            Err(SimError::ReplicationFailed { replication: 2, .. })
        ));
    }

    #[test]
    fn all_failures_is_a_typed_error() {
        let options = ReplicationOptions::with_threads(2).with_max_retries(0);
        let err = run_replications_robust(3, 0, &options, |_| f64::INFINITY).unwrap_err();
        assert!(matches!(
            err,
            SimError::NoSuccessfulReplications { requested: 3 }
        ));
    }

    #[test]
    fn deadline_returns_partial_results_with_degraded_flag() {
        // Each replication sleeps 20 ms; the 60 ms budget admits only a
        // few of the 50 requested.
        let options = ReplicationOptions::with_threads(1)
            .with_stop(Stop::default().child(Duration::from_millis(60)));
        let outcome = run_replications_robust(50, 0, &options, |seed| {
            std::thread::sleep(Duration::from_millis(20));
            seed as f64
        })
        .unwrap();
        assert!(outcome.completed >= 1);
        assert!(outcome.completed < 50, "completed {}", outcome.completed);
        assert!(outcome.deadline_hit);
        assert!(outcome.skipped > 0);
        assert!(outcome.degraded());
        assert_eq!(outcome.completed + outcome.skipped, 50);

        // The CI over the partial results is still well-formed. The
        // first run spent the deadline, so this one gets a fresh budget.
        let options = options.with_stop(Stop::default().child(Duration::from_millis(60)));
        let (ci, outcome) = replicated_ci_robust(50, 0, &options, |seed| {
            std::thread::sleep(Duration::from_millis(20));
            seed as f64
        })
        .unwrap();
        assert_eq!(ci.replications, outcome.completed);
        assert!(ci.mean.is_finite());
    }

    #[test]
    fn cancellation_returns_partial_results_with_cancelled_flag() {
        // The token trips from inside replication 5; the runner finishes
        // that unit of work, then stops handing out replications.
        let token = Stop::new();
        let options = ReplicationOptions::with_threads(1).with_stop(token.clone());
        let outcome = run_replications_robust(50, 0, &options, |seed| {
            if seed == 5 {
                token.cancel();
            }
            seed as f64
        })
        .unwrap();
        assert!(outcome.completed >= 6);
        assert!(outcome.completed < 50, "completed {}", outcome.completed);
        assert!(outcome.cancelled);
        assert!(!outcome.deadline_hit);
        assert!(outcome.skipped > 0);
        assert!(outcome.degraded());
        assert!(outcome.summary().contains("cancelled"));
    }

    #[test]
    fn cancellation_outranks_deadline_flag() {
        // Token pre-tripped AND a generous deadline: the outcome must
        // report cancelled, not deadline_hit — but only after at least
        // one value exists, so trip the token from replication 0.
        let token = Stop::new();
        let options =
            ReplicationOptions::with_threads(1).with_stop(token.child(Duration::from_secs(3600)));
        let outcome = run_replications_robust(50, 0, &options, |seed| {
            token.cancel();
            seed as f64
        })
        .unwrap();
        assert!(outcome.cancelled);
        assert!(!outcome.deadline_hit);
        assert!(outcome.degraded());
    }

    #[test]
    fn deadline_expiry_is_reported_once() {
        // Serialize against other tests touching the global recorder.
        let _guard = performa_obs::test_lock();
        performa_obs::set_metrics(true);
        performa_obs::reset_metrics();
        let sink = std::sync::Arc::new(performa_obs::MemorySink::new());
        let id = performa_obs::add_sink(sink.clone());
        performa_obs::set_level(performa_obs::TraceLevel::Warn);

        let options = ReplicationOptions::with_threads(1)
            .with_stop(Stop::default().child(Duration::from_millis(30)));
        let outcome = run_replications_robust(1_000, 0, &options, |seed| {
            std::thread::sleep(Duration::from_millis(1));
            seed as f64
        })
        .unwrap();

        assert!(outcome.deadline_hit);
        assert!(outcome.completed >= 1);
        // The expiry transition emitted exactly one warning event.
        let deadline_events = sink
            .event_names()
            .iter()
            .filter(|n| **n == "sim.deadline")
            .count();
        assert_eq!(deadline_events, 1);

        performa_obs::set_level(performa_obs::TraceLevel::Off);
        performa_obs::remove_sink(id);
        performa_obs::set_metrics(false);
        performa_obs::reset_metrics();
    }

    #[test]
    fn outcome_summary_is_informative() {
        let outcome =
            run_replications_robust(4, 0, &ReplicationOptions::default(), |s| s as f64).unwrap();
        let s = outcome.summary();
        assert!(s.contains("4/4"));
    }
}
