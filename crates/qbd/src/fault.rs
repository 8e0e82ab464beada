//! Fault-injection hooks for exercising the solver watchdogs.
//!
//! Compiled to no-ops unless the crate is built with the
//! `fault-injection` feature; release builds therefore pay nothing for
//! the hooks. With the feature enabled, tests arm a thread-local
//! `FaultPlan` describing which G-matrix stage to sabotage and how,
//! then run [`crate::SolverSupervisor::solve`] (or a sweep) and assert
//! that the watchdogs catch the corruption and the solve recovers or
//! fails with a typed error:
//!
//! * **poison** — overwrite one entry of the iterate with NaN at a given
//!   `(stage, iteration)`; the NaN watchdog must abort the stage, and
//!   the supervisor retries it once fully hardened.
//! * **stall** — suppress the convergence test of a stage so it burns its
//!   whole iteration budget; the supervisor must fail with
//!   `NoConvergence` (or, with a deadline set, `DeadlineExceeded`).
//!
//! Stage keys are `"logred"` (the supervisor's and the plain solve's
//! stage), `"functional"` and `"neuts"`.

#[cfg(feature = "fault-injection")]
mod imp {
    use performa_linalg::Matrix;
    use std::cell::RefCell;
    use std::sync::Mutex;

    /// A per-thread sabotage plan for the G-matrix stages.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        /// Overwrite entry `(0, 0)` of the iterate with NaN when the
        /// named stage reaches the given iteration.
        pub poison: Option<(&'static str, usize)>,
        /// Suppress the convergence test of the named stage so it always
        /// exhausts its iteration budget.
        pub stall: Option<&'static str>,
    }

    thread_local! {
        static PLAN: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
    }

    /// Process-wide plan, visible to every thread — the sweep pool's
    /// workers are spawned fresh per sweep, so a thread-local plan
    /// armed in the test thread would never reach them. Unlike the
    /// thread-local plan, a global **poison** is one-shot: the first
    /// solve that reaches the target stage/iteration consumes it.
    /// That is exactly what the retry-ladder tests need — the plain
    /// attempt is sabotaged, the hardened retry runs clean. A global
    /// **stall** stays armed until disarmed.
    static GLOBAL_PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

    /// Arms `plan` for the current thread; returns a guard that disarms
    /// it when dropped (including on panic).
    #[must_use = "the plan is disarmed when the guard drops"]
    pub fn arm(plan: FaultPlan) -> Armed {
        PLAN.with(|p| *p.borrow_mut() = Some(plan));
        Armed { _private: () }
    }

    /// Arms `plan` for *every* thread in the process; returns a guard
    /// that disarms it when dropped. The poison component is one-shot
    /// (consumed by the first hit); the stall component persists until
    /// the guard drops. Tests using this must not run concurrently
    /// with other fault-armed tests — keep one such test per
    /// integration-test binary, or serialize them under a shared lock.
    #[must_use = "the plan is disarmed when the guard drops"]
    pub fn arm_global(plan: FaultPlan) -> ArmedGlobal {
        *GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
        ArmedGlobal { _private: () }
    }

    /// Disarms any plan on the current thread.
    pub fn disarm() {
        PLAN.with(|p| *p.borrow_mut() = None);
    }

    /// Disarms the process-wide plan.
    pub fn disarm_global() {
        *GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Guard returned by [`arm`]; disarms the thread's plan on drop.
    #[derive(Debug)]
    pub struct Armed {
        _private: (),
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            disarm();
        }
    }

    /// Guard returned by [`arm_global`]; disarms the process-wide plan
    /// on drop.
    #[derive(Debug)]
    pub struct ArmedGlobal {
        _private: (),
    }

    impl Drop for ArmedGlobal {
        fn drop(&mut self) {
            disarm_global();
        }
    }

    pub(crate) fn poison(stage: &str, iteration: usize, g: &mut Matrix) {
        let local_hit = PLAN.with(|p| {
            if let Some(FaultPlan {
                poison: Some((s, it)),
                ..
            }) = p.borrow().as_ref()
            {
                *s == stage && *it == iteration
            } else {
                false
            }
        });
        if local_hit {
            g[(0, 0)] = f64::NAN;
            return;
        }
        let mut global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = global.as_mut() {
            if let Some((s, it)) = plan.poison {
                if s == stage && it == iteration {
                    plan.poison = None; // one-shot
                    g[(0, 0)] = f64::NAN;
                }
            }
        }
    }

    pub(crate) fn stalled(stage: &str) -> bool {
        let local = PLAN.with(|p| {
            matches!(
                p.borrow().as_ref(),
                Some(FaultPlan { stall: Some(s), .. }) if *s == stage
            )
        });
        if local {
            return true;
        }
        matches!(
            GLOBAL_PLAN
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref(),
            Some(FaultPlan { stall: Some(s), .. }) if *s == stage
        )
    }
}

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use performa_linalg::Matrix;

    #[inline(always)]
    pub(crate) fn poison(_stage: &str, _iteration: usize, _g: &mut Matrix) {}

    #[inline(always)]
    pub(crate) fn stalled(_stage: &str) -> bool {
        false
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::{arm, arm_global, disarm, disarm_global, Armed, ArmedGlobal, FaultPlan};

pub(crate) use imp::{poison, stalled};
