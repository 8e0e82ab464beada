//! Run-level control: cooperative interruption and budget splitting.
//!
//! [`Stop`] (re-exported from `performa-ctrl`) is the one interruption
//! primitive, probed at the sweep's work-pull, inside the solver
//! supervisor between stages, and at the counted iteration loops'
//! amortized check stride. A sweep's stop may carry the whole-run
//! deadline (the CLI's `--deadline` on sweep verbs); [`RunBudget`]
//! turns it into per-point deadlines, each a [`Stop::child`] of the
//! run's stop.
//!
//! # Budget split policy
//!
//! The grid's solve cost is wildly non-uniform: near the blow-up loads
//! ρ_i a single point can cost orders of magnitude more iterations than
//! the rest of the grid (the paper's Eq. 3 territory, and exactly what
//! the sweep's `PointCost` records show). A naive `remaining / points`
//! split would starve those points. Instead each allotment is
//!
//! * **fair share** — `remaining / points_left`, the baseline;
//! * **cost-informed** — if the recent points' exponentially weighted
//!   mean solve time exceeds the fair share, the allotment is raised to
//!   `2 × ewma` (expensive-looking points get more), capped by the
//!   remaining budget — over-spending points steal from the tail of the
//!   grid rather than failing spuriously;
//! * **floored** — never below the configured floor, so late points are
//!   not handed degenerate microsecond deadlines. A grant may therefore
//!   outlast the run's deadline by up to the floor.
//!
//! When the run's deadline has passed [`RunBudget::allot`] returns
//! `None` and the pool stops issuing points; completed points are
//! untouched, so the run exits with accurate partial stats and a
//! resumable store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use performa_ctrl::{install_sigint, Interrupt, Stop, EXIT_PARTIAL};

/// Default per-point deadline floor: enough for any healthy point on
/// paper-scale models, small enough that a stalled point cannot eat a
/// meaningful slice of an interactive budget.
pub const DEFAULT_POINT_FLOOR: Duration = Duration::from_millis(250);

/// Smoothing of the per-point cost EWMA: `ewma ← (3·ewma + cost) / 4`.
const EWMA_WEIGHT: u64 = 3;

/// Splits the time left before a run's deadline into per-point grants
/// (see the [module docs](self) for the policy). Thread-safe: workers
/// call [`allot`](RunBudget::allot) / [`record`](RunBudget::record)
/// concurrently without locks.
#[derive(Debug)]
pub struct RunBudget {
    floor: Duration,
    /// EWMA of observed per-point solve durations, in nanoseconds
    /// (0 = no observation yet).
    ewma_nanos: AtomicU64,
}

impl Default for RunBudget {
    /// A budget with the [`DEFAULT_POINT_FLOOR`].
    fn default() -> Self {
        RunBudget::with_floor(DEFAULT_POINT_FLOOR)
    }
}

impl RunBudget {
    /// A budget with an explicit per-point grant floor.
    #[must_use]
    pub fn with_floor(floor: Duration) -> Self {
        RunBudget {
            floor,
            ewma_nanos: AtomicU64::new(0),
        }
    }

    /// Feeds one completed point's solve duration into the cost EWMA.
    pub fn record(&self, elapsed: Duration) {
        let cost = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Lock-free EWMA: racing updates may each fold their cost into
        // the same prior value; either result is a valid smoothing and
        // the estimate only informs deadline grants.
        let prior = self.ewma_nanos.load(Ordering::Relaxed);
        let next = if prior == 0 {
            cost
        } else {
            (EWMA_WEIGHT * (prior / (EWMA_WEIGHT + 1))).saturating_add(cost / (EWMA_WEIGHT + 1))
        };
        self.ewma_nanos.store(next.max(1), Ordering::Relaxed);
    }

    /// The time to grant the next point against the run's `deadline`,
    /// given how many grid points are still unsolved, or `None` once the
    /// deadline has passed (the pool must stop issuing points).
    #[must_use]
    pub fn allot(&self, deadline: Instant, points_left: usize) -> Option<Duration> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return None;
        }
        let fair = remaining / points_left.max(1) as u32;
        let mut grant = fair.max(self.floor);
        let ewma = Duration::from_nanos(self.ewma_nanos.load(Ordering::Relaxed));
        if !ewma.is_zero() && ewma > grant {
            // Recent points ran hotter than the fair share: grant twice
            // the observed mean (headroom for the variance the paper is
            // about), but never more than everything that is left.
            grant = (ewma * 2).min(remaining).max(self.floor);
        }
        Some(grant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_budget_grants_fair_shares() {
        let b = RunBudget::with_floor(Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(100);
        let grant = b.allot(deadline, 10).expect("budget not exhausted");
        // Fair share is ~10 s; allow slack for test-runner jitter.
        assert!(grant > Duration::from_secs(8), "grant {grant:?}");
        assert!(grant < Duration::from_secs(12), "grant {grant:?}");
    }

    #[test]
    fn zero_budget_is_exhausted_immediately() {
        let b = RunBudget::default();
        let stop = Stop::default().child(Duration::ZERO);
        assert_eq!(stop.probe(), Some(Interrupt::DeadlineExceeded));
        assert!(b.allot(stop.deadline().unwrap(), 5).is_none());
    }

    #[test]
    fn floor_bounds_small_fair_shares() {
        let b = RunBudget::with_floor(Duration::from_millis(400));
        let deadline = Instant::now() + Duration::from_secs(1);
        // Fair share 1s/1000 = 1ms, far below the floor.
        let grant = b.allot(deadline, 1000).expect("budget not exhausted");
        assert!(grant >= Duration::from_millis(300), "grant {grant:?}");
    }

    #[test]
    fn expensive_history_raises_the_grant() {
        let b = RunBudget::with_floor(Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(100);
        // Points have been costing ~20 s; fair share for 100 left is 1 s.
        for _ in 0..8 {
            b.record(Duration::from_secs(20));
        }
        let grant = b.allot(deadline, 100).expect("budget not exhausted");
        assert!(grant > Duration::from_secs(10), "grant {grant:?}");
        // And the grant never exceeds what is left.
        assert!(grant <= Duration::from_secs(100), "grant {grant:?}");
    }

    #[test]
    fn record_is_monotone_smoothing_not_last_write() {
        let b = RunBudget::default();
        b.record(Duration::from_secs(4));
        b.record(Duration::from_millis(1));
        let ewma = Duration::from_nanos(b.ewma_nanos.load(Ordering::Relaxed));
        // One cheap point must not erase the expensive history.
        assert!(ewma > Duration::from_secs(2), "ewma {ewma:?}");
    }
}
