//! Cooperative interruption shared by every layer of the workspace.
//!
//! The crate is deliberately tiny and std-only. A [`Stop`] is the one
//! interruption primitive: a cloneable value holding a shared cancel
//! flag and an optional absolute wall-clock deadline. The sweep pool,
//! the solver supervisor, the counted `G` iteration loops and the
//! replication runner all ask it the same question through
//! [`Stop::probe`] at checkpoints they already have, and map the
//! [`Interrupt`] answer to their own typed outcome. Nothing here
//! blocks or takes a lock: a probe is one relaxed atomic load plus,
//! when a deadline is set, one clock read.
//!
//! The one piece of platform glue lives here too: [`install_sigint`]
//! registers a minimal async-signal-safe `SIGINT` handler (a single
//! atomic store into a process-global flag). Stops created with
//! [`Stop::for_process`] observe that flag in addition to their own,
//! which is how `Ctrl-C` turns into a graceful drain of a sweep: the
//! pool stops issuing points, in-flight solves return a typed
//! `Cancelled`, the store flushes, and the run exits with
//! [`EXIT_PARTIAL`].
//!
//! The handler is registered with the venerable `signal(2)` entry point
//! rather than `sigaction` — the only thing the handler does is an
//! atomic store, so none of `sigaction`'s extra control (masks,
//! `SA_SIGINFO`) is needed, and `signal` avoids declaring a
//! platform-layout struct by hand. A second `SIGINT` restores the
//! default disposition and re-raises, so an impatient operator can
//! still kill a wedged process the usual way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code for a run that was cancelled (or ran out of budget) but
/// still produced durable, resumable partial results.
///
/// Sits between "degraded" (10/20/30 family: the process finished its
/// grid, some points are suspect) and a hard kill (no exit code at
/// all): a `40` means the store holds every point that completed, the
/// stats printed are accurate, and `--resume` picks up exactly where
/// the run stopped.
pub const EXIT_PARTIAL: u8 = 40;

/// Process-global flag set by the `SIGINT` handler.
///
/// A `static AtomicBool` is the only state a signal handler can touch
/// safely; stops built via [`Stop::for_process`] fold it into their
/// [`Stop::is_cancelled`] answer.
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

/// Whether [`install_sigint`] has already run (second call is a no-op).
static SIGINT_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Why a [`Stop`] fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The stop was cancelled ([`Stop::cancel`] or Ctrl-C): the run was
    /// told to stop, which says nothing about the work in hand.
    Cancelled,
    /// The deadline passed: the work looked too expensive.
    DeadlineExceeded,
}

/// A cloneable interruption handle: a shared cancel flag plus an
/// optional absolute deadline.
///
/// All clones and [`child`](Stop::child)ren share one flag: any holder
/// calling [`cancel`](Stop::cancel) makes every one of them report
/// [`Interrupt::Cancelled`], permanently (there is no reset — a
/// cancelled run drains and exits). The deadline is fixed when the
/// stop is built, so everything built from one stop shares one budget.
///
/// The `Default` stop never fires and allocates nothing; it has no
/// flag, so [`cancel`](Stop::cancel) on it is a no-op. Build a
/// cancellable one with [`Stop::new`] or [`Stop::for_process`].
#[derive(Clone, Debug, Default)]
pub struct Stop {
    flag: Option<Arc<AtomicBool>>,
    /// Stops from [`Stop::for_process`] also observe the process-global
    /// SIGINT flag, so library tests can use isolated stops while the
    /// CLI gets Ctrl-C for free.
    sigint: bool,
    deadline: Option<Instant>,
}

impl Stop {
    /// A fresh, isolated, cancellable stop without a deadline (ignores
    /// SIGINT). This is what tests and embedded callers want.
    #[must_use]
    pub fn new() -> Self {
        Stop {
            flag: Some(Arc::new(AtomicBool::new(false))),
            ..Stop::default()
        }
    }

    /// A cancellable stop that is also tripped by the process-global
    /// SIGINT flag (see [`install_sigint`]). This is what the CLI and
    /// the figure binaries want.
    #[must_use]
    pub fn for_process() -> Self {
        Stop {
            sigint: true,
            ..Stop::new()
        }
    }

    /// The same cancel flag with the deadline set to `now + grant` (none
    /// if that overflows the clock), replacing any earlier deadline — a
    /// per-point grant may outlast the run's own deadline (see
    /// `RunBudget` in `performa-core`).
    #[must_use]
    pub fn child(&self, grant: Duration) -> Stop {
        Stop {
            deadline: Instant::now().checked_add(grant),
            ..self.clone()
        }
    }

    /// Trips the shared flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether the flag (or, for process stops, SIGINT) has tripped.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
            || (self.sigint && SIGINT_FLAG.load(Ordering::Relaxed))
    }

    /// The absolute deadline, if one is set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the work should stop, and why. Cancellation outranks the
    /// deadline: a Ctrl-C under an expired deadline reports
    /// [`Interrupt::Cancelled`], because that is the actionable outcome
    /// (resume later).
    #[must_use]
    pub fn probe(&self) -> Option<Interrupt> {
        if self.is_cancelled() {
            Some(Interrupt::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Interrupt::DeadlineExceeded)
        } else {
            None
        }
    }
}

/// Trips the process-global SIGINT flag by hand.
///
/// Lets tests (and non-unix builds) exercise the exact code path a real
/// `Ctrl-C` takes without delivering a signal.
pub fn trip_process_flag() {
    SIGINT_FLAG.store(true, Ordering::Release);
}

/// Whether the process-global SIGINT flag has tripped.
#[must_use]
pub fn process_flag_tripped() -> bool {
    SIGINT_FLAG.load(Ordering::Relaxed)
}

#[cfg(unix)]
mod sys {
    use super::{Ordering, SIGINT_FLAG};

    const SIGINT: i32 = 2;
    /// `SIG_DFL` is the null handler pointer on every unix libc.
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn raise(signum: i32) -> i32;
    }

    /// The handler body is async-signal-safe: one atomic store on the
    /// first delivery; on the second, restore the default disposition
    /// and re-raise so the process dies like an unhandled Ctrl-C.
    extern "C" fn on_sigint(signum: i32) {
        if SIGINT_FLAG.swap(true, Ordering::AcqRel) {
            unsafe {
                signal(signum, SIG_DFL);
                raise(signum);
            }
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// No signal plumbing off unix; `trip_process_flag` still works.
    pub fn install() {}
}

/// Installs the graceful-`SIGINT` handler (first `Ctrl-C` trips the
/// process flag; the second restores default disposition and re-raises).
/// Idempotent; a no-op on non-unix targets.
pub fn install_sigint() {
    if !SIGINT_INSTALLED.swap(true, Ordering::AcqRel) {
        sys::install();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = Stop::new();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = Stop::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
        // Idempotent.
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn isolated_tokens_do_not_observe_each_other() {
        let a = Stop::new();
        let b = Stop::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn process_token_observes_the_global_flag() {
        // NOTE: trips process-global state; fine because every
        // assertion below expects the tripped state and isolated
        // tokens (above) never consult it.
        let t = Stop::for_process();
        assert!(t.flag.as_ref().is_some_and(|f| !f.load(Ordering::Relaxed)));
        trip_process_flag();
        assert!(t.is_cancelled());
        assert!(process_flag_tripped());
        // Isolated tokens stay isolated even with the flag tripped.
        assert!(!Stop::new().is_cancelled());
    }

    #[test]
    fn default_stop_never_fires() {
        let s = Stop::default();
        assert_eq!(s.probe(), None);
        assert_eq!(s.deadline(), None);
        // No flag to trip: cancelling the inert stop changes nothing.
        s.cancel();
        assert_eq!(s.probe(), None);
    }

    #[test]
    fn child_shares_the_flag_and_replaces_the_deadline() {
        let run = Stop::new().child(Duration::ZERO);
        assert_eq!(run.probe(), Some(Interrupt::DeadlineExceeded));
        // A child's grant replaces the expired parent deadline.
        let point = run.child(Duration::from_secs(3600));
        assert_eq!(point.probe(), None);
        // Cancelling the parent reaches the child, and outranks the
        // parent's expired deadline.
        run.cancel();
        assert_eq!(point.probe(), Some(Interrupt::Cancelled));
        assert_eq!(run.probe(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn install_is_idempotent() {
        install_sigint();
        install_sigint();
    }
}
