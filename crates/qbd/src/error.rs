use std::fmt;

use performa_ctrl::Interrupt;

/// Errors produced by the QBD solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QbdError {
    /// The supplied blocks do not form a valid QBD generator.
    InvalidBlocks {
        /// Explanation of the violated structural property.
        message: String,
    },
    /// The chain is not positive recurrent (mean drift is upward), so no
    /// stationary distribution exists.
    Unstable {
        /// Mean upward drift `φ·A₀·ε`.
        up_rate: f64,
        /// Mean downward drift `φ·A₂·ε`.
        down_rate: f64,
    },
    /// An iterative stage failed to converge.
    NoConvergence {
        /// Stage name, e.g. `"logarithmic reduction"`.
        stage: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
    /// A scalar parameter of a closed-form formula was outside its
    /// domain (e.g. a saturated utilization passed to an M/M/1 formula).
    InvalidParameter {
        /// Explanation of the violated domain constraint.
        message: String,
    },
    /// A numerical watchdog detected non-finite values (NaN/Inf) inside
    /// an iterative stage and aborted it before the poison could spread,
    /// or a supervised solve produced a result outside its domain: a
    /// non-finite `R` (stage `"R computation"`), or a negative or
    /// non-finite mean queue length (stage `"boundary solve"`).
    NumericalBreakdown {
        /// Stage name, e.g. `"logred"`.
        stage: &'static str,
        /// Iteration at which the bad value appeared (0 for the one-shot
        /// `R` and boundary solves).
        iteration: usize,
    },
    /// A wall-clock deadline expired before any solver stage converged.
    DeadlineExceeded {
        /// Stage that was running (or about to run) when time ran out.
        stage: &'static str,
        /// Iterations completed across all attempted stages.
        iterations: usize,
    },
    /// A cooperative cancellation request (a cancelled `Stop`) arrived
    /// before any solver stage converged. Unlike
    /// [`QbdError::DeadlineExceeded`] this says nothing about the point's
    /// difficulty — the run was told to stop.
    Cancelled {
        /// Stage that was running (or about to run) when the stop was
        /// cancelled.
        stage: &'static str,
        /// Iterations completed across all attempted stages.
        iterations: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(performa_linalg::LinalgError),
}

impl fmt::Display for QbdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QbdError::InvalidBlocks { message } => write!(f, "invalid QBD blocks: {message}"),
            QbdError::Unstable { up_rate, down_rate } => write!(
                f,
                "QBD is unstable: mean up-rate {up_rate:.6} >= mean down-rate {down_rate:.6}"
            ),
            QbdError::NoConvergence {
                stage,
                iterations,
                residual,
            } => write!(
                f,
                "{stage} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            QbdError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
            QbdError::NumericalBreakdown { stage, iteration } => write!(
                f,
                "{stage} produced non-finite or out-of-range values at iteration {iteration}"
            ),
            QbdError::DeadlineExceeded { stage, iterations } => write!(
                f,
                "deadline expired in {stage} after {iterations} iterations"
            ),
            QbdError::Cancelled { stage, iterations } => write!(
                f,
                "cancelled in {stage} after {iterations} iterations"
            ),
            QbdError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl QbdError {
    /// The typed error for a fired `Stop` observed in `stage` after
    /// `iterations` iterations.
    pub(crate) fn interrupted(why: Interrupt, stage: &'static str, iterations: usize) -> Self {
        match why {
            Interrupt::Cancelled => QbdError::Cancelled { stage, iterations },
            Interrupt::DeadlineExceeded => QbdError::DeadlineExceeded { stage, iterations },
        }
    }

    /// The inverse of [`QbdError::interrupted`]: why the stop fired and
    /// the iterations run before it, or `None` for any other error.
    pub(crate) fn interrupt(&self) -> Option<(Interrupt, usize)> {
        match *self {
            QbdError::Cancelled { iterations, .. } => Some((Interrupt::Cancelled, iterations)),
            QbdError::DeadlineExceeded { iterations, .. } => {
                Some((Interrupt::DeadlineExceeded, iterations))
            }
            _ => None,
        }
    }
}

impl std::error::Error for QbdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QbdError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<performa_linalg::LinalgError> for QbdError {
    fn from(e: performa_linalg::LinalgError) -> Self {
        QbdError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = QbdError::Unstable {
            up_rate: 2.0,
            down_rate: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("unstable"));
        assert!(s.contains("2.0"));

        let e = QbdError::InvalidBlocks {
            message: "row sums".into(),
        };
        assert!(e.to_string().contains("row sums"));

        let e = QbdError::NumericalBreakdown {
            stage: "logred",
            iteration: 7,
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains('7'));

        let e = QbdError::DeadlineExceeded {
            stage: "supervisor",
            iterations: 12,
        };
        assert!(e.to_string().contains("deadline"));

        let e = QbdError::InvalidParameter {
            message: "rho".into(),
        };
        assert!(e.to_string().contains("rho"));

        let e = QbdError::Cancelled {
            stage: "logred",
            iterations: 3,
        };
        assert!(e.to_string().contains("cancelled"));
        assert!(e.to_string().contains("logred"));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e: QbdError = performa_linalg::LinalgError::Singular { pivot: 3 }.into();
        assert!(e.source().is_some());
    }
}
