use std::fmt;

/// Errors produced by the cluster performability model.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A model parameter was outside its documented domain.
    InvalidParameter {
        /// Explanation of the violated precondition.
        message: String,
    },
    /// A required model component was not supplied to the builder.
    MissingComponent {
        /// Name of the missing component, e.g. `"down distribution"`.
        name: &'static str,
    },
    /// The offered load is at or above the long-run service capacity.
    Unstable {
        /// Offered arrival rate λ.
        lambda: f64,
        /// Long-run capacity ν̄.
        capacity: f64,
    },
    /// Underlying distribution failure.
    Dist(performa_dist::DistError),
    /// Underlying Markov-model failure.
    Markov(performa_markov::MarkovError),
    /// Underlying QBD-solver failure.
    Qbd(performa_qbd::QbdError),
    /// A persisted failure record replayed from the durable result
    /// store: the point failed identically in an earlier run and is
    /// not re-attempted (pass `retry_failed` to force a re-solve).
    ReplayedFailure {
        /// Machine-readable failure class of the original error.
        kind: String,
        /// The original error's rendered message.
        message: String,
    },
    /// The durable result store failed (I/O or corruption).
    Store {
        /// The store layer's rendered error.
        message: String,
    },
    /// The sweep was cancelled (Ctrl-C or a cancelled `Stop`) or its
    /// run deadline passed before this point was solved. The
    /// point is *not* persisted as a failure — a resumed run re-solves
    /// it from scratch.
    Cancelled,
    /// The point tripped its per-point deadline twice (cold solve and
    /// hardened retry) and was persisted as a quarantined failure so a
    /// resumed run will not re-block a pool thread on it.
    Quarantined {
        /// What the point was doing when each deadline expired.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { message } => write!(f, "invalid parameter: {message}"),
            CoreError::MissingComponent { name } => {
                write!(f, "cluster builder is missing the {name}")
            }
            CoreError::Unstable { lambda, capacity } => write!(
                f,
                "cluster is unstable: arrival rate {lambda:.6} >= capacity {capacity:.6}"
            ),
            CoreError::Dist(e) => write!(f, "distribution error: {e}"),
            CoreError::Markov(e) => write!(f, "Markov model error: {e}"),
            CoreError::Qbd(e) => write!(f, "QBD solver error: {e}"),
            CoreError::ReplayedFailure { kind, message } => {
                write!(f, "replayed {kind} failure from result store: {message}")
            }
            CoreError::Store { message } => write!(f, "result store error: {message}"),
            CoreError::Cancelled => {
                write!(f, "sweep point cancelled before it was solved")
            }
            CoreError::Quarantined { message } => {
                write!(f, "point quarantined after repeated deadline trips: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dist(e) => Some(e),
            CoreError::Markov(e) => Some(e),
            CoreError::Qbd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<performa_dist::DistError> for CoreError {
    fn from(e: performa_dist::DistError) -> Self {
        CoreError::Dist(e)
    }
}

impl From<performa_markov::MarkovError> for CoreError {
    fn from(e: performa_markov::MarkovError) -> Self {
        CoreError::Markov(e)
    }
}

impl From<performa_qbd::QbdError> for CoreError {
    fn from(e: performa_qbd::QbdError) -> Self {
        CoreError::Qbd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::MissingComponent { name: "up distribution" }
            .to_string()
            .contains("up distribution"));
        assert!(CoreError::Unstable {
            lambda: 2.0,
            capacity: 1.0
        }
        .to_string()
        .contains("unstable"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e: CoreError = performa_qbd::QbdError::Unstable {
            up_rate: 1.0,
            down_rate: 0.5,
        }
        .into();
        assert!(e.source().is_some());
    }
}
