//! `performa-core` — the analytic performability model of
//! *Performability Models for Multi-Server Systems with High-Variance
//! Repair Durations* (Schwefel & Antonios, DSN 2007).
//!
//! A cluster of `N` statistically identical nodes serves Poisson task
//! arrivals from a common dispatcher queue. Each node alternates between an
//! UP period (full rate `ν_p`) and a DOWN/repair period (degraded rate
//! `δ·ν_p`). Under exponential task times and load independence the system
//! is an **M/MMPP/1 queue** solved exactly by matrix-geometric methods.
//!
//! The crate exposes:
//!
//! * [`ClusterModel`] — validated model definition (builder included) and
//!   the assembly pipeline distribution → modulator → QBD,
//! * [`ClusterSolution`] — mean queue length (absolute and normalized by
//!   M/M/1), queue-length tails and pmf, delay-bound violation estimates,
//! * [`blowup`] — the paper's blow-up point analysis: threshold rates
//!   `ν_i` (Eq. 3), utilization regions (Eq. 4), availability regions
//!   (Eq. 5) and queue-tail exponents `β_i = i(α−1)+1`,
//! * [`telco`] — the cluster ↔ N-Burst teletraffic duality of Sect. 2.3,
//! * [`LoadDependentCluster`] — the Sect. 2.4 extension in which fewer
//!   tasks than servers reduce the attainable service rate (level-dependent
//!   QBD), closing the gap to the physical multi-processor system,
//! * [`FiniteBufferCluster`] — the ME/MMPP/1/K finite-dispatcher-queue
//!   variant with loss probabilities,
//! * [`ClusterModel::solve_supervised`] — the solve ladder every
//!   solve runs ([`ClusterModel::solve`] and the sweep pool included):
//!   logarithmic reduction with numerical watchdogs and one hardened
//!   retry after a breakdown, returning a structured [`SolveReport`].
//!
//! # Quickstart: reproducing a point of the paper's Figure 1
//!
//! ```
//! use performa_core::ClusterModel;
//! use performa_dist::{Exponential, TruncatedPowerTail};
//!
//! let model = ClusterModel::builder()
//!     .servers(2)
//!     .peak_rate(2.0)
//!     .degradation(0.2)
//!     .up(Exponential::with_mean(90.0)?)
//!     .down(TruncatedPowerTail::with_mean(10, 1.4, 0.2, 10.0)?)
//!     .utilization(0.7)
//!     .build()?;
//!
//! let sol = model.solve()?;
//! // Deep in the paper's blow-up region the normalized mean queue length
//! // is orders of magnitude above M/M/1.
//! assert!(sol.normalized_mean_queue_length() > 30.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blowup;
pub mod ctrl;
pub mod sensitivity;
pub mod sweep;
pub mod telco;

mod crash_discard;
mod error;
mod finite_buffer;
mod load_dep;
mod map_arrivals;
mod model;
mod performability;
mod solution;

pub use crash_discard::{CrashDiscardCluster, CrashDiscardSolution};
pub use ctrl::{install_sigint, RunBudget, Stop, EXIT_PARTIAL};
pub use error::CoreError;
pub use finite_buffer::{FiniteBufferCluster, FiniteBufferSolution};
pub use load_dep::{LoadDependentCluster, LoadDependentSolution};
pub use map_arrivals::{MeArrivalCluster, MeArrivalSolution};
pub use model::{ClusterBuilder, ClusterModel};
pub use performability::TransientAnalysis;
pub use solution::ClusterSolution;
pub use sweep::{
    store_key, Axis, Grid, Scenario, SweepOptions, SweepPlan, SweepPoint, SweepResult, SweepStats,
};

// Re-exported so sweep callers can open/merge/verify the durable
// result store without a direct store dependency.
pub use performa_store::{
    merge as store_merge, verify as store_verify, OpenStats, PointKey, PointRecord, StoreError,
    StoreHandle,
};

// Re-exported so callers of [`ClusterModel::solve_supervised`] can
// configure the solve ladder without a direct QBD dependency.
pub use performa_qbd::{
    SolveOptions, SolveReport, SolveWarning, SolverSupervisor, SupervisorOptions,
};

/// Result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, CoreError>;

/// One-line import for experiment binaries and downstream tools.
///
/// Pulls in the model builders, the sweep machinery, the supervised
/// solver configuration (including the
/// [`Hardening`](performa_qbd::Hardening) string round-trip) and the
/// distribution specs — everything a typical figure-reproduction `main`
/// touches:
///
/// ```
/// use performa_core::prelude::*;
///
/// let opts = SweepOptions::default().with_threads(1);
/// assert_eq!(opts.threads, 1);
/// ```
pub mod prelude {
    pub use crate::{blowup, sensitivity, telco};
    pub use crate::{
        install_sigint, store_key, Axis, ClusterBuilder, ClusterModel, ClusterSolution, CoreError,
        CrashDiscardCluster, CrashDiscardSolution, FiniteBufferCluster, FiniteBufferSolution, Grid,
        LoadDependentCluster, LoadDependentSolution, MeArrivalCluster, MeArrivalSolution,
        RunBudget, Scenario, SolveOptions, SolveReport, SolverSupervisor, Stop, StoreHandle,
        SupervisorOptions, SweepOptions, SweepPlan, SweepResult, SweepStats, TransientAnalysis,
        EXIT_PARTIAL,
    };
    pub use performa_dist::DistSpec;
    pub use performa_qbd::Hardening;
}
