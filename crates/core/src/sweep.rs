//! Declarative parameter sweeps with a parallel, caching execution
//! engine.
//!
//! Every headline figure of the paper is a *sweep*: the same cluster
//! model solved at dozens of grid points along one axis (utilization,
//! availability, repair-tail truncation, …). This module replaces the
//! hand-rolled serial loops of the experiment binaries and the CLI with
//! a declarative pipeline:
//!
//! 1. A [`Scenario`] pairs a template [`ClusterModel`] with a named
//!    [`Axis`] and compiles into a [`SweepPlan`] — one prebuilt model
//!    per grid point (a bad point records its error and never kills the
//!    sweep).
//! 2. [`SweepPlan::run`] / [`SweepPlan::run_map`] execute the points on
//!    a work-stealing pool of `std` scoped threads (the worker pattern
//!    of `performa_sim::replicate`) and collect results **in index
//!    order**, so the output is deterministic regardless of thread
//!    count.
//! 3. A **modulator cache** shares the lumped MMPP service process
//!    between points whose failure/repair side is identical (every λ/ρ
//!    sweep), so a point builds only its QBD and solves it.
//!
//! # Determinism
//!
//! The engine is **bit-identical** to the serial loop
//! `for x { axis.apply(template, x).solve() }`: each point runs the
//! same solve ladder as [`ClusterModel::solve`] (the cached modulator
//! is built by the same deterministic construction it replaces), and
//! results are stored by index. A durable-store replay hands back the
//! stored parts of the original solve, so it is bit-identical too.
//!
//! # Example
//!
//! ```
//! use performa_core::{Axis, ClusterModel, Scenario};
//! use performa_dist::{Exponential, TruncatedPowerTail};
//!
//! let template = ClusterModel::builder()
//!     .servers(2)
//!     .peak_rate(2.0)
//!     .degradation(0.2)
//!     .up(Exponential::with_mean(90.0)?)
//!     .down(TruncatedPowerTail::with_mean(5, 1.4, 0.2, 10.0)?)
//!     .utilization(0.5)
//!     .build()?;
//! let result = Scenario::new(template, Axis::Rho(vec![0.2, 0.4, 0.6]))
//!     .compile()
//!     .run_map(|sol| sol.normalized_mean_queue_length());
//! assert_eq!(result.points().len(), 3);
//! assert!(result.points().iter().all(|p| p.outcome.is_ok()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use performa_dist::{Dist, Moments, TruncatedPowerTail};
use performa_linalg::{Matrix, Vector};
use performa_markov::Mmpp;
use performa_qbd::{Qbd, QbdError, QbdSolution, SolveOptions, SOLVER_VERSION};
use performa_store::{PointKey, PointRecord, StoreHandle};

use crate::ctrl::{Interrupt, RunBudget, Stop};
use crate::model::ClusterModel;
use crate::solution::ClusterSolution;
use crate::{CoreError, Result};

/// A refinable one-dimensional grid of sweep coordinates.
///
/// [`Grid::refine_near`] densifies the grid around interesting
/// abscissae (the blow-up thresholds `ρ_i` of the paper) with the fixed
/// scheme the committed figure grids were generated with, so the
/// figures reproduce their grids bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    values: Vec<f64>,
}

impl Grid {
    /// A linear grid of `steps + 1` points from `lo` to `hi` inclusive.
    pub fn linear(lo: f64, hi: f64, steps: usize) -> Grid {
        let steps = steps.max(1);
        Grid {
            values: (0..=steps)
                .map(|i| lo + (hi - lo) * i as f64 / steps as f64)
                .collect(),
        }
    }

    /// Adds refinement points at `±0.02` and `±0.005` around each
    /// threshold (clamped to the open interval of the grid), then sorts
    /// and deduplicates at `1e-9` — the exact refinement scheme the
    /// paper figures use near the blow-up utilizations `ρ_i`.
    #[must_use]
    pub fn refine_near(mut self, thresholds: &[f64]) -> Grid {
        let (lo, hi) = match (self.values.first(), self.values.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => return self,
        };
        for &r in thresholds {
            for eps in [-0.02, -0.005, 0.005, 0.02] {
                let x = r + eps;
                if x > lo && x < hi {
                    self.values.push(x);
                }
            }
        }
        self.values
            .sort_by(|a, b| a.partial_cmp(b).expect("grid values are not NaN"));
        self.values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        self
    }

    /// The grid coordinates, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the grid into its coordinate vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

/// The swept model parameter, with one value per grid point.
///
/// Each axis fixes how a grid coordinate `x` transforms the scenario's
/// template model:
///
/// * [`Axis::Rho`] — utilization; `λ` is set to `x·ν̄`.
/// * [`Axis::Lambda`] — raw arrival rate.
/// * [`Axis::Delta`] — degradation factor `δ` at fixed `λ`.
/// * [`Axis::Availability`] — cycle-preserving availability rescale
///   ([`ClusterModel::with_availability`]) at fixed `λ`.
/// * [`Axis::TptOrder`] — truncation order `T` of a TPT repair
///   distribution (same `α`, `θ`, mean) at fixed `λ`.
/// * [`Axis::Servers`] — cluster size `N` at fixed utilization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Axis {
    /// Sweep utilization `ρ = λ/ν̄`.
    Rho(Vec<f64>),
    /// Sweep the arrival rate `λ`.
    Lambda(Vec<f64>),
    /// Sweep the degradation factor `δ` at fixed arrival rate.
    Delta(Vec<f64>),
    /// Sweep per-node availability by cycle-preserving rescale, at
    /// fixed arrival rate.
    Availability(Vec<f64>),
    /// Sweep the repair-tail truncation order `T` (requires a
    /// truncated-power-tail DOWN distribution), at fixed arrival rate.
    TptOrder(Vec<u32>),
    /// Sweep the cluster size `N` at fixed utilization.
    Servers(Vec<usize>),
}

impl Axis {
    /// The axis name used for spans and CSV headers.
    pub fn label(&self) -> &'static str {
        match self {
            Axis::Rho(_) => "rho",
            Axis::Lambda(_) => "lambda",
            Axis::Delta(_) => "delta",
            Axis::Availability(_) => "availability",
            Axis::TptOrder(_) => "tpt_order",
            Axis::Servers(_) => "servers",
        }
    }

    /// The grid coordinates as `f64` (integer axes are widened).
    pub fn coordinates(&self) -> Vec<f64> {
        match self {
            Axis::Rho(v) | Axis::Lambda(v) | Axis::Delta(v) | Axis::Availability(v) => v.clone(),
            Axis::TptOrder(v) => v.iter().map(|&t| f64::from(t)).collect(),
            Axis::Servers(v) => v.iter().map(|&n| n as f64).collect(),
        }
    }

    /// Builds the model for coordinate index `i` from the template.
    fn apply(&self, template: &ClusterModel, i: usize) -> Result<ClusterModel> {
        match self {
            Axis::Rho(v) => template.with_utilization(v[i]),
            Axis::Lambda(v) => template.with_arrival_rate(v[i]),
            Axis::Delta(v) => ClusterModel::builder()
                .servers(template.servers())
                .peak_rate(template.peak_rate())
                .degradation(v[i])
                .up(template.up().clone())
                .down(template.down().clone())
                .arrival_rate(template.arrival_rate())
                .build(),
            Axis::Availability(v) => template.with_availability(v[i]),
            Axis::TptOrder(v) => {
                let down = match template.down() {
                    Dist::TruncatedPowerTail(t) => TruncatedPowerTail::with_mean(
                        v[i],
                        t.alpha(),
                        t.theta(),
                        t.mean(),
                    )?,
                    other => {
                        return Err(CoreError::InvalidParameter {
                            message: format!(
                                "TptOrder axis requires a TPT repair distribution, got {}",
                                other.family()
                            ),
                        })
                    }
                };
                ClusterModel::builder()
                    .servers(template.servers())
                    .peak_rate(template.peak_rate())
                    .degradation(template.degradation())
                    .up(template.up().clone())
                    .down(down)
                    .arrival_rate(template.arrival_rate())
                    .build()
            }
            Axis::Servers(v) => ClusterModel::builder()
                .servers(v[i])
                .peak_rate(template.peak_rate())
                .degradation(template.degradation())
                .up(template.up().clone())
                .down(template.down().clone())
                .utilization(template.utilization())
                .build(),
        }
    }
}

/// A model template plus the axis to sweep — the declarative input of
/// the engine.
#[derive(Debug, Clone)]
pub struct Scenario {
    template: ClusterModel,
    axis: Axis,
}

impl Scenario {
    /// Pairs a template model with a sweep axis.
    pub fn new(template: ClusterModel, axis: Axis) -> Self {
        Scenario { template, axis }
    }

    /// Compiles the scenario into an executable [`SweepPlan`]: one
    /// model per grid point, built eagerly. A point whose model cannot
    /// be built (e.g. a parameter outside its domain) is recorded as a
    /// failed point; it does not abort compilation.
    pub fn compile(self) -> SweepPlan {
        let xs = self.axis.coordinates();
        let models = (0..xs.len()).map(|i| self.axis.apply(&self.template, i));
        SweepPlan::assemble(self.axis.label(), xs.clone().into_iter(), models)
    }
}

/// Execution knobs of a [`SweepPlan`].
///
/// Marked `#[non_exhaustive]`: construct with [`SweepOptions::default`]
/// and the `with_*` builders so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Worker threads; `0` means all available parallelism. The thread
    /// count never changes results — collection is index-ordered.
    pub threads: usize,
    /// Durable result store. When set, the pool consults the store
    /// before solving each point (a hit replays the persisted solution
    /// bit-identically via [`performa_qbd::QbdSolution::from_parts`])
    /// and appends every fresh outcome — solved points *and* typed
    /// solver failures — after solving. A killed sweep rerun with the
    /// same store therefore re-solves only the gap.
    pub store: Option<StoreHandle>,
    /// Re-attempt points whose store record is a persisted *failure*
    /// instead of replaying the failure. (Solved records are always
    /// replayed; a solver-version bump invalidates both kinds by
    /// changing the key.)
    pub retry_failed: bool,
    /// Interruption of the whole run. When it is cancelled (Ctrl-C via
    /// [`crate::install_sigint`], or programmatically) or its deadline
    /// passes, the pool stops issuing points and every unsolved point
    /// reports [`CoreError::Cancelled`] — which is never persisted, so a
    /// resumed run with the same store re-solves exactly the gap.
    /// In-flight solves abort at their next interrupt check on
    /// cancellation. The deadline is the whole-run budget: [`RunBudget`]
    /// splits it into per-point deadlines (fair share, raised for
    /// expensive-looking points, floored — see [`crate::ctrl`]). It is
    /// fixed when the stop is built, so every plan run with clones of
    /// these options shares it.
    pub stop: Stop,
    /// Fixed per-point deadline. A point that trips it twice — the
    /// first grant and one fresh grant of the same solve ladder — is
    /// persisted as a *quarantined* failure ([`CoreError::Quarantined`])
    /// so a resumed run replays the failure instead of re-blocking a
    /// pool thread on it. Combined with a deadline on `stop`, the
    /// tighter of the two grants applies.
    pub point_deadline: Option<Duration>,
}

impl SweepOptions {
    /// Sets the per-point worker thread count (`0` = all cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a durable result store.
    #[must_use]
    pub fn with_store(mut self, store: StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Re-attempts points whose store record is a persisted failure.
    #[must_use]
    pub fn with_retry_failed(mut self, on: bool) -> Self {
        self.retry_failed = on;
        self
    }

    /// Sets the [`Stop`] that interrupts the run (see
    /// [`SweepOptions::stop`]).
    #[must_use]
    pub fn with_stop(mut self, stop: Stop) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the fixed per-point deadline.
    #[must_use]
    pub fn with_point_deadline(mut self, deadline: Duration) -> Self {
        self.point_deadline = Some(deadline);
        self
    }
}

/// One compiled grid point: coordinate, prebuilt model (or its build
/// error) and the modulator-cache group it belongs to.
#[derive(Debug, Clone)]
struct PlanPoint {
    x: f64,
    model: std::result::Result<ClusterModel, String>,
    group: usize,
}

impl PlanPoint {
    /// The point's model, or its build error as the point's outcome.
    fn model(&self) -> Result<&ClusterModel> {
        self.model
            .as_ref()
            .map_err(|message| CoreError::InvalidParameter {
                message: message.clone(),
            })
    }
}

/// A compiled, executable sweep: prebuilt per-point models, the
/// modulator-cache grouping, and the execution options.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    label: &'static str,
    points: Vec<PlanPoint>,
    groups: usize,
    options: SweepOptions,
}

/// λ-independent fingerprint of the model's failure/repair side — the
/// modulator-cache key ("the model minus the swept axis"). Two points
/// with equal fingerprints have bit-identical `⟨Q₁,L₁⟩` server models
/// and lumped aggregates.
fn modulator_fingerprint(model: &ClusterModel) -> String {
    format!(
        "n={};nu={};delta={};up={:?};down={:?}",
        model.servers(),
        model.peak_rate().to_bits(),
        model.degradation().to_bits(),
        model.up(),
        model.down(),
    )
}

/// The durable-store key of one sweep point: the λ-completed model
/// fingerprint (every builder input, with `f64`s as exact bits), the
/// grid coordinate, and the solver-stack version. Equal keys guarantee
/// bit-identical solves, which is what makes store replay safe.
pub fn store_key(model: &ClusterModel, x: f64) -> PointKey {
    PointKey {
        fingerprint: format!(
            "{};lambda={}",
            modulator_fingerprint(model),
            model.arrival_rate().to_bits()
        ),
        solver_version: SOLVER_VERSION,
        x_bits: x.to_bits(),
    }
}

impl SweepPlan {
    /// Starts a [`Grid`] builder (`SweepPlan::grid(lo, hi, steps)
    /// .refine_near(&thresholds)` is the canonical figure grid).
    pub fn grid(lo: f64, hi: f64, steps: usize) -> Grid {
        Grid::linear(lo, hi, steps)
    }

    /// Compiles a plan from explicit coordinates and a model builder —
    /// the escape hatch for sweeps no named [`Axis`] expresses (e.g.
    /// Fig. 5's per-point re-fitted HYP-2 repair distribution). The
    /// builder runs eagerly, once per coordinate; a failed build is
    /// recorded as a failed point.
    pub fn from_builder<F>(label: &'static str, xs: Vec<f64>, mut build: F) -> SweepPlan
    where
        F: FnMut(f64) -> Result<ClusterModel>,
    {
        let models: Vec<Result<ClusterModel>> = xs.iter().map(|&x| build(x)).collect();
        SweepPlan::assemble(label, xs.into_iter(), models.into_iter())
    }

    fn assemble(
        label: &'static str,
        xs: impl Iterator<Item = f64>,
        models: impl Iterator<Item = Result<ClusterModel>>,
    ) -> SweepPlan {
        let mut group_of: HashMap<String, usize> = HashMap::new();
        let points = xs
            .zip(models)
            .map(|(x, model)| match model {
                Ok(m) => {
                    let next = group_of.len();
                    let group = *group_of.entry(modulator_fingerprint(&m)).or_insert(next);
                    PlanPoint {
                        x,
                        model: Ok(m),
                        group,
                    }
                }
                Err(e) => PlanPoint {
                    x,
                    model: Err(e.to_string()),
                    group: usize::MAX,
                },
            })
            .collect::<Vec<_>>();
        let groups = group_of.len();
        SweepPlan {
            label,
            points,
            groups,
            options: SweepOptions::default(),
        }
    }

    /// Replaces the execution options.
    #[must_use]
    pub fn with_options(mut self, options: SweepOptions) -> Self {
        self.options = options;
        self
    }

    /// Restricts the plan to shard `i` of `n`: the points whose plan
    /// index is `≡ i (mod n)`. Round-robin assignment keeps every
    /// shard's load comparable even when cost varies smoothly along
    /// the axis (it spikes near the blow-up thresholds). Runs of all
    /// `n` shards against per-shard stores, followed by a store merge,
    /// reproduce the unsharded run exactly — store keys depend on the
    /// model and coordinate, never on the sharding.
    ///
    /// # Panics
    ///
    /// Panics unless `i < n` and `n > 0`.
    #[must_use]
    pub fn shard(mut self, i: usize, n: usize) -> Self {
        assert!(n > 0 && i < n, "shard index {i} out of range for {n} shards");
        let mut idx = 0usize;
        self.points.retain(|_| {
            let keep = idx % n == i;
            idx += 1;
            keep
        });
        // Group ids and the group count stay as compiled: unused
        // modulator-cache cells are harmless, and keeping ids stable
        // means a shard still shares cells exactly like the full plan.
        self
    }

    /// The axis label the plan was compiled from.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The grid coordinates, in plan order.
    pub fn coordinates(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// Solves every point and returns the full per-point solutions.
    pub fn run(&self) -> SweepResult<ClusterSolution> {
        self.run_map(|sol| sol.clone())
    }

    /// Solves every point and projects each solution through `f`
    /// inside the worker (so full solutions are never retained).
    pub fn run_map<T, F>(&self, f: F) -> SweepResult<T>
    where
        T: Send,
        F: Fn(&ClusterSolution) -> T + Sync,
    {
        let ctx = ExecContext::new(self);
        let points = self.execute(&ctx, |point, i, cost| {
            ctx.solve_point(point, i, cost).map(|sol| f(&sol))
        });
        ctx.finish(points)
    }

    /// Maps every point's *model* through `f` on the worker pool
    /// without solving — for analytic per-point work such as the
    /// blow-up threshold tables.
    pub fn map_models<T, F>(&self, f: F) -> SweepResult<T>
    where
        T: Send,
        F: Fn(&ClusterModel) -> Result<T> + Sync,
    {
        let ctx = ExecContext::new(self);
        let points = self.execute(&ctx, |point, _, _| f(point.model()?));
        ctx.finish(points)
    }

    /// Work-stealing execution over the point indices with index-ordered
    /// collection — the worker pattern of `performa_sim::replicate`.
    /// Each point runs inside its `sweep.point` span, is timed, and
    /// leaves a [`PointCost`] next to its outcome.
    fn execute<T, F>(&self, ctx: &ExecContext<'_>, job: F) -> Vec<SweepPoint<T>>
    where
        T: Send,
        F: Fn(&PlanPoint, usize, &mut PointCost) -> Result<T> + Sync,
    {
        let n = self.points.len();
        let threads = effective_threads(self.options.threads, n);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<(Result<T>, PointCost)>> = (0..n).map(|_| None).collect();
        let slots_mx = Mutex::new(&mut slots);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    loop {
                        // Cancellation / budget-exhaustion checkpoint:
                        // once the run is stopping no further points are
                        // issued — their slots stay empty and are
                        // reported as `Cancelled` below.
                        if ctx.should_stop() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let point = &self.points[i];
                        let _span = performa_obs::span_with(
                            "sweep.point",
                            vec![
                                ("axis", self.label.into()),
                                ("index", i.into()),
                                ("x", point.x.into()),
                            ],
                        );
                        let started = Instant::now();
                        let mut cost = PointCost::default();
                        // One bad point must not kill the sweep: typed
                        // errors flow into the slot, and a panic in the
                        // solver is captured the same way.
                        let out = catch_unwind(AssertUnwindSafe(|| job(point, i, &mut cost)))
                            .unwrap_or_else(|payload| {
                                Err(CoreError::InvalidParameter {
                                    message: format!(
                                        "sweep point {i} panicked: {}",
                                        panic_message(payload.as_ref())
                                    ),
                                })
                            });
                        cost.elapsed = started.elapsed();
                        let solved = matches!(cost.source, CostSource::Cold | CostSource::Retry);
                        if out.is_ok() && solved {
                            // Feed the budget's cost EWMA with real solve
                            // times only — store replays are microseconds
                            // and say nothing about what an unsolved point
                            // will cost.
                            ctx.budget.record(cost.elapsed);
                        }
                        let mut guard =
                            slots_mx.lock().unwrap_or_else(|poison| poison.into_inner());
                        guard[i] = Some((out, cost));
                    }
                });
            }
        });

        let stopped = ctx.stopped();
        slots
            .into_iter()
            .zip(&self.points)
            .map(|(slot, point)| {
                let (outcome, cost) = slot.unwrap_or_else(|| {
                    let never = if stopped {
                        CoreError::Cancelled
                    } else {
                        CoreError::InvalidParameter {
                            message: "sweep point was never executed".to_string(),
                        }
                    };
                    (Err(never), PointCost::default())
                });
                SweepPoint {
                    x: point.x,
                    outcome,
                    cost,
                }
            })
            .collect()
    }
}

fn effective_threads(requested: usize, points: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.clamp(1, points.max(1))
}

/// A solver error as the point's outcome. A cancelled solve becomes
/// the sweep's own [`CoreError::Cancelled`], which is never persisted;
/// every other error keeps its solver type.
fn point_error(e: QbdError) -> CoreError {
    match e {
        QbdError::Cancelled { .. } => CoreError::Cancelled,
        other => CoreError::Qbd(other),
    }
}

/// The persisted failure class of a point error — `None` for
/// deterministic model-level errors (bad parameters, instability),
/// which recompute for free and never enter the store log, and for
/// [`CoreError::Cancelled`]: a cancelled point was never diagnosed, so
/// persisting it would make the resumed run replay a phantom failure.
fn failure_kind(e: &CoreError) -> Option<&'static str> {
    match e {
        CoreError::Qbd(QbdError::NumericalBreakdown { .. }) => Some("numerical_breakdown"),
        CoreError::Qbd(QbdError::NoConvergence { .. }) => Some("no_convergence"),
        CoreError::Qbd(QbdError::DeadlineExceeded { .. }) => Some("deadline_exceeded"),
        CoreError::Qbd(QbdError::Linalg(_)) => Some("linalg"),
        CoreError::Quarantined { .. } => Some("quarantined"),
        _ => None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Shared execution context of one run: the modulator cache and the
/// run's counters.
struct ExecContext<'a> {
    plan: &'a SweepPlan,
    /// One cell per fingerprint group; the first point of a group
    /// builds, later points reuse the `Arc`.
    modulators: Vec<OnceLock<std::result::Result<Arc<Mmpp>, String>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    store_hits: AtomicU64,
    store_appends: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    /// Splits the run's deadline, when its stop has one, into per-point
    /// grants.
    budget: RunBudget,
    /// Latched once a worker observes the run's stop fire; unissued
    /// slots then map to [`CoreError::Cancelled`].
    stopped: AtomicBool,
    started: Instant,
}

impl<'a> ExecContext<'a> {
    fn new(plan: &'a SweepPlan) -> Self {
        ExecContext {
            plan,
            modulators: (0..plan.groups).map(|_| OnceLock::new()).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_appends: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            budget: RunBudget::default(),
            stopped: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// Whether the run is stopping (cancelled or out of time). Checked
    /// by every worker before pulling the next point; the first
    /// observation latches the stop, emits the cancellation event and
    /// dumps the flight recorder for the post-mortem.
    fn should_stop(&self) -> bool {
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        let Some(why) = self.plan.options.stop.probe() else {
            return false;
        };
        self.mark_stopped(match why {
            Interrupt::Cancelled => "cancelled",
            Interrupt::DeadlineExceeded => "budget_exhausted",
        });
        true
    }

    /// Whether a stop was observed at any time during the run.
    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Latches the stop flag; the first caller records why.
    fn mark_stopped(&self, reason: &'static str) {
        if !self.stopped.swap(true, Ordering::Relaxed) {
            performa_obs::event(
                performa_obs::TraceLevel::Warn,
                "sweep.stopping",
                vec![("axis", self.plan.label.into()), ("reason", reason.into())],
            );
            performa_obs::flight::dump("sweep_cancelled");
        }
    }

    /// The stop for one point attempt: the run's stop with a fresh
    /// deadline from the fixed per-point deadline and/or a budget
    /// allotment against the run's deadline, whichever is tighter. A
    /// passed run deadline latches the stop and cancels the point.
    fn point_stop(&self, index: usize) -> Result<Stop> {
        let run = &self.plan.options.stop;
        let mut grant = self.plan.options.point_deadline;
        if let Some(deadline) = run.deadline() {
            // Points are issued in index order, so the unissued remainder
            // of the grid is a good estimate of how many ways the
            // remaining budget must still stretch.
            let points_left = self.plan.points.len().saturating_sub(index).max(1);
            let Some(allotted) = self.budget.allot(deadline, points_left) else {
                self.mark_stopped("budget_exhausted");
                return Err(CoreError::Cancelled);
            };
            grant = Some(grant.map_or(allotted, |fixed| fixed.min(allotted)));
        }
        Ok(grant.map_or_else(|| run.clone(), |g| run.child(g)))
    }

    /// Counts and reports a quarantined point: the per-point deadline
    /// tripped on both of its grants.
    fn quarantine(&self, x: f64, first: &QbdError, second: &QbdError) -> CoreError {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        performa_obs::counter_add("sweep.quarantined", 1);
        performa_obs::event(
            performa_obs::TraceLevel::Warn,
            "sweep.quarantined",
            vec![("axis", self.plan.label.into()), ("x", x.into())],
        );
        CoreError::Quarantined {
            message: format!("first grant: {first}; second grant: {second}"),
        }
    }

    /// The lumped MMPP for this point, through the cache. The cached
    /// object is bit-identical to a fresh
    /// [`ClusterModel::service_process`], so the cache never changes
    /// results — only skips rebuilding.
    fn modulator(&self, point: &PlanPoint, model: &ClusterModel) -> Result<Arc<Mmpp>> {
        let cell = &self.modulators[point.group];
        if let Some(cached) = cell.get() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            performa_obs::counter_add("sweep.cache_hit", 1);
            return cached.clone().map_err(|message| CoreError::InvalidParameter { message });
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let built = model
            .service_process()
            .map(Arc::new)
            .map_err(|e| e.to_string());
        // Two workers may race on the first points of a group; both
        // build the same bits, and whichever `set` wins is equivalent.
        let _ = cell.set(built.clone());
        built.map_err(|message| CoreError::InvalidParameter { message })
    }

    /// One point's pipeline: stability gate, store lookup, the solve
    /// with its deadline rule, then persisting the fresh outcome.
    fn solve_point(
        &self,
        point: &PlanPoint,
        index: usize,
        cost: &mut PointCost,
    ) -> Result<ClusterSolution> {
        let model = point.model()?;
        // Same stability gate as `ClusterModel::solve`, so failed points
        // carry the same typed error the serial loop produced. Running
        // it before the store consult keeps deterministic model-level
        // errors out of the log entirely.
        if model.arrival_rate() >= model.capacity() {
            return Err(CoreError::Unstable {
                lambda: model.arrival_rate(),
                capacity: model.capacity(),
            });
        }
        let Some(store) = &self.plan.options.store else {
            return self.solve(point, model, index, cost);
        };
        let key = store_key(model, point.x);
        if let Some(replayed) = self.lookup(store, &key, model, cost) {
            return replayed;
        }
        let outcome = self.solve(point, model, index, cost);
        self.persist(store, &key, &outcome)?;
        outcome
    }

    /// The store's answer for `key`, when it has one to replay: a solved
    /// record hands back its stored parts, a failure record
    /// replays as [`CoreError::ReplayedFailure`] unless the run retries
    /// failures. `None` means the point must be solved.
    fn lookup(
        &self,
        store: &StoreHandle,
        key: &PointKey,
        model: &ClusterModel,
        cost: &mut PointCost,
    ) -> Option<Result<ClusterSolution>> {
        let replayed = match store.get(key)? {
            PointRecord::Solved {
                m,
                pi0,
                pi1,
                r,
                s1,
                s2,
                s3,
            } => replay_solved(model, m as usize, pi0, pi1, r, [s1, s2, s3]),
            PointRecord::Failed { .. } if self.plan.options.retry_failed => return None,
            PointRecord::Failed { kind, message } => {
                Err(CoreError::ReplayedFailure { kind, message })
            }
        };
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        cost.source = CostSource::Store;
        cost.strategy = "replay";
        Some(replayed)
    }

    /// Appends a fresh point outcome to the store. Solved points are
    /// always persisted; failures only when they are solver-stage
    /// errors (see [`failure_kind`]) — deterministic model-level errors
    /// recompute for free and never enter the log.
    fn persist(
        &self,
        store: &StoreHandle,
        key: &PointKey,
        outcome: &Result<ClusterSolution>,
    ) -> Result<()> {
        let record = match outcome {
            Ok(sol) => {
                let q = sol.qbd();
                let [s1, s2, s3] = q.geometric_sums().each_ref().map(|s| s.as_slice().to_vec());
                PointRecord::Solved {
                    m: q.phase_dim() as u32,
                    pi0: q.pi0().as_slice().to_vec(),
                    pi1: q.pi1().as_slice().to_vec(),
                    r: q.r_matrix().as_slice().to_vec(),
                    s1,
                    s2,
                    s3,
                }
            }
            Err(e) => match failure_kind(e) {
                Some(kind) => PointRecord::Failed {
                    kind: kind.to_string(),
                    message: e.to_string(),
                },
                None => return Ok(()),
            },
        };
        store.append(key, &record).map_err(|e| CoreError::Store {
            message: e.to_string(),
        })?;
        self.store_appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Solves one point: the cached modulator, then the QBD solve
    /// ladder — exactly `ClusterModel::solve`'s solver invocation, so a
    /// point's answer does not depend on the path that produced it. The
    /// sweep adds only a time rule: a deadline trip may be a starved
    /// grant (a noisy cost estimate, a contended pool), so it earns one
    /// fresh grant of the same ladder, and a second trip quarantines
    /// the point. A point that needed the ladder's hardened retry, or a
    /// second grant, counts as a retry.
    fn solve(
        &self,
        point: &PlanPoint,
        model: &ClusterModel,
        index: usize,
        cost: &mut PointCost,
    ) -> Result<ClusterSolution> {
        let mmpp = self.modulator(point, model)?;
        let qbd = Qbd::m_mmpp1(model.arrival_rate(), mmpp.generator(), mmpp.rates())?;
        let ladder = |stop: Stop| qbd.solve_reported(&SolveOptions::default().with_stop(stop));
        cost.strategy = "logred";
        let (outcome, regranted) = match ladder(self.point_stop(index)?) {
            Err(first @ QbdError::DeadlineExceeded { .. }) => {
                let second = ladder(self.point_stop(index)?).map_err(|second| match second {
                    QbdError::DeadlineExceeded { .. } => self.quarantine(point.x, &first, &second),
                    other => point_error(other),
                });
                (second, true)
            }
            first => (first.map_err(point_error), false),
        };
        let retried = regranted || matches!(&outcome, Ok((_, report)) if report.degraded);
        cost.source = if retried {
            self.retries.fetch_add(1, Ordering::Relaxed);
            performa_obs::counter_add("sweep.retry", 1);
            CostSource::Retry
        } else {
            CostSource::Cold
        };
        let (sol, report) = outcome?;
        cost.iterations = report.total_iterations as u64;
        Ok(ClusterSolution::new(model.clone(), sol))
    }

    /// Assembles the run statistics, flushes the store, and emits the
    /// run-level gauges.
    fn finish<T>(self, mut points: Vec<SweepPoint<T>>) -> SweepResult<T> {
        if let Some(store) = &self.plan.options.store {
            // End-of-run durability point: batched appends hit disk
            // here. A flush failure is surfaced on the first
            // otherwise-successful point rather than silently dropped.
            if let Err(e) = store.flush() {
                if let Some(p) = points.iter_mut().find(|p| p.outcome.is_ok()) {
                    p.outcome = Err(CoreError::Store {
                        message: format!("final flush failed: {e}"),
                    });
                }
            }
        }
        let solved = points.iter().filter(|p| p.outcome.is_ok()).count();
        let cancelled = points
            .iter()
            .filter(|p| matches!(p.outcome, Err(CoreError::Cancelled)))
            .count();
        let stats = SweepStats {
            points: points.len(),
            solved,
            failed: points.len() - solved,
            cancelled,
            quarantined: self.quarantined.load(Ordering::Relaxed) as usize,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_appends: self.store_appends.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            total_iterations: points.iter().map(|p| p.cost.iterations).sum(),
            threads: effective_threads(self.plan.options.threads, points.len()),
            elapsed: self.started.elapsed(),
        };
        if stats.cancelled > 0 {
            performa_obs::counter_add("sweep.cancelled", stats.cancelled as u64);
        }
        performa_obs::gauge_set("sweep.points_per_sec", stats.points_per_sec());
        SweepResult { points, stats }
    }
}

/// Rebuilds a [`ClusterSolution`] from a persisted solved record.
/// The stored vectors carry the exact bits of the original solve,
/// geometric sums included, and [`QbdSolution::from_parts`] recomputes
/// nothing — so every metric read off the replayed solution is
/// bit-identical to the original.
fn replay_solved(
    model: &ClusterModel,
    m: usize,
    pi0: Vec<f64>,
    pi1: Vec<f64>,
    r: Vec<f64>,
    sums: [Vec<f64>; 3],
) -> Result<ClusterSolution> {
    let inconsistent = |e: &dyn std::fmt::Display| CoreError::Store {
        message: format!("stored record is inconsistent: {e}"),
    };
    let r = Matrix::from_vec(m, m, r).map_err(|e| inconsistent(&e))?;
    let sol = QbdSolution::from_parts(
        Vector::from(pi0),
        Vector::from(pi1),
        r,
        sums.map(Vector::from),
    )
    .map_err(|e| inconsistent(&e))?;
    Ok(ClusterSolution::new(model.clone(), sol))
}

/// Which solve path produced (or failed to produce) a point's result —
/// together with [`PointCost::iterations`] the feature inputs for an
/// adaptive sweep scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSource {
    /// No solver ran: model-level error, or an analytic
    /// [`SweepPlan::map_models`] pass.
    #[default]
    Skipped,
    /// Replayed bit-exactly from the durable result store.
    Store,
    /// Cold solve through the solve ladder.
    Cold,
    /// Cold solve that needed the ladder's hardened retry (a breakdown
    /// rescued) or a second deadline grant.
    Retry,
}

impl CostSource {
    /// Short stable label (`store`, `cold`, `retry`, `skipped`).
    pub fn label(&self) -> &'static str {
        match self {
            CostSource::Skipped => "skipped",
            CostSource::Store => "store",
            CostSource::Cold => "cold",
            CostSource::Retry => "retry",
        }
    }
}

/// Per-point solve cost record: wall clock, solver iterations, the
/// `G`-strategy used and the path the result came from.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointCost {
    /// Wall clock spent on this point, from the store lookup to the
    /// projection of its result.
    pub elapsed: Duration,
    /// Solver `G`-stage iterations (0 for replayed or analytic points).
    pub iterations: u64,
    /// `G`-strategy key: `logred` (the solve ladder), `replay`, or
    /// empty when no solver ran.
    pub strategy: &'static str,
    /// The path that produced the outcome.
    pub source: CostSource,
}

/// One executed grid point: its coordinate, the typed outcome and the
/// solve cost record.
#[derive(Debug)]
pub struct SweepPoint<T> {
    /// The grid coordinate this point was solved at.
    pub x: f64,
    /// The projected result, or the typed per-point error.
    pub outcome: Result<T>,
    /// What the point cost and which path produced it.
    pub cost: PointCost,
}

/// Run statistics of a sweep, including both caching layers' hit
/// counters.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Total grid points.
    pub points: usize,
    /// Points that produced a value.
    pub solved: usize,
    /// Points that recorded a typed error.
    pub failed: usize,
    /// Points that were never solved because the run was cancelled or
    /// its budget ran out (a subset of `failed`). These points are not
    /// persisted — a resumed run re-solves exactly this gap.
    pub cancelled: usize,
    /// Points quarantined by this run: the per-point deadline tripped
    /// on both of the point's grants, and the
    /// failure was persisted so a resume replays it instead of
    /// re-blocking a pool thread (a subset of `failed`).
    pub quarantined: usize,
    /// Modulator-cache hits (points that reused a lumped MMPP).
    pub cache_hits: u64,
    /// Modulator-cache misses (points that built a lumped MMPP).
    pub cache_misses: u64,
    /// Points replayed from the durable result store (solved records
    /// and non-retried failure records alike).
    pub store_hits: u64,
    /// Fresh outcomes appended to the durable result store.
    pub store_appends: u64,
    /// Points solved by the ladder's hardened retry
    /// ([`performa_qbd::SolveReport::degraded`]) or re-granted after a
    /// deadline trip.
    pub retries: u64,
    /// Summed solver `G`-stage iterations across all points.
    pub total_iterations: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall clock of the run.
    pub elapsed: Duration,
}

impl SweepStats {
    /// Whether the run stopped early (cancellation or budget
    /// exhaustion) and these are partial results — the condition under
    /// which a CLI run exits with [`crate::EXIT_PARTIAL`].
    pub fn interrupted(&self) -> bool {
        self.cancelled > 0
    }

    /// Throughput over the whole run.
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.points as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// Index-ordered results of a sweep: one [`SweepPoint`] per grid point
/// plus the run's [`SweepStats`].
#[derive(Debug)]
pub struct SweepResult<T> {
    points: Vec<SweepPoint<T>>,
    stats: SweepStats,
}

impl<T> SweepResult<T> {
    /// The per-point outcomes, in grid order.
    pub fn points(&self) -> &[SweepPoint<T>] {
        &self.points
    }

    /// Consumes the result into its per-point outcomes.
    pub fn into_points(self) -> Vec<SweepPoint<T>> {
        self.points
    }

    /// The run statistics.
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// The values in grid order, panicking on the first failed point
    /// with its coordinate and typed error — the moral equivalent of
    /// the serial loops' `.expect(context)`.
    ///
    /// # Panics
    ///
    /// If any point failed.
    pub fn expect_values(self, context: &str) -> Vec<T> {
        self.points
            .into_iter()
            .map(|p| match p.outcome {
                Ok(v) => v,
                Err(e) => panic!("{context}: sweep point x = {} failed: {e}", p.x),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    // Every test that runs a plan holds `performa_obs::test_lock()`:
    // the recorder is process-global, so an unlocked plan's
    // `sweep.point` spans and `sweep.cache_hit` counters land in the
    // sink that `cache_hit_counter_reaches_memory_sink` counts.

    use super::*;
    use performa_dist::Exponential;

    /// Small, fast paper-style cluster (T = 3 keeps the phase dimension
    /// at 10, so debug-mode solves stay cheap).
    fn cluster(t: u32, rho: f64) -> ClusterModel {
        ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
            .utilization(rho)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_linear_and_refine_matches_legacy_rho_grid() {
        // The exact numbers `rho_grid(0.1, 0.9, 8, &[0.5])` produced.
        let grid = Grid::linear(0.1, 0.9, 8).refine_near(&[0.5]);
        let mut expected: Vec<f64> = (0..=8).map(|i| 0.1 + 0.8 * i as f64 / 8.0).collect();
        for eps in [-0.02, -0.005, 0.005, 0.02] {
            let x = 0.5 + eps;
            if x > 0.1 && x < 0.9 {
                expected.push(x);
            }
        }
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expected.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert_eq!(grid.values(), expected.as_slice());
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let _guard = performa_obs::test_lock();
        let grid = Grid::linear(0.1, 0.9, 7).into_values();
        let template = cluster(3, 0.5);

        // Ground truth: the historical serial loop.
        let serial: Vec<u64> = grid
            .iter()
            .map(|&rho| {
                template
                    .with_utilization(rho)
                    .unwrap()
                    .solve()
                    .unwrap()
                    .normalized_mean_queue_length()
                    .to_bits()
            })
            .collect();

        for threads in [1usize, 4] {
            let res = Scenario::new(template.clone(), Axis::Rho(grid.clone()))
                .compile()
                .with_options(SweepOptions {
                    threads,
                    ..SweepOptions::default()
                })
                .run_map(|sol| sol.normalized_mean_queue_length());
            let engine: Vec<u64> = res
                .expect_values("stable grid")
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(engine, serial, "threads = {threads} must be bit-identical");
        }
    }

    #[test]
    fn modulator_cache_hits_on_rho_sweeps() {
        // That the cache leaves the bits unchanged is asserted by
        // `parallel_equals_serial_bitwise`, against uncached solves.
        let _guard = performa_obs::test_lock();
        let grid = Grid::linear(0.2, 0.8, 5).into_values();
        let n = grid.len();
        let cached = Scenario::new(cluster(3, 0.5), Axis::Rho(grid))
            .compile()
            .with_options(SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            })
            .run_map(|sol| sol.mean_queue_length());
        assert_eq!(cached.stats().cache_misses, 1);
        assert_eq!(cached.stats().cache_hits, (n - 1) as u64);
    }

    #[test]
    fn bad_point_does_not_kill_the_sweep() {
        let _guard = performa_obs::test_lock();
        // ρ = 1.2 is unstable; ρ ≤ 0 cannot even build a model.
        let plan = Scenario::new(
            cluster(3, 0.5),
            Axis::Rho(vec![0.4, 1.2, -0.5, 0.6]),
        )
        .compile();
        let res = plan.run_map(|sol| sol.mean_queue_length());
        assert_eq!(res.stats().points, 4);
        assert_eq!(res.stats().solved, 2);
        assert_eq!(res.stats().failed, 2);
        assert!(res.points()[0].outcome.is_ok());
        assert!(matches!(
            res.points()[1].outcome,
            Err(CoreError::Unstable { .. })
        ));
        assert!(res.points()[2].outcome.is_err());
        assert!(res.points()[3].outcome.is_ok());
    }

    #[test]
    fn cache_hit_counter_reaches_memory_sink() {
        use performa_obs as obs;
        use std::sync::Arc;
        let _guard = obs::test_lock();
        let sink = Arc::new(obs::MemorySink::new());
        let id = obs::add_sink(sink.clone());
        obs::set_level(obs::TraceLevel::Debug);

        let grid = Grid::linear(0.3, 0.6, 3).into_values();
        let res = Scenario::new(cluster(3, 0.5), Axis::Rho(grid))
            .compile()
            .with_options(SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            })
            .run_map(|sol| sol.mean_queue_length());

        obs::set_level(obs::TraceLevel::Off);
        obs::remove_sink(id);

        let hits = sink
            .records()
            .iter()
            .filter(|r| matches!(r, obs::Record::Metric { name, .. } if *name == "sweep.cache_hit"))
            .count() as u64;
        assert_eq!(hits, res.stats().cache_hits);
        assert!(hits > 0, "expected sweep.cache_hit metrics in the sink");
        let spans = sink
            .records()
            .iter()
            .filter(|r| matches!(r, obs::Record::SpanOpen { name, .. } if *name == "sweep.point"))
            .count();
        assert_eq!(spans, res.stats().points);
    }

    #[test]
    fn axes_transform_the_template_as_documented() {
        let _guard = performa_obs::test_lock();
        let template = cluster(3, 0.5);

        let lam = Scenario::new(template.clone(), Axis::Lambda(vec![1.0, 1.5])).compile();
        assert_eq!(lam.coordinates(), vec![1.0, 1.5]);

        let delta = Scenario::new(template.clone(), Axis::Delta(vec![0.0, 0.4]))
            .compile()
            .map_models(|m| Ok(m.degradation()))
            .expect_values("delta axis");
        assert_eq!(delta, vec![0.0, 0.4]);

        let avail = Scenario::new(template.clone(), Axis::Availability(vec![0.5, 0.9]))
            .compile()
            .map_models(|m| Ok(m.availability()))
            .expect_values("availability axis");
        assert!((avail[0] - 0.5).abs() < 1e-12 && (avail[1] - 0.9).abs() < 1e-12);

        let servers = Scenario::new(template.clone(), Axis::Servers(vec![1, 5]))
            .compile()
            .map_models(|m| Ok((m.servers(), m.utilization())))
            .expect_values("servers axis");
        assert_eq!(servers[0].0, 1);
        assert_eq!(servers[1].0, 5);
        assert!((servers[0].1 - 0.5).abs() < 1e-12);

        let orders = Scenario::new(template.clone(), Axis::TptOrder(vec![2, 5]))
            .compile()
            .map_models(|m| {
                Ok(match m.down() {
                    Dist::TruncatedPowerTail(t) => (t.truncation(), t.mean()),
                    _ => unreachable!(),
                })
            })
            .expect_values("tpt order axis");
        assert_eq!((orders[0].0, orders[1].0), (2, 5));
        assert!((orders[0].1 - 10.0).abs() < 1e-9);

        // TptOrder on a non-TPT repair distribution is a per-point error.
        let exp_down = ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(Exponential::with_mean(10.0).unwrap())
            .utilization(0.5)
            .build()
            .unwrap();
        let res = Scenario::new(exp_down, Axis::TptOrder(vec![2]))
            .compile()
            .map_models(|m| Ok(m.servers()));
        assert!(res.points()[0].outcome.is_err());
    }
}
