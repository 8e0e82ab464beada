//! Implementation of the `performa` command-line tool.
//!
//! Subcommands:
//!
//! * `solve` — exact analytic solution of one cluster configuration,
//! * `blowup` — blow-up thresholds, regions and tail exponents,
//! * `sweep` — CSV series of a metric over a parameter range,
//! * `simulate` — discrete-event simulation with failure strategies,
//! * `sensitivity` — local parameter sensitivities,
//! * `store` — maintenance verbs (`verify`, `merge`) for the durable
//!   sweep-result store,
//! * `obs` — trace-consumption verbs (`report`, `diff`, `bench-trend`)
//!   over `--trace-json` output and the bench trend log.
//!
//! Distributions are written as compact specs:
//! `exp:MEAN`, `erlang:K:MEAN`, `hyp2:MEAN:SCV`,
//! `tpt:T:ALPHA:THETA:MEAN`, `pareto:ALPHA:MEAN` (simulation only),
//! `weibull:SHAPE:MEAN` (simulation only).
//!
//! The parsing layer is dependency-free and fully unit-tested; `main`
//! is a thin wrapper.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use performa_core::{
    blowup, install_sigint, sensitivity, store_merge, store_verify, Axis, ClusterModel, CoreError,
    Scenario, Stop, StoreError, StoreHandle, SupervisorOptions, SweepOptions, SweepPlan,
};
use performa_dist::{Dist, DistSpec};
use performa_sim::{
    replicate, ClusterSim, ClusterSimConfig, FailureStrategy, StopCriterion,
};

/// CLI usage text.
pub const USAGE: &str = "\
performa — performability models for multi-server systems

USAGE:
  performa <COMMAND> [--key value ...]
  (an option that no command reads is a usage error, exit 2)

COMMANDS:
  solve        exact analytic solution of one configuration
  blowup       blow-up thresholds, regions, tail exponents
  sweep        metric series over a parameter range (CSV on stdout)
  simulate     discrete-event simulation (physical cluster)
  sensitivity  local parameter sensitivities at the operating point
  store        result-store maintenance: verify | merge
  obs          trace consumption: report | diff | bench-trend

COMMON MODEL OPTIONS (with defaults):
  --servers 2            number of nodes N
  --peak-rate 2.0        per-server service rate nu_p
  --delta 0.2            degradation factor (0 = crash)
  --up exp:90            UP distribution spec
  --down tpt:10:1.4:0.2:10   DOWN/repair distribution spec
  --rho 0.5              utilization (or --lambda RATE)

DISTRIBUTION SPECS:
  exp:MEAN | erlang:K:MEAN | hyp2:MEAN:SCV | tpt:T:ALPHA:THETA:MEAN
  pareto:ALPHA:MEAN (simulate only) | weibull:SHAPE:MEAN (simulate only)

SOLVE OPTIONS:    --tail K (report Pr(Q >= K))   --delay-bound D (report Pr(S > D))
                  --threads N (kernel threads for this solve; 0 = all cores,
                  bitwise identical to serial)
SWEEP OPTIONS:    --param rho|lambda|delta|availability  --from F --to T --steps N
                  (delta and availability hold the base model's arrival
                  rate fixed: --lambda, or --rho times the base capacity)
                  --metric mean|normalized|tail:K  --threads N (0 = all cores)
                  --kernel-threads N (in-solve linear-algebra threads;
                  0 = all cores; results identical at any count)

SWEEP STORE OPTIONS (crash-safe resume):
  --store PATH           durable result store (append-only, checksummed
                         log); solved points are appended as they finish
                         and cached points replay bit-identically
  --resume               require PATH to already exist (guards against a
                         typo silently starting a fresh run)
  --shard I/N            solve only the points with index = I mod N
                         (0-based); merge the shard stores afterwards
  --retry-failed         re-attempt points whose stored record is a
                         failure instead of replaying the failure

STORE COMMANDS:
  store verify --store PATH           read-only integrity check
  store merge  --out PATH --in A,B    union shard stores into PATH
                                      (first record of a key wins;
                                      already-present keys are skipped)

OBS COMMANDS (consume traces written with --trace-json):
  obs report <trace.ndjson>           wall-clock attribution tree, hot
                                      spans, counter summary and
                                      flight-recorder extracts
                                      (--top N rows, default 8; exits 10
                                      when the trace dropped records)
  obs diff <a.ndjson> <b.ndjson>      span-time / counter / gauge deltas;
                                      --threshold R (default 0.2) flags
                                      regressions and exits 10
  obs bench-trend [history.ndjson]    regression check over appended
                                      bench-record runs (default
                                      BENCH_history.ndjson); --threshold R
                                      (default 0.3) tolerance above the
                                      per-case baseline median; exits 10
                                      on regression
SIMULATE OPTIONS: --task exp:0.5  --strategy discard|resume-front|resume-back|
                  restart-front|restart-back  --cycles 20000 --reps 5 --seed 0
                  --resume-penalty W (checkpoint-restore work)
                  --detection-delay SPEC (crash detection latency; default ideal)

RESILIENCE OPTIONS (solve, simulate and sweep):
  --deadline S           wall-clock budget in seconds; partial or degraded
                         results are flagged, never silent. On sweep this
                         is the WHOLE-RUN budget: it is split into
                         per-point deadlines (expensive-looking points get
                         more, with a floor) and on exhaustion the run
                         exits 40 with every completed point flushed
  --max-iter N           cap the iteration budget of each logarithmic-
                         reduction attempt (default 200)
  --hardening SPEC       numerical hardening of the first attempt: none|full
                         or a '+'-joined list of shift|equilibrate|refine
                         (default none; a breakdown gets one fully
                         hardened retry)
  --tolerance T          target solver tolerance (default 1e-10); a G
                         that misses it fails the solve, it is never
                         relaxed

OBSERVABILITY OPTIONS (all commands):
  --trace-level L        off|error|warn|info|debug|trace — human-readable
                         structured trace on stderr
  --trace-json PATH      write the full trace as NDJSON (schema v1) to PATH
                         (implies debug verbosity unless --trace-level is set)
  --profile              print a timing/metrics summary table on stderr
                         after the run

EXIT CODES:
  0   exact result
  2   usage error (unknown flag, unparsable or out-of-domain value);
      nothing was run
  10  degraded but bounded (a solver breakdown rescued by the hardened
      retry, or a partial replication set — details are printed)
  20  failed (no usable result)
  30  result store corrupt beyond automatic recovery (interior damage;
      only a torn tail is repaired in place)
  40  partial results: the sweep was interrupted (Ctrl-C) or ran out of
      --deadline budget; completed points were emitted and flushed to
      --store, so rerunning the same command resumes with zero re-solves
";

/// Errors surfaced to the terminal, each carrying the process exit
/// code `main` reports: [`EXIT_FAILED`] for runtime failures,
/// [`EXIT_USAGE`] for malformed invocations.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable diagnostic printed to stderr.
    pub message: String,
    /// Process exit code this error maps to.
    pub code: u8,
}

impl CliError {
    /// A runtime failure (no usable result): exits [`EXIT_FAILED`].
    pub fn failed(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: EXIT_FAILED,
        }
    }

    /// A malformed invocation (bad flag/value): exits [`EXIT_USAGE`].
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: EXIT_USAGE,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<performa_core::CoreError> for CliError {
    fn from(e: performa_core::CoreError) -> Self {
        CliError::failed(format!("model error: {e}"))
    }
}

impl From<performa_dist::DistError> for CliError {
    fn from(e: performa_dist::DistError) -> Self {
        CliError::failed(format!("distribution error: {e}"))
    }
}

impl From<performa_sim::SimError> for CliError {
    fn from(e: performa_sim::SimError) -> Self {
        CliError::failed(format!("simulator error: {e}"))
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Exit code for runs that produced no usable result.
pub const EXIT_FAILED: u8 = 20;

/// Exit code for malformed invocations (unknown flags, unparsable or
/// out-of-domain values) — the command never started running.
pub const EXIT_USAGE: u8 = 2;

/// Exit code for interrupted sweeps that exit with partial results
/// (re-exported from the control fabric): every completed point is
/// flushed to the `--store` log, so the run is resumable.
pub use performa_core::EXIT_PARTIAL;

/// Outcome quality of a successfully completed command, mapped to the
/// CLI's structured exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Full-precision result at the requested tolerance.
    Exact,
    /// The result is usable but degraded: a solver breakdown was
    /// rescued by the hardened retry, or only part of the requested
    /// replications completed before the deadline.
    Degraded,
    /// A result store has interior corruption that recovery cannot
    /// repair (only a damaged *tail* is truncated in place). The store
    /// must be rebuilt or restored; no sweep work was started.
    StoreCorrupt,
    /// The run was interrupted (Ctrl-C) or its `--deadline` budget ran
    /// out: the completed prefix was emitted and — with `--store` —
    /// flushed, so rerunning the same command resumes from the gap with
    /// zero re-solves.
    Partial,
}

impl RunStatus {
    /// Process exit code: `0` for exact, `10` for degraded, `30` for an
    /// unrecoverable store, `40` ([`EXIT_PARTIAL`]) for an interrupted
    /// run with resumable partial results. Failures exit with
    /// [`EXIT_FAILED`]; malformed invocations with [`EXIT_USAGE`].
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Exact => 0,
            RunStatus::Degraded => 10,
            RunStatus::StoreCorrupt => 30,
            RunStatus::Partial => EXIT_PARTIAL,
        }
    }
}

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

/// Options that are bare flags (no value token follows them).
const BOOL_FLAGS: &[&str] = &["profile", "resume", "retry-failed"];

/// Every option some command reads. [`Args::parse`] rejects any other
/// key, so a misspelt option is a usage error instead of a silently
/// applied default.
#[rustfmt::skip]
const KNOWN_OPTIONS: &[&str] = &[
    // model
    "servers", "peak-rate", "delta", "up", "down", "rho", "lambda",
    // solve, blowup
    "tail", "delay-bound", "threads", "alpha",
    // resilience
    "deadline", "max-iter", "hardening", "tolerance",
    // sweep
    "param", "from", "to", "steps", "metric", "kernel-threads", "store", "resume", "shard",
    "retry-failed",
    // simulate
    "task", "strategy", "cycles", "reps", "seed", "warmup", "resume-penalty", "detection-delay",
    // store and obs verbs
    "out", "in", "trace", "a", "b", "history", "top", "threshold",
    // observability
    "trace-level", "trace-json", "profile",
];

impl Args {
    /// Parses `--key value` pairs; rejects unknown keys, dangling keys
    /// and stray positional words. Flags listed in `BOOL_FLAGS` take
    /// no value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self> {
        let mut map = HashMap::new();
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| CliError::usage(format!("expected --option, got `{tok}`")))?;
            if !KNOWN_OPTIONS.contains(&key) {
                return Err(CliError::usage(format!(
                    "unknown option --{key} (see `performa help`)"
                )));
            }
            if BOOL_FLAGS.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| CliError::usage(format!("option --{key} needs a value")))?;
            map.insert(key.to_string(), val);
        }
        Ok(Args { map })
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("cannot parse --{key} value `{v}`"))),
        }
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether the option was supplied.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Live observability state configured from the CLI flags; tear it down
/// with [`ObsSession::finish`] after the command ran.
#[derive(Debug)]
pub struct ObsSession {
    sinks: Vec<performa_obs::SinkId>,
    profile: bool,
    /// The `--trace-json` sink (path, handle), retained so `finish` can
    /// check its drop counters after the flush.
    json: Option<(String, std::sync::Arc<performa_obs::NdjsonSink>)>,
}

/// Configures the global recorder from `--trace-level`, `--trace-json`
/// and `--profile`.
///
/// * `--trace-level L` installs a human-readable stderr subscriber at
///   verbosity `L`;
/// * `--trace-json PATH` additionally writes every record as NDJSON
///   (schema v1) to `PATH`, defaulting the verbosity to `debug` (so
///   per-iteration metric records are captured) unless `--trace-level`
///   says otherwise;
/// * `--profile` turns on metric aggregation; the rendered table is
///   printed by [`ObsSession::finish`].
///
/// # Errors
///
/// Unparseable level or an unwritable `--trace-json` path.
pub fn init_obs(args: &Args) -> Result<ObsSession> {
    let mut sinks = Vec::new();
    let profile = args.has("profile");
    if profile {
        performa_obs::reset_metrics();
        performa_obs::set_metrics(true);
    }
    let mut level: Option<performa_obs::TraceLevel> = None;
    if args.has("trace-level") {
        let spec = args.get_str("trace-level", "info");
        let parsed = spec
            .parse::<performa_obs::TraceLevel>()
            .map_err(|e| CliError::failed(format!("bad --trace-level: {e}")))?;
        level = Some(parsed);
        if parsed != performa_obs::TraceLevel::Off {
            sinks.push(performa_obs::add_sink(std::sync::Arc::new(
                performa_obs::StderrSink::new(),
            )));
        }
    }
    let mut json = None;
    if args.has("trace-json") {
        let path = args.get_str("trace-json", "trace.ndjson");
        let sink = performa_obs::NdjsonSink::create(std::path::Path::new(&path))
            .map_err(|e| CliError::failed(format!("cannot open --trace-json `{path}`: {e}")))?;
        let sink = std::sync::Arc::new(sink);
        sinks.push(performa_obs::add_sink(sink.clone()));
        json = Some((path, sink));
        if level.is_none() {
            level = Some(performa_obs::TraceLevel::Debug);
        }
    }
    if let Some(l) = level {
        performa_obs::set_level(l);
    }
    Ok(ObsSession {
        sinks,
        profile,
        json,
    })
}

impl ObsSession {
    /// Flushes and uninstalls the configured sinks, prints the
    /// `--profile` table to `err` (stderr in `main`) and resets the
    /// global recorder.
    ///
    /// # Errors
    ///
    /// Propagates write failures of the profile table.
    pub fn finish<W: std::io::Write>(self, err: &mut W) -> Result<()> {
        performa_obs::flush_sinks();
        if self.profile {
            let table = performa_obs::metrics_snapshot().profile_table();
            write!(err, "{table}").map_err(|e| CliError::failed(format!("output error: {e}")))?;
            performa_obs::set_metrics(false);
            performa_obs::reset_metrics();
        }
        // A trace with silently missing records is worse than no trace:
        // say loudly that (and why) the NDJSON file is incomplete.
        if let Some((path, sink)) = &self.json {
            let dropped = sink.dropped_records();
            if dropped > 0 {
                writeln!(
                    err,
                    "WARNING: trace `{path}` is INCOMPLETE — {dropped} record(s) dropped \
                     ({} io error(s), {} poisoned-lock skip(s))",
                    sink.dropped_io_errors(),
                    sink.dropped_lock_poisoned()
                )
                .map_err(|e| CliError::failed(format!("output error: {e}")))?;
            }
        }
        performa_obs::set_level(performa_obs::TraceLevel::Off);
        for id in self.sinks {
            performa_obs::remove_sink(id);
        }
        Ok(())
    }
}

/// Parses a distribution spec (see [`USAGE`]) — a thin wrapper over
/// [`DistSpec`]'s `FromStr`, kept for the CLI's error type.
pub fn parse_dist(spec: &str) -> Result<Dist> {
    let parsed: DistSpec = spec.parse()?;
    Ok(parsed.to_dist()?)
}

/// Builds the cluster model from common options.
pub fn build_model(args: &Args) -> Result<ClusterModel> {
    let up = parse_dist(&args.get_str("up", "exp:90"))?;
    let down = parse_dist(&args.get_str("down", "tpt:10:1.4:0.2:10"))?;
    let mut b = ClusterModel::builder()
        .servers(args.get("servers", 2usize)?)
        .peak_rate(args.get("peak-rate", 2.0)?)
        .degradation(args.get("delta", 0.2)?)
        .up(up)
        .down(down);
    if args.has("lambda") {
        b = b.arrival_rate(args.get("lambda", 0.0)?);
    } else {
        b = b.utilization(args.get("rho", 0.5)?);
    }
    Ok(b.build()?)
}

fn parse_strategy(s: &str) -> Result<FailureStrategy> {
    FailureStrategy::ALL
        .iter()
        .copied()
        .find(|f| f.label() == s)
        .ok_or_else(|| CliError::failed(format!("unknown strategy `{s}`")))
}

/// The run's [`Stop`]: cancelled by Ctrl-C once [`install_sigint`] has
/// run, with the wall-clock `--deadline` (seconds), if present, fixed
/// now.
fn parse_stop(args: &Args) -> Result<Stop> {
    let stop = Stop::for_process();
    if !args.has("deadline") {
        return Ok(stop);
    }
    let secs = args.get("deadline", 0.0_f64)?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(CliError::usage(format!(
            "--deadline {secs} must be a non-negative number of seconds"
        )));
    }
    Ok(stop.child(Duration::from_secs_f64(secs)))
}

/// Builds [`SupervisorOptions`] from the resilience flags
/// (`--tolerance`, `--hardening`, `--max-iter`, `--deadline`).
pub fn supervisor_options(args: &Args) -> Result<SupervisorOptions> {
    let mut opts = SupervisorOptions::default();
    if args.has("tolerance") {
        let tol = args.get("tolerance", opts.tolerance)?;
        opts = opts.with_tolerance(tol);
    }
    if args.has("hardening") {
        opts.hardening = args
            .get_str("hardening", "none")
            .parse()
            .map_err(|e: performa_qbd::QbdError| CliError::usage(e.to_string()))?;
    }
    if args.has("max-iter") {
        let cap = args.get("max-iter", 0usize)?;
        if cap == 0 {
            return Err(CliError::usage("--max-iter must be at least 1"));
        }
        opts.max_iterations = opts.max_iterations.min(cap);
    }
    Ok(opts.with_stop(parse_stop(args)?))
}

/// Runs a subcommand, writing human output to `out`.
///
/// Returns whether the result is [`RunStatus::Exact`] or
/// [`RunStatus::Degraded`]; `main` maps this (and errors) to the
/// structured exit codes documented in [`USAGE`].
pub fn run<W: std::io::Write>(command: &str, args: &Args, out: &mut W) -> Result<RunStatus> {
    let io = |e: std::io::Error| CliError::failed(format!("output error: {e}"));
    match command {
        "solve" => {
            if args.has("threads") {
                // On the single-solve verb the thread budget goes to the
                // linear-algebra kernels (parallel GEMM row panels and
                // LU stripes) — bitwise identical to serial at any
                // count. `0` means all cores.
                performa_linalg::threading::set_threads(args.get("threads", 0usize)?);
            }
            // The metric options are read before the solve, so a bad
            // value is a usage error that prints nothing.
            let tail = if args.has("tail") {
                Some(args.get("tail", 500usize)?)
            } else {
                None
            };
            let delay_bound = if args.has("delay-bound") {
                let d = args.get("delay-bound", 1.0_f64)?;
                if d.is_nan() {
                    return Err(CliError::usage("--delay-bound must be a number, not NaN"));
                }
                Some(d)
            } else {
                None
            };
            let m = build_model(args)?;
            let (sol, report) = m.solve_supervised(supervisor_options(args)?)?;
            writeln!(out, "servers          : {}", m.servers()).map_err(io)?;
            writeln!(out, "availability     : {:.6}", m.availability()).map_err(io)?;
            writeln!(out, "capacity         : {:.6}", m.capacity()).map_err(io)?;
            writeln!(out, "arrival rate     : {:.6}", m.arrival_rate()).map_err(io)?;
            writeln!(out, "utilization      : {:.6}", m.utilization()).map_err(io)?;
            writeln!(out, "region           : {:?}", blowup::region(&m)).map_err(io)?;
            writeln!(out, "mean queue length: {:.6}", sol.mean_queue_length()).map_err(io)?;
            writeln!(
                out,
                "normalized (M/M/1): {:.6}",
                sol.normalized_mean_queue_length()
            )
            .map_err(io)?;
            writeln!(out, "P(empty)         : {:.6}", sol.empty_probability()).map_err(io)?;
            if let Ok(idc) = m.service_process().map_err(CliError::from).and_then(|p| {
                p.asymptotic_idc()
                    .map_err(|e| CliError::failed(format!("IDC failure: {e}")))
            }) {
                writeln!(out, "service IDC(inf) : {:.3}", idc).map_err(io)?;
            }
            if let Some(k) = tail {
                writeln!(out, "Pr(Q >= {k})     : {:.6e}", sol.at_least_probability(k))
                    .map_err(io)?;
            }
            if let Some(d) = delay_bound {
                writeln!(
                    out,
                    "Pr(S > {d})      : {:.6e}",
                    sol.delay_violation_probability(d)
                )
                .map_err(io)?;
            }
            writeln!(
                out,
                "solver           : logarithmic reduction ({} iterations, residual {:.3e})",
                report.total_iterations,
                report.residual
            )
            .map_err(io)?;
            writeln!(out, "kernel           : {}", report.kernel).map_err(io)?;
            for w in &report.warnings {
                writeln!(out, "solver warning   : {w}").map_err(io)?;
            }
            let status = if report.degraded {
                RunStatus::Degraded
            } else {
                RunStatus::Exact
            };
            writeln!(
                out,
                "status           : {}",
                if report.degraded { "degraded" } else { "exact" }
            )
            .map_err(io)?;
            Ok(status)
        }
        "blowup" => {
            let m = build_model(args)?;
            writeln!(out, "capacity nu_bar = {:.6}", m.capacity()).map_err(io)?;
            writeln!(out, "operating rho   = {:.6}", m.utilization()).map_err(io)?;
            writeln!(out, "region          = {:?}", blowup::region(&m)).map_err(io)?;
            writeln!(out, "{:>3} {:>12} {:>12} {:>10}", "i", "nu_i", "rho_i", "beta_i")
                .map_err(io)?;
            let alpha = args.get("alpha", 1.4)?;
            for i in 1..=m.servers() {
                writeln!(
                    out,
                    "{:>3} {:>12.6} {:>12.6} {:>10.3}",
                    i,
                    blowup::degraded_rate(&m, i),
                    blowup::degraded_rate(&m, i) / m.capacity(),
                    blowup::queue_tail_exponent(i, alpha)
                )
                .map_err(io)?;
            }
            writeln!(
                out,
                "stability needs A > {:.6}",
                blowup::stability_availability_bound(&m)
            )
            .map_err(io)?;
            Ok(RunStatus::Exact)
        }
        "sweep" => {
            let param = args.get_str("param", "rho");
            let from = args.get("from", 0.05)?;
            let to = args.get("to", 0.95)?;
            let steps = args.get("steps", 20usize)?;
            if steps == 0 || from >= to {
                return Err(CliError::usage("need --from < --to and --steps > 0"));
            }
            let metric_spec = args.get_str("metric", "normalized");
            let metric = Metric::parse(&metric_spec)?;
            let grid = SweepPlan::grid(from, to, steps).into_values();
            let axis = match param.as_str() {
                "rho" => Axis::Rho(grid),
                "lambda" => Axis::Lambda(grid),
                "delta" => Axis::Delta(grid),
                "availability" => Axis::Availability(grid),
                other => {
                    return Err(CliError::usage(format!(
                        "unknown sweep parameter `{other}` (rho|lambda|delta|availability)"
                    )))
                }
            };
            let mut plan = Scenario::new(build_model(args)?, axis).compile();
            if args.has("shard") {
                let (i, n) = parse_shard(&args.get_str("shard", ""))?;
                plan = plan.shard(i, n);
            }
            let mut opts = SweepOptions::default()
                .with_threads(args.get("threads", 0usize)?)
                .with_retry_failed(args.has("retry-failed"));
            if args.has("kernel-threads") {
                opts = opts.with_kernel_threads(args.get("kernel-threads", 0usize)?);
            }
            // Cooperative shutdown: first Ctrl-C trips the process-wide
            // cancel flag and the sweep drains gracefully (flushes the
            // store, exits 40); a second Ctrl-C kills the process. On
            // sweep verbs --deadline is the whole-run budget, split into
            // per-point deadlines by the cost-informed policy.
            install_sigint();
            opts.stop = parse_stop(args)?;
            if args.has("store") {
                match open_store(args)? {
                    StoreOpen::Ready(handle) => opts.store = Some(handle),
                    StoreOpen::Corrupt(detail) => {
                        writeln!(out, "store corrupt: {detail}").map_err(io)?;
                        return Ok(RunStatus::StoreCorrupt);
                    }
                }
            } else if args.has("resume") || args.has("retry-failed") {
                return Err(CliError::usage(
                    "--resume and --retry-failed need --store PATH",
                ));
            }
            writeln!(out, "{param},{metric_spec}").map_err(io)?;
            let result = plan.with_options(opts).run_map(|sol| metric.read(sol));
            for point in result.points() {
                let value = match &point.outcome {
                    Ok(v) => *v,
                    // Cancelled points were never solved: omit their rows
                    // (a resumed run fills the gap) instead of printing
                    // NaN, which marks *solver* failures.
                    Err(CoreError::Cancelled) => continue,
                    Err(_) => f64::NAN, // unstable probe points print NaN
                };
                writeln!(out, "{:.6},{value:.8e}", point.x).map_err(io)?;
            }
            let stats = result.stats();
            if stats.interrupted() {
                eprintln!(
                    "sweep interrupted: {} of {} points solved ({} cancelled, \
                     {} quarantined); rerun the same command with --store to resume",
                    stats.solved, stats.points, stats.cancelled, stats.quarantined
                );
                return Ok(RunStatus::Partial);
            }
            Ok(RunStatus::Exact)
        }
        "sensitivity" => {
            let m = build_model(args)?;
            let s = sensitivity::sensitivities(&m)?;
            writeln!(out, "dE[Q]/d(lambda)      = {:+.6}", s.wrt_arrival_rate).map_err(io)?;
            writeln!(out, "dE[Q]/d(availability)= {:+.6}", s.wrt_availability).map_err(io)?;
            writeln!(out, "dE[Q]/d(delta)       = {:+.6}", s.wrt_degradation).map_err(io)?;
            writeln!(out, "dE[Q]/d(nu_p)        = {:+.6}", s.wrt_peak_rate).map_err(io)?;
            writeln!(
                out,
                "distance to blow-up  = {:+.6} (utilization units)",
                s.distance_to_threshold
            )
            .map_err(io)?;
            Ok(RunStatus::Exact)
        }
        "simulate" => {
            let m = build_model(args)?;
            let cfg = ClusterSimConfig {
                servers: m.servers(),
                nu_p: m.peak_rate(),
                delta: m.degradation(),
                up: m.up().clone(),
                down: m.down().clone(),
                task: parse_dist(&args.get_str(
                    "task",
                    &format!("exp:{}", 1.0 / m.peak_rate()),
                ))?,
                lambda: m.arrival_rate(),
                strategy: parse_strategy(&args.get_str("strategy", "resume-back"))?,
                stop: StopCriterion::Cycles(args.get("cycles", 20_000u64)?),
                warmup_time: args.get("warmup", 1_000.0)?,
                resume_penalty: args.get("resume-penalty", 0.0)?,
                detection_delay: if args.has("detection-delay") {
                    Some(parse_dist(&args.get_str("detection-delay", "exp:1"))?)
                } else {
                    None
                },
            };
            let sim = ClusterSim::new(cfg)?;
            let reps = args.get("reps", 5u64)?;
            let seed = args.get("seed", 0u64)?;
            let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
            let ropts =
                replicate::ReplicationOptions::with_threads(threads).with_stop(parse_stop(args)?);
            let (ci, outcome) = replicate::replicated_ci_robust(reps, seed, &ropts, |s| {
                sim.run(s).mean_queue_length
            })?;
            let detail = sim.run(seed);
            writeln!(
                out,
                "mean queue length : {:.4} ± {:.4} (95% CI, {} of {reps} reps)",
                ci.mean, ci.half_width, outcome.completed
            )
            .map_err(io)?;
            writeln!(out, "mean system time  : {:.4}", detail.mean_system_time).map_err(io)?;
            if let Some(p99) = detail.system_time_quantile(0.99) {
                writeln!(out, "p99 system time   : {:.4}", p99).map_err(io)?;
            }
            writeln!(out, "completed tasks   : {}", detail.completed_tasks).map_err(io)?;
            writeln!(out, "discarded tasks   : {}", detail.discarded_tasks).map_err(io)?;
            if outcome.degraded() {
                writeln!(out, "status            : degraded — {}", outcome.summary())
                    .map_err(io)?;
                Ok(RunStatus::Degraded)
            } else {
                writeln!(out, "status            : exact").map_err(io)?;
                Ok(RunStatus::Exact)
            }
        }
        "store-verify" => {
            let path = require_path(args, "store")?;
            match store_verify(&path) {
                Ok(stats) => {
                    writeln!(out, "store          : {}", path.display()).map_err(io)?;
                    writeln!(out, "frames         : {}", stats.frames).map_err(io)?;
                    writeln!(out, "records        : {}", stats.records).map_err(io)?;
                    writeln!(out, "stale frames   : {}", stats.stale).map_err(io)?;
                    writeln!(out, "torn tail bytes: {}", stats.torn_tail_bytes).map_err(io)?;
                    writeln!(
                        out,
                        "status         : {}",
                        if stats.torn_tail_bytes == 0 {
                            "ok"
                        } else {
                            "ok (torn tail; next open truncates it)"
                        }
                    )
                    .map_err(io)?;
                    Ok(RunStatus::Exact)
                }
                Err(e @ StoreError::Corrupt { .. }) => {
                    writeln!(out, "store corrupt: {e}").map_err(io)?;
                    Ok(RunStatus::StoreCorrupt)
                }
                Err(e) => Err(CliError::failed(format!("store verify failed: {e}"))),
            }
        }
        "store-merge" => {
            let out_path = require_path(args, "out")?;
            let inputs: Vec<PathBuf> = args
                .get_str("in", "")
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(PathBuf::from)
                .collect();
            if inputs.is_empty() {
                return Err(CliError::failed(
                    "store merge needs --in A,B,... (comma-separated shard stores)",
                ));
            }
            match store_merge(&inputs, &out_path) {
                Ok(stats) => {
                    writeln!(
                        out,
                        "merged {} record(s) into {} ({} already present)",
                        stats.added,
                        out_path.display(),
                        stats.skipped
                    )
                    .map_err(io)?;
                    Ok(RunStatus::Exact)
                }
                Err(e @ StoreError::Corrupt { .. }) => {
                    writeln!(out, "store corrupt: {e}").map_err(io)?;
                    Ok(RunStatus::StoreCorrupt)
                }
                Err(e) => Err(CliError::failed(format!("store merge failed: {e}"))),
            }
        }
        "obs-report" => {
            let path = require_path(args, "trace")?;
            let agg = load_aggregate(&path)?;
            let top = args.get("top", 8usize)?;
            render_report(&agg, top, out)?;
            if agg.dropped_records() > 0.0 {
                writeln!(
                    out,
                    "status            : degraded — {} record(s) dropped, attribution is a lower bound",
                    agg.dropped_records()
                )
                .map_err(io)?;
                Ok(RunStatus::Degraded)
            } else {
                Ok(RunStatus::Exact)
            }
        }
        "obs-diff" => {
            let a = load_aggregate(&require_path(args, "a")?)?;
            let b = load_aggregate(&require_path(args, "b")?)?;
            let threshold = args.get("threshold", 0.2)?;
            let report = performa_obs::agg::diff(&a, &b, threshold);
            render_diff(&report, threshold, out)?;
            if report.regressions() > 0 {
                Ok(RunStatus::Degraded)
            } else {
                Ok(RunStatus::Exact)
            }
        }
        "obs-bench-trend" => {
            let path = PathBuf::from(args.get_str("history", "BENCH_history.ndjson"));
            let threshold = args.get("threshold", 0.3)?;
            let runs = load_bench_history(&path)?;
            render_bench_trend(&runs, threshold, out)
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io)?;
            Ok(RunStatus::Exact)
        }
        other => Err(CliError::failed(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// Outcome of opening a `--store`: a live handle, or the corruption
/// diagnostic that the caller maps to [`RunStatus::StoreCorrupt`].
enum StoreOpen {
    Ready(StoreHandle),
    Corrupt(String),
}

/// Opens the sweep's `--store`, honoring `--resume` (which insists the
/// store already exists, guarding a mistyped path from silently
/// starting over). Interior corruption becomes [`StoreOpen::Corrupt`];
/// plain I/O trouble is an ordinary error.
fn open_store(args: &Args) -> Result<StoreOpen> {
    let path = require_path(args, "store")?;
    if args.has("resume") && !path.exists() {
        return Err(CliError::failed(format!(
            "--resume: store `{}` does not exist (drop --resume to start fresh)",
            path.display()
        )));
    }
    match StoreHandle::open(&path) {
        Ok((handle, _stats)) => Ok(StoreOpen::Ready(handle)),
        Err(e @ StoreError::Corrupt { .. }) => Ok(StoreOpen::Corrupt(e.to_string())),
        Err(e) => Err(CliError::failed(format!(
            "cannot open --store `{}`: {e}",
            path.display()
        ))),
    }
}

/// Fetches a required path-valued option.
fn require_path(args: &Args, key: &str) -> Result<PathBuf> {
    let raw = args.get_str(key, "");
    if raw.is_empty() {
        return Err(CliError::failed(format!("--{key} PATH is required")));
    }
    Ok(PathBuf::from(raw))
}

/// Parses `--shard I/N` (0-based shard index out of N).
fn parse_shard(spec: &str) -> Result<(usize, usize)> {
    let bad = || CliError::usage(format!("bad --shard `{spec}` (expected I/N, e.g. 0/4)"));
    let (i, n) = spec.split_once('/').ok_or_else(bad)?;
    let i: usize = i.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(CliError::usage(format!(
            "--shard {spec}: the index must satisfy 0 <= I < N"
        )));
    }
    Ok((i, n))
}

/// The `sweep --metric` column, parsed before anything runs.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Mean,
    Normalized,
    /// `Pr(Q >= K)`.
    Tail(usize),
}

impl Metric {
    fn parse(spec: &str) -> Result<Metric> {
        match spec {
            "mean" => Ok(Metric::Mean),
            "normalized" => Ok(Metric::Normalized),
            _ => spec
                .strip_prefix("tail:")
                .and_then(|k| k.parse().ok())
                .map(Metric::Tail)
                .ok_or_else(|| {
                    CliError::usage(format!("unknown metric `{spec}` (mean|normalized|tail:K)"))
                }),
        }
    }

    fn read(self, sol: &performa_core::ClusterSolution) -> f64 {
        match self {
            Metric::Mean => sol.mean_queue_length(),
            Metric::Normalized => sol.normalized_mean_queue_length(),
            Metric::Tail(k) => sol.at_least_probability(k),
        }
    }
}

// ── `obs` verbs: trace consumption ──────────────────────────────────

/// Folds the `obs` verbs' leading positional operands into the flags
/// the `--key value` parser expects: `obs report T` → `--trace T`,
/// `obs diff A B` → `--a A --b B`, `obs bench-trend [H]` → `--history H`.
/// Tokens from the first `--flag` on are passed through untouched
/// ([`Args::parse`] still rejects stray positionals there).
pub fn fold_positionals(command: &str, argv: Vec<String>) -> Vec<String> {
    let keys: &[&str] = match command {
        "obs-report" => &["trace"],
        "obs-diff" => &["a", "b"],
        "obs-bench-trend" => &["history"],
        _ => return argv,
    };
    let mut out = Vec::with_capacity(argv.len() + 2);
    let mut keys = keys.iter();
    let mut it = argv.into_iter().peekable();
    while let Some(tok) = it.peek() {
        if tok.starts_with("--") {
            break;
        }
        let Some(key) = keys.next() else { break };
        out.push(format!("--{key}"));
        out.push(it.next().expect("peeked"));
    }
    out.extend(it);
    out
}

/// Loads and folds one NDJSON trace, mapping both I/O trouble and the
/// first malformed line to CLI errors with file/line context.
fn load_aggregate(path: &std::path::Path) -> Result<performa_obs::agg::Aggregate> {
    match performa_obs::agg::Aggregate::from_file(path) {
        Ok(Ok(agg)) => Ok(agg),
        Ok(Err((line, msg))) => Err(CliError::failed(format!(
            "{}:{line}: malformed trace line: {msg}",
            path.display()
        ))),
        Err(e) => Err(CliError::failed(format!("cannot read `{}`: {e}", path.display()))),
    }
}

fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        format!("{s}")
    } else if s.abs() >= 1.0 {
        format!("{s:.3}s")
    } else if s.abs() >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Renders the `obs report` body: trace summary, attribution tree, hot
/// spans, counter summary and flight-recorder extracts.
fn render_report<W: std::io::Write>(
    agg: &performa_obs::agg::Aggregate,
    top: usize,
    out: &mut W,
) -> Result<()> {
    let io = |e: std::io::Error| CliError::failed(format!("output error: {e}"));
    writeln!(out, "records           : {}", agg.records).map_err(io)?;
    writeln!(out, "trace wall clock  : {}", fmt_secs(agg.wall_clock())).map_err(io)?;
    let coverage = if agg.wall_clock() > 0.0 {
        100.0 * agg.root_total() / agg.wall_clock()
    } else {
        0.0
    };
    writeln!(
        out,
        "traced span time  : {} ({coverage:.1}% of wall clock)",
        fmt_secs(agg.root_total())
    )
    .map_err(io)?;
    if agg.unmatched_closes + agg.unclosed_spans > 0 {
        writeln!(
            out,
            "incomplete spans  : {} unmatched close(s), {} left open",
            agg.unmatched_closes, agg.unclosed_spans
        )
        .map_err(io)?;
    }
    writeln!(out).map_err(io)?;
    write!(out, "{}", agg.render_tree()).map_err(io)?;

    let hot = agg.hot_spans(top);
    if !hot.is_empty() {
        writeln!(out, "\nhot spans (self time, top {top}):").map_err(io)?;
        for (name, stat) in hot {
            writeln!(
                out,
                "  {:<42} {:>7}x {:>12} self {:>12} total",
                name,
                stat.count,
                fmt_secs(stat.self_s),
                fmt_secs(stat.total_s)
            )
            .map_err(io)?;
        }
    }

    if !agg.counters.is_empty() {
        writeln!(out, "\ncounters:").map_err(io)?;
        for (name, value) in &agg.counters {
            writeln!(out, "  {:<42} {:>14}", name, value).map_err(io)?;
        }
    }

    for (i, dump) in agg.flights.iter().enumerate() {
        writeln!(
            out,
            "\nflight dump #{}: trigger={} strategy={} hardened={} ({} iteration(s) remembered)",
            i + 1,
            dump.trigger,
            dump.strategy,
            dump.hardened,
            dump.iters.len()
        )
        .map_err(io)?;
        for it in &dump.iters {
            writeln!(
                out,
                "  {:<12} iteration {:>6}  residual {:.6e}",
                it.stage, it.iteration, it.residual
            )
            .map_err(io)?;
        }
    }
    Ok(())
}

/// Renders the `obs diff` body: changed rows only, then the verdict.
fn render_diff<W: std::io::Write>(
    report: &performa_obs::agg::DiffReport,
    threshold: f64,
    out: &mut W,
) -> Result<()> {
    let io = |e: std::io::Error| CliError::failed(format!("output error: {e}"));
    let changed =
        |rows: &[performa_obs::agg::DeltaRow]| -> Vec<performa_obs::agg::DeltaRow> {
            rows.iter()
                .filter(|r| r.delta() != 0.0 || r.regressed)
                .cloned()
                .collect()
        };
    let spans = changed(&report.span_time);
    if !spans.is_empty() {
        writeln!(out, "span time (a -> b):").map_err(io)?;
        for row in &spans {
            writeln!(
                out,
                "  {:<42} {:>12} -> {:>12} ({:+.1}%){}",
                row.name,
                fmt_secs(row.a),
                fmt_secs(row.b),
                if row.a > 0.0 {
                    100.0 * row.delta() / row.a
                } else {
                    f64::INFINITY
                },
                if row.regressed { "  REGRESSED" } else { "" }
            )
            .map_err(io)?;
        }
    }
    let counters = changed(&report.counters);
    if !counters.is_empty() {
        writeln!(out, "counters (a -> b):").map_err(io)?;
        for row in &counters {
            writeln!(
                out,
                "  {:<42} {:>12} -> {:>12}{}",
                row.name,
                row.a,
                row.b,
                if row.regressed { "  REGRESSED" } else { "" }
            )
            .map_err(io)?;
        }
    }
    let gauges = changed(&report.gauges);
    if !gauges.is_empty() {
        writeln!(out, "gauges, final value (a -> b, informational):").map_err(io)?;
        for row in &gauges {
            writeln!(out, "  {:<42} {:>12.6e} -> {:>12.6e}", row.name, row.a, row.b)
                .map_err(io)?;
        }
    }
    writeln!(
        out,
        "regressions: {} (threshold {:.0}%)",
        report.regressions(),
        threshold * 100.0
    )
    .map_err(io)?;
    Ok(())
}

/// One run parsed from `BENCH_history.ndjson`.
struct BenchRun {
    recorded_at: String,
    git_sha: String,
    /// `(case name, ns_per_iter)` pairs.
    cases: Vec<(String, f64)>,
}

/// Parses the append-only `performa-bench-history/v1` trend log.
fn load_bench_history(path: &std::path::Path) -> Result<Vec<BenchRun>> {
    use performa_obs::ndjson::{parse_json, Json};
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::failed(format!("cannot read `{}`: {e}", path.display())))?;
    let mut runs = Vec::new();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |msg: String| CliError::failed(format!("{}:{}: {msg}", path.display(), i + 1));
        let doc = parse_json(line).map_err(|e| bad(format!("malformed history line: {e}")))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != "performa-bench-history/v1" {
            return Err(bad(format!("unexpected schema `{schema}`")));
        }
        let mut run = BenchRun {
            recorded_at: doc
                .get("recorded_at")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            git_sha: doc
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            cases: Vec::new(),
        };
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            return Err(bad("history line without `cases` array".into()));
        };
        for case in cases {
            let name = case
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("case without `name`".into()))?;
            let ns = case
                .get("ns_per_iter")
                .and_then(Json::as_num)
                .ok_or_else(|| bad(format!("case `{name}` without numeric ns_per_iter")))?;
            run.cases.push((name.to_string(), ns));
        }
        runs.push(run);
    }
    Ok(runs)
}

/// Renders the `obs bench-trend` table: the latest run's cases against
/// the per-case median of every earlier run. A case regresses when the
/// latest median-of-samples exceeds the baseline by more than the
/// relative `threshold` (bench noise floor).
fn render_bench_trend<W: std::io::Write>(
    runs: &[BenchRun],
    threshold: f64,
    out: &mut W,
) -> Result<RunStatus> {
    let io = |e: std::io::Error| CliError::failed(format!("output error: {e}"));
    if runs.len() < 2 {
        writeln!(
            out,
            "bench-trend: {} run(s) in history — need at least 2 to compare",
            runs.len()
        )
        .map_err(io)?;
        return Ok(RunStatus::Exact);
    }
    let (latest, prior) = runs.split_last().expect("len >= 2");
    writeln!(
        out,
        "latest run {} ({}) vs {} earlier run(s), threshold {:.0}%",
        latest.recorded_at,
        latest.git_sha,
        prior.len(),
        threshold * 100.0
    )
    .map_err(io)?;
    writeln!(
        out,
        "{:<26} {:>14} {:>14} {:>8}  status",
        "case", "baseline ns", "latest ns", "ratio"
    )
    .map_err(io)?;
    let mut regressed = 0usize;
    for (name, latest_ns) in &latest.cases {
        let mut history: Vec<f64> = prior
            .iter()
            .flat_map(|r| r.cases.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .collect();
        if history.is_empty() {
            writeln!(
                out,
                "{:<26} {:>14} {:>14.0} {:>8}  new case",
                name, "-", latest_ns, "-"
            )
            .map_err(io)?;
            continue;
        }
        history.sort_by(|a, b| a.total_cmp(b));
        let baseline = history[history.len() / 2];
        let ratio = latest_ns / baseline;
        let is_regressed = ratio > 1.0 + threshold;
        if is_regressed {
            regressed += 1;
        }
        writeln!(
            out,
            "{:<26} {:>14.0} {:>14.0} {:>7.2}x  {}",
            name,
            baseline,
            latest_ns,
            ratio,
            if is_regressed { "REGRESSED" } else { "ok" }
        )
        .map_err(io)?;
    }
    writeln!(out, "regressions: {regressed}").map_err(io)?;
    if regressed > 0 {
        Ok(RunStatus::Degraded)
    } else {
        Ok(RunStatus::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use performa_dist::Moments;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let raw: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(raw).unwrap()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&[("servers", "3"), ("rho", "0.4")]);
        assert_eq!(a.get("servers", 0usize).unwrap(), 3);
        assert!((a.get("rho", 0.0_f64).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(a.get("missing", 7u32).unwrap(), 7);
        assert!(a.has("rho"));
        assert!(!a.has("nope"));

        assert!(Args::parse(vec!["positional".into()]).is_err());
        assert!(Args::parse(vec!["--dangling".into()]).is_err());
        let bad = args(&[("servers", "many")]);
        assert!(bad.get("servers", 0usize).is_err());
    }

    #[test]
    fn obs_positionals_fold_into_flags() {
        let v = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            fold_positionals("obs-report", v(&["t.ndjson", "--top", "3"])),
            v(&["--trace", "t.ndjson", "--top", "3"])
        );
        assert_eq!(
            fold_positionals("obs-diff", v(&["a.ndjson", "b.ndjson"])),
            v(&["--a", "a.ndjson", "--b", "b.ndjson"])
        );
        // bench-trend's operand is optional.
        assert_eq!(
            fold_positionals("obs-bench-trend", v(&["--threshold", "0.5"])),
            v(&["--threshold", "0.5"])
        );
        assert_eq!(
            fold_positionals("obs-bench-trend", v(&["h.ndjson"])),
            v(&["--history", "h.ndjson"])
        );
        // Flags can also be spelled out directly; other commands are
        // untouched (their stray positionals still get rejected later).
        assert_eq!(
            fold_positionals("obs-report", v(&["--trace", "t.ndjson"])),
            v(&["--trace", "t.ndjson"])
        );
        assert_eq!(
            fold_positionals("solve", v(&["stray"])),
            v(&["stray"])
        );
    }

    #[test]
    fn bench_trend_regression_semantics() {
        let runs = |latest: f64| {
            vec![
                BenchRun {
                    recorded_at: "2026-08-01T00:00:00Z".into(),
                    git_sha: "aaa".into(),
                    cases: vec![("gemm_128".into(), 1000.0)],
                },
                BenchRun {
                    recorded_at: "2026-08-02T00:00:00Z".into(),
                    git_sha: "bbb".into(),
                    cases: vec![("gemm_128".into(), 900.0)],
                },
                BenchRun {
                    recorded_at: "2026-08-03T00:00:00Z".into(),
                    git_sha: "ccc".into(),
                    cases: vec![("gemm_128".into(), latest), ("new_case".into(), 5.0)],
                },
            ]
        };
        // Baseline is the median of the prior runs (1000), so +30%
        // exactly is still ok and anything above regresses.
        let mut buf = Vec::new();
        let status = render_bench_trend(&runs(1300.0), 0.3, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Exact, "{}", String::from_utf8_lossy(&buf));
        let mut buf = Vec::new();
        let status = render_bench_trend(&runs(1301.0), 0.3, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("new case"), "{text}");
    }

    #[test]
    fn dist_specs() {
        assert!((parse_dist("exp:10").unwrap().mean() - 10.0).abs() < 1e-12);
        assert!((parse_dist("erlang:4:2").unwrap().mean() - 2.0).abs() < 1e-12);
        let h = parse_dist("hyp2:10:5").unwrap();
        assert!((h.mean() - 10.0).abs() < 1e-9);
        assert!((h.scv() - 5.0).abs() < 1e-6);
        let t = parse_dist("tpt:9:1.4:0.2:10").unwrap();
        assert!((t.mean() - 10.0).abs() < 1e-9);
        assert!((parse_dist("pareto:1.4:10").unwrap().mean() - 10.0).abs() < 1e-9);
        assert!((parse_dist("weibull:0.7:3").unwrap().mean() - 3.0).abs() < 1e-9);

        assert!(parse_dist("exp").is_err());
        assert!(parse_dist("exp:abc").is_err());
        assert!(parse_dist("nope:1").is_err());
        assert!(parse_dist("erlang:x:1").is_err());
    }

    #[test]
    fn solve_command_prints_metrics() {
        let a = args(&[("rho", "0.7"), ("down", "tpt:9:1.4:0.2:10"), ("tail", "500")]);
        let mut buf = Vec::new();
        let status = run("solve", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("mean queue length"));
        assert!(s.contains("Region(1)"));
        assert!(s.contains("Pr(Q >= 500)"));
        assert!(s.contains("solver           : "));
        assert!(s.contains("status           : exact"));
        assert_eq!(status, RunStatus::Exact);
    }

    #[test]
    fn solve_reports_delay_bound_violation() {
        let a = args(&[("rho", "0.5"), ("delay-bound", "5.0")]);
        let mut buf = Vec::new();
        run("solve", &a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Pr(S > 5)"));
    }

    #[test]
    fn resilience_flags_shape_supervisor_options() {
        let a = args(&[("max-iter", "80"), ("tolerance", "1e-9"), ("deadline", "30")]);
        let before = std::time::Instant::now();
        let opts = supervisor_options(&a).unwrap();
        assert_eq!(opts.max_iterations, 80);
        // The flag caps the budget; it never raises it.
        let wide = supervisor_options(&args(&[("max-iter", "100000")])).unwrap();
        assert_eq!(wide.max_iterations, SupervisorOptions::default().max_iterations);
        assert!((opts.tolerance - 1e-9).abs() < 1e-24);
        let deadline = opts.stop.deadline().expect("--deadline arms the stop");
        let grant = Duration::from_secs(30);
        assert!(deadline >= before + grant && deadline <= std::time::Instant::now() + grant);

        assert!(supervisor_options(&args(&[("max-iter", "0")])).is_err());
        assert!(supervisor_options(&args(&[("deadline", "-1")])).is_err());
    }

    #[test]
    fn starved_iteration_budget_is_a_typed_error() {
        // Three logred iterations cannot reach the tolerance at rho 0.7,
        // so the supervisor must exhaust its budget and fail.
        let a = args(&[("rho", "0.7"), ("max-iter", "3")]);
        let mut buf = Vec::new();
        let err = run("solve", &a, &mut buf).unwrap_err();
        assert!(err.to_string().contains("solver"), "{err}");
    }

    #[test]
    fn exit_code_contract() {
        assert_eq!(RunStatus::Exact.exit_code(), 0);
        assert_eq!(EXIT_USAGE, 2);
        assert_eq!(RunStatus::Degraded.exit_code(), 10);
        assert_eq!(EXIT_FAILED, 20);
        assert_eq!(RunStatus::StoreCorrupt.exit_code(), 30);
        assert_eq!(EXIT_PARTIAL, 40);
        assert_eq!(RunStatus::Partial.exit_code(), EXIT_PARTIAL);
        assert_eq!(CliError::failed("x").code, EXIT_FAILED);
        assert_eq!(CliError::usage("x").code, EXIT_USAGE);
    }

    #[test]
    fn sweep_rejects_invalid_deadline_as_usage_error() {
        // `--deadline` on sweep verbs is the whole-run budget; a value
        // that cannot mean one must fail loudly (exit 2), never be
        // silently ignored.
        for bad in ["-1", "soon", "inf", "nan"] {
            let a = args(&[("steps", "3"), ("deadline", bad)]);
            let mut buf = Vec::new();
            let err = run("sweep", &a, &mut buf).unwrap_err();
            assert_eq!(err.code, EXIT_USAGE, "--deadline {bad}: {err}");
            assert!(err.to_string().contains("deadline"), "--deadline {bad}: {err}");
        }
    }

    #[test]
    fn sweep_zero_deadline_exits_partial_with_header_only_csv() {
        // A zero whole-run budget is exhausted before any point is
        // issued: every point reports Cancelled, the CSV carries only
        // its header (cancelled points are omitted, not NaN), and the
        // run maps to the partial-results exit code.
        let a = args(&[
            ("from", "0.2"),
            ("to", "0.5"),
            ("steps", "4"),
            ("deadline", "0"),
        ]);
        let mut buf = Vec::new();
        let status = run("sweep", &a, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Partial);
        assert_eq!(status.exit_code(), EXIT_PARTIAL);
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.trim(), "rho,normalized", "expected header-only CSV: {s:?}");
    }

    #[test]
    fn shard_spec_parsing() {
        assert_eq!(parse_shard("0/4").unwrap(), (0, 4));
        assert_eq!(parse_shard(" 3 / 4 ").unwrap(), (3, 4));
        assert!(parse_shard("4/4").is_err());
        assert!(parse_shard("0/0").is_err());
        assert!(parse_shard("1").is_err());
        assert!(parse_shard("a/b").is_err());
    }

    #[test]
    fn store_flags_are_bare_and_gated_on_store() {
        let a = Args::parse(vec![
            "--resume".into(),
            "--retry-failed".into(),
            "--steps".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(a.has("resume"));
        assert!(a.has("retry-failed"));
        let mut buf = Vec::new();
        let err = run("sweep", &a, &mut buf).unwrap_err();
        assert!(err.to_string().contains("--store"), "{err}");
    }

    #[test]
    fn resume_demands_an_existing_store() {
        let missing = std::env::temp_dir().join(format!(
            "performa_cli_resume_missing_{}.log",
            std::process::id()
        ));
        // `--resume` is a bare flag; splice it in through the parser.
        let raw: Vec<String> = [
            "--resume",
            "--store",
            missing.to_str().unwrap(),
            "--steps",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let with_resume = Args::parse(raw).unwrap();
        let mut buf = Vec::new();
        let err = run("sweep", &with_resume, &mut buf).unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn sweep_with_store_replays_and_verify_reports() {
        let path = std::env::temp_dir().join(format!(
            "performa_cli_store_unit_{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sweep_args = args(&[
            ("param", "rho"),
            ("from", "0.3"),
            ("to", "0.6"),
            ("steps", "2"),
            ("metric", "mean"),
            ("down", "exp:10"),
            ("store", path.to_str().unwrap()),
        ]);
        let mut first = Vec::new();
        run("sweep", &sweep_args, &mut first).unwrap();
        let mut second = Vec::new();
        run("sweep", &sweep_args, &mut second).unwrap();
        assert_eq!(first, second, "replayed CSV differs");

        let verify_args = args(&[("store", path.to_str().unwrap())]);
        let mut buf = Vec::new();
        let status = run("store-verify", &verify_args, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Exact);
        let report = String::from_utf8(buf).unwrap();
        assert!(report.contains("records        : 3"), "{report}");
        assert!(report.contains("stale frames   : 0"), "{report}");
        assert!(report.contains("torn tail bytes: 0"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_verify_counts_stale_frames_of_the_layout_with_g() {
        use performa_store::frame::{encode_frame, MAGIC};
        let path = std::env::temp_dir().join(format!(
            "performa_cli_store_stale_{}.log",
            std::process::id()
        ));
        // A tag-1 solved record of earlier builds: the key, m = 1, then
        // π₀, π₁, R and G.
        let mut payload = vec![1u8];
        payload.extend(4u32.to_le_bytes());
        payload.extend(b"n=1;");
        payload.extend(1u32.to_le_bytes());
        payload.extend(0.5f64.to_bits().to_le_bytes());
        payload.extend(1u32.to_le_bytes());
        for x in [0.5f64, 0.25, 0.5, 1.0] {
            payload.extend(x.to_bits().to_le_bytes());
        }
        std::fs::write(&path, [&MAGIC[..], &encode_frame(&payload)].concat()).unwrap();
        let verify_args = args(&[("store", path.to_str().unwrap())]);
        let mut buf = Vec::new();
        let status = run("store-verify", &verify_args, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Exact);
        let report = String::from_utf8(buf).unwrap();
        assert!(report.contains("frames         : 1"), "{report}");
        assert!(report.contains("stale frames   : 1"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_store_maps_to_exit_thirty() {
        let path = std::env::temp_dir().join(format!(
            "performa_cli_store_corrupt_{}.log",
            std::process::id()
        ));
        std::fs::write(&path, b"NOT A PERFORMA STORE AT ALL").unwrap();
        let a = args(&[
            ("steps", "2"),
            ("down", "exp:10"),
            ("store", path.to_str().unwrap()),
        ]);
        let mut buf = Vec::new();
        assert_eq!(run("sweep", &a, &mut buf).unwrap(), RunStatus::StoreCorrupt);
        assert!(String::from_utf8(buf).unwrap().contains("store corrupt"));

        let mut buf = Vec::new();
        let verify_args = args(&[("store", path.to_str().unwrap())]);
        assert_eq!(
            run("store-verify", &verify_args, &mut buf).unwrap(),
            RunStatus::StoreCorrupt
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_merge_validates_its_inputs() {
        let out_path = std::env::temp_dir().join(format!(
            "performa_cli_merge_out_{}.log",
            std::process::id()
        ));
        let mut buf = Vec::new();
        assert!(run("store-merge", &args(&[]), &mut buf).is_err());
        let no_inputs = args(&[("out", out_path.to_str().unwrap())]);
        let err = run("store-merge", &no_inputs, &mut buf).unwrap_err();
        assert!(err.to_string().contains("--in"), "{err}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn blowup_command_lists_thresholds() {
        let a = args(&[]);
        let mut buf = Vec::new();
        run("blowup", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("0.217") || s.contains("0.2174"));
        assert!(s.contains("0.608") || s.contains("0.6087"));
    }

    #[test]
    fn sweep_outputs_csv() {
        let a = args(&[("param", "rho"), ("from", "0.2"), ("to", "0.8"), ("steps", "3"),
                       ("metric", "mean")]);
        let mut buf = Vec::new();
        run("sweep", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.trim().lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 points
        assert!(lines[0].starts_with("rho,"));
        // Values increase with rho.
        let v1: f64 = lines[1].split(',').nth(1).unwrap().parse().unwrap();
        let v4: f64 = lines[4].split(',').nth(1).unwrap().parse().unwrap();
        assert!(v4 > v1);
    }

    #[test]
    fn sweep_handles_unstable_points_as_nan() {
        let a = args(&[("param", "lambda"), ("from", "1.0"), ("to", "10.0"),
                       ("steps", "3"), ("metric", "mean")]);
        let mut buf = Vec::new();
        run("sweep", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("NaN"));
    }

    #[test]
    fn availability_sweep_preserves_cycle() {
        let a = args(&[("param", "availability"), ("from", "0.5"), ("to", "0.95"),
                       ("steps", "2"), ("metric", "normalized"), ("lambda", "1.8"),
                       ("down", "hyp2:10:20")]);
        let mut buf = Vec::new();
        run("sweep", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.trim().lines().collect();
        assert_eq!(lines.len(), 4);
        // Normalized mean decreases with availability.
        let first: f64 = lines[1].split(',').nth(1).unwrap().parse().unwrap();
        let last: f64 = lines[3].split(',').nth(1).unwrap().parse().unwrap();
        assert!(first > last);
    }

    #[test]
    fn every_sweep_param_is_the_matching_axis() {
        // With --rho only, each --param prints exactly what the same
        // Scenario/Axis run gives: delta and availability hold the base
        // model's arrival rate fixed instead of re-deriving it per point.
        // The recorder is process-global: keep these solves' spans out
        // of the obs tests' trace window.
        let _guard = performa_obs::test_lock();
        for (param, from, to) in [
            ("rho", 0.3, 0.7),
            ("lambda", 0.5, 1.5),
            ("delta", 0.0, 0.4),
            ("availability", 0.85, 0.95),
        ] {
            let (from_s, to_s) = (from.to_string(), to.to_string());
            let a = args(&[
                ("param", param),
                ("from", &from_s),
                ("to", &to_s),
                ("steps", "2"),
                ("metric", "mean"),
                ("rho", "0.5"),
                ("down", "tpt:4:1.4:0.2:10"),
            ]);
            let mut buf = Vec::new();
            run("sweep", &a, &mut buf).unwrap();
            let grid = SweepPlan::grid(from, to, 2).into_values();
            let axis = match param {
                "rho" => Axis::Rho(grid),
                "lambda" => Axis::Lambda(grid),
                "delta" => Axis::Delta(grid),
                _ => Axis::Availability(grid),
            };
            let result = Scenario::new(build_model(&a).unwrap(), axis)
                .compile()
                .run_map(|sol| sol.mean_queue_length());
            let mut expected = format!("{param},mean\n");
            for p in result.points() {
                expected += &format!("{:.6},{:.8e}\n", p.x, p.outcome.as_ref().unwrap());
            }
            assert_eq!(String::from_utf8(buf).unwrap(), expected, "--param {param}");
        }
    }

    #[test]
    fn lambda_pinned_delta_and_availability_sweeps_keep_their_cells() {
        let _guard = performa_obs::test_lock();
        let cells = |flags: &[(&str, &str)]| -> Vec<String> {
            let mut buf = Vec::new();
            run("sweep", &args(flags), &mut buf).unwrap();
            let csv = String::from_utf8(buf).unwrap();
            csv.lines()
                .skip(1)
                .filter_map(|l| l.split(',').nth(1).map(str::to_string))
                .collect()
        };
        let availability = cells(&[
            ("param", "availability"),
            ("from", "0.4"),
            ("to", "0.9"),
            ("steps", "2"),
            ("lambda", "1.8"),
            ("down", "hyp2:10:50"),
        ]);
        assert_eq!(
            availability,
            ["2.44686891e2", "5.76074325e1", "2.87274532e0"]
        );
        let delta = cells(&[
            ("param", "delta"),
            ("from", "0"),
            ("to", "0.4"),
            ("steps", "2"),
            ("lambda", "1.5"),
            ("down", "tpt:5:1.4:0.2:10"),
            ("metric", "mean"),
        ]);
        assert_eq!(delta, ["1.60952375e0", "9.55602370e-1", "7.26300221e-1"]);
    }

    #[test]
    fn sensitivity_command_runs() {
        let a = args(&[("rho", "0.5"), ("down", "tpt:5:1.4:0.2:10")]);
        let mut buf = Vec::new();
        run("sensitivity", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("dE[Q]/d(lambda)"));
        assert!(s.contains("distance to blow-up"));
    }

    #[test]
    fn simulate_command_runs_small() {
        let a = args(&[("rho", "0.4"), ("cycles", "300"), ("reps", "2"),
                       ("strategy", "discard"), ("delta", "0.0"),
                       ("down", "tpt:3:1.4:0.5:10")]);
        let mut buf = Vec::new();
        let status = run("simulate", &a, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("mean queue length"));
        assert!(s.contains("completed tasks"));
        assert!(s.contains("2 of 2 reps"));
        assert!(s.contains("status            : exact"));
        assert_eq!(status, RunStatus::Exact);
    }

    #[test]
    fn unknown_command_and_strategy() {
        let mut buf = Vec::new();
        assert!(run("frobnicate", &args(&[]), &mut buf).is_err());
        assert!(parse_strategy("yolo").is_err());
        assert!(parse_strategy("resume-back").is_ok());
    }

    #[test]
    fn profile_is_a_bare_flag() {
        let a = Args::parse(vec!["--profile".into(), "--rho".into(), "0.4".into()]).unwrap();
        assert!(a.has("profile"));
        assert!((a.get("rho", 0.0_f64).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn obs_flags_produce_trace_and_profile() {
        // The recorder is process-global: serialize against other tests.
        let _guard = performa_obs::test_lock();
        let path = std::env::temp_dir().join(format!(
            "performa_cli_obs_test_{}.ndjson",
            std::process::id()
        ));
        let raw: Vec<String> = [
            "--profile",
            "--trace-json",
            path.to_str().unwrap(),
            "--rho",
            "0.4",
            "--down",
            "exp:10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = Args::parse(raw).unwrap();
        let obs = init_obs(&a).unwrap();
        let mut buf = Vec::new();
        run("solve", &a, &mut buf).unwrap();
        let mut err = Vec::new();
        obs.finish(&mut err).unwrap();

        // Profile table shows the instrumented solve.
        let table = String::from_utf8(err).unwrap();
        assert!(table.contains("profile"), "{table}");
        assert!(table.contains("core.solve"), "{table}");
        assert!(table.contains("qbd.residual"), "{table}");

        // The NDJSON trace validates against schema v1 and contains
        // spans, events and metric records.
        let stats = performa_obs::ndjson::validate_file(&path).unwrap();
        assert!(stats.span_open > 0, "{stats:?}");
        assert_eq!(stats.span_open, stats.span_close, "{stats:?}");
        assert!(stats.event > 0, "{stats:?}");
        assert!(stats.metric > 0, "{stats:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_trace_level_is_reported() {
        let _guard = performa_obs::test_lock();
        let a = args(&[("trace-level", "verbose")]);
        assert!(init_obs(&a).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let mut buf = Vec::new();
        run("help", &args(&[]), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }
}
