//! Shared infrastructure for the per-figure experiment binaries.
//!
//! Every binary regenerates one table or figure of the DSN 2007 paper
//! (see DESIGN.md for the index), printing the plotted series as aligned
//! columns and writing a CSV under `results/`.

use std::io::Write as _;
use std::path::PathBuf;

use performa_core::{ClusterModel, StoreHandle, SweepOptions};
use performa_dist::{fit, Dist, DistSpec, Exponential, HyperExponential, Moments, TruncatedPowerTail};

/// The paper's shared base parameters (Sect. 3, figure captions).
pub mod params {
    /// TPT tail exponent `α`.
    pub const ALPHA: f64 = 1.4;
    /// TPT geometric parameter `θ` (Figures 1–4, 8, 9).
    pub const THETA: f64 = 0.2;
    /// Mean UP duration (`ON = 90`).
    pub const UP_MEAN: f64 = 90.0;
    /// Mean DOWN duration (`OFF = 10`).
    pub const DOWN_MEAN: f64 = 10.0;
    /// Peak per-server service rate `ν_p`.
    pub const NU_P: f64 = 2.0;
    /// Degradation factor `δ` for the non-crash experiments.
    pub const DELTA: f64 = 0.2;
    /// Cluster size for Figures 1–5 and 7–9.
    pub const N: usize = 2;
}

/// The paper's repair-time spec at truncation `t`: a TPT with
/// `α = 1.4`, `θ = 0.2` normalized to the paper's MTTR of 10.
pub fn tpt_spec(t: u32) -> DistSpec {
    DistSpec::Tpt {
        truncation: t,
        alpha: params::ALPHA,
        theta: params::THETA,
        mean: params::DOWN_MEAN,
    }
}

/// Builds a paper-style cluster (exponential UP of mean 90, peak rate
/// `ν_p = 2`) with the repair distribution described by `spec`, at
/// utilization `rho`.
///
/// # Panics
///
/// Panics on invalid parameters — experiment binaries use fixed, valid
/// settings.
pub fn cluster_with_down_spec(n: usize, delta: f64, spec: &DistSpec, rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(n)
        .peak_rate(params::NU_P)
        .degradation(delta)
        .up(Exponential::with_mean(params::UP_MEAN).expect("valid"))
        .down(spec.to_dist().expect("valid repair spec"))
        .utilization(rho)
        .build()
        .expect("paper parameters are valid")
}

/// Builds the paper's TPT-repair cluster model at utilization `rho`.
///
/// # Panics
///
/// Panics on invalid parameters — experiment binaries use fixed, valid
/// settings.
pub fn tpt_cluster(t: u32, rho: f64) -> ClusterModel {
    tpt_cluster_with(params::N, params::DELTA, t, rho)
}

/// TPT cluster with explicit size and degradation.
///
/// # Panics
///
/// See [`tpt_cluster`].
pub fn tpt_cluster_with(n: usize, delta: f64, t: u32, rho: f64) -> ClusterModel {
    cluster_with_down_spec(n, delta, &tpt_spec(t), rho)
}

/// The HYP-2 repair distribution moment-matched to the paper's TPT with
/// truncation `t` (Figure 4/5/6 construction).
///
/// # Panics
///
/// Panics if the fit is infeasible (never for `t ≥ 2` with the paper's
/// parameters).
pub fn hyp2_matched_to_tpt(t: u32) -> HyperExponential {
    let Ok(Dist::TruncatedPowerTail(tpt)) = tpt_spec(t).to_dist() else {
        unreachable!("tpt_spec builds a TPT")
    };
    fit::hyp2_matching(&tpt).expect("paper TPT moments are HYP-2 feasible")
}

/// Builds the HYP-2-repair cluster (3-moment matched to TPT `t`) at
/// utilization `rho`.
///
/// # Panics
///
/// See [`hyp2_matched_to_tpt`].
pub fn hyp2_cluster(n: usize, delta: f64, t: u32, rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(n)
        .peak_rate(params::NU_P)
        .degradation(delta)
        .up(Exponential::with_mean(params::UP_MEAN).expect("valid"))
        .down(hyp2_matched_to_tpt(t))
        .utilization(rho)
        .build()
        .expect("paper parameters are valid")
}

/// A HYP-2 cluster with a *rescaled* UP/DOWN pair: availability `a` with
/// the cycle length `UP+DOWN` kept constant (Figure 5's sweep).
///
/// # Panics
///
/// Panics on invalid parameters.
pub fn hyp2_cluster_with_availability(t: u32, cycle: f64, a: f64, lambda: f64) -> ClusterModel {
    let up_mean = a * cycle;
    let down_mean = (1.0 - a) * cycle;
    // Re-fit the HYP-2 to the TPT shape rescaled to the new mean: the
    // paper scales the repair-time distribution, preserving its relative
    // variability.
    let Ok(Dist::TruncatedPowerTail(tpt)) = tpt_spec(t).with_mean(down_mean).to_dist() else {
        unreachable!("tpt_spec builds a TPT")
    };
    let hyp = fit::hyp2_matching(&tpt).expect("feasible");
    ClusterModel::builder()
        .servers(params::N)
        .peak_rate(params::NU_P)
        .degradation(params::DELTA)
        .up(Exponential::with_mean(up_mean).expect("valid"))
        .down(hyp)
        .arrival_rate(lambda)
        .build()
        .expect("valid")
}

/// Observability session for experiment binaries: keep it alive for the
/// duration of `main` (see [`init_obs`]); dropping it flushes the sinks,
/// prints the `--profile` table to stderr and resets the recorder.
#[must_use = "bind to a variable so the trace covers the whole run"]
#[derive(Debug)]
pub struct ObsGuard {
    sinks: Vec<performa_obs::SinkId>,
    profile: bool,
}

/// Every option an experiment binary reads: [`init_obs`]'s trace
/// flags, [`sweep_options_from_args`]'s sweep flags and the simulation
/// binaries' run lengths (through [`arg_or`]).
const KNOWN_OPTIONS: &[&str] = &[
    "--threads",
    "--store",
    "--retry-failed",
    "--deadline",
    "--trace-level",
    "--trace-json",
    "--profile",
    "--reps",
    "--cycles",
];

/// The first `--key` in `args` that is not in [`KNOWN_OPTIONS`].
fn unknown_option(args: &[String]) -> Option<&str> {
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !KNOWN_OPTIONS.contains(a))
}

/// Prints `message` and the option list to stderr and exits with the
/// usage-error code 2, as the `performa` CLI does.
fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("options: {}", KNOWN_OPTIONS.join(" "));
    std::process::exit(2);
}

/// Configures the global recorder from the binary's command line,
/// honouring the same flags as the `performa` CLI:
///
/// * `--trace-level L` — human-readable trace on stderr
///   (`off|error|warn|info|debug|trace`),
/// * `--trace-json PATH` — structured NDJSON trace (schema v1), at
///   `debug` verbosity unless `--trace-level` says otherwise,
/// * `--profile` — metric aggregation plus a summary table on exit.
///
/// Every binary calls it first, so it also rejects a misspelt option:
/// any `--key` outside `KNOWN_OPTIONS` exits 2 before any work.
///
/// # Panics
///
/// Panics on an unparseable level or unwritable trace path (experiment
/// binaries want loud failures).
pub fn init_obs() -> ObsGuard {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(bad) = unknown_option(&argv[1..]) {
        usage_exit(&format!("unknown option {bad}"));
    }
    let find = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let mut sinks = Vec::new();
    let profile = argv.iter().any(|a| a == "--profile");
    if profile {
        performa_obs::reset_metrics();
        performa_obs::set_metrics(true);
    }
    let mut level: Option<performa_obs::TraceLevel> = None;
    if let Some(spec) = find("--trace-level") {
        let parsed = spec.parse().expect("valid --trace-level");
        level = Some(parsed);
        if parsed != performa_obs::TraceLevel::Off {
            sinks.push(performa_obs::add_sink(std::sync::Arc::new(
                performa_obs::StderrSink::new(),
            )));
        }
    }
    if let Some(path) = find("--trace-json") {
        let sink = performa_obs::NdjsonSink::create(std::path::Path::new(&path))
            .expect("writable --trace-json path");
        sinks.push(performa_obs::add_sink(std::sync::Arc::new(sink)));
        if level.is_none() {
            level = Some(performa_obs::TraceLevel::Debug);
        }
    }
    if let Some(l) = level {
        performa_obs::set_level(l);
    }
    ObsGuard { sinks, profile }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        performa_obs::flush_sinks();
        if self.profile {
            eprint!("{}", performa_obs::metrics_snapshot().profile_table());
            performa_obs::set_metrics(false);
            performa_obs::reset_metrics();
        }
        performa_obs::set_level(performa_obs::TraceLevel::Off);
        for id in self.sinks.drain(..) {
            performa_obs::remove_sink(id);
        }
    }
}

/// Returns `value` for `--key value` style CLI arguments, else the
/// default. Used by the simulation binaries to scale run length. A
/// missing or unparseable value exits 2 instead of running with the
/// default.
pub fn arg_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == key) else {
        return default;
    };
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        Some(Err(_)) => usage_exit(&format!("cannot parse {key} value `{}`", args[i + 1])),
        None => usage_exit(&format!("option {key} needs a value")),
    }
}

/// Builds the [`SweepOptions`] shared by every figure binary from the
/// command line:
///
/// * `--threads N` — worker pool size (`0` = all cores),
/// * `--store PATH` — durable result store; cached points replay
///   bit-identically, so a re-run after a crash (or a parameter-subset
///   run) only solves what is missing,
/// * `--retry-failed` — re-attempt points whose stored record is a
///   persisted failure,
/// * `--deadline S` — whole-run wall-clock budget in seconds, split
///   into per-point deadlines by the cost-informed policy. It is fixed
///   here, so every plan run with clones of the returned options shares
///   one budget: `--deadline S` bounds the whole binary, not each curve.
///
/// Every binary also gets the graceful-shutdown fabric: the first
/// Ctrl-C trips the process-wide [`performa_core::Stop`], the sweep
/// drains and flushes the store, and [`exit_if_partial`] maps the
/// interrupted run to [`performa_core::EXIT_PARTIAL`]; a second Ctrl-C
/// kills the process.
///
/// Binaries that run several plans (one per curve) should `clone()` the
/// returned options so every curve shares the one open store handle and
/// the one budget.
///
/// A `--deadline` that is not a non-negative number of seconds exits 2,
/// like any unparseable value.
///
/// # Panics
///
/// Panics if `--store` cannot be opened (experiment binaries want loud
/// failures); a corrupt store's diagnostic names the damaged offset.
pub fn sweep_options_from_args() -> SweepOptions {
    performa_core::install_sigint();
    let mut opts = SweepOptions::default()
        .with_threads(arg_or("--threads", 0))
        .with_retry_failed(std::env::args().any(|a| a == "--retry-failed"))
        .with_stop(performa_core::Stop::for_process());
    if std::env::args().any(|a| a == "--deadline") {
        let secs: f64 = arg_or("--deadline", -1.0);
        if !(secs.is_finite() && secs >= 0.0) {
            usage_exit("--deadline must be a non-negative number of seconds");
        }
        opts.stop = opts.stop.child(std::time::Duration::from_secs_f64(secs));
    }
    let argv: Vec<String> = std::env::args().collect();
    let store_path = argv
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    if let Some(path) = store_path {
        let (handle, stats) =
            StoreHandle::open(std::path::Path::new(&path)).expect("usable --store");
        if stats.recovered_truncation {
            eprintln!(
                "store: truncated a damaged tail ({} byte(s)) of {path}",
                stats.truncated_bytes
            );
        }
        if stats.records > 0 {
            eprintln!("store: {path} holds {} cached point(s)", stats.records);
        }
        opts.store = Some(handle);
    }
    opts
}

/// Exits the process with [`performa_core::EXIT_PARTIAL`] if the sweep
/// behind `stats` was interrupted (Ctrl-C or `--deadline` exhaustion),
/// printing the partial tally and a resume hint to stderr first.
///
/// Figure binaries call this after each plan run, **before**
/// interpreting the values: an interrupted run's unsolved points would
/// otherwise panic the figure's `expect_values` with a misleading
/// diagnostic. Completed points are already flushed to `--store`, so
/// rerunning the same command resumes with zero re-solves.
pub fn exit_if_partial(stats: &performa_core::SweepStats) {
    if stats.interrupted() {
        eprintln!(
            "sweep interrupted: {} of {} points solved ({} cancelled, {} quarantined); \
             rerun the same command with --store to resume",
            stats.solved, stats.points, stats.cancelled, stats.quarantined
        );
        std::process::exit(i32::from(performa_core::EXIT_PARTIAL));
    }
}

/// Writes a CSV file under `results/`, creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O failure (experiment binaries want loud failures).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) {
    let mut path = PathBuf::from("results");
    std::fs::create_dir_all(&path).expect("create results dir");
    path.push(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        let line = row
            .iter()
            .map(|v| format!("{v:.10e}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(f, "{line}").expect("write row");
    }
    eprintln!("wrote results/{name}");
}

/// Prints one aligned numeric row to stdout.
pub fn print_row(cols: &[f64]) {
    let line = cols
        .iter()
        .map(|v| format!("{v:>14.6e}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");
}

/// Convenience: the paper's blow-up thresholds for the base 2-server
/// setting (ρ₂ ≈ 0.217, ρ₁ ≈ 0.609).
pub fn base_thresholds() -> Vec<f64> {
    performa_core::blowup::utilization_thresholds(&tpt_cluster(1, 0.5))
}

/// Mean service time at full speed, `1/ν_p` — the paper's task-time mean.
pub fn task_mean() -> f64 {
    1.0 / params::NU_P
}


/// Renders a log-y ASCII chart of one or more series sharing the x grid.
///
/// Each series is drawn with its own glyph; points outside the y-range
/// are clamped to the border rows. Intended for quick visual checks of
/// the figure shapes straight in the terminal.
pub fn ascii_plot_logy(
    title: &str,
    xs: &[f64],
    series: &[(&str, Vec<f64>)],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 16 && height >= 6, "plot area too small");
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for (_, ys) in series {
        for &y in ys {
            if y.is_finite() && y > 0.0 {
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
    }
    if !ymin.is_finite() || ymin == ymax {
        return format!("{title}\n(no positive finite data to plot)\n");
    }
    let (ly0, ly1) = (ymin.log10(), ymax.log10());
    let (x0, x1) = (xs[0], *xs.last().expect("non-empty grid"));

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for (&x, &y) in xs.iter().zip(ys) {
            if !(y.is_finite() && y > 0.0) {
                continue;
            }
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let fy = (y.log10() - ly0) / (ly1 - ly0);
            let cy = height - 1 - (fy * (height - 1) as f64).round() as usize;
            grid[cy.min(height - 1)][cx.min(width - 1)] = g;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (ri, row) in grid.iter().enumerate() {
        let label = if ri == 0 {
            format!("{ymax:9.2e} |")
        } else if ri == height - 1 {
            format!("{ymin:9.2e} |")
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} {:-<width$}\n", "+", "", width = width));
    out.push_str(&format!("{:>11}{:<w2$}{:>w2$}\n", x0, "", x1, w2 = width / 2));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", glyphs[i % glyphs.len()], name))
        .collect();
    out.push_str(&format!("  legend: {}\n", legend.join("   ")));
    out
}

/// Sanity helper used by several binaries: HYP-2 fit quality against the
/// source TPT (max relative moment error over m1..m3).
pub fn fit_error(t: u32) -> f64 {
    let tpt = TruncatedPowerTail::with_mean(t, params::ALPHA, params::THETA, params::DOWN_MEAN)
        .expect("valid");
    let h = hyp2_matched_to_tpt(t);
    (1..=3)
        .map(|k| ((h.raw_moment(k) / tpt.raw_moment(k)) - 1.0).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use performa_core::blowup;

    #[test]
    fn base_model_reproduces_paper_constants() {
        let m = tpt_cluster(10, 0.5);
        assert!((m.availability() - 0.9).abs() < 1e-12);
        assert!((m.capacity() - 3.68).abs() < 1e-12);
        let t = blowup::utilization_thresholds(&m);
        assert!((t[0] - 0.21739).abs() < 1e-4);
        assert!((t[1] - 0.60869).abs() < 1e-4);
    }

    #[test]
    fn hyp2_fit_is_tight() {
        for t in [5u32, 9, 10] {
            assert!(fit_error(t) < 1e-8, "T={t}: {}", fit_error(t));
        }
    }

    #[test]
    fn availability_sweep_model() {
        let m = hyp2_cluster_with_availability(9, 100.0, 0.9, 1.8);
        assert!((m.availability() - 0.9).abs() < 1e-9);
        assert!((m.mttf() + m.mttr() - 100.0).abs() < 1e-9);
        assert!((m.arrival_rate() - 1.8).abs() < 1e-12);
    }


    #[test]
    fn ascii_plot_renders_series() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 / 20.0).collect();
        let a: Vec<f64> = xs.iter().map(|x| (10.0 * x).exp()).collect();
        let b: Vec<f64> = xs.iter().map(|_| 1.0).collect();
        let plot = ascii_plot_logy("demo", &xs, &[("up", a), ("flat", b)], 40, 10);
        assert!(plot.contains("demo"));
        assert!(plot.contains('*'));
        assert!(plot.contains('+'));
        assert!(plot.contains("legend"));
        // 10 grid rows + title + axis + labels + legend.
        assert!(plot.lines().count() >= 13);
    }

    #[test]
    fn ascii_plot_handles_empty_data() {
        let plot = ascii_plot_logy("empty", &[0.0, 1.0], &[("z", vec![0.0, 0.0])], 30, 8);
        assert!(plot.contains("no positive finite data"));
    }

    #[test]
    fn arg_or_returns_default_without_flag() {
        assert_eq!(arg_or("--not-set", 5u64), 5);
    }

    #[test]
    fn unknown_options_are_named() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        for known in [
            "--threads 2 --deadline 0 --store s.store --retry-failed",
            "--trace-level info --trace-json t.ndjson --profile --reps 3 --cycles 100",
            "",
        ] {
            assert_eq!(unknown_option(&argv(known)), None, "{known}");
        }
        assert_eq!(unknown_option(&argv("--deadlin 0")), Some("--deadlin"));
        assert_eq!(
            unknown_option(&argv("--kernel-threads 1")),
            Some("--kernel-threads")
        );
        assert_eq!(
            unknown_option(&argv("--threads 2 --horizon 9")),
            Some("--horizon")
        );
        // Values are not options, even negative numbers.
        assert_eq!(unknown_option(&argv("--deadline -1")), None);
    }
}
