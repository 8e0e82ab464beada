//! `bench-record` — records the solver performance baseline as
//! machine-readable JSON (`BENCH_solver.json`).
//!
//! Three kinds of cases are timed with plain `std::time::Instant`
//! medians (no criterion, so the binary builds on the default feature
//! set):
//!
//! * `gemm_speedup` — the cache-blocked kernel (`&a * &b`) against the
//!   retained naive triple loop (`Matrix::mul_naive`) at square
//!   dimensions bracketing the paper-scale phase counts; each case
//!   reports `speedup_vs_naive`.
//! * `g_solve` — logarithmic-reduction `G` solves for lumped N-server
//!   TPT models at the phase dimensions the DSN'07 figures use.
//! * `sweep` — a Fig. 1-style ρ sweep through the parallel sweep
//!   engine (4 workers, modulator cache) against the serial per-point
//!   loop it replaced; `residual` reports the worst G residual of cold
//!   solves at the grid points.
//!
//! Environment knobs:
//!
//! * `BENCH_OUT` — output path (default `BENCH_solver.json`);
//! * `BENCH_HISTORY` — append-only NDJSON trend log (default
//!   `BENCH_history.ndjson`; empty string disables the append);
//! * `BENCH_SAMPLES` — samples per case (default 5; median reported);
//! * `BENCH_SMOKE=1` — CI smoke mode: 2 samples and single-sample big
//!   `g_solve` cases, but the full case list, so the schema validation
//!   downstream sees every expected case name;
//! * `BENCH_FILTER` — substring filter on case names (dev loop only;
//!   the emitted file then contains just the matching cases);
//! * `BENCH_TIMESTAMP` — ISO-8601 override for the history record's
//!   `recorded_at` (for reproducible tests; defaults to the current
//!   UTC time);
//! * `BENCH_GIT_SHA` — commit override for the history record
//!   (defaults to `GITHUB_SHA`, then `git rev-parse --short HEAD`,
//!   then `"unknown"`).
//!
//! Besides overwriting `BENCH_OUT` with the latest snapshot, every run
//! appends one self-contained NDJSON line to `BENCH_HISTORY` so
//! `performa obs bench-trend` can detect regressions across runs.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use performa_core::{Axis, ClusterModel, Scenario, StoreHandle, SweepOptions, SweepPlan};
use performa_dist::{Exponential, TruncatedPowerTail};
use performa_linalg::Matrix;
use performa_qbd::{Qbd, SolveOptions};

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Deterministic dense test matrix (same scheme as `benches/solver.rs`).
fn dense(dim: usize, seed: usize) -> Matrix {
    Matrix::from_fn(dim, dim, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 97) as f64 / 97.0 - 0.5
    })
}

fn tpt_cluster(servers: usize, t: u32, rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(rho)
        .build()
        .unwrap()
}

fn tpt_qbd(servers: usize, t: u32, rho: f64) -> Qbd {
    tpt_cluster(servers, t, rho).to_qbd().unwrap()
}

struct Case {
    name: String,
    kind: &'static str,
    dim: usize,
    ns_per_iter: f64,
    naive_ns_per_iter: Option<f64>,
    /// Serial-kernel wall clock of the same case (`g_solve` cases):
    /// when the run is threaded (`PERFORMA_THREADS`), the solve is
    /// re-timed at one kernel thread so `speedup_vs_naive` reports the
    /// real parallel gain; on a serial run it equals `ns_per_iter` and
    /// the ratio is 1.
    baseline_ns: Option<f64>,
    /// ∞-norm of `A2 + A1·G + A0·G²` for `g_solve` cases.
    residual: Option<f64>,
}

impl Case {
    fn speedup(&self) -> Option<f64> {
        self.naive_ns_per_iter
            .or(self.baseline_ns)
            .map(|n| n / self.ns_per_iter)
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ` (proleptic Gregorian,
/// Howard Hinnant's civil-from-days), unless `BENCH_TIMESTAMP`
/// overrides it for reproducible tests.
fn recorded_at() -> String {
    if let Ok(ts) = std::env::var("BENCH_TIMESTAMP") {
        if !ts.is_empty() {
            return ts;
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let (h, m, s) = (tod / 3600, (tod % 3600) / 60, tod % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Commit identity for the history line: `BENCH_GIT_SHA`, then
/// `GITHUB_SHA`, then `git rev-parse --short HEAD`, then `"unknown"`.
fn git_sha() -> String {
    for var in ["BENCH_GIT_SHA", "GITHUB_SHA"] {
        if let Ok(sha) = std::env::var(var) {
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Coarse host fingerprint (`hostname/os/arch`) so trend comparisons
/// can refuse to mix measurements from different machines.
fn host_fingerprint() -> String {
    let hostname = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown-host".to_string());
    format!(
        "{hostname}/{}/{}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One self-contained `performa-bench-history/v1` NDJSON line for this
/// run — the record `performa obs bench-trend` consumes.
fn history_line(cases: &[Case], samples: usize, smoke: bool) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"schema\":\"performa-bench-history/v1\",\"recorded_at\":\"{}\",\"git_sha\":\"{}\",\"host\":\"{}\",\"samples_per_case\":{samples},\"smoke\":{smoke},\"cases\":[",
        json_escape(&recorded_at()),
        json_escape(&git_sha()),
        json_escape(&host_fingerprint()),
    );
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"dim\":{},\"ns_per_iter\":{:.1}",
            json_escape(&c.name),
            c.kind,
            c.dim,
            c.ns_per_iter
        );
        if let Some(bn) = c.baseline_ns {
            let _ = write!(line, ",\"baseline_ns\":{bn:.1}");
        }
        if let Some(speedup) = c.speedup() {
            let _ = write!(line, ",\"speedup_vs_naive\":{speedup:.3}");
        }
        if let Some(r) = c.residual {
            let _ = write!(line, ",\"residual\":{r:e}");
        }
        line.push('}');
    }
    line.push_str("]}");
    line
}

fn main() {
    let out_path =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_solver.json".to_string());
    let smoke = std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 5 });
    let filter = std::env::var("BENCH_FILTER").unwrap_or_default();
    let selected = |name: &str| filter.is_empty() || name.contains(&filter);

    let mut cases: Vec<Case> = Vec::new();

    // --- Blocked GEMM vs the retained naive kernel -------------------
    for dim in [128usize, 160, 256, 320] {
        if !selected(&format!("gemm_{dim}")) {
            continue;
        }
        let a = dense(dim, 1);
        let b = dense(dim, 2);
        // Warm the packing scratch so the timed runs see steady state.
        let _ = &a * &b;
        let blocked = median_ns(samples, || &a * &b);
        let naive = median_ns(samples, || a.mul_naive(&b));
        eprintln!(
            "gemm dim {dim:>4}: blocked {:>12.0} ns  naive {:>12.0} ns  speedup {:.2}x",
            blocked,
            naive,
            naive / blocked
        );
        cases.push(Case {
            name: format!("gemm_{dim}"),
            kind: "gemm_speedup",
            dim,
            ns_per_iter: blocked,
            naive_ns_per_iter: Some(naive),
            baseline_ns: None,
            residual: None,
        });
    }

    // --- Paper-scale G solves (logarithmic reduction) ----------------
    // Lumped N-server TPT models; phase dimension C(T+N, N). The
    // near-null-recurrent N2_T32 case only converges on the
    // shift-hardened path (DESIGN.md Sect. 10); the rest use defaults.
    let g_cases: &[(&str, usize, u32, bool)] = &[
        ("N2_T8", 2, 8, false),
        ("N5_T4", 5, 4, false),
        ("N2_T16", 2, 16, false),
        ("N5_T6", 5, 6, false),
        ("N2_T32", 2, 32, true),
    ];
    for &(label, servers, t, hardened) in g_cases {
        if !selected(&format!("g_solve_{label}")) {
            continue;
        }
        let qbd = tpt_qbd(servers, t, 0.7);
        let m = qbd.phase_dim();
        let opts = if hardened {
            SolveOptions::hardened()
        } else {
            SolveOptions::default()
        };
        // Smoke mode skips the big solves (they dominate wall-clock) but
        // still records the case with a single sample so the JSON schema
        // is complete.
        let g_samples = if smoke && m > 200 { 1 } else { samples };
        let threads = performa_linalg::threading::threads();
        let ns = median_ns(g_samples, || qbd.g_matrix(opts.clone()).unwrap());
        // Serial baseline for the parallel-speedup column; identical
        // bits come out either way, only the wall clock moves.
        let baseline = if threads > 1 {
            performa_linalg::threading::set_threads(1);
            let b = median_ns(g_samples, || qbd.g_matrix(opts.clone()).unwrap());
            performa_linalg::threading::set_threads(threads);
            b
        } else {
            ns
        };
        let g = qbd.g_matrix(opts).unwrap();
        let residual = qbd.g_residual(&g);
        eprintln!(
            "g_solve {label} (m={m}): {ns:>14.0} ns  serial {baseline:>14.0} ns \
             ({threads} thread(s))  residual {residual:.2e}"
        );
        cases.push(Case {
            name: format!("g_solve_{label}"),
            kind: "g_solve",
            dim: m,
            ns_per_iter: ns,
            naive_ns_per_iter: None,
            baseline_ns: Some(baseline),
            residual: Some(residual),
        });
    }

    // --- Fig. 1-style ρ sweep: serial loop vs the sweep engine -------
    // `ns_per_iter` is the engine in its default configuration (4
    // workers, shared modulator cache) over the whole grid;
    // `naive_ns_per_iter` is the pre-engine serial rebuild-and-solve
    // loop on the same points, so `speedup_vs_naive` is the end-to-end
    // sweep gain (≈1x on a single core, where only the modulator-cache
    // savings show). `residual` is the max ∞-norm G residual of untimed
    // cold `Qbd::g_matrix` solves at the grid points.
    if selected("sweep_fig1") {
        let grid = SweepPlan::grid(0.05, 0.95, if smoke { 8 } else { 24 })
            .refine_near(&[0.2174, 0.6087])
            .into_values();
        let template = tpt_cluster(2, 5, 0.5);
        let serial = median_ns(samples, || {
            grid.iter()
                .map(|&rho| {
                    template
                        .with_utilization(rho)
                        .unwrap()
                        .solve()
                        .unwrap()
                        .normalized_mean_queue_length()
                })
                .sum::<f64>()
        });
        let engine = median_ns(samples, || {
            Scenario::new(template.clone(), Axis::Rho(grid.clone()))
                .compile()
                .with_options(SweepOptions::default().with_threads(4))
                .run_map(|sol| sol.normalized_mean_queue_length())
                .expect_values("grid is stable")
                .iter()
                .sum::<f64>()
        });
        let residual = grid
            .iter()
            .map(|&rho| {
                let qbd = tpt_qbd(2, 5, rho);
                let g = qbd
                    .g_matrix(SolveOptions::default())
                    .expect("grid is stable");
                qbd.g_residual(&g)
            })
            .fold(0.0f64, f64::max);
        eprintln!(
            "sweep_fig1 ({} points): engine {:>14.0} ns  serial {:>14.0} ns  speedup {:.2}x  max residual {residual:.2e}",
            grid.len(),
            engine,
            serial,
            serial / engine
        );
        cases.push(Case {
            name: "sweep_fig1".to_string(),
            kind: "sweep",
            dim: grid.len(),
            ns_per_iter: engine,
            naive_ns_per_iter: Some(serial),
            baseline_ns: None,
            residual: Some(residual),
        });
    }

    // --- Fig. 1 sweep against a warm result store --------------------
    // `naive_ns_per_iter` is the cold path: every point solved and
    // appended to a fresh store. `ns_per_iter` replays a fully
    // populated store — the crash-resume fabric's best case, bounded
    // by decode + solution reassembly instead of QBD iteration.
    if selected("sweep_fig1_warm_store") {
        let grid = SweepPlan::grid(0.05, 0.95, if smoke { 8 } else { 24 })
            .refine_near(&[0.2174, 0.6087])
            .into_values();
        let template = tpt_cluster(2, 5, 0.5);
        let store_path = std::env::temp_dir().join(format!(
            "performa_bench_store_{}.log",
            std::process::id()
        ));
        let run_with_store = |path: &std::path::Path| {
            let (handle, _) = StoreHandle::open(path).expect("bench store opens");
            Scenario::new(template.clone(), Axis::Rho(grid.clone()))
                .compile()
                .with_options(SweepOptions::default().with_threads(4).with_store(handle))
                .run_map(|sol| sol.normalized_mean_queue_length())
                .expect_values("grid is stable")
                .iter()
                .sum::<f64>()
        };
        let cold = median_ns(samples, || {
            let _ = std::fs::remove_file(&store_path);
            run_with_store(&store_path)
        });
        // Populate once, then time pure replays (zero re-solves).
        let _ = std::fs::remove_file(&store_path);
        run_with_store(&store_path);
        let warm = median_ns(samples, || run_with_store(&store_path));
        let _ = std::fs::remove_file(&store_path);
        eprintln!(
            "sweep_fig1_warm_store ({} points): warm {warm:>14.0} ns  cold {cold:>14.0} ns  speedup {:.2}x",
            grid.len(),
            cold / warm
        );
        cases.push(Case {
            name: "sweep_fig1_warm_store".to_string(),
            kind: "sweep_store",
            dim: grid.len(),
            ns_per_iter: warm,
            naive_ns_per_iter: Some(cold),
            baseline_ns: None,
            residual: None,
        });
    }

    // --- Emit JSON (hand-rolled; the workspace carries no serde) -----
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"performa-bench-solver/v1\",\n");
    let _ = writeln!(json, "  \"samples_per_case\": {samples},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(json, "      \"kind\": \"{}\",", c.kind);
        let _ = writeln!(json, "      \"dim\": {},", c.dim);
        let _ = writeln!(json, "      \"ns_per_iter\": {:.1},", c.ns_per_iter);
        match c.naive_ns_per_iter {
            Some(naive) => {
                let _ = writeln!(json, "      \"naive_ns_per_iter\": {naive:.1},");
            }
            None => json.push_str("      \"naive_ns_per_iter\": null,\n"),
        }
        match c.baseline_ns {
            Some(bn) => {
                let _ = writeln!(json, "      \"baseline_ns\": {bn:.1},");
            }
            None => json.push_str("      \"baseline_ns\": null,\n"),
        }
        match c.speedup() {
            Some(speedup) => {
                let _ = writeln!(json, "      \"speedup_vs_naive\": {speedup:.3},");
            }
            None => json.push_str("      \"speedup_vs_naive\": null,\n"),
        }
        match c.residual {
            Some(r) => {
                let _ = writeln!(json, "      \"residual\": {r:e}");
            }
            None => json.push_str("      \"residual\": null\n"),
        }
        json.push_str(if i + 1 == cases.len() { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_OUT");
    eprintln!("wrote {out_path} ({} cases)", cases.len());

    // Append-only trend log: one line per run, never rewritten, so
    // `performa obs bench-trend` can compare runs across commits.
    let history_path =
        std::env::var("BENCH_HISTORY").unwrap_or_else(|_| "BENCH_history.ndjson".to_string());
    if !history_path.is_empty() {
        let line = history_line(&cases, samples, smoke);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .expect("open BENCH_HISTORY for append");
        writeln!(f, "{line}").expect("append BENCH_HISTORY");
        eprintln!("appended run to {history_path}");
    }
}
