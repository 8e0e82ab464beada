//! End-to-end tests of the compiled `performa` binary.

use std::process::Command;

fn performa(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_performa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (ok, _, err) = performa(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = performa(&["help"]);
    assert!(ok);
    assert!(out.contains("COMMANDS"));
}

#[test]
fn solve_default_model() {
    let (ok, out, _) = performa(&["solve"]);
    assert!(ok, "{out}");
    assert!(out.contains("mean queue length"));
    assert!(out.contains("capacity         : 3.680000"));
}

#[test]
fn solve_rejects_bad_spec_with_helpful_error() {
    let (ok, _, err) = performa(&["solve", "--down", "gamma:1:2"]);
    assert!(!ok);
    assert!(err.contains("invalid distribution spec"));
}

#[test]
fn solve_rejects_oversaturated_load() {
    let (ok, _, err) = performa(&["solve", "--lambda", "10"]);
    assert!(!ok);
    assert!(err.contains("unstable"));
}

#[test]
fn sweep_pipes_csv() {
    let (ok, out, _) = performa(&[
        "sweep", "--param", "rho", "--from", "0.3", "--to", "0.7", "--steps", "2",
        "--metric", "tail:100", "--down", "tpt:5:1.4:0.2:10",
    ]);
    assert!(ok, "{out}");
    let lines: Vec<&str> = out.trim().lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("tail:100"));
}

#[test]
fn blowup_matches_paper_thresholds() {
    let (ok, out, _) = performa(&["blowup"]);
    assert!(ok);
    assert!(out.contains("0.2173") || out.contains("0.217391"));
}

#[test]
fn profile_flag_prints_summary_table_on_stderr() {
    let (ok, out, err) = performa(&["solve", "--down", "exp:10", "--profile"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("mean queue length"));
    assert!(err.contains("profile"), "{err}");
    assert!(err.contains("core.solve"), "{err}");
    assert!(err.contains("qbd.residual"), "{err}");
}

#[test]
fn trace_level_writes_human_readable_trace_to_stderr() {
    let (ok, _, err) = performa(&["solve", "--down", "exp:10", "--trace-level", "info"]);
    assert!(ok, "{err}");
    assert!(err.contains("core.solve"), "{err}");
    assert!(err.contains("qbd.converged"), "{err}");
}

#[test]
fn trace_json_writes_valid_ndjson() {
    let path = std::env::temp_dir().join(format!(
        "performa_e2e_trace_{}.ndjson",
        std::process::id()
    ));
    let path_str = path.to_str().unwrap();
    let (ok, out, err) =
        performa(&["solve", "--down", "exp:10", "--trace-json", path_str]);
    assert!(ok, "{out}\n{err}");
    let content = std::fs::read_to_string(&path).expect("trace file written");
    // Every line is a JSON object with the schema-v1 envelope.
    assert!(content.lines().count() > 10, "{content}");
    for line in content.lines() {
        assert!(line.starts_with("{\"v\":1,"), "{line}");
    }
    // The solve span and the per-iteration residual gauge are present.
    assert!(content.contains("\"name\":\"core.solve\""));
    assert!(content.contains("\"metric\":\"gauge\""));
    assert!(content.contains("\"name\":\"qbd.residual\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_option_value_is_reported() {
    let (ok, _, err) = performa(&["solve", "--servers", "two"]);
    assert!(!ok);
    assert!(err.contains("cannot parse --servers"));
}

/// Like [`performa`] but exposing the raw exit code, for the store
/// layer's structured exit-code contract.
fn performa_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_performa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn solve_under_an_expired_deadline_fails_with_a_typed_error() {
    let (code, _, err) = performa_code(&["solve", "--rho", "0.7", "--deadline", "0"]);
    assert_eq!(code, Some(20), "{err}");
    assert!(err.contains("deadline expired"), "{err}");
}

#[test]
fn solve_near_saturation_accepts_the_computed_g() {
    // Default model (N=2, TPT T=10) at ρ = 0.97: logarithmic reduction
    // converges in milliseconds and its G is accepted as computed. A
    // supervisor that rescaled G first ran Neuts, functional iteration
    // and tolerance relaxation here and came back degraded (exit 10),
    // or hit this deadline.
    let (code, out, err) = performa_code(&["solve", "--rho", "0.97", "--deadline", "10"]);
    assert_eq!(code, Some(0), "{out}{err}");
    assert!(out.contains("mean queue length: 6017.925416"), "{out}");
    assert!(out.contains("status           : exact"), "{out}");
    assert!(
        !out.contains("renormalized") && !err.contains("renormalized"),
        "{out}{err}"
    );
}

#[test]
fn solve_with_an_unattainable_tolerance_fails_at_once() {
    // Logred's residual (~3e-15) misses the 1e-16 budget. The solve
    // fails with a typed error; it neither relaxes the tolerance nor
    // runs a linear iteration and prints a degraded result (exit 10).
    let (code, out, err) = performa_code(&[
        "solve", "--rho", "0.7", "--down", "tpt:9:1.4:0.2:10", "--tolerance", "1e-16",
    ]);
    assert_eq!(code, Some(20), "{out}{err}");
    assert!(out.is_empty(), "{out}");
    assert!(err.contains("solver supervisor"), "{err}");
}

#[test]
fn simulate_under_an_expired_deadline_fails_when_no_replication_ran() {
    let (code, _, err) = performa_code(&[
        "simulate", "--reps", "4", "--cycles", "200", "--deadline", "0",
    ]);
    assert_eq!(code, Some(20), "{err}");
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("performa_e2e_{tag}_{}.log", std::process::id()))
}

#[test]
fn sharded_sweeps_merge_back_to_the_unsharded_csv() {
    let shard_a = scratch("shard_a");
    let shard_b = scratch("shard_b");
    let merged = scratch("shard_merged");
    for p in [&shard_a, &shard_b, &merged] {
        let _ = std::fs::remove_file(p);
    }
    let sweep = [
        "sweep", "--param", "rho", "--from", "0.3", "--to", "0.7", "--steps", "4",
        "--metric", "mean", "--down", "exp:10",
    ];
    let (ok, unsharded, err) = performa(&sweep);
    assert!(ok, "{err}");

    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        base.iter().chain(extra).copied().collect()
    }
    let (ok, _, err) = performa(&with(
        &sweep,
        &["--store", shard_a.to_str().unwrap(), "--shard", "0/2"],
    ));
    assert!(ok, "{err}");
    let (ok, _, err) = performa(&with(
        &sweep,
        &["--store", shard_b.to_str().unwrap(), "--shard", "1/2"],
    ));
    assert!(ok, "{err}");

    let inputs = format!(
        "{},{}",
        shard_a.to_str().unwrap(),
        shard_b.to_str().unwrap()
    );
    let (ok, out, err) = performa(&[
        "store", "merge", "--out", merged.to_str().unwrap(), "--in", &inputs,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("merged 5 record(s)"), "{out}");

    // The merged store replays the full grid byte-for-byte.
    let (ok, replayed, err) = performa(&with(&sweep, &["--store", merged.to_str().unwrap()]));
    assert!(ok, "{err}");
    assert_eq!(replayed, unsharded, "merged shards differ from the unsharded sweep");

    let (ok, out, _) = performa(&["store", "verify", "--store", merged.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("records        : 5"), "{out}");

    for p in [&shard_a, &shard_b, &merged] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn corrupt_store_exits_with_code_thirty() {
    let store = scratch("corrupt");
    std::fs::write(&store, b"garbage that is definitely not a store").unwrap();
    let (code, out, _) = performa_code(&[
        "sweep", "--steps", "2", "--down", "exp:10", "--store", store.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(30), "{out}");
    assert!(out.contains("store corrupt"), "{out}");

    let (code, out, _) = performa_code(&["store", "verify", "--store", store.to_str().unwrap()]);
    assert_eq!(code, Some(30), "{out}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn bad_sweep_selectors_are_usage_errors_that_run_nothing() {
    // Exit 2 means nothing was run: no CSV header, no solve, no store.
    for bad in [
        ["--metric", "tail:abc"],
        ["--param", "bogus"],
        ["--shard", "2/2"],
    ] {
        let store = scratch("bad_selector");
        let _ = std::fs::remove_file(&store);
        let store_path = store.to_str().unwrap();
        let mut argv = vec![
            "sweep", "--steps", "4", "--down", "exp:10", "--store", store_path,
        ];
        argv.extend(bad);
        let (code, out, err) = performa_code(&argv);
        assert_eq!(code, Some(2), "{bad:?}: {err}");
        assert!(out.is_empty(), "{bad:?} printed {out:?}");
        assert!(!store.exists(), "{bad:?} created the store");
    }
}

#[test]
fn unknown_options_are_usage_errors() {
    let prom = scratch("metrics_out");
    let prom = prom.to_str().unwrap();
    for argv in [
        &["solve", "--rhoo", "0.9"][..],
        &["sweep", "--parm", "delta"],
        &["solve", "--metrics-out", prom],
        &["solve", "--fallback", "logred"],
        &["sweep", "--kernel-threads", "1"],
    ] {
        let (code, out, err) = performa_code(argv);
        assert_eq!(code, Some(2), "{argv:?}: {out}");
        assert!(err.contains("unknown option"), "{argv:?}: {err}");
    }
}

#[test]
fn bad_metric_options_are_usage_errors_that_solve_nothing() {
    for (option, value) in [
        ("--delay-bound", "NaN"),
        ("--tail", "abc"),
        ("--tail", "-5"),
    ] {
        let (code, out, err) = performa_code(&["solve", "--rho", "0.5", option, value]);
        assert_eq!(code, Some(2), "{option} {value}: {err}");
        assert!(out.is_empty(), "{option} {value} printed {out:?}");
        assert!(err.contains(option), "{option} {value}: {err}");
    }
    // An infinite bound is never violated and a negative one always is.
    for (bound, line) in [
        ("inf", "Pr(S > inf)      : 0.000000e0"),
        ("-1", "Pr(S > -1)      : 1.000000e0"),
    ] {
        let (code, out, err) = performa_code(&["solve", "--rho", "0.5", "--delay-bound", bound]);
        assert_eq!(code, Some(0), "{bound}: {err}");
        assert!(out.contains(line), "{bound}: {out}");
    }
}

#[test]
fn store_command_requires_a_verb() {
    let (ok, _, err) = performa(&["store"]);
    assert!(!ok);
    assert!(err.contains("verify | merge"), "{err}");
}

#[test]
fn resume_against_a_missing_store_is_refused() {
    let store = scratch("missing_resume");
    let _ = std::fs::remove_file(&store);
    let (code, _, err) = performa_code(&[
        "sweep", "--steps", "2", "--store", store.to_str().unwrap(), "--resume",
    ]);
    assert_eq!(code, Some(20), "{err}");
    assert!(err.contains("does not exist"), "{err}");
}

// ── `obs` verbs: trace consumption ──────────────────────────────────

#[test]
fn obs_command_requires_a_verb() {
    let (ok, _, err) = performa(&["obs"]);
    assert!(!ok);
    assert!(err.contains("report | diff | bench-trend"), "{err}");
}

/// Acceptance: `obs report` on a sweep trace prints an attribution tree
/// whose root (self + children) accounts for at least 95% of the trace
/// wall clock, and a self-diff of the same trace is a zero-delta exact
/// run.
#[test]
fn obs_report_and_self_diff_on_a_sweep_trace() {
    let trace = std::env::temp_dir().join(format!(
        "performa_e2e_obs_trace_{}.ndjson",
        std::process::id()
    ));
    let trace_str = trace.to_str().unwrap();
    // Default model = the Fig. 1 TPT repair family: solves are heavy
    // enough that span time dominates the pre-sweep trace prelude.
    let (ok, out, err) = performa(&["sweep", "--steps", "4", "--trace-json", trace_str]);
    assert!(ok, "{out}\n{err}");

    let (code, report, err) = performa_code(&["obs", "report", trace_str]);
    assert_eq!(code, Some(0), "{report}\n{err}");
    assert!(report.contains("sweep.point"), "{report}");
    assert!(report.contains("%root"), "{report}");
    // Parse "traced span time  : ... (NN.N% of wall clock)".
    let coverage_line = report
        .lines()
        .find(|l| l.starts_with("traced span time"))
        .expect("coverage line present");
    let pct: f64 = coverage_line
        .split('(')
        .nth(1)
        .and_then(|s| s.split('%').next())
        .expect("percentage in coverage line")
        .parse()
        .expect("numeric percentage");
    assert!(pct >= 95.0, "root attribution covers {pct}% of wall clock");
    // Nothing dropped on a healthy run.
    assert!(!report.contains("degraded"), "{report}");

    let (code, diff, err) = performa_code(&["obs", "diff", trace_str, trace_str]);
    assert_eq!(code, Some(0), "{diff}\n{err}");
    assert!(diff.contains("regressions: 0"), "{diff}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn obs_report_on_a_missing_trace_fails_cleanly() {
    let (code, _, err) = performa_code(&["obs", "report", "/nonexistent/trace.ndjson"]);
    assert_eq!(code, Some(20));
    assert!(err.contains("cannot read"), "{err}");
}

/// Acceptance: `obs bench-trend` over appended runs exits 10 exactly
/// when a case regresses beyond the noise threshold, 0 otherwise.
#[test]
fn obs_bench_trend_exit_code_contract() {
    let history = std::env::temp_dir().join(format!(
        "performa_e2e_bench_history_{}.ndjson",
        std::process::id()
    ));
    let run = |sha: &str, gemm_ns: f64| {
        format!(
            "{{\"schema\":\"performa-bench-history/v1\",\"recorded_at\":\"2026-08-08T00:00:00Z\",\
             \"git_sha\":\"{sha}\",\"host\":\"ci/linux/x86_64\",\"samples_per_case\":2,\
             \"smoke\":true,\"cases\":[{{\"name\":\"gemm_128\",\"kind\":\"gemm_speedup\",\
             \"dim\":128,\"ns_per_iter\":{gemm_ns}}}]}}"
        )
    };
    let history_str = history.to_str().unwrap();

    // One run: nothing to compare, exact.
    std::fs::write(&history, format!("{}\n", run("aaa", 1000.0))).unwrap();
    let (code, out, err) = performa_code(&["obs", "bench-trend", history_str]);
    assert_eq!(code, Some(0), "{out}\n{err}");
    assert!(out.contains("need at least 2"), "{out}");

    // Two runs within the noise threshold: exact.
    std::fs::write(
        &history,
        format!("{}\n{}\n", run("aaa", 1000.0), run("bbb", 1100.0)),
    )
    .unwrap();
    let (code, out, _) = performa_code(&["obs", "bench-trend", history_str]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("regressions: 0"), "{out}");

    // The latest run regressed 2x: degraded exit.
    std::fs::write(
        &history,
        format!(
            "{}\n{}\n{}\n",
            run("aaa", 1000.0),
            run("bbb", 1100.0),
            run("ccc", 2000.0)
        ),
    )
    .unwrap();
    let (code, out, _) = performa_code(&["obs", "bench-trend", history_str]);
    assert_eq!(code, Some(10), "{out}");
    assert!(out.contains("REGRESSED"), "{out}");

    std::fs::remove_file(&history).ok();
}
