//! The benchmark's own tests. They run real solves, so run them from the
//! repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use performa_core::SupervisorOptions;
use performa_experiments::{params, tpt_cluster_with};

use crate::report::{placement, Placement};
use crate::workload::{Label, Workload};
use crate::{check, figures, passes, run_named, sim, solver, Args};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 24.0;

/// Measured tests run one at a time, so they do not time each other.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs from the repository root, where the committed results live.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
}

/// Ranks each op by its class's position in the pass, which lists
/// classes cheapest first, and places the median and the tail among the
/// pass's ops, as a run does.
fn nominal_placement(w: &impl Workload) -> Placement {
    let pass = w.pass();
    let mut order: Vec<&str> = Vec::new();
    for op in &pass {
        if !order.contains(&op.class) {
            order.push(op.class);
        }
    }
    let rank = |op: &Label| (order.iter().position(|c| *c == op.class).unwrap() + 1) as f64;
    let ranked: Vec<(f64, &Label)> = pass.iter().map(|op| (rank(op), op)).collect();
    placement(&ranked)
}

#[test]
fn pass_design_puts_median_and_tail_inside_classes() {
    let sims = sim::SimValidation::new().unwrap();
    // Never set up, so it writes nothing.
    let figs = figures::FigureResume::new(".perfbench_work/unused".into());
    let paper = solver::PaperScale::new();
    let edge = solver::BlowupEdge::new();
    let placements = [
        ("paper_scale", nominal_placement(&paper)),
        ("blowup_edge", nominal_placement(&edge)),
        ("figure_resume", nominal_placement(&figs)),
        ("sim_validation", nominal_placement(&sims)),
    ];
    for (name, p) in placements {
        assert!(p.inside_classes(), "{name}: {}", p.render());
        assert!(p.tail_pct >= 80.0, "{name}: {}", p.render());
    }
    // Four passes or more, so even a configuration with one op per pass
    // runs twice on each of two CPUs, and the fastest pass is one of four.
    for (name, n) in [
        ("paper_scale", passes(&paper, RUN_SECONDS)),
        ("blowup_edge", passes(&edge, RUN_SECONDS)),
        ("figure_resume", passes(&figs, RUN_SECONDS)),
    ] {
        assert!(n >= 4, "{name}: {n} passes");
    }
}

/// Metric names of one `BENCHMARK.json` section, in order.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let doc = performa_obs::ndjson::parse_json(&text).unwrap();
    let Some(performa_obs::ndjson::Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let tracer = crate::trace::Tracer::new(crate::env::Clock::Cpu);
    let per_layer = crate::report::per_layer(&tracer, &[], 1.0);
    let names: Vec<String> = per_layer.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared("per_layer"));
    let end_to_end: Vec<String> = crate::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(end_to_end, declared("end_to_end"));
}

#[test]
fn every_workload_passes_its_checks_traced_bit_for_bit_inside_classes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    at_repo_root();
    for workload in [
        "paper_scale",
        "blowup_edge",
        "figure_resume",
        "sim_validation",
    ] {
        let args = Args {
            workload: workload.into(),
            seed: 7,
            // As long as a benchmark run, so the solver workloads'
            // latencies are their configurations' fastest runs.
            seconds: RUN_SECONDS,
            trace: true,
            trace_out: None,
        };
        let r = run_named(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
        // A traced op whose outputs differ from its untraced run fails.
        assert!(
            r.correct,
            "{workload}: {} of {} ops failed",
            r.failed, r.attempted
        );
        // The median and the tail fall inside a class whose
        // configurations cost the same, measured.
        assert!(
            r.placement.inside_classes() && r.placement.configs_even(),
            "{workload}: {}",
            r.placement.render()
        );
        let coverage = r
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .unwrap()
            .value;
        assert!(coverage >= 0.95, "{workload}: trace coverage {coverage}");
    }
}

#[test]
fn checks_flag_known_bad_solves_and_pass_the_paper_families() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let outputs = |s: &performa_core::ClusterSolution| {
        vec![s.mean_queue_length(), s.at_least_probability(10)]
    };

    // N=2, T=32 at ρ=0.3: G residual ~1e-15, phase marginal off by 6.35
    // and departures at about twice λ. N=2, T=24 at ρ=0.5: L1 5.7e-4.
    for (t, rho) in [(32, 0.3), (24, 0.5)] {
        let m = tpt_cluster_with(2, params::DELTA, t, rho);
        let s = m.solve().expect("the plain solve returns a number");
        let inv = check::invariants(&m, s.qbd()).unwrap();
        assert!(inv.phase_l1 > 5.0 * check::PHASE_L1_TOL, "T={t}: {inv:?}");
        assert!(
            check::solution(&m, s.qbd(), &outputs(&s)).is_err(),
            "T={t} passed"
        );
        if t == 32 {
            assert!(inv.departure_rel > 0.5, "T=32: {inv:?}");
        }
    }

    // Around the blow-up points: far inside the tolerance.
    for t in [5, 9, 10] {
        let base = tpt_cluster_with(2, params::DELTA, t, 0.5);
        for r in performa_core::blowup::utilization_thresholds(&base) {
            for rho in [r - 0.005, r + 0.005] {
                let m = base.with_utilization(rho).unwrap();
                let (s, _) = m.solve_supervised(SupervisorOptions::default()).unwrap();
                let inv = check::solution(&m, s.qbd(), &outputs(&s)).unwrap();
                assert!(
                    inv.phase_l1 <= 1e-9 && inv.departure_rel <= 1e-9,
                    "T={t} ρ={rho}: {inv:?}"
                );
            }
        }
    }

    // The relaxation ladder: degraded, yet the invariants hold to 1e-6.
    let m = tpt_cluster_with(2, params::DELTA, 10, 0.98);
    let (s, report) = m.solve_supervised(SupervisorOptions::default()).unwrap();
    assert!(report.degraded);
    let inv = check::solution(&m, s.qbd(), &outputs(&s)).unwrap();
    assert!(inv.phase_l1 <= 1e-6, "{inv:?}");
}
