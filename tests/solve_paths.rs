//! One answer per model: every solve entry point runs the same ladder.
//!
//! `ClusterModel::solve`, `ClusterModel::solve_supervised`,
//! `Qbd::solve_with_count` and a sweep point all call
//! `Qbd::solve_reported`, so they print the same bits — in and out of
//! the near-null-recurrent band (drift ratio above 0.98), where the
//! ladder hardens the first attempt on every path alike.

use performa::core::{Axis, ClusterModel, Scenario};
use performa::qbd::{SolveOptions, SolveWarning};
use performa_experiments::{params, tpt_cluster_with};

/// `(E[Q], Pr(Q ≥ 500))` as bits.
fn bits(mean: f64, tail: f64) -> (u64, u64) {
    (mean.to_bits(), tail.to_bits())
}

fn via_sweep(template: &ClusterModel, rho: f64) -> (u64, u64) {
    Scenario::new(template.clone(), Axis::Rho(vec![rho]))
        .compile()
        .run_map(|s| bits(s.mean_queue_length(), s.qbd().at_least_probability(500)))
        .expect_values("one-point sweep")[0]
}

#[test]
fn every_solve_path_gives_one_answer_per_model() {
    let models = [(5, 0.5), (5, 0.97), (5, 0.99), (5, 0.995), (10, 0.5)];
    for (t, rho) in models {
        let m = tpt_cluster_with(2, params::DELTA, t, rho);
        let at = format!("N=2, T={t}, rho={rho}");

        let plain = m.solve().expect(&at);
        let (supervised, report) = m.solve_supervised(SolveOptions::default()).expect(&at);
        let (counted, _) = m
            .to_qbd()
            .expect(&at)
            .solve_with_count(SolveOptions::default())
            .expect(&at);

        let reference = bits(
            plain.mean_queue_length(),
            plain.qbd().at_least_probability(500),
        );
        let paths = [
            (
                "solve_supervised",
                bits(
                    supervised.mean_queue_length(),
                    supervised.qbd().at_least_probability(500),
                ),
            ),
            (
                "Qbd::solve_with_count",
                bits(
                    counted.mean_queue_length(),
                    counted.at_least_probability(500),
                ),
            ),
            ("sweep", via_sweep(&m, rho)),
        ];
        for (path, got) in paths {
            assert_eq!(
                got, reference,
                "{at}: {path} differs from ClusterModel::solve"
            );
        }
        assert_eq!(
            report.attempts[0].hardened,
            rho > 0.98,
            "{at}: {:?}",
            report.attempts
        );
    }
}

#[test]
fn condition_monitoring_is_plumbed_through() {
    // The boundary system at N = 2, T = 10, rho = 0.5 has a condition
    // estimate of about 5.9e12, above the ladder's 1e12 threshold: the
    // estimate must reach the report and raise the warning.
    let m = tpt_cluster_with(2, params::DELTA, 10, 0.5);
    let (_, report) = m.solve_supervised(SolveOptions::default()).unwrap();
    assert!(
        report.condition_estimate > 1e12,
        "{}",
        report.condition_estimate
    );
    assert!(
        report.warnings.iter().any(|w| matches!(
            w,
            SolveWarning::IllConditioned {
                context: "boundary system",
                ..
            }
        )),
        "{:?}",
        report.warnings
    );
}
