//! Sweep-engine benchmarks: the declarative `SweepPlan` pipeline
//! against the hand-rolled serial loop it replaced, on a reduced
//! Fig. 1 grid.
//!
//! Two executions are compared on identical work:
//!
//! * `serial_loop` — the pre-engine pattern: rebuild + solve per point,
//! * `plan_1thread` — the engine at one worker (measures engine + modulator-cache overhead/savings).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use performa_core::{Axis, ClusterModel, Scenario, SweepOptions, SweepPlan};
use performa_dist::{Exponential, TruncatedPowerTail};

fn template(t: u32) -> ClusterModel {
    ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap()
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    // Reduced Fig. 1 grid (T = 5 keeps a single iteration affordable).
    let grid = SweepPlan::grid(0.05, 0.95, 8).refine_near(&[0.2174, 0.6087]).into_values();
    let model = template(5);

    g.bench_function("serial_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &rho in &grid {
                let sol = model.with_utilization(rho).unwrap().solve().unwrap();
                acc += sol.normalized_mean_queue_length();
            }
            black_box(acc)
        })
    });

    g.bench_function("plan_1thread", |b| {
        b.iter(|| {
            let res = Scenario::new(model.clone(), Axis::Rho(grid.clone()))
                .compile()
                .with_options(SweepOptions::default().with_threads(1))
                .run_map(|sol| sol.normalized_mean_queue_length());
            black_box(res.expect_values("stable").iter().sum::<f64>())
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep
}
criterion_main!(benches);
