//! Solver ablation benchmarks (DESIGN.md Sect. 6 and Sect. 9):
//!
//! * blocked GEMM kernel vs the retained naive triple loop,
//! * `G` by logarithmic reduction at T = 3, 5, 8,
//! * `G` at paper-scale phase dimensions (lumped N-server TPT models),
//! * lumped (occupancy) vs Kronecker aggregation,
//! * state-space growth with the TPT truncation level `T`,
//! * incremental vs single-point tail evaluation (vector products
//!   with a split binary power of `R`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use performa_core::ClusterModel;
use performa_dist::{Exponential, TruncatedPowerTail};
use performa_linalg::{spectral, Matrix};
use performa_markov::{aggregate, ServerModel};
use performa_qbd::{Qbd, SolveOptions};

fn tpt_server(t: u32) -> ServerModel {
    let up = Exponential::with_mean(90.0).unwrap().to_matrix_exp();
    let down = TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0)
        .unwrap()
        .to_matrix_exp();
    ServerModel::new(up, down, 2.0, 0.2).unwrap()
}

fn tpt_qbd(t: u32, rho: f64) -> Qbd {
    tpt_qbd_n(2, t, rho)
}

fn tpt_qbd_n(servers: usize, t: u32, rho: f64) -> Qbd {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(rho)
        .build()
        .unwrap()
        .to_qbd()
        .unwrap()
}

/// Deterministic dense test matrix — no RNG dependency in the hot path.
fn dense(dim: usize, seed: usize) -> Matrix {
    Matrix::from_fn(dim, dim, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 97) as f64 / 97.0 - 0.5
    })
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_kernels");
    g.sample_size(10);
    // Dimensions bracketing the paper-scale phase counts (Sect. 9):
    // the blocked kernel's advantage comes from cache reuse, so the gap
    // widens as the working set outgrows L1/L2.
    for dim in [128usize, 160, 256, 320] {
        let a = dense(dim, 1);
        let b = dense(dim, 2);
        g.bench_with_input(BenchmarkId::new("blocked", dim), &dim, |bch, _| {
            bch.iter(|| black_box(black_box(&a) * black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("naive", dim), &dim, |bch, _| {
            bch.iter(|| black_box(black_box(&a).mul_naive(black_box(&b))))
        });
    }
    g.finish();
}

fn bench_g_paper_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("g_matrix_paper_scale");
    g.sample_size(10);
    // Lumped N-server TPT models: phase dimension C(T+N, N) — the block
    // sizes the DSN'07 figures actually solve at (45 … 561 phases). The
    // near-null-recurrent N2_T32 case needs the shift-hardened solver
    // (DESIGN.md Sect. 10); the others run the default path.
    for (label, servers, t, hardened) in [
        ("N2_T8", 2usize, 8u32, false),
        ("N5_T4", 5, 4, false),
        ("N2_T16", 2, 16, false),
        ("N5_T6", 5, 6, false),
        ("N2_T32", 2, 32, true),
    ] {
        let qbd = tpt_qbd_n(servers, t, 0.7);
        let opts = if hardened {
            SolveOptions::hardened()
        } else {
            SolveOptions::default()
        };
        let id = format!("{label}_m{}", qbd.phase_dim());
        g.bench_with_input(
            BenchmarkId::new("logarithmic_reduction", id),
            &qbd,
            |b, q| b.iter(|| black_box(q.g_matrix(opts.clone()).unwrap())),
        );
    }
    g.finish();
}

fn bench_g_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("g_matrix");
    g.sample_size(10);
    for t in [3u32, 5, 8] {
        let qbd = tpt_qbd(t, 0.45);
        g.bench_with_input(BenchmarkId::new("logarithmic_reduction", t), &qbd, |b, q| {
            b.iter(|| black_box(q.g_matrix(SolveOptions::default()).unwrap()))
        });
    }
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    let server = tpt_server(5); // 6 phases per server
    for n in [2usize, 3, 4] {
        g.bench_with_input(BenchmarkId::new("lumped", n), &n, |b, &n| {
            b.iter(|| black_box(aggregate::lumped(&server, n).unwrap().dim()))
        });
        g.bench_with_input(BenchmarkId::new("kronecker", n), &n, |b, &n| {
            b.iter(|| black_box(aggregate::kronecker(&server, n).unwrap().dim()))
        });
    }
    g.finish();
}

fn bench_state_space_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_solve_by_truncation");
    g.sample_size(10);
    for t in [5u32, 10, 15, 20] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                let sol = ClusterModel::builder()
                    .servers(2)
                    .peak_rate(2.0)
                    .degradation(0.2)
                    .up(Exponential::with_mean(90.0).unwrap())
                    .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
                    .utilization(0.7)
                    .build()
                    .unwrap()
                    .solve()
                    .unwrap();
                black_box(sol.mean_queue_length())
            })
        });
    }
    g.finish();
}

fn bench_tail_evaluation(c: &mut Criterion) {
    let mut g = c.benchmark_group("tail_evaluation");
    let sol = ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(10, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.7)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    // Single point by vector products, never forming R^500.
    g.bench_function("single_k500", |b| {
        b.iter(|| black_box(sol.tail_probability(black_box(500))))
    });
    // Whole curve incrementally.
    g.bench_function("incremental_sweep_500", |b| {
        b.iter(|| black_box(sol.qbd().tail_probabilities(black_box(500))))
    });
    // Spectral radius of R (decay-rate diagnostic).
    g.bench_function("spectral_radius_r", |b| {
        b.iter(|| black_box(spectral::spectral_radius(sol.qbd().r_matrix()).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm_kernels,
    bench_g_paper_scale,
    bench_g_algorithms,
    bench_aggregation,
    bench_state_space_growth,
    bench_tail_evaluation
);
criterion_main!(benches);
