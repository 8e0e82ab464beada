//! Committed figure cells, recomputed.
//!
//! `results/*.csv` hold the plotted series of the paper's figures. These
//! tests recompute cells of three of their columns through the sweep the
//! figure binaries run and require each to equal the committed text
//! (`{:.10e}`) exactly. A kernel change that moves the solver's last
//! bits far enough to change a printed digit therefore fails here, not
//! at the next regeneration of the figures. Only files that reproduce
//! byte for byte are pinned (see `results/README.md`).
//!
//! Unoptimized builds take one to two CPU-seconds per `m = 55…66` point,
//! so each N = 2 column is sampled at three rows, one per blow-up
//! region; Figure 1's include the refinements next to `ρ₂` and `ρ₁` and
//! the `ρ = 0.28` cell, which moves if the logarithmic reduction stops at
//! a different iteration. Figure 6 (`m = 21`) is checked every other
//! row. The benchmark's `figure_resume` set-up compares every cell of
//! Figures 1, 3, 4 and 6.

use std::path::Path;

use performa::core::blowup::utilization_thresholds;
use performa::core::{Axis, ClusterModel, ClusterSolution, Scenario, SweepPlan};
use performa_experiments::{base_thresholds, hyp2_cluster, params, tpt_cluster};

/// The `rho` column and the named column of a committed CSV, as text.
fn committed(file: &str, column: &str) -> (Vec<String>, Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let at = header
        .iter()
        .position(|h| *h == column)
        .unwrap_or_else(|| panic!("{file} has no column {column}"));
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            (cells[0].to_string(), cells[at].to_string())
        })
        .unzip()
}

/// Sweeps `template` over the given `rows` of `grid` as the figure
/// binaries do (points are solved independently, so a sub-grid yields
/// the full sweep's values) and checks those cells of `file`'s
/// `column`, and of its `rho` column, against them.
fn assert_cells_reproduce(
    file: &str,
    column: &str,
    template: ClusterModel,
    grid: Vec<f64>,
    rows: &[usize],
    metric: fn(&ClusterSolution) -> f64,
) {
    let (rho, want) = committed(file, column);
    assert_eq!(want.len(), grid.len(), "{file}: row count");
    let points: Vec<f64> = rows.iter().map(|&i| grid[i]).collect();
    let got = Scenario::new(template, Axis::Rho(points.clone()))
        .compile()
        .run_map(metric)
        .expect_values("stable for rho < 1");
    for ((&i, x), y) in rows.iter().zip(&points).zip(&got) {
        assert_eq!(format!("{x:.10e}"), rho[i], "{file} row {i}: rho");
        assert_eq!(
            format!("{y:.10e}"),
            want[i],
            "{file} {column} at rho = {}",
            rho[i]
        );
    }
}

/// The Figure 1–4 utilization grid.
fn fig1_grid() -> Vec<f64> {
    SweepPlan::grid(0.02, 0.98, 48)
        .refine_near(&base_thresholds())
        .into_values()
}

#[test]
fn fig1_t10_normalized_mean_cells_reproduce() {
    assert_cells_reproduce(
        "fig1_normalized_mean_vs_rho.csv",
        "T10",
        tpt_cluster(10, 0.5),
        fig1_grid(),
        // ρ = 0.197 (next to ρ₂), 0.28, 0.614 (next to ρ₁).
        &[9, 17, 36],
        ClusterSolution::normalized_mean_queue_length,
    );
}

#[test]
fn fig3_t9_tail_probability_cells_reproduce() {
    assert_cells_reproduce(
        "fig3_tail_probability_vs_rho.csv",
        "T9",
        tpt_cluster(9, 0.5),
        fig1_grid(),
        // ρ = 0.1 (Pr ≈ 1e-173), 0.44, 0.9.
        &[4, 25, 52],
        |sol| sol.at_least_probability(500),
    );
}

#[test]
fn fig6_hyp2_tail_probability_cells_reproduce() {
    let template = hyp2_cluster(5, params::DELTA, 10, 0.5);
    let grid = SweepPlan::grid(0.02, 0.98, 64)
        .refine_near(&utilization_thresholds(&template))
        .into_values();
    let rows: Vec<usize> = (0..grid.len()).step_by(2).collect();
    assert_cells_reproduce(
        "fig6_tail_probability_n5.csv",
        "hyp2",
        template,
        grid,
        &rows,
        |sol| sol.at_least_probability(500),
    );
}
