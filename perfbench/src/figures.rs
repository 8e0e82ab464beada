//! `figure_resume`: durable-store replay of the paper's figure curves.
//!
//! Set-up is the write path: the Fig. 1/3/4/6 curves and one N=5, T=4
//! curve run through the sweep engine into a fresh store (solve, encode,
//! CRC, batched fsync). Each op is the read path: reopen the store (frame
//! scan, CRC, index rebuild) and replay every curve through
//! `SweepPlan::run_map`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use performa_core::blowup::utilization_thresholds;
use performa_core::{
    store_key, Axis, ClusterModel, ClusterSolution, Scenario, StoreHandle, SweepOptions, SweepPlan,
    SweepStats,
};
use performa_experiments::{base_thresholds, hyp2_cluster, params, tpt_cluster, tpt_cluster_with};

use crate::env::Clock;
use crate::trace::Tracer;
use crate::workload::{Label, Outputs, Workload};

#[derive(Debug, Clone, Copy)]
enum Metric {
    NormalizedMean,
    AtLeast500,
    Mean,
}

impl Metric {
    fn read(self, sol: &ClusterSolution) -> f64 {
        match self {
            Metric::NormalizedMean => sol.normalized_mean_queue_length(),
            Metric::AtLeast500 => sol.at_least_probability(500),
            Metric::Mean => sol.mean_queue_length(),
        }
    }
}

/// One curve: a model swept over ρ, projected through one metric, and
/// the committed CSV column it must reproduce (if any).
struct Curve {
    template: ClusterModel,
    grid: Vec<f64>,
    metric: Metric,
    csv: Option<(&'static str, &'static str)>,
}

fn curves() -> Vec<Curve> {
    let grid = SweepPlan::grid(0.02, 0.98, 48)
        .refine_near(&base_thresholds())
        .into_values();
    let mut out = Vec::new();
    let mut add = |template, grid: &Vec<f64>, metric, csv| {
        out.push(Curve {
            template,
            grid: grid.clone(),
            metric,
            csv,
        });
    };
    const FIG1: &str = "fig1_normalized_mean_vs_rho.csv";
    const FIG3: &str = "fig3_tail_probability_vs_rho.csv";
    const FIG4: &str = "fig4_hyp2_normalized_mean_vs_rho.csv";
    const FIG6: &str = "fig6_tail_probability_n5.csv";
    for (t, col) in [(1, "T1"), (5, "T5"), (9, "T9"), (10, "T10")] {
        add(
            tpt_cluster(t, 0.5),
            &grid,
            Metric::NormalizedMean,
            Some((FIG1, col)),
        );
    }
    for (t, col) in [(1, "T1"), (5, "T5"), (9, "T9"), (10, "T10")] {
        add(
            tpt_cluster(t, 0.5),
            &grid,
            Metric::AtLeast500,
            Some((FIG3, col)),
        );
    }
    add(
        tpt_cluster(1, 0.5),
        &grid,
        Metric::NormalizedMean,
        Some((FIG4, "T1")),
    );
    for (t, col) in [(5, "T5"), (9, "T9"), (10, "T10")] {
        add(
            hyp2_cluster(params::N, params::DELTA, t, 0.5),
            &grid,
            Metric::NormalizedMean,
            Some((FIG4, col)),
        );
    }
    add(
        tpt_cluster(10, 0.5),
        &grid,
        Metric::NormalizedMean,
        Some((FIG4, "tpt_T10_reference")),
    );
    let fig6 = hyp2_cluster(5, params::DELTA, 10, 0.5);
    let grid6 = SweepPlan::grid(0.02, 0.98, 64)
        .refine_near(&utilization_thresholds(&fig6))
        .into_values();
    add(fig6, &grid6, Metric::AtLeast500, Some((FIG6, "hyp2")));
    add(
        tpt_cluster_with(5, params::DELTA, 1, 0.5),
        &grid6,
        Metric::AtLeast500,
        Some((FIG6, "exponential")),
    );
    // Records of m = 126 carry real bytes into the store.
    let grid_n5 = SweepPlan::grid(0.05, 0.95, 36).into_values();
    add(
        tpt_cluster_with(5, params::DELTA, 4, 0.5),
        &grid_n5,
        Metric::Mean,
        None,
    );
    out
}

/// Runs every curve through the sweep engine and returns the values in
/// curve order, with the sweep statistics summed over curves.
fn sweep_all(
    curves: &[Curve],
    store: Option<&StoreHandle>,
) -> Result<(Vec<f64>, SweepStats), String> {
    let mut values = Vec::new();
    let mut total = SweepStats::default();
    for c in curves {
        let mut opts = SweepOptions::default();
        if let Some(s) = store {
            opts = opts.with_store(s.clone());
        }
        let result = Scenario::new(c.template.clone(), Axis::Rho(c.grid.clone()))
            .compile()
            .with_options(opts)
            .run_map(|sol| c.metric.read(sol));
        let s = result.stats();
        total.points += s.points;
        total.solved += s.solved;
        total.failed += s.failed;
        total.cache_hits += s.cache_hits;
        total.store_hits += s.store_hits;
        total.store_appends += s.store_appends;
        for p in result.into_points() {
            values.push(p.outcome.map_err(|e| format!("x={}: {e}", p.x))?);
        }
    }
    Ok((values, total))
}

/// Reads one column of a committed `results/*.csv` as its text cells.
fn csv_column(file: &str, column: &str) -> Result<Vec<String>, String> {
    let path = Path::new("results").join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("{file}: empty"))?;
    let idx = header
        .split(',')
        .position(|h| h == column)
        .ok_or_else(|| format!("{file}: no column {column}"))?;
    lines
        .map(|l| {
            l.split(',')
                .nth(idx)
                .map(str::to_string)
                .ok_or_else(|| format!("{file}: short row"))
        })
        .collect()
}

/// The first cell where the curves' values differ from the committed
/// figure CSVs, printed as `{:.10e}`, or `None` when they all agree.
fn csv_mismatch(curves: &[Curve], values: &[f64]) -> Result<Option<String>, String> {
    let mut at = 0;
    for c in curves {
        let got = &values[at..at + c.grid.len()];
        at += c.grid.len();
        let Some((file, column)) = c.csv else {
            continue;
        };
        let cells = csv_column(file, column)?;
        if cells.len() != got.len() {
            return Ok(Some(format!(
                "{file}:{column}: {} rows, sweep has {}",
                cells.len(),
                got.len()
            )));
        }
        for (i, (v, cell)) in got.iter().zip(&cells).enumerate() {
            if format!("{v:.10e}") != *cell {
                return Ok(Some(format!(
                    "{file}:{column} row {i}: {v:.10e} != committed {cell}"
                )));
            }
        }
    }
    Ok(None)
}

/// A replay: the values read back and the sweep statistics.
pub struct Replay {
    out: Outputs,
    stats: SweepStats,
}

pub struct FigureResume {
    curves: Vec<Curve>,
    work: PathBuf,
    store: PathBuf,
    /// Values the set-up sweep computed, in curve order.
    expected: Vec<f64>,
    /// Where the set-up values first differ from the committed CSVs.
    csv_mismatch: Option<String>,
    /// Seconds of each set-up sweep into the store.
    write_sweeps: Vec<f64>,
    setups: usize,
}

impl FigureResume {
    pub fn new(work: PathBuf) -> Self {
        FigureResume {
            curves: curves(),
            store: work.join("none"),
            work,
            expected: Vec::new(),
            csv_mismatch: None,
            write_sweeps: Vec::new(),
            setups: 0,
        }
    }
}

impl Drop for FigureResume {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.work.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Workload for FigureResume {
    type Done = Replay;

    /// The replay runs on the sweep's worker pool and the write path
    /// waits on fsync: both are costs only the wall clock sees.
    const CLOCK: Clock = Clock::Wall;

    /// Every op is the same replay; its fastest run would stand for all.
    const FASTEST_PER_CONFIG: bool = false;

    fn pass(&self) -> Vec<Label> {
        let replay = Label {
            class: "replay",
            config: "all curves".into(),
        };
        vec![replay; 60]
    }

    fn nominal_pass_s(&self) -> f64 {
        6.0
    }

    fn setup(&mut self) -> Result<(), String> {
        // A fresh store per set-up; the ops replay the last one.
        let _ = std::fs::remove_dir_all(&self.work);
        std::fs::create_dir_all(&self.work).map_err(|e| format!("{}: {e}", self.work.display()))?;
        self.setups += 1;
        self.store = self.work.join(format!("figures-{}.store", self.setups));
        let started = Self::CLOCK.now();
        let (handle, _) = StoreHandle::open(&self.store).map_err(|e| e.to_string())?;
        let (values, _) = sweep_all(&self.curves, Some(&handle))?;
        handle.flush().map_err(|e| e.to_string())?;
        drop(handle);
        self.write_sweeps.push(Self::CLOCK.now() - started);
        self.csv_mismatch = csv_mismatch(&self.curves, &values)?;
        self.expected = values;
        Ok(())
    }

    fn run(&self, _op: usize, _seed: u64) -> Result<Replay, String> {
        let (handle, _) = StoreHandle::open(&self.store).map_err(|e| e.to_string())?;
        let (values, stats) = sweep_all(&self.curves, Some(&handle))?;
        Ok(Replay {
            out: Outputs {
                values,
                degraded: false,
            },
            stats,
        })
    }

    fn run_traced(&self, _op: usize, _seed: u64, t: &mut Tracer) -> Result<Replay, String> {
        let (handle, _) = t
            .span("store.open", || StoreHandle::open(&self.store))
            .map_err(|e| e.to_string())?;
        let (values, stats) = t.span("core.sweep", || sweep_all(&self.curves, Some(&handle)))?;
        Ok(Replay {
            out: Outputs {
                values,
                degraded: false,
            },
            stats,
        })
    }

    fn count(&self, _op: usize, done: &Replay, t: &mut Tracer) {
        let bytes = std::fs::metadata(&self.store).map_or(f64::NAN, |m| m.len() as f64);
        t.count("store.bytes", bytes);
        t.count("core.sweep.store_hits", done.stats.store_hits as f64);
        t.count("core.sweep.cache_hits", done.stats.cache_hits as f64);
    }

    fn outputs(&self, done: &Replay) -> Outputs {
        done.out.clone()
    }

    fn check(&self, _op: usize, done: &Replay) -> Result<f64, String> {
        let s = &done.stats;
        if s.store_hits != s.points as u64 || s.solved != s.points || s.store_appends != 0 {
            return Err(format!(
                "replay solved or appended: {} store hits, {} appends of {} points",
                s.store_hits, s.store_appends, s.points
            ));
        }
        if let Some(mismatch) = &self.csv_mismatch {
            return Err(format!(
                "set-up values differ from the committed figures: {mismatch}"
            ));
        }
        let same = done.out.values.len() == self.expected.len()
            && done
                .out
                .values
                .iter()
                .zip(&self.expected)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err("replayed values differ from the set-up sweep".into());
        }
        Ok(0.0)
    }

    fn traced_setup(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        // With the store, curves that revisit solved points (Fig. 3 and
        // two Fig. 4 curves) replay them; without it they would solve
        // again. The store-less sweep therefore runs each solved curve
        // once, so the difference is the write path.
        let mut seen = Vec::new();
        let solved: Vec<Curve> = self
            .curves
            .iter()
            .filter(|c| {
                let key = (store_key(&c.template, c.grid[0]), c.grid.len());
                let fresh = !seen.contains(&key);
                seen.push(key);
                fresh
            })
            .map(|c| Curve {
                template: c.template.clone(),
                grid: c.grid.clone(),
                ..*c
            })
            .collect();
        let started = Self::CLOCK.now();
        sweep_all(&solved, None)?;
        let bare = Self::CLOCK.now() - started;
        let mut writes = self.write_sweeps.clone();
        writes.sort_by(f64::total_cmp);
        let with_store = writes[writes.len() / 2];
        Ok(BTreeMap::from([(
            "store.write_ms",
            (with_store - bare) * 1e3,
        )]))
    }
}
