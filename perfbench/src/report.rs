//! Metrics, percentile placement and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Tracer, OP_SPAN};
use crate::workload::Label;

/// Ops on each side of a rank that must share its cost class.
pub const NEIGHBOURS: usize = 2;
/// Ops beyond the tail rank.
pub const TAIL_BEYOND: usize = 10;
/// Largest accepted ratio between the costs of the configurations of the
/// class that holds the median or the tail.
pub const CONFIG_RATIO: f64 = 1.2;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Where one rank (the median or the tail) falls.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Latency at the rank, in seconds.
    pub s: f64,
    /// Relative cost spread of the ops ranked [`NEIGHBOURS`] around it.
    pub spread: f64,
    /// Their cost classes, cheapest first.
    pub classes: Vec<&'static str>,
    /// Median latency in seconds of each configuration of the rank's
    /// own class.
    pub configs: BTreeMap<String, f64>,
}

impl Rank {
    /// False when the rank sits on a class edge: the ops [`NEIGHBOURS`]
    /// ranks below and above it are of different cost classes, so the
    /// rank straddles the step between two. A single noisy op of another
    /// class inside the window is no edge.
    fn inside_class(&self) -> bool {
        self.classes.first() == self.classes.last()
    }

    /// Largest over smallest cost of the class's configurations.
    pub fn config_ratio(&self) -> f64 {
        let (lo, hi) = self
            .configs
            .values()
            .fold((f64::INFINITY, 0.0f64), |(a, b), &m| (a.min(m), b.max(m)));
        hi / lo
    }

    fn render(&self) -> String {
        let configs: Vec<String> = self
            .configs
            .iter()
            .map(|(c, t)| format!("{c} {:.3}", t * 1e3))
            .collect();
        format!(
            "{:.3} ms, spread {:.1}% over {:?}; configurations within x{:.3} [{}] ms",
            self.s * 1e3,
            self.spread * 100.0,
            self.classes,
            self.config_ratio(),
            configs.join(", "),
        )
    }
}

/// Where the median and the tail fall in a run's sorted op latencies.
#[derive(Debug, Clone)]
pub struct Placement {
    pub ops: usize,
    /// Percentile of the tail: the highest with [`TAIL_BEYOND`] ops
    /// beyond it.
    pub tail_pct: f64,
    pub median: Rank,
    pub tail: Rank,
}

impl Placement {
    /// True unless the median or the tail sits on a class edge.
    pub fn inside_classes(&self) -> bool {
        self.median.inside_class() && self.tail.inside_class()
    }

    /// True when the configurations of the classes that hold the median
    /// and the tail cost the same within [`CONFIG_RATIO`], so neither
    /// rank sits on a step between configurations inside its class.
    pub fn configs_even(&self) -> bool {
        self.median.config_ratio() <= CONFIG_RATIO && self.tail.config_ratio() <= CONFIG_RATIO
    }

    pub fn render(&self) -> String {
        format!(
            "placement ops={}\n  p50: {}\n  tail p{:.2}: {}\n  {}\n",
            self.ops,
            self.median.render(),
            self.tail_pct,
            self.tail.render(),
            match (self.inside_classes(), self.configs_even()) {
                (true, true) => "inside classes, configurations even",
                (false, _) => "ON A CLASS EDGE",
                (true, false) => "CONFIGURATIONS OF A CLASS APART",
            },
        )
    }
}

/// Median latency of each configuration of `class`.
fn config_costs(latencies: &[(f64, &Label)], class: &str) -> BTreeMap<String, f64> {
    let mut costs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (t, op) in latencies.iter().filter(|(_, op)| op.class == class) {
        costs.entry(op.config.clone()).or_default().push(*t);
    }
    costs.into_iter().map(|(c, ts)| (c, median(&ts))).collect()
}

/// Nearest-rank median and tail of `(latency, op)` pairs, one per op of
/// the pass.
pub fn placement(latencies: &[(f64, &Label)]) -> Placement {
    let mut v = latencies.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = v.len();
    let rank = |i: usize| {
        let lo = i.saturating_sub(NEIGHBOURS);
        let hi = (i + NEIGHBOURS).min(n - 1);
        Rank {
            s: v[i].0,
            spread: (v[hi].0 - v[lo].0) / v[i].0,
            classes: v[lo..=hi].iter().map(|x| x.1.class).collect(),
            configs: config_costs(latencies, v[i].1.class),
        }
    };
    Placement {
        ops: n,
        tail_pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        median: rank((n - 1) / 2),
        tail: rank(n.saturating_sub(TAIL_BEYOND + 1)),
    }
}

/// Per-class op count, latency range and summed latency, cheapest class
/// first, under the heading `title`.
pub fn class_table(title: &str, latencies: &[(f64, &Label)]) -> String {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(t, op) in latencies {
        by.entry(op.class).or_default().push(t * 1e3);
    }
    let mut rows: Vec<(&str, Vec<f64>)> = by.into_iter().collect();
    rows.sort_by(|a, b| median(&a.1).total_cmp(&median(&b.1)));
    let mut out = format!(
        "{title}\nclass                      ops   median_ms      min_ms      max_ms       sum_s\n"
    );
    for (c, ts) in rows {
        let min = ts.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ts.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "{c:<24} {:>5} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            ts.len(),
            median(&ts),
            min,
            max,
            ts.iter().sum::<f64>() * 1e-3,
        );
    }
    out
}

/// Span layers reported as `<name>_ms` (median self time per op, over the
/// ops that make the call) and `<name>_share` (share of traced op time).
const LAYERS: [&str; 13] = [
    "core.model",
    "markov.modulator",
    "qbd.assemble",
    "qbd.drift",
    "qbd.g",
    "qbd.r",
    "qbd.boundary",
    "qbd.supervisor",
    "qbd.metrics",
    "store.open",
    "core.sweep",
    "sim.build",
    "sim.run",
];

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.model_ms", "ms"),
    ("core.model_share", "ratio"),
    ("markov.modulator_ms", "ms"),
    ("markov.modulator_share", "ratio"),
    ("qbd.assemble_ms", "ms"),
    ("qbd.assemble_share", "ratio"),
    ("qbd.drift_ms", "ms"),
    ("qbd.drift_share", "ratio"),
    ("qbd.g_ms", "ms"),
    ("qbd.g_share", "ratio"),
    ("qbd.g_iters", "count"),
    ("qbd.g_ms_per_iter", "ms"),
    ("qbd.r_ms", "ms"),
    ("qbd.r_share", "ratio"),
    ("qbd.boundary_ms", "ms"),
    ("qbd.boundary_share", "ratio"),
    ("qbd.supervisor_ms", "ms"),
    ("qbd.supervisor_share", "ratio"),
    ("qbd.supervisor.iters", "count"),
    ("qbd.supervisor.stages", "count"),
    ("qbd.supervisor.hardened", "count"),
    ("qbd.supervisor.relaxed", "count"),
    ("qbd.metrics_ms", "ms"),
    ("qbd.metrics_share", "ratio"),
    ("store.open_ms", "ms"),
    ("store.open_share", "ratio"),
    ("store.bytes", "B"),
    ("store.write_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.sweep_share", "ratio"),
    ("core.sweep.store_hits", "count"),
    ("core.sweep.cache_hits", "count"),
    ("sim.build_ms", "ms"),
    ("sim.build_share", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.run_share", "ratio"),
    ("sim.tasks_per_s", "1/s"),
    ("bench.check_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.probe_ms", "ms"),
];

pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    if let Some(m) = metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
    }
}

/// Per-layer metrics of a traced run. `traced_s` holds the traced ops'
/// times and `busy_s` the untraced ops' total.
pub fn per_layer(tracer: &Tracer, traced_s: &[f64], busy_s: f64) -> Vec<Metric> {
    let mut m: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(n, u)| Metric::new(n, 0.0, u))
        .collect();
    let ops = tracer.ops();
    // Per op: self seconds by layer. The boundary solve is
    // `solve_from_g` minus its own R, timed apart.
    let selfs: Vec<BTreeMap<&str, f64>> = ops
        .iter()
        .map(|a| {
            let mut s: BTreeMap<&str, f64> = a
                .spans
                .iter()
                .map(|(k, v)| (k.as_str(), v.self_s))
                .collect();
            if let Some(whole) = s.remove("qbd.solve_from_g") {
                let r = s.get("qbd.r").copied().unwrap_or(0.0);
                s.insert("qbd.boundary", (whole - r).max(0.0));
            }
            s
        })
        .collect();
    let total: f64 = ops.iter().map(|a| a.root_total()).sum();
    for layer in LAYERS {
        let per_op: Vec<f64> = selfs.iter().filter_map(|s| s.get(layer).copied()).collect();
        if per_op.is_empty() {
            continue;
        }
        let ms = median(&per_op) * 1e3;
        let share = per_op.iter().sum::<f64>() / total;
        for (suffix, v) in [("_ms", ms), ("_share", share)] {
            if let Some(name) = PER_LAYER
                .iter()
                .find(|(n, _)| *n == format!("{layer}{suffix}"))
            {
                set(&mut m, name.0, v);
            }
        }
    }
    let count = |name: &str| -> Vec<f64> {
        ops.iter()
            .filter_map(|a| a.counters.get(name).copied())
            .collect()
    };
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let iters = count("qbd.g_iters");
    if !iters.is_empty() {
        set(&mut m, "qbd.g_iters", median(&iters));
        let per_iter: Vec<f64> = selfs
            .iter()
            .zip(&ops)
            .filter_map(|(s, a)| Some(s.get("qbd.g")? * 1e3 / a.counters.get("qbd.g_iters")?))
            .collect();
        set(&mut m, "qbd.g_ms_per_iter", median(&per_iter));
    }
    set(
        &mut m,
        "qbd.supervisor.iters",
        mean(&count("qbd.supervisor.iters")),
    );
    set(
        &mut m,
        "qbd.supervisor.stages",
        mean(&count("qbd.supervisor.stages")),
    );
    let sum = |xs: Vec<f64>| xs.iter().sum::<f64>();
    set(
        &mut m,
        "qbd.supervisor.hardened",
        sum(count("qbd.supervisor.hardened")),
    );
    set(
        &mut m,
        "qbd.supervisor.relaxed",
        sum(count("qbd.supervisor.relaxed")),
    );
    set(&mut m, "store.bytes", median(&count("store.bytes")));
    set(
        &mut m,
        "core.sweep.store_hits",
        median(&count("core.sweep.store_hits")),
    );
    set(
        &mut m,
        "core.sweep.cache_hits",
        median(&count("core.sweep.cache_hits")),
    );
    let rates: Vec<f64> = selfs
        .iter()
        .zip(&ops)
        .filter_map(|(s, a)| Some(a.counters.get("sim.tasks")? / s.get("sim.run")?))
        .collect();
    set(&mut m, "sim.tasks_per_s", median(&rates));
    let root_self: f64 = selfs.iter().filter_map(|s| s.get(OP_SPAN)).sum();
    set(&mut m, "trace.coverage", 1.0 - root_self / total);
    let traced: f64 = traced_s.iter().sum();
    if busy_s > 0.0 {
        set(&mut m, "trace.overhead", traced / busy_s);
    }
    m
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
