//! Aggregated metric state: counters, gauges, histograms and span
//! timings, plus the rendered `--profile` summary table.
//!
//! The registry is the *pull* side of the metrics story: sinks receive
//! every individual update as a [`crate::Record::Metric`], while the
//! registry folds the same updates into cheap aggregates that can be
//! snapshotted after a run ([`crate::metrics_snapshot`]) and rendered as
//! a human-readable table ([`Snapshot::profile_table`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Number of log₂ buckets in a [`HistogramStats`] (covering `2⁻⁴⁸ ..
/// 2⁴⁸`, i.e. roughly `3.6e-15 .. 2.8e14`).
pub const BUCKETS: usize = 96;
/// Exponent offset of bucket 0 (`2^-OFFSET` is the smallest resolved
/// magnitude).
pub const BUCKET_OFFSET: i32 = 48;

/// Index of the log₂ bucket that `v` falls into. Non-finite and
/// non-positive samples land in bucket 0.
pub fn bucket_index(v: f64) -> usize {
    if !(v.is_finite() && v > 0.0) {
        return 0;
    }
    let idx = v.log2().floor() as i32 + BUCKET_OFFSET;
    idx.clamp(0, BUCKETS as i32 - 1) as usize
}

/// Streaming summary of a histogram metric: moments, extrema and a
/// log₂-bucketed sketch good enough for order-of-magnitude quantiles.
#[derive(Debug, Clone)]
pub struct HistogramStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    buckets: Vec<u64>,
}

impl Default for HistogramStats {
    fn default() -> Self {
        HistogramStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistogramStats {
    /// Folds one sample into the summary.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Merges another summary into this one. Bucket counts add
    /// exactly, so merging is associative and commutative — shard
    /// histograms fold into the same sketch as a single-stream run.
    pub fn merge(&mut self, other: &HistogramStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The raw log₂ bucket counts (length [`BUCKETS`]; bucket `i` covers
    /// `[2^(i−48), 2^(i−47))`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Mean of the recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Approximate `q`-quantile from the log₂ sketch: the geometric
    /// midpoint of the bucket containing the `q`-th sample, clamped to
    /// the observed `[min, max]`. Accurate to about a factor of `√2`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                let lo = 2f64.powi(i as i32 - BUCKET_OFFSET);
                let mid = lo * std::f64::consts::SQRT_2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Aggregated wall-clock timings of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTiming {
    /// Completed spans of this name.
    pub count: u64,
    /// Total seconds across all of them.
    pub total_s: f64,
    /// Longest single span in seconds.
    pub max_s: f64,
}

impl SpanTiming {
    /// Mean seconds per span (`NaN` when empty).
    pub fn mean_s(&self) -> f64 {
        self.total_s / self.count as f64
    }
}

#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramStats>,
    spans: BTreeMap<&'static str, SpanTiming>,
}

pub(crate) static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
    spans: BTreeMap::new(),
});

impl Registry {
    pub(crate) fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub(crate) fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    pub(crate) fn histogram_record(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().record(v);
    }

    pub(crate) fn span_timing(&mut self, name: &'static str, elapsed_s: f64) {
        let t = self.spans.entry(name).or_default();
        t.count += 1;
        t.total_s += elapsed_s;
        t.max_s = t.max_s.max(elapsed_s);
    }

    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.spans.clear();
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            spans: self.spans.clone(),
        }
    }
}

/// A point-in-time copy of the aggregated metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<&'static str, HistogramStats>,
    /// Span timing aggregates by name.
    pub spans: BTreeMap<&'static str, SpanTiming>,
}

fn fmt_seconds(s: f64) -> String {
    if !s.is_finite() {
        format!("{s}")
    } else if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

impl Snapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the aligned timing/metrics summary printed by
    /// `performa ... --profile`.
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "── profile ─────────────────────────────────────────────");
        if self.is_empty() {
            let _ = writeln!(out, "(no metrics recorded)");
            return out;
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>12}",
                "span", "count", "total", "mean", "max"
            );
            for (name, t) in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>12} {:>12} {:>12}",
                    name,
                    t.count,
                    fmt_seconds(t.total_s),
                    fmt_seconds(t.mean_s()),
                    fmt_seconds(t.max_s)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<28} {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{:<28} {:>12}", name, v);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<28} {:>12}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{:<28} {:>12.4e}", name, v);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>11} {:>11} {:>11} {:>11}",
                "histogram", "count", "mean", "p50", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e}",
                    name,
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_moments_and_quantiles() {
        let mut h = HistogramStats::default();
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.count, 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1000.0);
        // Log-bucketed: order-of-magnitude accuracy is all we ask.
        let p50 = h.quantile(0.5);
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(1.0) <= 1000.0);
        assert!(h.quantile(0.0) >= 1.0);
    }

    #[test]
    fn histogram_handles_nonpositive_and_empty() {
        let mut h = HistogramStats::default();
        assert!(h.quantile(0.5).is_nan());
        h.record(0.0);
        h.record(-3.0);
        assert_eq!(h.count, 2);
        assert_eq!(h.min, -3.0);
    }

    #[test]
    fn profile_table_renders_all_sections() {
        let mut r = Registry::default();
        r.counter_add("sim.events", 10);
        r.counter_add("sim.events", 5);
        r.gauge_set("qbd.residual", 1e-11);
        r.histogram_record("linalg.lu.condition", 42.0);
        r.span_timing("core.solve", 0.25);
        let snap = r.snapshot();
        assert_eq!(snap.counters["sim.events"], 15);
        let table = snap.profile_table();
        assert!(table.contains("sim.events"));
        assert!(table.contains("15"));
        assert!(table.contains("qbd.residual"));
        assert!(table.contains("core.solve"));
        assert!(table.contains("250.000ms"));
        assert!(!snap.is_empty());
        r.clear();
        assert!(r.snapshot().is_empty());
        assert!(r.snapshot().profile_table().contains("no metrics"));
    }
}
