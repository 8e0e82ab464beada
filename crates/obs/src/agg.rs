//! Trace aggregation: folds an NDJSON trace stream (or the records of a
//! [`crate::MemorySink`]) into an [`Aggregate`] — a span-tree wall-clock
//! attribution model, mergeable log-bucketed histograms, counter totals,
//! gauge envelopes, event counts and extracted flight-recorder dumps.
//!
//! This is the consumption side of the observability story: the solver
//! emits raw records, the aggregator turns them into answers ("where did
//! the time go", "how many iterations did each stage run", "what did the
//! last K residuals look like before the watchdog fired"). The CLI's
//! `performa obs report` and `performa obs diff` verbs are thin renderers
//! over this module.
//!
//! **Attribution model.** Spans aggregate by *name path*: every
//! `qbd.attempt` under a `qbd.solve` under a `sweep.point` folds into the
//! same tree node, accumulating `count`, `total_s` (wall-clock inside the
//! span) and `self_s` (wall-clock not covered by any direct child span).
//! By construction `total = self + Σ child totals` at every node, so the
//! root row of the rendered tree accounts for all traced time.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::metrics::HistogramStats;
use crate::ndjson::{parse_json, Json};
use crate::record::{MetricKind, Record};
use crate::value::Value;

/// One aggregated node of the span tree (all spans sharing a name path).
#[derive(Debug, Clone, Default)]
pub struct SpanNode {
    /// Completed spans at this path.
    pub count: u64,
    /// Total wall-clock seconds across them.
    pub total_s: f64,
    /// Seconds not attributed to any direct child span.
    pub self_s: f64,
    /// Longest single span in seconds.
    pub max_s: f64,
    /// Child nodes keyed by span name.
    pub children: BTreeMap<String, SpanNode>,
}

/// Flat per-name span totals (summed over every position in the tree).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Completed spans of this name.
    pub count: u64,
    /// Total seconds.
    pub total_s: f64,
    /// Self seconds (time not covered by child spans).
    pub self_s: f64,
}

/// Envelope of a gauge over the trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeStat {
    /// Number of updates seen.
    pub count: u64,
    /// Final value.
    pub last: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// One remembered iteration from a flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightIter {
    /// Stage key (`"logred"`, `"neuts"`, `"functional"`).
    pub stage: String,
    /// Iteration index within the stage.
    pub iteration: u64,
    /// Convergence metric at that iteration.
    pub residual: f64,
}

/// An extracted `qbd.flight` forensic dump.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Trace timestamp of the dump.
    pub t: f64,
    /// What fired the dump (`watchdog`, `stage_failed`, `hardened`).
    pub trigger: String,
    /// Strategy of the recording attempt.
    pub strategy: String,
    /// Whether the attempt ran hardened.
    pub hardened: bool,
    /// The remembered iterations, oldest first.
    pub iters: Vec<FlightIter>,
}

struct OpenSpan {
    name: String,
    parent: Option<u64>,
    child_s: f64,
}

/// The folded view of one trace stream.
#[derive(Default)]
pub struct Aggregate {
    /// Root span nodes keyed by name.
    pub tree: BTreeMap<String, SpanNode>,
    /// Flat per-name span totals.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals (sums of the emitted deltas).
    pub counters: BTreeMap<String, f64>,
    /// Gauge envelopes.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histogram sketches (mergeable log₂ buckets).
    pub histograms: BTreeMap<String, HistogramStats>,
    /// Event counts by name.
    pub events: BTreeMap<String, u64>,
    /// Extracted flight-recorder dumps, in trace order.
    pub flights: Vec<FlightDump>,
    /// Earliest record timestamp.
    pub first_t: f64,
    /// Latest record timestamp.
    pub last_t: f64,
    /// Records seen in total.
    pub records: u64,
    /// Span closes with no matching open (usually dropped records).
    pub unmatched_closes: u64,
    /// Spans still open at [`Aggregate::finish`].
    pub unclosed_spans: u64,
    open: HashMap<u64, OpenSpan>,
    saw_t: bool,
}

impl std::fmt::Debug for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aggregate")
            .field("records", &self.records)
            .field("spans", &self.spans.len())
            .field("counters", &self.counters.len())
            .field("flights", &self.flights.len())
            .finish_non_exhaustive()
    }
}

impl Aggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Aggregate::default()
    }

    /// Folds an entire NDJSON file. Blank lines are skipped; the first
    /// malformed line aborts with `(line_number, message)` (1-based).
    pub fn from_file(path: &Path) -> std::io::Result<Result<Aggregate, (usize, String)>> {
        let content = std::fs::read_to_string(path)?;
        Ok(Aggregate::from_ndjson_str(&content))
    }

    /// Folds NDJSON content from memory; see [`Aggregate::from_file`].
    pub fn from_ndjson_str(content: &str) -> Result<Aggregate, (usize, String)> {
        let mut agg = Aggregate::new();
        for (i, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            agg.add_line(line).map_err(|e| (i + 1, e))?;
        }
        agg.finish();
        Ok(agg)
    }

    /// Folds the records of an in-memory sink.
    pub fn from_records(records: &[Record]) -> Aggregate {
        let mut agg = Aggregate::new();
        for r in records {
            agg.add_record(r);
        }
        agg.finish();
        agg
    }

    /// Folds one NDJSON line (schema v1).
    pub fn add_line(&mut self, line: &str) -> Result<(), String> {
        let doc = parse_json(line)?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind`")?
            .to_string();
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing `name`")?
            .to_string();
        let t = doc
            .get("t")
            .and_then(Json::as_num)
            .ok_or("missing numeric `t`")?;
        match kind.as_str() {
            "span_open" => {
                let id = doc
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or("span_open without numeric `id`")? as u64;
                let parent = doc.get("parent").and_then(Json::as_num).map(|p| p as u64);
                self.open_span(id, parent, name, t);
            }
            "span_close" => {
                let id = doc
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or("span_close without numeric `id`")? as u64;
                let elapsed = doc
                    .get("elapsed")
                    .and_then(Json::as_num)
                    .ok_or("span_close without numeric `elapsed`")?;
                self.close_span(id, t, elapsed);
            }
            "event" => {
                let fields = doc.get("fields").cloned().unwrap_or(Json::Null);
                self.add_event(&name, t, &fields);
            }
            "metric" => {
                let metric = doc
                    .get("metric")
                    .and_then(Json::as_str)
                    .ok_or("metric record without `metric` kind")?
                    .to_string();
                // `null` encodes a non-finite value; fold it as NaN so
                // gauge envelopes still count the update.
                let value = doc.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
                let kind = match metric.as_str() {
                    "counter" => MetricKind::Counter,
                    "gauge" => MetricKind::Gauge,
                    "histogram" => MetricKind::Histogram,
                    other => return Err(format!("unknown metric kind `{other}`")),
                };
                self.add_metric(kind, &name, t, value);
            }
            other => return Err(format!("unknown record kind `{other}`")),
        }
        Ok(())
    }

    /// Folds one in-memory [`Record`].
    pub fn add_record(&mut self, record: &Record) {
        match record {
            Record::SpanOpen { id, parent, name, t, .. } => {
                self.open_span(*id, *parent, (*name).to_string(), *t);
            }
            Record::SpanClose { id, t, elapsed, .. } => {
                self.close_span(*id, *t, *elapsed);
            }
            Record::Event { name, t, fields, .. } => {
                let mut obj = BTreeMap::new();
                for (k, v) in fields {
                    let jv = match v {
                        Value::F64(x) => Json::Num(*x),
                        Value::U64(x) => Json::Num(*x as f64),
                        Value::I64(x) => Json::Num(*x as f64),
                        Value::Bool(b) => Json::Bool(*b),
                        Value::Str(s) => Json::Str(s.clone()),
                    };
                    obj.insert((*k).to_string(), jv);
                }
                self.add_event(name, *t, &Json::Obj(obj));
            }
            Record::Metric { kind, name, t, value } => {
                self.add_metric(*kind, name, *t, *value);
            }
        }
    }

    /// Resolves spans left open (end-of-stream truncation) into the
    /// `unclosed_spans` count. Idempotent.
    pub fn finish(&mut self) {
        self.unclosed_spans += self.open.len() as u64;
        self.open.clear();
    }

    fn touch(&mut self, t: f64) {
        if !self.saw_t {
            self.first_t = t;
            self.last_t = t;
            self.saw_t = true;
        } else {
            self.first_t = self.first_t.min(t);
            self.last_t = self.last_t.max(t);
        }
        self.records += 1;
    }

    fn open_span(&mut self, id: u64, parent: Option<u64>, name: String, t: f64) {
        self.touch(t);
        self.open.insert(
            id,
            OpenSpan {
                name,
                parent,
                child_s: 0.0,
            },
        );
    }

    fn close_span(&mut self, id: u64, t: f64, elapsed: f64) {
        self.touch(t);
        let Some(span) = self.open.remove(&id) else {
            self.unmatched_closes += 1;
            return;
        };
        let self_s = (elapsed - span.child_s).max(0.0);
        // Attribute this span's time to its parent (still open by RAII
        // nesting) and compute the name path root → here.
        let mut path = vec![span.name.clone()];
        let mut cursor = span.parent;
        while let Some(pid) = cursor {
            match self.open.get(&pid) {
                Some(p) => {
                    path.push(p.name.clone());
                    cursor = p.parent;
                }
                None => break, // parent lost (dropped record): root there
            }
        }
        path.reverse();
        if let Some(pid) = span.parent {
            if let Some(p) = self.open.get_mut(&pid) {
                p.child_s += elapsed;
            }
        }
        let mut node = self
            .tree
            .entry(path[0].clone())
            .or_default();
        for part in &path[1..] {
            node = node.children.entry(part.clone()).or_default();
        }
        node.count += 1;
        node.total_s += elapsed;
        node.self_s += self_s;
        node.max_s = node.max_s.max(elapsed);
        let flat = self.spans.entry(span.name).or_default();
        flat.count += 1;
        flat.total_s += elapsed;
        flat.self_s += self_s;
    }

    fn add_event(&mut self, name: &str, t: f64, fields: &Json) {
        self.touch(t);
        *self.events.entry(name.to_string()).or_insert(0) += 1;
        let fstr = |key: &str| {
            fields
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let fnum = |key: &str| fields.get(key).and_then(Json::as_num);
        match name {
            "qbd.flight" => {
                self.flights.push(FlightDump {
                    t,
                    trigger: fstr("trigger"),
                    strategy: fstr("strategy"),
                    hardened: matches!(fields.get("hardened"), Some(Json::Bool(true))),
                    iters: Vec::new(),
                });
            }
            "qbd.flight.iter" => {
                if let Some(dump) = self.flights.last_mut() {
                    dump.iters.push(FlightIter {
                        stage: fstr("stage"),
                        iteration: fnum("iteration").unwrap_or(0.0) as u64,
                        residual: fnum("residual").unwrap_or(f64::NAN),
                    });
                }
            }
            _ => {}
        }
    }

    fn add_metric(&mut self, kind: MetricKind, name: &str, t: f64, value: f64) {
        self.touch(t);
        match kind {
            MetricKind::Counter => {
                *self.counters.entry(name.to_string()).or_insert(0.0) += value;
            }
            MetricKind::Gauge => {
                let g = self.gauges.entry(name.to_string()).or_insert(GaugeStat {
                    count: 0,
                    last: value,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                });
                g.count += 1;
                g.last = value;
                g.min = g.min.min(value);
                g.max = g.max.max(value);
            }
            MetricKind::Histogram => {
                self.histograms
                    .entry(name.to_string())
                    .or_default()
                    .record(value);
            }
        }
    }

    /// Trace wall clock: latest minus earliest record timestamp.
    pub fn wall_clock(&self) -> f64 {
        if self.saw_t {
            self.last_t - self.first_t
        } else {
            0.0
        }
    }

    /// Summed `total_s` of the root span nodes — the traced time the
    /// attribution tree accounts for.
    pub fn root_total(&self) -> f64 {
        self.tree.values().map(|n| n.total_s).sum()
    }

    /// Total of the `obs.dropped_records` counter observed in the trace.
    pub fn dropped_records(&self) -> f64 {
        self.counters.get("obs.dropped_records").copied().unwrap_or(0.0)
    }

    /// The `n` hottest span names by self-time, descending.
    pub fn hot_spans(&self, n: usize) -> Vec<(&str, SpanStat)> {
        let mut rows: Vec<(&str, SpanStat)> = self
            .spans
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        rows.truncate(n);
        rows
    }

    /// Renders the attribution tree: one row per name path with count,
    /// total, self and share of the root total.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>12} {:>12} {:>6}",
            "span", "count", "total", "self", "%root"
        );
        let denom = self.root_total().max(f64::MIN_POSITIVE);
        fn walk(
            out: &mut String,
            nodes: &BTreeMap<String, SpanNode>,
            depth: usize,
            denom: f64,
        ) {
            for (name, node) in nodes {
                let label = format!("{}{}", "  ".repeat(depth), name);
                let _ = writeln!(
                    out,
                    "{:<44} {:>7} {:>12} {:>12} {:>5.1}%",
                    label,
                    node.count,
                    fmt_s(node.total_s),
                    fmt_s(node.self_s),
                    100.0 * node.total_s / denom
                );
                walk(out, &node.children, depth + 1, denom);
            }
        }
        walk(&mut out, &self.tree, 0, denom);
        out
    }
}

fn fmt_s(s: f64) -> String {
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

// ── Diff ────────────────────────────────────────────────────────────

/// One compared quantity in a [`DiffReport`].
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// What is compared (span name, counter name, gauge name).
    pub name: String,
    /// Value in the baseline trace.
    pub a: f64,
    /// Value in the candidate trace.
    pub b: f64,
    /// Flagged as a regression under the report's threshold.
    pub regressed: bool,
}

impl DeltaRow {
    /// Absolute delta `b − a`.
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }
}

/// Structured comparison of two traces (`a` = baseline, `b` = candidate).
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Per-span total-time rows.
    pub span_time: Vec<DeltaRow>,
    /// Counter rows (iteration counts, cache hits, …).
    pub counters: Vec<DeltaRow>,
    /// Gauge rows compared on their final value (residuals, rates).
    pub gauges: Vec<DeltaRow>,
}

impl DiffReport {
    /// Number of rows flagged as regressions.
    pub fn regressions(&self) -> usize {
        self.span_time
            .iter()
            .chain(&self.counters)
            .chain(&self.gauges)
            .filter(|r| r.regressed)
            .count()
    }
}

/// Minimum absolute span-time growth (seconds) before a ratio excess is
/// flagged — keeps microsecond jitter from tripping the time gate.
pub const DIFF_MIN_TIME_S: f64 = 0.010;

/// Compares two aggregates. A span-time row regresses when candidate
/// time exceeds baseline by both the relative `threshold` and
/// [`DIFF_MIN_TIME_S`] absolute; a counter row regresses when an
/// iteration-like counter grows beyond the relative threshold; gauges
/// are informational only (never flagged).
pub fn diff(a: &Aggregate, b: &Aggregate, threshold: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let names: std::collections::BTreeSet<&String> =
        a.spans.keys().chain(b.spans.keys()).collect();
    for name in names {
        let ta = a.spans.get(name).map_or(0.0, |s| s.total_s);
        let tb = b.spans.get(name).map_or(0.0, |s| s.total_s);
        let regressed = tb > ta * (1.0 + threshold) && tb - ta > DIFF_MIN_TIME_S;
        report.span_time.push(DeltaRow {
            name: name.clone(),
            a: ta,
            b: tb,
            regressed,
        });
    }
    let names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for name in names {
        let ca = a.counters.get(name).copied().unwrap_or(0.0);
        let cb = b.counters.get(name).copied().unwrap_or(0.0);
        // More work (iterations, retries, drops, refine sweeps) is a
        // regression signal; more cache/store hits is not.
        let work_like = !name.contains("cache_hit") && !name.contains("store.hit");
        let regressed = work_like && ca > 0.0 && cb > ca * (1.0 + threshold);
        report.counters.push(DeltaRow {
            name: name.clone(),
            a: ca,
            b: cb,
            regressed,
        });
    }
    let names: std::collections::BTreeSet<&String> =
        a.gauges.keys().chain(b.gauges.keys()).collect();
    for name in names {
        let ga = a.gauges.get(name).map_or(f64::NAN, |g| g.last);
        let gb = b.gauges.get(name).map_or(f64::NAN, |g| g.last);
        report.gauges.push(DeltaRow {
            name: name.clone(),
            a: ga,
            b: gb,
            regressed: false,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        s.to_string()
    }

    fn sample_trace() -> String {
        [
            line(r#"{"v":1,"kind":"span_open","id":1,"name":"sweep.point","t":0.0,"fields":{}}"#),
            line(r#"{"v":1,"kind":"span_open","id":2,"parent":1,"name":"qbd.solve","t":0.1,"fields":{}}"#),
            line(r#"{"v":1,"kind":"metric","metric":"counter","name":"qbd.gemm","t":0.15,"value":7}"#),
            line(r#"{"v":1,"kind":"metric","metric":"gauge","name":"qbd.residual","t":0.15,"value":1e-3}"#),
            line(r#"{"v":1,"kind":"metric","metric":"gauge","name":"qbd.residual","t":0.2,"value":1e-12}"#),
            line(r#"{"v":1,"kind":"event","level":"warn","name":"qbd.flight","t":0.25,"fields":{"trigger":"watchdog","strategy":"logred","hardened":true,"depth":2}}"#),
            line(r#"{"v":1,"kind":"event","level":"warn","name":"qbd.flight.iter","t":0.25,"fields":{"seq":0,"stage":"logred","iteration":4,"residual":0.5}}"#),
            line(r#"{"v":1,"kind":"event","level":"warn","name":"qbd.flight.iter","t":0.25,"fields":{"seq":1,"stage":"logred","iteration":8,"residual":0.25}}"#),
            line(r#"{"v":1,"kind":"span_close","id":2,"name":"qbd.solve","t":0.4,"elapsed":0.3}"#),
            line(r#"{"v":1,"kind":"span_close","id":1,"name":"sweep.point","t":0.5,"elapsed":0.5}"#),
        ]
        .join("\n")
    }

    #[test]
    fn attribution_self_plus_children_equals_total() {
        let agg = Aggregate::from_ndjson_str(&sample_trace()).expect("parses");
        let root = &agg.tree["sweep.point"];
        assert_eq!(root.count, 1);
        assert!((root.total_s - 0.5).abs() < 1e-12);
        assert!((root.self_s - 0.2).abs() < 1e-12);
        let child = &root.children["qbd.solve"];
        assert!((child.total_s - 0.3).abs() < 1e-12);
        assert!((root.self_s + child.total_s - root.total_s).abs() < 1e-12);
        assert!((agg.root_total() - 0.5).abs() < 1e-12);
        assert!((agg.wall_clock() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_gauges_and_flights_fold() {
        let agg = Aggregate::from_ndjson_str(&sample_trace()).expect("parses");
        assert_eq!(agg.counters["qbd.gemm"], 7.0);
        let g = agg.gauges["qbd.residual"];
        assert_eq!(g.count, 2);
        assert_eq!(g.last, 1e-12);
        assert_eq!(g.max, 1e-3);
        assert_eq!(agg.flights.len(), 1);
        let dump = &agg.flights[0];
        assert_eq!(dump.trigger, "watchdog");
        assert!(dump.hardened);
        assert_eq!(dump.iters.len(), 2);
        assert_eq!(dump.iters[1].iteration, 8);
        assert_eq!(dump.iters[1].residual, 0.25);
        assert_eq!(agg.dropped_records(), 0.0);
    }

    #[test]
    fn self_diff_is_zero_delta() {
        let a = Aggregate::from_ndjson_str(&sample_trace()).expect("parses");
        let b = Aggregate::from_ndjson_str(&sample_trace()).expect("parses");
        let report = diff(&a, &b, 0.2);
        assert_eq!(report.regressions(), 0);
        for row in report.span_time.iter().chain(&report.counters) {
            assert_eq!(row.delta(), 0.0, "{}", row.name);
        }
    }

    #[test]
    fn slower_candidate_is_flagged() {
        let a = Aggregate::from_ndjson_str(&sample_trace()).expect("parses");
        let slow = sample_trace()
            .replace(r#""t":0.5,"elapsed":0.5"#, r#""t":5.0,"elapsed":5.0"#);
        let b = Aggregate::from_ndjson_str(&slow).expect("parses");
        let report = diff(&a, &b, 0.2);
        assert!(report.regressions() >= 1);
        let row = report
            .span_time
            .iter()
            .find(|r| r.name == "sweep.point")
            .unwrap();
        assert!(row.regressed);
    }

    #[test]
    fn truncated_trace_counts_unclosed_spans() {
        let content = sample_trace();
        let lines: Vec<&str> = content.lines().collect();
        let cut = lines[..lines.len() - 2].join("\n");
        let agg = Aggregate::from_ndjson_str(&cut).expect("parses");
        assert_eq!(agg.unclosed_spans, 2);
        assert_eq!(agg.unmatched_closes, 0);
    }

    #[test]
    fn malformed_line_reports_position() {
        let bad = format!("{}\nnot json\n", sample_trace());
        let err = Aggregate::from_ndjson_str(&bad).unwrap_err();
        assert_eq!(err.0, 11);
    }
}
