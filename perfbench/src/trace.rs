//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each public
//! call an op makes into the program, as performa-obs [`Record`]s. The
//! same stream folds through [`performa_obs::agg::Aggregate`] into the
//! self-time tree that `performa obs report` renders, and can be written
//! out as NDJSON in the observatory's schema.

use performa_obs::agg::Aggregate;
use performa_obs::{MetricKind, Record};

use crate::env::Clock;

/// Name of the root span that wraps one traced op.
pub const OP_SPAN: &str = "op";

/// Records the spans and counters of a traced run, on the workload's
/// clock like its untraced ops.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    epoch: f64,
    records: Vec<Record>,
    /// Open spans: id, name and start time.
    stack: Vec<(u64, &'static str, f64)>,
    next_id: u64,
    /// Where each op's records start; an op's records run to the next
    /// op's start, so counters recorded after its root span closes are
    /// still its own.
    op_starts: Vec<usize>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            epoch: clock.now(),
            records: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            op_starts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.clock.now() - self.epoch
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Runs one traced op under the [`OP_SPAN`] root span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op_starts.push(self.records.len());
        self.open(OP_SPAN);
        let out = f(self);
        self.close();
        out
    }

    /// Adds `value` to the counter `name` of the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let t = self.now();
        self.records.push(Record::Metric {
            kind: MetricKind::Counter,
            name,
            t,
            value,
        });
    }

    fn open(&mut self, name: &'static str) {
        self.next_id += 1;
        let id = self.next_id;
        let t = self.now();
        self.records.push(Record::SpanOpen {
            id,
            parent: self.stack.last().map(|s| s.0),
            name,
            t,
            fields: Vec::new(),
        });
        self.stack.push((id, name, t));
    }

    fn close(&mut self) {
        let t = self.now();
        let (id, name, start) = self.stack.pop().expect("a span is open");
        self.records.push(Record::SpanClose {
            id,
            name,
            t,
            elapsed: t - start,
        });
    }

    /// One aggregate per traced op, in order: its spans' self times
    /// (span − children, from [`Aggregate::spans`]) and its counters.
    pub fn ops(&self) -> Vec<Aggregate> {
        let ends = self.op_starts.iter().skip(1).copied();
        self.op_starts
            .iter()
            .zip(ends.chain([self.records.len()]))
            .map(|(&a, b)| Aggregate::from_records(&self.records[a..b]))
            .collect()
    }

    pub fn records(&self) -> &[Record] {
        &self.records
    }
}
