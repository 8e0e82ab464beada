//! Pluggable record consumers: the [`Sink`] trait plus the stderr and
//! in-memory implementations (the NDJSON file sink lives in
//! [`crate::ndjson`]).

use std::io::Write as _;
use std::sync::Mutex;

use crate::record::Record;
use crate::TraceLevel;

/// A consumer of observability [`Record`]s.
///
/// Sinks must be cheap and non-blocking where possible: they are called
/// inline from instrumented hot paths (though only when tracing is
/// enabled). Implementations must be `Send + Sync`; the recorder calls
/// them from arbitrary threads.
pub trait Sink: Send + Sync {
    /// Consume one record.
    fn record(&self, record: &Record);

    /// Flush any buffered output. The default does nothing.
    fn flush(&self) {}
}

/// Human-readable subscriber writing one line per record to stderr.
///
/// Lines look like:
///
/// ```text
/// [  0.001234] INFO  qbd.attempt> strategy="logred" tolerance=1.0e-14
/// [  0.004321] WARN  qbd.watchdog_trip stage="logred" iteration=184
/// [  0.005000] INFO  qbd.attempt< elapsed=3.766ms
/// ```
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    /// Creates the sink.
    pub fn new() -> Self {
        StderrSink
    }
}

fn level_tag(level: TraceLevel) -> &'static str {
    match level {
        TraceLevel::Off => "OFF  ",
        TraceLevel::Error => "ERROR",
        TraceLevel::Warn => "WARN ",
        TraceLevel::Info => "INFO ",
        TraceLevel::Debug => "DEBUG",
        TraceLevel::Trace => "TRACE",
    }
}

impl Sink for StderrSink {
    fn record(&self, record: &Record) {
        let mut line = String::with_capacity(96);
        match record {
            Record::SpanOpen { name, t, fields, .. } => {
                line.push_str(&format!("[{t:>10.6}] INFO  {name}>"));
                for (k, v) in fields {
                    line.push_str(&format!(" {k}={v}"));
                }
            }
            Record::SpanClose { name, t, elapsed, .. } => {
                line.push_str(&format!(
                    "[{t:>10.6}] INFO  {name}< elapsed={:.3}ms",
                    elapsed * 1e3
                ));
            }
            Record::Event { level, name, t, fields, .. } => {
                line.push_str(&format!("[{t:>10.6}] {} {name}", level_tag(*level)));
                for (k, v) in fields {
                    line.push_str(&format!(" {k}={v}"));
                }
            }
            Record::Metric { kind, name, t, value } => {
                line.push_str(&format!(
                    "[{t:>10.6}] DEBUG {name} {}={value:.6e}",
                    kind.name()
                ));
            }
        }
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }

    fn flush(&self) {
        let _ = std::io::stderr().flush();
    }
}

/// In-memory sink for tests: stores every record, with query helpers
/// for asserting on span trees and event sequences.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of every record received so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Number of records received.
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    /// `true` when no records have been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all stored records.
    pub fn clear(&self) {
        self.records.lock().expect("memory sink poisoned").clear();
    }

    /// Event records with the given name, in order.
    pub fn events_named(&self, name: &str) -> Vec<Record> {
        self.records()
            .into_iter()
            .filter(|r| matches!(r, Record::Event { .. }) && r.name() == name)
            .collect()
    }

    /// Names of all event records, in order (spans and metrics are
    /// skipped) — convenient for asserting event sequences.
    pub fn event_names(&self) -> Vec<&'static str> {
        self.records()
            .iter()
            .filter(|r| matches!(r, Record::Event { .. }))
            .map(|r| r.name())
            .collect()
    }

    /// Span-open records with the given name, in order.
    pub fn spans_named(&self, name: &str) -> Vec<Record> {
        self.records()
            .into_iter()
            .filter(|r| matches!(r, Record::SpanOpen { .. }) && r.name() == name)
            .collect()
    }

    /// The parent span id recorded for the span with id `id`, if that
    /// span was seen.
    pub fn parent_of(&self, id: u64) -> Option<Option<u64>> {
        self.records().into_iter().find_map(|r| match r {
            Record::SpanOpen { id: sid, parent, .. } if sid == id => Some(parent),
            _ => None,
        })
    }
}

impl Sink for MemorySink {
    fn record(&self, record: &Record) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn memory_sink_stores_and_queries() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&Record::SpanOpen {
            id: 1,
            parent: None,
            name: "qbd.solve",
            t: 0.0,
            fields: vec![],
        });
        sink.record(&Record::SpanOpen {
            id: 2,
            parent: Some(1),
            name: "qbd.attempt",
            t: 0.001,
            fields: vec![("strategy", Value::from("logred"))],
        });
        sink.record(&Record::Event {
            span: Some(2),
            level: TraceLevel::Warn,
            name: "qbd.watchdog_trip",
            t: 0.002,
            fields: vec![("iteration", Value::from(184u64))],
        });
        sink.record(&Record::SpanClose {
            id: 2,
            name: "qbd.attempt",
            t: 0.003,
            elapsed: 0.002,
        });
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.event_names(), vec!["qbd.watchdog_trip"]);
        assert_eq!(sink.spans_named("qbd.attempt").len(), 1);
        assert_eq!(sink.parent_of(2), Some(Some(1)));
        assert_eq!(sink.parent_of(1), Some(None));
        assert_eq!(sink.parent_of(99), None);
        let trips = sink.events_named("qbd.watchdog_trip");
        assert_eq!(trips[0].field("iteration").and_then(Value::as_f64), Some(184.0));
        sink.clear();
        assert!(sink.is_empty());
    }
}
