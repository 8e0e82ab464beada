//! performa-obs: zero-dependency observability for the performa
//! workspace.
//!
//! Three cooperating facilities behind one process-global recorder:
//!
//! * **Tracing** — nested [`Span`]s plus point [`event`]s with typed
//!   [`Value`] payloads, filtered by [`TraceLevel`] and delivered to
//!   pluggable [`Sink`]s ([`StderrSink`] for humans, [`NdjsonSink`]
//!   for machines, [`MemorySink`] for tests).
//! * **Metrics** — [`counter_add`] / [`gauge_set`] /
//!   [`histogram_record`], aggregated in-process and rendered by
//!   [`Snapshot::profile_table`] (the CLI's `--profile` output).
//! * **Profiling scopes** — span wall-clock timings feed the same
//!   registry, so `--profile` shows where solve time goes without a
//!   separate profiler.
//!
//! Everything is off by default and costs a couple of relaxed atomic
//! loads per call site when off; see [`recorder`] for the exact
//! gating rules and `DESIGN.md` §8 for the event taxonomy and NDJSON
//! schema.
//!
//! ```
//! use std::sync::Arc;
//! let _guard = performa_obs::test_lock();
//! let sink = Arc::new(performa_obs::MemorySink::new());
//! let id = performa_obs::add_sink(sink.clone());
//! performa_obs::set_level(performa_obs::TraceLevel::Info);
//! {
//!     let _span = performa_obs::span("core.solve");
//!     performa_obs::event(
//!         performa_obs::TraceLevel::Info,
//!         "qbd.converged",
//!         vec![("residual", 1.0e-12.into())],
//!     );
//! }
//! assert_eq!(sink.event_names(), vec!["qbd.converged"]);
//! performa_obs::set_level(performa_obs::TraceLevel::Off);
//! performa_obs::remove_sink(id);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod flight;
mod level;
mod metrics;
pub mod ndjson;
mod record;
pub mod recorder;
mod sink;
mod value;

pub use level::{ParseLevelError, TraceLevel};
pub use metrics::{bucket_index, HistogramStats, Snapshot, SpanTiming, BUCKETS};
pub use ndjson::{DropCause, NdjsonSink, SCHEMA_VERSION};
pub use record::{MetricKind, Record};
pub use recorder::{
    add_sink, counter_add, current_span, enabled, event, flush_sinks, gauge_set,
    histogram_record, level, metrics_enabled, metrics_snapshot, remove_sink, reset_metrics,
    set_level, set_metrics, span, span_with, test_lock, timing_active, SinkId, Span,
};
pub use sink::{MemorySink, Sink, StderrSink};
pub use value::{Field, Value};
