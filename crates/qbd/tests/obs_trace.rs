//! In-memory-sink assertions on the supervisor's structured trace.
//!
//! These tests pin down the observable contract of a supervised solve:
//! a clean solve emits a tidy span tree and *zero* warning events, and a
//! fault-injected solve leaves a trace from which the whole recovery
//! story — attempt, watchdog trip, rejection, hardened retry,
//! convergence, per-iteration residuals — can be reconstructed.

use std::sync::Arc;

use performa_linalg::{Matrix, Vector};
use performa_obs::{self as obs, MemorySink, Record, TraceLevel};
use performa_qbd::{Qbd, SolverSupervisor};

fn mmpp2(lambda: f64) -> Qbd {
    let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
    let rates = Vector::from(vec![2.0, 0.2]);
    Qbd::m_mmpp1(lambda, &q, &rates).unwrap()
}

/// Installs a memory sink at `Debug`, runs `f`, and tears back down.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let id = obs::add_sink(sink.clone());
    obs::set_level(TraceLevel::Debug);
    let out = f();
    obs::set_level(TraceLevel::Off);
    obs::remove_sink(id);
    (out, sink)
}

#[test]
fn clean_solve_emits_zero_warning_events() {
    let _guard = obs::test_lock();
    let (result, sink) = traced(|| SolverSupervisor::new(mmpp2(1.0)).solve());
    let (_, report) = result.unwrap();
    assert!(!report.degraded);

    let warnish = sink
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r,
                Record::Event {
                    level: TraceLevel::Warn | TraceLevel::Error,
                    ..
                }
            )
        })
        .count();
    assert_eq!(warnish, 0, "clean solve must not warn");

    // Exactly one solve span with one converged attempt under it.
    assert_eq!(sink.spans_named("qbd.solve").len(), 1);
    assert_eq!(sink.spans_named("qbd.attempt").len(), 1);
    assert_eq!(sink.events_named("qbd.converged").len(), 1);
}

#[cfg(feature = "fault-injection")]
#[test]
fn hardened_retry_emits_expected_span_tree_and_event_sequence() {
    use performa_qbd::fault;

    // Both tests in this binary hold the obs lock, which also keeps the
    // one-shot global poison from being consumed by the other's solve.
    let _guard = obs::test_lock();
    let _fault = fault::arm_global(fault::FaultPlan {
        poison: Some(("logred", 1)),
        ..Default::default()
    });
    let (result, sink) = traced(|| SolverSupervisor::new(mmpp2(1.0)).solve());
    let (_, report) = result.unwrap();
    assert!(report.degraded);

    // Span tree: one qbd.solve root; both qbd.attempt spans (the
    // poisoned attempt and its hardened retry) are its children.
    let solve_spans = sink.spans_named("qbd.solve");
    assert_eq!(solve_spans.len(), 1);
    let Record::SpanOpen { id: solve_id, parent: solve_parent, .. } = solve_spans[0] else {
        unreachable!()
    };
    assert_eq!(solve_parent, None, "qbd.solve is a root span");
    let attempts = sink.spans_named("qbd.attempt");
    assert_eq!(attempts.len(), 2, "poisoned attempt plus its hardened retry");
    for a in &attempts {
        let Record::SpanOpen { parent, .. } = a else { unreachable!() };
        assert_eq!(*parent, Some(solve_id));
    }

    // Event sequence: attempt iterations, then the watchdog trip, then
    // the rejection warning, then convergence of the hardened retry.
    let names = sink.event_names();
    let trip = names
        .iter()
        .position(|n| *n == "qbd.watchdog_trip")
        .expect("watchdog trip event");
    let fallback = names
        .iter()
        .position(|n| *n == "qbd.fallback")
        .expect("fallback event");
    let converged = names
        .iter()
        .position(|n| *n == "qbd.converged")
        .expect("converged event");
    assert!(
        trip < fallback && fallback < converged,
        "expected trip < fallback < converged in {names:?}"
    );

    // Per-iteration residuals are recoverable with numeric payloads.
    let iters = sink.events_named("qbd.iter");
    assert!(!iters.is_empty(), "per-iteration events present");
    for e in &iters {
        let Record::Event { fields, .. } = e else { unreachable!() };
        let residual = fields
            .iter()
            .find(|(k, _)| *k == "residual")
            .expect("residual field");
        assert!(residual.1.as_f64().is_some(), "numeric residual");
    }

    // The same story survives the NDJSON round trip: the serialized
    // trace validates against schema v1 and still names the retry
    // sequence and the per-iteration residual stream.
    let ndjson: String = sink
        .records()
        .iter()
        .map(|r| obs::ndjson::to_json_line(r) + "\n")
        .collect();
    let stats = obs::ndjson::validate_str(&ndjson).unwrap();
    assert!(stats.total() > 0);
    for needle in [
        "\"name\":\"qbd.watchdog_trip\"",
        "\"name\":\"qbd.fallback\"",
        "\"name\":\"qbd.converged\"",
        "\"name\":\"qbd.iter\"",
        "\"name\":\"qbd.residual\"",
    ] {
        assert!(ndjson.contains(needle), "{needle} missing from NDJSON");
    }
}
