//! Per-solve flight recorder: a fixed-size ring buffer of the most
//! recent solver iteration records, dumped as structured forensic
//! events when something goes wrong (watchdog trip, stage fallback,
//! hardening escalation).
//!
//! The solver's per-iteration telemetry (`qbd.iter` events, the
//! `qbd.residual` gauge) is only captured at `Debug` verbosity —
//! too chatty for production traces. The flight recorder closes that
//! gap: it remembers the last [`CAPACITY`] iteration records at full
//! detail in a thread-local ring, costing nothing but the ring write,
//! and emits them *retroactively* — as `qbd.flight` / `qbd.flight.iter`
//! events at [`TraceLevel::Warn`] — only when a failure makes them
//! interesting. Every blow-up thereby ships its own post-mortem, even
//! in a `--trace-level warn` run.
//!
//! Gating follows the recorder's pay-for-what-you-use invariant:
//! [`note`] is a couple of relaxed atomic loads and an early return
//! unless a sink is installed at `Warn` or higher (the level at which
//! a dump would be visible). At [`TraceLevel::Off`] the ring is never
//! touched.

use crate::recorder::{enabled, event};
use crate::TraceLevel;
use std::cell::RefCell;

/// Number of iteration records the ring retains (the "last K").
pub const CAPACITY: usize = 32;

/// One remembered solver iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterRecord {
    /// Stage key (`"logred"`).
    pub stage: &'static str,
    /// Iteration index within the stage.
    pub iteration: u64,
    /// Convergence metric observed at that iteration.
    pub residual: f64,
}

#[derive(Debug)]
struct Ring {
    records: Vec<IterRecord>,
    head: usize,
    len: usize,
    strategy: &'static str,
    hardened: bool,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            records: Vec::new(),
            head: 0,
            len: 0,
            strategy: "",
            hardened: false,
        }
    }

    fn push(&mut self, rec: IterRecord) {
        if self.records.is_empty() {
            self.records.reserve_exact(CAPACITY);
            self.records.resize(
                CAPACITY,
                IterRecord {
                    stage: "",
                    iteration: 0,
                    residual: f64::NAN,
                },
            );
        }
        self.records[self.head] = rec;
        self.head = (self.head + 1) % CAPACITY;
        self.len = (self.len + 1).min(CAPACITY);
    }

    /// Records in chronological order (oldest first).
    fn chronological(&self) -> Vec<IterRecord> {
        let mut out = Vec::with_capacity(self.len);
        let start = (self.head + CAPACITY - self.len) % CAPACITY;
        for i in 0..self.len {
            out.push(self.records[(start + i) % CAPACITY]);
        }
        out
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

/// `true` when the flight recorder is armed: a dump would reach a sink,
/// so the ring is worth feeding. A single check of the recorder gates.
#[inline]
pub fn armed() -> bool {
    enabled(TraceLevel::Warn)
}

/// Starts a fresh recording window (called at the top of each solve
/// attempt): clears the ring and remembers the attempt context that a
/// later dump will carry.
pub fn begin(strategy: &'static str, hardened: bool) {
    if !armed() {
        return;
    }
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        ring.clear();
        ring.strategy = strategy;
        ring.hardened = hardened;
    });
}

/// Appends one iteration record to the ring (overwriting the oldest
/// once [`CAPACITY`] is reached). Cheap no-op when not [`armed`].
#[inline]
pub fn note(stage: &'static str, iteration: u64, residual: f64) {
    if !armed() {
        return;
    }
    RING.with(|r| {
        r.borrow_mut().push(IterRecord {
            stage,
            iteration,
            residual,
        })
    });
}

/// Dumps the ring as structured forensic events and clears it.
///
/// Emits one `qbd.flight` summary event (`trigger`, `strategy`,
/// `hardened`, `depth`) followed by one `qbd.flight.iter` event per
/// remembered iteration (`seq`, `stage`, `iteration`, `residual`),
/// oldest first, all at [`TraceLevel::Warn`]. A dump of an empty ring
/// is a no-op, so the ladder can call this at every failure site
/// without double-reporting an already-dumped window.
pub fn dump(trigger: &'static str) {
    if !armed() {
        return;
    }
    let (records, strategy, hardened) = RING.with(|r| {
        let mut ring = r.borrow_mut();
        let recs = ring.chronological();
        let ctx = (ring.strategy, ring.hardened);
        ring.clear();
        (recs, ctx.0, ctx.1)
    });
    if records.is_empty() {
        return;
    }
    event(
        TraceLevel::Warn,
        "qbd.flight",
        vec![
            ("trigger", trigger.into()),
            ("strategy", strategy.into()),
            ("hardened", hardened.into()),
            ("depth", records.len().into()),
        ],
    );
    for (seq, rec) in records.iter().enumerate() {
        event(
            TraceLevel::Warn,
            "qbd.flight.iter",
            vec![
                ("seq", seq.into()),
                ("stage", rec.stage.into()),
                ("iteration", rec.iteration.into()),
                ("residual", rec.residual.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{add_sink, remove_sink, set_level, test_lock};
    use crate::sink::MemorySink;
    use crate::Record;
    use std::sync::Arc;

    #[test]
    fn off_level_never_touches_the_ring() {
        let _guard = test_lock();
        set_level(TraceLevel::Off);
        note("logred", 3, 1.0e-3);
        dump("watchdog");
        // Arm a sink afterwards: nothing was retained while off.
        let sink = Arc::new(MemorySink::new());
        let id = add_sink(sink.clone());
        set_level(TraceLevel::Warn);
        dump("watchdog");
        assert!(sink.is_empty());
        set_level(TraceLevel::Off);
        remove_sink(id);
    }

    #[test]
    fn ring_keeps_last_k_and_dump_clears() {
        let _guard = test_lock();
        let sink = Arc::new(MemorySink::new());
        let id = add_sink(sink.clone());
        set_level(TraceLevel::Warn);
        begin("logred", true);
        for it in 0..(CAPACITY as u64 + 5) {
            note("logred", it, 2.0_f64.powi(-(it as i32)));
        }
        dump("stage_failed");
        let summaries = sink.events_named("qbd.flight");
        assert_eq!(summaries.len(), 1);
        let iters = sink.events_named("qbd.flight.iter");
        assert_eq!(iters.len(), CAPACITY);
        // Oldest surviving record is iteration 5 (5 overwritten).
        if let Record::Event { fields, .. } = &iters[0] {
            let it = fields
                .iter()
                .find(|(k, _)| *k == "iteration")
                .and_then(|(_, v)| v.as_f64())
                .unwrap();
            assert_eq!(it, 5.0);
        } else {
            unreachable!()
        }
        // Ring was cleared: a second dump emits nothing.
        dump("stage_failed");
        assert_eq!(sink.events_named("qbd.flight").len(), 1);
        set_level(TraceLevel::Off);
        remove_sink(id);
    }
}
