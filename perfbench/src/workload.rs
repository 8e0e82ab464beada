//! What the run loop needs from a workload.

use std::collections::BTreeMap;

use crate::env::Clock;
use crate::trace::Tracer;

/// What one op of a pass is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Its cost class: ops of one class cost about the same, so the
    /// median and the tail must fall inside a class, never on the step
    /// between two.
    pub class: &'static str,
    /// Its input inside the class. The configurations of the classes
    /// that hold the median and the tail must cost about the same too.
    pub config: String,
}

/// One op's result as the run loop sees it.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// The numbers the op reads from the program, compared bit for bit
    /// between the untraced and the traced run of the same op.
    pub values: Vec<f64>,
    /// Whether the program flagged the answer as degraded.
    pub degraded: bool,
}

/// A closed-loop workload: a fixed multiset of ops (one pass) whose order
/// the seed permutes.
pub trait Workload {
    /// Whatever an op hands to its answer check.
    type Done;

    /// The clock set-ups, ops and spans are timed on.
    const CLOCK: Clock = Clock::Cpu;

    /// Whether an op's latency is the fastest run of its configuration,
    /// rather than the run reporting its fastest pass. True where the
    /// ops of a configuration are one deterministic computation; false
    /// where every op is the same call (its tail would vanish) or each
    /// run of an op is a different replication.
    const FASTEST_PER_CONFIG: bool = true;

    /// Every op of one pass, by index, cheapest class first.
    fn pass(&self) -> Vec<Label>;

    /// Seconds of one pass on the 2-vCPU Xeon VM the passes were sized
    /// on; a run of `--seconds s` makes `max(1, round(s / nominal_pass_s))`
    /// passes.
    fn nominal_pass_s(&self) -> f64;

    /// The workload's one-off work before the first timed op.
    fn setup(&mut self) -> Result<(), String>;

    /// Runs op `op` of the pass through the program's public API.
    fn run(&self, op: usize, seed: u64) -> Result<Self::Done, String>;

    /// The same op split into one span per public call.
    fn run_traced(&self, op: usize, seed: u64, tracer: &mut Tracer) -> Result<Self::Done, String>;

    /// Counters of a traced op gathered outside its spans.
    fn count(&self, _op: usize, _done: &Self::Done, _tracer: &mut Tracer) {}

    /// What the op read from the program.
    fn outputs(&self, done: &Self::Done) -> Outputs;

    /// Checks one op's answer outside op timing. On success returns how
    /// close the answer came to failing, as a share of the tolerance.
    fn check(&self, op: usize, done: &Self::Done) -> Result<f64, String>;

    /// Checks that span the whole run. Gets `(op, outputs)` of every op
    /// that ran and passed its own check, and returns the positions in
    /// that list that fail, with the reason.
    fn check_run(&self, _ran: &[(usize, &Outputs)]) -> Vec<(usize, String)> {
        Vec::new()
    }

    /// Set-up measurements of the traced run (milliseconds or counts).
    fn traced_setup(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }
}
